//! Regular mesh generators — DIMACS-style high-diameter graphs.
//!
//! High-diameter, low-degree inputs like road networks are where per-level
//! costs dominate: a level-synchronous engine pays one barrier per BFS
//! level and a 2D mesh has O(√n) levels. Galois' BFS README and Buluç &
//! Madduri (arXiv:1104.4518) expect barrier-free engines to win there; the
//! benchmark's `batch-mesh` workload measured ours losing (DESIGN.md, *CPU
//! engine round 2*). These generators produce deterministic stand-ins for
//! that graph class.

use crate::{Csr, CsrBuilder, VertexId};

/// A 2D grid (4-neighbor von Neumann mesh) of `rows × cols` vertices,
/// stored undirected. Vertex `(r, c)` has id `r * cols + c`; its BFS
/// diameter from a corner is `rows + cols - 2`, so the graph behaves like
/// a DIMACS road network: tiny frontiers, many levels.
pub fn grid2d(rows: usize, cols: usize) -> Csr {
    let n = rows * cols;
    let mut b = CsrBuilder::new(n).with_edge_capacity(4 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = (r * cols + c) as VertexId;
            if c + 1 < cols {
                b.add_undirected_edge(v, v + 1);
            }
            if r + 1 < rows {
                b.add_undirected_edge(v, v + cols as VertexId);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::reference_bfs;

    #[test]
    fn grid_shape() {
        let g = grid2d(4, 5);
        assert_eq!(g.num_vertices(), 20);
        // 4*(5-1) horizontal + 5*(4-1) vertical undirected edges, stored
        // in both directions.
        assert_eq!(g.num_edges(), 2 * (4 * 4 + 5 * 3));
        assert!(g.is_symmetric());
        // Interior vertex has 4 neighbors, corner has 2.
        assert_eq!(g.out_degree(6), 4);
        assert_eq!(g.out_degree(0), 2);
    }

    #[test]
    fn grid_diameter_is_manhattan() {
        let g = grid2d(7, 9);
        let d = reference_bfs(&g, 0);
        assert_eq!(d[g.num_vertices() - 1], (7 + 9 - 2) as u8);
    }

    #[test]
    fn degenerate_grids() {
        // A 1×n grid is a path.
        let g = grid2d(1, 6);
        assert_eq!(g.num_edges(), 10);
        let d = reference_bfs(&g, 0);
        assert_eq!(d[5], 5);
        // Empty grid builds.
        assert_eq!(grid2d(0, 7).num_vertices(), 0);
    }
}
