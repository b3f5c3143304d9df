//! Hub-heavy adversarial generator.
//!
//! The worst case for vertex-granular work splitting: one vertex owning
//! the majority of all directed edges. A scheduler that cannot split
//! inside an edge list serializes most of every top-down level behind
//! whichever lane drew the hub. The CPU differential wall runs the engine
//! on this graph.

use crate::{Csr, CsrBuilder, VertexId};
use ibfs_util::Rng;

/// Builds a directed multigraph of `n` vertices where vertex 0 (the hub)
/// owns more than half of all directed edges.
///
/// Structure: the hub keeps `dup` parallel edges to every other vertex
/// (duplicates retained — this is a multigraph by design); every other
/// vertex has one edge back to the hub, one ring edge to its successor,
/// and one seeded random chord. With `dup >= 4` the hub's out-degree
/// `dup·(n−1)` exceeds the `3·(n−1)` edges owned by everyone else
/// combined, so the hub holds `dup/(dup+3) > 50%` of all directed edges.
/// Deterministic in `seed`.
pub fn hub_heavy(n: usize, dup: usize, seed: u64) -> Csr {
    assert!(n >= 3, "hub graph needs at least 3 vertices");
    assert!(dup >= 4, "dup >= 4 keeps the hub above 50% of edges");
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = CsrBuilder::new(n)
        .keep_duplicates()
        .with_edge_capacity((dup + 3) * (n - 1));
    let last = (n - 1) as VertexId;
    for v in 1..=last {
        for _ in 0..dup {
            b.add_edge(0, v);
        }
        b.add_edge(v, 0);
        // Ring over the non-hub vertices keeps them mutually reachable
        // without going through the hub.
        b.add_edge(v, if v == last { 1 } else { v + 1 });
        let mut w = rng.gen_range(1..n as VertexId);
        if w == v {
            w = if v == last { 1 } else { v + 1 };
        }
        b.add_edge(v, w);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::reference_bfs;

    #[test]
    fn hub_owns_majority_of_edges() {
        let g = hub_heavy(500, 4, 11);
        let hub_deg = g.out_degree(0);
        assert!(
            2 * hub_deg > g.num_edges(),
            "hub {} of {} edges",
            hub_deg,
            g.num_edges()
        );
        assert_eq!(hub_deg, 4 * 499);
    }

    #[test]
    fn deterministic_and_fully_reachable() {
        assert_eq!(hub_heavy(64, 5, 3), hub_heavy(64, 5, 3));
        let g = hub_heavy(64, 5, 3);
        // From the hub: everything at depth 1.
        let d = reference_bfs(&g, 0);
        assert!(d.iter().skip(1).all(|&x| x == 1));
        // From a ring vertex: hub at depth 1, everyone else within 2.
        let d = reference_bfs(&g, 7);
        assert_eq!(d[0], 1);
        assert!(d.iter().all(|&x| x <= 2));
    }

    #[test]
    fn duplicates_are_retained() {
        let g = hub_heavy(10, 4, 0);
        assert_eq!(g.neighbors(0).iter().filter(|&&w| w == 3).count(), 4);
    }
}
