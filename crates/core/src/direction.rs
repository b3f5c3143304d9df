//! Direction-optimizing BFS policy (Beamer et al., SC'12).
//!
//! "BFS typically starts the traversal in top-down and switches to bottom-up
//! in a later stage" (§2). The switch heuristic is the standard
//! direction-optimizing one: go bottom-up when the frontier's out-edges
//! exceed a fraction of the unexplored edges, return to top-down when the
//! frontier shrinks back below a fraction of the vertices. All engines share
//! this policy so their traversal orders — and therefore their per-level
//! frontier sets — are comparable.

use ibfs_util::{json_enum, json_struct};

/// Traversal direction at one BFS level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Expand from the frontier to unvisited neighbors.
    TopDown,
    /// Unvisited vertices search their neighbors for a visited parent.
    BottomUp,
}

json_enum!(Direction { TopDown, BottomUp });

/// The α/β heuristic of direction-optimizing BFS.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DirectionPolicy {
    /// Switch top-down → bottom-up when
    /// `frontier_edges > unexplored_edges / alpha`.
    pub alpha: f64,
    /// Switch bottom-up → top-down when
    /// `frontier_vertices < total_vertices / beta`.
    pub beta: f64,
}

// `top_down_only()` carries `alpha = +inf`; the util codec maps non-finite
// floats to strings so this round-trips.
json_struct!(DirectionPolicy { alpha, beta });

impl DirectionPolicy {
    /// Beamer's published defaults.
    pub fn beamer() -> Self {
        DirectionPolicy { alpha: 14.0, beta: 24.0 }
    }

    /// A policy that never leaves top-down (the SpMM-BC baseline "does not
    /// support bottom-up BFS").
    pub fn top_down_only() -> Self {
        DirectionPolicy { alpha: f64::INFINITY, beta: 0.0 }
    }

    /// Decides the direction of the next level.
    ///
    /// * `current` — direction just executed.
    /// * `frontier_edges` — out-edges of the next frontier.
    /// * `frontier_vertices` — size of the next frontier.
    /// * `unexplored_edges` — out-edges of still-unvisited vertices.
    /// * `total_vertices` — `|V|`.
    pub fn next(
        &self,
        current: Direction,
        frontier_edges: u64,
        frontier_vertices: u64,
        unexplored_edges: u64,
        total_vertices: u64,
    ) -> Direction {
        match current {
            Direction::TopDown => {
                if self.alpha.is_finite()
                    && frontier_edges as f64 > unexplored_edges as f64 / self.alpha
                {
                    Direction::BottomUp
                } else {
                    Direction::TopDown
                }
            }
            Direction::BottomUp => {
                if (frontier_vertices as f64) < total_vertices as f64 / self.beta {
                    Direction::TopDown
                } else {
                    Direction::BottomUp
                }
            }
        }
    }
}

impl Default for DirectionPolicy {
    fn default() -> Self {
        DirectionPolicy::beamer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_top_down_for_small_frontiers() {
        let p = DirectionPolicy::beamer();
        let d = p.next(Direction::TopDown, 10, 5, 10_000, 1_000);
        assert_eq!(d, Direction::TopDown);
    }

    #[test]
    fn switches_to_bottom_up_on_frontier_explosion() {
        let p = DirectionPolicy::beamer();
        // frontier edges 2000 > 10_000/14 ≈ 714.
        let d = p.next(Direction::TopDown, 2_000, 500, 10_000, 1_000);
        assert_eq!(d, Direction::BottomUp);
    }

    #[test]
    fn returns_to_top_down_when_frontier_shrinks() {
        let p = DirectionPolicy::beamer();
        let stay = p.next(Direction::BottomUp, 0, 500, 0, 1_000);
        assert_eq!(stay, Direction::BottomUp);
        // 30 < 1000/24 ≈ 41.7.
        let back = p.next(Direction::BottomUp, 0, 30, 0, 1_000);
        assert_eq!(back, Direction::TopDown);
    }

    #[test]
    fn top_down_only_never_switches() {
        let p = DirectionPolicy::top_down_only();
        let d = p.next(Direction::TopDown, u64::MAX / 2, 999, 1, 1_000);
        assert_eq!(d, Direction::TopDown);
    }
}
