//! Metrics: TEPS, sharing degree/ratio, workload-balance statistics, and
//! run summaries.
//!
//! These are the single source of truth for the ratio conventions every
//! layer shares: a zero denominator (no simulated time, no frontiers, no
//! instances) yields `0.0`, never NaN or infinity.

use crate::direction::Direction;
use crate::engine::{GroupRun, LevelStats};
use crate::trace::TraversalEvent;
use ibfs_graph::{Csr, Depth};
use ibfs_util::json_struct;

/// Traversed-edges-per-second from raw quantities.
pub fn teps(traversed_edges: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        traversed_edges as f64 / seconds
    }
}

/// Sharing degree `SD = Σ_k Σ_j |FQ_j(k)| / Σ_k |JFQ(k)|` (Equation 1) over
/// a set of per-level statistics. For private-queue engines every frontier
/// is its own queue entry, so SD is 1 by construction.
pub fn sharing_degree<'a>(levels: impl IntoIterator<Item = &'a LevelStats>) -> f64 {
    let mut unique = 0u64;
    let mut total = 0u64;
    for l in levels {
        unique += l.unique_frontiers;
        total += l.instance_frontiers;
    }
    if unique == 0 {
        0.0
    } else {
        total as f64 / unique as f64
    }
}

/// Sharing ratio: sharing degree over group size (§5.1).
pub fn sharing_ratio(sharing_degree: f64, instances: usize) -> f64 {
    if instances == 0 {
        0.0
    } else {
        sharing_degree / instances as f64
    }
}

/// [`sharing_degree`] over a stream of per-level trace events — the serve
/// layer derives each batch's sharing degree from the [`TraversalEvent`]s
/// its traced run emitted, without keeping the `GroupRun`s around.
pub fn event_sharing_degree<'a>(events: impl IntoIterator<Item = &'a TraversalEvent>) -> f64 {
    let mut unique = 0u64;
    let mut total = 0u64;
    for e in events {
        unique += e.unique_frontiers;
        total += e.instance_frontiers;
    }
    if unique == 0 {
        0.0
    } else {
        total as f64 / unique as f64
    }
}

/// Batch occupancy: how full a dispatched batch is relative to the §3
/// group-size clamp. Zero-clamp follows the zero-denominator convention.
pub fn batch_occupancy(requests: usize, max_batch: usize) -> f64 {
    if max_batch == 0 {
        0.0
    } else {
        requests as f64 / max_batch as f64
    }
}

/// Per-batch serve metrics, recorded by the serve layer's workers — one
/// record per batch dispatched to a worker.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchMetrics {
    /// Batch sequence number (dispatch order).
    pub batch: u64,
    /// Worker that executed the batch.
    pub device: u64,
    /// Requests answered by the batch (distinct sources traversed).
    pub requests: u64,
    /// [`batch_occupancy`] against the configured max batch.
    pub occupancy: f64,
    /// Mean wall-clock seconds requests waited between admission and the
    /// start of the batch's traversal.
    pub queue_wait_s: f64,
    /// [`event_sharing_degree`] of the batch's traversal.
    pub sharing_degree: f64,
    /// Wall-clock seconds the CPU engine spent on the batch's traversal
    /// (the `benchmark` package reads the field under this name).
    pub sim_seconds: f64,
    /// Edges traversed across the batch's instances.
    pub traversed_edges: u64,
    /// TEPS of the batch (edges over `sim_seconds`).
    pub teps: f64,
}

json_struct!(BatchMetrics {
    batch,
    device,
    requests,
    occupancy,
    queue_wait_s,
    sharing_degree,
    sim_seconds,
    traversed_edges,
    teps,
});

/// Formats a TEPS value the way the paper quotes them ("640 billion TEPS").
pub fn format_teps(teps: f64) -> String {
    if teps >= 1e12 {
        format!("{:.1} trillion TEPS", teps / 1e12)
    } else if teps >= 1e9 {
        format!("{:.1} billion TEPS", teps / 1e9)
    } else if teps >= 1e6 {
        format!("{:.1} million TEPS", teps / 1e6)
    } else {
        format!("{teps:.0} TEPS")
    }
}

/// Population mean and standard deviation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MeanStd {
    /// Mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

json_struct!(MeanStd { mean, stddev });

/// Computes mean and stddev of a sample.
pub fn mean_std(values: &[f64]) -> MeanStd {
    if values.is_empty() {
        return MeanStd::default();
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    MeanStd {
        mean,
        stddev: var.max(0.0).sqrt(),
    }
}

/// Number of bottom-up inspections instance with depth array `depths` would
/// perform, given the set of levels the group ran bottom-up. This is the
/// per-instance workload of Figure 11: an unvisited vertex scans parents
/// until it finds one at the previous depth (early termination), a vertex
/// that stays unvisited scans its whole parent list.
pub fn bottom_up_inspections(rev: &Csr, depths: &[Depth], bottom_up_levels: &[u32]) -> u64 {
    let mut total = 0u64;
    for v in rev.vertices() {
        let d = depths[v as usize];
        for &k in bottom_up_levels {
            let k = k as Depth;
            if d == k {
                // Scan until the first parent at depth k-1.
                let mut scanned = 0u64;
                for &p in rev.neighbors(v) {
                    scanned += 1;
                    if depths[p as usize] == k - 1 {
                        break;
                    }
                }
                total += scanned;
            } else if d > k {
                // Unvisited at this level (including never visited): full
                // scan finds no parent.
                total += rev.out_degree(v) as u64;
            }
        }
    }
    total
}

/// Per-instance bottom-up inspection counts for a group run, and their
/// spread — the Figure 11 statistic. Uses the run's recorded bottom-up
/// levels.
pub fn bottom_up_balance(rev: &Csr, run: &GroupRun) -> MeanStd {
    let bu_levels: Vec<u32> = run
        .levels
        .iter()
        .filter(|l| l.direction == Direction::BottomUp)
        .map(|l| l.level)
        .collect();
    let counts: Vec<f64> = (0..run.num_instances)
        .map(|j| bottom_up_inspections(rev, run.instance_depths(j), &bu_levels) as f64)
        .collect();
    mean_std(&counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_graph::suite::figure1;
    use ibfs_graph::validate::reference_bfs;

    #[test]
    fn teps_and_formatting() {
        assert_eq!(teps(100, 2.0), 50.0);
        assert_eq!(teps(100, 0.0), 0.0);
        assert_eq!(format_teps(5.0e9), "5.0 billion TEPS");
        assert_eq!(format_teps(1.5e12), "1.5 trillion TEPS");
        assert_eq!(format_teps(2.0e6), "2.0 million TEPS");
        assert_eq!(format_teps(10.0), "10 TEPS");
    }

    #[test]
    fn sharing_degree_and_ratio_conventions() {
        let levels = [
            LevelStats {
                level: 1,
                direction: Direction::TopDown,
                unique_frontiers: 2,
                instance_frontiers: 4,
                edges_inspected: 0,
                early_terminations: 0,
            },
            LevelStats {
                level: 2,
                direction: Direction::TopDown,
                unique_frontiers: 1,
                instance_frontiers: 2,
                edges_inspected: 0,
                early_terminations: 0,
            },
        ];
        assert_eq!(sharing_degree(&levels), 2.0);
        assert_eq!(sharing_degree(&[]), 0.0);
        assert_eq!(sharing_ratio(2.0, 4), 0.5);
        assert_eq!(sharing_ratio(2.0, 0), 0.0);
    }

    #[test]
    fn event_sharing_degree_matches_level_stats() {
        use crate::trace::TraversalEvent;
        let event = |unique, inst| TraversalEvent {
            group: 0,
            batch: 0,
            level: 1,
            direction: Direction::TopDown,
            unique_frontiers: unique,
            instance_frontiers: inst,
            edges_inspected: 0,
            early_terminations: 0,
            load_transactions: 0,
            store_transactions: 0,
            atomic_transactions: 0,
            sim_seconds: 0.0,
            wall_seconds: 0.0,
        };
        let events = [event(2, 4), event(1, 2)];
        assert_eq!(event_sharing_degree(&events), 2.0);
        assert_eq!(event_sharing_degree(&[]), 0.0);
    }

    #[test]
    fn batch_occupancy_conventions() {
        assert_eq!(batch_occupancy(4, 8), 0.5);
        assert_eq!(batch_occupancy(8, 8), 1.0);
        assert_eq!(batch_occupancy(1, 0), 0.0);
    }

    #[test]
    fn mean_std_basics() {
        let s = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), MeanStd::default());
    }

    #[test]
    fn bottom_up_inspections_counts_early_termination() {
        let g = figure1();
        let d = reference_bfs(&g, 0);
        // Level 3 bottom-up: vertices 6, 7, 8 have depth 3 in BFS-0
        // (the paper's Figure 1(c) bottom-up level). Each scans its parent
        // list until a depth-2 parent.
        let total = bottom_up_inspections(&g, &d, &[3]);
        // Vertex 6: parents sorted [3, 7]; 3 has depth 2 → 1 inspection
        // (the paper's early-termination example for vertex 6!).
        // Vertex 7: [5, 6, 8]; 5 has depth 2 → 1. Vertex 8: [5, 7]; 5 → 1.
        assert_eq!(total, 3);
    }

    #[test]
    fn unvisited_vertices_scan_fully() {
        let mut b = ibfs_graph::CsrBuilder::new(4);
        b.add_undirected_edge(0, 1);
        b.add_undirected_edge(2, 3);
        let g = b.build();
        let d = reference_bfs(&g, 0);
        // Level 1 bottom-up: 1 has depth 1 (parent 0 found, 1 inspection);
        // 2 and 3 are unreachable, each scans its single parent.
        assert_eq!(bottom_up_inspections(&g, &d, &[1]), 3);
    }

    #[test]
    fn no_bottom_up_levels_means_zero() {
        let g = figure1();
        let d = reference_bfs(&g, 0);
        assert_eq!(bottom_up_inspections(&g, &d, &[]), 0);
    }
}
