//! Batch coalescing: turning an admission window into dispatchable batches.
//!
//! Each batch dispatched to a worker runs as **one traversal group**, so a
//! batch may never exceed the CPU engine's group capacity (see
//! [`crate::effective_max_batch`]). Within that constraint the planner
//! decides *which* pending requests traverse together:
//!
//! * [`CoalescePolicy::Arrival`] (default) — chunk the window in arrival
//!   order (the baseline every request-batching system starts from).
//! * [`CoalescePolicy::GroupBy`] — partition with the paper's §5.2
//!   out-degree rules, clamped to the batch bound, at O(Σ degree) per
//!   window.
//!
//! The planner operates on **distinct** sources; the server maps duplicate
//! concurrent requests for the same source onto one traversal instance.

use ibfs::groupby::{outdegree_grouping, GroupByConfig};
use ibfs_graph::{Csr, VertexId};

/// How the batcher groups an admission window into batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CoalescePolicy {
    /// Chunk in arrival order; no grouping work at all.
    #[default]
    Arrival,
    /// Always apply the §5.2 out-degree rules.
    GroupBy,
}

/// The planner's output: a partition of the window's distinct sources into
/// batches of at most the clamp.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// The batches, each non-empty and at most `max_batch` sources.
    pub batches: Vec<Vec<VertexId>>,
}

impl BatchPlan {
    /// Total sources across batches.
    pub fn total_sources(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }
}

/// Plans batches for `sources` (distinct, arrival order) under `policy`.
///
/// Invariants, relied on by the server and pinned by the property suite:
/// every batch is non-empty; no batch exceeds `max_batch`; the batches
/// partition `sources`.
pub fn plan(
    graph: &Csr,
    sources: &[VertexId],
    max_batch: usize,
    policy: CoalescePolicy,
    cfg: &GroupByConfig,
) -> BatchPlan {
    assert!(max_batch > 0, "max_batch must be positive");
    if sources.is_empty() {
        return BatchPlan { batches: Vec::new() };
    }
    match policy {
        CoalescePolicy::Arrival => {
            BatchPlan { batches: sources.chunks(max_batch).map(|c| c.to_vec()).collect() }
        }
        CoalescePolicy::GroupBy => {
            let cfg = cfg.clone().with_group_size(max_batch);
            BatchPlan { batches: outdegree_grouping(graph, sources, &cfg).groups }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_graph::generators::{chung_lu, powerlaw_weights};

    fn powerlaw() -> Csr {
        let w = powerlaw_weights(512, 8.0, 2.1);
        chung_lu(&w, 11)
    }

    fn check_partition(plan: &BatchPlan, sources: &[VertexId], max_batch: usize) {
        assert!(plan.batches.iter().all(|b| !b.is_empty() && b.len() <= max_batch));
        let mut seen: Vec<VertexId> = plan.batches.iter().flatten().copied().collect();
        seen.sort_unstable();
        let mut want = sources.to_vec();
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn arrival_plan_preserves_order() {
        let g = powerlaw();
        let sources: Vec<VertexId> = vec![9, 3, 7, 1, 4];
        let p = plan(&g, &sources, 2, CoalescePolicy::Arrival, &GroupByConfig::default());
        assert_eq!(p.batches, vec![vec![9, 3], vec![7, 1], vec![4]]);
    }

    #[test]
    fn every_policy_partitions_within_clamp() {
        let g = powerlaw();
        let sources: Vec<VertexId> = (0..96).collect();
        for policy in [CoalescePolicy::Arrival, CoalescePolicy::GroupBy] {
            for max_batch in [1, 3, 8, 128] {
                let p = plan(&g, &sources, max_batch, policy, &GroupByConfig::default());
                check_partition(&p, &sources, max_batch);
            }
        }
    }

    #[test]
    fn empty_window_plans_nothing() {
        let g = powerlaw();
        let p = plan(&g, &[], 4, CoalescePolicy::GroupBy, &GroupByConfig::default());
        assert!(p.batches.is_empty());
        assert_eq!(p.total_sources(), 0);
    }
}
