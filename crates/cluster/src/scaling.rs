//! Cluster scaling: partition groups over devices, report the makespan.
//!
//! Each simulated device keeps one resident graph upload and runs its
//! assigned groups back to back, releasing scratch between groups — the same
//! residency discipline as [`ibfs::service::IbfsService`], and
//! [`back_to_back_seconds`] prices each device's timeline as it prices
//! one service request.

use ibfs::engine::{EngineKind, GpuGraph, GroupRun};
use ibfs::groupby::GroupingStrategy;
use ibfs::service::back_to_back_seconds;
use ibfs_graph::partition::{bin_loads, lpt_assign};
use ibfs_graph::{Csr, VertexId};
use ibfs_gpu_sim::{DeviceConfig, Profiler};
use ibfs_util::json_struct;

/// Configuration of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of simulated GPUs (the paper sweeps 1..=112 K20s).
    pub gpus: usize,
    /// Per-device engine.
    pub engine: EngineKind,
    /// Source grouping (groups are the unit of device assignment).
    pub grouping: GroupingStrategy,
    /// Per-device hardware.
    pub device: DeviceConfig,
    /// Use LPT scheduling by estimated group weight instead of round-robin.
    /// The paper distributes statically; LPT models its balance-aware
    /// placement.
    pub lpt: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            gpus: 1,
            engine: EngineKind::Bitwise,
            grouping: GroupingStrategy::group_by(),
            device: DeviceConfig::k20(),
            lpt: true,
        }
    }
}

/// Per-device outcome.
#[derive(Clone, Debug)]
pub struct DeviceRun {
    /// Device index.
    pub device: usize,
    /// Groups executed on this device.
    pub groups: usize,
    /// Instances executed on this device.
    pub instances: usize,
    /// Simulated seconds this device was busy.
    pub sim_seconds: f64,
    /// Edges traversed by this device's instances.
    pub traversed_edges: u64,
}

json_struct!(DeviceRun { device, groups, instances, sim_seconds, traversed_edges });

/// Result of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterRun {
    /// Number of devices.
    pub gpus: usize,
    /// Per-device outcomes.
    pub devices: Vec<DeviceRun>,
    /// Makespan: the slowest device's time (what the paper reports).
    pub makespan_seconds: f64,
    /// Total traversed edges across the cluster.
    pub traversed_edges: u64,
}

json_struct!(ClusterRun { gpus, devices, makespan_seconds, traversed_edges });

impl ClusterRun {
    /// Aggregate cluster traversal rate: all traversed edges over the
    /// makespan.
    pub fn teps(&self) -> f64 {
        ibfs::metrics::teps(self.traversed_edges, self.makespan_seconds)
    }

    /// Speedup relative to a single-device run time `t1`.
    pub fn speedup_vs(&self, t1: f64) -> f64 {
        if self.makespan_seconds <= 0.0 {
            0.0
        } else {
            t1 / self.makespan_seconds
        }
    }
}

/// Estimated device work of one group of BFS sources: a base cost per
/// instance (every instance traverses the whole graph) plus the group's
/// source out-degrees, which proxy how quickly bottom-up parent discovery
/// terminates.
fn batch_weight(graph: &Csr, sources: &[VertexId]) -> u64 {
    let deg_sum: u64 = sources.iter().map(|&s| graph.out_degree(s) as u64).sum();
    sources.len() as u64 * 1_000 + deg_sum
}

/// Runs iBFS from `sources` across `config.gpus` simulated devices.
pub fn run_cluster(
    graph: &Csr,
    reverse: &Csr,
    sources: &[VertexId],
    config: &ClusterConfig,
) -> ClusterRun {
    assert!(config.gpus > 0, "need at least one GPU");
    let grouping = config.grouping.group(graph, sources);
    let engine = config.engine.build();

    // Assign groups to devices. Weight = estimated work ∝ Σ outdeg of the
    // whole graph (every group traverses everything) — in practice group
    // *size* is the imbalance driver, with a skew correction from the
    // group's source degrees (hub-adjacent groups finish bottom-up sooner).
    let weights: Vec<u64> = grouping.groups.iter().map(|g| batch_weight(graph, g)).collect();
    let assignment = if config.lpt {
        lpt_assign(&weights, config.gpus)
    } else {
        (0..grouping.groups.len()).map(|i| i % config.gpus).collect()
    };
    let _loads = bin_loads(&weights, &assignment, config.gpus);

    let mut devices: Vec<DeviceRun> = (0..config.gpus)
        .map(|d| DeviceRun {
            device: d,
            groups: 0,
            instances: 0,
            sim_seconds: 0.0,
            traversed_edges: 0,
        })
        .collect();

    // Each device uploads the graph once and keeps it resident; scratch is
    // released between the groups it serves. Counters are unaffected: all
    // allocations are segment-aligned, so transaction counts do not depend
    // on the scratch base address.
    struct DeviceState {
        prof: Profiler,
        adj_base: u64,
        radj_base: u64,
        offsets_base: u64,
        scratch_mark: u64,
        runs: Vec<GroupRun>,
    }
    let mut states: Vec<DeviceState> = (0..config.gpus)
        .map(|_| {
            let mut prof = Profiler::new(config.device);
            let gg = GpuGraph::new(graph, reverse, &mut prof);
            let (adj_base, radj_base, offsets_base) =
                (gg.adj_base, gg.radj_base, gg.offsets_base);
            let scratch_mark = prof.mem_mark();
            DeviceState { prof, adj_base, radj_base, offsets_base, scratch_mark, runs: Vec::new() }
        })
        .collect();

    for (gi, group) in grouping.groups.iter().enumerate() {
        let d = assignment[gi];
        let st = &mut states[d];
        st.prof.release_to(st.scratch_mark);
        let gg = GpuGraph {
            csr: graph,
            reverse,
            adj_base: st.adj_base,
            radj_base: st.radj_base,
            offsets_base: st.offsets_base,
        };
        let run = engine.run_group(&gg, group, &mut st.prof);
        devices[d].groups += 1;
        devices[d].instances += run.num_instances;
        devices[d].traversed_edges += run.traversed_edges;
        st.runs.push(run);
    }

    // Each device runs its groups back to back, as in the paper's cluster
    // evaluation, priced like `IbfsService` prices one request.
    for (dev, st) in devices.iter_mut().zip(&states) {
        dev.sim_seconds = back_to_back_seconds(&st.runs);
    }

    let makespan = devices
        .iter()
        .map(|d| d.sim_seconds)
        .fold(0.0f64, f64::max);
    let traversed = devices.iter().map(|d| d.traversed_edges).sum();
    ClusterRun {
        gpus: config.gpus,
        devices,
        makespan_seconds: makespan,
        traversed_edges: traversed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_graph::generators::{rmat, uniform_random, RmatParams};

    fn sources(n: usize) -> Vec<VertexId> {
        (0..n as VertexId).collect()
    }

    #[test]
    fn batch_weight_scales_with_size_and_degree() {
        let g = uniform_random(64, 4, 1);
        let small = batch_weight(&g, &[0]);
        let large = batch_weight(&g, &[0, 1, 2, 3]);
        assert!(large > small);
        assert_eq!(batch_weight(&g, &[]), 0);
    }

    #[test]
    fn single_gpu_matches_sum_of_groups() {
        let g = rmat(9, 8, RmatParams::graph500(), 3);
        let r = g.reverse();
        let run = run_cluster(&g, &r, &sources(64), &ClusterConfig {
            gpus: 1,
            grouping: GroupingStrategy::Random { seed: 1, group_size: 16 },
            ..Default::default()
        });
        assert_eq!(run.gpus, 1);
        assert_eq!(run.devices.len(), 1);
        assert_eq!(run.devices[0].groups, 4);
        assert!((run.makespan_seconds - run.devices[0].sim_seconds).abs() < 1e-12);
    }

    #[test]
    fn two_gpus_speed_up_nearly_2x() {
        // The paper: "from one to two GPUs, the biggest speedup ... 1.97×".
        let g = uniform_random(2048, 8, 5);
        let r = g.reverse();
        let srcs = sources(256);
        let grouping = GroupingStrategy::Random { seed: 2, group_size: 32 };
        let one = run_cluster(&g, &r, &srcs, &ClusterConfig {
            gpus: 1,
            grouping: grouping.clone(),
            ..Default::default()
        });
        let two = run_cluster(&g, &r, &srcs, &ClusterConfig {
            gpus: 2,
            grouping,
            ..Default::default()
        });
        let speedup = two.speedup_vs(one.makespan_seconds);
        assert!(
            speedup > 1.7 && speedup <= 2.0 + 1e-9,
            "2-GPU speedup {speedup}"
        );
        assert_eq!(one.traversed_edges, two.traversed_edges);
    }

    #[test]
    fn speedup_saturates_when_gpus_exceed_groups() {
        let g = rmat(8, 8, RmatParams::graph500(), 7);
        let r = g.reverse();
        let srcs = sources(64);
        let grouping = GroupingStrategy::Random { seed: 3, group_size: 16 };
        let four = run_cluster(&g, &r, &srcs, &ClusterConfig {
            gpus: 4,
            grouping: grouping.clone(),
            ..Default::default()
        });
        let many = run_cluster(&g, &r, &srcs, &ClusterConfig {
            gpus: 64,
            grouping,
            ..Default::default()
        });
        // Only 4 groups exist: 64 GPUs cannot beat the slowest single group.
        assert!(many.makespan_seconds <= four.makespan_seconds + 1e-12);
        let busy = many.devices.iter().filter(|d| d.groups > 0).count();
        assert_eq!(busy, 4);
    }

    #[test]
    fn uniform_graph_scales_better_than_skewed() {
        // The paper's RD gets the best speedup because its workload is the
        // most balanced.
        let rd = uniform_random(2048, 8, 9);
        let rm = rmat(11, 8, RmatParams::dimacs_rm(), 9);
        let gpus = 8;
        let mut speedups = Vec::new();
        for g in [&rd, &rm] {
            let r = g.reverse();
            let srcs = sources(256);
            let grouping = GroupingStrategy::Random { seed: 4, group_size: 16 };
            let one = run_cluster(g, &r, &srcs, &ClusterConfig {
                gpus: 1,
                grouping: grouping.clone(),
                ..Default::default()
            });
            let multi = run_cluster(g, &r, &srcs, &ClusterConfig {
                gpus,
                grouping,
                ..Default::default()
            });
            speedups.push(multi.speedup_vs(one.makespan_seconds));
        }
        assert!(
            speedups[0] >= speedups[1] * 0.95,
            "RD speedup {} should be at least RM speedup {}",
            speedups[0],
            speedups[1]
        );
    }

    #[test]
    fn round_robin_assignment_works_too() {
        let g = rmat(8, 8, RmatParams::graph500(), 2);
        let r = g.reverse();
        let run = run_cluster(&g, &r, &sources(64), &ClusterConfig {
            gpus: 2,
            lpt: false,
            grouping: GroupingStrategy::Random { seed: 5, group_size: 16 },
            ..Default::default()
        });
        assert_eq!(run.devices[0].groups + run.devices[1].groups, 4);
        assert_eq!(run.devices[0].groups, 2);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn rejects_zero_gpus() {
        let g = rmat(6, 4, RmatParams::graph500(), 1);
        let r = g.reverse();
        run_cluster(&g, &r, &[0], &ClusterConfig { gpus: 0, ..Default::default() });
    }
}
