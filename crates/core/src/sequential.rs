//! Sequential baseline: per-instance direction-optimizing BFS.
//!
//! This is the paper's "sequential" comparison point — a state-of-the-art
//! single-source GPU BFS (Enterprise-style status-array traversal with
//! Beamer direction switching and bottom-up early termination) run once per
//! source, back to back. It is also the stand-in for B40C in the Figure 22
//! comparison: the paper notes B40C "has similar performance as the
//! sequential or naive implementation".
//!
//! The per-level loop itself lives in [`crate::driver::LevelDriver`]; this
//! module contributes the single-source [`LevelEngine`] and the
//! `PhaseAccum` timer that prices levels both solo (roofline) and as
//! Hyper-Q demand for the naive engine.

use crate::direction::{Direction, DirectionPolicy};
use crate::driver::{LevelDriver, LevelEngine};
use crate::engine::{traversed_edges_for, Engine, GpuGraph, GroupRun, LevelStats};
use crate::frontier::FQ_ID_BYTES;
use crate::status::StatusArray;
use crate::trace::TraceSink;
use ibfs_graph::{Depth, VertexId};
use ibfs_gpu_sim::hyperq::KernelDemand;
use ibfs_gpu_sim::{CostModel, Counters, PhaseKind, PhaseTimer, Profiler};

/// Maximum BFS depth the engines support (u8 with a sentinel).
pub const MAX_LEVELS: u32 = 254;

/// Accumulates per-phase roofline costs and total compute/memory demand.
///
/// `solo_cycles` prices each phase as `max(compute, memory) + launch`,
/// which is the kernel-per-level execution every engine uses when it owns
/// the whole device. `demand` keeps the unrooflined totals so Hyper-Q can
/// model instances *sharing* the device (the naive engine).
pub(crate) struct PhaseAccum {
    model: CostModel,
    last: Counters,
    /// Cycles if this instance runs alone.
    pub solo_cycles: f64,
    /// Aggregate compute/memory demand (no launch overhead, no roofline).
    pub demand: KernelDemand,
    /// Kernel phases executed.
    pub phases: u64,
    /// Kernel launches performed (one per level).
    pub launches: u64,
}

impl PhaseAccum {
    pub(crate) fn start(model: CostModel, prof: &Profiler) -> Self {
        PhaseAccum {
            model,
            last: prof.snapshot(),
            solo_cycles: 0.0,
            demand: KernelDemand::default(),
            phases: 0,
            launches: 0,
        }
    }
}

impl PhaseTimer for PhaseAccum {
    fn kernel_launch(&mut self) {
        self.solo_cycles += self.model.launch_overhead_cycles;
        self.launches += 1;
    }

    fn phase(&mut self, prof: &Profiler, _kind: PhaseKind) -> f64 {
        let now = prof.snapshot();
        let d = now.delta(&self.last);
        self.last = now;
        let compute = self.model.compute_cycles(&d);
        let memory = self.model.memory_cycles(&d);
        self.demand.compute_cycles += compute;
        self.demand.memory_cycles += memory;
        let cycles = compute.max(memory);
        self.solo_cycles += cycles;
        self.phases += 1;
        cycles
    }

    fn cycles(&self) -> f64 {
        self.solo_cycles
    }

    fn seconds(&self) -> f64 {
        self.model.seconds(self.solo_cycles)
    }

    fn launches(&self) -> u64 {
        self.launches
    }
}

/// Output of one single-source traversal.
pub(crate) struct SingleRun {
    pub depths: Vec<Depth>,
    pub levels: Vec<LevelStats>,
    pub demand: KernelDemand,
    pub solo_cycles: f64,
    pub launches: u64,
}

/// One direction-optimizing single-source BFS as a [`LevelEngine`]: a
/// private status array and frontier queue, driven level by level.
struct SingleSource<'e, 'g> {
    g: &'e GpuGraph<'g>,
    source: VertexId,
    policy: DirectionPolicy,
    level_cap: u32,
    sa: StatusArray,
    fq_base: u64,
    frontier: Vec<VertexId>,
    queue: Vec<VertexId>,
    newly_marked: Vec<VertexId>,
    frontier_edges: u64,
    visited_edges: u64,
    dir: Direction,
    done: bool,
    levels_total_edges: u64,
}

impl LevelEngine for SingleSource<'_, '_> {
    fn level_cap(&self) -> u32 {
        self.level_cap
    }

    fn has_work(&self) -> bool {
        !self.done && !self.frontier.is_empty()
    }

    fn init(&mut self, prof: &mut Profiler, timer: &mut dyn PhaseTimer) {
        // Level 0: the source. Seeding is itself a (trivial) kernel.
        timer.kernel_launch();
        self.sa.set(self.source, 0);
        prof.lane_store(self.sa.addr(self.source), 1);
        timer.phase(prof, PhaseKind::Other);
    }

    fn run_level(
        &mut self,
        level: u32,
        prof: &mut Profiler,
        timer: &mut dyn PhaseTimer,
    ) -> LevelStats {
        let csr = self.g.csr;
        let rev = self.g.reverse;
        let n = csr.num_vertices();
        let depth = level as Depth;
        self.dir = self.policy.next(
            self.dir,
            self.frontier_edges,
            self.frontier.len() as u64,
            self.levels_total_edges - self.visited_edges,
            n as u64,
        );

        // --- Frontier-queue generation: scan the status array. ---
        self.queue.clear();
        prof.load_contiguous(self.sa.base, 0, n as u64, 1);
        prof.lanes(n as u64);
        match self.dir {
            Direction::TopDown => {
                // Enqueue the vertices discovered at the previous level.
                self.queue.extend_from_slice(&self.frontier);
            }
            Direction::BottomUp => {
                // Bottom-up treats unvisited vertices as frontiers.
                let sa = &self.sa;
                self.queue
                    .extend((0..n as VertexId).filter(|&v| !sa.visited(v)));
            }
        }
        prof.store_contiguous(self.fq_base, 0, self.queue.len() as u64, 4);
        timer.phase(prof, PhaseKind::FrontierGeneration);

        // --- Expansion + inspection. ---
        prof.load_contiguous(self.fq_base, 0, self.queue.len() as u64, 4);
        self.newly_marked.clear();
        let mut edges_inspected = 0u64;
        let mut early_terms = 0u64;
        match self.dir {
            Direction::TopDown => {
                for &f in &self.queue {
                    let neighbors = csr.neighbors(f);
                    prof.load_contiguous(
                        self.g.adj_base,
                        csr.adj_start(f),
                        neighbors.len() as u64,
                        4,
                    );
                    prof.lanes(neighbors.len() as u64);
                    edges_inspected += neighbors.len() as u64;
                    for chunk in neighbors.chunks(32) {
                        prof.warp_gather(chunk.iter().map(|&w| self.sa.addr(w)), 1);
                        let mut marked_addrs: Vec<u64> = Vec::new();
                        for &w in chunk {
                            if !self.sa.visited(w) {
                                self.sa.set(w, depth);
                                self.newly_marked.push(w);
                                marked_addrs.push(self.sa.addr(w));
                            }
                        }
                        if !marked_addrs.is_empty() {
                            prof.warp_scatter(marked_addrs.iter().copied(), 1);
                        }
                    }
                }
            }
            Direction::BottomUp => {
                for chunk in self.queue.chunks(32) {
                    let mut marked_addrs: Vec<u64> = Vec::new();
                    for &f in chunk {
                        let parents = rev.neighbors(f);
                        let mut inspected = 0u64;
                        let mut found = false;
                        for &p in parents {
                            inspected += 1;
                            if self.sa.visited(p) && self.sa.depth(p) < depth {
                                found = true;
                                break;
                            }
                        }
                        prof.load_contiguous(self.g.radj_base, rev.adj_start(f), inspected, 4);
                        // Each status check loads the parent's status byte;
                        // scans longer than a warp issue multiple requests.
                        for pch in parents[..inspected as usize].chunks(32) {
                            prof.warp_gather(pch.iter().map(|&p| self.sa.addr(p)), 1);
                        }
                        prof.lanes(inspected);
                        edges_inspected += inspected;
                        if found {
                            if inspected < parents.len() as u64 {
                                early_terms += 1;
                            }
                            self.sa.set(f, depth);
                            self.newly_marked.push(f);
                            marked_addrs.push(self.sa.addr(f));
                        }
                    }
                    if !marked_addrs.is_empty() {
                        prof.warp_scatter(marked_addrs.iter().copied(), 1);
                    }
                }
            }
        }
        timer.phase(prof, PhaseKind::Inspection);

        let stats = LevelStats {
            level,
            direction: self.dir,
            unique_frontiers: self.queue.len() as u64,
            instance_frontiers: self.queue.len() as u64,
            edges_inspected,
            early_terminations: early_terms,
        };

        if self.newly_marked.is_empty() {
            self.done = true;
        } else {
            self.frontier_edges = self
                .newly_marked
                .iter()
                .map(|&v| csr.out_degree(v) as u64)
                .sum();
            self.visited_edges += self.frontier_edges;
            std::mem::swap(&mut self.frontier, &mut self.newly_marked);
            self.newly_marked.clear();
        }
        stats
    }
}

/// Runs one direction-optimizing BFS from `source`, charging the profiler
/// for every access per the conventions in [`crate::engine`].
pub(crate) fn run_single(
    g: &GpuGraph<'_>,
    source: VertexId,
    policy: DirectionPolicy,
    prof: &mut Profiler,
    sink: &mut dyn TraceSink,
) -> SingleRun {
    run_single_capped(g, source, policy, 0, prof, sink)
}

/// [`run_single`] with a level cap (0 = unlimited).
pub(crate) fn run_single_capped(
    g: &GpuGraph<'_>,
    source: VertexId,
    policy: DirectionPolicy,
    max_levels: u32,
    prof: &mut Profiler,
    sink: &mut dyn TraceSink,
) -> SingleRun {
    let csr = g.csr;
    let n = csr.num_vertices();

    let sa = StatusArray::new(n, prof);
    let fq_base = prof.alloc(n as u64 * FQ_ID_BYTES);
    let model = CostModel::new(prof.config);
    let mut acc = PhaseAccum::start(model, prof);

    let level_cap = if max_levels == 0 { MAX_LEVELS } else { max_levels.min(MAX_LEVELS) };
    let mut engine = SingleSource {
        g,
        source,
        policy,
        level_cap,
        sa,
        fq_base,
        frontier: vec![source],
        queue: Vec::new(),
        newly_marked: Vec::new(),
        frontier_edges: csr.out_degree(source) as u64,
        visited_edges: csr.out_degree(source) as u64,
        dir: Direction::TopDown,
        done: false,
        levels_total_edges: csr.num_edges() as u64,
    };
    let levels = LevelDriver { prof, timer: &mut acc, sink }.drive(&mut engine);

    SingleRun {
        depths: engine.sa.into_depths(),
        levels,
        demand: acc.demand,
        solo_cycles: acc.solo_cycles,
        launches: acc.launches,
    }
}

/// Merges per-instance level stats into group-level stats by level index.
/// With private queues nothing is shared, so unique and per-instance
/// frontier counts both sum.
pub(crate) fn merge_level_stats(per_instance: &[Vec<LevelStats>]) -> Vec<LevelStats> {
    let max_levels = per_instance.iter().map(|l| l.len()).max().unwrap_or(0);
    (0..max_levels)
        .map(|k| {
            let mut out = LevelStats {
                level: k as u32 + 1,
                direction: Direction::TopDown,
                unique_frontiers: 0,
                instance_frontiers: 0,
                edges_inspected: 0,
                early_terminations: 0,
            };
            for levels in per_instance {
                if let Some(l) = levels.get(k) {
                    out.direction = l.direction;
                    out.unique_frontiers += l.unique_frontiers;
                    out.instance_frontiers += l.instance_frontiers;
                    out.edges_inspected += l.edges_inspected;
                    out.early_terminations += l.early_terminations;
                }
            }
            out
        })
        .collect()
}

/// The sequential engine: instances run back to back, each owning the whole
/// device.
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialEngine {
    /// Direction-switch policy.
    pub policy: DirectionPolicy,
    /// Cap on traversal levels; 0 means unlimited.
    pub max_levels: u32,
}

impl Engine for SequentialEngine {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn run_group_traced(
        &self,
        g: &GpuGraph<'_>,
        sources: &[VertexId],
        prof: &mut Profiler,
        sink: &mut dyn TraceSink,
    ) -> GroupRun {
        let before = prof.snapshot();
        let model = CostModel::new(prof.config);
        let n = g.num_vertices();
        let mut depths = Vec::with_capacity(sources.len() * n);
        let mut all_levels = Vec::with_capacity(sources.len());
        let mut cycles = 0.0;
        let mut launches = 0u64;
        for &s in sources {
            let run = run_single_capped(g, s, self.policy, self.max_levels, prof, sink);
            depths.extend_from_slice(&run.depths);
            all_levels.push(run.levels);
            cycles += run.solo_cycles;
            launches += run.launches;
        }
        let counters = prof.snapshot().delta(&before);
        let traversed = traversed_edges_for(g.csr, &depths, sources.len());
        GroupRun {
            engine: self.name(),
            num_instances: sources.len(),
            num_vertices: n,
            depths,
            levels: merge_level_stats(&all_levels),
            counters,
            sim_seconds: model.seconds(cycles),
            traversed_edges: traversed,
            kernel_launches: launches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_graph::suite::{figure1, FIGURE1_SOURCES};
    use ibfs_graph::validate::{check_depths, reference_bfs};
    use ibfs_graph::DEPTH_UNVISITED;
    use ibfs_gpu_sim::DeviceConfig;

    #[test]
    fn matches_reference_on_figure1() {
        let g = figure1();
        let r = g.reverse();
        let mut prof = Profiler::new(DeviceConfig::k40());
        let gg = GpuGraph::new(&g, &r, &mut prof);
        let run = SequentialEngine::default().run_group(&gg, &FIGURE1_SOURCES, &mut prof);
        for (j, &s) in FIGURE1_SOURCES.iter().enumerate() {
            assert_eq!(run.instance_depths(j), &reference_bfs(&g, s)[..], "source {s}");
            check_depths(&g, &r, s, run.instance_depths(j)).unwrap();
        }
        assert!(run.sim_seconds > 0.0);
        assert!(run.teps() > 0.0);
        assert_eq!(run.traversed_edges, 4 * g.num_edges() as u64);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let mut b = ibfs_graph::CsrBuilder::new(6);
        b.add_undirected_edge(0, 1);
        b.add_undirected_edge(1, 2);
        b.add_undirected_edge(4, 5);
        let g = b.build();
        let r = g.reverse();
        let mut prof = Profiler::new(DeviceConfig::k40());
        let gg = GpuGraph::new(&g, &r, &mut prof);
        let run = SequentialEngine::default().run_group(&gg, &[0], &mut prof);
        assert_eq!(run.depth_of(0, 2), 2);
        assert_eq!(run.depth_of(0, 4), DEPTH_UNVISITED);
        assert_eq!(run.depth_of(0, 3), DEPTH_UNVISITED);
    }

    #[test]
    fn single_vertex_graph() {
        let g = ibfs_graph::CsrBuilder::new(1).build();
        let r = g.reverse();
        let mut prof = Profiler::new(DeviceConfig::k40());
        let gg = GpuGraph::new(&g, &r, &mut prof);
        let run = SequentialEngine::default().run_group(&gg, &[0], &mut prof);
        assert_eq!(run.depth_of(0, 0), 0);
        assert_eq!(run.traversed_edges, 0);
    }

    #[test]
    fn counters_accumulate_traffic() {
        let g = figure1();
        let r = g.reverse();
        let mut prof = Profiler::new(DeviceConfig::k40());
        let gg = GpuGraph::new(&g, &r, &mut prof);
        let run = SequentialEngine::default().run_group(&gg, &[0], &mut prof);
        assert!(run.counters.global_load_transactions > 0);
        assert!(run.counters.global_store_transactions > 0);
        assert!(run.counters.lane_instructions > 0);
    }

    #[test]
    fn uses_bottom_up_on_dense_graphs() {
        // A clique forces a frontier explosion and a bottom-up level.
        let n = 64;
        let mut b = ibfs_graph::CsrBuilder::new(n);
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                b.add_undirected_edge(u, v);
            }
        }
        let g = b.build();
        let r = g.reverse();
        let mut prof = Profiler::new(DeviceConfig::k40());
        let gg = GpuGraph::new(&g, &r, &mut prof);
        let run = SequentialEngine::default().run_group(&gg, &[0], &mut prof);
        assert!(run
            .levels
            .iter()
            .any(|l| l.direction == Direction::BottomUp));
        assert_eq!(run.instance_depths(0), &reference_bfs(&g, 0)[..]);
    }

    #[test]
    fn early_termination_happens_bottom_up() {
        use ibfs_graph::generators::{rmat, RmatParams};
        let g = rmat(9, 16, RmatParams::graph500(), 8);
        let r = g.reverse();
        let mut prof = Profiler::new(DeviceConfig::k40());
        let gg = GpuGraph::new(&g, &r, &mut prof);
        let run = SequentialEngine::default().run_group(&gg, &[0, 1, 2, 3], &mut prof);
        assert!(run
            .levels
            .iter()
            .any(|l| l.direction == Direction::BottomUp));
        let et: u64 = run.levels.iter().map(|l| l.early_terminations).sum();
        assert!(et > 0, "power-law bottom-up should terminate early");
    }

    #[test]
    fn per_instance_levels_are_traced() {
        let g = figure1();
        let r = g.reverse();
        let mut prof = Profiler::new(DeviceConfig::k40());
        let gg = GpuGraph::new(&g, &r, &mut prof);
        let mut sink = crate::trace::RecorderSink::default();
        let run = SequentialEngine::default().run_group_traced(
            &gg,
            &FIGURE1_SOURCES,
            &mut prof,
            &mut sink,
        );
        // One event stream per instance, each restarting at level 1.
        let restarts = sink.events.iter().filter(|e| e.level == 1).count();
        assert_eq!(restarts, FIGURE1_SOURCES.len());
        assert_eq!(run.kernel_launches, sink.events.len() as u64 + FIGURE1_SOURCES.len() as u64);
    }
}
