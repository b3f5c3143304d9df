//! Sharded lockstep traversal: one [`LevelEngine`] per shard of a 1D
//! vertex partition, synchronized level by level with frontier exchange.
//!
//! This is the owner-computes distributed BFS of Buluç & Madduri
//! (arXiv:1104.4518) over simulated devices: every shard holds the full
//! out-/in-edge lists of its owned vertices ([`ibfs_graph::partition`]),
//! marks only owned vertices, and between levels ships discoveries of
//! non-owned vertices to their owners through the [`crate::comm`] cost
//! model. Bottom-up levels instead allgather every shard's previous
//! frontier (as compressed bitmaps) so unvisited vertices can find parents
//! owned elsewhere.
//!
//! Because the exchange is level-synchronous, depths are exactly the
//! global BFS depths no matter the shard count, ownership layout, or
//! exchange pattern — [`run_sharded`] is pinned bit-identical (depths and
//! traversed edges) to single-device [`ibfs::runner::run_ibfs`] by
//! `tests/sharded_differential.rs`. The pattern and layout change only the
//! simulated communication volume and time, which is the whole point of
//! the weak-scaling figure.

use crate::comm::{
    allgather_cost, encode_payload, scatter_cost, CommConfig, CommStats, ExchangeCost, Payload,
};
use ibfs::direction::{Direction, DirectionPolicy};
use ibfs::driver::{ExchangeEngine, FrontierStats, FrontierUpdate, LevelEngine};
use ibfs::engine::{traversed_edges_for, GroupRun, LevelStats};
use ibfs::groupby::GroupingStrategy;
use ibfs::service::{admit_sources, RequestError};
use ibfs::trace::{GroupStamp, NullSink, TraceSink, TraversalEvent};
use ibfs_graph::partition::{OwnershipLayout, Partition, Partitioner, ShardGraph, VertexOwner};
use ibfs_graph::{Csr, Depth, VertexId, DEPTH_UNVISITED};
use ibfs_gpu_sim::{Counters, DeviceConfig, PhaseKind, PhaseTimer, Profiler, SimTimer};
use ibfs_obs::{EngineProfiler, ProfPhase};
use ibfs_util::json_struct;
use std::sync::Arc;

/// Instances per lockstep wave: one bit per instance in a `u64` status
/// word, shared by frontier-update masks on the wire.
pub const WAVE_WIDTH: usize = 64;

/// Configuration of a sharded traversal.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Number of shards (one simulated device each).
    pub shards: usize,
    /// Vertex ownership layout.
    pub layout: OwnershipLayout,
    /// Inter-shard communication model.
    pub comm: CommConfig,
    /// Per-shard device hardware.
    pub device: DeviceConfig,
    /// Source grouping; group size is clamped to [`WAVE_WIDTH`].
    pub grouping: GroupingStrategy,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            layout: OwnershipLayout::Contiguous,
            comm: CommConfig::default(),
            device: DeviceConfig::k40(),
            grouping: GroupingStrategy::Random { seed: 0x5EED, group_size: WAVE_WIDTH },
        }
    }
}

/// Result of a sharded traversal request.
#[derive(Clone, Debug)]
pub struct ShardedRun {
    /// Shard count.
    pub shards: usize,
    /// Ownership layout used.
    pub layout: OwnershipLayout,
    /// Per-wave results assembled back into *global* vertex order — the
    /// same shape [`ibfs::runner::IbfsRun`] exposes, so serve-side depth
    /// extraction is shared.
    pub groups: Vec<GroupRun>,
    /// Simulated seconds: waves run back to back; within a wave each
    /// lockstep level costs the slowest shard plus the exchange.
    pub sim_seconds: f64,
    /// Traversed edges summed over instances (TEPS numerator, identical to
    /// the single-device definition).
    pub traversed_edges: u64,
    /// Counter activity summed over every shard device.
    pub counters: Counters,
    /// Communication activity across all waves.
    pub comm: CommStats,
}

impl ShardedRun {
    /// Total instances across waves.
    pub fn num_instances(&self) -> usize {
        self.groups.iter().map(|g| g.num_instances).sum()
    }

    /// Traversed edges per simulated second.
    pub fn teps(&self) -> f64 {
        ibfs::metrics::teps(self.traversed_edges, self.sim_seconds)
    }
}

/// Headline numbers of a sharded run, JSON-serializable for bench output.
#[derive(Clone, Debug)]
pub struct ShardedSummary {
    /// Shard count.
    pub shards: usize,
    /// Simulated seconds.
    pub sim_seconds: f64,
    /// Traversed edges.
    pub traversed_edges: u64,
    /// Total messages exchanged.
    pub messages: u64,
    /// Total bytes exchanged.
    pub bytes: u64,
    /// Exchange seconds within `sim_seconds`.
    pub exchange_seconds: f64,
}

json_struct!(ShardedSummary {
    shards,
    sim_seconds,
    traversed_edges,
    messages,
    bytes,
    exchange_seconds,
});

impl ShardedRun {
    /// The run's headline summary.
    pub fn summary(&self) -> ShardedSummary {
        ShardedSummary {
            shards: self.shards,
            sim_seconds: self.sim_seconds,
            traversed_edges: self.traversed_edges,
            messages: self.comm.messages,
            bytes: self.comm.bytes,
            exchange_seconds: self.comm.exchange_seconds,
        }
    }
}

/// Scratch device addresses of one shard's per-wave state.
struct ShardScratch {
    status_base: u64,
    depth_base: u64,
    fq_base: u64,
    outbox_base: u64,
    gf_base: u64,
}

/// One shard's resident device: profiler plus uploaded subgraph addresses.
struct ShardDevice {
    prof: Profiler,
    out_adj_base: u64,
    in_adj_base: u64,
    offsets_base: u64,
    /// Allocation watermark after upload; per-wave scratch is released
    /// back to it between waves.
    scratch_mark: u64,
}

impl ShardDevice {
    fn new(sg: &ShardGraph, device: DeviceConfig) -> Self {
        let mut prof = Profiler::new(device);
        let out_adj_base = prof.alloc((sg.num_out_edges() as u64).max(1) * 4);
        let in_adj_base = prof.alloc((sg.num_in_edges() as u64).max(1) * 4);
        // Out- and in-offsets live back to back in one allocation.
        let offsets_base = prof.alloc((sg.num_owned() as u64 + 1) * 8 * 2);
        let scratch_mark = prof.mem_mark();
        ShardDevice { prof, out_adj_base, in_adj_base, offsets_base, scratch_mark }
    }

    /// Allocates one wave's scratch: status words, depth array, frontier
    /// queue, remote-candidate outbox, and the global-frontier bitmap.
    fn alloc_scratch(&mut self, owned: usize, n_global: usize, instances: usize) -> ShardScratch {
        self.prof.release_to(self.scratch_mark);
        let owned64 = owned.max(1) as u64;
        ShardScratch {
            status_base: self.prof.alloc(owned64 * 8),
            depth_base: self.prof.alloc(owned64 * instances.max(1) as u64),
            fq_base: self.prof.alloc(owned64 * 4),
            outbox_base: self.prof.alloc((n_global as u64).max(1) * 12),
            gf_base: self.prof.alloc((n_global as u64).max(1) * 8),
        }
    }
}

/// The per-shard level engine: multi-instance BFS over one shard's owned
/// vertices with `u64` status masks, producing and consuming
/// [`FrontierUpdate`]s at the shard boundary.
pub struct ShardLevelEngine<'a> {
    sg: &'a ShardGraph,
    owner: VertexOwner,
    shard: usize,
    all_mask: u64,
    scratch: ShardScratch,
    out_adj_base: u64,
    in_adj_base: u64,
    offsets_base: u64,
    /// Seeds: (local vertex, instance mask).
    sources: Vec<(u32, u64)>,
    /// Depths, flattened `[instance][owned local vertex]`.
    depths: Vec<Depth>,
    /// Visited mask per owned vertex.
    visited: Vec<u64>,
    /// The frontier being expanded this level (materialized at level start
    /// from the accumulators below).
    cur: Vec<(u32, u64)>,
    /// Next-frontier accumulator: mask per owned vertex + touched list.
    next_mask: Vec<u64>,
    next_list: Vec<u32>,
    /// Global out-degrees of `next_list` (direction-vote numerator).
    next_edges: u64,
    /// Σ over instances of out-degrees of visited owned vertices.
    explored_edges: u64,
    /// Owned out-edges × instances.
    total_instance_edges: u64,
    /// Remote-candidate accumulator, indexed by *global* vertex id.
    remote_mask: Vec<u64>,
    remote_touched: Vec<VertexId>,
    /// View of the global frontier for bottom-up levels, indexed by global
    /// vertex id; cleared when a bottom-up level is announced.
    gf: Vec<u64>,
    gf_touched: Vec<VertexId>,
    direction: Direction,
    last_level: u32,
}

impl<'a> ShardLevelEngine<'a> {
    fn new(
        sg: &'a ShardGraph,
        owner: VertexOwner,
        scratch: ShardScratch,
        dev: &ShardDevice,
        sources: Vec<(u32, u64)>,
        num_instances: usize,
    ) -> Self {
        assert!(num_instances <= WAVE_WIDTH);
        let owned = sg.num_owned();
        let n_global = owner.num_vertices();
        let all_mask = if num_instances == WAVE_WIDTH { u64::MAX } else { (1u64 << num_instances) - 1 };
        let total_out: u64 = sg.num_out_edges() as u64;
        ShardLevelEngine {
            sg,
            owner,
            shard: sg.shard,
            all_mask,
            scratch,
            out_adj_base: dev.out_adj_base,
            in_adj_base: dev.in_adj_base,
            offsets_base: dev.offsets_base,
            sources,
            depths: vec![DEPTH_UNVISITED; owned * num_instances],
            visited: vec![0; owned],
            cur: Vec::new(),
            next_mask: vec![0; owned],
            next_list: Vec::new(),
            next_edges: 0,
            explored_edges: 0,
            total_instance_edges: total_out * num_instances as u64,
            remote_mask: vec![0; n_global],
            remote_touched: Vec::new(),
            gf: vec![0; n_global],
            gf_touched: Vec::new(),
            direction: Direction::TopDown,
            last_level: 0,
        }
    }

    /// Marks `bits` of owned local vertex `u` visited at `depth` and adds
    /// them to the next-frontier accumulator. Caller guarantees `bits`
    /// holds no already-visited instance.
    fn mark(&mut self, u: u32, bits: u64, depth: Depth) {
        debug_assert_eq!(self.visited[u as usize] & bits, 0);
        self.visited[u as usize] |= bits;
        let owned = self.sg.num_owned();
        let mut rest = bits;
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            self.depths[j * owned + u as usize] = depth;
        }
        if self.next_mask[u as usize] == 0 {
            self.next_list.push(u);
            self.next_edges += self.sg.out_degree(u) as u64;
        }
        self.next_mask[u as usize] |= bits;
        self.explored_edges += self.sg.out_degree(u) as u64 * bits.count_ones() as u64;
    }

    /// Materializes `cur` from the next-frontier accumulator, charging the
    /// frontier-generation phase (status scan + queue stores).
    fn begin_level(&mut self, prof: &mut Profiler, timer: &mut dyn PhaseTimer) {
        let owned = self.sg.num_owned();
        let mut list = std::mem::take(&mut self.next_list);
        list.sort_unstable();
        self.cur.clear();
        for &u in &list {
            self.cur.push((u, self.next_mask[u as usize]));
            self.next_mask[u as usize] = 0;
        }
        self.next_edges = 0;
        prof.load_contiguous(self.scratch.status_base, 0, owned as u64, 8);
        prof.store_contiguous(self.scratch.fq_base, 0, self.cur.len() as u64, 4);
        if self.direction == Direction::BottomUp {
            // The shard's own previous-level discoveries join its view of
            // the global frontier (peers arrived via `inject_frontier`).
            for i in 0..self.cur.len() {
                let (u, mask) = self.cur[i];
                let g = self.owner.to_global(self.shard, u);
                if self.gf[g as usize] == 0 {
                    self.gf_touched.push(g);
                }
                self.gf[g as usize] |= mask;
            }
            prof.store_contiguous(self.scratch.gf_base, 0, self.cur.len() as u64, 8);
        }
        timer.phase(prof, PhaseKind::FrontierGeneration);
    }

    fn run_top_down(&mut self, level: u32, prof: &mut Profiler, timer: &mut dyn PhaseTimer) -> LevelStats {
        let cur = std::mem::take(&mut self.cur);
        // Expansion: stream each frontier vertex's adjacency list.
        let mut edges_inspected = 0u64;
        for &(u, _mask) in &cur {
            let row = self.sg.out_offsets()[u as usize];
            let deg = self.sg.out_degree(u) as u64;
            prof.load_block(self.offsets_base + u as u64 * 8, 16);
            prof.load_contiguous(self.out_adj_base, row, deg, 4);
            edges_inspected += deg;
        }
        prof.lanes(edges_inspected);
        timer.phase(prof, PhaseKind::Expansion);

        // Inspection: gather neighbor statuses, scatter updates; non-owned
        // neighbors accumulate in the outbox for the post-level exchange.
        let mut status_gathers: Vec<u64> = Vec::new();
        let mut status_scatters: Vec<u64> = Vec::new();
        let mut depth_scatters: Vec<u64> = Vec::new();
        let mut outbox_entries = 0u64;
        let owned = self.sg.num_owned();
        for &(u, mask) in &cur {
            for &w in self.sg.out_neighbors(u) {
                if self.owner.owner_of(w) == self.shard {
                    let lw = self.owner.to_local(w);
                    status_gathers.push(self.scratch.status_base + lw as u64 * 8);
                    let new = mask & !self.visited[lw as usize];
                    if new != 0 {
                        self.mark(lw, new, level as Depth);
                        status_scatters.push(self.scratch.status_base + lw as u64 * 8);
                        let mut rest = new;
                        while rest != 0 {
                            let j = rest.trailing_zeros() as u64;
                            rest &= rest - 1;
                            depth_scatters
                                .push(self.scratch.depth_base + j * owned as u64 + lw as u64);
                        }
                    }
                } else {
                    if self.remote_mask[w as usize] == 0 {
                        self.remote_touched.push(w);
                    }
                    if self.remote_mask[w as usize] | mask != self.remote_mask[w as usize] {
                        outbox_entries += 1;
                    }
                    self.remote_mask[w as usize] |= mask;
                }
            }
        }
        for chunk in status_gathers.chunks(32) {
            prof.warp_gather(chunk.iter().copied(), 8);
        }
        for chunk in status_scatters.chunks(32) {
            prof.warp_scatter(chunk.iter().copied(), 8);
        }
        for chunk in depth_scatters.chunks(32) {
            prof.warp_scatter(chunk.iter().copied(), 1);
        }
        prof.store_contiguous(self.scratch.outbox_base, 0, outbox_entries, 12);
        timer.phase(prof, PhaseKind::Inspection);

        LevelStats {
            level,
            direction: Direction::TopDown,
            unique_frontiers: cur.len() as u64,
            instance_frontiers: cur.iter().map(|&(_, m)| m.count_ones() as u64).sum(),
            edges_inspected,
            early_terminations: 0,
        }
    }

    fn run_bottom_up(&mut self, level: u32, prof: &mut Profiler, timer: &mut dyn PhaseTimer) -> LevelStats {
        let frontier_len = self.cur.len() as u64;
        let instance_frontiers: u64 = self.cur.iter().map(|&(_, m)| m.count_ones() as u64).sum();
        self.cur.clear();
        // Every not-fully-visited owned vertex searches its in-neighbors
        // for a parent in the global frontier, stopping once every
        // instance has one (the paper's §6 early termination, per vertex).
        let mut gf_gathers: Vec<u64> = Vec::new();
        let mut edges_inspected = 0u64;
        let mut early_terminations = 0u64;
        let mut adj_loads = 0u64;
        let owned = self.sg.num_owned();
        for u in 0..owned as u32 {
            let mut rem = self.all_mask & !self.visited[u as usize];
            if rem == 0 {
                continue;
            }
            prof.load_block(self.offsets_base + (owned as u64 + 1) * 8 + u as u64 * 8, 16);
            let mut found_total = 0u64;
            let neighbors = self.sg.in_neighbors(u);
            for &w in neighbors {
                edges_inspected += 1;
                adj_loads += 1;
                gf_gathers.push(self.scratch.gf_base + w as u64 * 8);
                let found = self.gf[w as usize] & rem;
                if found != 0 {
                    found_total |= found;
                    rem &= !found;
                    if rem == 0 {
                        early_terminations += 1;
                        break;
                    }
                }
            }
            if found_total != 0 {
                self.mark(u, found_total, level as Depth);
            }
        }
        prof.load_contiguous(self.in_adj_base, 0, adj_loads, 4);
        prof.lanes(edges_inspected);
        for chunk in gf_gathers.chunks(32) {
            prof.warp_gather(chunk.iter().copied(), 8);
        }
        // Status and depth writes for the newly found set.
        prof.store_contiguous(self.scratch.status_base, 0, self.next_list.len() as u64, 8);
        timer.phase(prof, PhaseKind::Inspection);

        LevelStats {
            level,
            direction: Direction::BottomUp,
            unique_frontiers: frontier_len,
            instance_frontiers,
            edges_inspected,
            early_terminations,
        }
    }
}

impl LevelEngine for ShardLevelEngine<'_> {
    fn level_cap(&self) -> u32 {
        DEPTH_UNVISITED as u32 - 1
    }

    fn has_work(&self) -> bool {
        !self.next_list.is_empty()
    }

    fn init(&mut self, prof: &mut Profiler, timer: &mut dyn PhaseTimer) {
        let seeds = std::mem::take(&mut self.sources);
        for &(u, mask) in &seeds {
            let new = mask & !self.visited[u as usize];
            if new != 0 {
                self.mark(u, new, 0);
            }
            prof.lane_store(self.scratch.status_base + u as u64 * 8, 8);
            prof.lane_store(self.scratch.depth_base + u as u64, 1);
        }
        timer.phase(prof, PhaseKind::Other);
    }

    fn run_level(&mut self, level: u32, prof: &mut Profiler, timer: &mut dyn PhaseTimer) -> LevelStats {
        self.last_level = level;
        self.begin_level(prof, timer);
        match self.direction {
            Direction::TopDown => self.run_top_down(level, prof, timer),
            Direction::BottomUp => self.run_bottom_up(level, prof, timer),
        }
    }
}

impl ExchangeEngine for ShardLevelEngine<'_> {
    fn set_direction(&mut self, dir: Direction) {
        self.direction = dir;
        if dir == Direction::BottomUp {
            // Stale frontier bits from an earlier bottom-up level must not
            // resurrect; peers re-inject the current frontier next.
            for g in self.gf_touched.drain(..) {
                self.gf[g as usize] = 0;
            }
        }
    }

    fn frontier_stats(&self) -> FrontierStats {
        FrontierStats {
            frontier_vertices: self.next_list.len() as u64,
            frontier_edges: self.next_edges,
            unexplored_edges: self.total_instance_edges - self.explored_edges,
        }
    }

    fn take_outbound(&mut self) -> Vec<Vec<FrontierUpdate>> {
        let mut out: Vec<Vec<FrontierUpdate>> = vec![Vec::new(); self.owner.num_shards()];
        let mut touched = std::mem::take(&mut self.remote_touched);
        touched.sort_unstable();
        for g in touched {
            let mask = std::mem::take(&mut self.remote_mask[g as usize]);
            debug_assert_ne!(mask, 0);
            out[self.owner.owner_of(g)].push(FrontierUpdate { vertex: g, mask });
        }
        out
    }

    fn inject_candidates(
        &mut self,
        updates: &[FrontierUpdate],
        prof: &mut Profiler,
        timer: &mut dyn PhaseTimer,
    ) {
        let depth = self.last_level as Depth;
        let mut gathers: Vec<u64> = Vec::new();
        let mut scatters: Vec<u64> = Vec::new();
        for upd in updates {
            debug_assert_eq!(self.owner.owner_of(upd.vertex), self.shard);
            let u = self.owner.to_local(upd.vertex);
            gathers.push(self.scratch.status_base + u as u64 * 8);
            let new = upd.mask & !self.visited[u as usize];
            if new != 0 {
                self.mark(u, new, depth);
                scatters.push(self.scratch.status_base + u as u64 * 8);
            }
        }
        for chunk in gathers.chunks(32) {
            prof.warp_gather(chunk.iter().copied(), 8);
        }
        for chunk in scatters.chunks(32) {
            prof.warp_scatter(chunk.iter().copied(), 8);
        }
        timer.phase(prof, PhaseKind::Other);
    }

    fn frontier_snapshot(&self) -> Vec<FrontierUpdate> {
        let mut list = self.next_list.clone();
        list.sort_unstable();
        list.iter()
            .map(|&u| FrontierUpdate {
                vertex: self.owner.to_global(self.shard, u),
                mask: self.next_mask[u as usize],
            })
            .collect()
    }

    fn inject_frontier(
        &mut self,
        updates: &[FrontierUpdate],
        prof: &mut Profiler,
        timer: &mut dyn PhaseTimer,
    ) {
        for upd in updates {
            if self.gf[upd.vertex as usize] == 0 {
                self.gf_touched.push(upd.vertex);
            }
            self.gf[upd.vertex as usize] |= upd.mask;
        }
        prof.store_contiguous(self.scratch.gf_base, 0, updates.len() as u64, 8);
        timer.phase(prof, PhaseKind::Other);
    }
}

/// A resident sharded traversal service: the partition is built and
/// uploaded once (one simulated device per shard) and every request runs
/// lockstep waves over it — the sharded analogue of
/// [`ibfs::service::IbfsService`].
pub struct ShardedService<'g> {
    graph: &'g Csr,
    config: ShardedConfig,
    grouping: GroupingStrategy,
    partition: Partition,
    devices: Vec<ShardDevice>,
    /// When set, run_wave records per-shard comm-phase
    /// (encode/exchange/apply) [`ibfs_obs::PhaseRecord`]s into it.
    profiler: Option<Arc<EngineProfiler>>,
}

impl<'g> ShardedService<'g> {
    /// Partitions `graph` (with `reverse = graph.reverse()`) and uploads
    /// each shard to its own simulated device.
    pub fn new(graph: &'g Csr, reverse: &Csr, config: ShardedConfig) -> Self {
        let partition = Partitioner::new(config.shards, config.layout).partition(graph, reverse);
        let devices = partition
            .shards
            .iter()
            .map(|sg| ShardDevice::new(sg, config.device))
            .collect();
        // Waves share one u64 status word per vertex, so groups clamp to
        // WAVE_WIDTH instances.
        let mut grouping = config.grouping.clone();
        if grouping.group_size() > WAVE_WIDTH {
            grouping = match grouping {
                GroupingStrategy::Random { seed, .. } => {
                    GroupingStrategy::Random { seed, group_size: WAVE_WIDTH }
                }
                GroupingStrategy::OutDegreeRules(cfg) => {
                    GroupingStrategy::OutDegreeRules(cfg.with_group_size(WAVE_WIDTH))
                }
            };
        }
        ShardedService { graph, config, grouping, partition, devices, profiler: None }
    }

    /// Attaches a profiler: every subsequent wave records per-shard
    /// comm-phase timings (encode, simulated exchange, apply) into it.
    pub fn set_profiler(&mut self, profiler: Arc<EngineProfiler>) {
        self.profiler = Some(profiler);
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// Shard count.
    pub fn num_shards(&self) -> usize {
        self.partition.num_shards()
    }

    /// The owner map of the resident partition.
    pub fn owner(&self) -> &VertexOwner {
        &self.partition.owner
    }

    /// Validates a request against the resident graph without running it.
    pub fn admit(&self, sources: &[VertexId]) -> Result<(), RequestError> {
        admit_sources(sources, self.graph.num_vertices())
    }

    /// Serves one request. Panics on an invalid request; use
    /// [`ShardedService::try_run_traced`] for typed errors.
    pub fn run(&mut self, sources: &[VertexId]) -> ShardedRun {
        self.try_run_traced(sources, &mut NullSink)
            .unwrap_or_else(|e| panic!("invalid request: {e}"))
    }

    /// Serves one request: groups the sources into lockstep waves, runs
    /// each wave across every shard, and assembles global results.
    pub fn try_run_traced(
        &mut self,
        sources: &[VertexId],
        sink: &mut dyn TraceSink,
    ) -> Result<ShardedRun, RequestError> {
        self.admit(sources)?;
        let grouping = self.grouping.group(self.graph, sources);
        let mut groups = Vec::with_capacity(grouping.groups.len());
        let mut comm = CommStats::default();
        let mut counters = Counters::default();
        let mut sim_seconds = 0.0;
        let mut traversed = 0u64;
        for (gi, group) in grouping.groups.iter().enumerate() {
            let mut stamped = GroupStamp { group: gi as u64, inner: sink };
            let run = self.run_wave(group, &mut comm, &mut stamped);
            counters = counters.add(&run.counters);
            sim_seconds += run.sim_seconds;
            traversed += run.traversed_edges;
            groups.push(run);
        }
        Ok(ShardedRun {
            shards: self.config.shards,
            layout: self.config.layout,
            groups,
            sim_seconds,
            traversed_edges: traversed,
            counters,
            comm,
        })
    }

    /// Runs one wave (≤ [`WAVE_WIDTH`] instances) across every shard in
    /// lockstep.
    fn run_wave(
        &mut self,
        group: &[VertexId],
        comm: &mut CommStats,
        sink: &mut dyn TraceSink,
    ) -> GroupRun {
        let n_global = self.graph.num_vertices();
        let instances = group.len();
        let shards = self.partition.num_shards();
        let owner = self.partition.owner;
        let comm_cfg = self.config.comm;
        let policy = DirectionPolicy::beamer();
        let prof_arc = self.profiler.clone();
        let prof = prof_arc.as_deref();
        // One timeline track per wave; lanes are shard indices.
        let track = prof.map(|p| p.open_track()).unwrap_or(0);

        // Per-shard engines over fresh scratch; seeds go to their owners.
        let mut seeds: Vec<Vec<(u32, u64)>> = vec![Vec::new(); shards];
        for (j, &s) in group.iter().enumerate() {
            seeds[owner.owner_of(s)].push((owner.to_local(s), 1u64 << j));
        }
        let mut engines: Vec<ShardLevelEngine<'_>> = Vec::with_capacity(shards);
        let mut timers: Vec<SimTimer> = Vec::with_capacity(shards);
        let wave_start: Vec<Counters> =
            self.devices.iter().map(|d| d.prof.snapshot()).collect();
        for (sg, dev) in self.partition.shards.iter().zip(self.devices.iter_mut()) {
            let scratch = dev.alloc_scratch(sg.num_owned(), n_global, instances);
            let model = ibfs_gpu_sim::CostModel::new(dev.prof.config);
            timers.push(SimTimer::start(model, &dev.prof));
            engines.push(ShardLevelEngine::new(
                sg,
                owner,
                scratch,
                dev,
                std::mem::take(&mut seeds[sg.shard]),
                instances,
            ));
        }

        // Lockstep init: every shard seeds level 0; the wave pays the
        // slowest shard.
        let mut wave_seconds = 0.0f64;
        {
            let before: Vec<f64> = timers.iter().map(|t| t.seconds()).collect();
            for s in 0..shards {
                engines[s].init(&mut self.devices[s].prof, &mut timers[s]);
            }
            wave_seconds += (0..shards)
                .map(|s| timers[s].seconds() - before[s])
                .fold(0.0f64, f64::max);
        }

        let mut levels: Vec<LevelStats> = Vec::new();
        let mut dir = Direction::TopDown;
        let level_cap = engines[0].level_cap();
        for level in 1..=level_cap {
            let agg = engines
                .iter()
                .map(|e| e.frontier_stats())
                .fold(FrontierStats::default(), |a, b| a.add(&b));
            if agg.frontier_vertices == 0 {
                break;
            }
            dir = policy.next(
                dir,
                agg.frontier_edges,
                agg.frontier_vertices,
                agg.unexplored_edges,
                n_global as u64,
            );
            for e in engines.iter_mut() {
                e.set_direction(dir);
            }

            let before_secs: Vec<f64> = timers.iter().map(|t| t.seconds()).collect();
            let before_counters: Vec<Counters> =
                self.devices.iter().map(|d| d.prof.snapshot()).collect();
            let mut cost = ExchangeCost::default();

            // Bottom-up needs the global frontier on every shard first.
            if dir == Direction::BottomUp && shards > 1 {
                let encode_start = prof.map(|p| p.begin());
                let snaps: Vec<Vec<FrontierUpdate>> =
                    engines.iter().map(|e| e.frontier_snapshot()).collect();
                let payloads: Vec<Payload> = snaps
                    .iter()
                    .enumerate()
                    .map(|(s, sn)| encode_payload(sn, owner.num_owned(s)))
                    .collect();
                cost = allgather_cost(&comm_cfg, &payloads);
                if let (Some(p), Some(e)) = (prof, encode_start) {
                    let secs = e.elapsed_s();
                    for (s, pl) in payloads.iter().enumerate() {
                        p.record(
                            track,
                            s,
                            level as u64,
                            ProfPhase::CommEncode,
                            e.start_s(),
                            secs,
                            pl.bytes,
                            pl.entries,
                        );
                    }
                    // Simulated wire time: one span per shard, offset past
                    // the measured encode.
                    for s in 0..shards {
                        p.record(
                            track,
                            s,
                            level as u64,
                            ProfPhase::CommExchange,
                            e.start_s() + secs,
                            cost.seconds,
                            cost.bytes,
                            cost.messages,
                        );
                    }
                }
                let apply_start = prof.map(|p| p.begin());
                for i in 0..shards {
                    for (j, snap) in snaps.iter().enumerate() {
                        if i != j && !snap.is_empty() {
                            engines[i].inject_frontier(
                                snap,
                                &mut self.devices[i].prof,
                                &mut timers[i],
                            );
                        }
                    }
                }
                if let (Some(p), Some(a)) = (prof, apply_start) {
                    let secs = a.elapsed_s();
                    for i in 0..shards {
                        let (bytes, entries) = payloads
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| j != i)
                            .fold((0u64, 0u64), |acc, (_, pl)| {
                                (acc.0 + pl.bytes, acc.1 + pl.entries)
                            });
                        p.record(
                            track,
                            i,
                            level as u64,
                            ProfPhase::CommApply,
                            a.start_s(),
                            secs,
                            bytes,
                            entries,
                        );
                    }
                }
            }

            // The level proper, one kernel launch per shard.
            let mut shard_stats: Vec<LevelStats> = Vec::with_capacity(shards);
            for s in 0..shards {
                timers[s].kernel_launch();
                shard_stats.push(engines[s].run_level(
                    level,
                    &mut self.devices[s].prof,
                    &mut timers[s],
                ));
            }

            // Top-down scatters remote candidates to their owners.
            if dir == Direction::TopDown && shards > 1 {
                let encode_start = prof.map(|p| p.begin());
                let outs: Vec<Vec<Vec<FrontierUpdate>>> =
                    engines.iter_mut().map(|e| e.take_outbound()).collect();
                let matrix: Vec<Vec<Payload>> = outs
                    .iter()
                    .map(|row| {
                        row.iter()
                            .enumerate()
                            .map(|(d, u)| encode_payload(u, owner.num_owned(d)))
                            .collect()
                    })
                    .collect();
                cost = scatter_cost(&comm_cfg, &matrix);
                if let (Some(p), Some(e)) = (prof, encode_start) {
                    let secs = e.elapsed_s();
                    for (src, row) in matrix.iter().enumerate() {
                        let (bytes, entries) = row
                            .iter()
                            .enumerate()
                            .filter(|&(dst, _)| dst != src)
                            .fold((0u64, 0u64), |acc, (_, pl)| {
                                (acc.0 + pl.bytes, acc.1 + pl.entries)
                            });
                        p.record(
                            track,
                            src,
                            level as u64,
                            ProfPhase::CommEncode,
                            e.start_s(),
                            secs,
                            bytes,
                            entries,
                        );
                    }
                    for s in 0..shards {
                        p.record(
                            track,
                            s,
                            level as u64,
                            ProfPhase::CommExchange,
                            e.start_s() + secs,
                            cost.seconds,
                            cost.bytes,
                            cost.messages,
                        );
                    }
                }
                let apply_start = prof.map(|p| p.begin());
                for (src, row) in outs.iter().enumerate() {
                    for (dst, updates) in row.iter().enumerate() {
                        if src != dst && !updates.is_empty() {
                            engines[dst].inject_candidates(
                                updates,
                                &mut self.devices[dst].prof,
                                &mut timers[dst],
                            );
                        }
                    }
                }
                if let (Some(p), Some(a)) = (prof, apply_start) {
                    let secs = a.elapsed_s();
                    for dst in 0..shards {
                        let (bytes, entries) = matrix
                            .iter()
                            .enumerate()
                            .filter(|&(src, _)| src != dst)
                            .fold((0u64, 0u64), |acc, (_, row)| {
                                (acc.0 + row[dst].bytes, acc.1 + row[dst].entries)
                            });
                        p.record(
                            track,
                            dst,
                            level as u64,
                            ProfPhase::CommApply,
                            a.start_s(),
                            secs,
                            bytes,
                            entries,
                        );
                    }
                }
            }

            comm.push_level(level, &cost);
            let compute = (0..shards)
                .map(|s| timers[s].seconds() - before_secs[s])
                .fold(0.0f64, f64::max);
            let level_seconds = compute + cost.seconds;
            wave_seconds += level_seconds;

            let agg_stats = shard_stats.iter().fold(
                LevelStats {
                    level,
                    direction: dir,
                    unique_frontiers: 0,
                    instance_frontiers: 0,
                    edges_inspected: 0,
                    early_terminations: 0,
                },
                |mut a, s| {
                    a.unique_frontiers += s.unique_frontiers;
                    a.instance_frontiers += s.instance_frontiers;
                    a.edges_inspected += s.edges_inspected;
                    a.early_terminations += s.early_terminations;
                    a
                },
            );
            let delta = self
                .devices
                .iter()
                .zip(&before_counters)
                .fold(Counters::default(), |acc, (d, b)| {
                    acc.add(&d.prof.snapshot().delta(b))
                });
            sink.record(&TraversalEvent {
                group: 0,
                batch: 0,
                level,
                direction: dir,
                unique_frontiers: agg_stats.unique_frontiers,
                instance_frontiers: agg_stats.instance_frontiers,
                edges_inspected: agg_stats.edges_inspected,
                early_terminations: agg_stats.early_terminations,
                load_transactions: delta.global_load_transactions,
                store_transactions: delta.global_store_transactions,
                atomic_transactions: delta.atomic_transactions,
                sim_seconds: level_seconds,
                wall_seconds: 0.0,
            });
            levels.push(agg_stats);
        }

        // Assemble per-shard local depths back into global vertex order.
        let mut depths = vec![DEPTH_UNVISITED; instances * n_global];
        for (s, e) in engines.iter().enumerate() {
            let owned = e.sg.num_owned();
            for u in 0..owned as u32 {
                let g = owner.to_global(s, u) as usize;
                for j in 0..instances {
                    depths[j * n_global + g] = e.depths[j * owned + u as usize];
                }
            }
        }
        let traversed = traversed_edges_for(self.graph, &depths, instances);
        let wave_counters = self
            .devices
            .iter()
            .zip(&wave_start)
            .fold(Counters::default(), |acc, (d, b)| acc.add(&d.prof.snapshot().delta(b)));
        let kernel_launches: u64 = timers.iter().map(|t| t.launch_count()).sum();

        GroupRun {
            engine: "sharded",
            num_instances: instances,
            num_vertices: n_global,
            depths,
            levels,
            counters: wave_counters,
            sim_seconds: wave_seconds,
            traversed_edges: traversed,
            kernel_launches,
        }
    }
}

/// One-shot sharded traversal: partition, upload, run, discard — the
/// sharded counterpart of [`ibfs::runner::run_ibfs`], pinned bit-identical
/// to it (depths and traversed edges) by the differential suite.
pub fn run_sharded(
    graph: &Csr,
    reverse: &Csr,
    sources: &[VertexId],
    config: &ShardedConfig,
) -> ShardedRun {
    ShardedService::new(graph, reverse, config.clone()).run(sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ExchangePattern;
    use ibfs_graph::generators::{rmat, RmatParams};
    use ibfs_graph::validate::reference_bfs;

    fn config(shards: usize, layout: OwnershipLayout, pattern: ExchangePattern) -> ShardedConfig {
        ShardedConfig {
            shards,
            layout,
            comm: CommConfig::with_pattern(pattern),
            ..Default::default()
        }
    }

    #[test]
    fn sharded_depths_match_reference_bfs() {
        let g = rmat(8, 8, RmatParams::graph500(), 11);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..32).collect();
        for shards in [1usize, 3, 4] {
            for layout in OwnershipLayout::all() {
                let run = run_sharded(
                    &g,
                    &r,
                    &sources,
                    &config(shards, layout, ExchangePattern::AllToAll),
                );
                assert_eq!(run.num_instances(), 32);
                let grouping = ShardedConfig::default().grouping.group(&g, &sources);
                for (gi, group) in grouping.groups.iter().enumerate() {
                    for (j, &s) in group.iter().enumerate() {
                        assert_eq!(
                            run.groups[gi].instance_depths(j),
                            &reference_bfs(&g, s)[..],
                            "shards={shards} layout={layout:?} source={s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn patterns_change_cost_not_results() {
        let g = rmat(9, 8, RmatParams::graph500(), 23);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..48).collect();
        let a2a = run_sharded(
            &g,
            &r,
            &sources,
            &config(4, OwnershipLayout::Hash, ExchangePattern::AllToAll),
        );
        let bf = run_sharded(
            &g,
            &r,
            &sources,
            &config(4, OwnershipLayout::Hash, ExchangePattern::Butterfly),
        );
        for (ga, gb) in a2a.groups.iter().zip(&bf.groups) {
            assert_eq!(ga.depths, gb.depths);
        }
        assert_eq!(a2a.traversed_edges, bf.traversed_edges);
        assert!(bf.comm.messages <= a2a.comm.messages);
        assert!(bf.comm.messages > 0);
    }

    #[test]
    fn single_shard_run_exchanges_nothing() {
        let g = rmat(7, 8, RmatParams::graph500(), 3);
        let r = g.reverse();
        let run = run_sharded(
            &g,
            &r,
            &(0..16).collect::<Vec<_>>(),
            &config(1, OwnershipLayout::Contiguous, ExchangePattern::AllToAll),
        );
        assert_eq!(run.comm.messages, 0);
        assert_eq!(run.comm.bytes, 0);
        assert!(run.comm.exchange_seconds == 0.0);
        assert!(run.sim_seconds > 0.0);
    }

    #[test]
    fn resident_service_is_reusable_and_deterministic() {
        let g = rmat(8, 8, RmatParams::graph500(), 9);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..24).collect();
        let mut svc = ShardedService::new(
            &g,
            &r,
            config(4, OwnershipLayout::Contiguous, ExchangePattern::Butterfly),
        );
        let a = svc.run(&sources);
        let b = svc.run(&sources);
        assert_eq!(a.groups[0].depths, b.groups[0].depths);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.comm, b.comm);
        assert_eq!(a.sim_seconds.to_bits(), b.sim_seconds.to_bits());
    }

    #[test]
    fn admission_rejects_bad_requests() {
        let g = rmat(6, 4, RmatParams::graph500(), 1);
        let r = g.reverse();
        let mut svc =
            ShardedService::new(&g, &r, config(2, OwnershipLayout::Hash, ExchangePattern::AllToAll));
        assert_eq!(
            svc.try_run_traced(&[], &mut NullSink).unwrap_err(),
            RequestError::EmptySources
        );
        let bad = g.num_vertices() as VertexId;
        assert!(matches!(
            svc.try_run_traced(&[bad], &mut NullSink).unwrap_err(),
            RequestError::SourceOutOfRange { .. }
        ));
    }

    #[test]
    fn exchange_time_is_charged_into_sim_time() {
        let g = rmat(8, 8, RmatParams::graph500(), 17);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..32).collect();
        let cheap = run_sharded(&g, &r, &sources, &ShardedConfig {
            shards: 4,
            comm: CommConfig { latency_s: 0.0, bytes_per_s: f64::INFINITY, ..Default::default() },
            ..Default::default()
        });
        let pricey = run_sharded(&g, &r, &sources, &ShardedConfig {
            shards: 4,
            comm: CommConfig { latency_s: 1e-3, bytes_per_s: 1e6, ..Default::default() },
            ..Default::default()
        });
        assert_eq!(cheap.groups[0].depths, pricey.groups[0].depths);
        assert!(pricey.comm.exchange_seconds > 0.0);
        assert!(
            (pricey.sim_seconds - cheap.sim_seconds - pricey.comm.exchange_seconds).abs()
                < 1e-9 * pricey.sim_seconds.max(1.0),
            "sim time must grow by exactly the exchange time"
        );
    }

    #[test]
    fn summary_reports_comm_volume() {
        let g = rmat(7, 8, RmatParams::graph500(), 29);
        let r = g.reverse();
        let run = run_sharded(
            &g,
            &r,
            &(0..16).collect::<Vec<_>>(),
            &config(4, OwnershipLayout::Contiguous, ExchangePattern::AllToAll),
        );
        let s = run.summary();
        assert_eq!(s.shards, 4);
        assert_eq!(s.messages, run.comm.messages);
        assert!(s.messages > 0);
        assert!(s.bytes > 0);
        assert!(!run.comm.per_level.is_empty());
    }
}
