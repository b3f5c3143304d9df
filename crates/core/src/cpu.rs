//! Real multithreaded CPU implementation (§7, Figure 22, Table 1), built
//! around a persistent worker pool and a resident scratch arena.
//!
//! One service, [`CpuService`], configured by one options struct,
//! [`CpuOptions`], and measured in *wall-clock* time rather than the GPU
//! simulator's model. [`CpuOptions::msbfs`] picks between the two
//! algorithms of Figure 22:
//!
//! * `msbfs: false` — iBFS ported to CPUs as §7 describes: the same bitwise
//!   status arrays, joint traversal and early termination, with atomic
//!   fetch-OR for the multi-threaded bitwise updates.
//! * `msbfs: true` — the MS-BFS baseline of Then et al. (VLDB'15): no early
//!   termination, plus the per-level `visit`-map maintenance sweep the paper
//!   attributes to `[26]`.
//!
//! Both run Beamer's fixed α/β direction switch
//! ([`DirectionPolicy::default`]) on the graph's own vertex order.
//!
//! # Architecture
//!
//! The pre-pool implementation (frozen in [`crate::cpu_baseline`]) respawned
//! scoped threads in 3–4 waves per BFS level, copied the whole status array
//! every level, and reallocated its scratch per group. [`CpuService`] is the
//! rebuilt hot path, mirroring [`crate::service::IbfsService`]'s upload-once
//! design:
//!
//! * **Persistent pool** — one [`WorkerPool`] spawned at service
//!   construction; every phase of every level of every group runs on it
//!   (see `tests`: the process thread count is constant across a
//!   multi-level, multi-group run).
//! * **Resident arena** — the `cur`/`next` status arrays, the per-lane
//!   change bitmaps, and per-lane queue segments are allocated once and
//!   reused across groups; only the returned depth table is allocated per
//!   group (it is the result, not scratch).
//! * **Wide words** — the engine is generic over [`StatusWord`] width
//!   through the [`AtomicStatus`] lanes in [`crate::word`]; with
//!   [`WordWidth::W256`] a 128-source set runs as one group instead of two.
//!   Depths are written directly in `[instance][vertex]` layout, with no
//!   whole-table transpose after the run; see *Identification writes*
//!   below for how those writes stay cache-friendly.
//! * **Change bitmaps** — traversal reads `cur` and adds bits to `next`.
//!   Each lane owns an `n/64`-word bitmap and sets bit `v` with a plain
//!   load and store whenever its `fetch_or` or store added a bit to
//!   `next[v]` (a shared bitmap would put two lanes' marks on one cache
//!   line). Identification claims the [`CHUNK`]-sized chunks holding a
//!   mark, walks only the set bits of their words, clears them, and stores
//!   `cur[v] = next[v]` right after taking `v`'s diff. So `next == cur` at
//!   the start of every level with no repair phase or buffer swap, and a
//!   level costs O(changed vertices) plus a scan of `lanes × n/64` words.
//!   Debug builds assert that every marked vertex has a non-zero diff and
//!   that every bitmap is clear when a group starts.
//! * **Work stealing** — top-down and bottom-up frontiers are pre-split
//!   into degree-balanced chunks (weight = degree + 1) and claimed through
//!   a shared atomic cursor, so a lane that lands on a power-law hub simply
//!   claims fewer chunks; the old static `even_ranges` split is gone. The
//!   chunk count per lane is autotuned from the degree histogram at
//!   [`CpuService::new`]: skewed graphs get more, finer chunks.
//!
//! An edge-tiled engine and an asynchronous label-correcting engine once
//! ran beside this level loop, and both were measured against it on the
//! `benchmark` workloads: tiled stayed within noise and async was slower
//! on every workload, the high-diameter mesh included. Both were removed,
//! so this loop is the only CPU engine (DESIGN.md, *CPU engine round 2*).
//! Vertex reordering (degree, hub, RCM) and an online α/β tuner went the
//! same way: neither won on those workloads, and every ordering raised
//! peak RSS and set-up time past the benchmark's bounds (DESIGN.md §10).
//!
//! # Identification writes
//!
//! Identification records depth `d` in cell `(j, v)` at `j * n + v` for
//! each instance bit `j` new in vertex `v`'s diff word. The row stride is
//! `n` itself, and the benchmark graphs have power-of-two `n` (2^15 for
//! R-MAT, 2^14 for the mesh), so the up to 64 stores one vertex makes land
//! in one L1 set and two L2 sets: each store evicts the line the next
//! vertex needs.
//!
//! So identification walks each claimed chunk one change-bitmap word at a
//! time, which is one `BLOCK`-vertex block (one cache line of `u8` depths
//! per row). A vertex whose diff word has at most `DIRECT_WRITE_MAX` bits
//! writes its cells directly: it touches few rows. A vertex with more bits
//! parks its whole diff word with one store per 64-bit lane: lane `k` of
//! the word becomes row `v - base` of tile `k`, a 64×64 bit matrix in a
//! per-lane `[[u64; 64]; CPU_GROUP / 64]` (2 KiB on the lane's stack).
//! W32 fills the low half of one tile; W128 and W256 use two and four. At
//! the end of each block, each tile holding a parked bit is transposed in
//! place (six shift-and-mask rounds, Hacker's Delight §7-3). Its row `j`
//! then holds instance `64k + j`'s cells in the block, which are written in
//! one pass over that row's cache line and cleared; debug builds assert
//! that every tile is zero after its block. So one store serves every
//! instance of a dense vertex, as one status word does in traversal (§6).
//! The cut-off rests on the diff word's popcount, which the level loop
//! computes anyway: on the mesh almost every word has one or two bits, and
//! a prototype that buffered every vertex slowed the mesh's identification
//! by about 15%.
//!
//! A prototype with a padded row stride plus a copy into the dense result
//! was as fast, but it raised the benchmark's peak RSS by 17% on
//! batch-rmat and 25% on batch-mesh, against a 5% bound, so that design
//! was rejected. The layout of [`CpuRun::depths`] is unchanged.
//!
//! `traversed_edges` comes from the level loop: the sources' out-degrees,
//! plus `marked × out_degree(v)` for each identified vertex, which the
//! direction policy already needs. The sequential rescan of all `ni × n`
//! cells after the last level ([`crate::engine::traversed_edges_for`])
//! remains only as a `debug_assert_eq!`.
//!
//! Before the transpose, a parked vertex set one row-mask bit per new
//! instance bit: up to 64 loop turns per vertex. That loop was the cost,
//! not the stores: a prototype that only swapped the flush's byte stores
//! for masked `u64` stores changed nothing. With the transpose, a traced
//! `batch-rmat` run of the `benchmark` package (seed 42, 2 lanes, 64-source
//! groups, 20 s, on a 2-vCPU KVM host) went from 9.63 to 4.99 ms of
//! identification per group (summed over lanes), and 10 alternating
//! untraced pairs (seeds 1601–1610, 20 s, same host) moved the median
//! `teps` from 5.20 G to 6.86 G (×1.32, 10 wins in 10; parent IQR 5.5%)
//! and the median group latency from 10.76 to 8.08 ms. `batch-mesh`,
//! whose diff words take the direct path, stayed flat. Walking only the
//! changed vertices (see *Change bitmaps*) had earlier cut `batch-mesh`
//! identification (seed 42, one lane, 20 s, same host) from 20.7 to 13.0
//! ms per group and `repair_ms` from 3.8 to 0, and pool phases per level
//! fell from 3.10 to 2.10.
//!
//! Capacity is [`CPU_GROUP`] instances, further limited by the configured
//! word width. Oversized or malformed groups are typed
//! [`RequestError`]s, matching the GPU service's admission style.
//!
//! # Level events
//!
//! [`CpuService::run_group_traced`] hands its [`TraceSink`] one
//! [`TraversalEvent`] at the end of each level, as the simulator's level
//! driver does, with the level's wall-clock seconds in `wall_seconds` and
//! `sim_seconds` and the transaction counts at 0. The counts come from
//! per-vertex sums, never from the edge loops: a top-down level inspects
//! the out-degree of every queued vertex, and a bottom-up vertex counts the
//! in-neighbours its scan reached before the word filled (an early
//! termination) or the list ran out. `instance_frontiers` counts the
//! instance bits the level works from, as the simulator does: on a
//! top-down level the bits that entered it (the group size at level 1),
//! on a bottom-up level the bits its unfinished queue still misses. So
//! `instance_frontiers / unique_frontiers` is the level's sharing degree
//! in either direction. [`CpuService::run_group`] is the same loop with a
//! [`NullSink`].

use crate::direction::{Direction, DirectionPolicy};
use crate::pool::{build_bounds, ChunkCursor, ClaimTally, WorkerPool};
use crate::service::{admit_sources, RequestError};
use crate::trace::{NullSink, TraceSink, TraversalEvent};
use crate::word::{
    transpose64, AtomicStatus, AtomicW128, AtomicW256, AtomicW32, AtomicW64, StatusWord, WordWidth,
};
use ibfs_graph::{Csr, Depth, VertexId, DEPTH_UNVISITED};
use ibfs_obs::{EngineProfiler, ProfPhase};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maximum instances per CPU group (one [`crate::word::W256`] register
/// word); the effective capacity is `min(CPU_GROUP, width.bits())`.
pub const CPU_GROUP: usize = 256;

/// log2 of the chunk granularity.
pub const CHUNK_BITS: usize = 10;

/// Vertices per chunk: the unit of work that identification, full sweeps
/// and group cleanup claim on the pool.
pub const CHUNK: usize = 1 << CHUNK_BITS;

/// Vertices per identification write block: one bit per vertex in a `u64`
/// row mask or change-bitmap word, and one 64-byte cache line of each
/// instance row's depths. Divides [`CHUNK`], so blocks never straddle a
/// claimed chunk.
const BLOCK: usize = 64;

/// Most new instance bits a vertex writes straight into the depth table
/// during identification. A vertex with more parks them in its block's
/// row masks instead (see the module docs). Chosen on the diff word's
/// popcount, which identification computes anyway.
const DIRECT_WRITE_MAX: u32 = 4;

/// Degree-balanced steal chunks handed to each pool lane per phase, for
/// graphs with mild degree skew. The autotuner raises this on skewed
/// graphs (see [`autotune_chunks_per_lane`]).
const STEAL_CHUNKS_PER_LANE: usize = 8;

/// Frontier occupancy divisor for the adaptive frontier representation: a
/// level whose queue holds at least `n / DENSE_FRONTIER_DIV` vertices is
/// normalized to ascending vertex order through a dense bitmap (cost
/// O(n/64 + frontier)), so the traversal walks the CSR near-sequentially.
/// Sparse levels keep the queue in lane-concatenation order — for them the
/// O(n/64) bitmap scan would dominate the level itself.
pub const DENSE_FRONTIER_DIV: usize = 16;

/// Worker threads to use when a config says `0`.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Result of a CPU group run.
#[derive(Clone, Debug)]
pub struct CpuRun {
    /// Instances in the group.
    pub num_instances: usize,
    /// Vertices in the graph.
    pub num_vertices: usize,
    /// Depths, flattened `[instance][vertex]`.
    pub depths: Vec<Depth>,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Traversed directed edges summed over instances.
    pub traversed_edges: u64,
    /// Wall-clock seconds of each BFS level, in level order.
    pub level_seconds: Vec<f64>,
}

impl CpuRun {
    /// Instance `j`'s depth array.
    pub fn instance_depths(&self, j: usize) -> &[Depth] {
        &self.depths[j * self.num_vertices..(j + 1) * self.num_vertices]
    }

    /// Traversal rate.
    pub fn teps(&self) -> f64 {
        crate::metrics::teps(self.traversed_edges, self.wall_seconds)
    }
}

/// Full configuration of a [`CpuService`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuOptions {
    /// Worker threads; 0 = all available.
    pub threads: usize,
    /// Cap on traversal levels; 0 means unlimited.
    pub max_levels: u32,
    /// Status-word width (group capacity).
    pub width: WordWidth,
    /// MS-BFS semantics instead of iBFS: no bottom-up early termination,
    /// plus the per-level visit-map maintenance sweep.
    pub msbfs: bool,
}

/// Counters accumulated by a [`CpuService`] across its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Groups served.
    pub groups: u64,
    /// BFS levels executed.
    pub levels: u64,
    /// Chunks holding at least one vertex that traversal changed
    /// (identification claims exactly these).
    pub chunks_touched: u64,
    /// Full O(n) sweeps (MS-BFS visit-map maintenance and top-down →
    /// bottom-up switches).
    pub full_sweeps: u64,
    /// Degree-balanced steal chunks claimed in top-down phases.
    pub td_chunks: u64,
    /// Degree-balanced steal chunks claimed in bottom-up phases.
    pub bu_chunks: u64,
    /// Sum over traversal phases of the busiest lane's steal-chunk claims.
    /// With `td_chunks + bu_chunks` this yields the steal-balance ratio
    /// (`max_lane * threads / total`, 1.0 = perfectly even).
    pub steal_max_chunks: u64,
    /// Levels whose frontier was normalized through the dense bitmap.
    pub dense_levels: u64,
    /// Levels that kept the sparse lane-order queue.
    pub sparse_levels: u64,
    /// Microseconds spent in top-down traversal phases.
    pub td_micros: u64,
    /// Microseconds spent in bottom-up traversal phases.
    pub bu_micros: u64,
}

/// Point-in-time view of a service's counters, including its pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuStatsSnapshot {
    /// Engine counters.
    pub stats: CpuStats,
    /// Barrier-synced phases dispatched on the pool.
    pub pool_phases: u64,
    /// Pool lanes (including the caller's lane 0).
    pub pool_threads: usize,
    /// OS threads the pool owns (`pool_threads - 1`).
    pub os_threads: usize,
}

/// Per-vertex-chunk range, clipped to `n`.
#[inline]
fn chunk_range(c: usize, n: usize) -> std::ops::Range<usize> {
    (c << CHUNK_BITS)..(((c + 1) << CHUNK_BITS).min(n))
}

/// Change-bitmap words covering chunk `c` (one bit per vertex), clipped
/// to `n`.
#[inline]
fn chunk_words(c: usize, n: usize) -> std::ops::Range<usize> {
    let per_chunk = CHUNK / BLOCK;
    (c * per_chunk)..((c + 1) * per_chunk).min(n.div_ceil(BLOCK))
}

/// Width-specific resident status arrays.
struct Arena<A> {
    cur: Vec<A>,
    next: Vec<A>,
}

impl<A: AtomicStatus> Arena<A> {
    fn new(n: usize) -> Self {
        Arena {
            cur: (0..n).map(|_| A::zeroed()).collect(),
            next: (0..n).map(|_| A::zeroed()).collect(),
        }
    }
}

enum ArenaAny {
    W32(Arena<AtomicW32>),
    W64(Arena<AtomicW64>),
    W128(Arena<AtomicW128>),
    W256(Arena<AtomicW256>),
}

/// Per-lane scratch, locked by its own lane for the duration of a phase.
#[derive(Default)]
struct LaneScratch {
    queue: Vec<VertexId>,
    unfinished: Vec<VertexId>,
    new_marked: u64,
    new_edges: u64,
    /// Edges this lane's traversal inspected this level.
    inspected: u64,
    /// Bottom-up scans this lane cut short at an all-ones word this level.
    early_terms: u64,
}

/// Width-independent resident scratch.
struct Scratch {
    lanes: Vec<Mutex<LaneScratch>>,
    /// Per lane, one bit per vertex: the vertices that lane gave a new
    /// status bit during this level's traversal. A lane's own traversal is
    /// its only writer; identification reads and clears them by chunk.
    /// The pool's phase barrier orders those phases, so `Relaxed` loads
    /// and stores suffice.
    changed: Vec<Vec<AtomicU64>>,
    /// This level's chunks with a changed vertex, ascending.
    touched: Vec<u32>,
    /// Chunks dirtied at any point of the current group (for cleanup).
    ever: Vec<bool>,
    ever_list: Vec<u32>,
    queue: Vec<VertexId>,
    next_queue: Vec<VertexId>,
    /// Degree-balanced steal-chunk boundaries into `queue`.
    bounds: Vec<(u32, u32)>,
    cursor: ChunkCursor,
    /// Per-lane claim counts for the steal-balance metric.
    tally: ClaimTally,
    /// Dense frontier bitmap (one bit per vertex), used to normalize
    /// high-occupancy queues to ascending order (see
    /// [`DENSE_FRONTIER_DIV`]). Allocated lazily on the first dense level.
    bitmap: Vec<u64>,
}

impl Scratch {
    fn new(n: usize, threads: usize) -> Self {
        let num_chunks = n.div_ceil(CHUNK);
        Scratch {
            lanes: (0..threads).map(|_| Mutex::new(LaneScratch::default())).collect(),
            changed: (0..threads)
                .map(|_| (0..n.div_ceil(BLOCK)).map(|_| AtomicU64::new(0)).collect())
                .collect(),
            touched: Vec::new(),
            ever: vec![false; num_chunks],
            ever_list: Vec::new(),
            queue: Vec::new(),
            next_queue: Vec::new(),
            bounds: Vec::new(),
            cursor: ChunkCursor::default(),
            tally: ClaimTally::new(threads),
            bitmap: Vec::new(),
        }
    }
}

/// Shared mutable depth table written by identification lanes.
///
/// Lanes write disjoint `(instance, vertex)` cells: every touched chunk is
/// claimed by exactly one lane, and a vertex belongs to exactly one chunk.
#[derive(Clone, Copy)]
struct DepthTable(*mut Depth);

// SAFETY: see the type docs — writers are disjoint by chunk ownership, and
// the table is only read after the phase barrier.
unsafe impl Send for DepthTable {}
unsafe impl Sync for DepthTable {}

impl DepthTable {
    /// # Safety
    /// `idx` must be in bounds and written by at most one lane per phase.
    #[inline]
    unsafe fn set(&self, idx: usize, d: Depth) {
        unsafe { *self.0.add(idx) = d };
    }
}

/// Picks the steal-chunk count per lane from the degree histogram: the
/// more the maximum degree dominates the average (power-law skew), the
/// finer the chunks, so a lane that lands on hub-adjacent work leaves
/// more chunks for the others to steal.
fn autotune_chunks_per_lane(csr: &Csr) -> usize {
    let hist = ibfs_graph::degree::log2_degree_histogram(csr);
    if hist.is_empty() {
        return STEAL_CHUNKS_PER_LANE;
    }
    let max_degree = 1u64 << (hist.len() - 1);
    let skew = max_degree as f64 / csr.avg_degree().max(1.0);
    if skew >= 64.0 {
        4 * STEAL_CHUNKS_PER_LANE
    } else if skew >= 8.0 {
        2 * STEAL_CHUNKS_PER_LANE
    } else {
        STEAL_CHUNKS_PER_LANE
    }
}

/// A resident CPU traversal service: persistent pool + reusable arena
/// serving group after group against one graph.
pub struct CpuService<'g> {
    csr: &'g Csr,
    rev: &'g Csr,
    opts: CpuOptions,
    pool: WorkerPool,
    arena: ArenaAny,
    scratch: Scratch,
    stats: CpuStats,
    /// Steal chunks per lane, autotuned from degree skew.
    chunks_per_lane: usize,
    /// When set, every phase of every level records per-lane
    /// [`PhaseRecord`](ibfs_obs::PhaseRecord)s into it.
    profiler: Option<Arc<EngineProfiler>>,
}

impl<'g> CpuService<'g> {
    /// Spawns the pool and allocates the arena. `rev` must be
    /// `csr.reverse()` (pass the same graph when symmetric).
    pub fn new(csr: &'g Csr, rev: &'g Csr, mut opts: CpuOptions) -> Self {
        if opts.threads == 0 {
            opts.threads = available_threads();
        }
        let n = csr.num_vertices();
        let arena = match opts.width {
            WordWidth::W32 => ArenaAny::W32(Arena::new(n)),
            WordWidth::W64 => ArenaAny::W64(Arena::new(n)),
            WordWidth::W128 => ArenaAny::W128(Arena::new(n)),
            WordWidth::W256 => ArenaAny::W256(Arena::new(n)),
        };
        CpuService {
            csr,
            rev,
            opts,
            pool: WorkerPool::new(opts.threads),
            arena,
            scratch: Scratch::new(n, opts.threads),
            stats: CpuStats::default(),
            chunks_per_lane: autotune_chunks_per_lane(csr),
            profiler: None,
        }
    }

    /// Attaches a profiler: every subsequent group records per-lane,
    /// per-level phase timings (and synthesized barrier waits) into it.
    pub fn set_profiler(&mut self, profiler: Arc<EngineProfiler>) {
        self.profiler = Some(profiler);
    }

    /// The resolved steal-chunk count per lane.
    pub fn chunks_per_lane(&self) -> usize {
        self.chunks_per_lane
    }

    /// Instances one group can hold (`min(CPU_GROUP, width.bits())`).
    pub fn capacity(&self) -> usize {
        CPU_GROUP.min(self.opts.width.bits() as usize)
    }

    /// The resolved options (threads filled in).
    pub fn options(&self) -> &CpuOptions {
        &self.opts
    }

    /// The persistent pool (spawned once, at construction).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Counters accumulated so far, including pool phase counts.
    pub fn stats(&self) -> CpuStatsSnapshot {
        CpuStatsSnapshot {
            stats: self.stats,
            pool_phases: self.pool.phases_run(),
            pool_threads: self.pool.threads(),
            os_threads: self.pool.spawned_threads(),
        }
    }

    /// Adds the service's lifetime counters to `registry` under the
    /// `ibfs_cpu_*` families. Call once per service (the values are
    /// lifetime totals, not deltas).
    pub fn record_metrics(&self, registry: &ibfs_obs::Registry) {
        let s = self.stats();
        registry.counter("ibfs_cpu_groups_total").add(s.stats.groups);
        registry.counter("ibfs_cpu_levels_total").add(s.stats.levels);
        registry.counter("ibfs_cpu_chunks_touched_total").add(s.stats.chunks_touched);
        registry.counter("ibfs_cpu_full_sweeps_total").add(s.stats.full_sweeps);
        registry.counter("ibfs_cpu_steal_chunks_total").add(s.stats.td_chunks + s.stats.bu_chunks);
        registry.counter("ibfs_cpu_pool_phases_total").add(s.pool_phases);
        registry.gauge("ibfs_cpu_pool_threads").set(s.pool_threads as f64);
        let total_chunks = s.stats.td_chunks + s.stats.bu_chunks;
        // Balance ratio: busiest lane's share of claims vs a perfectly even
        // split. 1.0 = even; `threads` = one lane claimed everything.
        let balance = if total_chunks > 0 {
            s.stats.steal_max_chunks as f64 * s.pool_threads as f64 / total_chunks as f64
        } else {
            0.0
        };
        registry.gauge("ibfs_cpu_steal_balance").set(balance);
        // The adaptive frontier representation's level split.
        registry.counter("ibfs_cpu_dense_levels_total").add(s.stats.dense_levels);
        registry.counter("ibfs_cpu_sparse_levels_total").add(s.stats.sparse_levels);
    }

    /// Validates a group without running it.
    pub fn admit(&self, sources: &[VertexId]) -> Result<(), RequestError> {
        admit_sources(sources, self.csr.num_vertices())?;
        let capacity = self.capacity();
        if sources.len() > capacity {
            return Err(RequestError::GroupTooLarge { size: sources.len(), capacity });
        }
        Ok(())
    }

    /// Serves one group of up to [`CpuService::capacity`] instances,
    /// reusing the pool and arena. Duplicate sources are allowed (each gets
    /// its own instance bit).
    pub fn run_group(&mut self, sources: &[VertexId]) -> Result<CpuRun, RequestError> {
        self.run_group_traced(sources, &mut NullSink)
    }

    /// [`CpuService::run_group`], handing `sink` one [`TraversalEvent`] per
    /// level (see *Level events* in the module docs).
    pub fn run_group_traced(
        &mut self,
        sources: &[VertexId],
        sink: &mut dyn TraceSink,
    ) -> Result<CpuRun, RequestError> {
        self.admit(sources)?;
        let (csr, rev, opts, pool) = (self.csr, self.rev, self.opts, &self.pool);
        let (scratch, stats) = (&mut self.scratch, &mut self.stats);
        let cx = RunCx { chunks_per_lane: self.chunks_per_lane, prof: self.profiler.as_deref() };
        Ok(match &self.arena {
            ArenaAny::W32(a) => {
                run_width(csr, rev, opts, pool, a, scratch, stats, cx, sources, sink)
            }
            ArenaAny::W64(a) => {
                run_width(csr, rev, opts, pool, a, scratch, stats, cx, sources, sink)
            }
            ArenaAny::W128(a) => {
                run_width(csr, rev, opts, pool, a, scratch, stats, cx, sources, sink)
            }
            ArenaAny::W256(a) => {
                run_width(csr, rev, opts, pool, a, scratch, stats, cx, sources, sink)
            }
        })
    }
}

/// Autotuned per-service parameters threaded into the level loop.
#[derive(Clone, Copy)]
struct RunCx<'p> {
    chunks_per_lane: usize,
    /// Optional phase profiler (None costs one branch per phase).
    prof: Option<&'p EngineProfiler>,
}

/// Sets bit `v` of a lane's change bitmap. The lane is the bitmap's only
/// writer during traversal, so a plain load and store suffice.
#[inline]
fn mark(changed: &[AtomicU64], v: usize) {
    let word = &changed[v >> 6];
    let bits = word.load(Ordering::Relaxed) | 1 << (v & 63);
    word.store(bits, Ordering::Relaxed);
}

/// Whether any of `words` of a change bitmap has a bit set.
fn any_marked(words: &[AtomicU64]) -> bool {
    words.iter().any(|w| w.load(Ordering::Relaxed) != 0)
}

/// The width-generic pooled level loop. See the module docs for the
/// change-bitmap invariant this maintains, and *Level events* for what it
/// hands `sink`.
#[allow(clippy::too_many_arguments)]
fn run_width<A: AtomicStatus>(
    csr: &Csr,
    rev: &Csr,
    opts: CpuOptions,
    pool: &WorkerPool,
    arena: &Arena<A>,
    scratch: &mut Scratch,
    stats: &mut CpuStats,
    cx: RunCx<'_>,
    sources: &[VertexId],
    sink: &mut dyn TraceSink,
) -> CpuRun {
    let ni = sources.len();
    let n = csr.num_vertices();
    let num_chunks = n.div_ceil(CHUNK);
    let total_edges = csr.num_edges() as u64;
    let full = A::Word::low_mask(ni as u32);
    let threads = pool.threads();
    let chunks_per_lane = cx.chunks_per_lane;

    let start = Instant::now();
    // One timeline track (Chrome `pid`) per group run.
    let track = cx.prof.map(|p| p.open_track()).unwrap_or(0);
    let mut level_seconds: Vec<f64> = Vec::new();
    // The output table, `[instance][vertex]`: the one per-group allocation.
    let mut depths = vec![DEPTH_UNVISITED; ni * n];
    debug_assert!(
        !scratch.changed.iter().any(|bits| any_marked(bits)),
        "a change bitmap kept marks from an earlier group"
    );
    // Traversal reads `cur` and adds bits to `next`; identification copies
    // each changed word back, so `next == cur` holds at every level start.
    let (cur, next) = (&arena.cur[..], &arena.next[..]);

    for (j, &s) in sources.iter().enumerate() {
        cur[s as usize].fetch_or(A::Word::bit(j as u32));
        depths[j * n + s as usize] = 0;
    }
    scratch.queue.clear();
    scratch.queue.extend_from_slice(sources);
    scratch.queue.sort_unstable();
    scratch.queue.dedup();
    for &s in &scratch.queue {
        let v = s as usize;
        next[v].store(cur[v].load());
        let c = v >> CHUNK_BITS;
        if !scratch.ever[c] {
            scratch.ever[c] = true;
            scratch.ever_list.push(c as u32);
        }
    }

    let mut direction = Direction::TopDown;
    let mut frontier_edges: u64 = sources.iter().map(|&s| csr.out_degree(s) as u64).sum();
    let mut visited_edges = frontier_edges;
    // Instance bits entering the next level (every source's own bit
    // first) and the (instance, vertex) pairs reached before it.
    let mut entering = ni as u64;
    let mut reached = ni as u64;

    let level_cap = if opts.max_levels == 0 {
        crate::sequential::MAX_LEVELS
    } else {
        opts.max_levels.min(crate::sequential::MAX_LEVELS)
    };
    for level in 1..=level_cap {
        if scratch.queue.is_empty() {
            break;
        }
        let level_start = Instant::now();
        let unique_frontiers = scratch.queue.len() as u64;
        // Adaptive frontier representation: a high-occupancy frontier is
        // normalized to ascending vertex order through a dense bitmap
        // (O(n/64 + frontier)), so this level's CSR walk is
        // near-sequential instead of lane-concatenation order. Frontiers
        // are duplicate-free sets, so this is a pure reorder — the level's
        // OR-relaxations are order-free and results cannot move.
        if scratch.queue.len() * DENSE_FRONTIER_DIV >= n && scratch.queue.len() > 1 {
            scratch.bitmap.clear();
            scratch.bitmap.resize(n.div_ceil(64), 0);
            for &v in &scratch.queue {
                scratch.bitmap[v as usize >> 6] |= 1u64 << (v & 63);
            }
            scratch.queue.clear();
            for (wi, &word) in scratch.bitmap.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let b = word.trailing_zeros();
                    scratch.queue.push((wi as u32) * 64 + b);
                    word &= word - 1;
                }
            }
            stats.dense_levels += 1;
        } else {
            stats.sparse_levels += 1;
        }
        let depth = level as Depth;
        if opts.msbfs {
            // MS-BFS maintains an extra visit map each level: model the
            // cost with one more full sweep over the words, on the pool
            // (the baseline paid a thread-spawn wave on top of this sweep;
            // the modeled cost is the sweep alone).
            scratch.cursor.reset();
            let chunks = n.div_ceil(CHUNK);
            let cursor = &scratch.cursor;
            pool.run_profiled(cx.prof, track, level as u64, ProfPhase::StatusSweep, |_lane| {
                let mut claimed = 0u64;
                while let Some(c) = cursor.claim(chunks) {
                    claimed += 1;
                    for v in chunk_range(c, n) {
                        let w = next[v].load();
                        next[v].store(w);
                    }
                }
                (claimed, claimed + 1)
            });
            stats.full_sweeps += 1;
        }

        // Traversal: degree-balanced steal chunks over the frontier.
        let traversal_start = Instant::now();
        match direction {
            Direction::TopDown => {
                build_bounds(
                    &scratch.queue,
                    |v| csr.out_degree(v) as u64,
                    threads,
                    chunks_per_lane,
                    &mut scratch.bounds,
                );
                scratch.cursor.reset();
                stats.td_chunks += scratch.bounds.len() as u64;
                let (queue, bounds, cursor, tally) =
                    (&scratch.queue, &scratch.bounds, &scratch.cursor, &scratch.tally);
                let (changed, lanes) = (&scratch.changed, &scratch.lanes);
                pool.run_profiled(cx.prof, track, level as u64, ProfPhase::TopDownExpand, |lane| {
                    let changed = &changed[lane][..];
                    let mut inspected = 0u64;
                    while let Some(bi) = tally.claim(cursor, bounds.len(), lane) {
                        let (lo, hi) = bounds[bi];
                        for &f in &queue[lo as usize..hi as usize] {
                            let mask = cur[f as usize].load();
                            let neighbors = csr.neighbors(f);
                            inspected += neighbors.len() as u64;
                            for &w in neighbors {
                                let wi = w as usize;
                                let old = next[wi].load();
                                if !mask.and(old.not()).is_zero() {
                                    let prev = next[wi].fetch_or(mask);
                                    if !mask.and(prev.not()).is_zero() {
                                        mark(changed, wi);
                                    }
                                }
                            }
                        }
                    }
                    lanes[lane].lock().unwrap().inspected += inspected;
                    let hits = tally.lane_count(lane);
                    (hits, hits + 1)
                });
                let (mx, _total) = scratch.tally.drain();
                stats.steal_max_chunks += mx;
            }
            Direction::BottomUp => {
                build_bounds(
                    &scratch.queue,
                    |v| rev.out_degree(v) as u64,
                    threads,
                    chunks_per_lane,
                    &mut scratch.bounds,
                );
                scratch.cursor.reset();
                stats.bu_chunks += scratch.bounds.len() as u64;
                let (queue, bounds, cursor, tally) =
                    (&scratch.queue, &scratch.bounds, &scratch.cursor, &scratch.tally);
                let (changed, lanes) = (&scratch.changed, &scratch.lanes);
                let early = !opts.msbfs;
                pool.run_profiled(cx.prof, track, level as u64, ProfPhase::BottomUpSweep, |lane| {
                    let changed = &changed[lane][..];
                    let mut st = lanes[lane].lock().unwrap();
                    let (mut inspected, mut early_terms) = (0u64, 0u64);
                    while let Some(bi) = tally.claim(cursor, bounds.len(), lane) {
                        let (lo, hi) = bounds[bi];
                        for &f in &queue[lo as usize..hi as usize] {
                            let fi = f as usize;
                            // Only the claiming lane writes f's word.
                            let init = next[fi].load();
                            let mut acc = init;
                            let parents = rev.neighbors(f);
                            // The in-neighbours scanned before the word
                            // filled, or all of them.
                            let mut scanned = parents.len();
                            for (i, &p) in parents.iter().enumerate() {
                                if early && acc.and(full) == full {
                                    scanned = i;
                                    break;
                                }
                                acc = acc.or(cur[p as usize].load());
                            }
                            inspected += scanned as u64;
                            early_terms += (scanned < parents.len()) as u64;
                            if acc != init {
                                next[fi].store(acc);
                                mark(changed, fi);
                            }
                            if acc.and(full) != full {
                                // The unfinished set only shrinks during
                                // bottom-up, so survivors of this queue ARE
                                // the next bottom-up queue.
                                st.unfinished.push(f);
                            }
                        }
                    }
                    st.inspected += inspected;
                    st.early_terms += early_terms;
                    drop(st);
                    let hits = tally.lane_count(lane);
                    (hits, hits + 1)
                });
                let (mx, _total) = scratch.tally.drain();
                stats.steal_max_chunks += mx;
            }
        }
        // Per-direction wall time feeds the td/bu breakdown in the stats
        // snapshot.
        let traversal_micros = traversal_start.elapsed().as_micros() as u64;
        match direction {
            Direction::TopDown => stats.td_micros += traversal_micros,
            Direction::BottomUp => stats.bu_micros += traversal_micros,
        }

        // Collect this level's chunks with a changed vertex, ascending.
        scratch.touched.clear();
        for c in 0..num_chunks {
            let words = chunk_words(c, n);
            if scratch.changed.iter().any(|bits| any_marked(&bits[words.clone()])) {
                scratch.touched.push(c as u32);
                if !scratch.ever[c] {
                    scratch.ever[c] = true;
                    scratch.ever_list.push(c as u32);
                }
            }
        }
        stats.chunks_touched += scratch.touched.len() as u64;

        // Identification: for each changed vertex, diff its words, record
        // depths, copy `next` into `cur` and push it on the top-down
        // frontier. Depth writes are block-buffered (see the module docs):
        // a vertex with more than `DIRECT_WRITE_MAX` new bits parks its diff
        // word as one tile row per 64-bit lane, and each block's tiles are
        // transposed into instance rows whose cells are written once.
        scratch.cursor.reset();
        {
            let (touched_list, cursor, lanes, changed) =
                (&scratch.touched, &scratch.cursor, &scratch.lanes, &scratch.changed);
            let table = DepthTable(depths.as_mut_ptr());
            pool.run_profiled(cx.prof, track, level as u64, ProfPhase::Identify, |lane| {
                let mut claimed = 0u64;
                let mut st = lanes[lane].lock().unwrap();
                // Copied out of the captured environment, which the raw
                // `u8` depth stores could alias, forcing reloads per store.
                let (table, n, depth) = (table, n, depth);
                // Tile k holds instances 64k..64k + 64. Before the flush,
                // row `v - base` of a tile is lane k of a parked vertex's
                // diff word; after the transpose, row `j` is instance
                // 64k + j's parked cells in the block, as bit `v - base`.
                let mut tiles = [[0u64; 64]; CPU_GROUP / 64];
                // Transposes every tile `parked` touches, then writes out
                // and clears the rows it names. Every parked cell lies in a
                // chunk this lane claimed.
                let flush = |tiles: &mut [[u64; 64]; CPU_GROUP / 64], parked: A::Word, base| {
                    for (k, tile) in tiles.iter_mut().enumerate().take(A::Word::LANES) {
                        let mut rows = parked.lane(k);
                        if rows == 0 {
                            continue;
                        }
                        transpose64(tile);
                        while rows != 0 {
                            let j = rows.trailing_zeros() as usize;
                            rows &= rows - 1;
                            let row = (64 * k + j) * n + base;
                            let mut mask = std::mem::take(&mut tile[j]);
                            while mask != 0 {
                                // SAFETY: the cell is in a chunk this lane
                                // claimed exclusively, so it has one writer.
                                unsafe { table.set(row + mask.trailing_zeros() as usize, depth) };
                                mask &= mask - 1;
                            }
                        }
                    }
                };
                let (mut new_marked, mut new_edges) = (0u64, 0u64);
                while let Some(i) = cursor.claim(touched_list.len()) {
                    claimed += 1;
                    // One change-bitmap word is one write block, walked in
                    // ascending vertex order.
                    for wi in chunk_words(touched_list[i] as usize, n) {
                        let mut bits = 0u64;
                        for lane_bits in changed {
                            let word = lane_bits[wi].load(Ordering::Relaxed);
                            if word != 0 {
                                bits |= word;
                                lane_bits[wi].store(0, Ordering::Relaxed);
                            }
                        }
                        let (mut parked, base) = (A::Word::zero(), wi * BLOCK);
                        while bits != 0 {
                            let v = base + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let new = next[v].load();
                            let diff = new.and(cur[v].load().not());
                            debug_assert!(!diff.is_zero(), "vertex {v} marked without a new bit");
                            cur[v].store(new);
                            let marked = diff.count_ones();
                            if marked <= DIRECT_WRITE_MAX {
                                for j in diff.iter_ones() {
                                    // SAFETY: this lane claimed chunk
                                    // `touched_list[i]` exclusively, so
                                    // cell (j, v) has a single writer.
                                    unsafe { table.set(j as usize * n + v, depth) };
                                }
                            } else {
                                for (k, tile) in tiles.iter_mut().enumerate().take(A::Word::LANES) {
                                    tile[v - base] = diff.lane(k);
                                }
                                parked = parked.or(diff);
                            }
                            new_marked += marked as u64;
                            new_edges += marked as u64 * csr.out_degree(v as VertexId) as u64;
                            st.queue.push(v as VertexId);
                        }
                        flush(&mut tiles, parked, base);
                        debug_assert!(
                            tiles.iter().flatten().all(|&row| row == 0),
                            "block {base}: a tile row outlived its flush"
                        );
                    }
                }
                st.new_marked += new_marked;
                st.new_edges += new_edges;
                drop(st);
                (claimed, claimed + 1)
            });
        }

        let queue_build_start = cx.prof.map(|p| p.begin());
        let (mut new_marked, mut new_edges, mut inspected, mut early_terms) = (0, 0, 0, 0);
        for lane in &scratch.lanes {
            let mut st = lane.lock().unwrap();
            new_marked += std::mem::take(&mut st.new_marked);
            new_edges += std::mem::take(&mut st.new_edges);
            inspected += std::mem::take(&mut st.inspected);
            early_terms += std::mem::take(&mut st.early_terms);
        }
        visited_edges += new_edges;
        frontier_edges = new_edges;

        let next_direction = DirectionPolicy::default().next(
            direction,
            frontier_edges,
            new_marked,
            (total_edges * ni as u64).saturating_sub(visited_edges),
            (n * ni) as u64,
        );
        scratch.next_queue.clear();
        match next_direction {
            Direction::TopDown => {
                for lane in &scratch.lanes {
                    let mut st = lane.lock().unwrap();
                    scratch.next_queue.extend_from_slice(&st.queue);
                    st.queue.clear();
                    st.unfinished.clear();
                }
            }
            Direction::BottomUp => {
                if direction == Direction::BottomUp {
                    // Survivors recorded during traversal.
                    for lane in &scratch.lanes {
                        let mut st = lane.lock().unwrap();
                        scratch.next_queue.extend_from_slice(&st.unfinished);
                        st.unfinished.clear();
                        st.queue.clear();
                    }
                } else {
                    // Direction switch: one full sweep builds the
                    // unfinished set (the only O(n) pass outside MS-BFS
                    // mode, paid once per top-down → bottom-up switch).
                    for lane in &scratch.lanes {
                        let mut st = lane.lock().unwrap();
                        st.queue.clear();
                        st.unfinished.clear();
                    }
                    scratch.cursor.reset();
                    let chunks = n.div_ceil(CHUNK);
                    let (lanes, cursor) = (&scratch.lanes, &scratch.cursor);
                    pool.run(|lane| {
                        let mut st = lanes[lane].lock().unwrap();
                        while let Some(c) = cursor.claim(chunks) {
                            for v in chunk_range(c, n) {
                                if next[v].load().and(full) != full {
                                    st.unfinished.push(v as VertexId);
                                }
                            }
                        }
                    });
                    stats.full_sweeps += 1;
                    for lane in &scratch.lanes {
                        let mut st = lane.lock().unwrap();
                        scratch.next_queue.extend_from_slice(&st.unfinished);
                        st.unfinished.clear();
                    }
                }
            }
        }
        if let (Some(p), Some(qb)) = (cx.prof, queue_build_start) {
            // Caller-measured: the sequential drain + assembly runs on the
            // coordinator lane only (includes the direction-switch sweep).
            p.record(
                track,
                0,
                level as u64,
                ProfPhase::QueueBuild,
                qb.start_s(),
                qb.elapsed_s(),
                scratch.next_queue.len() as u64,
                new_marked,
            );
        }
        std::mem::swap(&mut scratch.queue, &mut scratch.next_queue);
        let seconds = level_start.elapsed().as_secs_f64();
        level_seconds.push(seconds);
        sink.record(&TraversalEvent {
            group: 0,
            batch: 0,
            level,
            direction,
            unique_frontiers,
            instance_frontiers: match direction {
                Direction::TopDown => entering,
                // The unfinished queue's missing bits.
                Direction::BottomUp => (n * ni) as u64 - reached,
            },
            edges_inspected: inspected,
            early_terminations: early_terms,
            load_transactions: 0,
            store_transactions: 0,
            atomic_transactions: 0,
            sim_seconds: 0.0,
            wall_seconds: seconds,
        });
        direction = next_direction;
        entering = new_marked;
        reached += new_marked;
        if new_marked == 0 {
            break;
        }
    }

    // Cleanup: zero exactly the chunks this group dirtied, leaving the
    // arena all-zero for the next group without an O(n) clear.
    scratch.cursor.reset();
    {
        let (ever_list, cursor) = (&scratch.ever_list, &scratch.cursor);
        let end_level = level_seconds.len() as u64;
        pool.run_profiled(cx.prof, track, end_level, ProfPhase::Cleanup, |_lane| {
            let mut claimed = 0u64;
            while let Some(i) = cursor.claim(ever_list.len()) {
                claimed += 1;
                for v in chunk_range(ever_list[i] as usize, n) {
                    cur[v].store(A::Word::zero());
                    next[v].store(A::Word::zero());
                }
            }
            (claimed, claimed + 1)
        });
    }
    for &c in &scratch.ever_list {
        scratch.ever[c as usize] = false;
    }
    scratch.ever_list.clear();
    scratch.queue.clear();

    stats.levels += level_seconds.len() as u64;
    stats.groups += 1;

    // Every visited (instance, vertex) cell was counted exactly once: the
    // sources up front, the rest as identification recorded them.
    debug_assert_eq!(visited_edges, crate::engine::traversed_edges_for(csr, &depths, ni));
    CpuRun {
        num_instances: ni,
        num_vertices: n,
        depths,
        wall_seconds: start.elapsed().as_secs_f64(),
        traversed_edges: visited_edges,
        level_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_graph::generators::{rmat, RmatParams};
    use ibfs_graph::suite::{figure1, FIGURE1_SOURCES};
    use ibfs_graph::validate::reference_bfs;

    /// Runs one group through a transient service.
    fn run_once(
        g: &Csr,
        r: &Csr,
        opts: CpuOptions,
        sources: &[VertexId],
    ) -> Result<CpuRun, RequestError> {
        CpuService::new(g, r, opts).run_group(sources)
    }

    #[test]
    fn cpu_ibfs_matches_reference_figure1() {
        let g = figure1();
        let r = g.reverse();
        let run = run_once(&g, &r, CpuOptions::default(), &FIGURE1_SOURCES).unwrap();
        for (j, &s) in FIGURE1_SOURCES.iter().enumerate() {
            assert_eq!(run.instance_depths(j), &reference_bfs(&g, s)[..]);
        }
        assert!(run.wall_seconds > 0.0);
        assert!(!run.level_seconds.is_empty());
    }

    #[test]
    fn cpu_msbfs_matches_reference_figure1() {
        let g = figure1();
        let r = g.reverse();
        let msbfs = CpuOptions { msbfs: true, ..Default::default() };
        let run = run_once(&g, &r, msbfs, &FIGURE1_SOURCES).unwrap();
        for (j, &s) in FIGURE1_SOURCES.iter().enumerate() {
            assert_eq!(run.instance_depths(j), &reference_bfs(&g, s)[..]);
        }
    }

    #[test]
    fn cpu_engines_match_reference_on_rmat() {
        let g = rmat(9, 8, RmatParams::graph500(), 19);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..64).collect();
        for msbfs in [false, true] {
            let opts = CpuOptions { threads: 3, msbfs, ..Default::default() };
            let run = run_once(&g, &r, opts, &sources).unwrap();
            for (j, &s) in sources.iter().enumerate() {
                assert_eq!(
                    run.instance_depths(j),
                    &reference_bfs(&g, s)[..],
                    "source {s}"
                );
            }
            assert!(run.teps() > 0.0);
        }
    }

    #[test]
    fn every_width_matches_reference() {
        let g = rmat(8, 8, RmatParams::graph500(), 5);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..30).collect();
        for width in WordWidth::all() {
            let opts = CpuOptions { width, threads: 2, ..Default::default() };
            let run = run_once(&g, &r, opts, &sources).unwrap();
            for (j, &s) in sources.iter().enumerate() {
                assert_eq!(
                    run.instance_depths(j),
                    &reference_bfs(&g, s)[..],
                    "width {width} source {s}"
                );
            }
        }
    }

    #[test]
    fn wide_word_runs_128_sources_in_one_group() {
        let g = rmat(8, 8, RmatParams::graph500(), 5);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..128).collect();
        let opts = CpuOptions { width: WordWidth::W256, threads: 2, ..Default::default() };
        let mut svc = CpuService::new(&g, &r, opts);
        assert_eq!(svc.capacity(), 256);
        let run = svc.run_group(&sources).unwrap();
        assert_eq!(run.num_instances, 128);
        for (j, &s) in sources.iter().enumerate() {
            assert_eq!(run.instance_depths(j), &reference_bfs(&g, s)[..]);
        }
    }

    /// A path with spokes to a hub, plus a star of the hub's first 200
    /// neighbours. Instances sourced in the star reach the hub and the star
    /// together (dense diff words, parked per block); instances sourced
    /// along the path arrive one or two at a time (sparse diff words,
    /// written directly).
    fn hub_beside_path(n: usize) -> Csr {
        let mut b = ibfs_graph::CsrBuilder::new(n);
        let hub = (n / 2) as VertexId;
        for v in 1..n as VertexId {
            b.add_undirected_edge(v - 1, v);
        }
        // Spokes every 37 vertices keep every depth far below the u8 cap.
        for v in (0..n as VertexId).step_by(37).chain(0..200) {
            b.add_undirected_edge(hub, v);
        }
        b.build()
    }

    #[test]
    fn block_buffered_and_direct_depth_writes_match_the_references() {
        // 2048 vertices: a power of two over two chunks. 2148: not a
        // multiple of BLOCK, so the last block is partial.
        for n in [2 * CHUNK, 2 * CHUNK + 100] {
            let g = hub_beside_path(n);
            let r = g.reverse();
            for width in WordWidth::all() {
                check_block_writes(&g, &r, width);
            }
        }
    }

    /// Fills `width`'s capacity with half star and half path sources of
    /// [`hub_beside_path`], so W32's half tile and every tile of the wider
    /// words take parked writes, and checks the run against the references.
    fn check_block_writes(g: &Csr, r: &Csr, width: WordWidth) {
        let at = format!("n={} width={width}", g.num_vertices());
        let half = width.bits() / 2;
        let sources: Vec<VertexId> = (0..half).chain((0..half).map(|k| 300 + 13 * k)).collect();
        let refs: Vec<Vec<Depth>> = sources.iter().map(|&s| reference_bfs(g, s)).collect();
        // How many instances first reach vertex v at level d: the popcount
        // of v's diff word in identification at level d.
        let mut arrivals = std::collections::HashMap::new();
        for d in &refs {
            for (v, &x) in d.iter().enumerate().filter(|(_, &x)| x != 0 && x != DEPTH_UNVISITED) {
                *arrivals.entry((v, x)).or_insert(0u32) += 1;
            }
        }
        assert!(arrivals.values().any(|&c| c <= DIRECT_WRITE_MAX), "{at}: no direct writes");
        // Every instance's row takes parked writes somewhere.
        let parked =
            |v: usize, x: Depth| arrivals.get(&(v, x)).is_some_and(|&c| c > DIRECT_WRITE_MAX);
        for (j, d) in refs.iter().enumerate() {
            assert!(d.iter().enumerate().any(|(v, &x)| parked(v, x)), "{at}: row {j} never parked");
        }
        let expected_edges = crate::engine::traversed_edges_for(g, &refs.concat(), refs.len());
        for threads in [1, 3] {
            let at = format!("{at} threads={threads}");
            let opts = CpuOptions { width, threads, ..Default::default() };
            let run = run_once(g, r, opts, &sources).unwrap();
            for (j, d) in refs.iter().enumerate() {
                assert_eq!(run.instance_depths(j), &d[..], "{at} row {j}");
            }
            assert_eq!(run.traversed_edges, expected_edges, "{at}");
            if width == WordWidth::W64 {
                // The default width against the frozen baseline, bit for
                // bit.
                let policy = DirectionPolicy::default();
                let baseline = crate::cpu_baseline::run_cpu_baseline(
                    g, r, &sources, policy, threads, true, false, 0,
                );
                assert_eq!(run.depths, baseline.depths, "{at}");
                assert_eq!(run.traversed_edges, baseline.traversed_edges, "{at}");
            }
        }
    }

    /// Checks a traced run's level events against `sources`' reference
    /// depths at threads {1, 3}, MS-BFS off and on: one event per level,
    /// numbered from 1; a top-down level's instance bits are the
    /// (instance, vertex) pairs at depth `L - 1`, its queue the distinct
    /// vertices at that depth, and it inspects their out-degrees; a
    /// bottom-up level's queue is the unfinished vertices, its instance bits
    /// the pairs they still miss, and each scans in-neighbours until its
    /// word fills (iBFS only) or the list ends. Returns the early
    /// terminations seen and each run's sharing degree.
    fn check_level_events(g: &Csr, r: &Csr, sources: &[VertexId], at: &str) -> (u64, Vec<f64>) {
        let refs: Vec<Vec<Depth>> = sources.iter().map(|&s| reference_bfs(g, s)).collect();
        let n = g.num_vertices();
        let full = u64::MAX >> (64 - sources.len());
        let (mut early_seen, mut degrees) = (0, Vec::new());
        for threads in [1, 3] {
            for msbfs in [false, true] {
                let at = format!("{at} threads={threads} msbfs={msbfs}");
                let opts = CpuOptions { threads, msbfs, ..Default::default() };
                let mut sink = crate::trace::RecorderSink::default();
                let mut svc = CpuService::new(g, r, opts);
                let run = svc.run_group_traced(sources, &mut sink).unwrap();
                let untraced = svc.run_group(sources).unwrap();
                assert_eq!(run.depths, untraced.depths, "{at}");
                assert_eq!(run.traversed_edges, untraced.traversed_edges, "{at}");
                for (j, d) in refs.iter().enumerate() {
                    assert_eq!(run.instance_depths(j), &d[..], "{at} instance {j}");
                }
                assert_eq!(sink.events.len(), run.level_seconds.len(), "{at}");
                for (e, &seconds) in sink.events.iter().zip(&run.level_seconds) {
                    let at = format!("{at} level={}", e.level);
                    let prev = (e.level - 1) as Depth;
                    // Per vertex, the instances that reached it by `prev`.
                    let reached: Vec<u64> = (0..n)
                        .map(|v| {
                            let by_prev = (0..refs.len()).filter(|&j| refs[j][v] <= prev);
                            by_prev.fold(0, |m, j| m | 1 << j)
                        })
                        .collect();
                    let (mut bits, mut queue, mut edges, mut early) = (0, 0, 0, 0);
                    for v in 0..n {
                        if e.direction == Direction::TopDown {
                            let entering = refs.iter().filter(|d| d[v] == prev).count();
                            if entering > 0 {
                                bits += entering as u64;
                                queue += 1;
                                edges += g.out_degree(v as VertexId);
                            }
                        } else if reached[v] != full {
                            bits += (full & !reached[v]).count_ones() as u64;
                            queue += 1;
                            let parents = r.neighbors(v as VertexId);
                            let mut acc = reached[v];
                            let scanned = parents
                                .iter()
                                .position(|&p| {
                                    acc |= reached[p as usize];
                                    !msbfs && acc == full
                                })
                                .map_or(parents.len(), |i| i + 1);
                            edges += scanned;
                            early += (scanned < parents.len()) as u64;
                        }
                    }
                    assert_eq!(e.instance_frontiers, bits, "{at}");
                    assert_eq!(e.unique_frontiers, queue, "{at}");
                    assert_eq!(e.edges_inspected, edges as u64, "{at}");
                    assert_eq!(e.early_terminations, early, "{at}");
                    assert_eq!((e.sim_seconds, e.wall_seconds), (0.0, seconds), "{at}");
                    let transactions =
                        e.load_transactions + e.store_transactions + e.atomic_transactions;
                    assert_eq!(transactions, 0, "{at}");
                    early_seen += early;
                }
                let levels: Vec<u32> = sink.events.iter().map(|e| e.level).collect();
                assert_eq!(levels, (1..=levels.len() as u32).collect::<Vec<_>>(), "{at}");
                degrees.push(crate::metrics::event_sharing_degree(&sink.events));
            }
        }
        (early_seen, degrees)
    }

    #[test]
    fn level_events_match_the_reference_depths() {
        let g = rmat(12, 16, RmatParams::graph500(), 7);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..64).collect();
        let (_, degrees) = check_level_events(&g, &r, &sources, "rmat 64 sources");
        assert!(degrees.iter().all(|&d| d > 1.0), "{degrees:?}");
        let lone = (0..g.num_vertices() as VertexId).find(|&v| g.out_degree(v) > 0).unwrap();
        let (early, degrees) = check_level_events(&g, &r, &[lone], "rmat one source");
        // Early exits happen only bottom-up, so the one-source group ran a
        // bottom-up level; every level of it shares nothing.
        assert!(early > 0, "no bottom-up scan stopped early");
        assert!(degrees.iter().all(|&d| d == 1.0), "{degrees:?}");
        let mesh = ibfs_graph::generators::grid2d(45, 47);
        check_level_events(&mesh, &mesh.reverse(), &[0, 7, 0, 2000], "mesh duplicates");
    }

    #[test]
    fn duplicate_sources_each_get_a_lane() {
        let g = figure1();
        let r = g.reverse();
        let run = run_once(&g, &r, CpuOptions::default(), &[0, 8, 0]).unwrap();
        assert_eq!(run.instance_depths(0), &reference_bfs(&g, 0)[..]);
        assert_eq!(run.instance_depths(1), &reference_bfs(&g, 8)[..]);
        assert_eq!(run.instance_depths(2), &reference_bfs(&g, 0)[..]);
    }

    #[test]
    fn single_thread_works() {
        let g = figure1();
        let r = g.reverse();
        let opts = CpuOptions { threads: 1, ..Default::default() };
        let run = run_once(&g, &r, opts, &[0, 8]).unwrap();
        assert_eq!(run.instance_depths(0), &reference_bfs(&g, 0)[..]);
        assert_eq!(run.instance_depths(1), &reference_bfs(&g, 8)[..]);
    }

    #[test]
    fn service_reuse_is_identical_across_groups() {
        // Arena reuse across groups must not leak state: run the same group
        // twice with a different group in between. The duplicate source
        // keeps its own instance slot on every run.
        let g = rmat(8, 8, RmatParams::graph500(), 31);
        let r = g.reverse();
        let mut svc = CpuService::new(&g, &r, CpuOptions { threads: 3, ..Default::default() });
        let first = svc.run_group(&[0, 7, 0, 40]).unwrap();
        let other = svc.run_group(&[99, 3]).unwrap();
        let again = svc.run_group(&[0, 7, 0, 40]).unwrap();
        assert_eq!(first.depths, again.depths);
        assert_eq!(first.traversed_edges, again.traversed_edges);
        assert_eq!(first.instance_depths(0), first.instance_depths(2));
        assert_eq!(first.instance_depths(0), &reference_bfs(&g, 0)[..]);
        assert_eq!(other.num_instances, 2);
        assert_eq!(svc.stats().stats.groups, 3);
    }

    #[test]
    fn run_many_covers_all_sources() {
        let g = rmat(7, 8, RmatParams::graph500(), 23);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..40).collect();
        let mut svc = CpuService::new(&g, &r, CpuOptions::default());
        let runs: Vec<CpuRun> = sources.chunks(16).map(|group| svc.run_group(group).unwrap()).collect();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs.iter().map(|r| r.num_instances).sum::<usize>(), 40);
        assert_eq!(runs[0].instance_depths(5), &reference_bfs(&g, 5)[..]);
    }

    #[test]
    fn rejects_oversized_group_with_typed_error() {
        // Regression: this used to be an assert! panic deep in run_cpu.
        let g = figure1();
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..65).map(|i| i % 9).collect();
        assert_eq!(
            run_once(&g, &r, CpuOptions::default(), &sources).unwrap_err(),
            RequestError::GroupTooLarge { size: 65, capacity: 64 }
        );
        // Width caps below CPU_GROUP too.
        let sources33: Vec<VertexId> = (0..33).map(|i| i % 9).collect();
        assert_eq!(
            run_once(&g, &r, CpuOptions { width: WordWidth::W32, ..Default::default() }, &sources33)
                .unwrap_err(),
            RequestError::GroupTooLarge { size: 33, capacity: 32 }
        );
        // And the service survives a rejected group.
        let mut svc = CpuService::new(&g, &r, CpuOptions::default());
        assert!(svc.run_group(&(0..65).map(|i| i % 9).collect::<Vec<_>>()).is_err());
        assert!(svc.run_group(&[0]).is_ok());
    }

    #[test]
    fn rejects_empty_and_out_of_range_groups() {
        let g = figure1();
        let r = g.reverse();
        assert_eq!(
            run_once(&g, &r, CpuOptions::default(), &[]).unwrap_err(),
            RequestError::EmptySources
        );
        assert_eq!(
            run_once(&g, &r, CpuOptions::default(), &[0, 100]).unwrap_err(),
            RequestError::SourceOutOfRange { source: 100, num_vertices: 9 }
        );
    }

    #[test]
    fn pool_threads_are_spawned_once_per_service() {
        // The acceptance criterion: worker threads are created once per
        // engine lifetime, not per level or per group.
        let g = rmat(9, 8, RmatParams::graph500(), 19);
        let r = g.reverse();
        let mut svc = CpuService::new(&g, &r, CpuOptions { threads: 3, ..Default::default() });
        assert_eq!(svc.pool().spawned_threads(), 2);
        let after_construction = crate::pool::threads_spawned_here();
        let sources: Vec<VertexId> = (0..60).collect();
        for group in sources.chunks(20) {
            let run = svc.run_group(group).unwrap();
            assert!(run.level_seconds.len() > 1, "want a multi-level run");
        }
        // Three groups, many levels each: no new OS threads anywhere.
        assert_eq!(crate::pool::threads_spawned_here(), after_construction);
        assert_eq!(svc.stats().stats.groups, 3);
        assert!(svc.stats().stats.td_micros > 0, "top-down phases were timed");
        assert!(svc.stats().pool_phases > 0);
    }

    #[test]
    fn stats_and_metrics_record_pool_activity() {
        let g = rmat(8, 8, RmatParams::graph500(), 3);
        let r = g.reverse();
        let opts = CpuOptions { threads: 2, msbfs: true, ..Default::default() };
        let mut svc = CpuService::new(&g, &r, opts);
        assert!(svc.chunks_per_lane() >= STEAL_CHUNKS_PER_LANE);
        svc.run_group(&[0, 1, 2]).unwrap();
        let s = svc.stats();
        assert!(s.stats.levels > 0);
        assert!(s.stats.chunks_touched > 0);
        assert!(s.stats.full_sweeps > 0, "MS-BFS mode sweeps every level");
        assert!(s.stats.steal_max_chunks > 0);
        assert_eq!(s.pool_threads, 2);
        let registry = ibfs_obs::Registry::new();
        svc.record_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ibfs_cpu_groups_total"), Some(1));
        assert_eq!(snap.counter("ibfs_cpu_levels_total"), Some(s.stats.levels));
        assert_eq!(snap.counter("ibfs_cpu_pool_phases_total"), Some(s.pool_phases));
        assert!(snap.gauge("ibfs_cpu_steal_balance").unwrap() >= 1.0);
        assert_eq!(snap.counter("ibfs_cpu_dense_levels_total"), Some(s.stats.dense_levels));
        assert_eq!(snap.counter("ibfs_cpu_sparse_levels_total"), Some(s.stats.sparse_levels));
    }

    #[test]
    fn dense_and_sparse_levels_are_both_exercised_and_counted() {
        // An R-MAT group floods most of the graph mid-traversal (dense
        // levels) but starts from a single source (sparse level 1).
        let g = rmat(9, 8, RmatParams::graph500(), 19);
        let r = g.reverse();
        let mut svc = CpuService::new(&g, &r, CpuOptions { threads: 2, ..Default::default() });
        let run = svc.run_group(&[0]).unwrap();
        let s = svc.stats().stats;
        assert_eq!(s.dense_levels + s.sparse_levels, run.level_seconds.len() as u64);
        assert!(s.sparse_levels > 0, "level 1 of a single source is sparse");
        assert!(s.dense_levels > 0, "an R-MAT flood level must go dense");
        assert_eq!(run.instance_depths(0), &reference_bfs(&g, 0)[..]);
    }
}
