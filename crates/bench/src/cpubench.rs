//! `bfs cpu-bench`: the measured CPU-engine benchmark behind
//! `BENCH_cpu.json`.
//!
//! Runs a seeded fig22-style R-MAT workload through the frozen pre-pool
//! baseline ([`ibfs::cpu_baseline::run_cpu_baseline`]) and each requested
//! round-2 [`ibfs::cpu::CpuEngine`] (`pooled`, `tiled`, `async`) at each
//! requested thread count, and reports TEPS, per-level wall times, and the
//! per-engine speedup-over-baseline curve. With `check`, every engine's
//! depths are asserted equal to `reference_bfs`, and — when the tiled
//! engine is in the sweep — a hub-heavy side workload asserts that edge
//! tiling actually beats vertex-granular stealing where it matters (one
//! vertex owning most of the edges). The emitted JSON is the repo's perf
//! trajectory record: committed once per perf PR so regressions are
//! diffable.

use ibfs::cpu::{CpuEngine, CpuIbfs, CpuRun};
use ibfs::cpu_baseline::run_cpu_baseline;
use ibfs::direction::DirectionPolicy;
use ibfs::word::WordWidth;
use ibfs_graph::generators::{hub_heavy, rmat, RmatParams};
use ibfs_graph::reorder::ReorderKind;
use ibfs_graph::validate::reference_bfs;
use ibfs_graph::{Csr, VertexId, DEPTH_UNVISITED};
use ibfs_util::json::{FromJson, ToJson};
use ibfs_util::json_struct;

/// Schema version stamped into `BENCH_cpu.json`. v2: multi-engine runs
/// (`tiled`/`async` joined `baseline`/`pooled`) and per-engine speedups
/// (`engine`/`engine_teps` replaced the pooled-only fields). v3: the
/// `hub_gate` block records whether the tiling gate ran, whether its TEPS
/// ordering was *enforced* (multi-core hosts only), and the measured
/// rates — so `bfs perf-diff` can tell "gate passed" apart from "gate
/// not enforced on this host". v4: every run and speedup row carries the
/// vertex `reorder` ordering it was measured under (`"none"` for the
/// unreordered rows, which every reordered row must have as its in-report
/// baseline), and the `reorder_gate` block records the tiled-vs-
/// tiled+reordered locality gate the same way `hub_gate` records tiling.
pub const SCHEMA_VERSION: u64 = 4;

/// Workload configuration for the CPU benchmark.
#[derive(Clone, Debug)]
pub struct CpuBenchConfig {
    /// R-MAT scale (2^scale vertices).
    pub scale: u32,
    /// Edges per vertex.
    pub edge_factor: u32,
    /// Generator seed.
    pub seed: u64,
    /// Number of BFS sources (the first `sources` vertices).
    pub sources: usize,
    /// Concurrent group size.
    pub group_size: usize,
    /// Thread counts to sweep (the scaling curve).
    pub threads: Vec<usize>,
    /// Status-word width for the level-synchronous engines.
    pub width: WordWidth,
    /// Engines to measure against the baseline.
    pub engines: Vec<CpuEngine>,
    /// Edge-tile size for the tiled/async engines; 0 = autotuned.
    pub tile_size: usize,
    /// Vertex orderings to sweep: every engine runs once per ordering
    /// (the frozen baseline always runs unreordered). `None` is the
    /// unreordered row every reordered row is compared against.
    pub reorders: Vec<ReorderKind>,
    /// Verify every engine's depths against `reference_bfs` (and the
    /// baseline), and run the hub-heavy tiling gate when `tiled` is swept.
    /// When a non-`none` ordering is swept alongside the tiled engine,
    /// additionally runs the reorder locality gate ([`run_reorder_gate`]).
    pub check: bool,
    /// Wall-clock noise damping: run every engine × thread-count
    /// measurement this many times and report the best (highest-TEPS)
    /// pass, like the hub gate's best-of-5. 0 and 1 both mean one pass.
    /// TEPS outliers on a loaded host are always downward, so best-of is
    /// the stable estimator — `ci.sh` leans on this for its tight
    /// profiler-overhead band.
    pub repeat: usize,
    /// When set, every engine service records per-lane phase timings into
    /// this profiler (the baseline has no hooks and stays unprofiled).
    pub profiler: Option<std::sync::Arc<ibfs_obs::EngineProfiler>>,
}

impl Default for CpuBenchConfig {
    fn default() -> Self {
        CpuBenchConfig {
            scale: 12,
            edge_factor: 16,
            seed: 42,
            sources: 64,
            group_size: 64,
            threads: vec![1, 2, 4, 8],
            width: WordWidth::default(),
            engines: vec![CpuEngine::Pooled],
            tile_size: 0,
            reorders: vec![ReorderKind::None],
            check: false,
            repeat: 1,
            profiler: None,
        }
    }
}

/// One engine × thread-count measurement.
#[derive(Clone, Debug)]
pub struct CpuBenchRun {
    /// `"baseline"` (pre-pool `run_cpu`) or a [`CpuEngine::name`]
    /// (`"pooled"`, `"tiled"`, `"async"`).
    pub engine: String,
    /// Vertex ordering ([`ReorderKind::name`]) the service was built with:
    /// `"none"`, `"degree"`, `"hub"`, or `"rcm"`. The baseline is always
    /// `"none"`.
    pub reorder: String,
    /// Worker threads used.
    pub threads: u64,
    /// Total wall-clock seconds over all groups.
    pub wall_seconds: f64,
    /// Traversed directed edges over all groups.
    pub traversed_edges: u64,
    /// Traversal rate.
    pub teps: f64,
    /// Groups run.
    pub groups: u64,
    /// BFS levels run (summed over groups).
    pub levels: u64,
    /// Per-level wall seconds, element-wise summed across groups.
    pub level_seconds: Vec<f64>,
    /// Pool phases dispatched (0 for the baseline, which has no pool).
    pub pool_phases: u64,
}

json_struct!(CpuBenchRun {
    engine,
    reorder,
    threads,
    wall_seconds,
    traversed_edges,
    teps,
    groups,
    levels,
    level_seconds,
    pool_phases,
});

/// Engine-vs-baseline comparison at one thread count.
#[derive(Clone, Debug)]
pub struct CpuSpeedup {
    /// The measured engine ([`CpuEngine::name`]).
    pub engine: String,
    /// Vertex ordering the engine ran under ([`ReorderKind::name`]).
    pub reorder: String,
    /// Worker threads.
    pub threads: u64,
    /// Baseline TEPS.
    pub baseline_teps: f64,
    /// The engine's TEPS.
    pub engine_teps: f64,
    /// `engine_teps / baseline_teps`.
    pub speedup: f64,
}

json_struct!(CpuSpeedup { engine, reorder, threads, baseline_teps, engine_teps, speedup });

/// Outcome of the hub-heavy tiling gate as recorded in the report (schema
/// v3). A single-core host runs the gate but cannot express the parallel
/// win, so the TEPS ordering is reported without being enforced; the
/// three booleans let a consumer (and `bfs perf-diff`) distinguish
/// "passed" from "not enforced" from "never ran".
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HubGateStatus {
    /// The gate executed (requires `check` and the tiled engine in the
    /// sweep).
    pub ran: bool,
    /// The TEPS ordering was asserted (multi-core hosts only).
    pub enforced: bool,
    /// `tiled_teps >= pooled_teps` held. Meaningful only when `ran`;
    /// reported (but not asserted) on single-core hosts.
    pub passed: bool,
    /// Threads the gate ran with (0 when it never ran).
    pub threads: u64,
    /// Best-of-N pooled TEPS (0 when the gate never ran).
    pub pooled_teps: f64,
    /// Best-of-N tiled TEPS (0 when the gate never ran).
    pub tiled_teps: f64,
}

json_struct!(HubGateStatus { ran, enforced, passed, threads, pooled_teps, tiled_teps });

/// Outcome of the reorder locality gate (schema v4): tiled unreordered vs
/// tiled + a reordered layout on the power-law workload where hub
/// clustering pays. Same three-state encoding as [`HubGateStatus`]:
/// single-core hosts run the gate and report the ordering without
/// asserting it (timeshared lanes cannot express a locality win), so
/// `ran`/`enforced`/`passed` disambiguate for `bfs perf-diff`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReorderGateStatus {
    /// The gate executed (requires `check`, the tiled engine, and a
    /// non-`none` ordering in the sweep).
    pub ran: bool,
    /// The TEPS ordering was asserted (multi-core hosts only).
    pub enforced: bool,
    /// `reordered_teps >= tiled_teps` held. Meaningful only when `ran`.
    pub passed: bool,
    /// The ordering measured ([`ReorderKind::name`]; `"none"` = never ran).
    pub reorder: String,
    /// Threads the gate ran with (0 when it never ran).
    pub threads: u64,
    /// Best-of-N unreordered tiled TEPS (0 when the gate never ran).
    pub tiled_teps: f64,
    /// Best-of-N reordered tiled TEPS (0 when the gate never ran).
    pub reordered_teps: f64,
}

json_struct!(ReorderGateStatus {
    ran,
    enforced,
    passed,
    reorder,
    threads,
    tiled_teps,
    reordered_teps,
});

impl ReorderGateStatus {
    fn never_ran() -> Self {
        ReorderGateStatus { reorder: ReorderKind::None.name().to_string(), ..Default::default() }
    }
}

/// The full `BENCH_cpu.json` document.
#[derive(Clone, Debug)]
pub struct CpuBenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Workload name (`"rmat"`).
    pub graph: String,
    /// R-MAT scale.
    pub scale: u64,
    /// Edges per vertex.
    pub edge_factor: u64,
    /// Generator seed.
    pub seed: u64,
    /// Vertices in the generated graph.
    pub num_vertices: u64,
    /// Directed edges in the generated graph.
    pub num_edges: u64,
    /// BFS sources.
    pub sources: u64,
    /// Concurrent group size.
    pub group_size: u64,
    /// Status-word width in bits (level-synchronous engines).
    pub width_bits: u64,
    /// Edge-tile size the tiled/async engines ran with (0 = autotuned).
    pub tile_size: u64,
    /// Every engine × thread-count measurement.
    pub runs: Vec<CpuBenchRun>,
    /// The per-engine thread-scaling speedup curve.
    pub speedups: Vec<CpuSpeedup>,
    /// Hub-heavy tiling gate outcome (all-default when it never ran).
    pub hub_gate: HubGateStatus,
    /// Reorder locality gate outcome (`ran: false` when it never ran).
    pub reorder_gate: ReorderGateStatus,
}

json_struct!(CpuBenchReport {
    schema_version,
    graph,
    scale,
    edge_factor,
    seed,
    num_vertices,
    num_edges,
    sources,
    group_size,
    width_bits,
    tile_size,
    runs,
    speedups,
    hub_gate,
    reorder_gate,
});

fn summarize(
    engine: &str,
    reorder: ReorderKind,
    threads: usize,
    runs: &[CpuRun],
    pool_phases: u64,
) -> CpuBenchRun {
    let wall: f64 = runs.iter().map(|r| r.wall_seconds).sum();
    let edges: u64 = runs.iter().map(|r| r.traversed_edges).sum();
    let mut level_seconds: Vec<f64> = Vec::new();
    for r in runs {
        if level_seconds.len() < r.level_seconds.len() {
            level_seconds.resize(r.level_seconds.len(), 0.0);
        }
        for (acc, &s) in level_seconds.iter_mut().zip(&r.level_seconds) {
            *acc += s;
        }
    }
    CpuBenchRun {
        engine: engine.to_string(),
        reorder: reorder.name().to_string(),
        threads: threads as u64,
        wall_seconds: wall,
        traversed_edges: edges,
        teps: edges as f64 / wall.max(1e-12),
        groups: runs.len() as u64,
        levels: runs.iter().map(|r| r.level_seconds.len() as u64).sum(),
        level_seconds,
        pool_phases,
    }
}

fn check_depths(graph: &Csr, sources: &[VertexId], runs: &[CpuRun], what: &str) {
    let mut idx = 0;
    for run in runs {
        for j in 0..run.num_instances {
            let s = sources[idx];
            let want = reference_bfs(graph, s);
            assert_eq!(
                run.instance_depths(j),
                &want[..],
                "{what}: depths diverge from reference_bfs at source {s}"
            );
            idx += 1;
        }
    }
    assert_eq!(idx, sources.len(), "{what}: runs cover every source");
}

/// Runs the benchmark and builds the report. With `cfg.check`, every
/// engine's depths are asserted equal to `reference_bfs` (and bit-identical
/// to the baseline — all engines converge to the same fixed point) at every
/// thread count; sweeping the tiled engine additionally runs
/// [`run_hub_gate`] (and, with a reordering, [`run_reorder_gate`]) and
/// records whether its TEPS ordering held. Whether a lost ordering fails
/// the run is [`lost_gates`]' decision, taken by `bfs cpu-bench --check`.
pub fn run_cpu_bench(cfg: &CpuBenchConfig) -> CpuBenchReport {
    let graph = rmat(cfg.scale, cfg.edge_factor as usize, RmatParams::graph500(), cfg.seed);
    let reverse = graph.reverse();
    let n = graph.num_vertices();
    let sources: Vec<VertexId> = (0..cfg.sources.min(n) as VertexId).collect();
    let group_size = cfg.group_size.min(cfg.width.bits() as usize).min(ibfs::cpu::CPU_GROUP);
    let flat = |rs: &[CpuRun]| -> Vec<ibfs_graph::Depth> {
        rs.iter().flat_map(|r| r.depths.iter().copied()).collect()
    };

    let repeat = cfg.repeat.max(1);
    // Best (highest-TEPS) pass out of `repeat`; outliers are downward.
    let best_of = |passes: &mut dyn FnMut() -> Vec<CpuRun>| -> Vec<CpuRun> {
        let teps_of = |rs: &[CpuRun]| -> f64 {
            let wall: f64 = rs.iter().map(|r| r.wall_seconds).sum();
            rs.iter().map(|r| r.traversed_edges).sum::<u64>() as f64 / wall.max(1e-12)
        };
        let mut best = passes();
        for _ in 1..repeat {
            let next = passes();
            if teps_of(&next) > teps_of(&best) {
                best = next;
            }
        }
        best
    };

    let mut runs = Vec::new();
    let mut speedups = Vec::new();
    for &threads in &cfg.threads {
        // Baseline: the frozen pre-pool path (64-wide u64 words).
        let baseline_runs = best_of(&mut || {
            sources
                .chunks(group_size.min(ibfs::cpu_baseline::BASELINE_GROUP))
                .map(|group| {
                    run_cpu_baseline(
                        &graph,
                        &reverse,
                        group,
                        DirectionPolicy::default(),
                        threads,
                        true,
                        false,
                        0,
                    )
                })
                .collect()
        });
        let b = summarize("baseline", ReorderKind::None, threads, &baseline_runs, 0);
        let baseline_teps = b.teps;
        runs.push(b);

        for &engine in &cfg.engines {
            for &reorder in &cfg.reorders {
                // One resident service per engine × ordering, pool + arena
                // (and the relabeled CSR) reused across the run's groups —
                // and across best-of repeats, which also warms the pool
                // before the counted passes. The relabel happens once at
                // build, so its cost is amortized exactly like a real
                // deployment's.
                let mut svc = CpuIbfs {
                    threads,
                    width: cfg.width,
                    engine,
                    tile_size: cfg.tile_size,
                    reorder,
                    ..Default::default()
                }
                .service(&graph, &reverse);
                if let Some(p) = &cfg.profiler {
                    svc.set_profiler(p.clone());
                }
                let mut pool_phases = 0;
                let engine_runs = best_of(&mut || {
                    let before = svc.stats().pool_phases;
                    let rs: Vec<CpuRun> = sources
                        .chunks(group_size)
                        .map(|group| {
                            svc.run_group(group).expect("bench groups are sized to capacity")
                        })
                        .collect();
                    // Phases per pass are identical across repeats (same
                    // plan, same groups), so the last pass's delta stands
                    // for all.
                    pool_phases = svc.stats().pool_phases - before;
                    rs
                });
                let what = format!("{engine}+{}", reorder.name());

                if cfg.check {
                    check_depths(&graph, &sources, &engine_runs, &what);
                    // With matching group boundaries the concatenated depth
                    // tables are comparable element-wise: all engines
                    // converge to the reference fixed point — and depths
                    // are invariant under relabeling, so the reordered rows
                    // must match the unreordered baseline bit for bit.
                    if group_size <= ibfs::cpu_baseline::BASELINE_GROUP {
                        assert_eq!(
                            flat(&baseline_runs),
                            flat(&engine_runs),
                            "{what} depths diverge from baseline at {threads} threads"
                        );
                    }
                }

                let e = summarize(engine.name(), reorder, threads, &engine_runs, pool_phases);
                speedups.push(CpuSpeedup {
                    engine: engine.name().to_string(),
                    reorder: reorder.name().to_string(),
                    threads: threads as u64,
                    baseline_teps,
                    engine_teps: e.teps,
                    speedup: e.teps / baseline_teps.max(1e-12),
                });
                runs.push(e);
            }
        }
    }

    let mut hub_gate = HubGateStatus::default();
    if cfg.check && cfg.engines.contains(&CpuEngine::Tiled) {
        let threads = cfg.threads.iter().copied().max().unwrap_or(2).max(2);
        // The gate always autotunes the tile size: it checks the tiling
        // *mechanism* under the plan a user would get by default, not the
        // experimental --tile-size override being swept above.
        let gate = run_hub_gate(threads, 0);
        eprintln!(
            "hub gate: pooled {:.0} TEPS, tiled {:.0} TEPS ({:.2}x) at {} threads",
            gate.pooled_teps,
            gate.tiled_teps,
            gate.tiled_teps / gate.pooled_teps.max(1e-12),
            gate.threads,
        );
        // Tiling wins by spreading one hub's edge list across lanes, which
        // needs lanes that actually run in parallel. On a single-core box
        // the lanes timeshare, the split buys nothing, and the per-tile
        // overhead shows up as a small loss — so the ordering is only
        // enforceable where the hardware can express it. Depth equality
        // (bit-identical results) is asserted inside the gate regardless.
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        hub_gate = HubGateStatus {
            ran: true,
            enforced: cores >= 2,
            passed: gate.tiled_teps >= gate.pooled_teps,
            threads: gate.threads as u64,
            pooled_teps: gate.pooled_teps,
            tiled_teps: gate.tiled_teps,
        };
        if cores < 2 {
            eprintln!("hub gate: single-core host, TEPS ordering reported but not enforced");
        }
    }

    let mut reorder_gate = ReorderGateStatus::never_ran();
    let gate_kind = cfg
        .reorders
        .iter()
        .copied()
        .find(|&k| k == ReorderKind::HubCluster)
        .or_else(|| cfg.reorders.iter().copied().find(|&k| k != ReorderKind::None));
    if let (true, Some(kind)) =
        (cfg.check && cfg.engines.contains(&CpuEngine::Tiled), gate_kind)
    {
        let threads = cfg.threads.iter().copied().max().unwrap_or(2).max(2);
        let gate = run_reorder_gate(threads, kind);
        eprintln!(
            "reorder gate: tiled {:.0} TEPS, tiled+{} {:.0} TEPS ({:.2}x) at {} threads",
            gate.tiled_teps,
            kind.name(),
            gate.reordered_teps,
            gate.reordered_teps / gate.tiled_teps.max(1e-12),
            gate.threads,
        );
        // Reordering wins by turning scattered status-word and CSR probes
        // into sequential ones — a cache effect that only shows when lanes
        // genuinely contend for memory. Single-core timeshared lanes blur
        // it below the relabeling overhead, so (exactly like the hub gate)
        // the TEPS ordering is enforced only where the hardware can express
        // it; bit-identical depths are asserted inside the gate regardless.
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        reorder_gate = ReorderGateStatus {
            ran: true,
            enforced: cores >= 2,
            passed: gate.reordered_teps >= gate.tiled_teps,
            reorder: kind.name().to_string(),
            threads: gate.threads as u64,
            tiled_teps: gate.tiled_teps,
            reordered_teps: gate.reordered_teps,
        };
        if cores < 2 {
            eprintln!("reorder gate: single-core host, TEPS ordering reported but not enforced");
        }
    }

    CpuBenchReport {
        schema_version: SCHEMA_VERSION,
        graph: "rmat".to_string(),
        scale: cfg.scale as u64,
        edge_factor: cfg.edge_factor as u64,
        seed: cfg.seed,
        num_vertices: n as u64,
        num_edges: graph.num_edges() as u64,
        sources: sources.len() as u64,
        group_size: group_size as u64,
        width_bits: cfg.width.bits() as u64,
        tile_size: cfg.tile_size as u64,
        runs,
        speedups,
        hub_gate,
        reorder_gate,
    }
}

/// The gate verdict `bfs cpu-bench --check` exits on: one message per gate
/// that was enforced (on a host with at least 2 cores) and lost its TEPS
/// ordering. Report-only and never-run gates pass. The gates assert their
/// depth checks themselves, whatever this returns.
pub fn lost_gates(hub: &HubGateStatus, reorder: &ReorderGateStatus) -> Vec<String> {
    let mut lost = Vec::new();
    if hub.enforced && !hub.passed {
        lost.push(format!(
            "hub-heavy tiling gate: tiled {:.0} TEPS < pooled {:.0} TEPS at {} threads",
            hub.tiled_teps, hub.pooled_teps, hub.threads
        ));
    }
    if reorder.enforced && !reorder.passed {
        lost.push(format!(
            "reorder locality gate: tiled+{} {:.0} TEPS < tiled {:.0} TEPS at {} threads",
            reorder.reorder, reorder.reordered_teps, reorder.tiled_teps, reorder.threads
        ));
    }
    lost
}

/// Result of the hub-heavy tiling gate (see [`run_hub_gate`]).
#[derive(Clone, Copy, Debug)]
pub struct HubGateResult {
    /// Threads both engines ran with.
    pub threads: usize,
    /// Best-of-N pooled TEPS.
    pub pooled_teps: f64,
    /// Best-of-N tiled TEPS.
    pub tiled_teps: f64,
}

/// The adversarial workload where edge tiling must win: a seeded hub-heavy
/// graph whose hub vertex owns the large majority of all directed edges.
/// Vertex-granular stealing serializes that edge list on one lane while
/// the others starve; tiles split it across the pool. The policy is pinned
/// to top-down (bottom-up is vertex-granular in both engines and would
/// dilute the signal into a coin flip). Both engines run the same group
/// best-of-5 (wall-clock noise damping) on a resident service; depths are
/// asserted identical before any timing is compared.
pub fn run_hub_gate(threads: usize, tile_size: usize) -> HubGateResult {
    // Hub degree 64*(n-1) vs ~3 per other vertex: the hub owns ~95% of
    // all edges, and it is itself a source, so the imbalanced scan happens
    // at level 0 while the other lanes have almost nothing. Keeping n
    // small makes the per-level O(n) costs (frontier rebuild, depth
    // recording) — identical in both engines — a sliver of the wall
    // time, so the gate measures the hub scan itself.
    let graph = hub_heavy(4_000, 64, 42);
    let reverse = graph.reverse();
    let sources: Vec<VertexId> = (0..32).collect();
    let mut best = [0.0f64; 2];
    let mut depths: [Option<Vec<ibfs_graph::Depth>>; 2] = [None, None];
    for (i, engine) in [CpuEngine::Pooled, CpuEngine::Tiled].into_iter().enumerate() {
        let mut svc = CpuIbfs {
            threads,
            engine,
            tile_size,
            policy: DirectionPolicy::top_down_only(),
            ..Default::default()
        }
        .service(&graph, &reverse);
        for _ in 0..5 {
            let run = svc.run_group(&sources).expect("gate group fits capacity");
            best[i] = best[i].max(run.teps());
            match &depths[i] {
                None => depths[i] = Some(run.depths),
                Some(d) => assert_eq!(d, &run.depths, "{engine}: unstable depths"),
            }
        }
    }
    assert_eq!(depths[0], depths[1], "hub gate: tiled depths diverge from pooled");
    HubGateResult { threads, pooled_teps: best[0], tiled_teps: best[1] }
}

/// Result of the reorder locality gate (see [`run_reorder_gate`]).
#[derive(Clone, Copy, Debug)]
pub struct ReorderGateResult {
    /// Threads both services ran with.
    pub threads: usize,
    /// Best-of-N unreordered tiled TEPS.
    pub tiled_teps: f64,
    /// Best-of-N reordered tiled TEPS.
    pub reordered_teps: f64,
}

/// The workload where vertex reordering must pay: a scale-12 power-law
/// R-MAT whose natural labeling scatters each hub's neighbors across the
/// whole status-word array, so every top-down expansion of a hub walks the
/// bitmap in a random-access pattern. Clustering hubs with their neighbors
/// ([`ReorderKind::HubCluster`], or whichever ordering the sweep selected)
/// turns those probes sequential. Both services are resident (relabel cost
/// amortized at build, exactly as deployed), run the same 64-source group
/// best-of-5, and their depths are asserted bit-identical before any
/// timing is compared — a reordered *win* bought with a wrong answer must
/// never pass the gate.
pub fn run_reorder_gate(threads: usize, kind: ReorderKind) -> ReorderGateResult {
    let graph = rmat(12, 8, RmatParams::graph500(), 42);
    let reverse = graph.reverse();
    let sources: Vec<VertexId> = (0..64).collect();
    let mut best = [0.0f64; 2];
    let mut depths: [Option<Vec<ibfs_graph::Depth>>; 2] = [None, None];
    for (i, reorder) in [ReorderKind::None, kind].into_iter().enumerate() {
        let mut svc = CpuIbfs {
            threads,
            width: WordWidth::W64,
            engine: CpuEngine::Tiled,
            reorder,
            ..Default::default()
        }
        .service(&graph, &reverse);
        for _ in 0..5 {
            let run = svc.run_group(&sources).expect("gate group fits capacity");
            best[i] = best[i].max(run.teps());
            match &depths[i] {
                None => depths[i] = Some(run.depths),
                Some(d) => assert_eq!(d, &run.depths, "reorder={reorder}: unstable depths"),
            }
        }
    }
    assert_eq!(
        depths[0], depths[1],
        "reorder gate: {kind} depths diverge from the unreordered run"
    );
    ReorderGateResult { threads, tiled_teps: best[0], reordered_teps: best[1] }
}

/// Validates a serialized report: parses it back through the in-tree JSON
/// codec and checks schema invariants. Returns a description of the first
/// violation.
pub fn validate_report_json(text: &str) -> Result<CpuBenchReport, String> {
    let json = ibfs_util::json::Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let report =
        CpuBenchReport::from_json(&json).map_err(|e| format!("schema mismatch: {e}"))?;
    if report.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} != {SCHEMA_VERSION}",
            report.schema_version
        ));
    }
    if report.runs.is_empty() {
        return Err("no runs recorded".to_string());
    }
    let mut baselines = 0usize;
    for run in &report.runs {
        if run.engine != "baseline" && CpuEngine::parse(&run.engine).is_none() {
            return Err(format!("unknown engine {:?}", run.engine));
        }
        if ReorderKind::parse(&run.reorder).is_none() {
            return Err(format!("unknown reorder {:?}", run.reorder));
        }
        if run.engine == "baseline" {
            if run.reorder != ReorderKind::None.name() {
                return Err(format!(
                    "baseline run claims reorder {:?} (the frozen baseline never reorders)",
                    run.reorder
                ));
            }
            baselines += 1;
        }
        // A reordered row is only interpretable against the same engine ×
        // thread-count row in its *natural* ordering — a report that ships
        // reordered TEPS without the unreordered control is unfalsifiable.
        if run.engine != "baseline" && run.reorder != ReorderKind::None.name() {
            let has_control = report.runs.iter().any(|r| {
                r.engine == run.engine
                    && r.threads == run.threads
                    && r.reorder == ReorderKind::None.name()
            });
            if !has_control {
                return Err(format!(
                    "reordered run {}+{}@{}t has no reorder=\"none\" control row",
                    run.engine, run.reorder, run.threads
                ));
            }
        }
        if run.threads == 0 || run.wall_seconds <= 0.0 || run.traversed_edges == 0 {
            return Err(format!(
                "degenerate run: engine={} threads={} wall={} edges={}",
                run.engine, run.threads, run.wall_seconds, run.traversed_edges
            ));
        }
        // `levels` sums across groups; `level_seconds` is element-wise
        // merged, so its length is the deepest group's level count. (The
        // async engine is a single phase: one entry per group.)
        let deepest = run.level_seconds.len() as u64;
        if deepest == 0 || deepest > run.levels || deepest * run.groups < run.levels {
            return Err(format!(
                "level_seconds has {} entries for {} levels over {} groups",
                run.level_seconds.len(),
                run.levels,
                run.groups
            ));
        }
    }
    if baselines == 0 {
        return Err("no baseline runs recorded".to_string());
    }
    // One baseline per thread count, one speedup per measured-engine run.
    if report.speedups.len() + baselines != report.runs.len() {
        return Err(format!(
            "{} speedups + {} baselines != {} runs (one speedup per engine run expected)",
            report.speedups.len(),
            baselines,
            report.runs.len()
        ));
    }
    for s in &report.speedups {
        if CpuEngine::parse(&s.engine).is_none() {
            return Err(format!("speedup for unknown engine {:?}", s.engine));
        }
        if ReorderKind::parse(&s.reorder).is_none() {
            return Err(format!("speedup for unknown reorder {:?}", s.reorder));
        }
    }
    // A lost but enforced gate is a valid record; failing on it is
    // `lost_gates`' verdict, not a schema violation.
    let hg = &report.hub_gate;
    if hg.enforced && !hg.ran {
        return Err("hub_gate claims enforced without having run".to_string());
    }
    if hg.ran && (hg.threads == 0 || hg.pooled_teps <= 0.0 || hg.tiled_teps <= 0.0) {
        return Err(format!(
            "hub_gate ran with degenerate measurements: threads={} pooled={} tiled={}",
            hg.threads, hg.pooled_teps, hg.tiled_teps
        ));
    }
    let rg = &report.reorder_gate;
    if ReorderKind::parse(&rg.reorder).is_none() {
        return Err(format!("reorder_gate names unknown reorder {:?}", rg.reorder));
    }
    if rg.enforced && !rg.ran {
        return Err("reorder_gate claims enforced without having run".to_string());
    }
    if rg.ran
        && (rg.threads == 0
            || rg.tiled_teps <= 0.0
            || rg.reordered_teps <= 0.0
            || rg.reorder == ReorderKind::None.name())
    {
        return Err(format!(
            "reorder_gate ran with degenerate measurements: reorder={} threads={} tiled={} reordered={}",
            rg.reorder, rg.threads, rg.tiled_teps, rg.reordered_teps
        ));
    }
    Ok(report)
}

/// Serializes the report as pretty JSON.
pub fn report_to_json(report: &CpuBenchReport) -> String {
    let mut s = report.to_json().to_string_pretty();
    s.push('\n');
    s
}

/// Quick human-readable summary printed after a run.
pub fn report_summary(report: &CpuBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cpu-bench: rmat scale={} ef={} seed={} | {} vertices, {} edges, {} sources, groups of {}, {}-bit words, tile {}",
        report.scale,
        report.edge_factor,
        report.seed,
        report.num_vertices,
        report.num_edges,
        report.sources,
        report.group_size,
        report.width_bits,
        if report.tile_size == 0 { "auto".to_string() } else { report.tile_size.to_string() },
    );
    for s in &report.speedups {
        let label = if s.reorder == "none" {
            s.engine.clone()
        } else {
            format!("{}+{}", s.engine, s.reorder)
        };
        let _ = writeln!(
            out,
            "  threads={:<2} baseline {:>12.0} TEPS | {:<10} {:>12.0} TEPS | speedup {:.2}x",
            s.threads, s.baseline_teps, label, s.engine_teps, s.speedup
        );
    }
    if report.reorder_gate.ran {
        let rg = &report.reorder_gate;
        let _ = writeln!(
            out,
            "  reorder gate [{}]: tiled {:.0} TEPS | tiled+{} {:.0} TEPS ({:.2}x, {})",
            if rg.enforced { "enforced" } else { "report-only" },
            rg.tiled_teps,
            rg.reorder,
            rg.reordered_teps,
            rg.reordered_teps / rg.tiled_teps.max(1e-12),
            if rg.passed { "passed" } else { "behind" },
        );
    }
    out
}

/// `DEPTH_UNVISITED` re-exported so binaries do not need ibfs-graph
/// directly for sanity checks.
pub const UNVISITED: ibfs_graph::Depth = DEPTH_UNVISITED;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CpuBenchConfig {
        CpuBenchConfig {
            scale: 8,
            edge_factor: 8,
            seed: 7,
            sources: 20,
            group_size: 16,
            threads: vec![1, 2],
            check: true,
            ..CpuBenchConfig::default()
        }
    }

    #[test]
    fn bench_report_round_trips_and_validates() {
        let report = run_cpu_bench(&tiny_config());
        assert_eq!(report.runs.len(), 4);
        assert_eq!(report.speedups.len(), 2);
        let text = report_to_json(&report);
        let parsed = validate_report_json(&text).expect("schema-valid");
        assert_eq!(parsed.num_vertices, report.num_vertices);
        assert_eq!(parsed.runs.len(), 4);
        assert!(report_summary(&parsed).contains("threads=1"));
        assert!(report_summary(&parsed).contains("pooled"));
    }

    #[test]
    fn multi_engine_sweep_checks_and_validates() {
        // All three round-2 engines against the baseline at two thread
        // counts, depths checked against reference_bfs inside the run.
        let report = run_cpu_bench(&CpuBenchConfig {
            engines: vec![CpuEngine::Pooled, CpuEngine::Tiled, CpuEngine::Async],
            tile_size: 64,
            ..tiny_config()
        });
        // 2 thread counts x (1 baseline + 3 engines).
        assert_eq!(report.runs.len(), 8);
        assert_eq!(report.speedups.len(), 6);
        for name in ["baseline", "pooled", "tiled", "async"] {
            assert!(report.runs.iter().any(|r| r.engine == name), "missing {name}");
        }
        let parsed = validate_report_json(&report_to_json(&report)).expect("schema-valid");
        assert_eq!(parsed.tile_size, 64);
        // Async runs are a single phase per group.
        let a = report.runs.iter().find(|r| r.engine == "async").unwrap();
        assert_eq!(a.levels, a.groups);
        // check + tiled in the sweep means the hub gate ran and recorded
        // live rates; its flags follow the rates and the host's cores.
        let hg = parsed.hub_gate;
        assert!(hg.ran);
        assert!(hg.pooled_teps > 0.0 && hg.tiled_teps > 0.0);
        assert!(hg.threads >= 2);
        assert_eq!(hg.passed, hg.tiled_teps >= hg.pooled_teps);
        assert_eq!(hg.enforced, host_cores() >= 2);
    }

    fn host_cores() -> usize {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }

    #[test]
    fn profiler_attaches_to_every_engine_service() {
        let prof = ibfs_obs::EngineProfiler::shared();
        let report = run_cpu_bench(&CpuBenchConfig {
            engines: vec![CpuEngine::Pooled, CpuEngine::Tiled, CpuEngine::Async],
            threads: vec![2],
            check: false,
            profiler: Some(prof.clone()),
            ..tiny_config()
        });
        assert_eq!(report.runs.len(), 4);
        let prof_report = prof.report("cpu-bench");
        prof_report.validate().expect("profile validates");
        let phases = prof_report.phases();
        use ibfs_obs::ProfPhase;
        for phase in [ProfPhase::TopDownExpand, ProfPhase::AsyncDrain, ProfPhase::QueueBuild] {
            assert!(phases.contains(&phase), "profiled bench missing {phase:?}");
        }
    }

    #[test]
    fn validator_rejects_tampered_documents() {
        let report = run_cpu_bench(&CpuBenchConfig {
            threads: vec![1],
            check: false,
            ..tiny_config()
        });
        let good = report_to_json(&report);
        assert!(validate_report_json(&good).is_ok());
        assert!(validate_report_json("{}").is_err());
        assert!(validate_report_json("not json").is_err());
        let wrong_version = good.replace("\"schema_version\": 4", "\"schema_version\": 99");
        assert!(validate_report_json(&wrong_version).unwrap_err().contains("schema_version"));
        let wrong_engine = good.replace("\"engine\": \"pooled\"", "\"engine\": \"cuda\"");
        assert!(validate_report_json(&wrong_engine).unwrap_err().contains("unknown engine"));
        // check:false means the gate never ran — claiming enforcement over
        // a gate that never ran is a forged document.
        let forged_gate = good.replace("\"enforced\": false", "\"enforced\": true");
        assert!(validate_report_json(&forged_gate).unwrap_err().contains("hub_gate"));
    }

    #[test]
    fn wide_width_runs_fewer_groups() {
        let cfg = CpuBenchConfig {
            scale: 8,
            edge_factor: 8,
            seed: 7,
            sources: 100,
            group_size: 256,
            threads: vec![1],
            width: WordWidth::W256,
            check: true,
            ..CpuBenchConfig::default()
        };
        let report = run_cpu_bench(&cfg);
        let pooled = report.runs.iter().find(|r| r.engine == "pooled").unwrap();
        // 100 sources in one 256-wide group; the 64-wide baseline needs 2.
        assert_eq!(pooled.groups, 1);
        let baseline = report.runs.iter().find(|r| r.engine == "baseline").unwrap();
        assert_eq!(baseline.groups, 2);
    }

    #[test]
    fn reorder_sweep_adds_rows_checks_depths_and_validates() {
        // Two engines × two orderings at one thread count: 1 baseline +
        // 2×2 engine rows, every reordered row checked bit-identical to
        // the baseline inside the run (check: true).
        let report = run_cpu_bench(&CpuBenchConfig {
            engines: vec![CpuEngine::Pooled, CpuEngine::Async],
            reorders: vec![ReorderKind::None, ReorderKind::HubCluster],
            threads: vec![2],
            ..tiny_config()
        });
        assert_eq!(report.runs.len(), 5);
        assert_eq!(report.speedups.len(), 4);
        for (engine, reorder) in
            [("pooled", "none"), ("pooled", "hub"), ("async", "none"), ("async", "hub")]
        {
            assert!(
                report.runs.iter().any(|r| r.engine == engine && r.reorder == reorder),
                "missing {engine}+{reorder}"
            );
        }
        assert!(report.runs.iter().all(|r| r.engine != "baseline" || r.reorder == "none"));
        // No tiled engine in the sweep: the locality gate stays idle.
        assert!(!report.reorder_gate.ran);
        let parsed = validate_report_json(&report_to_json(&report)).expect("schema-valid");
        assert!(report_summary(&parsed).contains("pooled+hub"));
    }

    #[test]
    fn reorder_gate_runs_with_tiled_and_a_live_ordering() {
        let report = run_cpu_bench(&CpuBenchConfig {
            engines: vec![CpuEngine::Tiled],
            reorders: vec![ReorderKind::None, ReorderKind::HubCluster],
            threads: vec![2],
            ..tiny_config()
        });
        let rg = &report.reorder_gate;
        assert!(rg.ran);
        assert_eq!(rg.reorder, "hub");
        assert!(rg.threads >= 2);
        assert!(rg.tiled_teps > 0.0 && rg.reordered_teps > 0.0);
        assert_eq!(rg.passed, rg.reordered_teps >= rg.tiled_teps);
        assert_eq!(rg.enforced, host_cores() >= 2);
        validate_report_json(&report_to_json(&report)).expect("schema-valid");
    }

    #[test]
    fn only_enforced_gates_that_lost_fail_the_check() {
        let hub = |enforced, passed| HubGateStatus {
            ran: true,
            enforced,
            passed,
            threads: 2,
            pooled_teps: 2.0,
            tiled_teps: if passed { 3.0 } else { 1.0 },
        };
        let reorder = |enforced, passed| ReorderGateStatus {
            ran: true,
            enforced,
            passed,
            reorder: "hub".to_string(),
            threads: 2,
            tiled_teps: 2.0,
            reordered_teps: if passed { 3.0 } else { 1.0 },
        };
        let idle = ReorderGateStatus::never_ran();
        assert!(lost_gates(&HubGateStatus::default(), &idle).is_empty());
        // Report-only (single-core) losses and enforced wins pass.
        assert!(lost_gates(&hub(false, false), &reorder(false, false)).is_empty());
        assert!(lost_gates(&hub(true, true), &reorder(true, true)).is_empty());
        let lost = lost_gates(&hub(true, false), &idle);
        assert_eq!(lost.len(), 1);
        assert!(lost[0].contains("tiling gate"), "got: {lost:?}");
        let lost = lost_gates(&hub(true, true), &reorder(true, false));
        assert_eq!(lost.len(), 1);
        assert!(lost[0].contains("tiled+hub"), "got: {lost:?}");
        assert_eq!(
            lost_gates(&hub(true, false), &reorder(true, false)).len(),
            2
        );
    }

    #[test]
    fn validator_rejects_reordered_rows_without_their_control() {
        let mut report = run_cpu_bench(&CpuBenchConfig {
            threads: vec![1],
            check: false,
            ..tiny_config()
        });
        // Relabel the only pooled row as a hub-reordered measurement: the
        // unreordered control disappears and the document is no longer
        // interpretable as a locality comparison.
        let row = report.runs.iter_mut().find(|r| r.engine == "pooled").unwrap();
        row.reorder = "hub".to_string();
        let err = validate_report_json(&report_to_json(&report)).unwrap_err();
        assert!(err.contains("control"), "got: {err}");
        // A baseline row claiming an ordering is equally forged.
        let mut report2 = run_cpu_bench(&CpuBenchConfig {
            threads: vec![1],
            check: false,
            ..tiny_config()
        });
        report2.runs.iter_mut().find(|r| r.engine == "baseline").unwrap().reorder =
            "rcm".to_string();
        let err2 = validate_report_json(&report_to_json(&report2)).unwrap_err();
        assert!(err2.contains("baseline"), "got: {err2}");
    }

    #[test]
    fn hub_gate_reports_positive_rates_and_identical_depths() {
        // The depth assertion lives inside run_hub_gate; here we only pin
        // that both rates are live. The TEPS ordering itself is enforced
        // under `cpu-bench --check` (ci.sh), not in unit tests, where
        // single-core CI boxes would make it flaky.
        let gate = run_hub_gate(2, 0);
        assert!(gate.pooled_teps > 0.0 && gate.tiled_teps > 0.0);
        assert_eq!(gate.threads, 2);
    }
}
