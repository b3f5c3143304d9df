//! `bfs cpu-bench`: the measured CPU-engine benchmark behind
//! `BENCH_cpu.json`.
//!
//! Runs a seeded fig22-style R-MAT workload through the frozen pre-pool
//! baseline ([`ibfs::cpu_baseline::run_cpu_baseline`]) and the CPU engine
//! ([`ibfs::cpu::CpuService`], recorded as `pooled`) at each requested
//! thread count and vertex ordering, and reports TEPS, per-level wall
//! times, and the speedup-over-baseline curve. With `check`, every run's
//! depths are asserted equal to `reference_bfs`, and — when a reordering
//! is swept — the reorder locality gate runs. The emitted JSON is the
//! repo's perf trajectory record: committed once per perf PR so
//! regressions are diffable.

use ibfs::cpu::{CpuIbfs, CpuRun};
use ibfs::cpu_baseline::run_cpu_baseline;
use ibfs::direction::DirectionPolicy;
use ibfs::word::WordWidth;
use ibfs_graph::generators::{rmat, RmatParams};
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
/// v5: the tiled and async engines are gone, and with them the tile-size
/// field and the `hub_gate` block; the reorder gate compares the one engine
/// with and without the ordering, so its `tiled_teps` is now `plain_teps`.
pub const SCHEMA_VERSION: u64 = 5;

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
    /// Status-word width for the engine.
    pub width: WordWidth,
    /// Vertex orderings to sweep: the engine runs once per ordering (the
    /// frozen baseline always runs unreordered). `None` is the unreordered
    /// row every reordered row is compared against.
    pub reorders: Vec<ReorderKind>,
    /// Verify every run's depths against `reference_bfs` (and the
    /// baseline). When a non-`none` ordering is swept, additionally runs
    /// the reorder locality gate ([`run_reorder_gate`]).
    pub check: bool,
    /// Wall-clock noise damping: run every engine × thread-count
    /// measurement this many times and report the best (highest-TEPS)
    /// pass, like the reorder gate's best-of-5. 0 and 1 both mean one pass.
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
    /// `"baseline"` (pre-pool `run_cpu`) or `"pooled"` (the CPU engine).
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
    /// The measured engine (`"pooled"`).
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

/// Outcome of the reorder locality gate (schema v4): the engine on the
/// natural layout vs on a reordered layout, on the power-law workload
/// where hub clustering pays. A single-core host runs the gate but cannot
/// express the win (timeshared lanes blur the locality effect), so it
/// reports the ordering without asserting it; the three booleans let a
/// consumer (and `bfs perf-diff`) distinguish "passed" from "not enforced"
/// from "never ran".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReorderGateStatus {
    /// The gate executed (requires `check` and a non-`none` ordering in
    /// the sweep).
    pub ran: bool,
    /// The TEPS ordering was asserted (multi-core hosts only).
    pub enforced: bool,
    /// `reordered_teps >= plain_teps` held. Meaningful only when `ran`.
    pub passed: bool,
    /// The ordering measured ([`ReorderKind::name`]; `"none"` = never ran).
    pub reorder: String,
    /// Threads the gate ran with (0 when it never ran).
    pub threads: u64,
    /// Best-of-N unreordered TEPS (0 when the gate never ran).
    pub plain_teps: f64,
    /// Best-of-N reordered TEPS (0 when the gate never ran).
    pub reordered_teps: f64,
}

json_struct!(ReorderGateStatus {
    ran,
    enforced,
    passed,
    reorder,
    threads,
    plain_teps,
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
    /// Status-word width in bits.
    pub width_bits: u64,
    /// Every engine × thread-count measurement.
    pub runs: Vec<CpuBenchRun>,
    /// The per-engine thread-scaling speedup curve.
    pub speedups: Vec<CpuSpeedup>,
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
    runs,
    speedups,
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
/// run's depths are asserted equal to `reference_bfs` (and bit-identical
/// to the baseline — both converge to the same fixed point) at every
/// thread count; sweeping a reordering additionally runs
/// [`run_reorder_gate`] and records whether its TEPS ordering held.
/// Whether a lost ordering fails the run is [`lost_gate`]'s decision,
/// taken by `bfs cpu-bench --check`.
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

        for &reorder in &cfg.reorders {
            // One resident service per ordering, pool + arena (and the
            // relabeled CSR) reused across the run's groups — and across
            // best-of repeats, which also warms the pool before the counted
            // passes. The relabel happens once at build, so its cost is
            // amortized exactly like a real deployment's.
            let mut svc = CpuIbfs { threads, width: cfg.width, reorder, ..Default::default() }
                .service(&graph, &reverse);
            if let Some(p) = &cfg.profiler {
                svc.set_profiler(p.clone());
            }
            let mut pool_phases = 0;
            let engine_runs = best_of(&mut || {
                let before = svc.stats().pool_phases;
                let rs: Vec<CpuRun> = sources
                    .chunks(group_size)
                    .map(|group| svc.run_group(group).expect("bench groups are sized to capacity"))
                    .collect();
                // Phases per pass are identical across repeats (same plan,
                // same groups), so the last pass's delta stands for all.
                pool_phases = svc.stats().pool_phases - before;
                rs
            });
            let what = format!("pooled+{}", reorder.name());

            if cfg.check {
                check_depths(&graph, &sources, &engine_runs, &what);
                // With matching group boundaries the concatenated depth
                // tables are comparable element-wise: both converge to the
                // reference fixed point — and depths are invariant under
                // relabeling, so the reordered rows must match the
                // unreordered baseline bit for bit.
                if group_size <= ibfs::cpu_baseline::BASELINE_GROUP {
                    assert_eq!(
                        flat(&baseline_runs),
                        flat(&engine_runs),
                        "{what} depths diverge from baseline at {threads} threads"
                    );
                }
            }

            let e = summarize("pooled", reorder, threads, &engine_runs, pool_phases);
            speedups.push(CpuSpeedup {
                engine: e.engine.clone(),
                reorder: reorder.name().to_string(),
                threads: threads as u64,
                baseline_teps,
                engine_teps: e.teps,
                speedup: e.teps / baseline_teps.max(1e-12),
            });
            runs.push(e);
        }
    }

    let mut reorder_gate = ReorderGateStatus::never_ran();
    let gate_kind = cfg
        .reorders
        .iter()
        .copied()
        .find(|&k| k == ReorderKind::HubCluster)
        .or_else(|| cfg.reorders.iter().copied().find(|&k| k != ReorderKind::None));
    if let (true, Some(kind)) = (cfg.check, gate_kind) {
        let threads = cfg.threads.iter().copied().max().unwrap_or(2).max(2);
        let gate = run_reorder_gate(threads, kind);
        eprintln!(
            "reorder gate: plain {:.0} TEPS, {} {:.0} TEPS ({:.2}x) at {} threads",
            gate.plain_teps,
            kind.name(),
            gate.reordered_teps,
            gate.reordered_teps / gate.plain_teps.max(1e-12),
            gate.threads,
        );
        // Reordering wins by turning scattered status-word and CSR probes
        // into sequential ones — a cache effect that only shows when lanes
        // genuinely contend for memory. Single-core timeshared lanes blur
        // it below the relabeling overhead, so the TEPS ordering is
        // enforced only where the hardware can express it; bit-identical
        // depths are asserted inside the gate regardless.
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        reorder_gate = ReorderGateStatus {
            ran: true,
            enforced: cores >= 2,
            passed: gate.reordered_teps >= gate.plain_teps,
            reorder: kind.name().to_string(),
            threads: gate.threads as u64,
            plain_teps: gate.plain_teps,
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
        runs,
        speedups,
        reorder_gate,
    }
}

/// The gate verdict `bfs cpu-bench --check` exits on: a message when the
/// reorder gate was enforced (on a host with at least 2 cores) and lost
/// its TEPS ordering. A report-only or never-run gate passes. The gate
/// asserts its depth check itself, whatever this returns.
pub fn lost_gate(reorder: &ReorderGateStatus) -> Option<String> {
    (reorder.enforced && !reorder.passed).then(|| {
        format!(
            "reorder locality gate: {} {:.0} TEPS < plain {:.0} TEPS at {} threads",
            reorder.reorder, reorder.reordered_teps, reorder.plain_teps, reorder.threads
        )
    })
}

/// Result of the reorder locality gate (see [`run_reorder_gate`]).
#[derive(Clone, Copy, Debug)]
pub struct ReorderGateResult {
    /// Threads both services ran with.
    pub threads: usize,
    /// Best-of-N unreordered TEPS.
    pub plain_teps: f64,
    /// Best-of-N reordered TEPS.
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
        let mut svc = CpuIbfs { threads, width: WordWidth::W64, reorder, ..Default::default() }
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
    ReorderGateResult { threads, plain_teps: best[0], reordered_teps: best[1] }
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
        if run.engine != "baseline" && run.engine != "pooled" {
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
        // merged, so its length is the deepest group's level count.
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
        if s.engine != "pooled" {
            return Err(format!("speedup for unknown engine {:?}", s.engine));
        }
        if ReorderKind::parse(&s.reorder).is_none() {
            return Err(format!("speedup for unknown reorder {:?}", s.reorder));
        }
    }
    // A lost but enforced gate is a valid record; failing on it is
    // `lost_gate`'s verdict, not a schema violation.
    let rg = &report.reorder_gate;
    if ReorderKind::parse(&rg.reorder).is_none() {
        return Err(format!("reorder_gate names unknown reorder {:?}", rg.reorder));
    }
    if rg.enforced && !rg.ran {
        return Err("reorder_gate claims enforced without having run".to_string());
    }
    if rg.ran
        && (rg.threads == 0
            || rg.plain_teps <= 0.0
            || rg.reordered_teps <= 0.0
            || rg.reorder == ReorderKind::None.name())
    {
        return Err(format!(
            "reorder_gate ran with degenerate measurements: reorder={} threads={} plain={} reordered={}",
            rg.reorder, rg.threads, rg.plain_teps, rg.reordered_teps
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
        "cpu-bench: rmat scale={} ef={} seed={} | {} vertices, {} edges, {} sources, groups of {}, {}-bit words",
        report.scale,
        report.edge_factor,
        report.seed,
        report.num_vertices,
        report.num_edges,
        report.sources,
        report.group_size,
        report.width_bits,
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
            "  reorder gate [{}]: plain {:.0} TEPS | {} {:.0} TEPS ({:.2}x, {})",
            if rg.enforced { "enforced" } else { "report-only" },
            rg.plain_teps,
            rg.reorder,
            rg.reordered_teps,
            rg.reordered_teps / rg.plain_teps.max(1e-12),
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

    fn host_cores() -> usize {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }

    #[test]
    fn profiler_attaches_to_the_engine_service() {
        let prof = ibfs_obs::EngineProfiler::shared();
        let report = run_cpu_bench(&CpuBenchConfig {
            threads: vec![2],
            check: false,
            profiler: Some(prof.clone()),
            ..tiny_config()
        });
        assert_eq!(report.runs.len(), 2);
        let prof_report = prof.report("cpu-bench");
        prof_report.validate().expect("profile validates");
        let phases = prof_report.phases();
        use ibfs_obs::ProfPhase;
        for phase in [ProfPhase::TopDownExpand, ProfPhase::Identify, ProfPhase::QueueBuild] {
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
        let wrong_version = good.replace("\"schema_version\": 5", "\"schema_version\": 99");
        assert!(validate_report_json(&wrong_version).unwrap_err().contains("schema_version"));
        let wrong_engine = good.replace("\"engine\": \"pooled\"", "\"engine\": \"cuda\"");
        assert!(validate_report_json(&wrong_engine).unwrap_err().contains("unknown engine"));
        // check:false means the gate never ran — claiming enforcement over
        // a gate that never ran is a forged document.
        let forged_gate = good.replace("\"enforced\": false", "\"enforced\": true");
        assert!(validate_report_json(&forged_gate).unwrap_err().contains("reorder_gate"));
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
    fn reorder_sweep_adds_rows_and_runs_the_gate() {
        // Two orderings at one thread count: 1 baseline + 2 engine rows,
        // every reordered row checked bit-identical to the baseline inside
        // the run (check: true), and the locality gate run on `hub`.
        let report = run_cpu_bench(&CpuBenchConfig {
            reorders: vec![ReorderKind::None, ReorderKind::HubCluster],
            threads: vec![2],
            ..tiny_config()
        });
        assert_eq!(report.runs.len(), 3);
        assert_eq!(report.speedups.len(), 2);
        for reorder in ["none", "hub"] {
            assert!(
                report.runs.iter().any(|r| r.engine == "pooled" && r.reorder == reorder),
                "missing pooled+{reorder}"
            );
        }
        assert!(report.runs.iter().all(|r| r.engine != "baseline" || r.reorder == "none"));
        let rg = &report.reorder_gate;
        assert!(rg.ran);
        assert_eq!(rg.reorder, "hub");
        assert!(rg.threads >= 2);
        assert!(rg.plain_teps > 0.0 && rg.reordered_teps > 0.0);
        assert_eq!(rg.passed, rg.reordered_teps >= rg.plain_teps);
        assert_eq!(rg.enforced, host_cores() >= 2);
        let parsed = validate_report_json(&report_to_json(&report)).expect("schema-valid");
        assert!(report_summary(&parsed).contains("pooled+hub"));
    }

    #[test]
    fn only_an_enforced_gate_that_lost_fails_the_check() {
        let reorder = |enforced, passed| ReorderGateStatus {
            ran: true,
            enforced,
            passed,
            reorder: "hub".to_string(),
            threads: 2,
            plain_teps: 2.0,
            reordered_teps: if passed { 3.0 } else { 1.0 },
        };
        assert_eq!(lost_gate(&ReorderGateStatus::never_ran()), None);
        // A report-only (single-core) loss and an enforced win pass.
        assert_eq!(lost_gate(&reorder(false, false)), None);
        assert_eq!(lost_gate(&reorder(true, true)), None);
        let lost = lost_gate(&reorder(true, false)).expect("an enforced loss fails");
        assert!(lost.contains("hub 1 TEPS < plain 2 TEPS"), "got: {lost}");
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
}
