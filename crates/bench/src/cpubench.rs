//! `bfs cpu-bench`: the measured CPU-engine benchmark behind
//! `BENCH_cpu.json`.
//!
//! Runs a seeded fig22-style R-MAT workload through the frozen pre-pool
//! baseline ([`ibfs::cpu_baseline::run_cpu_baseline`]) and the CPU engine
//! ([`ibfs::cpu::CpuService`], recorded as `pooled`) at each requested
//! thread count, and reports TEPS, per-level wall times, and the
//! speedup-over-baseline curve. With `check`, every run's depths are
//! asserted equal to `reference_bfs` and to the baseline. The emitted JSON
//! is the repo's perf trajectory record: committed once per perf PR so
//! regressions are diffable.

use ibfs::cpu::{CpuOptions, CpuRun, CpuService};
use ibfs::cpu_baseline::run_cpu_baseline;
use ibfs::direction::DirectionPolicy;
use ibfs::word::WordWidth;
use ibfs_graph::generators::{rmat, RmatParams};
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
/// baseline), and a reorder-gate block records the tiled-vs-
/// tiled+reordered locality gate the same way `hub_gate` records tiling.
/// v5: the tiled and async engines are gone, and with them the tile-size
/// field and the `hub_gate` block; the reorder gate compares the one engine
/// with and without the ordering, so its `tiled_teps` is now `plain_teps`.
/// v6: vertex reordering is gone, and with it the `reorder` field of runs
/// and speedups and the reorder-gate block.
pub const SCHEMA_VERSION: u64 = 6;

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
    /// Verify every run's depths against `reference_bfs` (and the
    /// baseline).
    pub check: bool,
    /// Wall-clock noise damping: run every engine × thread-count
    /// measurement this many times and report the best (highest-TEPS)
    /// pass. 0 and 1 both mean one pass.
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
    /// Worker threads.
    pub threads: u64,
    /// Baseline TEPS.
    pub baseline_teps: f64,
    /// The engine's TEPS.
    pub engine_teps: f64,
    /// `engine_teps / baseline_teps`.
    pub speedup: f64,
}

json_struct!(CpuSpeedup { engine, threads, baseline_teps, engine_teps, speedup });

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
});

fn summarize(engine: &str, threads: usize, runs: &[CpuRun], pool_phases: u64) -> CpuBenchRun {
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
/// thread count.
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
        let b = summarize("baseline", threads, &baseline_runs, 0);
        let baseline_teps = b.teps;
        runs.push(b);

        // One resident service, pool + arena reused across the run's
        // groups — and across best-of repeats, which also warms the pool
        // before the counted passes.
        let opts = CpuOptions { threads, width: cfg.width, ..Default::default() };
        let mut svc = CpuService::new(&graph, &reverse, opts);
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

        if cfg.check {
            check_depths(&graph, &sources, &engine_runs, "pooled");
            // With matching group boundaries the concatenated depth
            // tables are comparable element-wise: both converge to the
            // reference fixed point.
            if group_size <= ibfs::cpu_baseline::BASELINE_GROUP {
                assert_eq!(
                    flat(&baseline_runs),
                    flat(&engine_runs),
                    "pooled depths diverge from baseline at {threads} threads"
                );
            }
        }

        let e = summarize("pooled", threads, &engine_runs, pool_phases);
        speedups.push(CpuSpeedup {
            engine: e.engine.clone(),
            threads: threads as u64,
            baseline_teps,
            engine_teps: e.teps,
            speedup: e.teps / baseline_teps.max(1e-12),
        });
        runs.push(e);
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
    }
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
        if run.engine == "baseline" {
            baselines += 1;
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
        let _ = writeln!(
            out,
            "  threads={:<2} baseline {:>12.0} TEPS | {:<10} {:>12.0} TEPS | speedup {:.2}x",
            s.threads, s.baseline_teps, s.engine, s.engine_teps, s.speedup
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
        let wrong_version = good.replace("\"schema_version\": 6", "\"schema_version\": 99");
        assert!(validate_report_json(&wrong_version).unwrap_err().contains("schema_version"));
        let wrong_engine = good.replace("\"engine\": \"pooled\"", "\"engine\": \"cuda\"");
        assert!(validate_report_json(&wrong_engine).unwrap_err().contains("unknown engine"));
        let no_threads = good.replace("\"threads\": 1", "\"threads\": 0");
        assert!(validate_report_json(&no_threads).unwrap_err().contains("degenerate run"));
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
}
