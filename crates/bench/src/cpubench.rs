//! `bfs cpu-bench`: the measured CPU-engine benchmark behind
//! `BENCH_cpu.json`.
//!
//! Runs a seeded fig22-style R-MAT workload through the frozen pre-pool
//! baseline ([`ibfs::cpu_baseline::run_cpu_baseline`]) and the CPU engine
//! ([`ibfs::cpu::CpuService`], recorded as `pooled`) at each requested
//! thread count, and reports one row per thread count: both paths' wall
//! seconds and TEPS and the engine's speedup over the baseline. With
//! `check`, every run's depths are asserted equal to `reference_bfs` and
//! to the baseline. The emitted JSON is the repo's perf trajectory record,
//! and `bfs perf-diff` compares its speedups.

use ibfs::cpu::{CpuOptions, CpuRun, CpuService};
use ibfs::cpu_baseline::run_cpu_baseline;
use ibfs::direction::DirectionPolicy;
use ibfs::word::WordWidth;
use ibfs_graph::generators::{rmat, RmatParams};
use ibfs_graph::validate::reference_bfs;
use ibfs_graph::{Csr, VertexId};
use ibfs_util::json::{FromJson, ToJson};
use ibfs_util::json_struct;

/// Schema version stamped into `BENCH_cpu.json`. v7: one row per thread
/// count.
pub const SCHEMA_VERSION: u64 = 7;

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
    /// Wall-clock noise damping: at each thread count, run this many
    /// passes of each path, alternating, and report each path's best
    /// (highest-TEPS) pass. 0 and 1 both mean one pass.
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

/// The baseline and the engine at one thread count, measured in the same
/// run.
#[derive(Clone, Debug)]
pub struct CpuBenchRow {
    /// Worker threads used by both paths.
    pub threads: u64,
    /// Traversed directed edges over all groups; both paths traverse the
    /// same edges.
    pub traversed_edges: u64,
    /// The baseline's wall-clock seconds over all groups.
    pub baseline_seconds: f64,
    /// The baseline's traversal rate.
    pub baseline_teps: f64,
    /// The engine's wall-clock seconds over all groups.
    pub engine_seconds: f64,
    /// The engine's traversal rate.
    pub engine_teps: f64,
    /// `engine_teps / baseline_teps`: the quantity `bfs perf-diff`
    /// compares.
    pub speedup: f64,
}

json_struct!(CpuBenchRow {
    threads,
    traversed_edges,
    baseline_seconds,
    baseline_teps,
    engine_seconds,
    engine_teps,
    speedup,
});

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
    /// One row per requested thread count, in request order.
    pub rows: Vec<CpuBenchRow>,
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
    rows,
});

/// Wall seconds and traversed edges summed over one pass's groups.
fn totals(runs: &[CpuRun]) -> (f64, u64) {
    (runs.iter().map(|r| r.wall_seconds).sum(), runs.iter().map(|r| r.traversed_edges).sum())
}

fn teps(edges: u64, seconds: f64) -> f64 {
    edges as f64 / seconds.max(1e-12)
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

    // Keeps the best (highest-TEPS) pass: outliers are downward.
    let keep_best = |best: &mut Vec<CpuRun>, pass: Vec<CpuRun>| {
        let teps_of = |rs: &[CpuRun]| {
            let (wall, edges) = totals(rs);
            teps(edges, wall)
        };
        if best.is_empty() || teps_of(&pass) > teps_of(best) {
            *best = pass;
        }
    };

    let mut rows = Vec::new();
    for &threads in &cfg.threads {
        // One resident service, pool + arena reused across the run's
        // groups — and across best-of repeats, which also warms the pool
        // before the counted passes.
        let opts = CpuOptions { threads, width: cfg.width, ..Default::default() };
        let mut svc = CpuService::new(&graph, &reverse, opts);
        if let Some(p) = &cfg.profiler {
            svc.set_profiler(p.clone());
        }
        // The two paths' passes alternate, so a slow spell of the host
        // lands on both and the speedup stays a same-run ratio.
        let (mut baseline_runs, mut engine_runs) = (Vec::new(), Vec::new());
        for _ in 0..cfg.repeat.max(1) {
            // Baseline: the frozen pre-pool path (64-wide u64 words).
            let pass = sources
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
                .collect();
            keep_best(&mut baseline_runs, pass);
            let pass = sources
                .chunks(group_size)
                .map(|group| svc.run_group(group).expect("bench groups are sized to capacity"))
                .collect();
            keep_best(&mut engine_runs, pass);
        }

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

        let (baseline_seconds, baseline_edges) = totals(&baseline_runs);
        let (engine_seconds, traversed_edges) = totals(&engine_runs);
        // Traversed edges are a function of the depths alone.
        assert_eq!(baseline_edges, traversed_edges, "paths traversed different edges");
        let baseline_teps = teps(traversed_edges, baseline_seconds);
        let engine_teps = teps(traversed_edges, engine_seconds);
        rows.push(CpuBenchRow {
            threads: threads as u64,
            traversed_edges,
            baseline_seconds,
            baseline_teps,
            engine_seconds,
            engine_teps,
            speedup: engine_teps / baseline_teps,
        });
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
        rows,
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
    if report.rows.is_empty() {
        return Err("no rows recorded".to_string());
    }
    for row in &report.rows {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if row.threads == 0
            || row.traversed_edges == 0
            || ![row.baseline_seconds, row.baseline_teps, row.engine_seconds, row.engine_teps]
                .into_iter()
                .all(positive)
        {
            return Err(format!("degenerate row: {row:?}"));
        }
        let want = row.engine_teps / row.baseline_teps;
        if (row.speedup - want).abs() > 1e-9 * want {
            return Err(format!(
                "speedup {} at {} threads disagrees with its TEPS ({want})",
                row.speedup, row.threads
            ));
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
    for r in &report.rows {
        let _ = writeln!(
            out,
            "  threads={:<2} baseline {:>12.0} TEPS | pooled {:>12.0} TEPS | speedup {:.2}x",
            r.threads, r.baseline_teps, r.engine_teps, r.speedup
        );
    }
    out
}

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
        assert_eq!(report.rows.len(), 2);
        let text = report_to_json(&report);
        let parsed = validate_report_json(&text).expect("schema-valid");
        assert_eq!(parsed.num_vertices, report.num_vertices);
        assert_eq!(parsed.rows.len(), 2);
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
        assert_eq!(report.rows.len(), 1);
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
        assert!(validate_report_json(&report_to_json(&report)).is_ok());
        assert!(validate_report_json("{}").is_err());
        assert!(validate_report_json("not json").is_err());
        let tampered = |edit: &dyn Fn(&mut CpuBenchReport)| {
            let mut bad = report.clone();
            edit(&mut bad);
            validate_report_json(&report_to_json(&bad)).unwrap_err()
        };
        assert!(tampered(&|r| r.schema_version = 6).contains("schema_version"));
        assert!(tampered(&|r| r.rows.clear()).contains("no rows"));
        assert!(tampered(&|r| r.rows[0].threads = 0).contains("degenerate row"));
        assert!(tampered(&|r| r.rows[0].baseline_seconds = 0.0).contains("degenerate row"));
        assert!(tampered(&|r| r.rows[0].engine_teps = f64::NAN).contains("degenerate row"));
        assert!(tampered(&|r| r.rows[0].speedup *= 1.01).contains("disagrees with its TEPS"));
    }

    #[test]
    fn wide_width_runs_fewer_groups() {
        let prof = ibfs_obs::EngineProfiler::shared();
        let cfg = CpuBenchConfig {
            scale: 8,
            edge_factor: 8,
            seed: 7,
            sources: 100,
            group_size: 256,
            threads: vec![1],
            width: WordWidth::W256,
            check: true,
            profiler: Some(prof.clone()),
            ..CpuBenchConfig::default()
        };
        let report = run_cpu_bench(&cfg);
        assert_eq!(report.group_size, 256);
        assert_eq!(report.rows.len(), 1);
        // Every engine group opens one profiler track: the 100 sources ran
        // as one 256-wide group, where the 64-wide baseline needs 2.
        let lanes = prof.report("cpu-bench").lanes();
        let mut tracks: Vec<u64> = lanes.iter().map(|&(track, _)| track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        assert_eq!(tracks.len(), 1);
    }
}
