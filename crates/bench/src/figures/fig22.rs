//! Figure 22: CPU and GPU implementation comparison — MS-BFS and CPU-iBFS
//! (real wall-clock) vs B40C, SpMM-BC and GPU-iBFS (simulated) on FB, HW,
//! KG0, LJ, OR, TW.
//!
//! Paper shape: CPU-iBFS beats MS-BFS (45% average, 3.3× on KG0); on the
//! GPU side iBFS beats SpMM-BC ~2× and B40C ~19×. CPU wall-clock and
//! simulated GPU TEPS are not directly comparable in absolute terms at
//! laptop scale — the within-platform orderings are the reproduction
//! target.

use crate::result::gteps;
use crate::{FigureResult, HarnessConfig};
use ibfs::cpu::{CpuOptions, CpuRun, CpuService};
use ibfs::engine::EngineKind;
use ibfs::groupby::{GroupByConfig, GroupingStrategy};
use ibfs::runner::{run_ibfs, RunConfig};
use ibfs_graph::suite;

/// Runs the Figure 22 comparison.
pub fn run(cfg: &HarnessConfig) -> FigureResult {
    let mut out = FigureResult::new(
        "fig22",
        "CPU vs GPU implementations (GTEPS; CPU wall-clock, GPU simulated)",
        &["graph", "MS-BFS", "CPU iBFS", "B40C", "SpMM-BC", "GPU iBFS"],
    );
    let cpu_group = cfg.group_size.min(cfg.width.bits() as usize).min(ibfs::cpu::CPU_GROUP);
    let mut cpu_wins = 0usize;
    let mut gpu_wins = 0usize;
    let mut graphs = 0usize;
    for spec in suite::comparison_suite() {
        let (g, r) = cfg.load(&spec);
        let sources = cfg.source_set(&g);

        // CPU engines: wall-clock TEPS through a resident service (pool +
        // arena reused across every group of the run).
        let cpu_teps = |msbfs: bool| {
            let opts =
                CpuOptions { threads: cfg.threads, width: cfg.width, msbfs, ..Default::default() };
            let mut svc = CpuService::new(&g, &r, opts);
            let runs: Vec<CpuRun> = sources
                .chunks(cpu_group)
                .map(|group| svc.run_group(group).expect("fig22 groups are sized to capacity"))
                .collect();
            let edges: u64 = runs.iter().map(|x| x.traversed_edges).sum();
            let secs: f64 = runs.iter().map(|x| x.wall_seconds).sum();
            edges as f64 / secs.max(1e-12)
        };
        let msbfs = cpu_teps(true);
        let cpu_ibfs = cpu_teps(false);

        // GPU engines: simulated TEPS.
        let gpu_teps = |engine: EngineKind, strategy: GroupingStrategy| {
            run_ibfs(&g, &r, &sources, &RunConfig {
                engine,
                grouping: strategy,
                ..Default::default()
            })
            .teps()
        };
        let random = GroupingStrategy::Random { seed: 37, group_size: cfg.group_size };
        let grouped = GroupingStrategy::OutDegreeRules(
            GroupByConfig::default().with_group_size(cfg.group_size),
        );
        let b40c = gpu_teps(EngineKind::Sequential, random.clone());
        let spmm = gpu_teps(EngineKind::Spmm, random);
        let gpu_ibfs = gpu_teps(EngineKind::Bitwise, grouped);

        graphs += 1;
        if cpu_ibfs >= msbfs {
            cpu_wins += 1;
        }
        if gpu_ibfs > b40c && gpu_ibfs > spmm {
            gpu_wins += 1;
        }
        out.push_row(vec![
            spec.name.to_string(),
            gteps(msbfs),
            gteps(cpu_ibfs),
            gteps(b40c),
            gteps(spmm),
            gteps(gpu_ibfs),
        ]);
    }
    out.note(format!(
        "CPU-iBFS >= MS-BFS on {cpu_wins}/{graphs} graphs (paper: 45% average win); \
         GPU-iBFS fastest GPU implementation on {gpu_wins}/{graphs} (paper: 2x over \
         SpMM-BC, 19.3x over B40C)"
    ));
    out.note(format!(
        "shape check (GPU-iBFS fastest on-GPU everywhere, CPU-iBFS usually beats MS-BFS): {}",
        if gpu_wins == graphs && cpu_wins * 2 >= graphs { "HOLDS" } else { "VIOLATED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_produces_six_graphs() {
        let cfg = HarnessConfig::tiny();
        let r = run(&cfg);
        assert_eq!(r.rows.len(), 6);
    }
}
