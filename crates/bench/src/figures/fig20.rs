//! Figure 20: speedup of iBFS's bitwise operation over the MS-BFS-style
//! bitwise baseline (`[26]`), under random grouping and under GroupBy.
//!
//! Paper shape: ~1.4× with random groups, ~2.6× with GroupBy — the extra
//! improvement comes from early termination paying off when grouped
//! instances complete together.

use crate::result::f2;
use crate::{FigureResult, HarnessConfig};
use ibfs::engine::EngineKind;
use ibfs::groupby::{GroupByConfig, GroupingStrategy};
use ibfs::runner::{run_ibfs, RunConfig};
use ibfs_graph::suite;

/// Runs the Figure 20 measurement.
pub fn run(cfg: &HarnessConfig) -> FigureResult {
    let mut out = FigureResult::new(
        "fig20",
        "Speedup of iBFS bitwise over MS-BFS-style bitwise [26]",
        &["graph", "random grouping", "GroupBy"],
    );
    let mut rnd_sum = 0.0;
    let mut grp_sum = 0.0;
    let mut graphs = 0usize;
    for spec in suite::suite() {
        let (g, r) = cfg.load(&spec);
        let sources = cfg.source_set(&g);
        let seconds = |engine: EngineKind, strategy: &GroupingStrategy| {
            run_ibfs(&g, &r, &sources, &RunConfig {
                engine,
                grouping: strategy.clone(),
                ..Default::default()
            })
            .sim_seconds
        };
        let random = GroupingStrategy::Random { seed: 29, group_size: cfg.group_size };
        let grouped = GroupingStrategy::OutDegreeRules(
            GroupByConfig::default().with_group_size(cfg.group_size),
        );
        let speedup_random = seconds(EngineKind::BitwiseMsBfsStyle, &random)
            / seconds(EngineKind::Bitwise, &random);
        let speedup_grouped = seconds(EngineKind::BitwiseMsBfsStyle, &grouped)
            / seconds(EngineKind::Bitwise, &grouped);
        rnd_sum += speedup_random;
        grp_sum += speedup_grouped;
        graphs += 1;
        out.push_row(vec![
            spec.name.to_string(),
            f2(speedup_random),
            f2(speedup_grouped),
        ]);
    }
    let rnd = rnd_sum / graphs as f64;
    let grp = grp_sum / graphs as f64;
    out.note(format!(
        "mean speedup over MS-BFS style: random {rnd:.2}x (paper 1.4x), GroupBy {grp:.2}x \
         (paper up to 2.6x)"
    ));
    out.note(format!(
        "shape check (iBFS bitwise beats the [26] baseline on average): {}",
        if rnd > 1.0 && grp >= rnd * 0.95 { "HOLDS" } else { "VIOLATED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ibfs_beats_msbfs_baseline() {
        let cfg = HarnessConfig::tiny();
        let r = run(&cfg);
        assert_eq!(r.rows.len(), 13);
        assert!(r.notes.iter().any(|n| n.contains("HOLDS")), "{:?}", r.notes);
    }
}
