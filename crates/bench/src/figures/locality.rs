//! Locality figure: vertex reordering vs TEPS on a power-law graph (CPU
//! cache-locality round; no paper counterpart — the repo's own ablation,
//! see DESIGN.md §10 "Locality & adaptivity").
//!
//! For each [`ReorderKind`] the CPU engine runs the same sources through
//! a resident service built over the relabeled CSR. Two columns carry the
//! story: the mean absolute neighbor gap `mean |u - v|` (the static
//! locality surrogate — how far apart a vertex's neighbors sit in the
//! status-word and depth arrays) and measured wall-clock GTEPS. The
//! orderings must shrink the gap (that is deterministic and asserted by
//! the unit test); whether the shrink becomes a TEPS win depends on the
//! host's cache hierarchy, so the speedup is reported as a shape check,
//! not asserted (the enforced version lives in `bfs cpu-bench --check`'s
//! reorder gate). Depths are asserted bit-identical across orderings
//! before any rate is reported — a locality win bought with a wrong
//! answer is not a win.

use crate::result::gteps;
use crate::{FigureResult, HarnessConfig};
use ibfs::cpu::{CpuIbfs, CpuRun};
use ibfs_graph::generators::{rmat, RmatParams};
use ibfs_graph::reorder::{mean_neighbor_gap, ReorderKind, VertexPerm};

/// Runs the reordering-vs-locality comparison.
pub fn run(cfg: &HarnessConfig) -> FigureResult {
    let mut out = FigureResult::new(
        "locality",
        "vertex reordering: mean neighbor gap vs CPU-engine GTEPS (R-MAT)",
        &["reorder", "mean |u-v|", "gap vs none", "pooled", "speedup vs none"],
    );
    let scale = 14u32.saturating_sub(cfg.shrink).max(8);
    let g = rmat(scale, 8, RmatParams::graph500(), 42);
    let r = g.reverse();
    let sources = cfg.source_set(&g);
    let cpu_group = cfg.group_size.min(cfg.width.bits() as usize).min(ibfs::cpu::CPU_GROUP);

    let mut base_gap = 0.0f64;
    let mut base_teps = 0.0f64;
    let mut base_depths: Option<Vec<ibfs_graph::Depth>> = None;
    for kind in ReorderKind::all() {
        // The static surrogate, measured on the CSR the engine will walk.
        let gap = match VertexPerm::build(kind, &g, ibfs::cpu::REORDER_SEED) {
            None => mean_neighbor_gap(&g),
            Some(perm) => mean_neighbor_gap(&perm.apply(&g)),
        };
        let mut svc =
            CpuIbfs { threads: cfg.threads, width: cfg.width, reorder: kind, ..Default::default() }
                .service(&g, &r);
        let runs: Vec<CpuRun> = sources
            .chunks(cpu_group)
            .map(|group| svc.run_group(group).expect("locality groups are sized to capacity"))
            .collect();
        let depths: Vec<ibfs_graph::Depth> =
            runs.iter().flat_map(|x| x.depths.iter().copied()).collect();
        match &base_depths {
            None => base_depths = Some(depths),
            Some(b) => assert_eq!(b, &depths, "{kind}: reordered depths diverge"),
        }
        let edges: u64 = runs.iter().map(|x| x.traversed_edges).sum();
        let secs: f64 = runs.iter().map(|x| x.wall_seconds).sum();
        let teps = edges as f64 / secs.max(1e-12);
        if kind == ReorderKind::None {
            base_gap = gap;
            base_teps = teps;
        }
        out.push_row(vec![
            kind.name().to_string(),
            format!("{gap:.1}"),
            format!("{:.2}x", gap / base_gap.max(1e-12)),
            gteps(teps),
            format!("{:.2}x", teps / base_teps.max(1e-12)),
        ]);
    }
    out.note(
        "methodology: same sources and CPU engine per ordering, resident service \
         (relabel amortized at build), depths asserted bit-identical across orderings; \
         the gap column is deterministic, the TEPS column is wall-clock (see \
         EXPERIMENTS.md)"
            .to_string(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_rows_cover_every_ordering_and_shrink_the_gap() {
        let cfg = HarnessConfig::tiny();
        let res = run(&cfg);
        assert_eq!(res.rows.len(), ReorderKind::all().len());
        let gap_of = |row: &Vec<String>| row[1].parse::<f64>().unwrap();
        let base = gap_of(&res.rows[0]);
        assert_eq!(res.rows[0][0], "none");
        for row in &res.rows[1..] {
            // Every real ordering must improve the static surrogate on a
            // power-law graph — this is the deterministic half of the
            // figure, so it is asserted even on noisy CI hosts.
            assert!(
                gap_of(row) < base,
                "{}: gap {} did not shrink vs natural {base}",
                row[0],
                gap_of(row)
            );
        }
    }
}
