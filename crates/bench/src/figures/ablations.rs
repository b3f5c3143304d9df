//! Ablation report for the design choices of DESIGN.md §5, in *simulated*
//! metrics.
//!
//! Each row disables one design element and reports the change in
//! simulated time and global load transactions on a mid-size Kronecker
//! graph with a 64-instance group.

use crate::result::f2;
use crate::{FigureResult, HarnessConfig};
use ibfs::bitwise::{BitwiseEngine, BitwiseStyle};
use ibfs::direction::DirectionPolicy;
use ibfs::engine::{Engine, GpuGraph, GroupRun};
use ibfs::groupby::{GroupByConfig, GroupingStrategy};
use ibfs::joint::JointEngine;
use ibfs::word::W256;
use ibfs_graph::suite;
use ibfs_gpu_sim::{DeviceConfig, Profiler};

/// Runs the ablation suite.
pub fn run(cfg: &HarnessConfig) -> FigureResult {
    let spec = suite::by_name("KG1").unwrap();
    let (g, r) = cfg.load(&spec);
    let sources = cfg.source_set(&g);
    let group: Vec<u32> = sources
        .iter()
        .copied()
        .take(cfg.group_size.min(64))
        .collect();

    let run_engine = |engine: &dyn Engine, srcs: &[u32]| -> GroupRun {
        let mut prof = Profiler::new(DeviceConfig::k40());
        let gg = GpuGraph::new(&g, &r, &mut prof);
        engine.run_group(&gg, srcs, &mut prof)
    };

    let mut out = FigureResult::new(
        "ablations",
        "Design-choice ablations (simulated time and load transactions)",
        &["ablation", "baseline ms", "ablated ms", "slowdown", "load txns base", "load txns ablated"],
    );
    let ms = |x: f64| format!("{:.4}", x * 1e3);

    let mut record = |name: &str, base: &GroupRun, ablated: &GroupRun| {
        assert_eq!(base.depths, ablated.depths, "{name}: ablation changed results");
        out.push_row(vec![
            name.to_string(),
            ms(base.sim_seconds),
            ms(ablated.sim_seconds),
            f2(ablated.sim_seconds / base.sim_seconds),
            base.counters.global_load_transactions.to_string(),
            ablated.counters.global_load_transactions.to_string(),
        ]);
    };

    // 1. CTA shared-memory adjacency cache (joint engine).
    let base = run_engine(&JointEngine::default(), &group);
    let ablated = run_engine(&JointEngine::without_shared_cache(), &group);
    record("shared-memory adjacency cache", &base, &ablated);

    // 2. Early termination + accumulated bits (bitwise vs MS-BFS-style),
    //    on a GroupBy-coherent group where words actually fill.
    let grouped = GroupingStrategy::OutDegreeRules(
        GroupByConfig::default().with_group_size(group.len().max(1)),
    )
    .group(&g, &sources);
    let coherent = grouped.groups.first().cloned().unwrap_or_else(|| group.clone());
    let base = run_engine(&BitwiseEngine::default(), &coherent);
    let ablated = run_engine(
        &BitwiseEngine { style: BitwiseStyle::MsBfs, ..Default::default() },
        &coherent,
    );
    record("early termination (vs per-level reset)", &base, &ablated);

    // 3. Direction optimization (bitwise, top-down only). Bottom-up pays
    //    off only when the group is coherent enough for status words to
    //    fill (the GroupBy argument), so this ablation also runs on the
    //    GroupBy group.
    let base = run_engine(&BitwiseEngine::default(), &coherent);
    let ablated = run_engine(
        &BitwiseEngine { policy: DirectionPolicy::top_down_only(), ..Default::default() },
        &coherent,
    );
    record("direction-optimizing traversal", &base, &ablated);

    // 4. Status-word width: narrowest fitting word vs forced long4.
    let narrow: Vec<u32> = group.iter().copied().take(32).collect();
    let engine = BitwiseEngine::default();
    let base = {
        let mut prof = Profiler::new(DeviceConfig::k40());
        let gg = GpuGraph::new(&g, &r, &mut prof);
        engine.run_group_with_word::<u32>(&gg, &narrow, &mut prof)
    };
    let ablated = {
        let mut prof = Profiler::new(DeviceConfig::k40());
        let gg = GpuGraph::new(&g, &r, &mut prof);
        engine.run_group_with_word::<W256>(&gg, &narrow, &mut prof)
    };
    record("narrow status word (u32 vs forced long4)", &base, &ablated);

    let all_cost = out
        .rows
        .iter()
        .all(|row| row[3].parse::<f64>().map(|x| x >= 0.99).unwrap_or(false));
    out.note(format!(
        "shape check (every ablation costs time or is neutral): {}",
        if all_cost { "HOLDS" } else { "VIOLATED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_all_cost_something() {
        let cfg = HarnessConfig::tiny();
        let r = run(&cfg);
        assert_eq!(r.rows.len(), 4);
        assert!(r.notes.iter().any(|n| n.contains("HOLDS")), "{:?}", r.notes);
    }
}
