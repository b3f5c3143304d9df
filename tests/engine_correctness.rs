//! Cross-crate integration tests: every engine — GPU-simulated and real
//! CPU — produces exactly the reference BFS depths on every graph of the
//! (scaled) benchmark suite.

use ibfs_repro::graph::suite;
use ibfs_repro::graph::validate::{check_depths, reference_bfs};
use ibfs_repro::graph::{Csr, VertexId};
use ibfs_repro::gpu_sim::{DeviceConfig, Profiler};
use ibfs_repro::ibfs::cpu::{CpuOptions, CpuRun, CpuService};
use ibfs_repro::ibfs::engine::{EngineKind, GpuGraph};

const SHRINK: u32 = 4;
const SOURCES: usize = 24;

fn suite_graphs() -> Vec<(String, ibfs_repro::graph::Csr)> {
    suite::suite()
        .into_iter()
        .map(|s| (s.name.to_string(), s.generate_scaled(SHRINK)))
        .collect()
}

fn sources_for(g: &ibfs_repro::graph::Csr) -> Vec<VertexId> {
    (0..g.num_vertices().min(SOURCES) as VertexId).collect()
}

/// One group through the CPU engine: iBFS, or MS-BFS with `msbfs`.
fn run_cpu(g: &Csr, r: &Csr, msbfs: bool, sources: &[VertexId]) -> CpuRun {
    let opts = CpuOptions { msbfs, ..Default::default() };
    CpuService::new(g, r, opts).run_group(sources).unwrap()
}

#[test]
fn every_gpu_engine_matches_reference_on_every_suite_graph() {
    for (name, g) in suite_graphs() {
        let r = g.reverse();
        let sources = sources_for(&g);
        for kind in EngineKind::all() {
            let engine = kind.build();
            let mut prof = Profiler::new(DeviceConfig::k40());
            let gg = GpuGraph::new(&g, &r, &mut prof);
            let run = engine.run_group(&gg, &sources, &mut prof);
            for (j, &s) in sources.iter().enumerate() {
                assert_eq!(
                    run.instance_depths(j),
                    &reference_bfs(&g, s)[..],
                    "{name}: engine {kind:?} wrong depths from source {s}"
                );
            }
        }
    }
}

#[test]
fn gpu_engine_depths_pass_structural_validation() {
    for (name, g) in suite_graphs() {
        let r = g.reverse();
        let sources = sources_for(&g);
        let engine = EngineKind::Bitwise.build();
        let mut prof = Profiler::new(DeviceConfig::k40());
        let gg = GpuGraph::new(&g, &r, &mut prof);
        let run = engine.run_group(&gg, &sources, &mut prof);
        for (j, &s) in sources.iter().enumerate() {
            check_depths(&g, &r, s, run.instance_depths(j))
                .unwrap_or_else(|e| panic!("{name}: source {s}: {e:?}"));
        }
    }
}

#[test]
fn cpu_engines_match_reference_on_every_suite_graph() {
    for (name, g) in suite_graphs() {
        let r = g.reverse();
        let sources = sources_for(&g);
        let ibfs_run = run_cpu(&g, &r, false, &sources);
        let msbfs_run = run_cpu(&g, &r, true, &sources);
        for (j, &s) in sources.iter().enumerate() {
            let want = reference_bfs(&g, s);
            assert_eq!(
                ibfs_run.instance_depths(j),
                &want[..],
                "{name}: CPU iBFS wrong from {s}"
            );
            assert_eq!(
                msbfs_run.instance_depths(j),
                &want[..],
                "{name}: CPU MS-BFS wrong from {s}"
            );
        }
    }
}

#[test]
fn all_engines_produce_identical_level_arrays_across_generators() {
    // Cross-engine differential test: instead of comparing each engine to the
    // reference, compare every engine (GPU-simulated and CPU) against every
    // other on one graph from each generator family. Any engine that diverges
    // from the pack is named in the failure, together with the generator.
    use ibfs_repro::graph::generators::{
        chung_lu, powerlaw_weights, rmat, uniform_random, RmatParams,
    };

    let graphs: Vec<(&str, ibfs_repro::graph::Csr)> = vec![
        ("rmat", rmat(7, 8, RmatParams::graph500(), 7)),
        ("uniform", uniform_random(128, 6, 11)),
        ("chung-lu", chung_lu(&powerlaw_weights(128, 6.0, 2.2), 23)),
    ];
    for (gen_name, g) in graphs {
        let r = g.reverse();
        let sources = sources_for(&g);
        let mut runs: Vec<(String, Vec<Vec<_>>)> = Vec::new();
        for kind in EngineKind::all() {
            let engine = kind.build();
            let mut prof = Profiler::new(DeviceConfig::k40());
            let gg = GpuGraph::new(&g, &r, &mut prof);
            let run = engine.run_group(&gg, &sources, &mut prof);
            let levels = (0..sources.len())
                .map(|j| run.instance_depths(j).to_vec())
                .collect();
            runs.push((format!("{kind:?}"), levels));
        }
        let cpu = run_cpu(&g, &r, false, &sources);
        let ms = run_cpu(&g, &r, true, &sources);
        for (name, run) in [("CpuService(ibfs)", cpu), ("CpuService(msbfs)", ms)] {
            let levels = (0..sources.len())
                .map(|j| run.instance_depths(j).to_vec())
                .collect();
            runs.push((name.to_string(), levels));
        }
        let (base_name, base) = &runs[0];
        for (name, levels) in &runs[1..] {
            assert_eq!(
                levels, base,
                "{gen_name}: engine {name} disagrees with {base_name}"
            );
        }
    }
}

#[test]
fn all_engines_agree_pairwise_on_traffic_determinism() {
    // Running the same engine twice yields identical counters (the figure
    // harness depends on this determinism).
    let spec = suite::by_name("LJ").unwrap();
    let g = spec.generate_scaled(SHRINK);
    let r = g.reverse();
    let sources = sources_for(&g);
    for kind in EngineKind::all() {
        let engine = kind.build();
        let run_once = || {
            let mut prof = Profiler::new(DeviceConfig::k40());
            let gg = GpuGraph::new(&g, &r, &mut prof);
            let run = engine.run_group(&gg, &sources, &mut prof);
            (run.counters, run.sim_seconds.to_bits(), run.depths)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.0, b.0, "{kind:?} counters not deterministic");
        assert_eq!(a.1, b.1, "{kind:?} sim time not deterministic");
        assert_eq!(a.2, b.2, "{kind:?} depths not deterministic");
    }
}
