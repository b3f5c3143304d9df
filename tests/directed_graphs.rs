//! Directed-graph coverage: the paper stores reversed edges precisely so
//! bottom-up traversal can search in-neighbors on directed inputs ("For
//! directed graphs, we also store the reversed edges to support the
//! bottom-up traversal"). Every engine must produce correct directed BFS
//! depths, including under forced bottom-up traversal.

use ibfs_repro::graph::validate::reference_bfs;
use ibfs_repro::graph::{Csr, CsrBuilder, VertexId};
use ibfs_repro::gpu_sim::{DeviceConfig, Profiler};
use ibfs_repro::ibfs::cpu::{CpuOptions, CpuService};
use ibfs_repro::ibfs::direction::DirectionPolicy;
use ibfs_repro::ibfs::engine::{Engine, EngineKind, GpuGraph};
use ibfs_repro::util::prop::{vec_of, Prop};

/// A directed ring with chords: strongly connected, asymmetric.
fn directed_ring_with_chords(n: usize) -> Csr {
    let mut b = CsrBuilder::new(n);
    for v in 0..n {
        b.add_edge(v as VertexId, ((v + 1) % n) as VertexId);
        if v % 3 == 0 {
            b.add_edge(v as VertexId, ((v + 7) % n) as VertexId);
        }
    }
    b.build()
}

/// A DAG: edges only from lower to higher ids (many unreachable pairs).
fn dag(n: usize) -> Csr {
    let mut b = CsrBuilder::new(n);
    for v in 0..n {
        for d in [1usize, 3, 9] {
            if v + d < n {
                b.add_edge(v as VertexId, (v + d) as VertexId);
            }
        }
    }
    b.build()
}

fn check_all_engines(g: &Csr, sources: &[VertexId]) {
    let r = g.reverse();
    assert!(!g.is_symmetric(), "test graph must be genuinely directed");
    for kind in EngineKind::all() {
        let engine = kind.build();
        let mut prof = Profiler::new(DeviceConfig::k40());
        let gg = GpuGraph::new(g, &r, &mut prof);
        let run = engine.run_group(&gg, sources, &mut prof);
        for (j, &s) in sources.iter().enumerate() {
            assert_eq!(
                run.instance_depths(j),
                &reference_bfs(g, s)[..],
                "{kind:?} wrong on directed graph from {s}"
            );
        }
    }
    // CPU engines too.
    let cpu = CpuService::new(g, &r, CpuOptions::default()).run_group(sources).unwrap();
    let msbfs = CpuOptions { msbfs: true, ..Default::default() };
    let ms = CpuService::new(g, &r, msbfs).run_group(sources).unwrap();
    for (j, &s) in sources.iter().enumerate() {
        let want = reference_bfs(g, s);
        assert_eq!(cpu.instance_depths(j), &want[..]);
        assert_eq!(ms.instance_depths(j), &want[..]);
    }
}

#[test]
fn engines_handle_directed_ring() {
    let g = directed_ring_with_chords(60);
    check_all_engines(&g, &[0, 15, 30, 45]);
}

#[test]
fn engines_handle_dag_with_unreachable_predecessors() {
    let g = dag(50);
    // From the middle, everything below stays unvisited.
    check_all_engines(&g, &[0, 10, 25, 49]);
}

#[test]
fn forced_bottom_up_uses_in_edges() {
    // Force bottom-up immediately: a wrong implementation that scans
    // out-edges instead of in-edges gives wrong depths on a directed ring.
    let g = directed_ring_with_chords(40);
    let r = g.reverse();
    let policy = DirectionPolicy { alpha: 1e9, beta: 1e9 };
    let engine = ibfs_repro::ibfs::bitwise::BitwiseEngine { policy, ..Default::default() };
    let mut prof = Profiler::new(DeviceConfig::k40());
    let gg = GpuGraph::new(&g, &r, &mut prof);
    let sources = [0u32, 20];
    let run = engine.run_group(&gg, &sources, &mut prof);
    for (j, &s) in sources.iter().enumerate() {
        assert_eq!(run.instance_depths(j), &reference_bfs(&g, s)[..]);
    }
}

#[test]
fn engines_match_reference_on_arbitrary_directed_graphs() {
    Prop::new("engines_match_reference_on_arbitrary_directed_graphs")
        .cases(48)
        .run(|rng| {
            let n = rng.gen_range(2usize..30);
            let edges = vec_of(rng, 1..90, |r| {
                (r.gen_range(0u32..30), r.gen_range(0u32..30))
            });
            let nsrc = rng.gen_range(1usize..6);
            let mut b = CsrBuilder::new(n);
            for (u, v) in edges {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v {
                    b.add_edge(u, v);
                }
            }
            let g = b.build();
            let r = g.reverse();
            let sources: Vec<VertexId> = (0..nsrc.min(n) as VertexId).collect();
            for kind in EngineKind::all() {
                let engine = kind.build();
                let mut prof = Profiler::new(DeviceConfig::k40());
                let gg = GpuGraph::new(&g, &r, &mut prof);
                let run = engine.run_group(&gg, &sources, &mut prof);
                for (j, &s) in sources.iter().enumerate() {
                    assert_eq!(
                        run.instance_depths(j),
                        &reference_bfs(&g, s)[..],
                        "{kind:?} from {s}"
                    );
                }
            }
        });
}
