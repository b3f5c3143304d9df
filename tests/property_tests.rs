//! Property-based tests on the core invariants: BFS depth correctness on
//! arbitrary graphs, CSR/edge-list round-trips, coalescer bounds, grouping
//! partitions, and status-word algebra. Runs on the in-tree harness
//! (`ibfs_util::prop`) with fixed per-property seeds.

use ibfs_repro::graph::validate::{check_depths, reference_bfs};
use ibfs_repro::graph::{Csr, CsrBuilder, EdgeList, VertexId};
use ibfs_repro::gpu_sim::transactions_for_warp;
use ibfs_repro::gpu_sim::{DeviceConfig, Profiler};
use ibfs_repro::ibfs::cpu::{CpuOptions, CpuService};
use ibfs_repro::ibfs::engine::{EngineKind, GpuGraph};
use ibfs_repro::ibfs::groupby::{random_grouping, GroupByConfig, GroupingStrategy};
use ibfs_repro::util::prop::{vec_of, Prop};
use ibfs_repro::util::Rng;

/// A random undirected graph with 2..=40 vertices and up to 120 edges.
fn arb_graph(rng: &mut Rng) -> Csr {
    let n = rng.gen_range(2usize..=40);
    let edges = vec_of(rng, 0..120, |r| {
        (r.gen_range(0..n as u32), r.gen_range(0..n as u32))
    });
    let mut b = CsrBuilder::new(n);
    for (u, v) in edges {
        if u != v {
            b.add_undirected_edge(u, v);
        }
    }
    b.build()
}

#[test]
fn every_engine_matches_reference_on_arbitrary_graphs() {
    Prop::new("every_engine_matches_reference_on_arbitrary_graphs")
        .cases(64)
        .run(|rng| {
            let g = arb_graph(rng);
            let seed = rng.gen_range(0u64..1000);
            let r = g.reverse();
            let n = g.num_vertices();
            let num_sources = (seed as usize % 7 + 1).min(n);
            let sources: Vec<VertexId> = (0..n as VertexId)
                .cycle()
                .skip(seed as usize % n)
                .take(num_sources)
                .collect();
            let mut dedup = sources.clone();
            dedup.sort_unstable();
            dedup.dedup();
            for kind in EngineKind::all() {
                let engine = kind.build();
                let mut prof = Profiler::new(DeviceConfig::k40());
                let gg = GpuGraph::new(&g, &r, &mut prof);
                let run = engine.run_group(&gg, &dedup, &mut prof);
                for (j, &s) in dedup.iter().enumerate() {
                    assert_eq!(
                        run.instance_depths(j),
                        &reference_bfs(&g, s)[..],
                        "engine {kind:?} source {s}"
                    );
                }
            }
        });
}

#[test]
fn cpu_engine_matches_reference_on_arbitrary_graphs() {
    Prop::new("cpu_engine_matches_reference_on_arbitrary_graphs")
        .cases(64)
        .run(|rng| {
            let g = arb_graph(rng);
            let threads = rng.gen_range(1usize..5);
            let r = g.reverse();
            let n = g.num_vertices();
            let sources: Vec<VertexId> = (0..n.min(8) as VertexId).collect();
            let opts = CpuOptions { threads, ..Default::default() };
            let run = CpuService::new(&g, &r, opts).run_group(&sources).unwrap();
            for (j, &s) in sources.iter().enumerate() {
                assert_eq!(run.instance_depths(j), &reference_bfs(&g, s)[..]);
            }
        });
}

#[test]
fn reference_bfs_satisfies_structural_validation() {
    Prop::new("reference_bfs_satisfies_structural_validation")
        .cases(64)
        .run(|rng| {
            let g = arb_graph(rng);
            let r = g.reverse();
            for s in g.vertices() {
                let d = reference_bfs(&g, s);
                assert!(check_depths(&g, &r, s, &d).is_ok());
            }
        });
}

#[test]
fn edge_list_round_trips_through_text_and_csr() {
    Prop::new("edge_list_round_trips_through_text_and_csr")
        .cases(64)
        .run(|rng| {
            let g = arb_graph(rng);
            let el = EdgeList::from(&g);
            let parsed = EdgeList::parse(&el.to_text()).unwrap();
            // Vertex count can shrink if trailing vertices are isolated; the
            // edges themselves must survive.
            assert_eq!(&parsed.edges, &el.edges);
            let back = el.to_csr();
            assert_eq!(
                back.edges().collect::<Vec<_>>(),
                g.edges().collect::<Vec<_>>()
            );
        });
}

#[test]
fn binary_io_round_trips() {
    Prop::new("binary_io_round_trips").cases(64).run(|rng| {
        let g = arb_graph(rng);
        let bytes = ibfs_repro::graph::io::encode(&g);
        let back = ibfs_repro::graph::io::decode(&bytes).unwrap();
        assert_eq!(back, g);
    });
}

#[test]
fn reverse_is_involutive() {
    Prop::new("reverse_is_involutive").cases(64).run(|rng| {
        let g = arb_graph(rng);
        assert_eq!(g.reverse().reverse(), g);
    });
}

#[test]
fn coalescer_bounds() {
    Prop::new("coalescer_bounds").cases(64).run(|rng| {
        let addrs = vec_of(rng, 1..32, |r| r.gen_range(0u64..100_000));
        let elem = [1u32, 4, 8, 16][rng.gen_range(0usize..4)];
        let seg = 32u32;
        let txns = transactions_for_warp(addrs.iter().copied(), elem, seg);
        // At least one transaction for a non-empty request.
        assert!(txns >= 1);
        // At most one segment per lane per element-spanned segment.
        let per_lane = (elem / seg + 2) as u64;
        assert!(txns <= addrs.len() as u64 * per_lane);
        // Order-independent (the hardware coalesces a whole warp at once).
        let mut rev = addrs.clone();
        rev.reverse();
        assert_eq!(txns, transactions_for_warp(rev.into_iter(), elem, seg));
        // Duplicates never increase the count.
        let mut dup = addrs.clone();
        dup.truncate(16);
        let doubled: Vec<u64> = dup.iter().chain(dup.iter()).copied().collect();
        assert_eq!(
            transactions_for_warp(doubled.into_iter(), elem, seg),
            transactions_for_warp(dup.into_iter(), elem, seg)
        );
    });
}

#[test]
fn grouping_is_always_a_partition() {
    Prop::new("grouping_is_always_a_partition").cases(64).run(|rng| {
        let n = rng.gen_range(1usize..200);
        let group_size = rng.gen_range(1usize..64);
        let seed = rng.gen_range(0u64..100);
        let sources: Vec<VertexId> = (0..n as VertexId).collect();
        let grouping = random_grouping(&sources, group_size, seed);
        grouping.validate(&sources, group_size);
    });
}

#[test]
fn outdegree_grouping_is_always_a_partition() {
    Prop::new("outdegree_grouping_is_always_a_partition")
        .cases(64)
        .run(|rng| {
            let g = arb_graph(rng);
            let q = rng.gen_range(1usize..64);
            let sources: Vec<VertexId> = g.vertices().collect();
            let cfg = GroupByConfig::default().with_q(q).with_group_size(8);
            let grouping = GroupingStrategy::OutDegreeRules(cfg).group(&g, &sources);
            grouping.validate(&sources, 8);
        });
}

#[test]
fn sharing_degree_is_bounded_by_group_size() {
    Prop::new("sharing_degree_is_bounded_by_group_size")
        .cases(64)
        .run(|rng| {
            let g = arb_graph(rng);
            let n = g.num_vertices();
            let sources: Vec<VertexId> = (0..n.min(16) as VertexId).collect();
            let engine = EngineKind::Bitwise.build();
            let mut prof = Profiler::new(DeviceConfig::k40());
            let r = g.reverse();
            let gg = GpuGraph::new(&g, &r, &mut prof);
            let run = engine.run_group(&gg, &sources, &mut prof);
            let sd = run.sharing_degree();
            assert!(sd >= 0.0);
            assert!(
                sd <= sources.len() as f64 + 1e-9,
                "SD {} > N {}",
                sd,
                sources.len()
            );
        });
}
