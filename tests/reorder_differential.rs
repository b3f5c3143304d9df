//! Differential wall for vertex reordering: the CPU engine under every
//! ordering × widths {32, 256} produces depths *and* `traversed_edges`
//! bit-identical to the unreordered run.
//!
//! Why bit-identity is the right pin: a reordered service relabels the
//! CSR once at build, runs the group in permuted space, and maps the
//! depth table back out. BFS depths are a property of the graph, not of
//! its labeling — and `traversed_edges` is derived from depths and
//! out-degrees, both permutation-invariant — so any divergence means the
//! permutation, the relabel, or the map-in/map-out pair dropped or moved
//! a vertex. The wall runs in `ci.sh` under `-O`.

use ibfs_repro::graph::generators::{grid2d, hub_heavy, rmat, RmatParams};
use ibfs_repro::graph::reorder::ReorderKind;
use ibfs_repro::graph::{Csr, VertexId};
use ibfs_repro::ibfs::cpu::{CpuIbfs, CpuRun};
use ibfs_repro::ibfs::word::WordWidth;

const WIDTHS: [WordWidth; 2] = [WordWidth::W32, WordWidth::W256];
const ORDERINGS: [ReorderKind; 3] =
    [ReorderKind::DegreeDesc, ReorderKind::HubCluster, ReorderKind::Rcm];

fn seeded_graphs() -> Vec<(String, Csr)> {
    vec![
        // Power-law hubs: the ordering target.
        ("rmat".to_string(), rmat(8, 8, RmatParams::graph500(), 42)),
        // High-diameter mesh: RCM's home turf, many levels.
        ("mesh".to_string(), grid2d(12, 13)),
        // Adversarial multigraph: one vertex owns >50% of all edges.
        ("hub".to_string(), hub_heavy(600, 5, 11)),
    ]
}

fn run(g: &Csr, r: &Csr, sources: &[VertexId], width: WordWidth, reorder: ReorderKind) -> CpuRun {
    CpuIbfs { threads: 3, width, reorder, ..Default::default() }
        .run_group(g, r, sources)
        .unwrap()
}

/// The full wall: graphs × orderings × widths, depths and traversed_edges
/// bit-identical to the unreordered run.
#[test]
fn reordered_engines_are_bit_identical_to_unreordered() {
    for (name, g) in seeded_graphs() {
        let r = g.reverse();
        let n = g.num_vertices() as VertexId;
        // Dense-ish prefix plus duplicates and the last vertex.
        let sources: Vec<VertexId> = (0..n.min(24)).chain([0, n - 1, 0]).collect();
        for width in WIDTHS {
            if sources.len() > width.bits() as usize {
                continue;
            }
            let plain = run(&g, &r, &sources, width, ReorderKind::None);
            for reorder in ORDERINGS {
                let reordered = run(&g, &r, &sources, width, reorder);
                let what = format!("{name}: width={width} reorder={reorder}");
                assert_eq!(reordered.depths, plain.depths, "{what}: depths diverge");
                assert_eq!(
                    reordered.traversed_edges, plain.traversed_edges,
                    "{what}: traversed_edges diverge"
                );
            }
        }
    }
}

/// Reordering composes with the adaptive direction tuner: both on, across
/// a resident service's first (tuning) groups, results never move.
#[test]
fn reordered_adaptive_service_stays_bit_identical_across_groups() {
    let g = rmat(8, 8, RmatParams::graph500(), 7);
    let r = g.reverse();
    let sources: Vec<VertexId> = (0..32).collect();
    let plain = CpuIbfs { threads: 2, ..Default::default() }
        .run_group(&g, &r, &sources)
        .unwrap();
    for reorder in ORDERINGS {
        let mut svc = CpuIbfs { threads: 2, reorder, adaptive: true, ..Default::default() }
            .service(&g, &r);
        for round in 0..6 {
            let run = svc.run_group(&sources).unwrap();
            assert_eq!(run.depths, plain.depths, "{reorder} round {round}");
            assert_eq!(run.traversed_edges, plain.traversed_edges, "{reorder} round {round}");
        }
    }
}
