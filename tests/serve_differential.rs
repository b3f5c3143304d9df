//! Differential pinning of the serve path against single-source
//! references.
//!
//! A seeded stream of single-source requests is pushed through the
//! batching front-end from several client threads; every depth array that
//! comes back must be **bit-identical** to [`reference_bfs`] of the same
//! source on the same graph, and so to the frozen pre-pool CPU engine
//! ([`run_cpu_baseline`]), which is checked against it — the batcher, the
//! GroupBy coalescing, the worker hand-off, and the resident CPU services
//! may change *when* and *with whom* a source is traversed, but never the
//! answer. (`tests/engine_correctness.rs` pins the CPU depths to the GPU
//! engines'.) Depth arrays are compared both directly and through the
//! same FNV-1a hash the golden snapshot suite uses.

use ibfs::cpu_baseline::run_cpu_baseline;
use ibfs::direction::DirectionPolicy;
use ibfs_graph::generators::{rmat, RmatParams};
use ibfs_graph::validate::reference_bfs;
use ibfs_graph::{Csr, Depth, VertexId};
use ibfs_serve::{serve, CoalescePolicy, QosPolicy, ServeConfig};
use ibfs_util::rng::Rng;
use std::collections::HashMap;
use std::time::Duration;

/// 64-bit FNV-1a over depth bytes — same machinery as the golden
/// snapshot suite.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The golden graph from `tests/golden_snapshot.rs`.
fn golden_graph() -> Csr {
    rmat(9, 16, RmatParams::graph500(), 42)
}

fn differential_seed() -> u64 {
    std::env::var("IBFS_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Ground truth for one source: `reference_bfs`, with the frozen
/// baseline engine's one-instance run pinned to it.
fn one_shot_depths(g: &Csr, r: &Csr, source: VertexId) -> Vec<Depth> {
    let want = reference_bfs(g, source);
    let baseline =
        run_cpu_baseline(g, r, &[source], DirectionPolicy::default(), 2, true, false, 0);
    assert_eq!(baseline.depths, want, "baseline diverged from reference_bfs for {source}");
    want
}

fn check_stream(policy: CoalescePolicy, clients: usize, per_client: usize) {
    let g = golden_graph();
    let r = g.reverse();
    let n = g.num_vertices() as u32;
    let config = ServeConfig {
        workers: 2,
        max_batch: 16,
        batch_window: Duration::from_micros(200),
        policy,
        ..Default::default()
    };

    // The seeded request stream, fixed up front so the expectation set is
    // independent of scheduling.
    let streams: Vec<Vec<VertexId>> = (0..clients)
        .map(|c| {
            let mut rng = Rng::seed_from_u64(differential_seed() ^ (c as u64 + 1));
            (0..per_client).map(|_| rng.gen_range(0..n)).collect()
        })
        .collect();

    // Ground truth for every distinct source.
    let mut want: HashMap<VertexId, Vec<Depth>> = HashMap::new();
    for &s in streams.iter().flatten() {
        want.entry(s).or_insert_with(|| one_shot_depths(&g, &r, s));
    }

    let (served, report) = serve(&g, &r, config, |h| {
        std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .map(|stream| {
                    s.spawn(move || {
                        stream
                            .iter()
                            .map(|&src| {
                                let resp = h.submit(src).unwrap().wait().unwrap();
                                assert_eq!(resp.source, src);
                                (src, resp.depths)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
    });

    let total = (clients * per_client) as u64;
    assert_eq!(served.len() as u64, total);
    assert_eq!(report.completed, total);
    assert!(report.is_conserved());
    for (source, depths) in &served {
        let expect = &want[source];
        assert_eq!(depths, expect, "serve diverged from one-shot for source {source}");
        assert_eq!(
            fnv1a(depths),
            fnv1a(expect),
            "depth hash diverged for source {source}"
        );
    }
}

#[test]
fn serve_matches_one_shot_runner_arrival_order() {
    // 4 × 30 = 120 seeded requests (the issue's floor is 100).
    check_stream(CoalescePolicy::Arrival, 4, 30);
}

#[test]
fn serve_matches_one_shot_runner_groupby() {
    check_stream(CoalescePolicy::GroupBy, 4, 30);
}

#[test]
fn duplicate_requests_are_bit_identical_for_every_client() {
    // Nine concurrent clients ask for the same source: duplicates that
    // meet in one window share its traversal instance, the rest ride
    // later batches, and every one of the nine answers must be
    // bit-identical to the reference.
    let g = golden_graph();
    let r = g.reverse();
    let source: VertexId = 7;
    let want = one_shot_depths(&g, &r, source);
    let clients = 9usize;
    let config = ServeConfig {
        workers: 2,
        max_batch: 16,
        batch_window: Duration::from_millis(100),
        ..Default::default()
    };
    let (responses, report) = serve(&g, &r, config, |h| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|_| s.spawn(move || h.submit(source).unwrap().wait().unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        })
    });
    assert_eq!(report.completed, clients as u64);
    assert!(report.is_conserved());
    assert_eq!(responses.len(), clients);
    for resp in &responses {
        assert_eq!(resp.source, source);
        assert!(!resp.from_cache);
        assert_eq!(resp.depths, want, "duplicate diverged from one-shot");
        assert_eq!(fnv1a(&resp.depths), fnv1a(&want), "duplicate hash diverged");
    }
}

#[test]
fn cache_hits_are_bit_identical_to_fresh_traversals() {
    // Ten distinct sources traversed twice in sequence: the first pass
    // fills the cache, the second pass must be answered from it with the
    // exact same bytes (and without riding any batch).
    let g = golden_graph();
    let r = g.reverse();
    let sources: Vec<VertexId> = (0..10).collect();
    let want: HashMap<VertexId, Vec<Depth>> =
        sources.iter().map(|&s| (s, one_shot_depths(&g, &r, s))).collect();
    let config = ServeConfig {
        workers: 2,
        max_batch: 16,
        batch_window: Duration::from_micros(200),
        qos: QosPolicy::default().with_cache(64),
        ..Default::default()
    };
    let ((first, second), report) = serve(&g, &r, config, |h| {
        let run = |sources: &[VertexId]| {
            sources
                .iter()
                .map(|&s| h.submit(s).unwrap().wait().unwrap())
                .collect::<Vec<_>>()
        };
        (run(&sources), run(&sources))
    });
    assert_eq!(report.completed, 20);
    assert_eq!(report.cache_hits, 10);
    assert_eq!(report.cache_misses, 10);
    assert!(report.is_conserved());
    for (pass, resps) in [(&first, false), (&second, true)] {
        for resp in pass.iter() {
            assert_eq!(resp.from_cache, resps);
            assert_eq!(resp.depths, want[&resp.source], "cache diverged from one-shot");
            assert_eq!(fnv1a(&resp.depths), fnv1a(&want[&resp.source]));
        }
    }
    for resp in &second {
        assert_eq!(resp.batch, 0, "cache hits never ride a batch");
    }
}
