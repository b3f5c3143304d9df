//! End-to-end telemetry contract: one seeded serve run must produce a
//! metrics snapshot covering every layer (serve latency and batch-shape
//! histograms, core per-level counters) and a trace stream in which a single request can be followed by its
//! `RequestId` through admission → batching → dispatch → completion, down
//! to the per-level traversal events of the batch that answered it.

use ibfs_bench::loadgen::{run_loadgen_with, LoadGenConfig};
use ibfs_repro::graph::generators::{rmat, RmatParams};
use ibfs_repro::ibfs::trace::{TraceLog, TraceRecord, TraversalEvent};
use ibfs_repro::obs::{Registry, SpanEvent, SpanStage, NO_CORRELATION};
use ibfs_repro::serve::{ServeConfig, ServeTelemetry};
use std::time::Duration;

fn traced_run() -> (ibfs_bench::loadgen::LoadGenResult, Vec<TraceRecord>) {
    let g = rmat(9, 8, RmatParams::graph500(), 17);
    let r = g.reverse();
    let cfg = LoadGenConfig {
        clients: 3,
        requests_per_client: 8,
        seed: 99,
        serve: ServeConfig {
            batch_window: Duration::from_micros(100),
            ..Default::default()
        },
        ..Default::default()
    };
    let log = TraceLog::new();
    let telemetry = ServeTelemetry::with_registry(Registry::shared()).traced(log.clone());
    let res = run_loadgen_with(&g, &r, &cfg, telemetry);
    let records = log.records();
    (res, records)
}

fn spans_of(records: &[TraceRecord], request: u64) -> Vec<SpanEvent> {
    records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Span(s) if s.request == request => Some(*s),
            _ => None,
        })
        .collect()
}

#[test]
fn one_request_is_traceable_from_admission_to_traversal() {
    let (res, records) = traced_run();
    assert_eq!(res.summary.completed, 24, "closed loop should complete everything");

    // Follow the first completed request.
    let completed: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Span(s) if s.stage == SpanStage::Completed => Some(s.request),
            _ => None,
        })
        .collect();
    assert_eq!(completed.len(), 24);
    let request = completed[0];
    let spans = spans_of(&records, request);

    // Lifecycle: Admitted → Batched → Dispatched → Completed, in order.
    let stages: Vec<SpanStage> = spans.iter().map(|s| s.stage).collect();
    assert_eq!(
        stages,
        vec![SpanStage::Admitted, SpanStage::Batched, SpanStage::Dispatched, SpanStage::Completed],
        "request {request} lifecycle: {spans:?}"
    );

    // Timestamps never run backwards, and the source never changes.
    for w in spans.windows(2) {
        assert!(w[1].t_s >= w[0].t_s, "time went backwards in {spans:?}");
        assert_eq!(w[1].source, w[0].source);
    }

    // Correlation appears exactly when it is known: admission has none, the
    // batch seq arrives at Batched, Dispatched repeats it before any worker
    // has taken the batch, and the terminal span names the worker that ran
    // it.
    let [admitted, batched, dispatched, done] = spans[..] else { unreachable!() };
    assert_eq!(admitted.batch, NO_CORRELATION);
    assert_eq!(admitted.device, NO_CORRELATION);
    assert_ne!(batched.batch, NO_CORRELATION);
    assert!(batched.batch >= 1, "batch seqs are 1-based");
    assert_eq!(dispatched.batch, batched.batch);
    assert_eq!(dispatched.device, NO_CORRELATION);
    assert_eq!(done.batch, batched.batch);
    assert!(done.device < ServeConfig::default().workers as u64, "worker {}", done.device);

    // The batch that served this request left per-level traversal events
    // stamped with the same batch seq.
    let levels: Vec<TraversalEvent> = records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Level(e) if e.batch == batched.batch => Some(*e),
            _ => None,
        })
        .collect();
    assert!(!levels.is_empty(), "no level events for batch {}", batched.batch);
    assert!(levels.iter().any(|e| e.edges_inspected > 0));

    // Every other completed request correlates too.
    for req in completed {
        let spans = spans_of(&records, req);
        assert_eq!(spans.last().unwrap().stage, SpanStage::Completed);
        assert_ne!(spans.last().unwrap().batch, NO_CORRELATION);
    }
}

#[test]
fn snapshot_covers_every_layer_and_matches_the_trace() {
    let (res, records) = traced_run();
    let snap = &res.report.snapshot;

    // Serve layer: counters conserve, latency histogram counts completions.
    assert_eq!(snap.counter("ibfs_serve_accepted_total"), Some(24));
    assert_eq!(snap.counter("ibfs_serve_completed_total"), Some(24));
    let latency = snap.histogram("ibfs_serve_latency_seconds").expect("latency hist");
    assert_eq!(latency.count, 24);
    assert!(latency.is_well_formed(), "bad latency quantiles: {latency:?}");
    let occupancy = snap.histogram("ibfs_serve_batch_occupancy").expect("occupancy hist");
    assert_eq!(occupancy.count, res.report.stats.num_batches);

    // Core layer: the levels counter equals the level events in the trace.
    let level_records =
        records.iter().filter(|r| matches!(r, TraceRecord::Level(_))).count() as u64;
    assert!(level_records > 0);
    assert_eq!(snap.counter("ibfs_core_levels_total"), Some(level_records));

    // The snapshot passes the same validation gate CI runs, and the
    // Prometheus rendering carries every family.
    snap.validate(&[
        "ibfs_serve_accepted_total",
        "ibfs_serve_latency_seconds",
        "ibfs_serve_batch_occupancy",
        "ibfs_core_levels_total",
        "ibfs_core_frontier_size",
    ])
    .expect("snapshot must satisfy the CI telemetry gate");
    let text = snap.render_prometheus();
    for family in ["ibfs_serve_latency_seconds", "ibfs_core_levels_total"] {
        assert!(text.contains(family), "exposition missing {family}:\n{text}");
    }
}
