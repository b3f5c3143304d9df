//! Round-trip contract for every type the workspace serializes as JSON:
//! `decode(encode(x))` must reproduce `x` exactly. Types without `PartialEq`
//! are compared through their re-encoded JSON text, which is canonical here
//! (the writer emits fields in declaration order).

use ibfs_repro::cluster::{ClusterRun, DeviceRun};
use ibfs_repro::gpu_sim::{Counters, DeviceConfig, PhaseKind};
use ibfs_repro::graph::EdgeList;
use ibfs_repro::ibfs::direction::{Direction, DirectionPolicy};
use ibfs_repro::ibfs::engine::{EngineKind, LevelStats};
use ibfs_repro::ibfs::metrics::MeanStd;
use ibfs_repro::util::{FromJson, Json, ToJson};

/// encode → parse → decode → encode, checking both text stability and that
/// the decoded value re-encodes identically (value-level round trip for
/// types without `PartialEq`).
fn round_trip_text<T: ToJson + FromJson>(value: &T) -> T {
    let text = value.to_json().to_string();
    let parsed = Json::parse(&text).expect("serialized JSON must parse");
    let back = T::from_json(&parsed).expect("parsed JSON must decode");
    assert_eq!(back.to_json().to_string(), text, "re-encode must be stable");
    // Pretty form must parse back to the same document too.
    let pretty = value.to_json().to_string_pretty();
    assert_eq!(Json::parse(&pretty).unwrap(), parsed);
    back
}

#[test]
fn figure_result_round_trips() {
    use ibfs_bench::FigureResult;
    let mut r = FigureResult::new("fig9", "GroupBy \"sharing\"", &["graph", "SD"]);
    r.push_row(vec!["LJ".to_string(), "12.5".to_string()]);
    r.push_row(vec!["KG-unicode \u{2713}".to_string(), "3.0".to_string()]);
    r.notes.push("quotes \" and \\ backslashes \n newlines".to_string());
    let back = round_trip_text(&r);
    assert_eq!(back.id, r.id);
    assert_eq!(back.rows, r.rows);
    assert_eq!(back.notes, r.notes);

    // The artifact is a *list* of results; the Vec impl must round-trip too.
    let list = vec![r.clone(), back];
    let text = list.to_json().to_string();
    let again = Vec::<FigureResult>::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(again.len(), 2);
    assert_eq!(again[0].rows, r.rows);
}

#[test]
fn profiler_counters_round_trip() {
    let c = Counters {
        global_load_transactions: u64::MAX,
        global_store_transactions: 1,
        global_load_bytes: u64::MAX - 1,
        global_store_bytes: 0,
        global_load_requests: 123,
        global_store_requests: 456,
        atomic_transactions: 789,
        shared_load_ops: 10,
        shared_store_ops: 11,
        lane_instructions: 1 << 62,
    };
    assert_eq!(round_trip_text(&c), c);
    assert_eq!(round_trip_text(&Counters::default()), Counters::default());
}

#[test]
fn device_config_round_trips() {
    for cfg in [DeviceConfig::k40(), DeviceConfig::k20()] {
        let back = round_trip_text(&cfg);
        assert_eq!(back.sm_count, cfg.sm_count);
        assert_eq!(back.global_mem_bytes, cfg.global_mem_bytes);
        assert_eq!(back.mem_bytes_per_cycle.to_bits(), cfg.mem_bytes_per_cycle.to_bits());
        assert_eq!(
            back.atomic_penalty_cycles.to_bits(),
            cfg.atomic_penalty_cycles.to_bits()
        );
    }
}

#[test]
fn scaling_reports_round_trip() {
    let run = ClusterRun {
        gpus: 2,
        devices: vec![
            DeviceRun { device: 0, groups: 3, instances: 192, sim_seconds: 0.25, traversed_edges: 1_000_000 },
            DeviceRun { device: 1, groups: 2, instances: 128, sim_seconds: 0.125, traversed_edges: 999_999 },
        ],
        makespan_seconds: 0.25,
        traversed_edges: 1_999_999,
    };
    let back = round_trip_text(&run);
    assert_eq!(back.gpus, run.gpus);
    assert_eq!(back.devices.len(), 2);
    assert_eq!(back.devices[1].instances, 128);
    assert_eq!(back.makespan_seconds.to_bits(), run.makespan_seconds.to_bits());
    assert_eq!(back.traversed_edges, run.traversed_edges);
}

#[test]
fn edge_list_round_trips_as_json() {
    let el = EdgeList {
        num_vertices: 5,
        edges: vec![(0, 1), (1, 2), (4, 0)],
    };
    let back = round_trip_text(&el);
    assert_eq!(back.num_vertices, el.num_vertices);
    assert_eq!(back.edges, el.edges);
}

#[test]
fn level_stats_round_trip() {
    let s = LevelStats {
        level: 3,
        direction: Direction::BottomUp,
        unique_frontiers: 42,
        instance_frontiers: 420,
        edges_inspected: 1 << 40,
        early_terminations: 7,
    };
    assert_eq!(round_trip_text(&s), s);
}

#[test]
fn mean_std_round_trips() {
    let m = MeanStd { mean: 1.5, stddev: 0.25 };
    assert_eq!(round_trip_text(&m), m);
    // Whole floats must come back as floats, not integers.
    let w = MeanStd { mean: 2.0, stddev: 0.0 };
    assert_eq!(round_trip_text(&w), w);
}

#[test]
fn enums_round_trip_every_variant() {
    for d in [Direction::TopDown, Direction::BottomUp] {
        assert_eq!(round_trip_text(&d), d);
    }
    for k in [
        EngineKind::Sequential,
        EngineKind::Naive,
        EngineKind::Joint,
        EngineKind::Bitwise,
        EngineKind::BitwiseMsBfsStyle,
        EngineKind::Spmm,
    ] {
        assert_eq!(round_trip_text(&k), k);
    }
    for p in [
        PhaseKind::Expansion,
        PhaseKind::Inspection,
        PhaseKind::FrontierGeneration,
        PhaseKind::Other,
    ] {
        assert_eq!(round_trip_text(&p), p);
    }
}

#[test]
fn serve_metrics_round_trip() {
    use ibfs_repro::ibfs::metrics::BatchMetrics;
    use ibfs_repro::serve::ServeStats;

    let b = BatchMetrics {
        batch: 7,
        device: 1,
        requests: 12,
        occupancy: 0.75,
        queue_wait_s: 0.002,
        sharing_degree: 3.5,
        sim_seconds: 0.125,
        traversed_edges: 1 << 30,
        teps: 8.0e9,
    };
    assert_eq!(round_trip_text(&b), b);

    let s = ServeStats::of(&[b, BatchMetrics { batch: 8, requests: 4, ..b }]);
    assert_eq!(round_trip_text(&s), s);
    assert_eq!(round_trip_text(&ServeStats::default()), ServeStats::default());
}

#[test]
fn loadgen_summary_round_trips() {
    use ibfs_bench::loadgen::LoadGenSummary;
    let s = LoadGenSummary {
        issued: 256,
        completed: 250,
        timeouts: 4,
        overloaded: 2,
        latency_s: MeanStd { mean: 0.004, stddev: 0.001 },
        wall_seconds: 1.5,
        throughput_rps: 166.7,
        num_batches: 32,
        occupancy: 0.9,
        sharing_degree: 4.2,
        teps: 1.0e10,
        quota_rejected: 3,
        cache_hits: 40,
        cache_hit_rate: 0.16,
        interactive_p99_s: 0.008,
        bulk_p99_s: 0.02,
    };
    assert_eq!(round_trip_text(&s), s);
}

/// A copy of `j` with object field `key` replaced (or appended).
fn set_field(j: &Json, key: &str, value: Json) -> Json {
    let Json::Obj(fields) = j else { panic!("expected an object") };
    let mut fields: Vec<(String, Json)> =
        fields.iter().filter(|(k, _)| k != key).cloned().collect();
    fields.push((key.to_string(), value));
    Json::Obj(fields)
}

fn sample_level_event() -> ibfs_repro::ibfs::trace::TraversalEvent {
    ibfs_repro::ibfs::trace::TraversalEvent {
        group: 3,
        batch: 17,
        level: 4,
        direction: Direction::BottomUp,
        unique_frontiers: 1000,
        instance_frontiers: 12_345,
        edges_inspected: 1 << 33,
        early_terminations: 99,
        load_transactions: 1 << 20,
        store_transactions: 1 << 19,
        atomic_transactions: 512,
        sim_seconds: 0.0015,
        wall_seconds: 0.0,
    }
}

#[test]
fn traversal_event_round_trips_with_schema_version() {
    use ibfs_repro::ibfs::trace::{TraversalEvent, TRACE_SCHEMA_VERSION};

    let e = sample_level_event();
    assert_eq!(round_trip_text(&e), e);

    // Every encoded line is self-describing: version + kind tag.
    let json = e.to_json();
    assert_eq!(json.get("schema_version").and_then(Json::as_u64), Some(TRACE_SCHEMA_VERSION));
    assert_eq!(json.get("kind").and_then(Json::as_str), Some("level"));

    // v1 lines (no version, no batch) still decode, defaulting batch to 0.
    let v1 = r#"{"group":1,"level":2,"direction":"TopDown","unique_frontiers":5,
        "instance_frontiers":6,"edges_inspected":7,"early_terminations":0,
        "load_transactions":1,"store_transactions":2,"atomic_transactions":3,
        "sim_seconds":0.5}"#;
    let old = TraversalEvent::from_json(&Json::parse(v1).unwrap()).unwrap();
    assert_eq!(old.batch, 0);
    assert_eq!(old.level, 2);
    assert_eq!(old.wall_seconds, 0.0);

    // A CPU level carries wall time only and round-trips as such; its v2
    // form (no wall_seconds) still decodes, with 0 in the field.
    let cpu = TraversalEvent { sim_seconds: 0.0, wall_seconds: 4.5e-4, ..e };
    assert_eq!(round_trip_text(&cpu), cpu);
    let v2 = set_field(&cpu.to_json(), "schema_version", Json::UInt(2));
    let Json::Obj(fields) = v2 else { unreachable!() };
    let v2 = Json::Obj(fields.into_iter().filter(|(k, _)| k != "wall_seconds").collect());
    assert_eq!(
        TraversalEvent::from_json(&v2).unwrap(),
        TraversalEvent { wall_seconds: 0.0, ..cpu }
    );

    // Lines from a future schema are rejected, not silently misread.
    let future = set_field(&json, "schema_version", Json::UInt(TRACE_SCHEMA_VERSION + 1));
    assert!(TraversalEvent::from_json(&future).is_err());
}

#[test]
fn span_event_round_trips_and_omits_missing_correlation() {
    use ibfs_repro::ibfs::trace::TraceRecord;
    use ibfs_repro::obs::{SpanEvent, SpanStage, NO_CORRELATION};

    let admitted = SpanEvent::admission(7, SpanStage::Admitted, 42, 0.001);
    let back = round_trip_text(&admitted);
    assert_eq!(back, admitted);
    // Unset batch/device are omitted from the wire form, not encoded as MAX.
    let text = admitted.to_json().to_string();
    assert!(!text.contains("batch"), "unset batch leaked into {text}");
    assert!(!text.contains("device"), "unset device leaked into {text}");
    assert_eq!(back.batch, NO_CORRELATION);
    assert_eq!(back.device, NO_CORRELATION);

    let completed =
        SpanEvent::admission(7, SpanStage::Completed, 42, 0.004).with_batch(3).with_device(1);
    assert_eq!(round_trip_text(&completed), completed);

    // The merged stream dispatches on the kind tag.
    for record in [TraceRecord::Span(completed), TraceRecord::Level(sample_level_event())] {
        assert_eq!(round_trip_text(&record), record);
    }
}

#[test]
fn metrics_snapshot_round_trips() {
    use ibfs_repro::obs::{Histogram, Registry, Snapshot, SNAPSHOT_SCHEMA_VERSION};

    let registry = Registry::new();
    registry.counter("ibfs_test_total").add(41);
    registry.gauge("ibfs_test_depth").set(2.5);
    let h: std::sync::Arc<Histogram> = registry.histogram("ibfs_test_seconds");
    for v in [0.001, 0.002, 0.004, 0.008] {
        h.record(v);
    }
    let snap = registry.snapshot();
    let back = round_trip_text(&snap);
    assert_eq!(back, snap);
    assert_eq!(back.schema_version, SNAPSHOT_SCHEMA_VERSION);
    assert_eq!(back.counter("ibfs_test_total"), Some(41));

    // Future snapshot versions are rejected.
    let future =
        set_field(&snap.to_json(), "snapshot_version", Json::UInt(SNAPSHOT_SCHEMA_VERSION + 1));
    assert!(Snapshot::from_json(&future).is_err());
}

#[test]
fn direction_policy_round_trips_including_infinity() {
    let beamer = DirectionPolicy::beamer();
    let back = round_trip_text(&beamer);
    assert_eq!(back.alpha.to_bits(), beamer.alpha.to_bits());
    assert_eq!(back.beta.to_bits(), beamer.beta.to_bits());

    // top_down_only carries alpha = +inf; the codec writes non-finite floats
    // as strings and must read them back.
    let td = DirectionPolicy::top_down_only();
    assert!(td.alpha.is_infinite());
    let back = round_trip_text(&td);
    assert!(back.alpha.is_infinite() && back.alpha > 0.0);
    assert_eq!(back.beta.to_bits(), td.beta.to_bits());
}
