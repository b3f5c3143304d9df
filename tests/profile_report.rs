//! Schema and accounting walls for the engine profiler's ProfileReport.
//!
//! The profiler is observability infrastructure: if its numbers drift
//! from what the engines actually did, every dashboard and overhead gate
//! built on it lies silently. These tests pin the three contracts the
//! rest of the repo leans on:
//!
//! 1. The JSON document round-trips exactly and rejects documents from a
//!    newer schema (`profile_version` is a hard gate, not a hint).
//! 2. Chrome trace export stays loadable: a JSON array of complete
//!    `"ph":"X"` events whose pid/tid/ts/dur mirror the records.
//! 3. The barrier accounting identity: for every phase a pool engine
//!    closes with `end_phase`, each lane's body record plus its
//!    synthesized `barrier_wait` sum to the same phase wall clock — the
//!    per-lane totals agree across lanes to float tolerance. This is the
//!    invariant that makes "barrier share" a meaningful number.

use ibfs_repro::graph::generators::{rmat, RmatParams};
use ibfs_repro::graph::VertexId;
use ibfs_repro::ibfs::cpu::{CpuOptions, CpuService};
use ibfs_repro::obs::{
    EngineProfiler, PhaseRecord, ProfPhase, ProfileReport, PROFILE_SCHEMA_VERSION,
};
use ibfs_repro::util::prop::Prop;
use ibfs_repro::util::{FromJson, Json, ToJson};

/// Runs a seeded R-MAT group through the profiled CPU engine and returns
/// the frozen report.
fn profiled_report(scale: u32, seed: u64, threads: usize) -> ProfileReport {
    let g = rmat(scale, 8, RmatParams::graph500(), seed);
    let r = g.reverse();
    let prof = EngineProfiler::shared();
    let n = g.num_vertices() as VertexId;
    let sources: Vec<VertexId> = (0..16.min(n)).collect();
    let mut svc = CpuService::new(&g, &r, CpuOptions { threads, ..Default::default() });
    svc.set_profiler(prof.clone());
    svc.run_group(&sources).expect("profiled run");
    prof.report("profile-report-test")
}

#[test]
fn report_round_trips_through_json_exactly() {
    let report = profiled_report(8, 7, 2);
    report.validate().expect("fresh report validates");
    assert!(!report.records.is_empty());

    let text = report.to_json().to_string_pretty();
    let parsed = ProfileReport::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
    assert_eq!(parsed.schema_version, PROFILE_SCHEMA_VERSION);
    assert_eq!(parsed.source, report.source);
    assert_eq!(parsed.records.len(), report.records.len());
    // Records carry f64 times; the codec prints them losslessly, so the
    // round trip is exact, not approximate.
    for (a, b) in report.records.iter().zip(&parsed.records) {
        assert_eq!(a, b);
    }
    parsed.validate().expect("round-tripped report validates");
}

#[test]
fn future_schema_versions_are_rejected() {
    let report = profiled_report(7, 11, 2);
    let text = report.to_json().to_string_pretty();
    let newer = text.replacen(
        &format!("\"profile_version\": {PROFILE_SCHEMA_VERSION}"),
        &format!("\"profile_version\": {}", PROFILE_SCHEMA_VERSION + 1),
        1,
    );
    assert_ne!(text, newer, "version field must be present to tamper with");
    let err = ProfileReport::from_json(&Json::parse(&newer).expect("still json")).unwrap_err();
    assert!(err.msg.contains("newer than supported"), "got: {}", err.msg);
}

#[test]
fn validate_rejects_corrupt_documents() {
    let good = profiled_report(7, 3, 2);
    good.validate().expect("baseline validates");

    let mut wrong_version = good.clone();
    wrong_version.schema_version = 0;
    assert!(wrong_version.validate().is_err());

    let mut empty = good.clone();
    empty.records.clear();
    assert!(empty.validate().is_err());

    let mut negative = good.clone();
    negative.records[0].seconds = -1.0;
    assert!(negative.validate().is_err());

    let mut beyond_wall = good.clone();
    beyond_wall.records[0].start_s = good.wall_seconds + 1.0;
    assert!(beyond_wall.validate().is_err());
}

#[test]
fn chrome_trace_is_loadable_and_mirrors_the_records() {
    let report = profiled_report(8, 5, 2);
    let trace = report.to_chrome_trace();
    let Json::Arr(events) = Json::parse(&trace).expect("trace parses") else {
        panic!("chrome trace must be a JSON array");
    };
    assert_eq!(events.len(), report.records.len());
    for (event, record) in events.iter().zip(&report.records) {
        let get = |k: &str| match event {
            Json::Obj(fields) => fields.iter().find(|(n, _)| n == k).map(|(_, v)| v),
            _ => None,
        };
        assert_eq!(get("ph"), Some(&Json::Str("X".to_string())));
        assert_eq!(get("name"), Some(&Json::Str(record.phase.name().to_string())));
        assert_eq!(get("cat"), Some(&Json::Str(record.phase.category().to_string())));
        assert_eq!(get("pid"), Some(&Json::UInt(record.track)));
        assert_eq!(get("tid"), Some(&Json::UInt(record.lane)));
        // Timestamps are microseconds.
        match get("ts") {
            Some(Json::Float(ts)) => assert!((ts - record.start_s * 1e6).abs() < 1e-3),
            other => panic!("ts should be a float, got {other:?}"),
        }
    }
}

/// For each `(track, level, phase)` group that carries synthesized
/// `barrier_wait` records, asserts every lane's `body + wait` equals the
/// same phase wall time, and returns how many groups were checked.
fn assert_barrier_accounting(report: &ProfileReport) -> usize {
    let waits: Vec<&PhaseRecord> =
        report.records.iter().filter(|r| r.phase == ProfPhase::BarrierWait).collect();
    let mut groups = 0usize;
    let mut keys: Vec<(u64, u64, ProfPhase)> = Vec::new();
    for body in &report.records {
        if body.phase == ProfPhase::BarrierWait {
            continue;
        }
        let key = (body.track, body.level, body.phase);
        if keys.contains(&key) {
            continue;
        }
        // All lane bodies of one closed phase share the exact start_s the
        // coordinator handed out; their waits start where each body ends.
        let bodies: Vec<&PhaseRecord> = report
            .records
            .iter()
            .filter(|r| {
                r.phase == body.phase
                    && r.track == body.track
                    && r.level == body.level
                    && r.start_s == body.start_s
            })
            .collect();
        let mut walls: Vec<f64> = Vec::new();
        for b in &bodies {
            let Some(w) = waits.iter().find(|w| {
                w.track == b.track
                    && w.lane == b.lane
                    && w.level == b.level
                    && (w.start_s - (b.start_s + b.seconds)).abs() < 1e-9
            }) else {
                continue;
            };
            walls.push(b.seconds + w.seconds);
        }
        if walls.len() < 2 {
            continue;
        }
        keys.push(key);
        groups += 1;
        let lo = walls.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = walls.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            hi - lo < 1e-9,
            "lanes disagree on the wall clock of {:?} track {} level {}: spread {:.3e}s",
            body.phase,
            body.track,
            body.level,
            hi - lo,
        );
    }
    groups
}

#[test]
fn lane_phase_seconds_account_for_the_phase_wall_clock() {
    Prop::new("lane_phase_seconds_account_for_the_phase_wall_clock").cases(12).run(|rng| {
        let scale = rng.gen_range(7u64..10) as u32;
        let seed = rng.gen_range(0u64..1000);
        let threads = rng.gen_range(2u64..5) as usize;
        let report = profiled_report(scale, seed, threads);
        report.validate().expect("report validates");
        let groups = assert_barrier_accounting(&report);
        assert!(
            groups > 0,
            "expected at least one multi-lane phase group ({threads} threads)"
        );
        // The synthesized waits can never exceed the report's own span.
        let barrier = report.phase_seconds(ProfPhase::BarrierWait);
        assert!(barrier >= 0.0 && barrier.is_finite());
    });
}
