//! `metrics-check` — CI gate over a metrics snapshot.
//!
//! ```text
//! metrics-check <SNAPSHOT.json> [REQUIRED_NAME ...]
//! ```
//!
//! Parses the versioned JSON snapshot that `bfs serve-bench --metrics-out`
//! writes and validates it: the required metric names are present (a
//! trailing `*` matches any name with that prefix, covering labelled
//! families like `ibfs_slo_burn_rate{class="bulk"}`), every histogram
//! is well-formed (monotone p50 ≤ p90 ≤ p99 inside `[min, max]`, count and
//! sum consistent), a snapshot that recorded batches also recorded their
//! levels (`ibfs_core_levels_total` above 0), and the Prometheus rendering
//! re-parses as plain floats. With no explicit names it checks the default
//! serve/core/cpu set.
//! Exits non-zero with a message on the first violation, so `ci.sh` can
//! gate on telemetry without scraping anything.

use ibfs_obs::Snapshot;
use ibfs_util::{FromJson, Json};
use std::process::ExitCode;

/// The default required set: at least one metric from every layer the
/// serve-bench path is supposed to light up.
const DEFAULT_REQUIRED: &[&str] = &[
    "ibfs_serve_accepted_total",
    "ibfs_serve_completed_total",
    "ibfs_serve_latency_seconds",
    "ibfs_serve_latency_seconds{class=\"interactive\"}",
    "ibfs_serve_latency_seconds{class=\"bulk\"}",
    "ibfs_serve_queue_wait_seconds",
    "ibfs_serve_batch_occupancy",
    "ibfs_serve_quota_rejected_total",
    "ibfs_serve_cache_*",
    "ibfs_core_levels_total",
    "ibfs_core_frontier_size",
    "ibfs_cpu_groups_total",
    "ibfs_cpu_levels_total",
    "ibfs_prof_records_total",
    "ibfs_prof_phase_seconds*",
    "ibfs_prof_barrier_share",
    "ibfs_slo_availability*",
    "ibfs_slo_latency_attainment*",
    "ibfs_slo_burn_rate*",
    "ibfs_slo_overload",
];

/// Fails a snapshot whose serve batches left no level in the registry:
/// every batch runs at least one level, and each level reaches
/// `ibfs_core_levels_total` through the engine's trace sink.
fn check_batches_have_levels(snapshot: &Snapshot) -> Result<(), String> {
    let batches = snapshot.histogram("ibfs_serve_batch_occupancy").map_or(0, |h| h.count);
    let levels = snapshot.counter("ibfs_core_levels_total").unwrap_or(0);
    if batches > 0 && levels == 0 {
        return Err(format!("{batches} batches ran but ibfs_core_levels_total is 0"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((path, names)) = args.split_first() else {
        eprintln!("usage: metrics-check <SNAPSHOT.json> [REQUIRED_NAME ...]");
        return ExitCode::from(2);
    };
    let required: Vec<&str> = if names.is_empty() {
        DEFAULT_REQUIRED.to_vec()
    } else {
        names.iter().map(|s| s.as_str()).collect()
    };

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("metrics-check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("metrics-check: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let snapshot = match Snapshot::from_json(&json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("metrics-check: {path} is not a metrics snapshot: {e}");
            return ExitCode::FAILURE;
        }
    };
    let checked = snapshot.validate(&required).and_then(|()| check_batches_have_levels(&snapshot));
    if let Err(msg) = checked {
        eprintln!("metrics-check: {path}: {msg}");
        return ExitCode::FAILURE;
    }
    // The text exposition must round-trip as locale-stable floats.
    for line in snapshot.render_prometheus().lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let Some((_, value)) = line.rsplit_once(' ') else {
            eprintln!("metrics-check: malformed exposition line: {line}");
            return ExitCode::FAILURE;
        };
        if value.parse::<f64>().is_err() {
            eprintln!("metrics-check: non-numeric exposition value: {line}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "metrics-check: {path}: {} metrics ok ({} required names)",
        snapshot.metrics.len(),
        required.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_obs::Registry;

    /// A snapshot with `batches` occupancy samples and `levels` core levels.
    fn snapshot(batches: usize, levels: u64) -> Snapshot {
        let registry = Registry::new();
        for _ in 0..batches {
            registry.histogram("ibfs_serve_batch_occupancy").record(0.5);
        }
        registry.counter("ibfs_core_levels_total").add(levels);
        registry.snapshot()
    }

    #[test]
    fn batches_without_levels_fail() {
        let err = check_batches_have_levels(&snapshot(3, 0)).unwrap_err();
        assert!(err.contains("3 batches"), "{err}");
        // The counter missing altogether reads as zero.
        let registry = Registry::new();
        registry.histogram("ibfs_serve_batch_occupancy").record(1.0);
        assert!(check_batches_have_levels(&registry.snapshot()).is_err());
    }

    #[test]
    fn batches_with_levels_and_idle_snapshots_pass() {
        assert_eq!(check_batches_have_levels(&snapshot(3, 12)), Ok(()));
        assert_eq!(check_batches_have_levels(&snapshot(0, 0)), Ok(()));
        assert_eq!(check_batches_have_levels(&Registry::new().snapshot()), Ok(()));
    }
}
