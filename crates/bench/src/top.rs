//! `bfs top`: a live terminal dashboard over metrics snapshots.
//!
//! The serve layer already exports everything an operator needs — SLO
//! gauges, admission counters, latency histograms, profiler phase gauges —
//! as a versioned [`Snapshot`]. This module renders one frame of that
//! surface as plain text; the `bfs top` subcommand polls a snapshot file
//! (e.g. one being rewritten by `serve-bench --metrics-out`) and redraws
//! between ticks. Rendering is pure (`&Snapshot -> String`) so the layout
//! is unit-testable without a terminal; counter *rates* come from the
//! previous frame's snapshot, which is why the renderer takes a pair.

use ibfs_obs::Snapshot;
use std::fmt::Write as _;

/// Extracts the `class="..."` label value from a metric name like
/// `ibfs_slo_availability{class="bulk"}`.
fn class_label(name: &str) -> &str {
    name.split("class=\"").nth(1).and_then(|s| s.split('"').next()).unwrap_or("?")
}

fn fmt_count(v: u64) -> String {
    v.to_string()
}

/// Renders one dashboard frame. `prev` (the previous tick's snapshot)
/// supplies counter deltas; with `None` the delta column shows `-`.
pub fn render_dashboard(prev: Option<&Snapshot>, cur: &Snapshot, tick: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "ibfs top — tick {tick}, {} metrics", cur.metrics.len());

    // SLO surface: one row per class, then the overload flag.
    let _ = writeln!(out, "slo          {:>8} {:>8} {:>8}", "avail", "latency", "burn");
    for m in cur.with_prefix("ibfs_slo_availability{") {
        let class = class_label(&m.name);
        let avail = cur.gauge(&m.name).unwrap_or(f64::NAN);
        let att = cur
            .gauge(&format!("ibfs_slo_latency_attainment{{class=\"{class}\"}}"))
            .unwrap_or(f64::NAN);
        let burn =
            cur.gauge(&format!("ibfs_slo_burn_rate{{class=\"{class}\"}}")).unwrap_or(f64::NAN);
        let _ = writeln!(out, "  {class:<11}{avail:>8.4} {att:>8.4} {burn:>8.2}");
    }
    let overload = cur.gauge("ibfs_slo_overload").unwrap_or(0.0);
    let _ = writeln!(out, "  overload: {}", if overload > 0.0 { "YES" } else { "no" });

    // Admission counters with per-tick deltas.
    let _ = writeln!(out, "serve        {:>12} {:>10}", "total", "delta");
    for name in [
        "ibfs_serve_accepted_total",
        "ibfs_serve_completed_total",
        "ibfs_serve_timeouts_total",
        "ibfs_serve_overloaded_total",
        "ibfs_serve_quota_rejected_total",
    ] {
        let Some(v) = cur.counter(name) else { continue };
        let short = name.trim_start_matches("ibfs_serve_");
        let delta = match prev.and_then(|p| p.counter(name)) {
            Some(p) => format!("+{}", v.saturating_sub(p)),
            None => "-".to_string(),
        };
        let _ = writeln!(out, "  {:<12} {:>11} {:>10}", short, fmt_count(v), delta);
    }

    // Latency quantiles per class (histograms carry absolutes, not rates).
    let _ = writeln!(out, "latency (s)  {:>9} {:>9} {:>9} {:>8}", "p50", "p90", "p99", "count");
    for m in cur.with_prefix("ibfs_serve_latency_seconds{") {
        if let Some(h) = cur.histogram(&m.name) {
            let _ = writeln!(
                out,
                "  {:<11}{:>9.4} {:>9.4} {:>9.4} {:>8}",
                class_label(&m.name),
                h.p50,
                h.p90,
                h.p99,
                h.count
            );
        }
    }

    // Engine profiler gauges: cumulative per-phase seconds, busiest first.
    let records = cur.counter("ibfs_prof_records_total").unwrap_or(0);
    let barrier = cur.gauge("ibfs_prof_barrier_share").unwrap_or(0.0);
    let _ = writeln!(out, "profiler     {records} records, barrier share {barrier:.3}");
    let mut phases: Vec<(String, f64)> = cur
        .with_prefix("ibfs_prof_phase_seconds{")
        .filter_map(|m| Some((class_phase(&m.name).to_string(), cur.gauge(&m.name)?)))
        .filter(|&(_, v)| v > 0.0)
        .collect();
    phases.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (phase, seconds) in phases {
        let _ = writeln!(out, "  {phase:<20} {seconds:>10.4}s");
    }
    out
}

/// Extracts the `phase="..."` label value.
fn class_phase(name: &str) -> &str {
    name.split("phase=\"").nth(1).and_then(|s| s.split('"').next()).unwrap_or("?")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_obs::Registry;
    use std::sync::Arc;

    fn snapshot_with_activity() -> (Snapshot, Snapshot) {
        let r = Arc::new(Registry::new());
        ibfs_serve::slo::register_slo_metrics(&r);
        ibfs_obs::register_prof_metrics(&r);
        let accepted = r.counter("ibfs_serve_accepted_total");
        let latency = r.histogram("ibfs_serve_latency_seconds{class=\"interactive\"}");
        accepted.add(10);
        latency.record(0.005);
        let first = r.snapshot();
        accepted.add(32);
        latency.record(0.020);
        r.gauge("ibfs_prof_phase_seconds{phase=\"top_down_expand\"}").set(1.25);
        r.gauge("ibfs_slo_overload").set(1.0);
        let second = r.snapshot();
        (first, second)
    }

    #[test]
    fn dashboard_renders_slo_serve_and_profiler_sections() {
        let (first, second) = snapshot_with_activity();
        let frame = render_dashboard(Some(&first), &second, 2);
        assert!(frame.contains("ibfs top — tick 2"));
        // Both SLO classes registered eagerly show up with healthy values.
        assert!(frame.contains("interactive"));
        assert!(frame.contains("bulk"));
        assert!(frame.contains("overload: YES"));
        // Counter delta against the previous frame.
        assert!(frame.contains("accepted_total"));
        assert!(frame.contains("+32"));
        // Histogram quantiles and the profiler phase gauge.
        assert!(frame.contains("latency (s)"));
        assert!(frame.contains("top_down_expand"));
    }

    #[test]
    fn serve_rows_read_the_families_the_collector_registers() {
        // A row whose name the serve collector never registers is skipped
        // as absent, so each row must name a registered family.
        let r = Arc::new(Registry::new());
        let _collector =
            ibfs_serve::Collector::new(ibfs_serve::ServeTelemetry::with_registry(r.clone()));
        let frame = render_dashboard(None, &r.snapshot(), 0);
        for row in [
            "accepted_total",
            "completed_total",
            "timeouts_total",
            "overloaded_total",
            "quota_rejected_total",
        ] {
            assert!(frame.contains(&format!("  {row} ")), "no {row} row in:\n{frame}");
        }
    }

    #[test]
    fn first_frame_has_no_deltas_and_hides_idle_phases() {
        let (_, second) = snapshot_with_activity();
        let frame = render_dashboard(None, &second, 0);
        assert!(frame.contains(" -\n") || frame.contains(" -"));
        // Idle phases (gauge still 0) are filtered out of the hot list.
        assert!(!frame.contains("bottom_up_sweep"));
        assert!(frame.contains("top_down_expand"));
    }

    #[test]
    fn label_extractors_tolerate_unlabelled_names() {
        assert_eq!(class_label("ibfs_slo_availability{class=\"bulk\"}"), "bulk");
        assert_eq!(class_label("ibfs_slo_availability"), "?");
        assert_eq!(class_phase("x{phase=\"repair\"}"), "repair");
        assert_eq!(class_phase("x"), "?");
    }
}
