//! `bfs perf-diff`: compare two `BENCH_cpu.json` documents.
//!
//! The committed benchmark report is the repo's perf trajectory record;
//! this module turns a pair of reports into a reviewable table and a CI
//! verdict. Rows are matched by thread count, and the one compared
//! quantity is each row's same-run speedup: the engine's TEPS over the
//! frozen baseline's, both measured in the same run. A slow or busy host
//! slows both paths, so its speed divides out of the ratio; a slowdown in
//! code both paths share (`Csr`, the generators) divides out too.
//!
//! A row fails when `new_speedup / base_speedup` leaves
//! `[1 - noise/100, 1 + noise/100]`. The band is two-sided on purpose: a
//! record that has gone stale (the engine got faster since it was
//! written) would otherwise hide a later regression. A thread count that
//! is in the base report but missing from the new one fails as well.
//!
//! `ci.sh` uses the band twice: the default [`DEFAULT_NOISE_PCT`] for the
//! committed record against a fresh run, and 5% for a profiled run
//! against an unprofiled one (the baseline is never profiled, so that
//! ratio measures the profiler's overhead alone).

use crate::cpubench::{validate_report_json, CpuBenchReport};
use std::fmt::Write as _;

/// Default allowed change of the speedup, in percent either way.
pub const DEFAULT_NOISE_PCT: f64 = 30.0;

/// One thread count present in both reports.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Worker threads.
    pub threads: u64,
    /// Speedup in the base (older / committed) report.
    pub base_speedup: f64,
    /// Speedup in the new (candidate) report.
    pub new_speedup: f64,
    /// `new_speedup / base_speedup`.
    pub ratio: f64,
    /// The ratio left the noise band, in either direction.
    pub outside: bool,
}

/// The full comparison of two validated reports.
#[derive(Clone, Debug)]
pub struct PerfDiff {
    /// Matched rows, in base-report order.
    pub rows: Vec<DiffRow>,
    /// Thread counts present in base but absent in new: a disappeared row
    /// can hide a regression, so `--check` fails on these.
    pub missing: Vec<u64>,
    /// Thread counts present only in the new report (informational).
    pub added: Vec<u64>,
    /// The noise band the rows were judged against, in percent.
    pub noise_pct: f64,
}

impl PerfDiff {
    /// Rows whose speedup moved outside the noise band.
    pub fn failures(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.outside).collect()
    }

    /// The CI verdict: every row inside the band and none disappeared.
    pub fn passes(&self) -> bool {
        self.failures().is_empty() && self.missing.is_empty()
    }
}

/// Compares two already-validated reports. `noise_pct` is the allowed
/// change of each row's speedup, in percent either way.
pub fn diff_reports(base: &CpuBenchReport, new: &CpuBenchReport, noise_pct: f64) -> PerfDiff {
    let band = noise_pct / 100.0;
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for b in &base.rows {
        match new.rows.iter().find(|n| n.threads == b.threads) {
            Some(n) => {
                let ratio = n.speedup / b.speedup;
                rows.push(DiffRow {
                    threads: b.threads,
                    base_speedup: b.speedup,
                    new_speedup: n.speedup,
                    ratio,
                    outside: (ratio - 1.0).abs() > band,
                });
            }
            None => missing.push(b.threads),
        }
    }
    let added = new
        .rows
        .iter()
        .filter(|n| !base.rows.iter().any(|b| b.threads == n.threads))
        .map(|n| n.threads)
        .collect();
    PerfDiff { rows, missing, added, noise_pct }
}

/// Parses, validates, and compares two serialized reports. The labels
/// (usually file paths) only flavor the error messages.
pub fn diff_report_texts(
    base_text: &str,
    base_label: &str,
    new_text: &str,
    new_label: &str,
    noise_pct: f64,
) -> Result<PerfDiff, String> {
    let base = validate_report_json(base_text).map_err(|e| format!("{base_label}: {e}"))?;
    let new = validate_report_json(new_text).map_err(|e| format!("{new_label}: {e}"))?;
    Ok(diff_reports(&base, &new, noise_pct))
}

/// Renders the comparison as the table `bfs perf-diff` prints.
pub fn render_diff(diff: &PerfDiff, base_label: &str, new_label: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perf-diff: base={base_label} new={new_label} noise=±{:.1}% on the speedup over baseline",
        diff.noise_pct
    );
    let _ = writeln!(
        out,
        "  {:>7} {:>13} {:>13} {:>7}  status",
        "threads", "base speedup", "new speedup", "ratio"
    );
    for r in &diff.rows {
        let _ = writeln!(
            out,
            "  {:>7} {:>12.2}x {:>12.2}x {:>6.3}x  {}",
            r.threads,
            r.base_speedup,
            r.new_speedup,
            r.ratio,
            match (r.outside, r.ratio < 1.0) {
                (false, _) => "ok",
                (true, true) => "SLOWER",
                (true, false) => "FASTER",
            }
        );
    }
    for t in &diff.missing {
        let _ = writeln!(out, "  threads={t}: in base but MISSING from new");
    }
    for t in &diff.added {
        let _ = writeln!(out, "  threads={t}: new row (no base to compare)");
    }
    let _ = writeln!(
        out,
        "  verdict: {} ({} compared, {} outside the band, {} missing)",
        if diff.passes() { "PASS" } else { "FAIL" },
        diff.rows.len(),
        diff.failures().len(),
        diff.missing.len(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpubench::{report_to_json, CpuBenchRow, SCHEMA_VERSION};

    /// A report whose rows run at `(threads, baseline TEPS, engine TEPS)`.
    fn report(rows: &[(u64, f64, f64)]) -> CpuBenchReport {
        let edges = 168_870u64;
        let rows = rows
            .iter()
            .map(|&(threads, baseline_teps, engine_teps)| CpuBenchRow {
                threads,
                traversed_edges: edges,
                baseline_seconds: edges as f64 / baseline_teps,
                baseline_teps,
                engine_seconds: edges as f64 / engine_teps,
                engine_teps,
                speedup: engine_teps / baseline_teps,
            })
            .collect();
        CpuBenchReport {
            schema_version: SCHEMA_VERSION,
            graph: "rmat".to_string(),
            scale: 9,
            edge_factor: 8,
            seed: 42,
            num_vertices: 512,
            num_edges: 5631,
            sources: 32,
            group_size: 64,
            width_bits: 64,
            rows,
        }
    }

    /// `base` with every baseline TEPS scaled by `baseline` and every
    /// engine TEPS by `engine`.
    fn scaled(base: &CpuBenchReport, baseline: f64, engine: f64) -> CpuBenchReport {
        let rows: Vec<(u64, f64, f64)> = base
            .rows
            .iter()
            .map(|r| (r.threads, r.baseline_teps * baseline, r.engine_teps * engine))
            .collect();
        report(&rows)
    }

    fn base() -> CpuBenchReport {
        report(&[(1, 2.7e8, 7.0e8), (2, 2.7e8, 1.15e9)])
    }

    #[test]
    fn identical_reports_pass_at_zero_noise() {
        let r = base();
        let diff = diff_reports(&r, &r, 0.0);
        assert_eq!(diff.rows.len(), 2);
        assert!(diff.passes());
        assert!(diff.missing.is_empty() && diff.added.is_empty());
        for row in &diff.rows {
            assert!((row.ratio - 1.0).abs() < 1e-12);
        }
        assert!(render_diff(&diff, "a.json", "b.json").contains("PASS"));
    }

    #[test]
    fn uniform_host_drift_cancels_in_the_speedup() {
        // The whole host ran 40% slower: both paths drop alike, so the
        // speedup, and the verdict at a tight band, do not move.
        let diff = diff_reports(&base(), &scaled(&base(), 0.6, 0.6), 5.0);
        assert!(diff.passes(), "{}", render_diff(&diff, "a", "b"));
    }

    #[test]
    fn engine_only_drop_fails_the_tight_band() {
        // A 15% engine-only slowdown (profiler overhead, say) under the
        // same host drift still shows.
        let diff = diff_reports(&base(), &scaled(&base(), 0.8, 0.8 * 0.85), 5.0);
        assert!(!diff.passes());
        assert_eq!(diff.failures().len(), 2);
        assert!(render_diff(&diff, "a", "b").contains("SLOWER"));
        assert!(diff_reports(&base(), &scaled(&base(), 1.0, 0.85), 30.0).passes());
    }

    #[test]
    fn a_stale_record_fails_in_the_other_direction() {
        // The engine got 40% faster than the committed speedup says: the
        // record no longer describes the code, so the check fails.
        let diff = diff_reports(&base(), &scaled(&base(), 1.0, 1.4), DEFAULT_NOISE_PCT);
        assert!(!diff.passes());
        assert!(diff.failures().iter().all(|r| r.ratio > 1.0));
        assert!(render_diff(&diff, "a", "b").contains("FASTER"));
        assert!(diff_reports(&base(), &scaled(&base(), 1.0, 1.2), DEFAULT_NOISE_PCT).passes());
    }

    #[test]
    fn a_missing_thread_count_fails_and_is_named() {
        let pruned = report(&[(1, 2.7e8, 7.0e8)]);
        let diff = diff_reports(&base(), &pruned, DEFAULT_NOISE_PCT);
        assert!(!diff.passes());
        assert_eq!(diff.missing, vec![2]);
        assert!(diff.failures().is_empty());
        let text = render_diff(&diff, "a", "b");
        assert!(text.contains("threads=2: in base but MISSING from new"), "{text}");
        assert!(text.contains("FAIL"));
        // The reverse direction is additive and passes.
        let diff = diff_reports(&pruned, &base(), DEFAULT_NOISE_PCT);
        assert!(diff.passes());
        assert_eq!(diff.added, vec![2]);
    }

    #[test]
    fn text_entry_point_validates_both_sides() {
        let good = report_to_json(&base());
        let diff = diff_report_texts(&good, "base.json", &good, "new.json", 5.0).expect("valid");
        assert!(diff.passes());
        let err = diff_report_texts("not json", "base.json", &good, "new.json", 5.0).unwrap_err();
        assert!(err.contains("base.json"));
        let err = diff_report_texts(&good, "base.json", "{}", "new.json", 5.0).unwrap_err();
        assert!(err.contains("new.json"));
    }
}
