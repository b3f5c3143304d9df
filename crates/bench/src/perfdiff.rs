//! `bfs perf-diff`: compare two `BENCH_cpu.json` documents.
//!
//! The committed benchmark report is the repo's perf trajectory record;
//! this module turns a pair of reports into a reviewable table and a CI
//! verdict. Runs are matched by `(engine, threads)`, keyed
//! `engine@threads`; a run whose TEPS falls below `base * (1 - noise/100)`
//! is a regression.
//!
//! The noise band exists because TEPS is a wall-clock measurement: the
//! default [`DEFAULT_NOISE_PCT`] absorbs scheduler jitter and
//! cross-machine variance for the committed-baseline gate, while the
//! profiler-overhead gate in `ci.sh` pins a tight 5% band between two
//! back-to-back runs on the same host.
//!
//! For tight same-host comparisons the dominant error source is host
//! drift: a noisy neighbour slows *both* sides' engines equally, which a
//! per-row band misreads as a regression. `--calibrate ENGINE` names a
//! run that is identical in both reports (the unprofiled `baseline` row
//! in the overhead gate); its ratio measures pure host drift and scales
//! the floor down accordingly. Calibration only ever loosens the gate
//! (it is clamped at 1.0) so a lucky-fast reference cannot manufacture
//! failures, and the calibrating rows themselves are never flagged.

use crate::cpubench::{validate_report_json, CpuBenchReport};
use std::fmt::Write as _;

/// Default allowed TEPS drop, in percent. Wide on purpose: the committed
/// baseline may come from a different machine.
pub const DEFAULT_NOISE_PCT: f64 = 30.0;

/// One matched `(engine, threads)` comparison.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Engine name (`"baseline"` or `"pooled"`).
    pub engine: String,
    /// Worker threads.
    pub threads: u64,
    /// TEPS in the base (older / committed) report.
    pub base_teps: f64,
    /// TEPS in the new (candidate) report.
    pub new_teps: f64,
    /// `new_teps / base_teps`.
    pub ratio: f64,
    /// The new rate fell below the noise band.
    pub regressed: bool,
    /// This row supplied the host-drift calibration and is exempt from
    /// regression flagging.
    pub calibrator: bool,
}

/// The full comparison of two validated reports.
#[derive(Clone, Debug)]
pub struct PerfDiff {
    /// Matched runs, in base-report order.
    pub rows: Vec<DiffRow>,
    /// `engine@threads` keys present in base but absent in
    /// new — a disappeared run can hide a regression, so `--check` fails
    /// on these.
    pub missing: Vec<String>,
    /// Keys present only in the new report (informational).
    pub added: Vec<String>,
    /// The noise band the rows were judged against, in percent.
    pub noise_pct: f64,
    /// Host-drift factor applied to the floor: the mean ratio of the
    /// calibrating rows, clamped to `(0, 1]`. `1.0` when uncalibrated.
    pub calibration: f64,
    /// Engine named by `--calibrate`, if it matched any rows.
    pub calibrated_against: Option<String>,
}

impl PerfDiff {
    /// Rows that fell below the noise band.
    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }

    /// The CI verdict: no regressed rows and no disappeared runs.
    pub fn passes(&self) -> bool {
        self.regressions().is_empty() && self.missing.is_empty()
    }
}

/// Compares two already-validated reports. `noise_pct` is the allowed
/// TEPS drop in percent (clamped to `[0, 100)`). `calibrate` optionally
/// names an engine whose ratio measures host drift (see module docs);
/// its rows are exempt from flagging and their mean ratio, clamped at
/// 1.0, scales the floor for every other row.
pub fn diff_reports(
    base: &CpuBenchReport,
    new: &CpuBenchReport,
    noise_pct: f64,
    calibrate: Option<&str>,
) -> PerfDiff {
    let noise_pct = noise_pct.clamp(0.0, 99.999);
    let floor = 1.0 - noise_pct / 100.0;
    let key = |engine: &str, threads: u64| format!("{engine}@{threads}t");

    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for b in &base.runs {
        match new.runs.iter().find(|n| n.engine == b.engine && n.threads == b.threads) {
            Some(n) => {
                let ratio = n.teps / b.teps.max(1e-12);
                rows.push(DiffRow {
                    engine: b.engine.clone(),
                    threads: b.threads,
                    base_teps: b.teps,
                    new_teps: n.teps,
                    ratio,
                    regressed: false,
                    calibrator: calibrate == Some(b.engine.as_str()),
                });
            }
            None => missing.push(key(&b.engine, b.threads)),
        }
    }
    let calibrators: Vec<f64> =
        rows.iter().filter(|r| r.calibrator).map(|r| r.ratio).collect();
    let calibration = if calibrators.is_empty() {
        1.0
    } else {
        (calibrators.iter().sum::<f64>() / calibrators.len() as f64).clamp(1e-6, 1.0)
    };
    let calibrated_against =
        (!calibrators.is_empty()).then(|| calibrate.unwrap_or_default().to_string());
    for r in &mut rows {
        r.regressed = !r.calibrator && r.ratio < calibration * floor;
    }
    let added = new
        .runs
        .iter()
        .filter(|n| !base.runs.iter().any(|b| b.engine == n.engine && b.threads == n.threads))
        .map(|n| key(&n.engine, n.threads))
        .collect();

    PerfDiff {
        rows,
        missing,
        added,
        noise_pct,
        calibration,
        calibrated_against,
    }
}

/// Parses, validates, and compares two serialized reports. The labels
/// (usually file paths) only flavor the error messages.
pub fn diff_report_texts(
    base_text: &str,
    base_label: &str,
    new_text: &str,
    new_label: &str,
    noise_pct: f64,
    calibrate: Option<&str>,
) -> Result<PerfDiff, String> {
    let base = validate_report_json(base_text).map_err(|e| format!("{base_label}: {e}"))?;
    let new = validate_report_json(new_text).map_err(|e| format!("{new_label}: {e}"))?;
    Ok(diff_reports(&base, &new, noise_pct, calibrate))
}

/// Renders the comparison as the table `bfs perf-diff` prints.
pub fn render_diff(diff: &PerfDiff, base_label: &str, new_label: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perf-diff: base={base_label} new={new_label} noise={:.1}%",
        diff.noise_pct
    );
    let _ = writeln!(
        out,
        "  {:<14} {:>7} {:>14} {:>14} {:>7}  status",
        "engine", "threads", "base TEPS", "new TEPS", "ratio"
    );
    for r in &diff.rows {
        let _ = writeln!(
            out,
            "  {:<14} {:>7} {:>14.0} {:>14.0} {:>6.2}x  {}",
            r.engine,
            r.threads,
            r.base_teps,
            r.new_teps,
            r.ratio,
            if r.calibrator {
                "calibrator"
            } else if r.regressed {
                "REGRESSED"
            } else {
                "ok"
            }
        );
    }
    if let Some(engine) = &diff.calibrated_against {
        let _ = writeln!(
            out,
            "  calibration: {:.3}x host drift from `{engine}` rows (floor scaled to {:.3})",
            diff.calibration,
            diff.calibration * (1.0 - diff.noise_pct / 100.0),
        );
    }
    for m in &diff.missing {
        let _ = writeln!(out, "  {m}: in base but MISSING from new");
    }
    for a in &diff.added {
        let _ = writeln!(out, "  {a}: new run (no baseline to compare)");
    }
    let regressions = diff.regressions().len();
    let _ = writeln!(
        out,
        "  verdict: {} ({} compared, {} regressed, {} missing)",
        if diff.passes() { "PASS" } else { "FAIL" },
        diff.rows.len(),
        regressions,
        diff.missing.len(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpubench::{report_to_json, run_cpu_bench, CpuBenchConfig};

    fn report() -> CpuBenchReport {
        run_cpu_bench(&CpuBenchConfig {
            scale: 8,
            edge_factor: 8,
            seed: 7,
            sources: 16,
            group_size: 16,
            threads: vec![1, 2],
            check: false,
            ..CpuBenchConfig::default()
        })
    }

    #[test]
    fn identical_reports_pass_at_zero_noise() {
        let r = report();
        let diff = diff_reports(&r, &r, 0.0, None);
        assert_eq!(diff.rows.len(), r.runs.len());
        assert!(diff.passes());
        assert!(diff.missing.is_empty() && diff.added.is_empty());
        for row in &diff.rows {
            assert!((row.ratio - 1.0).abs() < 1e-12);
        }
        let text = render_diff(&diff, "a.json", "b.json");
        assert!(text.contains("PASS"));
    }

    #[test]
    fn teps_drop_beyond_noise_regresses() {
        let base = report();
        let mut slow = base.clone();
        for run in &mut slow.runs {
            run.teps *= 0.5;
        }
        // A 50% drop is outside a 30% band but inside a 60% band.
        let diff = diff_reports(&base, &slow, DEFAULT_NOISE_PCT, None);
        assert!(!diff.passes());
        assert_eq!(diff.regressions().len(), base.runs.len());
        assert!(render_diff(&diff, "a", "b").contains("REGRESSED"));
        assert!(diff_reports(&base, &slow, 60.0, None).passes());
        // Improvements never regress.
        let mut fast = base.clone();
        for run in &mut fast.runs {
            run.teps *= 2.0;
        }
        assert!(diff_reports(&base, &fast, 0.0, None).passes());
    }

    #[test]
    fn disappeared_runs_fail_the_check() {
        let base = report();
        let mut pruned = base.clone();
        pruned.runs.retain(|r| r.threads != 2);
        pruned.speedups.retain(|s| s.threads != 2);
        let diff = diff_reports(&base, &pruned, 30.0, None);
        assert!(!diff.passes());
        assert_eq!(diff.missing, vec!["baseline@2t".to_string(), "pooled@2t".to_string()]);
        assert!(diff.regressions().is_empty());
        assert!(render_diff(&diff, "a", "b").contains("pooled@2t: in base but MISSING from new"));
        // The reverse direction is additive and passes.
        let diff = diff_reports(&pruned, &base, 30.0, None);
        assert!(diff.passes());
        assert_eq!(diff.added.len(), 2);
    }

    #[test]
    fn calibration_absorbs_uniform_host_drift_but_not_extra_overhead() {
        let base = report();
        // The whole host slowed 20%: every run, including the unprofiled
        // baseline, drops uniformly. A raw 5% band would flag everything.
        let mut slow = base.clone();
        for run in &mut slow.runs {
            run.teps *= 0.8;
        }
        assert!(!diff_reports(&base, &slow, 5.0, None).passes());
        let diff = diff_reports(&base, &slow, 5.0, Some("baseline"));
        assert!(diff.passes(), "uniform drift should calibrate away");
        assert!((diff.calibration - 0.8).abs() < 1e-9);
        assert_eq!(diff.calibrated_against.as_deref(), Some("baseline"));
        let text = render_diff(&diff, "a", "b");
        assert!(text.contains("calibration:"));
        assert!(text.contains("calibrator"));

        // Same drift plus genuine 15% overhead on the engines: the
        // calibrated 5% band still catches it.
        let mut overhead = slow.clone();
        for run in &mut overhead.runs {
            if run.engine != "baseline" {
                run.teps *= 0.85;
            }
        }
        let diff = diff_reports(&base, &overhead, 5.0, Some("baseline"));
        assert!(!diff.passes());
        assert!(diff.regressions().iter().all(|r| r.engine != "baseline"));

        // Calibration never tightens: a lucky-fast reference clamps to 1.0.
        let mut fast_ref = base.clone();
        for run in &mut fast_ref.runs {
            if run.engine == "baseline" {
                run.teps *= 1.5;
            }
        }
        let diff = diff_reports(&base, &fast_ref, 5.0, Some("baseline"));
        assert!((diff.calibration - 1.0).abs() < 1e-9);
        assert!(diff.passes());

        // Naming an engine absent from the reports is a no-op.
        let diff = diff_reports(&base, &base, 5.0, Some("no-such-engine"));
        assert!((diff.calibration - 1.0).abs() < 1e-9);
        assert!(diff.calibrated_against.is_none());
    }

    #[test]
    fn text_entry_point_validates_both_sides() {
        let good = report_to_json(&report());
        let diff =
            diff_report_texts(&good, "base.json", &good, "new.json", 5.0, None).expect("valid pair");
        assert!(diff.passes());
        let err = diff_report_texts("not json", "base.json", &good, "new.json", 5.0, None).unwrap_err();
        assert!(err.contains("base.json"));
        let err = diff_report_texts(&good, "base.json", "{}", "new.json", 5.0, None).unwrap_err();
        assert!(err.contains("new.json"));
    }
}
