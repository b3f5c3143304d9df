//! `bfs bench-pairs`: the verdict of alternating parent/change runs of the
//! end-to-end benchmark (`benchmark/`).
//!
//! Each side is a directory of the benchmark's `--out` documents. A
//! document's `seed` and each entry of its `workloads` object make one run,
//! and runs pair up by `(workload, seed)`. The metrics judged, their bounds
//! and their directions are `BENCHMARK.json`'s `end_to_end` list.
//!
//! Per workload and metric the summary gives both sides' medians and
//! quartiles, the change's wins out of the pairs (ties count for neither)
//! and the parent's interquartile range as a share of its median. Its
//! verdict follows the paired-runs rule of the benchmark contract:
//!
//! * `gain` — at least ten pairs, the change wins at least 9 in 10 of
//!   them, and its median beats the parent's by more than the
//!   parent's IQR;
//! * `worse` — the change's median is worse by more than the bound;
//! * `unresolved` — the parent's IQR is wider than the bound, unless every
//!   change run beats every parent run;
//! * `flat` — otherwise.
//!
//! It is a report, not a gate: timings on a shared host do not repeat
//! closely enough to fail a build on.

use crate::loadgen::percentile;
use ibfs_util::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// Fewest pairs a `gain` verdict rests on.
const MIN_PAIRS: usize = 10;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
struct Bound {
    /// Metric name.
    name: String,
    /// Whether a lower value is better.
    lower_is_better: bool,
    /// Relative worsening of the median that counts as a regression.
    bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json` document.
fn parse_spec(text: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let list = doc.get("end_to_end").and_then(Json::as_array).ok_or("spec: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("spec: a metric has no name")?;
            let lower_is_better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("spec: {name}: better must be lower or higher")),
            };
            let bound =
                m.get("bound").and_then(Json::as_f64).ok_or(format!("spec: {name}: no bound"))?;
            Ok(Bound { name: name.to_string(), lower_is_better, bound })
        })
        .collect()
}

/// One workload's result in one `--out` document.
#[derive(Clone, Debug, PartialEq)]
struct Run {
    /// The document's seed.
    seed: u64,
    /// Whether every output passed the oracle.
    correct: bool,
    /// Requests or groups attempted.
    attempted: u64,
    /// Requests or groups that failed.
    failed: u64,
    /// Metric values by name.
    metrics: BTreeMap<String, f64>,
}

/// Every `(workload, run)` of one `--out` document.
fn parse_document(text: &str) -> Result<Vec<(String, Run)>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let seed = doc.get("seed").and_then(Json::as_u64).ok_or("document: no seed")?;
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err("document: no workloads object".into());
    };
    workloads
        .iter()
        .map(|(name, w)| {
            let field = |key: &str| w.get(key).ok_or(format!("{name}: no {key}"));
            let count =
                |key: &str| field(key)?.as_u64().ok_or(format!("{name}: {key} is not a count"));
            let correct =
                field("correct")?.as_bool().ok_or(format!("{name}: correct is not a bool"))?;
            let Json::Obj(metrics) = field("metrics")? else {
                return Err(format!("{name}: metrics is not an object"));
            };
            let metrics = metrics
                .iter()
                .map(|(m, v)| {
                    let value = v.get("value").and_then(Json::as_f64);
                    Ok((m.clone(), value.ok_or(format!("{name}: {m} has no value"))?))
                })
                .collect::<Result<_, String>>()?;
            let (attempted, failed) = (count("attempted")?, count("failed")?);
            Ok((name.clone(), Run { seed, correct, attempted, failed, metrics }))
        })
        .collect()
}

/// The verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    /// The change is better by the paired-runs rule.
    Gain,
    /// The change's median is worse by more than the bound.
    Worse,
    /// The parent's own spread is wider than the bound.
    Unresolved,
    /// None of the above.
    Flat,
}

/// Median and quartiles of one side's runs (nearest rank).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Spread {
    /// First quartile.
    q1: f64,
    /// Median.
    median: f64,
    /// Third quartile.
    q3: f64,
}

impl Spread {
    fn of(values: &[f64]) -> Spread {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |p| percentile(&sorted, p);
        Spread { q1: q(0.25), median: q(0.5), q3: q(0.75) }
    }
}

/// One metric of one workload, judged.
#[derive(Clone, Debug, PartialEq)]
struct Judged {
    /// Metric name.
    name: String,
    /// The parent's runs.
    parent: Spread,
    /// The change's runs.
    change: Spread,
    /// Pairs the change read better in.
    wins: usize,
    /// Pairs judged.
    pairs: usize,
    /// The parent's IQR over its median.
    parent_iqr_share: f64,
    /// The metric's bound.
    bound: f64,
    /// The verdict.
    verdict: Verdict,
}

/// Judges paired readings of one metric: `pairs[i]` is `(parent, change)`.
fn judge(bound: &Bound, pairs: &[(f64, f64)]) -> Judged {
    // Positive when the change reads better.
    let gain = |parent: f64, change: f64| {
        if bound.lower_is_better {
            parent - change
        } else {
            change - parent
        }
    };
    let parent_values: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change_values: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (parent, change) = (Spread::of(&parent_values), Spread::of(&change_values));
    let wins = pairs.iter().filter(|&&(p, c)| gain(p, c) > 0.0).count();
    let parent_iqr = parent.q3 - parent.q1;
    let parent_iqr_share = parent_iqr / parent.median.abs();
    let median_gain = gain(parent.median, change.median);
    let all_better = parent_values.iter().all(|&p| change_values.iter().all(|&c| gain(p, c) > 0.0));
    let verdict =
        if pairs.len() >= MIN_PAIRS && wins * 10 >= pairs.len() * 9 && median_gain > parent_iqr {
            Verdict::Gain
        } else if -median_gain > bound.bound * parent.median.abs() {
            Verdict::Worse
        } else if parent_iqr_share > bound.bound && !all_better {
            Verdict::Unresolved
        } else {
            Verdict::Flat
        };
    Judged {
        name: bound.name.clone(),
        parent,
        change,
        wins,
        pairs: pairs.len(),
        parent_iqr_share,
        bound: bound.bound,
        verdict,
    }
}

/// Runs of one side, by workload and seed.
type Side = BTreeMap<String, BTreeMap<u64, Run>>;

/// Collects the runs of one side's documents; `docs` are `(path, text)`.
fn collect(docs: &[(String, String)]) -> Result<Side, String> {
    let mut side = Side::new();
    for (path, text) in docs {
        for (workload, run) in parse_document(text).map_err(|e| format!("{path}: {e}"))? {
            let seed = run.seed;
            if side.entry(workload.clone()).or_default().insert(seed, run).is_some() {
                return Err(format!("{path}: a second {workload} run for seed {seed}"));
            }
        }
    }
    Ok(side)
}

/// Renders the summary of both sides as markdown: per workload, every
/// pair's oracle and failure counts, then one row per metric.
fn render(spec: &[Bound], parent: &Side, change: &Side) -> String {
    let mut out = String::new();
    let workloads: BTreeSet<&String> = parent.keys().chain(change.keys()).collect();
    for workload in workloads {
        let empty = BTreeMap::new();
        let (p, c) =
            (parent.get(workload).unwrap_or(&empty), change.get(workload).unwrap_or(&empty));
        let seeds: Vec<u64> = p.keys().filter(|s| c.contains_key(s)).copied().collect();
        let unpaired: Vec<u64> =
            p.keys().chain(c.keys()).filter(|s| !seeds.contains(s)).copied().collect();
        let _ = writeln!(out, "### {workload}: {} pairs\n", seeds.len());
        if !unpaired.is_empty() {
            let _ = writeln!(out, "Unpaired seeds, left out: {unpaired:?}\n");
        }
        if seeds.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "| seed | parent correct | parent failed | change correct | change failed |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|");
        for s in &seeds {
            let (pr, cr) = (&p[s], &c[s]);
            let _ = writeln!(
                out,
                "| {s} | {} | {}/{} | {} | {}/{} |",
                pr.correct, pr.failed, pr.attempted, cr.correct, cr.failed, cr.attempted
            );
        }
        let _ = writeln!(
            out,
            "\n| metric | parent median [q1, q3] | change median [q1, q3] | change | wins \
             | parent IQR | bound | verdict |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
        for bound in spec {
            let readings: Option<Vec<(f64, f64)>> = seeds
                .iter()
                .map(|s| Some((*p[s].metrics.get(&bound.name)?, *c[s].metrics.get(&bound.name)?)))
                .collect();
            let Some(readings) = readings else {
                let _ = writeln!(out, "| {} | missing from a run | | | | | | |", bound.name);
                continue;
            };
            let j = judge(bound, &readings);
            let _ = writeln!(
                out,
                "| {} | {} [{}, {}] | {} [{}, {}] | {:+.1}% | {}/{} | {:.1}% | {:.0}% | {} |",
                j.name,
                num(j.parent.median),
                num(j.parent.q1),
                num(j.parent.q3),
                num(j.change.median),
                num(j.change.q1),
                num(j.change.q3),
                100.0 * (j.change.median / j.parent.median - 1.0),
                j.wins,
                j.pairs,
                100.0 * j.parent_iqr_share,
                100.0 * j.bound,
                format!("{:?}", j.verdict).to_lowercase(),
            );
        }
        out.push('\n');
    }
    out
}

/// Every `*.json` file of `dir` as `(path, text)`, in name order.
fn read_documents(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let at = |e: std::io::Error| format!("{}: {e}", dir.display());
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(at)? {
        let path = entry.map_err(at)?.path();
        if path.extension().is_some_and(|x| x == "json") {
            paths.push(path);
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((p.display().to_string(), text))
        })
        .collect()
}

/// The rendered summary of the documents in `parent` and `change`, judged
/// against the `BENCHMARK.json` at `spec`.
pub fn summarize(spec: &Path, parent: &Path, change: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let spec = parse_spec(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    let (parent, change) = (collect(&read_documents(parent)?)?, collect(&read_documents(change)?)?);
    Ok(render(&spec, &parent, &change))
}

/// Four significant digits, in scientific notation past a million.
fn num(x: f64) -> String {
    if x.abs() >= 1e6 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn teps() -> Bound {
        Bound { name: "teps".into(), lower_is_better: false, bound: 0.25 }
    }

    fn latency() -> Bound {
        Bound { name: "latency_p50_ms".into(), lower_is_better: true, bound: 0.2 }
    }

    /// A `--out` document with one workload and the given metrics.
    fn doc(seed: u64, metrics: &[(&str, f64)]) -> String {
        let metrics = metrics
            .iter()
            .map(|(m, v)| format!("\"{m}\": {{\"value\": {v:?}, \"unit\": \"u\"}}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"nproc\": 2, \"seed\": {seed}, \"seconds\": 20.0, \"trace\": false, \"workloads\": \
             {{\"batch-rmat\": {{\"correct\": true, \"attempted\": 100, \"failed\": 0, \
             \"metrics\": {{{metrics}}}}}}}}}"
        )
    }

    /// Judges `teps` over documents read back through the parser.
    fn verdict(parent: &[f64], change: &[f64]) -> Verdict {
        let side = |values: &[f64]| {
            let docs: Vec<(String, String)> = values
                .iter()
                .enumerate()
                .map(|(s, &v)| (format!("{s}.json"), doc(s as u64, &[("teps", v)])))
                .collect();
            collect(&docs).unwrap()
        };
        let (p, c) = (side(parent), side(change));
        let readings: Vec<(f64, f64)> = p["batch-rmat"]
            .keys()
            .map(|s| (p["batch-rmat"][s].metrics["teps"], c["batch-rmat"][s].metrics["teps"]))
            .collect();
        judge(&teps(), &readings).verdict
    }

    #[test]
    fn spec_reads_direction_and_bound() {
        let spec = parse_spec(
            r#"{"end_to_end": [{"name": "teps", "unit": "edges/s", "better": "higher", "bound": 0.25},
                {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2}]}"#,
        )
        .unwrap();
        assert_eq!(spec, vec![teps(), latency()]);
        assert!(
            parse_spec(r#"{"end_to_end": [{"name": "x", "better": "up", "bound": 1}]}"#).is_err()
        );
        // The committed contract parses.
        let committed = include_str!("../../../BENCHMARK.json");
        assert!(parse_spec(committed)
            .unwrap()
            .iter()
            .any(|b| b.name == "teps" && !b.lower_is_better));
    }

    #[test]
    fn gain_needs_nine_wins_in_ten_and_a_gap_above_the_parent_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let better: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
        assert_eq!(verdict(&parent, &better), Verdict::Gain);
        // One loss in ten still counts.
        let mut one_loss = better.clone();
        one_loss[3] = 90.0;
        assert_eq!(verdict(&parent, &one_loss), Verdict::Gain);
        // Two losses do not; nor does a tie, which is no win.
        let mut two_losses = one_loss.clone();
        two_losses[7] = parent[7];
        assert_eq!(verdict(&parent, &two_losses), Verdict::Flat);
        // Ten wins by less than the parent's IQR are flat.
        let slightly: Vec<f64> = parent.iter().map(|v| v + 1.0).collect();
        assert_eq!(verdict(&parent, &slightly), Verdict::Flat);
        // Nine pairs are too few for a gain.
        assert_eq!(verdict(&parent[..9], &better[..9]), Verdict::Flat);
    }

    #[test]
    fn worse_past_the_bound_in_either_direction() {
        let parent = [100.0, 101.0, 102.0, 99.0, 100.0];
        let slower = [70.0, 72.0, 71.0, 69.0, 73.0];
        assert_eq!(verdict(&parent, &slower), Verdict::Worse);
        // Within the 25% bound it is flat.
        let a_bit = [90.0, 91.0, 92.0, 89.0, 90.0];
        assert_eq!(verdict(&parent, &a_bit), Verdict::Flat);
        // Lower-is-better metrics flip the direction.
        let pairs: Vec<(f64, f64)> = parent.iter().map(|&p| (p, p * 1.3)).collect();
        assert_eq!(judge(&latency(), &pairs).verdict, Verdict::Worse);
        let pairs: Vec<(f64, f64)> = parent.iter().map(|&p| (p, p * 0.7)).collect();
        assert_eq!(judge(&latency(), &pairs).verdict, Verdict::Flat);
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved() {
        let parent = [50.0, 100.0, 150.0, 60.0, 140.0];
        let change = [55.0, 95.0, 150.0, 65.0, 130.0];
        assert_eq!(verdict(&parent, &change), Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let above = [151.0, 160.0, 170.0, 155.0, 165.0];
        assert_eq!(verdict(&parent, &above), Verdict::Flat);
    }

    #[test]
    fn runs_pair_by_workload_and_seed() {
        let parent = collect(&[
            ("a".into(), doc(1, &[("teps", 1.0)])),
            ("b".into(), doc(2, &[("teps", 2.0)])),
        ])
        .unwrap();
        let change = collect(&[("c".into(), doc(2, &[("teps", 3.0)]))]).unwrap();
        let text = render(&[teps()], &parent, &change);
        assert!(text.contains("### batch-rmat: 1 pairs"), "{text}");
        assert!(text.contains("Unpaired seeds, left out: [1]"), "{text}");
        assert!(text.contains("| 2 | true | 0/100 | true | 0/100 |"), "{text}");
        assert!(
            text.contains(
                "| teps | 2.0000 [2.0000, 2.0000] | 3.0000 [3.0000, 3.0000] | +50.0% | 1/1 |"
            ),
            "{text}"
        );
        // A seed twice on one side is refused.
        let twice = [("a".into(), doc(1, &[])), ("b".into(), doc(1, &[]))];
        assert!(collect(&twice).unwrap_err().contains("second batch-rmat run for seed 1"));
        assert!(parse_document("{\"seed\": 1}").is_err());
    }
}
