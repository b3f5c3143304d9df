//! End-to-end benchmark of the wall-clock CPU path: open-loop serving and
//! engine-only batches, with a per-layer split of where the time goes.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--workload NAME] [--trace 0|1]
//!           [--trace-dir DIR] [--out FILE]
//! ```
//!
//! Without `--workload` every workload runs in a child process of its own
//! (so `peak_rss_mb` is per workload) and each metric prints as
//! `workload metric value unit`. With `--workload` one workload runs in this
//! process and the last line of standard output is its result object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 1` reports the
//! per-layer metrics of a traced run instead of the end-to-end ones;
//! `--trace-dir` also writes one Chrome trace per workload. See README.md.
//!
//! `--graph-only` with `--workload` writes that workload's graph to standard
//! output in the `.ibfs` format and exits; a measuring process reads its
//! graph from such a child.

mod batch;
mod oracle;
mod report;
mod serve;
mod stats;
mod workload;

use ibfs_graph::{io as graph_io, Csr};
use ibfs_util::Json;
use report::{peak_rss_mib, EndToEnd, Measured, Outcome};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::{Size, Workload};

/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: benchmark [--seed N] [--seconds S] [--workload NAME] [--trace 0|1] \
[--trace-dir DIR] [--out FILE] [--graph-only]\n  workloads: serve-rmat serve-hot batch-rmat batch-mesh";

#[derive(Clone, Debug, PartialEq)]
struct Args {
    seed: u64,
    seconds: f64,
    workload: Option<&'static str>,
    trace: bool,
    trace_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    graph_only: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        seconds: DEFAULT_SECONDS,
        workload: None,
        trace: false,
        trace_dir: None,
        out: None,
        graph_only: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--workload" => {
                let name = value()?;
                let known = workload::NAMES.iter().find(|&&n| n == name);
                args.workload = Some(*known.ok_or(format!("unknown workload {name:?}"))?);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            "--graph-only" => args.graph_only = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.graph_only && args.workload.is_none() {
        return Err("--graph-only needs --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(name) if args.graph_only => write_graph(name, args.seed),
        Some(name) => run_one(&args, name),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the workload's graph to standard output in the `.ibfs` format.
fn write_graph(name: &str, seed: u64) -> Result<bool, String> {
    let w = workload::by_name(name, Size::Full).expect("parse_args checked the name");
    let bytes = graph_io::encode(&workload::build_graph(w.graph, seed));
    let mut out = std::io::stdout().lock();
    out.write_all(&bytes)
        .and_then(|()| out.flush())
        .map_err(|e| format!("writing the graph: {e}"))?;
    Ok(true)
}

/// The workload's graph, built by a child process: the generator's
/// temporary memory is more than twice the graph's, and in this process it
/// would set `peak_rss_mb` instead of the system under test.
fn graph_from_child(name: &str, seed: u64) -> Result<Csr, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--graph-only",
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the graph generator: {e}"))?;
    if !out.status.success() {
        return Err(format!("graph generator: {}", out.status));
    }
    graph_io::decode(&out.stdout).map_err(|e| format!("reading the generated graph: {e}"))
}

/// Runs one workload in this process; true when its outputs verified.
fn run_one(args: &Args, name: &'static str) -> Result<bool, String> {
    let w = workload::by_name(name, Size::Full).expect("parse_args checked the name");
    let graph = graph_from_child(name, args.seed)?;
    let (outcome, events) = measure(&w, &graph, args.seed, args.seconds, args.trace)
        .map_err(|e| format!("{name}: {e}"))?;
    if let Some(dir) = &args.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{name}.trace.json"));
        std::fs::write(&path, Json::Arr(events).to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for p in &outcome.problems {
        eprintln!("{name}: FAILED: {p}");
    }
    print!("{}", outcome.lines());
    let line = outcome.json();
    if let Some(out) = &args.out {
        write_document(out, args, vec![(name.to_string(), line.clone())])?;
    }
    println!("{}", line.to_string());
    Ok(outcome.correct())
}

/// Runs every workload in a child process of its own; true when all of
/// them verified.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let (mut all_ok, mut results) = (true, Vec::new());
    for name in workload::NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(dir) = &args.trace_dir {
            cmd.arg("--trace-dir").arg(dir);
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (body, last) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        match Json::parse(last) {
            Ok(line) if out.status.success() => results.push((name.to_string(), line)),
            _ => {
                eprintln!("{name}: {} without a passing result", out.status);
                all_ok = false;
            }
        }
        if !body.is_empty() {
            println!("{body}");
        }
    }
    println!("verification: {}", if all_ok { "PASS" } else { "FAIL" });
    if let Some(out) = &args.out {
        write_document(out, args, results)?;
    }
    Ok(all_ok)
}

/// The `--out` document: host parallelism, the run's settings, and every
/// workload's result object.
fn write_document(path: &PathBuf, args: &Args, results: Vec<(String, Json)>) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let doc = Json::Obj(vec![
        ("nproc".into(), Json::UInt(nproc)),
        ("seed".into(), Json::UInt(args.seed)),
        ("seconds".into(), Json::Float(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("workloads".into(), Json::Obj(results)),
    ]);
    std::fs::write(path, doc.to_string_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Measures the workload on `graph`: the end-to-end metrics from a plain
/// run, or — `traced` — the per-layer metrics from a traced run plus the
/// plain run it is compared with. The set-up is timed after the runs.
/// Also returns the traced run's Chrome trace events.
fn measure(
    w: &Workload,
    graph: &Csr,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Outcome, Vec<Json>), String> {
    let rev = graph.reverse();
    let run = |traced| -> Result<Measured, String> {
        if w.is_serve() {
            serve::run(w, graph, &rev, seed, seconds, traced)
        } else {
            batch::run(w, graph, &rev, seed, seconds, traced)
        }
    };
    let plain = run(false)?;
    // Read before the set-up is timed: its repeated builds are the
    // benchmark's own churn, and the heap holes they left moved a serve
    // run's peak by 2 MiB between two builds of the same code.
    let peak_rss_mib = peak_rss_mib()?;
    if !traced {
        let setup = workload::timed_setup(graph, w.cpu_options());
        let e2e = EndToEnd {
            setup_s: setup.total_s,
            peak_rss_mib,
            latency_p50_ms: plain.latency_p50_ms,
            latency_p95_ms: plain.latency_p95_ms,
            teps: plain.teps,
        };
        let outcome = Outcome {
            workload: w.name,
            attempted: plain.attempted,
            failed: plain.failed,
            metrics: e2e.metrics(),
            problems: plain.problems,
        };
        return Ok((outcome, Vec::new()));
    }
    let mut t = run(true)?;
    let setup = workload::timed_setup(graph, w.cpu_options());
    t.layers.reverse_ms = setup.reverse_ms;
    t.layers.service_new_ms = setup.service_new_ms;
    // Positive = tracing slowed the workload down.
    t.layers.overhead_pct = if w.is_serve() {
        (t.latency_p50_ms / plain.latency_p50_ms - 1.0) * 100.0
    } else {
        (plain.teps / t.teps - 1.0) * 100.0
    };
    let mut problems = plain.problems;
    problems.extend(t.problems);
    let outcome = Outcome {
        workload: w.name,
        attempted: plain.attempted + t.attempted,
        failed: plain.failed + t.failed,
        metrics: t.layers.metrics(),
        problems,
    };
    Ok((outcome, t.trace_events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Layers;

    /// The committed benchmark definition, read at compile time.
    const BENCHMARK_JSON: &str = include_str!("../BENCHMARK.json");

    /// The settings of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    #[test]
    fn release_profile_matches_the_workspace() {
        let ours = release_profile(include_str!("Cargo.toml"));
        assert!(!ours.is_empty(), "the benchmark sets a release profile");
        assert_eq!(ours, release_profile(include_str!("../Cargo.toml")));
    }

    fn names_in(section: &str) -> Vec<String> {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let entries = doc
            .get(section)
            .and_then(Json::as_array)
            .expect("section is an array");
        entries
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("named")
                    .to_string()
            })
            .collect()
    }

    fn printed(metrics: &[report::Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn printed_names_are_exactly_the_committed_ones() {
        assert_eq!(
            printed(&EndToEnd::default().metrics()),
            names_in("end_to_end")
        );
        assert_eq!(printed(&Layers::default().metrics()), names_in("per_layer"));
        assert_eq!(names_in("workloads"), workload::NAMES);
    }

    #[test]
    fn args_parse_the_command_line() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload batch-mesh --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some("batch-mesh"), 7, 10.0, true)
        );
        assert_eq!(parse("").unwrap().seconds, DEFAULT_SECONDS);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--graph-only").is_err());
        assert!(
            parse("--graph-only --workload serve-hot")
                .unwrap()
                .graph_only
        );
    }

    /// The toy runs' window: long enough that every tail percentile, cache
    /// misses and batches included, has ten samples beyond it.
    const TOY_SECONDS: f64 = 2.0;

    /// All four workloads at toy size, plain and traced, in one test so the
    /// runs never share the host's cores with each other.
    #[test]
    fn toy_workloads_verify_and_their_layers_add_up() {
        let mut edges = Vec::new();
        for w in workload::all(Size::Toy) {
            let graph = workload::build_graph(w.graph, 3);
            let (plain, _) = measure(&w, &graph, 3, TOY_SECONDS, false)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(plain.correct(), "{}: {:?}", w.name, plain.problems);
            assert_eq!(
                printed(&plain.metrics),
                printed(&EndToEnd::default().metrics())
            );
            assert!(
                plain.metrics.iter().all(|m| m.value > 0.0),
                "{}: {:?}",
                w.name,
                plain.metrics
            );

            let (traced, events) = measure(&w, &graph, 3, TOY_SECONDS, true)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(traced.correct(), "{}: {:?}", w.name, traced.problems);
            assert_eq!(
                printed(&traced.metrics),
                printed(&Layers::default().metrics())
            );
            let metric = |name| {
                traced
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap()
                    .value
            };
            if w.is_serve() {
                assert!(
                    metric("trace.unaccounted_p95_ms") < serve::IDENTITY_ABS_MS,
                    "{}",
                    w.name
                );
            } else {
                assert!(metric("core.cpu.unprofiled_p50_ms") > 0.0, "{}", w.name);
            }
            assert_eq!(metric("loadgen.reordered_replies"), 0.0);
            assert!(!events.is_empty());
            if w.name == "serve-hot" {
                assert!(
                    metric("serve.qos.cache_hit_rate") > 0.5,
                    "hot sources must hit the cache"
                );
            }
            if w.name == "batch-rmat" {
                edges.push(metric("core.cpu.traversed_edges"));
                edges.push(plain_edges(&w));
            }
        }
        assert!(edges[0] > 0.0);
        assert_eq!(
            edges[0], edges[1],
            "traversed edges must repeat for one seed"
        );
    }

    fn plain_edges(w: &Workload) -> f64 {
        let graph = workload::build_graph(w.graph, 3);
        let rev = graph.reverse();
        batch::run(w, &graph, &rev, 3, TOY_SECONDS, false)
            .unwrap()
            .layers
            .traversed_edges
    }
}
