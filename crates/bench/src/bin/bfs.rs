//! `bfs` — run concurrent BFS on a graph file and report statistics.
//!
//! ```text
//! bfs <GRAPH> [--engine ENGINE] [--sources N | --source-list a,b,c]
//!             [--group-size N] [--groupby] [--depths] [--trace PATH]
//!             [--profile PATH] [--profile-trace PATH]
//! bfs stats <GRAPH> [--engine ENGINE] [--sources N] [--group-size N]
//!             [--groupby] [--json]
//! bfs serve-bench <GRAPH> [--clients N] [--requests N] [--workers N]
//!             [--max-batch N] [--window-us N] [--queue N]
//!             [--deadline-ms N] [--seed N] [--policy arrival|groupby]
//!             [--qos] [--profile uniform|powerlaw]
//!             [--bulk-clients N] [--burst N] [--cache N] [--bulk-quota N]
//!             [--check] [--json] [--metrics-out PATH] [--metrics-text PATH]
//!             [--trace PATH] [--profile-out PATH] [--profile-trace PATH]
//! bfs cpu-bench [--scale N] [--edge-factor N] [--seed N] [--sources N]
//!             [--group-size N] [--threads N[,N...]] [--width 32|64|128|256]
//!             [--repeat N] [--check] [--out PATH] [--profile-out PATH]
//!             [--profile-trace PATH]
//! bfs perf-diff <BASE.json> <NEW.json> [--noise PCT] [--check]
//! bfs bench-pairs <PARENT_DIR> <CHANGE_DIR> [--spec BENCHMARK.json]
//! bfs top <SNAPSHOT.json> [--ticks N] [--interval-ms N] [--no-clear]
//!
//! GRAPH    a binary CSR file from `graphgen --format bin`, or a suite
//!          name prefixed with `suite:` (e.g. `suite:FB`)
//! ENGINE   sequential | naive | joint | bitwise (default) | msbfs | spmm,
//!          or the measured CPU engine: pooled
//! PATH     output destination (`-` for stdout)
//!
//! `stats` runs one traversal and prints the metrics registry
//! (Prometheus text, or a versioned JSON snapshot with `--json`).
//! `serve-bench --metrics-out` writes the end-of-run JSON snapshot,
//! `--metrics-text` the Prometheus rendering, and `--trace` the merged
//! request-span + per-level JSONL stream. `--qos` enables the standard
//! QoS policy (weighted-fair lanes, result cache);
//! `--profile powerlaw` draws heavy-tailed sources; `--bulk-clients` and
//! `--burst` turn the first clients into a bursting bulk tenant;
//! `--cache`/`--bulk-quota` size the cache and the bulk tenant's quota;
//! `--check` fails the run unless interactive p99 beats bulk p99 and a
//! power-law run with a cache records at least one hit.
//!
//! The CPU engine on the one-shot path (`--engine pooled`) runs
//! through the measured `CpuService`; `--trace` writes its level events
//! with wall-clock seconds, and it can export the per-lane phase
//! profile: `--profile` writes the versioned ProfileReport JSON,
//! `--profile-trace` a Chrome trace-event file (load into
//! `chrome://tracing` or Perfetto). The benches take the same pair as
//! `--profile-out`/`--profile-trace` (serve-bench already uses
//! `--profile` for the source distribution). `perf-diff` compares two
//! cpu-bench reports by their same-run speedup over the baseline, per
//! thread count, and with `--check` fails when a speedup moves more than
//! `--noise` percent either way or a thread count disappears.
//! `bench-pairs` pairs two directories of the end-to-end benchmark's
//! `--out` documents by workload and seed and prints, per end-to-end
//! metric, the medians, quartiles, wins and a verdict against the bounds
//! in `--spec` (see `ibfs_bench::pairs`).
//! `top` polls a metrics snapshot file and redraws a live
//! SLO/serve/profiler dashboard.
//! ```

use ibfs::cpu::{CpuOptions, CpuService};
use ibfs::engine::EngineKind;
use ibfs::groupby::GroupingStrategy;
use ibfs::runner::RunConfig;
use ibfs::service::IbfsService;
use ibfs::trace::{GroupStamp, JsonlSink, MetricsSink, NullSink, TraceLog, TraceSink};
use ibfs_bench::loadgen::{run_loadgen_with, LoadGenConfig, SourceProfile, BULK_TENANT};
use ibfs_graph::{io, suite, Csr, VertexId, DEPTH_UNVISITED};
use ibfs_obs::{EngineProfiler, Registry, Snapshot};
use ibfs_serve::{CoalescePolicy, QosPolicy, ServeTelemetry};
use ibfs_util::{FromJson, Json, ToJson};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage("missing graph argument");
    }
    if args[0] == "serve-bench" {
        args.remove(0);
        return serve_bench(args);
    }
    if args[0] == "stats" {
        args.remove(0);
        return stats(args);
    }
    if args[0] == "cpu-bench" {
        args.remove(0);
        return cpu_bench(args);
    }
    if args[0] == "perf-diff" {
        args.remove(0);
        return perf_diff(args);
    }
    if args[0] == "top" {
        args.remove(0);
        return top(args);
    }
    if args[0] == "bench-pairs" {
        args.remove(0);
        return bench_pairs(args);
    }
    let graph_arg = args.remove(0);
    let mut engine = EngineKind::Bitwise;
    let mut cpu = false;
    let mut sources_n = 64usize;
    let mut source_list: Option<Vec<VertexId>> = None;
    let mut group_size = 64usize;
    let mut groupby = false;
    let mut print_depths = false;
    let mut print_levels = false;
    let mut trace: Option<String> = None;
    let mut profile_out: Option<String> = None;
    let mut profile_trace: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--engine" => {
                let arg = it.next();
                match arg.as_deref() {
                    Some("sequential") => engine = EngineKind::Sequential,
                    Some("naive") => engine = EngineKind::Naive,
                    Some("joint") => engine = EngineKind::Joint,
                    Some("bitwise") => engine = EngineKind::Bitwise,
                    Some("msbfs") => engine = EngineKind::BitwiseMsBfsStyle,
                    Some("spmm") => engine = EngineKind::Spmm,
                    // The measured CPU engine routes through CpuService
                    // (wall-clock, profiler hooks) instead of the simulator.
                    Some("pooled") => cpu = true,
                    other => return usage(&format!("unknown engine {other:?}")),
                }
            }
            "--sources" => {
                sources_n = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--sources needs a number"),
                }
            }
            "--source-list" => {
                let Some(list) = it.next() else {
                    return usage("--source-list needs ids");
                };
                let parsed: Result<Vec<VertexId>, _> =
                    list.split(',').map(|x| x.trim().parse()).collect();
                match parsed {
                    Ok(v) => source_list = Some(v),
                    Err(_) => return usage("bad --source-list"),
                }
            }
            "--group-size" => {
                group_size = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--group-size needs a number"),
                }
            }
            "--groupby" => groupby = true,
            "--depths" => print_depths = true,
            "--levels" => print_levels = true,
            "--trace" => {
                trace = match it.next() {
                    Some(p) => Some(p),
                    None => return usage("--trace needs a path (or `-` for stdout)"),
                }
            }
            "--profile" => {
                profile_out = match it.next() {
                    Some(p) => Some(p),
                    None => return usage("--profile needs a path (or `-` for stdout)"),
                }
            }
            "--profile-trace" => {
                profile_trace = match it.next() {
                    Some(p) => Some(p),
                    None => return usage("--profile-trace needs a path (or `-` for stdout)"),
                }
            }
            other => return usage(&format!("unknown option {other}")),
        }
    }
    if (profile_out.is_some() || profile_trace.is_some()) && !cpu {
        return usage("--profile/--profile-trace need the CPU engine (--engine pooled)");
    }

    let graph: Csr = match load_graph(&graph_arg) {
        Ok(g) => g,
        Err(code) => return code,
    };
    let reverse = graph.reverse();
    let sources: Vec<VertexId> = source_list.unwrap_or_else(|| {
        (0..graph.num_vertices().min(sources_n) as VertexId).collect()
    });
    if let Some(&bad) = sources.iter().find(|&&s| s as usize >= graph.num_vertices()) {
        return usage(&format!("source {bad} out of range"));
    }
    let mut sink: Box<dyn TraceSink> = match trace.as_deref() {
        None => Box::new(NullSink),
        Some("-") => Box::new(JsonlSink::new(std::io::stdout().lock())),
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Box::new(JsonlSink::new(std::io::BufWriter::new(f))),
            Err(e) => {
                eprintln!("error creating trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if cpu {
        return one_shot_cpu(
            &graph,
            &reverse,
            &sources,
            group_size,
            print_depths,
            print_levels,
            sink.as_mut(),
            profile_out.as_deref(),
            profile_trace.as_deref(),
        );
    }

    eprintln!(
        "graph: {} vertices, {} edges; engine {engine:?}; {} sources in groups of {group_size}{}",
        graph.num_vertices(),
        graph.num_edges(),
        sources.len(),
        if groupby { " (GroupBy)" } else { " (random grouping)" }
    );
    let grouping = if groupby {
        GroupingStrategy::OutDegreeRules(
            ibfs::groupby::GroupByConfig::default().with_group_size(group_size),
        )
    } else {
        GroupingStrategy::Random { seed: 1, group_size }
    };
    let mut svc = IbfsService::new(&graph, &reverse, RunConfig {
        engine,
        grouping,
        ..Default::default()
    });
    let run = svc.run_traced(&sources, sink.as_mut());

    println!("groups:                {}", run.groups.len());
    println!("simulated time:        {:.6} s", run.sim_seconds);
    println!("traversed edges:       {}", run.traversed_edges);
    println!("traversal rate:        {}", ibfs::metrics::format_teps(run.teps()));
    println!("sharing degree:        {:.2}", run.sharing_degree());
    println!("load transactions:     {}", run.counters.global_load_transactions);
    println!("store transactions:    {}", run.counters.global_store_transactions);
    println!("atomic transactions:   {}", run.counters.atomic_transactions);

    if print_levels {
        for (gi, group) in run.groups.iter().enumerate() {
            println!("group {gi} ({} instances):", group.num_instances);
            for l in &group.levels {
                println!(
                    "  level {:3} {:9?}  unique {:7}  instance-frontiers {:9}  edges {:9}  early-term {:6}",
                    l.level, l.direction, l.unique_frontiers, l.instance_frontiers,
                    l.edges_inspected, l.early_terminations
                );
            }
        }
    }

    if print_depths {
        for (gi, group) in run.groups.iter().enumerate() {
            for j in 0..group.num_instances {
                let depths = group.instance_depths(j);
                let reached = depths.iter().filter(|&&d| d != DEPTH_UNVISITED).count();
                let ecc = depths
                    .iter()
                    .filter(|&&d| d != DEPTH_UNVISITED)
                    .max()
                    .copied()
                    .unwrap_or(0);
                println!("group {gi} instance {j}: reached {reached}, eccentricity {ecc}");
            }
        }
    }
    ExitCode::SUCCESS
}

fn load_graph(graph_arg: &str) -> Result<Csr, ExitCode> {
    if let Some(name) = graph_arg.strip_prefix("suite:") {
        match suite::by_name(name) {
            Some(spec) => Ok(spec.generate()),
            None => Err(usage(&format!("unknown suite graph `{name}`"))),
        }
    } else {
        match io::load(std::path::Path::new(graph_arg)) {
            Ok(g) => Ok(g),
            Err(e) => {
                eprintln!("error loading {graph_arg}: {e}");
                Err(ExitCode::FAILURE)
            }
        }
    }
}

/// One-shot traversal through the measured CPU engine ([`ibfs::cpu`]) with
/// optional profiler export. Unlike the simulator path this reports
/// wall-clock (not simulated) time, `sink` receives each group's level
/// events stamped with the group index, and the per-lane phase breakdown
/// goes to `--profile`/`--profile-trace`.
#[allow(clippy::too_many_arguments)]
fn one_shot_cpu(
    graph: &Csr,
    reverse: &Csr,
    sources: &[VertexId],
    group_size: usize,
    print_depths: bool,
    print_levels: bool,
    sink: &mut dyn TraceSink,
    profile_out: Option<&str>,
    profile_trace: Option<&str>,
) -> ExitCode {
    let mut svc = CpuService::new(graph, reverse, CpuOptions::default());
    let group_size = group_size.min(svc.capacity());
    eprintln!(
        "graph: {} vertices, {} edges; cpu engine pooled; {} sources in groups of {group_size}",
        graph.num_vertices(),
        graph.num_edges(),
        sources.len(),
    );
    let prof =
        (profile_out.is_some() || profile_trace.is_some()).then(EngineProfiler::shared);
    if let Some(p) = &prof {
        svc.set_profiler(p.clone());
    }
    let mut runs = Vec::new();
    for (group, chunk) in sources.chunks(group_size.max(1)).enumerate() {
        match svc.run_group_traced(chunk, &mut GroupStamp { group: group as u64, inner: sink }) {
            Ok(r) => runs.push(r),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let wall: f64 = runs.iter().map(|r| r.wall_seconds).sum();
    let edges: u64 = runs.iter().map(|r| r.traversed_edges).sum();
    let stats = svc.stats();
    println!("groups:                {}", runs.len());
    println!("wall time:             {wall:.6} s");
    println!("traversed edges:       {edges}");
    println!(
        "traversal rate:        {}",
        ibfs::metrics::format_teps(edges as f64 / wall.max(1e-12))
    );
    println!("levels:                {}", stats.stats.levels);
    println!("pool phases:           {}", stats.pool_phases);

    if print_levels {
        for (gi, r) in runs.iter().enumerate() {
            println!("group {gi} ({} instances):", r.num_instances);
            for (l, s) in r.level_seconds.iter().enumerate() {
                println!("  level {l:3}  {s:.6} s");
            }
        }
    }
    if print_depths {
        for (gi, r) in runs.iter().enumerate() {
            for j in 0..r.num_instances {
                let depths = r.instance_depths(j);
                let reached = depths.iter().filter(|&&d| d != DEPTH_UNVISITED).count();
                let ecc = depths
                    .iter()
                    .filter(|&&d| d != DEPTH_UNVISITED)
                    .max()
                    .copied()
                    .unwrap_or(0);
                println!("group {gi} instance {j}: reached {reached}, eccentricity {ecc}");
            }
        }
    }
    if let Some(p) = &prof {
        if let Err(code) = export_profile(p, "bfs-pooled", profile_out, profile_trace) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

/// Builds, self-validates, and writes a [`ibfs_obs::ProfileReport`]. The
/// binary refuses to emit a report that fails its own schema or recorded
/// nothing, so `ci.sh` gates are plain invocations. The phase summary goes
/// to stderr either way.
fn export_profile(
    prof: &EngineProfiler,
    source: &str,
    report_path: Option<&str>,
    trace_path: Option<&str>,
) -> Result<(), ExitCode> {
    let report = prof.report(source);
    if let Err(e) = report.validate() {
        eprintln!("error: profile report fails validation: {e}");
        return Err(ExitCode::FAILURE);
    }
    if report.records.is_empty() {
        eprintln!("error: profile report is empty — no phases were recorded");
        return Err(ExitCode::FAILURE);
    }
    if let Some(path) = report_path {
        let mut body = report.to_json().to_string_pretty();
        body.push('\n');
        write_output(path, &body, "profile report")?;
    }
    if let Some(path) = trace_path {
        let mut body = report.to_chrome_trace();
        body.push('\n');
        write_output(path, &body, "chrome trace")?;
    }
    eprint!("{}", report.summary());
    Ok(())
}

/// `bfs serve-bench` — drive the batching server with closed-loop clients
/// and report latency, throughput, and batch-shape statistics.
fn serve_bench(args: Vec<String>) -> ExitCode {
    if args.is_empty() {
        return usage("serve-bench: missing graph argument");
    }
    let mut args = args;
    let graph_arg = args.remove(0);
    let mut cfg = LoadGenConfig::default();
    let mut json = false;
    let mut metrics_out: Option<String> = None;
    let mut metrics_text: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut profile_out: Option<String> = None;
    let mut profile_trace: Option<String> = None;
    let mut qos = false;
    let mut cache: Option<u64> = None;
    let mut bulk_quota: Option<u64> = None;
    let mut check = false;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let num = |flag: &str, it: &mut dyn Iterator<Item = String>| -> Option<u64> {
            let v = it.next().and_then(|s| s.parse().ok());
            if v.is_none() {
                eprintln!("error: {flag} needs a number");
            }
            v
        };
        match a.as_str() {
            "--clients" => match num("--clients", &mut it) {
                Some(n) => cfg.clients = n as usize,
                None => return ExitCode::from(2),
            },
            "--requests" => match num("--requests", &mut it) {
                Some(n) => cfg.requests_per_client = n as usize,
                None => return ExitCode::from(2),
            },
            "--workers" => match num("--workers", &mut it) {
                Some(n) => cfg.serve.workers = n as usize,
                None => return ExitCode::from(2),
            },
            "--max-batch" => match num("--max-batch", &mut it) {
                Some(n) => cfg.serve.max_batch = n as usize,
                None => return ExitCode::from(2),
            },
            "--window-us" => match num("--window-us", &mut it) {
                Some(n) => cfg.serve.batch_window = Duration::from_micros(n),
                None => return ExitCode::from(2),
            },
            "--queue" => match num("--queue", &mut it) {
                Some(n) => cfg.serve.queue_capacity = n as usize,
                None => return ExitCode::from(2),
            },
            "--deadline-ms" => match num("--deadline-ms", &mut it) {
                Some(n) => cfg.serve.default_deadline = Some(Duration::from_millis(n)),
                None => return ExitCode::from(2),
            },
            "--seed" => match num("--seed", &mut it) {
                Some(n) => cfg.seed = n,
                None => return ExitCode::from(2),
            },
            "--policy" => {
                cfg.serve.policy = match it.next().as_deref() {
                    Some("arrival") => CoalescePolicy::Arrival,
                    Some("groupby") => CoalescePolicy::GroupBy,
                    other => return usage(&format!("unknown policy {other:?}")),
                }
            }
            "--qos" => qos = true,
            "--profile" => {
                cfg.profile = match it.next().as_deref() {
                    Some("uniform") => SourceProfile::Uniform,
                    Some("powerlaw") => SourceProfile::PowerLaw { exponent: 1.2 },
                    other => return usage(&format!("unknown profile {other:?}")),
                }
            }
            "--bulk-clients" => match num("--bulk-clients", &mut it) {
                Some(n) => cfg.bulk_clients = n as usize,
                None => return ExitCode::from(2),
            },
            "--burst" => match num("--burst", &mut it) {
                Some(n) => cfg.burst = n as usize,
                None => return ExitCode::from(2),
            },
            "--cache" => match num("--cache", &mut it) {
                Some(n) => cache = Some(n),
                None => return ExitCode::from(2),
            },
            "--bulk-quota" => match num("--bulk-quota", &mut it) {
                Some(n) => bulk_quota = Some(n),
                None => return ExitCode::from(2),
            },
            "--check" => check = true,
            "--json" => json = true,
            "--metrics-out" => {
                metrics_out = match it.next() {
                    Some(p) => Some(p),
                    None => return usage("--metrics-out needs a path (or `-` for stdout)"),
                }
            }
            "--metrics-text" => {
                metrics_text = match it.next() {
                    Some(p) => Some(p),
                    None => return usage("--metrics-text needs a path (or `-` for stdout)"),
                }
            }
            "--trace" => {
                trace_out = match it.next() {
                    Some(p) => Some(p),
                    None => return usage("--trace needs a path (or `-` for stdout)"),
                }
            }
            "--profile-out" => {
                profile_out = match it.next() {
                    Some(p) => Some(p),
                    None => return usage("--profile-out needs a path (or `-` for stdout)"),
                }
            }
            "--profile-trace" => {
                profile_trace = match it.next() {
                    Some(p) => Some(p),
                    None => return usage("--profile-trace needs a path (or `-` for stdout)"),
                }
            }
            other => return usage(&format!("serve-bench: unknown option {other}")),
        }
    }

    // Compose the QoS policy from the flags: `--qos` is the standard
    // lanes + cache policy; `--cache` and `--bulk-quota` refine it (and
    // enable QoS on their own).
    if qos || cache.is_some() || bulk_quota.is_some() {
        let mut policy = if qos { QosPolicy::standard() } else { QosPolicy::default() };
        if let Some(cap) = cache {
            policy = policy.with_cache(cap as usize);
        }
        if let Some(q) = bulk_quota {
            policy = policy.with_quota(BULK_TENANT, q);
        }
        cfg.serve.qos = policy;
    }
    let qos_on = qos || cache.is_some() || bulk_quota.is_some();

    let graph = match load_graph(&graph_arg) {
        Ok(g) => g,
        Err(code) => return code,
    };
    let reverse = graph.reverse();
    eprintln!(
        "serve-bench: {} vertices, {} edges; {} clients x {} requests; {} workers, \
         max batch {}, window {:?}, policy {:?}",
        graph.num_vertices(),
        graph.num_edges(),
        cfg.clients,
        cfg.requests_per_client,
        cfg.serve.workers,
        cfg.serve.max_batch,
        cfg.serve.batch_window,
        cfg.serve.policy,
    );
    let mut telemetry = ServeTelemetry::with_registry(Registry::shared());
    let trace_log = trace_out.as_ref().map(|_| TraceLog::new());
    if let Some(log) = &trace_log {
        telemetry = telemetry.traced(log.clone());
    }
    let profiler =
        (profile_out.is_some() || profile_trace.is_some()).then(EngineProfiler::shared);
    if let Some(p) = &profiler {
        telemetry = telemetry.profiled(p.clone());
    }
    let res = run_loadgen_with(&graph, &reverse, &cfg, telemetry);

    if let Some(path) = &metrics_out {
        let body = res.report.snapshot.to_json().to_string_pretty();
        if let Err(code) = write_output(path, &body, "metrics snapshot") {
            return code;
        }
    }
    if let Some(path) = &metrics_text {
        let body = res.report.snapshot.render_prometheus();
        if let Err(code) = write_output(path, &body, "metrics text") {
            return code;
        }
    }
    if let (Some(path), Some(log)) = (&trace_out, &trace_log) {
        if let Err(code) = write_output(path, &log.render_jsonl(), "trace") {
            return code;
        }
    }
    if let Some(p) = &profiler {
        if let Err(code) =
            export_profile(p, "serve-bench", profile_out.as_deref(), profile_trace.as_deref())
        {
            return code;
        }
    }

    let s = &res.summary;
    let r = &res.report;
    if json {
        println!("{}", s.to_json().to_string_pretty());
        return serve_bench_check(check, qos_on, cfg.profile, s, r);
    }
    println!("issued:             {}", s.issued);
    println!(
        "completed:          {} (timeouts {}, overloaded {}, shutdown {})",
        s.completed, s.timeouts, s.overloaded, r.shutdown
    );
    println!(
        "latency:            {:.3} ms mean ({:.3} ms stddev)",
        s.latency_s.mean * 1e3,
        s.latency_s.stddev * 1e3
    );
    println!("throughput:         {:.1} requests/s over {:.3} s", s.throughput_rps, s.wall_seconds);
    println!("batches:            {}", s.num_batches);
    println!("batch occupancy:    {:.2}", s.occupancy);
    println!("sharing degree:     {:.2}", s.sharing_degree);
    println!("queue wait:         {:.3} ms mean", r.stats.queue_wait_s.mean * 1e3);
    println!("engine rate:        {}", ibfs::metrics::format_teps(s.teps));
    if qos_on {
        println!(
            "qos p99:            interactive {:.3} ms, bulk {:.3} ms",
            s.interactive_p99_s * 1e3,
            s.bulk_p99_s * 1e3
        );
        println!(
            "qos reuse:          cache hits {} ({:.1}% of lookups)",
            s.cache_hits,
            s.cache_hit_rate * 1e2
        );
        println!("quota rejected:     {}", s.quota_rejected);
    }
    serve_bench_check(check, qos_on, cfg.profile, s, r)
}

/// End-of-run acceptance for `serve-bench`: request conservation always,
/// plus the QoS invariants under `--check` — interactive p99 must beat
/// bulk p99 when both classes completed work, and a heavy-tailed profile
/// with a result cache must actually hit it.
fn serve_bench_check(
    check: bool,
    qos_on: bool,
    profile: SourceProfile,
    s: &ibfs_bench::loadgen::LoadGenSummary,
    r: &ibfs_serve::ServeReport,
) -> ExitCode {
    if !r.is_conserved() {
        eprintln!("error: request accounting not conserved");
        return ExitCode::FAILURE;
    }
    if qos_on && !r.is_conserved_per_class() {
        eprintln!("error: per-class request accounting not conserved");
        return ExitCode::FAILURE;
    }
    if !check {
        return ExitCode::SUCCESS;
    }
    let mut failed = false;
    if s.interactive_p99_s > 0.0 && s.bulk_p99_s > 0.0 && s.interactive_p99_s >= s.bulk_p99_s {
        eprintln!(
            "check failed: interactive p99 {:.3} ms >= bulk p99 {:.3} ms",
            s.interactive_p99_s * 1e3,
            s.bulk_p99_s * 1e3
        );
        failed = true;
    }
    // Lookups happen iff a cache is configured, so hits+misses > 0 is
    // the "cache on and exercised" signal.
    if matches!(profile, SourceProfile::PowerLaw { .. })
        && s.cache_hits == 0
        && s.cache_hits + r.cache_misses > 0
    {
        eprintln!("check failed: power-law profile with a result cache never hit it");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `bfs stats` — run one traversal with the metrics sink attached and
/// print the registry, as Prometheus text or a versioned JSON snapshot.
fn stats(args: Vec<String>) -> ExitCode {
    if args.is_empty() {
        return usage("stats: missing graph argument");
    }
    let mut args = args;
    let graph_arg = args.remove(0);
    let mut engine = EngineKind::Bitwise;
    let mut sources_n = 64usize;
    let mut group_size = 64usize;
    let mut groupby = false;
    let mut json = false;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--engine" => {
                engine = match it.next().as_deref() {
                    Some("sequential") => EngineKind::Sequential,
                    Some("naive") => EngineKind::Naive,
                    Some("joint") => EngineKind::Joint,
                    Some("bitwise") => EngineKind::Bitwise,
                    Some("msbfs") => EngineKind::BitwiseMsBfsStyle,
                    Some("spmm") => EngineKind::Spmm,
                    other => return usage(&format!("unknown engine {other:?}")),
                }
            }
            "--sources" => {
                sources_n = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--sources needs a number"),
                }
            }
            "--group-size" => {
                group_size = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--group-size needs a number"),
                }
            }
            "--groupby" => groupby = true,
            "--json" => json = true,
            other => return usage(&format!("stats: unknown option {other}")),
        }
    }

    let graph = match load_graph(&graph_arg) {
        Ok(g) => g,
        Err(code) => return code,
    };
    let reverse = graph.reverse();
    let sources: Vec<VertexId> =
        (0..graph.num_vertices().min(sources_n) as VertexId).collect();
    let grouping = if groupby {
        GroupingStrategy::OutDegreeRules(
            ibfs::groupby::GroupByConfig::default().with_group_size(group_size),
        )
    } else {
        GroupingStrategy::Random { seed: 1, group_size }
    };
    let mut svc = IbfsService::new(&graph, &reverse, RunConfig {
        engine,
        grouping,
        ..Default::default()
    });
    let registry = Registry::new();
    let mut null = NullSink;
    let mut sink = MetricsSink::new(&registry, &mut null);
    let run = svc.run_traced(&sources, &mut sink);
    eprintln!(
        "stats: {} vertices, {} edges; {} sources in {} groups; {:.6} s simulated",
        graph.num_vertices(),
        graph.num_edges(),
        sources.len(),
        run.groups.len(),
        run.sim_seconds,
    );
    let snapshot = registry.snapshot();
    if json {
        println!("{}", snapshot.to_json().to_string_pretty());
    } else {
        print!("{}", snapshot.render_prometheus());
    }
    ExitCode::SUCCESS
}

/// `bfs cpu-bench` — measure the CPU engine against the frozen pre-pool
/// baseline on a seeded R-MAT workload and write `BENCH_cpu.json`.
/// `--check` verifies every run's depths against `reference_bfs` and the
/// baseline.
fn cpu_bench(args: Vec<String>) -> ExitCode {
    use ibfs_bench::cpubench::{
        report_summary, report_to_json, run_cpu_bench, validate_report_json, CpuBenchConfig,
    };
    let mut cfg = CpuBenchConfig::default();
    let mut out: Option<String> = None;
    let mut profile_out: Option<String> = None;
    let mut profile_trace: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                cfg.scale = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--scale needs a number"),
                }
            }
            "--edge-factor" => {
                cfg.edge_factor = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--edge-factor needs a number"),
                }
            }
            "--seed" => {
                cfg.seed = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--seed needs a number"),
                }
            }
            "--sources" => {
                cfg.sources = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--sources needs a number"),
                }
            }
            "--group-size" => {
                cfg.group_size = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--group-size needs a number"),
                }
            }
            "--threads" => {
                let Some(list) = it.next() else {
                    return usage("--threads needs a count or comma list (e.g. 1,2,4,8)");
                };
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(|x| x.trim().parse()).collect();
                match parsed {
                    Ok(v) if !v.is_empty() && v.iter().all(|&t| t > 0) => cfg.threads = v,
                    _ => return usage("bad --threads list"),
                }
            }
            "--width" => {
                let arg = it.next();
                match arg.as_deref().and_then(ibfs::word::WordWidth::parse) {
                    Some(w) => cfg.width = w,
                    None => {
                        return usage(&format!(
                            "unknown width {} (expect 32|64|128|256)",
                            arg.as_deref().unwrap_or("<missing>")
                        ))
                    }
                }
            }
            "--repeat" => {
                cfg.repeat = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--repeat needs a number (best-of-N passes)"),
                }
            }
            "--check" => cfg.check = true,
            "--out" => {
                out = match it.next() {
                    Some(p) => Some(p),
                    None => return usage("--out needs a path (or `-` for stdout)"),
                }
            }
            "--profile-out" => {
                profile_out = match it.next() {
                    Some(p) => Some(p),
                    None => return usage("--profile-out needs a path (or `-` for stdout)"),
                }
            }
            "--profile-trace" => {
                profile_trace = match it.next() {
                    Some(p) => Some(p),
                    None => return usage("--profile-trace needs a path (or `-` for stdout)"),
                }
            }
            other => return usage(&format!("cpu-bench: unknown option {other}")),
        }
    }
    let profiler =
        (profile_out.is_some() || profile_trace.is_some()).then(EngineProfiler::shared);
    cfg.profiler = profiler.clone();

    eprintln!(
        "cpu-bench: rmat scale {} edge-factor {} seed {}; {} sources, groups of {}, \
         width {}, threads {:?}{}",
        cfg.scale,
        cfg.edge_factor,
        cfg.seed,
        cfg.sources,
        cfg.group_size,
        cfg.width,
        cfg.threads,
        if cfg.check { " (checked against reference + baseline)" } else { "" },
    );
    let report = run_cpu_bench(&cfg);
    let body = report_to_json(&report);
    // Round-trip the exact bytes we are about to write through the schema
    // validator, so a written file is a valid file.
    if let Err(e) = validate_report_json(&body) {
        eprintln!("error: emitted report fails its own schema: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &out {
        if let Err(code) = write_output(path, &body, "cpu bench report") {
            return code;
        }
    }
    if let Some(p) = &profiler {
        if let Err(code) =
            export_profile(p, "cpu-bench", profile_out.as_deref(), profile_trace.as_deref())
        {
            return code;
        }
    }
    print!("{}", report_summary(&report));
    ExitCode::SUCCESS
}

/// `bfs perf-diff` — compare two `BENCH_cpu.json` documents and fail (with
/// `--check`) when a speedup leaves the noise band or a row disappears.
fn perf_diff(args: Vec<String>) -> ExitCode {
    use ibfs_bench::perfdiff::{diff_report_texts, render_diff, DEFAULT_NOISE_PCT};
    let mut noise = DEFAULT_NOISE_PCT;
    let mut check = false;
    let mut paths: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--noise" => {
                noise = match it.next().and_then(|s| s.parse::<f64>().ok()) {
                    Some(n) if n >= 0.0 => n,
                    _ => return usage("--noise needs a non-negative percentage"),
                }
            }
            "--check" => check = true,
            other if other.starts_with("--") => {
                return usage(&format!("perf-diff: unknown option {other}"))
            }
            _ => paths.push(a),
        }
    }
    if paths.len() != 2 {
        return usage("perf-diff needs exactly two report paths: BASE NEW");
    }
    let mut texts = Vec::new();
    for p in &paths {
        match std::fs::read_to_string(p) {
            Ok(t) => texts.push(t),
            Err(e) => {
                eprintln!("error reading {p}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match diff_report_texts(&texts[0], &paths[0], &texts[1], &paths[1], noise) {
        Ok(diff) => {
            print!("{}", render_diff(&diff, &paths[0], &paths[1]));
            if check && !diff.passes() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `bfs bench-pairs` — summarize alternating parent/change benchmark runs.
fn bench_pairs(args: Vec<String>) -> ExitCode {
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut dirs: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => match it.next() {
                Some(p) => spec_path = p,
                None => return usage("--spec needs a path"),
            },
            other if other.starts_with("--") => {
                return usage(&format!("bench-pairs: unknown option {other}"))
            }
            _ => dirs.push(a),
        }
    }
    if dirs.len() != 2 {
        return usage("bench-pairs needs exactly two directories: PARENT CHANGE");
    }
    let (spec, parent, change) = (spec_path.as_ref(), dirs[0].as_ref(), dirs[1].as_ref());
    match ibfs_bench::pairs::summarize(spec, parent, change) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `bfs top` — poll a metrics snapshot file (e.g. one rewritten by
/// `serve-bench --metrics-out`) and redraw the live SLO / serve / profiler
/// dashboard between ticks. An unreadable or partially-written file skips
/// the tick instead of killing the watch.
fn top(args: Vec<String>) -> ExitCode {
    use ibfs_bench::top::render_dashboard;
    let mut path: Option<String> = None;
    let mut ticks = 0u64;
    let mut interval = Duration::from_millis(1000);
    let mut clear = true;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ticks" => {
                ticks = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--ticks needs a number (0 = until interrupted)"),
                }
            }
            "--interval-ms" => {
                interval = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => Duration::from_millis(n),
                    None => return usage("--interval-ms needs a number"),
                }
            }
            "--no-clear" => clear = false,
            other if other.starts_with("--") => {
                return usage(&format!("top: unknown option {other}"))
            }
            _ => {
                if path.replace(a).is_some() {
                    return usage("top takes exactly one snapshot path");
                }
            }
        }
    }
    let Some(path) = path else {
        return usage("top: missing snapshot path (write one with serve-bench --metrics-out)");
    };

    let mut prev: Option<Snapshot> = None;
    let mut tick = 0u64;
    loop {
        let cur = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| Json::parse(&t).ok())
            .and_then(|j| Snapshot::from_json(&j).ok());
        match cur {
            Some(cur) => {
                let frame = render_dashboard(prev.as_ref(), &cur, tick);
                if clear {
                    print!("\x1b[2J\x1b[H");
                }
                print!("{frame}");
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                prev = Some(cur);
            }
            None => eprintln!("top: {path}: no readable snapshot yet (tick {tick})"),
        }
        tick += 1;
        if ticks != 0 && tick >= ticks {
            break;
        }
        std::thread::sleep(interval);
    }
    ExitCode::SUCCESS
}

/// Writes `body` to `path`, with `-` meaning stdout. `what` names the
/// payload in error messages.
fn write_output(path: &str, body: &str, what: &str) -> Result<(), ExitCode> {
    if path == "-" {
        print!("{body}");
        return Ok(());
    }
    match std::fs::write(path, body) {
        Ok(()) => {
            eprintln!("wrote {what} to {path}");
            Ok(())
        }
        Err(e) => {
            eprintln!("error writing {what} to {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: bfs <GRAPH|suite:NAME> [--engine sequential|naive|joint|bitwise|msbfs|spmm\
         |pooled] \
         [--sources N | --source-list a,b,c] [--group-size N] [--groupby] [--depths] [--levels] \
         [--trace PATH|-] [--profile PATH|-] [--profile-trace PATH|-]\n\
       bfs stats <GRAPH|suite:NAME> [--engine ENGINE] [--sources N] [--group-size N] \
         [--groupby] [--json]\n\
       bfs serve-bench <GRAPH|suite:NAME> [--clients N] [--requests N] [--workers N] \
         [--max-batch N] [--window-us N] [--queue N] [--deadline-ms N] \
         [--seed N] [--policy arrival|groupby] [--qos] \
         [--profile uniform|powerlaw] [--bulk-clients N] [--burst N] [--cache N] \
         [--bulk-quota N] [--check] [--json] \
         [--metrics-out PATH|-] [--metrics-text PATH|-] [--trace PATH|-] \
         [--profile-out PATH|-] [--profile-trace PATH|-]\n\
       bfs cpu-bench [--scale N] [--edge-factor N] [--seed N] [--sources N] \
         [--group-size N] [--threads N[,N...]] [--width 32|64|128|256] \
         [--repeat N] [--check] [--out PATH|-] [--profile-out PATH|-] [--profile-trace PATH|-]\n\
       bfs perf-diff <BASE.json> <NEW.json> [--noise PCT] [--check]\n\
       bfs bench-pairs <PARENT_DIR> <CHANGE_DIR> [--spec BENCHMARK.json]\n\
       bfs top <SNAPSHOT.json> [--ticks N] [--interval-ms N] [--no-clear]"
    );
    ExitCode::from(2)
}
