//! The serve workloads: an open-loop generator against `serve_with`.
//!
//! Exactly two generator threads: one sends on the seeded schedule with
//! `try_submit` (a bounce is a failure), one waits on tickets in submission
//! order. Latency runs from each request's due time. A cache hit resolves
//! inside `try_submit`, so its completion is when that call returns.
//!
//! Waiting in submission order is exact only while replies complete in
//! that order, which one worker, arrival-order batching and one class
//! guarantee. The waiter counts any reply whose batch ran before an
//! earlier request's batch; a non-zero count voids the run.

use crate::oracle::{self, Deferred};
use crate::report::{chrome_event, Layers, Measured};
use crate::stats::{mean, median, p95, ratio};
use crate::workload::{self, Arrival, Shape, Stream, Workload};
use ibfs::trace::{TraceLog, TraceRecord};
use ibfs_graph::Csr;
use ibfs_obs::span::SpanStage;
use ibfs_obs::{EngineProfiler, ProfPhase};
use ibfs_serve::{
    serve_with, CoalescePolicy, QosPolicy, ServeConfig, ServeError, ServeReport, ServeTelemetry,
};
use ibfs_util::Json;
use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Every 16th reply (from a seeded offset) is checked against
/// `reference_bfs` after the window.
const ORACLE_STRIDE: usize = 16;

/// A layer-sum residual within `max(IDENTITY_ABS_MS, IDENTITY_REL · latency)`
/// counts as held.
pub const IDENTITY_ABS_MS: f64 = 0.2;
const IDENTITY_REL: f64 = 0.02;
/// Share of requests on which the identity may miss.
const IDENTITY_MISS_SHARE: f64 = 0.01;

/// What the server said about one answered request.
#[derive(Clone, Copy, Debug)]
struct Reply {
    request: u64,
    batch: u64,
    batch_sources: usize,
    queue_wait_s: f64,
    from_cache: bool,
}

/// One request as the generator saw it; times in seconds from the run's
/// start.
#[derive(Clone, Copy, Debug)]
struct Sample {
    arrival: Arrival,
    sent_s: f64,
    returned_s: f64,
    received_s: f64,
    reply: Result<Reply, ServeError>,
}

impl Sample {
    /// When the request completed: a cache hit inside `try_submit`,
    /// anything else when its ticket resolved.
    fn done_s(&self) -> f64 {
        match self.reply {
            Ok(r) if r.from_cache => self.returned_s,
            _ => self.received_s,
        }
    }

    fn latency_ms(&self) -> f64 {
        (self.done_s() - self.arrival.due_s) * 1e3
    }
}

/// The server every serve workload runs: one worker, arrival-order
/// batching, one CPU lane; QoS on or off.
fn config(w: &Workload) -> ServeConfig {
    let Shape::Serve { qos, .. } = w.shape else {
        unreachable!("serve config for a batch workload")
    };
    ServeConfig {
        workers: 1,
        policy: CoalescePolicy::Arrival,
        cpu: Some(w.cpu_options()),
        qos: if qos {
            QosPolicy::standard()
        } else {
            QosPolicy::default()
        },
        ..ServeConfig::default()
    }
}

/// Warm-up plus `seconds` of open-loop traffic against `graph`.
pub fn run(
    w: &Workload,
    graph: &Csr,
    rev: &Csr,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Measured, String> {
    let Shape::Serve {
        rate,
        traffic,
        warmup_s,
        ..
    } = w.shape
    else {
        unreachable!("serve run for a batch workload")
    };
    let arrivals = workload::schedule(graph, traffic, rate, warmup_s + seconds, seed);
    let oracle_offset = workload::rng(seed, Stream::Oracle).gen_range(0..ORACLE_STRIDE);
    let (log, profiler) = (TraceLog::new(), EngineProfiler::shared());
    let mut telemetry = ServeTelemetry::default();
    if traced {
        telemetry = telemetry.traced(log.clone()).profiled(profiler.clone());
    }
    let n = graph.num_vertices();
    let ((samples, deferred, mut problems, reordered, profiler_at_start), report) =
        serve_with(graph, rev, config(w), telemetry, |h| {
            let start = Instant::now();
            let profiler_at_start = profiler.now_s();
            let since = |t: Instant| (t - start).as_secs_f64();
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|s| {
                s.spawn(|| {
                    for (i, a) in arrivals.iter().enumerate() {
                        let due = start + Duration::from_secs_f64(a.due_s);
                        if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(ahead);
                        }
                        let sent = Instant::now();
                        let ticket = h.try_submit(a.source);
                        let returned = Instant::now();
                        tx.send((i, since(sent), since(returned), ticket))
                            .expect("waiter outlives sender");
                    }
                    drop(tx);
                });
                let waiter = s.spawn(|| {
                    let mut samples = Vec::with_capacity(arrivals.len());
                    let (mut deferred, mut problems) = (Deferred::default(), Vec::new());
                    let (mut reordered, mut last_batch) = (0u64, 0u64);
                    for (i, sent_s, returned_s, ticket) in rx {
                        let arrival: Arrival = arrivals[i];
                        let outcome = ticket.and_then(|t| t.wait());
                        let received_s = since(Instant::now());
                        let reply = outcome.map(|resp| {
                            if let Err(e) =
                                oracle::check_reply(n, arrival.source, resp.source, &resp.depths)
                            {
                                problems.push(format!("request {}: {e}", resp.request));
                            } else if i % ORACLE_STRIDE == oracle_offset {
                                deferred.push(resp.source, &resp.depths);
                            }
                            if !resp.from_cache {
                                if resp.batch < last_batch {
                                    reordered += 1;
                                }
                                last_batch = last_batch.max(resp.batch);
                            }
                            Reply {
                                request: resp.request,
                                batch: resp.batch,
                                batch_sources: resp.batch_sources,
                                queue_wait_s: resp.queue_wait.as_secs_f64(),
                                from_cache: resp.from_cache,
                            }
                        });
                        samples.push(Sample {
                            arrival,
                            sent_s,
                            returned_s,
                            received_s,
                            reply,
                        });
                    }
                    (samples, deferred, problems, reordered)
                });
                let (samples, deferred, problems, reordered) =
                    waiter.join().expect("waiter thread panicked");
                (samples, deferred, problems, reordered, profiler_at_start)
            })
        });
    if samples.len() != arrivals.len() {
        problems.push(format!(
            "{} of {} requests came back",
            samples.len(),
            arrivals.len()
        ));
    }
    if !report.is_conserved() {
        problems.push("serve report does not conserve requests".into());
    }
    if reordered > 0 {
        problems.push(format!(
            "{reordered} replies completed out of submission order"
        ));
    }
    problems.extend(deferred.verify(graph));

    let measured: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.arrival.due_s >= warmup_s)
        .collect();
    let answered: Vec<(&Sample, Reply)> = measured
        .iter()
        .filter_map(|s| s.reply.ok().map(|r| (*s, r)))
        .collect();
    let latencies: Vec<f64> = answered.iter().map(|(s, _)| s.latency_ms()).collect();
    let batches: HashMap<u64, (f64, u64)> = report
        .batches
        .iter()
        .map(|b| (b.batch, (b.sim_seconds, b.traversed_edges)))
        .collect();
    let engine_s = |r: &Reply| batches.get(&r.batch).map_or(0.0, |b| b.0);
    let traversed: HashSet<u64> = answered
        .iter()
        .filter(|(_, r)| !r.from_cache)
        .map(|(_, r)| r.batch)
        .collect();
    // (wall seconds, traversed edges) of each batch the window's replies rode.
    let ran: Vec<(f64, u64)> = traversed
        .iter()
        .filter_map(|b| batches.get(b))
        .copied()
        .collect();
    let engine: Vec<f64> = ran.iter().map(|b| b.0 * 1e3).collect();
    let rates: Vec<f64> = ran.iter().map(|&(s, e)| e as f64 / s).collect();
    let misses: Vec<&(&Sample, Reply)> = answered.iter().filter(|(_, r)| !r.from_cache).collect();

    let late: Vec<f64> = measured
        .iter()
        .map(|s| (s.sent_s - s.arrival.due_s) * 1e3)
        .collect();
    let submit: Vec<f64> = measured
        .iter()
        .map(|s| (s.returned_s - s.sent_s) * 1e6)
        .collect();
    let batch_sources: HashMap<u64, usize> = misses
        .iter()
        .map(|(_, r)| (r.batch, r.batch_sources))
        .collect();
    let mut layers = Layers {
        late_p95_ms: p95(&late)?,
        late_max_ms: late.iter().copied().fold(0.0, f64::max),
        reordered_replies: reordered as f64,
        submit_p50_us: median(&submit)?,
        submit_p95_us: p95(&submit)?,
        cache_hit_rate: ratio(
            (answered.len() - misses.len()) as f64,
            answered.len() as f64,
        ),
        overloaded: measured
            .iter()
            .filter(|s| matches!(s.reply, Err(ServeError::Overloaded)))
            .count() as f64,
        batches: traversed.len() as f64,
        sources_per_batch: mean(
            &batch_sources
                .values()
                .map(|&n| n as f64)
                .collect::<Vec<_>>(),
        ),
        engine_p50_ms: median(&engine)?,
        engine_p95_ms: p95(&engine)?,
        traversed_edges: ran.iter().map(|b| b.1).sum::<u64>() as f64,
        ..Layers::default()
    };
    let waits: Vec<f64> = misses.iter().map(|(_, r)| r.queue_wait_s * 1e3).collect();
    layers.queue_wait_p50_ms = median(&waits)?;
    layers.queue_wait_p95_ms = p95(&waits)?;
    // Worker start is the send instant plus the server's queue wait.
    let replies: Vec<f64> = misses
        .iter()
        .map(|(s, r)| (s.received_s - (s.sent_s + r.queue_wait_s + engine_s(r))) * 1e3)
        .collect();
    layers.reply_p50_ms = median(&replies)?;
    engine_counters(&report, &mut layers);

    let mut trace_events = Vec::new();
    if traced {
        let spans = Spans::collect(&log, &answered)?;
        let mut residuals = Vec::new();
        let (mut window_plan, mut dispatch_wait) = (Vec::new(), Vec::new());
        for (s, r) in &answered {
            let parts = spans.parts(s, r, engine_s(r));
            let sum: f64 = parts.iter().map(|p| p.1).sum();
            let residual_ms = (sum - (s.done_s() - s.arrival.due_s)) * 1e3;
            let part = |name| parts.iter().find(|p| p.0 == name).map(|p| p.1 * 1e3);
            // The worker-start estimate is never late, so a reply that ends
            // before its engine time has elapsed carries another batch's time.
            if part("reply").is_some_and(|ms| ms < -IDENTITY_ABS_MS) {
                problems.push(format!(
                    "request {}: engine time exceeds its batch's span",
                    r.request
                ));
            }
            residuals.push((residual_ms.abs(), s.latency_ms()));
            window_plan.extend(part("batcher"));
            dispatch_wait.extend(part("queue"));
            trace_events.extend(request_events(s, r, &parts));
        }
        layers.window_plan_p50_ms = median(&window_plan)?;
        layers.dispatch_wait_p50_ms = median(&dispatch_wait)?;
        let missed = residuals
            .iter()
            .filter(|(res, lat)| *res > IDENTITY_ABS_MS.max(IDENTITY_REL * lat))
            .count();
        layers.identity_misses = missed as f64;
        layers.unaccounted_p95_ms = p95(&residuals.iter().map(|r| r.0).collect::<Vec<_>>())?;
        if missed as f64 > IDENTITY_MISS_SHARE * residuals.len() as f64 {
            problems.push(format!(
                "layer-sum identity missed on {missed} of {} requests",
                residuals.len()
            ));
        }
        // Batch spans on the profiler's clock, shifted onto the run's.
        let report = profiler.report("benchmark");
        trace_events.extend(
            report
                .records
                .iter()
                .filter(|r| r.phase == ProfPhase::ServeBatch)
                .map(|r| {
                    chrome_event(
                        "serve_batch",
                        (r.start_s - profiler_at_start) * 1e6,
                        r.seconds * 1e6,
                        0,
                        r.lane,
                        r.level,
                    )
                }),
        );
    }

    Ok(Measured {
        attempted: samples.len() as u64,
        failed: samples.iter().filter(|s| s.reply.is_err()).count() as u64,
        latency_p50_ms: median(&latencies)?,
        latency_p95_ms: p95(&latencies)?,
        teps: median(&rates)?,
        layers,
        problems,
        trace_events,
    })
}

/// Fills the engine counters the serve workers publish into the report's
/// registry snapshot (lifetime totals, warm-up included, so only ratios).
fn engine_counters(report: &ServeReport, layers: &mut Layers) {
    let c = |name: &str| report.snapshot.counter(name).unwrap_or(0) as f64;
    let (groups, levels) = (c("ibfs_cpu_groups_total"), c("ibfs_cpu_levels_total"));
    layers.levels_per_group = ratio(levels, groups);
    layers.chunks_touched_per_level = ratio(c("ibfs_cpu_chunks_touched_total"), levels);
    layers.full_sweeps_per_group = ratio(c("ibfs_cpu_full_sweeps_total"), groups);
    layers.dense_levels_per_group = ratio(c("ibfs_cpu_dense_levels_total"), groups);
    layers.phases_per_level = ratio(c("ibfs_cpu_pool_phases_total"), levels);
}

/// Span stamps of each answered request, on the generator's clock.
struct Spans {
    /// request id → (admitted, dispatched, completed) seconds from start.
    at: HashMap<u64, [f64; 3]>,
}

impl Spans {
    /// Reads the trace log and aligns the serve run's span clock with the
    /// generator's: every `Admitted` stamp is taken inside `try_submit`, so
    /// the offset is the largest `sent - admitted` over all requests.
    fn collect(log: &TraceLog, answered: &[(&Sample, Reply)]) -> Result<Spans, String> {
        let mut at: HashMap<u64, [f64; 3]> = HashMap::new();
        for record in log.records() {
            let TraceRecord::Span(e) = record else {
                continue;
            };
            let slot = match e.stage {
                SpanStage::Admitted => 0,
                SpanStage::Dispatched => 1,
                SpanStage::Completed | SpanStage::CacheHit => 2,
                _ => continue,
            };
            at.entry(e.request).or_insert([f64::NAN; 3])[slot] = e.t_s;
        }
        let mut offset = f64::NEG_INFINITY;
        for (s, r) in answered {
            let stamps = at
                .get(&r.request)
                .ok_or_else(|| format!("request {} has no spans", r.request))?;
            offset = offset.max(s.sent_s - stamps[0]);
        }
        for stamps in at.values_mut() {
            stamps.iter_mut().for_each(|t| *t += offset);
        }
        Ok(Spans { at })
    }

    /// The request's latency split into consecutive layers, each measured
    /// at its own source: the generator's clock (late, submit, wake), the
    /// span log (batcher, reply), the reply's queue wait (queue) and the
    /// batch record (engine). The worker start is the send instant plus the
    /// queue wait, which is never later than the true start. The parts sum
    /// to the latency plus the time `try_submit` spent after its admission
    /// stamp; a span of another request shows as a large residual. The
    /// batcher part is negative when the batch left before the admission
    /// stamp was taken (the sender was preempted between the two).
    fn parts(&self, s: &Sample, r: &Reply, engine_s: f64) -> Vec<(&'static str, f64)> {
        let mut parts = vec![
            ("late", s.sent_s - s.arrival.due_s),
            ("submit", s.returned_s - s.sent_s),
        ];
        if r.from_cache {
            return parts;
        }
        let [admitted, dispatched, completed] = self.at[&r.request];
        let worker_start = s.sent_s + r.queue_wait_s;
        parts.extend([
            ("batcher", dispatched - admitted),
            ("queue", worker_start - dispatched),
            ("engine", engine_s),
            ("reply", completed - worker_start - engine_s),
            ("wake", s.received_s - completed),
        ]);
        parts
    }
}

/// One request's parts as consecutive Chrome trace slices on its own row.
fn request_events(s: &Sample, r: &Reply, parts: &[(&'static str, f64)]) -> Vec<Json> {
    let mut t = s.arrival.due_s;
    parts
        .iter()
        .map(|&(name, d)| {
            let e = chrome_event(name, t * 1e6, d.max(0.0) * 1e6, 1, r.request, r.batch);
            t += d;
            e
        })
        .collect()
}
