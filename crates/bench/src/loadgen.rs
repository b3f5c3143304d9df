//! Closed-loop load generator for the serve layer.
//!
//! Each simulated client thread issues one request, waits for its reply,
//! then issues the next (a closed loop, so offered load tracks service
//! capacity instead of overrunning it). Sources are drawn from a seeded
//! PRNG per client, so a run is reproducible request-for-request; only
//! thread interleaving varies. The result combines client-side latency
//! statistics with the server's own [`ServeReport`].
//!
//! Two QoS-oriented extensions ride on the same machinery:
//!
//! * [`SourceProfile::PowerLaw`] draws sources from a Zipf-like
//!   distribution over vertex ids — the heavy-tailed hot-source pattern
//!   real BFS serving sees, and the shape that exercises the result
//!   cache.
//! * [`LoadGenConfig::bulk_clients`] turns the first clients into a bulk
//!   tenant (`TenantId(1)`, [`Class::Bulk`]) submitting in bursts of
//!   [`LoadGenConfig::burst`] instead of one at a time, saturating the
//!   bulk lane while interactive clients stay closed-loop — the overload
//!   scenario the per-class p99 report is for.

use ibfs::metrics::{mean_std, MeanStd};
use ibfs_graph::{Csr, VertexId};
use ibfs_serve::{
    serve_with, Class, ServeConfig, ServeError, ServeReport, ServeTelemetry, TenantId,
};
use ibfs_util::json_struct;
use ibfs_util::rng::Rng;
use std::time::Instant;

/// The tenant bulk clients submit under (interactive clients use
/// [`TenantId::DEFAULT`]).
pub const BULK_TENANT: TenantId = TenantId(1);

/// How client threads draw BFS sources.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum SourceProfile {
    /// Uniform over all vertices.
    #[default]
    Uniform,
    /// Zipf-like heavy tail: vertex `v` is drawn with probability
    /// proportional to `1/(v+1)^exponent`, so low-numbered vertices are
    /// hot sources that repeat across clients.
    PowerLaw {
        /// Tail exponent; ~1.0–2.0 is the realistic range, larger is
        /// hotter.
        exponent: f64,
    },
}

/// A prepared sampler for one [`SourceProfile`] over `n` vertices.
struct SourceSampler {
    n: u32,
    /// Cumulative weights per vertex for the power-law profile; `None`
    /// means uniform.
    cumulative: Option<Vec<f64>>,
}

impl SourceSampler {
    fn new(profile: SourceProfile, n: u32) -> Self {
        let cumulative = match profile {
            SourceProfile::Uniform => None,
            SourceProfile::PowerLaw { exponent } => {
                let mut acc = 0.0;
                Some(
                    (0..n)
                        .map(|v| {
                            acc += (v as f64 + 1.0).powf(-exponent);
                            acc
                        })
                        .collect(),
                )
            }
        };
        SourceSampler { n, cumulative }
    }

    fn draw(&self, rng: &mut Rng) -> VertexId {
        match &self.cumulative {
            None => rng.gen_range(0..self.n),
            Some(cum) => {
                let total = *cum.last().expect("sampler over an empty graph");
                let x = rng.gen::<f64>() * total;
                (cum.partition_point(|&c| c <= x) as VertexId).min(self.n - 1)
            }
        }
    }
}

/// Workload shape for [`run_loadgen`].
#[derive(Clone, Debug)]
pub struct LoadGenConfig {
    /// Concurrent clients (bulk first, then interactive).
    pub clients: usize,
    /// Requests each client issues before retiring.
    pub requests_per_client: usize,
    /// PRNG seed; client `c` streams from `seed ^ (c + 1)`.
    pub seed: u64,
    /// How sources are drawn.
    pub profile: SourceProfile,
    /// The first `bulk_clients` clients submit as the bulk tenant
    /// ([`BULK_TENANT`], [`Class::Bulk`]); the rest stay interactive.
    pub bulk_clients: usize,
    /// Bulk submission burst: each bulk client keeps this many requests
    /// in flight at once (1 = closed loop, same as interactive).
    pub burst: usize,
    /// Server under test.
    pub serve: ServeConfig,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            clients: 4,
            requests_per_client: 64,
            seed: 42,
            profile: SourceProfile::default(),
            bulk_clients: 0,
            burst: 1,
            serve: ServeConfig::default(),
        }
    }
}

/// `p`-th percentile of `sorted` (ascending), by the nearest-rank rule.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Flat, JSON-ready summary of a load-generator run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoadGenSummary {
    /// Requests issued across clients.
    pub issued: u64,
    /// Requests answered with depths.
    pub completed: u64,
    /// Requests that timed out.
    pub timeouts: u64,
    /// Requests bounced on a full queue.
    pub overloaded: u64,
    /// Client-observed submit-to-resolve latency (seconds).
    pub latency_s: MeanStd,
    /// Wall-clock duration of the whole run.
    pub wall_seconds: f64,
    /// Client-observed completed requests per wall second.
    pub throughput_rps: f64,
    /// Batches dispatched by the server.
    pub num_batches: u64,
    /// Mean batch occupancy.
    pub occupancy: f64,
    /// Mean per-batch sharing degree.
    pub sharing_degree: f64,
    /// Aggregate TEPS across batches: traversed edges over the CPU
    /// engine's wall-clock seconds.
    pub teps: f64,
    /// Requests rejected on a per-tenant quota.
    pub quota_rejected: u64,
    /// Requests answered straight from the result cache.
    pub cache_hits: u64,
    /// Cache hits over total cache lookups (0 when the cache is off).
    pub cache_hit_rate: f64,
    /// Interactive-class p99 latency in seconds (0 when no interactive
    /// request completed).
    pub interactive_p99_s: f64,
    /// Bulk-class p99 latency in seconds (0 when no bulk request
    /// completed).
    pub bulk_p99_s: f64,
}

json_struct!(LoadGenSummary {
    issued,
    completed,
    timeouts,
    overloaded,
    latency_s,
    wall_seconds,
    throughput_rps,
    num_batches,
    occupancy,
    sharing_degree,
    teps,
    quota_rejected,
    cache_hits,
    cache_hit_rate,
    interactive_p99_s,
    bulk_p99_s,
});

/// Everything a load-generator run produced.
#[derive(Debug)]
pub struct LoadGenResult {
    /// Flat summary (latency, throughput, batch shape).
    pub summary: LoadGenSummary,
    /// The server's own report.
    pub report: ServeReport,
}

/// Drives `cfg.clients` closed-loop clients against a server on `graph`
/// with default telemetry (fresh registry, no trace).
pub fn run_loadgen(graph: &Csr, reverse: &Csr, cfg: &LoadGenConfig) -> LoadGenResult {
    run_loadgen_with(graph, reverse, cfg, ServeTelemetry::default())
}

/// [`run_loadgen`] recording into caller-provided telemetry: the registry
/// snapshot lands in `report.snapshot`; when `telemetry.trace` is set, the
/// caller's [`TraceLog`](ibfs::trace::TraceLog) receives the merged
/// span/level stream.
pub fn run_loadgen_with(
    graph: &Csr,
    reverse: &Csr,
    cfg: &LoadGenConfig,
    telemetry: ServeTelemetry,
) -> LoadGenResult {
    let n = graph.num_vertices() as u32;
    let clients = cfg.clients.max(1);
    let sampler = &SourceSampler::new(cfg.profile, n);
    let started = Instant::now();
    let (latencies, report) = serve_with(graph, reverse, cfg.serve.clone(), telemetry, |h| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    s.spawn(move || {
                        let mut rng = Rng::seed_from_u64(cfg.seed ^ (c as u64 + 1));
                        let bulk = c < cfg.bulk_clients;
                        let (tenant, class) = if bulk {
                            (BULK_TENANT, Class::Bulk)
                        } else {
                            (TenantId::DEFAULT, Class::Interactive)
                        };
                        let burst = if bulk { cfg.burst.max(1) } else { 1 };
                        let mut latencies = Vec::with_capacity(cfg.requests_per_client);
                        let mut issued = 0;
                        while issued < cfg.requests_per_client {
                            // Submit a burst of tickets (interactive
                            // clients stay closed-loop: burst == 1),
                            // then wait them all out.
                            let count = burst.min(cfg.requests_per_client - issued);
                            issued += count;
                            let inflight: Vec<_> = (0..count)
                                .map(|_| {
                                    let source: VertexId = sampler.draw(&mut rng);
                                    (Instant::now(), h.submit_tagged(source, tenant, class))
                                })
                                .collect();
                            for (t0, submitted) in inflight {
                                let outcome = match submitted {
                                    Ok(ticket) => ticket.wait().map(|_| ()),
                                    Err(e) => Err(e),
                                };
                                match outcome {
                                    // Latency counts only served requests;
                                    // errors are visible in the report.
                                    Ok(()) => {
                                        latencies.push((class, t0.elapsed().as_secs_f64()));
                                    }
                                    Err(
                                        ServeError::Timeout
                                        | ServeError::Overloaded
                                        | ServeError::Shutdown
                                        | ServeError::QuotaExceeded { .. },
                                    ) => {}
                                    Err(e @ ServeError::Invalid(_)) => {
                                        panic!("loadgen issued an invalid request: {e}")
                                    }
                                }
                            }
                        }
                        latencies
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<(Class, f64)>>()
        })
    });
    let wall_seconds = started.elapsed().as_secs_f64();
    let all: Vec<f64> = latencies.iter().map(|&(_, l)| l).collect();
    let mut by_class: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for &(class, l) in &latencies {
        by_class[class.idx()].push(l);
    }
    for lane in &mut by_class {
        lane.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    }
    let summary = LoadGenSummary {
        issued: (clients * cfg.requests_per_client) as u64,
        completed: report.completed,
        timeouts: report.timeouts,
        overloaded: report.overloaded,
        latency_s: mean_std(&all),
        wall_seconds,
        throughput_rps: if wall_seconds > 0.0 {
            report.completed as f64 / wall_seconds
        } else {
            0.0
        },
        num_batches: report.stats.num_batches,
        occupancy: report.stats.occupancy.mean,
        sharing_degree: report.stats.sharing_degree.mean,
        teps: report.stats.teps,
        quota_rejected: report.quota_rejected,
        cache_hits: report.cache_hits,
        cache_hit_rate: report.cache_hit_rate(),
        interactive_p99_s: percentile(&by_class[Class::Interactive.idx()], 0.99),
        bulk_p99_s: percentile(&by_class[Class::Bulk.idx()], 0.99),
    };
    LoadGenResult { summary, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_graph::generators::{rmat, RmatParams};
    use ibfs_util::{FromJson, ToJson};
    use std::time::Duration;

    #[test]
    fn closed_loop_completes_every_request() {
        let g = rmat(8, 8, RmatParams::graph500(), 31);
        let r = g.reverse();
        let cfg = LoadGenConfig {
            clients: 3,
            requests_per_client: 10,
            seed: 7,
            serve: ServeConfig {
                batch_window: Duration::from_micros(50),
                ..Default::default()
            },
            ..Default::default()
        };
        let res = run_loadgen(&g, &r, &cfg);
        assert_eq!(res.summary.issued, 30);
        assert_eq!(res.summary.completed, 30);
        assert!(res.report.is_conserved());
        assert!(res.summary.latency_s.mean > 0.0);
        assert!(res.summary.throughput_rps > 0.0);
        assert!(res.summary.num_batches > 0);
    }

    #[test]
    fn seeded_runs_issue_identical_streams() {
        // Same seed → same counters for everything the clock can't touch.
        let g = rmat(7, 8, RmatParams::graph500(), 5);
        let r = g.reverse();
        let cfg = LoadGenConfig { clients: 2, requests_per_client: 8, ..Default::default() };
        let a = run_loadgen(&g, &r, &cfg);
        let b = run_loadgen(&g, &r, &cfg);
        assert_eq!(a.summary.issued, b.summary.issued);
        assert_eq!(a.summary.completed, b.summary.completed);
    }

    #[test]
    fn telemetry_run_produces_snapshot_and_trace() {
        use ibfs::trace::{TraceLog, TraceRecord};
        use ibfs_obs::Registry;
        use ibfs_serve::ServeTelemetry;
        let g = rmat(7, 8, RmatParams::graph500(), 5);
        let r = g.reverse();
        let cfg = LoadGenConfig { clients: 2, requests_per_client: 6, ..Default::default() };
        let log = TraceLog::new();
        let telemetry =
            ServeTelemetry::with_registry(Registry::shared()).traced(log.clone());
        let res = run_loadgen_with(&g, &r, &cfg, telemetry);
        assert_eq!(res.summary.completed, 12);
        // The report snapshot covers the serve and core layers.
        let snap = &res.report.snapshot;
        assert_eq!(snap.counter("ibfs_serve_completed_total"), Some(12));
        assert!(snap.counter("ibfs_core_levels_total").unwrap_or(0) > 0);
        // The trace carries both record kinds.
        let records = log.records();
        assert!(records.iter().any(|r| matches!(r, TraceRecord::Span(_))));
        assert!(records.iter().any(|r| matches!(r, TraceRecord::Level(_))));
    }

    #[test]
    fn power_law_sampler_is_seeded_and_head_heavy() {
        let sampler = SourceSampler::new(SourceProfile::PowerLaw { exponent: 1.2 }, 1024);
        let draw_all = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..512).map(|_| sampler.draw(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw_all(9);
        assert_eq!(a, draw_all(9), "same seed must replay the same sources");
        // Heavy tail: the hottest 16 vertices soak up far more than the
        // uniform 16/1024 share, and draws stay in range.
        let head = a.iter().filter(|&&v| v < 16).count();
        assert!(head > a.len() / 4, "head got {head} of {} draws", a.len());
        assert!(a.iter().all(|&v| v < 1024));
        assert!(a.iter().collect::<std::collections::HashSet<_>>().len() > 16);
    }

    #[test]
    fn power_law_sampler_pins_its_exact_sequence_and_matches_linear_scan() {
        // Regression pin for the prefix-sum + binary-search sampler: the
        // exact draw sequence for a fixed (profile, n, seed) is part of
        // the bench's reproducibility contract — BENCH documents and the
        // QoS cache-hit gates replay it — so any change to the weights,
        // the prefix accumulation order, or the search boundary condition
        // must show up here as a diff, not as silently shifted workloads.
        let sampler = SourceSampler::new(SourceProfile::PowerLaw { exponent: 1.2 }, 64);
        let mut rng = Rng::seed_from_u64(42);
        let drawn: Vec<VertexId> = (0..24).map(|_| sampler.draw(&mut rng)).collect();
        assert_eq!(
            drawn,
            vec![0, 1, 7, 36, 59, 13, 9, 21, 12, 4, 8, 0, 16, 1, 9, 26, 5, 22, 9, 9, 0, 0, 2, 5],
            "power-law draw sequence moved for seed 42 over n=64"
        );
        // The binary search must agree with the O(n) linear scan it
        // replaced, draw for draw: same weights, same tie-breaking (first
        // cumulative weight strictly above x wins).
        let cum: Vec<f64> = {
            let mut acc = 0.0;
            (0..64u32)
                .map(|v| {
                    acc += (v as f64 + 1.0).powf(-1.2);
                    acc
                })
                .collect()
        };
        let total = *cum.last().unwrap();
        let mut fast_rng = Rng::seed_from_u64(7);
        let mut slow_rng = Rng::seed_from_u64(7);
        for _ in 0..512 {
            let fast = sampler.draw(&mut fast_rng);
            let x = slow_rng.gen::<f64>() * total;
            let slow = cum
                .iter()
                .position(|&c| c > x)
                .unwrap_or(63)
                .min(63) as VertexId;
            assert_eq!(fast, slow, "binary search diverges from the linear scan");
        }
    }

    #[test]
    fn bulk_burst_run_reports_per_class_p99() {
        let g = rmat(8, 8, RmatParams::graph500(), 31);
        let r = g.reverse();
        let cfg = LoadGenConfig {
            clients: 4,
            bulk_clients: 2,
            burst: 4,
            requests_per_client: 12,
            seed: 11,
            profile: SourceProfile::PowerLaw { exponent: 1.2 },
            serve: ServeConfig {
                batch_window: Duration::from_micros(50),
                qos: ibfs_serve::QosPolicy::standard(),
                ..Default::default()
            },
            ..Default::default()
        };
        let res = run_loadgen(&g, &r, &cfg);
        assert_eq!(res.summary.issued, 48);
        assert_eq!(res.summary.completed, 48);
        assert!(res.report.is_conserved());
        assert!(res.report.is_conserved_per_class());
        // Both classes completed work, so both p99s are populated.
        assert!(res.summary.interactive_p99_s > 0.0);
        assert!(res.summary.bulk_p99_s > 0.0);
        // Two clients hammering hot power-law sources through the
        // standard QoS policy must find the cache at least once.
        assert!(res.summary.cache_hits > 0, "expected cache hits: {:?}", res.summary);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = LoadGenSummary {
            issued: 10,
            completed: 9,
            timeouts: 1,
            latency_s: MeanStd { mean: 0.5, stddev: 0.1 },
            wall_seconds: 2.0,
            throughput_rps: 4.5,
            ..Default::default()
        };
        let back = LoadGenSummary::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }
}
