//! Serve-side metrics: the registry-backed collector, per-batch records,
//! and the end-of-run report.
//!
//! All serve accounting lives in one [`ibfs_obs::Registry`] under
//! `ibfs_serve_*` names: resolution counters, the admission-to-completion
//! latency histogram, coalescing quality histograms (occupancy, sharing
//! degree) and live gauges (queue depth, in-flight batches). The
//! [`Collector`] holds pre-registered handles so the request hot path never
//! touches the registry mutex, and captures each counter's value at
//! construction so a registry shared across serve runs still yields
//! per-run deltas in the [`ServeReport`].
//!
//! Request-scoped spans ride along: when [`ServeTelemetry::trace`] is set,
//! every lifecycle stage pushes a [`SpanEvent`] into the shared
//! [`TraceLog`], merged with the batch-stamped per-level
//! [`TraversalEvent`](ibfs::trace::TraversalEvent)s the workers emit.

use crate::qos::{Class, NUM_CLASSES};
use crate::slo::{SloConfig, SloTracker};
use ibfs::metrics::{mean_std, teps, BatchMetrics, MeanStd};
use ibfs::trace::{TraceLog, TraceRecord};
use ibfs_obs::span::{IdGen, SpanEvent};
use ibfs_obs::{labeled, Counter, EngineProfiler, Gauge, Histogram, ProfPhase, Registry, Snapshot};
use ibfs_util::json_struct;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The registry name of a per-class instrument:
/// `class_metric("ibfs_serve_latency_seconds", Class::Bulk)` →
/// `ibfs_serve_latency_seconds{class="bulk"}`.
pub fn class_metric(name: &str, class: Class) -> String {
    labeled(name, &[("class", class.label())])
}

/// What the serve stack records into: a metrics registry (always) and an
/// optional shared trace log for span + per-level events.
///
/// The registry may be shared across serve runs (and with the core and CPU
/// engine layers, whose workers record into it); the report still shows
/// per-run deltas.
#[derive(Clone, Debug)]
pub struct ServeTelemetry {
    /// Destination registry for all `ibfs_serve_*` instruments.
    pub registry: Arc<Registry>,
    /// When set, lifecycle spans and batch-stamped traversal events are
    /// pushed here. `None` keeps the hot path span-free.
    pub trace: Option<TraceLog>,
    /// When set, every dispatched batch records a
    /// [`ProfPhase::ServeBatch`] phase into it (track = the worker that ran
    /// it, level = batch id), joining the engine records on the shared
    /// timeline.
    pub profiler: Option<Arc<EngineProfiler>>,
}

impl Default for ServeTelemetry {
    fn default() -> Self {
        ServeTelemetry { registry: Registry::shared(), trace: None, profiler: None }
    }
}

impl ServeTelemetry {
    /// Telemetry recording into `registry`, without tracing.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        ServeTelemetry { registry, trace: None, profiler: None }
    }

    /// Enables span/level tracing into `trace`.
    pub fn traced(mut self, trace: TraceLog) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Enables per-batch phase profiling into `profiler`.
    pub fn profiled(mut self, profiler: Arc<EngineProfiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }
}

/// A registry counter plus its value at collector construction, so a
/// shared (cross-run) registry still reports per-run deltas.
#[derive(Debug)]
pub(crate) struct DeltaCounter {
    counter: Arc<Counter>,
    base: u64,
}

impl DeltaCounter {
    fn new(registry: &Registry, name: &str) -> Self {
        let counter = registry.counter(name);
        let base = counter.value();
        DeltaCounter { counter, base }
    }

    pub(crate) fn inc(&self) {
        self.counter.inc();
    }

    fn delta(&self) -> u64 {
        self.counter.value().saturating_sub(self.base)
    }
}

/// Shared collector the admission path, batcher and workers feed.
#[derive(Debug)]
pub struct Collector {
    registry: Arc<Registry>,
    trace: Option<TraceLog>,
    epoch: Instant,
    ids: IdGen,
    // Resolution counters (per-run deltas over the registry).
    pub(crate) accepted: DeltaCounter,
    pub(crate) completed: DeltaCounter,
    pub(crate) timeouts: DeltaCounter,
    pub(crate) overloaded: DeltaCounter,
    pub(crate) shutdown: DeltaCounter,
    pub(crate) rejected: DeltaCounter,
    pub(crate) invalid: DeltaCounter,
    // QoS accounting: quota rejections and result-cache traffic.
    pub(crate) quota_rejected: DeltaCounter,
    pub(crate) cache_hits: DeltaCounter,
    pub(crate) cache_misses: DeltaCounter,
    pub(crate) cache_entries: Arc<Gauge>,
    // Per-class resolution counters and latency (indexed by `Class::idx`).
    pub(crate) accepted_by_class: [DeltaCounter; NUM_CLASSES],
    pub(crate) completed_by_class: [DeltaCounter; NUM_CLASSES],
    pub(crate) timeouts_by_class: [DeltaCounter; NUM_CLASSES],
    pub(crate) overloaded_by_class: [DeltaCounter; NUM_CLASSES],
    pub(crate) shutdown_by_class: [DeltaCounter; NUM_CLASSES],
    pub(crate) latency_by_class: [Arc<Histogram>; NUM_CLASSES],
    // Distribution instruments (cumulative; the report's own stats come
    // from the per-batch records below, so sharing a registry is fine).
    pub(crate) latency: Arc<Histogram>,
    pub(crate) queue_wait: Arc<Histogram>,
    pub(crate) occupancy: Arc<Histogram>,
    pub(crate) sharing_degree: Arc<Histogram>,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) inflight_batches: Arc<Gauge>,
    /// Live per-class SLO surface (`ibfs_slo_*` gauges), fed by the
    /// resolution path.
    pub(crate) slo: SloTracker,
    profiler: Option<Arc<EngineProfiler>>,
    batches: Mutex<Vec<BatchMetrics>>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new(ServeTelemetry::default())
    }
}

impl Collector {
    /// A collector recording into `telemetry`, with the per-run counter
    /// baseline captured now.
    pub fn new(telemetry: ServeTelemetry) -> Self {
        let r = &telemetry.registry;
        // Per-class families are registered eagerly so every serve snapshot
        // carries them (metrics-check validates presence, not activity).
        // The profiler and SLO families follow the same convention: present
        // in every serve snapshot, healthy-idle until traffic arrives.
        ibfs_obs::register_prof_metrics(r);
        let class_counters =
            |name: &str| Class::ALL.map(|c| DeltaCounter::new(r, &class_metric(name, c)));
        Collector {
            accepted: DeltaCounter::new(r, "ibfs_serve_accepted_total"),
            completed: DeltaCounter::new(r, "ibfs_serve_completed_total"),
            timeouts: DeltaCounter::new(r, "ibfs_serve_timeouts_total"),
            overloaded: DeltaCounter::new(r, "ibfs_serve_overloaded_total"),
            shutdown: DeltaCounter::new(r, "ibfs_serve_shutdown_total"),
            rejected: DeltaCounter::new(r, "ibfs_serve_rejected_total"),
            invalid: DeltaCounter::new(r, "ibfs_serve_invalid_total"),
            quota_rejected: DeltaCounter::new(r, "ibfs_serve_quota_rejected_total"),
            cache_hits: DeltaCounter::new(r, "ibfs_serve_cache_hits_total"),
            cache_misses: DeltaCounter::new(r, "ibfs_serve_cache_misses_total"),
            cache_entries: r.gauge("ibfs_serve_cache_entries"),
            accepted_by_class: class_counters("ibfs_serve_accepted_total"),
            completed_by_class: class_counters("ibfs_serve_completed_total"),
            timeouts_by_class: class_counters("ibfs_serve_timeouts_total"),
            overloaded_by_class: class_counters("ibfs_serve_overloaded_total"),
            shutdown_by_class: class_counters("ibfs_serve_shutdown_total"),
            latency_by_class: Class::ALL
                .map(|c| r.histogram(&class_metric("ibfs_serve_latency_seconds", c))),
            latency: r.histogram("ibfs_serve_latency_seconds"),
            queue_wait: r.histogram("ibfs_serve_queue_wait_seconds"),
            occupancy: r.histogram("ibfs_serve_batch_occupancy"),
            sharing_degree: r.histogram("ibfs_serve_batch_sharing_degree"),
            queue_depth: r.gauge("ibfs_serve_queue_depth"),
            inflight_batches: r.gauge("ibfs_serve_inflight_batches"),
            slo: SloTracker::new(r, SloConfig::standard()),
            profiler: telemetry.profiler,
            registry: telemetry.registry,
            trace: telemetry.trace,
            epoch: Instant::now(),
            ids: IdGen::new(),
            batches: Mutex::new(Vec::new()),
        }
    }

    /// The registry this collector records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shared trace log, when tracing is on.
    pub(crate) fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// Allocates the next request id (1-based).
    pub(crate) fn next_request_id(&self) -> u64 {
        self.ids.next_id()
    }

    /// Seconds since the collector (= the serve run) started.
    pub(crate) fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Emits a lifecycle span when tracing is on.
    pub(crate) fn span(&self, event: SpanEvent) {
        if let Some(log) = &self.trace {
            log.push(TraceRecord::Span(event));
        }
    }

    pub(crate) fn push_batch(&self, m: BatchMetrics) {
        self.occupancy.record(m.occupancy);
        self.sharing_degree.record(m.sharing_degree);
        if let Some(p) = &self.profiler {
            // One span per batch on the worker's track: the batch's
            // wall-clock traversal time, ending now.
            p.record(
                m.device as u64,
                m.device as usize,
                m.batch,
                ProfPhase::ServeBatch,
                (p.now_s() - m.sim_seconds).max(0.0),
                m.sim_seconds,
                m.requests,
                m.traversed_edges,
            );
        }
        self.batches.lock().unwrap().push(m);
    }

    /// Freezes the collector into a report (per-run counter deltas, batch
    /// records, and a snapshot of the whole registry).
    pub fn report(&self) -> ServeReport {
        // Fold the profiler's running totals into the `ibfs_prof_*` gauges
        // so the snapshot (and `bfs top` watching it) sees them.
        if let Some(p) = &self.profiler {
            p.record_metrics(&self.registry);
        }
        let batches = self.batches.lock().unwrap().clone();
        let stats = ServeStats::of(&batches);
        ServeReport {
            accepted: self.accepted.delta(),
            completed: self.completed.delta(),
            timeouts: self.timeouts.delta(),
            overloaded: self.overloaded.delta(),
            shutdown: self.shutdown.delta(),
            rejected: self.rejected.delta(),
            invalid: self.invalid.delta(),
            quota_rejected: self.quota_rejected.delta(),
            cache_hits: self.cache_hits.delta(),
            cache_misses: self.cache_misses.delta(),
            accepted_by_class: self.accepted_by_class.each_ref().map(DeltaCounter::delta),
            completed_by_class: self.completed_by_class.each_ref().map(DeltaCounter::delta),
            timeouts_by_class: self.timeouts_by_class.each_ref().map(DeltaCounter::delta),
            overloaded_by_class: self.overloaded_by_class.each_ref().map(DeltaCounter::delta),
            shutdown_by_class: self.shutdown_by_class.each_ref().map(DeltaCounter::delta),
            stats,
            snapshot: self.registry.snapshot(),
            batches,
        }
    }
}

/// Aggregates over a run's [`BatchMetrics`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Number of batches dispatched.
    pub num_batches: u64,
    /// Requests answered through batches.
    pub requests: u64,
    /// Mean/stddev batch occupancy.
    pub occupancy: MeanStd,
    /// Mean/stddev per-batch queue wait (seconds, wall clock).
    pub queue_wait_s: MeanStd,
    /// Mean/stddev per-batch sharing degree.
    pub sharing_degree: MeanStd,
    /// Total wall-clock seconds the CPU engine spent on the batches.
    pub engine_seconds: f64,
    /// Total traversed edges across batches.
    pub traversed_edges: u64,
    /// Aggregate TEPS: total edges over `engine_seconds`.
    pub teps: f64,
}

json_struct!(ServeStats {
    num_batches,
    requests,
    occupancy,
    queue_wait_s,
    sharing_degree,
    engine_seconds,
    traversed_edges,
    teps,
});

impl ServeStats {
    /// Aggregates `batches` into summary statistics.
    pub fn of(batches: &[BatchMetrics]) -> ServeStats {
        let collect = |f: fn(&BatchMetrics) -> f64| -> Vec<f64> {
            batches.iter().map(f).collect()
        };
        let engine_seconds: f64 = batches.iter().map(|b| b.sim_seconds).sum();
        let traversed_edges: u64 = batches.iter().map(|b| b.traversed_edges).sum();
        ServeStats {
            num_batches: batches.len() as u64,
            requests: batches.iter().map(|b| b.requests).sum(),
            occupancy: mean_std(&collect(|b| b.occupancy)),
            queue_wait_s: mean_std(&collect(|b| b.queue_wait_s)),
            sharing_degree: mean_std(&collect(|b| b.sharing_degree)),
            engine_seconds,
            traversed_edges,
            teps: teps(traversed_edges, engine_seconds),
        }
    }
}

/// What the server hands back after drain: resolution accounting plus
/// batch-level metrics and the registry snapshot.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Requests accepted into the admission queue.
    pub accepted: u64,
    /// Requests answered with a depth array.
    pub completed: u64,
    /// Requests that missed their deadline before traversal.
    pub timeouts: u64,
    /// Requests bounced by `try_submit` on a full queue.
    pub overloaded: u64,
    /// Accepted requests abandoned with `Shutdown` by an aborting drain.
    pub shutdown: u64,
    /// Requests rejected with `Shutdown` at admission (never accepted).
    pub rejected: u64,
    /// Requests rejected by validation (never accepted).
    pub invalid: u64,
    /// Requests rejected at admission by a per-tenant quota (never
    /// accepted).
    pub quota_rejected: u64,
    /// Requests answered from the result cache without traversal.
    pub cache_hits: u64,
    /// Cache lookups that found nothing.
    pub cache_misses: u64,
    /// Per-class accepted counts (indexed by [`Class::idx`]).
    pub accepted_by_class: [u64; NUM_CLASSES],
    /// Per-class completed counts.
    pub completed_by_class: [u64; NUM_CLASSES],
    /// Per-class timeout counts.
    pub timeouts_by_class: [u64; NUM_CLASSES],
    /// Per-class overload bounces.
    pub overloaded_by_class: [u64; NUM_CLASSES],
    /// Per-class shutdown abandonments.
    pub shutdown_by_class: [u64; NUM_CLASSES],
    /// Aggregate statistics.
    pub stats: ServeStats,
    /// Snapshot of the telemetry registry at drain (includes the core and
    /// CPU engine instruments the workers record).
    pub snapshot: Snapshot,
    /// Every batch's record, in completion order.
    pub batches: Vec<BatchMetrics>,
}

impl ServeReport {
    /// Every accepted request resolved exactly once: completions, timeouts
    /// and shutdown abandonments add up to admissions.
    pub fn is_conserved(&self) -> bool {
        self.completed + self.timeouts + self.shutdown == self.accepted
    }

    /// [`ServeReport::is_conserved`] holding *within every class*: no
    /// resolution ever slips from one class's accounting into another's.
    pub fn is_conserved_per_class(&self) -> bool {
        (0..NUM_CLASSES).all(|c| {
            self.completed_by_class[c] + self.timeouts_by_class[c] + self.shutdown_by_class[c]
                == self.accepted_by_class[c]
        })
    }

    /// Cache hit-rate over all cache lookups, or 0 when the cache was off.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(requests: u64, occupancy: f64, sim_seconds: f64, edges: u64) -> BatchMetrics {
        BatchMetrics {
            batch: 0,
            device: 0,
            requests,
            occupancy,
            queue_wait_s: 0.001,
            sharing_degree: 2.0,
            sim_seconds,
            traversed_edges: edges,
            teps: teps(edges, sim_seconds),
        }
    }

    #[test]
    fn stats_aggregate_batches() {
        let stats = ServeStats::of(&[batch(4, 0.5, 1.0, 100), batch(8, 1.0, 1.0, 300)]);
        assert_eq!(stats.num_batches, 2);
        assert_eq!(stats.requests, 12);
        assert!((stats.occupancy.mean - 0.75).abs() < 1e-12);
        assert_eq!(stats.traversed_edges, 400);
        assert!((stats.teps - 200.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_follow_zero_conventions() {
        let stats = ServeStats::of(&[]);
        assert_eq!(stats.num_batches, 0);
        assert_eq!(stats.teps, 0.0);
        assert_eq!(stats.occupancy, MeanStd::default());
    }

    #[test]
    fn conservation_check() {
        let mut r = ServeReport { accepted: 10, completed: 7, timeouts: 2, shutdown: 1, ..Default::default() };
        assert!(r.is_conserved());
        r.completed = 6;
        assert!(!r.is_conserved());
    }

    #[test]
    fn collector_report_round_trip() {
        let c = Collector::default();
        c.accepted.inc();
        c.accepted.inc();
        c.completed.inc();
        c.timeouts.inc();
        c.push_batch(batch(1, 1.0, 0.5, 50));
        let r = c.report();
        assert_eq!(r.accepted, 2);
        assert_eq!(r.completed, 1);
        assert_eq!(r.timeouts, 1);
        assert_eq!(r.batches.len(), 1);
        assert_eq!(r.stats.requests, 1);
        assert!(r.is_conserved());
        // The registry snapshot carries the same counts.
        assert_eq!(r.snapshot.counter("ibfs_serve_accepted_total"), Some(2));
        assert_eq!(r.snapshot.histogram("ibfs_serve_batch_occupancy").unwrap().count, 1);
    }

    #[test]
    fn shared_registry_reports_per_run_deltas() {
        let registry = Registry::shared();
        let first = Collector::new(ServeTelemetry::with_registry(registry.clone()));
        first.accepted.inc();
        first.completed.inc();
        assert_eq!(first.report().accepted, 1);

        // A second run on the same registry starts from a fresh baseline.
        let second = Collector::new(ServeTelemetry::with_registry(registry.clone()));
        let r = second.report();
        assert_eq!(r.accepted, 0);
        assert!(r.is_conserved());
        second.accepted.inc();
        second.completed.inc();
        assert_eq!(second.report().accepted, 1);
        // The registry itself is cumulative across both runs.
        assert_eq!(registry.snapshot().counter("ibfs_serve_accepted_total"), Some(2));
    }

    #[test]
    fn qos_families_are_registered_eagerly() {
        // metrics-check validates presence in every serve snapshot, so the
        // QoS instruments must exist even when no QoS feature fired.
        let c = Collector::default();
        let snap = c.report().snapshot;
        for name in [
            "ibfs_serve_quota_rejected_total",
            "ibfs_serve_cache_hits_total",
            "ibfs_serve_cache_misses_total",
        ] {
            assert_eq!(snap.counter(name), Some(0), "{name} missing");
        }
        for class in Class::ALL {
            assert_eq!(
                snap.counter(&class_metric("ibfs_serve_accepted_total", class)),
                Some(0)
            );
            assert!(snap
                .histogram(&class_metric("ibfs_serve_latency_seconds", class))
                .is_some());
        }
        assert!(snap.gauge("ibfs_serve_cache_entries").is_some());
    }

    #[test]
    fn prof_and_slo_families_are_registered_eagerly() {
        // Same presence contract as the QoS families: an idle collector's
        // snapshot must already carry the profiler and SLO instruments.
        let c = Collector::default();
        let snap = c.report().snapshot;
        assert_eq!(snap.counter("ibfs_prof_records_total"), Some(0));
        assert!(snap.gauge("ibfs_prof_barrier_share").is_some());
        for phase in ibfs_obs::profile::ProfPhase::ALL {
            assert!(
                snap.gauge(&ibfs_obs::prof_phase_gauge(phase)).is_some(),
                "missing phase gauge for {}",
                phase.name()
            );
        }
        for class in Class::ALL {
            assert_eq!(snap.gauge(&class_metric("ibfs_slo_availability", class)), Some(1.0));
            assert_eq!(
                snap.gauge(&class_metric("ibfs_slo_latency_attainment", class)),
                Some(1.0)
            );
            assert_eq!(snap.gauge(&class_metric("ibfs_slo_burn_rate", class)), Some(0.0));
        }
        assert_eq!(snap.gauge("ibfs_slo_overload"), Some(0.0));
    }

    #[test]
    fn per_class_conservation_check() {
        let mut r = ServeReport {
            accepted: 3,
            completed: 3,
            accepted_by_class: [2, 1],
            completed_by_class: [2, 1],
            ..Default::default()
        };
        assert!(r.is_conserved());
        assert!(r.is_conserved_per_class());
        // Globally conserved but leaked across classes: per-class catches it.
        r.completed_by_class = [1, 2];
        assert!(r.is_conserved());
        assert!(!r.is_conserved_per_class());
    }

    #[test]
    fn cache_hit_rate_handles_no_lookups() {
        let mut r = ServeReport::default();
        assert_eq!(r.cache_hit_rate(), 0.0);
        r.cache_hits = 3;
        r.cache_misses = 1;
        assert!((r.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn spans_reach_the_trace_log() {
        use ibfs_obs::span::{SpanEvent, SpanStage};
        let log = TraceLog::new();
        let c = Collector::new(ServeTelemetry::default().traced(log.clone()));
        c.span(SpanEvent::admission(1, SpanStage::Admitted, 5, c.now_s()));
        assert_eq!(log.len(), 1);
        // Without a trace log, spans are dropped silently.
        let quiet = Collector::default();
        quiet.span(SpanEvent::admission(2, SpanStage::Admitted, 5, 0.0));
        assert_eq!(log.len(), 1);
    }
}
