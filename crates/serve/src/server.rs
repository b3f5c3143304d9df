//! The batching server: QoS front door → weighted-fair admission queue →
//! batcher → router → workers, each owning a resident [`CpuService`] that
//! runs every batch it receives as one traversal group.
//!
//! ```text
//!  clients ──submit(tenant, class)──▶ cache? ─hit─▶ resolve
//!                                      │miss
//!                                    quota? ─over─▶ QuotaExceeded
//!                                      │ok
//!                                    dedup? ─join─▶ park as waiter
//!                                      │lead
//!                         [weighted-fair queue] ──▶ batcher ──plan──▶ router
//!                                                                      │
//!                                            ┌─────────────────────────┤
//!                                            ▼                         ▼
//!                                      worker 0                   worker W-1
//!                                    (CpuService)                (CpuService)
//!                                            │                         │
//!                                            └────── oneshot reply ────┘
//! ```
//!
//! The front door runs in admission order: **cache → quota → dedup →
//! queue**. A cache hit is admitted and resolved in one stroke, consuming
//! neither quota nor queue space; a quota rejection costs the tenant
//! nothing downstream; a dedup join parks the request on the in-flight
//! leader's `(graph epoch, source)` key, to be resolved — each waiter
//! exactly once, against its own deadline — when the leader's traversal
//! completes. Only blocking submits may *create* a dedup key (lead):
//! `try_submit`'s bounce path would otherwise leave an orphaned key
//! behind. Epoch rules: dedup keys and cache entries are tagged with
//! [`QosPolicy::graph_epoch`]; a cache entry from another epoch is
//! discarded at lookup (counted `stale`), never served.
//!
//! Lifecycle is ownership-driven: [`serve`] runs the caller's closure
//! against a [`ServeHandle`]; when the closure returns, the handle (the
//! only request sender) drops, the batcher drains what is queued,
//! dispatches it, and exits, which disconnects the worker queues and lets
//! each worker drain and exit in turn. No thread is ever detached —
//! everything joins inside one `std::thread::scope`, which is also what
//! lets workers borrow the graph instead of cloning it.
//!
//! [`ServeHandle::shutdown_now`] flips an abort flag instead: queued and
//! in-flight requests resolve with [`ServeError::Shutdown`], new
//! submissions are rejected at admission. The batcher wakes on a short
//! poll tick while idle, so the flag is observed even when no request ever
//! arrives to unblock it.

use crate::channel::{bounded, oneshot, OneSender, RecvTimeoutError, Sender, TrySendError};
use crate::coalesce::{self, CoalescePolicy};
use crate::error::ServeError;
use crate::metrics::{Collector, ServeReport, ServeTelemetry};
use crate::qos::{
    fair_bounded, Attach, Class, DedupTable, FairReceiver, FairSender, Lookup, QosPolicy,
    QuotaGuard, QuotaTable, ResultCache, TenantId,
};
use ibfs::cpu::{CpuOptions, CpuService, CPU_GROUP};
use ibfs::groupby::GroupByConfig;
use ibfs::metrics::{batch_occupancy, event_sharing_degree, BatchMetrics};
use ibfs::service::admit_sources;
use ibfs::trace::{BatchStamp, MetricsSink, RecorderSink, TraceRecord};
use ibfs_cluster::router::{fanout_weight, BatchRouter, InstrumentedRouter, LeastLoaded, RoundRobin};
use ibfs_obs::span::{SpanEvent, SpanStage, NO_CORRELATION};
use ibfs_graph::{Csr, Depth, VertexId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which [`BatchRouter`] spreads batches across workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RouterKind {
    /// Cycle through workers in order.
    RoundRobin,
    /// Greedy online LPT on batch weight (default).
    #[default]
    LeastLoaded,
}

impl RouterKind {
    fn build(self, devices: usize) -> Box<dyn BatchRouter> {
        match self {
            RouterKind::RoundRobin => Box::new(RoundRobin::new(devices)),
            RouterKind::LeastLoaded => Box::new(LeastLoaded::new(devices)),
        }
    }
}

/// Server tuning knobs. `Default` is sized for tests and small machines;
/// `bfs serve-bench` exposes every field except `poll_tick`, `groupby` and
/// `cpu` as a flag.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker count; each worker owns one resident [`CpuService`]. Zero is
    /// treated as one.
    pub workers: usize,
    /// Admission queue capacity *per class lane* — the backpressure bound
    /// on `submit`. Lanes are bounded independently, so one class's
    /// backlog never consumes another's admission room.
    pub queue_capacity: usize,
    /// Per-worker batch queue capacity.
    pub worker_queue_capacity: usize,
    /// Requested batch size cap; the effective cap is additionally clamped
    /// to the CPU engine's group capacity (see [`effective_max_batch`]).
    pub max_batch: usize,
    /// Micro-batching window: after the first request of a wave arrives,
    /// how long the batcher keeps admitting before it dispatches.
    pub batch_window: Duration,
    /// Idle poll tick: how often the parked batcher wakes to observe the
    /// abort flag.
    pub poll_tick: Duration,
    /// Deadline applied by [`ServeHandle::submit`] when the caller gives
    /// none. `None` means requests never time out.
    pub default_deadline: Option<Duration>,
    /// How the batcher groups a window into batches.
    pub policy: CoalescePolicy,
    /// §5.2 out-degree rule thresholds for the GroupBy plans.
    pub groupby: GroupByConfig,
    /// How batches spread across workers.
    pub router: RouterKind,
    /// Multi-tenant QoS knobs (class weights, quotas, dedup, result
    /// cache). The default preserves single-tenant behaviour.
    pub qos: QosPolicy,
    /// The options every worker's [`CpuService`] is built with; `None`
    /// means one lane per worker. Its width caps the batch size (see
    /// [`effective_max_batch`]).
    pub cpu: Option<CpuOptions>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            worker_queue_capacity: 2,
            max_batch: 32,
            batch_window: Duration::from_micros(200),
            poll_tick: Duration::from_millis(2),
            default_deadline: None,
            policy: CoalescePolicy::default(),
            groupby: GroupByConfig::default(),
            router: RouterKind::default(),
            qos: QosPolicy::default(),
            cpu: None,
        }
    }
}

impl ServeConfig {
    /// The options each worker's [`CpuService`] is built with.
    fn cpu_options(&self) -> CpuOptions {
        self.cpu.unwrap_or(CpuOptions { threads: 1, ..Default::default() })
    }
}

/// The batch-size cap actually in force: the configured `max_batch`
/// clamped into `[1, group capacity]`, where the capacity is
/// `min(CPU_GROUP, width.bits())`, so every batch runs as one group.
pub fn effective_max_batch(config: &ServeConfig) -> usize {
    let capacity = CPU_GROUP.min(config.cpu_options().width.bits() as usize);
    config.max_batch.clamp(1, capacity)
}

/// A successful reply: the depth array plus where and how it ran.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsResponse {
    /// Correlation id the serve run assigned the request at admission;
    /// matches the `request` field of the trace's span events.
    pub request: u64,
    /// The requested source.
    pub source: VertexId,
    /// Depth of every vertex from `source` (`DEPTH_UNVISITED` when
    /// unreached).
    pub depths: Vec<Depth>,
    /// The tenant the request was submitted under.
    pub tenant: TenantId,
    /// The priority class the request was submitted under.
    pub class: Class,
    /// Sequence number of the batch that carried the request; 0 when the
    /// request never reached a batch (cache hit).
    pub batch: u64,
    /// Worker index that ran the batch (0 for cache hits).
    pub device: usize,
    /// Distinct sources traversed by that batch (0 for cache hits).
    pub batch_sources: usize,
    /// Admission-to-dispatch wall-clock wait.
    pub queue_wait: Duration,
    /// True when the depths came from the result cache, skipping
    /// traversal entirely.
    pub from_cache: bool,
    /// True when the request joined an identical in-flight request and
    /// was answered by the leader's traversal.
    pub deduped: bool,
}

struct Request {
    /// Correlation id allocated at admission (1-based, per serve run).
    id: u64,
    source: VertexId,
    tenant: TenantId,
    class: Class,
    /// True when the request was parked as a dedup waiter (possibly later
    /// promoted back into the pipeline after its leader died).
    joined: bool,
    /// True when the request *created* its `(epoch, source)` dedup key
    /// (an [`Attach::Leader`] outcome). Death paths may only tear down
    /// keys their own requests lead: a keyless rider's source can be led
    /// by a live leader in another batch whose waiters must not be
    /// resolved on its behalf.
    leader: bool,
    submitted: Instant,
    deadline: Option<Instant>,
    /// The tenant's in-flight quota slot; released at resolution.
    quota: Option<QuotaGuard>,
    reply: OneSender<Result<BfsResponse, ServeError>>,
}

/// Per-run QoS state shared by the admission path, batcher and workers.
struct QosRuntime {
    epoch: u64,
    quota: Arc<QuotaTable>,
    dedup: Option<DedupTable<Request>>,
    cache: Option<Arc<ResultCache>>,
}

impl QosRuntime {
    fn new(policy: &QosPolicy) -> Self {
        QosRuntime {
            epoch: policy.graph_epoch,
            quota: policy.build_quota_table(),
            dedup: policy.dedup.then(DedupTable::new),
            cache: policy.build_cache(),
        }
    }
}

struct Batch {
    seq: u64,
    /// Distinct sources, each traversed once.
    sources: Vec<VertexId>,
    /// Every pending request answered by this batch (duplicates of one
    /// source share its instance).
    requests: Vec<Request>,
}

/// A pending reply. [`Ticket::wait`] consumes it and blocks until the
/// request resolves; resolution is guaranteed because dropping the reply
/// sender (even via a panic) wakes the receiver.
pub struct Ticket {
    rx: crate::channel::OneReceiver<Result<BfsResponse, ServeError>>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Ticket")
    }
}

impl Ticket {
    /// Blocks until the request resolves.
    pub fn wait(self) -> Result<BfsResponse, ServeError> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            // The reply sender vanished without resolving — only possible
            // if a server thread died; surface it as a shutdown.
            Err(_) => Err(ServeError::Shutdown),
        }
    }
}

/// The client side of a running server: submit requests, get [`Ticket`]s.
/// Share it across client threads by reference.
pub struct ServeHandle<'s> {
    tx: FairSender<Request>,
    num_vertices: usize,
    default_deadline: Option<Duration>,
    abort: &'s AtomicBool,
    collector: &'s Collector,
    qos: &'s QosRuntime,
}

impl ServeHandle<'_> {
    /// Vertex count of the resident graph (the admission range).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Flips the abort flag: queued and in-flight requests resolve with
    /// [`ServeError::Shutdown`], later submissions are rejected.
    pub fn shutdown_now(&self) {
        self.abort.store(true, Ordering::Release);
    }

    fn count_accepted(&self, id: u64, source: VertexId, class: Class) {
        self.collector.accepted.inc();
        self.collector.accepted_by_class[class.idx()].inc();
        self.collector.span(SpanEvent::admission(
            id,
            SpanStage::Admitted,
            source as u64,
            self.collector.now_s(),
        ));
    }

    /// The whole front door, in admission order: abort check → validation
    /// → cache → quota → dedup → fair queue.
    fn submit_inner(
        &self,
        source: VertexId,
        tenant: TenantId,
        class: Class,
        deadline: Option<Duration>,
        block: bool,
    ) -> Result<Ticket, ServeError> {
        let id = self.collector.next_request_id();
        if self.abort.load(Ordering::Acquire) {
            self.collector.rejected.inc();
            self.collector.span(SpanEvent::admission(
                id,
                SpanStage::Rejected,
                source as u64,
                self.collector.now_s(),
            ));
            return Err(ServeError::Shutdown);
        }
        if let Err(e) = admit_sources(&[source], self.num_vertices) {
            self.collector.invalid.inc();
            self.collector.span(SpanEvent::admission(
                id,
                SpanStage::Invalid,
                source as u64,
                self.collector.now_s(),
            ));
            return Err(ServeError::Invalid(e));
        }
        let (otx, orx) = oneshot();
        let now = Instant::now();
        let mut req = Request {
            id,
            source,
            tenant,
            class,
            joined: false,
            leader: false,
            submitted: now,
            deadline: deadline.map(|d| now + d),
            quota: None,
            reply: otx,
        };
        let ticket = Ticket { rx: orx };

        // Result cache: a hit is admitted and resolved in one stroke,
        // consuming neither quota nor queue space.
        if let Some(cache) = &self.qos.cache {
            match cache.get(self.qos.epoch, source) {
                Lookup::Hit(depths) => {
                    self.collector.cache_hits.inc();
                    self.count_accepted(id, source, class);
                    // Deadlines bind the cache path too: a request admitted
                    // with an already-expired deadline times out exactly
                    // like its uncached twin would in `prune`.
                    let outcome = if req.deadline.is_some_and(|d| Instant::now() >= d) {
                        Err(ServeError::Timeout)
                    } else {
                        Ok(BfsResponse {
                            request: id,
                            source,
                            depths: depths.as_ref().clone(),
                            tenant,
                            class,
                            batch: 0,
                            device: 0,
                            batch_sources: 0,
                            queue_wait: Duration::ZERO,
                            from_cache: true,
                            deduped: false,
                        })
                    };
                    resolve(req, outcome, self.collector);
                    return Ok(ticket);
                }
                Lookup::Stale => {
                    self.collector.cache_stale.inc();
                    self.collector.cache_misses.inc();
                }
                Lookup::Miss => self.collector.cache_misses.inc(),
            }
        }

        // Per-tenant quota: waiters and leaders alike hold a slot until
        // they resolve.
        match self.qos.quota.try_acquire(tenant) {
            Some(guard) => req.quota = Some(guard),
            None => {
                self.collector.quota_rejected.inc();
                self.collector.span(SpanEvent::admission(
                    id,
                    SpanStage::QuotaExceeded,
                    source as u64,
                    self.collector.now_s(),
                ));
                return Err(ServeError::QuotaExceeded { tenant });
            }
        }

        // Admission is logged by the dedup table or the fair queue, under
        // its lock, just before the request becomes visible to a leader's
        // completion or to the batcher: `Admitted` always precedes the
        // request's later spans, and a bounce is never counted accepted.
        let admit = || self.count_accepted(id, source, class);

        // In-flight dedup. Only the blocking path may *create* a key
        // (lead): its enqueue cannot bounce on a full lane, so the key is
        // guaranteed a ride through the pipeline. `try_submit` joins an
        // existing leader or proceeds keyless.
        if let Some(dedup) = &self.qos.dedup {
            req.joined = true;
            let back = if block {
                match dedup.attach(self.qos.epoch, source, req, admit) {
                    Attach::Leader(mut r) => {
                        r.leader = true;
                        Some(r)
                    }
                    Attach::Joined => None,
                }
            } else {
                // A keyless rider: no leader was in flight and the try
                // path must not create a key, so `leader` stays false.
                dedup.join_if_inflight(self.qos.epoch, source, req, admit)
            };
            match back {
                Some(mut r) => {
                    r.joined = false;
                    req = r;
                }
                None => {
                    self.collector.dedup_joined.inc();
                    return Ok(ticket);
                }
            }
        }

        let res = if block {
            self.tx.send(class, req, admit).map_err(|e| (ServeError::Shutdown, e.0))
        } else {
            self.tx.try_send(class, req, admit).map_err(|e| match e {
                TrySendError::Full(r) => (ServeError::Overloaded, r),
                TrySendError::Disconnected(r) => (ServeError::Shutdown, r),
            })
        };
        match res {
            Ok(()) => Ok(ticket),
            Err((err, bounced)) => {
                let stage = match err {
                    ServeError::Overloaded => {
                        self.collector.overloaded.inc();
                        self.collector.overloaded_by_class[class.idx()].inc();
                        self.collector.slo.observe_bounce(class);
                        SpanStage::Overloaded
                    }
                    _ => {
                        self.collector.rejected.inc();
                        SpanStage::Rejected
                    }
                };
                self.collector.span(SpanEvent::admission(
                    id,
                    stage,
                    source as u64,
                    self.collector.now_s(),
                ));
                // A bounced request that led a dedup key takes the key
                // down with it: every waiter parked meanwhile resolves as
                // shutdown. A keyless bounce owns no key — its source may
                // be led by a live leader elsewhere, whose waiters are not
                // ours to resolve.
                if bounced.leader {
                    if let Some(dedup) = &self.qos.dedup {
                        for w in dedup.complete(self.qos.epoch, source) {
                            resolve(w, Err(ServeError::Shutdown), self.collector);
                        }
                    }
                }
                drop(bounced);
                Err(err)
            }
        }
    }

    /// Submits a BFS request for `source` with the configured default
    /// deadline, blocking while the admission queue is full
    /// (backpressure). Untagged: default tenant, interactive class.
    pub fn submit(&self, source: VertexId) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(source, self.default_deadline)
    }

    /// [`ServeHandle::submit`] with an explicit deadline (`None` = never
    /// time out).
    pub fn submit_with_deadline(
        &self,
        source: VertexId,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(source, TenantId::DEFAULT, Class::default(), deadline, true)
    }

    /// Non-blocking submit: a full admission lane is
    /// [`ServeError::Overloaded`] instead of backpressure.
    pub fn try_submit(&self, source: VertexId) -> Result<Ticket, ServeError> {
        self.submit_inner(source, TenantId::DEFAULT, Class::default(), self.default_deadline, false)
    }

    /// [`ServeHandle::submit`] under an explicit tenant and class.
    pub fn submit_tagged(
        &self,
        source: VertexId,
        tenant: TenantId,
        class: Class,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(source, tenant, class, self.default_deadline, true)
    }

    /// [`ServeHandle::submit_tagged`] with an explicit deadline.
    pub fn submit_tagged_with_deadline(
        &self,
        source: VertexId,
        tenant: TenantId,
        class: Class,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(source, tenant, class, deadline, true)
    }

    /// [`ServeHandle::try_submit`] under an explicit tenant and class.
    pub fn try_submit_tagged(
        &self,
        source: VertexId,
        tenant: TenantId,
        class: Class,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(source, tenant, class, self.default_deadline, false)
    }
}

/// Runs a batching server over `graph` for the duration of `body`, then
/// drains, joins every thread, and returns `body`'s result alongside the
/// serve report. `reverse` must be `graph.reverse()` (pass `graph` itself
/// when symmetric), exactly as for [`CpuService::new`].
pub fn serve<R>(
    graph: &Csr,
    reverse: &Csr,
    config: ServeConfig,
    body: impl FnOnce(&ServeHandle<'_>) -> R,
) -> (R, ServeReport) {
    serve_with(graph, reverse, config, ServeTelemetry::default(), body)
}

/// [`serve`] with explicit telemetry: a (possibly shared) metrics registry
/// and an optional trace log collecting request spans and batch-stamped
/// per-level traversal events.
pub fn serve_with<R>(
    graph: &Csr,
    reverse: &Csr,
    config: ServeConfig,
    telemetry: ServeTelemetry,
    body: impl FnOnce(&ServeHandle<'_>) -> R,
) -> (R, ServeReport) {
    let max_batch = effective_max_batch(&config);
    let workers = config.workers.max(1);
    let collector = Collector::new(telemetry);
    let abort = AtomicBool::new(false);
    let qos = QosRuntime::new(&config.qos);
    let (req_tx, req_rx) =
        fair_bounded::<Request>(config.queue_capacity.max(1), config.qos.weights);

    let result = std::thread::scope(|s| {
        let mut batch_txs = Vec::with_capacity(workers);
        for device in 0..workers {
            let (btx, brx) = bounded::<Batch>(config.worker_queue_capacity.max(1));
            batch_txs.push(btx);
            let (collector, abort, config, qos) = (&collector, &abort, &config, &qos);
            s.spawn(move || {
                let mut svc = CpuService::new(graph, reverse, config.cpu_options());
                while let Ok(batch) = brx.recv() {
                    run_batch(batch, &mut svc, device, max_batch, collector, abort, qos);
                }
                // CPU stats are lifetime totals; record them exactly once, as
                // the worker drains and exits (still inside the serve scope,
                // so the totals are in the final snapshot).
                svc.record_metrics(collector.registry());
            });
        }
        {
            let (collector, abort, config, qos) = (&collector, &abort, &config, &qos);
            s.spawn(move || {
                batcher_loop(req_rx, batch_txs, graph, config, max_batch, collector, abort, qos)
            });
        }
        let handle = ServeHandle {
            tx: req_tx,
            num_vertices: graph.num_vertices(),
            default_deadline: config.default_deadline,
            abort: &abort,
            collector: &collector,
            qos: &qos,
        };
        body(&handle)
        // `handle` drops here: the request channel disconnects, the batcher
        // drains and exits, the worker channels disconnect, the workers
        // drain and exit, and the scope joins them all.
    });
    (result, collector.report())
}

fn resolve(mut req: Request, outcome: Result<BfsResponse, ServeError>, collector: &Collector) {
    let idx = req.class.idx();
    let (counter, stage) = match &outcome {
        Ok(resp) if resp.from_cache => (&collector.completed, SpanStage::CacheHit),
        Ok(_) => (&collector.completed, SpanStage::Completed),
        Err(ServeError::Timeout) => (&collector.timeouts, SpanStage::TimedOut),
        Err(ServeError::Shutdown) => (&collector.shutdown, SpanStage::Shutdown),
        Err(ServeError::Overloaded) => (&collector.overloaded, SpanStage::Overloaded),
        Err(ServeError::QuotaExceeded { .. }) => {
            (&collector.quota_rejected, SpanStage::QuotaExceeded)
        }
        Err(ServeError::Invalid(_)) => (&collector.invalid, SpanStage::Invalid),
    };
    counter.inc();
    match &outcome {
        Ok(_) => collector.completed_by_class[idx].inc(),
        Err(ServeError::Timeout) => collector.timeouts_by_class[idx].inc(),
        Err(ServeError::Shutdown) => collector.shutdown_by_class[idx].inc(),
        Err(ServeError::Overloaded) => collector.overloaded_by_class[idx].inc(),
        Err(_) => {}
    }
    let (batch, device) = match &outcome {
        Ok(resp) => (resp.batch, resp.device as u64),
        Err(_) => (NO_CORRELATION, NO_CORRELATION),
    };
    if let Ok(resp) = &outcome {
        let latency = req.submitted.elapsed();
        collector.latency.record_duration(latency);
        collector.latency_by_class[idx].record_duration(latency);
        collector.queue_wait.record_duration(resp.queue_wait);
        collector.slo.observe(req.class, Some(latency.as_secs_f64()));
    }
    // Server-side failures burn the class error budget; quota and
    // validation rejections are client errors and stay out of the SLO.
    if matches!(
        &outcome,
        Err(ServeError::Timeout) | Err(ServeError::Shutdown) | Err(ServeError::Overloaded)
    ) {
        collector.slo.observe(req.class, None);
    }
    collector.span(
        SpanEvent::admission(req.id, stage, req.source as u64, collector.now_s())
            .with_batch(batch)
            .with_device(device),
    );
    // Release the tenant's quota slot before waking the client, so a
    // resubmission racing the reply never sees a phantom in-flight slot.
    drop(req.quota.take());
    req.reply.send(outcome);
}

/// Splits `window` into requests still worth running and resolves the
/// rest: aborted requests with `Shutdown`, expired ones with `Timeout`.
///
/// A dying request may be a dedup *leader* with waiters parked on its
/// `(epoch, source)` key; those waiters are reclaimed and re-examined by
/// the same rules — each against its *own* deadline — with survivors
/// promoted into the live set (they ride keyless from here on) instead of
/// being orphaned in the table. A dying non-leader tears nothing down:
/// its source's key, if any, belongs to a live leader elsewhere.
fn prune(
    window: Vec<Request>,
    qos: &QosRuntime,
    abort: &AtomicBool,
    collector: &Collector,
) -> Vec<Request> {
    let mut pending: VecDeque<Request> = window.into();
    let mut live = Vec::with_capacity(pending.len());
    while let Some(req) = pending.pop_front() {
        let aborting = abort.load(Ordering::Acquire);
        let now = Instant::now();
        let err = if aborting {
            Some(ServeError::Shutdown)
        } else if req.deadline.is_some_and(|d| now >= d) {
            Some(ServeError::Timeout)
        } else {
            None
        };
        match err {
            Some(err) => {
                if req.leader {
                    if let Some(dedup) = &qos.dedup {
                        pending.extend(dedup.complete(qos.epoch, req.source));
                    }
                }
                resolve(req, Err(err), collector);
            }
            None => live.push(req),
        }
    }
    live
}

#[allow(clippy::too_many_arguments)]
fn batcher_loop(
    req_rx: FairReceiver<Request>,
    batch_txs: Vec<Sender<Batch>>,
    graph: &Csr,
    config: &ServeConfig,
    max_batch: usize,
    collector: &Collector,
    abort: &AtomicBool,
    qos: &QosRuntime,
) {
    let mut router =
        InstrumentedRouter::new(config.router.build(batch_txs.len()), collector.registry());
    // Batch sequence numbers are 1-based: 0 on a traversal event means "ran
    // outside the serve stack", so no real batch may claim it.
    let mut seq = 1u64;
    // Collect up to one full wave (every worker's batch) per window.
    let wave_cap = max_batch.saturating_mul(batch_txs.len()).max(1);
    'serve: loop {
        // Park until the first request of a wave, waking on the poll tick
        // so an abort is observed even while clients hold the handle open
        // without submitting. Each wake doubles as the sampler tick for the
        // queue-depth gauge.
        let first = loop {
            collector.queue_depth.set(req_rx.len() as f64);
            match req_rx.recv_deadline(Instant::now() + config.poll_tick) {
                Ok(req) => break req,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break 'serve,
            }
        };
        let mut window = vec![first];
        let mut disconnected = false;
        let wave_deadline = Instant::now() + config.batch_window;
        while window.len() < wave_cap {
            match req_rx.recv_deadline(wave_deadline) {
                Ok(req) => window.push(req),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        collector.queue_depth.set(req_rx.len() as f64);
        dispatch_wave(window, graph, config, max_batch, &mut router, &mut seq, &batch_txs, collector, abort, qos);
        if disconnected {
            break;
        }
    }
    // Dropping `batch_txs` here disconnects the workers, which drain their
    // queues and exit.
}

#[allow(clippy::too_many_arguments)]
fn dispatch_wave(
    window: Vec<Request>,
    graph: &Csr,
    config: &ServeConfig,
    max_batch: usize,
    router: &mut dyn BatchRouter,
    seq: &mut u64,
    batch_txs: &[Sender<Batch>],
    collector: &Collector,
    abort: &AtomicBool,
    qos: &QosRuntime,
) {
    let live = prune(window, qos, abort, collector);
    if live.is_empty() {
        return;
    }
    // Plan over distinct sources in arrival order; duplicate requests for
    // one source ride the same traversal instance.
    let mut seen = HashSet::new();
    let mut distinct = Vec::with_capacity(live.len());
    for req in &live {
        if seen.insert(req.source) {
            distinct.push(req.source);
        }
    }
    let plan = coalesce::plan(graph, &distinct, max_batch, config.policy, &config.groupby);
    let mut batch_of = HashMap::with_capacity(distinct.len());
    let mut batches: Vec<Batch> = plan
        .batches
        .into_iter()
        .map(|sources| {
            let b = Batch { seq: *seq, sources, requests: Vec::new() };
            *seq += 1;
            for &s in &b.sources {
                batch_of.insert(s, b.seq);
            }
            b
        })
        .collect();
    for req in live {
        let want = batch_of[&req.source];
        let batch = batches.iter_mut().find(|b| b.seq == want).unwrap();
        collector.span(
            SpanEvent::admission(req.id, SpanStage::Batched, req.source as u64, collector.now_s())
                .with_batch(batch.seq),
        );
        batch.requests.push(req);
    }
    for batch in batches {
        // `fanout_weight`: a deduplicated fan-out traverses once, so the
        // router weighs its distinct sources, never its request count.
        let device = router.route(fanout_weight(graph, &batch.sources));
        for req in &batch.requests {
            collector.span(
                SpanEvent::admission(
                    req.id,
                    SpanStage::Dispatched,
                    req.source as u64,
                    collector.now_s(),
                )
                .with_batch(batch.seq)
                .with_device(device as u64),
            );
        }
        collector.inflight_batches.add(1.0);
        if let Err(send_err) = batch_txs[device].send(batch) {
            // Worker gone (only possible under abort/panic): abandon the
            // batch, the dedup keys *its requests lead*, and every waiter
            // parked on those keys. Keys this batch merely rides keylessly
            // belong to a live leader in another batch, which will answer
            // their waiters itself.
            collector.inflight_batches.add(-1.0);
            for req in send_err.0.requests {
                if req.leader {
                    if let Some(dedup) = &qos.dedup {
                        for w in dedup.complete(qos.epoch, req.source) {
                            resolve(w, Err(ServeError::Shutdown), collector);
                        }
                    }
                }
                resolve(req, Err(ServeError::Shutdown), collector);
            }
        }
    }
}

/// Runs one batch as one group on the worker's service and answers its
/// requests, plus every dedup waiter parked on its sources.
fn run_batch(
    batch: Batch,
    svc: &mut CpuService<'_>,
    device: usize,
    max_batch: usize,
    collector: &Collector,
    abort: &AtomicBool,
    qos: &QosRuntime,
) {
    let live = prune(batch.requests, qos, abort, collector);
    if live.is_empty() {
        collector.inflight_batches.add(-1.0);
        return;
    }
    // Re-derive distinct sources: pruning may have dropped every request
    // for some planned source, so traverse only what is still wanted.
    let mut seen = HashSet::new();
    let mut sources = Vec::with_capacity(live.len());
    for req in &live {
        if seen.insert(req.source) {
            sources.push(req.source);
        }
    }
    let started = Instant::now();
    // Sink composition (outermost first): stamp the batch sequence number
    // onto every level event, record core counters into the registry, then
    // collect in memory for the sharing-degree calculation below.
    let mut rec = RecorderSink::default();
    let run = {
        let mut metrics = MetricsSink::new(collector.registry(), &mut rec);
        let mut sink = BatchStamp { batch: batch.seq, inner: &mut metrics };
        match svc.run_group_traced(&sources, &mut sink) {
            Ok(run) => run,
            // Unreachable in practice: admission validated every source,
            // and no batch exceeds the group capacity. Resolve as Shutdown,
            // not Invalid — the conservation identity (accepted = completed
            // + timeouts + shutdown) has no slot for invalid-after-admission,
            // and a surprise accounting failure would mask the real cause.
            // Leaders take their dedup keys (and parked waiters) down with
            // them.
            Err(e) => {
                debug_assert!(false, "admitted source failed traversal admission: {e:?}");
                collector.inflight_batches.add(-1.0);
                for req in live {
                    if req.leader {
                        if let Some(dedup) = &qos.dedup {
                            for w in dedup.complete(qos.epoch, req.source) {
                                resolve(w, Err(ServeError::Shutdown), collector);
                            }
                        }
                    }
                    resolve(req, Err(ServeError::Shutdown), collector);
                }
                return;
            }
        }
    };
    let sink = rec;
    collector.inflight_batches.add(-1.0);
    if let Some(log) = collector.trace() {
        for event in &sink.events {
            log.push(TraceRecord::Level(*event));
        }
    }
    // One shared depth array per source (instance `j` is `sources[j]`):
    // responses clone from it, the result cache keeps the `Arc` itself.
    let mut depth_arcs: HashMap<VertexId, Arc<Vec<Depth>>> = HashMap::with_capacity(sources.len());
    for (j, &s) in sources.iter().enumerate() {
        let depths = Arc::new(run.instance_depths(j).to_vec());
        if let Some(cache) = &qos.cache {
            cache.insert(qos.epoch, s, depths.clone());
        }
        depth_arcs.insert(s, depths);
    }
    if let Some(cache) = &qos.cache {
        collector.cache_entries.set(cache.len() as f64);
    }
    // Reclaim every waiter parked on this batch's sources: the traversal
    // that just ran is their answer (same epoch ⇒ identical depths).
    let mut waiters = Vec::new();
    if let Some(dedup) = &qos.dedup {
        for &s in &sources {
            waiters.extend(dedup.complete(qos.epoch, s));
        }
    }
    let carried = live.len() + waiters.len();
    let mean_wait = live
        .iter()
        .chain(waiters.iter())
        .map(|r| started.saturating_duration_since(r.submitted).as_secs_f64())
        .sum::<f64>()
        / carried as f64;
    collector.push_batch(BatchMetrics {
        batch: batch.seq,
        device: device as u64,
        requests: carried as u64,
        occupancy: batch_occupancy(sources.len(), max_batch),
        queue_wait_s: mean_wait,
        sharing_degree: event_sharing_degree(&sink.events),
        sim_seconds: run.wall_seconds,
        traversed_edges: run.traversed_edges,
        teps: run.teps(),
    });
    let batch_sources = sources.len();
    let respond = |req: Request| {
        let response = BfsResponse {
            request: req.id,
            source: req.source,
            depths: depth_arcs[&req.source].as_ref().clone(),
            tenant: req.tenant,
            class: req.class,
            batch: batch.seq,
            device,
            batch_sources,
            queue_wait: started.saturating_duration_since(req.submitted),
            from_cache: false,
            deduped: req.joined,
        };
        resolve(req, Ok(response), collector);
    };
    for req in live {
        respond(req);
    }
    // Waiters carry their own deadlines: one that expired while its
    // leader traversed resolves as a timeout, not a late success.
    let now = Instant::now();
    for req in waiters {
        if req.deadline.is_some_and(|d| now >= d) {
            resolve(req, Err(ServeError::Timeout), collector);
        } else {
            respond(req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_graph::generators::{rmat, RmatParams};
    use ibfs_graph::validate::reference_bfs;

    fn graph() -> Csr {
        rmat(8, 8, RmatParams::graph500(), 31)
    }

    fn quick_config() -> ServeConfig {
        ServeConfig { batch_window: Duration::from_micros(50), ..Default::default() }
    }

    #[test]
    fn single_request_round_trips() {
        let g = graph();
        let r = g.reverse();
        let (resp, report) = serve(&g, &r, quick_config(), |h| {
            h.submit(3).unwrap().wait().unwrap()
        });
        assert_eq!(resp.source, 3);
        assert_eq!(resp.depths, reference_bfs(&g, 3));
        assert_eq!(report.completed, 1);
        assert_eq!(report.accepted, 1);
        assert!(report.is_conserved());
        assert_eq!(report.batches.len(), 1);
    }

    #[test]
    fn duplicate_sources_share_one_instance() {
        let g = graph();
        let r = g.reverse();
        let ((a, b), report) = serve(&g, &r, quick_config(), |h| {
            let ta = h.submit(5).unwrap();
            let tb = h.submit(5).unwrap();
            (ta.wait().unwrap(), tb.wait().unwrap())
        });
        assert_eq!(a.depths, b.depths);
        assert_eq!(report.completed, 2);
        // Both replies may come from the same batch (if coalesced into one
        // window) or two; either way every batch carries distinct sources.
        for batch in &report.batches {
            assert!(batch.requests >= 1);
        }
        assert!(report.is_conserved());
    }

    #[test]
    fn invalid_source_is_rejected_at_admission() {
        let g = graph();
        let r = g.reverse();
        let n = g.num_vertices();
        let (err, report) = serve(&g, &r, quick_config(), |h| {
            h.submit(n as VertexId).unwrap_err()
        });
        assert!(matches!(err, ServeError::Invalid(_)));
        assert_eq!(report.invalid, 1);
        assert_eq!(report.accepted, 0);
        assert!(report.is_conserved());
    }

    #[test]
    fn zero_deadline_times_out() {
        let g = graph();
        let r = g.reverse();
        let (outcome, report) = serve(&g, &r, quick_config(), |h| {
            h.submit_with_deadline(1, Some(Duration::ZERO)).unwrap().wait()
        });
        assert_eq!(outcome, Err(ServeError::Timeout));
        assert_eq!(report.timeouts, 1);
        assert!(report.is_conserved());
    }

    #[test]
    fn shutdown_rejects_later_submissions_and_drains() {
        let g = graph();
        let r = g.reverse();
        let (err, report) = serve(&g, &r, quick_config(), |h| {
            h.shutdown_now();
            h.submit(0).unwrap_err()
        });
        assert_eq!(err, ServeError::Shutdown);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.accepted, 0);
        assert!(report.is_conserved());
    }

    #[test]
    fn zero_quota_rejects_with_typed_error_not_overload() {
        // Regression (satellite fix): quota rejection must surface as
        // `QuotaExceeded { tenant }`, distinct from global overload.
        let g = graph();
        let r = g.reverse();
        let config = ServeConfig {
            qos: QosPolicy::default().with_quota(TenantId(9), 0),
            ..quick_config()
        };
        let (outcomes, report) = serve(&g, &r, config, |h| {
            let starved = h.submit_tagged(1, TenantId(9), Class::Bulk).unwrap_err();
            // Another tenant (and the default tenant) are unaffected.
            let ok = h.submit_tagged(1, TenantId(2), Class::Bulk).unwrap().wait().unwrap();
            (starved, ok)
        });
        assert_eq!(outcomes.0, ServeError::QuotaExceeded { tenant: TenantId(9) });
        assert_ne!(outcomes.0, ServeError::Overloaded);
        assert_eq!(outcomes.1.tenant, TenantId(2));
        assert_eq!(outcomes.1.class, Class::Bulk);
        assert_eq!(report.quota_rejected, 1);
        assert_eq!(report.overloaded, 0);
        assert_eq!(report.accepted, 1);
        assert!(report.is_conserved());
        assert!(report.is_conserved_per_class());
    }

    #[test]
    fn quota_slot_frees_after_resolution() {
        let g = graph();
        let r = g.reverse();
        let config = ServeConfig {
            qos: QosPolicy::default().with_quota(TenantId(1), 1),
            ..quick_config()
        };
        let (_, report) = serve(&g, &r, config, |h| {
            // Sequential submissions under a quota of one: each waits for
            // the previous resolution, so every one is admitted.
            for _ in 0..3 {
                h.submit_tagged(4, TenantId(1), Class::Interactive).unwrap().wait().unwrap();
            }
        });
        assert_eq!(report.completed, 3);
        assert_eq!(report.quota_rejected, 0);
        assert!(report.is_conserved());
    }

    #[test]
    fn cache_hit_skips_traversal_and_is_bit_identical() {
        let g = graph();
        let r = g.reverse();
        let config = ServeConfig { qos: QosPolicy::default().with_cache(8), ..quick_config() };
        let ((first, second), report) = serve(&g, &r, config, |h| {
            let a = h.submit(6).unwrap().wait().unwrap();
            let b = h.submit(6).unwrap().wait().unwrap();
            (a, b)
        });
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert_eq!(second.batch, 0, "cache hits never ride a batch");
        assert_eq!(first.depths, second.depths);
        assert_eq!(second.depths, reference_bfs(&g, 6));
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.completed, 2);
        assert_eq!(report.batches.len(), 1, "second request must not traverse");
        assert!(report.is_conserved());
    }

    #[test]
    fn expired_deadline_times_out_even_on_cache_hit() {
        // Regression: the cache path must honour deadlines exactly like
        // the batch path — an already-expired request never succeeds just
        // because its source happens to be warm.
        let g = graph();
        let r = g.reverse();
        let config = ServeConfig { qos: QosPolicy::default().with_cache(8), ..quick_config() };
        let (outcome, report) = serve(&g, &r, config, |h| {
            h.submit(6).unwrap().wait().unwrap(); // warm the cache
            h.submit_with_deadline(6, Some(Duration::ZERO)).unwrap().wait()
        });
        assert_eq!(outcome, Err(ServeError::Timeout));
        assert_eq!(report.timeouts, 1);
        assert_eq!(report.completed, 1);
        assert!(report.is_conserved());
    }

    #[test]
    fn dedup_joins_identical_inflight_request() {
        let g = graph();
        let r = g.reverse();
        // A long window keeps the leader in flight while the joiner
        // arrives; the join itself is decided at admission (the key exists
        // from the leader's submit), so this is deterministic.
        let config = ServeConfig {
            batch_window: Duration::from_millis(100),
            qos: QosPolicy::default().with_dedup(),
            ..Default::default()
        };
        let ((leader, joiner), report) = serve(&g, &r, config, |h| {
            let ta = h.submit(7).unwrap();
            let tb = h.submit(7).unwrap();
            (ta.wait().unwrap(), tb.wait().unwrap())
        });
        assert!(!leader.deduped);
        assert!(joiner.deduped, "second identical request must join the leader");
        assert_eq!(leader.depths, joiner.depths);
        assert_eq!(leader.depths, reference_bfs(&g, 7));
        assert_eq!((leader.batch, leader.device), (joiner.batch, joiner.device));
        assert_eq!(report.dedup_joined, 1);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.completed, 2);
        assert!(report.is_conserved());
        // The fan-out rode one batch carrying both requests.
        assert_eq!(report.batches.len(), 1);
        assert_eq!(report.batches[0].requests, 2);
    }

    #[test]
    fn cpu_backend_answers_correctly() {
        // Two-lane workers answer with the reference depths, their level
        // events give every batch a sharing degree, and their ibfs_cpu_*
        // families (the frontier-representation level counters included)
        // land in the final snapshot. The long window puts all ten sources
        // in one batch.
        let g = graph();
        let r = g.reverse();
        let config = ServeConfig {
            batch_window: Duration::from_millis(100),
            cpu: Some(CpuOptions { threads: 2, ..Default::default() }),
            ..Default::default()
        };
        let (resps, report) = serve(&g, &r, config, |h| {
            let tickets: Vec<_> = (0..10u32).map(|s| h.submit(s).unwrap()).collect();
            tickets.into_iter().map(|t| t.wait().unwrap()).collect::<Vec<_>>()
        });
        for resp in &resps {
            assert_eq!(resp.depths, reference_bfs(&g, resp.source));
        }
        assert_eq!(report.completed, 10);
        assert!(report.is_conserved());
        assert!(
            report.stats.sharing_degree.mean >= 1.0,
            "sharing degree {:?}",
            report.stats.sharing_degree
        );
        let groups = report.snapshot.counter("ibfs_cpu_groups_total");
        assert!(groups.is_some_and(|v| v > 0), "cpu groups: {groups:?}");
        let dense = report.snapshot.counter("ibfs_cpu_dense_levels_total");
        let sparse = report.snapshot.counter("ibfs_cpu_sparse_levels_total");
        assert!(
            dense.unwrap_or(0) + sparse.unwrap_or(0) > 0,
            "frontier-rep counters must move: dense={dense:?} sparse={sparse:?}"
        );
    }

    #[test]
    fn effective_max_batch_clamps_to_cpu_group_capacity() {
        let width = |w| Some(CpuOptions { width: w, ..Default::default() });
        let mut config = ServeConfig { max_batch: usize::MAX, ..Default::default() };
        assert_eq!(effective_max_batch(&config), 64, "one lane at the default width");
        config.cpu = width(ibfs::word::WordWidth::W32);
        assert_eq!(effective_max_batch(&config), 32);
        config.cpu = width(ibfs::word::WordWidth::W256);
        assert_eq!(effective_max_batch(&config), CPU_GROUP.min(256));
        config.max_batch = 0;
        assert_eq!(effective_max_batch(&config), 1);
        config.max_batch = 4;
        assert_eq!(effective_max_batch(&config), 4);
    }

    #[test]
    fn tagged_submissions_account_per_class() {
        let g = graph();
        let r = g.reverse();
        let (_, report) = serve(&g, &r, quick_config(), |h| {
            let ti = h.submit_tagged(1, TenantId(0), Class::Interactive).unwrap();
            let tb1 = h.submit_tagged(2, TenantId(1), Class::Bulk).unwrap();
            let tb2 = h.submit_tagged(3, TenantId(1), Class::Bulk).unwrap();
            for t in [ti, tb1, tb2] {
                t.wait().unwrap();
            }
        });
        assert_eq!(report.accepted_by_class, [1, 2]);
        assert_eq!(report.completed_by_class, [1, 2]);
        assert!(report.is_conserved_per_class());
        // Per-class latency histograms recorded each completion.
        let interactive = crate::metrics::class_metric("ibfs_serve_latency_seconds", Class::Interactive);
        let bulk = crate::metrics::class_metric("ibfs_serve_latency_seconds", Class::Bulk);
        assert_eq!(report.snapshot.histogram(&interactive).unwrap().count, 1);
        assert_eq!(report.snapshot.histogram(&bulk).unwrap().count, 2);
    }

    #[test]
    fn many_requests_complete_across_workers() {
        let g = graph();
        let r = g.reverse();
        let config = ServeConfig { workers: 3, max_batch: 8, ..quick_config() };
        let (sources, report) = serve(&g, &r, config, |h| {
            let tickets: Vec<_> =
                (0..40u32).map(|s| (s, h.submit(s).unwrap())).collect();
            tickets
                .into_iter()
                .map(|(s, t)| {
                    let resp = t.wait().unwrap();
                    assert_eq!(resp.source, s);
                    assert_eq!(resp.depths, reference_bfs(&g, s));
                    s
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(sources.len(), 40);
        assert_eq!(report.completed, 40);
        assert!(report.is_conserved());
        assert!(report.batches.iter().all(|b| b.occupancy <= 1.0));
        // Batches respected the clamp.
        let devices: HashSet<u64> = report.batches.iter().map(|b| b.device).collect();
        assert!(!devices.is_empty());
    }
}
