//! The batching server: QoS front door → weighted-fair admission queue →
//! batcher → one rendezvous hand-off → workers, each owning a resident
//! [`CpuService`] that runs every batch it takes as one traversal group.
//!
//! ```text
//!  clients ──submit(tenant, class)──▶ cache? ─hit─▶ resolve
//!                                      │miss
//!                                    quota? ─over─▶ QuotaExceeded
//!                                      │ok
//!                         [weighted-fair queue] ──▶ batcher ──plan──▶ hand-off
//!                                                                      │
//!                                  next idle worker pulls ┌────────────┤
//!                                            ▼                         ▼
//!                                      worker 0                   worker W-1
//!                                    (CpuService)                (CpuService)
//!                                            │                         │
//!                                            └────── reply channel ────┘
//! ```
//!
//! The front door runs in admission order: **cache → quota → queue**. A
//! cache hit is admitted and resolved in one stroke, consuming neither
//! quota nor queue space; a quota rejection costs the tenant nothing
//! downstream; every other admitted request takes the fair queue to the
//! batcher. Duplicate sources that meet in one window share one traversal
//! instance: the batcher plans over distinct sources.
//!
//! The hand-off is one `std::sync::mpsc::sync_channel(0)`: the batcher's
//! `send` returns only once a worker has taken the batch, and the workers
//! share the receiver behind a mutex, so each batch goes to whichever
//! worker asks next. While every worker is busy the batcher blocks, and
//! requests wait in the fair queue, in QoS order, until one is idle.
//!
//! Lifecycle is ownership-driven: [`serve`] runs the caller's closure
//! against a [`ServeHandle`]; when the closure returns, the handle (the
//! only request sender) drops, the batcher drains what is queued,
//! dispatches it, and exits, which hangs up the hand-off and lets each
//! worker finish its batch and exit in turn. No thread is ever detached —
//! everything joins inside one `std::thread::scope`, which is also what
//! lets workers borrow the graph instead of cloning it.
//!
//! [`ServeHandle::shutdown_now`] flips an abort flag instead: queued and
//! in-flight requests resolve with [`ServeError::Shutdown`], new
//! submissions are rejected at admission. The batcher wakes on a short
//! poll tick while idle, so the flag is observed even when no request ever
//! arrives to unblock it.

use crate::coalesce::{self, CoalescePolicy};
use crate::error::ServeError;
use crate::metrics::{Collector, ServeReport, ServeTelemetry};
use crate::qos::{
    fair_bounded, Class, FairReceiver, FairSender, QosPolicy, QuotaGuard, QuotaTable, ResultCache,
    TenantId,
};
use ibfs::cpu::{CpuOptions, CpuService, CPU_GROUP};
use ibfs::groupby::GroupByConfig;
use ibfs::metrics::{batch_occupancy, event_sharing_degree, BatchMetrics};
use ibfs::service::admit_sources;
use ibfs::trace::{BatchStamp, MetricsSink, RecorderSink, TraceRecord};
use ibfs_obs::span::{SpanEvent, SpanStage, NO_CORRELATION};
use ibfs_graph::{Csr, Depth, VertexId};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the parked batcher wakes while no request arrives: to observe
/// the abort flag, and to sample the queue-depth gauge. The wake-up also
/// pays for itself: a prototype batcher that parked without it read
/// serve-hot `latency_p50_ms` 13–15% higher, in 6 of 6 runs above the
/// highest run with it.
const POLL_TICK: Duration = Duration::from_millis(2);

/// Server tuning knobs. `Default` is sized for tests and small machines;
/// `bfs serve-bench` exposes every field except `groupby` and `cpu` as a
/// flag.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker count; each worker owns one resident [`CpuService`]. Zero is
    /// treated as one.
    pub workers: usize,
    /// Admission queue capacity *per class lane* — the backpressure bound
    /// on `submit`. Lanes are bounded independently, so one class's
    /// backlog never consumes another's admission room.
    pub queue_capacity: usize,
    /// Requested batch size cap; the effective cap is additionally clamped
    /// to the CPU engine's group capacity (see [`effective_max_batch`]).
    pub max_batch: usize,
    /// Micro-batching window: after the first request of a wave arrives,
    /// how long the batcher keeps admitting before it dispatches.
    pub batch_window: Duration,
    /// Deadline applied by [`ServeHandle::submit`] when the caller gives
    /// none. `None` means requests never time out.
    pub default_deadline: Option<Duration>,
    /// How the batcher groups a window into batches.
    pub policy: CoalescePolicy,
    /// §5.2 out-degree rule thresholds for the GroupBy plans.
    pub groupby: GroupByConfig,
    /// Multi-tenant QoS knobs (class weights, quotas, result cache). The
    /// default preserves single-tenant behaviour.
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
            max_batch: 32,
            batch_window: Duration::from_micros(200),
            default_deadline: None,
            policy: CoalescePolicy::default(),
            groupby: GroupByConfig::default(),
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
}

struct Request {
    /// Correlation id allocated at admission (1-based, per serve run).
    id: u64,
    source: VertexId,
    tenant: TenantId,
    class: Class,
    submitted: Instant,
    deadline: Option<Instant>,
    /// The tenant's in-flight quota slot; released at resolution.
    quota: Option<QuotaGuard>,
    /// A `sync_channel(1)`: the one reply never blocks the resolver.
    reply: SyncSender<Result<BfsResponse, ServeError>>,
}

/// Per-run QoS state shared by the admission path and the workers.
struct QosRuntime {
    quota: Arc<QuotaTable>,
    cache: Option<ResultCache>,
}

impl QosRuntime {
    fn new(policy: &QosPolicy) -> Self {
        QosRuntime { quota: policy.build_quota_table(), cache: policy.build_cache() }
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
    rx: Receiver<Result<BfsResponse, ServeError>>,
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
    /// → cache → quota → fair queue.
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
        let (otx, orx) = mpsc::sync_channel(1);
        let now = Instant::now();
        let mut req = Request {
            id,
            source,
            tenant,
            class,
            submitted: now,
            deadline: deadline.map(|d| now + d),
            quota: None,
            reply: otx,
        };
        let ticket = Ticket { rx: orx };

        // Result cache: a hit is admitted and resolved in one stroke,
        // consuming neither quota nor queue space.
        if let Some(cache) = &self.qos.cache {
            match cache.get(source) {
                Some(depths) => {
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
                        })
                    };
                    resolve(req, outcome, self.collector);
                    return Ok(ticket);
                }
                None => self.collector.cache_misses.inc(),
            }
        }

        // Per-tenant quota: the slot is held until the request resolves.
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

        // Admission is logged by the fair queue, under its lock, just
        // before the request becomes visible to the batcher: `Admitted`
        // always precedes the request's later spans, and a bounce is never
        // counted accepted.
        let admit = || self.count_accepted(id, source, class);
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
                // Dropping the bounced request releases its quota slot.
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
        let (batch_tx, batch_rx) = mpsc::sync_channel::<Batch>(0);
        let batch_rx = Arc::new(Mutex::new(batch_rx));
        for device in 0..workers {
            // Each worker owns a clone, so the receiver drops, and the
            // batcher's `send` fails, once the last worker is gone, however
            // it went.
            let rx = Arc::clone(&batch_rx);
            let (collector, abort, config, qos) = (&collector, &abort, &config, &qos);
            s.spawn(move || {
                let mut svc = CpuService::new(graph, reverse, config.cpu_options());
                pull_batches(&rx, |batch| {
                    run_batch(batch, &mut svc, device, max_batch, collector, abort, qos)
                });
                // CPU stats are lifetime totals; record them exactly once, as
                // the worker drains and exits (still inside the serve scope,
                // so the totals are in the final snapshot).
                svc.record_metrics(collector.registry());
            });
        }
        drop(batch_rx);
        {
            let (collector, abort, config) = (&collector, &abort, &config);
            s.spawn(move || {
                batcher_loop(req_rx, batch_tx, graph, config, max_batch, collector, abort)
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
        // drains and exits, the hand-off hangs up, the workers finish their
        // batches and exit, and the scope joins them all.
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
    // A client that dropped its ticket wants no reply.
    let _ = req.reply.send(outcome);
}

/// Splits `window` into requests still worth running and resolves the
/// rest: aborted requests with `Shutdown`, expired ones with `Timeout`.
fn prune(window: Vec<Request>, abort: &AtomicBool, collector: &Collector) -> Vec<Request> {
    let mut live = Vec::with_capacity(window.len());
    for req in window {
        if abort.load(Ordering::Acquire) {
            resolve(req, Err(ServeError::Shutdown), collector);
        } else if req.deadline.is_some_and(|d| Instant::now() >= d) {
            resolve(req, Err(ServeError::Timeout), collector);
        } else {
            live.push(req);
        }
    }
    live
}

/// A worker's pull loop: takes the next batch from the shared hand-off
/// and runs it, until the batcher hangs up. The lock is held for the
/// `recv` alone and released before `run` starts, so one worker's batch
/// never keeps the others from taking theirs.
fn pull_batches<T>(rx: &Mutex<Receiver<T>>, mut run: impl FnMut(T)) {
    loop {
        let next = rx.lock().expect("the hand-off lock is held only across `recv`").recv();
        match next {
            Ok(batch) => run(batch),
            Err(_) => return,
        }
    }
}

fn batcher_loop(
    req_rx: FairReceiver<Request>,
    batch_tx: SyncSender<Batch>,
    graph: &Csr,
    config: &ServeConfig,
    max_batch: usize,
    collector: &Collector,
    abort: &AtomicBool,
) {
    // Batch sequence numbers are 1-based: 0 on a traversal event means "ran
    // outside the serve stack", so no real batch may claim it.
    let mut seq = 1u64;
    // Collect up to one full wave (every worker's batch) per window.
    let wave_cap = max_batch.saturating_mul(config.workers.max(1)).max(1);
    'serve: loop {
        // Park until the first request of a wave, waking on the poll tick
        // so an abort is observed even while clients hold the handle open
        // without submitting. Each wake doubles as the sampler tick for the
        // queue-depth gauge.
        let first = loop {
            collector.queue_depth.set(req_rx.len() as f64);
            match req_rx.recv_deadline(Instant::now() + POLL_TICK) {
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
        dispatch_wave(window, graph, config, max_batch, &mut seq, &batch_tx, collector, abort);
        if disconnected {
            break;
        }
    }
    // Dropping `batch_tx` here hangs up the hand-off: each worker finishes
    // its batch and exits.
}

#[allow(clippy::too_many_arguments)]
fn dispatch_wave(
    window: Vec<Request>,
    graph: &Csr,
    config: &ServeConfig,
    max_batch: usize,
    seq: &mut u64,
    batch_tx: &SyncSender<Batch>,
    collector: &Collector,
    abort: &AtomicBool,
) {
    let live = prune(window, abort, collector);
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
        // Stamped before the hand-off, so it carries no worker: none has
        // taken the batch yet. `Completed` names the worker that ran it.
        for req in &batch.requests {
            collector.span(
                SpanEvent::admission(
                    req.id,
                    SpanStage::Dispatched,
                    req.source as u64,
                    collector.now_s(),
                )
                .with_batch(batch.seq),
            );
        }
        collector.inflight_batches.add(1.0);
        // Blocks until a worker is idle and takes the batch.
        if let Err(send_err) = batch_tx.send(batch) {
            // Every worker is gone (only possible after each one panicked):
            // abandon the batch.
            collector.inflight_batches.add(-1.0);
            for req in send_err.0.requests {
                resolve(req, Err(ServeError::Shutdown), collector);
            }
        }
    }
}

/// Runs one batch as one group on the worker's service and answers its
/// requests.
fn run_batch(
    batch: Batch,
    svc: &mut CpuService<'_>,
    device: usize,
    max_batch: usize,
    collector: &Collector,
    abort: &AtomicBool,
    qos: &QosRuntime,
) {
    let live = prune(batch.requests, abort, collector);
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
            Err(e) => {
                debug_assert!(false, "admitted source failed traversal admission: {e:?}");
                collector.inflight_batches.add(-1.0);
                for req in live {
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
            cache.insert(s, depths.clone());
        }
        depth_arcs.insert(s, depths);
    }
    if let Some(cache) = &qos.cache {
        collector.cache_entries.set(cache.len() as f64);
    }
    let mean_wait = live
        .iter()
        .map(|r| started.saturating_duration_since(r.submitted).as_secs_f64())
        .sum::<f64>()
        / live.len() as f64;
    collector.push_batch(BatchMetrics {
        batch: batch.seq,
        device: device as u64,
        requests: live.len() as u64,
        occupancy: batch_occupancy(sources.len(), max_batch),
        queue_wait_s: mean_wait,
        sharing_degree: event_sharing_degree(&sink.events),
        sim_seconds: run.wall_seconds,
        traversed_edges: run.traversed_edges,
        teps: run.teps(),
    });
    let batch_sources = sources.len();
    for req in live {
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
        };
        resolve(req, Ok(response), collector);
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
        let (responses, report) = serve(&g, &r, config, |h| {
            let tickets: Vec<_> =
                (0..40u32).map(|s| (s, h.submit(s).unwrap())).collect();
            tickets
                .into_iter()
                .map(|(s, t)| {
                    let resp = t.wait().unwrap();
                    assert_eq!(resp.source, s);
                    assert_eq!(resp.depths, reference_bfs(&g, s));
                    resp
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(responses.len(), 40);
        assert_eq!(report.completed, 40);
        assert!(report.is_conserved());
        // Batches respected the clamp, and each ran on one of the workers.
        for resp in &responses {
            assert!(resp.batch_sources <= 8, "batch {}: {} sources", resp.batch, resp.batch_sources);
            assert!(resp.device < 3, "batch {} ran on worker {}", resp.batch, resp.device);
        }
        for b in &report.batches {
            assert!(b.occupancy <= 1.0);
            assert!(b.device < 3, "batch {} ran on worker {}", b.batch, b.device);
        }
    }

    #[test]
    fn hand_off_runs_batches_on_two_workers_at_once() {
        // Each stand-in batch waits, boundedly, until the other worker is
        // inside a batch too. A receiver lock held across the batch would
        // keep the second worker out: each batch would then time out alone.
        let limit = Duration::from_secs(5);
        // (batches running now, most ever running at once)
        let (inside, entered) = (Mutex::new((0usize, 0usize)), std::sync::Condvar::new());
        let (tx, rx) = mpsc::sync_channel::<u32>(0);
        let rx = Arc::new(Mutex::new(rx));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let rx = Arc::clone(&rx);
                let (inside, entered) = (&inside, &entered);
                s.spawn(move || {
                    pull_batches(&rx, |_| {
                        let mut n = inside.lock().unwrap();
                        n.0 += 1;
                        n.1 = n.1.max(n.0);
                        entered.notify_all();
                        let (mut n, _) = entered.wait_timeout_while(n, limit, |n| n.1 < 2).unwrap();
                        n.0 -= 1;
                    })
                });
            }
            drop(rx);
            for batch in 0..2 {
                tx.send(batch).unwrap();
            }
            drop(tx);
        });
        assert_eq!(inside.into_inner().unwrap().1, 2, "the workers never ran batches at once");
    }

    #[test]
    fn dropped_reply_sender_resolves_ticket_as_shutdown() {
        // A server thread that dies drops its requests' reply senders
        // unsent: the waiting client must wake with `Shutdown`.
        let (reply, rx) = mpsc::sync_channel(1);
        let ticket = Ticket { rx };
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || done_tx.send(ticket.wait()).unwrap());
        drop(reply);
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(10)), Ok(Err(ServeError::Shutdown)));
        waiter.join().unwrap();
    }
}
