//! Multi-tenant QoS primitives for the serve front door.
//!
//! The batching server built in the serve PRs treats every request as
//! unique and every tenant as equal; this module adds the four mechanisms
//! a shared front door needs, each usable (and tested) on its own:
//!
//! * [`fair_bounded`] — the admission queue. It replaces the single FIFO
//!   channel with one bounded FIFO lane **per class** drained by weighted
//!   fair queuing: the batcher pops from the non-empty class with the
//!   smallest `served/weight` virtual time, so a bulk backlog cannot delay
//!   interactive requests beyond their weighted share, and a full bulk
//!   lane cannot make an interactive `try_submit` report `Overloaded`
//!   (capacity is per class). A lane that goes idle is re-synced to the
//!   backlogged minimum virtual time when traffic returns, so idle time
//!   never banks credit a later burst could spend starving the other
//!   classes.
//! * [`QuotaTable`] — per-tenant in-flight admission quotas. Admission
//!   acquires an RAII [`QuotaGuard`]; the guard travels with the request
//!   and releases the slot exactly when the request resolves, whatever
//!   the resolution path.
//! * [`DedupTable`] — rendezvous for identical in-flight requests keyed by
//!   `(graph epoch, source)`. The first request for a key becomes the
//!   *leader* and flows through batching; later requests *join* as waiters
//!   and are resolved, each exactly once, from the leader's traversal.
//!   Within one graph epoch any traversal of a source yields bit-identical
//!   depths (the differential suite's guarantee), which is what makes the
//!   fan-out sound.
//! * [`ResultCache`] — a bounded LRU of depth arrays keyed by source and
//!   tagged with the graph epoch. A lookup under a different epoch is
//!   *stale*: the entry is discarded and counted, never served.
//!
//! [`QosPolicy`] bundles the knobs and rides in
//! [`ServeConfig`](crate::server::ServeConfig). The default policy keeps
//! the pre-QoS behaviour observable: one tenant, everything interactive,
//! unlimited quota, no dedup, no cache — only the admission queue changes
//! representation, and a single-class fair queue is FIFO.

use crate::channel::{RecvTimeoutError, SendError, TrySendError};
use ibfs_graph::{Depth, VertexId};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Number of priority classes (the array length of per-class state).
pub const NUM_CLASSES: usize = 2;

/// A tenant identifier, assigned by the caller at submission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant untagged submissions run under.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Priority class of a request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Class {
    /// Latency-sensitive traffic; the default for untagged submissions.
    #[default]
    Interactive,
    /// Throughput traffic that must not starve the interactive class.
    Bulk,
}

impl Class {
    /// Every class, in lane-index order.
    pub const ALL: [Class; NUM_CLASSES] = [Class::Interactive, Class::Bulk];

    /// Lane index of this class (`0..NUM_CLASSES`).
    pub fn idx(self) -> usize {
        match self {
            Class::Interactive => 0,
            Class::Bulk => 1,
        }
    }

    /// Label used for per-class metric families.
    pub fn label(self) -> &'static str {
        match self {
            Class::Interactive => "interactive",
            Class::Bulk => "bulk",
        }
    }
}

/// QoS knobs for the serve front door.
///
/// `Default` preserves pre-QoS behaviour; [`QosPolicy::standard`] is the
/// everything-on profile `serve-bench --qos` uses.
#[derive(Clone, Debug)]
pub struct QosPolicy {
    /// Drain weight per class lane (indexed by [`Class::idx`]); the fair
    /// queue serves classes proportionally to these. Zero is treated as 1.
    pub weights: [u64; NUM_CLASSES],
    /// In-flight quota for tenants without an explicit entry in `quotas`.
    pub default_quota: u64,
    /// Per-tenant quota overrides.
    pub quotas: Vec<(TenantId, u64)>,
    /// Deduplicate identical in-flight `(epoch, source)` requests.
    pub dedup: bool,
    /// Result-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Use this cache instead of building one (e.g. shared across serve
    /// runs); overrides `cache_capacity`.
    pub shared_cache: Option<Arc<ResultCache>>,
    /// Version of the resident graph; dedup keys and cache entries are
    /// tagged with it, so bumping it invalidates both.
    pub graph_epoch: u64,
}

impl Default for QosPolicy {
    fn default() -> Self {
        QosPolicy {
            weights: [4, 1],
            default_quota: u64::MAX,
            quotas: Vec::new(),
            dedup: false,
            cache_capacity: 0,
            shared_cache: None,
            graph_epoch: 0,
        }
    }
}

impl QosPolicy {
    /// The full-featured profile: 4:1 interactive:bulk drain, dedup on,
    /// and a 512-entry result cache.
    pub fn standard() -> Self {
        QosPolicy { dedup: true, cache_capacity: 512, ..Default::default() }
    }

    /// Sets (or overrides) `tenant`'s in-flight quota.
    pub fn with_quota(mut self, tenant: TenantId, limit: u64) -> Self {
        self.quotas.retain(|(t, _)| *t != tenant);
        self.quotas.push((tenant, limit));
        self
    }

    /// Turns on in-flight request dedup.
    pub fn with_dedup(mut self) -> Self {
        self.dedup = true;
        self
    }

    /// Sets the result-cache capacity.
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Uses `cache` (shared with other serve runs) as the result cache.
    pub fn with_shared_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Sets the graph epoch dedup keys and cache entries are tagged with.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.graph_epoch = epoch;
        self
    }

    /// The quota in force for `tenant`.
    pub fn quota_for(&self, tenant: TenantId) -> u64 {
        self.quotas
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, q)| *q)
            .unwrap_or(self.default_quota)
    }

    /// Builds the quota table this policy describes.
    pub fn build_quota_table(&self) -> Arc<QuotaTable> {
        Arc::new(QuotaTable::new(self.default_quota, &self.quotas))
    }

    /// The result cache this policy calls for: the shared one if given,
    /// else a fresh one when `cache_capacity > 0`.
    pub fn build_cache(&self) -> Option<Arc<ResultCache>> {
        match &self.shared_cache {
            Some(c) => Some(c.clone()),
            None if self.cache_capacity > 0 => {
                Some(Arc::new(ResultCache::new(self.cache_capacity)))
            }
            None => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Weighted-fair admission queue
// ---------------------------------------------------------------------------

struct FairState<T> {
    lanes: [VecDeque<T>; NUM_CLASSES],
    /// Items popped per lane this busy period (the virtual clock). A lane
    /// is re-synced to the backlogged minimum on its empty→non-empty
    /// transition and the whole clock resets when the queue drains, so an
    /// idle lane never banks credit it could later spend starving the
    /// others.
    served: [u64; NUM_CLASSES],
    cap: usize,
    senders: usize,
    receivers: usize,
}

impl<T> FairState<T> {
    fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }

    /// The lane weighted fair queuing drains next: among non-empty lanes,
    /// the one with the smallest `served/weight` virtual time (compared by
    /// u128 cross-multiplication so arbitrary configured weights cannot
    /// overflow), ties to the lower lane index (interactive first).
    fn pick(&self, weights: &[u64; NUM_CLASSES]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for c in 0..NUM_CLASSES {
            if self.lanes[c].is_empty() {
                continue;
            }
            best = Some(match best {
                None => c,
                // served[c]/w[c] < served[b]/w[b]  ⇔  served[c]*w[b] < served[b]*w[c]
                Some(b)
                    if (self.served[c] as u128) * (weights[b] as u128)
                        < (self.served[b] as u128) * (weights[c] as u128) =>
                {
                    c
                }
                Some(b) => b,
            });
        }
        best
    }

    /// WFQ re-sync, called before enqueueing into an empty `lane`: advance
    /// the lane's virtual time `served/weight` to the minimum virtual time
    /// among currently backlogged lanes. Without this an idle lane keeps a
    /// frozen (small) clock while busy lanes advance, and on its next
    /// burst it would win every pick until it caught up — unbounded
    /// priority inversion against the lanes that never went idle.
    fn sync_idle_lane(&mut self, lane: usize, weights: &[u64; NUM_CLASSES]) {
        debug_assert!(self.lanes[lane].is_empty());
        let min_vt = (0..NUM_CLASSES)
            .filter(|&b| b != lane && !self.lanes[b].is_empty())
            // served[b]/weights[b] as a rational, compared by u128
            // cross-multiplication.
            .min_by(|&x, &y| {
                ((self.served[x] as u128) * (weights[y] as u128))
                    .cmp(&((self.served[y] as u128) * (weights[x] as u128)))
            });
        if let Some(b) = min_vt {
            // served[lane] := floor(min_vt * weights[lane]), never rewound.
            let synced = (self.served[b] as u128) * (weights[lane] as u128)
                / (weights[b] as u128);
            self.served[lane] = self.served[lane].max(synced.min(u64::MAX as u128) as u64);
        }
    }
}

struct FairChan<T> {
    state: Mutex<FairState<T>>,
    weights: [u64; NUM_CLASSES],
    not_empty: Condvar,
    not_full: Condvar,
}

/// Producer half of a [`fair_bounded`] queue. Clone freely; receivers see
/// a disconnect when the last clone drops.
pub struct FairSender<T> {
    chan: Arc<FairChan<T>>,
}

/// Consumer half of a [`fair_bounded`] queue.
pub struct FairReceiver<T> {
    chan: Arc<FairChan<T>>,
}

/// Creates a weighted-fair bounded queue: one FIFO lane of capacity
/// `per_class_cap` per class, drained by weighted fair queuing over
/// `weights`. Disconnect semantics match [`crate::channel::bounded`]:
/// receivers drain what is queued after the last sender drops, senders
/// fail once every receiver is gone.
///
/// # Panics
/// Panics if `per_class_cap` is zero.
pub fn fair_bounded<T>(
    per_class_cap: usize,
    weights: [u64; NUM_CLASSES],
) -> (FairSender<T>, FairReceiver<T>) {
    assert!(per_class_cap > 0, "fair queue capacity must be positive");
    let chan = Arc::new(FairChan {
        state: Mutex::new(FairState {
            lanes: std::array::from_fn(|_| VecDeque::new()),
            served: [0; NUM_CLASSES],
            cap: per_class_cap,
            senders: 1,
            receivers: 1,
        }),
        weights: weights.map(|w| w.max(1)),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (FairSender { chan: chan.clone() }, FairReceiver { chan })
}

impl<T> FairSender<T> {
    /// Blocks until `class`'s lane has room, then enqueues. Fails only
    /// when every receiver is gone.
    ///
    /// `on_accept` runs under the queue lock once the value is accepted,
    /// before any receiver can see it; a failed send never runs it. The
    /// server logs admission there, so no request is batched before it is
    /// admitted.
    pub fn send(
        &self,
        class: Class,
        value: T,
        on_accept: impl FnOnce(),
    ) -> Result<(), SendError<T>> {
        let lane = class.idx();
        let mut st = self.chan.state.lock().unwrap();
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            if st.lanes[lane].len() < st.cap {
                self.accept(&mut st, lane, value, on_accept);
                return Ok(());
            }
            st = self.chan.not_full.wait(st).unwrap();
        }
    }

    /// Enqueues into `class`'s lane if it has room right now. A full lane
    /// is reported per class: other classes' backlogs never cause it.
    /// `on_accept` runs as in [`FairSender::send`].
    pub fn try_send(
        &self,
        class: Class,
        value: T,
        on_accept: impl FnOnce(),
    ) -> Result<(), TrySendError<T>> {
        let lane = class.idx();
        let mut st = self.chan.state.lock().unwrap();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if st.lanes[lane].len() >= st.cap {
            return Err(TrySendError::Full(value));
        }
        self.accept(&mut st, lane, value, on_accept);
        Ok(())
    }

    /// Enqueues into `lane`, which has room, under the caller's lock. A
    /// receiver is woken first: it cannot pop before the lock drops, and
    /// the wake-up, which may hand it this CPU, then comes before
    /// `on_accept` instead of between it and the sender's return.
    fn accept(&self, st: &mut FairState<T>, lane: usize, value: T, on_accept: impl FnOnce()) {
        if st.lanes[lane].is_empty() {
            st.sync_idle_lane(lane, &self.chan.weights);
        }
        self.chan.not_empty.notify_one();
        on_accept();
        st.lanes[lane].push_back(value);
    }
}

impl<T> Clone for FairSender<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().unwrap().senders += 1;
        FairSender { chan: self.chan.clone() }
    }
}

impl<T> Drop for FairSender<T> {
    fn drop(&mut self) {
        let mut st = self.chan.state.lock().unwrap();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.chan.not_empty.notify_all();
        }
    }
}

impl<T> FairReceiver<T> {
    fn pop(&self, st: &mut FairState<T>) -> Option<T> {
        let lane = st.pick(&self.chan.weights)?;
        let v = st.lanes[lane].pop_front();
        debug_assert!(v.is_some());
        st.served[lane] = st.served[lane].saturating_add(1);
        // End of a busy period: the relative clocks only matter while
        // something is backlogged, so restart them from zero.
        if st.len() == 0 {
            st.served = [0; NUM_CLASSES];
        }
        v
    }

    /// Blocks until any lane has a value, then pops by weighted fairness.
    /// Fails only when every lane is empty and every sender is gone.
    pub fn recv(&self) -> Result<T, crate::channel::RecvError> {
        let mut st = self.chan.state.lock().unwrap();
        loop {
            if let Some(v) = self.pop(&mut st) {
                drop(st);
                self.chan.not_full.notify_all();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(crate::channel::RecvError);
            }
            st = self.chan.not_empty.wait(st).unwrap();
        }
    }

    /// [`FairReceiver::recv`] that gives up at `deadline`.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        let mut st = self.chan.state.lock().unwrap();
        loop {
            if let Some(v) = self.pop(&mut st) {
                drop(st);
                self.chan.not_full.notify_all();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, timeout) =
                self.chan.not_empty.wait_timeout(st, deadline - now).unwrap();
            st = guard;
            if timeout.timed_out() && st.len() == 0 {
                return Err(if st.senders == 0 {
                    RecvTimeoutError::Disconnected
                } else {
                    RecvTimeoutError::Timeout
                });
            }
        }
    }

    /// Total values queued across lanes right now (a sampling observation,
    /// not a synchronization primitive).
    pub fn len(&self) -> usize {
        self.chan.state.lock().unwrap().len()
    }

    /// True when every lane is empty right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Values queued in `class`'s lane right now.
    pub fn class_len(&self, class: Class) -> usize {
        self.chan.state.lock().unwrap().lanes[class.idx()].len()
    }
}

impl<T> Clone for FairReceiver<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().unwrap().receivers += 1;
        FairReceiver { chan: self.chan.clone() }
    }
}

impl<T> Drop for FairReceiver<T> {
    fn drop(&mut self) {
        let mut st = self.chan.state.lock().unwrap();
        st.receivers -= 1;
        if st.receivers == 0 {
            drop(st);
            self.chan.not_full.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Per-tenant quotas
// ---------------------------------------------------------------------------

/// Per-tenant in-flight admission quotas. Acquire at admission, release by
/// dropping the returned [`QuotaGuard`] — the guard travels with the
/// request, so every resolution path releases exactly once.
#[derive(Debug)]
pub struct QuotaTable {
    default_limit: u64,
    limits: HashMap<u32, u64>,
    inflight: Mutex<HashMap<u32, u64>>,
}

impl QuotaTable {
    /// A table with `default_limit` for every tenant not in `overrides`.
    pub fn new(default_limit: u64, overrides: &[(TenantId, u64)]) -> Self {
        QuotaTable {
            default_limit,
            limits: overrides.iter().map(|(t, q)| (t.0, *q)).collect(),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// The quota in force for `tenant`.
    pub fn limit(&self, tenant: TenantId) -> u64 {
        self.limits.get(&tenant.0).copied().unwrap_or(self.default_limit)
    }

    /// `tenant`'s current in-flight count.
    pub fn inflight(&self, tenant: TenantId) -> u64 {
        self.inflight.lock().unwrap().get(&tenant.0).copied().unwrap_or(0)
    }

    /// Takes one in-flight slot for `tenant`, or `None` when the tenant is
    /// at its quota.
    pub fn try_acquire(self: &Arc<Self>, tenant: TenantId) -> Option<QuotaGuard> {
        let limit = self.limit(tenant);
        let mut inflight = self.inflight.lock().unwrap();
        let count = inflight.entry(tenant.0).or_insert(0);
        if *count >= limit {
            return None;
        }
        *count += 1;
        drop(inflight);
        Some(QuotaGuard { table: self.clone(), tenant })
    }
}

/// One tenant in-flight slot; dropping it releases the slot.
#[derive(Debug)]
pub struct QuotaGuard {
    table: Arc<QuotaTable>,
    tenant: TenantId,
}

impl QuotaGuard {
    /// The tenant this slot belongs to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }
}

impl Drop for QuotaGuard {
    fn drop(&mut self) {
        let mut inflight = self.table.inflight.lock().unwrap();
        match inflight.get_mut(&self.tenant.0) {
            Some(count) if *count > 1 => *count -= 1,
            _ => {
                inflight.remove(&self.tenant.0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// In-flight request dedup
// ---------------------------------------------------------------------------

/// Outcome of [`DedupTable::attach`].
#[derive(Debug)]
pub enum Attach<W> {
    /// No request for the key was in flight; the caller's value is handed
    /// back and the caller is now the key's leader.
    Leader(W),
    /// A leader is in flight; the value was parked as a waiter.
    Joined,
}

/// Rendezvous table for identical in-flight requests, keyed by
/// `(graph epoch, source)`.
///
/// Exactly-once discipline: a waiter enters the table through one
/// successful [`DedupTable::attach`]/[`DedupTable::join_if_inflight`] and
/// leaves it through exactly one [`DedupTable::complete`], which the
/// leader's owner (batcher or worker) calls when the leader's fate is
/// known. Completing a key that was re-led meanwhile is sound: within one
/// epoch every traversal of a source produces identical depths, so any
/// completer may resolve any of the key's waiters.
#[derive(Debug)]
pub struct DedupTable<W> {
    inflight: Mutex<HashMap<(u64, VertexId), Vec<W>>>,
}

impl<W> Default for DedupTable<W> {
    fn default() -> Self {
        DedupTable { inflight: Mutex::new(HashMap::new()) }
    }
}

impl<W> DedupTable<W> {
    /// An empty table.
    pub fn new() -> Self {
        DedupTable::default()
    }

    /// Atomically: if `(epoch, source)` has a leader in flight, park `w`
    /// as a waiter; otherwise register the key and hand `w` back as the
    /// leader.
    ///
    /// `on_join` runs under the table lock only when `w` is parked, before
    /// [`DedupTable::complete`] can hand it out.
    pub fn attach(&self, epoch: u64, source: VertexId, w: W, on_join: impl FnOnce()) -> Attach<W> {
        let mut inflight = self.inflight.lock().unwrap();
        match inflight.get_mut(&(epoch, source)) {
            Some(waiters) => {
                on_join();
                waiters.push(w);
                Attach::Joined
            }
            None => {
                inflight.insert((epoch, source), Vec::new());
                Attach::Leader(w)
            }
        }
    }

    /// Parks `w` as a waiter only if a leader is already in flight;
    /// otherwise hands `w` back without registering the key (the caller
    /// proceeds leaderless — used by non-blocking admission, whose bounce
    /// path must not leave an orphaned key behind). `on_join` runs as in
    /// [`DedupTable::attach`].
    pub fn join_if_inflight(
        &self,
        epoch: u64,
        source: VertexId,
        w: W,
        on_join: impl FnOnce(),
    ) -> Option<W> {
        let mut inflight = self.inflight.lock().unwrap();
        match inflight.get_mut(&(epoch, source)) {
            Some(waiters) => {
                on_join();
                waiters.push(w);
                None
            }
            None => Some(w),
        }
    }

    /// Unregisters `(epoch, source)` and returns its parked waiters (empty
    /// when the key was not in flight). The caller owes each returned
    /// waiter exactly one resolution.
    #[must_use = "every returned waiter must be resolved exactly once"]
    pub fn complete(&self, epoch: u64, source: VertexId) -> Vec<W> {
        self.inflight.lock().unwrap().remove(&(epoch, source)).unwrap_or_default()
    }

    /// True when a leader for `(epoch, source)` is in flight.
    pub fn is_inflight(&self, epoch: u64, source: VertexId) -> bool {
        self.inflight.lock().unwrap().contains_key(&(epoch, source))
    }

    /// Number of keys in flight.
    pub fn len(&self) -> usize {
        self.inflight.lock().unwrap().len()
    }

    /// True when no key is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// LRU result cache
// ---------------------------------------------------------------------------

/// Outcome of a [`ResultCache::get`].
#[derive(Clone, Debug)]
pub enum Lookup {
    /// The source was cached under the requested epoch.
    Hit(Arc<Vec<Depth>>),
    /// The source was not cached.
    Miss,
    /// The source was cached under a *different* epoch; the entry was
    /// discarded, never served.
    Stale,
}

/// Counter snapshot of a [`ResultCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing (includes stale discards).
    pub misses: u64,
    /// Lookups that found an entry from another epoch and discarded it.
    pub stale: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

struct CacheEntry {
    depths: Arc<Vec<Depth>>,
    epoch: u64,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<VertexId, CacheEntry>,
    tick: u64,
}

/// A bounded LRU cache of depth arrays keyed by source vertex, each entry
/// tagged with the graph epoch it was computed under. Strict staleness: a
/// lookup whose epoch differs from the entry's discards the entry and
/// reports [`Lookup::Stale`] — a stale epoch is never served.
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (use no cache instead of an empty one).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ResultCache {
            capacity,
            inner: Mutex::new(CacheInner { map: HashMap::new(), tick: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries resident right now.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `source` under `epoch`, refreshing its recency on a hit.
    pub fn get(&self, epoch: u64, source: VertexId) -> Lookup {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&source) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_used = tick;
                let depths = entry.depths.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(depths)
            }
            Some(_) => {
                inner.map.remove(&source);
                drop(inner);
                self.stale.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Stale
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
        }
    }

    /// Inserts (or refreshes) `source`'s depths under `epoch`, evicting
    /// the least-recently-used entry when at capacity.
    pub fn insert(&self, epoch: u64, source: VertexId, depths: Arc<Vec<Depth>>) {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&source) && inner.map.len() >= self.capacity {
            // O(n) LRU scan; capacities here are small (hundreds), and the
            // insert path runs once per traversed source, not per request.
            if let Some(&victim) =
                inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(s, _)| s)
            {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(source, CacheEntry { depths, epoch, last_used: tick });
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn class_lanes_and_labels_are_stable() {
        assert_eq!(Class::ALL.len(), NUM_CLASSES);
        for (i, c) in Class::ALL.iter().enumerate() {
            assert_eq!(c.idx(), i);
        }
        assert_eq!(Class::Interactive.label(), "interactive");
        assert_eq!(Class::Bulk.label(), "bulk");
        assert_eq!(Class::default(), Class::Interactive);
    }

    #[test]
    fn policy_quota_lookup_prefers_overrides() {
        let p = QosPolicy::default().with_quota(TenantId(3), 5).with_quota(TenantId(3), 7);
        assert_eq!(p.quota_for(TenantId(3)), 7);
        assert_eq!(p.quota_for(TenantId(9)), u64::MAX);
        assert_eq!(p.quotas.len(), 1, "with_quota must replace, not accumulate");
    }

    #[test]
    fn single_class_fair_queue_is_fifo() {
        let (tx, rx) = fair_bounded(8, [4, 1]);
        for i in 0..5 {
            tx.send(Class::Interactive, i, || {}).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn fair_queue_serves_classes_by_weight() {
        // Both lanes stay backlogged; 3:1 drain must hold within one unit.
        let (tx, rx) = fair_bounded(32, [3, 1]);
        for i in 0..24 {
            tx.send(Class::Interactive, (0usize, i), || {}).unwrap();
            tx.send(Class::Bulk, (1usize, i), || {}).unwrap();
        }
        let mut counts = [0usize; NUM_CLASSES];
        for _ in 0..16 {
            let (lane, _) = rx.recv().unwrap();
            counts[lane] += 1;
        }
        assert_eq!(counts[0] + counts[1], 16);
        // 16 pops at weights [3,1]: 12 interactive, 4 bulk exactly.
        assert_eq!(counts, [12, 4], "weighted fairness drifted");
    }

    #[test]
    fn idle_lane_banks_no_credit() {
        // Regression: a long interactive-only period must not let a later
        // bulk burst win every pick while it "catches up" on virtual time.
        let (tx, rx) = fair_bounded(64, [3, 1]);
        for i in 0..40 {
            tx.send(Class::Interactive, (0usize, i), || {}).unwrap();
        }
        // Serve a long stretch with bulk idle (the lane stays non-empty so
        // the busy period never ends).
        for _ in 0..36 {
            assert_eq!(rx.recv().unwrap().0, 0);
        }
        // Bulk wakes up into a backlog; both lanes now stay backlogged.
        for i in 0..24 {
            tx.send(Class::Interactive, (0usize, 100 + i), || {}).unwrap();
            tx.send(Class::Bulk, (1usize, i), || {}).unwrap();
        }
        let mut counts = [0usize; NUM_CLASSES];
        for _ in 0..16 {
            counts[rx.recv().unwrap().0] += 1;
        }
        // Without the empty→non-empty re-sync, bulk would win the first 12
        // pops straight (served[0]=36, weights 3:1) and this reads [4, 12].
        assert_eq!(counts, [12, 4], "idle bulk lane spent banked credit");
    }

    #[test]
    fn clock_resets_between_busy_periods() {
        let (tx, rx) = fair_bounded(8, [4, 1]);
        for i in 0..5 {
            tx.send(Class::Interactive, (0usize, i), || {}).unwrap();
        }
        for _ in 0..5 {
            rx.recv().unwrap();
        }
        // Queue fully drained: the next busy period starts from zero, so a
        // lone bulk item is served immediately, then interactive resumes
        // FIFO with no debt from the previous period.
        tx.send(Class::Bulk, (1usize, 0), || {}).unwrap();
        assert_eq!(rx.recv().unwrap().0, 1);
        tx.send(Class::Interactive, (0usize, 9), || {}).unwrap();
        assert_eq!(rx.recv().unwrap(), (0, 9));
    }

    #[test]
    fn huge_weights_do_not_overflow_the_pick() {
        // `weights` is a public knob: the comparison must survive
        // adversarial values times a long-running served counter.
        let (tx, rx) = fair_bounded(8, [u64::MAX, u64::MAX - 1]);
        for i in 0..4 {
            tx.send(Class::Interactive, (0usize, i), || {}).unwrap();
            tx.send(Class::Bulk, (1usize, i), || {}).unwrap();
        }
        // Would overflow u64 cross-multiplication (panic in debug) once
        // served counters pass 1.
        for _ in 0..8 {
            rx.recv().unwrap();
        }
    }

    #[test]
    fn empty_lane_cedes_its_share() {
        let (tx, rx) = fair_bounded(8, [4, 1]);
        tx.send(Class::Bulk, 1u32, || {}).unwrap();
        tx.send(Class::Bulk, 2, || {}).unwrap();
        // No interactive traffic: bulk drains back to back.
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn lane_capacity_is_per_class() {
        let (tx, _rx) = fair_bounded(1, [4, 1]);
        tx.try_send(Class::Bulk, 1u32, || {}).unwrap();
        // The bulk lane is full; interactive still has room.
        assert!(matches!(tx.try_send(Class::Bulk, 2, || {}), Err(TrySendError::Full(2))));
        tx.try_send(Class::Interactive, 3, || {}).unwrap();
    }

    #[test]
    fn fair_queue_disconnects_like_a_channel() {
        let (tx, rx) = fair_bounded(4, [4, 1]);
        tx.send(Class::Interactive, 9u32, || {}).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(rx.recv(), Err(crate::channel::RecvError));

        let (tx, rx) = fair_bounded(4, [4, 1]);
        drop(rx);
        assert!(matches!(tx.send(Class::Bulk, 1u32, || {}), Err(SendError(1))));
        let deadline = Instant::now() + Duration::from_millis(5);
        let (tx, rx) = fair_bounded::<u32>(4, [4, 1]);
        assert_eq!(rx.recv_deadline(deadline), Err(RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(
            rx.recv_deadline(Instant::now() + Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn quota_guard_releases_on_drop() {
        let table = Arc::new(QuotaTable::new(u64::MAX, &[(TenantId(1), 2)]));
        let a = table.try_acquire(TenantId(1)).unwrap();
        let b = table.try_acquire(TenantId(1)).unwrap();
        assert_eq!(table.inflight(TenantId(1)), 2);
        assert!(table.try_acquire(TenantId(1)).is_none(), "quota exceeded");
        // Another tenant is unaffected.
        let _c = table.try_acquire(TenantId(2)).unwrap();
        drop(a);
        assert_eq!(table.inflight(TenantId(1)), 1);
        let _d = table.try_acquire(TenantId(1)).expect("slot freed");
        drop(b);
        drop(_d);
        assert_eq!(table.inflight(TenantId(1)), 0);
    }

    #[test]
    fn zero_quota_rejects_immediately() {
        let table = Arc::new(QuotaTable::new(4, &[(TenantId(7), 0)]));
        assert!(table.try_acquire(TenantId(7)).is_none());
        assert!(table.try_acquire(TenantId(8)).is_some());
    }

    #[test]
    fn dedup_attach_leads_then_joins() {
        let t = DedupTable::new();
        let Attach::Leader(w) = t.attach(0, 5, "leader", || {}) else {
            panic!("first attach must lead");
        };
        assert_eq!(w, "leader");
        assert!(t.is_inflight(0, 5));
        assert!(matches!(t.attach(0, 5, "w1", || {}), Attach::Joined));
        assert!(matches!(t.attach(0, 5, "w2", || {}), Attach::Joined));
        // A different epoch is a different key.
        assert!(matches!(t.attach(1, 5, "other", || {}), Attach::Leader("other")));
        assert_eq!(t.complete(0, 5), vec!["w1", "w2"]);
        assert!(!t.is_inflight(0, 5));
        assert!(t.complete(0, 5).is_empty(), "completion unregisters the key");
        assert_eq!(t.complete(1, 5), Vec::<&str>::new());
        assert!(t.is_empty());
    }

    #[test]
    fn join_if_inflight_never_creates_keys() {
        let t = DedupTable::new();
        assert_eq!(t.join_if_inflight(0, 3, "x", || {}), Some("x"));
        assert!(!t.is_inflight(0, 3));
        let Attach::Leader(_) = t.attach(0, 3, "leader", || {}) else { panic!() };
        assert_eq!(t.join_if_inflight(0, 3, "y", || {}), None);
        assert_eq!(t.complete(0, 3), vec!["y"]);
    }

    // The server logs `Admitted` in the accept hooks below, so a request
    // must never be observable (by the batcher, or by a leader's
    // completion) before its hook has run, and a bounce must never run it.
    // Each hook asserts that it holds the structure's lock: no other
    // thread can see the value until the hook has returned.

    #[test]
    fn fair_queue_runs_the_accept_hook_before_a_receiver_sees_the_value() {
        const N: usize = 256;
        let hooked: Arc<Vec<AtomicBool>> =
            Arc::new((0..N).map(|_| AtomicBool::new(false)).collect());
        let (tx, rx) = fair_bounded::<usize>(N, [4, 1]);
        let seen = hooked.clone();
        let receiver = std::thread::spawn(move || {
            (0..N).filter(|_| !seen[rx.recv().unwrap()].load(Ordering::Relaxed)).count()
        });
        for i in 0..N {
            let hook = || {
                assert!(tx.chan.state.try_lock().is_err(), "hook ran outside the queue lock");
                hooked[i].store(true, Ordering::Relaxed);
            };
            if i % 2 == 0 {
                tx.send(Class::Interactive, i, hook).unwrap();
            } else {
                tx.try_send(Class::Bulk, i, hook).unwrap();
            }
        }
        assert_eq!(receiver.join().unwrap(), 0, "values seen before their hook ran");
    }

    #[test]
    fn accept_hooks_run_under_the_lock_and_never_on_bounces_or_leaders() {
        let (tx, rx) = fair_bounded(1, [4, 1]);
        let queued = std::cell::Cell::new(0);
        let hook = || {
            assert!(tx.chan.state.try_lock().is_err(), "hook ran outside the queue lock");
            queued.set(queued.get() + 1);
        };
        tx.try_send(Class::Bulk, 1u32, hook).unwrap();
        assert!(matches!(tx.try_send(Class::Bulk, 2, hook), Err(TrySendError::Full(2))));
        drop(rx);
        let gone = tx.try_send(Class::Interactive, 3, hook);
        assert!(matches!(gone, Err(TrySendError::Disconnected(3))));
        assert!(matches!(tx.send(Class::Interactive, 4, hook), Err(SendError(4))));
        assert_eq!(queued.get(), 1, "a bounced send ran its hook");

        let t = DedupTable::new();
        let parked = std::cell::RefCell::new(Vec::new());
        let park = |w| {
            assert!(t.inflight.try_lock().is_err(), "hook ran outside the table lock");
            parked.borrow_mut().push(w);
        };
        assert_eq!(t.join_if_inflight(0, 5, "rider", || park("rider")), Some("rider"));
        assert!(matches!(t.attach(0, 5, "leader", || park("leader")), Attach::Leader(_)));
        assert!(matches!(t.attach(0, 5, "w1", || park("w1")), Attach::Joined));
        assert_eq!(t.join_if_inflight(0, 5, "w2", || park("w2")), None);
        // Completion hands out exactly the waiters whose hook ran.
        assert_eq!(*parked.borrow(), ["w1", "w2"]);
        assert_eq!(t.complete(0, 5), *parked.borrow());
    }

    #[test]
    fn cache_hit_miss_and_lru_eviction() {
        let c = ResultCache::new(2);
        assert!(matches!(c.get(0, 1), Lookup::Miss));
        c.insert(0, 1, Arc::new(vec![1]));
        c.insert(0, 2, Arc::new(vec![2]));
        let Lookup::Hit(d) = c.get(0, 1) else { panic!("expected hit") };
        assert_eq!(*d, vec![1]);
        // Entry 2 is now least recently used; inserting 3 evicts it.
        c.insert(0, 3, Arc::new(vec![3]));
        assert_eq!(c.len(), 2);
        assert!(matches!(c.get(0, 2), Lookup::Miss));
        assert!(matches!(c.get(0, 1), Lookup::Hit(_)));
        assert!(matches!(c.get(0, 3), Lookup::Hit(_)));
        let stats = c.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn stale_epoch_is_discarded_not_served() {
        let c = ResultCache::new(4);
        c.insert(0, 9, Arc::new(vec![7]));
        assert!(matches!(c.get(1, 9), Lookup::Stale));
        // The stale entry is gone: same-epoch lookups miss too.
        assert!(matches!(c.get(0, 9), Lookup::Miss));
        let stats = c.stats();
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 0);
        // Re-inserting under the new epoch serves again.
        c.insert(1, 9, Arc::new(vec![8]));
        assert!(matches!(c.get(1, 9), Lookup::Hit(_)));
    }

    #[test]
    fn reinsert_refreshes_epoch_in_place() {
        let c = ResultCache::new(2);
        c.insert(0, 4, Arc::new(vec![1]));
        c.insert(1, 4, Arc::new(vec![2]));
        assert_eq!(c.len(), 1);
        let Lookup::Hit(d) = c.get(1, 4) else { panic!("expected hit") };
        assert_eq!(*d, vec![2]);
    }
}
