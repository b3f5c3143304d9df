//! Rolling SLO surface for the serve layer.
//!
//! Reports and snapshots answer "what happened over the whole run"; an
//! operator staring at `bfs top` needs "are we meeting objectives *right
//! now*". The [`SloTracker`] keeps a bounded sliding window of request
//! outcomes per [`Class`] and folds it into four live gauges after every
//! observation:
//!
//! * `ibfs_slo_availability{class=..}` — fraction of windowed requests
//!   that resolved successfully (completions, including cache hits).
//! * `ibfs_slo_latency_attainment{class=..}` — fraction of windowed
//!   *successful* requests at or under the class latency threshold.
//! * `ibfs_slo_burn_rate{class=..}` — how fast the error budget is being
//!   spent: `(1 - observed) / (1 - objective)`, the worse of the
//!   availability and latency dimensions. 1.0 means burning exactly at
//!   budget; above ~2 an alert would page.
//! * `ibfs_slo_overload` — 1 when any class burns faster than the
//!   configured threshold (or the server bounced a request from a full
//!   queue inside the current window), else 0.
//!
//! Empty windows read as healthy (availability 1, burn 0): a freshly
//! started server meets every objective vacuously. All four families are
//! registered eagerly at collector construction so an idle snapshot still
//! carries them (the metrics-check gate validates presence, not traffic).

use crate::metrics::class_metric;
use crate::qos::{Class, NUM_CLASSES};
use ibfs_obs::{Gauge, Registry};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One class's objectives.
#[derive(Clone, Copy, Debug)]
pub struct SloObjective {
    /// Target fraction of requests resolved successfully.
    pub availability: f64,
    /// Latency threshold (seconds): a successful request at or under it
    /// counts as attained.
    pub latency_threshold_s: f64,
    /// Target fraction of successful requests under the threshold.
    pub latency_attainment: f64,
}

/// Tracker configuration: per-class objectives plus window and alerting
/// shape.
#[derive(Clone, Copy, Debug)]
pub struct SloConfig {
    /// Objectives indexed by [`Class::idx`].
    pub objectives: [SloObjective; NUM_CLASSES],
    /// Sliding-window size (outcomes per class).
    pub window: usize,
    /// Burn rate above which the overload flag raises.
    pub overload_burn: f64,
}

impl SloConfig {
    /// Defaults mirroring the QoS split: interactive traffic promises
    /// tight latency at high availability, bulk trades both for
    /// throughput.
    pub fn standard() -> SloConfig {
        SloConfig {
            objectives: [
                // Interactive: 99% availability, 95% under 100ms.
                SloObjective {
                    availability: 0.99,
                    latency_threshold_s: 0.1,
                    latency_attainment: 0.95,
                },
                // Bulk: 95% availability, 90% under 2s.
                SloObjective {
                    availability: 0.95,
                    latency_threshold_s: 2.0,
                    latency_attainment: 0.90,
                },
            ],
            window: 256,
            overload_burn: 2.0,
        }
    }
}

/// One windowed outcome.
#[derive(Clone, Copy, Debug)]
struct Sample {
    ok: bool,
    /// Successful and at/under the class threshold.
    fast: bool,
    /// A queue-full bounce (a request the server never accepted).
    bounce: bool,
}

/// One class's sliding window plus running counts of its samples, kept in
/// step on every push and pop so that folding never walks the window.
#[derive(Debug, Default)]
struct ClassWindow {
    samples: VecDeque<Sample>,
    ok: usize,
    fast: usize,
    /// Bounces still in the window; any positive count forces the
    /// overload flag.
    bounces: usize,
}

impl ClassWindow {
    /// Appends `sample`, first evicting the oldest one once the window
    /// holds `window` samples.
    fn push(&mut self, sample: Sample, window: usize) {
        if self.samples.len() >= window.max(1) {
            if let Some(old) = self.samples.pop_front() {
                self.ok -= old.ok as usize;
                self.fast -= old.fast as usize;
                self.bounces -= old.bounce as usize;
            }
        }
        self.ok += sample.ok as usize;
        self.fast += sample.fast as usize;
        self.bounces += sample.bounce as usize;
        self.samples.push_back(sample);
    }
}

/// The live SLO tracker: one sliding window per class feeding the
/// `ibfs_slo_*` gauges.
#[derive(Debug)]
pub struct SloTracker {
    config: SloConfig,
    windows: [Mutex<ClassWindow>; NUM_CLASSES],
    availability: [Arc<Gauge>; NUM_CLASSES],
    attainment: [Arc<Gauge>; NUM_CLASSES],
    burn: [Arc<Gauge>; NUM_CLASSES],
    overload: Arc<Gauge>,
}

/// Eagerly registers every `ibfs_slo_*` family on `registry` with healthy
/// idle values, so snapshots from a server that has seen no traffic still
/// carry them.
pub fn register_slo_metrics(registry: &Registry) {
    for class in Class::ALL {
        registry.gauge(&class_metric("ibfs_slo_availability", class)).set(1.0);
        registry.gauge(&class_metric("ibfs_slo_latency_attainment", class)).set(1.0);
        registry.gauge(&class_metric("ibfs_slo_burn_rate", class)).set(0.0);
    }
    registry.gauge("ibfs_slo_overload").set(0.0);
}

impl SloTracker {
    /// A tracker publishing into `registry` (families registered eagerly,
    /// idle values healthy).
    pub fn new(registry: &Registry, config: SloConfig) -> SloTracker {
        register_slo_metrics(registry);
        SloTracker {
            config,
            windows: std::array::from_fn(|_| Mutex::new(ClassWindow::default())),
            availability: Class::ALL
                .map(|c| registry.gauge(&class_metric("ibfs_slo_availability", c))),
            attainment: Class::ALL
                .map(|c| registry.gauge(&class_metric("ibfs_slo_latency_attainment", c))),
            burn: Class::ALL.map(|c| registry.gauge(&class_metric("ibfs_slo_burn_rate", c))),
            overload: registry.gauge("ibfs_slo_overload"),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Records a resolved request: `latency_s` is `Some` for successes
    /// (completions and cache hits), `None` for failures (timeouts,
    /// shutdowns, overload bounces of accepted requests).
    pub fn observe(&self, class: Class, latency_s: Option<f64>) {
        let obj = self.config.objectives[class.idx()];
        let fast = latency_s.is_some_and(|l| l <= obj.latency_threshold_s);
        self.push(class, Sample { ok: latency_s.is_some(), fast, bounce: false });
    }

    /// Records a queue-full bounce (a request the server never accepted):
    /// it counts against availability and forces the overload flag while
    /// it remains in the window.
    pub fn observe_bounce(&self, class: Class) {
        self.push(class, Sample { ok: false, fast: false, bounce: true });
    }

    fn push(&self, class: Class, sample: Sample) {
        let idx = class.idx();
        self.windows[idx].lock().unwrap().push(sample, self.config.window);
        self.publish(idx);
    }

    /// Windowed `(availability, latency attainment, burn rate)` for
    /// `class` — the same numbers the gauges carry.
    pub fn status(&self, class: Class) -> (f64, f64, f64) {
        let idx = class.idx();
        let w = self.windows[idx].lock().unwrap();
        Self::fold(&w, self.config.objectives[idx])
    }

    fn fold(w: &ClassWindow, obj: SloObjective) -> (f64, f64, f64) {
        let total = w.samples.len();
        if total == 0 {
            return (1.0, 1.0, 0.0);
        }
        let availability = w.ok as f64 / total as f64;
        let attainment = if w.ok == 0 { 0.0 } else { w.fast as f64 / w.ok as f64 };
        let avail_burn = burn_rate(availability, obj.availability);
        let lat_burn = burn_rate(attainment, obj.latency_attainment);
        (availability, attainment, avail_burn.max(lat_burn))
    }

    fn publish(&self, idx: usize) {
        let (availability, attainment, burn) = {
            let w = self.windows[idx].lock().unwrap();
            Self::fold(&w, self.config.objectives[idx])
        };
        self.availability[idx].set(availability);
        self.attainment[idx].set(attainment);
        self.burn[idx].set(burn);
        // The flag reflects every class: recompute from all windows.
        let mut overloaded = false;
        for i in 0..NUM_CLASSES {
            let w = self.windows[i].lock().unwrap();
            let (_, _, b) = Self::fold(&w, self.config.objectives[i]);
            if b > self.config.overload_burn || w.bounces > 0 {
                overloaded = true;
            }
        }
        self.overload.set(if overloaded { 1.0 } else { 0.0 });
    }
}

/// Error-budget burn: `(1 - observed) / (1 - objective)`, clamped to 0
/// when the objective is met. An objective of 1.0 leaves no budget — any
/// miss reads as an effectively infinite burn (capped for gauge sanity).
fn burn_rate(observed: f64, objective: f64) -> f64 {
    let missed = (1.0 - observed).max(0.0);
    if missed == 0.0 {
        return 0.0;
    }
    let budget = (1.0 - objective).max(0.0);
    if budget == 0.0 {
        return BURN_CAP;
    }
    (missed / budget).min(BURN_CAP)
}

/// Gauge ceiling for burn rate: keeps a zero-budget miss finite.
const BURN_CAP: f64 = 1e6;

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> (Arc<Registry>, SloTracker) {
        let r = Registry::shared();
        let t = SloTracker::new(&r, SloConfig::standard());
        (r, t)
    }

    fn gauge(r: &Registry, name: &str, class: Class) -> f64 {
        r.snapshot().gauge(&class_metric(name, class)).unwrap()
    }

    #[test]
    fn idle_tracker_registers_healthy_gauges() {
        let (r, _t) = tracker();
        let snap = r.snapshot();
        for c in Class::ALL {
            assert_eq!(snap.gauge(&class_metric("ibfs_slo_availability", c)), Some(1.0));
            assert_eq!(snap.gauge(&class_metric("ibfs_slo_latency_attainment", c)), Some(1.0));
            assert_eq!(snap.gauge(&class_metric("ibfs_slo_burn_rate", c)), Some(0.0));
        }
        assert_eq!(snap.gauge("ibfs_slo_overload"), Some(0.0));
    }

    #[test]
    fn successes_keep_availability_at_one() {
        let (r, t) = tracker();
        for _ in 0..10 {
            t.observe(Class::Interactive, Some(0.01));
        }
        assert_eq!(gauge(&r, "ibfs_slo_availability", Class::Interactive), 1.0);
        assert_eq!(gauge(&r, "ibfs_slo_latency_attainment", Class::Interactive), 1.0);
        assert_eq!(gauge(&r, "ibfs_slo_burn_rate", Class::Interactive), 0.0);
        assert_eq!(r.snapshot().gauge("ibfs_slo_overload"), Some(0.0));
    }

    #[test]
    fn failures_burn_the_availability_budget() {
        let (r, t) = tracker();
        // 1 failure in 10 on a 99% objective: availability 0.9, burn 10x.
        for _ in 0..9 {
            t.observe(Class::Interactive, Some(0.01));
        }
        t.observe(Class::Interactive, None);
        let avail = gauge(&r, "ibfs_slo_availability", Class::Interactive);
        assert!((avail - 0.9).abs() < 1e-12);
        let burn = gauge(&r, "ibfs_slo_burn_rate", Class::Interactive);
        assert!((burn - 10.0).abs() < 1e-9, "burn {burn}");
        // Burning 10x a 99% budget crosses the standard 2.0 threshold.
        assert_eq!(r.snapshot().gauge("ibfs_slo_overload"), Some(1.0));
    }

    #[test]
    fn slow_successes_burn_the_latency_budget() {
        let (r, t) = tracker();
        // All successful but half over the 100ms interactive threshold.
        for i in 0..10 {
            let l = if i % 2 == 0 { 0.01 } else { 0.5 };
            t.observe(Class::Interactive, Some(l));
        }
        assert_eq!(gauge(&r, "ibfs_slo_availability", Class::Interactive), 1.0);
        let att = gauge(&r, "ibfs_slo_latency_attainment", Class::Interactive);
        assert!((att - 0.5).abs() < 1e-12);
        assert!(gauge(&r, "ibfs_slo_burn_rate", Class::Interactive) > 2.0);
    }

    #[test]
    fn bounces_force_the_overload_flag_until_they_age_out() {
        let r = Registry::shared();
        let t = SloTracker::new(
            &r,
            SloConfig { window: 4, ..SloConfig::standard() },
        );
        t.observe_bounce(Class::Bulk);
        assert_eq!(r.snapshot().gauge("ibfs_slo_overload"), Some(1.0));
        // Four healthy observations roll the bounce out of the window;
        // bulk's 95% budget tolerates zero misses in a clean window.
        for _ in 0..4 {
            t.observe(Class::Bulk, Some(0.01));
        }
        assert_eq!(r.snapshot().gauge("ibfs_slo_overload"), Some(0.0));
        assert_eq!(gauge(&r, "ibfs_slo_availability", Class::Bulk), 1.0);
    }

    #[test]
    fn window_slides() {
        let r = Registry::shared();
        let t = SloTracker::new(&r, SloConfig { window: 2, ..SloConfig::standard() });
        t.observe(Class::Bulk, None);
        t.observe(Class::Bulk, None);
        assert_eq!(gauge(&r, "ibfs_slo_availability", Class::Bulk), 0.0);
        t.observe(Class::Bulk, Some(0.01));
        t.observe(Class::Bulk, Some(0.01));
        assert_eq!(gauge(&r, "ibfs_slo_availability", Class::Bulk), 1.0);
        assert_eq!(gauge(&r, "ibfs_slo_burn_rate", Class::Bulk), 0.0);
    }

    #[test]
    fn zero_budget_objectives_cap_the_burn() {
        assert_eq!(burn_rate(0.5, 1.0), BURN_CAP);
        assert_eq!(burn_rate(1.0, 1.0), 0.0);
        assert!((burn_rate(0.9, 0.99) - 10.0).abs() < 1e-9);
        assert_eq!(burn_rate(1.0, 0.9), 0.0);
    }

    #[test]
    fn classes_track_independently() {
        let (r, t) = tracker();
        t.observe(Class::Interactive, None);
        assert_eq!(gauge(&r, "ibfs_slo_availability", Class::Interactive), 0.0);
        assert_eq!(gauge(&r, "ibfs_slo_availability", Class::Bulk), 1.0);
        let (avail, att, burn) = t.status(Class::Interactive);
        assert_eq!(avail, 0.0);
        assert_eq!(att, 0.0);
        assert!(burn > 0.0);
    }

    #[test]
    fn a_bounce_holds_the_overload_flag_for_the_length_of_the_window() {
        // A bounce ages out with its own sample, not whenever any sample
        // leaves a full window: in steady state the latter would hold the
        // flag for one observation instead of the length of the window.
        let r = Registry::shared();
        let t = SloTracker::new(&r, SloConfig { window: 100, ..SloConfig::standard() });
        for _ in 0..100 {
            t.observe(Class::Bulk, Some(0.01));
        }
        t.observe_bounce(Class::Bulk);
        t.observe(Class::Bulk, Some(0.01));
        // Bulk burns 0.2 (availability 0.99 on a 95% objective), under the
        // 2.0 threshold: only the bounce, still in the window, raises it.
        assert!(gauge(&r, "ibfs_slo_burn_rate", Class::Bulk) < 2.0);
        assert_eq!(r.snapshot().gauge("ibfs_slo_overload"), Some(1.0));
        // The bounce sits 98 samples from the front: 98 more successes
        // keep it in the window, the 99th pushes it out.
        for _ in 0..98 {
            t.observe(Class::Bulk, Some(0.01));
        }
        assert_eq!(r.snapshot().gauge("ibfs_slo_overload"), Some(1.0));
        t.observe(Class::Bulk, Some(0.01));
        assert_eq!(r.snapshot().gauge("ibfs_slo_overload"), Some(0.0));
    }
}
