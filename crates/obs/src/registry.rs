//! The unified metrics registry: named counters, gauges, and histograms.
//!
//! Layers register instruments once (mutex-protected, cold) and keep the
//! returned [`Arc`] handles; recording through a handle is a plain atomic
//! operation, so the hot path never takes a lock. Registration is
//! get-or-create: two layers naming the same instrument share it, which is
//! what lets the serve collector and the CLI read one set of numbers.

use crate::hist::Histogram;
use crate::snapshot::{MetricSnapshot, MetricValue, Snapshot, SNAPSHOT_SCHEMA_VERSION};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous value (stored as f64 bits; set and delta-add are atomic).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0.0f64.to_bits()))
    }
}

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A set of named instruments. Shareable across threads (`Arc<Registry>`);
/// see the crate docs for the `ibfs_<layer>_<name>` naming convention.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Vec<(String, Metric)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// A fresh shared registry.
    pub fn shared() -> Arc<Registry> {
        Arc::new(Registry::new())
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().unwrap();
        if let Some((_, m)) = metrics.iter().find(|(n, _)| n == name) {
            return m.clone();
        }
        let m = make();
        metrics.push((name.to_string(), m.clone()));
        m
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind_name()),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind_name()),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind_name()),
        }
    }

    /// Point-in-time snapshot of every registered instrument, sorted by
    /// name so output is stable regardless of registration interleaving.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().unwrap();
        let mut rows: Vec<MetricSnapshot> = metrics
            .iter()
            .map(|(name, m)| MetricSnapshot {
                name: name.clone(),
                value: match m {
                    Metric::Counter(c) => MetricValue::Counter(c.value()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { schema_version: SNAPSHOT_SCHEMA_VERSION, metrics: rows }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry({} metrics)", self.metrics.lock().unwrap().len())
    }
}

/// Appends Prometheus-style labels to a metric name:
/// `labeled("ibfs_serve_latency_seconds", &[("class", "bulk")])` →
/// `ibfs_serve_latency_seconds{class="bulk"}`.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_share() {
        let r = Registry::new();
        let a = r.counter("ibfs_test_total");
        let b = r.counter("ibfs_test_total");
        a.inc();
        b.add(2);
        assert_eq!(a.value(), 3);
        let g = r.gauge("ibfs_test_depth");
        g.set(4.0);
        g.add(-1.5);
        assert!((r.gauge("ibfs_test_depth").value() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("ibfs_test_total");
        r.gauge("ibfs_test_total");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("ibfs_z_total").inc();
        r.histogram("ibfs_a_seconds").record(0.5);
        r.gauge("ibfs_m_depth").set(7.0);
        let s = r.snapshot();
        let names: Vec<&str> = s.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["ibfs_a_seconds", "ibfs_m_depth", "ibfs_z_total"]);
        assert_eq!(s.counter("ibfs_z_total"), Some(1));
        assert_eq!(s.gauge("ibfs_m_depth"), Some(7.0));
        assert_eq!(s.histogram("ibfs_a_seconds").unwrap().count, 1);
    }

    #[test]
    fn concurrent_registration_yields_one_instrument() {
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = &r;
                s.spawn(move || {
                    for _ in 0..100 {
                        r.counter("ibfs_contended_total").inc();
                    }
                });
            }
        });
        assert_eq!(r.counter("ibfs_contended_total").value(), 400);
        assert_eq!(r.snapshot().metrics.len(), 1);
    }

    #[test]
    fn labeled_names() {
        assert_eq!(labeled("x_total", &[]), "x_total");
        assert_eq!(labeled("x_total", &[("device", "3")]), "x_total{device=\"3\"}");
        assert_eq!(
            labeled("x", &[("a", "1"), ("b", "2")]),
            "x{a=\"1\",b=\"2\"}"
        );
    }
}
