//! Frozen registry snapshots: versioned JSON and Prometheus-style text.
//!
//! A [`Snapshot`] is what `bfs stats` renders, `bfs serve-bench
//! --metrics-out` dumps, and the CI telemetry gate validates. The JSON
//! encoding is versioned (`snapshot_version`) and hand-written rather than
//! macro-generated because a metric row is a tagged union (counter / gauge /
//! histogram). All number formatting goes through Rust's `std::fmt`, which
//! is locale-independent by construction — `1.5` never becomes `1,5`.

use crate::hist::HistogramSnapshot;
use ibfs_util::json::{field, FromJson, Json, JsonError, ToJson};
use std::fmt::Write as _;

/// Version stamped into every snapshot JSON document.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 1;

/// What kind of instrument a row describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Log-linear histogram summary.
    Histogram,
}

impl MetricKind {
    /// The lowercase tag used in JSON and Prometheus `# TYPE` lines.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A snapshot row's value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
}

/// One named instrument at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    /// Full metric name (may carry `{label="value"}` suffixes).
    pub name: String,
    /// The reading.
    pub value: MetricValue,
}

impl MetricSnapshot {
    /// The row's kind tag.
    pub fn kind(&self) -> MetricKind {
        match self.value {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

impl ToJson for MetricSnapshot {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("kind".to_string(), Json::Str(self.kind().as_str().to_string())),
        ];
        match &self.value {
            MetricValue::Counter(v) => fields.push(("value".to_string(), Json::UInt(*v))),
            MetricValue::Gauge(v) => fields.push(("value".to_string(), v.to_json())),
            MetricValue::Histogram(h) => {
                if let Json::Obj(hf) = h.to_json() {
                    fields.extend(hf);
                }
            }
        }
        Json::Obj(fields)
    }
}

impl FromJson for MetricSnapshot {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let name: String = field(j, "name")?;
        let kind: String = field(j, "kind")?;
        let value = match kind.as_str() {
            "counter" => MetricValue::Counter(field(j, "value")?),
            "gauge" => MetricValue::Gauge(field(j, "value")?),
            "histogram" => MetricValue::Histogram(HistogramSnapshot::from_json(j)?),
            other => {
                return Err(JsonError { msg: format!("unknown metric kind `{other}`"), at: 0 })
            }
        };
        Ok(MetricSnapshot { name, value })
    }
}

/// A point-in-time view of a whole registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// JSON schema version ([`SNAPSHOT_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// All rows, sorted by name.
    pub metrics: Vec<MetricSnapshot>,
}

impl ToJson for Snapshot {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("snapshot_version".to_string(), Json::UInt(self.schema_version)),
            ("metrics".to_string(), self.metrics.to_json()),
        ])
    }
}

impl FromJson for Snapshot {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let schema_version: u64 = field(j, "snapshot_version")?;
        if schema_version > SNAPSHOT_SCHEMA_VERSION {
            return Err(JsonError {
                msg: format!(
                    "snapshot version {schema_version} is newer than supported \
                     {SNAPSHOT_SCHEMA_VERSION}"
                ),
                at: 0,
            });
        }
        Ok(Snapshot { schema_version, metrics: field(j, "metrics")? })
    }
}

impl Snapshot {
    /// Looks up a row by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Counter reading by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Gauge reading by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match &self.get(name)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Rows whose name starts with `prefix` (label-suffixed families).
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a MetricSnapshot> {
        self.metrics.iter().filter(move |m| m.name.starts_with(prefix))
    }

    /// Prometheus-style text exposition: `# TYPE` comments, one sample line
    /// per counter/gauge, and summary-style `quantile` lines plus
    /// `_count`/`_sum`/`_min`/`_max` for histograms.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            // `# TYPE` names the family: strip any label suffix.
            let family = m.name.split('{').next().unwrap_or(&m.name);
            let _ = writeln!(out, "# TYPE {family} {}", m.kind().as_str());
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{} {v}", m.name);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {}", m.name, fmt_value(*v));
                }
                MetricValue::Histogram(h) => {
                    for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                        let _ = writeln!(
                            out,
                            "{family}{{quantile=\"{q}\"}} {}",
                            fmt_value(v)
                        );
                    }
                    let _ = writeln!(out, "{family}_sum {}", fmt_value(h.sum));
                    let _ = writeln!(out, "{family}_count {}", h.count);
                    let _ = writeln!(out, "{family}_min {}", fmt_value(h.min));
                    let _ = writeln!(out, "{family}_max {}", fmt_value(h.max));
                }
            }
        }
        out
    }

    /// The CI gate's predicate: every `required` name is present (a name
    /// ending in `*` matches as a prefix, for label families), every gauge
    /// reads a finite non-negative value (our gauges are depths, counts,
    /// ratios and seconds — NaN or a negative reading means a recording
    /// bug, not a valid state), and every histogram is well formed:
    /// quantiles monotone within `[min, max]`, a finite sum, and the
    /// count/total consistency `count*min <= sum <= count*max`.
    pub fn validate(&self, required: &[&str]) -> Result<(), String> {
        for want in required {
            let found = if let Some(prefix) = want.strip_suffix('*') {
                self.metrics.iter().any(|m| m.name.starts_with(prefix))
            } else {
                self.get(want).is_some()
            };
            if !found {
                return Err(format!("required metric `{want}` missing from snapshot"));
            }
        }
        for m in &self.metrics {
            match &m.value {
                MetricValue::Counter(_) => {}
                MetricValue::Gauge(v) => {
                    if v.is_nan() {
                        return Err(format!("gauge `{}` reads NaN", m.name));
                    }
                    if !v.is_finite() || *v < 0.0 {
                        return Err(format!("gauge `{}` reads {v}, not a finite value >= 0", m.name));
                    }
                }
                MetricValue::Histogram(h) => {
                    if !h.is_well_formed() {
                        return Err(format!(
                            "histogram `{}` is malformed: min {} p50 {} p90 {} p99 {} max {}",
                            m.name, h.min, h.p50, h.p90, h.p99, h.max
                        ));
                    }
                    if h.count > 0 {
                        if !h.sum.is_finite() {
                            return Err(format!(
                                "histogram `{}` has count {} but non-finite sum {}",
                                m.name, h.count, h.sum
                            ));
                        }
                        // Sum/count consistency: the total must be
                        // achievable from `count` observations inside
                        // [min, max] (tolerance covers f64 accumulation).
                        let n = h.count as f64;
                        let slack = 1e-9 * n * h.max.abs().max(h.min.abs()).max(1.0);
                        if h.sum < n * h.min - slack || h.sum > n * h.max + slack {
                            return Err(format!(
                                "histogram `{}` sum {} is inconsistent with count {} in \
                                 [{}, {}]",
                                m.name, h.sum, h.count, h.min, h.max
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Locale-stable sample formatting: finite values via `std::fmt` (always
/// `.`-decimal), non-finite as Prometheus spells them.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("ibfs_serve_accepted_total").add(12);
        r.gauge("ibfs_serve_queue_depth").set(3.0);
        let h = r.histogram("ibfs_serve_latency_seconds");
        for v in [0.001, 0.002, 0.004, 0.1] {
            h.record(v);
        }
        r.counter(&crate::registry::labeled("ibfs_serve_shutdown_total", &[("class", "bulk")]))
            .inc();
        r.snapshot()
    }

    #[test]
    fn json_round_trips() {
        use ibfs_util::{FromJson, ToJson};
        let s = sample();
        let text = s.to_json().to_string();
        let back = Snapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        // Pretty form parses to the same document.
        let pretty = s.to_json().to_string_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), s.to_json());
    }

    #[test]
    fn future_snapshot_versions_are_rejected() {
        let mut j = sample().to_json();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::UInt(SNAPSHOT_SCHEMA_VERSION + 1);
        }
        assert!(Snapshot::from_json(&j).is_err());
    }

    #[test]
    fn prometheus_rendering_has_types_samples_and_quantiles() {
        let text = sample().render_prometheus();
        assert!(text.contains("# TYPE ibfs_serve_accepted_total counter"));
        assert!(text.contains("ibfs_serve_accepted_total 12"));
        assert!(text.contains("# TYPE ibfs_serve_latency_seconds histogram"));
        assert!(text.contains("ibfs_serve_latency_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("ibfs_serve_latency_seconds_count 4"));
        assert!(text.contains("ibfs_serve_shutdown_total{class=\"bulk\"} 1"));
        // Label suffix never leaks into the TYPE line.
        assert!(text.contains("# TYPE ibfs_serve_shutdown_total counter"));
        // Every sample value re-parses as a float: locale-stable output.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "NaN"),
                "unparseable sample value in line: {line}"
            );
        }
    }

    #[test]
    fn validate_checks_presence_and_shape() {
        let s = sample();
        assert!(s.validate(&["ibfs_serve_accepted_total", "ibfs_serve_shutdown_total*"]).is_ok());
        let err = s.validate(&["ibfs_missing_total"]).unwrap_err();
        assert!(err.contains("ibfs_missing_total"));

        // A corrupted histogram fails validation.
        let mut bad = s.clone();
        for m in &mut bad.metrics {
            if let MetricValue::Histogram(h) = &mut m.value {
                h.p50 = h.max + 1.0;
            }
        }
        assert!(bad.validate(&[]).is_err());
    }

    #[test]
    fn validate_rejects_nan_and_negative_gauges() {
        let mut s = sample();
        for m in &mut s.metrics {
            if let MetricValue::Gauge(v) = &mut m.value {
                *v = f64::NAN;
            }
        }
        assert!(s.validate(&[]).unwrap_err().contains("NaN"));

        let mut s = sample();
        for m in &mut s.metrics {
            if let MetricValue::Gauge(v) = &mut m.value {
                *v = -1.0;
            }
        }
        assert!(s.validate(&[]).unwrap_err().contains("not a finite value >= 0"));

        let mut s = sample();
        for m in &mut s.metrics {
            if let MetricValue::Gauge(v) = &mut m.value {
                *v = f64::INFINITY;
            }
        }
        assert!(s.validate(&[]).is_err());
    }

    #[test]
    fn validate_rejects_histogram_count_total_mismatches() {
        // Sum larger than count*max: the total cannot have come from the
        // claimed number of observations.
        let mut s = sample();
        for m in &mut s.metrics {
            if let MetricValue::Histogram(h) = &mut m.value {
                h.sum = h.max * h.count as f64 + 1.0;
            }
        }
        assert!(s.validate(&[]).unwrap_err().contains("inconsistent with count"));

        // Sum smaller than count*min.
        let mut s = sample();
        for m in &mut s.metrics {
            if let MetricValue::Histogram(h) = &mut m.value {
                h.sum = h.min * h.count as f64 - 1.0;
            }
        }
        assert!(s.validate(&[]).is_err());

        // Non-finite sum with a positive count.
        let mut s = sample();
        for m in &mut s.metrics {
            if let MetricValue::Histogram(h) = &mut m.value {
                h.sum = f64::NAN;
            }
        }
        assert!(s.validate(&[]).unwrap_err().contains("non-finite sum"));
    }

    #[test]
    fn accessors_find_rows() {
        let s = sample();
        assert_eq!(s.counter("ibfs_serve_accepted_total"), Some(12));
        assert_eq!(s.gauge("ibfs_serve_queue_depth"), Some(3.0));
        assert_eq!(s.histogram("ibfs_serve_latency_seconds").unwrap().count, 4);
        assert_eq!(s.counter("nope"), None);
        assert_eq!(s.with_prefix("ibfs_serve_shutdown").count(), 1);
    }
}
