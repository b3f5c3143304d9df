//! Structured per-level trace stream.
//!
//! The [`crate::driver::LevelDriver`] emits one [`TraversalEvent`] per BFS
//! level it executes: the level's direction, frontier counts, counter deltas
//! and simulated time. The CPU engine ([`crate::cpu::CpuService`]) emits the
//! same event per level with its wall-clock time instead. The serve layer
//! interleaves [`SpanEvent`]s (request lifecycle stages) into the same
//! stream, correlated through the event's `batch` field. Consumers plug in a
//! [`TraceSink`]:
//!
//! * [`NullSink`] — discard (the default; tracing costs nothing when off).
//! * [`RecorderSink`] — collect in memory (figure modules, tests).
//! * [`JsonlSink`] — one JSON object per line via `ibfs_util::json`
//!   (`bfs --trace`). Both event kinds carry `schema_version`
//!   ([`TRACE_SCHEMA_VERSION`]) and a `kind` tag (`"level"` / `"span"`).
//! * [`GroupStamp`] — adapter that stamps the group index before forwarding
//!   (used by the service layer, which runs many groups per request).
//! * [`BatchStamp`] — adapter that stamps the serve batch sequence number,
//!   linking per-level events to the span stream.
//! * [`MetricsSink`] — adapter that records per-level counters and
//!   histograms into an [`ibfs_obs::Registry`] before forwarding.
//! * [`TraceLog`] — a shared, thread-safe record log the serve stack uses
//!   to merge spans and levels from many threads into one ordered stream.
//!
//! Sinks observe the traversal; they never influence it. The engines charge
//! the profiler identically whether a sink is attached or not, which is what
//! keeps traced and untraced runs bit-identical.

use crate::direction::Direction;
use ibfs_obs::span::SpanEvent;
use ibfs_obs::Registry;
use ibfs_util::json::{field, FromJson, Json, JsonError, ToJson};
use std::sync::{Arc, Mutex};

pub use ibfs_obs::span::TRACE_SCHEMA_VERSION;

/// One BFS level as observed by the level driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraversalEvent {
    /// Group index within the request (stamped by [`GroupStamp`]; 0 when the
    /// traversal runs outside the service layer).
    pub group: u64,
    /// Serve batch sequence number (stamped by [`BatchStamp`]; batch numbers
    /// are 1-based, so 0 means the traversal ran outside the serve stack).
    pub batch: u64,
    /// Level number (depth assigned at this level).
    pub level: u32,
    /// Direction executed.
    pub direction: Direction,
    /// Unique frontiers in the (joint) queue this level.
    pub unique_frontiers: u64,
    /// Sum over instances of per-instance frontier counts: the instance
    /// bits that entered a top-down level (the group size at level 1), or
    /// the bits a bottom-up level's unfinished queue still misses.
    pub instance_frontiers: u64,
    /// Edges inspected across all instances this level.
    pub edges_inspected: u64,
    /// Bottom-up inspections cut short by early termination.
    pub early_terminations: u64,
    /// Global-memory load transactions charged during this level.
    pub load_transactions: u64,
    /// Global-memory store transactions charged during this level.
    pub store_transactions: u64,
    /// Atomic transactions charged during this level.
    pub atomic_transactions: u64,
    /// Simulated seconds this level cost (including its launch overhead);
    /// 0 on the CPU engine.
    pub sim_seconds: f64,
    /// Wall-clock seconds this level took on the CPU engine; 0 on the
    /// simulator.
    pub wall_seconds: f64,
}

// The JSON codec is hand-written (not `json_struct!`) because the schema is
// versioned: every encoded line carries `schema_version` and a `kind` tag,
// and the decoder accepts v1 lines (no version, no `batch`) and v2 lines (no
// `wall_seconds`) for old traces.
impl ToJson for TraversalEvent {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".to_string(), Json::UInt(TRACE_SCHEMA_VERSION)),
            ("kind".to_string(), Json::Str("level".to_string())),
            ("group".to_string(), Json::UInt(self.group)),
            ("batch".to_string(), Json::UInt(self.batch)),
            ("level".to_string(), self.level.to_json()),
            ("direction".to_string(), self.direction.to_json()),
            ("unique_frontiers".to_string(), Json::UInt(self.unique_frontiers)),
            ("instance_frontiers".to_string(), Json::UInt(self.instance_frontiers)),
            ("edges_inspected".to_string(), Json::UInt(self.edges_inspected)),
            ("early_terminations".to_string(), Json::UInt(self.early_terminations)),
            ("load_transactions".to_string(), Json::UInt(self.load_transactions)),
            ("store_transactions".to_string(), Json::UInt(self.store_transactions)),
            ("atomic_transactions".to_string(), Json::UInt(self.atomic_transactions)),
            ("sim_seconds".to_string(), self.sim_seconds.to_json()),
            ("wall_seconds".to_string(), self.wall_seconds.to_json()),
        ])
    }
}

impl FromJson for TraversalEvent {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let version = field::<u64>(j, "schema_version").unwrap_or(1);
        if version > TRACE_SCHEMA_VERSION {
            return Err(JsonError {
                msg: format!(
                    "trace version {version} is newer than supported {TRACE_SCHEMA_VERSION}"
                ),
                at: 0,
            });
        }
        Ok(TraversalEvent {
            group: field(j, "group")?,
            batch: field(j, "batch").unwrap_or(0),
            level: field(j, "level")?,
            direction: field(j, "direction")?,
            unique_frontiers: field(j, "unique_frontiers")?,
            instance_frontiers: field(j, "instance_frontiers")?,
            edges_inspected: field(j, "edges_inspected")?,
            early_terminations: field(j, "early_terminations")?,
            load_transactions: field(j, "load_transactions")?,
            store_transactions: field(j, "store_transactions")?,
            atomic_transactions: field(j, "atomic_transactions")?,
            sim_seconds: field(j, "sim_seconds")?,
            wall_seconds: if version >= 3 { field(j, "wall_seconds")? } else { 0.0 },
        })
    }
}

/// Either kind of trace line, tagged as the JSONL stream tags them.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceRecord {
    /// A per-level traversal event.
    Level(TraversalEvent),
    /// A request lifecycle event.
    Span(SpanEvent),
}

impl ToJson for TraceRecord {
    fn to_json(&self) -> Json {
        match self {
            TraceRecord::Level(e) => e.to_json(),
            TraceRecord::Span(e) => e.to_json(),
        }
    }
}

impl FromJson for TraceRecord {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.get("kind").and_then(Json::as_str) {
            Some("span") => Ok(TraceRecord::Span(SpanEvent::from_json(j)?)),
            // v1 lines carry no `kind`; everything untagged is a level event.
            Some("level") | None => Ok(TraceRecord::Level(TraversalEvent::from_json(j)?)),
            Some(other) => {
                Err(JsonError { msg: format!("unknown trace record kind `{other}`"), at: 0 })
            }
        }
    }
}

/// Receiver of per-level trace events.
pub trait TraceSink {
    /// Observes one level.
    fn record(&mut self, event: &TraversalEvent);
}

/// Discards every event.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &TraversalEvent) {}
}

/// Collects events in memory.
#[derive(Clone, Debug, Default)]
pub struct RecorderSink {
    /// Recorded level events, in emission order.
    pub events: Vec<TraversalEvent>,
}

impl TraceSink for RecorderSink {
    fn record(&mut self, event: &TraversalEvent) {
        self.events.push(*event);
    }
}

/// Writes one compact JSON object per line.
#[derive(Debug)]
pub struct JsonlSink<W: std::io::Write> {
    writer: W,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// A sink writing JSONL to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }

    /// The underlying writer (flushes what the sink buffered).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: std::io::Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraversalEvent) {
        // Trace output is best-effort: a closed pipe must not abort the
        // traversal itself.
        let _ = writeln!(self.writer, "{}", event.to_json().to_string());
    }
}

/// Adapter stamping a group index onto every forwarded event.
pub struct GroupStamp<'a> {
    /// Group index to stamp.
    pub group: u64,
    /// Downstream sink.
    pub inner: &'a mut dyn TraceSink,
}

impl TraceSink for GroupStamp<'_> {
    fn record(&mut self, event: &TraversalEvent) {
        let mut stamped = *event;
        stamped.group = self.group;
        self.inner.record(&stamped);
    }
}

/// Adapter stamping a serve batch sequence number onto every forwarded
/// level event, correlating it with the span stream.
pub struct BatchStamp<'a> {
    /// Batch sequence number to stamp (1-based).
    pub batch: u64,
    /// Downstream sink.
    pub inner: &'a mut dyn TraceSink,
}

impl TraceSink for BatchStamp<'_> {
    fn record(&mut self, event: &TraversalEvent) {
        let mut stamped = *event;
        stamped.batch = self.batch;
        self.inner.record(&stamped);
    }
}

/// Adapter recording per-level counters and histograms into a metrics
/// registry before forwarding. Counter names follow the workspace
/// convention: `ibfs_core_levels_total`, `ibfs_core_edges_inspected_total`,
/// `ibfs_core_early_terminations_total`, and the histograms
/// `ibfs_core_frontier_size`, `ibfs_core_level_sim_seconds` and
/// `ibfs_core_level_wall_seconds`. Each seconds histogram observes only the
/// levels that carry its clock, so simulated and wall time never mix.
pub struct MetricsSink<'a> {
    levels: Arc<ibfs_obs::Counter>,
    edges: Arc<ibfs_obs::Counter>,
    early: Arc<ibfs_obs::Counter>,
    frontier: Arc<ibfs_obs::Histogram>,
    sim_seconds: Arc<ibfs_obs::Histogram>,
    wall_seconds: Arc<ibfs_obs::Histogram>,
    /// Downstream sink.
    pub inner: &'a mut dyn TraceSink,
}

impl<'a> MetricsSink<'a> {
    /// A sink recording into `registry` and forwarding to `inner`.
    pub fn new(registry: &Registry, inner: &'a mut dyn TraceSink) -> Self {
        MetricsSink {
            levels: registry.counter("ibfs_core_levels_total"),
            edges: registry.counter("ibfs_core_edges_inspected_total"),
            early: registry.counter("ibfs_core_early_terminations_total"),
            frontier: registry.histogram("ibfs_core_frontier_size"),
            sim_seconds: registry.histogram("ibfs_core_level_sim_seconds"),
            wall_seconds: registry.histogram("ibfs_core_level_wall_seconds"),
            inner,
        }
    }
}

impl TraceSink for MetricsSink<'_> {
    fn record(&mut self, event: &TraversalEvent) {
        self.levels.inc();
        self.edges.add(event.edges_inspected);
        self.early.add(event.early_terminations);
        self.frontier.record(event.unique_frontiers as f64);
        if event.sim_seconds > 0.0 {
            self.sim_seconds.record(event.sim_seconds);
        }
        if event.wall_seconds > 0.0 {
            self.wall_seconds.record(event.wall_seconds);
        }
        self.inner.record(event);
    }
}

/// A shared, thread-safe trace log. The serve stack hands a clone to every
/// layer that emits (admission spans from the serve thread, level events
/// from the device workers); the merged stream comes back out in arrival
/// order via [`TraceLog::records`] or [`TraceLog::render_jsonl`].
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Appends one record.
    pub fn push(&self, record: TraceRecord) {
        self.records.lock().unwrap().push(record);
    }

    /// Number of records logged so far.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the records logged so far, in arrival order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().unwrap().clone()
    }

    /// The whole log as JSONL text (one object per line, `kind`-tagged).
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records.lock().unwrap().iter() {
            out.push_str(&r.to_json().to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_obs::span::SpanStage;

    fn event(level: u32) -> TraversalEvent {
        TraversalEvent {
            group: 0,
            batch: 0,
            level,
            direction: Direction::TopDown,
            unique_frontiers: 3,
            instance_frontiers: 7,
            edges_inspected: 21,
            early_terminations: 1,
            load_transactions: 10,
            store_transactions: 4,
            atomic_transactions: 2,
            sim_seconds: 1.5e-6,
            wall_seconds: 0.0,
        }
    }

    fn span(request: u64) -> SpanEvent {
        SpanEvent::admission(request, SpanStage::Admitted, 9, 0.25)
    }

    #[test]
    fn recorder_collects_in_order() {
        let mut sink = RecorderSink::default();
        sink.record(&event(1));
        sink.record(&event(2));
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[1].level, 2);
    }

    #[test]
    fn group_stamp_overrides_group() {
        let mut rec = RecorderSink::default();
        let mut stamp = GroupStamp { group: 5, inner: &mut rec };
        stamp.record(&event(1));
        assert_eq!(rec.events[0].group, 5);
        assert_eq!(rec.events[0].level, 1);
    }

    #[test]
    fn group_stamp_restamps_prestamped_events() {
        // The service layer nests stamps; the innermost wins because each
        // stamp overwrites before forwarding.
        let mut rec = RecorderSink::default();
        {
            let mut outer = GroupStamp { group: 1, inner: &mut rec };
            let mut inner = GroupStamp { group: 2, inner: &mut outer };
            let mut pre = event(1);
            pre.group = 9;
            inner.record(&pre);
        }
        assert_eq!(rec.events[0].group, 1, "outermost stamp is authoritative");
    }

    #[test]
    fn batch_stamp_sets_batch_and_keeps_group() {
        let mut rec = RecorderSink::default();
        {
            let mut batch = BatchStamp { batch: 42, inner: &mut rec };
            let mut group = GroupStamp { group: 3, inner: &mut batch };
            group.record(&event(1));
        }
        assert_eq!(rec.events[0].batch, 42);
        assert_eq!(rec.events[0].group, 3);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&event(3));
        let bytes = sink.into_inner();
        let line = String::from_utf8(bytes).unwrap();
        assert!(line.ends_with('\n'));
        let parsed = Json::parse(line.trim()).unwrap();
        let back = TraversalEvent::from_json(&parsed).unwrap();
        assert_eq!(back, event(3));
    }

    #[test]
    fn jsonl_frames_one_line_per_record() {
        let log = TraceLog::new();
        log.push(TraceRecord::Level(event(1)));
        log.push(TraceRecord::Span(span(4)));
        log.push(TraceRecord::Level(event(2)));
        let text = log.render_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // Every line is a self-contained, kind-tagged JSON object.
        let kinds: Vec<String> = lines
            .iter()
            .map(|l| {
                let j = Json::parse(l).unwrap();
                j.get("kind").and_then(Json::as_str).unwrap().to_string()
            })
            .collect();
        assert_eq!(kinds, ["level", "span", "level"]);
    }

    #[test]
    fn level_events_carry_schema_version() {
        let j = event(1).to_json();
        assert_eq!(j.get("schema_version"), Some(&Json::UInt(TRACE_SCHEMA_VERSION)));
    }

    #[test]
    fn v1_lines_without_version_or_batch_still_decode() {
        let mut j = event(5).to_json();
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| k != "schema_version" && k != "kind" && k != "batch");
        }
        let back = TraversalEvent::from_json(&j).unwrap();
        assert_eq!(back, event(5));
    }

    #[test]
    fn v2_lines_decode_with_zero_wall_seconds_and_v3_lines_need_it() {
        let cpu = TraversalEvent { sim_seconds: 0.0, wall_seconds: 2.5e-4, ..event(4) };
        let mut j = cpu.to_json();
        assert_eq!(TraversalEvent::from_json(&j).unwrap(), cpu);
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| k != "wall_seconds");
        }
        assert!(TraversalEvent::from_json(&j).is_err(), "a v3 line without wall_seconds");
        if let Json::Obj(fields) = &mut j {
            for (k, v) in fields.iter_mut() {
                if k == "schema_version" {
                    *v = Json::UInt(2);
                }
            }
        }
        let back = TraversalEvent::from_json(&j).unwrap();
        assert_eq!(back, TraversalEvent { wall_seconds: 0.0, ..cpu });
    }

    #[test]
    fn trace_record_decodes_by_kind_tag() {
        let level = TraceRecord::Level(event(2));
        let span = TraceRecord::Span(span(8));
        for r in [&level, &span] {
            let j = Json::parse(&r.to_json().to_string()).unwrap();
            assert_eq!(&TraceRecord::from_json(&j).unwrap(), r);
        }
        let bad = Json::parse("{\"kind\":\"mystery\"}").unwrap();
        assert!(TraceRecord::from_json(&bad).is_err());
    }

    #[test]
    fn metrics_sink_records_and_forwards() {
        let registry = Registry::new();
        let mut rec = RecorderSink::default();
        {
            let mut metrics = MetricsSink::new(&registry, &mut rec);
            metrics.record(&event(1));
            metrics.record(&event(2));
            // A CPU level: wall time only.
            metrics.record(&TraversalEvent { sim_seconds: 0.0, wall_seconds: 3e-4, ..event(3) });
        }
        assert_eq!(rec.events.len(), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ibfs_core_levels_total"), Some(3));
        assert_eq!(snap.counter("ibfs_core_edges_inspected_total"), Some(63));
        assert_eq!(snap.counter("ibfs_core_early_terminations_total"), Some(3));
        assert_eq!(snap.histogram("ibfs_core_level_sim_seconds").unwrap().count, 2);
        assert_eq!(snap.histogram("ibfs_core_level_wall_seconds").unwrap().count, 1);
    }

    #[test]
    fn trace_log_merges_across_threads() {
        let log = TraceLog::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let log = log.clone();
                s.spawn(move || {
                    for i in 0..10 {
                        log.push(TraceRecord::Level(event(i)));
                        log.push(TraceRecord::Span(span(t * 100 + i as u64)));
                    }
                });
            }
        });
        assert_eq!(log.len(), 80);
        let jsonl = log.render_jsonl();
        assert_eq!(jsonl.lines().count(), 80);
        for line in jsonl.lines() {
            TraceRecord::from_json(&Json::parse(line).unwrap()).unwrap();
        }
    }
}
