//! Request-scoped tracing spans.
//!
//! A serve request gets a [`RequestId`] at admission; every lifecycle stage
//! after that emits a [`SpanEvent`] carrying the id plus whatever
//! correlation the stage knows (batch sequence number, device index). Core
//! traversal events are stamped with the same batch number, so one request
//! can be followed end to end: `Admitted(request)` → `Batched(request,
//! batch)` → `Dispatched(request, batch, device)` → per-level traversal
//! events tagged `batch` → `Completed(request, batch, device)`.
//!
//! Fields that have no meaning at a stage (e.g. `batch` at admission) hold
//! [`NO_CORRELATION`] and are omitted from the JSON encoding.

use ibfs_util::json::{field, FromJson, Json, JsonError, ToJson};
use ibfs_util::json_enum;
use std::sync::atomic::{AtomicU64, Ordering};

/// Correlation id allocated at serve admission.
pub type RequestId = u64;

/// Sentinel for "this correlation is not known at this stage".
///
/// Zero is deliberately *not* the sentinel: batch sequence numbers start at
/// 1 so that `batch == 0` on a traversal event means "ran outside the serve
/// stack", which is a distinct, meaningful state.
pub const NO_CORRELATION: u64 = u64::MAX;

/// Version stamped into every trace line (traversal and span events alike).
/// v1 was the pre-span schema without `schema_version`/`batch` fields; v2
/// level events carry no `wall_seconds`.
pub const TRACE_SCHEMA_VERSION: u64 = 3;

/// Monotone id allocator. Ids start at 1 so 0 never names a real request.
#[derive(Debug)]
pub struct IdGen(AtomicU64);

impl Default for IdGen {
    fn default() -> Self {
        IdGen(AtomicU64::new(1))
    }
}

impl IdGen {
    /// A fresh allocator.
    pub fn new() -> Self {
        IdGen::default()
    }

    /// The next id (1, 2, 3, ...).
    pub fn next_id(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

/// Which lifecycle stage a span event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanStage {
    /// Request passed validation and entered the admission queue.
    Admitted,
    /// Request was pulled into a coalesced batch.
    Batched,
    /// The batch holding the request was handed to a device worker.
    Dispatched,
    /// Request resolved successfully.
    Completed,
    /// Request resolved with a deadline error.
    TimedOut,
    /// Request was rejected at admission: queue full.
    Overloaded,
    /// Request was resolved by server shutdown.
    Shutdown,
    /// Request was rejected at admission: server not accepting.
    Rejected,
    /// Request was rejected at admission: invalid sources.
    Invalid,
    /// Request was rejected at admission: tenant at its in-flight quota.
    QuotaExceeded,
    /// Request was answered from the result cache without traversal.
    CacheHit,
}

json_enum!(SpanStage {
    Admitted,
    Batched,
    Dispatched,
    Completed,
    TimedOut,
    Overloaded,
    Shutdown,
    Rejected,
    Invalid,
    QuotaExceeded,
    CacheHit,
});

impl SpanStage {
    /// True for stages that end a request's lifetime.
    pub fn is_terminal(self) -> bool {
        !matches!(self, SpanStage::Admitted | SpanStage::Batched | SpanStage::Dispatched)
    }
}

/// One lifecycle event for one request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanEvent {
    /// The request this event belongs to.
    pub request: RequestId,
    /// Lifecycle stage.
    pub stage: SpanStage,
    /// The request's BFS source vertex.
    pub source: u64,
    /// Coalesced batch sequence number (1-based), or [`NO_CORRELATION`].
    pub batch: u64,
    /// Device index the batch ran on, or [`NO_CORRELATION`].
    pub device: u64,
    /// Seconds since the serve run started.
    pub t_s: f64,
}

impl SpanEvent {
    /// An event with no batch/device correlation yet (admission stages).
    pub fn admission(request: RequestId, stage: SpanStage, source: u64, t_s: f64) -> Self {
        SpanEvent {
            request,
            stage,
            source,
            batch: NO_CORRELATION,
            device: NO_CORRELATION,
            t_s,
        }
    }

    /// Fills in the batch correlation.
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.batch = batch;
        self
    }

    /// Fills in the device correlation.
    pub fn with_device(mut self, device: u64) -> Self {
        self.device = device;
        self
    }
}

impl ToJson for SpanEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version".to_string(), Json::UInt(TRACE_SCHEMA_VERSION)),
            ("kind".to_string(), Json::Str("span".to_string())),
            ("request".to_string(), Json::UInt(self.request)),
            ("stage".to_string(), self.stage.to_json()),
            ("source".to_string(), Json::UInt(self.source)),
        ];
        if self.batch != NO_CORRELATION {
            fields.push(("batch".to_string(), Json::UInt(self.batch)));
        }
        if self.device != NO_CORRELATION {
            fields.push(("device".to_string(), Json::UInt(self.device)));
        }
        fields.push(("t_s".to_string(), self.t_s.to_json()));
        Json::Obj(fields)
    }
}

impl FromJson for SpanEvent {
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
        Ok(SpanEvent {
            request: field(j, "request")?,
            stage: field(j, "stage")?,
            source: field(j, "source")?,
            batch: field(j, "batch").unwrap_or(NO_CORRELATION),
            device: field(j, "device").unwrap_or(NO_CORRELATION),
            t_s: field(j, "t_s")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_gen_starts_at_one_and_is_monotone() {
        let g = IdGen::new();
        assert_eq!(g.next_id(), 1);
        assert_eq!(g.next_id(), 2);
        assert_eq!(g.next_id(), 3);
    }

    #[test]
    fn admission_event_omits_unknown_correlation() {
        let e = SpanEvent::admission(7, SpanStage::Admitted, 42, 0.5);
        let j = e.to_json();
        assert!(j.get("batch").is_none());
        assert!(j.get("device").is_none());
        assert_eq!(SpanEvent::from_json(&j).unwrap(), e);
    }

    #[test]
    fn full_correlation_round_trips() {
        let e = SpanEvent::admission(9, SpanStage::Completed, 3, 1.25)
            .with_batch(4)
            .with_device(1);
        let text = e.to_json().to_string();
        assert!(text.contains("\"schema_version\":3"));
        assert!(text.contains("\"kind\":\"span\""));
        assert!(text.contains("\"stage\":\"Completed\""));
        let back = SpanEvent::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn missing_version_decodes_as_v1() {
        // A hand-built v1-style line (no schema_version) still decodes.
        let j = Json::parse(
            "{\"kind\":\"span\",\"request\":1,\"stage\":\"Admitted\",\"source\":0,\"t_s\":0.0}",
        )
        .unwrap();
        let e = SpanEvent::from_json(&j).unwrap();
        assert_eq!(e.request, 1);
        assert_eq!(e.batch, NO_CORRELATION);
    }

    #[test]
    fn future_versions_are_rejected() {
        let j = Json::parse(
            "{\"schema_version\":99,\"request\":1,\"stage\":\"Admitted\",\"source\":0,\"t_s\":0.0}",
        )
        .unwrap();
        assert!(SpanEvent::from_json(&j).is_err());
    }

    #[test]
    fn terminal_stages() {
        assert!(!SpanStage::Admitted.is_terminal());
        assert!(!SpanStage::Batched.is_terminal());
        assert!(!SpanStage::Dispatched.is_terminal());
        for s in [
            SpanStage::Completed,
            SpanStage::TimedOut,
            SpanStage::Overloaded,
            SpanStage::Shutdown,
            SpanStage::Rejected,
            SpanStage::Invalid,
            SpanStage::QuotaExceeded,
            SpanStage::CacheHit,
        ] {
            assert!(s.is_terminal());
        }
    }
}
