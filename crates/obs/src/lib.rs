//! `ibfs-obs` — the workspace's observability substrate.
//!
//! The paper's entire argument is quantitative (sharing degree, per-level
//! frontier counts, early-termination rates), and the serving stack built on
//! top of it is only debuggable through the same kind of numbers: per-phase
//! counters and latency breakdowns. This crate is the single metrics path
//! every layer records into, kept hermetic (std-only, like the rest of the
//! workspace):
//!
//! * [`registry`] — a [`Registry`] of named [`Counter`]s, [`Gauge`]s, and
//!   [`Histogram`]s. Recording is lock-free (plain atomics on handles the
//!   caller keeps); registration takes a mutex once per instrument.
//! * [`hist`] — log-linear histograms: fixed power-of-two octaves split into
//!   linear sub-buckets, mergeable across worker threads, with exact
//!   min/max and p50/p90/p99 quantile estimates clamped into `[min, max]`.
//! * [`snapshot`] — a point-in-time [`Snapshot`] of a registry with a
//!   versioned JSON encoding and a Prometheus-style text rendering, plus
//!   the validation predicate (`Snapshot::validate`) the CI telemetry gate
//!   runs against `bfs serve-bench --metrics-out` output.
//! * [`span`] — request-scoped tracing: [`RequestId`]s allocated at serve
//!   admission and [`SpanEvent`]s recording each lifecycle stage (admitted,
//!   batched, dispatched, completed/errored) so one request can be followed
//!   from its submission to the device worker and per-level traversal that
//!   answered it.
//! * [`profile`] — the engine profiler: an [`EngineProfiler`] collecting
//!   per-lane, per-level [`PhaseRecord`]s (expand, sweep, identification,
//!   barrier wait, cleanup, serve batches) into a versioned
//!   [`ProfileReport`] that exports to the Chrome trace-event timeline
//!   format.
//!
//! Metric names follow the convention `ibfs_<layer>_<name>` (e.g.
//! `ibfs_serve_latency_seconds`, `ibfs_cluster_routed_total`); per-device
//! instruments append Prometheus-style labels via [`labeled`].

pub mod hist;
pub mod profile;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use profile::{
    prof_phase_gauge, register_prof_metrics, EngineProfiler, PhaseRecord, PhaseStart, ProfPhase,
    ProfileReport, PROFILE_SCHEMA_VERSION,
};
pub use registry::{labeled, Counter, Gauge, Registry};
pub use snapshot::{MetricKind, MetricSnapshot, MetricValue, Snapshot, SNAPSHOT_SCHEMA_VERSION};
pub use span::{IdGen, RequestId, SpanEvent, SpanStage, NO_CORRELATION, TRACE_SCHEMA_VERSION};
