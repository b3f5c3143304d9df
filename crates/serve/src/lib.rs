//! `ibfs-serve` — a concurrent batching front-end over the resident CPU
//! engine, [`ibfs::cpu::CpuService`].
//!
//! The paper's motivating workloads (all-pairs analytics, centrality,
//! reachability indexing) arrive as *streams* of BFS requests, not one
//! prepared batch. This crate closes that gap: many client threads submit
//! single-source requests; a batcher coalesces a short admission window
//! into batches of at most one CPU group, in arrival order or by the
//! paper's §5.2 GroupBy rules; each batch goes, through one
//! `std::sync::mpsc` rendezvous, to whichever worker thread is idle next,
//! and that worker's resident `CpuService` runs it as one group and emits
//! its per-level events; every request resolves with exactly one of a
//! depth array or a typed [`ServeError`].
//!
//! Entry point: [`serve`] — run a closure against a [`ServeHandle`], get a
//! [`ServeReport`] back after graceful drain. Layers, front to back:
//!
//! * [`error`] — the [`ServeError`] taxonomy
//!   (Timeout/Overloaded/QuotaExceeded/Shutdown/Invalid).
//! * [`qos`] — the multi-tenant front door: priority classes, the
//!   weighted-fair admission queue, per-tenant quotas and the LRU result
//!   cache.
//! * [`coalesce`] — window → batches planning (arrival order or GroupBy).
//! * [`server`] — admission, batching, the hand-off, workers, lifecycle.
//! * [`metrics`] — per-batch records and the end-of-run [`ServeReport`].
//! * [`slo`] — the rolling per-class SLO tracker behind the live
//!   `ibfs_slo_*` gauges (`bfs top`'s data source).

pub mod coalesce;
pub mod error;
pub mod metrics;
pub mod qos;
pub mod server;
pub mod slo;

pub use coalesce::{plan, BatchPlan, CoalescePolicy};
pub use error::ServeError;
pub use metrics::{class_metric, Collector, ServeReport, ServeStats, ServeTelemetry};
pub use qos::{Class, QosPolicy, QuotaGuard, QuotaTable, ResultCache, TenantId, NUM_CLASSES};
pub use server::{
    effective_max_batch, serve, serve_with, BfsResponse, ServeConfig, ServeHandle, Ticket,
};
pub use slo::{register_slo_metrics, SloConfig, SloObjective, SloTracker};
