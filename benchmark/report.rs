//! Metric sets, the result line, and the per-process memory probe.
//!
//! Every workload reports the same names: [`EndToEnd`] on a plain run and
//! [`Layers`] on a traced run. A layer a workload does not exercise reports
//! 0 (the batch workloads have no front door; the serve engines run one
//! lane and no profiler).

use ibfs_obs::ProfPhase;
use ibfs_util::Json;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

const fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a user of the system sees.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// `reverse()` plus `CpuService::new`, median of several builds.
    pub setup_s: f64,
    /// Peak resident set of the workload's process.
    pub peak_rss_mib: f64,
    /// Median time of one unit of work: a request from its due time to its
    /// reply (serve), or a group's `run_group` call (batch).
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    /// Median traversal rate of one batch (serve) or group (batch).
    pub teps: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            m("setup_s", self.setup_s, "s"),
            m("peak_rss_mb", self.peak_rss_mib, "MiB"),
            m("latency_p50_ms", self.latency_p50_ms, "ms"),
            m("latency_p95_ms", self.latency_p95_ms, "ms"),
            m("teps", self.teps, "edges/s"),
        ]
    }
}

/// Engine profiler phases reported per group, with their metric names.
pub const PHASES: [(ProfPhase, &str); 8] = [
    (
        ProfPhase::TopDownExpand,
        "core.cpu.phase.top_down_expand_ms",
    ),
    (
        ProfPhase::BottomUpSweep,
        "core.cpu.phase.bottom_up_sweep_ms",
    ),
    (ProfPhase::Identify, "core.cpu.phase.identify_ms"),
    (ProfPhase::QueueBuild, "core.cpu.phase.queue_build_ms"),
    (ProfPhase::Repair, "core.cpu.phase.repair_ms"),
    (ProfPhase::StatusSweep, "core.cpu.phase.status_sweep_ms"),
    (ProfPhase::Cleanup, "core.cpu.phase.cleanup_ms"),
    (ProfPhase::BarrierWait, "core.cpu.phase.barrier_wait_ms"),
];

/// Per-layer figures, each named for the module it measures.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    // loadgen: the open-loop generator itself.
    pub late_p95_ms: f64,
    pub late_max_ms: f64,
    pub reordered_replies: f64,
    // serve.qos: the front door inside `try_submit`.
    pub submit_p50_us: f64,
    pub submit_p95_us: f64,
    pub cache_hit_rate: f64,
    pub overloaded: f64,
    // serve.batcher
    pub batches: f64,
    pub sources_per_batch: f64,
    pub window_plan_p50_ms: f64,
    // serve.worker
    pub queue_wait_p50_ms: f64,
    pub queue_wait_p95_ms: f64,
    pub dispatch_wait_p50_ms: f64,
    // serve.reply: worker start + engine time → receipt.
    pub reply_p50_ms: f64,
    // core.cpu
    pub engine_p50_ms: f64,
    pub engine_p95_ms: f64,
    pub levels_per_group: f64,
    pub traversed_edges: f64,
    pub chunks_touched_per_level: f64,
    pub full_sweeps_per_group: f64,
    pub dense_levels_per_group: f64,
    pub bottom_up_share: f64,
    /// Median time per group inside `run_group` but outside every
    /// profiled engine phase.
    pub unprofiled_p50_ms: f64,
    // core.pool
    pub phases_per_level: f64,
    pub phase_us_mean: f64,
    pub barrier_wait_share: f64,
    // core.cpu.phase: profiler milliseconds per group, in `PHASES` order.
    pub phase_ms: [f64; 8],
    // set-up
    pub reverse_ms: f64,
    pub service_new_ms: f64,
    // trace: the traced run against the plain one.
    pub overhead_pct: f64,
    pub unaccounted_p95_ms: f64,
    pub identity_misses: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = vec![
            m("loadgen.late_p95_ms", self.late_p95_ms, "ms"),
            m("loadgen.late_max_ms", self.late_max_ms, "ms"),
            m("loadgen.reordered_replies", self.reordered_replies, "count"),
            m("serve.qos.submit_p50_us", self.submit_p50_us, "us"),
            m("serve.qos.submit_p95_us", self.submit_p95_us, "us"),
            m("serve.qos.cache_hit_rate", self.cache_hit_rate, "ratio"),
            m("serve.qos.overloaded", self.overloaded, "count"),
            m("serve.batcher.batches", self.batches, "count"),
            m(
                "serve.batcher.sources_per_batch",
                self.sources_per_batch,
                "count",
            ),
            m(
                "serve.batcher.window_plan_p50_ms",
                self.window_plan_p50_ms,
                "ms",
            ),
            m(
                "serve.worker.queue_wait_p50_ms",
                self.queue_wait_p50_ms,
                "ms",
            ),
            m(
                "serve.worker.queue_wait_p95_ms",
                self.queue_wait_p95_ms,
                "ms",
            ),
            m(
                "serve.worker.dispatch_wait_p50_ms",
                self.dispatch_wait_p50_ms,
                "ms",
            ),
            m("serve.reply_p50_ms", self.reply_p50_ms, "ms"),
            m("core.cpu.engine_p50_ms", self.engine_p50_ms, "ms"),
            m("core.cpu.engine_p95_ms", self.engine_p95_ms, "ms"),
            m("core.cpu.levels_per_group", self.levels_per_group, "count"),
            m("core.cpu.traversed_edges", self.traversed_edges, "edges"),
            m(
                "core.cpu.chunks_touched_per_level",
                self.chunks_touched_per_level,
                "count",
            ),
            m(
                "core.cpu.full_sweeps_per_group",
                self.full_sweeps_per_group,
                "count",
            ),
            m(
                "core.cpu.dense_levels_per_group",
                self.dense_levels_per_group,
                "count",
            ),
            m("core.cpu.bottom_up_share", self.bottom_up_share, "ratio"),
            m("core.cpu.unprofiled_p50_ms", self.unprofiled_p50_ms, "ms"),
            m("core.pool.phases_per_level", self.phases_per_level, "count"),
            m("core.pool.phase_us_mean", self.phase_us_mean, "us"),
            m(
                "core.pool.barrier_wait_share",
                self.barrier_wait_share,
                "ratio",
            ),
        ];
        out.extend(
            PHASES
                .iter()
                .zip(self.phase_ms)
                .map(|(&(_, name), v)| m(name, v, "ms/group")),
        );
        out.extend([
            m("graph.reverse_ms", self.reverse_ms, "ms"),
            m("core.cpu.service_new_ms", self.service_new_ms, "ms"),
            m("trace.overhead_pct", self.overhead_pct, "%"),
            m("trace.unaccounted_p95_ms", self.unaccounted_p95_ms, "ms"),
            m("trace.identity_misses", self.identity_misses, "count"),
        ]);
        out
    }
}

/// One run of one workload, before set-up and memory are added.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub teps: f64,
    pub layers: Layers,
    pub problems: Vec<String>,
    /// Chrome trace events (traced runs only).
    pub trace_events: Vec<Json>,
}

/// One workload's result: the result line plus any problems found.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: &'static str,
    /// Requests issued (serve) or groups run (batch).
    pub attempted: u64,
    /// Requests bounced or answered with an error; groups that errored.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Oracle mismatches and broken validity guards. Any entry voids the
    /// run.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// `workload metric value unit`, one line per metric.
    pub fn lines(&self) -> String {
        self.metrics
            .iter()
            .map(|x| format!("{} {} {} {}\n", self.workload, x.name, x.value, x.unit))
            .collect()
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|x| {
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Float(x.value)),
                    ("unit".into(), Json::Str(x.unit.into())),
                ]);
                (x.name.to_string(), entry)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A Chrome trace complete event (`"ph":"X"`); times in microseconds.
pub fn chrome_event(name: &str, ts_us: f64, dur_us: f64, pid: u64, tid: u64, id: u64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("ph".into(), Json::Str("X".into())),
        ("ts".into(), Json::Float(ts_us)),
        ("dur".into(), Json::Float(dur_us)),
        ("pid".into(), Json::UInt(pid)),
        ("tid".into(), Json::UInt(tid)),
        (
            "args".into(),
            Json::Obj(vec![("id".into(), Json::UInt(id))]),
        ),
    ])
}
