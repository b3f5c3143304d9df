//! The traversal service: a resident uploaded graph serving many iBFS
//! requests.
//!
//! [`crate::runner::run_ibfs`] uploads the graph, runs one batch of sources,
//! and throws the device state away. A BFS *server* (the paper's motivating
//! workloads: all-pairs analytics, centrality, reachability indexing) keeps
//! the graph resident and answers request after request. [`IbfsService`]
//! models that:
//!
//! * **Upload once** — the CSR arrays are allocated on construction; every
//!   request reuses them. Scratch state (status arrays, frontier queues) is
//!   released back to the upload watermark between requests, so the
//!   simulated footprint does not grow with request count.
//! * **Clamp once** — the §3 device-memory bound on group size is computed
//!   at construction and applied to the configured grouping strategy.
//! * **Run back to back** — a request's groups each own the whole device in
//!   turn ([`back_to_back_seconds`]), the paper's evaluation setup. The
//!   cluster harness prices each device's timeline the same way.
//!
//! Releasing scratch between requests cannot change any counter: every
//! allocation is 128-byte aligned and the coalescer's 32-byte sectors and
//! 128-byte segments divide that alignment, so transaction counts are
//! invariant under translation of the scratch base address.

use crate::engine::{Engine, GpuGraph, GroupRun};
use crate::groupby::GroupingStrategy;
use crate::runner::{device_group_bound, IbfsRun, RunConfig};
use crate::trace::{GroupStamp, NullSink, TraceSink};
use ibfs_graph::{Csr, VertexId};
use ibfs_gpu_sim::Profiler;

/// Why a request was rejected at admission, before any device work.
///
/// The service validates every request up front so that malformed input
/// (an empty source list, a source id past the vertex range) is a typed
/// error at the boundary rather than a silent empty run or an index panic
/// deep inside an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// The request named no sources at all.
    EmptySources,
    /// A source id is not a vertex of the resident graph.
    SourceOutOfRange {
        /// The offending source id.
        source: VertexId,
        /// Vertex count of the resident graph.
        num_vertices: usize,
    },
    /// The group holds more instances than the engine's status words can.
    GroupTooLarge {
        /// Instances requested.
        size: usize,
        /// Instances the engine's word width can hold.
        capacity: usize,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::EmptySources => write!(f, "request names no sources"),
            RequestError::SourceOutOfRange { source, num_vertices } => {
                write!(f, "source {source} out of range (graph has {num_vertices} vertices)")
            }
            RequestError::GroupTooLarge { size, capacity } => {
                write!(f, "group of {size} instances exceeds engine capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Simulated seconds of `groups` run back to back on one device, each
/// owning the whole device — the paper's evaluation setup. The in-order
/// fold keeps the f64 rounding of a running `sim_seconds += run.sim_seconds`.
pub fn back_to_back_seconds(groups: &[GroupRun]) -> f64 {
    groups.iter().fold(0.0, |acc, g| acc + g.sim_seconds)
}

/// A resident traversal service: uploaded graph + profiler surviving across
/// requests.
pub struct IbfsService<'g> {
    graph: &'g Csr,
    reverse: &'g Csr,
    config: RunConfig,
    /// The configured grouping with its group size clamped to the §3 bound.
    grouping: GroupingStrategy,
    engine: Box<dyn Engine>,
    prof: Profiler,
    adj_base: u64,
    radj_base: u64,
    offsets_base: u64,
    /// Allocation watermark right after upload; scratch above it is
    /// released between requests.
    scratch_mark: u64,
}

impl<'g> IbfsService<'g> {
    /// Uploads `graph`/`reverse` to a fresh simulated device and prepares to
    /// serve requests under `config`. `reverse` must be `graph.reverse()`
    /// (pass the same graph when symmetric).
    ///
    /// # Panics
    /// Panics if the graph does not fit device memory alongside a single
    /// instance's status array (the §3 bound admits no group at all).
    pub fn new(graph: &'g Csr, reverse: &'g Csr, config: RunConfig) -> Self {
        let bound = device_group_bound(graph, &config.device, 1 << 20);
        assert!(
            bound >= 1,
            "graph does not fit device memory alongside one status array"
        );
        let mut grouping = config.grouping.clone();
        if grouping.group_size() > bound as usize {
            grouping = match grouping {
                GroupingStrategy::Random { seed, .. } => {
                    GroupingStrategy::Random { seed, group_size: bound as usize }
                }
                GroupingStrategy::OutDegreeRules(cfg) => {
                    GroupingStrategy::OutDegreeRules(cfg.with_group_size(bound as usize))
                }
            };
        }
        let engine = config.engine.build();
        let mut prof = Profiler::new(config.device);
        let g = GpuGraph::new(graph, reverse, &mut prof);
        let (adj_base, radj_base, offsets_base) = (g.adj_base, g.radj_base, g.offsets_base);
        let scratch_mark = prof.mem_mark();
        IbfsService {
            graph,
            reverse,
            config,
            grouping,
            engine,
            prof,
            adj_base,
            radj_base,
            offsets_base,
            scratch_mark,
        }
    }

    /// The run configuration the service was built with.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The grouping in effect (after the §3 clamp).
    pub fn grouping(&self) -> &GroupingStrategy {
        &self.grouping
    }

    /// Bytes currently allocated on the simulated device.
    pub fn allocated_bytes(&self) -> u64 {
        self.prof.allocated_bytes()
    }

    /// Validates a request against the resident graph without running it —
    /// the admission check shared by [`IbfsService::try_run`] and the serve
    /// layer's front door.
    pub fn admit(&self, sources: &[VertexId]) -> Result<(), RequestError> {
        admit_sources(sources, self.graph.num_vertices())
    }

    /// Serves one request: iBFS from every source in `sources`.
    ///
    /// # Panics
    /// Panics on an invalid request (empty source list or out-of-range
    /// source); use [`IbfsService::try_run`] for a typed error instead.
    pub fn run(&mut self, sources: &[VertexId]) -> IbfsRun {
        self.run_traced(sources, &mut NullSink)
    }

    /// [`IbfsService::run`] with per-level [`crate::trace::TraversalEvent`]s
    /// delivered to `sink`, stamped with each group's index.
    ///
    /// # Panics
    /// Panics on an invalid request; see [`IbfsService::try_run_traced`].
    pub fn run_traced(&mut self, sources: &[VertexId], sink: &mut dyn TraceSink) -> IbfsRun {
        self.try_run_traced(sources, sink)
            .unwrap_or_else(|e| panic!("invalid request: {e}"))
    }

    /// [`IbfsService::run`] with admission errors surfaced as values
    /// instead of panics.
    pub fn try_run(&mut self, sources: &[VertexId]) -> Result<IbfsRun, RequestError> {
        self.try_run_traced(sources, &mut NullSink)
    }

    /// [`IbfsService::run_traced`] with admission errors surfaced as values
    /// instead of panics. A zero-source request never reaches the driver:
    /// it is rejected here with [`RequestError::EmptySources`].
    pub fn try_run_traced(
        &mut self,
        sources: &[VertexId],
        sink: &mut dyn TraceSink,
    ) -> Result<IbfsRun, RequestError> {
        self.admit(sources)?;
        // Drop the previous request's scratch; the upload stays resident.
        self.prof.release_to(self.scratch_mark);
        let grouping = self.grouping.group(self.graph, sources);
        let g = GpuGraph {
            csr: self.graph,
            reverse: self.reverse,
            adj_base: self.adj_base,
            radj_base: self.radj_base,
            offsets_base: self.offsets_base,
        };
        let before = self.prof.snapshot();
        let mut groups = Vec::with_capacity(grouping.groups.len());
        let mut traversed = 0u64;
        for (gi, group) in grouping.groups.iter().enumerate() {
            let mut stamped = GroupStamp { group: gi as u64, inner: sink };
            let run = self
                .engine
                .run_group_traced(&g, group, &mut self.prof, &mut stamped);
            traversed += run.traversed_edges;
            groups.push(run);
        }
        let sim_seconds = back_to_back_seconds(&groups);
        let counters = self.prof.snapshot().delta(&before);
        Ok(IbfsRun {
            groups,
            sim_seconds,
            traversed_edges: traversed,
            counters,
        })
    }

    /// Serves a batch of requests in order, reusing the uploaded graph.
    ///
    /// # Panics
    /// Panics if any request is invalid (see [`IbfsService::try_run`]).
    pub fn run_batch(&mut self, requests: &[Vec<VertexId>]) -> Vec<IbfsRun> {
        requests.iter().map(|sources| self.run(sources)).collect()
    }
}

/// The admission predicate behind [`IbfsService::admit`], usable without a
/// constructed service (the serve front-end validates before enqueueing).
pub fn admit_sources(sources: &[VertexId], num_vertices: usize) -> Result<(), RequestError> {
    if sources.is_empty() {
        return Err(RequestError::EmptySources);
    }
    for &s in sources {
        if s as usize >= num_vertices {
            return Err(RequestError::SourceOutOfRange { source: s, num_vertices });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use crate::trace::RecorderSink;
    use ibfs_graph::generators::{rmat, RmatParams};
    use ibfs_graph::validate::reference_bfs;

    fn small_graph() -> Csr {
        rmat(8, 8, RmatParams::graph500(), 31)
    }

    #[test]
    fn repeated_requests_are_identical_and_do_not_grow_memory() {
        let g = small_graph();
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..48).collect();
        let mut svc = IbfsService::new(&g, &r, RunConfig::default());

        let first = svc.run(&sources);
        let after_first = svc.allocated_bytes();
        let second = svc.run(&sources);
        let after_second = svc.allocated_bytes();

        // Upload amortized: serving the same request again allocates
        // nothing beyond the first request's scratch watermark.
        assert_eq!(after_first, after_second);
        // And the results are bit-identical.
        assert_eq!(first.groups.len(), second.groups.len());
        for (a, b) in first.groups.iter().zip(&second.groups) {
            assert_eq!(a.depths, b.depths);
            assert_eq!(a.counters, b.counters);
            assert_eq!(a.sim_seconds.to_bits(), b.sim_seconds.to_bits());
        }
        assert_eq!(first.counters, second.counters);
        assert_eq!(first.sim_seconds.to_bits(), second.sim_seconds.to_bits());
    }

    #[test]
    fn matches_one_shot_runner() {
        let g = small_graph();
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..32).collect();
        let config = RunConfig::default();
        let one_shot = crate::runner::run_ibfs(&g, &r, &sources, &config);
        let mut svc = IbfsService::new(&g, &r, config);
        let served = svc.run(&sources);
        assert_eq!(one_shot.groups.len(), served.groups.len());
        for (a, b) in one_shot.groups.iter().zip(&served.groups) {
            assert_eq!(a.depths, b.depths);
            assert_eq!(a.counters, b.counters);
            assert_eq!(a.sim_seconds.to_bits(), b.sim_seconds.to_bits());
        }
        assert_eq!(one_shot.sim_seconds.to_bits(), served.sim_seconds.to_bits());
    }

    #[test]
    fn batch_serves_distinct_requests_correctly() {
        let g = small_graph();
        let r = g.reverse();
        let mut svc = IbfsService::new(&g, &r, RunConfig::default());
        let requests = vec![vec![0, 1, 2], vec![7, 9], vec![40]];
        let runs = svc.run_batch(&requests);
        assert_eq!(runs.len(), 3);
        for (req, run) in requests.iter().zip(&runs) {
            assert_eq!(run.num_instances(), req.len());
            // Depths stay correct across requests (state fully reset).
            let grouping = svc.grouping().group(&g, req);
            for (gi, group) in grouping.groups.iter().enumerate() {
                for (j, &s) in group.iter().enumerate() {
                    assert_eq!(run.groups[gi].instance_depths(j), &reference_bfs(&g, s)[..]);
                }
            }
        }
    }

    #[test]
    fn traced_requests_stamp_group_indices() {
        let g = small_graph();
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..48).collect();
        let config = RunConfig {
            grouping: GroupingStrategy::Random { seed: 9, group_size: 16 },
            ..Default::default()
        };
        let mut svc = IbfsService::new(&g, &r, config);
        let mut sink = RecorderSink::default();
        let run = svc.run_traced(&sources, &mut sink);

        assert!(!sink.events.is_empty());
        let n_groups = run.groups.len() as u64;
        assert!(n_groups > 1);
        assert!(sink.events.iter().all(|e| e.group < n_groups));
        // Every group produced events, one per level it ran.
        for (gi, gr) in run.groups.iter().enumerate() {
            let events = sink.events.iter().filter(|e| e.group == gi as u64).count();
            assert_eq!(events, gr.levels.len());
        }
        // Tracing is observational: counters match an untraced service run.
        let mut svc2 = IbfsService::new(
            &g,
            &r,
            RunConfig {
                grouping: GroupingStrategy::Random { seed: 9, group_size: 16 },
                ..Default::default()
            },
        );
        let untraced = svc2.run(&sources);
        assert_eq!(untraced.counters, run.counters);
        assert_eq!(untraced.sim_seconds.to_bits(), run.sim_seconds.to_bits());
    }

    #[test]
    fn zero_source_request_is_rejected_at_admission() {
        // Regression: an empty request used to fall through grouping and
        // return a silent empty run instead of being rejected up front.
        let g = small_graph();
        let r = g.reverse();
        let mut svc = IbfsService::new(&g, &r, RunConfig::default());
        assert_eq!(svc.try_run(&[]).unwrap_err(), RequestError::EmptySources);
        assert_eq!(svc.admit(&[]), Err(RequestError::EmptySources));
        // The service still works after a rejected request.
        let run = svc.try_run(&[0]).unwrap();
        assert_eq!(run.num_instances(), 1);
    }

    #[test]
    fn out_of_range_source_is_rejected_at_admission() {
        let g = small_graph();
        let r = g.reverse();
        let n = g.num_vertices();
        let mut svc = IbfsService::new(&g, &r, RunConfig::default());
        let bad = n as VertexId;
        assert_eq!(
            svc.try_run(&[0, bad]).unwrap_err(),
            RequestError::SourceOutOfRange { source: bad, num_vertices: n }
        );
        assert!(svc.admit(&[0, 1]).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid request")]
    fn run_panics_on_zero_source_request() {
        let g = small_graph();
        let r = g.reverse();
        IbfsService::new(&g, &r, RunConfig::default()).run(&[]);
    }

    #[test]
    fn try_run_matches_run_on_valid_requests() {
        let g = small_graph();
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..16).collect();
        let mut a = IbfsService::new(&g, &r, RunConfig::default());
        let mut b = IbfsService::new(&g, &r, RunConfig::default());
        let x = a.run(&sources);
        let y = b.try_run(&sources).unwrap();
        assert_eq!(x.counters, y.counters);
        assert_eq!(x.sim_seconds.to_bits(), y.sim_seconds.to_bits());
    }

    #[test]
    fn clamps_group_size_once_at_construction() {
        let g = small_graph();
        let r = g.reverse();
        let mut device = ibfs_gpu_sim::DeviceConfig::k40();
        device.global_mem_bytes =
            g.storage_bytes() * 2 + g.num_vertices() as u64 * 20 + g.num_vertices() as u64 * 10;
        let bound = device_group_bound(&g, &device, 128);
        let svc = IbfsService::new(
            &g,
            &r,
            RunConfig {
                engine: EngineKind::Bitwise,
                grouping: GroupingStrategy::Random { seed: 1, group_size: 128 },
                device,
            },
        );
        assert_eq!(svc.grouping().group_size(), bound as usize);
    }
}
