//! iBFS: concurrent breadth-first search (SIGMOD 2016) on a simulated GPU.
//!
//! This crate implements the paper's contribution and every baseline it
//! compares against:
//!
//! | Engine | Paper role | Module |
//! |---|---|---|
//! | [`sequential::SequentialEngine`] | "Sequential" baseline and the B40C-like single-BFS GPU traversal (direction-optimizing, Enterprise-style) | [`sequential`] |
//! | [`naive::NaiveEngine`] | "Naive" concurrent baseline: private frontier queues + status arrays, one kernel per instance through Hyper-Q | [`naive`] |
//! | [`joint::JointEngine`] | Joint traversal: single kernel, joint frontier queue + joint status array + shared-memory adjacency cache (§4) | [`joint`] |
//! | [`bitwise::BitwiseEngine`] | Bitwise status array with early termination (§6); also the MS-BFS-style per-level-reset variant used as the Figure 20 baseline | [`bitwise`] |
//! | [`spmm::SpmmEngine`] | SpMM-BC-like top-down-only concurrent baseline | [`spmm`] |
//! | [`cpu::CpuService`] | real multithreaded CPU implementation, iBFS or MS-BFS by [`cpu::CpuOptions::msbfs`] (Figure 22, Table 1) | [`cpu`] |
//!
//! GroupBy (§5) lives in [`groupby`]; the sharing-degree/-ratio theory of
//! Lemma 1/Theorem 1 in [`sharing`]; orchestration of full MSSP/APSP runs in
//! [`runner`]; the weighted-graph configuration (concurrent SSSP validated
//! against Dijkstra) in [`sssp`].
//!
//! # Quick start
//!
//! ```
//! use ibfs_graph::suite;
//! use ibfs::{engine::GpuGraph, bitwise::BitwiseEngine, engine::Engine};
//! use ibfs_gpu_sim::{DeviceConfig, Profiler};
//!
//! let graph = suite::figure1();
//! let reverse = graph.reverse();
//! let mut prof = Profiler::new(DeviceConfig::k40());
//! let g = GpuGraph::new(&graph, &reverse, &mut prof);
//! let run = BitwiseEngine::default().run_group(&g, &suite::FIGURE1_SOURCES, &mut prof);
//! // Depth of vertex 8 in the traversal from source 0 (paper Figure 1):
//! assert_eq!(run.depth_of(0, 8), 3);
//! ```

pub mod bitwise;
pub mod cpu;
pub mod cpu_baseline;
pub mod direction;
pub mod driver;
pub mod engine;
pub mod frontier;
pub mod groupby;
pub mod joint;
pub mod metrics;
pub mod naive;
pub mod pool;
pub mod runner;
pub mod sequential;
pub mod service;
pub mod sharing;
pub mod spmm;
pub mod sssp;
pub mod status;
pub mod trace;
pub mod word;

pub use cpu::{CpuOptions, CpuRun, CpuService, CPU_GROUP};
pub use driver::{LevelDriver, LevelEngine};
pub use engine::{Engine, EngineKind, GpuGraph, GroupRun};
pub use groupby::{GroupByConfig, Grouping, GroupingStrategy};
pub use runner::{IbfsRun, RunConfig};
pub use service::{admit_sources, back_to_back_seconds, IbfsService, RequestError};
pub use trace::{GroupStamp, JsonlSink, NullSink, RecorderSink, TraceSink, TraversalEvent};
pub use word::{StatusWord, WordWidth};
