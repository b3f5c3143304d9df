//! k-hop reachability index (the paper's Table 1 application).
//!
//! The index answers "is there a path from `s` to `t` with fewer than `k`
//! edges?" in O(1) after construction, by materializing the k-hop
//! neighborhood of every indexed source as a bitmap. Construction "computes
//! the first k levels BFS for a large amount of selected vertices" — a
//! truncated concurrent BFS, which is where iBFS's speedup comes in.

use ibfs::bitwise::BitwiseEngine;
use ibfs::cpu::{CpuOptions, CpuService};
use ibfs::engine::{Engine, GpuGraph};
use ibfs::sequential::SequentialEngine;
use ibfs::word::WordWidth;
use ibfs_graph::{Csr, Depth, VertexId, DEPTH_UNVISITED};
use ibfs_gpu_sim::{DeviceConfig, Profiler};

/// A k-hop reachability index over a set of source vertices.
#[derive(Clone, Debug)]
pub struct ReachabilityIndex {
    /// Hop bound: the index answers queries about paths of ≤ `k` edges.
    pub k: u32,
    sources: Vec<VertexId>,
    num_vertices: usize,
    /// One bit per (source, vertex): reachable within `k` hops.
    bits: Vec<u64>,
}

/// Which implementation builds the index (the four columns of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexBuilder {
    /// MS-BFS on the CPU.
    CpuMsBfs,
    /// iBFS on the CPU.
    CpuIbfs,
    /// Single-BFS GPU traversal (B40C-like), sequential over sources.
    GpuB40c,
    /// Full bitwise GPU iBFS.
    GpuIbfs,
}

/// Result of building an index: the index plus its build time. GPU builders
/// report simulated seconds; CPU builders report wall-clock seconds.
#[derive(Clone, Debug)]
pub struct BuildOutcome {
    /// The constructed index.
    pub index: ReachabilityIndex,
    /// Build time in (simulated or wall-clock) seconds.
    pub seconds: f64,
}

impl ReachabilityIndex {
    /// Builds the index for `sources` with hop bound `k` using the chosen
    /// implementation. `group_size` bounds the concurrent-BFS group (the
    /// CPU engines cap at their word width, up to
    /// [`ibfs::cpu::CPU_GROUP`]). Uses default threads and word width; see
    /// [`ReachabilityIndex::build_with`].
    pub fn build(
        graph: &Csr,
        reverse: &Csr,
        sources: &[VertexId],
        k: u32,
        builder: IndexBuilder,
        group_size: usize,
    ) -> BuildOutcome {
        Self::build_with(graph, reverse, sources, k, builder, group_size, 0, WordWidth::default())
    }

    /// [`ReachabilityIndex::build`] with explicit CPU `threads` (0 = all
    /// available) and status-word `width`. The CPU builders construct one
    /// resident [`ibfs::cpu::CpuService`] and reuse its pool and arena
    /// across all groups. GPU builders ignore both knobs.
    #[allow(clippy::too_many_arguments)]
    pub fn build_with(
        graph: &Csr,
        reverse: &Csr,
        sources: &[VertexId],
        k: u32,
        builder: IndexBuilder,
        group_size: usize,
        threads: usize,
        width: WordWidth,
    ) -> BuildOutcome {
        assert!(k > 0, "hop bound must be positive");
        let n = graph.num_vertices();
        let words_per_source = n.div_ceil(64);
        let mut index = ReachabilityIndex {
            k,
            sources: sources.to_vec(),
            num_vertices: n,
            bits: vec![0u64; sources.len() * words_per_source],
        };
        let mut seconds = 0.0;

        let absorb = |index: &mut ReachabilityIndex,
                          group_offset: usize,
                          depths: &[Depth],
                          ni: usize| {
            for j in 0..ni {
                for v in 0..n {
                    let d = depths[j * n + v];
                    if d != DEPTH_UNVISITED && d as u32 <= k {
                        index.set(group_offset + j, v as VertexId);
                    }
                }
            }
        };

        match builder {
            IndexBuilder::CpuMsBfs | IndexBuilder::CpuIbfs => {
                // One resident service: pool + arena spawned once, reused
                // across every group of the build.
                let msbfs = builder == IndexBuilder::CpuMsBfs;
                let opts = CpuOptions { threads, max_levels: k, width, msbfs };
                let mut svc = CpuService::new(graph, reverse, opts);
                let group_size = group_size.min(svc.capacity());
                let mut offset = 0;
                for group in sources.chunks(group_size) {
                    let run = svc
                        .run_group(group)
                        .expect("reachability groups are sized to capacity");
                    seconds += run.wall_seconds;
                    absorb(&mut index, offset, &run.depths, group.len());
                    offset += group.len();
                }
            }
            IndexBuilder::GpuB40c | IndexBuilder::GpuIbfs => {
                let mut prof = Profiler::new(DeviceConfig::k40());
                let g = GpuGraph::new(graph, reverse, &mut prof);
                let mut offset = 0;
                for group in sources.chunks(group_size) {
                    let run = match builder {
                        IndexBuilder::GpuB40c => SequentialEngine {
                            max_levels: k,
                            ..Default::default()
                        }
                        .run_group(&g, group, &mut prof),
                        _ => BitwiseEngine::default()
                            .with_max_levels(k)
                            .run_group(&g, group, &mut prof),
                    };
                    seconds += run.sim_seconds;
                    absorb(&mut index, offset, &run.depths, group.len());
                    offset += group.len();
                }
            }
        }
        BuildOutcome { index, seconds }
    }

    fn set(&mut self, source_idx: usize, v: VertexId) {
        let words = self.num_vertices.div_ceil(64);
        self.bits[source_idx * words + v as usize / 64] |= 1 << (v % 64);
    }

    /// Whether `t` is reachable from the `source_idx`-th indexed source
    /// within `k` hops.
    pub fn reachable(&self, source_idx: usize, t: VertexId) -> bool {
        let words = self.num_vertices.div_ceil(64);
        self.bits[source_idx * words + t as usize / 64] & (1 << (t % 64)) != 0
    }

    /// Looks up a source vertex's index position.
    pub fn source_index(&self, s: VertexId) -> Option<usize> {
        self.sources.iter().position(|&x| x == s)
    }

    /// Answers "path from `s` to `t` with at most `k` edges?" for an indexed
    /// source. Returns `None` when `s` is not indexed.
    pub fn query(&self, s: VertexId, t: VertexId) -> Option<bool> {
        self.source_index(s).map(|i| self.reachable(i, t))
    }

    /// Number of indexed sources.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Total index size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_graph::generators::{rmat, RmatParams};
    use ibfs_graph::suite::figure1;
    use ibfs_graph::validate::reference_bfs_capped;

    fn check_against_reference(g: &Csr, sources: &[VertexId], k: u32, builder: IndexBuilder) {
        let r = g.reverse();
        let out = ReachabilityIndex::build(g, &r, sources, k, builder, 32);
        for (i, &s) in sources.iter().enumerate() {
            let depths = reference_bfs_capped(g, s, k as Depth);
            for v in g.vertices() {
                let want = depths[v as usize] != DEPTH_UNVISITED;
                assert_eq!(
                    out.index.reachable(i, v),
                    want,
                    "{builder:?}: source {s} vertex {v} k={k}"
                );
            }
        }
        assert!(out.seconds > 0.0);
    }

    #[test]
    fn all_builders_match_reference_on_figure1() {
        let g = figure1();
        let sources = [0, 3, 6, 8];
        for builder in [
            IndexBuilder::CpuMsBfs,
            IndexBuilder::CpuIbfs,
            IndexBuilder::GpuB40c,
            IndexBuilder::GpuIbfs,
        ] {
            check_against_reference(&g, &sources, 3, builder);
        }
    }

    #[test]
    fn truncation_excludes_far_vertices() {
        let g = figure1();
        let r = g.reverse();
        let out =
            ReachabilityIndex::build(&g, &r, &[0], 1, IndexBuilder::GpuIbfs, 16);
        // From 0, 1-hop reaches {0, 1, 4} only.
        assert!(out.index.reachable(0, 0));
        assert!(out.index.reachable(0, 1));
        assert!(out.index.reachable(0, 4));
        assert!(!out.index.reachable(0, 5));
        assert!(!out.index.reachable(0, 8));
    }

    #[test]
    fn query_api() {
        let g = figure1();
        let r = g.reverse();
        let out = ReachabilityIndex::build(&g, &r, &[6, 8], 2, IndexBuilder::GpuIbfs, 16);
        assert_eq!(out.index.query(6, 5), Some(true)); // 6→3→5 or 6→7→5
        assert_eq!(out.index.query(6, 0), Some(false)); // 3 hops away
        assert_eq!(out.index.query(1, 0), None); // 1 not indexed
        assert_eq!(out.index.num_sources(), 2);
        assert!(out.index.size_bytes() > 0);
    }

    #[test]
    fn gpu_ibfs_builds_faster_than_b40c() {
        // Table 1's headline: GPU-iBFS is ~21× faster than B40C.
        let g = rmat(10, 16, RmatParams::graph500(), 12);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..128).collect();
        let ibfs = ReachabilityIndex::build(&g, &r, &sources, 3, IndexBuilder::GpuIbfs, 128);
        let b40c = ReachabilityIndex::build(&g, &r, &sources, 3, IndexBuilder::GpuB40c, 128);
        assert!(
            ibfs.seconds < b40c.seconds,
            "iBFS {} vs B40C {}",
            ibfs.seconds,
            b40c.seconds
        );
        // Same answers.
        for i in 0..sources.len() {
            for v in g.vertices() {
                assert_eq!(ibfs.index.reachable(i, v), b40c.index.reachable(i, v));
            }
        }
    }

    #[test]
    #[should_panic(expected = "hop bound must be positive")]
    fn rejects_zero_k() {
        let g = figure1();
        let r = g.reverse();
        ReachabilityIndex::build(&g, &r, &[0], 0, IndexBuilder::GpuIbfs, 16);
    }
}
