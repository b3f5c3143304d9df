//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§8).
//!
//! Each `figN`/`table1` module exposes `run(&HarnessConfig) -> FigureResult`;
//! the `reproduce` binary prints the results as text tables and can dump
//! them as JSON.

pub mod cpubench;
pub mod figures;
pub mod loadgen;
pub mod pairs;
pub mod perfdiff;
pub mod result;
pub mod top;

use ibfs::word::WordWidth;
use ibfs_graph::suite::GraphSpec;
use ibfs_graph::Csr;
use std::path::PathBuf;

pub use result::FigureResult;

/// Scale and workload knobs shared by all figures.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Shrink factor applied to every suite graph (vertex count divided by
    /// `2^shrink`). 0 reproduces at the default laptop scale.
    pub shrink: u32,
    /// Cap on the number of BFS sources per graph (the paper runs APSP; we
    /// run the first `sources` vertices, which exercises identical code).
    pub sources: usize,
    /// Concurrent group size `N`.
    pub group_size: usize,
    /// CPU worker threads; 0 = all available.
    pub threads: usize,
    /// CPU status-word width.
    pub width: WordWidth,
    /// Cache directory for generated graphs (`None` = no caching).
    pub cache_dir: Option<PathBuf>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            shrink: 0,
            sources: 512,
            group_size: 64,
            threads: 0,
            width: WordWidth::default(),
            cache_dir: default_cache_dir(),
        }
    }
}

impl HarnessConfig {
    /// A configuration small enough for unit tests.
    pub fn tiny() -> Self {
        HarnessConfig {
            shrink: 4,
            sources: 64,
            group_size: 32,
            threads: 0,
            width: WordWidth::default(),
            cache_dir: default_cache_dir(),
        }
    }

    /// Loads (generating and caching if needed) a suite graph and its
    /// reverse at this configuration's scale.
    pub fn load(&self, spec: &GraphSpec) -> (Csr, Csr) {
        let graph = match &self.cache_dir {
            Some(dir) => {
                let path = dir.join(format!("{}-s{}.ibfs", spec.name, self.shrink));
                if let Ok(g) = ibfs_graph::io::load(&path) {
                    g
                } else {
                    let g = spec.generate_scaled(self.shrink);
                    let _ = std::fs::create_dir_all(dir);
                    let _ = ibfs_graph::io::save(&g, &path);
                    g
                }
            }
            None => spec.generate_scaled(self.shrink),
        };
        let reverse = graph.reverse();
        (graph, reverse)
    }

    /// The first `sources` vertices of `graph` (the paper's APSP restricted
    /// to a prefix at laptop scale).
    pub fn source_set(&self, graph: &Csr) -> Vec<ibfs_graph::VertexId> {
        (0..graph.num_vertices().min(self.sources) as ibfs_graph::VertexId).collect()
    }
}

fn default_cache_dir() -> Option<PathBuf> {
    Some(
        std::env::var_os("IBFS_GRAPH_CACHE")
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("ibfs-graph-cache")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_graph::suite;

    #[test]
    fn load_caches_and_reuses() {
        let mut cfg = HarnessConfig::tiny();
        cfg.cache_dir = Some(std::env::temp_dir().join("ibfs-cache-test"));
        let spec = suite::by_name("PK").unwrap();
        let (g1, r1) = cfg.load(&spec);
        let (g2, _) = cfg.load(&spec);
        assert_eq!(g1, g2);
        assert_eq!(r1.num_edges(), g1.num_edges());
    }

    #[test]
    fn source_set_respects_cap() {
        let cfg = HarnessConfig::tiny();
        let spec = suite::by_name("PK").unwrap();
        let (g, _) = cfg.load(&spec);
        let s = cfg.source_set(&g);
        assert_eq!(s.len(), 64.min(g.num_vertices()));
        assert_eq!(s[0], 0);
    }
}
