//! The correctness oracle. Cheap checks run on every reply as it arrives;
//! sampled replies keep only a fingerprint of their depth array, which is
//! compared against `reference_bfs` after the timed window closes.

use ibfs_graph::validate::reference_bfs;
use ibfs_graph::{Csr, Depth, VertexId};

/// 64-bit FNV-1a over a depth array.
fn fingerprint(depths: &[Depth]) -> u64 {
    depths.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &d| {
        (h ^ d as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The checks every reply must pass: the right length, the right source,
/// and the source at depth 0.
pub fn check_reply(
    n: usize,
    asked: VertexId,
    got: VertexId,
    depths: &[Depth],
) -> Result<(), String> {
    if got != asked {
        return Err(format!("asked for source {asked}, reply carries {got}"));
    }
    if depths.len() != n {
        return Err(format!(
            "source {asked}: {} depths for {n} vertices",
            depths.len()
        ));
    }
    if depths[asked as usize] != 0 {
        return Err(format!(
            "source {asked}: depth {} at the source",
            depths[asked as usize]
        ));
    }
    Ok(())
}

/// Fingerprints held back for the post-window comparison.
#[derive(Debug, Default)]
pub struct Deferred {
    entries: Vec<(VertexId, u64)>,
}

impl Deferred {
    pub fn push(&mut self, source: VertexId, depths: &[Depth]) {
        self.entries.push((source, fingerprint(depths)));
    }

    /// Recomputes every held-back answer with `reference_bfs`, on every
    /// core, and returns one message per mismatch.
    pub fn verify(&self, graph: &Csr) -> Vec<String> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = cores.clamp(1, self.entries.len().max(1));
        let per = self.entries.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            let workers: Vec<_> = self
                .entries
                .chunks(per)
                .map(|chunk| {
                    s.spawn(move || {
                        chunk
                            .iter()
                            .filter(|&&(source, fp)| {
                                fingerprint(&reference_bfs(graph, source)) != fp
                            })
                            .map(|&(source, _)| {
                                format!("source {source}: depths differ from reference_bfs")
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle thread panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_graph::generators::grid2d;

    #[test]
    fn deferred_check_catches_a_wrong_depth() {
        let g = grid2d(4, 4);
        let mut good = reference_bfs(&g, 5);
        assert!(check_reply(16, 5, 5, &good).is_ok());
        assert!(check_reply(16, 5, 6, &good).is_err());
        assert!(check_reply(16, 6, 6, &good).is_err());
        let mut d = Deferred::default();
        d.push(5, &good);
        assert!(d.verify(&g).is_empty());
        good[15] += 1;
        d.push(5, &good);
        assert_eq!(d.verify(&g).len(), 1);
    }
}
