//! The four workloads, their seeded inputs, and the timed set-up.
//!
//! Everything a run feeds the program under test — the graph, the source
//! streams, the arrival schedule — is a pure function of `--seed`. The
//! program sees only those inputs, never the seed.

use crate::stats;
use ibfs::cpu::{CpuOptions, CpuService};
use ibfs_graph::generators::{grid2d, rmat, RmatParams};
use ibfs_graph::{Csr, VertexId};
use ibfs_util::Rng;
use std::time::{Duration, Instant};

/// Full size (the committed benchmark) or toy size (the smoke tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Toy,
}

/// The graph a workload runs on.
#[derive(Clone, Copy, Debug)]
pub enum GraphSpec {
    /// Graph 500 R-MAT: `2^scale` vertices, 16 undirected edges per vertex.
    Rmat { scale: u32 },
    /// `side × side` 4-neighbour mesh; diameter `2 · side − 2`.
    Grid { side: usize },
}

/// How serve requests pick their sources.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Traffic {
    /// Uniform over vertices with out-degree ≥ 1.
    Uniform,
    /// Zipf-like over the same vertices: rank `r` has weight
    /// `1 / (r + 1)^exponent`, the `loadgen` power-law sampler's shape.
    PowerLaw(f64),
}

/// What a workload drives.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Open-loop single-source requests through `serve`.
    Serve {
        /// Poisson arrival rate, requests per second.
        rate: f64,
        traffic: Traffic,
        /// `QosPolicy::standard()` (result cache, dedup) instead of none.
        qos: bool,
        /// Seconds of traffic before the measured window opens.
        warmup_s: f64,
    },
    /// Back-to-back `CpuService::run_group` calls over a pool of
    /// [`POOL_GROUPS`] groups of [`GROUP_SIZE`] sources.
    Batch,
}

/// One workload: a name, its graph, and what runs on how many lanes.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub graph: GraphSpec,
    pub shape: Shape,
    /// CPU engine lanes.
    pub threads: usize,
}

impl Workload {
    pub fn is_serve(&self) -> bool {
        matches!(self.shape, Shape::Serve { .. })
    }

    /// The options every `CpuService` of this workload is built with.
    pub fn cpu_options(&self) -> CpuOptions {
        CpuOptions {
            threads: self.threads,
            ..Default::default()
        }
    }
}

/// Groups in a batch workload's seeded pool.
pub const POOL_GROUPS: usize = 256;

/// Sources per batch group: the default status word's capacity.
pub const GROUP_SIZE: usize = 64;

/// Workload names, in run order.
pub const NAMES: [&str; 4] = ["serve-rmat", "serve-hot", "batch-rmat", "batch-mesh"];

/// The four workloads at `size`. Toy size shrinks the graphs and raises the
/// arrival rates so a two-second window still supports every percentile.
pub fn all(size: Size) -> [Workload; 4] {
    let (scale, side, rate, warmup_s) = match size {
        Size::Full => (15, 128, 150.0, 2.0),
        Size::Toy => (10, 16, 800.0, 0.2),
    };
    let rmat = GraphSpec::Rmat { scale };
    let serve = |rate, traffic, qos| Shape::Serve {
        rate,
        traffic,
        qos,
        warmup_s,
    };
    [
        Workload {
            name: NAMES[0],
            graph: rmat,
            shape: serve(rate, Traffic::Uniform, false),
            threads: 1,
        },
        Workload {
            name: NAMES[1],
            graph: rmat,
            shape: serve(2.0 * rate, Traffic::PowerLaw(1.2), true),
            threads: 1,
        },
        Workload {
            name: NAMES[2],
            graph: rmat,
            shape: Shape::Batch,
            threads: 2,
        },
        // One lane. With two, each of the mesh's ~760 pool phases per group
        // wakes the parked worker, and on a shared two-core host that
        // hand-off swings group times by up to a fifth from run to run, as
        // much as the latency bound allows. So no workload times hand-offs
        // across many small levels; batch-rmat pays them only on its few
        // fat levels.
        Workload {
            name: NAMES[3],
            graph: GraphSpec::Grid { side },
            shape: Shape::Batch,
            threads: 1,
        },
    ]
}

/// The workload called `name` at `size`.
pub fn by_name(name: &str, size: Size) -> Option<Workload> {
    all(size).into_iter().find(|w| w.name == name)
}

/// Independent seeded streams derived from the one `--seed`.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    Graph,
    Sources,
    Arrivals,
    Oracle,
}

/// A generator for `stream` under `seed`.
pub fn rng(seed: u64, stream: Stream) -> Rng {
    Rng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream as u64 + 1)))
}

/// Builds the workload's graph.
pub fn build_graph(spec: GraphSpec, seed: u64) -> Csr {
    match spec {
        GraphSpec::Rmat { scale } => rmat(
            scale,
            16,
            RmatParams::graph500(),
            rng(seed, Stream::Graph).next_u64(),
        ),
        GraphSpec::Grid { side } => grid2d(side, side),
    }
}

/// Draws sources from the vertices with out-degree ≥ 1.
struct Sampler {
    candidates: Vec<VertexId>,
    /// Prefix sums of the power-law weights by rank; `None` = uniform.
    cumulative: Option<Vec<f64>>,
}

impl Sampler {
    fn new(graph: &Csr, traffic: Traffic) -> Self {
        let candidates: Vec<VertexId> = graph
            .vertices()
            .filter(|&v| graph.out_degree(v) > 0)
            .collect();
        assert!(!candidates.is_empty(), "graph has no edges");
        let cumulative = match traffic {
            Traffic::Uniform => None,
            Traffic::PowerLaw(exponent) => {
                let mut acc = 0.0;
                Some(
                    (0..candidates.len())
                        .map(|r| {
                            acc += (r as f64 + 1.0).powf(-exponent);
                            acc
                        })
                        .collect(),
                )
            }
        };
        Sampler {
            candidates,
            cumulative,
        }
    }

    fn draw(&self, rng: &mut Rng) -> VertexId {
        let rank = match &self.cumulative {
            None => rng.gen_range(0..self.candidates.len()),
            Some(cum) => {
                let x = rng.gen::<f64>() * cum[cum.len() - 1];
                cum.partition_point(|&c| c <= x).min(cum.len() - 1)
            }
        };
        self.candidates[rank]
    }
}

/// One scheduled request: when it is due (seconds from the run's start)
/// and its source.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub source: VertexId,
}

/// Poisson arrivals at `rate` over `[0, horizon_s)`, sources from `traffic`.
pub fn schedule(
    graph: &Csr,
    traffic: Traffic,
    rate: f64,
    horizon_s: f64,
    seed: u64,
) -> Vec<Arrival> {
    let sampler = Sampler::new(graph, traffic);
    let (mut gaps, mut sources) = (rng(seed, Stream::Arrivals), rng(seed, Stream::Sources));
    let mut out = Vec::with_capacity((rate * horizon_s * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        // Exponential gap: -ln(1 - U) / rate, with U in [0, 1).
        t += -(1.0 - gaps.gen::<f64>()).ln() / rate;
        if t >= horizon_s {
            return out;
        }
        out.push(Arrival {
            due_s: t,
            source: sampler.draw(&mut sources),
        });
    }
}

/// The batch pool: [`POOL_GROUPS`] groups of [`GROUP_SIZE`] uniform sources.
pub fn groups(graph: &Csr, seed: u64) -> Vec<Vec<VertexId>> {
    let sampler = Sampler::new(graph, Traffic::Uniform);
    let mut rng = rng(seed, Stream::Sources);
    (0..POOL_GROUPS)
        .map(|_| (0..GROUP_SIZE).map(|_| sampler.draw(&mut rng)).collect())
        .collect()
}

/// Set-up timings: medians over repeated builds.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// `reverse()` plus `CpuService::new`, seconds.
    pub total_s: f64,
    pub reverse_ms: f64,
    pub service_new_ms: f64,
}

/// Rounds of set-up timing, the pause between two rounds, and each round's
/// least repeats and seconds. The host has slow spells of a second or more
/// that slowed a 0.2 ms set-up by a third; rounds spread over about three
/// seconds rarely all fall in one.
const SETUP_ROUNDS: usize = 9;
const SETUP_PAUSE: Duration = Duration::from_millis(250);
const ROUND_REPEATS: usize = 3;
const ROUND_MIN_S: f64 = 0.1;

/// Builds the reverse graph and a `CpuService` with `opts` over
/// [`SETUP_ROUNDS`] rounds, and reports the median of the rounds' medians.
pub fn timed_setup(graph: &Csr, opts: CpuOptions) -> Setup {
    let med = |xs: &[f64]| stats::median(xs).expect("every round builds at least once");
    let mut rounds = Vec::with_capacity(SETUP_ROUNDS);
    for round in 0..SETUP_ROUNDS {
        if round > 0 {
            std::thread::sleep(SETUP_PAUSE);
        }
        let (mut total, mut rev_ms, mut new_ms) = (Vec::new(), Vec::new(), Vec::new());
        let started = Instant::now();
        while total.len() < ROUND_REPEATS || started.elapsed().as_secs_f64() < ROUND_MIN_S {
            let t0 = Instant::now();
            let rev = graph.reverse();
            let t1 = Instant::now();
            let svc = CpuService::new(graph, &rev, opts);
            let t2 = Instant::now();
            drop(std::hint::black_box(svc));
            total.push((t2 - t0).as_secs_f64());
            rev_ms.push((t1 - t0).as_secs_f64() * 1e3);
            new_ms.push((t2 - t1).as_secs_f64() * 1e3);
        }
        rounds.push((med(&total), med(&rev_ms), med(&new_ms)));
    }
    let column = |f: fn(&(f64, f64, f64)) -> f64| med(&rounds.iter().map(f).collect::<Vec<_>>());
    Setup {
        total_s: column(|r| r.0),
        reverse_ms: column(|r| r.1),
        service_new_ms: column(|r| r.2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_input_set_and_another_seed_another() {
        let w = by_name("serve-hot", Size::Toy).unwrap();
        let g = build_graph(w.graph, 7);
        assert_eq!(g.offsets(), build_graph(w.graph, 7).offsets());
        assert_eq!(g.adjacency(), build_graph(w.graph, 7).adjacency());
        assert_ne!(g.adjacency(), build_graph(w.graph, 8).adjacency());
        for traffic in [Traffic::Uniform, Traffic::PowerLaw(1.2)] {
            let a = schedule(&g, traffic, 500.0, 1.0, 7);
            assert!(a.len() > 300, "{} arrivals", a.len());
            assert_eq!(a, schedule(&g, traffic, 500.0, 1.0, 7));
            let b = schedule(&g, traffic, 500.0, 1.0, 8);
            assert_ne!(
                a.iter().map(|x| x.due_s).collect::<Vec<_>>(),
                b.iter().map(|x| x.due_s).collect::<Vec<_>>()
            );
            assert_ne!(
                a.iter().map(|x| x.source).collect::<Vec<_>>(),
                b.iter().map(|x| x.source).collect::<Vec<_>>()
            );
            assert!(a.windows(2).all(|p| p[0].due_s < p[1].due_s));
            assert!(a.iter().all(|x| g.out_degree(x.source) > 0));
        }
        assert_eq!(groups(&g, 7), groups(&g, 7));
        assert_ne!(groups(&g, 7), groups(&g, 8));
    }

    #[test]
    fn power_law_traffic_is_head_heavy() {
        let g = build_graph(GraphSpec::Rmat { scale: 10 }, 3);
        let hot = schedule(&g, Traffic::PowerLaw(1.2), 1000.0, 2.0, 3);
        let distinct = |a: &[Arrival]| {
            a.iter()
                .map(|x| x.source)
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        let cold = schedule(&g, Traffic::Uniform, 1000.0, 2.0, 3);
        assert!(
            distinct(&hot) * 2 < distinct(&cold),
            "{} vs {}",
            distinct(&hot),
            distinct(&cold)
        );
    }

    #[test]
    fn mesh_matches_the_depth_cap_at_full_size() {
        // Full-size batch-mesh: diameter 254, the engine's u8 depth cap.
        let Some(Workload {
            graph: GraphSpec::Grid { side },
            ..
        }) = by_name("batch-mesh", Size::Full)
        else {
            panic!("batch-mesh is a grid");
        };
        assert_eq!(2 * side - 2, 254);
    }
}
