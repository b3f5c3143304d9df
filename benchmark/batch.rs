//! The batch workloads: `CpuService::run_group` back to back over a seeded
//! pool of groups, cycling the pool until the window closes. The serve
//! layers take no part.

use crate::oracle::{self, Deferred};
use crate::report::{chrome_event, Layers, Measured, PHASES};
use crate::stats::{median, p95, ratio};
use crate::workload::{self, Shape, Workload};
use ibfs::cpu::CpuService;
use ibfs_graph::Csr;
use ibfs_obs::{EngineProfiler, ProfPhase};
use std::collections::HashMap;
use std::time::Instant;

/// Instances of each distinct group checked against `reference_bfs`.
const ORACLE_INSTANCES: usize = 4;

/// Profiler tracks (groups) exported to the Chrome trace; a mesh group has
/// thousands of phase records, so the file keeps only the first few.
const TRACED_GROUPS: u64 = 8;

/// One warm-up group, then groups back to back for `seconds` and at least
/// one pass over the pool.
pub fn run(
    w: &Workload,
    graph: &Csr,
    rev: &Csr,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Measured, String> {
    assert!(
        matches!(w.shape, Shape::Batch),
        "batch run for a serve workload"
    );
    let pool = workload::groups(graph, seed);
    let groups = pool.len();
    let mut svc = CpuService::new(graph, rev, w.cpu_options());
    svc.run_group(&pool[0])
        .map_err(|e| format!("warm-up group: {e:?}"))?;
    let profiler = EngineProfiler::shared();
    if traced {
        svc.set_profiler(profiler.clone());
    }
    let n = graph.num_vertices();
    let (mut deferred, mut problems) = (Deferred::default(), Vec::new());
    let mut first_edges: Vec<Option<u64>> = vec![None; groups];
    // Each group's call times (ms), and each call's traversal rate.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); groups];
    let (mut rates, mut engine_ms, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let before = svc.stats();
    let start = Instant::now();
    let profiler_at_start = profiler.now_s();
    // At least one full pass, so every group is verified and the pass's
    // traversed-edge total is the same for every run of one seed.
    while start.elapsed().as_secs_f64() < seconds || (attempted as usize) < groups {
        let g = attempted as usize % groups;
        let sources = &pool[g];
        let t0 = Instant::now();
        let result = svc.run_group(sources);
        let wall = t0.elapsed().as_secs_f64();
        attempted += 1;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                failed += 1;
                problems.push(format!("group {g}: {e:?}"));
                continue;
            }
        };
        walls.push(((t0 - start).as_secs_f64(), wall));
        times[g].push(wall * 1e3);
        rates.push(run.traversed_edges as f64 / wall);
        engine_ms.push(run.wall_seconds * 1e3);
        for (j, &s) in sources.iter().enumerate() {
            if let Err(e) = oracle::check_reply(n, s, s, run.instance_depths(j)) {
                problems.push(format!("group {g} instance {j}: {e}"));
            }
        }
        // A group's traversed-edge count is a function of its sources
        // alone, so every repeat must reproduce the first run's count.
        match first_edges[g] {
            None => {
                first_edges[g] = Some(run.traversed_edges);
                for (j, &s) in sources.iter().enumerate().take(ORACLE_INSTANCES) {
                    deferred.push(s, run.instance_depths(j));
                }
            }
            Some(e) if e != run.traversed_edges => {
                problems.push(format!(
                    "group {g}: traversed {} edges, {e} on its first run",
                    run.traversed_edges
                ));
            }
            Some(_) => {}
        }
    }
    let after = svc.stats();
    problems.extend(deferred.verify(graph));

    let delta = |f: fn(&ibfs::cpu::CpuStats) -> u64| (f(&after.stats) - f(&before.stats)) as f64;
    let (ran, levels) = (walls.len() as f64, delta(|s| s.levels));
    let (td, bu) = (delta(|s| s.td_micros), delta(|s| s.bu_micros));
    let phases = (after.pool_phases - before.pool_phases) as f64;
    let mut layers = Layers {
        engine_p50_ms: median(&engine_ms)?,
        engine_p95_ms: p95(&engine_ms)?,
        levels_per_group: ratio(levels, ran),
        // One pass over the pool: the same for every run of one seed.
        traversed_edges: first_edges.iter().flatten().sum::<u64>() as f64,
        chunks_touched_per_level: ratio(delta(|s| s.chunks_touched), levels),
        full_sweeps_per_group: ratio(delta(|s| s.full_sweeps), ran),
        dense_levels_per_group: ratio(delta(|s| s.dense_levels), ran),
        bottom_up_share: ratio(bu, td + bu),
        phases_per_level: ratio(phases, levels),
        ..Layers::default()
    };

    let mut trace_events = Vec::new();
    if traced {
        let report = profiler.report("benchmark");
        let mut by_phase: HashMap<ProfPhase, f64> = HashMap::new();
        // Lane 0 runs every phase of its group, so its records (bodies plus
        // synthesized barrier waits) tile the group's profiled time; the
        // rest of the call is engine work no phase covers.
        let mut lane0 = vec![0.0f64; walls.len()];
        for r in &report.records {
            *by_phase.entry(r.phase).or_default() += r.seconds;
            if r.lane == 0 {
                if let Some(t) = lane0.get_mut(r.track as usize) {
                    *t += r.seconds;
                }
            }
            if r.track < TRACED_GROUPS {
                let ts = (r.start_s - profiler_at_start) * 1e6;
                trace_events.push(chrome_event(
                    r.phase.name(),
                    ts,
                    r.seconds * 1e6,
                    r.track + 2,
                    r.lane,
                    r.level,
                ));
            }
        }
        for (slot, &(phase, _)) in layers.phase_ms.iter_mut().zip(PHASES.iter()) {
            *slot = ratio(by_phase.get(&phase).copied().unwrap_or(0.0) * 1e3, ran);
        }
        let total: f64 = by_phase.values().sum();
        let barrier = by_phase
            .get(&ProfPhase::BarrierWait)
            .copied()
            .unwrap_or(0.0);
        layers.phase_us_mean = ratio(total * 1e6, phases * svc.options().threads as f64);
        layers.barrier_wait_share = ratio(barrier, total);
        let unprofiled: Vec<f64> = walls
            .iter()
            .zip(&lane0)
            .map(|(&(_, wall), &profiled)| (wall - profiled) * 1e3)
            .collect();
        layers.unprofiled_p50_ms = median(&unprofiled)?;
        for &(t0, wall) in walls.iter().take(TRACED_GROUPS as usize) {
            trace_events.push(chrome_event("run_group", t0 * 1e6, wall * 1e6, 1, 0, 0));
        }
    }

    // A group's latency is the median of its calls: the host's bursts of
    // interference last about a second and rarely hit one group twice, so
    // the percentiles over the pool's groups measure the engine, not them.
    let per_group: Vec<f64> = times
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect::<Result<_, _>>()?;
    Ok(Measured {
        attempted,
        failed,
        latency_p50_ms: median(&per_group)?,
        latency_p95_ms: p95(&per_group)?,
        teps: median(&rates)?,
        layers,
        problems,
        trace_events,
    })
}
