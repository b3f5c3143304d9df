//! The shared level driver: the per-level skeleton every engine used to
//! duplicate.
//!
//! Every traversal in this repo has the same outer shape: seed level 0, then
//! repeat *check for work → launch a kernel → run one level → record stats*
//! until no instance has a frontier left or the level cap is hit. The
//! engines differ only in what a "level" does against their own frontier and
//! status stores — so they implement the narrow [`LevelEngine`] trait and
//! the [`LevelDriver`] owns the loop, the kernel-launch charging, the
//! [`LevelStats`] collection, and the [`TraversalEvent`] emission.
//!
//! Timing is engine-pluggable through [`PhaseTimer`]: the single-kernel
//! engines (joint, bitwise) time with a roofline `SimTimer`, the private
//! per-instance engines with the Hyper-Q demand accumulator — the driver
//! does not care which.

use crate::engine::LevelStats;
use crate::trace::{TraceSink, TraversalEvent};
use ibfs_gpu_sim::{PhaseTimer, Profiler};

/// The narrow per-level interface an engine implements to be driven.
///
/// Contract: [`LevelEngine::init`] seeds level 0 (marking the sources and
/// closing the seeding phase on the timer). Then, for each level the driver
/// runs, [`LevelEngine::run_level`] generates/expands/inspects against the
/// engine's own frontier and status stores, closing its kernel phases on the
/// timer, and returns the level's statistics. The kernel-launch overhead is
/// charged by the *driver*, once per level, before `run_level`.
pub trait LevelEngine {
    /// Inclusive upper bound on level numbers this traversal may run.
    fn level_cap(&self) -> u32;

    /// Whether any instance still has frontier work.
    fn has_work(&self) -> bool;

    /// Seeds level 0: mark sources, charge their stores, close the phase.
    fn init(&mut self, prof: &mut Profiler, timer: &mut dyn PhaseTimer);

    /// Executes one traversal level and returns its statistics.
    fn run_level(
        &mut self,
        level: u32,
        prof: &mut Profiler,
        timer: &mut dyn PhaseTimer,
    ) -> LevelStats;
}

/// Drives a [`LevelEngine`] to completion.
pub struct LevelDriver<'a> {
    /// The simulated device being charged.
    pub prof: &'a mut Profiler,
    /// Per-level timing (roofline or demand-accumulating).
    pub timer: &'a mut dyn PhaseTimer,
    /// Trace receiver (pass a [`crate::trace::NullSink`] to disable).
    pub sink: &'a mut dyn TraceSink,
}

impl LevelDriver<'_> {
    /// Runs `engine` from its seeded state until it reports no work or the
    /// level cap is reached, returning the per-level statistics.
    pub fn drive(&mut self, engine: &mut dyn LevelEngine) -> Vec<LevelStats> {
        engine.init(self.prof, self.timer);
        let mut levels = Vec::new();
        for level in 1..=engine.level_cap() {
            if !engine.has_work() {
                break;
            }
            let counters_before = self.prof.snapshot();
            let seconds_before = self.timer.seconds();
            self.timer.kernel_launch();
            let stats = engine.run_level(level, self.prof, self.timer);
            let delta = self.prof.snapshot().delta(&counters_before);
            self.sink.record(&TraversalEvent {
                group: 0,
                batch: 0,
                level,
                direction: stats.direction,
                unique_frontiers: stats.unique_frontiers,
                instance_frontiers: stats.instance_frontiers,
                edges_inspected: stats.edges_inspected,
                early_terminations: stats.early_terminations,
                load_transactions: delta.global_load_transactions,
                store_transactions: delta.global_store_transactions,
                atomic_transactions: delta.atomic_transactions,
                sim_seconds: self.timer.seconds() - seconds_before,
                wall_seconds: 0.0,
            });
            levels.push(stats);
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::Direction;
    use crate::trace::RecorderSink;
    use ibfs_gpu_sim::{CostModel, DeviceConfig, PhaseKind, SimTimer};

    /// A toy engine: marks one vertex per level for `work` levels.
    struct Countdown {
        work: u32,
        base: u64,
    }

    impl LevelEngine for Countdown {
        fn level_cap(&self) -> u32 {
            100
        }

        fn has_work(&self) -> bool {
            self.work > 0
        }

        fn init(&mut self, prof: &mut Profiler, timer: &mut dyn PhaseTimer) {
            prof.lane_store(self.base, 1);
            timer.phase(prof, PhaseKind::Other);
        }

        fn run_level(
            &mut self,
            level: u32,
            prof: &mut Profiler,
            timer: &mut dyn PhaseTimer,
        ) -> LevelStats {
            prof.load_contiguous(self.base, 0, 64, 4);
            timer.phase(prof, PhaseKind::Expansion);
            self.work -= 1;
            LevelStats {
                level,
                direction: Direction::TopDown,
                unique_frontiers: 1,
                instance_frontiers: 2,
                edges_inspected: 3,
                early_terminations: 0,
            }
        }
    }

    #[test]
    fn drives_until_out_of_work_and_traces_each_level() {
        let mut prof = Profiler::new(DeviceConfig::k40());
        let base = prof.alloc(1024);
        let model = CostModel::new(prof.config);
        let mut timer = SimTimer::start(model, &prof);
        let mut sink = RecorderSink::default();
        let mut engine = Countdown { work: 3, base };
        let levels = LevelDriver {
            prof: &mut prof,
            timer: &mut timer,
            sink: &mut sink,
        }
        .drive(&mut engine);

        assert_eq!(levels.len(), 3);
        assert_eq!(levels.iter().map(|l| l.level).collect::<Vec<_>>(), vec![1, 2, 3]);
        // One launch per level, none for seeding.
        assert_eq!(timer.launch_count(), 3);
        // Each traced level saw its loads and a positive time slice.
        assert_eq!(sink.events.len(), 3);
        for e in &sink.events {
            assert!(e.load_transactions > 0);
            assert!(e.sim_seconds > 0.0);
            assert_eq!(e.unique_frontiers, 1);
        }
        // The per-level slices sum to the timer's total.
        let total: f64 = sink.events.iter().map(|e| e.sim_seconds).sum();
        let init_cost = timer.seconds() - total;
        assert!(init_cost >= 0.0);
    }

    #[test]
    fn level_cap_stops_the_loop() {
        let mut prof = Profiler::new(DeviceConfig::k40());
        let base = prof.alloc(1024);
        let model = CostModel::new(prof.config);
        let mut timer = SimTimer::start(model, &prof);
        let mut sink = RecorderSink::default();

        struct Capped {
            base: u64,
        }
        impl LevelEngine for Capped {
            fn level_cap(&self) -> u32 {
                2
            }
            fn has_work(&self) -> bool {
                true
            }
            fn init(&mut self, _prof: &mut Profiler, _timer: &mut dyn PhaseTimer) {}
            fn run_level(
                &mut self,
                level: u32,
                prof: &mut Profiler,
                timer: &mut dyn PhaseTimer,
            ) -> LevelStats {
                prof.lane_load(self.base, 4);
                timer.phase(prof, PhaseKind::Inspection);
                LevelStats {
                    level,
                    direction: Direction::TopDown,
                    unique_frontiers: 1,
                    instance_frontiers: 1,
                    edges_inspected: 0,
                    early_terminations: 0,
                }
            }
        }

        let levels = LevelDriver {
            prof: &mut prof,
            timer: &mut timer,
            sink: &mut sink,
        }
        .drive(&mut Capped { base });
        assert_eq!(levels.len(), 2);
    }
}
