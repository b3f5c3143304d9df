//! Property tests for the coalescing planner and the QoS front door
//! (satellites of the serve PRs).
//!
//! Planner invariants, for any graph/window/clamp/policy:
//! * no planned batch ever exceeds the clamp ([`effective_max_batch`]);
//! * no batch is empty (occupancy never drops below one source);
//! * the batches partition the window's distinct sources exactly.
//!
//! QoS invariants, for any seeded op sequence:
//! * weighted-fair admission never lets a tenant exceed its quota, and
//!   never rejects below it;
//! * the fair queue's per-class split tracks the configured weights and
//!   stays FIFO within each class;
//! * dedup attach/join/complete resolves every parked waiter exactly once;
//! * the LRU result cache never serves a payload from a stale graph epoch
//!   and never exceeds its capacity.
//!
//! Seed/cases are overridable via `IBFS_PROP_SEED` / `IBFS_PROP_CASES`.

use ibfs::groupby::GroupByConfig;
use ibfs_graph::generators::{chung_lu, powerlaw_weights, rmat, uniform_random, RmatParams};
use ibfs_graph::{Csr, Depth, VertexId};
use ibfs_serve::coalesce::{plan, CoalescePolicy};
use ibfs_serve::qos::{fair_bounded, Attach};
use ibfs_serve::{
    effective_max_batch, Class, DedupTable, Lookup, QuotaGuard, QuotaTable, ResultCache,
    ServeConfig, TenantId,
};
use ibfs_util::prop::Prop;
use ibfs_util::rng::Rng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn graphs() -> Vec<Csr> {
    vec![
        rmat(8, 8, RmatParams::graph500(), 7),
        uniform_random(300, 6, 13),
        chung_lu(&powerlaw_weights(400, 8.0, 2.1), 23),
    ]
}

/// Distinct sources sampled without replacement, in random order.
fn sample_window(rng: &mut Rng, n: usize, k: usize) -> Vec<VertexId> {
    let mut pool: Vec<VertexId> = (0..n as VertexId).collect();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k.min(n) {
        let i = rng.gen_range(0..pool.len());
        out.push(pool.swap_remove(i));
    }
    out
}

fn policies() -> [CoalescePolicy; 2] {
    [CoalescePolicy::Arrival, CoalescePolicy::GroupBy]
}

#[test]
fn planned_batches_never_exceed_the_clamp_and_never_go_empty() {
    let graphs = graphs();
    Prop::new("serve::clamp_and_occupancy").cases(60).run(|rng| {
        let g = &graphs[rng.gen_range(0..graphs.len())];
        let n = g.num_vertices();
        let k = rng.gen_range(1..=96usize);
        let window = sample_window(rng, n, k);
        // Drive the clamp through the server's own knob: a random requested
        // max_batch, clamped to the group capacity exactly as `serve` does it.
        let config = ServeConfig {
            max_batch: rng.gen_range(1..=256usize),
            ..Default::default()
        };
        let clamp = effective_max_batch(&config);
        assert!(clamp >= 1);
        assert!(clamp <= config.max_batch.max(1));
        let policy = policies()[rng.gen_range(0..2usize)];
        let q = rng.gen_range(4..64u32);
        let p = plan(g, &window, clamp, policy, &GroupByConfig::default().with_q(q as usize));
        for batch in &p.batches {
            assert!(!batch.is_empty(), "{policy:?} planned an empty batch");
            assert!(
                batch.len() <= clamp,
                "{policy:?} batch of {} exceeds clamp {clamp}",
                batch.len()
            );
        }
    });
}

#[test]
fn planned_batches_partition_the_window() {
    let graphs = graphs();
    Prop::new("serve::partition").cases(60).run(|rng| {
        let g = &graphs[rng.gen_range(0..graphs.len())];
        let n = g.num_vertices();
        let k = rng.gen_range(1..=80usize);
        let window = sample_window(rng, n, k);
        let clamp = rng.gen_range(1..=48usize);
        let policy = policies()[rng.gen_range(0..2usize)];
        let p = plan(g, &window, clamp, policy, &GroupByConfig::default());
        let mut planned: Vec<VertexId> = p.batches.iter().flatten().copied().collect();
        planned.sort_unstable();
        let mut want = window.clone();
        want.sort_unstable();
        assert_eq!(planned, want, "{policy:?} lost or duplicated sources");
        assert_eq!(p.total_sources(), window.len());
    });
}

#[test]
fn quota_table_never_exceeds_limits() {
    Prop::new("serve::quota_limits").cases(80).run(|rng| {
        let num_tenants = rng.gen_range(1..5u32);
        let tenants: Vec<TenantId> = (0..num_tenants).map(TenantId).collect();
        let default_limit = rng.gen_range(0..4u64);
        let mut overrides: Vec<(TenantId, u64)> = Vec::new();
        for &t in &tenants {
            if rng.gen_bool(0.5) {
                overrides.push((t, rng.gen_range(0..6u64)));
            }
        }
        let table = Arc::new(QuotaTable::new(default_limit, &overrides));
        let mut held: HashMap<TenantId, Vec<QuotaGuard>> = HashMap::new();
        for _ in 0..200 {
            let t = tenants[rng.gen_range(0..tenants.len())];
            if rng.gen_bool(0.6) {
                match table.try_acquire(t) {
                    Some(guard) => held.entry(t).or_default().push(guard),
                    None => assert_eq!(
                        table.inflight(t),
                        table.limit(t),
                        "tenant {t} rejected below its quota"
                    ),
                }
            } else if let Some(guards) = held.get_mut(&t) {
                guards.pop(); // dropping the guard releases the slot
            }
            for &t in &tenants {
                assert!(
                    table.inflight(t) <= table.limit(t),
                    "tenant {t} exceeded its quota"
                );
                assert_eq!(
                    table.inflight(t),
                    held.get(&t).map_or(0, |g| g.len() as u64),
                    "tenant {t} in-flight count diverged from held guards"
                );
            }
        }
    });
}

#[test]
fn fair_queue_split_tracks_weights_and_stays_fifo() {
    Prop::new("serve::fair_split").cases(60).run(|rng| {
        let weights = [rng.gen_range(1..=8u64), rng.gen_range(1..=8u64)];
        let per_lane = 64usize;
        let (tx, rx) = fair_bounded::<(usize, usize)>(per_lane, weights);
        for seq in 0..per_lane {
            tx.try_send(Class::Interactive, (0, seq), || {}).unwrap();
            tx.try_send(Class::Bulk, (1, seq), || {}).unwrap();
        }
        // Both lanes stay backlogged for all `m` pops, so the split must
        // track the weights (nearest-integer rounding slack only).
        let m = rng.gen_range(8..=32usize);
        let mut served = [0usize; 2];
        let mut last_seq = [None::<usize>; 2];
        for _ in 0..m {
            let (lane, seq) = rx.recv().unwrap();
            if let Some(prev) = last_seq[lane] {
                assert!(seq > prev, "lane {lane} reordered {prev} before {seq}");
            }
            last_seq[lane] = Some(seq);
            served[lane] += 1;
        }
        let total_w = (weights[0] + weights[1]) as f64;
        for c in 0..2 {
            let ideal = m as f64 * weights[c] as f64 / total_w;
            assert!(
                (served[c] as f64 - ideal).abs() <= 2.0,
                "lane {c} served {} of {m}, ideal {ideal:.2} (weights {weights:?})",
                served[c]
            );
        }
    });
}

#[test]
fn idle_lane_rejoins_at_its_weighted_share() {
    // Regression for the WFQ idle-credit bug: serve one lane alone for a
    // random warm-up stretch (the other lane idle the whole time, the
    // busy lane never empty), then burst the idle lane. From that point
    // the split must track the weights immediately — the woken lane must
    // not monopolize the drain while its frozen virtual clock catches up.
    Prop::new("serve::fair_idle_resync").cases(60).run(|rng| {
        let weights = [rng.gen_range(1..=8u64), rng.gen_range(1..=8u64)];
        let (tx, rx) = fair_bounded::<(usize, usize)>(128, weights);
        for seq in 0..96 {
            tx.try_send(Class::Interactive, (0, seq), || {}).unwrap();
        }
        let warm = rng.gen_range(32..=64usize);
        for _ in 0..warm {
            assert_eq!(rx.recv().unwrap().0, 0, "bulk lane is empty");
        }
        // Bulk wakes up; both lanes now stay backlogged for all `m` pops.
        for seq in 0..64 {
            tx.try_send(Class::Bulk, (1, seq), || {}).unwrap();
            tx.try_send(Class::Interactive, (0, 96 + seq), || {}).unwrap();
        }
        let m = rng.gen_range(8..=32usize);
        let mut served = [0usize; 2];
        for _ in 0..m {
            served[rx.recv().unwrap().0] += 1;
        }
        let total_w = (weights[0] + weights[1]) as f64;
        for c in 0..2 {
            let ideal = m as f64 * weights[c] as f64 / total_w;
            assert!(
                (served[c] as f64 - ideal).abs() <= 3.0,
                "after {warm} warm-up pops lane {c} served {} of {m}, \
                 ideal {ideal:.2} (weights {weights:?})",
                served[c]
            );
        }
    });
}

#[test]
fn dedup_attach_resolves_each_waiter_exactly_once() {
    Prop::new("serve::dedup_exactly_once").cases(60).run(|rng| {
        let table: DedupTable<u64> = DedupTable::new();
        // Model: the waiters parked under each live key. Leaders are handed
        // straight back to the caller, so only waiters flow through
        // `complete`.
        let mut parked: HashMap<(u64, VertexId), Vec<u64>> = HashMap::new();
        let mut resolved: HashSet<u64> = HashSet::new();
        let mut next_id = 0u64;
        for _ in 0..300 {
            let epoch = rng.gen_range(0..2u64);
            let source = rng.gen_range(0..6u32) as VertexId;
            let key = (epoch, source);
            match rng.gen_range(0..4u32) {
                0 | 1 => {
                    let id = next_id;
                    next_id += 1;
                    match table.attach(epoch, source, id, || {}) {
                        Attach::Leader(w) => {
                            assert_eq!(w, id, "leader got someone else's value");
                            assert!(!parked.contains_key(&key), "led over a live key");
                            parked.insert(key, Vec::new());
                        }
                        Attach::Joined => {
                            parked.get_mut(&key).expect("joined a dead key").push(id);
                        }
                    }
                }
                2 => {
                    let id = next_id;
                    next_id += 1;
                    match table.join_if_inflight(epoch, source, id, || {}) {
                        None => parked.get_mut(&key).expect("joined a dead key").push(id),
                        Some(w) => {
                            assert_eq!(w, id, "bounced join lost its value");
                            assert!(!parked.contains_key(&key), "bounced off a live key");
                        }
                    }
                }
                _ => {
                    let waiters = table.complete(epoch, source);
                    let want = parked.remove(&key).unwrap_or_default();
                    assert_eq!(waiters, want, "complete returned the wrong waiter set");
                    for w in waiters {
                        assert!(resolved.insert(w), "waiter {w} resolved twice");
                    }
                }
            }
            assert_eq!(table.len(), parked.len());
        }
        // Drain every live key: each still-parked waiter resolves exactly
        // once, and nothing is left behind.
        for (key, want) in parked {
            let waiters = table.complete(key.0, key.1);
            assert_eq!(waiters, want);
            for w in waiters {
                assert!(resolved.insert(w), "waiter {w} resolved twice at drain");
            }
        }
        assert!(table.is_empty());
    });
}

#[test]
fn result_cache_never_serves_a_stale_epoch_and_respects_capacity() {
    Prop::new("serve::cache_model").cases(60).run(|rng| {
        let capacity = rng.gen_range(1..=6usize);
        let cache = ResultCache::new(capacity);
        // Payload encodes its own key, so a hit that crossed epochs or
        // sources is self-evident. `latest` tracks the last insert per
        // source (entries may be evicted, turning a would-be hit into a
        // miss — never into a wrong payload).
        let mut latest: HashMap<VertexId, u64> = HashMap::new();
        for _ in 0..200 {
            let epoch = rng.gen_range(0..3u64);
            let source = rng.gen_range(0..12u32) as VertexId;
            if rng.gen_bool(0.5) {
                cache.insert(epoch, source, Arc::new(vec![epoch as Depth, source as Depth]));
                latest.insert(source, epoch);
            } else {
                match cache.get(epoch, source) {
                    Lookup::Hit(depths) => {
                        assert_eq!(
                            *depths,
                            vec![epoch as Depth, source as Depth],
                            "hit served another key's payload"
                        );
                        assert_eq!(
                            latest.get(&source),
                            Some(&epoch),
                            "hit on an epoch that was since overwritten"
                        );
                    }
                    Lookup::Stale => {
                        let last = latest.get(&source);
                        assert!(
                            last.is_some() && last != Some(&epoch),
                            "stale on a fresh (or absent) entry"
                        );
                    }
                    Lookup::Miss => {}
                }
            }
            assert!(cache.len() <= capacity, "cache grew past its capacity");
        }
        let stats = cache.stats();
        // A stale lookup is also a miss (the caller re-traverses), and an
        // entry either still resides in the cache or left through an
        // eviction or a stale discard.
        assert!(stats.misses >= stats.stale, "stale lookups must count as misses");
        assert!(stats.evictions as usize + cache.len() <= 200 + capacity);
    });
}
