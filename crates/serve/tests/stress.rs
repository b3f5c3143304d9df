//! Concurrency stress suite for the batching server (satellite of the
//! serve PR).
//!
//! The invariants here are deliberately timing-independent: whatever the
//! interleaving, no request is lost or answered twice, every ticket
//! resolves with exactly one of `Ok`/`Timeout`/`Overloaded`/`Shutdown`,
//! the report's conservation identity holds, and every `Ok` carries a
//! depth array identical to the single-source reference BFS.
//!
//! The seed is `IBFS_STRESS_SEED` (default 42) so ci.sh runs the suite
//! deterministically; interleavings still vary, which is the point — the
//! *assertions* hold for all of them.

use ibfs_graph::generators::{rmat, RmatParams};
use ibfs_graph::validate::reference_bfs;
use ibfs_graph::{Csr, Depth, VertexId};
use ibfs_serve::{
    serve, Class, QosPolicy, ServeConfig, ServeError, ServeReport, TenantId,
};
use ibfs_util::rng::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Extended conservation: the accepted-side identity holds, every
/// admission outcome sums back to the number of submissions the clients
/// made, and the registry snapshot agrees with the report counter for
/// counter (the consolidated metrics path tells one story).
fn assert_conservation(report: &ServeReport, submissions: u64) {
    assert!(report.is_conserved(), "accepted != completed+timeouts+shutdown");
    assert!(report.is_conserved_per_class(), "per-class accounting diverged");
    assert_eq!(
        report.accepted + report.overloaded + report.rejected + report.invalid
            + report.quota_rejected,
        submissions,
        "some submission resolved through no admission path"
    );
    for (name, want) in [
        ("ibfs_serve_accepted_total", report.accepted),
        ("ibfs_serve_completed_total", report.completed),
        ("ibfs_serve_timeouts_total", report.timeouts),
        ("ibfs_serve_overloaded_total", report.overloaded),
        ("ibfs_serve_shutdown_total", report.shutdown),
        ("ibfs_serve_rejected_total", report.rejected),
        ("ibfs_serve_invalid_total", report.invalid),
        ("ibfs_serve_quota_rejected_total", report.quota_rejected),
    ] {
        assert_eq!(report.snapshot.counter(name), Some(want), "snapshot disagrees on {name}");
    }
    // Completion latencies were recorded exactly once per completion.
    let latency = report.snapshot.histogram("ibfs_serve_latency_seconds").unwrap();
    assert_eq!(latency.count, report.completed, "latency histogram count");
    assert!(latency.is_well_formed());
}

fn stress_seed() -> u64 {
    std::env::var("IBFS_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn graph() -> Csr {
    rmat(8, 8, RmatParams::graph500(), 31)
}

/// Reference depth arrays for every vertex, computed once.
fn expected(g: &Csr) -> Vec<Vec<Depth>> {
    (0..g.num_vertices() as VertexId).map(|s| reference_bfs(g, s)).collect()
}

#[test]
fn producers_on_bounded_queue_lose_and_duplicate_nothing() {
    let g = graph();
    let r = g.reverse();
    let want = expected(&g);
    let n = g.num_vertices() as u32;
    let producers = 8usize;
    let per_producer = 40usize;
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 4, // small: blocking submit exercises backpressure
        max_batch: 8,
        batch_window: Duration::from_micros(100),
        ..Default::default()
    };
    let (outcomes, report) = serve(&g, &r, config, |h| {
        let ok = AtomicU64::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let (ok, want) = (&ok, &want);
                    s.spawn(move || {
                        let mut rng = Rng::seed_from_u64(stress_seed() ^ p as u64);
                        for _ in 0..per_producer {
                            let source = rng.gen_range(0..n);
                            let ticket = h.submit(source).expect("no deadline, no abort");
                            let resp = ticket.wait().expect("no deadline, no abort");
                            assert_eq!(resp.source, source);
                            assert_eq!(resp.depths, want[source as usize], "wrong depths for {source}");
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        ok.into_inner()
    });
    let total = (producers * per_producer) as u64;
    assert_eq!(outcomes, total);
    assert_eq!(report.accepted, total);
    assert_eq!(report.completed, total);
    assert_eq!(report.timeouts + report.shutdown + report.overloaded + report.invalid, 0);
    assert_conservation(&report, total);
    // Every completion was carried by some batch, none counted twice.
    let carried: u64 = report.batches.iter().map(|b| b.requests).sum();
    assert_eq!(carried, total);
    assert!(report.batches.iter().all(|b| b.occupancy > 0.0 && b.occupancy <= 1.0));
}

#[test]
fn expired_deadlines_resolve_as_timeouts_not_losses() {
    let g = graph();
    let r = g.reverse();
    let n = g.num_vertices() as u32;
    let producers = 4usize;
    let per_producer = 30usize;
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 8,
        batch_window: Duration::from_micros(100),
        ..Default::default()
    };
    let ((oks, timeouts), report) = serve(&g, &r, config, |h| {
        let (ok, to) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            for p in 0..producers {
                let (ok, to) = (&ok, &to);
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(stress_seed().wrapping_add(p as u64));
                    for i in 0..per_producer {
                        let source = rng.gen_range(0..n);
                        // Alternate between an already-expired deadline (a
                        // deterministic Timeout) and no deadline (a
                        // deterministic Ok).
                        let deadline = if i % 2 == 0 { Some(Duration::ZERO) } else { None };
                        let ticket = h.submit_with_deadline(source, deadline).unwrap();
                        match ticket.wait() {
                            Ok(resp) => {
                                assert_eq!(deadline, None, "expired deadline served");
                                assert_eq!(resp.source, source);
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServeError::Timeout) => {
                                assert_eq!(deadline, Some(Duration::ZERO));
                                to.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected outcome: {other}"),
                        }
                    }
                });
            }
        });
        (ok.into_inner(), to.into_inner())
    });
    let total = (producers * per_producer) as u64;
    assert_eq!(oks + timeouts, total);
    assert_eq!(timeouts, total / 2);
    assert_eq!(report.accepted, total);
    assert_eq!(report.completed, oks);
    assert_eq!(report.timeouts, timeouts);
    assert_conservation(&report, total);
}

#[test]
fn abort_resolves_every_ticket_exactly_once() {
    let g = graph();
    let r = g.reverse();
    let want = expected(&g);
    let n = g.num_vertices() as u32;
    let producers = 6usize;
    let per_producer = 50usize;
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 4,
        max_batch: 4,
        batch_window: Duration::from_micros(100),
        ..Default::default()
    };
    let ((oks, shutdowns, rejected), report) = serve(&g, &r, config, |h| {
        let (ok, sd, rj) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            for p in 0..producers {
                let (ok, sd, rj, want) = (&ok, &sd, &rj, &want);
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(stress_seed() ^ (p as u64) << 8);
                    for i in 0..per_producer {
                        let source = rng.gen_range(0..n);
                        // One producer pulls the plug partway through.
                        if p == 0 && i == per_producer / 2 {
                            h.shutdown_now();
                        }
                        match h.submit(source) {
                            Ok(ticket) => match ticket.wait() {
                                Ok(resp) => {
                                    assert_eq!(resp.depths, want[source as usize]);
                                    ok.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(ServeError::Shutdown) => {
                                    sd.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(other) => panic!("unexpected outcome: {other}"),
                            },
                            Err(ServeError::Shutdown) => {
                                rj.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected admission error: {other}"),
                        }
                    }
                });
            }
        });
        (ok.into_inner(), sd.into_inner(), rj.into_inner())
    });
    let total = (producers * per_producer) as u64;
    // Exactly-once: every submission resolved through exactly one path.
    assert_eq!(oks + shutdowns + rejected, total);
    assert_eq!(report.completed, oks);
    assert_eq!(report.shutdown, shutdowns);
    assert_eq!(report.rejected, rejected);
    assert_eq!(report.accepted, oks + shutdowns);
    assert_conservation(&report, total);
    // The plug was pulled, so at least the aborting producer's own later
    // submissions were rejected.
    assert!(rejected > 0, "abort never observed at admission");
}

#[test]
fn try_submit_burst_on_tiny_queue_reports_overload() {
    let g = graph();
    let r = g.reverse();
    let n = g.num_vertices() as u32;
    let producers = 4usize;
    let per_producer = 300usize;
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1, // one slot: a burst must trip Overloaded
        max_batch: 1, // every request is its own batch: slowest pipeline
        batch_window: Duration::ZERO,
        ..Default::default()
    };
    let ((oks, overloads), report) = serve(&g, &r, config, |h| {
        let (ok, ov) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            for p in 0..producers {
                let (ok, ov) = (&ok, &ov);
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(stress_seed().rotate_left(p as u32));
                    let mut tickets = Vec::new();
                    for _ in 0..per_producer {
                        let source = rng.gen_range(0..n);
                        match h.try_submit(source) {
                            Ok(t) => tickets.push((source, t)),
                            Err(ServeError::Overloaded) => {
                                ov.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected admission error: {other}"),
                        }
                    }
                    for (source, t) in tickets {
                        let resp = t.wait().expect("accepted requests complete");
                        assert_eq!(resp.source, source);
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        (ok.into_inner(), ov.into_inner())
    });
    let total = (producers * per_producer) as u64;
    assert_eq!(oks + overloads, total);
    assert_eq!(report.accepted, oks);
    assert_eq!(report.completed, oks);
    assert_eq!(report.overloaded, overloads);
    assert_conservation(&report, total);
    // Four tight-loop producers against a one-slot, one-request-per-batch
    // pipeline: the queue must have been full at least once.
    assert!(overloads > 0, "burst never tripped Overloaded");
}

#[test]
fn graceful_drain_completes_all_inflight_requests() {
    let g = graph();
    let r = g.reverse();
    let n = g.num_vertices() as u32;
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 64,
        max_batch: 16,
        batch_window: Duration::from_millis(2),
        ..Default::default()
    };
    // Submit a pile of requests and return the tickets *unwaited*: the
    // drain on scope exit must still answer every one (the tickets outlive
    // the server; their replies were sent before the workers exited).
    let (tickets, report) = serve(&g, &r, config, |h| {
        let mut rng = Rng::seed_from_u64(stress_seed());
        (0..100)
            .map(|_| {
                let s = rng.gen_range(0..n);
                (s, h.submit(s).unwrap())
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(report.accepted, 100);
    assert_eq!(report.completed, 100);
    assert_conservation(&report, 100);
    for (source, ticket) in tickets {
        let resp = ticket.wait().expect("drained requests resolve Ok");
        assert_eq!(resp.source, source);
    }
}

#[test]
fn bulk_storm_cannot_overload_the_interactive_class() {
    // Per-class lanes make this structural, not probabilistic: bulk
    // traffic fills only the bulk lane, so however hard the bulk tenant
    // storms, an interactive try-submit can only bounce off *interactive*
    // backlog — and two closed-loop interactive clients can never fill a
    // four-slot lane on their own.
    let g = graph();
    let r = g.reverse();
    let want = expected(&g);
    let n = g.num_vertices() as u32;
    let bulk_producers = 4usize;
    let bulk_per_producer = 200usize;
    let interactive_clients = 2usize;
    let interactive_per_client = 30usize;
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 4, // per class lane
        max_batch: 2, // slow pipeline: the bulk lane must overflow
        batch_window: Duration::ZERO,
        qos: QosPolicy::default(),
        ..Default::default()
    };
    let ((bulk_oks, bulk_overloads, interactive_oks), report) = serve(&g, &r, config, |h| {
        let (bok, bov, iok) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            for p in 0..bulk_producers {
                let (bok, bov, want) = (&bok, &bov, &want);
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(stress_seed() ^ (p as u64 + 100));
                    let mut tickets = Vec::new();
                    for _ in 0..bulk_per_producer {
                        let source = rng.gen_range(0..n);
                        match h.try_submit_tagged(source, TenantId(1), Class::Bulk) {
                            Ok(t) => tickets.push((source, t)),
                            Err(ServeError::Overloaded) => {
                                bov.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected bulk admission error: {other}"),
                        }
                    }
                    for (source, t) in tickets {
                        let resp = t.wait().expect("accepted bulk requests complete");
                        assert_eq!(resp.depths, want[source as usize]);
                        bok.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for c in 0..interactive_clients {
                let (iok, want) = (&iok, &want);
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(stress_seed() ^ (c as u64 + 900));
                    for _ in 0..interactive_per_client {
                        let source = rng.gen_range(0..n);
                        // Closed loop on a non-blocking submit: the bulk
                        // storm must never make this bounce.
                        let ticket = h
                            .try_submit_tagged(source, TenantId::DEFAULT, Class::Interactive)
                            .expect("interactive lane overloaded by a bulk storm");
                        let resp = ticket.wait().expect("interactive requests complete");
                        assert_eq!(resp.depths, want[source as usize]);
                        iok.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        (bok.into_inner(), bov.into_inner(), iok.into_inner())
    });
    let bulk_total = (bulk_producers * bulk_per_producer) as u64;
    let interactive_total = (interactive_clients * interactive_per_client) as u64;
    assert_eq!(bulk_oks + bulk_overloads, bulk_total);
    assert_eq!(interactive_oks, interactive_total);
    assert!(bulk_overloads > 0, "storm never tripped bulk Overloaded");
    assert_eq!(
        report.overloaded_by_class[Class::Interactive.idx()],
        0,
        "bulk storm produced an interactive Overloaded"
    );
    assert_eq!(report.overloaded_by_class[Class::Bulk.idx()], bulk_overloads);
    assert_eq!(report.completed_by_class[Class::Interactive.idx()], interactive_total);
    assert_eq!(report.completed_by_class[Class::Bulk.idx()], bulk_oks);
    assert_conservation(&report, bulk_total + interactive_total);
}

#[test]
fn hot_source_storm_conserves_and_matches_reference() {
    // Eight closed-loop producers hammer two hot sources: whatever the
    // interleaving, every ticket resolves with the reference depths, every
    // completion is carried by exactly one batch (duplicates of a source
    // in one window share its instance), and accounting balances.
    let g = graph();
    let r = g.reverse();
    let want = expected(&g);
    let producers = 8usize;
    let per_producer = 30usize;
    let config = ServeConfig {
        workers: 2,
        max_batch: 8,
        batch_window: Duration::from_millis(2), // wide window: duplicates meet
        ..Default::default()
    };
    let (oks, report) = serve(&g, &r, config, |h| {
        let ok = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..producers {
                let (ok, want) = (&ok, &want);
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(stress_seed() ^ (p as u64 + 500));
                    for _ in 0..per_producer {
                        let source = rng.gen_range(0..2u32); // two hot sources
                        let resp = h.submit(source).unwrap().wait().unwrap();
                        assert_eq!(resp.source, source);
                        assert_eq!(resp.depths, want[source as usize]);
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        ok.into_inner()
    });
    let total = (producers * per_producer) as u64;
    assert_eq!(oks, total);
    assert_eq!(report.completed, total);
    assert_conservation(&report, total);
    // Every request is accounted to the batch that carried its traversal:
    // nothing lost, nothing double-counted.
    let carried: u64 = report.batches.iter().map(|b| b.requests).sum();
    assert_eq!(carried, total);
}
