//! The `QrService` acceptance gates: pooled serving must be
//! *indistinguishable* from standalone sessions in its results
//! (bitwise), and *better* than them in its failure modes (a panic
//! takes down one bucket, not the service).

use std::sync::Arc;
use std::time::Duration;

use qr3d::prelude::*;
use qr3d_core::tsqr::LEAF_WORDS;
use qr3d_machine::{FaultPlan, FaultyTransport, Machine, MpscTransport, RingTransport, Transport};

fn tall(seed: u64) -> Matrix {
    Matrix::random(64, 8, seed)
}

/// The pooled service must return bit-for-bit what a standalone
/// [`Session::factor`] returns — fused coalesced buckets only
/// concatenate reduce/broadcast payloads, they never reorder a
/// problem's own arithmetic.
fn assert_pool_matches_standalone(coalesced: bool, p: usize, problems: &[Matrix]) {
    let k = problems.len();
    let params = FactorParams::default();

    let mut session = Session::new(p, params);
    let singles: Vec<FactorOutput> = problems
        .iter()
        .map(|a| session.factor(a, QrBackend::Tsqr).expect("full rank"))
        .collect();

    let mut cfg = ServiceConfig::new(p, params)
        .with_pool(2)
        .with_admission(Admission::Block {
            timeout: Duration::from_secs(60),
        });
    cfg = if coalesced {
        // Linger generously so the whole stream lands in one bucket.
        cfg.with_coalescing(k, Duration::from_secs(60))
    } else {
        cfg.uncoalesced()
    };
    let svc = QrService::start(cfg);
    let handles: Vec<JobHandle> = problems
        .iter()
        .map(|a| {
            svc.submit_with(a.clone(), QrBackend::Tsqr)
                .expect("admitted")
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let res = h.wait();
        if coalesced {
            assert_eq!(
                res.stats.coalesced, k,
                "the stream coalesced into one bucket"
            );
            assert!(res.stats.fused, "a same-shape tsqr bucket runs fused");
        }
        let out = res.output.expect("full rank");
        assert_eq!(
            out.q, singles[i].q,
            "problem {i}: pooled Q must be bitwise the standalone Q"
        );
        assert_eq!(
            out.r, singles[i].r,
            "problem {i}: pooled R must be bitwise the standalone R"
        );
        assert_eq!(out.detected_rank, singles[i].detected_rank);
    }
}

#[test]
fn coalesced_pool_results_are_bitwise_standalone_results() {
    let problems: Vec<Matrix> = (0..8).map(tall).collect();
    assert_pool_matches_standalone(true, 4, &problems);
}

#[test]
fn uncoalesced_pool_results_are_bitwise_standalone_results() {
    let problems: Vec<Matrix> = (0..8).map(tall).collect();
    assert_pool_matches_standalone(false, 4, &problems);
}

#[test]
fn pool_results_with_blocked_leaves_are_bitwise_standalone_results() {
    // Every rank's leaf is three row blocks, the last ragged, fused
    // across the bucket and not.
    let m = 2 * (2 * (LEAF_WORDS / 4) + 20);
    let problems: Vec<Matrix> = (0..3).map(|seed| Matrix::random(m, 4, seed)).collect();
    assert_pool_matches_standalone(true, 2, &problems);
    assert_pool_matches_standalone(false, 2, &problems);
}

/// A service on `cfg` whose fabric — the env-selected transport — runs
/// `plan`, with a short receive timeout so a killed rank costs its
/// peers a brief wait. The retry policy is `cfg`'s.
fn start_with_plan(cfg: ServiceConfig, plan: FaultPlan) -> QrService {
    let machine =
        Machine::new(cfg.ranks, cfg.params.machine).with_recv_timeout(Duration::from_millis(200));
    let faulty = FaultyTransport::wrap(Arc::clone(machine.transport()), plan);
    QrService::start_on_machine(machine.with_transport(Arc::new(faulty)), cfg)
}

#[test]
fn a_panicking_job_poisons_one_bucket_and_the_pool_replaces_the_executor() {
    let params = FactorParams::default();
    let cfg = ServiceConfig::new(4, params)
        .with_pool(2)
        .with_admission(Admission::Block {
            timeout: Duration::from_secs(60),
        })
        .uncoalesced();
    // Rank 1 dies at its first send: in the first bucket dispatched,
    // whichever pooled session serves it.
    let svc = start_with_plan(cfg, FaultPlan::new().kill_at_send(1, 1));

    // The fault itself: under the default policy only ITS handle
    // errors...
    let boom = svc.submit_with(tall(1), QrBackend::Tsqr).unwrap().wait();
    match boom.output {
        Err(ServiceError::JobPanicked(_)) => {}
        other => panic!("expected JobPanicked, got {other:?}"),
    }
    assert_eq!(boom.stats.retries, 0, "the default policy fails fast");

    // ...and the service keeps serving afterwards, having drained and
    // respawned exactly the poisoned executor.
    let after: Vec<JobHandle> = (0..6)
        .map(|s| svc.submit_with(tall(10 + s), QrBackend::Tsqr).unwrap())
        .collect();
    for h in after {
        assert!(h.wait().output.is_ok(), "post-fault submissions succeed");
    }
    let stats = svc.stats();
    assert_eq!(
        stats.executors_replaced, 1,
        "one poisoned executor replaced"
    );
    assert_eq!(stats.panicked, 1, "only the killed job errored");
    assert_eq!(stats.completed, 6, "every later job completed");
    assert_eq!(stats.retried, 0);
}

#[test]
fn pool_with_one_poisoned_executor_keeps_serving_concurrent_load() {
    // Epoch-isolation stress: interleaved shapes from concurrent
    // clients while rank deaths poison executors. Three kills at rank
    // 1's first send fire in three executors (each fabric's rank 1
    // counts its own sends, and a fault fires once), so under the
    // default policy exactly three uncoalesced buckets fail; every
    // other job resolves with a correct factorization — a job is
    // errored, never silently dropped or corrupted.
    let params = FactorParams::default();
    let cfg = ServiceConfig::new(4, params)
        .with_pool(2)
        .with_queue_cap(256)
        .with_admission(Admission::Block {
            timeout: Duration::from_secs(120),
        })
        .uncoalesced();
    let plan = FaultPlan::new()
        .kill_at_send(1, 1)
        .kill_at_send(1, 1)
        .kill_at_send(1, 1);
    let svc = Arc::new(start_with_plan(cfg, plan));

    let shapes = [(64usize, 8usize), (96, 8), (64, 4), (128, 16)];
    std::thread::scope(|s| {
        for (c, &(m, n)) in shapes.iter().enumerate() {
            let svc = Arc::clone(&svc);
            s.spawn(move || {
                for j in 0..6u64 {
                    let a = Matrix::random(m, n, c as u64 * 100 + j);
                    let h = svc
                        .submit_with(a.clone(), QrBackend::Tsqr)
                        .expect("admitted");
                    match h.wait().output {
                        Ok(out) => {
                            assert!(out.residual(&a) < 1e-12, "{m}×{n} result is correct");
                            assert_eq!(out.q.rows(), m, "no cross-shape mixup");
                        }
                        Err(ServiceError::JobPanicked(_)) => {}
                        Err(e) => panic!("expected a result or JobPanicked, got {e:?}"),
                    }
                }
            });
        }
    });

    let stats = svc.stats();
    assert_eq!(stats.panicked, 3, "one bucket per kill errored");
    assert_eq!(stats.completed, 21, "every other job served");
    assert_eq!(
        stats.executors_replaced, 3,
        "each kill replaced exactly one executor"
    );

    // The pool is still healthy after the stress.
    let h = svc.submit_with(tall(999), QrBackend::Tsqr).unwrap();
    assert!(h.wait().output.is_ok());
}

/// The service-retry gate: a [`FaultPlan`] silently kills a rank in
/// whichever pool executor's rank 1 sends first, wedging that bucket
/// until the receive timeouts poison the executor — and under a
/// [`RetryPolicy`] the service re-dispatches the bucket on the fresh
/// executor (the one-shot fault is already consumed), so under
/// concurrent multi-shape load every submitted job still completes.
fn chaos_killed_executor_is_retried(inner: Arc<dyn Transport>) {
    let p = 4usize;
    let params = FactorParams::default();
    let plan = FaultPlan::new().kill_at_send(1, 1);
    let machine = Machine::new(p, params.machine)
        .with_recv_timeout(Duration::from_millis(200))
        .with_transport(Arc::new(FaultyTransport::wrap(inner, plan)));
    let cfg = ServiceConfig::new(p, params)
        .with_pool(2)
        .with_queue_cap(256)
        .with_admission(Admission::Block {
            timeout: Duration::from_secs(120),
        })
        .with_retry(RetryPolicy::retries(2))
        .uncoalesced();
    let svc = Arc::new(QrService::start_on_machine(machine, cfg));

    let shapes = [(64usize, 8usize), (96, 8), (128, 16)];
    std::thread::scope(|s| {
        for (c, &(m, n)) in shapes.iter().enumerate() {
            let svc = Arc::clone(&svc);
            s.spawn(move || {
                for j in 0..4u64 {
                    let a = Matrix::random(m, n, c as u64 * 100 + j);
                    let h = svc
                        .submit_with(a.clone(), QrBackend::Tsqr)
                        .expect("admitted");
                    let res = h.wait();
                    let out = res
                        .output
                        .expect("a killed executor is retried, not surfaced");
                    assert!(out.residual(&a) < 1e-12, "{m}×{n} result is correct");
                }
            });
        }
    });

    let stats = svc.stats();
    assert_eq!(
        stats.completed, stats.submitted,
        "every submitted job completed despite the kill"
    );
    assert!(stats.retried > 0, "the killed bucket was re-dispatched");
    assert_eq!(stats.panicked, 0, "no job surfaced the executor death");
    assert!(
        stats.executors_replaced >= 1,
        "the poisoned executor was replaced"
    );
}

#[test]
fn killed_executor_jobs_are_transparently_retried_mpsc() {
    chaos_killed_executor_is_retried(Arc::new(MpscTransport));
}

#[test]
fn killed_executor_jobs_are_transparently_retried_ring() {
    chaos_killed_executor_is_retried(Arc::new(RingTransport::default()));
}

#[test]
fn queue_wait_and_wall_stats_are_ordered() {
    let params = FactorParams::default();
    let svc = QrService::start(ServiceConfig::new(2, params).with_pool(1).uncoalesced());
    let h = svc.submit_with(tall(5), QrBackend::Tsqr).unwrap();
    let res = h.wait();
    assert!(res.output.is_ok());
    assert!(
        res.stats.queue_wait <= res.stats.wall,
        "queue wait is part of the wall time"
    );
    assert_eq!(res.stats.coalesced, 1);
}
