//! Serving many *clients*: a [`QrService`] pooling warm executors
//! behind admission control and a coalescing stage.
//!
//! [`Session`] (see `examples/qr_service.rs`) is one client's warm
//! server. This example is the next layer up — many concurrent callers
//! share one service:
//!
//! * each client thread submits independently and blocks on its own
//!   [`JobHandle`];
//! * the service groups same-shape requests into buckets and serves
//!   each bucket as ONE fused `factor_batch` — concurrent load *turns
//!   into* batch amortization;
//! * a rank death poisons only the executor that ran its bucket; the
//!   pool replaces it and keeps serving (demonstrated below with a
//!   [`FaultPlan`] on a second service).
//!
//! Run with: `cargo run --release --example qr_service_pool`

use std::sync::Arc;
use std::time::Duration;

use qr3d::prelude::*;
use qr3d_machine::{FaultPlan, FaultyTransport, Machine};

fn main() {
    let (m, n, p) = (512usize, 16usize, 8usize);
    let clients = 8usize;
    let reqs_each = 4usize;

    let params = FactorParams::default();
    let cfg = ServiceConfig::new(p, params)
        .with_pool(2)
        .with_queue_cap(64)
        .with_admission(Admission::Block {
            timeout: Duration::from_secs(30),
        })
        .with_coalescing(4, Duration::from_millis(1));
    let svc = Arc::new(QrService::start(cfg));

    // -- Concurrent closed-loop clients, all the same shape: the
    //    coalescer fuses their requests into shared reduction trees. --
    std::thread::scope(|s| {
        for c in 0..clients {
            let svc = Arc::clone(&svc);
            s.spawn(move || {
                let a = Matrix::random(m, n, c as u64);
                for _ in 0..reqs_each {
                    let handle = svc
                        .submit_with(a.clone(), QrBackend::Tsqr)
                        .expect("blocking admission");
                    let res = handle.wait();
                    let out = res.output.expect("full-rank input");
                    assert!(out.residual(&a) < 1e-11);
                }
            });
        }
    });

    let stats = svc.stats();
    println!(
        "{} requests from {clients} clients → {} dispatches ({} fused); \
         {} requests shared a bucket",
        stats.completed, stats.batches, stats.fused_batches, stats.coalesced_jobs
    );

    // -- Fault isolation: on a pool whose fabric kills rank 1 at its
    //    first send, the bucket that loses the rank fails alone (its
    //    peers are told of the death and give up), its executor is
    //    drained and replaced, and the service never stops serving. The
    //    rank threads' panic reports are expected; mute them. --
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let rank_thread = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("rank-"));
        if !rank_thread {
            default_hook(info);
        }
    }));
    let machine = Machine::new(p, params.machine);
    let plan = FaultPlan::new().kill_at_send(1, 1);
    let faulty = FaultyTransport::wrap(Arc::clone(machine.transport()), plan);
    let svc = QrService::start_on_machine(machine.with_transport(Arc::new(faulty)), cfg);
    let boom = svc
        .submit_with(Matrix::random(m, n, 98), QrBackend::Tsqr)
        .expect("admitted");
    match boom.wait().output {
        Err(ServiceError::JobPanicked(msg)) => println!("fault contained: {msg}"),
        other => panic!("expected a contained panic, got {other:?}"),
    }
    let again = svc
        .submit_with(Matrix::random(m, n, 99), QrBackend::Tsqr)
        .expect("still admitting");
    assert!(again.wait().output.is_ok());
    let stats = svc.stats();
    println!(
        "after the fault: {} executor(s) replaced, {} total completions — \
         the pool kept serving",
        stats.executors_replaced, stats.completed
    );
}
