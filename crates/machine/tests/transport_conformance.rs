//! Transport conformance suite: every behavioral guarantee the machine
//! makes must hold identically over every [`Transport`] backend.
//!
//! Each test runs once per backend (`mpsc`, `ring`). The suite pins the
//! wrapper semantics — FIFO matching, `recv_into` landing, zero-copy
//! transit, epoch rejection, poison wakeup, the deadlock timeout, a
//! killed peer's `PeerDead`, and the empty-mailbox / send-receive-balance
//! invariants — so a future transport (shared-memory segment, fault
//! injector, network) has an executable specification to pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qr3d_machine::{
    Clock, CostParams, Envelope, FaultPlan, FaultyTransport, Machine, MpscTransport, Payload,
    PeerDead, Rank, RingTransport, Transport,
};

/// Every in-repo backend, by name. A deliberately tiny ring capacity is
/// included so the backpressure path is exercised by the same programs
/// that run uncontended over mpsc.
fn backends() -> Vec<(&'static str, Arc<dyn Transport>)> {
    vec![
        ("mpsc", Arc::new(MpscTransport)),
        ("ring", Arc::new(RingTransport::default())),
        ("ring(cap=1)", Arc::new(RingTransport::with_capacity(1))),
    ]
}

fn machine(p: usize, transport: Arc<dyn Transport>) -> Machine {
    Machine::new(p, CostParams::unit()).with_transport(transport)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

#[test]
fn same_key_messages_match_in_fifo_order() {
    for (name, transport) in backends() {
        let out = machine(2, transport).run(|rank| {
            let w = rank.world();
            if rank.id() == 0 {
                for i in 0..20 {
                    rank.send(&w, 1, 7, &[i as f64]);
                }
                Vec::new()
            } else {
                (0..20).map(|_| rank.recv(&w, 0, 7)[0]).collect()
            }
        });
        let expect: Vec<f64> = (0..20).map(|i| i as f64).collect();
        assert_eq!(out.results[1], expect, "[{name}] FIFO per key");
    }
}

#[test]
fn out_of_order_tags_and_sources_match_correctly() {
    for (name, transport) in backends() {
        let out = machine(3, transport).run(|rank| {
            let w = rank.world();
            match rank.id() {
                0 => {
                    rank.send(&w, 2, 10, &[1.0]);
                    rank.send(&w, 2, 20, &[2.0]);
                    0.0
                }
                1 => {
                    rank.send(&w, 2, 10, &[4.0]);
                    0.0
                }
                _ => {
                    // Receive in an order unrelated to arrival order: the
                    // mailbox must hold early arrivals without loss.
                    let a = rank.recv(&w, 1, 10)[0];
                    let b = rank.recv(&w, 0, 20)[0];
                    let c = rank.recv(&w, 0, 10)[0];
                    a * 100.0 + b * 10.0 + c
                }
            }
        });
        assert_eq!(out.results[2], 421.0, "[{name}] out-of-order matching");
    }
}

#[test]
fn recv_into_lands_in_caller_buffer() {
    for (name, transport) in backends() {
        let out = machine(2, transport).run(|rank| {
            let w = rank.world();
            if rank.id() == 0 {
                rank.send(&w, 1, 0, vec![1.0, 2.0, 3.0]);
                Vec::new()
            } else {
                let mut buf = vec![0.0; 5];
                rank.recv_into(&w, 0, 0, &mut buf[1..4]);
                buf
            }
        });
        assert_eq!(
            out.results[1],
            vec![0.0, 1.0, 2.0, 3.0, 0.0],
            "[{name}] recv_into"
        );
    }
}

#[test]
fn transit_is_zero_copy_for_payload_sends() {
    for (name, transport) in backends() {
        let big = Payload::new((0..100_000).map(|i| i as f64).collect());
        let big_ref = &big;
        let out = machine(2, transport).run(move |rank| {
            let w = rank.world();
            if rank.id() == 0 {
                rank.send(&w, 1, 7, big_ref);
                true
            } else {
                let got = rank.recv(&w, 0, 7);
                got.same_buffer(big_ref) && got.as_ptr() == big_ref.as_ptr()
            }
        });
        assert!(out.results[1], "[{name}] payload transit must not copy");
    }
}

#[test]
fn epoch_mismatch_panics_instead_of_misdelivering() {
    // Drive the wrapper over raw endpoints: an envelope stamped with a
    // stale epoch must be rejected loudly, never delivered to the
    // current job. (Through the executor this is unreachable — the
    // per-job invariants catch the leak earlier — which is exactly why
    // the conformance suite needs the backdoor.)
    for (name, transport) in backends() {
        let mut eps = transport.connect(2);
        let receiver_ep = eps.pop().unwrap();
        let mut sender_ep = eps.pop().unwrap();
        sender_ep.send(
            1,
            Envelope {
                src_global: 0,
                comm_id: 0,
                tag: 0,
                epoch: 3, // the receiving rank is in epoch 5
                payload: Payload::new(vec![1.0]),
                clock: Clock::zero(),
            },
            Duration::from_secs(1),
        );
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut rank = Rank::over_endpoint(
                1,
                2,
                CostParams::unit(),
                Duration::from_secs(5),
                receiver_ep,
                5,
            );
            let w = rank.world();
            let _ = rank.recv(&w, 0, 0);
        }));
        let msg = panic_message(result.expect_err("stale epoch must panic"));
        assert!(
            msg.contains("cross-job message leak"),
            "[{name}] got {msg:?}"
        );
    }
}

#[test]
fn poison_envelope_wakes_blocked_receiver() {
    // Same backdoor, opposite direction: an envelope carrying the
    // reserved poison epoch (u64::MAX) must abort a blocked receive
    // immediately, identifying the panicking source rank.
    for (name, transport) in backends() {
        let mut eps = transport.connect(2);
        let receiver_ep = eps.pop().unwrap();
        let mut sender_ep = eps.pop().unwrap();
        assert!(
            sender_ep.try_send(
                1,
                Envelope {
                    src_global: 0,
                    comm_id: 0,
                    tag: 0,
                    epoch: u64::MAX,
                    payload: Payload::empty(),
                    clock: Clock::zero(),
                },
            ),
            "[{name}] poison try_send into an empty fabric must succeed"
        );
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut rank = Rank::over_endpoint(
                1,
                2,
                CostParams::unit(),
                Duration::from_secs(30),
                receiver_ep,
                0,
            );
            let w = rank.world();
            let _ = rank.recv(&w, 0, 0);
        }));
        let msg = panic_message(result.expect_err("poison must abort the receive"));
        assert!(
            msg.contains("rank 0 panicked during this job"),
            "[{name}] got {msg:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "[{name}] poison must wake the receiver, not let it sleep out the timeout"
        );
    }
}

#[test]
fn executor_poison_wakeup_is_prompt_on_every_backend() {
    // The end-to-end version: rank 0 panics mid-job; rank 1 is blocked
    // in recv and must be woken by the poison envelope long before the
    // deadlock window expires, with rank 0's original payload winning.
    for (name, transport) in backends() {
        let m = machine(2, transport);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            m.run(|rank| {
                let w = rank.world();
                if rank.id() == 0 {
                    panic!("deliberate conformance panic");
                }
                let _ = rank.recv(&w, 0, 0);
            })
        }));
        let msg = panic_message(result.expect_err("the panic must propagate"));
        assert!(
            msg.contains("deliberate conformance panic"),
            "[{name}] original payload must win, got {msg:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "[{name}] peers must be woken by poison"
        );
    }
}

#[test]
fn dropped_peer_times_out_instead_of_deadlocking() {
    // Satellite fix: the recv deadlock timeout lives in the
    // transport-independent wrapper, so a peer that exits without
    // sending trips a bounded, diagnostic panic on EVERY backend — the
    // bounded ring must not hang forever.
    for (name, transport) in backends() {
        let m = Machine::new(2, CostParams::unit())
            .with_transport(transport)
            .with_recv_timeout(Duration::from_millis(100));
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            m.run(|rank| {
                let w = rank.world();
                if rank.id() == 1 {
                    // Wait for a message rank 0 never sends; rank 0
                    // simply finishes its (empty) job.
                    let _ = rank.recv(&w, 0, 42);
                }
            })
        }));
        let msg = panic_message(result.expect_err("the blocked recv must give up"));
        assert!(msg.contains("deadlocked"), "[{name}] got {msg:?}");
        // Effective window: 100ms × (1 + log2(2)) = 200ms, plus slack
        // for scheduling. Far below the 60s default that would indicate
        // the timeout was NOT enforced for this backend.
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "[{name}] timed out in {:?} — wrapper timeout not applied",
            start.elapsed()
        );
    }
}

#[test]
fn killed_peer_surfaces_as_a_clean_timeout_on_every_backend() {
    // An injected mid-collective rank death is reported, not timed out:
    // the survivor's receive fails at once with `PeerDead` naming the
    // dead rank, at the default receive window, on EVERY backend. The
    // hard case is ring(cap=1): the survivor keeps sending to the dead
    // rank, whose capacity-1 ring fills after one envelope — the fault
    // layer must drop those sends instead of parking the producer into
    // its "full ring" panic.
    for (name, transport) in backends() {
        let faulty = Arc::new(FaultyTransport::wrap(
            transport,
            FaultPlan::new().kill_at_recv(1, 1),
        ));
        let m = Machine::new(2, CostParams::unit()).with_transport(faulty);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            m.run(|rank| {
                let w = rank.world();
                if rank.id() == 0 {
                    // The first envelope kills rank 1 on delivery; the
                    // rest target a dead rank (and would overfill a
                    // capacity-1 ring if they were forwarded).
                    for i in 0..6 {
                        rank.send(&w, 1, i, &[i as f64]);
                    }
                    let _ = rank.recv(&w, 1, 99);
                } else {
                    let _ = rank.recv(&w, 0, 0);
                }
            })
        }));
        let msg = panic_message(result.expect_err("the survivor must give up"));
        assert!(
            msg.contains("PeerDead(1)"),
            "[{name}] death must surface as PeerDead(1), got {msg:?}"
        );
        assert!(
            !msg.contains("full ring"),
            "[{name}] sender parked behind a dead consumer: {msg:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "[{name}] gave up in {:?} — the death was not reported",
            start.elapsed()
        );
    }
}

#[test]
fn a_dead_peers_envelopes_all_arrive_before_its_death() {
    // Rank 1 sends k envelopes and dies at send k + 1: rank 0 receives
    // all k, and only then learns of the death. On ring(cap=1) the
    // notice finds rank 1's ring still full and the death map stands in.
    let k = 5;
    for (name, transport) in backends() {
        let faulty = Arc::new(FaultyTransport::wrap(
            transport,
            FaultPlan::new().kill_at_send(1, k + 1),
        ));
        let out = machine(2, faulty).run(|rank| {
            let w = rank.world();
            if rank.id() == 1 {
                for i in 0..=k {
                    rank.send(&w, 0, i, &[i as f64]);
                }
                return (Vec::new(), None);
            }
            let mut got = Vec::new();
            for i in 0..=k {
                match rank.recv_or_dead(&w, 1, i) {
                    Ok(p) => got.push(p[0]),
                    Err(dead) => return (got, Some(dead)),
                }
            }
            (got, None)
        });
        let expect: Vec<f64> = (0..k).map(|i| i as f64).collect();
        assert_eq!(
            out.results[0].0, expect,
            "[{name}] every pre-death envelope"
        );
        assert_eq!(
            out.results[0].1,
            Some(PeerDead(1)),
            "[{name}] then the death"
        );
    }
}

#[test]
fn unconsumed_mailbox_message_fails_the_job() {
    for (name, transport) in backends() {
        let m = machine(2, transport);
        let result = catch_unwind(AssertUnwindSafe(|| {
            m.run(|rank| {
                let w = rank.world();
                if rank.id() == 0 {
                    rank.send(&w, 1, 1, &[1.0]);
                    rank.send(&w, 1, 2, &[2.0]);
                } else {
                    // Waiting for tag 2 pulls the tag-1 envelope into
                    // the mailbox, where it is never matched.
                    let _ = rank.recv(&w, 0, 2);
                }
            })
        }));
        let msg = panic_message(result.expect_err("the leak must be detected"));
        assert!(msg.contains("unconsumed message"), "[{name}] got {msg:?}");
    }
}

#[test]
fn sent_but_never_received_fails_the_job() {
    for (name, transport) in backends() {
        let m = machine(2, transport);
        let result = catch_unwind(AssertUnwindSafe(|| {
            m.run(|rank| {
                let w = rank.world();
                if rank.id() == 0 {
                    rank.send(&w, 1, 1, &[1.0]);
                }
                // Rank 1 never receives: the envelope is still inside
                // the transport when the job ends.
            })
        }));
        let msg = panic_message(result.expect_err("the imbalance must be detected"));
        assert!(
            msg.contains("sent but never received"),
            "[{name}] got {msg:?}"
        );
    }
}

#[test]
fn clocks_and_totals_are_bitwise_identical_across_backends() {
    // A communication-heavy program (all-pairs exchange + a reduction
    // chain) measured over every backend: per-rank clocks and totals
    // must agree bit for bit, because all accounting happens above the
    // transport boundary.
    let program = |rank: &mut Rank| {
        let w = rank.world();
        let p = rank.nprocs();
        let me = rank.id();
        rank.charge_flops((me * 17 + 3) as f64);
        for dst in 0..p {
            if dst != me {
                rank.send(&w, dst, me as u64, vec![me as f64; me + 1]);
            }
        }
        let mut sum = 0.0;
        for src in 0..p {
            if src != me {
                sum += rank.recv(&w, src, src as u64).iter().sum::<f64>();
            }
        }
        sum
    };
    let mut reference = None;
    for (name, transport) in backends() {
        let out = Machine::new(4, CostParams::supercomputer())
            .with_transport(transport)
            .run(program);
        let snapshot = (out.results, out.stats.per_rank, out.stats.totals);
        match &reference {
            None => reference = Some(snapshot),
            Some(expect) => {
                assert_eq!(expect.0, snapshot.0, "[{name}] results diverged");
                assert_eq!(expect.1, snapshot.1, "[{name}] per-rank clocks diverged");
                assert_eq!(expect.2, snapshot.2, "[{name}] totals diverged");
            }
        }
    }
}

#[test]
fn warm_executor_reuses_endpoints_across_jobs() {
    // Endpoints survive jobs on every backend: ten back-to-back jobs on
    // one executor, each a full ring shift, all correct and all clean.
    for (name, transport) in backends() {
        let mut ex = machine(3, transport).executor();
        for round in 0u64..10 {
            let out = ex.submit(move |rank| {
                let w = rank.world();
                let next = (rank.id() + 1) % rank.nprocs();
                let prev = (rank.id() + rank.nprocs() - 1) % rank.nprocs();
                rank.send(&w, next, round, &[rank.id() as f64]);
                rank.recv(&w, prev, round)[0] as usize
            });
            assert_eq!(out.results, vec![2, 0, 1], "[{name}] round {round}");
        }
        assert_eq!(ex.jobs_run(), 10, "[{name}]");
        assert!(!ex.is_poisoned(), "[{name}]");
    }
}
