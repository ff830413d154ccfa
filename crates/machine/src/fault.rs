//! Deterministic fault injection: [`FaultyTransport`] wraps any inner
//! [`Transport`] and executes a [`FaultPlan`] against the envelope
//! stream, so every failure mode the fault-tolerant layers must survive
//! is reproducible in tests — on both the mpsc and ring backends.
//!
//! The decorator sits *below* the rank wrapper, at the same cut as the
//! transports themselves: it sees raw [`Envelope`]s and knows nothing of
//! mailboxes, clocks, or epochs. A fault is a one-shot trigger bound to
//! one world rank:
//!
//! * **kill at send/recv number k** — the rank's k-th blocking send (or
//!   k-th delivered envelope) marks it dead; the envelope involved is
//!   discarded.
//! * **kill at tree level l** — the first envelope whose tag carries
//!   TSQR tree depth `l` (the `(op << 8) | (depth << 1) | phase` tag
//!   convention) through the rank, in either direction, marks it dead.
//!
//! Every fault is a kill: a fail-stop rank death is the one failure the
//! fault-tolerant layers recover from.
//!
//! Death is *silent and sticky*, modelling a machine that lost power:
//! a dead rank's sends are swallowed (including poison wakeups — a dead
//! machine cannot warn its peers), its receives report
//! [`RecvTimedOut`] immediately, and — crucially for the bounded ring
//! backend — *senders targeting a dead rank drop instead of parking*,
//! so a full SPSC ring behind a dead consumer surfaces as the peer's
//! clean receive timeout rather than a "full ring" sender panic, even
//! on one-slot rings.
//!
//! Triggers are armed on the transport and consumed **globally, once**:
//! a fresh [`connect`](Transport::connect) (e.g. a replacement executor
//! dispatched by the service retry policy) starts with whatever faults
//! remain unfired, so a job killed by an injected fault re-runs clean on
//! the replacement fabric. A plan is built in code and armed with
//! [`FaultyTransport::wrap`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::executor::POISON_EPOCH;
use crate::transport::{Endpoint, Envelope, RecvTimedOut, Transport};

/// Tags whose depth bits (`(tag >> 1) & 0x7F`) are at or above this
/// value are control-plane / auxiliary traffic, never tree reduction
/// messages; level triggers ignore them. The fault-tolerant TSQR path
/// allocates its non-tree tags from this range so an armed
/// `kill_at_level` can only ever fire on a genuine tree envelope.
pub const AUX_DEPTH_BASE: u64 = 0x70;

#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// The rank's k-th blocking send (1-based; `try_send` and poison
    /// traffic are not counted).
    Send(u64),
    /// The rank's k-th delivered envelope (1-based; poison not counted).
    Recv(u64),
    /// The first envelope through the rank (either direction) whose tag
    /// carries TSQR tree depth `l` (depths below [`AUX_DEPTH_BASE`]).
    Level(u64),
}

/// Kill `rank` when `trigger` matches one of its envelopes.
#[derive(Debug, Clone, Copy)]
struct Fault {
    rank: usize,
    trigger: Trigger,
}

/// A deterministic schedule of rank deaths, built with the `kill_at_*`
/// methods. Every fault fires at most once.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Kill `rank` at its `k`-th blocking send (1-based). The envelope
    /// being sent is discarded.
    pub fn kill_at_send(mut self, rank: usize, k: u64) -> Self {
        self.faults.push(Fault {
            rank,
            trigger: Trigger::Send(k),
        });
        self
    }

    /// Kill `rank` at its `k`-th delivered envelope (1-based). The
    /// envelope is discarded.
    pub fn kill_at_recv(mut self, rank: usize, k: u64) -> Self {
        self.faults.push(Fault {
            rank,
            trigger: Trigger::Recv(k),
        });
        self
    }

    /// Kill `rank` at the first tree-reduction envelope of depth
    /// `level` that passes through it, in either direction. Matches the
    /// TSQR tag convention `(op << 8) | (depth << 1) | phase`; `level`
    /// must be below [`AUX_DEPTH_BASE`].
    pub fn kill_at_level(mut self, rank: usize, level: u64) -> Self {
        assert!(
            level < AUX_DEPTH_BASE,
            "tree levels at or above {AUX_DEPTH_BASE:#x} are reserved for control-plane tags"
        );
        self.faults.push(Fault {
            rank,
            trigger: Trigger::Level(level),
        });
        self
    }
}

/// A [`Transport`] decorator that injects the faults of a [`FaultPlan`]
/// into the envelope stream of any inner transport. See the module docs
/// for the death model; [`Transport::is_lossy`] reports `true` so the
/// executor relaxes its conservation invariants (dropped envelopes and
/// unread mailboxes are *expected* under injected faults).
#[derive(Debug)]
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    armed: Arc<Mutex<Vec<Fault>>>,
}

impl FaultyTransport {
    /// Wrap `inner`, arming every fault in `plan`. Each fault fires at
    /// most once across the transport's lifetime, however many times it
    /// is connected.
    pub fn wrap(inner: Arc<dyn Transport>, plan: FaultPlan) -> Self {
        Self {
            inner,
            armed: Arc::new(Mutex::new(plan.faults)),
        }
    }

    /// Number of faults still armed (not yet fired).
    pub fn armed_len(&self) -> usize {
        self.armed.lock().unwrap().len()
    }
}

impl Transport for FaultyTransport {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn is_lossy(&self) -> bool {
        true
    }

    fn connect(&self, p: usize) -> Vec<Box<dyn Endpoint>> {
        let dead: Arc<Vec<AtomicBool>> = Arc::new((0..p).map(|_| AtomicBool::new(false)).collect());
        self.inner
            .connect(p)
            .into_iter()
            .enumerate()
            .map(|(me, inner)| {
                Box::new(FaultyEndpoint {
                    me,
                    inner,
                    dead: Arc::clone(&dead),
                    armed: Arc::clone(&self.armed),
                    sends: 0,
                    recvs: 0,
                }) as Box<dyn Endpoint>
            })
            .collect()
    }
}

struct FaultyEndpoint {
    me: usize,
    inner: Box<dyn Endpoint>,
    /// Shared per-fabric death map: `dead[r]` is set when rank r's kill
    /// trigger fires, and read by *every* endpoint so senders drop
    /// instead of blocking behind a dead consumer.
    dead: Arc<Vec<AtomicBool>>,
    /// The transport-wide armed fault list; firing removes the fault.
    armed: Arc<Mutex<Vec<Fault>>>,
    sends: u64,
    recvs: u64,
}

/// Tree depth carried by a TSQR-convention tag, if any (see
/// [`AUX_DEPTH_BASE`]).
fn tree_depth(tag: u64) -> Option<u64> {
    let depth = (tag >> 1) & 0x7F;
    (depth < AUX_DEPTH_BASE).then_some(depth)
}

impl FaultyEndpoint {
    fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::Acquire)
    }

    fn mark_dead(&self) {
        self.dead[self.me].store(true, Ordering::Release);
    }

    /// Fire (and consume) the first armed fault matching this rank's
    /// `count`-th send (`is_send`) or delivery of an envelope tagged
    /// `tag`: `true` when one did, and the rank dies.
    fn fire(&self, count: u64, is_send: bool, tag: u64) -> bool {
        let mut armed = self.armed.lock().unwrap();
        let hit = armed.iter().position(|f| {
            f.rank == self.me
                && match f.trigger {
                    Trigger::Send(k) => is_send && count == k,
                    Trigger::Recv(k) => !is_send && count == k,
                    Trigger::Level(l) => tree_depth(tag) == Some(l),
                }
        });
        hit.map(|i| armed.swap_remove(i)).is_some()
    }
}

impl Endpoint for FaultyEndpoint {
    fn send(&mut self, dst: usize, env: Envelope, patience: Duration) {
        if env.epoch == POISON_EPOCH {
            // Poison wakeups are control traffic: uncounted, untriggered,
            // but still subject to the death model below.
        } else {
            self.sends += 1;
            if self.fire(self.sends, true, env.tag) {
                self.mark_dead();
                return; // the dying machine's envelope is lost
            }
        }
        // A dead machine sends nothing; a live machine never blocks
        // behind a dead consumer (its ring would fill forever) — in both
        // cases the envelope vanishes and the peer's receive timeout is
        // the observable signal.
        if self.is_dead(self.me) || self.is_dead(dst) {
            return;
        }
        self.inner.send(dst, env, patience);
    }

    fn try_send(&mut self, dst: usize, env: Envelope) -> bool {
        if self.is_dead(self.me) || self.is_dead(dst) {
            // Swallowed: a dead machine cannot warn its peers, and a
            // dead peer cannot be warned. Report success so panic paths
            // never retry into the void.
            return true;
        }
        self.inner.try_send(dst, env)
    }

    fn recv(&mut self, timeout: Duration) -> Result<Envelope, RecvTimedOut> {
        if self.is_dead(self.me) {
            return Err(RecvTimedOut);
        }
        let env = self.inner.recv(timeout)?;
        if env.epoch == POISON_EPOCH {
            return Ok(env);
        }
        self.recvs += 1;
        if self.fire(self.recvs, false, env.tag) {
            // The envelope died with the machine that was receiving it:
            // discarded, never surfaced to the mailbox.
            self.mark_dead();
            return Err(RecvTimedOut);
        }
        Ok(env)
    }

    fn is_dead(&self) -> bool {
        self.dead[self.me].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::payload::Payload;
    use crate::transport::MpscTransport;
    use crate::RingTransport;

    fn env(src: usize, tag: u64) -> Envelope {
        Envelope {
            src_global: src,
            comm_id: 0,
            tag,
            epoch: 0,
            payload: Payload::new(vec![src as f64]),
            clock: Clock::zero(),
        }
    }

    fn short() -> Duration {
        Duration::from_millis(50)
    }

    #[test]
    fn kill_at_send_silences_the_rank() {
        let t = FaultyTransport::wrap(Arc::new(MpscTransport), FaultPlan::new().kill_at_send(0, 2));
        let mut eps = t.connect(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(1, env(0, 1), short());
        e0.send(1, env(0, 3), short()); // 2nd send: killed, envelope lost
        e0.send(1, env(0, 5), short()); // dead: swallowed
        assert!(e0.is_dead());
        assert_eq!(e1.recv(short()).unwrap().tag, 1);
        assert!(e1.recv(short()).is_err(), "later sends died with the rank");
        assert!(e0.recv(short()).is_err(), "dead rank receives nothing");
        assert_eq!(t.armed_len(), 0, "trigger consumed");
    }

    #[test]
    fn kill_at_recv_discards_the_envelope() {
        let t = FaultyTransport::wrap(Arc::new(MpscTransport), FaultPlan::new().kill_at_recv(1, 2));
        let mut eps = t.connect(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(1, env(0, 1), short());
        e0.send(1, env(0, 3), short());
        assert_eq!(e1.recv(short()).unwrap().tag, 1);
        assert!(e1.recv(short()).is_err(), "2nd delivery kills the receiver");
        assert!(e1.is_dead());
    }

    #[test]
    fn kill_at_level_matches_tree_depth_in_both_directions() {
        // Tag convention: (op << 8) | (depth << 1) | phase.
        let tag = |depth: u64, phase: u64| (9u64 << 8) | (depth << 1) | phase;
        let t = FaultyTransport::wrap(
            Arc::new(MpscTransport),
            FaultPlan::new().kill_at_level(0, 1).kill_at_level(1, 2),
        );
        let mut eps = t.connect(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        // Aux-range tags never trigger.
        e0.send(1, env(0, (9u64 << 8) | (AUX_DEPTH_BASE << 1)), short());
        assert!(e1.recv(short()).is_ok());
        // Depth 3 ≠ any armed level: passes.
        e0.send(1, env(0, tag(3, 0)), short());
        assert!(e1.recv(short()).is_ok());
        // Depth 2 kills rank 1 on the receive side.
        e0.send(1, env(0, tag(2, 0)), short());
        assert!(e1.recv(short()).is_err());
        assert!(e1.is_dead());
        // Depth 1 kills rank 0 on the send side.
        e0.send(1, env(0, tag(1, 0)), short());
        assert!(e0.is_dead());
    }

    #[test]
    fn sender_never_parks_behind_a_dead_rank_even_at_ring_cap_one() {
        let t = FaultyTransport::wrap(
            Arc::new(RingTransport::with_capacity(1)),
            FaultPlan::new().kill_at_recv(1, 1),
        );
        let mut eps = t.connect(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(1, env(0, 1), short());
        assert!(e1.recv(short()).is_err(), "first delivery kills rank 1");
        // Rank 1 is dead with capacity-1 rings; these sends must drop
        // instead of parking until the "full ring" panic.
        for i in 0..8 {
            e0.send(1, env(0, 3 + i), short());
        }
        assert!(!e0.is_dead());
        assert!(
            e0.recv(short()).is_err(),
            "dead peer maps to a clean timeout"
        );
    }

    #[test]
    fn triggers_survive_reconnect_and_fire_once_globally() {
        let t = FaultyTransport::wrap(Arc::new(MpscTransport), FaultPlan::new().kill_at_send(0, 1));
        // First fabric: the fault fires.
        {
            let mut eps = t.connect(2);
            let mut e0 = eps.remove(0);
            e0.send(1, env(0, 1), short());
            assert!(e0.is_dead());
        }
        assert_eq!(t.armed_len(), 0);
        // Replacement fabric: fresh death map, no faults left — clean.
        let mut eps = t.connect(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(1, env(0, 1), short());
        assert!(!e0.is_dead());
        assert_eq!(e1.recv(short()).unwrap().tag, 1);
    }

    #[test]
    fn poison_traffic_is_neither_counted_nor_triggered() {
        let t = FaultyTransport::wrap(
            Arc::new(MpscTransport),
            FaultPlan::new().kill_at_send(0, 1).kill_at_recv(1, 1),
        );
        let mut eps = t.connect(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let poison = Envelope {
            epoch: POISON_EPOCH,
            ..env(0, 0)
        };
        e0.send(1, poison, short());
        assert!(!e0.is_dead(), "poison send is uncounted");
        let got = e1.recv(short()).unwrap();
        assert_eq!(got.epoch, POISON_EPOCH);
        assert!(!e1.is_dead(), "poison delivery is uncounted");
    }
}
