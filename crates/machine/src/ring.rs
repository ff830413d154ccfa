//! [`RingTransport`]: bounded SPSC ring buffers with park/unpark blocking.
//!
//! One fixed-capacity single-producer/single-consumer ring per ordered
//! (sender, receiver) pair — `p²` rings for `p` ranks — in the style of
//! crossbeam's `bounded` channels. Rank `r` is the *only* producer of the
//! rings `r → *` and the *only* consumer of the rings `* → r`, which is
//! what lets each ring run lock-free on two atomic counters:
//!
//! * the producer reads `head` with `Acquire` (has the consumer freed a
//!   slot?), writes the slot, then publishes with a `Release` store of
//!   `tail`;
//! * the consumer reads `tail` with `Acquire` (has the producer published
//!   a slot?), takes the envelope, then frees with a `Release` store of
//!   `head`.
//!
//! Counters increase monotonically (wrapping) and are reduced mod the
//! capacity only for indexing, so full (`tail − head == cap`) and empty
//! (`tail == head`) are unambiguous without a wasted slot.
//!
//! Blocking is park/unpark with the classic missed-wakeup guard: register
//! the waiting thread, **re-check the condition**, then park. Registration
//! goes through a `Mutex`, so a counterparty that updated a counter before
//! our registration is visible to the re-check, and one that updates after
//! finds our handle and unparks it. A receiver waits on one *doorbell*
//! shared by all of its incoming rings (senders ring it after publishing);
//! a sender blocked on a full ring waits on that ring's producer parker
//! (the consumer rings it after freeing a slot).
//!
//! Unlike [`MpscTransport`](crate::MpscTransport), a full ring applies
//! *backpressure*: `send` blocks until the consumer drains a slot, and
//! panics with a diagnostic if that takes longer than the caller's
//! patience window — a sender stuck that long is a deadlock (or a
//! [`RingTransport::with_capacity`] far too small for the schedule's
//! burst size).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::transport::{Endpoint, Envelope, RecvTimedOut, Transport};

/// Default ring capacity: comfortably above the burst any collective in
/// this repo posts to one destination before the peer turns around and
/// receives (the deepest is O(log p) pipelined block sends).
const DEFAULT_RING_CAP: usize = 64;

/// Bounded-buffer message substrate; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct RingTransport {
    cap: usize,
}

impl Default for RingTransport {
    fn default() -> Self {
        RingTransport {
            cap: DEFAULT_RING_CAP,
        }
    }
}

impl RingTransport {
    /// A ring transport with `cap` envelope slots per (sender, receiver)
    /// pair.
    ///
    /// # Panics
    /// If `cap` is zero (a zero-capacity ring could never deliver).
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap >= 1, "ring capacity must be at least 1");
        RingTransport { cap }
    }

    /// The configured per-ring capacity in envelopes.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

impl Transport for RingTransport {
    fn name(&self) -> &'static str {
        "ring"
    }

    fn connect(&self, p: usize) -> Vec<Box<dyn Endpoint>> {
        // rings[dst][src]: the SPSC ring carrying src → dst traffic.
        let rings: Vec<Vec<Arc<Ring>>> = (0..p)
            .map(|_| (0..p).map(|_| Arc::new(Ring::new(self.cap))).collect())
            .collect();
        // One doorbell per consumer, shared by all of its incoming rings.
        let doorbells: Arc<Vec<Parker>> = Arc::new((0..p).map(|_| Parker::new()).collect());
        (0..p)
            .map(|me| {
                Box::new(RingEndpoint {
                    me,
                    incoming: rings[me].clone(),
                    outgoing: (0..p).map(|dst| Arc::clone(&rings[dst][me])).collect(),
                    doorbells: Arc::clone(&doorbells),
                    next_scan: 0,
                    cap: self.cap,
                }) as Box<dyn Endpoint>
            })
            .collect()
    }
}

/// A single envelope slot. The SPSC protocol guarantees exclusive access:
/// the producer touches a slot only between reserving it (fullness check)
/// and publishing it (`tail` store); the consumer only between observing
/// it published (`tail` load) and freeing it (`head` store).
struct Slot(UnsafeCell<Option<Envelope>>);

/// One fixed-capacity SPSC ring.
struct Ring {
    slots: Box<[Slot]>,
    /// Consumer cursor: next index to pop (monotonic, wrapping).
    head: AtomicUsize,
    /// Producer cursor: next index to push (monotonic, wrapping).
    tail: AtomicUsize,
    /// Where the producer parks when the ring is full; the consumer
    /// rings it after freeing a slot.
    producer: Parker,
}

// SAFETY: the `UnsafeCell` slots are what keep `Ring` from being `Sync`
// automatically. Access is disjoint by construction (see `Slot`): the
// unique producer and unique consumer never touch the same slot at the
// same time, and the Acquire/Release counter handoff orders their
// accesses. Everything else in the struct is already `Sync`.
unsafe impl Sync for Ring {}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            slots: (0..cap).map(|_| Slot(UnsafeCell::new(None))).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            producer: Parker::new(),
        }
    }

    /// Producer side: publish `env`, or hand it back if the ring is full.
    /// Must only be called by the ring's unique producer thread.
    fn try_push(&self, env: Envelope) -> Result<(), Envelope> {
        let cap = self.slots.len();
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == cap {
            return Err(env);
        }
        // SAFETY: `tail - head < cap`, so slot `tail % cap` is free (the
        // consumer has taken and freed any previous occupant — its
        // `Release` store of `head` is visible through the `Acquire`
        // load above) and unpublished, hence ours exclusively.
        unsafe {
            *self.slots[tail % cap].0.get() = Some(env);
        }
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: take the oldest envelope, if any. Must only be
    /// called by the ring's unique consumer thread.
    fn try_pop(&self) -> Option<Envelope> {
        let cap = self.slots.len();
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head < tail`, so slot `head % cap` is published and
        // the producer will not touch it again until we free it below;
        // the `Acquire` load of `tail` makes the producer's write to the
        // slot visible.
        let env = unsafe { (*self.slots[head % cap].0.get()).take() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(env.expect("published ring slot was empty"))
    }
}

/// A one-thread wait registry. `register` + re-check + `park` on the
/// waiting side, condition-update + `wake` on the signaling side; the
/// `Mutex` makes the two sides' orderings meet (see module docs).
struct Parker {
    waiting: Mutex<Option<Thread>>,
}

impl Parker {
    fn new() -> Self {
        Parker {
            waiting: Mutex::new(None),
        }
    }

    /// Announce that the current thread is about to park.
    fn register(&self) {
        *self.waiting.lock().unwrap() = Some(thread::current());
    }

    /// Withdraw a registration (condition met without parking, or
    /// giving up on a timeout).
    fn clear(&self) {
        *self.waiting.lock().unwrap() = None;
    }

    /// Unpark the registered thread, if any. A wake with nobody
    /// registered is a no-op — the counterparty's re-check will see the
    /// updated condition instead.
    fn wake(&self) {
        if let Some(t) = self.waiting.lock().unwrap().take() {
            t.unpark();
        }
    }
}

struct RingEndpoint {
    me: usize,
    /// `incoming[src]`: the ring carrying `src → me`; we are its consumer.
    incoming: Vec<Arc<Ring>>,
    /// `outgoing[dst]`: the ring carrying `me → dst`; we are its producer.
    outgoing: Vec<Arc<Ring>>,
    /// Every rank's receive doorbell; rung after publishing to `dst`.
    doorbells: Arc<Vec<Parker>>,
    /// Round-robin scan start, so one chatty source cannot starve others.
    next_scan: usize,
    cap: usize,
}

impl RingEndpoint {
    /// One full round-robin pass over the incoming rings. On a hit,
    /// advances the fairness cursor and rings the freed ring's producer
    /// parker (a sender may be blocked on the slot we just freed).
    fn scan(&mut self) -> Option<Envelope> {
        let p = self.incoming.len();
        for k in 0..p {
            let src = (self.next_scan + k) % p;
            if let Some(env) = self.incoming[src].try_pop() {
                self.next_scan = (src + 1) % p;
                self.incoming[src].producer.wake();
                return Some(env);
            }
        }
        None
    }
}

impl Endpoint for RingEndpoint {
    fn send(&mut self, dst: usize, env: Envelope, patience: Duration) {
        let ring = Arc::clone(&self.outgoing[dst]);
        // `None` when `now + patience` overflows `Instant` (e.g. the
        // wrapper's saturated Duration::MAX window): wait unboundedly.
        let deadline = Instant::now().checked_add(patience);
        let mut env = env;
        loop {
            match ring.try_push(env) {
                Ok(()) => {
                    self.doorbells[dst].wake();
                    return;
                }
                Err(back) => env = back,
            }
            // Full: register, re-check (missed-wakeup guard), then park.
            ring.producer.register();
            match ring.try_push(env) {
                Ok(()) => {
                    ring.producer.clear();
                    self.doorbells[dst].wake();
                    return;
                }
                Err(back) => env = back,
            }
            match deadline {
                None => thread::park(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        ring.producer.clear();
                        panic!(
                            "rank {} send to rank {dst} blocked for {patience:?} on a full \
                             ring (capacity {} envelopes): receiver is not draining — \
                             deadlock, or a ring capacity too small for this schedule",
                            self.me, self.cap
                        );
                    }
                    thread::park_timeout(d - now);
                }
            }
        }
    }

    fn try_send(&mut self, dst: usize, env: Envelope) -> bool {
        if self.outgoing[dst].try_push(env).is_ok() {
            self.doorbells[dst].wake();
            true
        } else {
            false
        }
    }

    fn recv(&mut self, timeout: Duration) -> Result<Envelope, RecvTimedOut> {
        if let Some(env) = self.scan() {
            return Ok(env);
        }
        let deadline = Instant::now().checked_add(timeout);
        loop {
            // Register, re-scan (missed-wakeup guard), then park.
            self.doorbells[self.me].register();
            if let Some(env) = self.scan() {
                self.doorbells[self.me].clear();
                return Ok(env);
            }
            match deadline {
                None => thread::park(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        self.doorbells[self.me].clear();
                        return Err(RecvTimedOut);
                    }
                    thread::park_timeout(d - now);
                }
            }
            // A park can return spuriously (or via a stale unpark token
            // from an earlier exchange); the loop re-registers and
            // re-scans, so spurious wakeups only cost a pass.
            if let Some(env) = self.scan() {
                self.doorbells[self.me].clear();
                return Ok(env);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::payload::Payload;

    fn env(src: usize, tag: u64, val: f64) -> Envelope {
        Envelope {
            src_global: src,
            comm_id: 0,
            tag,
            epoch: 0,
            payload: Payload::new(vec![val]),
            clock: Clock::zero(),
        }
    }

    #[test]
    fn fifo_order_across_wraparound() {
        // Capacity 2 with 50 messages forces the cursors to wrap the
        // slot array many times; order must survive.
        let transport = RingTransport::with_capacity(2);
        let mut eps = transport.connect(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let sender = thread::spawn(move || {
            for i in 0..50 {
                e0.send(1, env(0, 0, i as f64), Duration::from_secs(5));
            }
        });
        for i in 0..50 {
            let got = e1.recv(Duration::from_secs(5)).unwrap();
            assert_eq!(got.payload, vec![i as f64]);
        }
        sender.join().unwrap();
        assert_eq!(e1.recv(Duration::from_millis(10)), Err(RecvTimedOut));
    }

    #[test]
    fn full_ring_applies_backpressure() {
        let transport = RingTransport::with_capacity(1);
        let mut eps = transport.connect(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        // First send fills the ring; the second must block until the
        // receiver drains, not drop or reorder.
        e0.send(1, env(0, 0, 1.0), Duration::from_secs(5));
        assert!(
            !e0.try_send(1, env(0, 0, 99.0)),
            "full ring rejects try_send"
        );
        let blocked = thread::spawn(move || {
            let t0 = Instant::now();
            e0.send(1, env(0, 0, 2.0), Duration::from_secs(5));
            t0.elapsed()
        });
        thread::sleep(Duration::from_millis(50));
        assert_eq!(e1.recv(Duration::from_secs(5)).unwrap().payload, vec![1.0]);
        assert_eq!(e1.recv(Duration::from_secs(5)).unwrap().payload, vec![2.0]);
        let waited = blocked.join().unwrap();
        assert!(
            waited >= Duration::from_millis(30),
            "second send should have blocked (~50ms), waited {waited:?}"
        );
    }

    #[test]
    #[should_panic(expected = "full ring")]
    fn blocked_send_panics_past_patience() {
        let transport = RingTransport::with_capacity(1);
        let mut eps = transport.connect(2);
        let mut e0 = eps.remove(0);
        e0.send(1, env(0, 0, 1.0), Duration::from_millis(50));
        // Nobody ever receives: the second send must give up loudly.
        e0.send(1, env(0, 0, 2.0), Duration::from_millis(50));
    }

    #[test]
    fn recv_times_out_when_nothing_arrives() {
        let transport = RingTransport::default();
        let mut eps = transport.connect(1);
        let t0 = Instant::now();
        assert_eq!(eps[0].recv(Duration::from_millis(40)), Err(RecvTimedOut));
        assert!(t0.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn parked_receiver_is_woken_by_send() {
        let transport = RingTransport::default();
        let mut eps = transport.connect(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let receiver = thread::spawn(move || {
            // Long timeout: the test only passes quickly if the sender's
            // doorbell actually wakes the parked receiver.
            e1.recv(Duration::from_secs(30)).unwrap()
        });
        thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        e0.send(1, env(0, 3, 7.0), Duration::from_secs(1));
        let got = receiver.join().unwrap();
        assert_eq!(got.payload, vec![7.0]);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "receiver should wake promptly, not sleep out its timeout"
        );
    }

    #[test]
    fn self_send_is_delivered() {
        let transport = RingTransport::with_capacity(1);
        let mut eps = transport.connect(1);
        eps[0].send(0, env(0, 1, 5.0), Duration::from_secs(1));
        let got = eps[0].recv(Duration::from_secs(1)).unwrap();
        assert_eq!(got.payload, vec![5.0]);
    }

    #[test]
    fn transit_preserves_payload_allocation() {
        let transport = RingTransport::default();
        let mut eps = transport.connect(1);
        let p = Payload::new(vec![3.0; 1024]);
        let e = Envelope {
            payload: p.clone(),
            ..env(0, 0, 0.0)
        };
        eps[0].send(0, e, Duration::from_secs(1));
        let got = eps[0].recv(Duration::from_secs(1)).unwrap();
        assert!(got.payload.same_buffer(&p), "transit must not copy words");
    }

    #[test]
    fn round_robin_scan_is_fair() {
        // With both sources backlogged, consecutive receives must
        // alternate sources rather than drain one ring first.
        let transport = RingTransport::default();
        let mut eps = transport.connect(3);
        let mut e2 = eps.pop().unwrap();
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        for i in 0..3 {
            e0.send(2, env(0, 0, i as f64), Duration::from_secs(1));
            e1.send(2, env(1, 0, i as f64), Duration::from_secs(1));
        }
        let srcs: Vec<usize> = (0..6)
            .map(|_| e2.recv(Duration::from_secs(1)).unwrap().src_global)
            .collect();
        assert_eq!(srcs, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = RingTransport::with_capacity(0);
    }

    /// Envelopes each producer sends in the hammer tests below: enough
    /// to wrap a capacity-1 or capacity-2 ring tens of thousands of
    /// times, so a slot handed over before its write is visible, or
    /// freed twice, shows up as a wrong, lost or repeated envelope.
    const HAMMER: u64 = 20_000;

    /// Keep the hammer's threads on known cores when there are two or
    /// more, so producer and consumer really run concurrently (a failed
    /// pin leaves the thread where the scheduler put it).
    fn pin(i: usize) {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        if cores >= 2 {
            qr3d_matrix::affinity::pin_current_to(i % cores);
        }
    }

    /// Receive `HAMMER` envelopes from each of `producers` sources and
    /// check each source's tags arrive as 0, 1, 2, …: FIFO per source,
    /// nothing lost, nothing twice, and nothing after the last.
    fn drain_in_order(rx: &mut dyn Endpoint, producers: usize) {
        let mut next = vec![0u64; producers];
        for _ in 0..producers as u64 * HAMMER {
            let got = rx
                .recv(Duration::from_secs(30))
                .expect("a producer stalled");
            let src = got.src_global;
            assert_eq!(got.tag, next[src], "source {src} out of order");
            assert_eq!(got.payload, vec![got.tag as f64], "source {src} slot torn");
            next[src] += 1;
        }
        assert_eq!(rx.recv(Duration::from_millis(10)), Err(RecvTimedOut));
    }

    /// Send `HAMMER` envelopes tagged 0, 1, 2, … from `src` to `dst`.
    fn produce(tx: &mut dyn Endpoint, src: usize, dst: usize) {
        for i in 0..HAMMER {
            tx.send(dst, env(src, i, i as f64), Duration::from_secs(30));
        }
    }

    #[test]
    fn hammer_seq() {
        // One thread fills the ring, finds it full, and drains it, over
        // and over: every slot is reused on every round.
        for cap in [1usize, 2] {
            let mut eps = RingTransport::with_capacity(cap).connect(2);
            let mut rx = eps.pop().unwrap();
            let mut tx = eps.pop().unwrap();
            for round in 0..HAMMER / cap as u64 {
                let first = round * cap as u64;
                for i in first..first + cap as u64 {
                    tx.send(1, env(0, i, i as f64), Duration::from_secs(1));
                }
                assert!(
                    !tx.try_send(1, env(0, u64::MAX, 0.0)),
                    "cap {cap}: not full"
                );
                for i in first..first + cap as u64 {
                    let got = rx.recv(Duration::from_secs(1)).unwrap();
                    assert_eq!(got.tag, i, "cap {cap}");
                    assert_eq!(got.payload, vec![i as f64], "cap {cap}");
                }
            }
            assert_eq!(rx.recv(Duration::from_millis(10)), Err(RecvTimedOut));
        }
    }

    #[test]
    fn hammer_spsc() {
        // A producer and a consumer on two threads (two cores where the
        // host has them): every handoff crosses the cursors' pairing.
        for cap in [1usize, 2] {
            let mut eps = RingTransport::with_capacity(cap).connect(2);
            let mut rx = eps.pop().unwrap();
            let mut tx = eps.pop().unwrap();
            thread::scope(|s| {
                s.spawn(|| {
                    pin(0);
                    produce(tx.as_mut(), 0, 1);
                });
                s.spawn(|| {
                    pin(1);
                    drain_in_order(rx.as_mut(), 1);
                });
            });
        }
    }

    #[test]
    fn hammer_mpsc() {
        // Four producers into one receiver: four rings, one doorbell,
        // and the receiver's round-robin scan over all of them.
        const PRODUCERS: usize = 4;
        for cap in [1usize, 2] {
            let mut eps = RingTransport::with_capacity(cap).connect(PRODUCERS + 1);
            let mut rx = eps.pop().unwrap();
            thread::scope(|s| {
                for (src, tx) in eps.iter_mut().enumerate() {
                    s.spawn(move || {
                        pin(src);
                        produce(tx.as_mut(), src, PRODUCERS);
                    });
                }
                s.spawn(|| {
                    pin(PRODUCERS);
                    drain_in_order(rx.as_mut(), PRODUCERS);
                });
            });
        }
    }
}
