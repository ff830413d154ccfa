//! The pluggable message substrate: [`Transport`] builds per-rank
//! [`Endpoint`]s, and everything above this boundary is
//! transport-independent.
//!
//! The paper's (F, W, S) analysis only assumes point-to-point sends with
//! α/β costs — nothing about *how* the words move. This module cuts the
//! codebase at exactly that line:
//!
//! * **Below** the boundary, a [`Transport`] connects `p` ranks and each
//!   [`Endpoint`] moves opaque [`Envelope`]s: `send` delivers to a
//!   destination rank, `recv` blocks (bounded by a caller-supplied
//!   timeout) for the next arrival from *any* source. Transports never
//!   inspect payloads, match tags, or touch clocks.
//! * **Above** the boundary, [`Rank`](crate::Rank) (the
//!   transport-independent wrapper) owns everything semantic: tag/key
//!   matching through the per-rank mailbox, epoch leak
//!   detection, poison wakeups, the deadlock timeout policy, and the
//!   deterministic α-β-γ clock accounting. Swapping transports therefore
//!   cannot change a single charged flop, word, or message — the
//!   bench gate pins `ratio/…_msgs_ring_over_mpsc` at exactly 1.
//!
//! Two in-repo backends implement the trait today: [`MpscTransport`]
//! (unbounded `std::sync::mpsc` channels — the original fabric, extracted)
//! and [`RingTransport`](crate::RingTransport) (bounded SPSC ring buffers
//! with park/unpark blocking). Select one per [`Machine`](crate::Machine)
//! with [`Machine::with_transport`](crate::Machine::with_transport) or the
//! [`TRANSPORT_ENV`] environment variable; a future network, shared-memory
//! segment, or fault-injecting transport plugs in the same way.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use crate::clock::Clock;
use crate::payload::Payload;

/// Environment variable selecting the message substrate for machines
/// built without an explicit
/// [`Machine::with_transport`](crate::Machine::with_transport) call:
/// `mpsc` (default) or `ring`. Read once at
/// [`Machine::new`](crate::Machine::new).
pub const TRANSPORT_ENV: &str = "QR3D_TRANSPORT";

/// A message on the wire: a shared payload view plus delivery metadata.
///
/// The sender's [`Clock`] snapshot (taken *after* the send was charged)
/// rides along so the receiver can merge critical paths; `epoch` stamps
/// which executor job the message belongs to, so traffic from
/// consecutive jobs sharing one fabric can never be confused (receives
/// reject foreign epochs). Transports treat all fields as opaque cargo.
#[derive(Debug, PartialEq)]
pub struct Envelope {
    /// World (global) rank of the sender.
    pub src_global: usize,
    /// Communicator the message was sent on (see [`crate::Comm`]).
    pub comm_id: u64,
    /// Message tag within the communicator.
    pub tag: u64,
    /// Executor job epoch ([`u64::MAX`] is reserved for poison wakeups).
    pub epoch: u64,
    /// The words, as a zero-copy shared view.
    pub payload: Payload,
    /// The sender's critical-path clock after charging the send.
    pub clock: Clock,
}

/// Error returned by [`Endpoint::recv`] when no envelope arrived within
/// the caller's timeout. The *policy* (panic with a deadlock diagnostic,
/// scale the window with machine size) lives in the transport-independent
/// wrapper; transports only report the fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvTimedOut;

/// A message substrate: connects `p` ranks and hands each its
/// [`Endpoint`]. Implementations must deliver envelopes between any
/// ordered pair of ranks, preserving per-pair FIFO order (the mailbox's
/// deterministic matching relies on it) and moving the [`Envelope`] —
/// and therefore its `Arc`-shared payload — without copying words.
pub trait Transport: std::fmt::Debug + Send + Sync {
    /// A short stable name (`"mpsc"`, `"ring"`) for diagnostics and the
    /// [`TRANSPORT_ENV`] selector.
    fn name(&self) -> &'static str;

    /// Build the fabric for `p` ranks and return one endpoint per rank,
    /// indexed by world rank. Called once per executor spawn; endpoints
    /// move to their rank's worker thread and live for the executor's
    /// lifetime (jobs reuse them).
    fn connect(&self, p: usize) -> Vec<Box<dyn Endpoint>>;

    /// `true` when this transport may legitimately lose envelopes or
    /// leave them undelivered — today only the fault-injecting
    /// [`FaultyTransport`](crate::FaultyTransport). The executor skips
    /// its message-conservation invariants (empty mailboxes, global
    /// sent == received) on lossy fabrics, because an injected rank
    /// death makes both fail by design.
    fn is_lossy(&self) -> bool {
        false
    }
}

/// One rank's pair of wires into the fabric. Owned (and only ever used)
/// by a single rank thread at a time; `&mut self` encodes that.
pub trait Endpoint: Send {
    /// Deliver `env` to rank `dst`. May block under backpressure (a
    /// bounded transport with a full buffer) but must either complete or
    /// panic with a diagnostic within roughly `patience` — a sender
    /// stuck longer than the receive-deadlock window *is* a deadlock.
    /// Unbounded transports ignore `patience` and never block.
    fn send(&mut self, dst: usize, env: Envelope, patience: Duration);

    /// Best-effort non-blocking delivery, used for poison wakeups where
    /// blocking (or panicking again) during panic handling is worse than
    /// dropping the hint. Returns `false` if the envelope could not be
    /// accepted immediately.
    fn try_send(&mut self, dst: usize, env: Envelope) -> bool;

    /// The next envelope to arrive from any source, in arrival order.
    /// Blocks up to `timeout`; `Err(RecvTimedOut)` after that. Matching
    /// by (source, communicator, tag) happens a layer up, in the
    /// mailbox.
    fn recv(&mut self, timeout: Duration) -> Result<Envelope, RecvTimedOut>;

    /// `true` when an injected fault has severed this rank from the
    /// fabric (see [`FaultyTransport`](crate::FaultyTransport)): its
    /// sends vanish and its receives time out immediately. Real
    /// transports are never severed.
    fn is_dead(&self) -> bool {
        false
    }
}

/// Resolve the process-wide default transport from [`TRANSPORT_ENV`].
pub(crate) fn transport_from_env() -> Arc<dyn Transport> {
    match std::env::var(TRANSPORT_ENV) {
        Ok(raw) => parse_transport(&raw).unwrap_or_else(|| {
            panic!("{TRANSPORT_ENV}={raw:?}: unknown transport (expected \"mpsc\" or \"ring\")")
        }),
        Err(_) => Arc::new(MpscTransport),
    }
}

/// Parse a [`TRANSPORT_ENV`] value; `None` for unrecognized names.
pub(crate) fn parse_transport(name: &str) -> Option<Arc<dyn Transport>> {
    match name.trim().to_ascii_lowercase().as_str() {
        "" | "mpsc" => Some(Arc::new(MpscTransport)),
        "ring" => Some(Arc::new(crate::ring::RingTransport::default())),
        _ => None,
    }
}

/// The original fabric, extracted: one unbounded `std::sync::mpsc`
/// channel per rank. Sends never block (the channel grows); receives
/// block on the channel's own condition variable.
#[derive(Debug, Clone, Copy, Default)]
pub struct MpscTransport;

impl Transport for MpscTransport {
    fn name(&self) -> &'static str {
        "mpsc"
    }

    fn connect(&self, p: usize) -> Vec<Box<dyn Endpoint>> {
        let (senders, receivers): (Vec<Sender<Envelope>>, Vec<Receiver<Envelope>>) =
            (0..p).map(|_| channel()).unzip();
        let senders = Arc::new(senders);
        receivers
            .into_iter()
            .map(|receiver| {
                Box::new(MpscEndpoint {
                    senders: Arc::clone(&senders),
                    receiver,
                }) as Box<dyn Endpoint>
            })
            .collect()
    }
}

struct MpscEndpoint {
    senders: Arc<Vec<Sender<Envelope>>>,
    receiver: Receiver<Envelope>,
}

impl Endpoint for MpscEndpoint {
    fn send(&mut self, dst: usize, env: Envelope, _patience: Duration) {
        self.senders[dst].send(env).expect("rank channel closed");
    }

    fn try_send(&mut self, dst: usize, env: Envelope) -> bool {
        self.senders[dst].send(env).is_ok()
    }

    fn recv(&mut self, timeout: Duration) -> Result<Envelope, RecvTimedOut> {
        match self.receiver.recv_timeout(timeout) {
            Ok(env) => Ok(env),
            Err(RecvTimeoutError::Timeout) => Err(RecvTimedOut),
            // Senders only drop when the executor tears down, and no
            // rank receives during teardown — but a dead peer thread
            // also closes its sender clone, which a blocked receiver
            // observes as a disconnect. Surface it as a timeout: the
            // wrapper's deadlock diagnostic is the right report.
            Err(RecvTimeoutError::Disconnected) => Err(RecvTimedOut),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn mpsc_endpoints_deliver_in_fifo_order() {
        let mut eps = MpscTransport.connect(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(1, env(0, 7, 1.0), Duration::from_secs(1));
        e0.send(1, env(0, 7, 2.0), Duration::from_secs(1));
        let a = e1.recv(Duration::from_secs(1)).unwrap();
        let b = e1.recv(Duration::from_secs(1)).unwrap();
        assert_eq!(a.payload, vec![1.0]);
        assert_eq!(b.payload, vec![2.0]);
        assert!(e1.recv(Duration::from_millis(10)).is_err(), "drained");
    }

    #[test]
    fn mpsc_preserves_payload_allocation() {
        let mut eps = MpscTransport.connect(1);
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
    fn env_parse_recognizes_backends() {
        assert_eq!(parse_transport("mpsc").unwrap().name(), "mpsc");
        assert_eq!(parse_transport(" MPSC ").unwrap().name(), "mpsc");
        assert_eq!(parse_transport("").unwrap().name(), "mpsc");
        assert_eq!(parse_transport("ring").unwrap().name(), "ring");
        assert_eq!(parse_transport("Ring").unwrap().name(), "ring");
        assert!(parse_transport("tcp").is_none(), "unknown names rejected");
    }
}
