//! # qr3d-machine — a simulated distributed-memory parallel machine
//!
//! This crate implements the parallel machine model of Ballard et al.,
//! *"A 3D Parallel Algorithm for QR Decomposition"* (SPAA 2018), Section 3:
//!
//! > We model a parallel machine as a set of P interconnected processors,
//! > each with unbounded local memory. Processors operate on local data and
//! > communicate with other processors by sending and receiving messages.
//! > A processor can perform at most one task (operation/send/receive) at a
//! > time. [...] Each operation takes time γ, while sending or receiving a
//! > message of w words takes time α + wβ.
//!
//! A [`Machine`] spawns `P` *ranks*, each an OS thread running the same SPMD
//! closure (like an MPI program). Ranks exchange point-to-point asynchronous
//! messages of `f64` *words* through [`Rank::send`]/[`Rank::recv`], addressed
//! through [`Comm`] communicators (sub-communicators are formed without
//! communication, mirroring the paper's assumption that processor grids are
//! given).
//!
//! ## Zero-copy message fabric over pluggable transports
//!
//! Message data travels as [`Payload`]s — `Arc`-shared buffers with
//! offset/length view windows. A send moves a reference, not words: the
//! model charges α + wβ for a message of `w` words, and the simulator's
//! wall-clock matches that shape because no memcpy happens at send,
//! mailbox buffering, or receive. `payload.slice(a..b)` ships a
//! sub-range of a buffer in O(1), and [`Rank::recv_into`] lands a message
//! directly in a caller buffer when owned storage is required (the single
//! copy such a receive fundamentally needs). Each rank also carries a
//! [`Workspace`] scratch arena so kernel inner loops can recycle buffers
//! instead of allocating.
//!
//! *How* envelopes move between ranks is a [`Transport`] decision: the
//! unbounded-channel [`MpscTransport`] (default) and the bounded SPSC
//! [`RingTransport`] ship in-repo, selected per machine with
//! [`Machine::with_transport`] or process-wide with [`TRANSPORT_ENV`].
//! Everything semantic — tag matching, epoch isolation, poison wakeups,
//! death notices, the deadlock timeout, and all cost accounting — lives above the
//! transport boundary, so swapping substrates cannot change a charged
//! cost (see the [`transport`] module docs). A [`FaultyTransport`]
//! decorator injects deterministic rank deaths into either backend (see
//! the [`fault`] module docs) for testing the fault-tolerant layers
//! above.
//!
//! ## Critical-path cost accounting
//!
//! Every rank carries a logical [`Clock`] with four components: flops `F`,
//! words `W`, messages `S`, and modeled time `γF' + βW' + αS'` along the
//! locally-worst path. Each message carries a snapshot of the sender's clock;
//! a receive merges it into the receiver's clock with a **componentwise
//! maximum** before charging the receive cost. This computes, at program
//! exit, exactly the quantities the paper measures:
//!
//! > These three quantities, measured along critical paths in a parallel
//! > schedule, characterize the algorithm's arithmetic cost, bandwidth cost,
//! > and latency cost.
//!
//! (The componentwise max over join points yields, per component, the max
//! over all DAG paths of that component's sum — matching the paper's
//! "if every path includes at most F operations and at most S messages,
//! containing at most W words in total".)
//!
//! Because the clocks are logical, the measured costs are bit-for-bit
//! deterministic: OS thread scheduling cannot perturb them.
//!
//! ## Persistent execution
//!
//! [`Machine::run`] is a thin one-shot wrapper: it spawns a throwaway
//! [`Executor`], submits the single job, and joins. Callers serving many
//! factorizations should hold a warm [`Executor`] (via
//! [`Machine::executor`]): its `P` rank threads stay alive between jobs,
//! every envelope is epoch-tagged so consecutive jobs can never confuse
//! traffic, and the empty-mailbox / send-receive-balance determinism
//! invariants are enforced per *job*. See the [`executor`] module docs.
//!
//! ## Quick example
//!
//! ```
//! use qr3d_machine::{Machine, CostParams};
//!
//! // 4 ranks; rank 0 sends one word to everyone (a naive broadcast).
//! let machine = Machine::new(4, CostParams::unit());
//! let out = machine.run(|rank| {
//!     let world = rank.world();
//!     if rank.id() == 0 {
//!         for dst in 1..world.size() {
//!             rank.send(&world, dst, 7, &[42.0]);
//!         }
//!         42.0
//!     } else {
//!         rank.recv(&world, 0, 7)[0]
//!     }
//! });
//! assert!(out.results.iter().all(|&x| x == 42.0));
//! // The last receiver's path saw rank 0's three sends plus its own receive.
//! assert_eq!(out.stats.critical().msgs, 4.0);
//! ```

#![deny(unsafe_code)]

mod clock;
mod comm;
pub mod executor;
pub mod fault;
mod machine;
mod mailbox;
mod payload;
#[allow(unsafe_code)] // the SPSC slot handoff
pub mod ring;
pub mod transport;
mod workspace;

pub use clock::{Clock, CostParams};
pub use comm::Comm;
pub use executor::{Executor, ExecutorPoisoned};
pub use fault::{FaultPlan, FaultyTransport, AUX_DEPTH_BASE};
pub use machine::{Machine, PeerDead, Rank, RunOutput, RunStats, Totals, RECV_TIMEOUT_ENV};
pub use payload::Payload;
pub use ring::RingTransport;
pub use transport::{Endpoint, Envelope, MpscTransport, RecvTimedOut, Transport, TRANSPORT_ENV};
pub use workspace::Workspace;
