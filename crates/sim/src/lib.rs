//! # snow-sim
//!
//! A deterministic discrete-event simulator of asynchronous message-passing
//! processes, in the style of the I/O-automata model the paper uses (§2,
//! Appendix A):
//!
//! * processes ([`Process`]) are state machines reacting to delivered
//!   messages and to transaction invocations, emitting sends and responses
//!   through an [`Effects`] buffer — exactly the "actions at one automaton"
//!   granularity the paper's fragment arguments rely on.  The
//!   [`Process`]/[`Effects`] contract itself lives in `snow-core`
//!   (transport-agnostic); this crate provides two of its three execution
//!   substrates — the serial [`Simulation`] and the sharded
//!   [`ParallelSimulation`] (see [`parallel`]) — the third being the tokio
//!   runtime in `snow-runtime`;
//! * the network is **reliable but asynchronous**: every sent message is
//!   eventually deliverable, but the order and timing of deliveries are under
//!   the control of a [`Scheduler`] (seeded-random, FIFO, latency-modelled, or
//!   fully manual/adversarial).  In-flight messages live in an indexed
//!   [`MessagePool`] (delivery heap + Fenwick rank index + O(1) slot
//!   removal), so every scheduler decides in O(log n) — see [`pool`] and
//!   [`scheduler`] for the complexity contract;
//! * every external action (INV, RESP, send, recv) is folded, as it
//!   happens, into per-transaction instrumentation (rounds, C2C counts,
//!   per-read versions and non-blocking bits); no action is stored.  Each
//!   message carries a [`CausalSummary`] of its causal past, from which
//!   the engine derives every send's round depth and every read
//!   response's non-blocking bit.  That is what lets `snow-checker` verify
//!   the N (non-blocking) and O (one-response) properties without
//!   trusting the protocol's self-reporting.  A caller that wants the
//!   execution itself records it through a [`TraceSink`] such as
//!   [`RecordingSink`];
//! * the simulation also assembles the [`snow_core::History`] of the run.
//!
//! The serial simulator is single-threaded and fully deterministic given
//! `(configuration, scheduler seed, invocation plan)`, which is what makes
//! the impossibility constructions of `snow-impossibility` replayable.
//! The sharded [`ParallelSimulation`] keeps that determinism — histories
//! are a pure function of `(configuration, seeds, shard count)` — while
//! running one worker thread per shard, exchanging cross-shard messages at
//! deterministic epoch barriers; with one shard it reproduces the serial
//! engine bit for bit.  A seeded [`FaultSchedule`] (see [`fault`]) extends
//! the contract to failures: drop/duplicate/delay regions, partitions and
//! server crash+recovery are pure per-message decisions, so a faulty
//! history is a pure function of `(configuration, seeds, shard count,
//! fault schedule)` on both substrates.
//!
//! Both simulators execute on **one dispatch core** (the private `engine`
//! module): [`Simulation`] wraps a single core, [`ParallelSimulation`]
//! one per shard.  Every dispatch decision — including the clock
//! invariant that no event is dispatched before its own timestamp — is
//! defined exactly once there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod fault;
pub mod message;
pub mod parallel;
pub mod pool;
pub mod scheduler;
pub mod sim;
pub mod topology;
mod trace;

pub use fault::{
    Crash, CrashPolicy, EndpointSel, FaultAction, FaultRegion, FaultSchedule, Partition,
    PartitionPolicy, RestartFn,
};
pub use message::{CausalSummary, MsgId, MsgInfo, MsgKind, PendingMessage, SimMessage};
pub use parallel::ParallelSimulation;
pub use pool::MessagePool;
pub use snow_core::{Effects, Process};
pub use snow_obs::{NullSink, ObsEvent, RecordingSink, ShardEvent, TraceSink};
pub use scheduler::{FifoScheduler, LatencyScheduler, RandomScheduler, Scheduler};
pub use sim::{CommitDrain, InvocationPlan, Simulation, StepOutcome};
pub use topology::{LinkDist, Topology, TopologyScheduler, TICK};
