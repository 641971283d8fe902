//! # snow-runtime
//!
//! A tokio-based asynchronous sharded-storage runtime that executes the
//! *same protocol state machines* as the deterministic simulator: every
//! process of a `snow-protocols` deployment runs as its own tokio task with
//! an unbounded mailbox, messages travel over channels, and transaction
//! invocations are regular async calls that resolve when the protocol emits
//! the RESP event.
//!
//! Protocol wiring is not duplicated here.  The `Process`/`Effects`
//! contract lives in `snow-core`, and [`AsyncCluster::deploy`] builds a
//! cluster for any `ProtocolKind` through the same protocol-erased
//! deployment path (`snow_protocols::deploy_any`) the simulator's
//! `ClusterSpec` uses — one dispatch point, two executors.  The runtime
//! also derives the simulator-equivalent per-transaction instrumentation
//! (rounds, C2C counts, per-read non-blocking/version measurements) from
//! causal message envelopes, so runtime histories feed `snow-checker`
//! directly and the `runtime_parity` integration test can hold both
//! executors to the same golden semantics.
//!
//! This is the substrate for the wall-clock latency experiments (the
//! `runtime_read_latency` section of `BENCH_simcore.json` and the latency
//! tables): the simulator measures rounds and schedules adversarially; the
//! runtime measures what those rounds cost on a real concurrent executor.
//! It is one of the workspace's three execution substrates, alongside the
//! serial simulator (`snow_sim::Simulation`) and the sharded parallel
//! simulator (`snow_sim::ParallelSimulation`) — see `ARCHITECTURE.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;

pub use cluster::{measure_read_latencies, AsyncCluster, ExecReport};
