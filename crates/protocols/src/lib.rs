//! # snow-protocols
//!
//! Executable implementations of every READ/WRITE transaction protocol the
//! paper discusses, written once as transport-agnostic state machines
//! (`snow_core::Process` implementations) and executed unchanged on both
//! substrates — the deterministic simulator (`snow-sim`) and the tokio
//! runtime (`snow-runtime`):
//!
//! * [`alg_a`] — **Algorithm A** (§5.2, Pseudocode 4): all four SNOW
//!   properties in the multi-writer single-reader setting, using
//!   client-to-client communication (writers push an `info-reader`
//!   notification to the reader).
//! * [`alg_b`] — **Algorithm B** (§8, Pseudocodes 5–6): SNW + one-version in
//!   the multi-writer multi-reader setting; READs take exactly two
//!   non-blocking rounds (`get-tag-array` then `read-value`).
//! * [`alg_c`] — **Algorithm C** (§9, Pseudocodes 5, 7): SNW + one-round in
//!   MWMR; READs take one round but responses carry up to |W| versions.
//! * [`eiger`] — a Lamport-clock read-only transaction baseline modelled on
//!   Eiger, faithful enough to reproduce the §6 / Fig. 5 strict
//!   serializability violation.
//! * [`blocking`] — a lock-based strictly serializable baseline whose reads
//!   *block* under conflicting writes: the other side of the SNOW trade-off.
//! * [`simple`] — non-transactional simple reads/writes: the latency floor
//!   that "optimal latency" is defined against (§1).
//!
//! # The unified deployment layer
//!
//! Deployment is described once and executed anywhere.  [`any`] erases the
//! per-protocol node/message types behind enum dispatch ([`AnyNode`],
//! [`AnyMsg`]), so [`deploy_any`] is the *single* `ProtocolKind`-dispatched
//! construction path in the workspace, feeding all three execution
//! substrates (select one with [`ExecutorKind`]):
//!
//! * the serial simulator wraps it in [`ClusterSpec::build`] (pick a
//!   [`SchedulerKind`], drive through the [`deploy::Cluster`] trait);
//! * the sharded parallel simulator is the same [`ClusterSpec`] with
//!   [`ExecutorKind::ParallelSim`] (same [`deploy::Cluster`] trait, one
//!   worker thread per shard);
//! * the tokio runtime wraps it in `snow_runtime::AsyncCluster::deploy`.
//!
//! A new protocol therefore lands on both executors — and under the
//! runtime/simulator parity harness (`tests/runtime_parity.rs`) — by adding
//! one module and one [`AnyDeployment`] arm; no executor grows
//! protocol-specific wiring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg_a;
pub mod alg_b;
pub mod alg_c;
pub mod any;
pub mod blocking;
pub mod common;
pub mod deploy;
pub mod eiger;
pub mod simple;

pub use any::{deploy_any, AnyDeployment, AnyMsg, AnyNode};
pub use common::{PendingRead, PendingWrite, WriteLog};
pub use deploy::{
    fault_scenarios, scenario_crash_mid_read, scenario_dup_storm, scenario_partition_during_write, Cluster,
    ClusterSpec, CommitDrain, ExecutorKind, ObsEvent, ProtocolKind, SchedulerKind, ShardEvent,
    DEFAULT_MAX_STEPS,
};
