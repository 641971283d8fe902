//! Per-transaction instrumentation, folded as the execution happens.
//!
//! The paper judges N and O from per-transaction facts: how many rounds a
//! transaction used, how many versions each read response carried, and
//! whether each response was sent within the handler of its read request.
//! A [`Trace`] derives exactly these as the dispatch core reports each
//! external action (INV, RESP, send, recv), and keeps no record of the
//! actions themselves.  Sends carry their causal round depth and receipts
//! their non-blocking bit, both derived by the engine from the message's
//! [`crate::CausalSummary`], which travels with the message.  Whoever wants
//! the execution itself records it through an observability sink
//! (`snow_obs::RecordingSink`).
//!
//! The fold keeps only what history assembly reads, so every
//! per-transaction query is O(1)/O(answer):
//!
//! * per-transaction counters accumulate C2C sends, the invoker's maximum
//!   round depth, and the [`ReadResult`] instrumentation of read responses
//!   received by the invoking client;
//! * a commit log lists transactions in RESP order for incremental drains
//!   ([`Trace::commits_since`] / [`Trace::retire_commits`]).
//!
//! With these, [`crate::Simulation::history`] is a single pass over the
//! transaction records.  Memory is O(transactions) for the counters plus
//! O(drain window) for the commit log, whatever the message count.
//!
//! Round and read instrumentation requires the transaction's INV to be
//! reported before its messages (always true for the engine; hand-fed
//! traces must follow the same order).  Read instrumentation is **frozen
//! at RESP**: a read response the invoker receives after its transaction
//! responded (a straggler of a duplicated request, say) is not folded in.
//! The READ's N and O verdicts are about the responses it completed with.

use crate::message::{MsgInfo, MsgKind};
use snow_core::{ProcessId, ReadResult, TxId};
use snow_core::FxHashMap;
use std::collections::VecDeque;

/// Per-transaction incrementally maintained statistics.
#[derive(Debug, Clone, Default)]
struct TxIndex {
    /// The process at which the transaction's INV occurred.
    invoker: Option<ProcessId>,
    /// Client-to-client sends attributed to this transaction.
    c2c_sends: u32,
    /// Max round depth over the invoker's sends.
    rounds: u32,
    /// Read-response instrumentation, in receive order at the invoker.
    reads: Vec<ReadResult>,
    /// True once the transaction's RESP was recorded: its read
    /// instrumentation is frozen.
    responded: bool,
}

/// The per-transaction fold of one execution's external actions (see the
/// module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Trace {
    /// Per-transaction statistics.
    by_tx: FxHashMap<TxId, TxIndex>,
    /// Commit log: transactions in RESP order, minus the prefix already
    /// retired by [`Trace::retire_commits`].  `commits[0]` is commit
    /// number `commits_retired`.
    commits: VecDeque<TxId>,
    /// Number of commit-log entries retired so far.
    commits_retired: u64,
    /// Highest action time reported so far — backs the debug-mode
    /// monotonicity assertion in [`Trace::check_time`].
    last_time: u64,
}

impl Trace {
    /// The real-time precedence edges the checkers derive are only
    /// trustworthy if action times never regress — the engine's clock
    /// clamp guarantees it; this assertion keeps it audited on every
    /// reported action.
    fn check_time(&mut self, time: u64) {
        debug_assert!(
            time >= self.last_time,
            "non-monotone trace timestamp: recording {time} after {}",
            self.last_time
        );
        self.last_time = time;
    }

    /// INV(`tx`) at client `at`.
    pub(crate) fn invoke(&mut self, time: u64, at: ProcessId, tx: TxId) {
        self.check_time(time);
        self.by_tx.entry(tx).or_default().invoker = Some(at);
    }

    /// RESP(`tx`): appends `tx` to the commit log and freezes its read
    /// instrumentation.
    pub(crate) fn respond(&mut self, time: u64, tx: TxId) {
        self.check_time(time);
        self.commits.push_back(tx);
        if let Some(index) = self.by_tx.get_mut(&tx) {
            index.responded = true;
        }
    }

    /// `send(m)` at `at`, of causal round depth `round` relative to its
    /// sender ([`crate::CausalSummary::round_depth`]).
    pub(crate) fn send(&mut self, time: u64, at: ProcessId, round: u32, info: &MsgInfo) {
        self.check_time(time);
        let Some(tx) = info.tx else { return };
        if info.kind == MsgKind::ClientToClient {
            self.by_tx.entry(tx).or_default().c2c_sends += 1;
            return;
        }
        if let Some(index) = self.by_tx.get_mut(&tx) {
            if index.invoker == Some(at) {
                index.rounds = index.rounds.max(round);
            }
        }
    }

    /// `recv(m)` at `at` from `from`.  `nonblocking` says the message is a
    /// read response sent within the handler of its read request
    /// ([`crate::CausalSummary::nonblocking`]).  Only read responses
    /// received by the invoking client before its RESP count as read
    /// instrumentation: a straggler (e.g. the answer to a duplicated
    /// request) arrives after the READ completed.
    pub(crate) fn recv(
        &mut self,
        time: u64,
        at: ProcessId,
        from: ProcessId,
        info: &MsgInfo,
        nonblocking: bool,
    ) {
        self.check_time(time);
        let Some(tx) = info.tx else { return };
        if info.kind != MsgKind::ReadResponse {
            return;
        }
        let Some(index) = self.by_tx.get_mut(&tx) else { return };
        if index.invoker != Some(at) || index.responded {
            return;
        }
        let Some(object) = info.object else {
            return; // metadata response (e.g. get-tag-arr)
        };
        let Some(server) = from.as_server() else {
            return;
        };
        index.reads.push(ReadResult {
            object,
            server,
            versions_in_response: info.versions.max(1),
            nonblocking,
        });
    }

    /// Number of client-to-client messages attributed to `tx` — O(1).
    pub(crate) fn c2c_count(&self, tx: TxId) -> u32 {
        self.by_tx.get(&tx).map(|t| t.c2c_sends).unwrap_or(0)
    }

    /// The number of client↔server round trips transaction `tx` used: the
    /// maximum causal round depth over its invoker's sends (a send whose
    /// causal past holds `d` responses to the invoker belongs to round
    /// `d + 1`).  O(1): depths are folded as sends are reported.
    pub(crate) fn rounds_of(&self, tx: TxId) -> u32 {
        self.by_tx.get(&tx).map_or(0, |t| t.rounds)
    }

    /// Read-response instrumentation for `tx`: one [`ReadResult`] per
    /// response received by the invoking client, in receive order —
    /// O(answer).
    pub(crate) fn read_results(&self, tx: TxId) -> &[ReadResult] {
        self.by_tx
            .get(&tx)
            .map(|t| t.reads.as_slice())
            .unwrap_or(&[])
    }

    /// Total number of transaction commits (RESP actions) ever recorded,
    /// including retired commit-log entries.
    pub(crate) fn commit_count(&self) -> u64 {
        self.commits_retired + self.commits.len() as u64
    }

    /// Iterates the live commit-log entries from commit number `cursor`
    /// on, in RESP order, without cloning anything — the incremental
    /// alternative to re-assembling a full history per checker poll.
    /// Already-retired entries are omitted (a `cursor` below the
    /// [`Trace::retire_commits`] mark starts at the oldest live entry).
    pub(crate) fn commits_since(&self, cursor: u64) -> impl Iterator<Item = TxId> + '_ {
        let skip = cursor.saturating_sub(self.commits_retired) as usize;
        self.commits.iter().skip(skip).copied()
    }

    /// Retires every commit-log entry before commit number `up_to`,
    /// dropping their storage.  Callers that have drained a prefix via
    /// [`Trace::commits_since`] retire it here so the live log stays
    /// O(in-flight drain window) instead of O(transactions).
    pub(crate) fn retire_commits(&mut self, up_to: u64) {
        while self.commits_retired < up_to {
            if self.commits.pop_front().is_none() {
                break;
            }
            self.commits_retired += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::{ClientId, ObjectId, ServerId};

    fn client(i: u32) -> ProcessId {
        ProcessId::Client(ClientId(i))
    }
    fn server(i: u32) -> ProcessId {
        ProcessId::Server(ServerId(i))
    }

    fn recv(t: &mut Trace, time: u64, at: ProcessId, from: ProcessId, info: MsgInfo) {
        let nonblocking = info.kind == MsgKind::ReadResponse;
        t.recv(time, at, from, &info, nonblocking);
    }

    /// Replays `n` copies of a two-round READ into `t`, with distinct tx
    /// ids per copy:
    ///  c0: INV(tx), send -> s0 (round 1)
    ///  s0: recv, send -> c0
    ///  c0: recv, send -> s1 (round 2)
    ///  s1: recv, send -> c0 (two versions)
    ///  c0: recv, RESP(tx)
    fn replay_pattern(t: &mut Trace, n: u64) {
        for i in 0..n {
            let tx = TxId(i);
            let base = i * 10;
            let req = |o| MsgInfo::read_request(tx, Some(ObjectId(o)));
            let resp = |o, v| MsgInfo::read_response(tx, Some(ObjectId(o)), v);
            t.invoke(base, client(0), tx);
            t.send(base + 1, client(0), 1, &req(0));
            recv(t, base + 2, server(0), client(0), req(0));
            t.send(base + 3, server(0), 2, &resp(0, 1));
            recv(t, base + 4, client(0), server(0), resp(0, 1));
            t.send(base + 5, client(0), 2, &req(1));
            recv(t, base + 6, server(1), client(0), req(1));
            t.send(base + 7, server(1), 2, &resp(1, 2));
            recv(t, base + 8, client(0), server(1), resp(1, 2));
            t.respond(base + 9, tx);
        }
    }

    fn two_round_trace() -> Trace {
        let mut t = Trace::default();
        replay_pattern(&mut t, 1);
        t
    }

    #[test]
    fn rounds_are_the_invokers_max_send_round() {
        let mut t = two_round_trace();
        assert_eq!(t.rounds_of(TxId(0)), 2);
        assert_eq!(t.rounds_of(TxId(9)), 0);
        // A deeper send by another process (a server's, or a reader's ack
        // on a writer's behalf) is not the invoker's round.
        t.send(10, server(0), 5, &MsgInfo::write_request(TxId(0), None));
        assert_eq!(t.rounds_of(TxId(0)), 2);
    }

    #[test]
    fn c2c_counting() {
        let mut t = two_round_trace();
        assert_eq!(t.c2c_count(TxId(0)), 0);
        t.send(10, client(1), 1, &MsgInfo::client_to_client(Some(TxId(0))));
        assert_eq!(t.c2c_count(TxId(0)), 1);
    }

    #[test]
    fn read_results_accumulate_at_the_invoker() {
        let t = two_round_trace();
        let reads = t.read_results(TxId(0));
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].object, ObjectId(0));
        assert_eq!(reads[0].server, ServerId(0));
        assert!(reads[0].nonblocking, "the receipt carried the non-blocking bit");
        assert_eq!(reads[1].object, ObjectId(1));
        assert_eq!(reads[1].server, ServerId(1));
        assert_eq!(reads[1].versions_in_response, 2);
        assert!(t.read_results(TxId(9)).is_empty());
    }

    #[test]
    fn read_results_freeze_at_resp() {
        // A straggler response (the answer to a duplicated request) that
        // reaches the invoker after RESP changes nothing.
        let tx = TxId(0);
        let mut t = two_round_trace();
        let before = t.read_results(tx).to_vec();
        let info = MsgInfo::read_response(tx, Some(ObjectId(0)), 1);
        t.send(10, server(0), 2, &info);
        recv(&mut t, 11, client(0), server(0), info);
        assert_eq!(t.read_results(tx), before.as_slice());
    }

    #[test]
    fn commit_log_iterates_and_retires_in_resp_order() {
        let mut t = Trace::default();
        replay_pattern(&mut t, 20);
        for i in 0..20u64 {
            assert_eq!(t.rounds_of(TxId(i)), 2, "tx {i}");
            assert_eq!(t.read_results(TxId(i)).len(), 2, "tx {i}");
        }
        assert_eq!(t.commit_count(), 20);
        let all: Vec<TxId> = t.commits_since(0).collect();
        assert_eq!(all, (0..20).map(TxId).collect::<Vec<_>>());
        // A cursor resumes mid-log without re-yielding drained entries.
        let tail: Vec<TxId> = t.commits_since(17).collect();
        assert_eq!(tail, vec![TxId(17), TxId(18), TxId(19)]);
        // Retiring a prefix drops its storage but not the numbering.
        t.retire_commits(17);
        assert_eq!(t.commit_count(), 20);
        assert_eq!(t.commits_since(17).collect::<Vec<_>>(), tail);
        // A stale cursor starts at the oldest live entry; retiring past
        // the end is clamped.
        assert_eq!(t.commits_since(0).count(), 3);
        t.retire_commits(100);
        assert_eq!(t.commit_count(), 20);
        assert_eq!(t.commits_since(0).count(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-monotone trace timestamp")]
    fn a_regressing_timestamp_trips_the_debug_assertion() {
        let mut t = two_round_trace();
        t.respond(3, TxId(1));
    }
}
