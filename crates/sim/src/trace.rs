//! Action traces: the external actions of an execution, in order.
//!
//! A [`Trace`] is the executable analogue of the paper's executions
//! `σ₀, a₁, σ₁, …`: we record only the actions (the paper does the same to
//! "simplify notation"), each tagged with the automaton at which it occurs
//! and the simulation time.  Sends carry their causal round depth and
//! receipts their non-blocking bit, both derived by the engine from the
//! message's [`crate::CausalSummary`], which travels with the message.
//!
//! # Incremental instrumentation
//!
//! The trace keeps only what history assembly reads, derived *as actions
//! are recorded* so every per-transaction query is O(1)/O(answer):
//!
//! * per-transaction counters accumulate C2C sends, the invoker's maximum
//!   round depth, and the [`ReadResult`] instrumentation of read responses
//!   received by the invoking client;
//! * a commit log lists transactions in RESP order for incremental drains
//!   ([`Trace::commits_since`] / [`Trace::retire_commits`]).
//!
//! With these, [`crate::Simulation::history`] is a single pass over the
//! recorded transactions rather than O(transactions × actions).
//!
//! Round and read instrumentation requires the transaction's `Invoke`
//! action to be recorded before its message actions (always true for
//! engine-driven traces; hand-built traces must follow the same order).
//! Read instrumentation is **frozen at RESP**: a read response the invoker
//! receives after its transaction responded (a straggler of a duplicated
//! request, say) is not folded in.  The READ's N and O verdicts are about
//! the responses it completed with.
//!
//! # Bounded action logs
//!
//! For million-transaction workloads the raw action log dominates memory.
//! [`Trace::with_action_capacity`] bounds it: only a sliding window of
//! recent actions is retained (at least `capacity`, at most `2 × capacity`
//! so eviction amortizes to O(1)).  No aggregate reads an evicted action,
//! so they all stay *exactly* equal to the unbounded trace's.

use crate::message::{MsgId, MsgInfo, MsgKind};
use snow_core::{ProcessId, ReadResult, TxId, TxKind};
use snow_core::FxHashMap;
use std::collections::VecDeque;

/// The kind of an externally visible action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionKind {
    /// INV(T): a transaction was invoked at a client.
    Invoke {
        /// The transaction.
        tx: TxId,
        /// READ or WRITE.
        kind: TxKind,
    },
    /// RESP(T): a transaction completed at a client.
    Respond {
        /// The transaction.
        tx: TxId,
    },
    /// `send(m)_{at,to}`: the process emitted a message.
    Send {
        /// Message id.
        msg: MsgId,
        /// Destination process.
        to: ProcessId,
        /// Causal round depth of the send relative to its sender
        /// ([`crate::CausalSummary::round_depth`]).
        round: u32,
        /// Classification of the message.
        info: MsgInfo,
    },
    /// `recv(m)_{from,at}`: the process received a message.
    Recv {
        /// Message id.
        msg: MsgId,
        /// Originating process.
        from: ProcessId,
        /// Classification of the message.
        info: MsgInfo,
        /// The message is a read response sent within the handler of its
        /// read request ([`crate::CausalSummary::nonblocking`]).
        nonblocking: bool,
    },
}

/// One externally visible action of an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    /// Position of the action in the execution (0-based).
    pub seq: u64,
    /// Simulation time at which the action occurred.
    pub time: u64,
    /// The automaton at which the action occurred.
    pub at: ProcessId,
    /// What happened.
    pub kind: ActionKind,
}

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

/// The ordered list of external actions of one execution, with incremental
/// per-transaction instrumentation (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Retained actions; a sliding window of the full log when a capacity
    /// is set, the full log otherwise.
    actions: Vec<Action>,
    /// Total number of actions ever recorded.
    recorded: u64,
    /// Retained-action cap (`None` = unbounded).
    capacity: Option<usize>,
    /// Per-transaction statistics.
    by_tx: FxHashMap<TxId, TxIndex>,
    /// Commit log: transactions in RESP order, minus the prefix already
    /// retired by [`Trace::retire_commits`].  `commits[0]` is commit
    /// number `commits_retired`.
    commits: VecDeque<TxId>,
    /// Number of commit-log entries retired so far.
    commits_retired: u64,
    /// Highest action time recorded so far — backs the debug-mode
    /// monotonicity assertion in [`Trace::record`].
    last_time: u64,
}

impl Trace {
    /// Creates an empty trace retaining every action.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace that retains a bounded sliding window of
    /// recent actions: always the most recent `capacity`, never more than
    /// `2 × capacity` (eviction is batched so recording stays amortized
    /// O(1)).  All incremental aggregates — round depths, C2C counts, read
    /// instrumentation — are unaffected by eviction and match the
    /// unbounded trace exactly; only [`Trace::actions`] forgets evicted
    /// history.
    pub fn with_action_capacity(capacity: usize) -> Self {
        Trace {
            capacity: Some(capacity),
            ..Trace::default()
        }
    }

    /// Appends an action, assigning it the next sequence number and folding
    /// it into the derived indexes.
    pub fn record(&mut self, time: u64, at: ProcessId, kind: ActionKind) {
        // The real-time precedence edges the checkers derive are only
        // trustworthy if recorded action times never regress — the engine's
        // clock clamp guarantees it; this assertion keeps it audited.
        debug_assert!(
            time >= self.last_time,
            "non-monotone trace timestamp: recording {time} after {}",
            self.last_time
        );
        self.last_time = time;
        let seq = self.recorded;
        self.recorded += 1;
        let action = Action { seq, time, at, kind };
        self.index_action(&action);
        self.actions.push(action);
        if let Some(cap) = self.capacity {
            // Amortized O(1): let the buffer grow to 2× the cap, then slide
            // the window in one drain.
            if self.actions.len() > cap.saturating_mul(2).max(1) {
                let excess = self.actions.len() - cap;
                self.actions.drain(..excess);
            }
        }
    }

    fn index_action(&mut self, action: &Action) {
        match &action.kind {
            ActionKind::Invoke { tx, .. } => {
                self.by_tx.entry(*tx).or_default().invoker = Some(action.at);
            }
            ActionKind::Respond { tx } => {
                self.commits.push_back(*tx);
                if let Some(index) = self.by_tx.get_mut(tx) {
                    index.responded = true;
                }
            }
            ActionKind::Send { round, info, .. } => {
                let Some(tx) = info.tx else { return };
                if info.kind == MsgKind::ClientToClient {
                    self.by_tx.entry(tx).or_default().c2c_sends += 1;
                    return;
                }
                if let Some(index) = self.by_tx.get_mut(&tx) {
                    if index.invoker == Some(action.at) {
                        index.rounds = index.rounds.max(*round);
                    }
                }
            }
            ActionKind::Recv { from, info, nonblocking, .. } => {
                self.index_read_response(action.at, *from, info, *nonblocking);
            }
        }
    }

    /// Folds a received read response into the invoker's instrumentation.
    fn index_read_response(
        &mut self,
        at: ProcessId,
        from: ProcessId,
        info: &MsgInfo,
        nonblocking: bool,
    ) {
        let Some(tx) = info.tx else { return };
        if info.kind != MsgKind::ReadResponse {
            return;
        }
        // Only responses received by the invoking client before its RESP
        // count as read instrumentation: a straggler (e.g. the answer to a
        // duplicated request) arrives after the READ completed.
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

    /// The retained actions in order: the full log for an unbounded trace,
    /// the most recent window for a bounded one.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of actions recorded (including any evicted from a bounded
    /// trace's window).
    pub fn len(&self) -> usize {
        self.recorded as usize
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// Number of client-to-client messages attributed to `tx` — O(1).
    pub fn c2c_count(&self, tx: TxId) -> u32 {
        self.by_tx.get(&tx).map(|t| t.c2c_sends).unwrap_or(0)
    }

    /// The number of client↔server round trips transaction `tx` used: the
    /// maximum causal round depth over its invoker's sends (a send whose
    /// causal past holds `d` responses to the invoker belongs to round
    /// `d + 1`).  O(1): depths are folded at record time.
    pub fn rounds_of(&self, tx: TxId) -> u32 {
        self.by_tx.get(&tx).map_or(0, |t| t.rounds)
    }

    /// Read-response instrumentation for `tx`: one [`ReadResult`] per
    /// response received by the invoking client, in receive order —
    /// O(answer).
    pub fn read_results(&self, tx: TxId) -> &[ReadResult] {
        self.by_tx
            .get(&tx)
            .map(|t| t.reads.as_slice())
            .unwrap_or(&[])
    }

    /// Total number of transaction commits (RESP actions) ever recorded,
    /// including retired commit-log entries.
    pub fn commit_count(&self) -> u64 {
        self.commits_retired + self.commits.len() as u64
    }

    /// Iterates the live commit-log entries from commit number `cursor`
    /// on, in RESP order, without cloning anything — the incremental
    /// alternative to re-assembling a full history per checker poll.
    /// Already-retired entries are omitted (a `cursor` below the
    /// [`Trace::retire_commits`] mark starts at the oldest live entry).
    pub fn commits_since(&self, cursor: u64) -> impl Iterator<Item = TxId> + '_ {
        let skip = cursor.saturating_sub(self.commits_retired) as usize;
        self.commits.iter().skip(skip).copied()
    }

    /// Retires every commit-log entry before commit number `up_to`,
    /// dropping their storage.  Callers that have drained a prefix via
    /// [`Trace::commits_since`] retire it here so the live log stays
    /// O(in-flight drain window) instead of O(transactions).
    pub fn retire_commits(&mut self, up_to: u64) {
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

    fn send(
        t: &mut Trace,
        time: u64,
        at: ProcessId,
        msg: u64,
        to: ProcessId,
        round: u32,
        info: MsgInfo,
    ) {
        t.record(time, at, ActionKind::Send { msg: MsgId(msg), to, round, info });
    }

    fn recv(t: &mut Trace, time: u64, at: ProcessId, msg: u64, from: ProcessId, info: MsgInfo) {
        let nonblocking = info.kind == MsgKind::ReadResponse;
        t.record(time, at, ActionKind::Recv { msg: MsgId(msg), from, info, nonblocking });
    }

    /// Replays `n` copies of a two-round READ into `t`, with distinct tx
    /// and message ids per copy:
    ///  c0: INV(tx), send m0 -> s0 (round 1)
    ///  s0: recv m0, send m1 -> c0
    ///  c0: recv m1, send m2 -> s1 (round 2)
    ///  s1: recv m2, send m3 -> c0 (two versions)
    ///  c0: recv m3, RESP(tx)
    fn replay_pattern(t: &mut Trace, n: u64) {
        for i in 0..n {
            let tx = TxId(i);
            let (m, base) = (i * 4, i * 10);
            let req = |o| MsgInfo::read_request(tx, Some(ObjectId(o)));
            let resp = |o, v| MsgInfo::read_response(tx, Some(ObjectId(o)), v);
            t.record(base, client(0), ActionKind::Invoke { tx, kind: TxKind::Read });
            send(t, base + 1, client(0), m, server(0), 1, req(0));
            recv(t, base + 2, server(0), m, client(0), req(0));
            send(t, base + 3, server(0), m + 1, client(0), 2, resp(0, 1));
            recv(t, base + 4, client(0), m + 1, server(0), resp(0, 1));
            send(t, base + 5, client(0), m + 2, server(1), 2, req(1));
            recv(t, base + 6, server(1), m + 2, client(0), req(1));
            send(t, base + 7, server(1), m + 3, client(0), 2, resp(1, 2));
            recv(t, base + 8, client(0), m + 3, server(1), resp(1, 2));
            t.record(base + 9, client(0), ActionKind::Respond { tx });
        }
    }

    fn two_round_trace() -> Trace {
        let mut t = Trace::new();
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
        send(&mut t, 10, server(0), 9, server(1), 5, MsgInfo::write_request(TxId(0), None));
        assert_eq!(t.rounds_of(TxId(0)), 2);
    }

    #[test]
    fn c2c_counting() {
        let mut t = two_round_trace();
        assert_eq!(t.c2c_count(TxId(0)), 0);
        send(&mut t, 10, client(1), 4, client(0), 1, MsgInfo::client_to_client(Some(TxId(0))));
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
        // reaches the invoker after RESP changes nothing, bounded or not.
        let tx = TxId(0);
        let straggle = |t: &mut Trace| {
            let info = MsgInfo::read_response(tx, Some(ObjectId(0)), 1);
            send(t, 10, server(0), 9, client(0), 2, info);
            recv(t, 11, client(0), 9, server(0), info);
        };
        let mut full = two_round_trace();
        let before = full.read_results(tx).to_vec();
        straggle(&mut full);
        assert_eq!(full.read_results(tx), before.as_slice());

        let mut bounded = Trace::with_action_capacity(4);
        replay_pattern(&mut bounded, 1);
        straggle(&mut bounded);
        assert_eq!(bounded.read_results(tx), before.as_slice());
    }

    #[test]
    fn bounded_trace_aggregates_match_unbounded() {
        let mut full = Trace::new();
        let mut bounded = Trace::with_action_capacity(8);
        replay_pattern(&mut full, 20);
        replay_pattern(&mut bounded, 20);

        assert_eq!(full.len(), 200);
        assert_eq!(bounded.len(), 200, "len counts recorded, not retained");
        let window = bounded.actions();
        assert!(window.len() <= 16, "window is at most 2×capacity");
        assert!(window.len() >= 8, "window keeps the newest capacity");
        assert_eq!(window.last().map(|a| a.seq), Some(199), "newest action retained");
        assert_eq!(window[0].seq, 200 - window.len() as u64, "oldest actions evicted");
        assert_eq!(full.actions().len(), 200);

        // Every per-transaction aggregate is identical, including for
        // transactions whose actions were all evicted long ago.
        for i in 0..20u64 {
            let tx = TxId(i);
            assert_eq!(full.rounds_of(tx), 2);
            assert_eq!(bounded.rounds_of(tx), full.rounds_of(tx), "tx {i}");
            assert_eq!(bounded.c2c_count(tx), full.c2c_count(tx), "tx {i}");
            assert_eq!(bounded.read_results(tx), full.read_results(tx), "tx {i}");
            assert_eq!(bounded.read_results(tx).len(), 2);
            assert!(bounded.read_results(tx).iter().all(|r| r.nonblocking));
        }
    }

    #[test]
    fn commit_log_iterates_and_retires_in_resp_order() {
        let mut t = Trace::with_action_capacity(8);
        replay_pattern(&mut t, 20);
        assert_eq!(t.commit_count(), 20);
        // The log is in RESP order even though the action window evicted
        // almost everything.
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
}
