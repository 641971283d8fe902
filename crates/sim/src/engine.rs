//! The **single dispatch core** every simulator substrate runs on.
//!
//! [`DispatchCore`] owns one partition of a deployment's processes plus the
//! indexed structures the step loop needs — a [`MessagePool`] delivery heap,
//! a `(at, TxId)`-keyed invocation heap, a [`Scheduler`] instance, a
//! [`Trace`] and the per-transaction records — and makes **every dispatch
//! decision in the workspace**: invocation-vs-delivery choice, clock
//! advance, handler execution, effect application, step accounting, and the
//! adversarial driving entry points ([`Simulation::deliver_where`],
//! [`Simulation::force_invoke`]).
//!
//! The serial [`Simulation`] wraps exactly one core (`index 0, stride 1`,
//! so every process is local and the cross-shard outbox stays empty); the
//! sharded [`crate::ParallelSimulation`] instantiates one core per shard
//! and exchanges the cores' outboxes at its epoch barrier.  Historically
//! the two engines carried hand-mirrored copies of this logic ("change
//! dispatch semantics in both places"); the mirror is gone — `scripts/
//! ci.sh` enforces that this module remains the only definition site of
//! the dispatch primitives (`fn step`, `fn run_epoch`,
//! `fn dispatch_invocation`, `fn deliver`, `fn apply_effects`, …).
//!
//! # The clock invariant
//!
//! All clock movement funnels through [`DispatchCore::advance_past`]:
//! dispatching an event advances `now` to `max(now, event_time) + 1`, so
//! **no event is ever dispatched at a clock earlier than its own
//! timestamp** — a delivery never happens before its scheduler-stamped
//! `deliver_at`, a (possibly forced) invocation never before its planned
//! `at`.  The paper's SNOW arguments and the strict-serializability
//! checkers derive real-time precedence edges from these timestamps, so a
//! violation silently widens or inverts the intervals they reason about.
//! The pre-unification `deliver_where`/`force_invoke` paths advanced
//! `now += 1` without the clamp, letting adversarial schedules (the
//! Figs. 3–5 style constructions) record a RESP *before* the delivery
//! that caused it; the clamp fixes that, and debug assertions downstream
//! of it — the delivery-timestamp check in `DispatchCore::deliver` and
//! the monotonicity check the [`Trace`] applies to every reported action
//! — keep the invariant audited.

use crate::fault::{CrashPolicy, FaultState, SendVerdict};
use crate::message::{CausalSummary, MsgId, MsgInfo, PendingMessage, SimMessage as _};
use crate::pool::MessagePool;
use crate::parallel::shard_of;
use crate::scheduler::Scheduler;
use crate::sim::Simulation;
use crate::trace::Trace;
use snow_core::{
    ClientId, Effects, History, Process, ProcessId, TxId, TxKind, TxOutcome, TxRecord, TxSpec,
};
use snow_obs::{NullSink, ObsEvent, TraceSink};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// What a single simulation step did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// An invocation was dispatched to a client.
    Invoked(TxId),
    /// A message was delivered.
    Delivered(MsgId),
    /// Nothing left to do: no pending messages and no future invocations.
    Quiescent,
}

/// A scheduled invocation, ordered by `(at, tx)` for the invocation queue.
#[derive(Debug, Clone)]
pub(crate) struct QueuedInvocation {
    pub(crate) at: u64,
    pub(crate) tx: TxId,
    pub(crate) client: ClientId,
    pub(crate) spec: TxSpec,
}

impl PartialEq for QueuedInvocation {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.tx) == (other.at, other.tx)
    }
}
impl Eq for QueuedInvocation {}
impl PartialOrd for QueuedInvocation {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedInvocation {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (at, tx) on top.
        (other.at, other.tx).cmp(&(self.at, self.tx))
    }
}

/// One dispatch core: a self-contained engine over a subset (possibly all)
/// of a deployment's processes.  See the module docs for how the serial
/// and sharded substrates wrap it.
///
/// `O` is the observability sink the core emits [`ObsEvent`]s into.  The
/// default [`NullSink`] has `ENABLED = false`, so every emission site —
/// written `if O::ENABLED { … }` — monomorphizes away entirely: an
/// unobserved core is the pre-observability core, instruction for
/// instruction.  All stamps are **virtual ticks** (`self.now`); the core
/// never reads a wall clock.
pub(crate) struct DispatchCore<P: Process, S, O: TraceSink = NullSink> {
    /// Which shard this core is (0 for the serial engine).
    pub(crate) index: usize,
    /// Total number of shards; message ids are strided by it (the serial
    /// engine's stride of 1 assigns densely, exactly as it always did).
    pub(crate) stride: u64,
    pub(crate) processes: BTreeMap<ProcessId, P>,
    pub(crate) pool: MessagePool<P::Msg>,
    pub(crate) invocations: BinaryHeap<QueuedInvocation>,
    pub(crate) scheduler: S,
    pub(crate) trace: Trace,
    pub(crate) records: BTreeMap<TxId, TxRecord>,
    pub(crate) now: u64,
    pub(crate) next_msg: u64,
    pub(crate) steps: u64,
    pub(crate) max_steps: u64,
    /// Commit-log position of the last [`DispatchCore::new_commits`] drain.
    pub(crate) commit_cursor: u64,
    /// `(invoked_at, tx)` of every invoked-but-not-responded transaction —
    /// the first entry is the earliest in-flight invocation, which bounds
    /// [`DispatchCore::inv_floor`] in O(log n) per update instead of an
    /// O(records) scan per drain.
    pub(crate) in_flight: BTreeSet<(u64, TxId)>,
    /// Sends addressed to processes of another core, buffered for the
    /// epoch exchange (each carries its causal summary).  Always empty at
    /// stride 1 (everything is local).
    pub(crate) outbox: Vec<PendingMessage<P::Msg>>,
    /// Observability sink (virtual-time events only; `NullSink` by
    /// default, which compiles the emission sites away).
    pub(crate) sink: O,
    /// Fault engine state (`None` = fault-free: every fault check is
    /// guarded by `is_some()`, so an unfaulted core executes the exact
    /// pre-fault-engine path and histories stay byte-identical).
    pub(crate) faults: Option<FaultState<P>>,
}

impl<P, S, O> DispatchCore<P, S, O>
where
    P: Process,
    S: Scheduler<P::Msg>,
    O: TraceSink,
{
    pub(crate) fn new(index: usize, stride: u64, scheduler: S) -> Self
    where
        O: Default,
    {
        DispatchCore {
            index,
            stride,
            processes: BTreeMap::new(),
            pool: MessagePool::new(),
            invocations: BinaryHeap::new(),
            scheduler,
            trace: Trace::default(),
            records: BTreeMap::new(),
            now: 0,
            next_msg: index as u64,
            steps: 0,
            max_steps: 1_000_000,
            commit_cursor: 0,
            in_flight: BTreeSet::new(),
            outbox: Vec::new(),
            sink: O::default(),
            faults: None,
        }
    }

    /// Rebuilds this core around a different observability sink (type
    /// changing, so the emission sites re-monomorphize for `O2`).
    pub(crate) fn with_sink<O2: TraceSink>(self, sink: O2) -> DispatchCore<P, S, O2> {
        DispatchCore {
            index: self.index,
            stride: self.stride,
            processes: self.processes,
            pool: self.pool,
            invocations: self.invocations,
            scheduler: self.scheduler,
            trace: self.trace,
            records: self.records,
            now: self.now,
            next_msg: self.next_msg,
            steps: self.steps,
            max_steps: self.max_steps,
            commit_cursor: self.commit_cursor,
            in_flight: self.in_flight,
            outbox: self.outbox,
            sink,
            faults: self.faults,
        }
    }

    /// Yields and clears the sink's collected events.
    pub(crate) fn drain_events(&mut self) -> Vec<ObsEvent> {
        self.sink.drain()
    }

    /// Observability note from the sharded engine's worker loop: this core
    /// just crossed its epoch barrier, having executed `steps` steps under
    /// `watermark`.  Called only on the multi-shard path (never by the
    /// serial engine or the 1-shard inline fast path), so 1-shard event
    /// streams stay byte-identical to serial ones.
    pub(crate) fn note_epoch(&mut self, epoch: u64, watermark: u64, steps: u64) {
        if O::ENABLED {
            self.sink.emit(ObsEvent::EpochBarrierCrossed {
                at: self.now,
                epoch,
                watermark,
                steps,
            });
        }
    }

    /// Registers a process.  Panics if a process with the same id exists.
    pub(crate) fn add_process(&mut self, process: P) {
        let id = process.id();
        let prev = self.processes.insert(id, process);
        assert!(prev.is_none(), "duplicate process id {id}");
    }

    pub(crate) fn is_local(&self, id: ProcessId) -> bool {
        shard_of(id, self.stride as usize) == self.index
    }

    pub(crate) fn is_complete(&self, tx: TxId) -> bool {
        self.records.get(&tx).map(|r| r.is_complete()).unwrap_or(false)
    }

    /// True if this core has nothing left to do (nothing pending, nothing
    /// planned, nothing awaiting the exchange).
    pub(crate) fn is_quiescent(&self) -> bool {
        self.pool.is_empty() && self.invocations.is_empty() && self.outbox.is_empty()
    }

    /// The earliest virtual time at which this core could take a step
    /// under the dispatch rules, or `None` if it has no work.  Exactly two
    /// dispatch cases exist: a due invocation (planned time reached, or
    /// nothing pending to deliver), else the earliest pending delivery (a
    /// non-empty pool always has a live queue entry).
    pub(crate) fn next_processable(&mut self) -> Option<u64> {
        if let Some(inv) = self.invocations.peek() {
            if inv.at <= self.now || self.pool.is_empty() {
                return Some(inv.at);
            }
        }
        let earliest = self.pool.peek_earliest().map(|(key, _)| key);
        // Strict-key-order schedulers dispatch an invocation ahead of any
        // later-keyed delivery (see [`Scheduler::strict_key_order`]).
        if self.scheduler.strict_key_order() {
            if let (Some(inv), Some(key)) = (self.invocations.peek(), earliest) {
                if inv.at < key {
                    return Some(inv.at);
                }
            }
        }
        earliest
    }

    fn count_step(&mut self) {
        self.steps += 1;
        assert!(
            self.steps <= self.max_steps,
            "engine (shard {}) exceeded {} steps; likely livelock",
            self.index,
            self.max_steps
        );
    }

    /// The one clock rule: dispatching an event stamped `event_at`
    /// advances `now` to `max(now, event_at) + 1`.  Every `now` mutation
    /// in the workspace goes through here, so the invariant *an event is
    /// never dispatched at a clock earlier than its own timestamp* holds
    /// by construction.  A path that bypassed the clamp would trip the
    /// debug assertions downstream of it: the timestamp check in
    /// [`DispatchCore::deliver`] and the monotonicity check the [`Trace`]
    /// applies to every reported action.
    fn advance_past(&mut self, event_at: u64) {
        self.now = self.now.max(event_at) + 1;
    }

    /// One dispatch decision under `watermark`: a due invocation (planned
    /// time reached, or nothing pending to deliver) wins over a delivery;
    /// deliveries are chosen by the scheduler, which may pick *any* live
    /// message, not just ones keyed inside the watermark — the watermark
    /// only gates *whether* a dispatch happens (the due invocation or the
    /// earliest pending delivery must fall below it).  Returns `None`
    /// without counting a step if nothing below the watermark is
    /// dispatchable.  The serial engine passes `u64::MAX`.
    fn try_dispatch(&mut self, watermark: u64) -> Option<StepOutcome> {
        let strict = self.scheduler.strict_key_order();
        let earliest_key = self.pool.peek_earliest().map(|(key, _)| key);
        let due = self
            .invocations
            .peek()
            .map(|inv| {
                let reached = inv.at <= self.now
                    || earliest_key.is_none()
                    || (strict && earliest_key.is_some_and(|key| inv.at < key));
                reached && inv.at < watermark
            })
            .unwrap_or(false);
        if due {
            let inv = self.invocations.pop().expect("peeked invocation");
            self.count_step();
            self.advance_past(inv.at);
            self.dispatch_invocation(inv.tx, inv.client, inv.spec);
            return Some(StepOutcome::Invoked(inv.tx));
        }
        let deliverable = self
            .pool
            .peek_earliest()
            .map(|(key, _)| key < watermark)
            .unwrap_or(false);
        if !deliverable {
            return None;
        }
        match self.scheduler.next(&mut self.pool, self.now) {
            Some(id) => {
                self.count_step();
                let msg = self
                    .pool
                    .remove(id)
                    .expect("scheduler must choose a live message");
                self.advance_past(msg.deliver_at.unwrap_or(self.now));
                if let Some(msg) = self.crash_intercept(msg) {
                    self.deliver(msg);
                }
                Some(StepOutcome::Delivered(id))
            }
            None => None,
        }
    }

    /// One serial step (the historical [`Simulation::step`] contract): an
    /// idle probe — nothing dispatchable — still counts a step.
    pub(crate) fn step(&mut self) -> StepOutcome {
        match self.try_dispatch(u64::MAX) {
            Some(outcome) => outcome,
            None => {
                self.count_step();
                StepOutcome::Quiescent
            }
        }
    }

    /// Drains local events by the dispatch rules until neither a due
    /// invocation nor the earliest pending delivery falls below
    /// `watermark`, the core has nothing left, or (if watching) **any**
    /// watched transaction completes.  Returns steps executed.
    pub(crate) fn run_epoch(&mut self, watermark: u64, watch: &[TxId]) -> u64 {
        let start = self.steps;
        loop {
            if watch.iter().any(|&tx| self.is_complete(tx)) {
                break;
            }
            if self.try_dispatch(watermark).is_none() {
                break;
            }
        }
        self.steps - start
    }

    /// Manual (adversarial) delivery of the first pending message (in send
    /// order) matching `pred`, bypassing the scheduler — see
    /// [`Simulation::deliver_where`].  The clock clamp is the same as a
    /// scheduled delivery's: adversarial order, not adversarial time
    /// travel.
    pub(crate) fn deliver_where<F>(&mut self, pred: F) -> Option<MsgId>
    where
        F: Fn(&PendingMessage<P::Msg>) -> bool,
    {
        let id = self.pool.iter().find(|p| pred(p)).map(|p| p.id)?;
        let msg = self.pool.remove(id).expect("matched message is live");
        self.advance_past(msg.deliver_at.unwrap_or(self.now));
        if let Some(msg) = self.crash_intercept(msg) {
            self.deliver(msg);
        }
        Some(id)
    }

    /// Manual (adversarial) dispatch of `client`'s next planned invocation
    /// — see [`Simulation::force_invoke`].  The clock clamp matches the
    /// scheduled invocation rule: the INV is recorded no earlier than its
    /// planned time.
    pub(crate) fn force_invoke(&mut self, client: ClientId) -> Option<TxId> {
        // "Next" = smallest (at, tx) among that client's plans, matching the
        // engine's dispatch order.  Heap iteration is unordered, so take the
        // minimum explicitly; this adversarial path may be O(n).
        let target = self
            .invocations
            .iter()
            .filter(|inv| inv.client == client)
            .max() // QueuedInvocation's Ord is reversed: max = earliest
            .cloned()?;
        self.invocations.retain(|inv| inv.tx != target.tx);
        self.advance_past(target.at);
        self.dispatch_invocation(target.tx, target.client, target.spec);
        Some(target.tx)
    }

    fn dispatch_invocation(&mut self, tx: TxId, client: ClientId, spec: TxSpec) {
        let pid = ProcessId::Client(client);
        self.trace.invoke(self.now, pid, tx);
        self.records
            .insert(tx, TxRecord::invoked(tx, client, spec.clone(), self.now));
        self.in_flight.insert((self.now, tx));
        if O::ENABLED {
            self.sink.emit(ObsEvent::InvocationDispatched { at: self.now, tx, client });
        }
        let mut effects = Effects::new(self.now);
        let process = self
            .processes
            .get_mut(&pid)
            .unwrap_or_else(|| panic!("invocation for unknown process {pid}"));
        process.on_invoke(tx, spec, &mut effects);
        self.apply_effects(pid, None, effects);
    }

    fn deliver(&mut self, msg: PendingMessage<P::Msg>) {
        // Delivery must happen strictly after the message's own timestamp.
        // `sent_at` is only comparable to `now` on a single-core clock
        // (shards advance their virtual clocks independently).
        debug_assert!(
            msg.deliver_at.is_none_or(|at| at < self.now)
                && (self.stride > 1 || msg.sent_at < self.now),
            "message {} delivered before its own timestamp (sent_at {}, deliver_at {:?}, now {})",
            msg.id,
            msg.sent_at,
            msg.deliver_at,
            self.now
        );
        let info = msg.msg.info();
        self.trace
            .recv(self.now, msg.dst, msg.src, &info, msg.causal.nonblocking());
        if O::ENABLED {
            self.sink.emit(ObsEvent::MessageDelivered {
                at: self.now,
                msg: msg.id.0,
                kind: info.kind,
                tx: info.tx,
                src: msg.src,
                dst: msg.dst,
                queue_depth: self.pool.len() as u32,
            });
        }
        let mut effects = Effects::new(self.now);
        let process = self
            .processes
            .get_mut(&msg.dst)
            .unwrap_or_else(|| panic!("message to unknown process {}", msg.dst));
        process.on_message(msg.src, msg.msg, &mut effects);
        self.apply_effects(msg.dst, Some((&msg.causal, &info)), effects);
    }

    /// Records and routes the effects of one handler run at `at`.  `parent`
    /// is the handled message's summary and classification (`None` for an
    /// invocation); every send derives its own summary from it.
    fn apply_effects(
        &mut self,
        at: ProcessId,
        parent: Option<(&CausalSummary, &MsgInfo)>,
        effects: Effects<P::Msg>,
    ) {
        let (sends, responses) = effects.into_parts();
        for (to, m) in sends {
            let id = MsgId(self.next_msg);
            self.next_msg += self.stride;
            let info = m.info();
            let causal = match parent {
                Some((summary, parent_info)) => summary.child(at, parent_info, &info),
                None => CausalSummary::default(),
            };
            let round = causal.round_depth(at);
            self.trace.send(self.now, at, round, &info);
            // The scheduler always sees the send (its latency/RNG draw
            // sequence is part of the determinism contract), then the fault
            // schedule gets the last word on whether and when the message
            // travels.  `send_verdict` is a pure function of
            // `(schedule, src, dst, sent_at, id)`, so verdicts are
            // independent of decision order across shards.
            let deliver_at = self.scheduler.on_send_to(at, to, id, self.now);
            let verdict = match self.faults.as_ref() {
                Some(f) => f.schedule.send_verdict(at, to, self.now, id),
                None => SendVerdict::default(),
            };
            if self.faults.is_some() {
                self.note_partitions();
            }
            if verdict.dropped {
                // Sent, never inserted: the send still counts toward the
                // trace (a drop is an event of the run).
                if O::ENABLED {
                    self.sink.emit(ObsEvent::MessageSent {
                        at: self.now,
                        msg: id.0,
                        kind: info.kind,
                        tx: info.tx,
                        src: at,
                        dst: to,
                        queue_depth: self.pool.len() as u32,
                        cross_shard: !self.is_local(to),
                    });
                    self.sink.emit(ObsEvent::MessageDropped {
                        at: self.now,
                        msg: id.0,
                        src: at,
                        dst: to,
                    });
                }
                continue;
            }
            let deliver_at = if verdict.extra_delay > 0 || verdict.hold_until.is_some() {
                let base = deliver_at.unwrap_or(self.now).saturating_add(verdict.extra_delay);
                Some(base.max(verdict.hold_until.unwrap_or(0)))
            } else {
                deliver_at
            };
            // The duplicate was sent by the same handler, so it carries the
            // original's summary.
            let dup = verdict.duplicate.then(|| (m.clone(), causal.clone()));
            let pending = PendingMessage {
                id,
                src: at,
                dst: to,
                msg: m,
                sent_at: self.now,
                causal,
                deliver_at,
            };
            let local = self.is_local(to);
            if local {
                self.pool.insert(pending);
            } else {
                self.outbox.push(pending);
            }
            if O::ENABLED {
                self.sink.emit(ObsEvent::MessageSent {
                    at: self.now,
                    msg: id.0,
                    kind: info.kind,
                    tx: info.tx,
                    src: at,
                    dst: to,
                    queue_depth: self.pool.len() as u32,
                    cross_shard: !local,
                });
            }
            if let Some((copy, causal)) = dup {
                // The duplicate is a first-class message: its own
                // (shard-strided) id, its own traced send, its own
                // scheduler draw.  It is not re-evaluated against the fault
                // schedule (no duplicate storms of duplicates).
                let dup_id = MsgId(self.next_msg);
                self.next_msg += self.stride;
                self.trace.send(self.now, at, round, &info);
                let dup_deliver = self.scheduler.on_send_to(at, to, dup_id, self.now);
                let dup_pending = PendingMessage {
                    id: dup_id,
                    src: at,
                    dst: to,
                    msg: copy,
                    sent_at: self.now,
                    causal,
                    deliver_at: dup_deliver,
                };
                if local {
                    self.pool.insert(dup_pending);
                } else {
                    self.outbox.push(dup_pending);
                }
                if O::ENABLED {
                    self.sink.emit(ObsEvent::MessageSent {
                        at: self.now,
                        msg: dup_id.0,
                        kind: info.kind,
                        tx: info.tx,
                        src: at,
                        dst: to,
                        queue_depth: self.pool.len() as u32,
                        cross_shard: !local,
                    });
                    self.sink.emit(ObsEvent::MessageDuplicated {
                        at: self.now,
                        original: id.0,
                        duplicate: dup_id.0,
                        src: at,
                        dst: to,
                    });
                }
            }
        }
        for (tx, outcome) in responses {
            self.trace.respond(self.now, tx);
            if let Some(rec) = self.records.get_mut(&tx) {
                let invoked_at = rec.invoked_at;
                rec.responded_at = Some(self.now);
                rec.outcome = Some(outcome);
                self.in_flight.remove(&(invoked_at, tx));
                if O::ENABLED {
                    self.sink.emit(ObsEvent::TxCommitted {
                        at: self.now,
                        tx,
                        client: rec.client,
                        invoked_at,
                    });
                }
            }
        }
    }

    /// Clones one record enriched with the core's trace aggregates (rounds,
    /// read instrumentation) and a caller-supplied C2C count (the sharded
    /// engine sums across cores).
    fn enriched_record(&self, rec: &TxRecord, c2c_of: &impl Fn(TxId) -> u32) -> TxRecord {
        let tx = rec.tx_id;
        let mut rec = rec.clone();
        rec.rounds = self.trace.rounds_of(tx);
        rec.c2c_messages = c2c_of(tx);
        if rec.kind() == TxKind::Read {
            rec.reads = self.trace.read_results(tx).to_vec();
        }
        rec
    }

    /// Appends this core's transaction records to `history`, enriched with
    /// the core's trace aggregates.  Callers sort the assembled history by
    /// `(invoked_at, tx_id)` once all cores have contributed.
    pub(crate) fn collect_records(&self, history: &mut History, c2c_of: impl Fn(TxId) -> u32) {
        for rec in self.records.values() {
            history.push(self.enriched_record(rec, &c2c_of));
        }
    }

    /// The enriched records of every commit the trace logged since the
    /// last [`DispatchCore::retire_drained_commits`], in local RESP order —
    /// the streaming checker's incremental alternative to re-assembling
    /// the whole history per poll.  Immutable so a caller can pass a
    /// `c2c_of` closure that reads sibling cores' traces; pair with
    /// `retire_drained_commits` once the batch is consumed.
    pub(crate) fn new_commits(&self, c2c_of: impl Fn(TxId) -> u32) -> Vec<TxRecord> {
        self.trace
            .commits_since(self.commit_cursor)
            .filter_map(|tx| self.records.get(&tx))
            .map(|rec| self.enriched_record(rec, &c2c_of))
            .collect()
    }

    /// Marks everything returned by the last [`DispatchCore::new_commits`]
    /// as consumed and retires the trace's commit-log prefix, keeping the
    /// log O(drain window) instead of O(transactions).
    pub(crate) fn retire_drained_commits(&mut self) {
        self.commit_cursor = self.trace.commit_count();
        self.trace.retire_commits(self.commit_cursor);
    }

    /// A lower bound on the `invoked_at` of every commit this core will
    /// log *after* the current drain point: in-flight transactions keep
    /// their invocation time, and any not-yet-dispatched invocation will
    /// be stamped `max(now, at) + 1 > now` by the clock clamp.  This is
    /// the watermark a streaming checker may advance its certification
    /// frontier to.
    pub(crate) fn inv_floor(&self) -> u64 {
        let in_flight = self
            .in_flight
            .first()
            .map(|&(at, _)| at)
            .unwrap_or(u64::MAX);
        in_flight.min(self.now + 1)
    }

    /// Delivery-side fault gate, called after the clock clamp and before
    /// the handler runs.  Applies any crash recoveries for the destination
    /// that have elapsed by `now` (the process is rebuilt **from fresh
    /// state** by the restart factory), then intercepts the delivery if the
    /// attempt lands inside an active crash window: `DropInFlight` loses
    /// the message, `QueueInFlight` re-queues it to deliver no earlier than
    /// the recovery tick.  Returns the message iff delivery proceeds.
    /// A no-op (`Some(msg)`) without a fault schedule.
    fn crash_intercept(&mut self, msg: PendingMessage<P::Msg>) -> Option<PendingMessage<P::Msg>> {
        let Some(mut faults) = self.faults.take() else { return Some(msg) };
        let dst = msg.dst;
        // Recoveries first: every window of `dst` that fully elapsed must
        // have restarted the process before this delivery observes it —
        // even if no delivery was attempted inside the window itself (the
        // state loss happened regardless).
        for i in faults.schedule.elapsed_crashes(dst, self.now) {
            if faults.crash_recovered[i] {
                continue;
            }
            let crash = faults.schedule.crashes[i];
            if !faults.crash_announced[i] {
                faults.crash_announced[i] = true;
                if O::ENABLED {
                    self.sink.emit(ObsEvent::ServerCrashed { at: self.now, server: crash.server });
                }
            }
            faults.crash_recovered[i] = true;
            let restart = faults
                .restart
                .as_mut()
                .expect("crash schedules carry a restart factory (FaultState::new)");
            let fresh = restart(dst);
            assert_eq!(fresh.id(), dst, "restart factory rebuilt the wrong process");
            self.processes.insert(dst, fresh);
            if O::ENABLED {
                self.sink.emit(ObsEvent::ServerRecovered { at: self.now, server: crash.server });
            }
        }
        let mut verdict = Some(msg);
        if let Some((i, crash)) = faults.schedule.crash_window(dst, self.now) {
            if !faults.crash_announced[i] {
                faults.crash_announced[i] = true;
                if O::ENABLED {
                    self.sink.emit(ObsEvent::ServerCrashed { at: self.now, server: crash.server });
                }
            }
            let msg = verdict.take().expect("set above");
            match crash.policy {
                CrashPolicy::DropInFlight => {
                    if O::ENABLED {
                        self.sink.emit(ObsEvent::MessageDropped {
                            at: self.now,
                            msg: msg.id.0,
                            src: msg.src,
                            dst: msg.dst,
                        });
                    }
                }
                CrashPolicy::QueueInFlight => {
                    // Held for the restarted process: re-queued with its
                    // delivery pushed to the recovery tick (the clock
                    // already advanced past the attempt, so the next pick
                    // lands at or past `recover_at` and takes the recovery
                    // path above).
                    let mut held = msg;
                    held.deliver_at = Some(crash.recover_at);
                    self.pool.insert(held);
                }
            }
        }
        self.faults = Some(faults);
        verdict
    }

    /// Lazily announces partition starts and heals: each transition is
    /// emitted once, on the first send decision whose clock observes it.
    /// Pure bookkeeping — the actual cut is decided per message by
    /// [`FaultSchedule::send_verdict`].
    fn note_partitions(&mut self) {
        let Some(faults) = self.faults.as_mut() else { return };
        for (i, p) in faults.schedule.partitions.iter().enumerate() {
            if !faults.partition_started[i] && self.now >= p.from && self.now < p.until {
                faults.partition_started[i] = true;
                if O::ENABLED {
                    self.sink.emit(ObsEvent::PartitionStarted { at: self.now, partition: i as u32 });
                }
            }
            if faults.partition_started[i] && !faults.partition_healed[i] && self.now >= p.until {
                faults.partition_healed[i] = true;
                if O::ENABLED {
                    self.sink.emit(ObsEvent::PartitionHealed { at: self.now, partition: i as u32 });
                }
            }
        }
    }

    /// Fault-engine retirement rule: once the core is quiescent, any
    /// transaction still in flight can never complete — its server crashed
    /// with the request in flight, or a partition swallowed a message of
    /// its protocol exchange.  Retires each as [`TxOutcome::Aborted`]
    /// (recorded as a Respond, so it flows into the commit log and the
    /// streaming checker's certification frontier advances instead of
    /// wedging).  A no-op without a fault schedule: on a fault-free run an
    /// in-flight transaction at quiescence is a protocol bug, and the
    /// existing completeness assertions should keep catching it.
    pub(crate) fn abort_orphans(&mut self) {
        if self.faults.is_none() || !self.is_quiescent() {
            return;
        }
        let orphans: Vec<(u64, TxId)> = std::mem::take(&mut self.in_flight).into_iter().collect();
        for (_, tx) in orphans {
            let rec = self.records.get_mut(&tx).expect("in-flight transaction has a record");
            rec.responded_at = Some(self.now);
            rec.outcome = Some(TxOutcome::Aborted);
            let client = rec.client;
            self.trace.respond(self.now, tx);
            // Let the client automaton drop its in-flight state for the
            // orphan, so the next invocation finds it idle.
            if let Some(p) = self.processes.get_mut(&ProcessId::Client(client)) {
                p.on_abort(tx);
            }
        }
    }
}

// The serial façade's dispatch entry points are defined here, next to the
// core, so that this module remains the single definition site of dispatch
// semantics (`scripts/ci.sh` greps for strays).  Everything else about
// `Simulation` — construction, planning, accessors, run loops, history
// assembly — lives in `crate::sim`.
impl<P, S, O> Simulation<P, S, O>
where
    P: Process,
    S: Scheduler<P::Msg>,
    O: TraceSink,
{
    /// Executes one step: dispatches the earliest due invocation if any,
    /// otherwise delivers the message chosen by the scheduler.  O(log n).
    pub fn step(&mut self) -> StepOutcome {
        self.core.step()
    }

    /// Manual (adversarial) driving: delivers the first pending message (in
    /// send order) matching `pred`, bypassing the scheduler.  Returns the
    /// delivered message id, or `None` if nothing matched.
    ///
    /// The adversary controls *order*, not *time*: the clock advances to
    /// `max(now, deliver_at) + 1` exactly as for a scheduled delivery, so a
    /// latency-stamped message delivered adversarially can never produce
    /// actions (e.g. a RESP) timestamped before its own delivery time.
    /// Under schedulers that stamp no delivery time (FIFO, random) the
    /// clamp is a no-op and the historical `now + 1` behaviour is
    /// unchanged — the Figs. 3–5 constructions drive those.
    pub fn deliver_where<F>(&mut self, pred: F) -> Option<MsgId>
    where
        F: Fn(&PendingMessage<P::Msg>) -> bool,
    {
        self.core.deliver_where(pred)
    }

    /// Manual driving: dispatches the next scheduled invocation for
    /// `client` without waiting for the engine to reach it.  Returns the
    /// transaction id, or `None` if no invocation is queued for that
    /// client.
    ///
    /// The clock clamp matches the engine's own invocation rule: the INV
    /// is recorded at `max(now, at) + 1`, never before the invocation's
    /// planned time (forcing controls *order* relative to other queued
    /// work, it does not rewind time).
    pub fn force_invoke(&mut self, client: ClientId) -> Option<TxId> {
        self.core.force_invoke(client)
    }
}
