//! The async cluster: one tokio task per protocol process.
//!
//! [`AsyncCluster::deploy`] builds the cluster from the same
//! `ProtocolKind`-dispatched deployment path (`snow_protocols::deploy_any`)
//! the simulator's `ClusterSpec` uses, so every protocol runs on both
//! executors with no per-protocol wiring here.
//!
//! The runtime shares the simulator's causal instrumentation: every
//! message carries a `MsgMeta` envelope holding its classification and its
//! [`CausalSummary`], the one primitive both substrates derive a send's
//! round depth and a read response's non-blocking verdict from.  From
//! those the cluster accumulates the same per-transaction round counts,
//! C2C counts and per-read non-blocking/version measurements that the
//! simulators' dispatch core folds into its trace.  Runtime histories are therefore checker-ready,
//! which is what the runtime/simulator parity harness
//! (`tests/runtime_parity.rs`) compares.
//!
//! Instrumentation cost: every tx-attributed send/receipt locks the
//! transaction's **stripe** of a `TxId`-sharded slot map ([`TX_SHARDS`]
//! stripes, one `Mutex<FxHashMap<TxId, TxSlot>>` each) — there is no global
//! mutex anywhere on the per-send path, so concurrent transactions whose
//! ids land on different stripes never contend (`scripts/ci.sh` greps this
//! file to keep it that way).  Each slot carries the transaction's
//! completion waiter and its instrumentation accumulator; completed
//! records land in a per-stripe history vector and are merged (sorted by
//! `(invoked_at, tx_id)`, the simulator's convention) only when
//! [`AsyncCluster::history`] is called.

use parking_lot::Mutex;
use snow_core::{
    CausalSummary, ClientId, History, MsgInfo, MsgKind, Process, ProcessId, ProtocolMessage,
    ReadResult, SnowError, SystemConfig, TxId, TxKind, TxOutcome, TxRecord, TxSpec,
};
use snow_obs::{MetricsRegistry, MetricsSnapshot, ObsEvent, RecordingSink, ShardEvent, TraceSink};
use snow_protocols::{deploy_any, AnyMsg, ProtocolKind};
use snow_core::FxHashMap;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::sync::{mpsc, oneshot};
use tokio::task::JoinHandle;

/// Metadata travelling with every runtime message.
#[derive(Debug, Clone)]
struct MsgMeta {
    /// The message's protocol-agnostic classification.
    info: MsgInfo,
    /// The message's causal past (ancestor destinations, non-blocking bit).
    causal: CausalSummary,
    /// Observability message id assigned at send time (0 when the cluster
    /// is not observed), so the delivery event correlates with the send.
    msg_id: u64,
}

/// What a node task receives in its mailbox.
enum Input<M> {
    /// A protocol message from another process.
    Msg {
        from: ProcessId,
        msg: M,
        meta: MsgMeta,
    },
    /// A transaction invocation (client processes only).
    Invoke { tx: TxId, spec: TxSpec },
    /// Orderly shutdown.
    Shutdown,
}

/// Result of one executed transaction on the runtime.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// The transaction id assigned by the cluster.
    pub tx: TxId,
    /// The protocol outcome.
    pub outcome: TxOutcome,
    /// Wall-clock latency.
    pub latency: Duration,
}

/// Per-transaction instrumentation accumulated while the transaction runs.
#[derive(Debug)]
struct TxInstrument {
    /// The client process that invoked the transaction.
    invoker: ProcessId,
    /// Max causal round depth among the invoker's sends.
    rounds: u32,
    /// Client-to-client sends attributed to the transaction.
    c2c: u32,
    /// Read responses received by the invoker, in receive order.
    reads: Vec<ReadResult>,
}

/// Number of `TxId` stripes in the shared slot map (power of two).  With
/// ids assigned sequentially, consecutive transactions land on distinct
/// stripes, so the per-send instrumentation path of concurrent
/// transactions is lock-disjoint.
pub const TX_SHARDS: usize = 16;

/// The stripe of the sharded slot map transaction `tx` lives on.
fn stripe_of(tx: TxId) -> usize {
    tx.0 as usize & (TX_SHARDS - 1)
}

/// Per-transaction bookkeeping: the completion waiter (taken at RESP) and
/// the instrumentation accumulator (folded into the record at finish).
/// One map entry per in-flight transaction, in its `TxId`'s stripe.
struct TxSlot {
    waiter: Option<oneshot::Sender<TxOutcome>>,
    instrument: TxInstrument,
}

/// Observability state for an observed cluster: trace events striped by
/// `TxId` exactly like the slot map (no global mutex on the per-send path),
/// a shard-striped metrics registry, and the wall clock every event is
/// stamped against.  Runtime events carry **wall-clock nanoseconds since
/// cluster start** — never virtual time, which belongs to the simulators.
struct ObsState {
    /// Per-stripe event sinks, locked by the same `stripe_of` discipline
    /// as the transaction slots.
    sinks: [Mutex<RecordingSink>; TX_SHARDS],
    /// Striped counters/gauges/histograms (`runtime.*` namespace).
    metrics: MetricsRegistry,
    /// Monotonic id source for send/delivery correlation.
    next_msg: AtomicU64,
    /// Event-timestamp origin.
    started: Instant,
}

impl ObsState {
    fn new() -> Self {
        ObsState {
            sinks: std::array::from_fn(|_| Mutex::new(RecordingSink::new())),
            metrics: MetricsRegistry::new(),
            next_msg: AtomicU64::new(1),
            started: Instant::now(),
        }
    }

    /// Wall-clock nanoseconds since the observed cluster started.
    fn now(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Records `event` on the stripe of `tx` — the same lock-disjointness
    /// as the slot map: stripe-disjoint transactions never contend.
    fn emit(&self, tx: TxId, event: ObsEvent) {
        self.sinks[stripe_of(tx)].lock().emit(event);
    }
}

struct Shared {
    /// `TxId`-striped transaction slots — the per-send tx-instrumentation
    /// path locks exactly one stripe, never a global map.
    stripes: [Mutex<FxHashMap<TxId, TxSlot>>; TX_SHARDS],
    /// Observability (events + metrics); `None` on unobserved clusters,
    /// where every emission site reduces to one branch.
    obs: Option<ObsState>,
}

impl Shared {
    fn stripe(&self, tx: TxId) -> &Mutex<FxHashMap<TxId, TxSlot>> {
        &self.stripes[stripe_of(tx)]
    }
}

/// A running cluster of tokio tasks executing one protocol deployment.
pub struct AsyncCluster<M: Send + 'static> {
    inboxes: FxHashMap<ProcessId, mpsc::UnboundedSender<Input<M>>>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    next_tx: AtomicU64,
    started: Instant,
    /// Completed records, striped like the slot map; merged and sorted on
    /// [`AsyncCluster::history`].
    histories: [Mutex<Vec<TxRecord>>; TX_SHARDS],
}

impl AsyncCluster<AnyMsg> {
    /// Spawns the cluster of `protocol` over `config` — the runtime
    /// instantiation of the shared deployment layer.  Any [`ProtocolKind`]
    /// works; configuration requirements (e.g. Algorithm A's MWSR + C2C)
    /// are validated by the deployment itself.
    pub fn deploy(protocol: ProtocolKind, config: &SystemConfig) -> Result<Self, SnowError> {
        Ok(AsyncCluster::spawn(deploy_any(protocol, config)?))
    }

    /// Like [`AsyncCluster::deploy`], with observability enabled: trace
    /// events (wall-clock-stamped, `TxId`-striped) and `runtime.*` metrics
    /// accumulate for [`AsyncCluster::obs_events`] and
    /// [`AsyncCluster::metrics_snapshot`].
    pub fn deploy_observed(
        protocol: ProtocolKind,
        config: &SystemConfig,
    ) -> Result<Self, SnowError> {
        Ok(AsyncCluster::spawn_observed(deploy_any(protocol, config)?))
    }
}

impl<M: Send + 'static> AsyncCluster<M> {
    /// Spawns one task per process.  Generic over the protocol node type;
    /// protocol deployments come through [`AsyncCluster::deploy`].
    pub fn spawn<P>(nodes: Vec<P>) -> Self
    where
        P: Process<Msg = M> + Send + 'static,
        M: ProtocolMessage,
    {
        Self::spawn_inner(nodes, None)
    }

    /// Like [`AsyncCluster::spawn`], with observability enabled.
    pub fn spawn_observed<P>(nodes: Vec<P>) -> Self
    where
        P: Process<Msg = M> + Send + 'static,
        M: ProtocolMessage,
    {
        Self::spawn_inner(nodes, Some(ObsState::new()))
    }

    fn spawn_inner<P>(nodes: Vec<P>, obs: Option<ObsState>) -> Self
    where
        P: Process<Msg = M> + Send + 'static,
        M: ProtocolMessage,
    {
        let shared = Arc::new(Shared {
            stripes: std::array::from_fn(|_| Mutex::new(FxHashMap::default())),
            obs,
        });
        let mut inboxes: FxHashMap<ProcessId, mpsc::UnboundedSender<Input<M>>> =
            FxHashMap::default();
        let mut receivers = Vec::new();
        for node in &nodes {
            let (tx, rx) = mpsc::unbounded_channel();
            inboxes.insert(node.id(), tx);
            receivers.push(rx);
        }
        let mut handles = Vec::new();
        for (mut node, mut rx) in nodes.into_iter().zip(receivers) {
            let inboxes = inboxes.clone();
            let shared = Arc::clone(&shared);
            handles.push(tokio::spawn(async move {
                let my_id = node.id();
                while let Some(input) = rx.recv().await {
                    let mut effects = snow_core::Effects::new(0);
                    let parent: Option<MsgMeta> = match input {
                        Input::Msg { from, msg, meta } => {
                            record_receipt(&shared, my_id, from, &meta);
                            node.on_message(from, msg, &mut effects);
                            Some(meta)
                        }
                        Input::Invoke { tx, spec } => {
                            node.on_invoke(tx, spec, &mut effects);
                            None
                        }
                        Input::Shutdown => break,
                    };
                    let (sends, responses) = effects.into_parts();
                    for (to, msg) in sends {
                        let info = msg.info();
                        let causal = match &parent {
                            Some(p) => p.causal.child(my_id, &p.info, &info),
                            None => CausalSummary::default(),
                        };
                        let msg_id = record_send(&shared, my_id, to, &info, &causal);
                        let meta = MsgMeta { info, causal, msg_id };
                        if let Some(inbox) = inboxes.get(&to) {
                            // A closed peer means the cluster is shutting
                            // down; dropping the message is fine then.
                            let _ = inbox.send(Input::Msg { from: my_id, msg, meta });
                        }
                    }
                    for (tx, outcome) in responses {
                        let waiter = shared
                            .stripe(tx)
                            .lock()
                            .get_mut(&tx)
                            .and_then(|slot| slot.waiter.take());
                        if let Some(waiter) = waiter {
                            let _ = waiter.send(outcome);
                        }
                    }
                }
            }));
        }
        AsyncCluster {
            inboxes,
            handles,
            shared,
            next_tx: AtomicU64::new(0),
            started: Instant::now(),
            histories: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }

    /// Registers the bookkeeping for one invocation and dispatches it.
    fn dispatch(
        &self,
        client: ClientId,
        spec: &TxSpec,
    ) -> Result<(TxId, oneshot::Receiver<TxOutcome>, u64, Instant), SnowError> {
        let tx = TxId(self.next_tx.fetch_add(1, Ordering::Relaxed));
        let inbox = self
            .inboxes
            .get(&ProcessId::Client(client))
            .ok_or_else(|| SnowError::Transport(format!("unknown client {client}")))?;
        let (done_tx, done_rx) = oneshot::channel();
        self.shared.stripe(tx).lock().insert(
            tx,
            TxSlot {
                waiter: Some(done_tx),
                instrument: TxInstrument {
                    invoker: ProcessId::Client(client),
                    rounds: 0,
                    c2c: 0,
                    reads: Vec::new(),
                },
            },
        );
        let invoked_at = self.started.elapsed().as_nanos() as u64;
        if let Some(obs) = &self.shared.obs {
            obs.metrics.add(stripe_of(tx), "runtime.invocations", 1);
            obs.emit(tx, ObsEvent::InvocationDispatched { at: obs.now(), tx, client });
        }
        let start = Instant::now();
        if inbox.send(Input::Invoke { tx, spec: spec.clone() }).is_err() {
            self.abandon(tx);
            return Err(SnowError::Transport("client task terminated".into()));
        }
        Ok((tx, done_rx, invoked_at, start))
    }

    /// Drops the bookkeeping of a transaction that will never finish, so
    /// failed or abandoned executions don't grow the shared maps forever.
    fn abandon(&self, tx: TxId) {
        self.shared.stripe(tx).lock().remove(&tx);
    }

    /// Assembles the completed record of `tx`, folding in the accumulated
    /// instrumentation, and appends it to the history.
    fn finish(
        &self,
        tx: TxId,
        client: ClientId,
        spec: TxSpec,
        invoked_at: u64,
        latency: Duration,
        outcome: TxOutcome,
    ) -> ExecReport {
        let mut record = TxRecord::invoked(tx, client, spec, invoked_at);
        record.responded_at = Some(invoked_at + latency.as_nanos() as u64);
        record.outcome = Some(outcome.clone());
        if let Some(slot) = self.shared.stripe(tx).lock().remove(&tx) {
            let ins = slot.instrument;
            record.rounds = ins.rounds;
            record.c2c_messages = ins.c2c;
            if record.kind() == TxKind::Read {
                record.reads = ins.reads;
            }
        }
        self.histories[stripe_of(tx)].lock().push(record);
        if let Some(obs) = &self.shared.obs {
            obs.metrics.add(stripe_of(tx), "runtime.commits", 1);
            obs.metrics.observe(stripe_of(tx), "runtime.tx_latency_ns", latency.as_nanos() as u64);
            obs.emit(tx, ObsEvent::TxCommitted { at: obs.now(), tx, client, invoked_at });
        }
        ExecReport { tx, outcome, latency }
    }

    /// Takes the observability events recorded so far, tagged with the
    /// `TxId` stripe they were recorded on (shard = stripe index) and
    /// concatenated in stripe order.  Empty on unobserved clusters.
    ///
    /// Runtime event timestamps are **wall-clock nanoseconds** since the
    /// cluster started — unlike simulator events, they are not
    /// reproducible across runs.
    pub fn obs_events(&self) -> Vec<ShardEvent> {
        let Some(obs) = &self.shared.obs else { return Vec::new() };
        let mut out = Vec::new();
        for (i, sink) in obs.sinks.iter().enumerate() {
            for event in sink.lock().drain() {
                out.push(ShardEvent { shard: i as u32, event });
            }
        }
        out
    }

    /// A snapshot of the `runtime.*` metrics registry, or `None` on
    /// unobserved clusters.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.shared.obs.as_ref().map(|obs| obs.metrics.snapshot())
    }

    /// Executes one transaction at `client` and awaits its outcome.
    pub async fn execute(
        &self,
        client: ClientId,
        spec: TxSpec,
    ) -> Result<ExecReport, SnowError> {
        let (tx, done_rx, invoked_at, start) = self.dispatch(client, &spec)?;
        let outcome = done_rx.await.map_err(|_| {
            self.abandon(tx);
            SnowError::Incomplete(tx)
        })?;
        let latency = start.elapsed();
        Ok(self.finish(tx, client, spec, invoked_at, latency, outcome))
    }

    /// Executes a batch of `(client, spec)` pairs concurrently: every
    /// invocation is dispatched before any outcome is awaited, so the
    /// transactions genuinely overlap.
    ///
    /// Each client may appear at most once per batch — the model's
    /// well-formedness requirement (one outstanding transaction per client).
    /// A batch that repeats a client is rejected with
    /// [`SnowError::NotWellFormed`] before anything is dispatched.
    pub async fn execute_all(
        &self,
        batch: Vec<(ClientId, TxSpec)>,
    ) -> Result<Vec<ExecReport>, SnowError> {
        let mut seen = HashSet::new();
        for (client, _) in &batch {
            if !seen.insert(*client) {
                return Err(SnowError::NotWellFormed {
                    reason: format!(
                        "client {client} appears more than once in one execute_all batch \
                         (one outstanding transaction per client)"
                    ),
                });
            }
            if !self.inboxes.contains_key(&ProcessId::Client(*client)) {
                return Err(SnowError::Transport(format!("unknown client {client}")));
            }
        }
        let mut in_flight = Vec::with_capacity(batch.len());
        for (client, spec) in batch {
            let (tx, done_rx, invoked_at, start) = self.dispatch(client, &spec)?;
            in_flight.push((tx, client, spec, done_rx, start, invoked_at));
        }
        let mut out = Vec::with_capacity(in_flight.len());
        let mut in_flight = in_flight.into_iter();
        while let Some((tx, client, spec, done_rx, start, invoked_at)) = in_flight.next() {
            let outcome = match done_rx.await {
                Ok(outcome) => outcome,
                Err(_) => {
                    // Abort the batch without leaking the bookkeeping of
                    // the failed transaction or of the ones not awaited.
                    self.abandon(tx);
                    for (tx, ..) in in_flight {
                        self.abandon(tx);
                    }
                    return Err(SnowError::Incomplete(tx));
                }
            };
            let latency = start.elapsed();
            out.push(self.finish(tx, client, spec, invoked_at, latency, outcome));
        }
        Ok(out)
    }

    /// The history of everything executed so far (latencies in nanoseconds,
    /// round/C2C/per-read instrumentation included).  Merges the per-stripe
    /// record vectors, sorted by `(invoked_at, tx_id)` — the simulator
    /// histories' convention.
    pub fn history(&self) -> History {
        let mut history = History::new();
        for stripe in &self.histories {
            for record in stripe.lock().iter() {
                history.push(record.clone());
            }
        }
        history.records.sort_by_key(|r| (r.invoked_at, r.tx_id));
        history
    }

    /// Shuts the cluster down and waits for every task to exit.
    pub async fn shutdown(mut self) {
        for inbox in self.inboxes.values() {
            let _ = inbox.send(Input::Shutdown);
        }
        self.inboxes.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.await;
        }
    }
}

/// Folds one send into the per-transaction instrumentation — the same rules
/// the simulators' trace applies to a send.  Locks only the
/// transaction's stripe: sends of stripe-disjoint transactions never
/// serialize on each other.  On observed clusters also records a
/// [`ObsEvent::MessageSent`] on the transaction's sink stripe and returns
/// the assigned message id (0 otherwise).
fn record_send(
    shared: &Shared,
    sender: ProcessId,
    to: ProcessId,
    info: &MsgInfo,
    causal: &CausalSummary,
) -> u64 {
    let Some(tx) = info.tx else { return 0 };
    let mut msg_id = 0;
    if let Some(obs) = &shared.obs {
        msg_id = obs.next_msg.fetch_add(1, Ordering::Relaxed);
        obs.metrics.add(stripe_of(tx), "runtime.sends", 1);
        let depth = shared.stripe(tx).lock().len() as u32;
        obs.emit(
            tx,
            ObsEvent::MessageSent {
                at: obs.now(),
                msg: msg_id,
                kind: info.kind,
                tx: Some(tx),
                src: sender,
                dst: to,
                queue_depth: depth,
                // The runtime has no shard topology: every send crosses
                // task (thread) boundaries, none crosses a shard barrier.
                cross_shard: false,
            },
        );
    }
    let mut stripe = shared.stripe(tx).lock();
    let Some(slot) = stripe.get_mut(&tx) else { return msg_id };
    let ins = &mut slot.instrument;
    if info.kind == MsgKind::ClientToClient {
        ins.c2c += 1;
        return msg_id;
    }
    if ins.invoker == sender {
        ins.rounds = ins.rounds.max(causal.round_depth(sender));
    }
    msg_id
}

/// Folds one delivery into the per-transaction instrumentation — the same
/// rules the simulators' trace applies to a receipt.  On observed
/// clusters every tx-attributed delivery also records a
/// [`ObsEvent::MessageDelivered`] on the transaction's sink stripe.
fn record_receipt(shared: &Shared, receiver: ProcessId, from: ProcessId, meta: &MsgMeta) {
    let info = meta.info;
    if let (Some(obs), Some(tx)) = (&shared.obs, info.tx) {
        obs.metrics.add(stripe_of(tx), "runtime.deliveries", 1);
        let depth = shared.stripe(tx).lock().len() as u32;
        obs.metrics.gauge_max(stripe_of(tx), "runtime.queue_depth_peak", i64::from(depth));
        obs.emit(
            tx,
            ObsEvent::MessageDelivered {
                at: obs.now(),
                msg: meta.msg_id,
                kind: info.kind,
                tx: Some(tx),
                src: from,
                dst: receiver,
                queue_depth: depth,
            },
        );
    }
    if info.kind != MsgKind::ReadResponse {
        return;
    }
    let (Some(tx), Some(object)) = (info.tx, info.object) else {
        return; // metadata response (e.g. get-tag-arr)
    };
    let Some(server) = from.as_server() else {
        return;
    };
    let mut stripe = shared.stripe(tx).lock();
    let Some(slot) = stripe.get_mut(&tx) else { return };
    let ins = &mut slot.instrument;
    if ins.invoker != receiver {
        return;
    }
    ins.reads.push(ReadResult {
        object,
        server,
        versions_in_response: info.versions.max(1),
        nonblocking: meta.causal.nonblocking(),
    });
}

/// Runs `reads` timed READ transactions (each over `objects`) against a
/// freshly spawned cluster of `protocol`, after seeding it with `writes`
/// WRITE transactions and `warmup` *untimed* reads, and returns the timed
/// read latencies in nanoseconds.
///
/// The warmup phase exists because a cold cluster's first reads pay
/// one-time costs (task wakeup paths, allocator warmup, branch training)
/// that have nothing to do with the protocol: without it, a 200-read
/// sample's p99 is dominated by cold-start outliers rather than steady
/// state (ISSUE 6 satellite).  This is the helper the latency benchmarks
/// use; it is one code path for every protocol, courtesy of the erased
/// deployment layer.
pub async fn measure_read_latencies(
    protocol: ProtocolKind,
    config: &SystemConfig,
    writes: usize,
    warmup: usize,
    reads: usize,
) -> Result<Vec<u64>, SnowError> {
    use snow_core::{ObjectId, Value};
    let objects: Vec<ObjectId> = config.objects().collect();
    let reader = config.readers().next().expect("one reader");
    let writer = config.writers().next().expect("one writer");
    let read_spec = TxSpec::read(objects.clone());

    let cluster = AsyncCluster::deploy(protocol, config)?;
    for i in 0..writes {
        let spec = TxSpec::write(
            objects
                .iter()
                .map(|o| (*o, Value::derived(writer.0, i as u64 + 1, o.0)))
                .collect(),
        );
        cluster.execute(writer, spec).await?;
    }
    for _ in 0..warmup {
        cluster.execute(reader, read_spec.clone()).await?;
    }
    let mut latencies = Vec::with_capacity(reads);
    for _ in 0..reads {
        let report = cluster.execute(reader, read_spec.clone()).await?;
        latencies.push(report.latency.as_nanos() as u64);
    }
    cluster.shutdown().await;
    Ok(latencies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::{ObjectId, Value};

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn alg_b_runs_on_tokio_and_reads_see_writes() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let cluster = AsyncCluster::deploy(ProtocolKind::AlgB, &config).unwrap();
        let writer = config.writers().next().unwrap();
        let reader = config.readers().next().unwrap();
        let w = cluster
            .execute(
                writer,
                TxSpec::write(vec![(ObjectId(0), Value(7)), (ObjectId(1), Value(8))]),
            )
            .await
            .unwrap();
        assert!(w.outcome.as_write().is_some());
        let r = cluster
            .execute(reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)]))
            .await
            .unwrap();
        let out = r.outcome.as_read().unwrap();
        assert_eq!(out.value_for(ObjectId(0)), Some(Value(7)));
        assert_eq!(out.value_for(ObjectId(1)), Some(Value(8)));
        assert!(r.latency.as_nanos() > 0);
        assert_eq!(cluster.history().len(), 2);
        cluster.shutdown().await;
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn runtime_histories_carry_trace_equivalent_instrumentation() {
        // The Algorithm B signature the simulator derives from its trace —
        // two rounds, one version per response, non-blocking, no C2C — must
        // come out of the runtime's envelope instrumentation too.
        let config = SystemConfig::mwmr(2, 1, 1);
        let cluster = AsyncCluster::deploy(ProtocolKind::AlgB, &config).unwrap();
        let writer = config.writers().next().unwrap();
        let reader = config.readers().next().unwrap();
        cluster
            .execute(writer, TxSpec::write(vec![(ObjectId(0), Value(1))]))
            .await
            .unwrap();
        let r = cluster
            .execute(reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)]))
            .await
            .unwrap();
        let history = cluster.history();
        let rec = history.get(r.tx).unwrap();
        assert_eq!(rec.rounds, 2, "round 1 get-tag-arr + round 2 read-val");
        assert_eq!(rec.reads.len(), 2, "one ReadResult per object");
        assert!(rec.all_reads_nonblocking());
        assert_eq!(rec.max_versions_per_read(), 1);
        assert_eq!(rec.c2c_messages, 0);
        // Algorithm A: C2C registration is visible on the write path.
        let config = SystemConfig::mwsr(2, 1, true);
        let cluster = AsyncCluster::deploy(ProtocolKind::AlgA, &config).unwrap();
        let writer = config.writers().next().unwrap();
        let w = cluster
            .execute(writer, TxSpec::write(vec![(ObjectId(0), Value(3))]))
            .await
            .unwrap();
        let history = cluster.history();
        assert_eq!(history.get(w.tx).unwrap().c2c_messages, 2, "info-reader + info-ack");
        cluster.shutdown().await;
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn every_protocol_executes_on_the_runtime() {
        for protocol in ProtocolKind::all() {
            let config = if protocol.needs_c2c() {
                SystemConfig::mwsr(2, 1, true)
            } else {
                SystemConfig::mwmr(2, 1, 1)
            };
            let latencies = measure_read_latencies(protocol, &config, 3, 2, 5).await.unwrap();
            assert_eq!(latencies.len(), 5, "{protocol:?}");
            assert!(latencies.iter().all(|l| *l > 0), "{protocol:?}");
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn concurrent_batch_execution_completes() {
        let config = SystemConfig::mwmr(4, 2, 2);
        let cluster = AsyncCluster::deploy(ProtocolKind::AlgC, &config).unwrap();
        let readers: Vec<_> = config.readers().collect();
        let writers: Vec<_> = config.writers().collect();
        let batch = vec![
            (writers[0], TxSpec::write(vec![(ObjectId(0), Value(1))])),
            (writers[1], TxSpec::write(vec![(ObjectId(1), Value(2))])),
            (readers[0], TxSpec::read(vec![ObjectId(0), ObjectId(1)])),
            (readers[1], TxSpec::read(vec![ObjectId(2), ObjectId(3)])),
        ];
        let reports = cluster.execute_all(batch).await.unwrap();
        assert_eq!(reports.len(), 4);
        cluster.shutdown().await;
    }

    #[tokio::test]
    async fn repeated_client_in_a_batch_is_rejected() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let cluster = AsyncCluster::deploy(ProtocolKind::AlgB, &config).unwrap();
        let writer = config.writers().next().unwrap();
        let batch = vec![
            (writer, TxSpec::write(vec![(ObjectId(0), Value(1))])),
            (writer, TxSpec::write(vec![(ObjectId(1), Value(2))])),
        ];
        let err = cluster.execute_all(batch).await.unwrap_err();
        assert!(matches!(err, SnowError::NotWellFormed { .. }), "{err}");
        // An unknown client anywhere in the batch is also rejected before
        // anything is dispatched.
        let mixed = vec![
            (writer, TxSpec::write(vec![(ObjectId(0), Value(9))])),
            (ClientId(99), TxSpec::read(vec![ObjectId(0)])),
        ];
        let err = cluster.execute_all(mixed).await.unwrap_err();
        assert!(matches!(err, SnowError::Transport(_)), "{err}");
        // Nothing was dispatched: the cluster still executes cleanly.
        let ok = cluster
            .execute_all(vec![(writer, TxSpec::write(vec![(ObjectId(0), Value(3))]))])
            .await
            .unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(cluster.history().len(), 1);
        cluster.shutdown().await;
    }

    #[test]
    fn sequential_transactions_land_on_distinct_stripes() {
        // The de-serialization property: with sequentially assigned ids,
        // any TX_SHARDS consecutive transactions occupy TX_SHARDS distinct
        // stripes, so their per-send instrumentation paths take disjoint
        // locks.  (That the stripes are separate Mutex instances is by
        // construction of the `stripes` array.)
        let stripes: HashSet<usize> = (0..TX_SHARDS as u64)
            .map(|i| stripe_of(TxId(1_000 + i)))
            .collect();
        assert_eq!(stripes.len(), TX_SHARDS);
    }

    #[tokio::test]
    async fn unknown_client_is_an_error() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let cluster = AsyncCluster::deploy(ProtocolKind::Simple, &config).unwrap();
        let err = cluster
            .execute(ClientId(99), TxSpec::read(vec![ObjectId(0)]))
            .await
            .unwrap_err();
        assert!(matches!(err, SnowError::Transport(_)));
        cluster.shutdown().await;
    }
}
