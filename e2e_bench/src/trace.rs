//! Outside-in tracing: spans recorded by the benchmark around its calls into
//! each crate's public API.
//!
//! * [`span`] times a call on the main thread.  Spans nest; a span's self
//!   time is its duration minus its child spans and minus the protocol
//!   handler time that ran inside it.  The root span ([`Label::Root`])
//!   belongs to no layer, so its self time is the traced wall the layers do
//!   not cover, and the self times of all labels sum to the root duration.
//! * [`Timed`] wraps a `deploy_any` node behind the public
//!   `snow_core::Process` trait, so handler time is measured on whichever
//!   thread the engine runs it (the sharded engine runs handlers on its
//!   worker threads).  Each handler span is tagged with its transaction
//!   (`ProtocolMessage::info().tx`, or the invoked id).
//! * [`TracedCluster`] wraps the public `snow_protocols::Cluster` trait the
//!   drivers accept, and can ride a `StreamChecker` on the commit drain the
//!   way the streaming check mode does.

use crate::alloc;
use snow_checker::{StreamChecker, Verdict};
use snow_core::{ClientId, Effects, History, Process, ProcessId, ProtocolMessage, TxId, TxSpec};
use snow_protocols::{AnyMsg, AnyNode, Cluster, CommitDrain};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// The crates a span is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// `snow-workload`: generators and drivers.
    Workload = 0,
    /// `snow-protocols`: deployment and protocol handlers.
    Protocols = 1,
    /// `snow-sim`: dispatch core, pool, scheduler, trace, history, drains.
    Sim = 2,
    /// `snow-checker`: streaming, post-hoc and SNOW checks.
    Checker = 3,
    /// The benchmark's own code between spans.
    None = 4,
}

impl Layer {
    /// Number of layers, [`Layer::None`] included.
    pub const COUNT: usize = 5;
    /// The four program layers, in report order.
    pub const PROGRAM: [Layer; 4] = [
        Layer::Workload,
        Layer::Protocols,
        Layer::Sim,
        Layer::Checker,
    ];

    /// Name used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Workload => "workload",
            Layer::Protocols => "protocols",
            Layer::Sim => "sim",
            Layer::Checker => "checker",
            Layer::None => "none",
        }
    }
}

/// What a span times.  Each label belongs to one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// The whole traced run.
    Root,
    /// A driver call (`drive_open_loop`, `WorkloadDriver::run`, the
    /// scenario round loop).
    Driver,
    /// `deploy_any`.
    Deploy,
    /// Protocol handlers (`Process::on_invoke` / `on_message`).
    Handler,
    /// Assembling the simulator around the deployed nodes.
    Build,
    /// `Cluster::invoke_at` / `invoke_batch`.
    Invoke,
    /// `Cluster::run_until_*`.
    Run,
    /// `Cluster::is_complete` / `now`.
    Query,
    /// `Cluster::history`.
    History,
    /// `Cluster::drain_commits`.
    Drain,
    /// Dropping the simulator at the end of an execution.
    Teardown,
    /// `StreamChecker::ingest` / `ingest_incomplete`.
    StreamIngest,
    /// `StreamChecker::advance_watermark`.
    StreamWatermark,
    /// `StreamChecker::finish`.
    StreamFinish,
    /// `check_auto`, or the S check of `SnowChecker`.
    CheckAuto,
    /// The N, O and W checks of `SnowChecker`.
    SnowProps,
    /// `HistoryMetrics::from_history`.
    Metrics,
}

impl Label {
    /// Number of labels.
    pub const COUNT: usize = 17;
    const ALL: [Label; Label::COUNT] = [
        Label::Root,
        Label::Driver,
        Label::Deploy,
        Label::Handler,
        Label::Build,
        Label::Invoke,
        Label::Run,
        Label::Query,
        Label::History,
        Label::Drain,
        Label::Teardown,
        Label::StreamIngest,
        Label::StreamWatermark,
        Label::StreamFinish,
        Label::CheckAuto,
        Label::SnowProps,
        Label::Metrics,
    ];

    /// The layer this label is charged to.
    pub fn layer(self) -> Layer {
        match self {
            Label::Root => Layer::None,
            Label::Driver => Layer::Workload,
            Label::Deploy | Label::Handler => Layer::Protocols,
            Label::Build
            | Label::Invoke
            | Label::Run
            | Label::Query
            | Label::History
            | Label::Drain
            | Label::Teardown => Layer::Sim,
            Label::StreamIngest
            | Label::StreamWatermark
            | Label::StreamFinish
            | Label::CheckAuto
            | Label::SnowProps
            | Label::Metrics => Layer::Checker,
        }
    }
}

/// Handler counters shared by every [`Timed`] node of one deployment.
#[derive(Debug)]
pub struct HandlerStats {
    total_ns: AtomicU64,
    invokes: AtomicU64,
    deliveries: AtomicU64,
    /// Handler time per transaction, indexed by `TxId`.
    per_tx_ns: Vec<AtomicU64>,
}

impl HandlerStats {
    /// Counters able to tag handler time to transaction ids below
    /// `max_tx`.
    pub fn new(max_tx: usize) -> Arc<Self> {
        Arc::new(HandlerStats {
            total_ns: AtomicU64::new(0),
            invokes: AtomicU64::new(0),
            deliveries: AtomicU64::new(0),
            per_tx_ns: (0..max_tx).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn record(&self, tx: Option<TxId>, ns: u64) {
        self.total_ns.fetch_add(ns, Relaxed);
        if let Some(slot) = tx.and_then(|tx| self.per_tx_ns.get(tx.0 as usize)) {
            slot.fetch_add(ns, Relaxed);
        }
    }

    /// Total handler time so far.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Relaxed)
    }

    /// `on_invoke` calls so far.
    pub fn invokes(&self) -> u64 {
        self.invokes.load(Relaxed)
    }

    /// `on_message` calls so far.
    pub fn deliveries(&self) -> u64 {
        self.deliveries.load(Relaxed)
    }

    /// Handler time tagged to `tx`.
    pub fn tx_ns(&self, tx: TxId) -> u64 {
        self.per_tx_ns
            .get(tx.0 as usize)
            .map_or(0, |slot| slot.load(Relaxed))
    }
}

/// A deployed node whose handlers are timed.
#[derive(Debug)]
pub struct Timed {
    inner: AnyNode,
    stats: Arc<HandlerStats>,
}

impl Timed {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: AnyNode, stats: Arc<HandlerStats>) -> Self {
        Timed { inner, stats }
    }
}

impl Process for Timed {
    type Msg = AnyMsg;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_invoke(&mut self, tx_id: TxId, spec: TxSpec, effects: &mut Effects<AnyMsg>) {
        let previous = alloc::enter(Layer::Protocols);
        let start = Instant::now();
        self.inner.on_invoke(tx_id, spec, effects);
        let ns = start.elapsed().as_nanos() as u64;
        alloc::restore(previous);
        self.stats.invokes.fetch_add(1, Relaxed);
        self.stats.record(Some(tx_id), ns);
    }

    fn on_message(&mut self, from: ProcessId, msg: AnyMsg, effects: &mut Effects<AnyMsg>) {
        let tx = msg.info().tx;
        let previous = alloc::enter(Layer::Protocols);
        let start = Instant::now();
        self.inner.on_message(from, msg, effects);
        let ns = start.elapsed().as_nanos() as u64;
        alloc::restore(previous);
        self.stats.deliveries.fetch_add(1, Relaxed);
        self.stats.record(tx, ns);
    }

    fn on_abort(&mut self, tx_id: TxId) {
        self.inner.on_abort(tx_id);
    }
}

/// Span totals of one traced run, indexed by `Label as usize`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Self time per label.  [`Label::Handler`] holds the handler time
    /// claimed inside main-thread spans.
    pub self_ns: [u64; Label::COUNT],
    /// Inclusive duration per label (for [`Label::Handler`]: all handler
    /// time on every thread).
    pub total_ns: [u64; Label::COUNT],
    /// Closed spans per label.
    pub calls: [u64; Label::COUNT],
}

impl SpanTotals {
    /// Self time of `label`.
    pub fn self_of(&self, label: Label) -> u64 {
        self.self_ns[label as usize]
    }

    /// Inclusive time of `label`.
    pub fn total_of(&self, label: Label) -> u64 {
        self.total_ns[label as usize]
    }

    /// Self time of every label in `layer`.
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        Label::ALL
            .iter()
            .filter(|l| l.layer() == layer)
            .map(|l| self.self_of(*l))
            .sum()
    }

    /// The traced wall: the root span's duration.
    pub fn wall_ns(&self) -> u64 {
        self.total_of(Label::Root)
    }
}

struct Frame {
    label: Label,
    start: Instant,
    child_ns: u64,
    handler_at_start: u64,
    child_handler_ns: u64,
    previous_alloc: u8,
}

struct Tracer {
    stack: Vec<Frame>,
    totals: SpanTotals,
    handlers: Arc<HandlerStats>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread, charging handler time from
/// `handlers`.
pub fn install(handlers: Arc<HandlerStats>) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            stack: Vec::with_capacity(16),
            totals: SpanTotals::default(),
            handlers,
        });
    });
}

/// Stops recording and returns the totals.
///
/// # Panics
/// Panics if no tracer is installed or a span is still open.
pub fn uninstall() -> SpanTotals {
    let tracer = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("a tracer is installed");
    assert!(
        tracer.stack.is_empty(),
        "every span is closed before uninstalling"
    );
    let mut totals = tracer.totals;
    totals.total_ns[Label::Handler as usize] = tracer.handlers.total_ns();
    totals
}

/// Runs `f` inside a span of `label`.  Without an installed tracer this is
/// a plain call.
pub fn span<R>(label: Label, f: impl FnOnce() -> R) -> R {
    let open = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tracer) => {
            let handler_at_start = tracer.handlers.total_ns();
            let previous_alloc = alloc::enter(label.layer());
            tracer.stack.push(Frame {
                label,
                start: Instant::now(),
                child_ns: 0,
                handler_at_start,
                child_handler_ns: 0,
                previous_alloc,
            });
            true
        }
        None => false,
    });
    let out = f();
    if open {
        TRACER.with(|t| {
            close(
                t.borrow_mut()
                    .as_mut()
                    .expect("the tracer outlives its spans"),
            )
        });
    }
    out
}

fn close(tracer: &mut Tracer) {
    let end = Instant::now();
    let frame = tracer.stack.pop().expect("a span is open");
    let dur = (end - frame.start).as_nanos() as u64;
    let handler_ns = tracer.handlers.total_ns() - frame.handler_at_start;
    let own_handler = handler_ns.saturating_sub(frame.child_handler_ns);
    let available = dur.saturating_sub(frame.child_ns);
    // Handlers running in parallel on the sharded engine's workers can add
    // up to more than the enclosing span's wall; charge at most that wall.
    let claimed = own_handler.min(available);
    let totals = &mut tracer.totals;
    totals.self_ns[Label::Handler as usize] += claimed;
    totals.self_ns[frame.label as usize] += available - claimed;
    totals.total_ns[frame.label as usize] += dur;
    totals.calls[frame.label as usize] += 1;
    alloc::restore(frame.previous_alloc);
    if let Some(parent) = tracer.stack.last_mut() {
        parent.child_ns += dur;
        parent.child_handler_ns += handler_ns;
    }
}

/// Counts of the commit-drain tap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainCounts {
    /// `drain_commits` calls.
    pub drains: u64,
    /// Records those calls returned.
    pub records: u64,
}

/// A [`Cluster`] whose every call is a span, optionally feeding a
/// [`StreamChecker`] after each completion wave.
pub struct TracedCluster {
    inner: Box<dyn Cluster>,
    stream: Option<StreamChecker>,
    run_calls: u64,
    drains: DrainCounts,
}

impl TracedCluster {
    /// Wraps `inner`; with `streaming`, a `StreamChecker` ingests the commit
    /// drain after every `run_until_any_complete` that completed something,
    /// exactly where the streaming check mode drains.
    pub fn new(inner: Box<dyn Cluster>, streaming: bool) -> Self {
        TracedCluster {
            inner,
            stream: streaming.then(StreamChecker::new),
            run_calls: 0,
            drains: DrainCounts::default(),
        }
    }

    /// `run_until_*` calls so far.
    pub fn run_calls(&self) -> u64 {
        self.run_calls
    }

    /// Commit-drain counts so far.
    pub fn drain_counts(&self) -> DrainCounts {
        self.drains
    }

    fn drain_into_stream(&mut self) {
        let drain = self.drain_commits();
        let checker = self.stream.as_mut().expect("streaming is on");
        for rec in drain.records {
            span(Label::StreamIngest, || checker.ingest(rec));
        }
        span(Label::StreamWatermark, || {
            checker.advance_watermark(drain.inv_floor)
        });
    }

    /// Ends a streaming run the way the streaming check mode does: a last
    /// drain, every incomplete record, then the verdict.  Also returns the
    /// checker's report.
    ///
    /// # Panics
    /// Panics if the cluster was built without streaming.
    pub fn finish_stream(&mut self, history: &History) -> (Verdict, snow_checker::StreamReport) {
        self.drain_into_stream();
        let mut checker = self.stream.take().expect("streaming is on");
        for rec in history.records.iter().filter(|r| !r.is_complete()) {
            span(Label::StreamIngest, || {
                checker.ingest_incomplete(rec.clone())
            });
        }
        let verdict = span(Label::StreamFinish, || checker.finish());
        (verdict, checker.report())
    }
}

impl Cluster for TracedCluster {
    fn invoke_at(&mut self, at: u64, client: ClientId, spec: TxSpec) -> TxId {
        span(Label::Invoke, || self.inner.invoke_at(at, client, spec))
    }

    fn invoke_batch(&mut self, at: u64, batch: Vec<(ClientId, TxSpec)>) -> Vec<TxId> {
        span(Label::Invoke, || self.inner.invoke_batch(at, batch))
    }

    fn run_until_quiescent(&mut self) -> u64 {
        self.run_calls += 1;
        span(Label::Run, || self.inner.run_until_quiescent())
    }

    fn run_until_complete(&mut self, tx: TxId) -> bool {
        self.run_calls += 1;
        span(Label::Run, || self.inner.run_until_complete(tx))
    }

    fn run_until_any_complete(&mut self, watch: &[TxId]) -> Option<TxId> {
        self.run_calls += 1;
        let done = span(Label::Run, || self.inner.run_until_any_complete(watch));
        if done.is_some() && self.stream.is_some() {
            self.drain_into_stream();
        }
        done
    }

    fn is_complete(&self, tx: TxId) -> bool {
        span(Label::Query, || self.inner.is_complete(tx))
    }

    fn history(&self) -> History {
        span(Label::History, || self.inner.history())
    }

    fn now(&self) -> u64 {
        span(Label::Query, || self.inner.now())
    }

    fn drain_commits(&mut self) -> CommitDrain {
        let drain = span(Label::Drain, || self.inner.drain_commits());
        self.drains.drains += 1;
        self.drains.records += drain.records.len() as u64;
        drain
    }
}
