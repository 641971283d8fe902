//! The three workloads, each runnable untraced (through the library's own
//! entry points), traced (the same program rebuilt from public parts with
//! [`crate::trace`] wrappers), and observed (with the simulator's own event
//! recording, for the counters only it keeps).

use crate::trace::{
    self, span, DrainCounts, HandlerStats, Label, Layer, SpanTotals, Timed, TracedCluster,
};
use crate::{alloc, procfs};
use snow_checker::{check_auto, HistoryMetrics, SnowChecker, SnowReport, StreamReport, Verdict};
use snow_core::{ClientId, History, SnowPropertySet, SystemConfig, TxKind};
use snow_obs::MetricsSnapshot;
use snow_protocols::{
    deploy_any, AnyNode, Cluster, ClusterSpec, ExecutorKind, ProtocolKind, SchedulerKind,
    DEFAULT_MAX_STEPS,
};
use snow_sim::{
    LatencyScheduler, ParallelSimulation, Simulation, Topology, TopologyScheduler, TICK,
};
use snow_workload::{
    arrival_schedule, drive_open_loop, run_open_loop_checked_mode, run_open_loop_observed,
    run_scenario, CheckMode, OpenLoopSpec, Scenario, TopologyKind, WorkloadDriver,
    WorkloadGenerator, WorkloadShape, WorkloadSpec,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Open-loop offered load, arrivals per kilotick: below the knee.
const OPEN_RATE: u64 = 50;
/// Transactions per closed-loop round: one per client of `mwmr(8, 4, 4)`.
const CLOSED_PER_ROUND: usize = 8;
/// Shards of the sharded engine on `geo_sharded_slo`.
const GEO_SHARDS: usize = 2;
/// The SNOW verdict Algorithm B must earn on `geo_sharded_slo`.
const GEO_VERDICT: &str = "SN-W";

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Poisson arrivals, Algorithm B, streaming check.
    OpenReadStream,
    /// Closed-loop rounds, Algorithm C, write-heavy mix, post-hoc check.
    ClosedWritePosthoc,
    /// The `algb/wan3/social_graph` scenario on the 2-shard engine.
    GeoShardedSlo,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::OpenReadStream,
        Workload::ClosedWritePosthoc,
        Workload::GeoShardedSlo,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OpenReadStream => "open_read_stream",
            Workload::ClosedWritePosthoc => "closed_write_posthoc",
            Workload::GeoShardedSlo => "geo_sharded_slo",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Arrivals of one `open_read_stream` execution.
    pub open_arrivals: usize,
    /// Transactions of one `closed_write_posthoc` execution.
    pub closed_txs: usize,
    /// Rounds of one `geo_sharded_slo` execution (6 clients each).
    pub geo_rounds: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        open_arrivals: 20_000,
        closed_txs: 20_000,
        geo_rounds: 1_000,
    };
    /// Sizes for smoke tests.
    pub const TINY: Sizes = Sizes {
        open_arrivals: 300,
        closed_txs: 240,
        geo_rounds: 12,
    };
}

/// Every seed of a run, derived from the one `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// The `--seed` argument.
    pub seed: u64,
    /// `WorkloadSpec.seed` (transaction bodies).  On `geo_sharded_slo` the
    /// scenario also seeds its topology scheduler with it.
    pub workload: u64,
    /// `OpenLoopSpec.arrival_seed`.
    pub arrival: u64,
    /// The `SchedulerKind::Latency` seed.
    pub scheduler: u64,
}

impl Seeds {
    /// Derives the seeds of `seed` by splitmix64 steps.
    pub fn derive(seed: u64) -> Seeds {
        Seeds {
            seed,
            workload: seed,
            arrival: splitmix64(seed ^ 0xA),
            scheduler: splitmix64(seed ^ 0x5),
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit FNV-1a hash of the history's `Debug` form, which covers every
/// spec, outcome, timestamp, round count and read record.
pub fn fingerprint(history: &History) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    write!(h, "{history:?}").expect("hashing cannot fail");
    h.0
}

/// One execution of a workload and its checked outputs.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Wall time from the first cluster call to the verdict.
    pub wall_ns: u64,
    /// Process CPU time (all threads) over the same span; 0 when not read.
    pub cpu_ns: u64,
    /// Transactions invoked.
    pub issued: usize,
    /// Transactions that completed and were not aborted.
    pub committed: usize,
    /// Correctness-gate violations (empty when the execution passed).
    pub gate_errors: Vec<String>,
    /// READ latency median, virtual ticks (site-ticks on `geo_sharded_slo`).
    pub read_p50: f64,
    /// READ latency 99th percentile, same unit.
    pub read_p99: f64,
    /// WRITE latency 99th percentile, same unit.
    pub write_p99: f64,
    /// Completed WRITE transactions (the sample behind `write_p99`).
    pub writes: usize,
    /// Fingerprint of the history.
    pub fingerprint: u64,
    /// The history.
    pub history: History,
}

impl Execution {
    /// Transactions counted as failed: aborted or never completed, or all
    /// of them when a gate failed.
    pub fn failed(&self) -> usize {
        if self.gate_errors.is_empty() {
            self.issued - self.committed
        } else {
            self.issued
        }
    }
}

/// What a traced execution measured.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The execution itself (its wall is the traced wall).
    pub exec: Execution,
    /// Span totals.
    pub spans: SpanTotals,
    /// Handler invocations (`on_invoke` calls).
    pub invokes: u64,
    /// Handler deliveries (`on_message` calls).
    pub deliveries: u64,
    /// Handler time tagged to READ transactions.
    pub read_handler_ns: u64,
    /// Handler time tagged to WRITE transactions.
    pub write_handler_ns: u64,
    /// Allocations per layer during the traced wall.
    pub allocs: alloc::AllocCounts,
    /// Peak live heap bytes during the traced wall.
    pub peak_live_bytes: u64,
    /// `run_until_*` calls.
    pub run_calls: u64,
    /// Commit-drain counts.
    pub drains: DrainCounts,
    /// The streaming checker's report (`open_read_stream` only).
    pub stream: Option<StreamReport>,
    /// Input generation time, timed apart from the traced wall.
    pub gen_ns: u64,
    /// Run-call time of the serial twin on the identical history
    /// (`geo_sharded_slo` only).
    pub serial_run_ns: Option<u64>,
}

/// The simulator's own event counters for one execution.
#[derive(Debug, Clone)]
pub struct Observed {
    /// Fingerprint of the observed execution's history.
    pub fingerprint: u64,
    /// `fold_events` over its event stream.
    pub metrics: MetricsSnapshot,
    /// Shards the execution ran on.
    pub shards: usize,
}

impl Observed {
    /// The counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name).copied().unwrap_or(0)
    }
}

fn open_config() -> SystemConfig {
    SystemConfig::mwmr(8, 4, 8)
}

fn open_spec(sizes: Sizes, seeds: Seeds) -> OpenLoopSpec {
    OpenLoopSpec {
        workload: WorkloadSpec {
            seed: seeds.workload,
            ..WorkloadSpec::tao_like()
        },
        rate: OPEN_RATE,
        arrivals: sizes.open_arrivals,
        arrival_seed: seeds.arrival,
    }
}

fn latency_scheduler(seeds: Seeds) -> SchedulerKind {
    SchedulerKind::Latency {
        seed: seeds.scheduler,
        min: 1,
        max: 16,
    }
}

fn closed_config() -> SystemConfig {
    SystemConfig::mwmr(8, 4, 4)
}

fn closed_spec(seeds: Seeds) -> WorkloadSpec {
    WorkloadSpec {
        seed: seeds.workload,
        ..WorkloadSpec::write_heavy()
    }
}

fn geo_scenario() -> Scenario {
    Scenario {
        protocol: ProtocolKind::AlgB,
        topology: TopologyKind::Wan3,
        shape: WorkloadShape::SocialGraph,
    }
}

fn committed(history: &History) -> usize {
    history
        .records
        .iter()
        .filter(|r| r.outcome.as_ref().is_some_and(|o| !o.is_aborted()))
        .count()
}

fn nearest_rank(samples: &mut [u64], pct: f64) -> f64 {
    samples.sort_unstable();
    snow_checker::metrics::percentile(samples, pct) as f64
}

/// Open-loop latencies from the *scheduled* arrival: each client's k-th
/// transaction is its k-th arrival (clients run their arrivals FIFO).
fn open_latencies(
    history: &History,
    config: &SystemConfig,
    spec: &OpenLoopSpec,
) -> (Vec<u64>, Vec<u64>) {
    let mut due: BTreeMap<ClientId, VecDeque<u64>> = BTreeMap::new();
    for arrival in arrival_schedule(config, spec) {
        due.entry(arrival.client).or_default().push_back(arrival.at);
    }
    let mut records: Vec<_> = history.records.iter().collect();
    records.sort_by_key(|r| r.tx_id);
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for rec in records {
        let at = due.get_mut(&rec.client).and_then(VecDeque::pop_front);
        let (Some(at), Some(resp)) = (at, rec.responded_at) else {
            continue;
        };
        match rec.kind() {
            TxKind::Read => reads.push(resp.saturating_sub(at)),
            TxKind::Write => writes.push(resp.saturating_sub(at)),
        }
    }
    (reads, writes)
}

fn gate_complete(history: &History, issued: usize, errors: &mut Vec<String>) {
    let done = committed(history);
    if done != issued || history.len() != issued {
        errors.push(format!(
            "{done} of {issued} transactions committed ({} recorded)",
            history.len()
        ));
    }
}

fn gate_serializable(verdict: &Verdict, errors: &mut Vec<String>) {
    if !verdict.is_serializable() {
        errors.push(format!("verdict is not Serializable: {verdict:?}"));
    }
}

fn gate_snow(observed: SnowPropertySet, errors: &mut Vec<String>) {
    if observed.to_string() != GEO_VERDICT {
        errors.push(format!("SNOW verdict {observed}, expected {GEO_VERDICT}"));
    }
}

fn open_execution(
    wall_ns: u64,
    history: History,
    config: &SystemConfig,
    spec: &OpenLoopSpec,
    verdict: &Verdict,
) -> Execution {
    let mut gate_errors = Vec::new();
    gate_complete(&history, spec.arrivals, &mut gate_errors);
    gate_serializable(verdict, &mut gate_errors);
    let (mut reads, mut writes) = open_latencies(&history, config, spec);
    Execution {
        wall_ns,
        cpu_ns: 0,
        issued: spec.arrivals,
        committed: committed(&history),
        gate_errors,
        read_p50: nearest_rank(&mut reads, 50.0),
        read_p99: nearest_rank(&mut reads, 99.0),
        writes: writes.len(),
        write_p99: nearest_rank(&mut writes, 99.0),
        fingerprint: fingerprint(&history),
        history,
    }
}

fn closed_execution(wall_ns: u64, history: History, issued: usize, verdict: &Verdict) -> Execution {
    let mut gate_errors = Vec::new();
    gate_complete(&history, issued, &mut gate_errors);
    gate_serializable(verdict, &mut gate_errors);
    let metrics = HistoryMetrics::from_history(&history);
    Execution {
        wall_ns,
        cpu_ns: 0,
        issued,
        committed: committed(&history),
        gate_errors,
        read_p50: metrics.read_latency.p50 as f64,
        read_p99: metrics.read_latency.p99 as f64,
        write_p99: metrics.write_latency.p99 as f64,
        writes: metrics.writes,
        fingerprint: fingerprint(&history),
        history,
    }
}

fn geo_execution(
    wall_ns: u64,
    history: History,
    observed: SnowPropertySet,
    metrics: &HistoryMetrics,
) -> Execution {
    let issued = history.len();
    let mut gate_errors = Vec::new();
    gate_complete(&history, issued, &mut gate_errors);
    gate_snow(observed, &mut gate_errors);
    let site_ticks = |micro: u64| micro as f64 / TICK as f64;
    Execution {
        wall_ns,
        cpu_ns: 0,
        issued,
        committed: committed(&history),
        gate_errors,
        read_p50: site_ticks(metrics.read_latency.p50),
        read_p99: site_ticks(metrics.read_latency.p99),
        write_p99: site_ticks(metrics.write_latency.p99),
        writes: metrics.writes,
        fingerprint: fingerprint(&history),
        history,
    }
}

/// The scenario runner's round loop (`run_scenario`), over any cluster:
/// each round, the first draw per client is invoked at consecutive µticks
/// from the current time, then the cluster runs to quiescence.
fn scenario_rounds(
    cluster: &mut dyn Cluster,
    config: &SystemConfig,
    spec: WorkloadSpec,
    rounds: usize,
) -> History {
    let mut generator = WorkloadGenerator::new(config, spec);
    let per_round = config.num_clients() as usize;
    for _ in 0..rounds {
        let mut used = BTreeSet::new();
        let mut at = cluster.now();
        for tx in generator.batch(per_round) {
            if !used.insert(tx.client) {
                continue;
            }
            at += 1;
            cluster.invoke_at(at, tx.client, tx.spec);
        }
        cluster.run_until_quiescent();
    }
    cluster.history()
}

/// What the traced section hands back before the gates run.
struct RawTraced {
    wall_ns: u64,
    history: History,
    verdict: Option<Verdict>,
    snow: Option<(SnowPropertySet, HistoryMetrics)>,
    stream: Option<StreamReport>,
    run_calls: u64,
    drains: DrainCounts,
}

impl RawTraced {
    /// Releases `cluster` (inside the traced wall) and keeps its counts.
    fn new(start: Instant, history: History, cluster: TracedCluster) -> Self {
        let (run_calls, drains) = (cluster.run_calls(), cluster.drain_counts());
        span(Label::Teardown, move || drop(cluster));
        RawTraced {
            wall_ns: elapsed_ns(start),
            history,
            verdict: None,
            snow: None,
            stream: None,
            run_calls,
            drains,
        }
    }
}

fn timed_nodes(nodes: Vec<AnyNode>, stats: &Arc<HandlerStats>) -> impl Iterator<Item = Timed> + '_ {
    nodes.into_iter().map(|n| Timed::new(n, stats.clone()))
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

impl Workload {
    /// Threads an execution keeps busy.
    pub fn threads(self) -> usize {
        match self {
            Workload::GeoShardedSlo => GEO_SHARDS,
            _ => 1,
        }
    }

    /// Upper bound on the transaction ids one execution assigns.
    fn max_tx(self, sizes: Sizes) -> usize {
        match self {
            Workload::OpenReadStream => sizes.open_arrivals,
            Workload::ClosedWritePosthoc => sizes.closed_txs,
            Workload::GeoShardedSlo => {
                sizes.geo_rounds * geo_scenario().shape.config().num_clients() as usize
            }
        }
    }

    /// One set-up: cluster construction plus generation of every input the
    /// execution consumes.  Returns its wall time.
    pub fn setup(self, sizes: Sizes, seeds: Seeds) -> u64 {
        let start = Instant::now();
        match self {
            Workload::OpenReadStream => {
                let config = open_config();
                let cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
                    .scheduler(latency_scheduler(seeds))
                    .max_steps(u64::MAX)
                    .trace_capacity(Some(4096))
                    .build()
                    .expect("AlgB deploys on mwmr(8,4,8)");
                black_box(cluster);
                black_box(arrival_schedule(&config, &open_spec(sizes, seeds)));
            }
            Workload::ClosedWritePosthoc => {
                let config = closed_config();
                let cluster = ClusterSpec::new(ProtocolKind::AlgC, &config)
                    .scheduler(latency_scheduler(seeds))
                    .build()
                    .expect("AlgC deploys on mwmr(8,4,4)");
                black_box(cluster);
                let mut generator = WorkloadGenerator::new(&config, closed_spec(seeds));
                black_box(generator.batch(sizes.closed_txs));
            }
            Workload::GeoShardedSlo => {
                let scenario = geo_scenario();
                let config = scenario.shape.config();
                let topology = Arc::new(scenario.topology.build(&config));
                let cluster = ClusterSpec::new(scenario.protocol, &config)
                    .topology(topology, seeds.workload)
                    .executor(ExecutorKind::ParallelSim { shards: GEO_SHARDS })
                    .build()
                    .expect("AlgB deploys on the wan3 topology");
                black_box(cluster);
                let mut generator =
                    WorkloadGenerator::new(&config, scenario.shape.spec(seeds.workload));
                for _ in 0..sizes.geo_rounds {
                    black_box(generator.batch(config.num_clients() as usize));
                }
            }
        }
        elapsed_ns(start)
    }

    /// One untraced execution through the library's own entry points.
    pub fn run(self, sizes: Sizes, seeds: Seeds) -> Execution {
        match self {
            Workload::OpenReadStream => {
                let config = open_config();
                let spec = open_spec(sizes, seeds);
                let cpu = procfs::cpu_time_ns();
                let start = Instant::now();
                let (history, report, verdict) = run_open_loop_checked_mode(
                    ProtocolKind::AlgB,
                    &config,
                    &spec,
                    latency_scheduler(seeds),
                    ExecutorKind::SerialSim,
                    CheckMode::Streaming,
                )
                .expect("AlgB deploys on mwmr(8,4,8)");
                let wall_ns = elapsed_ns(start);
                let cpu_ns = procfs::cpu_time_ns() - cpu;
                let mut exec = open_execution(wall_ns, history, &config, &spec, &verdict);
                exec.cpu_ns = cpu_ns;
                // The driver's own latency fold must agree with the
                // benchmark's recomputation from the schedule.
                let driver = (
                    report.read_latency.p50 as f64,
                    report.read_latency.p99 as f64,
                );
                if driver != (exec.read_p50, exec.read_p99) {
                    exec.gate_errors.push(format!(
                        "read latency p50/p99 {}/{} disagrees with the driver's {}/{}",
                        exec.read_p50, exec.read_p99, driver.0, driver.1
                    ));
                }
                exec
            }
            Workload::ClosedWritePosthoc => {
                let config = closed_config();
                let mut cluster = ClusterSpec::new(ProtocolKind::AlgC, &config)
                    .scheduler(latency_scheduler(seeds))
                    .build()
                    .expect("AlgC deploys on mwmr(8,4,4)");
                let mut generator = WorkloadGenerator::new(&config, closed_spec(seeds));
                let cpu = procfs::cpu_time_ns();
                let start = Instant::now();
                let (history, _, verdict) = WorkloadDriver::new(CLOSED_PER_ROUND).run_checked(
                    cluster.as_mut(),
                    &mut generator,
                    sizes.closed_txs,
                );
                // Released inside the wall, as the other workloads' library
                // entry points release theirs.
                drop(cluster);
                let wall_ns = elapsed_ns(start);
                let cpu_ns = procfs::cpu_time_ns() - cpu;
                let mut exec = closed_execution(wall_ns, history, sizes.closed_txs, &verdict);
                exec.cpu_ns = cpu_ns;
                exec
            }
            Workload::GeoShardedSlo => self.run_geo(
                sizes,
                seeds,
                ExecutorKind::ParallelSim { shards: GEO_SHARDS },
            ),
        }
    }

    fn run_geo(self, sizes: Sizes, seeds: Seeds, executor: ExecutorKind) -> Execution {
        let scenario = geo_scenario();
        let cpu = procfs::cpu_time_ns();
        let start = Instant::now();
        let run = run_scenario(&scenario, seeds.workload, sizes.geo_rounds, executor)
            .expect("AlgB deploys on the wan3 topology");
        let report = SnowReport::evaluate(scenario.name(), &run.history);
        let wall_ns = elapsed_ns(start);
        let cpu_ns = procfs::cpu_time_ns() - cpu;
        let mut exec = geo_execution(wall_ns, run.history, report.observed, &report.metrics);
        exec.cpu_ns = cpu_ns;
        exec
    }

    /// The serial-engine control of `geo_sharded_slo`: the same scenario on
    /// `ExecutorKind::SerialSim`, whose history must be bit-identical.
    pub fn serial_control(self, sizes: Sizes, seeds: Seeds) -> Option<Execution> {
        (self == Workload::GeoShardedSlo)
            .then(|| self.run_geo(sizes, seeds, ExecutorKind::SerialSim))
    }

    /// Input generation alone, timed: the arrival schedule, or the
    /// generator draws the driver makes.
    fn time_generation(self, sizes: Sizes, seeds: Seeds) -> u64 {
        let start = Instant::now();
        match self {
            Workload::OpenReadStream => {
                black_box(arrival_schedule(&open_config(), &open_spec(sizes, seeds)));
            }
            Workload::ClosedWritePosthoc => {
                let mut generator = WorkloadGenerator::new(&closed_config(), closed_spec(seeds));
                black_box(generator.batch(sizes.closed_txs));
            }
            Workload::GeoShardedSlo => {
                let shape = geo_scenario().shape;
                let config = shape.config();
                let mut generator = WorkloadGenerator::new(&config, shape.spec(seeds.workload));
                for _ in 0..sizes.geo_rounds {
                    black_box(generator.batch(config.num_clients() as usize));
                }
            }
        }
        elapsed_ns(start)
    }

    /// One traced execution: the same program as [`Workload::run`], built
    /// from `deploy_any` nodes wrapped in [`Timed`] and driven through a
    /// [`TracedCluster`], with the checker entry points called directly.
    pub fn run_traced(self, sizes: Sizes, seeds: Seeds) -> Traced {
        let gen_ns = self.time_generation(sizes, seeds);
        let stats = HandlerStats::new(self.max_tx(sizes));
        let outer_layer = alloc::enter(Layer::None);
        alloc::set_enabled(true);
        let allocs_before = alloc::snapshot();
        alloc::begin_live_window();
        trace::install(stats.clone());
        let raw = span(Label::Root, || match self {
            Workload::OpenReadStream => {
                let config = open_config();
                let spec = open_spec(sizes, seeds);
                let start = Instant::now();
                let nodes = span(Label::Deploy, || deploy_any(ProtocolKind::AlgB, &config))
                    .expect("AlgB deploys on mwmr(8,4,8)");
                let sim = span(Label::Build, || {
                    let mut sim = Simulation::new(LatencyScheduler::new(seeds.scheduler, 1, 16))
                        .with_max_steps(u64::MAX)
                        .with_trace_capacity(4096);
                    timed_nodes(nodes, &stats).for_each(|n| sim.add_process(n));
                    Box::new(sim) as Box<dyn Cluster>
                });
                let mut cluster = TracedCluster::new(sim, true);
                let (history, _) = span(Label::Driver, || {
                    drive_open_loop(&mut cluster, &config, &spec)
                });
                let (verdict, stream) = cluster.finish_stream(&history);
                let mut raw = RawTraced::new(start, history, cluster);
                raw.verdict = Some(verdict);
                raw.stream = Some(stream);
                raw
            }
            Workload::ClosedWritePosthoc => {
                let config = closed_config();
                let start = Instant::now();
                let nodes = span(Label::Deploy, || deploy_any(ProtocolKind::AlgC, &config))
                    .expect("AlgC deploys on mwmr(8,4,4)");
                let sim = span(Label::Build, || {
                    let mut sim = Simulation::new(LatencyScheduler::new(seeds.scheduler, 1, 16))
                        .with_max_steps(DEFAULT_MAX_STEPS);
                    timed_nodes(nodes, &stats).for_each(|n| sim.add_process(n));
                    Box::new(sim) as Box<dyn Cluster>
                });
                let mut cluster = TracedCluster::new(sim, false);
                let (history, _) = span(Label::Driver, || {
                    let mut generator = WorkloadGenerator::new(&config, closed_spec(seeds));
                    WorkloadDriver::new(CLOSED_PER_ROUND).run(
                        &mut cluster,
                        &mut generator,
                        sizes.closed_txs,
                    )
                });
                let verdict = span(Label::CheckAuto, || check_auto(&history));
                let mut raw = RawTraced::new(start, history, cluster);
                raw.verdict = Some(verdict);
                raw
            }
            Workload::GeoShardedSlo => {
                let scenario = geo_scenario();
                let config = scenario.shape.config();
                let start = Instant::now();
                let nodes = span(Label::Deploy, || deploy_any(scenario.protocol, &config))
                    .expect("AlgB deploys on the wan3 topology");
                let sim = span(Label::Build, || {
                    let topology = Arc::new(scenario.topology.build(&config));
                    let mut sim = ParallelSimulation::new(GEO_SHARDS, |_| {
                        TopologyScheduler::new(topology.clone(), seeds.workload)
                    })
                    .with_max_steps(DEFAULT_MAX_STEPS);
                    timed_nodes(nodes, &stats).for_each(|n| sim.add_process(n));
                    Box::new(sim) as Box<dyn Cluster>
                });
                let mut cluster = TracedCluster::new(sim, false);
                let history = span(Label::Driver, || {
                    scenario_rounds(
                        &mut cluster,
                        &config,
                        scenario.shape.spec(seeds.workload),
                        sizes.geo_rounds,
                    )
                });
                let checker = SnowChecker::new();
                let s = span(Label::CheckAuto, || {
                    checker.check_strict_serializability(&history)
                });
                let (n, o, w) = span(Label::SnowProps, || {
                    (
                        checker.check_non_blocking(&history),
                        checker.check_one_response(&history),
                        checker.check_writes_complete(&history),
                    )
                });
                let metrics = span(Label::Metrics, || HistoryMetrics::from_history(&history));
                let mut raw = RawTraced::new(start, history, cluster);
                raw.snow = Some((
                    SnowPropertySet {
                        s: s.holds,
                        n: n.holds,
                        o: o.holds,
                        w: w.holds,
                    },
                    metrics,
                ));
                raw
            }
        });
        let spans = trace::uninstall();
        let peak_live_bytes = alloc::peak_live_bytes();
        let allocs = alloc::snapshot().since(&allocs_before);
        alloc::set_enabled(false);
        alloc::restore(outer_layer);

        let RawTraced {
            wall_ns,
            history,
            verdict,
            snow,
            stream,
            run_calls,
            drains,
        } = raw;
        let exec = match (verdict, snow) {
            (Some(verdict), _) if self == Workload::OpenReadStream => open_execution(
                wall_ns,
                history,
                &open_config(),
                &open_spec(sizes, seeds),
                &verdict,
            ),
            (Some(verdict), _) => closed_execution(wall_ns, history, sizes.closed_txs, &verdict),
            (None, Some((observed, metrics))) => {
                geo_execution(wall_ns, history, observed, &metrics)
            }
            (None, None) => unreachable!("every workload ends in a verdict"),
        };
        let (mut read_handler_ns, mut write_handler_ns) = (0, 0);
        for rec in &exec.history.records {
            match rec.kind() {
                TxKind::Read => read_handler_ns += stats.tx_ns(rec.tx_id),
                TxKind::Write => write_handler_ns += stats.tx_ns(rec.tx_id),
            }
        }
        let serial_run_ns = (self == Workload::GeoShardedSlo)
            .then(|| self.serial_run_ns(sizes, seeds, exec.fingerprint));
        Traced {
            invokes: stats.invokes(),
            deliveries: stats.deliveries(),
            read_handler_ns,
            write_handler_ns,
            exec,
            spans,
            allocs,
            peak_live_bytes,
            run_calls,
            drains,
            stream,
            gen_ns,
            serial_run_ns,
        }
    }

    /// Run-call time of the traced serial twin of `geo_sharded_slo`.
    ///
    /// # Panics
    /// Panics if the serial history differs from the sharded one
    /// (`expected` fingerprint): the shard overhead is only defined on an
    /// identical history.
    fn serial_run_ns(self, sizes: Sizes, seeds: Seeds, expected: u64) -> u64 {
        let scenario = geo_scenario();
        let config = scenario.shape.config();
        let stats = HandlerStats::new(self.max_tx(sizes));
        let topology = Arc::new(scenario.topology.build(&config));
        let mut sim = Simulation::new(TopologyScheduler::new(topology, seeds.workload))
            .with_max_steps(DEFAULT_MAX_STEPS);
        let nodes =
            deploy_any(scenario.protocol, &config).expect("AlgB deploys on the wan3 topology");
        timed_nodes(nodes, &stats).for_each(|n| sim.add_process(n));
        let mut cluster = TracedCluster::new(Box::new(sim), false);
        trace::install(stats);
        let history = span(Label::Root, || {
            scenario_rounds(
                &mut cluster,
                &config,
                scenario.shape.spec(seeds.workload),
                sizes.geo_rounds,
            )
        });
        let spans = trace::uninstall();
        assert_eq!(
            fingerprint(&history),
            expected,
            "serial and sharded histories differ"
        );
        spans.total_of(Label::Run)
    }

    /// One execution with the simulator's event recording on, folded into
    /// its counters (`sim.epochs`, `sim.invocations`, `sim.deliveries`, …).
    pub fn run_observed(self, sizes: Sizes, seeds: Seeds) -> Observed {
        match self {
            Workload::OpenReadStream => {
                let (history, _, events) = run_open_loop_observed(
                    ProtocolKind::AlgB,
                    &open_config(),
                    &open_spec(sizes, seeds),
                    latency_scheduler(seeds),
                    ExecutorKind::SerialSim,
                )
                .expect("AlgB deploys on mwmr(8,4,8)");
                Observed {
                    fingerprint: fingerprint(&history),
                    metrics: snow_obs::fold_events(&events),
                    shards: 1,
                }
            }
            Workload::ClosedWritePosthoc => {
                let config = closed_config();
                let mut cluster = ClusterSpec::new(ProtocolKind::AlgC, &config)
                    .scheduler(latency_scheduler(seeds))
                    .observed(true)
                    .build()
                    .expect("AlgC deploys on mwmr(8,4,4)");
                let mut generator = WorkloadGenerator::new(&config, closed_spec(seeds));
                let (history, _, events) = WorkloadDriver::new(CLOSED_PER_ROUND).run_observed(
                    cluster.as_mut(),
                    &mut generator,
                    sizes.closed_txs,
                );
                Observed {
                    fingerprint: fingerprint(&history),
                    metrics: snow_obs::fold_events(&events),
                    shards: 1,
                }
            }
            Workload::GeoShardedSlo => {
                let scenario = geo_scenario();
                let config = scenario.shape.config();
                let topology: Arc<Topology> = Arc::new(scenario.topology.build(&config));
                let mut cluster = ClusterSpec::new(scenario.protocol, &config)
                    .topology(topology, seeds.workload)
                    .executor(ExecutorKind::ParallelSim { shards: GEO_SHARDS })
                    .observed(true)
                    .build()
                    .expect("AlgB deploys on the wan3 topology");
                let history = scenario_rounds(
                    cluster.as_mut(),
                    &config,
                    scenario.shape.spec(seeds.workload),
                    sizes.geo_rounds,
                );
                let events = cluster.drain_obs_events();
                Observed {
                    fingerprint: fingerprint(&history),
                    metrics: snow_obs::fold_events(&events),
                    shards: GEO_SHARDS,
                }
            }
        }
    }
}
