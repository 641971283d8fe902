//! One benchmark run: set-up, repeated executions for the measuring time,
//! the correctness gates, and the metrics.

use crate::trace::{Label, Layer};
use crate::workloads::{Execution, Observed, Seeds, Sizes, Traced, Workload};
use crate::{calib, procfs};
use snow_checker::HistoryMetrics;
use std::time::{Duration, Instant};

/// Set-ups timed before each execution; `setup_s` is the median of all.
pub const SETUPS_PER_EXECUTION: usize = 3;
/// Fewest measured executions per run, whatever the measuring time.
pub const MIN_EXECUTIONS: usize = 3;
/// The largest share of the traced wall the layers may leave uncovered
/// before a traced run fails its health check.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

const MIB: f64 = 1024.0 * 1024.0;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The `--seed`.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced (per-layer) instead of untraced (end-to-end) metrics.
    pub trace: bool,
    /// Run lengths.
    pub sizes: Sizes,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// True when every gate held.
    pub correct: bool,
    /// Transactions attempted over every execution of the run.
    pub attempted: u64,
    /// Transactions failed (aborted, never completed, or in an execution
    /// that failed a gate).
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Figures printed beside the metrics but not part of the result line.
    pub notes: Vec<Metric>,
    /// Gate violations.
    pub errors: Vec<String>,
    /// The seeds the run used.
    pub seeds: Seeds,
    /// Measured executions (traced ones counted apart).
    pub executions: usize,
    /// Traced executions.
    pub traced_executions: usize,
}

impl Report {
    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Gate bookkeeping: attempted/failed counts and the fingerprint every
/// execution of the seed must repeat.
#[derive(Default)]
struct Gates {
    reference: Option<u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Gates {
    fn admit(&mut self, what: &str, exec: &Execution) {
        let mut errors: Vec<String> = exec
            .gate_errors
            .iter()
            .map(|e| format!("{what}: {e}"))
            .collect();
        match self.reference {
            None => self.reference = Some(exec.fingerprint),
            Some(r) if r != exec.fingerprint => errors.push(format!(
                "{what}: history fingerprint {:016x} differs from {r:016x}",
                exec.fingerprint
            )),
            Some(_) => {}
        }
        self.attempted += exec.issued as u64;
        self.failed += if errors.is_empty() {
            exec.failed() as u64
        } else {
            exec.issued as u64
        };
        self.errors.extend(errors);
    }

    fn fail(&mut self, error: String) {
        self.errors.push(error);
    }

    fn report(
        self,
        metrics: Vec<Metric>,
        seeds: Seeds,
        executions: usize,
        traced: usize,
    ) -> Report {
        // A gate that failed outside any one execution still fails the run.
        let failed = if self.errors.is_empty() {
            self.failed
        } else {
            self.failed.max(1)
        };
        Report {
            correct: self.errors.is_empty(),
            attempted: self.attempted.max(1),
            failed,
            metrics,
            notes: Vec::new(),
            errors: self.errors,
            seeds,
            executions,
            traced_executions: traced,
        }
    }
}

/// Runs the benchmark as `options` says.
pub fn run(options: &Options) -> Report {
    if options.trace {
        run_traced(options)
    } else {
        run_untraced(options)
    }
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn run_untraced(options: &Options) -> Report {
    let Options {
        workload, sizes, ..
    } = *options;
    let seeds = Seeds::derive(options.seed);
    let mut gates = Gates::default();
    // The warm-up execution fills caches and pins the reference history.
    // The peak RSS is read right after it: set-up plus one execution.
    for _ in 0..SETUPS_PER_EXECUTION {
        workload.setup(sizes, seeds);
    }
    let warm = workload.run(sizes, seeds);
    gates.admit("warm-up", &warm);
    let peak_rss_mib = procfs::peak_rss_mib();
    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds);
    // Per execution: host-speed scale, goodput, CPU time and commits; per
    // set-up: its time.  `_raw` figures are unscaled.
    let (mut goodputs, mut goodputs_raw) = (Vec::new(), Vec::new());
    let (mut wall_scales, mut cpu_scales) = (Vec::new(), Vec::new());
    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let (mut cpu_ns, mut cpu_ns_raw, mut committed) = (0.0, 0.0, 0u64);
    // Host readings bracket every execution and its set-ups.
    let threads = workload.threads();
    let mut before = calib::Reading::take(threads);
    while goodputs.len() < MIN_EXECUTIONS || Instant::now() < deadline {
        let setup_ns: Vec<f64> = (0..SETUPS_PER_EXECUTION)
            .map(|_| workload.setup(sizes, seeds) as f64)
            .collect();
        let exec = workload.run(sizes, seeds);
        let after = calib::Reading::take(threads);
        let (scale, cpu_scale) = calib::scales(before, after);
        before = after;
        setups.extend(setup_ns.iter().map(|ns| ns * cpu_scale / 1e9));
        setups_raw.extend(setup_ns.iter().map(|ns| ns / 1e9));
        gates.admit("execution", &exec);
        let wall_s = exec.wall_ns as f64 / 1e9;
        eprintln!(
            "execution {}: wall {wall_s:.4} s, cpu {:.4} s, host scale wall {scale:.4} cpu {cpu_scale:.4}",
            goodputs.len(),
            exec.cpu_ns as f64 / 1e9,
        );
        goodputs.push(exec.committed as f64 / (wall_s * scale));
        goodputs_raw.push(exec.committed as f64 / wall_s);
        cpu_ns += exec.cpu_ns as f64 * cpu_scale;
        cpu_ns_raw += exec.cpu_ns as f64;
        committed += exec.committed as u64;
        wall_scales.push(scale);
        cpu_scales.push(cpu_scale);
    }
    if let Some(control) = workload.serial_control(sizes, seeds) {
        gates.admit("serial-engine control", &control);
    }
    let per_ktx = |ns: f64| ns / 1e9 / (committed.max(1) as f64 / 1000.0);
    let metrics = vec![
        metric("goodput_tx_per_s", median(&goodputs), "tx/s"),
        metric("setup_s", median(&setups), "s"),
        metric("read_p50_vticks", warm.read_p50, "vticks"),
        metric("read_p99_vticks", warm.read_p99, "vticks"),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
        metric("cpu_s_per_ktx", per_ktx(cpu_ns), "s/ktx"),
    ];
    let executions = goodputs.len();
    let mut report = gates.report(metrics, seeds, executions, 0);
    report.notes = vec![
        metric("write_p99_vticks", warm.write_p99, "vticks"),
        metric("writes_per_execution", warm.writes as f64, "count"),
        metric(
            "failed_frac",
            report.failed as f64 / report.attempted as f64,
            "frac",
        ),
        metric("host_scale.wall", median(&wall_scales), "x"),
        metric("host_scale.cpu", median(&cpu_scales), "x"),
        metric("goodput_tx_per_s.raw", median(&goodputs_raw), "tx/s"),
        metric("setup_s.raw", median(&setups_raw), "s"),
        metric("cpu_s_per_ktx.raw", per_ktx(cpu_ns_raw), "s/ktx"),
    ];
    report
}

/// Per-execution figures of a traced execution, with the history dropped.
struct TracedSummary {
    traced: Traced,
    tx: f64,
    reads: f64,
    writes: f64,
    mean_rounds: f64,
    mean_versions: f64,
}

impl TracedSummary {
    fn new(mut traced: Traced) -> Self {
        let metrics = HistoryMetrics::from_history(&traced.exec.history);
        traced.exec.history = Default::default();
        TracedSummary {
            tx: traced.exec.committed.max(1) as f64,
            reads: metrics.reads.max(1) as f64,
            writes: metrics.writes.max(1) as f64,
            mean_rounds: metrics.mean_rounds,
            mean_versions: metrics.mean_versions,
            traced,
        }
    }

    fn steps(&self) -> f64 {
        (self.traced.invokes + self.traced.deliveries) as f64
    }
}

fn run_traced(options: &Options) -> Report {
    let Options {
        workload, sizes, ..
    } = *options;
    let seeds = Seeds::derive(options.seed);
    let mut gates = Gates::default();
    let warm = workload.run(sizes, seeds);
    gates.admit("warm-up", &warm);
    drop(warm);
    let observed = workload.run_observed(sizes, seeds);
    if Some(observed.fingerprint) != gates.reference {
        gates.fail("observed execution: history differs from the untraced one".to_string());
    }
    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds);
    let (mut untraced_walls, mut traced) = (Vec::new(), Vec::new());
    while traced.len() < MIN_EXECUTIONS || Instant::now() < deadline {
        let exec = workload.run(sizes, seeds);
        gates.admit("untraced execution", &exec);
        untraced_walls.push(exec.wall_ns as f64);
        drop(exec);
        let t = workload.run_traced(sizes, seeds);
        gates.admit("traced execution", &t.exec);
        traced.push(TracedSummary::new(t));
    }
    let first = &traced[0];
    let observed_counts = (
        observed.counter("sim.invocations"),
        observed.counter("sim.deliveries"),
    );
    if observed_counts != (first.traced.invokes, first.traced.deliveries) {
        gates.fail(format!(
            "traced handler counts (invokes, deliveries) {:?} differ from the simulator's own {observed_counts:?}",
            (first.traced.invokes, first.traced.deliveries)
        ));
    }
    let metrics = layer_metrics(workload, &traced, &untraced_walls, &observed);
    let unattributed = metrics
        .iter()
        .find(|m| m.name == "trace.unattributed_frac")
        .map_or(0.0, |m| m.value);
    if unattributed > UNATTRIBUTED_TOLERANCE {
        gates.fail(format!(
            "trace covers too little of the wall: unattributed {unattributed:.4} > {UNATTRIBUTED_TOLERANCE}"
        ));
    }
    let executions = untraced_walls.len();
    gates.report(metrics, seeds, executions, traced.len())
}

/// The per-layer metrics: times are medians over the traced executions,
/// counts come from the first (they repeat exactly).
fn layer_metrics(
    workload: Workload,
    traced: &[TracedSummary],
    untraced_walls: &[f64],
    observed: &Observed,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&TracedSummary) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let per_tx = |label: Label| med(&|s| s.traced.spans.self_of(label) as f64 / s.tx);
    let first = &traced[0];
    let stream = first.traced.stream.unwrap_or_default();
    let mut out = vec![
        metric(
            "workload.gen_ns_per_tx",
            med(&|s| s.traced.gen_ns as f64 / s.tx),
            "ns",
        ),
        metric(
            "workload.driver_self_ns_per_tx",
            per_tx(Label::Driver),
            "ns",
        ),
        metric(
            "workload.run_calls_per_tx",
            first.traced.run_calls as f64 / first.tx,
            "count",
        ),
        metric(
            "protocols.build_ms",
            med(&|s| s.traced.spans.total_of(Label::Deploy) as f64 / 1e6),
            "ms",
        ),
        metric(
            "protocols.handler_ns_per_tx",
            med(&|s| s.traced.spans.total_of(Label::Handler) as f64 / s.tx),
            "ns",
        ),
        metric(
            "protocols.handler_ns_per_read",
            med(&|s| s.traced.read_handler_ns as f64 / s.reads),
            "ns",
        ),
        metric(
            "protocols.handler_ns_per_write",
            med(&|s| s.traced.write_handler_ns as f64 / s.writes),
            "ns",
        ),
        metric(
            "protocols.deliveries_per_tx",
            first.traced.deliveries as f64 / first.tx,
            "count",
        ),
        metric("protocols.rounds_per_read", first.mean_rounds, "count"),
        metric("protocols.versions_per_read", first.mean_versions, "count"),
        metric(
            "sim.engine_self_ns_per_step",
            med(&|s| s.traced.spans.self_of(Label::Run) as f64 / s.steps()),
            "ns",
        ),
        metric("sim.steps_per_tx", first.steps() / first.tx, "count"),
        metric(
            "sim.shard_overhead_ns_per_tx",
            if workload == Workload::GeoShardedSlo {
                med(&|s| {
                    let serial = s
                        .traced
                        .serial_run_ns
                        .expect("the sharded workload runs a serial twin");
                    (s.traced.spans.total_of(Label::Run) as f64 - serial as f64) / s.tx
                })
            } else {
                0.0
            },
            "ns",
        ),
        metric(
            "sim.epochs_per_tx",
            observed.counter("sim.epochs") as f64 / observed.shards as f64 / first.tx,
            "count",
        ),
        metric("sim.history_ns_per_tx", per_tx(Label::History), "ns"),
        metric("sim.drain_ns_per_tx", per_tx(Label::Drain), "ns"),
        metric(
            "sim.records_per_drain",
            first.traced.drains.records as f64 / first.traced.drains.drains.max(1) as f64,
            "count",
        ),
        metric(
            "checker.stream_ingest_ns_per_tx",
            per_tx(Label::StreamIngest),
            "ns",
        ),
        metric(
            "checker.stream_watermark_ns_per_tx",
            per_tx(Label::StreamWatermark),
            "ns",
        ),
        metric(
            "checker.stream_peak_live_window",
            stream.peak_live_window as f64,
            "count",
        ),
        metric(
            "checker.stream_edges_per_tx",
            stream.edges_added as f64 / first.tx,
            "count",
        ),
        metric(
            "checker.stream_resolves_per_tx",
            stream.window_resolves as f64 / first.tx,
            "count",
        ),
        metric(
            "checker.check_auto_ns_per_tx",
            per_tx(Label::CheckAuto),
            "ns",
        ),
        metric(
            "checker.snow_props_ns_per_tx",
            per_tx(Label::SnowProps),
            "ns",
        ),
    ];
    for layer in Layer::PROGRAM {
        let i = layer as usize;
        out.push(metric(
            format!("alloc.allocs_per_tx.{}", layer.name()),
            med(&|s| s.traced.allocs.allocs[i] as f64 / s.tx),
            "count",
        ));
    }
    for layer in Layer::PROGRAM {
        let i = layer as usize;
        out.push(metric(
            format!("alloc.bytes_per_tx.{}", layer.name()),
            med(&|s| s.traced.allocs.bytes[i] as f64 / s.tx),
            "B",
        ));
    }
    let traced_wall = med(&|s| s.traced.spans.wall_ns() as f64);
    out.extend([
        metric(
            "alloc.peak_live_mib",
            med(&|s| s.traced.peak_live_bytes as f64 / MIB),
            "MiB",
        ),
        metric(
            "trace.overhead_frac",
            traced_wall / median(untraced_walls) - 1.0,
            "frac",
        ),
        metric(
            "trace.unattributed_frac",
            med(&|s| s.traced.spans.self_of(Label::Root) as f64 / s.traced.spans.wall_ns() as f64),
            "frac",
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::History;

    fn execution(fingerprint: u64, committed: usize, gate_errors: Vec<String>) -> Execution {
        Execution {
            wall_ns: 1,
            cpu_ns: 0,
            issued: 10,
            committed,
            gate_errors,
            read_p50: 1.0,
            read_p99: 1.0,
            write_p99: 1.0,
            writes: 0,
            fingerprint,
            history: History::new(),
        }
    }

    fn seeds() -> Seeds {
        Seeds::derive(1)
    }

    #[test]
    fn repeated_histories_pass_the_gates() {
        let mut gates = Gates::default();
        gates.admit("a", &execution(7, 10, vec![]));
        gates.admit("b", &execution(7, 10, vec![]));
        let report = gates.report(Vec::new(), seeds(), 2, 0);
        assert!(report.correct);
        assert_eq!((report.attempted, report.failed), (20, 0));
    }

    #[test]
    fn a_diverging_history_fails_every_transaction_of_its_execution() {
        let mut gates = Gates::default();
        gates.admit("a", &execution(7, 10, vec![]));
        gates.admit("b", &execution(8, 10, vec![]));
        let report = gates.report(Vec::new(), seeds(), 2, 0);
        assert!(!report.correct);
        assert_eq!((report.attempted, report.failed), (20, 10));
    }

    #[test]
    fn a_failed_verdict_fails_every_transaction_and_aborts_count_alone() {
        let mut gates = Gates::default();
        gates.admit("a", &execution(7, 9, vec![]));
        assert_eq!(gates.failed, 1, "one aborted transaction");
        gates.admit(
            "b",
            &execution(7, 10, vec!["verdict is not Serializable".into()]),
        );
        let report = gates.report(Vec::new(), seeds(), 2, 0);
        assert!(!report.correct);
        assert_eq!(report.failed, 11);
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let mut gates = Gates::default();
        gates.admit("a", &execution(7, 10, vec![]));
        let metrics = vec![
            metric("goodput_tx_per_s", 1234.5, "tx/s"),
            metric("setup_s", 0.25, "s"),
        ];
        let line = gates.report(metrics, seeds(), 1, 0).json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"goodput_tx_per_s\": {\"value\": 1234.5, \"unit\": \"tx/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
