//! Open-loop (saturation) workload driving: latency under offered load.
//!
//! The round-based [`crate::driver::WorkloadDriver`] is **closed-loop**: it
//! waits for every transaction of a round before issuing the next round, so
//! the measured system is never offered more load than it just proved it
//! can complete — by construction it cannot show how latency degrades as
//! load approaches saturation.  This module drives the cluster **open
//! loop**: arrival times are fixed up front as a deterministic virtual-time
//! schedule generated from `(seed, rate)`, and transactions arrive at the
//! configured rate regardless of completions.  Latency is measured from
//! the *scheduled arrival* (not the moment the client got around to
//! issuing), so client-side queueing delay — the signature of saturation —
//! is part of every sample, and the p50/p99-vs-offered-rate curves emitted
//! by [`rate_sweep`] show the knee the SNOW latency argument is about.
//!
//! # Arrival model
//!
//! Inter-arrival gaps are exponential (a Poisson process) with mean
//! `1000 / rate` ticks, drawn from a dedicated arrival RNG; transaction
//! bodies (read/write mix, Zipf object choice, round-robin client
//! assignment) come from the ordinary [`WorkloadGenerator`].  The model
//! keeps the per-client well-formedness rule — one outstanding transaction
//! per client — by queueing each client's arrivals FIFO and *injecting*
//! the next one only when the client frees; its scheduled time is
//! preserved, so a busy client's next transaction starts late and the
//! delay shows up as latency.
//!
//! # Saturation physics (serial engine)
//!
//! Every dispatch advances the virtual clock by at least one tick, so the
//! serial engine's service capacity is 1 event/tick; a transaction costing
//! `E` dispatch events saturates the system at an offered rate of about
//! `1000 / E` per kilotick.  The default sweep rates bracket that knee.
//!
//! # Determinism
//!
//! The schedule is a pure function of `(workload spec, rate, arrival
//! seed)`; the execution is a pure function of the schedule, the scheduler
//! seed and the shard count — so open-loop histories are bit-identical
//! across runs (pinned by `tests/open_loop.rs`).

use crate::driver::{drain_into, finish_stream, CheckMode};
use crate::generator::{WorkloadGenerator, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use snow_checker::{check_auto, LatencyStats, Verdict};
use snow_core::{ClientId, History, Result, SystemConfig, TxId, TxKind, TxSpec};
use snow_protocols::{Cluster, ClusterSpec, ExecutorKind, ProtocolKind, SchedulerKind};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Parameters of one open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopSpec {
    /// The transaction mix (read fraction, objects per tx, Zipf skew, body
    /// seed).
    pub workload: WorkloadSpec,
    /// Offered load: mean arrivals per 1000 virtual ticks (one kilotick).
    pub rate: u64,
    /// Total arrivals in the schedule.
    pub arrivals: usize,
    /// Seed of the arrival-time RNG (independent of the body seed, so the
    /// same mix can be offered at different rates with identical bodies).
    pub arrival_seed: u64,
}

impl OpenLoopSpec {
    /// A TAO-like mix at `rate` arrivals/kilotick, sized for benchmarks.
    pub fn tao_like(rate: u64) -> Self {
        OpenLoopSpec {
            workload: WorkloadSpec::tao_like(),
            rate,
            arrivals: 400,
            arrival_seed: 7,
        }
    }
}

/// One scheduled arrival: at virtual time `at`, `client` invokes `spec`.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Scheduled arrival time (virtual ticks).
    pub at: u64,
    /// The arriving client (round-robin per role, from the generator).
    pub client: ClientId,
    /// The transaction body.
    pub spec: TxSpec,
}

/// Generates the deterministic arrival schedule of `spec` against
/// `config`: exponential inter-arrival gaps (mean `1000 / rate` ticks,
/// minimum 1) with bodies drawn from the ordinary [`WorkloadGenerator`].
/// A pure function of `(spec, config)`.
///
/// # Panics
/// Panics if `spec.rate` is 0.
pub fn arrival_schedule(config: &SystemConfig, spec: &OpenLoopSpec) -> Vec<Arrival> {
    assert!(spec.rate > 0, "open-loop rate must be at least 1 per kilotick");
    let mut generator = WorkloadGenerator::new(config, spec.workload.clone());
    let mut rng = StdRng::seed_from_u64(spec.arrival_seed);
    let mean_gap = 1000.0 / spec.rate as f64;
    let mut at = 0u64;
    (0..spec.arrivals)
        .map(|_| {
            let u: f64 = rng.random_range(0.0..1.0);
            // Inverse-CDF exponential draw, floored at one tick so arrivals
            // stay strictly ordered per client.
            let gap = (-mean_gap * (1.0 - u).ln()).round().max(1.0) as u64;
            at += gap;
            let tx = generator.next_tx();
            Arrival { at, client: tx.client, spec: tx.spec }
        })
        .collect()
}

/// Summary of one open-loop run at a fixed offered rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpenLoopReport {
    /// Offered load (nominal arrivals per kilotick, from the spec).
    pub offered_rate: u64,
    /// The schedule's realized offered rate: arrivals per kilotick of
    /// schedule span.  Slightly below nominal because inter-arrival gaps
    /// are floored at one tick and rounded.
    pub realized_offered_rate: f64,
    /// Completed transactions per kilotick of run duration.
    pub achieved_rate: f64,
    /// Arrivals scheduled.
    pub issued: usize,
    /// Transactions that completed.
    pub completed: usize,
    /// Virtual-time span of the run (first arrival to last event).
    pub duration: u64,
    /// Latency from *scheduled arrival* to RESP, all transactions
    /// (virtual ticks; includes client-side queueing delay).
    pub latency: LatencyStats,
    /// Latency of the READ transactions only.
    pub read_latency: LatencyStats,
    /// True once the system failed to keep up with the offered load
    /// (achieved < 95% of the *realized* offered rate): the saturation
    /// knee.
    pub saturated: bool,
}

/// Drives one open-loop run against an already-built cluster.  Returns the
/// history (checker-ready) and the report.
///
/// The cluster must be freshly built (no prior transactions) and deployed
/// over the same `config` the schedule was generated for.
pub fn drive_open_loop(
    cluster: &mut dyn Cluster,
    config: &SystemConfig,
    spec: &OpenLoopSpec,
) -> (History, OpenLoopReport) {
    drive_open_loop_tapped(cluster, config, spec, &mut |_| {})
}

/// [`drive_open_loop`] with a hook called after every completion wave —
/// the streaming check mode drains freshly committed transactions into a
/// [`snow_checker::StreamChecker`] here, while the run is still going.
fn drive_open_loop_tapped(
    cluster: &mut dyn Cluster,
    config: &SystemConfig,
    spec: &OpenLoopSpec,
    tap: &mut dyn FnMut(&mut dyn Cluster),
) -> (History, OpenLoopReport) {
    let schedule = arrival_schedule(config, spec);
    let issued = schedule.len();
    let span = schedule.last().map_or(1, |a| a.at).max(1);
    // Per-client FIFO arrival queues (BTreeMap: deterministic iteration for
    // the initial injections).
    let mut queues: BTreeMap<ClientId, VecDeque<(u64, TxSpec)>> = BTreeMap::new();
    for arrival in schedule {
        queues
            .entry(arrival.client)
            .or_default()
            .push_back((arrival.at, arrival.spec));
    }
    struct Meta {
        client: ClientId,
        scheduled_at: u64,
        is_read: bool,
    }
    let mut meta: HashMap<TxId, Meta> = HashMap::with_capacity(issued);
    let start = cluster.now();
    fn inject(
        cluster: &mut dyn Cluster,
        client: ClientId,
        queues: &mut BTreeMap<ClientId, VecDeque<(u64, TxSpec)>>,
        meta: &mut HashMap<TxId, Meta>,
    ) -> Option<TxId> {
        let (at, spec) = queues.get_mut(&client)?.pop_front()?;
        let is_read = spec.kind() == TxKind::Read;
        let tx = cluster.invoke_at(at, client, spec);
        meta.insert(tx, Meta { client, scheduled_at: at, is_read });
        Some(tx)
    }
    // One outstanding transaction per client: inject each client's first
    // arrival, then refill a client's slot whenever it frees.
    let clients: Vec<ClientId> = queues.keys().copied().collect();
    let mut active: Vec<TxId> = clients
        .iter()
        .filter_map(|&c| inject(cluster, c, &mut queues, &mut meta))
        .collect();
    while !active.is_empty() {
        if cluster.run_until_any_complete(&active).is_none() {
            break; // quiescent with watched work incomplete: nothing can finish
        }
        tap(cluster);
        let mut next_active = Vec::with_capacity(active.len());
        for tx in active {
            if cluster.is_complete(tx) {
                let client = meta[&tx].client;
                if let Some(new_tx) = inject(cluster, client, &mut queues, &mut meta) {
                    next_active.push(new_tx);
                }
            } else {
                next_active.push(tx);
            }
        }
        active = next_active;
    }
    let history = cluster.history();
    let mut latencies = Vec::with_capacity(issued);
    let mut read_latencies = Vec::new();
    for (tx, m) in &meta {
        let Some(responded_at) = history.get(*tx).and_then(|r| r.responded_at) else {
            continue;
        };
        let latency = responded_at.saturating_sub(m.scheduled_at);
        latencies.push(latency);
        if m.is_read {
            read_latencies.push(latency);
        }
    }
    let completed = latencies.len();
    let duration = cluster.now().saturating_sub(start).max(1);
    let achieved_rate = completed as f64 * 1000.0 / duration as f64;
    let realized_offered_rate = issued as f64 * 1000.0 / span as f64;
    let report = OpenLoopReport {
        offered_rate: spec.rate,
        realized_offered_rate,
        achieved_rate,
        issued,
        completed,
        duration,
        latency: LatencyStats::from_samples(&latencies),
        read_latency: LatencyStats::from_samples(&read_latencies),
        saturated: achieved_rate < 0.95 * realized_offered_rate,
    };
    (history, report)
}

/// The cluster every open-loop runner builds: `protocol` on `executor`
/// under `scheduler`, with the step cap removed so long saturation runs
/// are never cut short.
fn open_loop_cluster(
    protocol: ProtocolKind,
    config: &SystemConfig,
    scheduler: SchedulerKind,
    executor: ExecutorKind,
) -> ClusterSpec {
    ClusterSpec::new(protocol, config)
        .scheduler(scheduler)
        .executor(executor)
        .max_steps(u64::MAX)
}

/// Builds a cluster of `protocol` on `executor` and drives `spec` open
/// loop, with the step cap removed.  The simulators keep no per-action
/// log, so long saturation runs stay O(in-flight + transactions) in
/// memory.
pub fn run_open_loop(
    protocol: ProtocolKind,
    config: &SystemConfig,
    spec: &OpenLoopSpec,
    scheduler: SchedulerKind,
    executor: ExecutorKind,
) -> Result<(History, OpenLoopReport)> {
    let mut cluster = open_loop_cluster(protocol, config, scheduler, executor).build()?;
    Ok(drive_open_loop(cluster.as_mut(), config, spec))
}

/// [`run_open_loop`] with observability recording: the cluster is built
/// with [`snow_protocols::ClusterSpec::observed`], so every shard's
/// dispatch core records its virtual-time event stream
/// (`InvocationDispatched`, `MessageSent`, `MessageDelivered`,
/// `EpochBarrierCrossed`, `TxCommitted`), returned alongside the report.
/// Feed the events to `snow_obs::perfetto_json` for a Perfetto trace or
/// `snow_obs::fold_events` for a metrics snapshot.
pub fn run_open_loop_observed(
    protocol: ProtocolKind,
    config: &SystemConfig,
    spec: &OpenLoopSpec,
    scheduler: SchedulerKind,
    executor: ExecutorKind,
) -> Result<(History, OpenLoopReport, Vec<snow_protocols::deploy::ShardEvent>)> {
    let mut cluster = open_loop_cluster(protocol, config, scheduler, executor)
        .observed(true)
        .build()?;
    let (history, report) = drive_open_loop(cluster.as_mut(), config, spec);
    let events = cluster.drain_obs_events();
    Ok((history, report, events))
}

/// [`run_open_loop`] followed by a strict-serializability check of the
/// whole history, mirroring [`crate::driver::WorkloadDriver::run_checked_mode`].
///
/// [`CheckMode::PostHoc`] hands the finished history to
/// [`snow_checker::check_auto`].  In [`CheckMode::Streaming`] a
/// [`snow_checker::StreamChecker`] rides along with the run: after every
/// completion wave the cluster's commit log is drained into the checker
/// ([`Cluster::drain_commits`]) and the certification frontier advances
/// past everything the simulator can no longer invoke before — so the
/// verdict is produced incrementally, in RESP order, with memory bounded
/// by the live window instead of the full history.  Works unchanged on both substrates (serial and sharded); on
/// the sharded one the drain itself holds back commits until they are
/// globally final.  The verdicts of the two modes always agree.
pub fn run_open_loop_checked_mode(
    protocol: ProtocolKind,
    config: &SystemConfig,
    spec: &OpenLoopSpec,
    scheduler: SchedulerKind,
    executor: ExecutorKind,
    mode: CheckMode,
) -> Result<(History, OpenLoopReport, Verdict)> {
    match mode {
        CheckMode::PostHoc => {
            let (history, report) = run_open_loop(protocol, config, spec, scheduler, executor)?;
            let verdict = check_auto(&history);
            Ok((history, report, verdict))
        }
        CheckMode::Streaming => {
            let mut cluster = open_loop_cluster(protocol, config, scheduler, executor).build()?;
            let mut checker = snow_checker::StreamChecker::new();
            let (history, report) =
                drive_open_loop_tapped(cluster.as_mut(), config, spec, &mut |cluster| {
                    drain_into(&mut checker, cluster);
                });
            let verdict = finish_stream(checker, cluster.as_mut(), &history);
            Ok((history, report, verdict))
        }
    }
}

/// One latency-vs-throughput curve: the per-rate reports of one protocol,
/// in offered-rate order, with the saturation knee (the first saturated
/// rate, if the sweep reached one).
#[derive(Debug, Clone)]
pub struct RateSweep {
    /// The swept protocol.
    pub protocol: ProtocolKind,
    /// One report per offered rate, in sweep order.
    pub points: Vec<OpenLoopReport>,
}

impl RateSweep {
    /// The first offered rate the system could not keep up with, if any.
    pub fn knee(&self) -> Option<u64> {
        self.points.iter().find(|p| p.saturated).map(|p| p.offered_rate)
    }
}

/// Sweeps `protocol` across `rates` (arrivals per kilotick), driving the
/// same `(workload, arrival_seed, arrivals)` schedule shape at each rate
/// against a fresh cluster — the latency-vs-throughput curve of the
/// protocol.  `BENCH_simcore.json`'s `open_loop` section is generated from
/// these sweeps.
pub fn rate_sweep(
    protocol: ProtocolKind,
    config: &SystemConfig,
    base: &OpenLoopSpec,
    rates: &[u64],
    scheduler: SchedulerKind,
    executor: ExecutorKind,
) -> Result<RateSweep> {
    let mut points = Vec::with_capacity(rates.len());
    for &rate in rates {
        let spec = OpenLoopSpec { rate, ..base.clone() };
        let (_, report) = run_open_loop(protocol, config, &spec, scheduler, executor)?;
        points.push(report);
    }
    Ok(RateSweep { protocol, points })
}

/// Sweeps Zipf skew at a fixed offered rate: hot-key contention curves.
/// Returns `(exponent, report)` pairs in sweep order.  Contention-free
/// protocols (AlgB/AlgC reads) barely move; the blocking baseline's p99
/// degrades as the hot key serializes its lock queue.
pub fn zipf_sweep(
    protocol: ProtocolKind,
    config: &SystemConfig,
    base: &OpenLoopSpec,
    exponents: &[f64],
    scheduler: SchedulerKind,
    executor: ExecutorKind,
) -> Result<Vec<(f64, OpenLoopReport)>> {
    let mut points = Vec::with_capacity(exponents.len());
    for &exponent in exponents {
        let spec = OpenLoopSpec {
            workload: WorkloadSpec { zipf_exponent: exponent, ..base.workload.clone() },
            ..base.clone()
        };
        let (_, report) = run_open_loop(protocol, config, &spec, scheduler, executor)?;
        points.push((exponent, report));
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> ExecutorKind {
        ExecutorKind::SerialSim
    }

    fn latency_sched() -> SchedulerKind {
        SchedulerKind::Latency { seed: 11, min: 1, max: 16 }
    }

    #[test]
    fn schedule_is_deterministic_and_rate_shaped() {
        let config = SystemConfig::mwmr(4, 4, 4);
        let spec = OpenLoopSpec { arrivals: 500, ..OpenLoopSpec::tao_like(50) };
        let a = arrival_schedule(&config, &spec);
        let b = arrival_schedule(&config, &spec);
        assert_eq!(a, b, "schedule must be a pure function of (seed, rate)");
        assert_eq!(a.len(), 500);
        // Mean gap ≈ 1000/rate = 20 ticks: the 500-arrival span should be
        // within a factor of two of 10_000 ticks.
        let span = a.last().unwrap().at;
        assert!((5_000..20_000).contains(&span), "span {span}");
        // Arrival times strictly increase (gaps are floored at 1).
        assert!(a.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn different_rates_reuse_the_same_bodies() {
        let config = SystemConfig::mwmr(4, 4, 4);
        let slow = arrival_schedule(&config, &OpenLoopSpec::tao_like(10));
        let fast = arrival_schedule(&config, &OpenLoopSpec::tao_like(200));
        assert_eq!(slow.len(), fast.len());
        for (s, f) in slow.iter().zip(&fast) {
            assert_eq!(s.client, f.client);
            assert_eq!(s.spec, f.spec);
            assert!(s.at >= f.at, "slower rate must not arrive earlier");
        }
    }

    #[test]
    fn low_rate_run_keeps_up_and_high_rate_saturates() {
        let config = SystemConfig::mwmr(4, 4, 4);
        let base = OpenLoopSpec { arrivals: 300, ..OpenLoopSpec::tao_like(0).clone() };
        // Far below the ~1000/E knee: the system keeps up.
        let spec = OpenLoopSpec { rate: 20, ..base.clone() };
        let (history, low) =
            run_open_loop(ProtocolKind::AlgB, &config, &spec, latency_sched(), serial()).unwrap();
        assert_eq!(low.completed, 300);
        assert_eq!(history.incomplete_count(), 0);
        assert!(!low.saturated, "rate 20: achieved {:.1}", low.achieved_rate);
        // Far above it: arrivals outpace the 1-event/tick service capacity,
        // queueing delay accumulates, achieved rate caps out.
        let spec = OpenLoopSpec { rate: 400, ..base };
        let (_, high) =
            run_open_loop(ProtocolKind::AlgB, &config, &spec, latency_sched(), serial()).unwrap();
        assert!(high.saturated, "rate 400: achieved {:.1}", high.achieved_rate);
        assert!(
            high.latency.p99 > low.latency.p99,
            "saturation must inflate p99: {} vs {}",
            high.latency.p99,
            low.latency.p99
        );
    }

    #[test]
    fn sweep_finds_a_knee_and_is_checkable() {
        let config = SystemConfig::mwmr(4, 4, 4);
        let base = OpenLoopSpec { arrivals: 200, ..OpenLoopSpec::tao_like(0) };
        let sweep = rate_sweep(
            ProtocolKind::AlgC,
            &config,
            &base,
            &[20, 400],
            latency_sched(),
            serial(),
        )
        .unwrap();
        assert_eq!(sweep.points.len(), 2);
        assert_eq!(sweep.knee(), Some(400));
        let (_, report, verdict) = run_open_loop_checked_mode(
            ProtocolKind::AlgC,
            &config,
            &OpenLoopSpec { rate: 100, ..base },
            latency_sched(),
            serial(),
            CheckMode::PostHoc,
        )
        .unwrap();
        assert_eq!(report.completed, 200);
        assert!(verdict.is_serializable(), "{verdict:?}");
    }

    #[test]
    fn zipf_sweep_varies_contention_only() {
        let config = SystemConfig::mwmr(2, 2, 2);
        let base = OpenLoopSpec {
            workload: WorkloadSpec::write_heavy(),
            rate: 30,
            arrivals: 80,
            arrival_seed: 3,
        };
        let points = zipf_sweep(
            ProtocolKind::Blocking,
            &config,
            &base,
            &[0.0, 1.2],
            latency_sched(),
            serial(),
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        for (exp, report) in &points {
            assert_eq!(report.issued, 80, "exponent {exp}");
            assert!(report.completed > 0, "exponent {exp}");
        }
    }

    #[test]
    fn streaming_open_loop_agrees_with_post_hoc_on_both_substrates() {
        let config = SystemConfig::mwmr(4, 4, 4);
        let base = OpenLoopSpec { arrivals: 150, ..OpenLoopSpec::tao_like(0) };
        for executor in [ExecutorKind::SerialSim, ExecutorKind::ParallelSim { shards: 4 }] {
            for rate in [30, 300] {
                let spec = OpenLoopSpec { rate, ..base.clone() };
                let (history, _, posthoc) = run_open_loop_checked_mode(
                    ProtocolKind::AlgB,
                    &config,
                    &spec,
                    latency_sched(),
                    executor,
                    CheckMode::PostHoc,
                )
                .unwrap();
                let (stream_history, report, stream) = run_open_loop_checked_mode(
                    ProtocolKind::AlgB,
                    &config,
                    &spec,
                    latency_sched(),
                    executor,
                    CheckMode::Streaming,
                )
                .unwrap();
                assert_eq!(
                    format!("{history:?}"),
                    format!("{stream_history:?}"),
                    "{executor:?}/rate {rate}: the check mode changed the run"
                );
                assert_eq!(report.issued, 150);
                assert!(
                    posthoc.is_serializable() && stream.is_serializable(),
                    "{executor:?}/rate {rate}: post-hoc {posthoc:?} vs stream {stream:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "rate must be")]
    fn zero_rate_is_rejected() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let _ = arrival_schedule(&config, &OpenLoopSpec::tao_like(0));
    }
}
