//! Fault-engine determinism: a faulty history is a pure function of
//! `(protocol, scheduler, seeds, fault schedule)` — the same contract the
//! clean engine pins in `tests/determinism.rs`, extended over crashes,
//! partitions and message-level faults.
//!
//! Four angles:
//!
//! * the pinned fault matrix reproduces `tests/golden_fault_histories.txt`
//!   fingerprint-for-fingerprint (regenerate with
//!   `cargo run -p snow-bench --release --bin golden_histories -- --faults
//!   --write` only on an intentional semantics change);
//! * a 1-shard parallel cluster renders every fault combo byte-for-byte
//!   what the serial cluster renders;
//! * a 4-shard cluster is deterministic per seed (rerun-identical);
//! * an *empty* `FaultSchedule` is structurally inert: a faulty cluster
//!   with nothing scheduled reproduces the clean cluster's history
//!   byte-for-byte for all 30 golden combos;
//! * recording observability events leaves the history untouched under
//!   every named fault scenario, straggler responses included, on the
//!   serial and the 2-shard engine.
//!
//! A proptest sweeps randomized schedules (drop/dup/delay regions, a
//! queueing crash) through the same three executors to catch fault-path
//! nondeterminism the pinned matrix misses.

use proptest::proptest;
use proptest::ProptestConfig;
use snow_bench::golden;
use snow_core::{ServerId, SystemConfig};
use snow_protocols::{fault_scenarios, ClusterSpec, ExecutorKind, ProtocolKind, SchedulerKind};
use snow_sim::{Crash, CrashPolicy, EndpointSel, FaultAction, FaultRegion, FaultSchedule};
use snow_workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("golden_fault_histories.txt");

fn parse_fixture() -> BTreeMap<String, (usize, u64)> {
    let mut out = BTreeMap::new();
    for line in FIXTURE.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let label = parts.next().expect("fixture label").to_string();
        let ntx = parts
            .next()
            .and_then(|p| p.strip_prefix("ntx="))
            .expect("fixture ntx")
            .parse::<usize>()
            .expect("fixture ntx value");
        let hash = parts
            .next()
            .and_then(|p| p.strip_prefix("hash="))
            .expect("fixture hash");
        let hash = u64::from_str_radix(hash, 16).expect("fixture hash value");
        out.insert(label, (ntx, hash));
    }
    out
}

#[test]
fn fault_histories_match_golden_fixtures() {
    let fixtures = parse_fixture();
    let combos = golden::fault_combos();
    assert_eq!(
        fixtures.len(),
        combos.len(),
        "fault fixture file and combo list out of sync; regenerate the fixtures"
    );
    let mut mismatches = Vec::new();
    for combo in &combos {
        let (ntx, want) = fixtures
            .get(&combo.label)
            .unwrap_or_else(|| panic!("no fixture for {}", combo.label));
        assert_eq!(*ntx, golden::COMBO_TXNS, "{}", combo.label);
        let canon = golden::run_fault_combo(combo);
        let got = golden::fingerprint(&canon);
        if got != *want {
            eprintln!(
                "=== {} mismatch: want {want:016x}, got {got:016x} ===\n{canon}",
                combo.label
            );
            mismatches.push(combo.label.clone());
        }
    }
    assert!(
        mismatches.is_empty(),
        "fault histories diverged from golden fixtures: {mismatches:?}"
    );
}

#[test]
fn one_shard_parallel_reproduces_serial_fault_histories() {
    for combo in golden::fault_combos() {
        let serial = golden::run_fault_combo_on(&combo, ExecutorKind::SerialSim);
        let sharded =
            golden::run_fault_combo_on(&combo, ExecutorKind::ParallelSim { shards: 1 });
        assert_eq!(
            serial, sharded,
            "{}: 1-shard parallel diverged from serial under faults",
            combo.label
        );
    }
}

#[test]
fn four_shard_fault_histories_are_deterministic() {
    for combo in golden::fault_combos().iter().step_by(4) {
        let four = ExecutorKind::ParallelSim { shards: 4 };
        assert_eq!(
            golden::run_fault_combo_on(combo, four),
            golden::run_fault_combo_on(combo, four),
            "{}: 4-shard fault run not reproducible",
            combo.label
        );
    }
}

#[test]
fn observed_matches_unobserved_under_faults() {
    // Recording may not change a history, and the fault paths (drops,
    // duplicates, crash intercepts, partition holds, orphan retirement)
    // have emission sites of their own.  The dup storm is the sharp case
    // for the READ instrumentation: a duplicated read request's second
    // response reaches the invoker after RESP.
    let config = SystemConfig::mwmr(4, 4, 4);
    let scheduler = SchedulerKind::Latency { seed: 7, min: 1, max: 16 };
    let protocols = [
        ProtocolKind::AlgB,
        ProtocolKind::AlgC,
        ProtocolKind::Simple,
        ProtocolKind::Blocking,
        ProtocolKind::Eiger,
    ];
    let executors = [ExecutorKind::SerialSim, ExecutorKind::ParallelSim { shards: 2 }];
    for (scenario, schedule) in fault_scenarios() {
        for protocol in protocols {
            for executor in executors {
                let run = |observed| {
                    let mut cluster = ClusterSpec::new(protocol, &config)
                        .scheduler(scheduler)
                        .executor(executor)
                        .faults(schedule.clone())
                        .observed(observed)
                        .build()
                        .expect("valid fault config");
                    let mut generator =
                        WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
                    let (history, _) =
                        WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, 200);
                    let records: Vec<String> =
                        history.records.iter().map(|r| format!("{r:?}")).collect();
                    (records, cluster.drain_obs_events().len())
                };
                let ((unobserved, silent), (observed, events)) = (run(false), run(true));
                let case = format!("{protocol:?}/{scenario}/{executor:?}");
                assert_eq!(silent, 0, "{case}: an unobserved cluster recorded events");
                assert!(events > 0, "{case}: the observed cluster recorded no events");
                assert_eq!(unobserved.len(), observed.len(), "{case}");
                let differing = unobserved.iter().zip(&observed).filter(|(a, b)| a != b).count();
                assert_eq!(
                    differing,
                    0,
                    "{case}: {differing} of {} records differ when observed",
                    unobserved.len()
                );
            }
        }
    }
}

#[test]
fn empty_fault_schedule_is_inert() {
    // The faulty builder with nothing scheduled must reproduce the clean
    // builder byte-for-byte (modulo the `aborted=0` trailer the faulty
    // renderer appends): the fault engine may not perturb message ids,
    // scheduler draws or clocks when no fault fires.  Combined with
    // `tests/determinism.rs` this keeps all 30 committed golden fixtures
    // valid under an empty schedule.
    for combo in golden::combos() {
        let clean = golden::run_combo(&combo);
        let faulty = golden::run_fault_schedule_on(
            combo.protocol,
            combo.scheduler,
            FaultSchedule::new(0),
            ExecutorKind::SerialSim,
        );
        let want = format!("{} aborted=0\n", clean.trim_end_matches('\n'));
        assert_eq!(
            faulty, want,
            "{}: an empty fault schedule perturbed the history",
            combo.label
        );
    }
}

fn random_schedule(seed: u64, pct: u8, delay: u64, crash: bool) -> FaultSchedule {
    let mut schedule = FaultSchedule::new(seed)
        .with_region(FaultRegion {
            action: FaultAction::Drop,
            src: EndpointSel::AnyClient,
            dst: EndpointSel::AnyServer,
            from: 10,
            until: 80,
            chance_pct: pct,
        })
        .with_region(FaultRegion {
            action: FaultAction::Duplicate,
            src: EndpointSel::AnyClient,
            dst: EndpointSel::AnyServer,
            from: 40,
            until: 160,
            chance_pct: pct / 2,
        })
        .with_region(FaultRegion {
            action: FaultAction::Delay(delay),
            src: EndpointSel::AnyServer,
            dst: EndpointSel::AnyClient,
            from: 0,
            until: u64::MAX,
            chance_pct: pct,
        });
    if crash {
        schedule = schedule.with_crash(Crash {
            server: ServerId(1),
            at: 25,
            recover_at: 60 + delay,
            policy: CrashPolicy::QueueInFlight,
        });
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn randomized_fault_schedules_are_pure_functions_of_their_inputs(
        seed in 0u64..1_000_000,
        pct_raw in 1u64..60,
        delay in 1u64..40,
        crash_raw in 0u64..2,
    ) {
        let pct = pct_raw as u8;
        let crash = crash_raw == 1;
        let scheduler = SchedulerKind::Latency { seed: seed ^ 0xA5A5, min: 1, max: 15 };
        for protocol in ProtocolKind::all() {
            let run = |executor| {
                golden::run_fault_schedule_on(
                    protocol,
                    scheduler,
                    random_schedule(seed, pct, delay, crash),
                    executor,
                )
            };
            let serial = run(ExecutorKind::SerialSim);
            let again = run(ExecutorKind::SerialSim);
            assert_eq!(serial, again, "{protocol:?}: serial fault rerun diverged");
            let one_shard = run(ExecutorKind::ParallelSim { shards: 1 });
            assert_eq!(serial, one_shard, "{protocol:?}: 1-shard diverged under faults");
        }
    }
}
