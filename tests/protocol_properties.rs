//! Cross-crate property tests: for every protocol that claims strict
//! serializability, random schedules and random workloads never produce a
//! history the checker rejects; and the per-protocol latency signatures
//! (rounds / versions / blocking) match Fig. 1(b).

use proptest::prelude::*;
use snow::checker::{HistoryMetrics, SnowChecker, SnowReport};
use snow::core::SystemConfig;
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow::workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};

fn run_random(protocol: ProtocolKind, seed: u64, total: usize, read_fraction: f64) -> SnowReport {
    let config = if protocol.needs_c2c() {
        SystemConfig::mwsr(3, 2, true)
    } else {
        SystemConfig::mwmr(3, 2, 2)
    };
    let mut cluster = ClusterSpec::new(protocol, &config)
        .scheduler(SchedulerKind::Random(seed))
        .build()
        .unwrap();
    let spec = WorkloadSpec {
        read_fraction,
        objects_per_read: 2,
        objects_per_write: 2,
        zipf_exponent: 0.9,
        seed,
    };
    let mut generator = WorkloadGenerator::new(&config, spec);
    let (history, report) =
        WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, total);
    assert_eq!(report.completed, report.issued);
    SnowReport::evaluate(protocol.name(), &history)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn algorithm_a_is_snow_on_random_workloads(seed in 0u64..10_000, rf in 0.2f64..0.9) {
        let report = run_random(ProtocolKind::AlgA, seed, 24, rf);
        prop_assert!(report.is_snow(), "{report}");
    }

    #[test]
    fn algorithm_b_is_snw_one_version_on_random_workloads(seed in 0u64..10_000, rf in 0.2f64..0.9) {
        let report = run_random(ProtocolKind::AlgB, seed, 24, rf);
        prop_assert!(report.is_snw(), "{report}");
        prop_assert!(report.metrics.max_versions() <= 1);
        prop_assert!(report.metrics.max_rounds() <= 2);
    }

    #[test]
    fn algorithm_c_is_snw_and_mostly_one_round(seed in 0u64..10_000, rf in 0.2f64..0.9) {
        let report = run_random(ProtocolKind::AlgC, seed, 24, rf);
        prop_assert!(report.is_snw(), "{report}");
        // One round except for the rare documented fallback race.
        prop_assert!(report.metrics.max_rounds() <= 2);
    }

    #[test]
    fn blocking_baseline_is_strictly_serializable(seed in 0u64..10_000, rf in 0.2f64..0.9) {
        let report = run_random(ProtocolKind::Blocking, seed, 20, rf);
        prop_assert!(report.observed.s, "{report}");
        prop_assert!(report.observed.w, "{report}");
    }
}

#[test]
fn latency_signatures_match_fig1b() {
    // Deterministic single check of the headline signature per protocol.
    for (protocol, max_rounds, max_versions_is_one) in [
        (ProtocolKind::AlgA, 1, true),
        (ProtocolKind::AlgB, 2, true),
        (ProtocolKind::AlgC, 2, false),
    ] {
        let config = if protocol.needs_c2c() {
            SystemConfig::mwsr(4, 3, true)
        } else {
            SystemConfig::mwmr(4, 3, 2)
        };
        let mut cluster = ClusterSpec::new(protocol, &config)
            .scheduler(SchedulerKind::Latency { seed: 3, min: 1, max: 15 })
            .build()
            .unwrap();
        let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
        let (history, _) = WorkloadDriver::new(5).run(cluster.as_mut(), &mut generator, 150);
        let metrics = HistoryMetrics::from_history(&history);
        assert!(metrics.max_rounds() <= max_rounds, "{protocol:?}: {}", metrics.max_rounds());
        assert_eq!(
            metrics.max_versions() <= 1,
            max_versions_is_one,
            "{protocol:?}: {}",
            metrics.max_versions()
        );
        let checker = SnowChecker::new();
        assert!(checker.check_non_blocking(&history).holds, "{protocol:?}");
        assert!(checker.check_strict_serializability(&history).holds, "{protocol:?}");
    }
}

#[test]
fn simple_reads_are_fast_but_not_transactional_under_adversity() {
    // Simple grouped reads keep the latency floor but the checker is allowed
    // to find torn snapshots under adversarial schedules; nothing to assert
    // beyond completion here (the torn-read demonstration lives in the
    // protocol's unit tests), but the latency floor must be one round.
    let config = SystemConfig::mwmr(4, 1, 1);
    let mut cluster = ClusterSpec::new(ProtocolKind::Simple, &config)
        .scheduler(SchedulerKind::Random(5))
        .build()
        .unwrap();
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::uniform_read_mostly());
    let (history, _) = WorkloadDriver::new(2).run(cluster.as_mut(), &mut generator, 40);
    let metrics = HistoryMetrics::from_history(&history);
    assert_eq!(metrics.max_rounds(), 1);
    assert!((metrics.nonblocking_fraction - 1.0).abs() < 1e-9);
}
