//! Integration test for experiment E1 (Fig. 1a): the ✓ cells hold
//! constructively and the × cells are convicted by the mechanized chains.

use snow::checker::SnowReport;
use snow::core::{ObjectId, SystemConfig, TxSpec, Value};
use snow::impossibility::{run_three_client_chain, run_two_client_chain};
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};

fn alg_a_is_snow(config: &SystemConfig, seeds: std::ops::Range<u64>) {
    let reader = config.readers().next().unwrap();
    let writers: Vec<_> = config.writers().collect();
    for seed in seeds {
        let mut cluster = ClusterSpec::new(ProtocolKind::AlgA, config)
            .scheduler(SchedulerKind::Random(seed))
            .build()
            .unwrap();
        for round in 0..3u64 {
            let t = round * 10;
            for (i, w) in writers.iter().enumerate() {
                cluster.invoke_at(
                    t,
                    *w,
                    TxSpec::write(vec![
                        (ObjectId(0), Value(round * 100 + i as u64 + 1)),
                        (ObjectId(1), Value(round * 100 + i as u64 + 1)),
                    ]),
                );
            }
            cluster.invoke_at(t + 1, reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
            cluster.run_until_quiescent();
        }
        let report = SnowReport::evaluate("fig1a", &cluster.history());
        assert!(report.is_snow(), "seed {seed}: {report}");
    }
}

#[test]
fn two_clients_with_c2c_is_snow() {
    alg_a_is_snow(&SystemConfig::mwsr(2, 1, true), 0..25);
}

#[test]
fn mwsr_with_c2c_is_snow() {
    alg_a_is_snow(&SystemConfig::mwsr(3, 3, true), 0..25);
}

#[test]
fn three_clients_cell_is_impossible() {
    let report = run_three_client_chain();
    assert!(report.r2_before_r1);
    assert!(report.verdict_is_violation, "{}", report.verdict_detail);
}

#[test]
fn no_c2c_cell_is_impossible() {
    let report = run_two_client_chain();
    assert!(report.read_before_write_invocation);
    assert!(report.verdict_is_violation, "{}", report.verdict_detail);
}
