//! A cross-shard consistency scenario: an "inventory + orders" system where
//! a WRITE transaction atomically moves stock between two shards and READ
//! transactions take consistent snapshots.  Shows why Eiger-style logical
//! clocks are not enough (torn snapshot under an adversarial schedule is
//! possible) while Algorithm C never tears, and how the checker tells them
//! apart on the Fig. 5 schedule.
//!
//! Run with: `cargo run --example inventory_snapshot`

use snow::impossibility::run_fig5;
use snow::checker::SnowReport;
use snow::core::{ObjectId, SystemConfig, TxSpec, Value};
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};

fn main() {
    // 1. Algorithm C: transfers are never observed half-done.
    let config = SystemConfig::mwmr(2, 1, 1);
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgC, &config)
        .scheduler(SchedulerKind::Random(7))
        .build()
        .unwrap();
    let writer = config.writers().next().unwrap();
    let reader = config.readers().next().unwrap();
    // Stock starts implicit at the initial value; each transfer writes both
    // the warehouse shard (o0) and the storefront shard (o1) atomically.
    for i in 1..=5u64 {
        let w = cluster.invoke_at(
            cluster.now(),
            writer,
            TxSpec::write(vec![(ObjectId(0), Value(100 - i)), (ObjectId(1), Value(i))]),
        );
        // Reads run concurrently with the transfer.
        let r = cluster.invoke_at(
            cluster.now(),
            reader,
            TxSpec::read(vec![ObjectId(0), ObjectId(1)]),
        );
        cluster.run_until_complete(w);
        cluster.run_until_complete(r);
    }
    let report = SnowReport::evaluate("inventory / Algorithm C", &cluster.history());
    println!("{report}");
    assert!(report.observed.s, "Algorithm C snapshots are strictly serializable");

    // 2. The Eiger-style baseline on the Fig. 5 schedule: the snapshot mixes
    //    a later write with a missing earlier one.
    let fig5 = run_fig5();
    println!(
        "Eiger-style baseline under the Fig. 5 schedule: returned (o0={}, o1={}), strictly serializable? {}",
        fig5.read_o0,
        fig5.read_o1,
        !fig5.verdict_is_violation
    );
    assert!(fig5.verdict_is_violation);
}
