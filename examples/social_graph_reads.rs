//! A social-graph-style read-dominated workload (the TAO motivation from the
//! paper's introduction): ~500 READs per WRITE over Zipf-popular objects,
//! compared across Algorithm A (SNOW, MWSR + C2C), Algorithm C (one-round
//! SNW) and the blocking 2PL baseline.
//!
//! Run with: `cargo run --release --example social_graph_reads`

use snow::checker::{HistoryMetrics, SnowReport};
use snow::core::SystemConfig;
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow::workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};

fn main() {
    println!("protocol                                        reads  p50   p99   rounds  S N O W");
    for protocol in [ProtocolKind::AlgA, ProtocolKind::AlgC, ProtocolKind::Blocking] {
        let config = if protocol.needs_c2c() {
            SystemConfig::mwsr(8, 2, true)
        } else {
            SystemConfig::mwmr(8, 2, 2)
        };
        let mut cluster = ClusterSpec::new(protocol, &config)
            .scheduler(SchedulerKind::Latency { seed: 42, min: 1, max: 20 })
            .build()
            .unwrap();
        let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::tao_like());
        let (history, _report) =
            WorkloadDriver::new(config.num_clients() as usize).run(cluster.as_mut(), &mut generator, 600);
        let metrics = HistoryMetrics::from_history(&history);
        let snow = SnowReport::evaluate(protocol.name(), &history);
        println!(
            "{:<46} {:>6} {:>5} {:>5} {:>6.2}   {}",
            protocol.name(),
            metrics.reads,
            metrics.read_latency.p50,
            metrics.read_latency.p99,
            metrics.mean_rounds,
            snow.observed,
        );
    }
    println!("\nSNOW-optimal reads (Algorithm A) match one-round latency; the blocking baseline pays for locks.");
}
