//! Criterion bench: READ transaction latency per protocol on the simulator
//! (E8 companion).  One sample = one READ over all objects following a
//! seeded write, under a latency-model scheduler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snow_bench::comparison_config;
use snow_core::{ObjectId, TxSpec, Value};
use snow_protocols::{ClusterSpec, ProtocolKind, SchedulerKind};

fn bench_read_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_transaction");
    group.sample_size(20);
    for protocol in ProtocolKind::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{protocol:?}")),
            &protocol,
            |b, &protocol| {
                b.iter(|| {
                    let config = comparison_config(protocol, 4, 1, 1);
                    let mut cluster = ClusterSpec::new(protocol, &config)
                        .scheduler(SchedulerKind::Latency { seed: 1, min: 1, max: 10 })
                        .build()
                        .unwrap();
                    let writer = config.writers().next().unwrap();
                    let reader = config.readers().next().unwrap();
                    let objects: Vec<ObjectId> = config.objects().collect();
                    let w = cluster.invoke_at(
                        0,
                        writer,
                        TxSpec::write(objects.iter().map(|o| (*o, Value(1))).collect()),
                    );
                    cluster.run_until_complete(w);
                    let r = cluster.invoke_at(cluster.now(), reader, TxSpec::read(objects));
                    cluster.run_until_complete(r);
                    cluster.history().get(r).unwrap().latency().unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_read_latency);
criterion_main!(benches);
