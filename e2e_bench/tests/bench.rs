//! The benchmark's own tests, at smoke-test sizes.

use snow_e2e_bench::runner::{self, Options, Report};
use snow_e2e_bench::trace::{Label, Layer};
use snow_e2e_bench::workloads::{Seeds, Sizes, Workload};

fn run(workload: Workload, seed: u64, trace: bool) -> Report {
    runner::run(&Options {
        workload,
        seed,
        seconds: 0.01,
        trace,
        sizes: Sizes::TINY,
    })
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The metric names a section of `BENCHMARK.json` lists, in order.
fn listed(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .expect("quoted name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_runs_correctly_and_reports_the_listed_metrics() {
    let json = benchmark_json();
    assert_eq!(
        listed(&json, "workloads"),
        Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect::<Vec<_>>()
    );
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(workload, 3, trace);
            assert!(
                report.correct,
                "{} trace={trace}: {:?}",
                workload.name(),
                report.errors
            );
            assert!(
                report.attempted > 0 && report.failed == 0,
                "{}",
                workload.name()
            );
            let names: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(
                names,
                listed(&json, section),
                "{} trace={trace}",
                workload.name()
            );
            assert!(
                report.metrics.iter().all(|m| m.value.is_finite()),
                "{}",
                workload.name()
            );
            let line = report.json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn deterministic_counts_repeat_exactly_across_runs() {
    const COUNTS: [&str; 6] = [
        "sim.steps_per_tx",
        "protocols.deliveries_per_tx",
        "protocols.rounds_per_read",
        "protocols.versions_per_read",
        "checker.stream_peak_live_window",
        "sim.epochs_per_tx",
    ];
    const VTICKS: [&str; 2] = ["read_p50_vticks", "read_p99_vticks"];
    for workload in Workload::ALL {
        let (a, b) = (run(workload, 5, true), run(workload, 5, true));
        for name in COUNTS {
            assert_eq!(a.metric(name), b.metric(name), "{} {name}", workload.name());
        }
        assert!(
            a.metric("sim.steps_per_tx").is_some_and(|v| v > 1.0),
            "{}",
            workload.name()
        );
        let (a, b) = (run(workload, 5, false), run(workload, 5, false));
        for name in VTICKS {
            assert_eq!(a.metric(name), b.metric(name), "{} {name}", workload.name());
        }
        let write_p99 = |r: &Report| {
            r.notes
                .iter()
                .find(|m| m.name == "write_p99_vticks")
                .map(|m| m.value)
        };
        assert_eq!(
            write_p99(&a),
            write_p99(&b),
            "{} write_p99_vticks",
            workload.name()
        );
    }
}

#[test]
fn layer_self_times_and_the_unattributed_share_sum_to_the_traced_wall() {
    for workload in Workload::ALL {
        let traced = workload.run_traced(Sizes::TINY, Seeds::derive(9));
        assert!(
            traced.exec.gate_errors.is_empty(),
            "{:?}",
            traced.exec.gate_errors
        );
        let spans = &traced.spans;
        let layers: u64 = Layer::PROGRAM.iter().map(|l| spans.layer_self_ns(*l)).sum();
        let unattributed = spans.layer_self_ns(Layer::None);
        assert_eq!(
            unattributed,
            spans.self_of(Label::Root),
            "only the root span is unattributed"
        );
        assert_eq!(
            layers + unattributed,
            spans.wall_ns(),
            "{}",
            workload.name()
        );
        assert!(spans.wall_ns() > 0 && layers > 0, "{}", workload.name());
        // Every layer of the pipeline did some work inside the traced wall.
        for layer in Layer::PROGRAM {
            assert!(
                spans.layer_self_ns(layer) > 0,
                "{} {}",
                workload.name(),
                layer.name()
            );
        }
        assert_eq!(spans.calls[Label::Root as usize], 1);
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    let a = Workload::OpenReadStream.run(Sizes::TINY, Seeds::derive(1));
    let b = Workload::OpenReadStream.run(Sizes::TINY, Seeds::derive(2));
    assert_ne!(a.fingerprint, b.fingerprint);
    let c = Workload::OpenReadStream.run(Sizes::TINY, Seeds::derive(1));
    assert_eq!(a.fingerprint, c.fingerprint);
}
