//! # snow-workload
//!
//! Workload generation and driving for the SNOW protocol comparisons:
//!
//! * [`zipf`] — a Zipfian popularity sampler (hot keys dominate, as in the
//!   TAO / Spanner workloads the paper's introduction cites);
//! * [`generator`] — read/write transaction mixes (e.g. the 500:1 read:write
//!   ratio Facebook reports for TAO), with configurable objects-per-READ and
//!   objects-per-WRITE;
//! * [`driver`] — drives a generated workload against any
//!   [`snow_protocols::Cluster`] in rounds of concurrent transactions,
//!   returning the merged history for the checker and the metrics tables;
//! * [`scenario`] — the scenario matrix: protocols × geo-topologies ×
//!   workload shapes, each cell running on a topology-scheduled cluster and
//!   condensed into an [`SloReport`] (SNOW verdict, p50/p99 read latency,
//!   rounds, C2C counts) for the `scenarios` section of the bench artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod generator;
pub mod open_loop;
pub mod scenario;
pub mod zipf;

pub use driver::{CheckMode, DriverReport, WorkloadDriver};
pub use open_loop::{
    arrival_schedule, drive_open_loop, rate_sweep, run_open_loop, run_open_loop_checked_mode,
    run_open_loop_observed, zipf_sweep, Arrival, OpenLoopReport, OpenLoopSpec, RateSweep,
};
pub use generator::{GeneratedTx, WorkloadGenerator, WorkloadSpec};
pub use scenario::{
    run_scenario, scenario_matrix, slo_report, Scenario, ScenarioRun, SloReport, TopologyKind,
    WorkloadShape, SCENARIO_MATRIX_VERSION,
};
pub use zipf::Zipf;
