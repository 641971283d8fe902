//! Host-speed calibration.
//!
//! Shared hosts change speed by tens of percent over minutes as their
//! neighbours come and go, which no amount of repetition inside one run
//! averages away.  The benchmark therefore times a fixed kernel — code of
//! its own that no change to the repository touches — around every
//! execution, and reports wall and CPU times scaled to a host on which the
//! kernel takes [`NOMINAL_NS`].
//!
//! Each figure is scaled by a kernel that spends what the figure spends.
//! CPU time and serial walls are bound by single-thread speed: the compute
//! kernel mixes what the simulator does, allocation-heavy ordered-map
//! inserts, pointer-chasing lookups and a sort.  The sharded workload's wall
//! is almost all its workers meeting at barriers: the barrier kernel spawns
//! the same number of threads and has them meet at a barrier, as the engine
//! does on every run call.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Kernel duration of the nominal host.
pub const NOMINAL_NS: f64 = 20_000_000.0;

/// Kernel runs per reading; the reading is their median.
const RUNS: usize = 3;

fn compute_kernel() -> u64 {
    let mut state = 0x5EED_CA11_B4A7_E000u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    };
    let mut map = BTreeMap::new();
    for i in 0..60_000u64 {
        map.insert(next() % 1_000_000, i);
    }
    let mut sorted: Vec<u64> = (0..200_000).map(|_| next()).collect();
    sorted.sort_unstable();
    let hits: u64 = (0..60_000u64).filter_map(|k| map.get(&(k * 13))).sum();
    hits ^ sorted[sorted.len() / 2]
}

fn barrier_kernel(threads: usize) {
    for _ in 0..25 {
        let barrier = Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..100 {
                        black_box(barrier.wait());
                    }
                });
            }
        });
    }
}

fn median_of_runs(kernel: impl Fn()) -> f64 {
    let mut runs: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            kernel();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[RUNS / 2]
}

/// Kernel times taken between two executions, each the median of [`RUNS`]
/// runs, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    compute_ns: f64,
    /// Barrier-kernel time, for workloads that keep several threads busy.
    barrier_ns: Option<f64>,
}

impl Reading {
    /// Reads the host for a workload that keeps `threads` threads busy.
    pub fn take(threads: usize) -> Reading {
        Reading {
            compute_ns: median_of_runs(|| {
                black_box(compute_kernel());
            }),
            barrier_ns: (threads > 1).then(|| median_of_runs(|| barrier_kernel(threads))),
        }
    }
}

/// Scales for the figures of the execution between `before` and `after`:
/// `(wall, cpu)`, each `NOMINAL_NS` over the mean of the two readings of its
/// kernel.  Set-up, like CPU time, is single-thread work.
pub fn scales(before: Reading, after: Reading) -> (f64, f64) {
    let scale = |a: f64, b: f64| NOMINAL_NS / ((a + b) / 2.0);
    let cpu = scale(before.compute_ns, after.compute_ns);
    let wall = match (before.barrier_ns, after.barrier_ns) {
        (Some(a), Some(b)) => scale(a, b),
        _ => cpu,
    };
    (wall, cpu)
}
