//! Step-loop microbenchmark scenario for the simulator core.
//!
//! The "flood" scenario measures raw engine throughput with a controlled
//! number of in-flight messages: one client fans out `in_flight` requests to
//! a server in a single invocation; the server answers each, so the run
//! executes `2 * in_flight + 1` steps while the pending pool holds up to
//! `in_flight` messages.  A latency-model scheduler is used so every send
//! and every delivery exercises the engine's scheduling data structures
//! (delivery-queue insert + pop), which is exactly the hot path of every
//! figure/table binary in this workspace.
//!
//! The **paired flood** ([`run_flood_paired`], [`run_flood_parallel`]) is
//! the multi-core variant: `pairs` clients each fan out `in_flight /
//! pairs` requests to their own server.  Run on the serial engine it is
//! the single-thread baseline; run on the sharded parallel engine
//! ([`snow_sim::ParallelSimulation`]) each client/server pair lands on one
//! shard and the per-shard step loops proceed concurrently — the
//! `parallel_flood` section of `BENCH_simcore.json` tracks the ratio.

use snow_core::{
    ClientId, ObjectId, ProcessId, ReadOutcome, ServerId, TxId, TxOutcome, TxSpec,
};
use snow_sim::{Effects, LatencyScheduler, ParallelSimulation, Process, Simulation};
use std::time::{Duration, Instant};

/// Protocol-less flood message: a request or response carrying its index.
#[derive(Debug, Clone)]
pub enum FloodMsg {
    /// Client→server request.
    Req(u32),
    /// Server→client response.
    Resp(u32),
}

impl snow_sim::SimMessage for FloodMsg {}

/// Flood node: one client fanning out, or one server echoing back.
pub enum FloodNode {
    /// The fan-out client.
    Client {
        /// Client id.
        id: ClientId,
        /// The server this client floods.
        server: ServerId,
        /// Outstanding (transaction, responses still expected).
        outstanding: Option<(TxId, usize)>,
    },
    /// The echo server.
    Server {
        /// Server id.
        id: ServerId,
    },
}

impl Process for FloodNode {
    type Msg = FloodMsg;

    fn id(&self) -> ProcessId {
        match self {
            FloodNode::Client { id, .. } => ProcessId::Client(*id),
            FloodNode::Server { id } => ProcessId::Server(*id),
        }
    }

    fn on_invoke(&mut self, tx: TxId, spec: TxSpec, effects: &mut Effects<FloodMsg>) {
        let FloodNode::Client { server, outstanding, .. } = self else {
            panic!("flood server invoked")
        };
        let objects = spec.objects();
        *outstanding = Some((tx, objects.len()));
        for object in objects {
            effects.send(ProcessId::Server(*server), FloodMsg::Req(object.0));
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: FloodMsg, effects: &mut Effects<FloodMsg>) {
        match (self, msg) {
            (FloodNode::Server { .. }, FloodMsg::Req(i)) => {
                effects.send(from, FloodMsg::Resp(i));
            }
            (FloodNode::Client { outstanding, .. }, FloodMsg::Resp(_)) => {
                if let Some((tx, remaining)) = outstanding {
                    *remaining -= 1;
                    if *remaining == 0 {
                        effects.respond(
                            *tx,
                            TxOutcome::Read(ReadOutcome {
                                reads: Vec::new(),
                                tag: None,
                            }),
                        );
                        *outstanding = None;
                    }
                }
            }
            _ => panic!("unexpected flood message"),
        }
    }
}

/// One flood measurement.
#[derive(Debug, Clone, Copy)]
pub struct FloodStats {
    /// Peak in-flight messages (= fan-out width).
    pub in_flight: usize,
    /// Steps the engine executed.
    pub steps: u64,
    /// Wall-clock time of the step loop.
    pub wall: Duration,
}

impl FloodStats {
    /// Steps per second.
    pub fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.wall.as_secs_f64()
    }
}

/// Runs the flood scenario with `in_flight` concurrent messages.
///
/// The trace stores no actions, so the 100k+/million-message rows measure
/// the engine, not allocator pressure from an O(messages) action log.
pub fn run_flood(in_flight: usize, seed: u64) -> FloodStats {
    let mut sim = Simulation::new(LatencyScheduler::new(seed, 1, 64))
        .with_max_steps(4 * in_flight as u64 + 16);
    sim.add_process(FloodNode::Client {
        id: ClientId(0),
        server: ServerId(0),
        outstanding: None,
    });
    sim.add_process(FloodNode::Server { id: ServerId(0) });
    let objects: Vec<ObjectId> = (0..in_flight).map(|i| ObjectId(i as u32)).collect();
    let tx = sim.invoke_at(0, ClientId(0), TxSpec::read(objects));
    let start = Instant::now();
    let steps = sim.run_until_quiescent();
    let wall = start.elapsed();
    assert!(sim.is_complete(tx), "flood transaction must complete");
    FloodStats {
        in_flight,
        steps,
        wall,
    }
}

/// The paired-flood node set: client `i` floods server `i`, with the
/// fan-out width split evenly across `pairs` pairs.
fn paired_nodes(pairs: usize) -> Vec<FloodNode> {
    let mut nodes = Vec::with_capacity(2 * pairs);
    for i in 0..pairs as u32 {
        nodes.push(FloodNode::Client {
            id: ClientId(i),
            server: ServerId(i),
            outstanding: None,
        });
        nodes.push(FloodNode::Server { id: ServerId(i) });
    }
    nodes
}

/// The paired-flood invocation plan: one fan-out read per client, width
/// `in_flight / pairs` each.
fn paired_plan(in_flight: usize, pairs: usize) -> Vec<(ClientId, TxSpec)> {
    let per_pair = (in_flight / pairs).max(1);
    (0..pairs as u32)
        .map(|i| {
            let objects: Vec<ObjectId> = (0..per_pair).map(|o| ObjectId(o as u32)).collect();
            (ClientId(i), TxSpec::read(objects))
        })
        .collect()
}

/// Runs the paired flood on the **serial** engine: the single-thread
/// baseline the `parallel_flood` speedups are measured against.
pub fn run_flood_paired(in_flight: usize, seed: u64, pairs: usize) -> FloodStats {
    let mut sim = Simulation::new(LatencyScheduler::new(seed, 1, 64))
        .with_max_steps(4 * in_flight as u64 + 64);
    for node in paired_nodes(pairs) {
        sim.add_process(node);
    }
    let txs: Vec<TxId> = paired_plan(in_flight, pairs)
        .into_iter()
        .map(|(client, spec)| sim.invoke_at(0, client, spec))
        .collect();
    let start = Instant::now();
    let steps = sim.run_until_quiescent();
    let wall = start.elapsed();
    for tx in txs {
        assert!(sim.is_complete(tx), "paired flood transaction must complete");
    }
    FloodStats { in_flight, steps, wall }
}

/// Runs the paired flood on the **sharded parallel** engine with `shards`
/// worker threads: client/server pair `i` lands on shard `i % shards`
/// (`snow_sim::parallel::shard_of`), so the per-shard step loops are
/// independent and the epoch barrier only paces them.  Same workload as
/// [`run_flood_paired`]; the steps/sec ratio between the two is the
/// engine's parallel speedup on this host.
pub fn run_flood_parallel(in_flight: usize, seed: u64, pairs: usize, shards: usize) -> FloodStats {
    let mut sim = ParallelSimulation::new(shards, |i| {
        LatencyScheduler::new(snow_sim::parallel::shard_seed(seed, i), 1, 64)
    })
    // The paired flood is shard-disjoint, so wide epochs lose no
    // cross-shard fidelity and keep the barrier off the hot path.
    .with_epoch_width(4096)
    .with_max_steps(4 * in_flight as u64 + 64);
    for node in paired_nodes(pairs) {
        sim.add_process(node);
    }
    let txs: Vec<TxId> = paired_plan(in_flight, pairs)
        .into_iter()
        .map(|(client, spec)| sim.invoke_at(0, client, spec))
        .collect();
    let start = Instant::now();
    let steps = sim.run_until_quiescent();
    let wall = start.elapsed();
    for tx in txs {
        assert!(sim.is_complete(tx), "parallel flood transaction must complete");
    }
    FloodStats { in_flight, steps, wall }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_executes_expected_step_count() {
        let stats = run_flood(100, 3);
        // 1 invocation + 100 requests + 100 responses.
        assert_eq!(stats.steps, 201);
        assert_eq!(stats.in_flight, 100);
        assert!(stats.steps_per_sec() > 0.0);
    }

    #[test]
    fn paired_flood_matches_across_engines() {
        // Both engines execute the same work: `pairs` invocations plus a
        // request and a response per in-flight slot.
        let serial = run_flood_paired(96, 5, 4);
        assert_eq!(serial.steps, 4 + 2 * 96);
        for shards in [1usize, 4] {
            let parallel = run_flood_parallel(96, 5, 4, shards);
            assert_eq!(parallel.steps, serial.steps, "{shards} shards");
        }
    }
}
