//! Protocol-erased deployments: one code path for every executor.
//!
//! Each protocol module defines its own node and message types, which is
//! what lets the simulator type-check protocol invariants — but it also used
//! to force every executor to repeat a six-way `match` (the simulator's
//! cluster constructor, the runtime's `typed::` constructors, the latency
//! harness's `run!` macro).  [`AnyNode`] and [`AnyMsg`] erase the
//! per-protocol types behind enum dispatch, so a deployment is described
//! once — by a [`ProtocolKind`] and a [`SystemConfig`] — and executed
//! anywhere a [`Process`] can run: `snow_sim::Simulation`,
//! `snow_runtime::AsyncCluster`, or any future substrate.
//!
//! Enum dispatch (rather than `Box<dyn Any>` downcasting) keeps dispatch
//! static, keeps messages `Clone + Debug`, and — crucially for the golden
//! fixtures — adds no sends, no reordering and no scheduler interaction:
//! a wrapped deployment produces bit-identical schedules to the typed one.

use crate::{alg_a, alg_b, alg_c, blocking, eiger, simple, ProtocolKind};
use snow_core::{
    Effects, MsgInfo, Process, ProcessId, ProtocolMessage, Result, SystemConfig, TxId, TxSpec,
};

/// A message of any protocol: the per-protocol message type, tagged.
#[derive(Debug, Clone)]
pub enum AnyMsg {
    /// Algorithm A traffic.
    AlgA(alg_a::AlgAMsg),
    /// Algorithm B traffic.
    AlgB(alg_b::AlgBMsg),
    /// Algorithm C traffic.
    AlgC(alg_c::AlgCMsg),
    /// Eiger-style traffic.
    Eiger(eiger::EigerMsg),
    /// Blocking-2PL traffic.
    Blocking(blocking::BlockingMsg),
    /// Simple-operation traffic.
    Simple(simple::SimpleMsg),
}

impl ProtocolMessage for AnyMsg {
    fn info(&self) -> MsgInfo {
        match self {
            AnyMsg::AlgA(m) => m.info(),
            AnyMsg::AlgB(m) => m.info(),
            AnyMsg::AlgC(m) => m.info(),
            AnyMsg::Eiger(m) => m.info(),
            AnyMsg::Blocking(m) => m.info(),
            AnyMsg::Simple(m) => m.info(),
        }
    }
}

/// A process of any protocol deployment.
#[derive(Debug)]
pub enum AnyNode {
    /// An Algorithm A process.
    AlgA(alg_a::AlgANode),
    /// An Algorithm B process.
    AlgB(alg_b::AlgBNode),
    /// An Algorithm C process.
    AlgC(alg_c::AlgCNode),
    /// An Eiger-style process.
    Eiger(eiger::EigerNode),
    /// A blocking-2PL process.
    Blocking(blocking::BlockingNode),
    /// A simple-operation process.
    Simple(simple::SimpleNode),
}

/// Runs an inner handler with a typed [`Effects`] buffer and re-wraps its
/// sends into [`AnyMsg`]; responses pass through unchanged.
fn rewrap<M, F>(effects: &mut Effects<AnyMsg>, wrap: fn(M) -> AnyMsg, handler: F)
where
    F: FnOnce(&mut Effects<M>),
{
    let mut inner = Effects::new(effects.now());
    handler(&mut inner);
    let (sends, responses) = inner.into_parts();
    for (to, msg) in sends {
        effects.send(to, wrap(msg));
    }
    for (tx, outcome) in responses {
        effects.respond(tx, outcome);
    }
}

/// Dispatches an input to the wrapped node, unwrapping/wrapping messages.
/// A message of the wrong protocol reaching a node is a harness bug (it
/// cannot happen through [`deploy`], which builds homogeneous deployments)
/// and panics loudly.
macro_rules! dispatch {
    ($self:expr, $effects:expr, |$node:ident, $inner:ident| $body:expr) => {
        match $self {
            AnyNode::AlgA($node) => rewrap($effects, AnyMsg::AlgA, |$inner| $body),
            AnyNode::AlgB($node) => rewrap($effects, AnyMsg::AlgB, |$inner| $body),
            AnyNode::AlgC($node) => rewrap($effects, AnyMsg::AlgC, |$inner| $body),
            AnyNode::Eiger($node) => rewrap($effects, AnyMsg::Eiger, |$inner| $body),
            AnyNode::Blocking($node) => rewrap($effects, AnyMsg::Blocking, |$inner| $body),
            AnyNode::Simple($node) => rewrap($effects, AnyMsg::Simple, |$inner| $body),
        }
    };
}

impl Process for AnyNode {
    type Msg = AnyMsg;

    fn id(&self) -> ProcessId {
        match self {
            AnyNode::AlgA(n) => n.id(),
            AnyNode::AlgB(n) => n.id(),
            AnyNode::AlgC(n) => n.id(),
            AnyNode::Eiger(n) => n.id(),
            AnyNode::Blocking(n) => n.id(),
            AnyNode::Simple(n) => n.id(),
        }
    }

    fn on_invoke(&mut self, tx_id: TxId, spec: TxSpec, effects: &mut Effects<AnyMsg>) {
        dispatch!(self, effects, |node, inner| node.on_invoke(tx_id, spec.clone(), inner));
    }

    fn on_abort(&mut self, tx_id: TxId) {
        match self {
            AnyNode::AlgA(n) => n.on_abort(tx_id),
            AnyNode::AlgB(n) => n.on_abort(tx_id),
            AnyNode::AlgC(n) => n.on_abort(tx_id),
            AnyNode::Eiger(n) => n.on_abort(tx_id),
            AnyNode::Blocking(n) => n.on_abort(tx_id),
            AnyNode::Simple(n) => n.on_abort(tx_id),
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: AnyMsg, effects: &mut Effects<AnyMsg>) {
        match (self, msg) {
            (AnyNode::AlgA(node), AnyMsg::AlgA(m)) => {
                rewrap(effects, AnyMsg::AlgA, |inner| node.on_message(from, m, inner))
            }
            (AnyNode::AlgB(node), AnyMsg::AlgB(m)) => {
                rewrap(effects, AnyMsg::AlgB, |inner| node.on_message(from, m, inner))
            }
            (AnyNode::AlgC(node), AnyMsg::AlgC(m)) => {
                rewrap(effects, AnyMsg::AlgC, |inner| node.on_message(from, m, inner))
            }
            (AnyNode::Eiger(node), AnyMsg::Eiger(m)) => {
                rewrap(effects, AnyMsg::Eiger, |inner| node.on_message(from, m, inner))
            }
            (AnyNode::Blocking(node), AnyMsg::Blocking(m)) => {
                rewrap(effects, AnyMsg::Blocking, |inner| node.on_message(from, m, inner))
            }
            (AnyNode::Simple(node), AnyMsg::Simple(m)) => {
                rewrap(effects, AnyMsg::Simple, |inner| node.on_message(from, m, inner))
            }
            (node, m) => panic!(
                "protocol mismatch: {} received a message of another deployment: {m:?}",
                node.id()
            ),
        }
    }
}

/// A protocol-erased deployment: the one description both executors build
/// from.
#[derive(Debug)]
pub struct AnyDeployment {
    protocol: ProtocolKind,
    nodes: Vec<AnyNode>,
}

impl AnyDeployment {
    /// Builds the deployment of `protocol` over `config`, validating the
    /// protocol's configuration requirements (e.g. Algorithm A needs MWSR
    /// and client-to-client communication).
    pub fn new(protocol: ProtocolKind, config: &SystemConfig) -> Result<Self> {
        let nodes = match protocol {
            ProtocolKind::AlgA => {
                alg_a::deploy(config)?.into_iter().map(AnyNode::AlgA).collect()
            }
            ProtocolKind::AlgB => {
                alg_b::deploy(config)?.into_iter().map(AnyNode::AlgB).collect()
            }
            ProtocolKind::AlgC => {
                alg_c::deploy(config)?.into_iter().map(AnyNode::AlgC).collect()
            }
            ProtocolKind::Eiger => {
                eiger::deploy(config)?.into_iter().map(AnyNode::Eiger).collect()
            }
            ProtocolKind::Blocking => {
                blocking::deploy(config)?.into_iter().map(AnyNode::Blocking).collect()
            }
            ProtocolKind::Simple => {
                simple::deploy(config)?.into_iter().map(AnyNode::Simple).collect()
            }
        };
        Ok(AnyDeployment { protocol, nodes })
    }

    /// The protocol this deployment runs.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Consumes the deployment, yielding its processes.
    pub fn into_nodes(self) -> Vec<AnyNode> {
        self.nodes
    }
}

/// Builds the protocol-erased node set of `protocol` over `config` — the
/// single `ProtocolKind`-dispatched deployment path shared by all three
/// execution substrates: `snow_sim::Simulation` and
/// `snow_sim::ParallelSimulation` (both via [`crate::ClusterSpec::build`])
/// and `snow_runtime::AsyncCluster`.
///
/// ```
/// use snow_core::SystemConfig;
/// use snow_protocols::{deploy_any, ProtocolKind};
///
/// // Two servers, one reader, one writer — one node per process, ready
/// // to run on any substrate that drives the `Process` contract.
/// let config = SystemConfig::mwmr(2, 1, 1);
/// let nodes = deploy_any(ProtocolKind::AlgB, &config).unwrap();
/// assert_eq!(
///     nodes.len() as u32,
///     config.num_servers + config.num_readers + config.num_writers,
/// );
///
/// // Configuration requirements are validated here, once, for every
/// // substrate: Algorithm A insists on client-to-client communication.
/// let no_c2c = SystemConfig::mwsr(2, 1, false);
/// assert!(deploy_any(ProtocolKind::AlgA, &no_c2c).is_err());
/// ```
pub fn deploy_any(protocol: ProtocolKind, config: &SystemConfig) -> Result<Vec<AnyNode>> {
    AnyDeployment::new(protocol, config).map(AnyDeployment::into_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::{ClientId, ObjectId, ServerId};

    #[test]
    fn deployments_are_homogeneous_and_cover_every_process() {
        for protocol in ProtocolKind::all() {
            let config = if protocol.needs_c2c() {
                SystemConfig::mwsr(2, 2, true)
            } else {
                SystemConfig::mwmr(2, 2, 2)
            };
            let deployment = AnyDeployment::new(protocol, &config).unwrap();
            assert_eq!(deployment.protocol(), protocol);
            let nodes = deployment.into_nodes();
            assert_eq!(
                nodes.len() as u32,
                config.num_servers + config.num_readers + config.num_writers,
                "{protocol:?}"
            );
            let ids: Vec<ProcessId> = nodes.iter().map(|n| n.id()).collect();
            assert!(ids.contains(&ProcessId::Server(ServerId(0))));
            assert!(ids.contains(&ProcessId::Client(ClientId(0))));
        }
    }

    #[test]
    fn invalid_configs_are_rejected_through_the_erased_path() {
        let no_c2c = SystemConfig::mwsr(2, 1, false);
        assert!(deploy_any(ProtocolKind::AlgA, &no_c2c).is_err());
    }

    #[test]
    #[should_panic(expected = "protocol mismatch")]
    fn cross_protocol_messages_panic() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let mut nodes = deploy_any(ProtocolKind::AlgB, &config).unwrap();
        let mut effects = Effects::new(0);
        let foreign = AnyMsg::Simple(simple::SimpleMsg::ReadReq {
            tx: TxId(0),
            object: ObjectId(0),
        });
        nodes[0].on_message(ProcessId::Client(ClientId(0)), foreign, &mut effects);
    }
}
