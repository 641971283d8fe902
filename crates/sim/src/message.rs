//! Messages in flight on the simulated network.
//!
//! The protocol-agnostic vocabulary ([`MsgId`], [`MsgKind`], [`MsgInfo`],
//! [`CausalSummary`], [`SimMessage`]) lives in `snow-core`
//! (`snow_core::msg`) so that every execution substrate shares it; this
//! module re-exports it and adds the simulator-specific [`PendingMessage`]
//! envelope (send time, causal summary, scheduler-assigned delivery time).

pub use snow_core::{CausalSummary, MsgId, MsgInfo, MsgKind};

/// Re-export of [`snow_core::ProtocolMessage`] under its historical
/// simulator name.
pub use snow_core::ProtocolMessage as SimMessage;

use snow_core::ProcessId;

/// A message that has been sent but not yet delivered.
#[derive(Debug, Clone)]
pub struct PendingMessage<M> {
    /// Unique id of this message.
    pub id: MsgId,
    /// Sender.
    pub src: ProcessId,
    /// Destination.
    pub dst: ProcessId,
    /// The payload.
    pub msg: M,
    /// Simulation time at which the send action occurred.
    pub sent_at: u64,
    /// The message's causal summary: travels with it, so any shard that
    /// delivers it derives the same rounds and non-blocking verdict.
    pub causal: CausalSummary,
    /// Delivery time assigned by a latency-modelling scheduler, if any.
    pub deliver_at: Option<u64>,
}

impl<M> PendingMessage<M> {
    /// The delivery-queue key this message is ordered by: the scheduler's
    /// stamped delivery time, else the send time (under a monotone clock
    /// both orders FIFO delivery by send order).  The single source of
    /// the rule shared by [`crate::MessagePool`]'s heap and the parallel
    /// engine's cross-shard routing order.
    pub fn delivery_key(&self) -> u64 {
        self.deliver_at.unwrap_or(self.sent_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Dummy;
    impl SimMessage for Dummy {}

    #[test]
    fn core_trait_is_usable_under_the_sim_alias() {
        let info = Dummy.info();
        assert_eq!(info.kind, MsgKind::Control);
    }
}
