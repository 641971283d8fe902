//! Protocol message classification, shared by every execution substrate.
//!
//! Neither the simulator nor the tokio runtime understands protocol
//! payloads, but both need to know, for each message, whether it is a read
//! request, a read response (and how many versions it carries), a write, a
//! control message or a client-to-client message: that classification is
//! what the SNOW property verifiers and the round/C2C instrumentation are
//! built on.  Protocol message enums implement [`ProtocolMessage::info`] to
//! expose it.
//!
//! Every substrate also attaches a [`CausalSummary`] to each message it
//! carries, and derives a send's round depth and a read response's
//! non-blocking verdict from it alone.

use crate::ids::{ObjectId, ProcessId, TxId};
use smallvec::SmallVec;
use std::fmt;

/// Identifier of a message instance within one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Coarse classification of a protocol message, used by the property
/// verifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// A client's request to read an object (or to fetch read metadata such
    /// as Algorithm B/C's `get-tag-arr`).
    ReadRequest,
    /// A server's response to a read request, carrying object value(s).
    ReadResponse,
    /// A client's request to write an object (`write-val`) or to register a
    /// completed WRITE (`update-coor` / `info-reader`).
    WriteRequest,
    /// A server's (or reader's, in Algorithm A) acknowledgement of a write.
    WriteAck,
    /// Any other protocol control traffic.
    Control,
    /// A message exchanged directly between two clients (C2C).
    ClientToClient,
}

/// Classification of one message: its kind plus the transaction/object it
/// belongs to and, for read responses, the number of versions carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgInfo {
    /// The coarse message kind.
    pub kind: MsgKind,
    /// The transaction this message belongs to, if any.
    pub tx: Option<TxId>,
    /// The object this message concerns, if any.
    pub object: Option<ObjectId>,
    /// Number of object versions carried (meaningful for read responses).
    pub versions: usize,
}

impl MsgInfo {
    /// A plain control message attached to no transaction.
    pub fn control() -> Self {
        MsgInfo {
            kind: MsgKind::Control,
            tx: None,
            object: None,
            versions: 0,
        }
    }

    /// A read request for `object` on behalf of `tx`.
    pub fn read_request(tx: TxId, object: Option<ObjectId>) -> Self {
        MsgInfo {
            kind: MsgKind::ReadRequest,
            tx: Some(tx),
            object,
            versions: 0,
        }
    }

    /// A read response for `object` on behalf of `tx` carrying `versions`
    /// versions.
    pub fn read_response(tx: TxId, object: Option<ObjectId>, versions: usize) -> Self {
        MsgInfo {
            kind: MsgKind::ReadResponse,
            tx: Some(tx),
            object,
            versions,
        }
    }

    /// A write request for `object` on behalf of `tx`.
    pub fn write_request(tx: TxId, object: Option<ObjectId>) -> Self {
        MsgInfo {
            kind: MsgKind::WriteRequest,
            tx: Some(tx),
            object,
            versions: 0,
        }
    }

    /// A write acknowledgement on behalf of `tx`.
    pub fn write_ack(tx: TxId, object: Option<ObjectId>) -> Self {
        MsgInfo {
            kind: MsgKind::WriteAck,
            tx: Some(tx),
            object,
            versions: 0,
        }
    }

    /// A client-to-client message on behalf of `tx`.
    pub fn client_to_client(tx: Option<TxId>) -> Self {
        MsgInfo {
            kind: MsgKind::ClientToClient,
            tx,
            object: None,
            versions: 0,
        }
    }
}

/// What a message carries about its causal past, the way a vector clock
/// does (Mattern 1988): the message's *causal ancestors* are the message
/// whose handler sent it, that message's own parent, and so on back to an
/// invocation.  The summary keeps, per process, how many of those
/// ancestors were addressed to it, plus the non-blocking bit of the N
/// property.  Both are everything the round (O) and non-blocking (N)
/// instrumentation needs, so no substrate keeps a per-message table.
///
/// A message sent while handling an invocation carries
/// [`CausalSummary::default`]; one sent while handling a delivered message
/// carries [`CausalSummary::child`] of that message's summary.  Up to four
/// distinct ancestor destinations live inline (no heap allocation).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CausalSummary {
    /// `(process, count)`: ancestors addressed to each process.
    ancestor_dests: SmallVec<[(ProcessId, u32); 4]>,
    /// The message is a read response sent within the handler of a read
    /// request of the same transaction.
    nonblocking: bool,
}

impl CausalSummary {
    /// The summary of `child`, sent by `at` while handling the message this
    /// summary belongs to, classified `parent`.  The handled message was
    /// addressed to `at`, so it joins the ancestors under `at`.  The child
    /// is non-blocking iff it is a read response and `parent` is a read
    /// request of the same transaction.
    pub fn child(&self, at: ProcessId, parent: &MsgInfo, child: &MsgInfo) -> CausalSummary {
        let mut ancestor_dests = self.ancestor_dests.clone();
        match ancestor_dests.iter().position(|(p, _)| *p == at) {
            Some(i) => ancestor_dests[i].1 += 1,
            None => ancestor_dests.push((at, 1)),
        }
        CausalSummary {
            ancestor_dests,
            nonblocking: child.kind == MsgKind::ReadResponse
                && child.tx.is_some()
                && parent.kind == MsgKind::ReadRequest
                && parent.tx == child.tx,
        }
    }

    /// The round depth of this message relative to its sender `sender`:
    /// `1 +` the ancestors addressed to `sender` (the responses it waited
    /// for before sending).  A transaction's rounds are the maximum over
    /// its invoker's sends.
    pub fn round_depth(&self, sender: ProcessId) -> u32 {
        1 + self
            .ancestor_dests
            .iter()
            .find(|(p, _)| *p == sender)
            .map_or(0, |(_, n)| *n)
    }

    /// True if this message is a read response the server sent within the
    /// handler of the read request (the N property's criterion).
    pub fn nonblocking(&self) -> bool {
        self.nonblocking
    }
}

/// Trait implemented by protocol message types so an execution substrate can
/// classify them without understanding their payloads.
pub trait ProtocolMessage: Clone + fmt::Debug {
    /// Classify this message.  The default classification is an anonymous
    /// control message; protocols should override this for read/write
    /// traffic so the N and O verifiers can do their job.
    fn info(&self) -> MsgInfo {
        MsgInfo::control()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Dummy;
    impl ProtocolMessage for Dummy {}

    #[test]
    fn default_classification_is_control() {
        let info = Dummy.info();
        assert_eq!(info.kind, MsgKind::Control);
        assert_eq!(info.tx, None);
        assert_eq!(info.versions, 0);
    }

    #[test]
    fn constructors_set_kind_and_payload() {
        let tx = TxId(1);
        let o = ObjectId(2);
        assert_eq!(MsgInfo::read_request(tx, Some(o)).kind, MsgKind::ReadRequest);
        let resp = MsgInfo::read_response(tx, Some(o), 3);
        assert_eq!(resp.kind, MsgKind::ReadResponse);
        assert_eq!(resp.versions, 3);
        assert_eq!(MsgInfo::write_request(tx, Some(o)).kind, MsgKind::WriteRequest);
        assert_eq!(MsgInfo::write_ack(tx, None).kind, MsgKind::WriteAck);
        assert_eq!(
            MsgInfo::client_to_client(Some(tx)).kind,
            MsgKind::ClientToClient
        );
        assert_eq!(MsgInfo::control().kind, MsgKind::Control);
    }

    fn client(i: u32) -> ProcessId {
        ProcessId::Client(crate::ClientId(i))
    }
    fn server(i: u32) -> ProcessId {
        ProcessId::Server(crate::ServerId(i))
    }

    #[test]
    fn round_depth_counts_only_hops_addressed_to_the_sender() {
        // Blocking's lock-grant convoy: c0's write releases the lock at s0,
        // whose grant wakes c1's pending request, whose next round goes on
        // to s1.  The chain crosses transactions, yet each client's round
        // depth counts only the responses that client itself waited for.
        let (t0, t1) = (TxId(0), TxId(1));
        let lock = MsgInfo::write_request(t0, Some(ObjectId(0)));
        let release = MsgInfo::control();
        let grant = MsgInfo::write_ack(t1, Some(ObjectId(0)));
        let next = MsgInfo::write_request(t1, Some(ObjectId(1)));
        let ack = MsgInfo::write_ack(t1, Some(ObjectId(1)));

        let root = CausalSummary::default();
        assert_eq!(root.round_depth(client(0)), 1, "an invocation's sends are round 1");
        // c0 -> s0 lock (round 1); s0 -> c0 ack; c0 -> s0 release.
        let to_c0 = root.child(server(0), &lock, &MsgInfo::write_ack(t0, None));
        let released = to_c0.child(client(0), &MsgInfo::write_ack(t0, None), &release);
        assert_eq!(released.round_depth(client(0)), 2);
        // s0 handles the release and grants c1's queued lock.
        let granted = released.child(server(0), &release, &grant);
        assert_eq!(granted.round_depth(server(0)), 3, "s0 received lock and release");
        // c1's next request: one hop addressed to c1 (the grant), however
        // long c0's part of the chain was.
        let follow = granted.child(client(1), &grant, &next);
        assert_eq!(follow.round_depth(client(1)), 2);
        assert_eq!(follow.round_depth(client(0)), 2, "c0's single ack is still counted");
        let answered = follow.child(server(1), &next, &ack);
        assert_eq!(answered.round_depth(server(1)), 2);
        assert_eq!(answered.round_depth(client(1)), 2);
        assert_eq!(answered.round_depth(client(7)), 1, "no hop addressed to c7");
        // Four distinct processes stay inline; a fifth spills.
        assert!(!answered.ancestor_dests.spilled());
        assert!(!answered.child(client(1), &ack, &next).ancestor_dests.spilled());
        assert!(answered.child(client(2), &ack, &next).ancestor_dests.spilled());
    }

    #[test]
    fn read_responses_are_nonblocking_only_under_their_own_read_request() {
        let (tx, other) = (TxId(1), TxId(2));
        let o = Some(ObjectId(0));
        let root = CausalSummary::default();
        let request = MsgInfo::read_request(tx, o);
        let response = MsgInfo::read_response(tx, o, 1);
        let at_server = root.child(client(0), &MsgInfo::control(), &request);
        assert!(!at_server.nonblocking(), "a request is never a non-blocking response");
        assert!(at_server.child(server(0), &request, &response).nonblocking());
        // Answered from another transaction's request: blocked on it.
        let foreign = MsgInfo::read_request(other, o);
        assert!(!at_server.child(server(0), &foreign, &response).nonblocking());
        // Answered from a write or control message: blocked.
        for parent in [MsgInfo::write_request(tx, o), MsgInfo::control()] {
            assert!(!at_server.child(server(0), &parent, &response).nonblocking());
        }
        // A metadata reply to a read request that is not a read response.
        let meta = MsgInfo::control();
        assert!(!at_server.child(server(0), &request, &meta).nonblocking());
        // Responses sent while handling an invocation have no parent.
        assert!(!root.nonblocking());
    }

    #[test]
    fn a_duplicate_carries_its_originals_summary() {
        // A substrate that duplicates a message in transit sends the copy
        // from the same handler, so it derives the same summary.
        let tx = TxId(3);
        let request = MsgInfo::read_request(tx, Some(ObjectId(0)));
        let response = MsgInfo::read_response(tx, Some(ObjectId(0)), 2);
        let parent = CausalSummary::default().child(client(0), &MsgInfo::control(), &request);
        let original = parent.child(server(0), &request, &response);
        let duplicate = original.clone();
        assert_eq!(duplicate, parent.child(server(0), &request, &response));
        assert_eq!(duplicate.round_depth(server(0)), original.round_depth(server(0)));
        assert_eq!(duplicate.nonblocking(), original.nonblocking());
        assert!(duplicate.nonblocking());
    }

    #[test]
    fn msg_id_displays_compactly() {
        assert_eq!(MsgId(5).to_string(), "m5");
    }
}
