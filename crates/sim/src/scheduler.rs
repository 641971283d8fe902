//! Delivery schedulers: who decides which in-flight message is delivered
//! next.
//!
//! The paper's adversary is the asynchronous network: it may delay any
//! message arbitrarily (but not forever).  Schedulers model different
//! adversaries:
//!
//! * [`FifoScheduler`] — delivers messages in send order (a well-behaved
//!   network; useful as a baseline and for making examples readable);
//! * [`RandomScheduler`] — a seeded uniformly random adversary, used by the
//!   property-based tests to explore many interleavings reproducibly;
//! * [`LatencyScheduler`] — assigns each message a pseudo-random latency and
//!   delivers in delivery-time order, which is what the performance-oriented
//!   simulations use.
//!
//! Fully adversarial (scripted) schedules are expressed by driving the
//! simulation manually via [`crate::Simulation::deliver_where`], which is how
//! `snow-impossibility` constructs the executions of Figs. 3–5.
//!
//! # Event-queue architecture and complexity contract
//!
//! Schedulers no longer scan a `&[PendingMessage]` slice; they pick directly
//! from the engine's indexed [`MessagePool`]:
//!
//! * [`Scheduler::on_send`] optionally stamps a delivery time when a message
//!   is sent.  The pool keys its delivery queue by
//!   `(deliver_at | sent_at, MsgId)`.
//! * [`Scheduler::next`] returns the id of the message to deliver.  FIFO and
//!   latency scheduling are a single O(log n) heap pop
//!   ([`MessagePool::pop_earliest`]): under the engine's monotone clock, the
//!   `(sent_at, id)` key order *is* send order, so FIFO needs no scan — the
//!   old "defensive" O(n) minimum scan is gone by construction (the heap
//!   tie-breaks equal keys by id, which is exactly the minimum the scan
//!   computed).  The random adversary draws a uniform rank and selects the
//!   k-th live message in send order via the pool's Fenwick index
//!   ([`MessagePool::nth_live`], O(log n)) — the same distribution *and the
//!   same per-seed choices* as indexing the old send-ordered `Vec`.
//!
//! Every scheduler is therefore O(log n) per step; the engine's removal of
//! the chosen message is O(1) (slot swap-remove).  A custom scheduler must
//! return a live id and must not remove messages itself.

use crate::message::MsgId;
use crate::pool::MessagePool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snow_core::ProcessId;

/// A policy choosing which pending message to deliver next.
pub trait Scheduler<M> {
    /// Chooses the next message to deliver from the live pool, or `None` if
    /// the pool is empty (reliable channels require eventual delivery, which
    /// the simulation enforces by only stopping when nothing is pending).
    ///
    /// Implementations must return the id of a live message and must not
    /// remove it themselves — the engine performs the removal/delivery.
    fn next(&mut self, pool: &mut MessagePool<M>, now: u64) -> Option<MsgId>;

    /// Hook called when a message is sent, letting latency-model schedulers
    /// stamp a delivery time.  Returns the delivery time, if the scheduler
    /// assigns one; `None` keys the message by its send time (FIFO order).
    fn on_send(&mut self, sent_at: u64) -> Option<u64> {
        let _ = sent_at;
        None
    }

    /// Like [`Scheduler::on_send`], but with the message's endpoints and id —
    /// what a topology-aware latency model keys its draw on.  The engine
    /// calls this (never `on_send` directly); the default delegates to
    /// [`Scheduler::on_send`], so schedulers that don't care about endpoints
    /// are unchanged and existing schedules stay bit-identical.
    fn on_send_to(&mut self, src: ProcessId, dst: ProcessId, id: MsgId, sent_at: u64) -> Option<u64> {
        let _ = (src, dst, id);
        self.on_send(sent_at)
    }

    /// Whether the engine should dispatch a planned invocation as soon as it
    /// is keyed **before every pending delivery** (strict ascending-key
    /// dispatch), instead of only when its planned time has been reached or
    /// nothing is pending.
    ///
    /// The default (`false`) preserves the historical rule — a future
    /// invocation waits while deliveries advance the clock — which every
    /// golden fixture is pinned against.  A scheduler whose latencies are
    /// *pure per-message functions* (see
    /// [`TopologyScheduler`](crate::topology::TopologyScheduler)) opts in:
    /// under strict key order every core dispatches its events in ascending
    /// key order, so an invocation planned at quiescence is stamped
    /// `planned + 1` on the serial engine and on every shard alike — the
    /// missing half of shard-count-independent histories.  (With the
    /// historical rule, a shard hosting two clients whose planned times
    /// straddle another shard's invocation sees the second invocation as
    /// "not due" once the first one's sends hit the local pool, and
    /// deliveries drag the clock past it.)
    fn strict_key_order(&self) -> bool {
        false
    }
}

/// Delivers messages in the order they were sent: one O(log n) pop of the
/// `(sent_at, id)`-keyed delivery queue per step.
#[derive(Debug, Default, Clone)]
pub struct FifoScheduler;

impl FifoScheduler {
    /// Creates a FIFO scheduler.
    pub fn new() -> Self {
        FifoScheduler
    }
}

impl<M> Scheduler<M> for FifoScheduler {
    fn next(&mut self, pool: &mut MessagePool<M>, _now: u64) -> Option<MsgId> {
        pool.pop_earliest()
    }
}

/// Delivers a uniformly random pending message; deterministic per seed.
///
/// The draw selects a uniform *rank* in send order (Fenwick selection,
/// O(log n)), so the choice sequence for a given seed is identical to the
/// historical behaviour of indexing the send-ordered pending `Vec`.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates a random scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<M> Scheduler<M> for RandomScheduler {
    fn next(&mut self, pool: &mut MessagePool<M>, _now: u64) -> Option<MsgId> {
        if pool.is_empty() {
            None
        } else {
            pool.nth_live(self.rng.random_range(0..pool.len()))
        }
    }
}

/// Assigns each message a pseudo-random latency in `[min_latency, max_latency]`
/// ticks and delivers the message with the earliest delivery time first —
/// one O(log n) pop of the `(deliver_at, id)`-keyed queue per step.
///
/// # Latency schedules are shard-count-dependent
///
/// Each latency comes from a stateful **draw-order RNG**: the n-th draw
/// latches onto whichever send happens to be the n-th `on_send` *on that
/// engine*.  On the sharded engine every shard owns its own RNG
/// (`shard_seed`) and sees only its own sends, so the latency assigned to a
/// logical message changes with the shard count — 1-shard runs match serial
/// bit-for-bit, but 4-shard runs are a different (equally deterministic)
/// schedule.  The golden fixtures pin this behaviour; do not change it.
/// When a schedule must be *identical across shard counts* — e.g. the
/// scenario matrix — use
/// [`TopologyScheduler`](crate::topology::TopologyScheduler), whose draws
/// are pure per-message functions instead of draw-order state.
#[derive(Debug, Clone)]
pub struct LatencyScheduler {
    rng: StdRng,
    min_latency: u64,
    max_latency: u64,
}

impl LatencyScheduler {
    /// Creates a latency-model scheduler.
    ///
    /// # Panics
    /// Panics if `min_latency > max_latency`.
    pub fn new(seed: u64, min_latency: u64, max_latency: u64) -> Self {
        assert!(min_latency <= max_latency, "min_latency must be <= max_latency");
        LatencyScheduler {
            rng: StdRng::seed_from_u64(seed),
            min_latency,
            max_latency,
        }
    }
}

impl<M> Scheduler<M> for LatencyScheduler {
    fn next(&mut self, pool: &mut MessagePool<M>, _now: u64) -> Option<MsgId> {
        pool.pop_earliest()
    }

    fn on_send(&mut self, sent_at: u64) -> Option<u64> {
        let lat = if self.min_latency == self.max_latency {
            self.min_latency
        } else {
            self.rng.random_range(self.min_latency..=self.max_latency)
        };
        Some(sent_at + lat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{CausalSummary, MsgId, PendingMessage};
    use snow_core::{ClientId, ProcessId, ServerId};

    #[derive(Debug, Clone)]
    struct M;
    impl crate::message::SimMessage for M {}

    fn pending(id: u64, sent_at: u64, deliver_at: Option<u64>) -> PendingMessage<M> {
        PendingMessage {
            id: MsgId(id),
            src: ProcessId::Client(ClientId(0)),
            dst: ProcessId::Server(ServerId(0)),
            msg: M,
            sent_at,
            causal: CausalSummary::default(),
            deliver_at,
        }
    }

    fn pool_of(msgs: Vec<PendingMessage<M>>) -> MessagePool<M> {
        let mut pool = MessagePool::new();
        for m in msgs {
            pool.insert(m);
        }
        pool
    }

    /// Drains the pool through a scheduler, returning delivery order.
    fn drain<S: Scheduler<M>>(s: &mut S, pool: &mut MessagePool<M>) -> Vec<u64> {
        let mut order = Vec::new();
        while let Some(id) = s.next(pool, 0) {
            pool.remove(id).expect("scheduler returns live ids");
            order.push(id.0);
        }
        order
    }

    #[test]
    fn fifo_delivers_in_send_order() {
        let mut s = FifoScheduler::new();
        let mut pool = pool_of(vec![pending(0, 0, None), pending(1, 1, None), pending(2, 2, None)]);
        assert_eq!(drain(&mut s, &mut pool), vec![0, 1, 2]);
        assert_eq!(Scheduler::<M>::next(&mut s, &mut pool, 5), None);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let make_pool = || {
            pool_of(vec![
                pending(0, 0, None),
                pending(1, 0, None),
                pending(2, 0, None),
                pending(3, 0, None),
            ])
        };
        let order_a = drain(&mut RandomScheduler::new(7), &mut make_pool());
        let order_b = drain(&mut RandomScheduler::new(7), &mut make_pool());
        assert_eq!(order_a, order_b);
        let mut sorted = order_a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "every message delivered once");
        // Different seed should (almost surely) give a different sequence
        // over enough draws.
        let big_pool = || pool_of((0..16).map(|i| pending(i, 0, None)).collect());
        assert_ne!(
            drain(&mut RandomScheduler::new(7), &mut big_pool()),
            drain(&mut RandomScheduler::new(8), &mut big_pool()),
        );
        let mut empty: MessagePool<M> = MessagePool::new();
        assert_eq!(RandomScheduler::new(1).next(&mut empty, 0), None);
    }

    #[test]
    fn latency_orders_by_delivery_time() {
        let mut s = LatencyScheduler::new(1, 5, 5);
        // on_send stamps sent_at + 5.
        assert_eq!(Scheduler::<M>::on_send(&mut s, 10), Some(15));
        let mut pool = pool_of(vec![
            pending(0, 0, Some(30)),
            pending(1, 0, Some(10)),
            pending(2, 0, Some(20)),
        ]);
        assert_eq!(drain(&mut s, &mut pool), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic]
    fn latency_rejects_inverted_bounds() {
        let _ = LatencyScheduler::new(0, 10, 1);
    }
}
