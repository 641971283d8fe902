//! The indexed in-flight message pool: the simulator's event-queue core.
//!
//! [`MessagePool`] keeps every sent-but-undelivered message and answers the
//! three access patterns the engine needs, each with its own index:
//!
//! * **Earliest-delivery pop** — a [`BinaryHeap`] keyed by
//!   `(delivery_time, MsgId)` gives `FifoScheduler`/`LatencyScheduler` an
//!   O(log n) [`MessagePool::pop_earliest`] instead of the old O(n) scan +
//!   O(n) `Vec::remove`.  Entries are removed lazily: an entry whose id is
//!   no longer live (delivered adversarially via
//!   [`crate::Simulation::deliver_where`]) is skipped on pop.
//! * **Removal by id** — messages live in a slot vector with O(1)
//!   swap-remove; a dense `MsgId → slot` table keeps slots addressable.
//! * **Rank selection in send order** — a Fenwick (binary indexed) tree over
//!   the id space marks live ids, giving O(log n)
//!   [`MessagePool::nth_live`] rank selection and an ascending
//!   id-order iterator.  `RandomScheduler` uses rank selection so a uniform
//!   draw over the pool picks *the k-th message in send order* — exactly
//!   the semantics of indexing the old send-ordered `Vec`, which keeps
//!   seeded schedules (and therefore golden histories) bit-identical across
//!   the engine refactor.
//!
//! Memory: the id-indexed tables are a **sliding window** over the id
//! space.  Delivered ids at the front of the window are trimmed (and the
//! Fenwick tree rebuilt) once the dead prefix reaches half the window, so a
//! long run's index footprint is O(in-flight), not O(messages-ever-sent) —
//! the property that keeps open-loop saturation runs flat in memory.  Live
//! ids below the window base (cross-shard imports racing a trim) fall back
//! to a `BTreeMap` side-table; it is empty on the serial path.  `MsgId`s
//! themselves stay monotone — only the *index* is windowed — so rank
//! selection still means "k-th live message in send order" and seeded
//! schedules (golden histories) are unchanged.  The delivery heap holds at
//! most one entry per sent message; heap-popping schedulers drain it as the
//! run progresses, while schedulers that never pop (e.g. the random
//! adversary) leave one stale entry per send until the pool is dropped —
//! the same order of growth as the trace's action log.

use crate::message::{MsgId, PendingMessage};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A Fenwick (binary indexed) tree over a growable 0/1 array, supporting
/// O(log n) set/clear, prefix counts, and rank selection.
#[derive(Debug, Clone, Default)]
pub struct Fenwick {
    /// 1-indexed partial sums: `tree[i]` covers `(i - lowbit(i), i]`.
    tree: Vec<u32>,
    /// Number of live (set) positions.
    count: usize,
}

impl Fenwick {
    /// An empty tree over an empty id space.
    pub fn new() -> Self {
        Fenwick::default()
    }

    /// Number of positions the tree covers (the id space so far).
    pub fn capacity(&self) -> usize {
        self.tree.len()
    }

    /// Number of set positions.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Extends the id space by one (unset) position.
    pub fn append_zero(&mut self) {
        // Appending index n (1-based) must initialise tree[n] to the sum of
        // the range (n - lowbit(n), n], all of whose members already exist.
        let n = self.tree.len() + 1;
        let lowbit = n & n.wrapping_neg();
        let value = self.prefix(n - 1) - self.prefix(n - lowbit);
        self.tree.push(value as u32);
    }

    /// Sum of positions `1..=i` (1-based internal indexing).
    fn prefix(&self, mut i: usize) -> usize {
        let mut sum = 0usize;
        while i > 0 {
            sum += self.tree[i - 1] as usize;
            i -= i & i.wrapping_neg();
        }
        sum
    }

    fn add(&mut self, index: usize, delta: i32) {
        let mut i = index + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] = (self.tree[i - 1] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Marks position `index` live.  The position must be within capacity
    /// and currently unset.
    pub fn set(&mut self, index: usize) {
        self.add(index, 1);
        self.count += 1;
    }

    /// Clears position `index`.  The position must be currently set.
    pub fn clear(&mut self, index: usize) {
        self.add(index, -1);
        self.count -= 1;
    }

    /// The position holding the `k`-th live entry (0-based, ascending), or
    /// `None` if fewer than `k + 1` entries are live.
    pub fn kth(&self, k: usize) -> Option<usize> {
        if k >= self.count {
            return None;
        }
        let mut remaining = k + 1;
        let mut pos = 0usize; // 1-based prefix position
        let mut step = self.tree.len().next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= self.tree.len() && (self.tree[next - 1] as usize) < remaining {
                remaining -= self.tree[next - 1] as usize;
                pos = next;
            }
            step >>= 1;
        }
        Some(pos) // pos is 1-based index of the match, i.e. 0-based position
    }

    /// Builds a tree from a liveness bitmap in O(n) (used when the message
    /// pool trims its index window).
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut tree: Vec<u32> = bits.into_iter().map(u32::from).collect();
        let count = tree.iter().map(|&v| v as usize).sum();
        let n = tree.len();
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                tree[parent - 1] += tree[i - 1];
            }
        }
        Fenwick { tree, count }
    }
}

/// The set of in-flight messages, indexed for O(log n) scheduling.
///
/// The `MsgId → slot` index is a sliding window: ids below `base` that have
/// been retired are trimmed away, so the index stays O(in-flight) no matter
/// how many messages a run sends (satellite of ISSUE 6 — the previous dense
/// table grew monotonically with every id ever seen).
#[derive(Debug, Clone)]
pub struct MessagePool<M> {
    /// Live messages in arbitrary slot order (swap-remove).
    slots: Vec<PendingMessage<M>>,
    /// Windowed `MsgId → slot` table: `window[id - base]`; [`DEAD`] marks
    /// delivered/unknown ids.
    window: Vec<usize>,
    /// First id covered by `window`.
    base: u64,
    /// Number of leading [`DEAD`] entries of `window` already verified
    /// (monotone between trims; reset if an import lands inside it).
    dead_prefix: usize,
    /// Live ids below `base` — cross-shard imports that raced a trim.
    /// Always empty on the serial path; iterated before the window by
    /// rank selection (every old id precedes every windowed id).
    old: BTreeMap<u64, usize>,
    /// Live-id marks over the window's offsets, for rank selection.
    live: Fenwick,
    /// Delivery queue keyed by `(delivery_time, id)`; entries for dead ids
    /// are skipped lazily on pop.
    queue: BinaryHeap<Reverse<(u64, u64)>>,
}

const DEAD: usize = usize::MAX;

/// Minimum dead prefix before a trim is worth a Fenwick rebuild.
const TRIM_MIN: usize = 64;

impl<M> Default for MessagePool<M> {
    fn default() -> Self {
        MessagePool {
            slots: Vec::new(),
            window: Vec::new(),
            base: 0,
            dead_prefix: 0,
            old: BTreeMap::new(),
            live: Fenwick::new(),
            queue: BinaryHeap::new(),
        }
    }
}

impl<M> MessagePool<M> {
    /// An empty pool.
    pub fn new() -> Self {
        MessagePool::default()
    }

    /// Number of in-flight messages.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no messages are in flight.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot holding live message `id`, or `None`.
    fn slot_index(&self, id: u64) -> Option<usize> {
        if id >= self.base {
            match self.window.get((id - self.base) as usize) {
                Some(&slot) if slot != DEAD => Some(slot),
                _ => None,
            }
        } else {
            self.old.get(&id).copied()
        }
    }

    /// Points the index entry for live message `id` at `slot`.
    fn set_slot(&mut self, id: u64, slot: usize) {
        if id >= self.base {
            self.window[(id - self.base) as usize] = slot;
        } else {
            self.old.insert(id, slot);
        }
    }

    /// Advances the verified dead prefix and, once it reaches both
    /// [`TRIM_MIN`] and half the window, slides the window base past it —
    /// amortized O(1) per message over a run.
    fn maybe_trim(&mut self) {
        while self.dead_prefix < self.window.len() && self.window[self.dead_prefix] == DEAD {
            self.dead_prefix += 1;
        }
        if self.dead_prefix >= TRIM_MIN && self.dead_prefix * 2 >= self.window.len() {
            self.window.drain(..self.dead_prefix);
            self.base += self.dead_prefix as u64;
            self.dead_prefix = 0;
            self.live = Fenwick::from_bits(self.window.iter().map(|&slot| slot != DEAD));
        }
    }

    /// Inserts a newly sent message.  Its delivery-queue key is
    /// `deliver_at` when the scheduler stamped one, else the send time
    /// (under a monotone clock both orders FIFO delivery by send order).
    ///
    /// # Panics
    /// Panics if a message with the same id is already live.
    pub fn insert(&mut self, msg: PendingMessage<M>) {
        let id = msg.id.0;
        assert!(
            self.slot_index(id).is_none(),
            "duplicate in-flight message {}",
            msg.id
        );
        let key = msg.delivery_key();
        let slot = self.slots.len();
        if id >= self.base {
            let offset = (id - self.base) as usize;
            while self.window.len() <= offset {
                self.window.push(DEAD);
                self.live.append_zero();
            }
            self.window[offset] = slot;
            self.live.set(offset);
            // An import landing inside the verified dead prefix reopens it.
            if offset < self.dead_prefix {
                self.dead_prefix = offset;
            }
        } else {
            // Cross-shard import below the window base (raced a trim).
            self.old.insert(id, slot);
        }
        self.queue.push(Reverse((key, id)));
        self.slots.push(msg);
        self.maybe_trim();
    }

    /// True if `id` is in flight.
    pub fn contains(&self, id: MsgId) -> bool {
        self.slot_index(id.0).is_some()
    }

    /// The in-flight message `id`, if any.
    pub fn get(&self, id: MsgId) -> Option<&PendingMessage<M>> {
        self.slot_index(id.0).map(|slot| &self.slots[slot])
    }

    /// Removes and returns message `id` in O(1) (swap-remove) plus an
    /// O(log n) live-index update.  Any delivery-queue entry for `id`
    /// becomes stale and is skipped lazily.
    pub fn remove(&mut self, id: MsgId) -> Option<PendingMessage<M>> {
        let slot = self.slot_index(id.0)?;
        if id.0 >= self.base {
            let offset = (id.0 - self.base) as usize;
            self.window[offset] = DEAD;
            self.live.clear(offset);
        } else {
            self.old.remove(&id.0);
        }
        let msg = self.slots.swap_remove(slot);
        if slot < self.slots.len() {
            let moved_id = self.slots[slot].id.0;
            self.set_slot(moved_id, slot);
        }
        self.maybe_trim();
        Some(msg)
    }

    /// Pops the live message with the smallest `(delivery_time, id)` key
    /// from the delivery queue — amortized O(log n).  The message stays in
    /// the pool (callers deliver it via [`MessagePool::remove`]); its queue
    /// entry is consumed, so each call yields a distinct message.
    pub fn pop_earliest(&mut self) -> Option<MsgId> {
        while let Some(Reverse((_, id))) = self.queue.pop() {
            if self.contains(MsgId(id)) {
                return Some(MsgId(id));
            }
        }
        None
    }

    /// The `(delivery_time, id)` key of the live message
    /// [`MessagePool::pop_earliest`] would yield, without consuming its
    /// queue entry — amortized O(log n) (stale entries for dead ids are
    /// discarded on the way).  The dispatch core uses this to decide
    /// whether the next delivery falls inside the current watermark
    /// (`u64::MAX` on the serial path, the epoch's virtual-time watermark
    /// on the sharded path).
    pub fn peek_earliest(&mut self) -> Option<(u64, MsgId)> {
        while let Some(Reverse((key, id))) = self.queue.peek().copied() {
            if self.contains(MsgId(id)) {
                return Some((key, MsgId(id)));
            }
            self.queue.pop();
        }
        None
    }

    /// The `k`-th live message in ascending id (send) order — O(log n)
    /// (plus O(|old|) when pre-window imports exist; every old id precedes
    /// every windowed id, so the global order is old-ids-then-window).
    pub fn nth_live(&self, k: usize) -> Option<MsgId> {
        if k < self.old.len() {
            return self.old.keys().nth(k).map(|&id| MsgId(id));
        }
        self.live
            .kth(k - self.old.len())
            .map(|offset| MsgId(self.base + offset as u64))
    }

    /// Index-footprint diagnostic: `(window entries, pre-window side-table
    /// entries)`.  Regression tests use this to prove long runs stay
    /// O(in-flight) rather than O(ids-ever-seen).
    pub fn index_footprint(&self) -> (usize, usize) {
        (self.window.len(), self.old.len())
    }

    /// First id covered by the index window (ids below it are either
    /// retired or in the `old` side-table).
    pub fn window_base(&self) -> u64 {
        self.base
    }

    /// Iterates over in-flight messages in ascending id (send) order.
    /// Each step costs O(log n); adversarial drivers that scan for a
    /// matching message pay O(matches-scanned · log n) in total.
    pub fn iter(&self) -> impl Iterator<Item = &PendingMessage<M>> + '_ {
        (0..self.len()).map_while(move |k| self.nth_live(k).and_then(|id| self.get(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::CausalSummary;
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

    #[test]
    fn fenwick_set_clear_select() {
        let mut f = Fenwick::new();
        for _ in 0..10 {
            f.append_zero();
        }
        for i in [2usize, 3, 5, 7] {
            f.set(i);
        }
        assert_eq!(f.count(), 4);
        assert_eq!(f.kth(0), Some(2));
        assert_eq!(f.kth(1), Some(3));
        assert_eq!(f.kth(2), Some(5));
        assert_eq!(f.kth(3), Some(7));
        assert_eq!(f.kth(4), None);
        f.clear(3);
        assert_eq!(f.kth(1), Some(5));
        // Appending after sets keeps partial sums correct.
        f.append_zero();
        f.set(10);
        assert_eq!(f.kth(3), Some(10));
        assert_eq!(f.count(), 4);
    }

    #[test]
    fn insert_remove_and_rank_selection() {
        let mut pool: MessagePool<M> = MessagePool::new();
        for id in 0..5 {
            pool.insert(pending(id, id, None));
        }
        assert_eq!(pool.len(), 5);
        assert!(pool.contains(MsgId(3)));
        // Rank order is id order regardless of slot shuffling.
        let removed = pool.remove(MsgId(1)).unwrap();
        assert_eq!(removed.id, MsgId(1));
        assert_eq!(pool.remove(MsgId(1)).map(|m| m.id), None);
        assert_eq!(pool.nth_live(0), Some(MsgId(0)));
        assert_eq!(pool.nth_live(1), Some(MsgId(2)));
        assert_eq!(pool.nth_live(3), Some(MsgId(4)));
        assert_eq!(pool.nth_live(4), None);
        let ids: Vec<u64> = pool.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![0, 2, 3, 4]);
    }

    #[test]
    fn pop_earliest_orders_by_delivery_time_then_id() {
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, Some(30)));
        pool.insert(pending(1, 0, Some(10)));
        pool.insert(pending(2, 0, Some(10)));
        pool.insert(pending(3, 0, Some(20)));
        let a = pool.pop_earliest().unwrap();
        pool.remove(a).unwrap();
        let b = pool.pop_earliest().unwrap();
        pool.remove(b).unwrap();
        let c = pool.pop_earliest().unwrap();
        pool.remove(c).unwrap();
        assert_eq!((a, b, c), (MsgId(1), MsgId(2), MsgId(3)));
    }

    #[test]
    fn pop_earliest_skips_adversarially_removed_messages() {
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(0, 0, Some(5)));
        pool.insert(pending(1, 0, Some(6)));
        pool.remove(MsgId(0)).unwrap(); // delivered via deliver_where
        assert_eq!(pool.pop_earliest(), Some(MsgId(1)));
        pool.remove(MsgId(1)).unwrap();
        assert_eq!(pool.pop_earliest(), None);
        assert!(pool.is_empty());
    }

    #[test]
    fn index_stays_bounded_under_long_churn() {
        // Regression for ISSUE 6: the old dense `slot_of` table grew with
        // every id ever seen (200k entries here).  The windowed index must
        // stay O(in-flight) — a few hundred entries for 128 in flight.
        let mut pool: MessagePool<M> = MessagePool::new();
        const TOTAL: u64 = 200_000;
        const IN_FLIGHT: u64 = 128;
        for id in 0..TOTAL {
            pool.insert(pending(id, id, Some(id + 5)));
            if id >= IN_FLIGHT {
                pool.remove(MsgId(id - IN_FLIGHT)).unwrap();
            }
        }
        assert_eq!(pool.len(), IN_FLIGHT as usize);
        let (window, old) = pool.index_footprint();
        assert_eq!(old, 0, "serial-path churn must not populate the side-table");
        assert!(
            window < 1_024,
            "index window grew to {window} entries for {IN_FLIGHT} in flight"
        );
        assert!(pool.window_base() > TOTAL - 2 * IN_FLIGHT - 2 * 64);
        // The index still resolves the survivors, in send order.
        let ids: Vec<u64> = pool.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, (TOTAL - IN_FLIGHT..TOTAL).collect::<Vec<u64>>());
    }

    #[test]
    fn pre_window_imports_keep_global_send_order() {
        // Cross-shard imports can carry ids below the trimmed window base;
        // they must stay addressable and sort before every windowed id.
        let mut pool: MessagePool<M> = MessagePool::new();
        for id in 0..400 {
            pool.insert(pending(id, id, None));
        }
        for id in 0..300 {
            pool.remove(MsgId(id)).unwrap();
        }
        let base = pool.window_base();
        assert!(base > 0, "expected churn to trim the window");
        // An import whose id falls below the base lands in the side-table.
        let import = base - 1;
        pool.insert(pending(import, 0, None));
        let (_, old) = pool.index_footprint();
        assert_eq!(old, 1);
        assert!(pool.contains(MsgId(import)));
        assert_eq!(pool.nth_live(0), Some(MsgId(import)));
        assert_eq!(pool.nth_live(1), Some(MsgId(300)));
        let removed = pool.remove(MsgId(import)).unwrap();
        assert_eq!(removed.id, MsgId(import));
        assert_eq!(pool.index_footprint().1, 0);
        assert_eq!(pool.nth_live(0), Some(MsgId(300)));
    }

    #[test]
    #[should_panic]
    fn duplicate_ids_rejected() {
        let mut pool: MessagePool<M> = MessagePool::new();
        pool.insert(pending(4, 0, None));
        pool.insert(pending(4, 1, None));
    }
}
