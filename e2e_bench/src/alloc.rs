//! A counting allocator that attributes every allocation to the layer whose
//! call is active on the allocating thread.
//!
//! [`CountingAlloc`] is installed as the `#[global_allocator]` of the
//! benchmark binary only; the library's tests run on the system allocator
//! and see zero counts.  Counting is off until [`set_enabled`] turns it on,
//! so untraced runs pay one relaxed load per allocation.

use crate::trace::Layer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

thread_local! {
    /// The layer charged for this thread's allocations.  Threads the
    /// simulator spawns start in [`Layer::Sim`]; the main thread sets its
    /// own layer as it enters and leaves spans.
    static CURRENT: Cell<u8> = const { Cell::new(Layer::Sim as u8) };
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: [AtomicU64; Layer::COUNT] = [const { AtomicU64::new(0) }; Layer::COUNT];
static BYTES: [AtomicU64; Layer::COUNT] = [const { AtomicU64::new(0) }; Layer::COUNT];
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

/// Allocation counts per layer, indexed by `Layer as usize`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocations (including the growing half of a reallocation).
    pub allocs: [u64; Layer::COUNT],
    /// Bytes requested by those allocations.
    pub bytes: [u64; Layer::COUNT],
}

impl AllocCounts {
    /// The counts accumulated since `earlier`.
    pub fn since(&self, earlier: &AllocCounts) -> AllocCounts {
        let mut out = AllocCounts::default();
        for i in 0..Layer::COUNT {
            out.allocs[i] = self.allocs[i] - earlier.allocs[i];
            out.bytes[i] = self.bytes[i] - earlier.bytes[i];
        }
        out
    }
}

/// Turns counting on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Charges this thread's allocations to `layer` until the returned previous
/// layer is handed back to [`restore`].
pub fn enter(layer: Layer) -> u8 {
    CURRENT.with(|c| c.replace(layer as u8))
}

/// Restores the layer [`enter`] returned.
pub fn restore(previous: u8) {
    CURRENT.with(|c| c.set(previous));
}

/// The counts so far.
pub fn snapshot() -> AllocCounts {
    let mut out = AllocCounts::default();
    for i in 0..Layer::COUNT {
        out.allocs[i] = ALLOCS[i].load(Relaxed);
        out.bytes[i] = BYTES[i].load(Relaxed);
    }
    out
}

/// Starts a live-byte window: from here, live bytes count the blocks
/// allocated since, less those freed (frees of older blocks saturate at 0).
pub fn begin_live_window() {
    LIVE.store(0, Relaxed);
    PEAK_LIVE.store(0, Relaxed);
}

/// The most bytes live at once since [`begin_live_window`].
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE.load(Relaxed)
}

fn on_alloc(size: usize) {
    if !ENABLED.load(Relaxed) {
        return;
    }
    // `try_with`: an allocation during thread teardown has no layer left.
    let layer = CURRENT.try_with(Cell::get).unwrap_or(Layer::None as u8) as usize;
    ALLOCS[layer].fetch_add(1, Relaxed);
    BYTES[layer].fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK_LIVE.fetch_max(live, Relaxed);
}

fn on_free(size: usize) {
    if ENABLED.load(Relaxed) {
        // Saturating: blocks allocated before counting began are freed too.
        let _ = LIVE.fetch_update(Relaxed, Relaxed, |live| {
            Some(live.saturating_sub(size as u64))
        });
    }
}

/// The system allocator plus per-layer counters.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the counters only touch atomics and a
// const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract and
        // `ptr` came from `System`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        new
    }
}
