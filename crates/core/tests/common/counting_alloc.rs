//! A counting `#[global_allocator]` for the test binaries that assert
//! allocation counts (`hotpath_alloc.rs`, `serving_registry.rs`) or a
//! peak of live heap (`collect_alloc.rs`); each includes this file by
//! `#[path]`, so no other binary pays for it.
//!
//! It wraps the system allocator and tallies every `alloc`/`realloc`
//! made by the *armed thread*, and the bytes that thread holds. The
//! counters are thread-local on purpose: the measured code runs
//! entirely on the calling thread, while the libtest harness's main
//! thread may concurrently park on its test-completion channel — which
//! lazily allocates a waker — and a process-global counter would
//! (flakily) pick that up.

#![allow(dead_code)] // each binary uses its own half
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts the armed thread's allocations.
struct CountingAlloc;

thread_local! {
    // const-initialized so the TLS access itself never allocates (a
    // lazily-initialized thread-local would recurse into `alloc`).
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed by the armed thread, and the
    // highest that difference reached.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Records one allocator call by the armed thread: `allocs` new
/// allocations and `bytes` more heap held (negative for a free).
fn tally(allocs: u64, bytes: i64) {
    // try_with: TLS may be unavailable during thread teardown; those
    // allocations belong to the runtime, not the measured code.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + bytes);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
    });
}

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    // SAFETY: same deferral to `System` as `alloc` above.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocation counter armed; returns its
/// tally.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(|n| n.get()), r)
}

/// Runs `f` with this thread's byte counter armed; returns the most heap
/// the thread held at once above what it held when `f` began.
pub fn peak_live_bytes<R>(f: impl FnOnce() -> R) -> (u64, R) {
    LIVE.with(|n| n.set(0));
    PEAK.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (PEAK.with(|n| n.get()) as u64, r)
}
