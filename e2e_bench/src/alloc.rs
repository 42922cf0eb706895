//! A counting global allocator: live and peak heap bytes plus exact
//! allocation counts, so memory is a per-workload number (process RSS
//! cannot be, once several workloads share a process).
//!
//! The counters are statistics that publish no other data, hence
//! `Relaxed`. They are always on — both sides of any comparison pay the
//! same few atomics per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

fn on_alloc(size: u64) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(size, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the bookkeeping touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            on_alloc(new_size as u64);
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live size since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}

/// Allocations made and bytes requested since process start.
pub fn totals() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}
