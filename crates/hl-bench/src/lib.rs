//! # hl-bench — the experiment harness
//!
//! Reproduces every figure and table of the paper's evaluation (§6) on
//! the simulated testbed. Each `src/bin/fig*.rs` regenerates one paper
//! artifact and prints the same rows/series the paper reports;
//! `EXPERIMENTS.md` records paper-vs-measured.
//!
//! * [`micro`] — Figures 8/9/10, Table 2 (primitive latency, throughput,
//!   CPU, group-size scaling).
//! * [`apps`] — Figure 2 (native MongoDB-style multi-tenancy), Figure 11
//!   (kvlite/RocksDB), Figure 12 (doclite/MongoDB across YCSB mixes).
//! * [`gray`] — gray-failure campaign: tail latency per impairment
//!   class per backend, the crashed-host live-rejoin case, and the
//!   SLO-excursion round trip.
//! * [`migration`] — live shard split under traffic: disruption ratio
//!   for the migrating shard, byte-identical bystanders.
//! * [`timeline`] — per-shard p50/p99-over-time rendering with fault
//!   marks overlaid.
//! * [`table`] — plain-text table rendering.

#![warn(missing_docs)]

pub mod apps;
pub mod campaign;
pub mod gray;
pub mod micro;
pub mod migration;
pub mod shard;
pub mod table;
pub mod timeline;

/// Allocation audit: a counting wrapper around the system allocator,
/// compiled in only with `--features alloc-audit` so the default build
/// pays nothing. Tests use it to pin down "this loop allocates nothing
/// in steady state" claims about the datapath (telemetry drain, event
/// scheduling, campaign merge) instead of trusting comments.
///
/// Counts are kept **per thread**, so tests running in parallel in one
/// process do not count each other's allocations. A count therefore
/// covers only the calling thread: work a measured closure hands to
/// other threads is not included.
#[cfg(feature = "alloc-audit")]
pub mod alloc_audit {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // `const` initialiser and no destructor: touching it never
        // allocates, so the allocator itself can count with it.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    fn bump() {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }

    /// System allocator that counts each thread's allocations.
    pub struct CountingAlloc;

    // SAFETY: defers to `System` for every operation; the counters are
    // side effects only.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static AUDIT_ALLOC: CountingAlloc = CountingAlloc;

    /// Allocations (including reallocs) made by the calling thread
    /// since it started.
    pub fn allocs() -> u64 {
        ALLOCS.with(Cell::get)
    }

    /// Run `f` and return how many allocations it performed on the
    /// calling thread.
    pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = allocs();
        let r = f();
        (allocs() - before, r)
    }

    /// Debug-assert that `f` performs at most `max` allocations —
    /// compiled to a plain call in release builds, a hard check under
    /// `debug_assertions`.
    pub fn debug_assert_allocs_at_most<R>(label: &str, max: u64, f: impl FnOnce() -> R) -> R {
        let (n, r) = count_allocs(f);
        debug_assert!(
            n <= max,
            "{label}: expected at most {max} allocations, observed {n}"
        );
        r
    }
}
