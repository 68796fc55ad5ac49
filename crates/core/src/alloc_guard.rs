//! A counting test allocator: the *dynamic* twin of `lotus-lint`'s
//! static alloc-free-region rule.
//!
//! PR 2 made every simulator's steady-state hot loop allocation-free and
//! measured the win; `lotus-lint` scans `// lint: hot-loop` functions for
//! allocating constructs at the token level. Both are approximations — a
//! textual scan cannot see through helper calls, and a benchmark only
//! notices allocations when they cost enough to move the needle. This
//! module closes the loop with ground truth: a [`GlobalAlloc`] shim that
//! counts every heap allocation on the current thread, so a test can
//! assert **zero allocations per steady-state step** and fail the moment
//! a stray `clone` or `collect` sneaks back into a hot path.
//!
//! # Usage
//!
//! The workspace crates all carry `#![forbid(unsafe_code)]`, and a
//! `GlobalAlloc` impl is necessarily unsafe — so the allocator itself is
//! *not* compiled into this crate. Instead,
//! [`install_counting_allocator!`](crate::install_counting_allocator!) expands the shim into the calling test
//! crate (integration tests are separate crates without the `forbid`),
//! and the shim reports into the thread-local counters defined here:
//!
//! ```ignore
//! // tests/alloc_steady.rs
//! lotus_core::install_counting_allocator!();
//!
//! #[test]
//! fn steady_state_step_is_alloc_free() {
//!     let mut sim = build_and_warm_up();
//!     let stats = lotus_core::alloc_guard::measure(|| {
//!         sim.step();
//!     });
//!     assert_eq!(stats.allocations, 0, "{stats:?}");
//! }
//! ```
//!
//! Counters are per-thread, so parallel test threads never perturb each
//! other's measurements. If the macro was never invoked in the final
//! binary the counters simply stay at zero — which would make every
//! zero-alloc assertion pass vacuously — so any suite using this module
//! **must** include a canary test proving a deliberate allocation trips
//! the guard (see [`measure`]).
//!
//! [`GlobalAlloc`]: std::alloc::GlobalAlloc

use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Record one heap allocation of `size` bytes on this thread.
///
/// Called by the [`install_counting_allocator!`](crate::install_counting_allocator!)-generated shim on every
/// `alloc`/`realloc`; not meant to be called by hand, but harmless if it
/// is (it only bumps counters).
#[inline]
pub fn record_alloc(size: usize) {
    ALLOCATIONS.with(|c| c.set(c.get().wrapping_add(1)));
    BYTES.with(|c| c.set(c.get().wrapping_add(size as u64)));
}

/// Cumulative heap allocations recorded on this thread.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Cumulative heap bytes requested on this thread.
pub fn bytes_allocated() -> u64 {
    BYTES.with(Cell::get)
}

/// What a [`measure`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of `alloc`/`realloc` calls during the measured closure.
    pub allocations: u64,
    /// Total bytes those calls requested.
    pub bytes: u64,
}

impl AllocStats {
    /// `true` if the measured region performed no heap allocation.
    pub fn is_zero(&self) -> bool {
        self.allocations == 0
    }
}

/// Run `f` and report how many heap allocations it performed on this
/// thread.
///
/// Requires [`install_counting_allocator!`](crate::install_counting_allocator!) in the enclosing binary;
/// without it the result is always zero, so pair every zero-assertion
/// suite with a canary:
///
/// ```ignore
/// let canary = lotus_core::alloc_guard::measure(|| {
///     std::hint::black_box(Vec::<u8>::with_capacity(64));
/// });
/// assert!(canary.allocations > 0, "counting allocator not installed");
/// ```
pub fn measure<R>(f: impl FnOnce() -> R) -> AllocStats {
    let a0 = allocations();
    let b0 = bytes_allocated();
    let result = f();
    std::hint::black_box(&result);
    drop(result);
    AllocStats {
        allocations: allocations().wrapping_sub(a0),
        bytes: bytes_allocated().wrapping_sub(b0),
    }
}

/// Expand the counting [`GlobalAlloc`](std::alloc::GlobalAlloc) shim and
/// register it as the `#[global_allocator]` of the calling crate.
///
/// Invoke exactly once, at the top level of a test crate (a crate can
/// have only one global allocator). The shim forwards every call to
/// [`std::alloc::System`] and reports `alloc`/`realloc` into
/// [`alloc_guard`](crate::alloc_guard)'s thread-local counters.
/// Deallocations are not counted: a steady-state step that frees memory
/// it did not allocate is already a bug the allocation count of the
/// *previous* step catches.
///
/// The expansion contains the `unsafe impl` this crate's
/// `#![forbid(unsafe_code)]` disallows; that is the point — the unsafe
/// code is compiled into the invoking crate, keeping every workspace
/// library crate forbid-clean (and `lotus-lint`'s crate-root rule green).
#[macro_export]
macro_rules! install_counting_allocator {
    () => {
        /// Counting allocator shim (see `lotus_core::alloc_guard`).
        struct LotusCountingAllocator;

        unsafe impl ::std::alloc::GlobalAlloc for LotusCountingAllocator {
            unsafe fn alloc(&self, layout: ::std::alloc::Layout) -> *mut u8 {
                $crate::alloc_guard::record_alloc(layout.size());
                unsafe { ::std::alloc::System.alloc(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: ::std::alloc::Layout) {
                unsafe { ::std::alloc::System.dealloc(ptr, layout) }
            }

            unsafe fn realloc(
                &self,
                ptr: *mut u8,
                layout: ::std::alloc::Layout,
                new_size: usize,
            ) -> *mut u8 {
                $crate::alloc_guard::record_alloc(new_size);
                unsafe { ::std::alloc::System.realloc(ptr, layout, new_size) }
            }
        }

        #[global_allocator]
        static LOTUS_COUNTING_ALLOCATOR: LotusCountingAllocator = LotusCountingAllocator;
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit tests run without the macro installed (this crate forbids
    // unsafe code), so they can only exercise the counter plumbing; the
    // end-to-end proof that the shim trips lives in the bench crate's
    // `alloc_steady` suite, canary included.

    #[test]
    fn record_alloc_bumps_both_counters() {
        let a0 = allocations();
        let b0 = bytes_allocated();
        record_alloc(48);
        record_alloc(16);
        assert_eq!(allocations() - a0, 2);
        assert_eq!(bytes_allocated() - b0, 64);
    }

    #[test]
    fn measure_reports_the_delta() {
        let stats = measure(|| record_alloc(10));
        assert_eq!(
            stats,
            AllocStats {
                allocations: 1,
                bytes: 10
            }
        );
        assert!(!stats.is_zero());
        assert!(measure(|| ()).is_zero());
    }
}
