//! Heap-allocation audits scoped to the threads under test.
//!
//! A test binary installs [`CountingAlloc`] as its `#[global_allocator]`.
//! An [`AllocAudit`] then counts only the allocations of threads that
//! [`enlist`](AllocAudit::enlist)ed in it — typically the test's own thread
//! plus the worker threads of the pool it drives. Sibling tests, which the
//! harness runs concurrently on other threads with pools of their own,
//! never count, so a zero-allocation assertion holds or fails on its own
//! code path whatever the test scheduler does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// The audit this thread's allocations count into, if any. Const-
    /// initialised with no destructor, so reading it from inside the
    /// allocator never allocates.
    static SCOPE: Cell<Option<&'static AtomicU64>> = const { Cell::new(None) };
}

/// Global allocator that forwards to [`System`] and bumps the enlisted
/// audit's counter, if the allocating thread has one.
pub struct CountingAlloc;

// SAFETY: every call is forwarded to `System` unchanged; the counter bump
// in between neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if let Ok(Some(count)) = SCOPE.try_with(Cell::get) {
            count.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// One audit's allocation counter.
///
/// The counter is leaked (8 bytes per audit) so an enlisted thread can
/// never outlive it — even when a failing test unwinds before its workers
/// are released.
#[derive(Clone, Copy)]
pub struct AllocAudit {
    count: &'static AtomicU64,
}

impl AllocAudit {
    /// A fresh audit with a zero count and no enlisted threads.
    pub fn new() -> Self {
        Self {
            count: Box::leak(Box::new(AtomicU64::new(0))),
        }
    }

    /// Count the calling thread's allocations into this audit (replacing
    /// any audit it was enlisted in) until [`leave`].
    pub fn enlist(self) {
        SCOPE.with(|s| s.set(Some(self.count)));
    }

    /// Allocations counted so far.
    pub fn allocations(self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }
}

impl Default for AllocAudit {
    fn default() -> Self {
        Self::new()
    }
}

/// Stop counting the calling thread's allocations.
pub fn leave() {
    SCOPE.with(|s| s.set(None));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_enlisted_threads_count() {
        let audit = AllocAudit::new();
        audit.enlist();
        // The test binary's allocator is `System`, not `CountingAlloc`, so
        // drive the counting allocator directly.
        let layout = Layout::from_size_align(16, 8).unwrap();
        let alloc_once = move || {
            // SAFETY: a non-zero-size layout, freed with the same layout.
            unsafe {
                let p = CountingAlloc.alloc(layout);
                assert!(!p.is_null());
                CountingAlloc.dealloc(p, layout);
            }
        };
        alloc_once();
        std::thread::spawn(alloc_once).join().unwrap();
        leave();
        alloc_once();
        assert_eq!(audit.allocations(), 1);
    }
}
