//! Debug-only runtime lock-order checker for tensor-internal locks.
//!
//! The deadlock-freedom argument for concurrent tensor code (e.g.
//! `all_reduce_mean_guarded`) is that every thread acquires tensor locks
//! in ascending id order. `aimts-lint` rule A002 enforces this statically;
//! this module enforces it dynamically in debug builds: every acquisition
//! of a tensor's `data`/`grad` lock registers with a thread-local stack,
//! and acquiring a lock with a *smaller* id than one already held panics,
//! naming both ids. Release builds compile the whole checker down to a
//! zero-sized no-op.
//!
//! The token must be taken *before* blocking on the real lock, so a
//! would-be deadlock trips the checker instead of hanging the test.

#[cfg(debug_assertions)]
mod imp {
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicU32, Ordering};

    thread_local! {
        static HELD: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
        static ACQUIRED: Cell<u64> = const { Cell::new(0) };
        static THREAD_ID: Cell<u32> = const { Cell::new(0) };
    }

    /// Next debug thread id; 0 is reserved for "not yet assigned".
    static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

    /// A small, stable, per-thread id for debug diagnostics.
    ///
    /// Assigned lazily on first use, dense from 1, and never reused within
    /// a process run — unlike `std::thread::ThreadId` it fits in a `u32`
    /// and packs into the hot-buffer race validator's epoch stamps.
    pub fn debug_thread_id() -> u32 {
        THREAD_ID.with(|c| {
            let mut id = c.get();
            if id == 0 {
                id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
                c.set(id);
            }
            id
        })
    }

    /// RAII registration of one lock acquisition on this thread.
    pub struct LockToken {
        id: u64,
    }

    /// Register acquisition of the lock belonging to tensor `id`.
    ///
    /// Panics when a lock with a smaller id is already held by this
    /// thread. Equal ids are allowed: a tensor's `data` and `grad` locks
    /// share its id, and holding both is ordering-neutral.
    pub fn acquire(id: u64) -> LockToken {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            // `h` is non-decreasing by construction, so the max is last.
            if let Some(&top) = h.last() {
                assert!(
                    top <= id,
                    "tensor lock-order violation: acquiring the lock of tensor id {id} \
                     while already holding tensor id {top}; acquire guards in ascending \
                     id order (use aimts_tensor::read_pair for pairs)"
                );
            }
            h.push(id);
        });
        ACQUIRED.with(|c| c.set(c.get() + 1));
        LockToken { id }
    }

    impl Drop for LockToken {
        fn drop(&mut self) {
            // try_with: tokens may drop during thread teardown after the
            // thread-local has been destroyed.
            #[expect(
                clippy::let_underscore_must_use,
                reason = "nothing to unwind if the thread-local is already destroyed"
            )]
            let _ = HELD.try_with(|h| {
                let mut h = h.borrow_mut();
                if let Some(k) = h.iter().rposition(|&x| x == self.id) {
                    h.remove(k);
                }
            });
        }
    }

    /// Number of tensor locks the current thread holds (test hook).
    pub fn held_count() -> usize {
        HELD.with(|h| h.borrow().len())
    }

    /// Cumulative count of lock acquisitions on the current thread.
    ///
    /// Serving-path regression tests take a delta around a frozen-model
    /// forward to prove it touches no `Storage::Shared` locks.
    pub fn acquired_total() -> u64 {
        ACQUIRED.with(|c| c.get())
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    /// Zero-sized stand-in; the release checker tracks nothing.
    pub struct LockToken;

    #[inline(always)]
    pub fn acquire(_id: u64) -> LockToken {
        LockToken
    }

    #[inline(always)]
    pub fn held_count() -> usize {
        0
    }

    /// Release builds track nothing; the counter reads as a constant zero.
    #[inline(always)]
    pub fn acquired_total() -> u64 {
        0
    }

    /// Release builds assign no ids; every thread reads as 0.
    #[inline(always)]
    pub fn debug_thread_id() -> u32 {
        0
    }
}

pub use imp::{acquire, acquired_total, debug_thread_id, held_count, LockToken};

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn ascending_and_equal_ids_are_fine() {
        let t1 = acquire(10);
        let t2 = acquire(10);
        let t3 = acquire(11);
        assert_eq!(held_count(), 3);
        drop(t3);
        drop(t2);
        drop(t1);
        assert_eq!(held_count(), 0);
    }

    #[test]
    fn release_reopens_lower_ids() {
        let t = acquire(10);
        drop(t);
        let t = acquire(5);
        drop(t);
    }

    #[test]
    fn descending_acquisition_panics_with_both_ids() {
        let result = std::panic::catch_unwind(|| {
            let _hi = acquire(42);
            let _lo = acquire(7);
        });
        let err = result.expect_err("descending order must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("tensor id 7"), "missing acquired id: {msg}");
        assert!(msg.contains("tensor id 42"), "missing held id: {msg}");
        // Unwinding dropped `_hi`, and the failed acquisition itself must
        // not leave residue on the stack.
        assert_eq!(held_count(), 0, "panicked acquire leaked a token");
    }

    #[test]
    fn acquisition_counter_is_cumulative() {
        let before = acquired_total();
        let t1 = acquire(100);
        let t2 = acquire(101);
        drop(t2);
        drop(t1);
        // Dropping tokens never rewinds the counter: it measures traffic,
        // not residency.
        assert_eq!(acquired_total() - before, 2);
    }

    #[test]
    fn debug_thread_ids_are_stable_and_distinct() {
        let mine = debug_thread_id();
        assert!(mine > 0, "debug ids start at 1");
        assert_eq!(mine, debug_thread_id(), "id must be stable per thread");
        let theirs = std::thread::spawn(debug_thread_id)
            .join()
            .expect("spawned thread");
        assert_ne!(mine, theirs, "distinct threads get distinct ids");
    }

    #[test]
    fn out_of_order_drop_removes_the_right_token() {
        let t1 = acquire(1);
        let t2 = acquire(2);
        drop(t1);
        assert_eq!(held_count(), 1);
        let t3 = acquire(3);
        drop(t2);
        drop(t3);
        assert_eq!(held_count(), 0);
    }
}
