//! Unsynchronized ("hot") buffer storage with a debug-build race detector.
//!
//! Activations and op outputs are produced once, read by downstream ops
//! and the backward sweep, and never shared *mutably* across threads: a
//! replica's forward/backward graph lives entirely on its worker thread,
//! and the handful of cross-thread reads (checkpoint digests, the final
//! all-reduce) happen only after the producing step has finished. Paying a
//! `RwLock` acquisition per element access on that path is pure overhead —
//! it is what flattened the PR 2 parallel speedup to 1.0×.
//!
//! [`HotCell`] therefore stores the buffer in an `UnsafeCell` with **no
//! synchronization in release builds**. The safety contract (writers are
//! exclusive; never concurrent with readers) is the same one `RwLock`
//! enforced dynamically — here it is upheld by the ownership structure of
//! the training loop and *checked* in debug builds by an atomic
//! reader/writer tally that panics on any torn access, in the spirit of
//! the `lockorder` checker that still guards the surviving locks.
//!
//! Every debug-build guard acquisition additionally draws an epoch stamp
//! — a process-global op id packed with a per-thread debug id (from
//! [`crate::lockorder::debug_thread_id`]) — and records it in the cell.
//! A violation report therefore names **both** conflicting sites as
//! `(thread, op)` pairs, turning "something raced" into "op 17 on thread
//! 3 collided with op 16 on thread 2", which is usually enough to find
//! the two call sites in a deterministic test run.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicI32, AtomicU64, Ordering};

/// Number of readers currently holding a guard, or `-1` while a write
/// guard is live. Debug builds only.
#[cfg(debug_assertions)]
type AccessTally = AtomicI32;

/// Process-global access epoch. Every guard acquisition draws one op id,
/// so a violation report can name *which* access it collided with, not
/// just that something was live.
#[cfg(debug_assertions)]
static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// Draw a fresh epoch stamp: `(packed, thread, op)` where `packed` is
/// `thread << 32 | op` (op truncated to 32 bits — debug runs never come
/// close, and the stamp is diagnostic, not a correctness input).
#[cfg(debug_assertions)]
fn stamp() -> (u64, u32, u64) {
    let op = NEXT_OP.fetch_add(1, Ordering::Relaxed);
    let thread = crate::lockorder::debug_thread_id();
    ((u64::from(thread) << 32) | (op & 0xFFFF_FFFF), thread, op)
}

/// Unpack a stamp back into `(thread, op)` for a violation report.
#[cfg(debug_assertions)]
fn unpack(packed: u64) -> (u32, u64) {
    ((packed >> 32) as u32, packed & 0xFFFF_FFFF)
}

pub(crate) struct HotCell {
    buf: UnsafeCell<Vec<f32>>,
    #[cfg(debug_assertions)]
    tally: AccessTally,
    /// Stamp of the most recent read acquisition (0 = never read).
    #[cfg(debug_assertions)]
    last_read: AtomicU64,
    /// Stamp of the most recent write acquisition (0 = never written).
    #[cfg(debug_assertions)]
    last_write: AtomicU64,
}

// SAFETY: `HotCell` hands out shared and exclusive references to the inner
// buffer without synchronization. Callers (the `Tensor` methods in
// `tensor.rs`) uphold the aliasing contract: mutation happens only through
// tensors not concurrently read by another thread. Debug builds verify
// the contract at runtime via `tally`.
unsafe impl Send for HotCell {}
// SAFETY: see above — shared access is plain reads of a buffer that is not
// concurrently mutated.
unsafe impl Sync for HotCell {}

impl HotCell {
    pub(crate) fn new(buf: Vec<f32>) -> Self {
        HotCell {
            buf: UnsafeCell::new(buf),
            #[cfg(debug_assertions)]
            tally: AccessTally::new(0),
            #[cfg(debug_assertions)]
            last_read: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            last_write: AtomicU64::new(0),
        }
    }

    /// Shared read access. Panics in debug builds if a writer is live,
    /// naming both conflicting sites by `(thread, op)` stamp.
    pub(crate) fn read(&self) -> HotReadGuard<'_> {
        #[cfg(debug_assertions)]
        {
            let (packed, thread, op) = stamp();
            let prev = self.tally.fetch_add(1, Ordering::Acquire);
            #[expect(
                clippy::panic,
                reason = "the debug race validator reports by panicking — the access path has no error channel and the violation is a caller bug"
            )]
            if prev < 0 {
                let (wt, wo) = unpack(self.last_write.load(Ordering::Acquire));
                panic!(
                    "hot-buffer aliasing violation: read (thread {thread}, op {op}) \
                     while a write guard is live (thread {wt}, op {wo}) — an op or \
                     optimizer is mutating a tensor another path is reading"
                );
            }
            self.last_read.store(packed, Ordering::Release);
        }
        HotReadGuard { cell: self }
    }

    /// Exclusive write access. Panics in debug builds if any reader or
    /// another writer is live, naming both conflicting sites by
    /// `(thread, op)` stamp.
    pub(crate) fn write(&self) -> HotWriteGuard<'_> {
        #[cfg(debug_assertions)]
        {
            let (packed, thread, op) = stamp();
            #[expect(
                clippy::panic,
                reason = "the debug race validator reports by panicking — the access path has no error channel and the violation is a caller bug"
            )]
            if let Err(live) =
                self.tally
                    .compare_exchange(0, -1, Ordering::Acquire, Ordering::Acquire)
            {
                let (kind, site) = if live < 0 {
                    ("write", self.last_write.load(Ordering::Acquire))
                } else {
                    ("read", self.last_read.load(Ordering::Acquire))
                };
                let (ct, co) = unpack(site);
                panic!(
                    "hot-buffer aliasing violation: write (thread {thread}, op {op}) \
                     while a {kind} guard is live (thread {ct}, op {co}) — hot tensors \
                     must not be mutated concurrently with any access"
                );
            }
            self.last_write.store(packed, Ordering::Release);
        }
        HotWriteGuard { cell: self }
    }

    /// Steal the buffer out of a cell that is provably unaliased
    /// (`&mut self` — used when the owning `Inner` is being dropped).
    pub(crate) fn take_buf(&mut self) -> Vec<f32> {
        std::mem::take(self.buf.get_mut())
    }
}

pub(crate) struct HotReadGuard<'a> {
    cell: &'a HotCell,
}

impl Deref for HotReadGuard<'_> {
    type Target = Vec<f32>;

    #[inline]
    fn deref(&self) -> &Vec<f32> {
        // SAFETY: guard construction established (and debug builds verify)
        // that no exclusive access is live for the guard's lifetime.
        unsafe { &*self.cell.buf.get() }
    }
}

impl Drop for HotReadGuard<'_> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        self.cell.tally.fetch_sub(1, Ordering::Release);
    }
}

pub(crate) struct HotWriteGuard<'a> {
    cell: &'a HotCell,
}

impl Deref for HotWriteGuard<'_> {
    type Target = Vec<f32>;

    #[inline]
    fn deref(&self) -> &Vec<f32> {
        // SAFETY: the live write guard is the only access path.
        unsafe { &*self.cell.buf.get() }
    }
}

impl DerefMut for HotWriteGuard<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Vec<f32> {
        // SAFETY: the live write guard is the only access path.
        unsafe { &mut *self.cell.buf.get() }
    }
}

impl Drop for HotWriteGuard<'_> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        self.cell.tally.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_then_write_sequential_is_clean() {
        let cell = HotCell::new(vec![1.0, 2.0]);
        {
            let r = cell.read();
            assert_eq!(r[0], 1.0);
        }
        {
            let mut w = cell.write();
            w[0] = 5.0;
        }
        assert_eq!(cell.read()[0], 5.0);
    }

    #[test]
    fn concurrent_reads_are_clean() {
        let cell = HotCell::new(vec![7.0; 8]);
        let a = cell.read();
        let b = cell.read();
        assert_eq!(a[3].to_bits(), b[3].to_bits());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "hot-buffer aliasing violation")]
    fn write_during_read_panics_in_debug() {
        let cell = HotCell::new(vec![0.0]);
        let _r = cell.read();
        let _w = cell.write();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "hot-buffer aliasing violation")]
    fn read_during_write_panics_in_debug() {
        let cell = HotCell::new(vec![0.0]);
        let _w = cell.write();
        let _r = cell.read();
    }

    #[cfg(debug_assertions)]
    fn panic_message(err: &(dyn std::any::Any + Send)) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// The thread ids named in a violation report, in order of mention.
    #[cfg(debug_assertions)]
    fn thread_ids(msg: &str) -> Vec<u32> {
        msg.match_indices("thread ")
            .map(|(i, pat)| {
                msg[i + pat.len()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .unwrap_or(0)
            })
            .collect()
    }

    #[cfg(debug_assertions)]
    #[test]
    fn violation_report_names_both_sites() {
        let cell = HotCell::new(vec![0.0]);
        let _w = cell.write();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.read();
        }))
        .expect_err("read during write must panic");
        let msg = panic_message(&*err);
        assert!(
            msg.starts_with("hot-buffer aliasing violation"),
            "prefix must be stable for downstream matchers: {msg}"
        );
        // Both the offending access and the live guard carry (thread, op)
        // stamps; on one thread the thread ids match and the op ids don't.
        let threads = thread_ids(&msg);
        assert_eq!(threads.len(), 2, "two sites expected: {msg}");
        assert_eq!(threads[0], threads[1], "same-thread conflict: {msg}");
        assert_eq!(msg.matches(", op ").count(), 2, "two op stamps: {msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn cross_thread_violation_names_both_threads() {
        use std::sync::{mpsc, Arc};

        let cell = Arc::new(HotCell::new(vec![0.0]));
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let peer = Arc::clone(&cell);
        let reader = std::thread::spawn(move || {
            // Park with a live read guard so the main thread's write
            // collides with an access stamped by *this* thread.
            let _r = peer.read();
            ready_tx.send(()).ok();
            release_rx.recv().ok();
        });
        ready_rx.recv().expect("reader thread started");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.write();
        }))
        .expect_err("write during cross-thread read must panic");
        release_tx.send(()).ok();
        reader.join().expect("reader thread exits cleanly");
        let msg = panic_message(&*err);
        let threads = thread_ids(&msg);
        assert_eq!(threads.len(), 2, "two sites expected: {msg}");
        assert_ne!(
            threads[0], threads[1],
            "conflicting sites must name distinct threads: {msg}"
        );
    }
}
