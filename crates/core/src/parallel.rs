//! Data-parallel training utilities: worker-count resolution (the
//! `AIMTS_THREADS` knob), the persistent worker pool, per-micro-batch
//! seeds, and the finite-guarded gradient all-reduce used by
//! [`crate::AimTs::pretrain`].
//!
//! The scheme is replica-per-worker: each worker owns a deep copy of the
//! model, loads the master weights, computes the gradient of one
//! micro-batch (augmentation, image rasterization, forward, backward all
//! happen on the worker thread), and the master averages the flat
//! gradients and steps its optimizer once.
//!
//! [`with_worker_pool`] is the one thread mechanism: it spawns the worker
//! threads **once** per pre-training run (each with its buffer arena
//! enabled — see [`aimts_tensor::arena`]), and every round ships tasks
//! over per-slot channels. Slot `i` always runs on the same thread, so
//! replica `i`'s tensors, arena pool, and caches stay thread-local for the
//! whole run — the property the lock-free hot storage relies on. A run
//! resolved to one worker starts no pool: pre-training then computes each
//! micro-batch on the calling thread.

use std::env;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "AIMTS_THREADS";

/// Resolve the data-parallel worker count.
///
/// Priority: an explicit `requested > 0`, then a positive integer in
/// `AIMTS_THREADS`, then the machine's available parallelism. A result of
/// `1` makes pre-training compute every micro-batch on the calling thread.
pub fn worker_count(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        eprintln!("warning: ignoring invalid {THREADS_ENV}={v:?} (want a positive integer)");
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Finite-guarded all-reduce: the element-wise mean over only the buffers
/// that are entirely finite, with poisoned (any-`NaN`/`inf`) buffers
/// excluded from the average. Returns `None` when every buffer is
/// poisoned (the caller must skip the step), otherwise the mean and the
/// number of buffers excluded.
///
/// Accumulation runs in `f64`, so the sum of finite `f32` values can never
/// overflow and the mean of the survivors — which is bounded by their
/// maximum — is always finite. Panics on an empty slice or mismatched
/// lengths.
pub fn all_reduce_mean_guarded(buffers: &[Vec<f32>]) -> Option<(Vec<f32>, usize)> {
    assert!(
        !buffers.is_empty(),
        "all_reduce_mean_guarded of zero buffers"
    );
    let n = buffers[0].len();
    for b in buffers {
        assert_eq!(b.len(), n, "all_reduce_mean_guarded buffer length mismatch");
    }
    let finite: Vec<&Vec<f32>> = buffers
        .iter()
        .filter(|b| aimts_tensor::all_finite(b))
        .collect();
    let excluded = buffers.len() - finite.len();
    if finite.is_empty() {
        return None;
    }
    let mut acc = vec![0f64; n];
    for b in &finite {
        for (a, x) in acc.iter_mut().zip(b.iter()) {
            *a += *x as f64;
        }
    }
    let scale = 1.0 / finite.len() as f64;
    let out: Vec<f32> = acc.into_iter().map(|a| (a * scale) as f32).collect();
    debug_assert!(
        aimts_tensor::all_finite(&out),
        "guarded all-reduce emitted a non-finite mean from all-finite inputs"
    );
    Some((out, excluded))
}

/// Render a caught panic payload as a short message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Handle to a live worker pool, usable only inside the `body` closure of
/// [`with_worker_pool`]. Each call to [`PoolHandle::run_round`] dispatches
/// one task per slot and blocks until every dispatched task reports back.
pub struct PoolHandle<T, R> {
    txs: Vec<mpsc::Sender<T>>,
    res_rx: mpsc::Receiver<(usize, Result<R, String>)>,
}

impl<T, R> PoolHandle<T, R> {
    /// Number of worker slots in the pool.
    pub fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Run one round: task `i` goes to slot `i` (so with stable rounds each
    /// slot always sees the same replica index), and results come back in
    /// slot order. A panicking task is contained on its worker thread and
    /// surfaced as `Err(message)` in that slot; the worker itself survives
    /// and serves later rounds. Panics if the round is larger than the pool.
    pub fn run_round(&mut self, tasks: Vec<T>) -> Vec<Result<R, String>> {
        let n = tasks.len();
        assert!(
            n <= self.txs.len(),
            "round of {n} tasks exceeds {} pool workers",
            self.txs.len()
        );
        let mut out: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
        let mut pending = 0usize;
        for (slot, task) in tasks.into_iter().enumerate() {
            if self.txs[slot].send(task).is_ok() {
                pending += 1;
            } else {
                // Unreachable in practice (workers catch panics and never
                // exit while the handle lives), kept as a defensive guard.
                out[slot] = Some(Err("worker thread terminated".to_string()));
            }
        }
        while pending > 0 {
            match self.res_rx.recv() {
                Ok((slot, r)) => {
                    out[slot] = Some(r);
                    pending -= 1;
                }
                Err(_) => break,
            }
        }
        out.into_iter()
            .map(|r| r.unwrap_or_else(|| Err("worker thread terminated".to_string())))
            .collect()
    }
}

/// Spawn `workers` persistent worker threads, hand `body` a
/// [`PoolHandle`] for dispatching rounds of tasks to them, and join the
/// pool when `body` returns. `f(slot, task)` runs every task of slot
/// `slot` on that slot's dedicated thread — created once, reused across
/// all rounds — with the thread's buffer arena enabled for its lifetime,
/// so the steady-state training step allocates nothing.
///
/// Spawning cost is paid once per run instead of once per optimizer step,
/// and each replica's buffers stay on one thread forever. A panic inside
/// `f` is caught at the task boundary, before it can cross
/// `std::thread::scope`'s join, and tensor storage locks shrug off
/// poisoning (their writers only overwrite whole buffers), so one crashed
/// task cannot leak torn state into later rounds.
pub fn with_worker_pool<T, R, F, G, Out>(workers: usize, f: F, body: G) -> Out
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    G: FnOnce(&mut PoolHandle<T, R>) -> Out,
{
    let workers = workers.max(1);
    std::thread::scope(|s| {
        let (res_tx, res_rx) = mpsc::channel();
        let mut txs = Vec::with_capacity(workers);
        for slot in 0..workers {
            let (tx, task_rx) = mpsc::channel::<T>();
            txs.push(tx);
            let res_tx = res_tx.clone();
            let f = &f;
            s.spawn(move || {
                let _arena = aimts_tensor::arena::enable();
                while let Ok(task) = task_rx.recv() {
                    let r = catch_unwind(AssertUnwindSafe(|| f(slot, task))).map_err(panic_message);
                    if res_tx.send((slot, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);
        let mut pool = PoolHandle { txs, res_rx };
        body(&mut pool)
        // `pool` (with the task senders) drops here; workers see the
        // channel close, exit their loop, and the scope joins them.
    })
}

/// Deterministic per-micro-batch RNG seed (SplitMix64 finalizer), so the
/// augmentations a micro-batch draws depend only on `(base, epoch, index)`
/// — never on thread scheduling or worker count.
pub fn microbatch_seed(base: u64, epoch: u64, index: u64) -> u64 {
    let mut z = base
        ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_explicit_wins() {
        assert_eq!(worker_count(3), 3);
        assert_eq!(worker_count(1), 1);
    }

    #[test]
    fn worker_count_auto_is_positive() {
        assert!(worker_count(0) >= 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn all_reduce_mean_guarded_rejects_ragged() {
        let _ = all_reduce_mean_guarded(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn guarded_all_reduce_excludes_poisoned_buffers() {
        let clean = vec![vec![1.0, 2.0], vec![3.0, 6.0]];
        let (mean, excluded) = all_reduce_mean_guarded(&clean).unwrap();
        assert_eq!(mean, vec![2.0, 4.0]);
        assert_eq!(excluded, 0);

        let poisoned = vec![vec![1.0, 2.0], vec![f32::NAN, 6.0], vec![3.0, 10.0]];
        let (mean, excluded) = all_reduce_mean_guarded(&poisoned).unwrap();
        assert_eq!(mean, vec![2.0, 6.0]);
        assert_eq!(excluded, 1);

        let all_bad = vec![vec![f32::INFINITY], vec![f32::NAN]];
        assert!(all_reduce_mean_guarded(&all_bad).is_none());
    }

    #[test]
    fn guarded_all_reduce_survives_extreme_finite_values() {
        // Two MAX buffers overflow an f32 accumulator; the f64 path must
        // still return the finite mean (== f32::MAX).
        let buffers = vec![vec![f32::MAX], vec![f32::MAX]];
        let (mean, excluded) = all_reduce_mean_guarded(&buffers).unwrap();
        assert_eq!(excluded, 0);
        assert_eq!(mean, vec![f32::MAX]);
    }

    #[test]
    fn worker_pool_runs_rounds_in_slot_order() {
        let (r1, r2) = with_worker_pool(
            4,
            |slot, x: usize| slot * 100 + x,
            |pool| {
                assert_eq!(pool.workers(), 4);
                (pool.run_round(vec![1, 2, 3, 4]), pool.run_round(vec![5, 6]))
            },
        );
        let vals = |rs: Vec<Result<usize, String>>| -> Vec<usize> {
            rs.into_iter().map(|r| r.unwrap()).collect()
        };
        assert_eq!(vals(r1), vec![1, 102, 203, 304]);
        assert_eq!(vals(r2), vec![5, 106]);
    }

    #[test]
    fn worker_pool_contains_panics_and_workers_survive() {
        let (r1, r2) = with_worker_pool(
            2,
            |_slot, x: i32| {
                if x < 0 {
                    panic!("bad task {x}");
                }
                x * 2
            },
            |pool| (pool.run_round(vec![-1, 3]), pool.run_round(vec![4, 5])),
        );
        assert!(r1[0].as_ref().unwrap_err().contains("bad task -1"));
        assert_eq!(*r1[1].as_ref().unwrap(), 6);
        // Slot 0's thread survived the contained panic and served round 2.
        assert_eq!(*r2[0].as_ref().unwrap(), 8);
        assert_eq!(*r2[1].as_ref().unwrap(), 10);
    }

    #[test]
    fn worker_pool_reuses_threads_across_rounds() {
        let (a, b) = with_worker_pool(
            3,
            |_slot, _x: ()| std::thread::current().id(),
            |pool| {
                (
                    pool.run_round(vec![(), (), ()]),
                    pool.run_round(vec![(), (), ()]),
                )
            },
        );
        let ids_a: Vec<_> = a.into_iter().map(|r| r.unwrap()).collect();
        let ids_b: Vec<_> = b.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(ids_a, ids_b, "slot i must stay pinned to one thread");
        assert_ne!(ids_a[0], ids_a[1], "slots must be distinct threads");
        assert_ne!(ids_a[1], ids_a[2]);
    }

    #[test]
    fn worker_pool_threads_have_arena_enabled() {
        let on = with_worker_pool(
            1,
            |_slot, _x: ()| aimts_tensor::arena::is_enabled(),
            |pool| pool.run_round(vec![()]),
        );
        assert!(*on[0].as_ref().unwrap());
        // ...and it is per-thread: the caller's arena state is untouched.
        assert!(!aimts_tensor::arena::is_enabled());
    }

    #[test]
    fn microbatch_seed_is_deterministic_and_spread() {
        assert_eq!(microbatch_seed(7, 1, 2), microbatch_seed(7, 1, 2));
        assert_ne!(microbatch_seed(7, 1, 2), microbatch_seed(7, 1, 3));
        assert_ne!(microbatch_seed(7, 1, 2), microbatch_seed(7, 2, 2));
        assert_ne!(microbatch_seed(8, 1, 2), microbatch_seed(7, 1, 2));
    }
}
