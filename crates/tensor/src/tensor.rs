//! The [`Tensor`] handle and graph-node plumbing.
//!
//! Storage is `Arc`-based and node ids come from a process-wide atomic
//! counter, so tensors can be built, moved, and differentiated on any
//! thread. Graph bookkeeping (parents + backward op) is split into an
//! optional [`GraphNode`] attached only to op-produced tensors; leaves
//! (parameters, constants, detached copies) carry no graph state and are
//! `Send + Sync` by construction.

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::arena;
use crate::autograd;
use crate::hotcell::{HotCell, HotReadGuard};
use crate::lockorder;
use crate::shape::{self, Shape};
use crate::simd;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Ignore lock poisoning: a panicking worker thread aborts its own step,
/// and the plain `f32` buffers behind these locks are never left in a
/// torn state by our writers (they only overwrite whole slices).
fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn mutex_lock<T>(l: &Mutex<T>) -> MutexGuard<'_, T> {
    l.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Backward closure: given the node and the gradient flowing into it,
/// produce the gradient for each parent (`None` = parent gets no gradient).
///
/// `Send + Sync` so a graph built on a worker thread can run its reverse
/// sweep there (or be handed to another thread wholesale).
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor, &[f32]) -> Vec<Option<Vec<f32>>> + Send + Sync>;

/// Graph bookkeeping for op-produced nodes. Kept out of [`Inner`]'s data
/// fields so that leaf tensors pay nothing for autograd support.
pub(crate) struct GraphNode {
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward: BackwardFn,
}

/// Where a tensor's buffer lives.
///
/// The split is the core of the lock-free hot path: *variables* (master
/// and replica parameters, mutated by optimizers and `load_flat`, read
/// concurrently at the all-reduce boundary) keep the `RwLock` and stay
/// registered with the debug lock-order checker; everything else —
/// constants, op outputs, activations — is produced once on one thread
/// and read without any synchronization.
pub(crate) enum Storage {
    /// `RwLock`-guarded buffer; the only storage the lock-order checker
    /// still tracks. Used for `requires_grad` variables.
    Shared(RwLock<Vec<f32>>),
    /// Unsynchronized buffer with a debug-build aliasing checker.
    Hot(HotCell),
}

pub(crate) struct Inner {
    pub(crate) id: u64,
    pub(crate) data: Storage,
    pub(crate) shape: Shape,
    /// Accumulated gradient; only retained on leaf variables.
    pub(crate) grad: Mutex<Option<Vec<f32>>>,
    /// True for user-created leaves that should accumulate gradient.
    pub(crate) is_variable: bool,
    /// Present only on op outputs that participate in the autograd graph.
    pub(crate) graph: Option<GraphNode>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Hand hot buffers back to the thread-local arena so the next
        // step's activations reuse them instead of hitting the allocator.
        if let Storage::Hot(cell) = &mut self.data {
            arena::recycle(cell.take_buf());
        }
        if let Some(g) = self
            .grad
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            arena::recycle(g);
        }
    }
}

/// Read guard over a tensor's data buffer. For [`Storage::Shared`]
/// tensors this wraps the `RwLock` read guard and is registered with the
/// debug lock-order checker (see [`crate::lockorder`]); for
/// [`Storage::Hot`] tensors it is a zero-cost borrow (debug builds tally
/// readers to catch torn access). Derefs to `Vec<f32>`, so call sites use
/// it exactly like the raw guard it wraps.
pub struct DataGuard<'a> {
    repr: GuardRepr<'a>,
}

enum GuardRepr<'a> {
    Shared {
        // Field order matters: the lock guard must drop before the checker
        // token so the checker never reports a lock as released while held.
        guard: RwLockReadGuard<'a, Vec<f32>>,
        _token: lockorder::LockToken,
    },
    Hot(HotReadGuard<'a>),
}

impl Deref for DataGuard<'_> {
    type Target = Vec<f32>;

    #[inline]
    fn deref(&self) -> &Vec<f32> {
        match &self.repr {
            GuardRepr::Shared { guard, .. } => guard,
            GuardRepr::Hot(g) => g,
        }
    }
}

/// Acquire read guards on two tensors' data buffers in ascending id order
/// (the workspace-wide deadlock-freedom convention, enforced by
/// `aimts-lint` A002 and the debug lock-order checker), returning them in
/// *argument* order.
pub fn read_pair<'a>(a: &'a Tensor, b: &'a Tensor) -> (DataGuard<'a>, DataGuard<'a>) {
    if a.inner.id <= b.inner.id {
        let ga = a.data();
        let gb = b.data();
        (ga, gb)
    } else {
        let gb = b.data();
        let ga = a.data();
        (ga, gb)
    }
}

/// A dense row-major `f32` tensor; cheap to clone (shared handle).
///
/// See the crate docs for an overview. All operation methods live in the
/// [`crate::ops`] modules but are exposed as inherent methods.
#[derive(Clone)]
pub struct Tensor {
    pub(crate) inner: Arc<Inner>,
}

impl Tensor {
    // ----- construction ---------------------------------------------------

    /// Build a tensor from data in row-major order. Panics on size mismatch.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape::numel(shape),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            inner: Arc::new(Inner {
                id: next_id(),
                data: Storage::Hot(HotCell::new(data)),
                shape: shape.to_vec(),
                grad: Mutex::new(None),
                is_variable: false,
                graph: None,
            }),
        }
    }

    /// A scalar (0-d) tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::from_vec(vec![v], &[])
    }

    /// All zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::from_vec(vec![0.0; shape::numel(shape)], shape)
    }

    /// All ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::from_vec(vec![1.0; shape::numel(shape)], shape)
    }

    /// Constant fill.
    pub fn full(shape: &[usize], v: f32) -> Self {
        Tensor::from_vec(vec![v; shape::numel(shape)], shape)
    }

    /// Internal: build a non-leaf node from an op.
    pub(crate) fn from_op(
        data: Vec<f32>,
        shape: &[usize],
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Self {
        debug_assert_eq!(data.len(), shape::numel(shape));
        let track = autograd::is_grad_enabled() && parents.iter().any(|p| p.is_tracked());
        if !track {
            return Tensor::from_vec(data, shape);
        }
        Tensor {
            inner: Arc::new(Inner {
                id: next_id(),
                data: Storage::Hot(HotCell::new(data)),
                shape: shape.to_vec(),
                grad: Mutex::new(None),
                is_variable: false,
                graph: Some(GraphNode { parents, backward }),
            }),
        }
    }

    /// Mark this tensor as a trainable leaf variable. Returns a new handle
    /// that shares nothing with `self` (data is copied), accumulates
    /// gradient during [`Tensor::backward`], and is tracked by the graph.
    pub fn requires_grad(&self) -> Self {
        Tensor {
            inner: Arc::new(Inner {
                id: next_id(),
                data: Storage::Shared(RwLock::new(self.to_vec())),
                shape: self.inner.shape.clone(),
                grad: Mutex::new(None),
                is_variable: true,
                graph: None,
            }),
        }
    }

    /// A copy detached from the autograd graph (shares no graph state).
    pub fn detach(&self) -> Self {
        Tensor::from_vec(self.to_vec(), self.shape())
    }

    // ----- metadata -------------------------------------------------------

    /// Dimension sizes.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.inner.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.inner.shape.len()
    }

    /// Total element count.
    #[inline]
    pub fn numel(&self) -> usize {
        shape::numel(&self.inner.shape)
    }

    /// Unique node id (stable across the whole process).
    #[inline]
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Whether this tensor is a gradient-accumulating leaf.
    #[inline]
    pub fn is_variable(&self) -> bool {
        self.inner.is_variable
    }

    /// Whether this tensor participates in the autograd graph.
    #[inline]
    pub fn is_tracked(&self) -> bool {
        self.inner.is_variable || self.inner.graph.is_some()
    }

    /// Parents recorded by the producing op (empty for leaves).
    #[inline]
    pub(crate) fn op_parents(&self) -> &[Tensor] {
        self.inner.graph.as_ref().map_or(&[], |g| &g.parents)
    }

    /// Graph bookkeeping, if this is an op output.
    #[inline]
    pub(crate) fn graph(&self) -> Option<&GraphNode> {
        self.inner.graph.as_ref()
    }

    // ----- data access ----------------------------------------------------

    /// Borrow the underlying buffer. Variables take a shared read lock
    /// registered (in debug builds) with the lock-order checker; hot
    /// tensors borrow with zero synchronization. When two *variable*
    /// buffers are needed at once, go through [`read_pair`].
    pub fn data(&self) -> DataGuard<'_> {
        match &self.inner.data {
            Storage::Shared(lock) => {
                let token = lockorder::acquire(self.inner.id);
                DataGuard {
                    repr: GuardRepr::Shared {
                        // aimts-lint: allow(A002, storage match arms are exclusive: one guard per call)
                        guard: read_lock(lock),
                        _token: token,
                    },
                }
            }
            Storage::Hot(cell) => DataGuard {
                repr: GuardRepr::Hot(cell.read()),
            },
        }
    }

    /// Run `f` with exclusive access to the buffer, dispatching on the
    /// storage kind (write lock + checker token for variables, checked
    /// exclusive borrow for hot tensors).
    fn with_data_mut<R>(&self, f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
        match &self.inner.data {
            Storage::Shared(lock) => {
                let _token = lockorder::acquire(self.inner.id);
                // aimts-lint: allow(A002, storage match arms are exclusive: one guard per call)
                f(&mut write_lock(lock))
            }
            Storage::Hot(cell) => f(&mut cell.write()),
        }
    }

    /// Copy the underlying buffer out.
    pub fn to_vec(&self) -> Vec<f32> {
        self.data().clone()
    }

    /// The single value of a one-element tensor. Panics otherwise.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires a single-element tensor");
        self.data()[0]
    }

    /// Element at a multi-index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        let flat = shape::ravel(idx, self.shape());
        self.data()[flat]
    }

    /// Overwrite the buffer in place (used by optimizers). Panics if the
    /// length differs. Does not touch the graph.
    pub fn set_data(&self, data: &[f32]) {
        self.with_data_mut(|d| {
            assert_eq!(d.len(), data.len(), "set_data length mismatch");
            d.copy_from_slice(data);
        });
    }

    /// Apply `f` to the buffer in place (used by optimizers).
    pub fn update_data(&self, f: impl FnOnce(&mut [f32])) {
        self.with_data_mut(|d| f(d));
    }

    /// True when every element is finite (no `NaN`, no `±inf`).
    ///
    /// One branch-free pass over the buffer (see [`crate::all_finite`]);
    /// cheap enough to run on every loss/gradient of a training step.
    pub fn all_finite(&self) -> bool {
        crate::all_finite(&self.data())
    }

    /// Raw IEEE-754 bit patterns of the buffer, in element order.
    ///
    /// Unlike [`Tensor::to_vec`] followed by arithmetic, the bit patterns
    /// survive any value exactly — including `NaN` payloads and `±inf` —
    /// which is what binary checkpointing needs for bit-exact round-trips.
    pub fn data_bits(&self) -> Vec<u32> {
        self.data().iter().map(|x| x.to_bits()).collect()
    }

    /// Overwrite the buffer from raw bit patterns (inverse of
    /// [`Tensor::data_bits`]). Panics if the length differs.
    pub fn set_data_bits(&self, bits: &[u32]) {
        self.with_data_mut(|d| {
            assert_eq!(d.len(), bits.len(), "set_data_bits length mismatch");
            for (x, b) in d.iter_mut().zip(bits) {
                *x = f32::from_bits(*b);
            }
        });
    }

    // ----- gradient -------------------------------------------------------

    /// Accumulated gradient of a leaf variable, if any.
    pub fn grad(&self) -> Option<Vec<f32>> {
        let _token = lockorder::acquire(self.inner.id);
        mutex_lock(&self.inner.grad).clone()
    }

    /// Clear the accumulated gradient (the buffer returns to the arena).
    pub fn zero_grad(&self) {
        let _token = lockorder::acquire(self.inner.id);
        if let Some(g) = mutex_lock(&self.inner.grad).take() {
            arena::recycle(g);
        }
    }

    /// Overwrite the accumulated gradient (used by gradient clipping).
    pub fn set_grad(&self, g: &[f32]) {
        assert_eq!(g.len(), self.numel(), "set_grad length mismatch");
        let _token = lockorder::acquire(self.inner.id);
        let mut slot = mutex_lock(&self.inner.grad);
        match slot.as_mut() {
            Some(existing) => existing.copy_from_slice(g),
            None => *slot = Some(arena::copy_of(g)),
        }
    }

    /// Add `g` into the accumulated gradient (allocating it on first use).
    /// Panics if the length differs from the tensor's element count.
    pub fn accumulate_grad(&self, g: &[f32]) {
        assert_eq!(
            g.len(),
            self.numel(),
            "accumulate_grad length mismatch: gradient has {} elements, tensor has {}",
            g.len(),
            self.numel()
        );
        let _token = lockorder::acquire(self.inner.id);
        let mut slot = mutex_lock(&self.inner.grad);
        match slot.as_mut() {
            Some(existing) => simd::add_assign(existing, g),
            None => *slot = Some(arena::copy_of(g)),
        }
    }

    /// Run reverse-mode autodiff from this (scalar) tensor.
    ///
    /// Panics if the tensor has more than one element; use
    /// [`Tensor::backward_with`] to seed a non-scalar output.
    pub fn backward(&self) {
        assert_eq!(
            self.numel(),
            1,
            "backward() requires a scalar; use backward_with"
        );
        autograd::run_backward(self, &[1.0]);
    }

    /// Run reverse-mode autodiff seeding this tensor's gradient with `seed`.
    pub fn backward_with(&self, seed: &[f32]) {
        assert_eq!(seed.len(), self.numel(), "seed length mismatch");
        autograd::run_backward(self, seed);
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.data();
        let preview: Vec<f32> = d.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(shape={:?}, tracked={}, data={:?}{})",
            self.inner.shape,
            self.is_tracked(),
            preview,
            if d.len() > 8 { ", ..." } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_metadata() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.ndim(), 2);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert!(!t.is_tracked());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn construction_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![1., 2., 3.], &[2, 2]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(7.5).item(), 7.5);
        assert_eq!(Tensor::scalar(7.5).numel(), 1);
    }

    #[test]
    fn requires_grad_makes_tracked_leaf() {
        let t = Tensor::zeros(&[3]).requires_grad();
        assert!(t.is_tracked());
        assert!(t.is_variable());
        assert!(t.grad().is_none());
    }

    #[test]
    fn detach_breaks_tracking() {
        let t = Tensor::zeros(&[3]).requires_grad();
        assert!(!t.detach().is_tracked());
    }

    #[test]
    fn set_and_update_data() {
        let t = Tensor::zeros(&[2]);
        t.set_data(&[1.0, 2.0]);
        assert_eq!(t.to_vec(), vec![1.0, 2.0]);
        t.update_data(|d| d.iter_mut().for_each(|x| *x *= 3.0));
        assert_eq!(t.to_vec(), vec![3.0, 6.0]);
    }

    #[test]
    fn ids_unique_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| (0..64).map(|_| Tensor::zeros(&[1]).id()).collect()))
            .collect();
        let mut ids: Vec<u64> = Vec::new();
        for h in handles {
            let v: Vec<u64> = h.join().unwrap();
            ids.extend(v);
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4 * 64, "node ids collided across threads");
    }

    #[test]
    #[should_panic(expected = "accumulate_grad length mismatch")]
    fn accumulate_grad_rejects_short_gradient() {
        let t = Tensor::zeros(&[3]).requires_grad();
        t.accumulate_grad(&[1.0, 2.0]);
    }
}
