//! The [`Module`] trait: forward pass, parameter enumeration, and the
//! flat-buffer surface used by data-parallel training, plus the
//! [`Replicate`]/[`AnyModule`] traits for cloning modules onto workers,
//! and the [`ParamLayout`] that freezes a module's parameter enumeration.

use aimts_tensor::Tensor;

/// A neural-network component.
///
/// Parameters are leaf variables created with `requires_grad()`; cloning a
/// `Tensor` clones the handle, so optimizers and checkpoints observe the
/// same storage the module computes with.
pub trait Module {
    /// Compute the output for `x`.
    fn forward(&self, x: &Tensor) -> Tensor;

    /// All trainable parameters (handles, not copies).
    fn parameters(&self) -> Vec<Tensor> {
        let mut named = Vec::new();
        self.named_parameters("", &mut named);
        named.into_iter().map(|(_, t)| t).collect()
    }

    /// Parameters with hierarchical names (`prefix.child.weight`), used by
    /// checkpointing.
    fn named_parameters(&self, prefix: &str, out: &mut Vec<(String, Tensor)>);

    /// Toggle training-time behaviour (dropout, batch-norm statistics).
    fn set_training(&self, _training: bool) {}

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|p| p.numel()).sum()
    }

    /// Every parameter value concatenated in `parameters()` order. The
    /// inverse of [`Module::load_flat`]; used to ship master weights to
    /// worker replicas. The buffer is arena-backed when the calling thread
    /// has a pool enabled (see [`aimts_tensor::arena`]), so per-round
    /// snapshots recycle instead of reallocating.
    fn flat_parameters(&self) -> Vec<f32> {
        let params = self.parameters();
        let total: usize = params.iter().map(|p| p.numel()).sum();
        let mut out = aimts_tensor::arena::take(total);
        for p in &params {
            out.extend_from_slice(&p.data());
        }
        out
    }

    /// Overwrite every parameter from a buffer produced by
    /// [`Module::flat_parameters`] (of a module with identical structure).
    /// Panics if the total length differs.
    fn load_flat(&self, flat: &[f32]) {
        let params = self.parameters();
        let total: usize = params.iter().map(|p| p.numel()).sum();
        assert_eq!(
            flat.len(),
            total,
            "load_flat length mismatch: buffer has {} values, module has {total} parameters",
            flat.len()
        );
        let mut off = 0;
        for p in &params {
            let n = p.numel();
            p.set_data(&flat[off..off + n]);
            off += n;
        }
    }

    /// Accumulated gradients concatenated in `parameters()` order, with
    /// zeros for parameters that have no gradient yet. Pairs with
    /// [`Module::accumulate_flat_gradient`] for gradient all-reduce.
    fn flat_gradient(&self) -> Vec<f32> {
        let params = self.parameters();
        let total: usize = params.iter().map(|p| p.numel()).sum();
        let mut out = aimts_tensor::arena::take(total);
        for p in &params {
            match p.grad() {
                Some(g) => out.extend_from_slice(&g),
                None => out.resize(out.len() + p.numel(), 0f32),
            }
        }
        out
    }

    /// Add a flat gradient buffer (as produced by [`Module::flat_gradient`])
    /// into the parameters' `.grad` slots. Panics if the length differs.
    fn accumulate_flat_gradient(&self, flat: &[f32]) {
        let params = self.parameters();
        let total: usize = params.iter().map(|p| p.numel()).sum();
        assert_eq!(
            flat.len(),
            total,
            "accumulate_flat_gradient length mismatch: buffer has {} values, module has {total} parameters",
            flat.len()
        );
        let mut off = 0;
        for p in &params {
            let n = p.numel();
            p.accumulate_grad(&flat[off..off + n]);
            off += n;
        }
    }
}

/// Parameter enumeration frozen once: the handles, their flat-buffer
/// offsets, and the total scalar count.
///
/// `Module::parameters()` rebuilds the `named_parameters` tree (string
/// formatting included) on every call; the flat-exchange hot path calls it
/// four times per round. A `ParamLayout` captures that enumeration once —
/// parameter handles are `Arc`s onto the same storage, so data written
/// through the layout is visible to the module and vice versa. All four
/// flat methods are element-for-element identical to the [`Module`]
/// defaults.
pub struct ParamLayout {
    params: Vec<Tensor>,
    offsets: Vec<usize>,
    total: usize,
}

impl ParamLayout {
    /// Freeze `module`'s current parameter enumeration.
    pub fn of(module: &(impl Module + ?Sized)) -> Self {
        let params = module.parameters();
        let mut offsets = Vec::with_capacity(params.len());
        let mut total = 0usize;
        for p in &params {
            offsets.push(total);
            total += p.numel();
        }
        ParamLayout {
            params,
            offsets,
            total,
        }
    }

    /// [`Module::flat_parameters`] without the re-enumeration.
    pub fn flat_parameters(&self) -> Vec<f32> {
        let mut out = aimts_tensor::arena::take(self.total);
        for p in &self.params {
            out.extend_from_slice(&p.data());
        }
        out
    }

    /// [`Module::load_flat`] without the re-enumeration.
    pub fn load_flat(&self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.total,
            "load_flat length mismatch: buffer has {} values, layout has {} parameters",
            flat.len(),
            self.total
        );
        for (p, &off) in self.params.iter().zip(&self.offsets) {
            p.set_data(&flat[off..off + p.numel()]);
        }
    }

    /// [`Module::flat_gradient`] without the re-enumeration.
    pub fn flat_gradient(&self) -> Vec<f32> {
        let mut out = aimts_tensor::arena::take(self.total);
        for p in &self.params {
            match p.grad() {
                Some(g) => out.extend_from_slice(&g),
                None => out.resize(out.len() + p.numel(), 0f32),
            }
        }
        out
    }

    /// [`Module::accumulate_flat_gradient`] without the re-enumeration.
    pub fn accumulate_flat_gradient(&self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.total,
            "accumulate_flat_gradient length mismatch: buffer has {} values, layout has {} parameters",
            flat.len(),
            self.total
        );
        for (p, &off) in self.params.iter().zip(&self.offsets) {
            p.accumulate_grad(&flat[off..off + p.numel()]);
        }
    }

    /// Zero every parameter's accumulated gradient.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }
}

/// Deep copy with fresh parameter (and internal-state) storage.
///
/// A replica shares *nothing* with the original: forward/backward on the
/// replica never touches the original's buffers or gradients, which is what
/// lets each data-parallel worker own a private copy of the model.
pub trait Replicate {
    fn replicate(&self) -> Self;

    /// Deep copy with *frozen* parameter storage: every parameter is
    /// detached into an unlocked `Storage::Hot` buffer with no autograd
    /// tracking, and mode-dependent layers are pinned to eval behaviour.
    ///
    /// A frozen copy computes bitwise-identical forward outputs (same ops,
    /// same accumulation order) but its forward acquires zero
    /// `Storage::Shared` locks, which is what lets the serving path share
    /// one immutable model across threads without lock traffic. Frozen
    /// copies cannot be trained: their parameters take no gradients.
    fn freeze(&self) -> Self;
}

/// Object-safe module-with-replication, used by containers that hold
/// heterogeneous children (e.g. `Sequential`). Requires `Send + Sync` so
/// boxed children can cross thread boundaries with their parent module.
pub trait AnyModule: Module + Send + Sync {
    /// Boxed deep copy (see [`Replicate`]).
    fn replicate_boxed(&self) -> Box<dyn AnyModule>;

    /// Boxed frozen copy (see [`Replicate::freeze`]).
    fn freeze_boxed(&self) -> Box<dyn AnyModule>;
}

impl<M: Module + Replicate + Send + Sync + 'static> AnyModule for M {
    fn replicate_boxed(&self) -> Box<dyn AnyModule> {
        Box::new(self.replicate())
    }

    fn freeze_boxed(&self) -> Box<dyn AnyModule> {
        Box::new(self.freeze())
    }
}

/// Join a prefix and a leaf name with `.` (no leading dot for roots).
pub(crate) fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}
