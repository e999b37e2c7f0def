//! # aimts-tensor
//!
//! A dense, row-major, `f32` n-dimensional tensor library with reverse-mode
//! automatic differentiation, written from scratch for the AimTS
//! reproduction. It provides exactly the operator set the paper's models
//! need — broadcasting element-wise arithmetic, (batched) matrix
//! multiplication, 1-D/2-D convolution and pooling, reductions, softmax,
//! and shape manipulation — each with a hand-written backward pass that is
//! verified against finite differences in the test suite.
//!
//! ## Design
//!
//! A [`Tensor`] is a cheaply clonable handle (`Arc`) to an immutable-shape
//! node; tensors are `Send + Sync` and node ids come from a process-wide
//! atomic counter, so graphs can be built and differentiated on worker
//! threads. Nodes created from operations record their parents and a
//! backward closure; [`Tensor::backward`] runs a topological sweep
//! accumulating gradients into every reachable leaf that was created with
//! [`Tensor::requires_grad`]. Gradient tracking can be suspended with
//! [`no_grad`], which skips graph construction entirely (used for
//! inference and evaluation loops); the toggle is per-thread.
//!
//! ```
//! use aimts_tensor::Tensor;
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).requires_grad();
//! let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
//! let loss = a.mul(&b).sum_all();
//! loss.backward();
//! assert_eq!(a.grad().unwrap(), vec![4.0, 5.0, 6.0]);
//! ```

// Library code must propagate errors, not panic: lock-order and autograd
// paths must stay panic-free. A panic that cannot happen carries an
// `#[expect]` with the reason; tests are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::let_underscore_must_use
    )
)]

mod autograd;
mod grad_check;
mod hotcell;
mod init;
mod tensor;

pub mod arena;
pub mod lockorder;
pub mod ops;
pub mod shape;
pub mod simd;

pub use autograd::{is_grad_enabled, no_grad, push_no_grad, NoGradGuard};
pub use grad_check::{check_gradients, numeric_gradient};
pub use shape::{broadcast_shapes, Shape};
pub use tensor::{read_pair, DataGuard, Tensor};

/// Numerical epsilon used by normalization and division-adjacent kernels.
pub const EPS: f32 = 1e-8;

/// True when every value in the slice is finite (no `NaN`, no `±inf`).
///
/// An `f32` is non-finite exactly when its exponent bits are all ones, so
/// the check is a branch-free mask-and-compare per element that the
/// compiler auto-vectorizes — cheap enough to guard every loss value and
/// flat gradient of a training step.
#[inline]
pub fn all_finite(xs: &[f32]) -> bool {
    const EXP_MASK: u32 = 0x7F80_0000;
    xs.iter().all(|x| x.to_bits() & EXP_MASK != EXP_MASK)
}

#[cfg(test)]
mod finite_tests {
    use super::all_finite;

    #[test]
    fn all_finite_classifies_specials() {
        assert!(all_finite(&[]));
        assert!(all_finite(&[0.0, -0.0, 1.5, f32::MAX, f32::MIN_POSITIVE]));
        // Subnormals are finite.
        assert!(all_finite(&[f32::from_bits(1)]));
        assert!(!all_finite(&[0.0, f32::NAN]));
        assert!(!all_finite(&[f32::INFINITY]));
        assert!(!all_finite(&[f32::NEG_INFINITY, 1.0]));
        // NaN payload variants are all caught.
        assert!(!all_finite(&[f32::from_bits(0x7F80_0001)]));
    }

    #[test]
    fn tensor_all_finite_matches_slice() {
        let t = super::Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert!(t.all_finite());
        t.set_data(&[1.0, f32::NAN]);
        assert!(!t.all_finite());
    }
}
