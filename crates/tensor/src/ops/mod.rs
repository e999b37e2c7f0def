//! Operator implementations, grouped by family. Every differentiable op
//! installs a hand-written backward closure; all are covered by the
//! finite-difference tests in `tests/grad_checks.rs`.

mod binary;
mod conv;
mod extra;
mod matmul;
mod pool;
mod reduce;
mod shape_ops;
mod softmax;
pub(crate) mod unary;

pub use conv::{Conv1dSpec, Conv2dSpec};

#[cfg(test)]
mod tests {
    use crate::ops::{Conv1dSpec, Conv2dSpec};
    use crate::{arena, Tensor};

    /// Run `y`'s backward closure once on a ones seed. Returns which
    /// parents got a gradient and how many arena buffers the call took.
    fn backward_takes(y: &Tensor) -> (Vec<bool>, u64) {
        let graph = y.graph().expect("a tracked op output");
        let seed = vec![1.0; y.numel()];
        let before = arena::stats();
        let grads = (graph.backward)(y, &seed);
        let after = arena::stats();
        let taken = after.hits + after.misses - before.hits - before.misses;
        (grads.iter().map(Option::is_some).collect(), taken)
    }

    /// An untracked parent gets `None` from the backward, and no buffer is
    /// taken for its gradient. The direct conv lowerings take no scratch,
    /// so each takes exactly one buffer per tracked parent.
    #[test]
    fn untracked_parents_get_no_gradient_buffer() {
        let _scope = arena::enable();
        let x = Tensor::randn(&[2, 1, 8], 1);
        let w = Tensor::randn(&[3, 1, 3], 2).requires_grad();
        let b = Tensor::zeros(&[3]).requires_grad();
        let spec = Conv1dSpec::same(3, 1);
        let y = x.conv1d_direct(&w, Some(&b), spec);
        assert_eq!(backward_takes(&y), (vec![false, true, true], 2), "conv1d");
        let y = x.requires_grad().conv1d_direct(&w, Some(&b), spec);
        assert_eq!(backward_takes(&y), (vec![true, true, true], 3));
        let (slots, untracked) = backward_takes(&x.conv1d_im2col(&w, Some(&b), spec));
        let (_, tracked) = backward_takes(&x.requires_grad().conv1d_im2col(&w, Some(&b), spec));
        assert_eq!(slots, vec![false, true, true], "conv1d im2col");
        assert!(untracked < tracked, "{untracked} vs {tracked} buffers");

        let img = Tensor::randn(&[2, 3, 6, 6], 3);
        let w = Tensor::randn(&[4, 3, 3, 3], 4).requires_grad();
        let spec = Conv2dSpec {
            stride: 2,
            padding: 1,
        };
        let y = img.conv2d_direct(&w, None, spec);
        assert_eq!(backward_takes(&y), (vec![false, true], 1), "conv2d");
        let y = img.requires_grad().conv2d_direct(&w, None, spec);
        assert_eq!(backward_takes(&y), (vec![true, true], 2));
        let (slots, untracked) = backward_takes(&img.conv2d_im2col(&w, None, spec));
        let (_, tracked) = backward_takes(&img.requires_grad().conv2d_im2col(&w, None, spec));
        assert_eq!(slots, vec![false, true], "conv2d im2col");
        assert!(untracked < tracked, "{untracked} vs {tracked} buffers");

        // The encoder's moment pool: activations times a constant `[1, 1, T]`
        // weight. One buffer for the weight's expansion, one for the
        // activations' gradient, none for the weight's.
        let h = Tensor::randn(&[2, 3, 4], 5).requires_grad();
        let pos = Tensor::randn(&[1, 1, 4], 6);
        assert_eq!(backward_takes(&h.mul(&pos)), (vec![true, false], 2), "mul");
        let (slots, tracked) = backward_takes(&h.mul(&pos.requires_grad()));
        assert_eq!(slots, vec![true, true]);
        assert!(tracked > 2, "{tracked} buffers");
    }
}
