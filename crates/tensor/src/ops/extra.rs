//! Additional shape/sequence utilities: padding, flipping, cumulative
//! sums, and repetition — rounding out the operator surface for
//! downstream users of the substrate.

use crate::tensor::Tensor;

impl Tensor {
    /// Zero-pad the last dimension by `(left, right)` elements.
    pub fn pad_last(&self, left: usize, right: usize) -> Tensor {
        let s = self.shape();
        #[expect(
            clippy::expect_used,
            reason = "0-d tensors are rejected at construction by every caller path"
        )]
        let last = *s.last().expect("pad on 0-d tensor");
        let rows = self.numel() / last;
        let new_last = last + left + right;
        let d = self.data();
        let mut out = vec![0f32; rows * new_last];
        for r in 0..rows {
            out[r * new_last + left..r * new_last + left + last]
                .copy_from_slice(&d[r * last..(r + 1) * last]);
        }
        drop(d);
        let mut new_shape = s.to_vec();
        let nd = new_shape.len();
        new_shape[nd - 1] = new_last;
        Tensor::from_op(
            out,
            &new_shape,
            vec![self.clone()],
            Box::new(move |node, gout| {
                let n = node.op_parents()[0].numel();
                let last = n / rows;
                let mut g = vec![0f32; n];
                for r in 0..rows {
                    g[r * last..(r + 1) * last]
                        .copy_from_slice(&gout[r * new_last + left..r * new_last + left + last]);
                }
                vec![Some(g)]
            }),
        )
    }

    /// Reverse the last dimension (time reversal).
    pub fn flip_last(&self) -> Tensor {
        let s = self.shape().to_vec();
        #[expect(
            clippy::expect_used,
            reason = "0-d tensors are rejected at construction by every caller path"
        )]
        let last = *s.last().expect("flip on 0-d tensor");
        let rows = self.numel() / last;
        let d = self.data();
        let mut out = vec![0f32; d.len()];
        for r in 0..rows {
            for i in 0..last {
                out[r * last + i] = d[r * last + (last - 1 - i)];
            }
        }
        drop(d);
        Tensor::from_op(
            out,
            &s,
            vec![self.clone()],
            Box::new(move |_, gout| {
                let mut g = vec![0f32; gout.len()];
                for r in 0..rows {
                    for i in 0..last {
                        g[r * last + i] = gout[r * last + (last - 1 - i)];
                    }
                }
                vec![Some(g)]
            }),
        )
    }

    /// Cumulative sum along the last dimension.
    pub fn cumsum_last(&self) -> Tensor {
        let s = self.shape().to_vec();
        #[expect(
            clippy::expect_used,
            reason = "0-d tensors are rejected at construction by every caller path"
        )]
        let last = *s.last().expect("cumsum on 0-d tensor");
        let rows = self.numel() / last;
        let d = self.data();
        let mut out = vec![0f32; d.len()];
        for r in 0..rows {
            let mut acc = 0f32;
            for i in 0..last {
                acc += d[r * last + i];
                out[r * last + i] = acc;
            }
        }
        drop(d);
        Tensor::from_op(
            out,
            &s,
            vec![self.clone()],
            Box::new(move |_, gout| {
                // d out_j / d in_i = 1 for i <= j → reverse cumulative sum.
                let mut g = vec![0f32; gout.len()];
                for r in 0..rows {
                    let mut acc = 0f32;
                    for i in (0..last).rev() {
                        acc += gout[r * last + i];
                        g[r * last + i] = acc;
                    }
                }
                vec![Some(g)]
            }),
        )
    }

    /// Repeat the whole tensor `k` times along a new leading dimension.
    pub fn repeat_rows(&self, k: usize) -> Tensor {
        assert!(k >= 1);
        let mut target = vec![k];
        target.extend_from_slice(self.shape());
        self.unsqueeze(0).broadcast_to(&target)
    }
}

#[cfg(test)]
mod tests {
    use crate::{check_gradients, Tensor};

    #[test]
    fn pad_values_and_grad() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad();
        let y = x.pad_last(1, 2);
        assert_eq!(y.shape(), &[2, 5]);
        assert_eq!(y.to_vec(), vec![0., 1., 2., 0., 0., 0., 3., 4., 0., 0.]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![1.0; 4]);
    }

    #[test]
    fn flip_is_involution() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(x.flip_last().to_vec(), vec![3., 2., 1., 6., 5., 4.]);
        assert_eq!(x.flip_last().flip_last().to_vec(), x.to_vec());
    }

    #[test]
    fn cumsum_known() {
        let x = Tensor::from_vec(vec![1., 2., 3., 10., 20., 30.], &[2, 3]);
        assert_eq!(x.cumsum_last().to_vec(), vec![1., 3., 6., 10., 30., 60.]);
    }

    #[test]
    fn repeat_rows_shape_and_grad() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad();
        let y = x.repeat_rows(3);
        assert_eq!(y.shape(), &[3, 2]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![3.0, 3.0]);
    }

    #[test]
    fn gc_extra_ops() {
        let x = Tensor::randn(&[2, 5], 3);
        check_gradients(
            &|i| i[0].pad_last(2, 1).square().sum_all(),
            std::slice::from_ref(&x),
            1e-2,
            2e-2,
        );
        check_gradients(
            &|i| i[0].flip_last().square().sum_all(),
            std::slice::from_ref(&x),
            1e-2,
            2e-2,
        );
        check_gradients(&|i| i[0].cumsum_last().square().sum_all(), &[x], 1e-2, 2e-2);
    }
}
