//! Shape manipulation: reshape, permute, concat, slice, stack, select.

use crate::arena;
use crate::shape::{numel, strides};
use crate::tensor::Tensor;

impl Tensor {
    /// View the same data under a new shape (element count must match).
    pub fn reshape(&self, new_shape: &[usize]) -> Tensor {
        assert_eq!(
            self.numel(),
            numel(new_shape),
            "reshape {:?} -> {:?} changes element count",
            self.shape(),
            new_shape
        );
        Tensor::from_op(
            self.to_vec(),
            new_shape,
            vec![self.clone()],
            Box::new(|_, gout| vec![Some(arena::copy_of(gout))]),
        )
    }

    /// Insert a size-1 dimension at `axis`.
    pub fn unsqueeze(&self, axis: usize) -> Tensor {
        let mut s = self.shape().to_vec();
        assert!(axis <= s.len());
        s.insert(axis, 1);
        self.reshape(&s)
    }

    /// Remove a size-1 dimension at `axis`.
    pub fn squeeze(&self, axis: usize) -> Tensor {
        let mut s = self.shape().to_vec();
        assert_eq!(s[axis], 1, "squeeze axis {axis} has size {}", s[axis]);
        s.remove(axis);
        self.reshape(&s)
    }

    /// Permute dimensions (generalized transpose). Materializes the data.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let nd = self.ndim();
        assert_eq!(perm.len(), nd, "permutation length mismatch");
        let mut seen = vec![false; nd];
        for &p in perm {
            assert!(p < nd && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let in_shape = self.shape().to_vec();
        let out_shape: Vec<usize> = perm.iter().map(|&p| in_shape[p]).collect();
        let in_str = strides(&in_shape);
        let out_str = strides(&out_shape);
        let d = self.data();
        let mut out = arena::zeroed(self.numel());
        for (oi, slot) in out.iter_mut().enumerate() {
            let mut rem = oi;
            let mut src = 0usize;
            for (dim, &os) in out_str.iter().enumerate() {
                let coord = rem / os;
                rem %= os;
                src += coord * in_str[perm[dim]];
            }
            *slot = d[src];
        }
        drop(d);
        let perm_owned = perm.to_vec();
        Tensor::from_op(
            out,
            &out_shape,
            vec![self.clone()],
            Box::new(move |node, gout| {
                // Backward permutes the gradient with the inverse permutation.
                let nd = perm_owned.len();
                let mut inv = vec![0usize; nd];
                for (i, &p) in perm_owned.iter().enumerate() {
                    inv[p] = i;
                }
                let parent = &node.op_parents()[0];
                let in_shape = parent.shape();
                let out_shape: Vec<usize> = perm_owned.iter().map(|&p| in_shape[p]).collect();
                let out_str = strides(&out_shape);
                let in_str = strides(in_shape);
                let mut g = arena::zeroed(parent.numel());
                for (oi, &gv) in gout.iter().enumerate() {
                    let mut rem = oi;
                    let mut src = 0usize;
                    for (dim, &os) in out_str.iter().enumerate() {
                        let coord = rem / os;
                        rem %= os;
                        src += coord * in_str[perm_owned[dim]];
                    }
                    g[src] = gv;
                }
                vec![Some(g)]
            }),
        )
    }

    /// Swap two dimensions.
    pub fn transpose(&self, a: usize, b: usize) -> Tensor {
        let mut perm: Vec<usize> = (0..self.ndim()).collect();
        perm.swap(a, b);
        self.permute(&perm)
    }

    /// Concatenate along `axis`. All other dimensions must match.
    pub fn concat(tensors: &[Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let nd = tensors[0].ndim();
        for t in tensors {
            assert_eq!(t.ndim(), nd, "concat rank mismatch");
            for d in 0..nd {
                if d != axis {
                    assert_eq!(
                        t.shape()[d],
                        tensors[0].shape()[d],
                        "concat dim {d} mismatch"
                    );
                }
            }
        }
        let outer: usize = tensors[0].shape()[..axis].iter().product();
        let inner: usize = tensors[0].shape()[axis + 1..].iter().product();
        let ax_total: usize = tensors.iter().map(|t| t.shape()[axis]).sum();
        let mut out_shape = tensors[0].shape().to_vec();
        out_shape[axis] = ax_total;
        let mut out = arena::zeroed(outer * ax_total * inner);
        let mut offset = 0usize;
        for t in tensors {
            let ax = t.shape()[axis];
            let d = t.data();
            for o in 0..outer {
                let src = &d[o * ax * inner..(o + 1) * ax * inner];
                let dst_base = (o * ax_total + offset) * inner;
                out[dst_base..dst_base + ax * inner].copy_from_slice(src);
            }
            offset += ax;
        }
        let sizes: Vec<usize> = tensors.iter().map(|t| t.shape()[axis]).collect();
        Tensor::from_op(
            out,
            &out_shape,
            tensors.to_vec(),
            Box::new(move |_, gout| {
                let mut grads = Vec::with_capacity(sizes.len());
                let mut offset = 0usize;
                for &ax in &sizes {
                    let mut g = arena::zeroed(outer * ax * inner);
                    for o in 0..outer {
                        let src_base = (o * ax_total + offset) * inner;
                        g[o * ax * inner..(o + 1) * ax * inner]
                            .copy_from_slice(&gout[src_base..src_base + ax * inner]);
                    }
                    grads.push(Some(g));
                    offset += ax;
                }
                grads
            }),
        )
    }

    /// Stack tensors of identical shape along a new leading `axis`.
    pub fn stack(tensors: &[Tensor], axis: usize) -> Tensor {
        let unsqueezed: Vec<Tensor> = tensors.iter().map(|t| t.unsqueeze(axis)).collect();
        Tensor::concat(&unsqueezed, axis)
    }

    /// Slice `[start, end)` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Tensor {
        let s = self.shape();
        assert!(
            axis < s.len() && start <= end && end <= s[axis],
            "bad slice"
        );
        let outer: usize = s[..axis].iter().product();
        let inner: usize = s[axis + 1..].iter().product();
        let ax = s[axis];
        let width = end - start;
        let mut out_shape = s.to_vec();
        out_shape[axis] = width;
        let d = self.data();
        let mut out = arena::zeroed(outer * width * inner);
        for o in 0..outer {
            let src_base = (o * ax + start) * inner;
            out[o * width * inner..(o + 1) * width * inner]
                .copy_from_slice(&d[src_base..src_base + width * inner]);
        }
        drop(d);
        Tensor::from_op(
            out,
            &out_shape,
            vec![self.clone()],
            Box::new(move |node, gout| {
                let mut g = arena::zeroed(node.op_parents()[0].numel());
                for o in 0..outer {
                    let dst_base = (o * ax + start) * inner;
                    g[dst_base..dst_base + width * inner]
                        .copy_from_slice(&gout[o * width * inner..(o + 1) * width * inner]);
                }
                vec![Some(g)]
            }),
        )
    }

    /// Gather rows along `axis` by index (indices may repeat).
    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Tensor {
        let s = self.shape();
        let outer: usize = s[..axis].iter().product();
        let inner: usize = s[axis + 1..].iter().product();
        let ax = s[axis];
        for &i in indices {
            assert!(i < ax, "index {i} out of bounds for axis of size {ax}");
        }
        let mut out_shape = s.to_vec();
        out_shape[axis] = indices.len();
        let k = indices.len();
        let d = self.data();
        let mut out = arena::zeroed(outer * k * inner);
        for o in 0..outer {
            for (j, &i) in indices.iter().enumerate() {
                let src = (o * ax + i) * inner;
                let dst = (o * k + j) * inner;
                out[dst..dst + inner].copy_from_slice(&d[src..src + inner]);
            }
        }
        drop(d);
        let idx = indices.to_vec();
        Tensor::from_op(
            out,
            &out_shape,
            vec![self.clone()],
            Box::new(move |node, gout| {
                let mut g = arena::zeroed(node.op_parents()[0].numel());
                for o in 0..outer {
                    for (j, &i) in idx.iter().enumerate() {
                        let dst = (o * ax + i) * inner;
                        let src = (o * idx.len() + j) * inner;
                        for t in 0..inner {
                            g[dst + t] += gout[src + t];
                        }
                    }
                }
                vec![Some(g)]
            }),
        )
    }

    /// Broadcast (expand) to `target` shape, materializing the data.
    pub fn broadcast_to(&self, target: &[usize]) -> Tensor {
        let data = crate::shape::expand_to(&self.data(), self.shape(), target);
        let from = self.shape().to_vec();
        let tgt = target.to_vec();
        Tensor::from_op(
            data,
            target,
            vec![self.clone()],
            Box::new(move |_, gout| {
                vec![Some(crate::shape::reduce_grad_to_shape(gout, &tgt, &from))]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn reshape_roundtrip_backward() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]).requires_grad();
        a.reshape(&[4]).mul_scalar(2.0).sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![2., 2., 2., 2.]);
    }

    #[test]
    fn transpose_2d() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let t = a.transpose(0, 1);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.to_vec(), vec![1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn permute_3d_backward() {
        let a = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).requires_grad();
        let p = a.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), a.at(&[0, 2, 1]));
        p.sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![1.0; 24]);
    }

    #[test]
    fn concat_axis1() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let b = Tensor::from_vec(vec![5., 6.], &[2, 1]);
        let c = Tensor::concat(&[a, b], 1);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.to_vec(), vec![1., 2., 5., 3., 4., 6.]);
    }

    #[test]
    fn concat_backward_splits() {
        let a = Tensor::from_vec(vec![1., 2.], &[1, 2]).requires_grad();
        let b = Tensor::from_vec(vec![3.], &[1, 1]).requires_grad();
        let c = Tensor::concat(&[a.clone(), b.clone()], 1);
        c.mul(&Tensor::from_vec(vec![10., 20., 30.], &[1, 3]))
            .sum_all()
            .backward();
        assert_eq!(a.grad().unwrap(), vec![10., 20.]);
        assert_eq!(b.grad().unwrap(), vec![30.]);
    }

    #[test]
    fn stack_new_axis() {
        let a = Tensor::ones(&[3]);
        let b = Tensor::zeros(&[3]);
        let s = Tensor::stack(&[a, b], 0);
        assert_eq!(s.shape(), &[2, 3]);
    }

    #[test]
    fn slice_middle() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let s = a.slice_axis(1, 1, 3);
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(s.to_vec(), vec![1., 2., 5., 6., 9., 10.]);
    }

    #[test]
    fn index_select_repeats_accumulate() {
        let a = Tensor::from_vec(vec![1., 2., 3.], &[3]).requires_grad();
        let g = a.index_select(0, &[0, 0, 2]);
        assert_eq!(g.to_vec(), vec![1., 1., 3.]);
        g.sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![2., 0., 1.]);
    }

    #[test]
    fn broadcast_to_backward_sums() {
        let a = Tensor::from_vec(vec![1., 2.], &[2]).requires_grad();
        let b = a.broadcast_to(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        b.sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![3., 3.]);
    }
}
