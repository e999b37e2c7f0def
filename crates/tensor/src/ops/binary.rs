//! Broadcasting element-wise binary operations and scalar variants.

use std::borrow::Cow;

use crate::arena;
use crate::shape::{broadcast_shapes, expand_to, numel, reduce_grad_to_shape};
use crate::tensor::{read_pair, Tensor};

/// `data` (of `shape`) broadcast to `target`: borrowed when the shapes
/// already match, otherwise an arena copy for [`recycle_expanded`].
fn expanded<'a>(data: &'a [f32], shape: &[usize], target: &[usize]) -> Cow<'a, [f32]> {
    if shape == target {
        Cow::Borrowed(data)
    } else {
        Cow::Owned(expand_to(data, shape, target))
    }
}

/// Return an [`expanded`] copy to the arena.
fn recycle_expanded(v: Cow<'_, [f32]>) {
    if let Cow::Owned(v) = v {
        arena::recycle(v);
    }
}

/// One parent's gradient: `g` (at the output shape `os`) collected and
/// reduced to the parent's shape `to`.
fn reduced_grad(g: impl Iterator<Item = f32>, os: &[usize], to: &[usize]) -> Vec<f32> {
    let g = arena::map_collect(numel(os), g);
    if os == to {
        return g;
    }
    let r = reduce_grad_to_shape(&g, os, to);
    arena::recycle(g);
    r
}

/// Forward kernel for a broadcasting binary op.
fn zip_broadcast(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> (Vec<f32>, Vec<usize>) {
    #[expect(
        clippy::panic,
        reason = "shape mismatch is a caller programming error, caught in op tests"
    )]
    let out_shape = broadcast_shapes(a.shape(), b.shape()).unwrap_or_else(|| {
        panic!(
            "incompatible shapes for binary op: {:?} vs {:?}",
            a.shape(),
            b.shape()
        )
    });
    let (ad, bd) = read_pair(a, b);
    let ax = expanded(&ad, a.shape(), &out_shape);
    let bx = expanded(&bd, b.shape(), &out_shape);
    let out = arena::map_collect(ax.len(), ax.iter().zip(bx.iter()).map(|(&x, &y)| f(x, y)));
    recycle_expanded(ax);
    recycle_expanded(bx);
    (out, out_shape)
}

/// Backward of `maximum` (`first_wins = |x, y| x >= y`) or `minimum`
/// (`x <= y`): the gradient routes to the first argument where
/// `first_wins`, else to the second.
fn select_backward(
    node: &Tensor,
    gout: &[f32],
    os: &[usize],
    first_wins: impl Fn(f32, f32) -> bool,
) -> Vec<Option<Vec<f32>>> {
    let (a, b) = (&node.op_parents()[0], &node.op_parents()[1]);
    let (ad, bd) = read_pair(a, b);
    let ax = expanded(&ad, a.shape(), os);
    let bx = expanded(&bd, b.shape(), os);
    let first_wins = &first_wins;
    let routed = |to_first: bool| {
        gout.iter()
            .zip(ax.iter().zip(bx.iter()))
            .map(move |(&g, (&x, &y))| if first_wins(x, y) == to_first { g } else { 0.0 })
    };
    let ga = a
        .is_tracked()
        .then(|| reduced_grad(routed(true), os, a.shape()));
    let gb = b
        .is_tracked()
        .then(|| reduced_grad(routed(false), os, b.shape()));
    recycle_expanded(ax);
    recycle_expanded(bx);
    vec![ga, gb]
}

impl Tensor {
    /// Element-wise addition with NumPy broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let (out, out_shape) = zip_broadcast(self, other, |x, y| x + y);
        let os = out_shape.clone();
        Tensor::from_op(
            out,
            &out_shape,
            vec![self.clone(), other.clone()],
            Box::new(move |node, gout| {
                node.op_parents()
                    .iter()
                    .map(|p| {
                        p.is_tracked()
                            .then(|| reduce_grad_to_shape(gout, &os, p.shape()))
                    })
                    .collect()
            }),
        )
    }

    /// Element-wise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let (out, out_shape) = zip_broadcast(self, other, |x, y| x - y);
        let os = out_shape.clone();
        Tensor::from_op(
            out,
            &out_shape,
            vec![self.clone(), other.clone()],
            Box::new(move |node, gout| {
                let (a, b) = (&node.op_parents()[0], &node.op_parents()[1]);
                let ga = a
                    .is_tracked()
                    .then(|| reduce_grad_to_shape(gout, &os, a.shape()));
                let gb = b
                    .is_tracked()
                    .then(|| reduced_grad(gout.iter().map(|g| -g), &os, b.shape()));
                vec![ga, gb]
            }),
        )
    }

    /// Element-wise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        let (out, out_shape) = zip_broadcast(self, other, |x, y| x * y);
        let os = out_shape.clone();
        Tensor::from_op(
            out,
            &out_shape,
            vec![self.clone(), other.clone()],
            Box::new(move |node, gout| {
                let (a, b) = (&node.op_parents()[0], &node.op_parents()[1]);
                let (ad, bd) = read_pair(a, b);
                // d(x·y)/dx = y and d(x·y)/dy = x.
                let grad = |other: &[f32], other_shape: &[usize], to: &[usize]| {
                    let ox = expanded(other, other_shape, &os);
                    let g = reduced_grad(gout.iter().zip(ox.iter()).map(|(g, v)| g * v), &os, to);
                    recycle_expanded(ox);
                    g
                };
                let ga = a.is_tracked().then(|| grad(&bd, b.shape(), a.shape()));
                let gb = b.is_tracked().then(|| grad(&ad, a.shape(), b.shape()));
                vec![ga, gb]
            }),
        )
    }

    /// Element-wise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        let (out, out_shape) = zip_broadcast(self, other, |x, y| x / y);
        let os = out_shape.clone();
        Tensor::from_op(
            out,
            &out_shape,
            vec![self.clone(), other.clone()],
            Box::new(move |node, gout| {
                let (a, b) = (&node.op_parents()[0], &node.op_parents()[1]);
                let (ad, bd) = read_pair(a, b);
                let bx = expanded(&bd, b.shape(), &os);
                let ga = a.is_tracked().then(|| {
                    let g = gout.iter().zip(bx.iter()).map(|(g, y)| g / y);
                    reduced_grad(g, &os, a.shape())
                });
                let gb = b.is_tracked().then(|| {
                    let ax = expanded(&ad, a.shape(), &os);
                    let g = gout
                        .iter()
                        .zip(ax.iter().zip(bx.iter()))
                        .map(|(g, (x, y))| -g * x / (y * y));
                    let g = reduced_grad(g, &os, b.shape());
                    recycle_expanded(ax);
                    g
                });
                recycle_expanded(bx);
                vec![ga, gb]
            }),
        )
    }

    /// Element-wise maximum with broadcasting. Gradient routes to the larger
    /// input (ties split to the first argument).
    pub fn maximum(&self, other: &Tensor) -> Tensor {
        let (out, out_shape) = zip_broadcast(self, other, f32::max);
        let os = out_shape.clone();
        Tensor::from_op(
            out,
            &out_shape,
            vec![self.clone(), other.clone()],
            Box::new(move |node, gout| select_backward(node, gout, &os, |x, y| x >= y)),
        )
    }

    /// Element-wise minimum with broadcasting (ties to the first argument).
    pub fn minimum(&self, other: &Tensor) -> Tensor {
        let (out, out_shape) = zip_broadcast(self, other, f32::min);
        let os = out_shape.clone();
        Tensor::from_op(
            out,
            &out_shape,
            vec![self.clone(), other.clone()],
            Box::new(move |node, gout| select_backward(node, gout, &os, |x, y| x <= y)),
        )
    }

    // ----- scalar variants --------------------------------------------------

    /// `self + s` element-wise.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let d = self.data();
        let out = arena::map_collect(d.len(), d.iter().map(|x| x + s));
        drop(d);
        Tensor::from_op(
            out,
            self.shape(),
            vec![self.clone()],
            Box::new(|_, gout| vec![Some(arena::copy_of(gout))]),
        )
    }

    /// `self * s` element-wise.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        let d = self.data();
        let out = arena::map_collect(d.len(), d.iter().map(|x| x * s));
        drop(d);
        Tensor::from_op(
            out,
            self.shape(),
            vec![self.clone()],
            Box::new(move |_, gout| {
                vec![Some(arena::map_collect(
                    gout.len(),
                    gout.iter().map(|g| g * s),
                ))]
            }),
        )
    }

    /// `self / s` element-wise.
    pub fn div_scalar(&self, s: f32) -> Tensor {
        self.mul_scalar(1.0 / s)
    }

    /// `self * a + b` element-wise (fused affine).
    pub fn affine(&self, a: f32, b: f32) -> Tensor {
        let d = self.data();
        let out = arena::map_collect(d.len(), d.iter().map(|x| x * a + b));
        drop(d);
        Tensor::from_op(
            out,
            self.shape(),
            vec![self.clone()],
            Box::new(move |_, gout| {
                vec![Some(arena::map_collect(
                    gout.len(),
                    gout.iter().map(|g| g * a),
                ))]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![1., 2.], &[2]);
        let b = Tensor::from_vec(vec![10., 20.], &[2]);
        assert_eq!(a.add(&b).to_vec(), vec![11., 22.]);
    }

    #[test]
    fn add_broadcast_row() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::from_vec(vec![10., 20., 30.], &[3]);
        assert_eq!(a.add(&b).to_vec(), vec![11., 22., 33., 14., 25., 36.]);
    }

    #[test]
    fn mul_broadcast_col_backward() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]).requires_grad();
        let b = Tensor::from_vec(vec![2., 3.], &[2, 1]).requires_grad();
        a.mul(&b).sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![2., 2., 2., 3., 3., 3.]);
        assert_eq!(b.grad().unwrap(), vec![6., 15.]);
    }

    #[test]
    fn div_values() {
        let a = Tensor::from_vec(vec![6., 9.], &[2]);
        let b = Tensor::from_vec(vec![2., 3.], &[2]);
        assert_eq!(a.div(&b).to_vec(), vec![3., 3.]);
    }

    #[test]
    fn maximum_routes_grad() {
        let a = Tensor::from_vec(vec![1., 5.], &[2]).requires_grad();
        let b = Tensor::from_vec(vec![3., 2.], &[2]).requires_grad();
        a.maximum(&b).sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![0., 1.]);
        assert_eq!(b.grad().unwrap(), vec![1., 0.]);
    }

    #[test]
    fn scalar_ops() {
        let a = Tensor::from_vec(vec![1., 2.], &[2]).requires_grad();
        let y = a.affine(2.0, 1.0); // 2x + 1
        assert_eq!(y.to_vec(), vec![3., 5.]);
        y.sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![2., 2.]);
    }

    #[test]
    #[should_panic(expected = "incompatible shapes")]
    fn incompatible_shapes_panic() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4]);
        let _ = a.add(&b);
    }
}
