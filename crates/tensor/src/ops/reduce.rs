//! Reductions: full and per-axis sums, means, max/min.

use crate::arena;
use crate::tensor::Tensor;

/// Decompose a shape around `axis` into (outer, axis_len, inner).
fn axis_split(shape: &[usize], axis: usize) -> (usize, usize, usize) {
    assert!(axis < shape.len(), "axis {axis} out of range for {shape:?}");
    let outer: usize = shape[..axis].iter().product();
    let inner: usize = shape[axis + 1..].iter().product();
    (outer, shape[axis], inner)
}

/// Rows a last-axis reduction runs side by side. Each row is one
/// dependent chain of adds or compares; interleaving independent rows
/// keeps the FPU busy while every row still sees its own order.
const ROWS: usize = 8;

/// Sum of `d`, viewed as `[outer, ax, inner]`, over its middle axis. Each
/// output element starts at 0.0 and adds its `ax` inputs in ascending
/// order.
fn sum_axis_kernel(d: &[f32], outer: usize, ax: usize, inner: usize) -> Vec<f32> {
    let mut out = arena::zeroed(outer * inner);
    let blocked = if inner == 1 { outer / ROWS * ROWS } else { 0 };
    for o in (0..blocked).step_by(ROWS) {
        let mut acc = [0f32; ROWS];
        for a in 0..ax {
            for (r, s) in acc.iter_mut().enumerate() {
                *s += d[(o + r) * ax + a];
            }
        }
        out[o..o + ROWS].copy_from_slice(&acc);
    }
    for o in blocked..outer {
        for a in 0..ax {
            let base = (o * ax + a) * inner;
            let obase = o * inner;
            for i in 0..inner {
                out[obase + i] += d[base + i];
            }
        }
    }
    out
}

fn reduced_shape(shape: &[usize], axis: usize, keepdim: bool) -> Vec<usize> {
    let mut s = shape.to_vec();
    if keepdim {
        s[axis] = 1;
    } else {
        s.remove(axis);
    }
    s
}

impl Tensor {
    /// Sum of all elements (scalar output).
    pub fn sum_all(&self) -> Tensor {
        let s: f32 = self.data().iter().sum();
        let n = self.numel();
        Tensor::from_op(
            vec![s],
            &[],
            vec![self.clone()],
            Box::new(move |_, gout| {
                let mut g = arena::take(n);
                g.resize(n, gout[0]);
                vec![Some(g)]
            }),
        )
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&self) -> Tensor {
        let n = self.numel() as f32;
        self.sum_all().div_scalar(n)
    }

    /// Sum along `axis`.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let (outer, ax, inner) = axis_split(self.shape(), axis);
        let out = sum_axis_kernel(&self.data(), outer, ax, inner);
        let oshape = reduced_shape(self.shape(), axis, keepdim);
        Tensor::from_op(
            out,
            &oshape,
            vec![self.clone()],
            Box::new(move |node, gout| {
                // Every input element receives a copy of its output's
                // gradient: whole rows of one value when `inner == 1`.
                let mut g = arena::take(node.op_parents()[0].numel());
                for src in gout.chunks_exact(inner.max(1)) {
                    if inner == 1 {
                        g.resize(g.len() + ax, src[0]);
                    } else {
                        for _ in 0..ax {
                            g.extend_from_slice(src);
                        }
                    }
                }
                vec![Some(g)]
            }),
        )
    }

    /// Mean along `axis`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let ax = self.shape()[axis] as f32;
        self.sum_axis(axis, keepdim).div_scalar(ax)
    }

    /// Max along `axis`; gradient flows to the (first) arg-max element.
    pub fn max_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let (outer, ax, inner) = axis_split(self.shape(), axis);
        // Forward scan: strict `>` keeps the first arg-max on ties. The
        // backward closure re-runs the same scan over the parent's data
        // instead of capturing the indices, so the forward keeps no index
        // buffer alive for the graph's lifetime.
        let scan = move |d: &[f32]| -> (Vec<f32>, Vec<usize>) {
            let mut out = arena::take(outer * inner);
            out.resize(outer * inner, f32::NEG_INFINITY);
            let mut arg = vec![0usize; outer * inner];
            let blocked = if inner == 1 { outer / ROWS * ROWS } else { 0 };
            for o in (0..blocked).step_by(ROWS) {
                let mut best = [f32::NEG_INFINITY; ROWS];
                let mut at = [0usize; ROWS];
                for a in 0..ax {
                    for r in 0..ROWS {
                        let i = (o + r) * ax + a;
                        if d[i] > best[r] {
                            best[r] = d[i];
                            at[r] = i;
                        }
                    }
                }
                out[o..o + ROWS].copy_from_slice(&best);
                arg[o..o + ROWS].copy_from_slice(&at);
            }
            for o in blocked..outer {
                for a in 0..ax {
                    let base = (o * ax + a) * inner;
                    let obase = o * inner;
                    for i in 0..inner {
                        if d[base + i] > out[obase + i] {
                            out[obase + i] = d[base + i];
                            arg[obase + i] = base + i;
                        }
                    }
                }
            }
            (out, arg)
        };
        let (out, _) = scan(&self.data());
        let oshape = reduced_shape(self.shape(), axis, keepdim);
        Tensor::from_op(
            out,
            &oshape,
            vec![self.clone()],
            Box::new(move |node, gout| {
                let parent = &node.op_parents()[0];
                let n = parent.numel();
                let (mx, arg) = scan(&parent.data());
                arena::recycle(mx);
                let mut g = arena::zeroed(n);
                for (oi, &src) in arg.iter().enumerate() {
                    g[src] += gout[oi];
                }
                vec![Some(g)]
            }),
        )
    }

    /// Min along `axis`; gradient flows to the (first) arg-min element.
    pub fn min_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        self.neg().max_axis(axis, keepdim).neg()
    }

    /// Maximum element of the whole tensor (non-differentiable helper).
    pub fn max_all_value(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element of the whole tensor (non-differentiable helper).
    pub fn min_all_value(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum along `axis` (non-differentiable).
    pub fn argmax_axis(&self, axis: usize) -> Vec<usize> {
        let (outer, ax, inner) = axis_split(self.shape(), axis);
        let d = self.data();
        let mut arg = vec![0usize; outer * inner];
        let mut best = vec![f32::NEG_INFINITY; outer * inner];
        for o in 0..outer {
            for a in 0..ax {
                let base = (o * ax + a) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    if d[base + i] > best[obase + i] {
                        best[obase + i] = d[base + i];
                        arg[obase + i] = a;
                    }
                }
            }
        }
        arg
    }

    /// Variance along `axis` (population, ddof = 0), differentiable.
    pub fn var_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let mean = self.mean_axis(axis, true);
        let centered = self.sub(&mean);
        centered.square().mean_axis(axis, keepdim)
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn sum_all_backward() {
        let a = Tensor::from_vec(vec![1., 2., 3.], &[3]).requires_grad();
        let s = a.sum_all();
        assert_eq!(s.item(), 6.0);
        s.backward();
        assert_eq!(a.grad().unwrap(), vec![1., 1., 1.]);
    }

    #[test]
    fn sum_axis_rows_cols() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(a.sum_axis(0, false).to_vec(), vec![5., 7., 9.]);
        assert_eq!(a.sum_axis(1, false).to_vec(), vec![6., 15.]);
        assert_eq!(a.sum_axis(1, true).shape(), &[2, 1]);
    }

    #[test]
    fn mean_axis_values() {
        let a = Tensor::from_vec(vec![1., 3., 5., 7.], &[2, 2]);
        assert_eq!(a.mean_axis(1, false).to_vec(), vec![2., 6.]);
    }

    #[test]
    fn max_axis_routes_grad_to_argmax() {
        let a = Tensor::from_vec(vec![1., 9., 4., 2.], &[2, 2]).requires_grad();
        let m = a.max_axis(1, false);
        assert_eq!(m.to_vec(), vec![9., 4.]);
        m.sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![0., 1., 1., 0.]);
    }

    /// The last-axis kernels run 8 rows side by side, then a tail. Pin
    /// them to a row-by-row reference: sums in each row's order from 0.0,
    /// the first arg-max on a tie, and a row with nothing above −inf,
    /// whose gradient lands on flat element 0 as it always has.
    #[test]
    fn last_axis_sum_and_max_match_row_by_row_reference() {
        let (rows, len) = (19, 5);
        let mut d = Tensor::randn(&[rows * len], 7).to_vec();
        d[3 * len + 1] = 9.0;
        d[3 * len + 3] = 9.0;
        d[5 * len..6 * len].fill(f32::NEG_INFINITY);
        d[12 * len..13 * len].fill(-0.0);
        d[14 * len..15 * len].copy_from_slice(&[-0.0, 0.0, -0.0, 0.0, -0.0]);
        d[17 * len..18 * len].copy_from_slice(&[0.1, -0.1, 1e8, -1e8, 3.0]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let seed: Vec<f32> = (0..rows).map(|r| r as f32 - 4.5).collect();
        let mut want_sum = Vec::new();
        let mut want_max = Vec::new();
        let mut want_max_grad = vec![0.0f32; rows * len];
        for (r, row) in d.chunks(len).enumerate() {
            want_sum.push(row.iter().fold(0.0f32, |acc, &v| acc + v));
            let (mut best, mut at) = (f32::NEG_INFINITY, 0);
            for (i, &v) in row.iter().enumerate() {
                if v > best {
                    (best, at) = (v, r * len + i);
                }
            }
            want_max.push(best);
            want_max_grad[at] += seed[r];
        }
        let want_sum_grad: Vec<f32> = seed.iter().flat_map(|&g| [g; 5]).collect();

        let x = Tensor::from_vec(d.clone(), &[rows, len]).requires_grad();
        let s = x.sum_axis(1, false);
        assert_eq!(bits(&s.to_vec()), bits(&want_sum), "sum");
        s.backward_with(&seed);
        assert_eq!(bits(&x.grad().unwrap()), bits(&want_sum_grad), "sum grad");
        let x = Tensor::from_vec(d, &[rows, len]).requires_grad();
        let m = x.max_axis(1, false);
        assert_eq!(bits(&m.to_vec()), bits(&want_max), "max");
        m.backward_with(&seed);
        assert_eq!(bits(&x.grad().unwrap()), bits(&want_max_grad), "max grad");
    }

    #[test]
    fn argmax_per_row() {
        let a = Tensor::from_vec(vec![1., 9., 4., 2., 0., 7.], &[2, 3]);
        assert_eq!(a.argmax_axis(1), vec![1, 2]);
    }

    #[test]
    fn var_axis_known() {
        let a = Tensor::from_vec(vec![1., 3.], &[1, 2]);
        let v = a.var_axis(1, false);
        assert!((v.to_vec()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn middle_axis_sum() {
        let a = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        let s = a.sum_axis(1, false);
        assert_eq!(s.shape(), &[2, 4]);
        assert_eq!(s.to_vec()[0], 0.0 + 4.0 + 8.0);
    }
}
