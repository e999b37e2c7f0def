//! Element-wise unary operations and activations.

use crate::arena;
use crate::autograd;
use crate::simd;
use crate::tensor::{read_pair, Tensor};

/// Scalar ReLU. `f32::max` returns its non-NaN operand, so a NaN input
/// maps to 0.
#[inline]
fn relu_scalar(x: f32) -> f32 {
    x.max(0.0)
}

/// sqrt(2/pi), the scale inside GELU's tanh approximation.
const GELU_C: f32 = 0.797_884_6;

/// The argument `C·(x + 0.044715·x³)` of GELU's tanh term.
#[inline]
fn gelu_tanh_arg(x: f32) -> f32 {
    GELU_C * (x + 0.044715 * x * x * x)
}

/// GELU output from `x` and its tanh term `t`.
#[inline]
fn gelu_from_tanh(x: f32, t: f32) -> f32 {
    0.5 * x * (1.0 + t)
}

/// GELU derivative from `x` and its tanh term `t`.
#[inline]
fn gelu_grad_from_tanh(x: f32, t: f32) -> f32 {
    let du = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// GELU over `x`, plus the tanh terms when `save` is set (the backward
/// will read them).
///
/// The tanh terms are computed in place by [`simd::tanh`]; unsaved, their
/// buffer is overwritten with the output, so the op takes one buffer.
fn gelu_forward(x: &[f32], save: bool) -> (Vec<f32>, Option<Vec<f32>>) {
    let mut t = arena::map_collect(x.len(), x.iter().map(|&v| gelu_tanh_arg(v)));
    simd::tanh(&mut t);
    if save {
        let y = x.iter().zip(&t).map(|(&v, &tv)| gelu_from_tanh(v, tv));
        return (arena::map_collect(x.len(), y), Some(t));
    }
    for (tv, &v) in t.iter_mut().zip(x) {
        *tv = gelu_from_tanh(v, *tv);
    }
    (t, None)
}

/// Build a unary op given forward `f` and derivative-from-input `df`.
fn unary(
    t: &Tensor,
    f: impl Fn(f32) -> f32,
    df: impl Fn(f32) -> f32 + Send + Sync + 'static,
) -> Tensor {
    let d = t.data();
    let out = arena::map_collect(d.len(), d.iter().map(|&x| f(x)));
    drop(d);
    Tensor::from_op(
        out,
        t.shape(),
        vec![t.clone()],
        Box::new(move |node, gout| {
            let x = node.op_parents()[0].data();
            vec![Some(arena::map_collect(
                gout.len(),
                gout.iter().zip(x.iter()).map(|(g, &xi)| g * df(xi)),
            ))]
        }),
    )
}

impl Tensor {
    /// Element-wise negation.
    pub fn neg(&self) -> Tensor {
        self.mul_scalar(-1.0)
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Tensor {
        let d = self.data();
        let out = arena::map_collect(d.len(), d.iter().map(|x| x.exp()));
        drop(d);
        // d/dx exp(x) = exp(x) = output, so reuse the node's own data.
        Tensor::from_op(
            out,
            self.shape(),
            vec![self.clone()],
            Box::new(|node, gout| {
                let y = node.data();
                vec![Some(arena::map_collect(
                    gout.len(),
                    gout.iter().zip(y.iter()).map(|(g, yi)| g * yi),
                ))]
            }),
        )
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Tensor {
        unary(self, |x| x.ln(), |x| 1.0 / x)
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor {
        let d = self.data();
        let out = arena::map_collect(d.len(), d.iter().map(|x| x.sqrt()));
        drop(d);
        Tensor::from_op(
            out,
            self.shape(),
            vec![self.clone()],
            Box::new(|node, gout| {
                let y = node.data();
                vec![Some(arena::map_collect(
                    gout.len(),
                    gout.iter()
                        .zip(y.iter())
                        .map(|(g, yi)| g * 0.5 / yi.max(1e-12)),
                ))]
            }),
        )
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        unary(self, |x| x * x, |x| 2.0 * x)
    }

    /// Element-wise absolute value (subgradient 0 at 0).
    pub fn abs(&self) -> Tensor {
        unary(self, f32::abs, |x| {
            if x > 0.0 {
                1.0
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Element-wise power with a constant exponent.
    pub fn powf(&self, p: f32) -> Tensor {
        unary(self, move |x| x.powf(p), move |x| p * x.powf(p - 1.0))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        unary(self, relu_scalar, |x| if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, alpha: f32) -> Tensor {
        unary(
            self,
            move |x| if x > 0.0 { x } else { alpha * x },
            move |x| if x > 0.0 { 1.0 } else { alpha },
        )
    }

    /// Gaussian error linear unit (tanh approximation, as used by GPT-style
    /// models; max error vs exact GELU < 1e-3).
    ///
    /// The tanh term is computed once per element. When the input is
    /// tracked under grad it is kept for the backward, which then needs no
    /// second tanh.
    pub fn gelu(&self) -> Tensor {
        let save = autograd::is_grad_enabled() && self.is_tracked();
        let (out, tanh) = gelu_forward(&self.data(), save);
        let tanh = tanh.map(|t| Tensor::from_vec(t, self.shape()));
        match tanh {
            Some(t) => Tensor::from_op(
                out,
                self.shape(),
                vec![self.clone()],
                Box::new(move |node, gout| {
                    let (x, t) = read_pair(&node.op_parents()[0], &t);
                    let g = gout.iter().zip(x.iter().zip(t.iter()));
                    vec![Some(arena::map_collect(
                        gout.len(),
                        g.map(|(g, (&xi, &ti))| g * gelu_grad_from_tanh(xi, ti)),
                    ))]
                }),
            ),
            // Nothing will differentiate through the output.
            None => Tensor::from_vec(out, self.shape()),
        }
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        let d = self.data();
        let out = arena::map_collect(d.len(), d.iter().map(|x| 1.0 / (1.0 + (-x).exp())));
        drop(d);
        Tensor::from_op(
            out,
            self.shape(),
            vec![self.clone()],
            Box::new(|node, gout| {
                let y = node.data();
                vec![Some(arena::map_collect(
                    gout.len(),
                    gout.iter().zip(y.iter()).map(|(g, yi)| g * yi * (1.0 - yi)),
                ))]
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        let d = self.data();
        let out = arena::map_collect(d.len(), d.iter().map(|x| x.tanh()));
        drop(d);
        Tensor::from_op(
            out,
            self.shape(),
            vec![self.clone()],
            Box::new(|node, gout| {
                let y = node.data();
                vec![Some(arena::map_collect(
                    gout.len(),
                    gout.iter().zip(y.iter()).map(|(g, yi)| g * (1.0 - yi * yi)),
                ))]
            }),
        )
    }

    /// Clamp into `[lo, hi]` (zero gradient outside the interval).
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        unary(
            self,
            move |x| x.clamp(lo, hi),
            move |x| if x >= lo && x <= hi { 1.0 } else { 0.0 },
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn exp_ln_roundtrip() {
        let a = Tensor::from_vec(vec![0.5, 1.0, 2.0], &[3]);
        let y = a.exp().ln();
        for (x, y) in a.to_vec().iter().zip(y.to_vec()) {
            assert!(close(*x, y));
        }
    }

    #[test]
    fn relu_forward_backward() {
        let a = Tensor::from_vec(vec![-1.0, 0.5], &[2]).requires_grad();
        let y = a.relu();
        assert_eq!(y.to_vec(), vec![0.0, 0.5]);
        y.sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn sigmoid_midpoint() {
        let y = Tensor::scalar(0.0).sigmoid();
        assert!(close(y.item(), 0.5));
    }

    #[test]
    fn tanh_backward() {
        let a = Tensor::scalar(0.0).requires_grad();
        a.tanh().backward();
        assert!(close(a.grad().unwrap()[0], 1.0));
    }

    #[test]
    fn gelu_values() {
        // GELU(0)=0, GELU(large)≈identity, GELU(-large)≈0.
        assert!(close(Tensor::scalar(0.0).gelu().item(), 0.0));
        assert!(close(Tensor::scalar(5.0).gelu().item(), 5.0));
        assert!(Tensor::scalar(-5.0).gelu().item().abs() < 1e-3);
    }

    /// Reference GELU whose output and derivative each compute tanh from
    /// `x`; the saved-tanh path must match it bit for bit.
    fn gelu_recomputed(x: f32) -> (f32, f32) {
        const C: f32 = 0.797_884_6;
        let y = 0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh());
        let u = C * (x + 0.044715 * x * x * x);
        let t = u.tanh();
        let du = C * (1.0 + 3.0 * 0.044715 * x * x);
        (y, 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
    }

    #[test]
    fn gelu_saved_tanh_matches_recomputed_formula_bitwise() {
        let xs = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE / 2.0,
            1e-3,
            -0.5,
            2.5,
            -9.0,
            30.0,
            1e4,
            -1e4,
            1e13,
            -1e13,
            f32::MAX,
            f32::MIN,
        ];
        let seed: Vec<f32> = (0..xs.len()).map(|i| [1.0, -0.75, 3.5e-2][i % 3]).collect();
        let a = Tensor::from_vec(xs.to_vec(), &[xs.len()]).requires_grad();
        let y = a.gelu();
        y.backward_with(&seed);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want_y: Vec<f32> = xs.iter().map(|&x| gelu_recomputed(x).0).collect();
        let want_g: Vec<f32> = xs
            .iter()
            .zip(&seed)
            .map(|(&x, &g)| g * gelu_recomputed(x).1)
            .collect();
        assert_eq!(bits(&y.to_vec()), bits(&want_y), "forward");
        assert_eq!(bits(&a.grad().unwrap()), bits(&want_g), "gradient");
    }

    #[test]
    fn gelu_saves_its_tanh_only_when_tracked_under_grad() {
        let _scope = crate::arena::enable();
        let buffers_taken = |f: &dyn Fn() -> Tensor| {
            let before = crate::arena::stats();
            let y = f();
            let after = crate::arena::stats();
            (y, after.hits + after.misses - before.hits - before.misses)
        };
        let a = Tensor::from_vec(vec![-1.0, 0.5], &[2]).requires_grad();
        let (y, n) = buffers_taken(&|| crate::no_grad(|| a.gelu()));
        assert_eq!((y.is_tracked(), n), (false, 1), "no_grad: output only");
        let (y, n) = buffers_taken(&|| a.detach().gelu());
        assert_eq!((y.is_tracked(), n), (false, 1), "untracked: output only");
        let (y, n) = buffers_taken(&|| a.gelu());
        assert_eq!((y.is_tracked(), n), (true, 2), "tracked: output and tanh");
    }

    #[test]
    fn clamp_gradient_mask() {
        let a = Tensor::from_vec(vec![-2.0, 0.5, 2.0], &[3]).requires_grad();
        a.clamp(-1.0, 1.0).sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn square_and_powf_agree() {
        let a = Tensor::from_vec(vec![1.5, 2.0], &[2]);
        assert_eq!(a.square().to_vec(), a.powf(2.0).to_vec());
    }
}
