//! Softmax family, losses, and normalization composites.

use crate::arena;
use crate::tensor::Tensor;
use crate::EPS;

/// Row-wise stable softmax kernel.
fn softmax_rows(d: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = arena::zeroed(d.len());
    for r in 0..rows {
        let row = &d[r * cols..(r + 1) * cols];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0f32;
        for (o, &x) in out[r * cols..(r + 1) * cols].iter_mut().zip(row) {
            *o = (x - m).exp();
            denom += *o;
        }
        for o in &mut out[r * cols..(r + 1) * cols] {
            *o /= denom;
        }
    }
    out
}

/// Row-wise stable log-softmax kernel.
fn log_softmax_rows(d: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = arena::zeroed(d.len());
    for r in 0..rows {
        let row = &d[r * cols..(r + 1) * cols];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
        for (o, &x) in out[r * cols..(r + 1) * cols].iter_mut().zip(row) {
            *o = x - lse;
        }
    }
    out
}

impl Tensor {
    /// Numerically-stable softmax over the last dimension.
    pub fn softmax_last(&self) -> Tensor {
        let s = self.shape();
        #[expect(
            clippy::expect_used,
            reason = "0-d tensors never reach softmax: all callers pass batched activations"
        )]
        let cols = *s.last().expect("softmax on 0-d tensor");
        let rows = self.numel() / cols;
        let out = softmax_rows(&self.data(), rows, cols);
        Tensor::from_op(
            out,
            s,
            vec![self.clone()],
            Box::new(move |node, gout| {
                // dL/dx_i = y_i * (g_i - sum_j g_j y_j)
                let y = node.data();
                let mut g = arena::zeroed(y.len());
                for r in 0..rows {
                    let ys = &y[r * cols..(r + 1) * cols];
                    let gs = &gout[r * cols..(r + 1) * cols];
                    let dot: f32 = ys.iter().zip(gs).map(|(a, b)| a * b).sum();
                    for ((gi, yi), go) in g[r * cols..(r + 1) * cols].iter_mut().zip(ys).zip(gs) {
                        *gi = yi * (go - dot);
                    }
                }
                vec![Some(g)]
            }),
        )
    }

    /// Numerically-stable log-softmax over the last dimension.
    pub fn log_softmax_last(&self) -> Tensor {
        let s = self.shape();
        #[expect(
            clippy::expect_used,
            reason = "0-d tensors never reach softmax: all callers pass batched activations"
        )]
        let cols = *s.last().expect("log_softmax on 0-d tensor");
        let rows = self.numel() / cols;
        let out = log_softmax_rows(&self.data(), rows, cols);
        Tensor::from_op(
            out,
            s,
            vec![self.clone()],
            Box::new(move |node, gout| {
                // dL/dx_i = g_i - softmax(x)_i * sum_j g_j
                let logp = node.data();
                let mut g = arena::zeroed(logp.len());
                for r in 0..rows {
                    let lp = &logp[r * cols..(r + 1) * cols];
                    let gs = &gout[r * cols..(r + 1) * cols];
                    let gsum: f32 = gs.iter().sum();
                    for ((gi, &l), go) in g[r * cols..(r + 1) * cols].iter_mut().zip(lp).zip(gs) {
                        *gi = go - l.exp() * gsum;
                    }
                }
                vec![Some(g)]
            }),
        )
    }

    /// Negative log-likelihood given `[B, C]` log-probabilities and class
    /// targets; returns the mean over the batch.
    pub fn nll_loss(&self, targets: &[usize]) -> Tensor {
        assert_eq!(self.ndim(), 2, "nll_loss expects [B, C] log-probs");
        let (b, c) = (self.shape()[0], self.shape()[1]);
        assert_eq!(targets.len(), b, "targets length != batch");
        let d = self.data();
        let mut loss = 0f32;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < c, "target {t} out of range for {c} classes");
            loss -= d[r * c + t];
        }
        loss /= b as f32;
        drop(d);
        let tg = targets.to_vec();
        Tensor::from_op(
            vec![loss],
            &[],
            vec![self.clone()],
            Box::new(move |_, gout| {
                let mut g = vec![0f32; b * c];
                let scale = gout[0] / b as f32;
                for (r, &t) in tg.iter().enumerate() {
                    g[r * c + t] = -scale;
                }
                vec![Some(g)]
            }),
        )
    }

    /// Cross-entropy from raw logits `[B, C]` and class targets (mean).
    pub fn cross_entropy(&self, targets: &[usize]) -> Tensor {
        self.log_softmax_last().nll_loss(targets)
    }

    /// L2-normalize along `axis` so slices have unit Euclidean norm.
    ///
    /// This is the projection onto the unit hypersphere required by the
    /// paper's geodesic mixup (§IV-C.3); it is fully differentiable.
    pub fn l2_normalize(&self, axis: usize) -> Tensor {
        let norm = self.square().sum_axis(axis, true).add_scalar(EPS).sqrt();
        self.div(&norm)
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec(vec![1., 2., 3., 1000., 1001., 999.], &[2, 3]);
        let y = a.softmax_last().to_vec();
        let s0: f32 = y[..3].iter().sum();
        let s1: f32 = y[3..].iter().sum();
        assert!((s0 - 1.0).abs() < 1e-5 && (s1 - 1.0).abs() < 1e-5);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let a = Tensor::from_vec(vec![0.1, -0.4, 2.0], &[1, 3]);
        let l1 = a.log_softmax_last().to_vec();
        let l2: Vec<f32> = a.softmax_last().to_vec().iter().map(|x| x.ln()).collect();
        for (x, y) in l1.iter().zip(l2) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        let logits = Tensor::from_vec(vec![100., 0., 0., 0., 100., 0.], &[2, 3]);
        let loss = logits.cross_entropy(&[0, 1]);
        assert!(loss.item() < 1e-4);
    }

    #[test]
    fn cross_entropy_uniform_is_log_c() {
        let logits = Tensor::zeros(&[4, 5]);
        let loss = logits.cross_entropy(&[0, 1, 2, 3]);
        assert!((loss.item() - (5f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_direction() {
        let logits = Tensor::zeros(&[1, 3]).requires_grad();
        logits.cross_entropy(&[1]).backward();
        let g = logits.grad().unwrap();
        // Gradient pushes target logit up (negative grad) and others down.
        assert!(g[1] < 0.0 && g[0] > 0.0 && g[2] > 0.0);
        assert!((g.iter().sum::<f32>()).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_unit_norm() {
        let a = Tensor::from_vec(vec![3., 4., 0., 5.], &[2, 2]);
        let n = a.l2_normalize(1);
        let v = n.to_vec();
        assert!(((v[0] * v[0] + v[1] * v[1]).sqrt() - 1.0).abs() < 1e-4);
        assert!(((v[2] * v[2] + v[3] * v[3]).sqrt() - 1.0).abs() < 1e-4);
    }
}
