//! Geodesic (spherical) mixup of image and series representations
//! (paper Eq. 9): `m_λ(u, v) = u·sin(λθ)/sin(θ) + v·sin((1−λ)θ)/sin(θ)`
//! with `θ = arccos(u · v)`, producing points on the unit hypersphere
//! between the two modality subspaces.

use aimts_eval::sample_beta;
use aimts_tensor::{arena, read_pair, Tensor};
use rand::rngs::StdRng;

/// Per-row slerp coefficients `(cu, cv)` for rows of `u`/`v` (`[B, P]`)
/// and mixing weights `lambdas[b]` — the CPU-side constant part of the
/// geodesic mixup.
fn slerp_coeffs(
    ud: &[f32],
    vd: &[f32],
    lambdas: &[f32],
    b: usize,
    p: usize,
) -> (Vec<f32>, Vec<f32>) {
    let mut cu = arena::take(b);
    let mut cv = arena::take(b);
    for (row, &lam) in lambdas.iter().enumerate() {
        let dot: f32 = ud[row * p..(row + 1) * p]
            .iter()
            .zip(&vd[row * p..(row + 1) * p])
            .map(|(a, b)| a * b)
            .sum();
        let theta = dot.clamp(-1.0 + 1e-6, 1.0 - 1e-6).acos();
        let sin_t = theta.sin();
        if sin_t < 1e-4 {
            // Degenerate: linear interpolation (paper's formula limit).
            cu.push(lam);
            cv.push(1.0 - lam);
        } else {
            cu.push((lam * theta).sin() / sin_t);
            cv.push(((1.0 - lam) * theta).sin() / sin_t);
        }
    }
    (cu, cv)
}

/// Mix rows of `u` and `v` (both `[B, P]`, unit-normalized) with
/// per-row coefficients `lambdas[b]`.
///
/// The angle `θ` is computed from the current values and treated as a
/// constant during backpropagation (gradients flow through the linear
/// combination only); the result is re-projected onto the unit sphere,
/// which keeps the `‖m‖ = 1` invariant exactly even in the `θ → 0` limit
/// where slerp degenerates to lerp.
pub fn geodesic_mixup(u: &Tensor, v: &Tensor, lambdas: &[f32]) -> Tensor {
    let b = u.shape()[0];
    assert_eq!(lambdas.len(), b, "one lambda per row required");
    geodesic_mixup_t(u, v, &Tensor::from_vec(lambdas.to_vec(), &[b]))
}

/// [`geodesic_mixup`] with the coefficients carried as a `[B]` tensor, the
/// form the pre-training step draws them in.
pub fn geodesic_mixup_t(u: &Tensor, v: &Tensor, lambdas: &Tensor) -> Tensor {
    assert_eq!(u.shape(), v.shape(), "mixup operand shape mismatch");
    assert_eq!(u.ndim(), 2, "mixup expects [B, P]");
    let b = u.shape()[0];
    let p = u.shape()[1];
    assert_eq!(lambdas.numel(), b, "one lambda per row required");

    // Per-row angle from the data (constant w.r.t. autograd). Guards are
    // taken in tensor-id order (deadlock-freedom convention, lint A002).
    let lam = lambdas.to_vec();
    let (ud, vd) = read_pair(u, v);
    let (cu, cv) = slerp_coeffs(&ud, &vd, &lam, b, p);
    drop((ud, vd));
    let cu_t = Tensor::from_vec(cu, &[b, 1]);
    let cv_t = Tensor::from_vec(cv, &[b, 1]);
    u.mul(&cu_t).add(&v.mul(&cv_t)).l2_normalize(1)
}

/// Draw one mixup coefficient per row: `λ ~ Beta(γ, γ)` (paper Eq. 9).
pub fn sample_lambdas(b: usize, gamma: f32, rng: &mut StdRng) -> Vec<f32> {
    (0..b)
        .map(|_| sample_beta(gamma as f64, gamma as f64, rng) as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn unit_rows(data: Vec<f32>, b: usize, p: usize) -> Tensor {
        Tensor::from_vec(data, &[b, p]).l2_normalize(1)
    }

    #[test]
    fn endpoints_recover_inputs() {
        let u = unit_rows(vec![1.0, 0.0, 0.0, 1.0], 2, 2);
        let v = unit_rows(vec![0.6, 0.8, 0.8, 0.6], 2, 2);
        // λ = 1 → m = u (paper Eq. 9 convention).
        let m1 = geodesic_mixup(&u, &v, &[1.0, 1.0]);
        for (a, b) in m1.to_vec().iter().zip(u.to_vec()) {
            assert!((a - b).abs() < 1e-3);
        }
        // λ = 0 → m = v.
        let m0 = geodesic_mixup(&u, &v, &[0.0, 0.0]);
        for (a, b) in m0.to_vec().iter().zip(v.to_vec()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn output_stays_on_unit_sphere() {
        let mut rng = StdRng::seed_from_u64(0);
        let u = Tensor::randn(&[8, 16], 1).l2_normalize(1);
        let v = Tensor::randn(&[8, 16], 2).l2_normalize(1);
        let lambdas = sample_lambdas(8, 0.1, &mut rng);
        let m = geodesic_mixup(&u, &v, &lambdas);
        let norms = m.square().sum_axis(1, false).to_vec();
        for n in norms {
            assert!((n - 1.0).abs() < 1e-4, "norm^2 {n}");
        }
    }

    #[test]
    fn midpoint_is_between() {
        let u = unit_rows(vec![1.0, 0.0], 1, 2);
        let v = unit_rows(vec![0.0, 1.0], 1, 2);
        let m = geodesic_mixup(&u, &v, &[0.5]);
        let mv = m.to_vec();
        assert!((mv[0] - mv[1]).abs() < 1e-4, "midpoint symmetric");
        assert!(mv[0] > 0.5, "on the sphere, not the chord");
    }

    #[test]
    fn identical_inputs_degenerate_safely() {
        let u = unit_rows(vec![0.6, 0.8], 1, 2);
        let m = geodesic_mixup(&u, &u, &[0.3]);
        for (a, b) in m.to_vec().iter().zip(u.to_vec()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn gradient_flows_to_both_inputs() {
        let u = Tensor::randn(&[4, 8], 3)
            .l2_normalize(1)
            .detach()
            .requires_grad();
        let v = Tensor::randn(&[4, 8], 4)
            .l2_normalize(1)
            .detach()
            .requires_grad();
        let m = geodesic_mixup(&u, &v, &[0.3, 0.5, 0.7, 0.9]);
        m.square().sum_all().backward();
        assert!(u.grad().is_some());
        assert!(v.grad().is_some());
    }

    #[test]
    fn lambda_distribution_respects_gamma() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = sample_lambdas(5000, 0.1, &mut rng);
        assert!(l.iter().all(|x| (0.0..=1.0).contains(x)));
        let extreme = l.iter().filter(|&&x| !(0.1..=0.9).contains(&x)).count();
        assert!(
            extreme > 2500,
            "Beta(0.1, 0.1) should be bimodal, got {extreme}"
        );
    }
}
