//! Finite-difference gradient checking used throughout the test suite.

use crate::tensor::Tensor;

/// Numerically estimate `d f(inputs) / d inputs[which]` by central
/// differences, where `f` must return a scalar tensor.
///
/// The inputs are cloned per evaluation; `f` must be a pure function of
/// the input *values*.
pub fn numeric_gradient(
    f: &dyn Fn(&[Tensor]) -> Tensor,
    inputs: &[Tensor],
    which: usize,
    eps: f32,
) -> Vec<f32> {
    let n = inputs[which].numel();
    let mut grad = vec![0f32; n];
    for i in 0..n {
        let eval = |delta: f32| -> f32 {
            let perturbed: Vec<Tensor> = inputs
                .iter()
                .enumerate()
                .map(|(j, t)| {
                    let mut d = t.to_vec();
                    if j == which {
                        d[i] += delta;
                    }
                    Tensor::from_vec(d, t.shape())
                })
                .collect();
            f(&perturbed).item()
        };
        grad[i] = (eval(eps) - eval(-eps)) / (2.0 * eps);
    }
    grad
}

/// Assert that autograd and finite differences agree for every input.
///
/// `f` maps the (leaf, tracked) inputs to a scalar loss. Tolerance is a
/// combined absolute/relative bound suitable for `f32`.
pub fn check_gradients(f: &dyn Fn(&[Tensor]) -> Tensor, inputs: &[Tensor], eps: f32, tol: f32) {
    let vars: Vec<Tensor> = inputs.iter().map(|t| t.requires_grad()).collect();
    let loss = f(&vars);
    assert_eq!(loss.numel(), 1, "check_gradients requires scalar output");
    loss.backward();
    for (which, v) in vars.iter().enumerate() {
        #[expect(
            clippy::panic,
            reason = "grad-check is a test harness; a missing gradient must fail loudly"
        )]
        let auto = v
            .grad()
            .unwrap_or_else(|| panic!("input {which} received no gradient"));
        let numeric = numeric_gradient(f, inputs, which, eps);
        for (i, (a, n)) in auto.iter().zip(&numeric).enumerate() {
            let denom = 1f32.max(a.abs()).max(n.abs());
            assert!(
                (a - n).abs() / denom <= tol,
                "gradient mismatch for input {which} element {i}: autograd {a} vs numeric {n}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn catches_correct_simple_gradient() {
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]);
        check_gradients(&|ins| ins[0].square().sum_all(), &[x], 1e-2, 1e-2);
    }

    #[test]
    fn two_input_function() {
        let a = Tensor::from_vec(vec![0.3, 0.7], &[2]);
        let b = Tensor::from_vec(vec![1.5, -0.2], &[2]);
        check_gradients(&|ins| ins[0].mul(&ins[1]).sum_all(), &[a, b], 1e-2, 1e-2);
    }
}
