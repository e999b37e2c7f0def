//! Statistics helpers: summary stats and Gamma/Beta sampling.
//!
//! The geodesic mixup draws `λ ~ Beta(γ, γ)` (paper Eq. 9). We sample Beta
//! via two Gamma draws using the Marsaglia–Tsang method, keeping `rand` as
//! the only randomness dependency.

use rand::rngs::StdRng;
use rand::Rng;

/// Mean / standard deviation / min / max of a slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "summary of empty slice");
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            mean,
            std: var.sqrt(),
            min,
            max,
        }
    }
}

fn randn(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sample `Gamma(shape, 1)` via Marsaglia–Tsang (2000); for `shape < 1`
/// uses the boost `Gamma(shape+1) * U^(1/shape)`.
pub fn sample_gamma(shape: f64, rng: &mut StdRng) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = randn(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Sample `Beta(a, b)` as `Ga / (Ga + Gb)`.
pub fn sample_beta(a: f64, b: f64, rng: &mut StdRng) -> f64 {
    let ga = sample_gamma(a, rng);
    let gb = sample_gamma(b, rng);
    if ga + gb == 0.0 {
        0.5
    } else {
        ga / (ga + gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn summary_known() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut r = rng();
        for shape in [0.5, 1.0, 3.0, 9.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| sample_gamma(shape, &mut r)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.15 * shape.max(1.0),
                "shape {shape} mean {mean}"
            );
        }
    }

    #[test]
    fn beta_in_unit_interval() {
        let mut r = rng();
        for _ in 0..1000 {
            let x = sample_beta(0.1, 0.1, &mut r);
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn beta_symmetric_mean_half() {
        let mut r = rng();
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| sample_beta(0.5, 0.5, &mut r)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn beta_small_gamma_is_bimodal() {
        // γ = 0.1 concentrates mass near 0 and 1 (paper's default mixup).
        let mut r = rng();
        let n = 10_000;
        let extreme = (0..n)
            .map(|_| sample_beta(0.1, 0.1, &mut r))
            .filter(|x| *x < 0.1 || *x > 0.9)
            .count();
        assert!(extreme as f64 / n as f64 > 0.6);
    }
}
