//! # aimts-augment
//!
//! The time-series data-augmentation bank used by AimTS pre-training.
//! Following the paper (§V-A.4, after Iwana & Uchida 2021 / InfoTS /
//! AutoTCL), the default bank contains five augmentations: **jittering,
//! scaling, time warping, slicing, and window warping**. Two further
//! augmentations (permutation, magnitude warping) are provided for
//! ablations and extensions.
//!
//! Every augmentation is a pure function of the input and a caller-owned
//! RNG, preserves series length, and is applied independently per variable
//! of a multivariate sample (paper Definition 3).
//!
//! ```
//! use aimts_augment::default_bank;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.2).sin()).collect();
//! let mut rng = StdRng::seed_from_u64(0);
//! for aug in default_bank() {
//!     let y = aug.apply(&x, &mut rng);
//!     assert_eq!(y.len(), x.len());
//! }
//! ```

#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::let_underscore_must_use
    )
)]

mod interp;

pub use interp::{linear_resample, smooth_curve};

use rand::rngs::StdRng;
use rand::Rng;

/// A single augmentation operator `g(·)` with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Augmentation {
    /// Add i.i.d. Gaussian noise with standard deviation `sigma`.
    Jitter { sigma: f32 },
    /// Multiply the whole series by a factor drawn from `N(1, sigma²)`.
    Scaling { sigma: f32 },
    /// Warp the time axis with a smooth random curve built from `knots`
    /// control points with speed deviation `sigma`.
    TimeWarp { knots: usize, sigma: f32 },
    /// Crop a random window covering `ratio` of the series and linearly
    /// interpolate it back to the original length (Le Guennec et al. 2016).
    Slicing { ratio: f32 },
    /// Stretch or compress a random window covering `ratio` of the series
    /// by `scale`, then resample to the original length.
    WindowWarp { ratio: f32, scale: f32 },
    /// Split into `segments` chunks and shuffle their order (extension).
    Permutation { segments: usize },
    /// Multiply by a smooth random curve around 1 (extension).
    MagnitudeWarp { knots: usize, sigma: f32 },
}

impl Augmentation {
    /// Stable short name used in reports and prototypes.
    pub fn name(&self) -> &'static str {
        match self {
            Augmentation::Jitter { .. } => "jitter",
            Augmentation::Scaling { .. } => "scaling",
            Augmentation::TimeWarp { .. } => "time_warp",
            Augmentation::Slicing { .. } => "slicing",
            Augmentation::WindowWarp { .. } => "window_warp",
            Augmentation::Permutation { .. } => "permutation",
            Augmentation::MagnitudeWarp { .. } => "magnitude_warp",
        }
    }

    /// Apply to a single variable, returning a series of the same length.
    pub fn apply(&self, x: &[f32], rng: &mut StdRng) -> Vec<f32> {
        assert!(!x.is_empty(), "cannot augment an empty series");
        match *self {
            Augmentation::Jitter { sigma } => x.iter().map(|v| v + sigma * randn(rng)).collect(),
            Augmentation::Scaling { sigma } => {
                let s = 1.0 + sigma * randn(rng);
                x.iter().map(|v| v * s).collect()
            }
            Augmentation::TimeWarp { knots, sigma } => time_warp(x, knots, sigma, rng),
            Augmentation::Slicing { ratio } => slicing(x, ratio, rng),
            Augmentation::WindowWarp { ratio, scale } => window_warp(x, ratio, scale, rng),
            Augmentation::Permutation { segments } => permutation(x, segments, rng),
            Augmentation::MagnitudeWarp { knots, sigma } => {
                let curve = smooth_curve(x.len(), knots, 1.0, sigma, rng);
                x.iter().zip(&curve).map(|(v, c)| v * c).collect()
            }
        }
    }

    /// Apply to a multivariate sample (`vars[m]` = series of variable `m`),
    /// drawing fresh randomness per variable.
    pub fn apply_multivariate(&self, vars: &[Vec<f32>], rng: &mut StdRng) -> Vec<Vec<f32>> {
        vars.iter().map(|v| self.apply(v, rng)).collect()
    }
}

/// The paper's 5-augmentation bank with the parameterization used across
/// the experiments.
pub fn default_bank() -> Vec<Augmentation> {
    vec![
        Augmentation::Jitter { sigma: 0.1 },
        Augmentation::Scaling { sigma: 0.2 },
        Augmentation::TimeWarp {
            knots: 4,
            sigma: 0.2,
        },
        Augmentation::Slicing { ratio: 0.8 },
        Augmentation::WindowWarp {
            ratio: 0.3,
            scale: 2.0,
        },
    ]
}

/// Extended bank (paper bank + permutation + magnitude warp) for ablations.
pub fn extended_bank() -> Vec<Augmentation> {
    let mut bank = default_bank();
    bank.push(Augmentation::Permutation { segments: 4 });
    bank.push(Augmentation::MagnitudeWarp {
        knots: 4,
        sigma: 0.2,
    });
    bank
}

/// Euclidean distance between two equal-length series (used by the
/// adaptive-temperature distance `D(·,·)` of Eq. 3).
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "euclidean distance needs equal lengths");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

fn randn(rng: &mut StdRng) -> f32 {
    // Box–Muller, single draw.
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

fn time_warp(x: &[f32], knots: usize, sigma: f32, rng: &mut StdRng) -> Vec<f32> {
    let n = x.len();
    if n < 3 {
        return x.to_vec();
    }
    // Smooth positive speed curve; cumulative sum gives warped positions.
    let speed = smooth_curve(n, knots.max(2), 1.0, sigma, rng);
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0f32;
    for s in &speed {
        acc += s.max(0.05);
        cum.push(acc);
    }
    let total = *cum.last().unwrap();
    // Normalize to [0, n-1] and sample the original series there.
    let positions: Vec<f32> = cum.iter().map(|c| (c / total) * (n - 1) as f32).collect();
    positions.iter().map(|&p| interp::sample_at(x, p)).collect()
}

fn slicing(x: &[f32], ratio: f32, rng: &mut StdRng) -> Vec<f32> {
    let n = x.len();
    let w = ((n as f32 * ratio.clamp(0.1, 1.0)).round() as usize).clamp(2.min(n), n);
    if w == n {
        return x.to_vec();
    }
    let start = rng.gen_range(0..=n - w);
    linear_resample(&x[start..start + w], n)
}

fn window_warp(x: &[f32], ratio: f32, scale: f32, rng: &mut StdRng) -> Vec<f32> {
    let n = x.len();
    let w =
        ((n as f32 * ratio.clamp(0.05, 0.9)).round() as usize).clamp(2, n.saturating_sub(1).max(2));
    if w + 1 >= n {
        return x.to_vec();
    }
    let start = rng.gen_range(0..=n - w);
    let warped_len = ((w as f32 * scale).round() as usize).max(2);
    let mut out = Vec::with_capacity(n - w + warped_len);
    out.extend_from_slice(&x[..start]);
    out.extend(linear_resample(&x[start..start + w], warped_len));
    out.extend_from_slice(&x[start + w..]);
    linear_resample(&out, n)
}

fn permutation(x: &[f32], segments: usize, rng: &mut StdRng) -> Vec<f32> {
    let n = x.len();
    let k = segments.clamp(1, n);
    let mut bounds: Vec<usize> = (0..=k).map(|i| i * n / k).collect();
    bounds.dedup();
    let mut chunks: Vec<&[f32]> = bounds.windows(2).map(|w| &x[w[0]..w[1]]).collect();
    // Fisher–Yates shuffle of the chunks.
    for i in (1..chunks.len()).rev() {
        let j = rng.gen_range(0..=i);
        chunks.swap(i, j);
    }
    chunks.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn sine(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.3).sin()).collect()
    }

    #[test]
    fn all_augmentations_preserve_length_and_finiteness() {
        let x = sine(101);
        let mut r = rng(1);
        for aug in extended_bank() {
            let y = aug.apply(&x, &mut r);
            assert_eq!(y.len(), x.len(), "{} changed length", aug.name());
            assert!(
                y.iter().all(|v| v.is_finite()),
                "{} produced NaN",
                aug.name()
            );
        }
    }

    #[test]
    fn jitter_zero_sigma_is_identity() {
        let x = sine(32);
        let y = Augmentation::Jitter { sigma: 0.0 }.apply(&x, &mut rng(2));
        assert_eq!(x, y);
    }

    #[test]
    fn scaling_is_uniform_multiple() {
        let x = sine(32);
        let y = Augmentation::Scaling { sigma: 0.5 }.apply(&x, &mut rng(3));
        let s = y[5] / x[5];
        for (a, b) in x.iter().zip(&y) {
            if a.abs() > 1e-3 {
                assert!((b / a - s).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn slicing_full_ratio_is_identity() {
        let x = sine(64);
        let y = Augmentation::Slicing { ratio: 1.0 }.apply(&x, &mut rng(4));
        assert_eq!(x, y);
    }

    #[test]
    fn slicing_preserves_value_range() {
        let x = sine(64);
        let y = Augmentation::Slicing { ratio: 0.5 }.apply(&x, &mut rng(5));
        let (lo, hi) = x
            .iter()
            .fold((f32::MAX, f32::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        assert!(y.iter().all(|&v| v >= lo - 1e-5 && v <= hi + 1e-5));
    }

    #[test]
    fn permutation_preserves_multiset() {
        let x: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let mut y = Augmentation::Permutation { segments: 4 }.apply(&x, &mut rng(6));
        y.sort_by(f32::total_cmp);
        assert_eq!(x, y);
    }

    #[test]
    fn time_warp_keeps_endpoints_region() {
        let x = sine(128);
        let y = Augmentation::TimeWarp {
            knots: 4,
            sigma: 0.2,
        }
        .apply(&x, &mut rng(7));
        // Warp is monotone, so the last sample comes from the end of x.
        assert!((y[127] - x[127]).abs() < 0.2);
    }

    #[test]
    fn two_draws_differ() {
        let x = sine(64);
        let mut r = rng(8);
        let aug = Augmentation::Jitter { sigma: 0.1 };
        let a = aug.apply(&x, &mut r);
        let b = aug.apply(&x, &mut r);
        assert_ne!(
            a, b,
            "different randomized parameters must differ (paper §IV-B.1)"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let x = sine(64);
        let aug = Augmentation::WindowWarp {
            ratio: 0.3,
            scale: 2.0,
        };
        assert_eq!(aug.apply(&x, &mut rng(9)), aug.apply(&x, &mut rng(9)));
    }

    #[test]
    fn multivariate_applies_per_variable() {
        let vars: Vec<Vec<f32>> = vec![sine(32), sine(32).iter().map(|v| v * 2.0).collect()];
        let out = Augmentation::Jitter { sigma: 0.01 }.apply_multivariate(&vars, &mut rng(10));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].len(), 32);
        assert_ne!(out[0], out[1]);
    }

    #[test]
    fn euclidean_distance_basics() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn bank_contents_match_paper() {
        let names: Vec<&str> = default_bank().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["jitter", "scaling", "time_warp", "slicing", "window_warp"]
        );
    }

    #[test]
    fn tiny_series_survive() {
        let x = vec![1.0, 2.0];
        let mut r = rng(11);
        for aug in extended_bank() {
            let y = aug.apply(&x, &mut r);
            assert_eq!(y.len(), 2, "{}", aug.name());
        }
    }
}
