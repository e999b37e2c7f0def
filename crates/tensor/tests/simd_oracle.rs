//! Proptest oracle suite for the SIMD kernels: every vector path must be
//! **bitwise** identical to the scalar path — not merely within tolerance —
//! over arbitrary shapes, including tails that are not a multiple of the
//! vector width. This is the property that keeps the serial training
//! trajectory identical across machines with different SIMD capabilities.
//! The matmul oracle holds NaN results to their positions only, since
//! their sign and payload are unspecified (see [`bits_nan_canonical`]).
//!
//! Levels are pinned per thread with `simd::force_level`; a forced level
//! the CPU lacks clamps to the detected maximum, so on a scalar-only host
//! every comparison degenerates to scalar-vs-scalar and still passes.

use aimts_tensor::ops::{Conv1dSpec, Conv2dSpec};
use aimts_tensor::{simd, Tensor};
use proptest::prelude::*;

/// All levels worth comparing on this host (deduplicated by clamping).
const LEVELS: [simd::Level; 3] = [simd::Level::Scalar, simd::Level::Sse2, simd::Level::Avx2];

/// Run `f` with the dispatch level pinned, restoring detection after.
fn at_level<R>(level: simd::Level, f: impl FnOnce() -> R) -> R {
    simd::force_level(Some(level));
    let r = f();
    simd::force_level(None);
    r
}

/// Finite floats spanning magnitudes, plus the special values the kernels
/// must propagate identically (signed zero, infinities, NaN, subnormal).
fn element() -> impl Strategy<Value = f32> {
    const SPECIALS: [f32; 8] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE / 2.0, // subnormal
        f32::MAX,
        f32::MIN,
    ];
    (0u8..9, -1e30f32..1e30f32, 0usize..SPECIALS.len()).prop_map(|(sel, v, i)| {
        if sel < 8 {
            v
        } else {
            SPECIALS[i]
        }
    })
}

fn buffer(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(element(), 0..max_len)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// [`bits`] with every NaN mapped to one quiet NaN. Rust leaves the sign
/// and payload of a NaN result unspecified: when two NaNs meet in an add,
/// x86 returns the first operand's, and the compiler may commute the
/// operands differently per path and per build (the axpy paths already
/// disagree on the sign of `NaN + 0·inf`). So levels must agree on every
/// non-NaN bit, signed zeros included, and on where the NaNs are.
fn bits_nan_canonical(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

proptest! {
    /// `c += s * b` agrees bitwise across every dispatch level, for every
    /// length (vector body + scalar tail) and value mix.
    #[test]
    fn axpy_matches_scalar_bitwise(
        c0 in buffer(130),
        b in buffer(130),
        s in element(),
    ) {
        let n = c0.len().min(b.len());
        let (c0, b) = (&c0[..n], &b[..n]);
        let reference = at_level(simd::Level::Scalar, || {
            let mut c = c0.to_vec();
            simd::axpy(&mut c, s, b);
            c
        });
        for level in LEVELS {
            let got = at_level(level, || {
                let mut c = c0.to_vec();
                simd::axpy(&mut c, s, b);
                c
            });
            prop_assert_eq!(
                bits(&reference),
                bits(&got),
                "axpy diverged at {:?} (n={})",
                level,
                n
            );
        }
    }

    /// `a += b` agrees bitwise across every dispatch level.
    #[test]
    fn add_assign_matches_scalar_bitwise(a0 in buffer(130), b in buffer(130)) {
        let n = a0.len().min(b.len());
        let (a0, b) = (&a0[..n], &b[..n]);
        let reference = at_level(simd::Level::Scalar, || {
            let mut a = a0.to_vec();
            simd::add_assign(&mut a, b);
            a
        });
        for level in LEVELS {
            let got = at_level(level, || {
                let mut a = a0.to_vec();
                simd::add_assign(&mut a, b);
                a
            });
            prop_assert_eq!(
                bits(&reference),
                bits(&got),
                "add_assign diverged at {:?} (n={})",
                level,
                n
            );
        }
    }

    /// `a *= s` agrees bitwise across every dispatch level.
    #[test]
    fn scale_assign_matches_scalar_bitwise(a0 in buffer(130), s in element()) {
        let reference = at_level(simd::Level::Scalar, || {
            let mut a = a0.clone();
            simd::scale_assign(&mut a, s);
            a
        });
        for level in LEVELS {
            let got = at_level(level, || {
                let mut a = a0.clone();
                simd::scale_assign(&mut a, s);
                a
            });
            prop_assert_eq!(
                bits(&reference),
                bits(&got),
                "scale_assign diverged at {:?}",
                level
            );
        }
    }

    /// Whole-op oracle: matmul through the public API is bitwise stable
    /// across dispatch levels for arbitrary shapes. Up to 12×40 outputs
    /// cover whole 4×16 register tiles plus row and column tails. Two
    /// operand sets per shape: `randn` values pin the rounding of every
    /// finite sum (accumulation order), and operands drawn from `element()`
    /// — whose products mostly overflow — pin the zero skip, signed zeros,
    /// infinities and NaN positions against the scalar ikj loop (NaN bits
    /// are unspecified; see [`bits_nan_canonical`]).
    #[test]
    fn matmul_bitwise_stable_across_levels(
        m in 1usize..13,
        k in 1usize..17,
        n in 1usize..41,
        seed in 0u64..1000,
        a_vals in prop::collection::vec(element(), 12 * 16..=12 * 16),
        b_vals in prop::collection::vec(element(), 16 * 40..=16 * 40),
    ) {
        let operands = [
            (Tensor::randn(&[m, k], seed), Tensor::randn(&[k, n], seed.wrapping_add(1))),
            (
                Tensor::from_vec(a_vals[..m * k].to_vec(), &[m, k]),
                Tensor::from_vec(b_vals[..k * n].to_vec(), &[k, n]),
            ),
        ];
        for (a, b) in &operands {
            let product = || bits_nan_canonical(&a.matmul(b).to_vec());
            let reference = at_level(simd::Level::Scalar, product);
            for level in LEVELS {
                let got = at_level(level, product);
                prop_assert_eq!(
                    reference.clone(),
                    got,
                    "matmul diverged at {:?} (m={} k={} n={})",
                    level, m, k, n
                );
            }
        }
    }

    /// Whole-op oracle: conv1d im2col forward *and* every gradient are
    /// bitwise stable across dispatch levels (exercises the SIMD pack /
    /// accumulate loops and their scalar tails via odd lengths). With
    /// `cout` and `cin·k` reaching past 4 and 16, the forward, input- and
    /// weight-gradient matmuls all enter full register tiles.
    #[test]
    fn conv1d_bitwise_stable_across_levels(
        b in 1usize..3,
        cin in 1usize..7,
        cout in 1usize..7,
        l in 5usize..23,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        dilation in 1usize..3,
        seed in 0u64..1000,
    ) {
        let spec = Conv1dSpec { stride, padding, dilation };
        // Skip geometries where the (dilated) kernel does not fit.
        if l + 2 * padding < dilation * (k - 1) + 1 {
            continue;
        }
        let lo = spec.out_len(l, k);
        if lo == 0 {
            continue;
        }
        let x = Tensor::randn(&[b, cin, l], seed);
        let w = Tensor::randn(&[cout, cin, k], seed.wrapping_add(1));
        let bias = Tensor::randn(&[cout], seed.wrapping_add(2));
        let upstream = Tensor::randn(&[b, cout, lo], seed.wrapping_add(3));
        let run = || {
            let xg = x.clone().requires_grad();
            let wg = w.clone().requires_grad();
            let bg = bias.clone().requires_grad();
            let y = xg.conv1d_im2col(&wg, Some(&bg), spec);
            y.mul(&upstream).sum_all().backward();
            (
                y.data_bits(),
                bits(&xg.grad().unwrap()),
                bits(&wg.grad().unwrap()),
                bits(&bg.grad().unwrap()),
            )
        };
        let reference = at_level(simd::Level::Scalar, run);
        for level in LEVELS {
            let got = at_level(level, run);
            prop_assert_eq!(
                reference.clone(),
                got,
                "conv1d diverged at {:?} (spec={:?})",
                level, spec
            );
        }
    }

    /// Whole-op oracle: conv2d im2col forward and gradients, bitwise across
    /// levels.
    #[test]
    fn conv2d_bitwise_stable_across_levels(
        b in 1usize..3,
        cin in 1usize..3,
        cout in 1usize..3,
        h in 3usize..10,
        w in 3usize..11,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in 0u64..1000,
    ) {
        let spec = Conv2dSpec { stride, padding };
        // Skip geometries where the kernel does not fit.
        if h + 2 * padding < k || w + 2 * padding < k {
            continue;
        }
        let (ho, wo) = (spec.out_dim(h, k), spec.out_dim(w, k));
        if ho == 0 || wo == 0 {
            continue;
        }
        let x = Tensor::randn(&[b, cin, h, w], seed);
        let wt = Tensor::randn(&[cout, cin, k, k], seed.wrapping_add(1));
        let bias = Tensor::randn(&[cout], seed.wrapping_add(2));
        let upstream = Tensor::randn(&[b, cout, ho, wo], seed.wrapping_add(3));
        let run = || {
            let xg = x.clone().requires_grad();
            let wg = wt.clone().requires_grad();
            let bg = bias.clone().requires_grad();
            let y = xg.conv2d_im2col(&wg, Some(&bg), spec);
            y.mul(&upstream).sum_all().backward();
            (
                y.data_bits(),
                bits(&xg.grad().unwrap()),
                bits(&wg.grad().unwrap()),
                bits(&bg.grad().unwrap()),
            )
        };
        let reference = at_level(simd::Level::Scalar, run);
        for level in LEVELS {
            let got = at_level(level, run);
            prop_assert_eq!(
                reference.clone(),
                got,
                "conv2d diverged at {:?} (spec={:?})",
                level, spec
            );
        }
    }
}
