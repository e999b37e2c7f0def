//! Proptest oracle suite for the SIMD kernels: every vector path must be
//! **bitwise** identical to the scalar path — not merely within tolerance —
//! over arbitrary shapes, including tails that are not a multiple of the
//! vector width. This is the property that keeps the serial training
//! trajectory identical across machines with different SIMD capabilities.
//! The matmul oracle holds NaN results to their positions only, since
//! their sign and payload are unspecified (see [`bits_nan_canonical`]).
//!
//! Levels are pinned per thread with `simd::force_level`, over the levels
//! the host supports (`simd::host_levels`): a level the CPU lacks would
//! clamp to the detected maximum and rerun it, so it is left out rather
//! than compared again under another name. On a scalar-only host every
//! comparison is scalar against scalar.
//!
//! `simd::tanh` has a second contract: it must round exactly as glibc
//! 2.36's `tanhf` does. A table and a sweep digest recorded from that
//! `tanhf` pin it at every level on any host; an ignored test compares all
//! 2^32 inputs with the host's `f32::tanh`.

use aimts_tensor::ops::{Conv1dSpec, Conv2dSpec};
use aimts_tensor::{simd, Tensor};
use proptest::prelude::*;

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

/// `(input bits, output bits)` of glibc 2.36's `tanhf` on x86_64, recorded
/// through `f32::tanh`. At least one input per branch of the port: ±0,
/// subnormals, `|x| < 2^-55`, and through `expm1f(±2|x|)` its
/// `|u| < 2^-25` case and k = 0, -1, <= -2, 3..22, 23..56 and > 56; then
/// `|x| >= 22`, ±inf and NaN (a NaN output is held to being a NaN).
const TANHF_GLIBC_2_36: [(u32, u32); 46] = [
    (0x0000_0000, 0x0000_0000), // +0
    (0x8000_0000, 0x8000_0000), // -0
    (0x0000_0001, 0x0000_0001), // smallest subnormal
    (0x807f_ffff, 0x807f_ffff), // largest negative subnormal
    (0x0040_0000, 0x0040_0000), // f32::MIN_POSITIVE / 2
    (0x2180_0000, 0x2180_0000), // 2^-60
    (0xa380_0000, 0xa380_0000), // -2^-56
    (0x23ff_ffff, 0x23ff_ffff), // just below 2^-55
    (0x2400_0000, 0x2400_0000), // 2^-55: expm1, |u| < 2^-25
    (0x2edb_e6ff, 0x2edb_e6ff), // 1e-10
    (0xb14e_288f, 0xb14e_288f), // -3e-9
    (0x327f_ffff, 0x327f_ffff), // just below 2^-26
    (0x3280_0000, 0x3280_0000), // 2^-26: k = 0
    (0x3727_c5ac, 0x3727_c5ac), // 1e-5
    (0xbd4c_cccd, 0xbd4c_a128), // -0.05
    (0x3dcc_cccd, 0x3dcc_1ebc), // 0.1
    (0x3e2e_147b, 0x3e2c_6c15), // 0.17
    (0x3e4c_cccd, 0x3e4a_1cc2), // 0.2: k = -1
    (0xbe80_0000, 0xbe7a_cbf5), // -0.25
    (0x3ecc_cccd, 0x3ec2_88ac), // 0.4
    (0xbf00_0000, 0xbeec_9a9f), // -0.5
    (0x3f19_999a, 0x3f09_7c15), // 0.6: k = -2
    (0xbf40_0000, 0xbf22_991f), // -0.75
    (0x3f66_6666, 0x3f37_5f4c), // 0.9: k = -3
    (0x3f7f_ffff, 0x3f42_f7d5), // just below 1
    (0x3f80_0000, 0x3f42_f7d6), // 1: k = 3
    (0xbfc0_0000, 0xbf67_b7cc), // -1.5: k = 4
    (0x4040_0000, 0x3f7e_bbe9), // 3: k = 9
    (0x40a0_0000, 0x3f7f_fa0d), // 5: k = 14
    (0xc0f0_0000, 0xbf7f_fff6), // -7.5: k = 22
    (0x4100_0000, 0x3f7f_fffc), // 8: k = 23
    (0x4108_0000, 0x3f7f_ffff), // 8.5: k = 25
    (0xc120_0000, 0xbf80_0000), // -10: k = 29
    (0x4170_0000, 0x3f80_0000), // 15: k = 43
    (0x4198_0000, 0x3f80_0000), // 19: k = 55
    (0x41a0_0000, 0x3f80_0000), // 20: k = 58
    (0xc1a8_0000, 0xbf80_0000), // -21: k = 61
    (0x41af_ffff, 0x3f80_0000), // just below 22: k = 63
    (0x41b0_0000, 0x3f80_0000), // 22
    (0xc1b0_0000, 0xbf80_0000), // -22
    (0x7f7f_ffff, 0x3f80_0000), // f32::MAX
    (0xff7f_ffff, 0xbf80_0000), // f32::MIN
    (0x7f80_0000, 0x3f80_0000), // +inf
    (0xff80_0000, 0xbf80_0000), // -inf
    (0x7fc0_0000, 0x7fc0_0000), // NaN
    (0x7f80_0001, 0x7fc0_0001), // signalling NaN
];

/// Bitwise equality, except that any NaN equals any NaN.
fn same_tanh(got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

/// Every table entry, at every level, in every lane position: the table
/// is run from each of its first sixteen offsets, so each entry passes
/// through each lane of the 8- and 16-lane bodies and through their tails.
#[test]
fn tanh_matches_pinned_glibc_table_at_every_level() {
    let xs: Vec<f32> = TANHF_GLIBC_2_36
        .iter()
        .map(|&(x, _)| f32::from_bits(x))
        .collect();
    for level in simd::host_levels() {
        for start in 0..16 {
            let mut got = xs[start..].to_vec();
            at_level(level, || simd::tanh(&mut got));
            for (g, &(x, want)) in got.iter().zip(&TANHF_GLIBC_2_36[start..]) {
                assert!(
                    same_tanh(*g, f32::from_bits(want)),
                    "tanh({x:#010x}) = {:#010x} at {level:?}, glibc has {want:#010x}",
                    g.to_bits()
                );
            }
        }
    }
}

/// FNV-1a over the bits of glibc 2.36's `tanhf`, recorded through
/// `f32::tanh`, at [`tanh_sweep`]'s inputs.
const TANHF_GLIBC_2_36_SWEEP_FNV: u64 = 0xe863_4b94_eea4_115b;

/// About a million inputs across the whole `expm1f` range,
/// `2^-55 <= |x| < 22`: every 499th bit pattern, every other one negated.
/// The table pins each branch; this pins the rounding inside them, which
/// a single reordered or fused operation changes for some inputs only.
fn tanh_sweep() -> Vec<f32> {
    (0x2400_0000u32..0x41b0_0000)
        .step_by(499)
        .enumerate()
        .map(|(i, b)| f32::from_bits(if i % 2 == 1 { b | 0x8000_0000 } else { b }))
        .collect()
}

#[test]
fn tanh_matches_pinned_glibc_sweep_digest_at_every_level() {
    let xs = tanh_sweep();
    for level in simd::host_levels() {
        let mut y = xs.clone();
        at_level(level, || simd::tanh(&mut y));
        let fnv = y.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x1000_0000_01b3)
        });
        assert_eq!(fnv, TANHF_GLIBC_2_36_SWEEP_FNV, "sweep digest at {level:?}");
    }
}

/// All 2^32 inputs through the port against the host's `f32::tanh`, at
/// the scalar level and at every level the host has with a tanh body of
/// its own (AVX2, AVX-512; SSE2 runs the scalar port). A host whose
/// `tanhf` disagrees with the pinned glibc table (another libm) is skipped
/// loudly: the table above is the contract there. Run it in release:
/// `cargo test --release -p aimts-tensor --test simd_oracle -- --ignored
/// tanh_port_matches_host_libm_exhaustively`.
#[test]
#[ignore = "2^32 inputs: run in release, about a minute on 2 cores"]
fn tanh_port_matches_host_libm_exhaustively() {
    let host_is_glibc = TANHF_GLIBC_2_36
        .iter()
        .all(|&(x, y)| same_tanh(f32::from_bits(x).tanh(), f32::from_bits(y)));
    if !host_is_glibc {
        eprintln!(
            "SKIPPED tanh_port_matches_host_libm_exhaustively: the host's f32::tanh \
             disagrees with the pinned glibc 2.36 table, so this libm is not the \
             one the port reproduces"
        );
        return;
    }
    let levels: Vec<simd::Level> = simd::host_levels()
        .filter(|l| *l != simd::Level::Sse2)
        .collect();
    const CHUNK: u64 = 1 << 12;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let chunks = (1u64 << 32) / CHUNK;
    let mismatches: Vec<u32> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let levels = &levels;
                s.spawn(move || {
                    let mut bad = Vec::new();
                    for c in (t..chunks).step_by(threads as usize) {
                        let xs: Vec<f32> = (c * CHUNK..(c + 1) * CHUNK)
                            .map(|b| f32::from_bits(b as u32))
                            .collect();
                        let run = |level| {
                            let mut v = xs.clone();
                            at_level(level, || simd::tanh(&mut v));
                            v
                        };
                        let ys: Vec<Vec<f32>> = levels.iter().map(|&l| run(l)).collect();
                        for (i, &x) in xs.iter().enumerate() {
                            let want = x.tanh();
                            if !ys.iter().all(|y| same_tanh(y[i], want)) {
                                bad.push(x.to_bits());
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    assert!(
        mismatches.is_empty(),
        "{} inputs differ from the host tanhf at one of {levels:?}, first {:#010x?}",
        mismatches.len(),
        &mismatches[..mismatches.len().min(8)]
    );
}

proptest! {
    /// `simd::tanh` agrees bitwise across every dispatch level on `element()`
    /// slices and on scaled `randn` slices (which reach every branch of the
    /// port), at lengths that leave a tail after the 8- and 16-lane bodies.
    #[test]
    fn tanh_matches_scalar_bitwise(
        mixed in prop::collection::vec(element(), 1..130),
        blocks in 0usize..16,
        tail in 1usize..8,
        scale in prop::sample::select(vec![1e-9f32, 0.1, 1.0, 10.0]),
        seed in 0u64..1000,
    ) {
        let mixed = &mixed[..mixed.len() - usize::from(mixed.len() % 8 == 0)];
        let gaussian: Vec<f32> = Tensor::randn(&[blocks * 8 + tail], seed)
            .to_vec()
            .iter()
            .map(|v| v * scale)
            .collect();
        for xs in [mixed, &gaussian[..]] {
            let run = |level| {
                let mut v = xs.to_vec();
                at_level(level, || simd::tanh(&mut v));
                bits_nan_canonical(&v)
            };
            let reference = run(simd::Level::Scalar);
            for level in simd::host_levels() {
                prop_assert_eq!(&reference, &run(level), "tanh diverged at {:?} (n={})", level, xs.len());
            }
        }
    }

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
        for level in simd::host_levels() {
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
        for level in simd::host_levels() {
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
        for level in simd::host_levels() {
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
    /// across dispatch levels for arbitrary shapes. Up to 12×80 outputs
    /// cover whole 4×16 and 4×32 register tiles, the 4×16 tile after the
    /// last 4×32 one, and row and column tails. Two
    /// operand sets per shape: `randn` values pin the rounding of every
    /// finite sum (accumulation order), and operands drawn from `element()`
    /// — whose products mostly overflow — pin the zero skip, signed zeros,
    /// infinities and NaN positions against the scalar ikj loop (NaN bits
    /// are unspecified; see [`bits_nan_canonical`]).
    #[test]
    fn matmul_bitwise_stable_across_levels(
        m in 1usize..13,
        k in 1usize..17,
        n in 1usize..81,
        seed in 0u64..1000,
        a_vals in prop::collection::vec(element(), 12 * 16..=12 * 16),
        b_vals in prop::collection::vec(element(), 16 * 80..=16 * 80),
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
            for level in simd::host_levels() {
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
        for level in simd::host_levels() {
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
        for level in simd::host_levels() {
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
