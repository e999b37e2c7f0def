//! The conv1d kernels as they stood before stride-1 convs read their
//! zero-padded input in place and the direct lowering ran 8 lanes at a
//! time, kept verbatim, with the `im2col1d`, `col2im1d` and naive
//! `transpose2d` they called, as the bitwise reference for the kernels
//! that replaced them. Run at the scalar level they use no tiles and no
//! vector lanes; the proptest below holds every conv1d kernel in
//! `conv.rs`, at every SIMD level, to their bits (NaNs by position, since
//! their sign and payload are unspecified; see `crate::simd`).
//!
//! Run with `cargo test -p aimts-tensor --lib conv::reference`.

use proptest::prelude::*;

use super::{Conv1dDims, Conv1dSpec};
use crate::arena;
use crate::ops::matmul::mm_acc;
use crate::simd;
use crate::Tensor;

/// Transpose an `r×c` row-major matrix (arena-backed scratch).
fn transpose2d(x: &[f32], r: usize, c: usize) -> Vec<f32> {
    let mut out = arena::zeroed(r * c);
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = x[i * c + j];
        }
    }
    out
}

/// Unfold one batch element `x` (`[C_in, L]`, row-major) into `col`
/// (`[C_in·K, L_out]`): `col[(ci·K + kk), o] = x[ci, o·stride + kk·dilation
/// - padding]`, zero outside the input. `col` must be zeroed on entry.
fn im2col1d(
    x: &[f32],
    col: &mut [f32],
    cin: usize,
    l: usize,
    k: usize,
    lo: usize,
    spec: Conv1dSpec,
) {
    for ci in 0..cin {
        let xr = &x[ci * l..(ci + 1) * l];
        for kk in 0..k {
            let row = &mut col[(ci * k + kk) * lo..(ci * k + kk + 1) * lo];
            let tap = kk * spec.dilation;
            // Valid output positions: padding <= o*stride + tap < l + padding.
            let o_min = spec
                .padding
                .saturating_sub(tap)
                .div_ceil(spec.stride)
                .min(lo);
            let o_max = if l + spec.padding > tap {
                (((l + spec.padding - tap - 1) / spec.stride) + 1).min(lo)
            } else {
                0
            };
            if o_min >= o_max {
                continue;
            }
            if spec.stride == 1 {
                let src = o_min + tap - spec.padding;
                row[o_min..o_max].copy_from_slice(&xr[src..src + (o_max - o_min)]);
            } else {
                for (o, rv) in row[o_min..o_max].iter_mut().enumerate() {
                    *rv = xr[(o_min + o) * spec.stride + tap - spec.padding];
                }
            }
        }
    }
}

/// Scatter-add the column-space gradient `gcol` (`[C_in·K, L_out]`) back
/// into the input gradient `gx` (`[C_in, L]`) — the adjoint of [`im2col1d`].
fn col2im1d(
    gcol: &[f32],
    gx: &mut [f32],
    cin: usize,
    l: usize,
    k: usize,
    lo: usize,
    spec: Conv1dSpec,
) {
    for ci in 0..cin {
        let gxr = &mut gx[ci * l..(ci + 1) * l];
        for kk in 0..k {
            let row = &gcol[(ci * k + kk) * lo..(ci * k + kk + 1) * lo];
            let tap = kk * spec.dilation;
            let o_min = spec
                .padding
                .saturating_sub(tap)
                .div_ceil(spec.stride)
                .min(lo);
            let o_max = if l + spec.padding > tap {
                (((l + spec.padding - tap - 1) / spec.stride) + 1).min(lo)
            } else {
                0
            };
            if o_min >= o_max {
                continue;
            }
            if spec.stride == 1 {
                let dst = o_min + tap - spec.padding;
                simd::add_assign(&mut gxr[dst..dst + (o_max - o_min)], &row[o_min..o_max]);
            } else {
                for (o, rv) in row[o_min..o_max].iter().enumerate() {
                    gxr[(o_min + o) * spec.stride + tap - spec.padding] += rv;
                }
            }
        }
    }
}

fn conv1d_forward_direct(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    d: &Conv1dDims,
    spec: Conv1dSpec,
) -> Vec<f32> {
    let (cin, l, cout, k, lo) = (d.cin, d.l, d.cout, d.k, d.lo);
    let mut out = arena::zeroed(d.b * cout * lo);
    for (bi, ochunk) in out.chunks_mut(cout * lo).enumerate() {
        let xb = &x[bi * cin * l..(bi + 1) * cin * l];
        for co in 0..cout {
            let orow = &mut ochunk[co * lo..(co + 1) * lo];
            if let Some(bv) = bias {
                orow.iter_mut().for_each(|v| *v = bv[co]);
            }
            for ci in 0..cin {
                let xr = &xb[ci * l..(ci + 1) * l];
                let wr = &w[(co * cin + ci) * k..(co * cin + ci + 1) * k];
                for (o, ov) in orow.iter_mut().enumerate() {
                    let base = o * spec.stride;
                    let mut acc = 0f32;
                    for (kk, &wv) in wr.iter().enumerate() {
                        let pos = base + kk * spec.dilation;
                        if pos >= spec.padding && pos - spec.padding < l {
                            acc += wv * xr[pos - spec.padding];
                        }
                    }
                    *ov += acc;
                }
            }
        }
    }
    out
}

fn conv1d_forward_im2col(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    d: &Conv1dDims,
    spec: Conv1dSpec,
) -> Vec<f32> {
    let (cin, l, cout, k, lo) = (d.cin, d.l, d.cout, d.k, d.lo);
    let mut out = arena::zeroed(d.b * cout * lo);
    for (bi, ochunk) in out.chunks_mut(cout * lo).enumerate() {
        if let Some(bv) = bias {
            for co in 0..cout {
                ochunk[co * lo..(co + 1) * lo]
                    .iter_mut()
                    .for_each(|v| *v = bv[co]);
            }
        }
        let mut col = arena::zeroed(cin * k * lo);
        im2col1d(
            &x[bi * cin * l..(bi + 1) * cin * l],
            &mut col,
            cin,
            l,
            k,
            lo,
            spec,
        );
        // W viewed as [C_out, C_in·K] is already contiguous row-major.
        mm_acc(ochunk, w, &col, cout, cin * k, lo);
        arena::recycle(col);
    }
    out
}

/// Backward kernels: `gx` one batch element at a time, then `gw`/`gb`
/// accumulated over the batch in order. A `None` gradient (an untracked
/// parent) is skipped.
#[allow(
    clippy::too_many_arguments,
    reason = "the three gradient outputs are separate optional slices so an untracked parent costs nothing"
)]
fn conv1d_backward_direct(
    x: &[f32],
    w: &[f32],
    gout: &[f32],
    d: &Conv1dDims,
    spec: Conv1dSpec,
    gx: Option<&mut [f32]>,
    mut gw: Option<&mut [f32]>,
    mut gb: Option<&mut [f32]>,
) {
    let (b, cin, l, cout, k, lo) = (d.b, d.cin, d.l, d.cout, d.k, d.lo);
    let gx_rows = gx.into_iter().flat_map(|gx| gx.chunks_mut(cin * l));
    for (bi, gxb) in gx_rows.enumerate() {
        let gob = &gout[bi * cout * lo..(bi + 1) * cout * lo];
        for co in 0..cout {
            let gor = &gob[co * lo..(co + 1) * lo];
            for ci in 0..cin {
                let wr = &w[(co * cin + ci) * k..(co * cin + ci + 1) * k];
                let gxr = &mut gxb[ci * l..(ci + 1) * l];
                for (o, &g) in gor.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    let base = o * spec.stride;
                    for (kk, &wv) in wr.iter().enumerate() {
                        let pos = base + kk * spec.dilation;
                        if pos >= spec.padding && pos - spec.padding < l {
                            gxr[pos - spec.padding] += g * wv;
                        }
                    }
                }
            }
        }
    }
    for bi in 0..b {
        let xb = &x[bi * cin * l..(bi + 1) * cin * l];
        let gob = &gout[bi * cout * lo..(bi + 1) * cout * lo];
        for co in 0..cout {
            let gor = &gob[co * lo..(co + 1) * lo];
            if let Some(gb) = gb.as_deref_mut() {
                gb[co] += gor.iter().sum::<f32>();
            }
            let Some(gw) = gw.as_deref_mut() else {
                continue;
            };
            for ci in 0..cin {
                let xr = &xb[ci * l..(ci + 1) * l];
                let gwr = &mut gw[(co * cin + ci) * k..(co * cin + ci + 1) * k];
                for (o, &g) in gor.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    let base = o * spec.stride;
                    for (kk, gwv) in gwr.iter_mut().enumerate() {
                        let pos = base + kk * spec.dilation;
                        if pos >= spec.padding && pos - spec.padding < l {
                            *gwv += g * xr[pos - spec.padding];
                        }
                    }
                }
            }
        }
    }
}

#[allow(
    clippy::too_many_arguments,
    reason = "the three gradient outputs are separate optional slices so an untracked parent costs nothing"
)]
fn conv1d_backward_im2col(
    x: &[f32],
    w: &[f32],
    gout: &[f32],
    d: &Conv1dDims,
    spec: Conv1dSpec,
    gx: Option<&mut [f32]>,
    mut gw: Option<&mut [f32]>,
    mut gb: Option<&mut [f32]>,
) {
    let (b, cin, l, cout, k, lo) = (d.b, d.cin, d.l, d.cout, d.k, d.lo);
    // grad input: gcol = W^T [C_in·K, C_out] · gout_b [C_out, L_out],
    // then fold columns back with col2im.
    if let Some(gx) = gx {
        let wt = transpose2d(w, cout, cin * k);
        for (bi, gxb) in gx.chunks_mut(cin * l).enumerate() {
            let gob = &gout[bi * cout * lo..(bi + 1) * cout * lo];
            let mut gcol = arena::zeroed(cin * k * lo);
            mm_acc(&mut gcol, &wt, gob, cin * k, cout, lo);
            col2im1d(&gcol, gxb, cin, l, k, lo, spec);
            arena::recycle(gcol);
        }
        arena::recycle(wt);
    }
    // grad weight: gw += gout_b [C_out, L_out] · col_b^T [L_out, C_in·K].
    let mut col = arena::zeroed(cin * k * lo);
    for bi in 0..b {
        let gob = &gout[bi * cout * lo..(bi + 1) * cout * lo];
        if let Some(gb) = gb.as_deref_mut() {
            for co in 0..cout {
                gb[co] += gob[co * lo..(co + 1) * lo].iter().sum::<f32>();
            }
        }
        let Some(gw) = gw.as_deref_mut() else {
            continue;
        };
        col.fill(0.0);
        im2col1d(
            &x[bi * cin * l..(bi + 1) * cin * l],
            &mut col,
            cin,
            l,
            k,
            lo,
            spec,
        );
        let colt = transpose2d(&col, cin * k, lo);
        mm_acc(gw, gob, &colt, cout, lo, cin * k);
        arena::recycle(colt);
    }
    arena::recycle(col);
}

// ---------------------------------------------------------------------------
// The reference suite
// ---------------------------------------------------------------------------

/// Run `f` with the dispatch level pinned, restoring detection after.
fn at_level<R>(level: simd::Level, f: impl FnOnce() -> R) -> R {
    simd::force_level(Some(level));
    let r = f();
    simd::force_level(None);
    r
}

/// Bits with every NaN mapped to one quiet NaN.
fn bits_nan_canonical(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

/// Moderate finite values, huge ones whose products overflow, and the
/// special values the kernels must propagate identically.
fn element() -> impl Strategy<Value = f32> {
    const SPECIALS: [f32; 8] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE / 2.0, // subnormal
        1e30,
        -1e30,
    ];
    (0u8..10, -3f32..3f32, 0usize..SPECIALS.len()).prop_map(|(sel, v, i)| match sel {
        0..=5 => v,
        6 | 7 => v * 3e29,
        _ => SPECIALS[i],
    })
}

/// `randn` values with about one in six replaced by a signed zero, so the
/// zero-weight and zero-gradient skips are exercised on finite data.
fn randn_with_zeros(len: usize, seed: u64) -> Vec<f32> {
    Tensor::randn(&[len.max(1)], seed).to_vec()[..len]
        .iter()
        .enumerate()
        .map(|(i, &v)| match (i as u64 + seed) % 12 {
            0 => 0.0,
            6 => -0.0,
            _ => v,
        })
        .collect()
}

/// The four conv1d outputs of one lowering: forward, then the `gx`, `gw`
/// and `gb` of one backward into fresh zeroed buffers, as the autograd
/// closure runs it.
type Outputs = [Vec<u32>; 4];

struct Problem {
    x: Vec<f32>,
    w: Vec<f32>,
    bias: Option<Vec<f32>>,
    gout: Vec<f32>,
    dims: Conv1dDims,
    spec: Conv1dSpec,
}

type Forward = fn(&[f32], &[f32], Option<&[f32]>, &Conv1dDims, Conv1dSpec) -> Vec<f32>;
#[allow(
    clippy::type_complexity,
    reason = "the backward kernels' own signature, spelled out once"
)]
type Backward = fn(
    &[f32],
    &[f32],
    &[f32],
    &Conv1dDims,
    Conv1dSpec,
    Option<&mut [f32]>,
    Option<&mut [f32]>,
    Option<&mut [f32]>,
);

impl Problem {
    fn run(&self, forward: Forward, backward: Backward) -> Outputs {
        let d = &self.dims;
        let y = forward(&self.x, &self.w, self.bias.as_deref(), d, self.spec);
        let mut gx = vec![0.0; d.b * d.cin * d.l];
        let mut gw = vec![0.0; d.cout * d.cin * d.k];
        let mut gb = vec![0.0; d.cout];
        backward(
            &self.x,
            &self.w,
            &self.gout,
            d,
            self.spec,
            Some(&mut gx),
            Some(&mut gw),
            Some(&mut gb),
        );
        [&y, &gx, &gw, &gb].map(|v| bits_nan_canonical(v))
    }

    /// Every new kernel at every level against the parent's at scalar.
    fn check(&self) {
        type Pair = (&'static str, Forward, Backward, Forward, Backward);
        let pairs: [Pair; 2] = [
            (
                "direct",
                conv1d_forward_direct,
                conv1d_backward_direct,
                super::conv1d_forward_direct,
                super::conv1d_backward_direct,
            ),
            (
                "im2col",
                conv1d_forward_im2col,
                conv1d_backward_im2col,
                super::conv1d_forward_im2col,
                super::conv1d_backward_im2col,
            ),
        ];
        for (name, ref_fwd, ref_bwd, new_fwd, new_bwd) in pairs {
            let want = at_level(simd::Level::Scalar, || self.run(ref_fwd, ref_bwd));
            for level in simd::host_levels() {
                let got = at_level(level, || self.run(new_fwd, new_bwd));
                for (i, what) in ["forward", "gx", "gw", "gb"].iter().enumerate() {
                    assert_eq!(
                        got[i], want[i],
                        "{name} {what} diverged at {level:?}: b={} cin={} cout={} l={} k={} lo={} {:?}",
                        self.dims.b, self.dims.cin, self.dims.cout, self.dims.l, self.dims.k,
                        self.dims.lo, self.spec
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both lowerings' forward, `gx`, `gw` and `gb`, bitwise against the
    /// parent kernels, over univariate and channel-mixing inputs, output
    /// channel counts that fill 4-row tiles and 8-lane blocks and leave
    /// tails, output lengths on and off the vector width, and every
    /// dilation, stride and padding the encoder or a caller can pick.
    #[test]
    fn conv1d_kernels_match_parent_bitwise(
        b in 1usize..=3,
        cin in prop::sample::select(vec![1usize, 4, 6]),
        cout in 1usize..=33,
        lo in prop::sample::select(vec![16usize, 32, 5, 13, 19]),
        k in 1usize..=4,
        dilation in prop::sample::select(vec![1usize, 2, 4]),
        stride in 1usize..=2,
        padding in 0usize..=3,
        has_bias in 0u8..4,
        specials in 0u8..3,
        seed in 0u64..1_000_000,
        pool in prop::collection::vec(element(), 512..=512),
    ) {
        let spec = Conv1dSpec { stride, padding, dilation };
        // The input length that gives `lo` outputs, if one exists.
        let span = dilation * (k - 1) + 1;
        let Some(l) = ((lo - 1) * stride + span).checked_sub(2 * padding).filter(|&l| l > 0) else {
            continue;
        };
        prop_assert_eq!(spec.out_len(l, k), lo);
        let dims = Conv1dDims { b, cin, l, cout, k, lo };
        let values = |len: usize, salt: u64| -> Vec<f32> {
            if specials == 0 {
                (0..len).map(|i| pool[(i * 7 + salt as usize * 131) % pool.len()]).collect()
            } else {
                randn_with_zeros(len, seed.wrapping_mul(4).wrapping_add(salt))
            }
        };
        Problem {
            x: values(b * cin * l, 0),
            w: values(cout * cin * k, 1),
            bias: (has_bias > 0).then(|| values(cout, 2)),
            gout: values(b * cout * lo, 3),
            dims,
            spec,
        }
        .check();
    }
}

/// The shapes the encoder runs, pinned: the 1→16 input conv (direct), the
/// 16→16 block convs at dilations 1, 2 and 4 and the 16→32 output conv,
/// at T = 64 with 3 rows.
#[test]
fn conv1d_kernels_match_parent_at_encoder_shapes() {
    for (cin, cout, dilation) in [
        (1, 16, 1),
        (16, 16, 1),
        (16, 16, 2),
        (16, 16, 4),
        (16, 32, 1),
    ] {
        let (b, l, k) = (3, 64, 3);
        let spec = Conv1dSpec::same(k, dilation);
        let lo = spec.out_len(l, k);
        Problem {
            x: randn_with_zeros(b * cin * l, 1),
            w: randn_with_zeros(cout * cin * k, 2),
            bias: Some(randn_with_zeros(cout, 3)),
            gout: randn_with_zeros(b * cout * lo, 4),
            dims: Conv1dDims {
                b,
                cin,
                l,
                cout,
                k,
                lo,
            },
            spec,
        }
        .check();
    }
}

/// The blocked `transpose2d` moves every bit (signalling NaN payloads
/// included) where the naive loop does, at every level, on every shape up
/// to 20×20 — full 8×8 blocks and both edges — and on the 48×64 column
/// matrix of a 16-channel, K = 3, T = 64 conv.
#[test]
fn blocked_transpose2d_matches_naive_loop() {
    let shapes = (1..=20).flat_map(|r| (1..=20).map(move |c| (r, c)));
    for (r, c) in shapes.chain([(48, 64)]) {
        let x: Vec<f32> = (0..r * c)
            .map(|i| match i % 9 {
                0 => f32::from_bits(0x7f80_0001 + i as u32), // signalling NaN
                1 => -0.0,
                _ => i as f32 * 0.5 - 7.0,
            })
            .collect();
        let want = transpose2d(&x, r, c);
        for level in simd::host_levels() {
            let got = at_level(level, || crate::ops::matmul::transpose2d(&x, r, c));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{r}x{c} at {level:?}");
        }
    }
}
