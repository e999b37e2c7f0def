//! 1-D (dilated) and 2-D convolutions with hand-written backward passes.
//!
//! Two lowerings are compiled side by side:
//!
//! * a **direct** loop nest ([`Tensor::conv1d_direct`],
//!   [`Tensor::conv2d_direct`]) — the fast choice for tiny problems where
//!   unfolding overhead dominates. At stride 1 its interior outputs and,
//!   at every stride, its weight and bias gradients run 8 lanes at a time;
//! * an **im2col** lowering ([`Tensor::conv1d_im2col`],
//!   [`Tensor::conv2d_im2col`]) that reduces the convolution — forward
//!   *and* both backward passes — to the register-tiled `mm_acc` matmul
//!   over each batch element's `[C_in·K, L_out]` column matrix.
//!
//! [`Tensor::conv1d`] / [`Tensor::conv2d`] dispatch between the two with a
//! size heuristic (see [`Conv1dSpec::prefers_im2col`]). The two lowerings
//! sum in different orders, so which one a shape takes is part of the
//! numerics: moving the threshold moves results by rounding.
//!
//! At stride 1 — every conv1d the models run — the column matrix is never
//! built. Each batch element is copied once into a zero-padded `[C_in, L +
//! 2·padding]` buffer, and row `ci·K + kk` of the column matrix is the
//! window of that buffer starting at `ci·(L + 2·padding) + kk·dilation`:
//! the forward matmul reads it through that row table, and the weight
//! gradient packs its transpose from it in one pass. Other strides, and
//! conv2d, still unfold into a materialised column buffer. The kernels
//! these replaced are kept, under `cfg(test)`, as the bitwise reference in
//! `conv/reference.rs`.

use std::ops::Range;

use crate::arena;
use crate::ops::matmul::{mm_acc, mm_acc_rows, transpose2d};
use crate::simd::{self, Rows};
use crate::tensor::{read_pair, Tensor};

#[cfg(test)]
mod reference;

/// Hyper-parameters of a 1-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv1dSpec {
    pub stride: usize,
    pub padding: usize,
    pub dilation: usize,
}

impl Default for Conv1dSpec {
    fn default() -> Self {
        Conv1dSpec {
            stride: 1,
            padding: 0,
            dilation: 1,
        }
    }
}

/// Below this many multiply-accumulates per batch element the direct loop
/// wins: the unfold copy plus matmul setup costs more than it saves.
const IM2COL_MIN_FLOPS: usize = 1 << 12;

impl Conv1dSpec {
    /// "Same" padding for odd kernel `k` and the given dilation (stride 1).
    pub fn same(k: usize, dilation: usize) -> Self {
        Conv1dSpec {
            stride: 1,
            padding: dilation * (k - 1) / 2,
            dilation,
        }
    }

    /// Output length for input length `l` and kernel size `k`.
    pub fn out_len(&self, l: usize, k: usize) -> usize {
        let span = self.dilation * (k - 1) + 1;
        assert!(
            l + 2 * self.padding >= span,
            "conv1d input too short: len {l}, padding {}, kernel span {span}",
            self.padding
        );
        (l + 2 * self.padding - span) / self.stride + 1
    }

    /// Whether the im2col lowering is expected to beat the direct loop for
    /// a problem of this shape. Pointwise kernels (`k == 1`) stay direct —
    /// their unfold is a pure copy — as do problems with too little work
    /// to amortize the column buffer.
    pub fn prefers_im2col(&self, cin: usize, cout: usize, k: usize, lo: usize) -> bool {
        k > 1 && cout * cin * k * lo >= IM2COL_MIN_FLOPS
    }

    /// The output positions `o < lo` whose tap at offset `tap` reads inside
    /// an input of length `l`: `padding <= o·stride + tap < l + padding`.
    fn tap_range(&self, tap: usize, l: usize, lo: usize) -> Range<usize> {
        let o_min = self
            .padding
            .saturating_sub(tap)
            .div_ceil(self.stride)
            .min(lo);
        let o_max = if l + self.padding > tap {
            (((l + self.padding - tap - 1) / self.stride) + 1).min(lo)
        } else {
            0
        };
        o_min..o_max.max(o_min)
    }
}

/// Hyper-parameters of a 2-D convolution (no dilation; square parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    pub stride: usize,
    pub padding: usize,
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Conv2dSpec {
            stride: 1,
            padding: 0,
        }
    }
}

impl Conv2dSpec {
    pub fn out_dim(&self, d: usize, k: usize) -> usize {
        assert!(d + 2 * self.padding >= k, "conv2d input too small");
        (d + 2 * self.padding - k) / self.stride + 1
    }

    /// Same heuristic as [`Conv1dSpec::prefers_im2col`], with `K = KH·KW`
    /// and `L_out = H_out·W_out`.
    pub fn prefers_im2col(&self, cin: usize, cout: usize, k: usize, lo: usize) -> bool {
        k > 1 && cout * cin * k * lo >= IM2COL_MIN_FLOPS
    }
}

// ---------------------------------------------------------------------------
// im2col / col2im primitives
// ---------------------------------------------------------------------------

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
            for o in spec.tap_range(tap, l, lo) {
                row[o] = xr[o * spec.stride + tap - spec.padding];
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
            let os = spec.tap_range(tap, l, lo);
            if spec.stride == 1 {
                let dst = os.start + tap - spec.padding;
                simd::add_assign(&mut gxr[dst..dst + os.len()], &row[os]);
            } else {
                for o in os {
                    gxr[o * spec.stride + tap - spec.padding] += row[o];
                }
            }
        }
    }
}

/// One batch element's `[C_in·K, L_out]` column matrix, as a buffer and
/// where each of its rows starts in it, for [`mm_acc_rows`] and
/// [`simd::transpose_rows`]. At stride 1 the buffer is the element itself,
/// zero-padded to `[C_in, L + 2·padding]`, and row `ci·K + kk` starts at
/// `ci·(L + 2·padding) + kk·dilation`: every window holds exactly the
/// values, zeros included, that im2col would have copied. At other strides
/// the buffer is the materialised column matrix, its rows `L_out` apart.
struct Columns {
    buf: Vec<f32>,
    /// The window table at stride 1; empty otherwise.
    windows: Vec<usize>,
    dims: Conv1dDims,
    spec: Conv1dSpec,
}

impl Columns {
    fn new(dims: Conv1dDims, spec: Conv1dSpec) -> Self {
        let (cin, l, k, lo) = (dims.cin, dims.l, dims.k, dims.lo);
        let (len, windows) = if spec.stride == 1 {
            let lp = l + 2 * spec.padding;
            let windows = (0..cin)
                .flat_map(|ci| (0..k).map(move |kk| ci * lp + kk * spec.dilation))
                .collect();
            (cin * lp, windows)
        } else {
            (cin * k * lo, Vec::new())
        };
        Columns {
            buf: arena::zeroed(len),
            windows,
            dims,
            spec,
        }
    }

    /// Load batch element `xb` (`[C_in, L]`) and return the buffer and
    /// where each column-matrix row starts in it.
    fn load(&mut self, xb: &[f32]) -> (&[f32], Rows<'_>) {
        let (cin, l, k, lo) = (self.dims.cin, self.dims.l, self.dims.k, self.dims.lo);
        if self.spec.stride == 1 {
            // Only the interior is written, so the padding stays zero.
            let (pad, lp) = (self.spec.padding, l + 2 * self.spec.padding);
            for ci in 0..cin {
                self.buf[ci * lp + pad..ci * lp + pad + l]
                    .copy_from_slice(&xb[ci * l..(ci + 1) * l]);
            }
            (&self.buf, Rows::Table(&self.windows))
        } else {
            self.buf.fill(0.0);
            im2col1d(xb, &mut self.buf, cin, l, k, lo, self.spec);
            let rows = Rows::Strided {
                count: cin * k,
                stride: lo,
            };
            (&self.buf, rows)
        }
    }
}

impl Drop for Columns {
    fn drop(&mut self) {
        arena::recycle(std::mem::take(&mut self.buf));
    }
}

/// Unfold one batch element `x` (`[C_in, H, W]`) into `col`
/// (`[C_in·KH·KW, H_out·W_out]`). `col` must be zeroed on entry.
#[allow(
    clippy::too_many_arguments,
    reason = "called once per batch element from loops that already hold these dimensions as locals"
)]
fn im2col2d(
    x: &[f32],
    col: &mut [f32],
    cin: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ho: usize,
    wo: usize,
    spec: Conv2dSpec,
) {
    let cols = ho * wo;
    for ci in 0..cin {
        let xp = &x[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = &mut col
                    [((ci * kh + ky) * kw + kx) * cols..((ci * kh + ky) * kw + kx + 1) * cols];
                let ox_min = spec
                    .padding
                    .saturating_sub(kx)
                    .div_ceil(spec.stride)
                    .min(wo);
                let ox_max = if w + spec.padding > kx {
                    (((w + spec.padding - kx - 1) / spec.stride) + 1).min(wo)
                } else {
                    0
                };
                if ox_min >= ox_max {
                    continue;
                }
                for oy in 0..ho {
                    let iy = oy * spec.stride + ky;
                    if iy < spec.padding || iy - spec.padding >= h {
                        continue;
                    }
                    let xrow = &xp[(iy - spec.padding) * w..(iy - spec.padding + 1) * w];
                    let out = &mut row[oy * wo + ox_min..oy * wo + ox_max];
                    if spec.stride == 1 {
                        let src = ox_min + kx - spec.padding;
                        out.copy_from_slice(&xrow[src..src + (ox_max - ox_min)]);
                    } else {
                        for (ox, rv) in out.iter_mut().enumerate() {
                            *rv = xrow[(ox_min + ox) * spec.stride + kx - spec.padding];
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col2d`]: scatter-add `gcol` back into `gx` (`[C_in, H, W]`).
#[allow(
    clippy::too_many_arguments,
    reason = "called once per batch element from loops that already hold these dimensions as locals"
)]
fn col2im2d(
    gcol: &[f32],
    gx: &mut [f32],
    cin: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ho: usize,
    wo: usize,
    spec: Conv2dSpec,
) {
    let cols = ho * wo;
    for ci in 0..cin {
        let gxp = &mut gx[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row =
                    &gcol[((ci * kh + ky) * kw + kx) * cols..((ci * kh + ky) * kw + kx + 1) * cols];
                let ox_min = spec
                    .padding
                    .saturating_sub(kx)
                    .div_ceil(spec.stride)
                    .min(wo);
                let ox_max = if w + spec.padding > kx {
                    (((w + spec.padding - kx - 1) / spec.stride) + 1).min(wo)
                } else {
                    0
                };
                if ox_min >= ox_max {
                    continue;
                }
                for oy in 0..ho {
                    let iy = oy * spec.stride + ky;
                    if iy < spec.padding || iy - spec.padding >= h {
                        continue;
                    }
                    let grow = &mut gxp[(iy - spec.padding) * w..(iy - spec.padding + 1) * w];
                    let src = &row[oy * wo + ox_min..oy * wo + ox_max];
                    if spec.stride == 1 {
                        let dst = ox_min + kx - spec.padding;
                        simd::add_assign(&mut grow[dst..dst + src.len()], src);
                    } else {
                        for (ox, rv) in src.iter().enumerate() {
                            grow[(ox_min + ox) * spec.stride + kx - spec.padding] += rv;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Raw forward/backward kernels (shared by the autograd wrappers)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Conv1dDims {
    b: usize,
    cin: usize,
    l: usize,
    cout: usize,
    k: usize,
    lo: usize,
}

/// Append one batch element's `[C_out, L_out]` output rows to `out`, each
/// starting at its channel's bias, or at zero without one. Written just
/// before the kernel accumulates into them, never zero-filled first.
fn push_bias_rows(out: &mut Vec<f32>, bias: Option<&[f32]>, cout: usize, lo: usize) -> usize {
    let start = out.len();
    for co in 0..cout {
        out.extend(std::iter::repeat_n(bias.map_or(0.0, |bv| bv[co]), lo));
    }
    start
}

fn conv1d_forward_direct(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    d: &Conv1dDims,
    spec: Conv1dSpec,
) -> Vec<f32> {
    let (cin, l, cout, k, lo) = (d.cin, d.l, d.cout, d.k, d.lo);
    // Positions whose every tap lies inside the row run 8 at a time at
    // stride 1; the rest, and every position at other strides, take the
    // scalar loop, with the same per-element sequence.
    let inner = if spec.stride == 1 {
        let first = spec.tap_range(0, l, lo);
        let last = spec.tap_range(k.saturating_sub(1) * spec.dilation, l, lo);
        first.start..last.end.max(first.start)
    } else {
        0..0
    };
    let mut out = arena::take(d.b * cout * lo);
    for bi in 0..d.b {
        let start = push_bias_rows(&mut out, bias, cout, lo);
        let ochunk = &mut out[start..];
        let xb = &x[bi * cin * l..(bi + 1) * cin * l];
        for co in 0..cout {
            let orow = &mut ochunk[co * lo..(co + 1) * lo];
            for ci in 0..cin {
                let xr = &xb[ci * l..(ci + 1) * l];
                let wr = &w[(co * cin + ci) * k..(co * cin + ci + 1) * k];
                for o in (0..inner.start).chain(inner.end..lo) {
                    let base = o * spec.stride;
                    let mut acc = 0f32;
                    for (kk, &wv) in wr.iter().enumerate() {
                        let pos = base + kk * spec.dilation;
                        if pos >= spec.padding && pos - spec.padding < l {
                            acc += wv * xr[pos - spec.padding];
                        }
                    }
                    orow[o] += acc;
                }
                if !inner.is_empty() {
                    let xs = &xr[inner.start - spec.padding..];
                    simd::conv_taps(&mut orow[inner.clone()], xs, wr, spec.dilation);
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
    let (cin, l, cout, lo) = (d.cin, d.l, d.cout, d.lo);
    let mut cols = Columns::new(*d, spec);
    let mut out = arena::take(d.b * cout * lo);
    for bi in 0..d.b {
        let start = push_bias_rows(&mut out, bias, cout, lo);
        let (col, rows) = cols.load(&x[bi * cin * l..(bi + 1) * cin * l]);
        // W viewed as [C_out, C_in·K] is already contiguous row-major.
        mm_acc_rows(&mut out[start..], w, col, rows, cout, lo);
    }
    out
}

/// `gb[co] += Σ_o gout[b, co, o]` for every batch element in order, each
/// row summed as `iter().sum::<f32>()` sums it.
fn bias_grad(gb: &mut [f32], gout: &[f32], cout: usize, lo: usize) {
    for gob in gout.chunks_exact(cout * lo) {
        simd::row_sums(gb, gob, lo);
    }
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
    gw: Option<&mut [f32]>,
    gb: Option<&mut [f32]>,
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
    if let Some(gb) = gb {
        bias_grad(gb, gout, cout, lo);
    }
    let Some(gw) = gw else {
        return;
    };
    // Blocks of up to 8 output channels, a few taps at a time, with their
    // gradients held in registers over the whole batch. Each element still
    // sums over (batch, o) in ascending order, skipping zero gradients.
    let pk = cin * k;
    for cb in (0..cout).step_by(simd::WEIGHT_LANES) {
        let channels = (cout - cb).min(simd::WEIGHT_LANES);
        for p0 in (0..pk).step_by(simd::WEIGHT_TAPS) {
            let ps = p0..(p0 + simd::WEIGHT_TAPS).min(pk);
            let mut acc = [[0f32; simd::WEIGHT_LANES]; simd::WEIGHT_TAPS];
            for (p, lane_acc) in ps.clone().zip(acc.iter_mut()) {
                for (c, a) in lane_acc.iter_mut().enumerate().take(channels) {
                    *a = gw[(cb + c) * pk + p];
                }
            }
            for bi in 0..b {
                let xb = &x[bi * cin * l..(bi + 1) * cin * l];
                let taps: [simd::Tap; simd::WEIGHT_TAPS] = std::array::from_fn(|q| {
                    let (p, tap) = (p0 + q, ((p0 + q) % k) * spec.dilation);
                    let os = spec.tap_range(tap, l, lo);
                    if p >= pk || os.is_empty() {
                        return simd::Tap { os: 0..0, xs: &[] };
                    }
                    let first = (p / k) * l + os.start * spec.stride + tap - spec.padding;
                    simd::Tap {
                        os,
                        xs: &xb[first..],
                    }
                });
                let gob = &gout[(bi * cout + cb) * lo..(bi * cout + cb + channels) * lo];
                let nq = ps.len();
                simd::conv_weight_lanes(
                    &mut acc[..nq],
                    gob,
                    channels,
                    lo,
                    &taps[..nq],
                    spec.stride,
                );
            }
            for (p, lane_acc) in ps.clone().zip(acc.iter()) {
                for (c, a) in lane_acc.iter().enumerate().take(channels) {
                    gw[(cb + c) * pk + p] = *a;
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
    gw: Option<&mut [f32]>,
    gb: Option<&mut [f32]>,
) {
    let (b, cin, l, cout, k, lo) = (d.b, d.cin, d.l, d.cout, d.k, d.lo);
    // grad input: gcol = W^T [C_in·K, C_out] · gout_b [C_out, L_out],
    // then fold columns back with col2im.
    if let Some(gx) = gx {
        let wt = transpose2d(w, cout, cin * k);
        let mut gcol = arena::take(cin * k * lo);
        for (bi, gxb) in gx.chunks_mut(cin * l).enumerate() {
            let gob = &gout[bi * cout * lo..(bi + 1) * cout * lo];
            // The matmul accumulates, and each sum starts from +0.
            gcol.clear();
            gcol.resize(cin * k * lo, 0.0);
            mm_acc(&mut gcol, &wt, gob, cin * k, cout, lo);
            col2im1d(&gcol, gxb, cin, l, k, lo, spec);
        }
        arena::recycle(gcol);
        arena::recycle(wt);
    }
    if let Some(gb) = gb {
        bias_grad(gb, gout, cout, lo);
    }
    // grad weight: gw += gout_b [C_out, L_out] · col_b^T [L_out, C_in·K],
    // with col_b^T packed from the column windows in one pass.
    let Some(gw) = gw else {
        return;
    };
    let mut cols = Columns::new(*d, spec);
    let mut colt = arena::take(lo * cin * k);
    for bi in 0..b {
        let (col, rows) = cols.load(&x[bi * cin * l..(bi + 1) * cin * l]);
        simd::transpose_rows(&mut colt, col, rows, lo);
        let gob = &gout[bi * cout * lo..(bi + 1) * cout * lo];
        mm_acc(gw, gob, &colt, cout, lo, cin * k);
    }
    arena::recycle(colt);
}

#[derive(Clone, Copy)]
struct Conv2dDims {
    b: usize,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    ho: usize,
    wo: usize,
}

fn conv2d_forward_direct(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    d: &Conv2dDims,
    spec: Conv2dSpec,
) -> Vec<f32> {
    let (cin, h, w_, cout, kh, kw, ho, wo) = (d.cin, d.h, d.w, d.cout, d.kh, d.kw, d.ho, d.wo);
    let mut out = arena::zeroed(d.b * cout * ho * wo);
    for (bi, ochunk) in out.chunks_mut(cout * ho * wo).enumerate() {
        let xb = &x[bi * cin * h * w_..(bi + 1) * cin * h * w_];
        for co in 0..cout {
            let oplane = &mut ochunk[co * ho * wo..(co + 1) * ho * wo];
            if let Some(bv) = bias {
                oplane.iter_mut().for_each(|v| *v = bv[co]);
            }
            for ci in 0..cin {
                let xp = &xb[ci * h * w_..(ci + 1) * h * w_];
                let wp = &w[(co * cin + ci) * kh * kw..(co * cin + ci + 1) * kh * kw];
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut acc = 0f32;
                        for ky in 0..kh {
                            let iy = oy * spec.stride + ky;
                            if iy < spec.padding || iy - spec.padding >= h {
                                continue;
                            }
                            let iy = iy - spec.padding;
                            for kx in 0..kw {
                                let ix = ox * spec.stride + kx;
                                if ix < spec.padding || ix - spec.padding >= w_ {
                                    continue;
                                }
                                acc += wp[ky * kw + kx] * xp[iy * w_ + (ix - spec.padding)];
                            }
                        }
                        oplane[oy * wo + ox] += acc;
                    }
                }
            }
        }
    }
    out
}

fn conv2d_forward_im2col(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    d: &Conv2dDims,
    spec: Conv2dSpec,
) -> Vec<f32> {
    let (cin, h, w_, cout, kh, kw, ho, wo) = (d.cin, d.h, d.w, d.cout, d.kh, d.kw, d.ho, d.wo);
    let cols = ho * wo;
    let mut out = arena::zeroed(d.b * cout * cols);
    for (bi, ochunk) in out.chunks_mut(cout * cols).enumerate() {
        if let Some(bv) = bias {
            for co in 0..cout {
                ochunk[co * cols..(co + 1) * cols]
                    .iter_mut()
                    .for_each(|v| *v = bv[co]);
            }
        }
        let mut col = arena::zeroed(cin * kh * kw * cols);
        im2col2d(
            &x[bi * cin * h * w_..(bi + 1) * cin * h * w_],
            &mut col,
            cin,
            h,
            w_,
            kh,
            kw,
            ho,
            wo,
            spec,
        );
        mm_acc(ochunk, w, &col, cout, cin * kh * kw, cols);
        arena::recycle(col);
    }
    out
}

#[allow(
    clippy::too_many_arguments,
    reason = "the three gradient outputs are separate optional slices so an untracked parent costs nothing"
)]
fn conv2d_backward_direct(
    x: &[f32],
    w: &[f32],
    gout: &[f32],
    d: &Conv2dDims,
    spec: Conv2dSpec,
    gx: Option<&mut [f32]>,
    mut gw: Option<&mut [f32]>,
    mut gb: Option<&mut [f32]>,
) {
    let (b, cin, h, w_, cout, kh, kw, ho, wo) =
        (d.b, d.cin, d.h, d.w, d.cout, d.kh, d.kw, d.ho, d.wo);
    let gx_planes = gx.into_iter().flat_map(|gx| gx.chunks_mut(cin * h * w_));
    for (bi, gxb) in gx_planes.enumerate() {
        let gob = &gout[bi * cout * ho * wo..(bi + 1) * cout * ho * wo];
        for co in 0..cout {
            let gop = &gob[co * ho * wo..(co + 1) * ho * wo];
            for ci in 0..cin {
                let wp = &w[(co * cin + ci) * kh * kw..(co * cin + ci + 1) * kh * kw];
                let gxp = &mut gxb[ci * h * w_..(ci + 1) * h * w_];
                for oy in 0..ho {
                    for ox in 0..wo {
                        let g = gop[oy * wo + ox];
                        if g == 0.0 {
                            continue;
                        }
                        for ky in 0..kh {
                            let iy = oy * spec.stride + ky;
                            if iy < spec.padding || iy - spec.padding >= h {
                                continue;
                            }
                            let iy = iy - spec.padding;
                            for kx in 0..kw {
                                let ix = ox * spec.stride + kx;
                                if ix < spec.padding || ix - spec.padding >= w_ {
                                    continue;
                                }
                                gxp[iy * w_ + (ix - spec.padding)] += g * wp[ky * kw + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    for bi in 0..b {
        let xb = &x[bi * cin * h * w_..(bi + 1) * cin * h * w_];
        let gob = &gout[bi * cout * ho * wo..(bi + 1) * cout * ho * wo];
        for co in 0..cout {
            let gop = &gob[co * ho * wo..(co + 1) * ho * wo];
            if let Some(gb) = gb.as_deref_mut() {
                gb[co] += gop.iter().sum::<f32>();
            }
            let Some(gw) = gw.as_deref_mut() else {
                continue;
            };
            for ci in 0..cin {
                let xp = &xb[ci * h * w_..(ci + 1) * h * w_];
                let gwp = &mut gw[(co * cin + ci) * kh * kw..(co * cin + ci + 1) * kh * kw];
                for oy in 0..ho {
                    for ox in 0..wo {
                        let g = gop[oy * wo + ox];
                        if g == 0.0 {
                            continue;
                        }
                        for ky in 0..kh {
                            let iy = oy * spec.stride + ky;
                            if iy < spec.padding || iy - spec.padding >= h {
                                continue;
                            }
                            let iy = iy - spec.padding;
                            for kx in 0..kw {
                                let ix = ox * spec.stride + kx;
                                if ix < spec.padding || ix - spec.padding >= w_ {
                                    continue;
                                }
                                gwp[ky * kw + kx] += g * xp[iy * w_ + (ix - spec.padding)];
                            }
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
fn conv2d_backward_im2col(
    x: &[f32],
    w: &[f32],
    gout: &[f32],
    d: &Conv2dDims,
    spec: Conv2dSpec,
    gx: Option<&mut [f32]>,
    mut gw: Option<&mut [f32]>,
    mut gb: Option<&mut [f32]>,
) {
    let (b, cin, h, w_, cout, kh, kw, ho, wo) =
        (d.b, d.cin, d.h, d.w, d.cout, d.kh, d.kw, d.ho, d.wo);
    let (rows, cols) = (cin * kh * kw, ho * wo);
    if let Some(gx) = gx {
        let wt = transpose2d(w, cout, rows);
        for (bi, gxb) in gx.chunks_mut(cin * h * w_).enumerate() {
            let gob = &gout[bi * cout * cols..(bi + 1) * cout * cols];
            let mut gcol = arena::zeroed(rows * cols);
            mm_acc(&mut gcol, &wt, gob, rows, cout, cols);
            col2im2d(&gcol, gxb, cin, h, w_, kh, kw, ho, wo, spec);
            arena::recycle(gcol);
        }
        arena::recycle(wt);
    }
    let mut col = arena::zeroed(rows * cols);
    for bi in 0..b {
        let gob = &gout[bi * cout * cols..(bi + 1) * cout * cols];
        if let Some(gb) = gb.as_deref_mut() {
            for co in 0..cout {
                gb[co] += gob[co * cols..(co + 1) * cols].iter().sum::<f32>();
            }
        }
        let Some(gw) = gw.as_deref_mut() else {
            continue;
        };
        col.fill(0.0);
        im2col2d(
            &x[bi * cin * h * w_..(bi + 1) * cin * h * w_],
            &mut col,
            cin,
            h,
            w_,
            kh,
            kw,
            ho,
            wo,
            spec,
        );
        let colt = transpose2d(&col, rows, cols);
        mm_acc(gw, gob, &colt, cout, cols, rows);
        arena::recycle(colt);
    }
    arena::recycle(col);
}

// ---------------------------------------------------------------------------
// Autograd wrappers
// ---------------------------------------------------------------------------

/// A zeroed gradient buffer of `n` elements for parent `i`, or `None` when
/// that parent is absent (no bias) or untracked.
fn tracked_grad(parents: &[Tensor], i: usize, n: usize) -> Option<Vec<f32>> {
    parents
        .get(i)
        .filter(|p| p.is_tracked())
        .map(|_| arena::zeroed(n))
}

impl Tensor {
    /// 1-D convolution.
    ///
    /// * `self`: `[B, C_in, L]`
    /// * `weight`: `[C_out, C_in, K]`
    /// * `bias`: optional `[C_out]`
    ///
    /// Returns `[B, C_out, L_out]`. Dispatches between the im2col lowering
    /// and the direct loop based on problem size; both lowerings compute
    /// identical values (see `tests/conv_oracle.rs`).
    pub fn conv1d(&self, weight: &Tensor, bias: Option<&Tensor>, spec: Conv1dSpec) -> Tensor {
        let (cin, cout, k) = (self.shape()[1], weight.shape()[0], weight.shape()[2]);
        let lo = spec.out_len(self.shape()[2], k);
        if spec.prefers_im2col(cin, cout, k, lo) {
            self.conv1d_im2col(weight, bias, spec)
        } else {
            self.conv1d_direct(weight, bias, spec)
        }
    }

    /// 1-D convolution via the direct loop nest. Public so tests and
    /// benchmarks can pin the naive oracle path explicitly; model code
    /// should call [`Tensor::conv1d`].
    pub fn conv1d_direct(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv1dSpec,
    ) -> Tensor {
        self.conv1d_with(weight, bias, spec, false)
    }

    /// 1-D convolution via im2col + matmul. Public so tests and benchmarks
    /// can pin the lowering explicitly; model code should call
    /// [`Tensor::conv1d`].
    pub fn conv1d_im2col(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv1dSpec,
    ) -> Tensor {
        self.conv1d_with(weight, bias, spec, true)
    }

    fn conv1d_with(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv1dSpec,
        im2col: bool,
    ) -> Tensor {
        assert_eq!(self.ndim(), 3, "conv1d input must be [B, C_in, L]");
        assert_eq!(weight.ndim(), 3, "conv1d weight must be [C_out, C_in, K]");
        let (b, cin, l) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (cout, cin_w, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
        assert_eq!(cin, cin_w, "conv1d channel mismatch");
        if let Some(bs) = bias {
            assert_eq!(bs.shape(), &[cout], "conv1d bias shape");
        }
        let lo = spec.out_len(l, k);
        let dims = Conv1dDims {
            b,
            cin,
            l,
            cout,
            k,
            lo,
        };
        let bvec = bias.map(|t| t.to_vec());
        let out = {
            let (x_ref, w_ref) = read_pair(self, weight);
            let forward = if im2col {
                conv1d_forward_im2col
            } else {
                conv1d_forward_direct
            };
            forward(&x_ref, &w_ref, bvec.as_deref(), &dims, spec)
        };

        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(bs) = bias {
            parents.push(bs.clone());
        }
        let has_bias = bias.is_some();
        Tensor::from_op(
            out,
            &[b, cout, lo],
            parents,
            Box::new(move |node, gout| {
                let ps = node.op_parents();
                let (x_ref, w_ref) = read_pair(&ps[0], &ps[1]);
                let mut gx = tracked_grad(ps, 0, b * cin * l);
                let mut gw = tracked_grad(ps, 1, cout * cin * k);
                let mut gb = tracked_grad(ps, 2, cout);
                let backward = if im2col {
                    conv1d_backward_im2col
                } else {
                    conv1d_backward_direct
                };
                backward(
                    &x_ref,
                    &w_ref,
                    gout,
                    &dims,
                    spec,
                    gx.as_deref_mut(),
                    gw.as_deref_mut(),
                    gb.as_deref_mut(),
                );
                let mut grads = vec![gx, gw];
                if has_bias {
                    grads.push(gb);
                }
                grads
            }),
        )
    }

    /// 2-D convolution.
    ///
    /// * `self`: `[B, C_in, H, W]`
    /// * `weight`: `[C_out, C_in, KH, KW]`
    /// * `bias`: optional `[C_out]`
    ///
    /// Returns `[B, C_out, H_out, W_out]`. Dispatches between the im2col
    /// lowering and the direct loop based on problem size.
    pub fn conv2d(&self, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
        let (cin, cout) = (self.shape()[1], weight.shape()[0]);
        let (kh, kw) = (weight.shape()[2], weight.shape()[3]);
        let ho = spec.out_dim(self.shape()[2], kh);
        let wo = spec.out_dim(self.shape()[3], kw);
        if spec.prefers_im2col(cin, cout, kh * kw, ho * wo) {
            self.conv2d_im2col(weight, bias, spec)
        } else {
            self.conv2d_direct(weight, bias, spec)
        }
    }

    /// 2-D convolution via the direct loop nest (naive oracle path).
    pub fn conv2d_direct(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        self.conv2d_with(weight, bias, spec, false)
    }

    /// 2-D convolution via im2col + matmul.
    pub fn conv2d_im2col(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        self.conv2d_with(weight, bias, spec, true)
    }

    fn conv2d_with(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
        im2col: bool,
    ) -> Tensor {
        assert_eq!(self.ndim(), 4, "conv2d input must be [B, C_in, H, W]");
        assert_eq!(
            weight.ndim(),
            4,
            "conv2d weight must be [C_out, C_in, KH, KW]"
        );
        let (b, cin, h, w_) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        let (cout, cin_w, kh, kw) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        assert_eq!(cin, cin_w, "conv2d channel mismatch");
        if let Some(bs) = bias {
            assert_eq!(bs.shape(), &[cout], "conv2d bias shape");
        }
        let ho = spec.out_dim(h, kh);
        let wo = spec.out_dim(w_, kw);
        let dims = Conv2dDims {
            b,
            cin,
            h,
            w: w_,
            cout,
            kh,
            kw,
            ho,
            wo,
        };
        let bvec = bias.map(|t| t.to_vec());
        let out = {
            let (x_ref, w_ref) = read_pair(self, weight);
            let forward = if im2col {
                conv2d_forward_im2col
            } else {
                conv2d_forward_direct
            };
            forward(&x_ref, &w_ref, bvec.as_deref(), &dims, spec)
        };

        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(bs) = bias {
            parents.push(bs.clone());
        }
        let has_bias = bias.is_some();
        Tensor::from_op(
            out,
            &[b, cout, ho, wo],
            parents,
            Box::new(move |node, gout| {
                let ps = node.op_parents();
                let (x_ref, w_ref) = read_pair(&ps[0], &ps[1]);
                let mut gx = tracked_grad(ps, 0, b * cin * h * w_);
                let mut gw = tracked_grad(ps, 1, cout * cin * kh * kw);
                let mut gb = tracked_grad(ps, 2, cout);
                let backward = if im2col {
                    conv2d_backward_im2col
                } else {
                    conv2d_backward_direct
                };
                backward(
                    &x_ref,
                    &w_ref,
                    gout,
                    &dims,
                    spec,
                    gx.as_deref_mut(),
                    gw.as_deref_mut(),
                    gb.as_deref_mut(),
                );
                let mut grads = vec![gx, gw];
                if has_bias {
                    grads.push(gb);
                }
                grads
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn conv1d_identity_kernel() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 4]);
        let w = Tensor::from_vec(vec![1.], &[1, 1, 1]);
        let y = x.conv1d(&w, None, Conv1dSpec::default());
        assert_eq!(y.to_vec(), vec![1., 2., 3., 4.]);
    }

    #[test]
    fn conv1d_moving_sum_with_padding() {
        let x = Tensor::from_vec(vec![1., 2., 3.], &[1, 1, 3]);
        let w = Tensor::from_vec(vec![1., 1., 1.], &[1, 1, 3]);
        let y = x.conv1d(&w, None, Conv1dSpec::same(3, 1));
        assert_eq!(y.to_vec(), vec![3., 6., 5.]);
    }

    #[test]
    fn conv1d_dilation_skips() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5.], &[1, 1, 5]);
        let w = Tensor::from_vec(vec![1., 1.], &[1, 1, 2]);
        let spec = Conv1dSpec {
            stride: 1,
            padding: 0,
            dilation: 2,
        };
        let y = x.conv1d(&w, None, spec);
        // pairs (x[i], x[i+2])
        assert_eq!(y.to_vec(), vec![4., 6., 8.]);
    }

    #[test]
    fn conv1d_stride_and_bias() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 4]);
        let w = Tensor::from_vec(vec![1., 1.], &[1, 1, 2]);
        let b = Tensor::from_vec(vec![10.], &[1]);
        let spec = Conv1dSpec {
            stride: 2,
            padding: 0,
            dilation: 1,
        };
        let y = x.conv1d(&w, Some(&b), spec);
        assert_eq!(y.to_vec(), vec![13., 17.]);
    }

    #[test]
    fn conv1d_backward_shapes_and_bias_grad() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[1, 2, 3]).requires_grad();
        let w = Tensor::from_vec(vec![0.5; 2 * 2 * 2], &[2, 2, 2]).requires_grad();
        let b = Tensor::zeros(&[2]).requires_grad();
        let y = x.conv1d(&w, Some(&b), Conv1dSpec::default());
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().len(), 6);
        assert_eq!(w.grad().unwrap().len(), 8);
        // lo = 2 output positions per channel; gb = 2 per output channel.
        assert_eq!(b.grad().unwrap(), vec![2.0, 2.0]);
    }

    #[test]
    fn conv2d_known_values() {
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let w = Tensor::from_vec(vec![1., 0., 0., 1.], &[1, 1, 2, 2]);
        let y = x.conv2d(&w, None, Conv2dSpec::default());
        // x[oy,ox] + x[oy+1,ox+1]
        assert_eq!(y.to_vec(), vec![6., 8., 12., 14.]);
    }

    #[test]
    fn conv2d_stride2_downsamples() {
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let y = x.conv2d(
            &w,
            None,
            Conv2dSpec {
                stride: 2,
                padding: 0,
            },
        );
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert!(y.to_vec().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn conv2d_backward_runs() {
        let x = Tensor::ones(&[2, 3, 5, 5]).requires_grad();
        let w = Tensor::full(&[4, 3, 3, 3], 0.1).requires_grad();
        let b = Tensor::zeros(&[4]).requires_grad();
        let y = x.conv2d(
            &w,
            Some(&b),
            Conv2dSpec {
                stride: 1,
                padding: 1,
            },
        );
        assert_eq!(y.shape(), &[2, 4, 5, 5]);
        y.sum_all().backward();
        assert!(x.grad().unwrap().iter().all(|g| g.is_finite()));
        assert_eq!(b.grad().unwrap(), vec![50.0; 4]);
    }

    #[test]
    fn dispatch_picks_im2col_for_encoder_shapes() {
        // hidden=32 channels, L=64, k=3 — the TS-encoder residual block.
        let spec = Conv1dSpec::same(3, 1);
        assert!(spec.prefers_im2col(32, 32, 3, 64));
        // Pointwise kernels and tiny problems stay on the direct loop.
        assert!(!spec.prefers_im2col(32, 32, 1, 64));
        assert!(!spec.prefers_im2col(1, 1, 3, 8));
    }

    #[test]
    fn forced_paths_agree_on_odd_geometry() {
        let x = Tensor::randn(&[2, 3, 11], 5);
        let w = Tensor::randn(&[4, 3, 3], 6);
        let b = Tensor::randn(&[4], 7);
        let spec = Conv1dSpec {
            stride: 2,
            padding: 3,
            dilation: 2,
        };
        let yd = x.conv1d_direct(&w, Some(&b), spec);
        let yi = x.conv1d_im2col(&w, Some(&b), spec);
        assert_eq!(yd.shape(), yi.shape());
        for (a, bv) in yd.to_vec().iter().zip(yi.to_vec()) {
            assert!((a - bv).abs() < 1e-5, "{a} vs {bv}");
        }
    }
}
