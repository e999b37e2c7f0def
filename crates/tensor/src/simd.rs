//! Runtime-dispatched SIMD kernels for the hot inner loops.
//!
//! ## Bit-exactness contract
//!
//! Every vector path here is **bit-identical** to the scalar path it
//! replaces, for every input (including infinities, subnormals and signed
//! zeros): the vector bodies use separate multiply, add, subtract and
//! divide instructions — never FMA — so each element sees exactly the
//! scalar operation sequence (`round(round(s*b) + c)` for `axpy`) and the
//! per-element order of operations is unchanged. This is what lets the serial training trajectory stay
//! bit-identical across machines with different SIMD capabilities, and what
//! the proptest oracle suite in `tests/simd_oracle.rs` asserts (bitwise, not
//! within-tolerance). The one exception is the sign and payload of a NaN
//! result, which Rust leaves unspecified: when two NaNs meet in an add, x86
//! returns the first operand's, and the compiler may order the operands
//! differently per path and per build. Where the NaNs are always agrees.
//!
//! ## Dispatch policy
//!
//! The widest supported level, AVX-512 → AVX2 → SSE2 → scalar, is detected
//! once per process (`is_x86_feature_detected!`) and cached; on non-x86_64
//! targets the scalar path is the only level. Two kernels have a 16-lane
//! AVX-512 body, the matmul tiles ([`mm_tiles`]) and [`tanh`]; every other
//! kernel runs its AVX2 body at [`Level::Avx512`]. Tests and benches can
//! pin a narrower level per thread with [`force_level`] to compare paths
//! against each other on the same machine, over [`host_levels`].

use std::ops::Range;
#[cfg(target_arch = "x86_64")]
use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set level a kernel may run at, narrowest first: a level
/// orders above every level it runs on top of.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Plain Rust loops — the oracle all other paths must match bitwise.
    Scalar,
    /// 4-lane `__m128` paths (baseline on x86_64).
    Sse2,
    /// 8-lane `__m256` paths.
    Avx2,
    /// 16-lane `__m512` paths (AVX-512F) for [`mm_tiles`] and [`tanh`];
    /// every other kernel takes its AVX2 path, so the level is detected
    /// only where AVX2 is too.
    Avx512,
}

#[cfg(target_arch = "x86_64")]
static DETECTED: AtomicU8 = AtomicU8::new(0); // 0 = not yet probed

#[cfg(target_arch = "x86_64")]
fn detect() -> Level {
    match DETECTED.load(Ordering::Relaxed) {
        2 => Level::Sse2,
        3 => Level::Avx2,
        4 => Level::Avx512,
        _ => {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            let l = if avx2 && std::arch::is_x86_feature_detected!("avx512f") {
                Level::Avx512
            } else if avx2 {
                Level::Avx2
            } else {
                // SSE2 is part of the x86_64 baseline.
                Level::Sse2
            };
            // Codes 2..=4, so that 0 stays "not yet probed".
            DETECTED.store(l as u8 + 1, Ordering::Relaxed);
            l
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Level {
    Level::Scalar
}

thread_local! {
    static FORCED: std::cell::Cell<Option<Level>> = const { std::cell::Cell::new(None) };
}

/// Pin the dispatch level for the current thread (`None` restores runtime
/// detection). Forcing a level the CPU does not support is a programming
/// error; [`active_level`] clamps to the detected maximum instead of
/// executing illegal instructions.
#[doc(hidden)]
pub fn force_level(level: Option<Level>) {
    FORCED.with(|f| f.set(level));
}

/// The level kernels will actually run at on this thread.
pub fn active_level() -> Level {
    let max = detect();
    match FORCED.with(|f| f.get()) {
        Some(l) => l.min(max),
        None => max,
    }
}

/// The levels this CPU supports, narrowest first: pinning any of them with
/// [`force_level`] runs that level's kernels rather than a clamped copy of
/// a narrower one.
#[doc(hidden)]
pub fn host_levels() -> impl Iterator<Item = Level> {
    let max = detect();
    [Level::Scalar, Level::Sse2, Level::Avx2, Level::Avx512]
        .into_iter()
        .filter(move |&l| l <= max)
}

// ----- axpy: c[j] += s * b[j] -------------------------------------------

/// `c[j] += s * b[j]` — the inner loop of the ikj matmul kernel and the
/// stride-1 col2im accumulate.
#[inline]
pub fn axpy(c: &mut [f32], s: f32, b: &[f32]) {
    debug_assert_eq!(c.len(), b.len());
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_level() only reports levels the CPU supports.
        Level::Avx2 | Level::Avx512 => unsafe { axpy_avx2(c, s, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        Level::Sse2 => unsafe { axpy_sse2(c, s, b) },
        _ => axpy_scalar(c, s, b),
    }
}

/// Scalar oracle for [`axpy`].
pub fn axpy_scalar(c: &mut [f32], s: f32, b: &[f32]) {
    for (cv, bv) in c.iter_mut().zip(b) {
        *cv += s * bv;
    }
}

/// # Safety
///
/// Caller must guarantee AVX2 is available (the dispatcher checks
/// active_level()). All loads/stores are unaligned (`loadu`/`storeu`) and
/// bounded by `n = min(c.len(), b.len())`, so every `ptr.add(i)` with
/// `i + 8 <= n` stays inside the borrowed slices; `c`/`b` cannot alias
/// because `c` is `&mut`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(c: &mut [f32], s: f32, b: &[f32]) {
    use std::arch::x86_64::*;
    let n = c.len().min(b.len());
    let vs = _mm256_set1_ps(s);
    let cp = c.as_mut_ptr();
    let bp = b.as_ptr();
    let mut i = 0;
    while i + 8 <= n {
        // mul then add (no FMA) so each lane rounds exactly like the scalar
        // `*cv += s * bv`.
        let prod = _mm256_mul_ps(vs, _mm256_loadu_ps(bp.add(i)));
        let sum = _mm256_add_ps(_mm256_loadu_ps(cp.add(i)), prod);
        _mm256_storeu_ps(cp.add(i), sum);
        i += 8;
    }
    axpy_scalar(&mut c[i..n], s, &b[i..n]);
}

/// # Safety
///
/// SSE2 is baseline on x86_64; unaligned 4-lane loads/stores are
/// bounded by `n = min(c.len(), b.len())`, so `ptr.add(i)` with
/// `i + 4 <= n` stays in bounds, and `&mut c` rules out aliasing with `b`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn axpy_sse2(c: &mut [f32], s: f32, b: &[f32]) {
    use std::arch::x86_64::*;
    let n = c.len().min(b.len());
    let vs = _mm_set1_ps(s);
    let cp = c.as_mut_ptr();
    let bp = b.as_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let prod = _mm_mul_ps(vs, _mm_loadu_ps(bp.add(i)));
        let sum = _mm_add_ps(_mm_loadu_ps(cp.add(i)), prod);
        _mm_storeu_ps(cp.add(i), sum);
        i += 4;
    }
    axpy_scalar(&mut c[i..n], s, &b[i..n]);
}

// ----- mm_tiles: register-tiled c += a · b -------------------------------

/// Rows of one [`mm_tiles`] register tile.
const TILE_M: usize = 4;
/// Columns of one AVX2 [`mm_tiles`] register tile (two 8-lane registers),
/// the granularity the tiles report their columns at.
const TILE_N: usize = 16;
/// Columns of one AVX-512 [`mm_tiles`] register tile (two 16-lane
/// registers).
const TILE_N_512: usize = 32;

/// Where each row of a matrix operand starts in its buffer, for
/// [`mm_tiles`] and [`transpose_rows`]. A contiguous row-major matrix is
/// `Strided` and needs no table; a stride-1 conv's windows into its
/// zero-padded input are a `Table`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Rows<'a> {
    /// `count` rows, row `p` starting at `p·stride`.
    Strided { count: usize, stride: usize },
    /// Row `p` starts at `table[p]`.
    Table(&'a [usize]),
}

impl Rows<'_> {
    /// Number of rows.
    pub(crate) fn len(self) -> usize {
        match self {
            Rows::Strided { count, .. } => count,
            Rows::Table(table) => table.len(),
        }
    }

    /// Where row `p` starts.
    pub(crate) fn start(self, p: usize) -> usize {
        match self {
            Rows::Strided { stride, .. } => p * stride,
            Rows::Table(table) => table[p],
        }
    }

    /// Whether every row, `n` elements long, lies inside `src`.
    fn fit(self, src: &[f32], n: usize) -> bool {
        let ends = |start: usize| start.checked_add(n).is_some_and(|end| end <= src.len());
        match self {
            Rows::Strided { count: 0, .. } => true,
            Rows::Strided { count, stride } => (count - 1).checked_mul(stride).is_some_and(ends),
            Rows::Table(table) => table.iter().all(|&start| ends(start)),
        }
    }
}

/// `c += a (m×k) · b (k×n)` over the full 4-row × 16-column tiles of `c`,
/// each held in eight AVX2 registers for the whole `k` sweep. At AVX-512
/// the tiles are 4 × 32, in eight 16-lane registers, and the last 16
/// columns of an `n` that is an odd number of 16s take the AVX2 tile.
/// Row `p` of `b` is `b[rows.start(p)..][..n]` and `k = rows.len()`, so a
/// stride-1 conv reads im2col's column matrix from its padded input
/// without building it. Returns how many leading rows and columns the
/// tiles covered, a multiple of 4 and of 16: `(0, 0)` below AVX2, where
/// the caller's ikj loop does all the work, as it does for the tails.
///
/// Each element still sees `c + a[i, p]·b[p, j]` as a separate multiply
/// then add, in ascending `p`, skipping exactly the `(i, p)` whose
/// `a[i, p]` is zero: the operation sequence of the ikj axpy loop, so the
/// result is bit-identical to it at every tile width.
pub(crate) fn mm_tiles(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    rows: Rows,
    m: usize,
    n: usize,
) -> (usize, usize) {
    let k = rows.len();
    let holds =
        |len: usize, rows: usize, cols: usize| rows.checked_mul(cols).is_some_and(|e| len >= e);
    assert!(
        holds(a.len(), m, k) && holds(c.len(), m, n) && rows.fit(b, n),
        "mm_tiles operands shorter than {m}x{k} · {k}x{n}"
    );
    let (mt, nt) = (m / TILE_M * TILE_M, n / TILE_N * TILE_N);
    if mt == 0 || nt == 0 {
        return (0, 0);
    }
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => {
            // SAFETY: active_level() only reports levels the CPU supports,
            // and the assert above covers every element the tiles touch;
            // both row maps are pure.
            unsafe {
                match rows {
                    Rows::Strided { stride, .. } => {
                        mm_tiles_avx2(c, a, b, k, |p| p * stride, m, n, 0);
                    }
                    Rows::Table(table) => mm_tiles_avx2(c, a, b, k, |p| table[p], m, n, 0),
                }
            }
            (mt, nt)
        }
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => {
            // SAFETY: as for AVX2 above; the level implies AVX2 as well,
            // which the 16-column remainder runs.
            unsafe {
                match rows {
                    Rows::Strided { stride, .. } => {
                        mm_tiles_avx512(c, a, b, k, |p| p * stride, m, n)
                    }
                    Rows::Table(table) => mm_tiles_avx512(c, a, b, k, |p| table[p], m, n),
                }
            }
            (mt, nt)
        }
        _ => (0, 0),
    }
}

/// The AVX2 tiles of [`mm_tiles`] whose columns start at or after `j0`, a
/// multiple of 16.
///
/// # Safety
///
/// Caller must guarantee AVX2 (dispatcher-checked), `a` and `c` of at
/// least `m·k` and `m·n` elements, and a `start` that returns the same
/// value on every call, with `start(p) + n <= b.len()` for every `p < k`.
/// For the tiled `mt = ⌊m/4⌋·4` rows and the columns from `j0` to `nt =
/// ⌊n/16⌋·16` every access is then in bounds: `a[(i + r)·k + p]` with
/// `i + r < mt`, `p < k`; `b[start(p) + j .. + 16]` and `c[(i + r)·n + j
/// .. + 16]` with `j + 16 <= nt`. `&mut c` rules out aliasing with `a` and
/// `b`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[expect(
    clippy::too_many_arguments,
    reason = "the operands of `mm_tiles` plus the first column, each named in the safety contract"
)]
unsafe fn mm_tiles_avx2(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    start: impl Fn(usize) -> usize,
    m: usize,
    n: usize,
    j0: usize,
) {
    use std::arch::x86_64::*;
    let (cp, ap, bp) = (c.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    for i in (0..m / TILE_M * TILE_M).step_by(TILE_M) {
        for j in (j0..n / TILE_N * TILE_N).step_by(TILE_N) {
            let mut acc = [[_mm256_setzero_ps(); 2]; TILE_M];
            for (r, row) in acc.iter_mut().enumerate() {
                let cr = cp.add((i + r) * n + j);
                *row = [_mm256_loadu_ps(cr), _mm256_loadu_ps(cr.add(8))];
            }
            for p in 0..k {
                let br = bp.add(start(p) + j);
                let (b0, b1) = (_mm256_loadu_ps(br), _mm256_loadu_ps(br.add(8)));
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = *ap.add((i + r) * k + p);
                    if av == 0.0 {
                        continue;
                    }
                    // mul then add (no FMA), as in `axpy_avx2`.
                    let vs = _mm256_set1_ps(av);
                    row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(vs, b0));
                    row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(vs, b1));
                }
            }
            for (r, row) in acc.iter().enumerate() {
                let cr = cp.add((i + r) * n + j);
                _mm256_storeu_ps(cr, row[0]);
                _mm256_storeu_ps(cr.add(8), row[1]);
            }
        }
    }
}

/// [`mm_tiles_avx2`]'s tile at twice the width: 4 rows × 32 columns in
/// eight AVX-512 registers, with the same per-element multiply then add
/// and the same zero skip. The columns past the last full 32, when 16
/// remain, take the AVX2 tile.
///
/// # Safety
///
/// As [`mm_tiles_avx2`] with `j0 = 0`, plus AVX-512F (dispatcher-checked):
/// the 32-column tiles read `b[start(p) + j .. + 32]` and write `c[(i +
/// r)·n + j .. + 32]` only with `j + 32 <= ⌊n/32⌋·32 <= n`, and the AVX2
/// call covers the columns from there to `⌊n/16⌋·16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2")]
unsafe fn mm_tiles_avx512(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    start: impl Fn(usize) -> usize,
    m: usize,
    n: usize,
) {
    use std::arch::x86_64::*;
    let (cp, ap, bp) = (c.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    let wide = n / TILE_N_512 * TILE_N_512;
    for i in (0..m / TILE_M * TILE_M).step_by(TILE_M) {
        for j in (0..wide).step_by(TILE_N_512) {
            let mut acc = [[_mm512_setzero_ps(); 2]; TILE_M];
            for (r, row) in acc.iter_mut().enumerate() {
                let cr = cp.add((i + r) * n + j);
                *row = [_mm512_loadu_ps(cr), _mm512_loadu_ps(cr.add(16))];
            }
            for p in 0..k {
                let br = bp.add(start(p) + j);
                let (b0, b1) = (_mm512_loadu_ps(br), _mm512_loadu_ps(br.add(16)));
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = *ap.add((i + r) * k + p);
                    if av == 0.0 {
                        continue;
                    }
                    // mul then add (no FMA), as in `axpy_avx2`.
                    let vs = _mm512_set1_ps(av);
                    row[0] = _mm512_add_ps(row[0], _mm512_mul_ps(vs, b0));
                    row[1] = _mm512_add_ps(row[1], _mm512_mul_ps(vs, b1));
                }
            }
            for (r, row) in acc.iter().enumerate() {
                let cr = cp.add((i + r) * n + j);
                _mm512_storeu_ps(cr, row[0]);
                _mm512_storeu_ps(cr.add(16), row[1]);
            }
        }
    }
    mm_tiles_avx2(c, a, b, k, start, m, n, wide);
}

// ----- transpose_rows: out[o, p] = src[rows.start(p) + o] ---------------

/// Replace `out` with the `n × P` matrix (`P = rows.len()`) whose column
/// `p` is the window `src[rows.start(p)..][..n]`: `out[o·P + p] =
/// src[rows.start(p) + o]`. With [`Rows::Strided`] rows `c` apart this
/// transposes a row-major `P × c` matrix; with a stride-1 conv's window
/// table it packs the weight gradient's transposed column matrix straight
/// from the zero-padded input, in one pass. Values are moved, never
/// computed, so every level gives the same bits. At AVX2 full 8×8 blocks
/// are transposed in registers; the edges, and everything below AVX2, take
/// the scalar loop. Every element of `out` is written exactly once, so it
/// is not zero-filled first.
pub(crate) fn transpose_rows(out: &mut Vec<f32>, src: &[f32], rows: Rows, n: usize) {
    assert!(
        rows.fit(src, n),
        "transpose_rows: a window of {n} runs past the {}-element source",
        src.len()
    );
    let pn = rows.len();
    let len = pn * n;
    out.clear();
    out.reserve(len);
    let dst = &mut out.spare_capacity_mut()[..len];
    let (pb, ob) = match active_level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 | Level::Avx512 => {
            // SAFETY: active_level() only reports levels the CPU supports;
            // the assert above covers every window the blocks read, `dst`
            // holds all `P·n` elements they write, and both row maps are
            // pure.
            unsafe {
                match rows {
                    Rows::Strided { stride, .. } => {
                        transpose_rows_avx2(dst, src, pn, |p| p * stride, n);
                    }
                    Rows::Table(table) => transpose_rows_avx2(dst, src, pn, |p| table[p], n),
                }
            }
            (pn / 8 * 8, n / 8 * 8)
        }
        _ => (0, 0),
    };
    transpose_rows_scalar(dst, src, rows, pb..pn, 0..n);
    transpose_rows_scalar(dst, src, rows, 0..pb, ob..n);
    // SAFETY: `dst` is the first `len` elements of `out`'s capacity. The
    // AVX2 blocks wrote every `(o, p)` with `o < ob` and `p < pb`, and the
    // two scalar calls every other `(o, p)` with `o < n` and `p < P`, so
    // all `len` are initialised.
    unsafe { out.set_len(len) };
}

/// Scalar part of [`transpose_rows`] over the block `ps × os`.
fn transpose_rows_scalar(
    dst: &mut [std::mem::MaybeUninit<f32>],
    src: &[f32],
    rows: Rows,
    ps: Range<usize>,
    os: Range<usize>,
) {
    let pn = rows.len();
    for p in ps {
        let window = &src[rows.start(p)..];
        for o in os.clone() {
            dst[o * pn + p].write(window[o]);
        }
    }
}

/// # Safety
///
/// Caller must guarantee AVX2 (dispatcher-checked), a `start` that
/// returns the same value on every call, with `start(p) + n <= src.len()`
/// for every `p < pn`, and `dst.len() >= pn·n`. The blocks then read
/// `src[start(p) + o .. + 8]` with `o + 8 <= n` and write `dst[(o + s)·pn
/// + p .. + 8]` with `o + s < n`, `p + 8 <= pn`, all in bounds; `dst` is
/// `&mut`, so it cannot alias `src`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_rows_avx2(
    dst: &mut [std::mem::MaybeUninit<f32>],
    src: &[f32],
    pn: usize,
    start: impl Fn(usize) -> usize,
    n: usize,
) {
    use std::arch::x86_64::*;
    let (dp, sp) = (dst.as_mut_ptr().cast::<f32>(), src.as_ptr());
    for p in (0..pn / 8 * 8).step_by(8) {
        let block: [usize; 8] = std::array::from_fn(|r| start(p + r));
        for o in (0..n / 8 * 8).step_by(8) {
            let cols = transpose8(std::array::from_fn(|r| {
                _mm256_loadu_ps(sp.add(block[r] + o))
            }));
            for (s, col) in cols.iter().enumerate() {
                _mm256_storeu_ps(dp.add((o + s) * pn + p), *col);
            }
        }
    }
}

/// Transpose an 8×8 block held as eight row registers: lane `r` of output
/// `s` is lane `s` of input `r`. Only shuffles, so every bit is kept.
///
/// # Safety
///
/// Caller must guarantee AVX2 (dispatcher-checked); the kernel touches
/// no memory, only its register arguments.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn transpose8(r: [std::arch::x86_64::__m256; 8]) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    // Interleave row pairs, then pairs of pairs, within each 128-bit half.
    let t: [__m256; 8] = std::array::from_fn(|i| {
        let (a, b) = (r[i / 2 * 2], r[i / 2 * 2 + 1]);
        if i % 2 == 0 {
            _mm256_unpacklo_ps(a, b)
        } else {
            _mm256_unpackhi_ps(a, b)
        }
    });
    let q = [
        _mm256_shuffle_ps::<0x44>(t[0], t[2]),
        _mm256_shuffle_ps::<0xee>(t[0], t[2]),
        _mm256_shuffle_ps::<0x44>(t[1], t[3]),
        _mm256_shuffle_ps::<0xee>(t[1], t[3]),
        _mm256_shuffle_ps::<0x44>(t[4], t[6]),
        _mm256_shuffle_ps::<0xee>(t[4], t[6]),
        _mm256_shuffle_ps::<0x44>(t[5], t[7]),
        _mm256_shuffle_ps::<0xee>(t[5], t[7]),
    ];
    // q[s] holds column s of rows 0-3 in its low half and column s + 4 in
    // its high half; q[s + 4] the same for rows 4-7.
    std::array::from_fn(|s| {
        if s < 4 {
            _mm256_permute2f128_ps::<0x20>(q[s], q[s + 4])
        } else {
            _mm256_permute2f128_ps::<0x31>(q[s - 4], q[s])
        }
    })
}

// ----- conv_taps: out[o] += Σ_kk w[kk]·x[o + kk·d] ----------------------

/// One output row of the direct conv at stride 1, over positions whose
/// every tap lies inside the input: `out[o] += acc` with `acc = 0 +
/// w[0]·x[o] + w[1]·x[o + d] + …`, summed left to right, which is the
/// direct loop's per-element sequence. At AVX2 eight positions run per
/// register with separate multiply and add, as in [`axpy`]; the tail, and
/// everything below AVX2, takes the scalar loop.
pub(crate) fn conv_taps(out: &mut [f32], x: &[f32], w: &[f32], d: usize) {
    let span = w.len().saturating_sub(1).checked_mul(d);
    assert!(
        span.and_then(|s| s.checked_add(out.len()))
            .is_some_and(|need| x.len() >= need),
        "conv_taps: input shorter than the taps reach"
    );
    let done = match active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_level() only reports levels the CPU supports, and
        // the assert above covers every tap the blocks read.
        Level::Avx2 | Level::Avx512 => unsafe { conv_taps_avx2(out, x, w, d) },
        _ => 0,
    };
    conv_taps_scalar(&mut out[done..], &x[done..], w, d);
}

/// Scalar oracle for [`conv_taps`].
pub(crate) fn conv_taps_scalar(out: &mut [f32], x: &[f32], w: &[f32], d: usize) {
    for (o, ov) in out.iter_mut().enumerate() {
        let mut acc = 0f32;
        for (kk, &wv) in w.iter().enumerate() {
            acc += wv * x[o + kk * d];
        }
        *ov += acc;
    }
}

/// Returns how many leading positions it wrote (a multiple of 8).
///
/// # Safety
///
/// Caller must guarantee AVX2 (dispatcher-checked) and `x.len() >=
/// out.len() + (w.len() - 1)·d`: each block reads `x[o + kk·d .. + 8]`
/// with `o + 8 <= out.len()` and writes `out[o .. + 8]`, all in bounds;
/// `&mut out` rules out aliasing with `x` and `w`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv_taps_avx2(out: &mut [f32], x: &[f32], w: &[f32], d: usize) -> usize {
    use std::arch::x86_64::*;
    let (op, xp) = (out.as_mut_ptr(), x.as_ptr());
    let mut o = 0;
    while o + 8 <= out.len() {
        let mut acc = _mm256_setzero_ps();
        for (kk, &wv) in w.iter().enumerate() {
            let prod = _mm256_mul_ps(_mm256_set1_ps(wv), _mm256_loadu_ps(xp.add(o + kk * d)));
            acc = _mm256_add_ps(acc, prod);
        }
        _mm256_storeu_ps(op.add(o), _mm256_add_ps(_mm256_loadu_ps(op.add(o)), acc));
        o += 8;
    }
    o
}

// ----- conv_weight_lanes: the direct conv's weight gradient, 8 channels --

/// Most output channels one [`conv_weight_lanes`] call covers, one per
/// lane.
pub(crate) const WEIGHT_LANES: usize = 8;
/// Most taps one [`conv_weight_lanes`] call accumulates, one register each.
pub(crate) const WEIGHT_TAPS: usize = 4;

/// One tap of [`conv_weight_lanes`]: the output positions `os` it reads
/// inside the input, and the input window `xs`, where `o` reads
/// `xs[(o - os.start)·stride]`.
pub(crate) struct Tap<'a> {
    pub(crate) os: Range<usize>,
    pub(crate) xs: &'a [f32],
}

/// The direct conv's weight gradient for up to [`WEIGHT_LANES`] output
/// channels and [`WEIGHT_TAPS`] taps: `acc[q][c] += g[c, o]·x_q(o)` for
/// each tap `q`, channel `c < channels` and `o` in `taps[q].os` ascending,
/// skipping every `(c, o)` whose `g[c, o]` is zero. `g` holds the
/// channels' output gradients as rows of `n`. At AVX2 a full block of
/// eight channels sits in one register per tap: each 8×8 block of `g` is
/// transposed in registers so that a lane is a channel, and a skipped lane
/// keeps its old value through a blend, so a zero gradient times an
/// infinite or NaN input stays skipped exactly as in the scalar loop,
/// which takes partial blocks and every level below AVX2.
pub(crate) fn conv_weight_lanes(
    acc: &mut [[f32; WEIGHT_LANES]],
    g: &[f32],
    channels: usize,
    n: usize,
    taps: &[Tap],
    stride: usize,
) {
    assert!(
        acc.len() == taps.len()
            && taps.len() <= WEIGHT_TAPS
            && channels <= WEIGHT_LANES
            && n.checked_mul(channels).is_some_and(|len| len <= g.len())
            && taps.iter().all(|t| {
                t.os.end <= n
                    && (t.os.is_empty()
                        || (t.os.len() - 1)
                            .checked_mul(stride)
                            .is_some_and(|last| last < t.xs.len()))
            }),
        "conv_weight_lanes: taps reach past {n} outputs or their inputs"
    );
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_level() only reports levels the CPU supports, and
        // the assert above covers every gradient and input the kernel reads
        // for a full block of channels.
        Level::Avx2 | Level::Avx512 if channels == WEIGHT_LANES => unsafe {
            conv_weight_lanes_avx2(acc, g, n, taps, stride)
        },
        _ => conv_weight_lanes_scalar(acc, g, channels, n, taps, stride),
    }
}

/// Scalar oracle for [`conv_weight_lanes`].
fn conv_weight_lanes_scalar(
    acc: &mut [[f32; WEIGHT_LANES]],
    g: &[f32],
    channels: usize,
    n: usize,
    taps: &[Tap],
    stride: usize,
) {
    for (lanes, tap) in acc.iter_mut().zip(taps) {
        for o in tap.os.clone() {
            let xv = tap.xs[(o - tap.os.start) * stride];
            for (c, av) in lanes.iter_mut().enumerate().take(channels) {
                let gv = g[c * n + o];
                if gv != 0.0 {
                    *av += gv * xv;
                }
            }
        }
    }
}

/// # Safety
///
/// Caller must guarantee AVX2 (dispatcher-checked), `g.len() >= 8·n`,
/// `taps.len() == acc.len() <= WEIGHT_TAPS`, and for every tap `os.end <=
/// n` and `(os.len() - 1)·stride < xs.len()`. Every read is then in
/// bounds: `g[c·n + o .. + 8]` for full blocks with `o + 8 <= n`,
/// `g[c·n + o]` with `o < n` for the last one, and `xs[(o - os.start)·
/// stride]` only for `o` in `os`; `&mut acc` rules out aliasing.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv_weight_lanes_avx2(
    acc: &mut [[f32; WEIGHT_LANES]],
    g: &[f32],
    n: usize,
    taps: &[Tap],
    stride: usize,
) {
    use std::arch::x86_64::*;
    let gp = g.as_ptr();
    let mut sums = [_mm256_setzero_ps(); WEIGHT_TAPS];
    for (sum, lanes) in sums.iter_mut().zip(acc.iter()) {
        *sum = _mm256_loadu_ps(lanes.as_ptr());
    }
    let lo = taps.iter().map(|t| t.os.start).min().unwrap_or(0);
    let hi = taps.iter().map(|t| t.os.end).max().unwrap_or(0);
    let mut o0 = lo;
    while o0 < hi {
        let width = (hi - o0).min(8);
        // Lane c of gs[s] is g[c, o0 + s].
        let gs = if o0 + 8 <= n {
            transpose8(std::array::from_fn(|c| _mm256_loadu_ps(gp.add(c * n + o0))))
        } else {
            std::array::from_fn(|s| {
                let o = (o0 + s).min(n - 1);
                _mm256_setr_ps(
                    *gp.add(o),
                    *gp.add(n + o),
                    *gp.add(2 * n + o),
                    *gp.add(3 * n + o),
                    *gp.add(4 * n + o),
                    *gp.add(5 * n + o),
                    *gp.add(6 * n + o),
                    *gp.add(7 * n + o),
                )
            })
        };
        for (s, &gv) in gs.iter().enumerate().take(width) {
            let o = o0 + s;
            let zero = _mm256_cmp_ps::<_CMP_EQ_OQ>(gv, _mm256_setzero_ps());
            for (sum, tap) in sums.iter_mut().zip(taps) {
                if !tap.os.contains(&o) {
                    continue;
                }
                let xv = _mm256_set1_ps(*tap.xs.as_ptr().add((o - tap.os.start) * stride));
                // mul then add (no FMA), as the scalar `*av += gv * xv`.
                let next = _mm256_add_ps(*sum, _mm256_mul_ps(gv, xv));
                *sum = _mm256_blendv_ps(next, *sum, zero);
            }
        }
        o0 += width;
    }
    for (sum, lanes) in sums.iter().zip(acc.iter_mut()) {
        _mm256_storeu_ps(lanes.as_mut_ptr(), *sum);
    }
}

// ----- row_sums: dst[r] += Σ_o src[r, o] --------------------------------

/// `dst[r] += src[r, 0] + src[r, 1] + … + src[r, n - 1]`, each row summed
/// left to right from the element `Iterator::sum` folds from: bit for bit
/// `dst[r] += row.iter().sum::<f32>()`, a conv's bias gradient. At AVX2
/// eight rows run at once, their 8×8 blocks transposed in registers so
/// that each lane carries one row's running sum; the row tail, and
/// everything below AVX2, takes the scalar loop.
pub(crate) fn row_sums(dst: &mut [f32], src: &[f32], n: usize) {
    assert!(
        dst.len().checked_mul(n).is_some_and(|len| len <= src.len()),
        "row_sums: {} rows of {n} run past {} elements",
        dst.len(),
        src.len()
    );
    let done = match active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_level() only reports levels the CPU supports, and
        // the assert above covers every row the blocks read.
        Level::Avx2 | Level::Avx512 => unsafe { row_sums_avx2(dst, src, n) },
        _ => 0,
    };
    for (r, d) in dst.iter_mut().enumerate().skip(done) {
        *d += src[r * n..(r + 1) * n].iter().sum::<f32>();
    }
}

/// Returns how many leading rows it wrote (a multiple of 8).
///
/// # Safety
///
/// Caller must guarantee AVX2 (dispatcher-checked) and `src.len() >=
/// dst.len()·n`: each block reads `src[(r + i)·n + o .. + 8]` with
/// `r + i < dst.len()` and `o + 8 <= n`, and the tail `src[(r + i)·n + o]`
/// with `o < n`, all in bounds; `&mut dst` rules out aliasing.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_sums_avx2(dst: &mut [f32], src: &[f32], n: usize) -> usize {
    use std::arch::x86_64::*;
    let neutral: f32 = std::iter::empty::<f32>().sum();
    let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
    let mut r = 0;
    while r + 8 <= dst.len() {
        let mut acc = _mm256_set1_ps(neutral);
        let mut o = 0;
        while o + 8 <= n {
            let cols = transpose8(std::array::from_fn(|i| {
                _mm256_loadu_ps(sp.add((r + i) * n + o))
            }));
            for col in cols {
                acc = _mm256_add_ps(acc, col);
            }
            o += 8;
        }
        let mut lanes = [0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for (i, lane) in lanes.iter_mut().enumerate() {
            for oo in o..n {
                *lane += *sp.add((r + i) * n + oo);
            }
        }
        let sums = _mm256_loadu_ps(lanes.as_ptr());
        _mm256_storeu_ps(dp.add(r), _mm256_add_ps(_mm256_loadu_ps(dp.add(r)), sums));
        r += 8;
    }
    r
}

// ----- add_assign: a[j] += b[j] -----------------------------------------

/// `a[j] += b[j]` — gradient accumulation in the autograd sweep and the
/// all-reduce fold.
#[inline]
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_level() only reports levels the CPU supports.
        Level::Avx2 | Level::Avx512 => unsafe { add_assign_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        Level::Sse2 => unsafe { add_assign_sse2(a, b) },
        _ => add_assign_scalar(a, b),
    }
}

/// Scalar oracle for [`add_assign`].
pub fn add_assign_scalar(a: &mut [f32], b: &[f32]) {
    for (av, bv) in a.iter_mut().zip(b) {
        *av += bv;
    }
}

/// # Safety
///
/// Caller must guarantee AVX2 (dispatcher-checked); unaligned
/// 8-lane accesses are bounded by `n = min(a.len(), b.len())` and `&mut a`
/// rules out aliasing with `b`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_assign_avx2(a: &mut [f32], b: &[f32]) {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let ap = a.as_mut_ptr();
    let bp = b.as_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let sum = _mm256_add_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
        _mm256_storeu_ps(ap.add(i), sum);
        i += 8;
    }
    add_assign_scalar(&mut a[i..n], &b[i..n]);
}

/// # Safety
///
/// SSE2 is baseline on x86_64; unaligned 4-lane accesses are
/// bounded by `n = min(a.len(), b.len())` and `&mut a` rules out aliasing.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn add_assign_sse2(a: &mut [f32], b: &[f32]) {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let ap = a.as_mut_ptr();
    let bp = b.as_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let sum = _mm_add_ps(_mm_loadu_ps(ap.add(i)), _mm_loadu_ps(bp.add(i)));
        _mm_storeu_ps(ap.add(i), sum);
        i += 4;
    }
    add_assign_scalar(&mut a[i..n], &b[i..n]);
}

// ----- scale_assign: a[j] *= s ------------------------------------------

/// `a[j] *= s` — the mean step of all-reduce and loss scaling.
#[inline]
pub fn scale_assign(a: &mut [f32], s: f32) {
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_level() only reports levels the CPU supports.
        Level::Avx2 | Level::Avx512 => unsafe { scale_assign_avx2(a, s) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        Level::Sse2 => unsafe { scale_assign_sse2(a, s) },
        _ => scale_assign_scalar(a, s),
    }
}

/// Scalar oracle for [`scale_assign`].
pub fn scale_assign_scalar(a: &mut [f32], s: f32) {
    for av in a.iter_mut() {
        *av *= s;
    }
}

/// # Safety
///
/// Caller must guarantee AVX2 (dispatcher-checked); the single
/// `&mut` slice cannot alias anything, and unaligned 8-lane accesses stay
/// below `n = a.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scale_assign_avx2(a: &mut [f32], s: f32) {
    use std::arch::x86_64::*;
    let n = a.len();
    let vs = _mm256_set1_ps(s);
    let ap = a.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let prod = _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), vs);
        _mm256_storeu_ps(ap.add(i), prod);
        i += 8;
    }
    scale_assign_scalar(&mut a[i..n], s);
}

/// # Safety
///
/// SSE2 is baseline on x86_64; the single `&mut` slice cannot
/// alias anything, and unaligned 4-lane accesses stay below `n = a.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn scale_assign_sse2(a: &mut [f32], s: f32) {
    use std::arch::x86_64::*;
    let n = a.len();
    let vs = _mm_set1_ps(s);
    let ap = a.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let prod = _mm_mul_ps(_mm_loadu_ps(ap.add(i)), vs);
        _mm_storeu_ps(ap.add(i), prod);
        i += 4;
    }
    scale_assign_scalar(&mut a[i..n], s);
}

// ----- tanh: a[j] = tanh(a[j]) ------------------------------------------

// Constants of glibc 2.36's `s_expm1f.c` and `s_tanhf.c`, by bit pattern.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// `expm1f`'s scaled polynomial coefficients Q1..Q5.
const EXPM1_Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];
const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;

/// `a[j] = tanh(a[j])` in place, rounded exactly as glibc 2.36's `tanhf`
/// rounds it — GELU's tanh term.
///
/// [`tanh_scalar`] ports fdlibm's `tanhf` and the part of `expm1f` it
/// calls, as glibc 2.36 builds them for x86_64 (plain SSE, no FMA): the
/// same constants, the same operations in the same order, one rounding
/// each. It equals that `tanhf` bit for bit on all 2^32 inputs (a NaN
/// only as a NaN), so GELU gives the same bits whatever the host libm.
/// The AVX2 and AVX-512 paths evaluate every branch for 8 or 16 lanes with
/// separate mul, add, sub and div, then pick each lane's branch with
/// blends; SSE2 runs the scalar port. `tests/simd_oracle.rs` pins a
/// recorded glibc table at every level and, in an ignored test, compares
/// all 2^32 inputs with the host's `f32::tanh`.
#[inline]
pub fn tanh(a: &mut [f32]) {
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_level() only reports levels the CPU supports.
        Level::Avx2 => unsafe { tanh_avx2(a) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_level() only reports levels the CPU supports.
        Level::Avx512 => unsafe { tanh_avx512(a) },
        _ => tanh_scalar(a),
    }
}

/// Scalar oracle for [`tanh`].
pub fn tanh_scalar(a: &mut [f32]) {
    for v in a.iter_mut() {
        *v = tanhf(*v);
    }
}

/// glibc 2.36 `tanhf`. Its `x == ±0` early return is folded into the
/// `|x| < 2^-55` branch, which returns the same signed zero.
fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let neg = jx >> 31 == 1;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if neg { 1.0 / x - 1.0 } else { 1.0 / x + 1.0 };
    }
    let z = if ix >= 0x41b0_0000 {
        // |x| >= 22
        1.0 - TINY
    } else if ix < 0x2400_0000 {
        // |x| < 2^-55
        return x * (1.0 + x);
    } else if ix >= 0x3f80_0000 {
        // |x| >= 1
        let t = expm1f(2.0 * x.abs());
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1f(-2.0 * x.abs());
        -t / (t + 2.0)
    };
    if neg {
        -z
    } else {
        z
    }
}

/// glibc 2.36 `expm1f` over the arguments [`tanhf`] passes it: `2|x|` in
/// [2, 44) and `-2|x|` in (-2, -2^-54]. No such argument reaches its
/// overflow and non-finite filters or its k = 1 and k = 128 cases, so the
/// port leaves them out.
fn expm1f(x: f32) -> f32 {
    debug_assert!((2.0..44.0).contains(&x) || (-2.0..0.0).contains(&x));
    let hx = x.to_bits() & 0x7fff_ffff;
    // Reduce to x = k·ln2 + r, with r = hi - lo and c its rounding error.
    let (r, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // |x| < 1.5·ln2, which only a negative argument reaches.
            (x + LN2_HI, -LN2_LO, -1)
        } else {
            let k = (INVLN2 * x + if x < 0.0 { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25: expm1(x) rounds to x.
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        (x, 0.0, 0)
    };
    let [q1, q2, q3, q4, q5] = EXPM1_Q;
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    if k == 0 {
        return r - (r * e - hxs);
    }
    let e = r * (e - c) - c - hxs;
    if k == -1 {
        return 0.5 * (r - e) - 0.5;
    }
    // Multiply by 2^k by adding k to the exponent field, as glibc does.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    if k <= -2 || k > 56 {
        scale(1.0 - (e - r)) - 1.0
    } else if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 - 2^-k
        scale(t - (e - r))
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^-k
        scale(r - (e + t) + 1.0)
    }
}

/// # Safety
///
/// Caller must guarantee AVX2 (dispatcher-checked); unaligned
/// 8-lane loads/stores are bounded by `n = a.len()`, so `ptr.add(i)` with
/// `i + 8 <= n` stays inside the single `&mut` slice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_avx2(a: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = a.len();
    let ap = a.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        _mm256_storeu_ps(ap.add(i), tanh8_avx2(_mm256_loadu_ps(ap.add(i))));
        i += 8;
    }
    tanh_scalar(&mut a[i..n]);
}

/// [`tanhf`] on 8 lanes. Every lane computes every branch's value with the
/// scalar port's operations, in its order, and keeps the one its input
/// selects; the other branches' values (NaN, inf or garbage included) are
/// blended away. `k` is formed per lane as [`expm1f`] forms it. k = -1
/// and k = 0 then reuse the general reduction: with `t = -1`,
/// `x - t·ln2_hi` and `t·ln2_lo` are exactly `x + ln2_hi` and `-ln2_lo`,
/// and with `t = 0` the reduction leaves `r = x`.
///
/// # Safety
///
/// Caller must guarantee AVX2 (dispatcher-checked); the kernel touches
/// no memory, only its register argument.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tanh8_avx2(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let abs_mask = _mm256_set1_epi32(0x7fff_ffff);
    let jx = _mm256_castps_si256(x);
    let ix = _mm256_and_si256(jx, abs_mask);
    let sign = _mm256_castsi256_ps(_mm256_andnot_si256(abs_mask, jx));
    let ix_above = |bits: i32| _mm256_castsi256_ps(_mm256_cmpgt_epi32(ix, _mm256_set1_epi32(bits)));

    // u = 2|x| where |x| >= 1, else -2|x|.
    let ge1 = ix_above(0x3f7f_ffff);
    let ax = _mm256_castsi256_ps(ix);
    let u = _mm256_blendv_ps(
        _mm256_mul_ps(_mm256_set1_ps(-2.0), ax),
        _mm256_mul_ps(_mm256_set1_ps(2.0), ax),
        ge1,
    );

    // expm1(u): u is negative exactly where |x| < 1.
    let hu = _mm256_and_si256(_mm256_castps_si256(u), abs_mask);
    let half = _mm256_blendv_ps(_mm256_set1_ps(-0.5), _mm256_set1_ps(0.5), ge1);
    let k_trunc = _mm256_cvttps_epi32(_mm256_add_ps(
        _mm256_mul_ps(_mm256_set1_ps(INVLN2), u),
        half,
    ));
    // k = -1 where |u| < 1.5·ln2, then k = 0 where |u| <= 0.5·ln2.
    let near = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3f85_1592), hu);
    let k = _mm256_blendv_epi8(k_trunc, _mm256_set1_epi32(-1), near);
    let k = _mm256_and_si256(k, _mm256_cmpgt_epi32(hu, _mm256_set1_epi32(0x3eb1_7218)));
    let t = _mm256_cvtepi32_ps(k);
    let hi = _mm256_sub_ps(u, _mm256_mul_ps(t, _mm256_set1_ps(LN2_HI)));
    let lo = _mm256_mul_ps(t, _mm256_set1_ps(LN2_LO));
    let r = _mm256_sub_ps(hi, lo);
    let c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

    let hfx = _mm256_mul_ps(_mm256_set1_ps(0.5), r);
    let hxs = _mm256_mul_ps(r, hfx);
    let [q1, q2, q3, q4, q5] = EXPM1_Q;
    let mut p = _mm256_mul_ps(hxs, _mm256_set1_ps(q5));
    for q in [q4, q3, q2, q1] {
        p = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(q), p));
    }
    let r1 = _mm256_add_ps(_mm256_set1_ps(1.0), p);
    let t = _mm256_sub_ps(_mm256_set1_ps(3.0), _mm256_mul_ps(r1, hfx));
    let e = _mm256_mul_ps(
        hxs,
        _mm256_div_ps(
            _mm256_sub_ps(r1, t),
            _mm256_sub_ps(_mm256_set1_ps(6.0), _mm256_mul_ps(r, t)),
        ),
    );
    // One candidate result per branch of `expm1f`, selected below.
    let k0 = _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));
    let e = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c), hxs);
    let k_m1 = _mm256_sub_ps(
        _mm256_mul_ps(_mm256_set1_ps(0.5), _mm256_sub_ps(r, e)),
        _mm256_set1_ps(0.5),
    );
    let k_exp = _mm256_slli_epi32::<23>(k);
    let scale = |y: __m256| _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), k_exp));
    let one = _mm256_set1_ps(1.0);
    // k <= -2 or k > 56.
    let k_far = _mm256_sub_ps(scale(_mm256_sub_ps(one, _mm256_sub_ps(e, r))), one);
    // 3 <= k < 23, with t = 1 - 2^-k.
    let t_mid = _mm256_castsi256_ps(_mm256_sub_epi32(
        _mm256_set1_epi32(0x3f80_0000),
        _mm256_srlv_epi32(_mm256_set1_epi32(0x0100_0000), k),
    ));
    let k_mid = scale(_mm256_sub_ps(t_mid, _mm256_sub_ps(e, r)));
    // 23 <= k <= 56, with t = 2^-k.
    let t_high = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(
        _mm256_set1_epi32(0x7f),
        k,
    )));
    let k_high = scale(_mm256_add_ps(
        _mm256_sub_ps(r, _mm256_add_ps(e, t_high)),
        one,
    ));
    // |u| < 2^-25.
    let huge_u = _mm256_add_ps(_mm256_set1_ps(HUGE), u);
    let tiny_u = _mm256_sub_ps(
        u,
        _mm256_sub_ps(huge_u, _mm256_add_ps(_mm256_set1_ps(HUGE), u)),
    );
    let k_is = |v: i32| _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(v)));
    let k_below = |v: i32| _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(v), k));
    let k_above = |v: i32| _mm256_castsi256_ps(_mm256_cmpgt_epi32(k, _mm256_set1_epi32(v)));
    let mut em = _mm256_blendv_ps(k_high, k_mid, k_below(23));
    em = _mm256_blendv_ps(em, k_far, _mm256_or_ps(k_below(-1), k_above(56)));
    em = _mm256_blendv_ps(em, k_m1, k_is(-1));
    em = _mm256_blendv_ps(em, k0, k_is(0));
    let u_tiny = _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(0x3300_0000), hu));
    em = _mm256_blendv_ps(em, tiny_u, u_tiny);

    // tanh from em = expm1(u): 1 - 2/(em + 2) where |x| >= 1, else
    // -em/(em + 2); one division serves both.
    let num = _mm256_blendv_ps(
        _mm256_xor_ps(em, _mm256_set1_ps(-0.0)),
        _mm256_set1_ps(2.0),
        ge1,
    );
    let q = _mm256_div_ps(num, _mm256_add_ps(em, _mm256_set1_ps(2.0)));
    let z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), ge1);
    let z = _mm256_blendv_ps(
        z,
        _mm256_sub_ps(one, _mm256_set1_ps(TINY)),
        ix_above(0x41af_ffff),
    );
    let z = _mm256_xor_ps(z, sign);
    let small = _mm256_mul_ps(x, _mm256_add_ps(one, x));
    let z = _mm256_blendv_ps(
        z,
        small,
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(0x2400_0000), ix)),
    );
    // ±inf and NaN: 1/x + 1 or 1/x - 1, the second as 1/x + (-1).
    let nonfinite = _mm256_add_ps(_mm256_div_ps(one, x), _mm256_or_ps(one, sign));
    _mm256_blendv_ps(z, nonfinite, ix_above(0x7f7f_ffff))
}

/// # Safety
///
/// Caller must guarantee AVX-512F (dispatcher-checked). Full blocks load
/// and store `a[i .. + 16]` with `i + 16 <= n = a.len()`; the last partial
/// block loads and stores only the lanes its mask enables, `a[i .. n]`, so
/// every access stays inside the single `&mut` slice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tanh_avx512(a: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = a.len();
    let ap = a.as_mut_ptr();
    let mut i = 0;
    while i + 16 <= n {
        _mm512_storeu_ps(ap.add(i), tanh16_avx512(_mm512_loadu_ps(ap.add(i))));
        i += 16;
    }
    if i < n {
        let tail: __mmask16 = (1 << (n - i)) - 1;
        let x = _mm512_maskz_loadu_ps(tail, ap.add(i));
        _mm512_mask_storeu_ps(ap.add(i), tail, tanh16_avx512(x));
    }
}

/// [`tanh8_avx2`] on 16 lanes, operation for operation: the compares give
/// `__mmask16` masks, each `blendv` becomes a mask blend, and the k = 0
/// clear a zero-masking move. Only AVX-512F instructions, so the float
/// xor and or go through the integer forms. When no lane is ±inf or NaN
/// the `1/x` those lanes need is not computed at all.
///
/// # Safety
///
/// Caller must guarantee AVX-512F (dispatcher-checked); the kernel
/// touches no memory, only its register argument.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tanh16_avx512(x: std::arch::x86_64::__m512) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    let abs_mask = _mm512_set1_epi32(0x7fff_ffff);
    let jx = _mm512_castps_si512(x);
    let ix = _mm512_and_si512(jx, abs_mask);
    let sign = _mm512_andnot_si512(abs_mask, jx);
    let ix_above = |bits: i32| _mm512_cmpgt_epi32_mask(ix, _mm512_set1_epi32(bits));
    let xor =
        |a: __m512, b: __m512i| _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(a), b));

    // u = 2|x| where |x| >= 1, else -2|x|.
    let ge1 = ix_above(0x3f7f_ffff);
    let ax = _mm512_castsi512_ps(ix);
    let u = _mm512_mask_blend_ps(
        ge1,
        _mm512_mul_ps(_mm512_set1_ps(-2.0), ax),
        _mm512_mul_ps(_mm512_set1_ps(2.0), ax),
    );

    // expm1(u): u is negative exactly where |x| < 1.
    let hu = _mm512_and_si512(_mm512_castps_si512(u), abs_mask);
    let half = _mm512_mask_blend_ps(ge1, _mm512_set1_ps(-0.5), _mm512_set1_ps(0.5));
    let k_trunc = _mm512_cvttps_epi32(_mm512_add_ps(
        _mm512_mul_ps(_mm512_set1_ps(INVLN2), u),
        half,
    ));
    // k = -1 where |u| < 1.5·ln2, then k = 0 where |u| <= 0.5·ln2.
    let near = _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(0x3f85_1592), hu);
    let k = _mm512_mask_blend_epi32(near, k_trunc, _mm512_set1_epi32(-1));
    let k = _mm512_maskz_mov_epi32(
        _mm512_cmpgt_epi32_mask(hu, _mm512_set1_epi32(0x3eb1_7218)),
        k,
    );
    let t = _mm512_cvtepi32_ps(k);
    let hi = _mm512_sub_ps(u, _mm512_mul_ps(t, _mm512_set1_ps(LN2_HI)));
    let lo = _mm512_mul_ps(t, _mm512_set1_ps(LN2_LO));
    let r = _mm512_sub_ps(hi, lo);
    let c = _mm512_sub_ps(_mm512_sub_ps(hi, r), lo);

    let hfx = _mm512_mul_ps(_mm512_set1_ps(0.5), r);
    let hxs = _mm512_mul_ps(r, hfx);
    let [q1, q2, q3, q4, q5] = EXPM1_Q;
    let mut p = _mm512_mul_ps(hxs, _mm512_set1_ps(q5));
    for q in [q4, q3, q2, q1] {
        p = _mm512_mul_ps(hxs, _mm512_add_ps(_mm512_set1_ps(q), p));
    }
    let r1 = _mm512_add_ps(_mm512_set1_ps(1.0), p);
    let t = _mm512_sub_ps(_mm512_set1_ps(3.0), _mm512_mul_ps(r1, hfx));
    let e = _mm512_mul_ps(
        hxs,
        _mm512_div_ps(
            _mm512_sub_ps(r1, t),
            _mm512_sub_ps(_mm512_set1_ps(6.0), _mm512_mul_ps(r, t)),
        ),
    );
    // One candidate result per branch of `expm1f`, selected below.
    let k0 = _mm512_sub_ps(r, _mm512_sub_ps(_mm512_mul_ps(r, e), hxs));
    let e = _mm512_sub_ps(_mm512_sub_ps(_mm512_mul_ps(r, _mm512_sub_ps(e, c)), c), hxs);
    let k_m1 = _mm512_sub_ps(
        _mm512_mul_ps(_mm512_set1_ps(0.5), _mm512_sub_ps(r, e)),
        _mm512_set1_ps(0.5),
    );
    let k_exp = _mm512_slli_epi32::<23>(k);
    let scale = |y: __m512| _mm512_castsi512_ps(_mm512_add_epi32(_mm512_castps_si512(y), k_exp));
    let one = _mm512_set1_ps(1.0);
    // k <= -2 or k > 56.
    let k_far = _mm512_sub_ps(scale(_mm512_sub_ps(one, _mm512_sub_ps(e, r))), one);
    // 3 <= k < 23, with t = 1 - 2^-k.
    let t_mid = _mm512_castsi512_ps(_mm512_sub_epi32(
        _mm512_set1_epi32(0x3f80_0000),
        _mm512_srlv_epi32(_mm512_set1_epi32(0x0100_0000), k),
    ));
    let k_mid = scale(_mm512_sub_ps(t_mid, _mm512_sub_ps(e, r)));
    // 23 <= k <= 56, with t = 2^-k.
    let t_high = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_sub_epi32(
        _mm512_set1_epi32(0x7f),
        k,
    )));
    let k_high = scale(_mm512_add_ps(
        _mm512_sub_ps(r, _mm512_add_ps(e, t_high)),
        one,
    ));
    // |u| < 2^-25.
    let huge_u = _mm512_add_ps(_mm512_set1_ps(HUGE), u);
    let tiny_u = _mm512_sub_ps(
        u,
        _mm512_sub_ps(huge_u, _mm512_add_ps(_mm512_set1_ps(HUGE), u)),
    );
    let k_is = |v: i32| _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(v));
    let k_below = |v: i32| _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(v), k);
    let k_above = |v: i32| _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(v));
    let mut em = _mm512_mask_blend_ps(k_below(23), k_high, k_mid);
    em = _mm512_mask_blend_ps(k_below(-1) | k_above(56), em, k_far);
    em = _mm512_mask_blend_ps(k_is(-1), em, k_m1);
    em = _mm512_mask_blend_ps(k_is(0), em, k0);
    let u_tiny = _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(0x3300_0000), hu);
    em = _mm512_mask_blend_ps(u_tiny, em, tiny_u);

    // tanh from em = expm1(u): 1 - 2/(em + 2) where |x| >= 1, else
    // -em/(em + 2); one division serves both.
    let num = _mm512_mask_blend_ps(
        ge1,
        xor(em, _mm512_set1_epi32(i32::MIN)),
        _mm512_set1_ps(2.0),
    );
    let q = _mm512_div_ps(num, _mm512_add_ps(em, _mm512_set1_ps(2.0)));
    let z = _mm512_mask_blend_ps(ge1, q, _mm512_sub_ps(one, q));
    let z = _mm512_mask_blend_ps(
        ix_above(0x41af_ffff),
        z,
        _mm512_sub_ps(one, _mm512_set1_ps(TINY)),
    );
    let z = xor(z, sign);
    let small = _mm512_mul_ps(x, _mm512_add_ps(one, x));
    let z = _mm512_mask_blend_ps(
        _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(0x2400_0000), ix),
        z,
        small,
    );
    let nonfinite = ix_above(0x7f7f_ffff);
    if nonfinite == 0 {
        return z;
    }
    // ±inf and NaN: 1/x + 1 or 1/x - 1, the second as 1/x + (-1).
    let one_signed = _mm512_castsi512_ps(_mm512_or_si512(_mm512_castps_si512(one), sign));
    let inf_nan = _mm512_add_ps(_mm512_div_ps(one, x), one_signed);
    _mm512_mask_blend_ps(nonfinite, z, inf_nan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<Level> {
        host_levels().collect()
    }

    #[test]
    fn axpy_all_levels_bitwise_equal_with_tail() {
        for n in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 33, 100] {
            let b: Vec<f32> = (0..n).map(|i| (i as f32) * 0.37 - 3.1).collect();
            let base: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
            let mut want = base.clone();
            axpy_scalar(&mut want, 1.7, &b);
            for l in levels() {
                force_level(Some(l));
                let mut got = base.clone();
                axpy(&mut got, 1.7, &b);
                force_level(None);
                let wb: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
                let gb: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(gb, wb, "axpy level {l:?} diverged at n={n}");
            }
        }
    }

    /// [`mm_tiles`] at every level against the scalar ikj loop, on a
    /// contiguous `b` and on rows at uneven, overlapping offsets, as a
    /// conv's windows into its padded input are: the tiles it reports
    /// hold the ikj result (NaN positions only, their bits being
    /// unspecified), and every other element of `c` is untouched.
    fn check_mm_tiles(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) {
        let table: Vec<usize> = (0..k).map(|p| p * n / 2 + p % 3).collect();
        let canonical = |v: f32| if v.is_nan() { f32::NAN } else { v }.to_bits();
        for rows in [
            Rows::Strided {
                count: k,
                stride: n,
            },
            Rows::Table(&table),
        ] {
            let c0: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.01 - 0.5).collect();
            let mut want = c0.clone();
            for i in 0..m {
                for p in 0..k {
                    let (av, start) = (a[i * k + p], rows.start(p));
                    if av != 0.0 {
                        axpy_scalar(&mut want[i * n..(i + 1) * n], av, &b[start..start + n]);
                    }
                }
            }
            for l in levels() {
                let mut got = c0.clone();
                force_level(Some(l));
                let (mt, nt) = mm_tiles(&mut got, a, b, rows, m, n);
                force_level(None);
                assert!(mt % TILE_M == 0 && mt <= m && nt % TILE_N == 0 && nt <= n);
                for i in 0..m {
                    for j in 0..n {
                        let tiled = i < mt && j < nt;
                        let expect = if tiled {
                            want[i * n + j]
                        } else {
                            c0[i * n + j]
                        };
                        assert_eq!(
                            canonical(got[i * n + j]),
                            canonical(expect),
                            "{l:?} ({m}x{k}x{n}) {rows:?} element ({i}, {j}), tiled: {tiled}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mm_tiles_match_scalar_ikj_on_their_block_only() {
        for (m, k, n) in [(4, 1, 16), (5, 7, 17), (8, 3, 40), (12, 16, 33), (3, 5, 64)] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| {
                    if i % 5 == 0 {
                        0.0
                    } else {
                        (i as f32 * 0.37).sin()
                    }
                })
                .collect();
            let b: Vec<f32> = (0..k * n + 2)
                .map(|i| (i as f32 * 0.11).cos() * 3.0)
                .collect();
            check_mm_tiles(m, k, n, &a, &b);
        }
    }

    /// The weight gradient's `C_in·K = 48` columns, and 80: 32-column
    /// tiles plus a 16-column remainder. `a` is positive where it is not
    /// zero and `b` holds +inf, so a zero `a[i, p]` that is multiplied in
    /// rather than skipped turns an infinite sum into NaN.
    #[test]
    fn mm_tiles_512_bit_tiles_and_16_column_remainder_match_scalar_ikj() {
        for (m, k, n) in [(16, 64, 48), (8, 3, 80)] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| {
                    if i % 5 == 0 {
                        0.0
                    } else {
                        1.5 + (i as f32 * 0.37).sin()
                    }
                })
                .collect();
            let b: Vec<f32> = (0..k * n + 2)
                .map(|i| {
                    if i % 7 == 3 {
                        f32::INFINITY
                    } else {
                        (i as f32 * 0.11).cos() * 3.0
                    }
                })
                .collect();
            check_mm_tiles(m, k, n, &a, &b);
        }
    }

    #[test]
    fn transpose_rows_moves_every_window_at_all_levels() {
        // Full 8×8 blocks plus both edges, from overlapping windows.
        for (pn, n) in [(0, 5), (3, 0), (1, 1), (8, 8), (9, 17), (16, 24), (13, 7)] {
            let src: Vec<f32> = (0..pn * 3 + n + 1).map(|i| i as f32 - 0.5).collect();
            let table: Vec<usize> = (0..pn).map(|p| p * 3 + p % 2).collect();
            let strided = Rows::Strided {
                count: pn,
                stride: 3,
            };
            for (l, rows) in levels()
                .into_iter()
                .flat_map(|l| [(l, strided), (l, Rows::Table(&table))])
            {
                force_level(Some(l));
                let mut out = vec![f32::NAN; 3];
                transpose_rows(&mut out, &src, rows, n);
                force_level(None);
                assert_eq!(out.len(), pn * n, "level {l:?}");
                for o in 0..n {
                    for p in 0..pn {
                        assert_eq!(
                            out[o * pn + p].to_bits(),
                            src[rows.start(p) + o].to_bits(),
                            "level {l:?} {rows:?} ({pn}x{n}) at ({o}, {p})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn conv_taps_all_levels_bitwise_equal_with_tail() {
        let w = [0.75f32, -1.5, 0.0, 2.25];
        for (n, d) in [(0usize, 1usize), (5, 1), (8, 2), (17, 1), (33, 4)] {
            let x: Vec<f32> = (0..n + 3 * d).map(|i| (i as f32 * 0.7).sin()).collect();
            let base: Vec<f32> = (0..n).map(|i| i as f32 * 0.1 - 1.0).collect();
            let mut want = base.clone();
            conv_taps_scalar(&mut want, &x, &w, d);
            for l in levels() {
                force_level(Some(l));
                let mut got = base.clone();
                conv_taps(&mut got, &x, &w, d);
                force_level(None);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "level {l:?} n={n} d={d}");
            }
        }
    }

    #[test]
    fn conv_weight_lanes_skip_zeros_like_the_scalar_loop() {
        // Zero and -0 gradients meet infinite inputs: a skipped lane stays
        // finite. Taps cover full 8-position blocks, a partial last block
        // and ranges that start and end inside a block.
        for (n, stride) in [(1usize, 1usize), (8, 1), (13, 2), (64, 1), (21, 3)] {
            let g: Vec<f32> = (0..WEIGHT_LANES * n)
                .map(|i| match i % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (i as f32 * 0.3).cos(),
                })
                .collect();
            let x: Vec<f32> = (0..n * stride + 4)
                .map(|i| {
                    if i % 3 == 0 {
                        f32::INFINITY
                    } else {
                        i as f32 - 2.0
                    }
                })
                .collect();
            let ranges = [0..n, 1.min(n)..n, 0..n.saturating_sub(2), n / 3..n / 2];
            let taps: Vec<Tap> = ranges
                .iter()
                .enumerate()
                .map(|(q, os)| Tap {
                    os: os.clone(),
                    xs: &x[q..],
                })
                .collect();
            let acc0: Vec<[f32; WEIGHT_LANES]> = (0..WEIGHT_TAPS)
                .map(|q| std::array::from_fn(|c| (q * 8 + c) as f32 * 0.25))
                .collect();
            let mut want = acc0.clone();
            conv_weight_lanes_scalar(&mut want, &g, WEIGHT_LANES, n, &taps, stride);
            for l in levels() {
                force_level(Some(l));
                let mut got = acc0.clone();
                conv_weight_lanes(&mut got, &g, WEIGHT_LANES, n, &taps, stride);
                force_level(None);
                for (gq, wq) in got.iter().zip(&want) {
                    for (gv, wv) in gq.iter().zip(wq) {
                        assert!(
                            gv.to_bits() == wv.to_bits() || (gv.is_nan() && wv.is_nan()),
                            "level {l:?} n={n} stride={stride}: {gv} vs {wv}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_sums_match_iterator_sum_at_all_levels() {
        for (r, n) in [(0usize, 4usize), (9, 0), (8, 3), (8, 16), (17, 9), (16, 64)] {
            // Every third row is all -0, whose sum is -0 only because the
            // sum's neutral element is -0.
            let src: Vec<f32> = (0..r * n)
                .map(|i| match (i / n.max(1) % 3, i % 7) {
                    (2, _) | (_, 0) => -0.0,
                    _ => (i as f32).sin() * 1e3,
                })
                .collect();
            // A -0 bias stays -0 after adding a -0 sum.
            let d0: Vec<f32> = (0..r)
                .map(|i| if i % 2 == 0 { -0.0 } else { 1.5 })
                .collect();
            let mut want = d0.clone();
            for (i, d) in want.iter_mut().enumerate() {
                *d += src[i * n..(i + 1) * n].iter().sum::<f32>();
            }
            for l in levels() {
                force_level(Some(l));
                let mut got = d0.clone();
                row_sums(&mut got, &src, n);
                force_level(None);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "level {l:?} {r}x{n}");
            }
        }
    }

    #[test]
    fn tanh_all_levels_bitwise_equal_with_tail() {
        // One input per branch of the port, plus specials, cycled so each
        // lands in the 8-lane body and in the scalar tail.
        let inputs = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -1e-20,
            3e-9,
            -0.1,
            0.3,
            -0.8,
            1.0,
            -4.5,
            12.0,
            -20.5,
            22.0,
            f32::MAX,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for n in [0usize, 1, 7, 8, 9, 17, 33] {
            let base: Vec<f32> = (0..n).map(|i| inputs[i % inputs.len()]).collect();
            let mut want = base.clone();
            tanh_scalar(&mut want);
            for l in levels() {
                force_level(Some(l));
                let mut got = base.clone();
                tanh(&mut got);
                force_level(None);
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                        "tanh level {l:?} diverged at n={n}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn tanh_port_fixed_points() {
        let mut v = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            22.0,
            -1e4,
            f32::NAN,
        ];
        tanh_scalar(&mut v);
        let bits: Vec<u32> = v[..6].iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = [0.0f32, -0.0, 1.0, -1.0, 1.0, -1.0]
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(bits, want);
        assert!(v[6].is_nan());
    }

    /// The 16-lane tanh body against the scalar port: each branch's fixed
    /// points and the floats next to its thresholds (2^-55, 2^-26 and
    /// 2^-25 on either side of `expm1f`'s `|u| < 2^-25`, 1, 22), then
    /// every `k` boundary `(j + 0.5)·ln2 / 2` for j in 0..64, four floats
    /// either side and both signs; cycled at lengths that leave no tail, a
    /// masked tail, or both.
    #[test]
    fn tanh_16_lane_body_matches_the_scalar_port() {
        let neighbours = |x: f32| (0..9).map(move |d| f32::from_bits(x.to_bits() + d - 4));
        let fixed = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            22.0,
            -1e4,
        ];
        let thresholds = [2f32.powi(-55), 2f32.powi(-26), 2f32.powi(-25), 1.0, 22.0];
        let boundaries = (0..64).map(|j| (j as f32 + 0.5) * std::f32::consts::LN_2 / 2.0);
        let inputs: Vec<f32> = fixed
            .into_iter()
            .chain(
                thresholds
                    .into_iter()
                    .chain(boundaries)
                    .flat_map(neighbours)
                    .flat_map(|x| [x, -x]),
            )
            .collect();
        for n in [15usize, 16, 17, 33, inputs.len()] {
            for start in (0..inputs.len()).step_by(n) {
                let base: Vec<f32> = (0..n).map(|i| inputs[(start + i) % inputs.len()]).collect();
                let mut want = base.clone();
                tanh_scalar(&mut want);
                for l in levels() {
                    force_level(Some(l));
                    let mut got = base.clone();
                    tanh(&mut got);
                    force_level(None);
                    for ((g, w), x) in got.iter().zip(&want).zip(&base) {
                        assert!(
                            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                            "tanh({x:e}) at {l:?}, n={n}: {g:e} vs {w:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forced_level_is_clamped_to_detected_max() {
        for l in [Level::Avx2, Level::Avx512] {
            force_level(Some(l));
            let got = active_level();
            force_level(None);
            assert!(got <= l && got <= detect(), "forced {l:?}, ran {got:?}");
        }
    }

    #[test]
    fn scale_and_add_match_scalar() {
        let n = 37;
        let b: Vec<f32> = (0..n).map(|i| (i as f32) * -0.11).collect();
        for l in levels() {
            let mut a: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let mut want = a.clone();
            add_assign_scalar(&mut want, &b);
            scale_assign_scalar(&mut want, 0.25);
            force_level(Some(l));
            add_assign(&mut a, &b);
            scale_assign(&mut a, 0.25);
            force_level(None);
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "level {l:?}"
            );
        }
    }
}
