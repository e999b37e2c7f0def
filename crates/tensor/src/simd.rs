//! Runtime-dispatched SIMD kernels for the hot inner loops.
//!
//! ## Bit-exactness contract
//!
//! Every vector path here is **bit-identical** to the scalar path it
//! replaces, for every input (including infinities, subnormals and signed
//! zeros): the vector bodies use separate multiply and add instructions —
//! never FMA — so each element sees exactly the scalar operation sequence
//! `round(round(s*b) + c)` and the per-element order of operations is
//! unchanged. This is what lets the serial training trajectory stay
//! bit-identical across machines with different SIMD capabilities, and what
//! the proptest oracle suite in `tests/simd_oracle.rs` asserts (bitwise, not
//! within-tolerance). The one exception is the sign and payload of a NaN
//! result, which Rust leaves unspecified: when two NaNs meet in an add, x86
//! returns the first operand's, and the compiler may order the operands
//! differently per path and per build. Where the NaNs are always agrees.
//!
//! ## Dispatch policy
//!
//! The widest supported level is detected once per process
//! (`is_x86_feature_detected!`) and cached; on non-x86_64 targets the
//! scalar path is the only level. Tests and benches can pin a narrower
//! level per thread with [`force_level`] to compare paths against each
//! other on the same machine.

#[cfg(target_arch = "x86_64")]
use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set level a kernel may run at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Plain Rust loops — the oracle all other paths must match bitwise.
    Scalar,
    /// 4-lane `__m128` paths (baseline on x86_64).
    Sse2,
    /// 8-lane `__m256` paths.
    Avx2,
}

#[cfg(target_arch = "x86_64")]
static DETECTED: AtomicU8 = AtomicU8::new(0); // 0 = not yet probed

#[cfg(target_arch = "x86_64")]
fn detect() -> Level {
    match DETECTED.load(Ordering::Relaxed) {
        2 => Level::Sse2,
        3 => Level::Avx2,
        _ => {
            let l = if std::arch::is_x86_feature_detected!("avx2") {
                Level::Avx2
            } else {
                // SSE2 is part of the x86_64 baseline.
                Level::Sse2
            };
            DETECTED.store(if l == Level::Avx2 { 3 } else { 2 }, Ordering::Relaxed);
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
        Some(l) if rank(l) <= rank(max) => l,
        Some(_) => max,
        None => max,
    }
}

fn rank(l: Level) -> u8 {
    match l {
        Level::Scalar => 0,
        Level::Sse2 => 1,
        Level::Avx2 => 2,
    }
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
        Level::Avx2 => unsafe { axpy_avx2(c, s, b) },
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

// SAFETY: caller must guarantee AVX2 is available (the dispatcher checks
// active_level()). All loads/stores are unaligned (`loadu`/`storeu`) and
// bounded by `n = min(c.len(), b.len())`, so every `ptr.add(i)` with
// `i + 8 <= n` stays inside the borrowed slices; `c`/`b` cannot alias
// because `c` is `&mut`.
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

// SAFETY: SSE2 is baseline on x86_64; unaligned 4-lane loads/stores are
// bounded by `n = min(c.len(), b.len())`, so `ptr.add(i)` with
// `i + 4 <= n` stays in bounds, and `&mut c` rules out aliasing with `b`.
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
/// Columns of one [`mm_tiles`] register tile (two 8-lane registers).
const TILE_N: usize = 16;

/// `c += a (m×k) · b (k×n)` over the full 4-row × 16-column tiles of `c`,
/// each held in eight AVX2 registers for the whole `k` sweep. Returns how
/// many leading rows and columns the tiles covered: `(0, 0)` below AVX2,
/// where the caller's ikj loop does all the work, as it does for the tails.
///
/// Each element still sees `c + a[i, p]·b[p, j]` as a separate multiply
/// then add, in ascending `p`, skipping exactly the `(i, p)` whose
/// `a[i, p]` is zero: the operation sequence of the ikj axpy loop, so the
/// result is bit-identical to it.
pub(crate) fn mm_tiles(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> (usize, usize) {
    let holds =
        |len: usize, rows: usize, cols: usize| rows.checked_mul(cols).is_some_and(|e| len >= e);
    assert!(
        holds(a.len(), m, k) && holds(b.len(), k, n) && holds(c.len(), m, n),
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
            // and the assert above covers every element the tiles touch.
            unsafe { mm_tiles_avx2(c, a, b, mt, k, n, nt) };
            (mt, nt)
        }
        _ => (0, 0),
    }
}

// SAFETY: caller must guarantee AVX2 (dispatcher-checked), `mt` and `nt`
// multiples of the tile size with `mt <= m`, `nt <= n`, and operands of at
// least `m·k`, `k·n` and `m·n` elements. Every access is then in bounds:
// `a[(i + r)·k + p]` with `i + r < mt`, `p < k`; `b[p·n + j .. + 16]` and
// `c[(i + r)·n + j .. + 16]` with `j + 16 <= nt`. `&mut c` rules out
// aliasing with `a` and `b`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mm_tiles_avx2(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    mt: usize,
    k: usize,
    n: usize,
    nt: usize,
) {
    use std::arch::x86_64::*;
    let (cp, ap, bp) = (c.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    for i in (0..mt).step_by(TILE_M) {
        for j in (0..nt).step_by(TILE_N) {
            let mut acc = [[_mm256_setzero_ps(); 2]; TILE_M];
            for (r, row) in acc.iter_mut().enumerate() {
                let cr = cp.add((i + r) * n + j);
                *row = [_mm256_loadu_ps(cr), _mm256_loadu_ps(cr.add(8))];
            }
            for p in 0..k {
                let br = bp.add(p * n + j);
                let (b0, b1) = (_mm256_loadu_ps(br), _mm256_loadu_ps(br.add(8)));
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = *ap.add((i + r) * k + p);
                    // aimts-lint: allow(A004, exact-zero skip: the ikj loop skips the same (row, k) pairs, so a zero must not add its products)
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

// ----- add_assign: a[j] += b[j] -----------------------------------------

/// `a[j] += b[j]` — gradient accumulation in the autograd sweep and the
/// all-reduce fold.
#[inline]
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_level() only reports levels the CPU supports.
        Level::Avx2 => unsafe { add_assign_avx2(a, b) },
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

// SAFETY: caller must guarantee AVX2 (dispatcher-checked); unaligned
// 8-lane accesses are bounded by `n = min(a.len(), b.len())` and `&mut a`
// rules out aliasing with `b`.
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

// SAFETY: SSE2 is baseline on x86_64; unaligned 4-lane accesses are
// bounded by `n = min(a.len(), b.len())` and `&mut a` rules out aliasing.
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
        Level::Avx2 => unsafe { scale_assign_avx2(a, s) },
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

// SAFETY: caller must guarantee AVX2 (dispatcher-checked); the single
// `&mut` slice cannot alias anything, and unaligned 8-lane accesses stay
// below `n = a.len()`.
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

// SAFETY: SSE2 is baseline on x86_64; the single `&mut` slice cannot
// alias anything, and unaligned 4-lane accesses stay below `n = a.len()`.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<Level> {
        let max = active_level();
        [Level::Scalar, Level::Sse2, Level::Avx2]
            .into_iter()
            .filter(|l| rank(*l) <= rank(max))
            .collect()
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
            let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos() * 3.0).collect();
            let c0: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.01 - 0.5).collect();
            let mut want = c0.clone();
            for i in 0..m {
                for p in 0..k {
                    let av = a[i * k + p];
                    if av != 0.0 {
                        axpy_scalar(&mut want[i * n..(i + 1) * n], av, &b[p * n..(p + 1) * n]);
                    }
                }
            }
            let mut got = c0.clone();
            let (mt, nt) = mm_tiles(&mut got, &a, &b, m, k, n);
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
                        got[i * n + j].to_bits(),
                        expect.to_bits(),
                        "({m}x{k}x{n}) element ({i}, {j}), tiled: {tiled}"
                    );
                }
            }
        }
    }

    #[test]
    fn forced_level_is_clamped_to_detected_max() {
        force_level(Some(Level::Avx2));
        let got = active_level();
        force_level(None);
        assert!(rank(got) <= rank(detect()));
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
