//! Shape and stride arithmetic shared by every kernel, and the broadcast
//! kernels built on it.

use crate::arena;
use crate::simd;

/// A tensor shape: dimension sizes in row-major order.
pub type Shape = Vec<usize>;

/// Number of elements implied by `shape` (empty shape = scalar = 1 element).
#[inline]
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Row-major strides for `shape`.
pub fn strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * shape[i + 1];
    }
    s
}

/// NumPy-style broadcast of two shapes; `None` if incompatible.
///
/// Dimensions align from the right; each pair must be equal or contain a 1.
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let nd = a.len().max(b.len());
    let mut out = vec![0usize; nd];
    for i in 0..nd {
        let da = if i < nd - a.len() {
            1
        } else {
            a[i - (nd - a.len())]
        };
        let db = if i < nd - b.len() {
            1
        } else {
            b[i - (nd - b.len())]
        };
        if da == db || da == 1 || db == 1 {
            out[i] = da.max(db);
        } else {
            return None;
        }
    }
    Some(out)
}

/// Strides of `shape` when broadcast to `target` (stride 0 on expanded dims).
///
/// Panics if `shape` does not broadcast to `target`.
pub fn broadcast_strides(shape: &[usize], target: &[usize]) -> Vec<usize> {
    assert!(
        shape.len() <= target.len(),
        "cannot broadcast {shape:?} to {target:?}"
    );
    let base = strides(shape);
    let offset = target.len() - shape.len();
    let mut out = vec![0usize; target.len()];
    for i in 0..shape.len() {
        let t = target[offset + i];
        #[expect(
            clippy::panic,
            reason = "callers validate with broadcast_shapes first; reaching here is a programming error"
        )]
        if shape[i] == t {
            out[offset + i] = base[i];
        } else if shape[i] == 1 {
            out[offset + i] = 0;
        } else {
            panic!("cannot broadcast {shape:?} to {target:?}");
        }
    }
    out
}

/// Call `row(off)` for each row of the last dimension of `big`, in
/// row-major order, where `off` is the offset of the row's first element
/// in a tensor whose strides within `big` are `strides` (0 on broadcast
/// dimensions). The outer index advances like an odometer, so no element
/// pays a division. A rank-0 `big` is one row.
fn for_each_row(big: &[usize], strides: &[usize], mut row: impl FnMut(usize)) {
    if numel(big) == 0 {
        return;
    }
    let outer = big.len().saturating_sub(1);
    let mut idx = vec![0usize; outer];
    let mut off = 0usize;
    loop {
        row(off);
        let mut d = outer;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            off += strides[d];
            if idx[d] < big[d] {
                break;
            }
            off -= strides[d] * big[d];
            idx[d] = 0;
        }
    }
}

/// Materialize `data` (of `shape`) broadcast to `target`: each output row
/// is a contiguous copy of a source row, or one source value repeated.
pub(crate) fn expand_to(data: &[f32], shape: &[usize], target: &[usize]) -> Vec<f32> {
    if shape == target {
        return arena::copy_of(data);
    }
    let bstr = broadcast_strides(shape, target);
    let n = target.last().copied().unwrap_or(1);
    let contiguous = bstr.last() == Some(&1);
    let mut out = arena::take(numel(target));
    for_each_row(target, &bstr, |off| {
        if contiguous {
            out.extend_from_slice(&data[off..off + n]);
        } else {
            out.resize(out.len() + n, data[off]);
        }
    });
    out
}

/// Reduce a gradient computed at the broadcast `from` shape back to `to`.
///
/// Sums over every axis that was expanded (including leading axes that did
/// not exist in `to`). This is the standard broadcast-backward rule. Every
/// output element starts at 0.0 and adds its contributions in ascending
/// `grad` order: a whole row at a time with [`simd::add_assign`] when the
/// last axis was kept, one running sum per row when it was expanded.
pub fn reduce_grad_to_shape(grad: &[f32], from: &[usize], to: &[usize]) -> Vec<f32> {
    debug_assert_eq!(grad.len(), numel(from));
    if from == to {
        return arena::copy_of(grad);
    }
    let tstr = broadcast_strides(to, from);
    let n = from.last().copied().unwrap_or(1);
    let kept = tstr.last() == Some(&1);
    let mut out = arena::zeroed(numel(to));
    let mut start = 0;
    for_each_row(from, &tstr, |off| {
        let row = &grad[start..start + n];
        start += n;
        if kept {
            simd::add_assign(&mut out[off..off + n], row);
        } else {
            let mut s = out[off];
            for &g in row {
                s += g;
            }
            out[off] = s;
        }
    });
    out
}

/// Convert a flat index into a multi-index for `shape`.
pub fn unravel(mut flat: usize, shape: &[usize]) -> Vec<usize> {
    let st = strides(shape);
    let mut out = vec![0usize; shape.len()];
    for d in 0..shape.len() {
        out[d] = flat / st[d];
        flat %= st[d];
    }
    out
}

/// Convert a multi-index into a flat index for `shape`.
pub fn ravel(idx: &[usize], shape: &[usize]) -> usize {
    let st = strides(shape);
    idx.iter().zip(&st).map(|(i, s)| i * s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The div/mod [`expand_to`] the row walk replaced: the reference the
    /// new kernel must match bit for bit.
    fn expand_to_reference(data: &[f32], shape: &[usize], target: &[usize]) -> Vec<f32> {
        if shape == target {
            return data.to_vec();
        }
        let bstr = broadcast_strides(shape, target);
        let tstr = strides(target);
        let n = numel(target);
        let nd = target.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut rem = i;
            let mut off = 0usize;
            for d in 0..nd {
                let id = rem / tstr[d];
                rem %= tstr[d];
                off += id * bstr[d];
            }
            out.push(data[off]);
        }
        out
    }

    /// The div/mod [`reduce_grad_to_shape`] the row walk replaced.
    fn reduce_grad_to_shape_reference(grad: &[f32], from: &[usize], to: &[usize]) -> Vec<f32> {
        if from == to {
            return grad.to_vec();
        }
        let mut out = vec![0f32; numel(to)];
        let to_strides_in_from = broadcast_strides(to, from);
        let from_strides = strides(from);
        let nd = from.len();
        for (i, &g) in grad.iter().enumerate() {
            let mut rem = i;
            let mut to_off = 0usize;
            for d in 0..nd {
                to_off += rem / from_strides[d] * to_strides_in_from[d];
                rem %= from_strides[d];
            }
            out[to_off] += g;
        }
        out
    }

    /// Gradient-like values: wide finite values, plus ±0.0 and ±1.0 so
    /// sums cancel to signed zeros.
    fn value() -> impl Strategy<Value = f32> {
        (
            0u8..4,
            -100f32..100f32,
            prop::sample::select(vec![0.0f32, -0.0, 1.0, -1.0]),
        )
            .prop_map(|(sel, v, s)| if sel < 2 { v } else { s })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random broadcastable pairs: `big` of rank 0-4 (now and then with
        /// an empty dimension), `small` dropping `lead` leading dimensions
        /// and setting any of the rest to 1.
        #[test]
        fn broadcast_kernels_match_div_mod_reference_bitwise(
            big in prop::collection::vec(1usize..5, 0..5),
            empty in 0usize..24,
            lead in 0usize..5,
            keep in prop::collection::vec(0usize..3, 4..=4),
            vals in prop::collection::vec(value(), 256..=256),
        ) {
            let mut big = big;
            if let Some(d) = big.get_mut(empty) {
                *d = 0;
            }
            let lead = lead.min(big.len());
            let small: Vec<usize> = big[lead..]
                .iter()
                .zip(&keep)
                .map(|(&d, &k)| if k == 0 { 1 } else { d })
                .collect();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let data = &vals[..numel(&small)];
            prop_assert_eq!(
                bits(&expand_to(data, &small, &big)),
                bits(&expand_to_reference(data, &small, &big)),
                "expand {:?} -> {:?}",
                small,
                big
            );
            let grad = &vals[..numel(&big)];
            prop_assert_eq!(
                bits(&reduce_grad_to_shape(grad, &big, &small)),
                bits(&reduce_grad_to_shape_reference(grad, &big, &small)),
                "reduce {:?} -> {:?}",
                big,
                small
            );
        }
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[5]), vec![1]);
        assert_eq!(strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 4]), Some(vec![2, 4]));
        assert_eq!(broadcast_shapes(&[2, 3], &[4]), None);
        assert_eq!(broadcast_shapes(&[], &[3]), Some(vec![3]));
    }

    #[test]
    fn broadcast_strides_expand() {
        assert_eq!(broadcast_strides(&[3], &[2, 3]), vec![0, 1]);
        assert_eq!(broadcast_strides(&[2, 1], &[2, 4]), vec![1, 0]);
    }

    #[test]
    fn reduce_grad_sums_expanded_axes() {
        // from [2,3] back to [3]: sum over rows.
        let g = vec![1., 2., 3., 10., 20., 30.];
        assert_eq!(reduce_grad_to_shape(&g, &[2, 3], &[3]), vec![11., 22., 33.]);
        // from [2,3] back to [2,1]: sum over cols.
        assert_eq!(reduce_grad_to_shape(&g, &[2, 3], &[2, 1]), vec![6., 60.]);
    }

    #[test]
    fn ravel_roundtrip() {
        let shape = [2, 3, 4];
        for flat in 0..24 {
            assert_eq!(ravel(&unravel(flat, &shape), &shape), flat);
        }
    }
}
