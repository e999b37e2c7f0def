//! Classification metrics used across the paper's tables.

/// Fraction of predictions equal to the labels.
pub fn accuracy(pred: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "prediction/label length mismatch");
    assert!(!pred.is_empty(), "accuracy of empty predictions");
    let hits = pred.iter().zip(truth).filter(|(p, t)| p == t).count();
    hits as f64 / pred.len() as f64
}

/// Mean accuracy over datasets (paper "Avg. ACC").
pub fn avg_accuracy(accs: &[f64]) -> f64 {
    assert!(!accs.is_empty());
    accs.iter().sum::<f64>() / accs.len() as f64
}

/// Competition ranks (1 = best = highest value) with ties averaged,
/// matching Demšar (2006) as used by the paper's "Avg. Rank". A NaN score
/// (an accuracy of 0/0, say) ranks after every number, and all NaNs share
/// the average of the last ranks.
pub fn rank_row(values: &[f64]) -> Vec<f64> {
    let k = values.len();
    let mut idx: Vec<usize> = (0..k).collect();
    idx.sort_by(|&a, &b| {
        let (x, y) = (values[a], values[b]);
        x.is_nan().cmp(&y.is_nan()).then(y.total_cmp(&x))
    });
    #[expect(
        clippy::float_cmp,
        reason = "a tie is two exactly equal scores; a tolerance would average the ranks of distinct results"
    )]
    let tied = |x: f64, y: f64| x == y || (x.is_nan() && y.is_nan());
    let mut ranks = vec![0f64; k];
    let mut i = 0;
    while i < k {
        let mut j = i;
        while j + 1 < k && tied(values[idx[j + 1]], values[idx[i]]) {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + 1 + j + 1) as f64 / 2.0;
        for &pos in &idx[i..=j] {
            ranks[pos] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Average rank per method over a dataset × method accuracy matrix.
pub fn avg_ranks(acc_matrix: &[Vec<f64>]) -> Vec<f64> {
    assert!(!acc_matrix.is_empty());
    let k = acc_matrix[0].len();
    let mut sums = vec![0f64; k];
    for row in acc_matrix {
        assert_eq!(row.len(), k, "ragged accuracy matrix");
        for (s, r) in sums.iter_mut().zip(rank_row(row)) {
            *s += r;
        }
    }
    for s in &mut sums {
        *s /= acc_matrix.len() as f64;
    }
    sums
}

/// Number of datasets where each method is the *sole* best (paper
/// "Num.Top-1" excludes shared first places).
pub fn num_top1(acc_matrix: &[Vec<f64>]) -> Vec<usize> {
    assert!(!acc_matrix.is_empty());
    let k = acc_matrix[0].len();
    let mut counts = vec![0usize; k];
    for row in acc_matrix {
        let best = row.iter().copied().fold(f64::MIN, f64::max);
        let winners: Vec<usize> = (0..k).filter(|&i| (row[i] - best).abs() < 1e-12).collect();
        if winners.len() == 1 {
            counts[winners[0]] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 2]), 1.0);
        assert_eq!(accuracy(&[0, 0, 0], &[0, 1, 2]), 1.0 / 3.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_rejects_mismatch() {
        let _ = accuracy(&[0], &[0, 1]);
    }

    #[test]
    fn ranks_simple() {
        assert_eq!(rank_row(&[0.9, 0.7, 0.8]), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn ranks_with_ties_averaged() {
        // 0.9 -> 1; two 0.8s share ranks 2 and 3 -> 2.5 each; 0.1 -> 4.
        assert_eq!(rank_row(&[0.9, 0.8, 0.8, 0.1]), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn nan_ranks_after_every_number() {
        assert_eq!(rank_row(&[0.9, f64::NAN, 0.7]), vec![1.0, 3.0, 2.0]);
        // Two NaNs share ranks 3 and 4; numbers keep exact-tie averaging.
        assert_eq!(
            rank_row(&[f64::NAN, 0.5, -f64::NAN, 0.5]),
            vec![3.5, 1.5, 3.5, 1.5]
        );
        assert_eq!(rank_row(&[f64::NAN]), vec![1.0]);
    }

    #[test]
    fn avg_ranks_with_a_nan_score_are_finite() {
        let m = vec![vec![0.9, f64::NAN, 0.7], vec![0.2, 0.8, 0.5]];
        let r = avg_ranks(&m);
        assert!(r.iter().all(|v| v.is_finite()), "{r:?}");
        assert_eq!(r, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn avg_ranks_matrix() {
        let m = vec![vec![0.9, 0.5], vec![0.4, 0.6]];
        assert_eq!(avg_ranks(&m), vec![1.5, 1.5]);
    }

    #[test]
    fn num_top1_excludes_shared_wins() {
        let m = vec![
            vec![0.9, 0.9], // shared -> nobody
            vec![0.8, 0.7], // method 0
            vec![0.1, 0.7], // method 1
        ];
        assert_eq!(num_top1(&m), vec![1, 1]);
    }
}
