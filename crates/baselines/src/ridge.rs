//! One-vs-rest ridge-regression classifier on precomputed features
//! (the classifier half of ROCKET). Closed-form via normal equations
//! solved with Gaussian elimination + partial pivoting.

/// One-vs-rest ridge classifier with feature standardization.
#[derive(Debug, Clone)]
pub struct RidgeClassifier {
    /// `[n_classes][d]` weight rows.
    weights: Vec<Vec<f64>>,
    /// Per-class intercepts.
    intercepts: Vec<f64>,
    /// Feature standardization parameters.
    means: Vec<f64>,
    stds: Vec<f64>,
    pub n_classes: usize,
}

impl RidgeClassifier {
    /// Fit on `features[i]` (length d each) with `labels[i] < n_classes`.
    pub fn fit(features: &[Vec<f32>], labels: &[usize], n_classes: usize, lambda: f64) -> Self {
        assert_eq!(features.len(), labels.len());
        assert!(!features.is_empty(), "ridge fit on empty data");
        let n = features.len();
        let d = features[0].len();
        // Standardize features.
        let mut means = vec![0f64; d];
        let mut stds = vec![0f64; d];
        for f in features {
            assert_eq!(f.len(), d, "ragged feature matrix");
            for (m, &v) in means.iter_mut().zip(f) {
                *m += v as f64;
            }
        }
        for m in &mut means {
            *m /= n as f64;
        }
        for f in features {
            for ((s, m), &v) in stds.iter_mut().zip(&means).zip(f) {
                let dd = v as f64 - *m;
                *s += dd * dd;
            }
        }
        for s in &mut stds {
            *s = (*s / n as f64).sqrt().max(1e-8);
        }
        let x: Vec<Vec<f64>> = features
            .iter()
            .map(|f| {
                f.iter()
                    .zip(means.iter().zip(&stds))
                    .map(|(&v, (m, s))| (v as f64 - m) / s)
                    .collect()
            })
            .collect();

        // Gram matrix G = X^T X + λI (d × d) shared by all classes.
        let mut g = vec![vec![0f64; d]; d];
        for row in &x {
            for (i, &ri) in row.iter().enumerate() {
                if ri == 0.0 {
                    continue;
                }
                for (j, gij) in g[i].iter_mut().enumerate().skip(i) {
                    *gij += ri * row[j];
                }
            }
        }
        for i in 0..d {
            let (above, rest) = g.split_at_mut(i);
            let gi = &mut rest[0];
            for (j, upper_row) in above.iter().enumerate() {
                gi[j] = upper_row[i];
            }
            gi[i] += lambda;
        }
        // Right-hand sides: X^T y_c for ±1 targets, one per class.
        let mut rhs = vec![vec![0f64; n_classes]; d];
        for (row, &lab) in x.iter().zip(labels) {
            for c in 0..n_classes {
                let y = if lab == c { 1.0 } else { -1.0 };
                for (r, &v) in rhs.iter_mut().zip(row) {
                    r[c] += v * y;
                }
            }
        }
        let sol = solve_multi(g, rhs); // [d][n_classes]
        let mut weights = vec![vec![0f64; d]; n_classes];
        for (i, row) in sol.iter().enumerate() {
            for c in 0..n_classes {
                weights[c][i] = row[c];
            }
        }
        // Intercept: mean of targets (features standardized to mean 0).
        let mut intercepts = vec![0f64; n_classes];
        for &lab in labels {
            for (c, ic) in intercepts.iter_mut().enumerate() {
                *ic += if lab == c { 1.0 } else { -1.0 };
            }
        }
        for ic in &mut intercepts {
            *ic /= n as f64;
        }
        RidgeClassifier {
            weights,
            intercepts,
            means,
            stds,
            n_classes,
        }
    }

    /// Raw one-vs-rest scores.
    pub fn scores(&self, feature: &[f32]) -> Vec<f64> {
        let x: Vec<f64> = feature
            .iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&v, (m, s))| (v as f64 - m) / s)
            .collect();
        self.weights
            .iter()
            .zip(&self.intercepts)
            .map(|(w, b)| w.iter().zip(&x).map(|(wi, xi)| wi * xi).sum::<f64>() + b)
            .collect()
    }

    /// Predicted class = argmax score.
    pub fn predict(&self, feature: &[f32]) -> usize {
        let s = self.scores(feature);
        s.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap()
    }
}

/// Solve `A X = B` for symmetric positive-definite `A` (d×d) and multiple
/// right-hand sides `B` (d×m), via Gaussian elimination with partial
/// pivoting. Returns X as d×m.
fn solve_multi(mut a: Vec<Vec<f64>>, mut b: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let d = a.len();
    let m = b[0].len();
    for col in 0..d {
        // Pivot.
        let mut piv = col;
        for r in col + 1..d {
            if a[r][col].abs() > a[piv][col].abs() {
                piv = r;
            }
        }
        a.swap(col, piv);
        b.swap(col, piv);
        let diag = a[col][col];
        assert!(diag.abs() > 1e-12, "singular system (increase lambda)");
        for r in col + 1..d {
            let f = a[r][col] / diag;
            if f == 0.0 {
                continue;
            }
            let (upper, lower) = a.split_at_mut(r);
            for (c, v) in lower[0].iter_mut().enumerate().skip(col) {
                *v -= f * upper[col][c];
            }
            let (bu, bl) = b.split_at_mut(r);
            for (c, v) in bl[0].iter_mut().enumerate() {
                *v -= f * bu[col][c];
            }
        }
    }
    // Back substitution.
    let mut x = vec![vec![0f64; m]; d];
    for row in (0..d).rev() {
        for c in 0..m {
            let mut acc = b[row][c];
            for col in row + 1..d {
                acc -= a[row][col] * x[col][c];
            }
            x[row][c] = acc / a[row][row];
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_linear_system() {
        // A = [[2,1],[1,3]], B = [[5],[10]] -> x = [1, 3].
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![vec![5.0], vec![10.0]];
        let x = solve_multi(a, b);
        assert!((x[0][0] - 1.0).abs() < 1e-9);
        assert!((x[1][0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn separates_linearly_separable_classes() {
        // Class = sign of feature 0.
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            feats.push(vec![x + 0.01 * i as f32, 0.5]);
            labels.push(if x > 0.0 { 0usize } else { 1 });
        }
        let clf = RidgeClassifier::fit(&feats, &labels, 2, 1e-3);
        assert_eq!(clf.predict(&[2.0, 0.5]), 0);
        assert_eq!(clf.predict(&[-2.0, 0.5]), 1);
    }

    #[test]
    fn multiclass_prediction_in_range() {
        let feats: Vec<Vec<f32>> = (0..30)
            .map(|i| vec![(i % 3) as f32, ((i * 7) % 5) as f32])
            .collect();
        let labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let clf = RidgeClassifier::fit(&feats, &labels, 3, 1.0);
        for f in &feats {
            assert!(clf.predict(f) < 3);
        }
    }

    #[test]
    fn constant_feature_does_not_blow_up() {
        let feats: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32, 7.0]).collect();
        let labels: Vec<usize> = (0..10).map(|i| (i > 4) as usize).collect();
        let clf = RidgeClassifier::fit(&feats, &labels, 2, 1.0);
        assert!(clf.scores(&[3.0, 7.0]).iter().all(|s| s.is_finite()));
    }
}
