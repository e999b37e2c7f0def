//! Confusion matrices and per-class precision / recall / F1 — beyond the
//! paper's accuracy-based metrics, useful when inspecting individual
//! downstream tasks.

/// A `C × C` confusion matrix: `m[truth][pred]` counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    pub n_classes: usize,
    counts: Vec<usize>,
}

impl ConfusionMatrix {
    /// Build from predictions and ground truth.
    pub fn new(pred: &[usize], truth: &[usize], n_classes: usize) -> Self {
        assert_eq!(pred.len(), truth.len(), "prediction/label length mismatch");
        let mut counts = vec![0usize; n_classes * n_classes];
        for (&p, &t) in pred.iter().zip(truth) {
            assert!(p < n_classes && t < n_classes, "label out of range");
            counts[t * n_classes + p] += 1;
        }
        ConfusionMatrix { n_classes, counts }
    }

    /// Count at `(truth, pred)`.
    pub fn at(&self, truth: usize, pred: usize) -> usize {
        self.counts[truth * self.n_classes + pred]
    }

    /// Total number of samples.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: usize = (0..self.n_classes).map(|c| self.at(c, c)).sum();
        correct as f64 / self.total().max(1) as f64
    }

    /// Per-class precision (0 when the class was never predicted).
    pub fn precision(&self) -> Vec<f64> {
        (0..self.n_classes)
            .map(|c| {
                let predicted: usize = (0..self.n_classes).map(|t| self.at(t, c)).sum();
                if predicted == 0 {
                    0.0
                } else {
                    self.at(c, c) as f64 / predicted as f64
                }
            })
            .collect()
    }

    /// Per-class recall (0 when the class never occurs).
    pub fn recall(&self) -> Vec<f64> {
        (0..self.n_classes)
            .map(|c| {
                let actual: usize = (0..self.n_classes).map(|p| self.at(c, p)).sum();
                if actual == 0 {
                    0.0
                } else {
                    self.at(c, c) as f64 / actual as f64
                }
            })
            .collect()
    }

    /// Per-class F1.
    pub fn f1(&self) -> Vec<f64> {
        self.precision()
            .iter()
            .zip(self.recall())
            .map(|(&p, r)| {
                if p + r == 0.0 {
                    0.0
                } else {
                    2.0 * p * r / (p + r)
                }
            })
            .collect()
    }

    /// Macro-averaged F1.
    pub fn macro_f1(&self) -> f64 {
        let f = self.f1();
        f.iter().sum::<f64>() / f.len() as f64
    }

    /// Fixed-width rendering (rows = truth, cols = prediction).
    pub fn render(&self) -> String {
        let mut out = String::from("truth \\ pred");
        for c in 0..self.n_classes {
            out.push_str(&format!("{c:>7}"));
        }
        out.push('\n');
        for t in 0..self.n_classes {
            out.push_str(&format!("{t:>12}"));
            for p in 0..self.n_classes {
                out.push_str(&format!("{:>7}", self.at(t, p)));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> ConfusionMatrix {
        // truth:  0 0 0 1 1 2
        // pred:   0 0 1 1 1 0
        ConfusionMatrix::new(&[0, 0, 1, 1, 1, 0], &[0, 0, 0, 1, 1, 2], 3)
    }

    #[test]
    fn counts_and_accuracy() {
        let cm = m();
        assert_eq!(cm.at(0, 0), 2);
        assert_eq!(cm.at(0, 1), 1);
        assert_eq!(cm.at(2, 0), 1);
        assert_eq!(cm.total(), 6);
        assert!((cm.accuracy() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_f1() {
        let cm = m();
        let p = cm.precision();
        let r = cm.recall();
        // class 0: predicted 3 times, 2 correct.
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
        // class 0: occurs 3 times, 2 recovered.
        assert!((r[0] - 2.0 / 3.0).abs() < 1e-12);
        // class 2: never predicted.
        assert_eq!(p[2], 0.0);
        assert_eq!(cm.f1()[2], 0.0);
        assert!(cm.macro_f1() > 0.0);
    }

    #[test]
    fn perfect_predictions() {
        let cm = ConfusionMatrix::new(&[0, 1, 2], &[0, 1, 2], 3);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.macro_f1(), 1.0);
    }

    #[test]
    fn render_contains_counts() {
        let s = m().render();
        assert!(s.contains("truth"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_labels() {
        let _ = ConfusionMatrix::new(&[5], &[0], 3);
    }
}
