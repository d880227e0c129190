//! NIDS evaluation metrics (paper Section V-B).

/// Binary attack-vs-normal confusion counts.
///
/// Multi-class predictions are binarised the way the paper's metrics
/// require: any non-normal class counts as "attack". The paper defines
/// (Section V-B):
///
/// * `ACC = (TP + TN) / (TP + TN + FP + FN)` — validation accuracy,
/// * `DR  = TP / (TP + FN)` — detection rate,
/// * `FAR = FP / (FP + TN)` — false-alarm rate,
///
/// where TP/TN count correctly classified attacks/normal traffic, FP
/// counts normal records flagged as attacks, and FN counts missed attacks.
///
/// ```
/// use pelican_core::Confusion;
///
/// // labels: 0 = normal. One attack missed, one false alarm.
/// let preds  = [0, 1, 0, 2, 0];
/// let labels = [0, 1, 3, 0, 0];
/// let c = Confusion::from_predictions(&preds, &labels, 0);
/// assert_eq!((c.tp, c.tn, c.fp, c.fn_), (1, 2, 1, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Confusion {
    /// Attacks correctly flagged as attacks (any attack class).
    pub tp: usize,
    /// Normal records correctly classified as normal.
    pub tn: usize,
    /// Normal records mis-flagged as attacks (false alarms).
    pub fp: usize,
    /// Attacks mis-classified as normal (misses).
    pub fn_: usize,
}

impl Confusion {
    /// Builds the binary confusion counts from multi-class predictions.
    ///
    /// # Panics
    ///
    /// Panics if `preds.len() != labels.len()`.
    pub fn from_predictions(preds: &[usize], labels: &[usize], normal_class: usize) -> Self {
        assert_eq!(preds.len(), labels.len(), "prediction/label count");
        let mut c = Self::default();
        for (&p, &t) in preds.iter().zip(labels) {
            let pred_attack = p != normal_class;
            let true_attack = t != normal_class;
            match (true_attack, pred_attack) {
                (true, true) => c.tp += 1,
                (false, false) => c.tn += 1,
                (false, true) => c.fp += 1,
                (true, false) => c.fn_ += 1,
            }
        }
        c
    }

    /// Total number of classified records.
    pub fn total(&self) -> usize {
        self.tp + self.tn + self.fp + self.fn_
    }

    /// `ACC = (TP + TN) / total` (paper Eq. 3); 0 for an empty confusion.
    pub fn accuracy(&self) -> f32 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f32 / total as f32
        }
    }

    /// `DR = TP / (TP + FN)` (paper Eq. 4); 0 when there are no attacks.
    pub fn detection_rate(&self) -> f32 {
        let attacks = self.tp + self.fn_;
        if attacks == 0 {
            0.0
        } else {
            self.tp as f32 / attacks as f32
        }
    }

    /// `FAR = FP / (FP + TN)` (paper Eq. 5); 0 when there is no normal
    /// traffic.
    pub fn false_alarm_rate(&self) -> f32 {
        let normals = self.fp + self.tn;
        if normals == 0 {
            0.0
        } else {
            self.fp as f32 / normals as f32
        }
    }

    /// Merges counts from another confusion (e.g. across folds).
    pub fn merge(&mut self, other: &Confusion) {
        self.tp += other.tp;
        self.tn += other.tn;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }
}

/// Full multi-class confusion matrix (`counts[true][pred]`).
///
/// ```
/// use pelican_core::ConfusionMatrix;
///
/// let m = ConfusionMatrix::from_predictions(&[0, 1, 1], &[0, 1, 0], 2);
/// assert_eq!(m.count(0, 0), 1);
/// assert_eq!(m.count(0, 1), 1);
/// assert!((m.accuracy() - 2.0 / 3.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<usize>,
}

impl ConfusionMatrix {
    /// Builds the matrix from predictions over `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or out-of-range class indices.
    pub fn from_predictions(preds: &[usize], labels: &[usize], classes: usize) -> Self {
        assert_eq!(preds.len(), labels.len(), "prediction/label count");
        let mut counts = vec![0usize; classes * classes];
        for (&p, &t) in preds.iter().zip(labels) {
            assert!(p < classes && t < classes, "class index out of range");
            counts[t * classes + p] += 1;
        }
        Self { classes, counts }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Count of records with true class `t` predicted as `p`.
    pub fn count(&self, t: usize, p: usize) -> usize {
        self.counts[t * self.classes + p]
    }

    /// Multi-class accuracy (trace over total).
    pub fn accuracy(&self) -> f32 {
        let total: usize = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.classes).map(|i| self.count(i, i)).sum();
        correct as f32 / total as f32
    }

    /// Per-class recall (`None` for classes absent from the labels).
    pub fn recall(&self, class: usize) -> Option<f32> {
        let row: usize = (0..self.classes).map(|p| self.count(class, p)).sum();
        if row == 0 {
            None
        } else {
            Some(self.count(class, class) as f32 / row as f32)
        }
    }

    /// Per-class precision (`None` for classes never predicted).
    pub fn precision(&self, class: usize) -> Option<f32> {
        let col: usize = (0..self.classes).map(|t| self.count(t, class)).sum();
        if col == 0 {
            None
        } else {
            Some(self.count(class, class) as f32 / col as f32)
        }
    }

    /// Per-class F1 score (`None` when either precision or recall is
    /// undefined, or both are zero).
    pub fn f1(&self, class: usize) -> Option<f32> {
        let p = self.precision(class)?;
        let r = self.recall(class)?;
        if p + r == 0.0 {
            None
        } else {
            Some(2.0 * p * r / (p + r))
        }
    }

    /// A scikit-learn-style per-class text report: precision, recall, F1
    /// and support for each named class, plus overall accuracy.
    ///
    /// # Panics
    ///
    /// Panics if `class_names.len()` differs from the class count.
    pub fn report(&self, class_names: &[&str]) -> String {
        assert_eq!(
            class_names.len(),
            self.classes,
            "one name per class required"
        );
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>9} {:>9} {:>9} {:>9}\n",
            "class", "precision", "recall", "f1", "support"
        ));
        let fmt = |v: Option<f32>| match v {
            Some(x) => format!("{x:.4}"),
            None => "-".to_string(),
        };
        for (c, name) in class_names.iter().enumerate() {
            let support: usize = (0..self.classes).map(|p| self.count(c, p)).sum();
            out.push_str(&format!(
                "{:<16} {:>9} {:>9} {:>9} {:>9}\n",
                name,
                fmt(self.precision(c)),
                fmt(self.recall(c)),
                fmt(self.f1(c)),
                support
            ));
        }
        out.push_str(&format!("\naccuracy: {:.4}\n", self.accuracy()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let c = Confusion::from_predictions(&[0, 1, 2], &[0, 1, 2], 0);
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.detection_rate(), 1.0);
        assert_eq!(c.false_alarm_rate(), 0.0);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn attack_class_identity_does_not_matter_for_binary_metrics() {
        // Predicting DoS when the truth is Probe still counts as a TP.
        let c = Confusion::from_predictions(&[1], &[2], 0);
        assert_eq!(c.tp, 1);
        assert_eq!(c.accuracy(), 1.0);
    }

    #[test]
    fn far_counts_only_normals() {
        let preds = [1, 1, 1, 1];
        let labels = [0, 0, 1, 1];
        let c = Confusion::from_predictions(&preds, &labels, 0);
        assert_eq!(c.false_alarm_rate(), 1.0);
        assert_eq!(c.detection_rate(), 1.0);
        assert_eq!(c.accuracy(), 0.5);
    }

    #[test]
    fn degenerate_inputs_yield_zero_rates() {
        let c = Confusion::default();
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.detection_rate(), 0.0);
        assert_eq!(c.false_alarm_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates_folds() {
        let mut a = Confusion::from_predictions(&[1], &[1], 0);
        let b = Confusion::from_predictions(&[0, 1], &[0, 0], 0);
        a.merge(&b);
        assert_eq!((a.tp, a.tn, a.fp, a.fn_), (1, 1, 1, 0));
    }

    #[test]
    fn merged_fold_confusions_equal_concatenated_confusion() {
        // The parallel k-fold path computes one Confusion per fold and
        // combines them with a fixed-order tree reduction; that must equal
        // the confusion of all predictions scored in one pass.
        let preds = [0usize, 1, 2, 0, 1, 0, 2, 2, 1, 0, 3, 0, 2];
        let labels = [1usize, 0, 2, 0, 1, 2, 0, 1, 1, 0, 3, 2, 2];
        let whole = Confusion::from_predictions(&preds, &labels, 0);
        // Uneven fold boundaries, like KFold produces when n % k != 0.
        for bounds in [vec![0, 4, 9, 13], vec![0, 1, 2, 13], vec![0, 13, 13, 13]] {
            let per_fold: Vec<Confusion> = bounds
                .windows(2)
                .map(|w| Confusion::from_predictions(&preds[w[0]..w[1]], &labels[w[0]..w[1]], 0))
                .collect();
            let merged = pelican_runtime::tree_reduce(per_fold.clone(), |mut a, b| {
                a.merge(&b);
                a
            })
            .unwrap();
            assert_eq!(merged, whole, "bounds {bounds:?}");
            // Sequential merge agrees with the tree reduction (counts are
            // integers; any association gives the same totals).
            let mut seq = Confusion::default();
            for c in &per_fold {
                seq.merge(c);
            }
            assert_eq!(seq, whole);
        }
    }

    #[test]
    fn metrics_stay_in_unit_interval() {
        let preds = [0, 1, 2, 0, 1, 0, 2, 2];
        let labels = [1, 0, 2, 0, 1, 2, 0, 1];
        let c = Confusion::from_predictions(&preds, &labels, 0);
        for v in [c.accuracy(), c.detection_rate(), c.false_alarm_rate()] {
            assert!((0.0..=1.0).contains(&v));
        }
        assert_eq!(c.total(), 8);
    }

    #[test]
    fn matrix_recall_precision() {
        let m = ConfusionMatrix::from_predictions(&[0, 0, 1, 1], &[0, 1, 1, 1], 2);
        assert_eq!(m.recall(1), Some(2.0 / 3.0));
        assert_eq!(m.precision(0), Some(0.5));
        assert_eq!(m.recall(0), Some(1.0));
        assert_eq!(m.classes(), 2);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        let m = ConfusionMatrix::from_predictions(&[0, 0, 1, 1], &[0, 1, 1, 1], 2);
        // class 1: precision 1.0, recall 2/3 → f1 = 0.8.
        let f1 = m.f1(1).unwrap();
        assert!((f1 - 0.8).abs() < 1e-6, "{f1}");
    }

    #[test]
    fn report_lists_every_class() {
        let m = ConfusionMatrix::from_predictions(&[0, 1, 2, 0], &[0, 1, 2, 2], 3);
        let report = m.report(&["Normal", "DoS", "Probe"]);
        for name in ["Normal", "DoS", "Probe", "precision", "accuracy"] {
            assert!(report.contains(name), "missing {name} in:\n{report}");
        }
    }

    #[test]
    #[should_panic(expected = "one name per class")]
    fn report_checks_name_count() {
        let m = ConfusionMatrix::from_predictions(&[0], &[0], 2);
        m.report(&["only-one"]);
    }

    #[test]
    fn matrix_absent_class_is_none() {
        let m = ConfusionMatrix::from_predictions(&[0, 0], &[0, 0], 3);
        assert_eq!(m.recall(2), None);
        assert_eq!(m.precision(2), None);
        assert_eq!(m.accuracy(), 1.0);
    }

    #[test]
    #[should_panic(expected = "prediction/label count")]
    fn mismatched_lengths_panic() {
        Confusion::from_predictions(&[0], &[0, 1], 0);
    }
}
