//! The paper's three group-fairness metrics (§2.1).
//!
//! Every metric is a signed difference *protected − privileged* (the
//! paper's `F(h, D) = P(Ŷ=1|S=0) − P(Ŷ=1|S=1)` convention for statistical
//! parity): a negative value means the classifier is biased **against**
//! the protected group, and `|F|` is the magnitude of the bias.
//!
//! Degenerate inputs follow the empty-denominator contract documented in
//! [`crate::confusion`]: an empty group, an all-one-label group, or an
//! empty `Ŷ=1` set (predictive parity) contributes a rate of 0.0, so
//! every metric is finite and in `[-1, 1]` on *any* dataset — the
//! evaluator boundary never has to launder a NaN minted here.

use fume_tabular::{Classifier, Dataset, GroupSpec};

use crate::confusion::GroupConfusion;

/// Which notion of group fairness to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FairnessMetric {
    /// Difference in positive-prediction rates:
    /// `P(Ŷ=1 | S=0) − P(Ŷ=1 | S=1)`.
    StatisticalParity,
    /// Average of the TPR and FPR differences between groups (the
    /// "average odds difference"); zero iff both rates match, i.e.
    /// equalized odds holds.
    EqualizedOdds,
    /// Difference in positive predictive value:
    /// `P(Y=1 | Ŷ=1, S=0) − P(Y=1 | Ŷ=1, S=1)`.
    PredictiveParity,
    /// Difference in true-positive rates only:
    /// `P(Ŷ=1 | Y=1, S=0) − P(Ŷ=1 | Y=1, S=1)` — the common relaxation of
    /// equalized odds (Hardt et al.'s *equality of opportunity*). Not one
    /// of the paper's three metrics, provided as an extension.
    EqualOpportunity,
}

impl FairnessMetric {
    /// The paper's three metrics (§2.1).
    pub const ALL: [FairnessMetric; 3] = [
        FairnessMetric::StatisticalParity,
        FairnessMetric::EqualizedOdds,
        FairnessMetric::PredictiveParity,
    ];

    /// Every supported metric, including extensions.
    pub const EXTENDED: [FairnessMetric; 4] = [
        FairnessMetric::StatisticalParity,
        FairnessMetric::EqualizedOdds,
        FairnessMetric::PredictiveParity,
        FairnessMetric::EqualOpportunity,
    ];

    /// The wire tag (`"statistical_parity"`, …) used in report JSON and
    /// accepted as a serve request's `metric` member.
    pub fn tag(self) -> &'static str {
        match self {
            Self::StatisticalParity => "statistical_parity",
            Self::EqualizedOdds => "equalized_odds",
            Self::PredictiveParity => "predictive_parity",
            Self::EqualOpportunity => "equal_opportunity",
        }
    }

    /// Parses a metric tag: the long [`tag`](Self::tag) or the short
    /// `sp`/`eo`/`pp` of the paper's three metrics. `None` for anything
    /// else.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "sp" | "statistical_parity" => Self::StatisticalParity,
            "eo" | "equalized_odds" => Self::EqualizedOdds,
            "pp" | "predictive_parity" => Self::PredictiveParity,
            "equal_opportunity" => Self::EqualOpportunity,
            _ => return None,
        })
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Self::StatisticalParity => "statistical parity",
            Self::EqualizedOdds => "equalized odds",
            Self::PredictiveParity => "predictive parity",
            Self::EqualOpportunity => "equal opportunity",
        }
    }

    /// Computes the signed metric from tallied confusion counts.
    pub fn from_confusion(self, g: &GroupConfusion) -> f64 {
        match self {
            Self::StatisticalParity => {
                g.protected.selection_rate() - g.privileged.selection_rate()
            }
            Self::EqualizedOdds => {
                let d_tpr = g.protected.tpr() - g.privileged.tpr();
                let d_fpr = g.protected.fpr() - g.privileged.fpr();
                0.5 * (d_tpr + d_fpr)
            }
            Self::PredictiveParity => g.protected.ppv() - g.privileged.ppv(),
            Self::EqualOpportunity => g.protected.tpr() - g.privileged.tpr(),
        }
    }

    /// Computes the signed metric of predictions against labels/groups.
    pub fn compute(
        self,
        preds: &[bool],
        labels: &[bool],
        privileged_mask: &[bool],
    ) -> f64 {
        self.from_confusion(&GroupConfusion::tally(preds, labels, privileged_mask))
    }

    /// Evaluates classifier `h` on `data`: the paper's `F(h, D)`.
    pub fn evaluate<C: Classifier + ?Sized>(
        self,
        h: &C,
        data: &Dataset,
        group: GroupSpec,
    ) -> f64 {
        fume_obs::counter!("fairness.metric_evals", 1);
        let preds = h.predict(data);
        self.compute(&preds, data.labels(), &data.privileged_mask(group))
    }

    /// `|F(h, D)|` — the magnitude of the violation.
    pub fn bias<C: Classifier + ?Sized>(self, h: &C, data: &Dataset, group: GroupSpec) -> f64 {
        self.evaluate(h, data, group).abs()
    }
}

/// Full fairness snapshot of a model on a dataset, used in reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// Signed statistical parity difference.
    pub statistical_parity: f64,
    /// Signed average odds difference.
    pub equalized_odds: f64,
    /// Signed predictive parity difference.
    pub predictive_parity: f64,
    /// Overall accuracy.
    pub accuracy: f64,
    /// The tallied confusion counts behind the metrics.
    pub confusion: GroupConfusion,
}

/// Evaluates all three metrics plus accuracy in one prediction pass.
pub fn fairness_report<C: Classifier + ?Sized>(
    h: &C,
    data: &Dataset,
    group: GroupSpec,
) -> FairnessReport {
    fume_obs::counter!("fairness.metric_evals", FairnessMetric::ALL.len());
    let preds = h.predict(data);
    let mask = data.privileged_mask(group);
    let confusion = GroupConfusion::tally(&preds, data.labels(), &mask);
    let correct = preds.iter().zip(data.labels()).filter(|(p, y)| p == y).count();
    FairnessReport {
        statistical_parity: FairnessMetric::StatisticalParity.from_confusion(&confusion),
        equalized_odds: FairnessMetric::EqualizedOdds.from_confusion(&confusion),
        predictive_parity: FairnessMetric::PredictiveParity.from_confusion(&confusion),
        accuracy: if data.is_empty() { 0.0 } else { correct as f64 / data.num_rows() as f64 },
        confusion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_tabular::classifier::ConstantClassifier;
    use fume_tabular::{Attribute, Schema};
    use std::sync::Arc;

    fn toy() -> (Dataset, GroupSpec) {
        let schema = Arc::new(
            Schema::with_default_label(vec![Attribute::categorical(
                "sex",
                vec!["f".into(), "m".into()],
            )])
            .unwrap(),
        );
        // rows: 4 privileged (m), 4 protected (f)
        let data = Dataset::new(
            schema,
            vec![vec![1, 1, 1, 1, 0, 0, 0, 0]],
            vec![true, true, false, false, true, true, false, false],
        )
        .unwrap();
        (data, GroupSpec::new(0, 1))
    }

    /// A classifier that predicts positive for a fixed row set.
    struct FixedPreds(Vec<bool>);
    impl Classifier for FixedPreds {
        fn predict_proba(&self, _data: &Dataset) -> Vec<f64> {
            self.0.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect()
        }
    }

    #[test]
    fn statistical_parity_signed_difference() {
        let (data, group) = toy();
        // privileged: 3/4 predicted positive; protected: 1/4.
        let h = FixedPreds(vec![true, true, true, false, true, false, false, false]);
        let f = FairnessMetric::StatisticalParity.evaluate(&h, &data, group);
        assert!((f - (0.25 - 0.75)).abs() < 1e-12);
        assert!(f < 0.0, "bias against protected is negative");
        assert!((FairnessMetric::StatisticalParity.bias(&h, &data, group) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn perfectly_fair_classifier_scores_zero_on_all_metrics() {
        let (data, group) = toy();
        // Predict exactly the labels: TPR=1, FPR=0, PPV=1 in both groups.
        let h = FixedPreds(data.labels().to_vec());
        for m in FairnessMetric::ALL {
            assert_eq!(m.evaluate(&h, &data, group), 0.0, "{}", m.name());
        }
    }

    #[test]
    fn equalized_odds_averages_tpr_and_fpr_gaps() {
        let (data, group) = toy();
        // privileged: TPR 1/2 (pred pos row0 only of rows0,1), FPR 1/2 (row2).
        // protected: TPR 1 (rows 4,5), FPR 0.
        let h = FixedPreds(vec![true, false, true, false, true, true, false, false]);
        let f = FairnessMetric::EqualizedOdds.evaluate(&h, &data, group);
        let expect = 0.5 * ((1.0 - 0.5) + (0.0 - 0.5));
        assert!((f - expect).abs() < 1e-12);
    }

    #[test]
    fn predictive_parity_uses_ppv() {
        let (data, group) = toy();
        // privileged predicted positive: rows 0 (y=1), 2 (y=0) → PPV 1/2.
        // protected predicted positive: row 4 (y=1) → PPV 1.
        let h = FixedPreds(vec![true, false, true, false, true, false, false, false]);
        let f = FairnessMetric::PredictiveParity.evaluate(&h, &data, group);
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_classifier_satisfies_statistical_parity() {
        let (data, group) = toy();
        let h = ConstantClassifier { proba: 0.9 };
        assert_eq!(FairnessMetric::StatisticalParity.evaluate(&h, &data, group), 0.0);
    }

    #[test]
    fn report_is_consistent_with_individual_metrics() {
        let (data, group) = toy();
        let h = FixedPreds(vec![true, true, true, false, true, false, false, false]);
        let r = fairness_report(&h, &data, group);
        assert_eq!(
            r.statistical_parity,
            FairnessMetric::StatisticalParity.evaluate(&h, &data, group)
        );
        assert_eq!(
            r.equalized_odds,
            FairnessMetric::EqualizedOdds.evaluate(&h, &data, group)
        );
        assert_eq!(
            r.predictive_parity,
            FairnessMetric::PredictiveParity.evaluate(&h, &data, group)
        );
        // 6 of 8 predictions match the labels.
        assert!((r.accuracy - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tags_roundtrip_and_accept_shorthand() {
        for metric in FairnessMetric::EXTENDED {
            assert_eq!(FairnessMetric::from_tag(metric.tag()), Some(metric));
        }
        for (tag, metric) in [
            ("sp", FairnessMetric::StatisticalParity),
            ("eo", FairnessMetric::EqualizedOdds),
            ("pp", FairnessMetric::PredictiveParity),
        ] {
            assert_eq!(FairnessMetric::from_tag(tag), Some(metric), "tag {tag}");
        }
        assert_eq!(FairnessMetric::from_tag("nope"), None);
    }

    #[test]
    fn all_metrics_are_finite_on_degenerate_groups() {
        let (data, group) = toy();
        // Predict nothing positive (PPV denominators empty in both
        // groups), everything positive (FPR/TNR side degenerate), and a
        // one-sided split (privileged Ŷ=1 set empty, protected not).
        for preds in [
            vec![false; 8],
            vec![true; 8],
            vec![false, false, false, false, true, true, true, true],
        ] {
            let h = FixedPreds(preds.clone());
            for m in FairnessMetric::EXTENDED {
                let f = m.evaluate(&h, &data, group);
                assert!(
                    f.is_finite() && (-1.0..=1.0).contains(&f),
                    "{} on {preds:?}: {f}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn empty_prediction_set_pins_ppv_difference_to_protected_rate() {
        let (data, group) = toy();
        // Privileged Ŷ=1 empty → its PPV is 0 by contract; protected
        // predicts row 4 (y=1) → PPV 1. The difference is exactly +1.
        let h = FixedPreds(vec![false, false, false, false, true, false, false, false]);
        assert_eq!(FairnessMetric::PredictiveParity.evaluate(&h, &data, group), 1.0);
        // Both sides empty → both PPVs 0 → difference exactly 0.
        let h = FixedPreds(vec![false; 8]);
        assert_eq!(FairnessMetric::PredictiveParity.evaluate(&h, &data, group), 0.0);
    }

    #[test]
    fn metrics_on_an_entirely_empty_dataset_are_zero() {
        let (data, group) = toy();
        let empty = data.select_rows(&[]).unwrap();
        let h = ConstantClassifier { proba: 0.9 };
        for m in FairnessMetric::EXTENDED {
            assert_eq!(m.evaluate(&h, &empty, group), 0.0, "{}", m.name());
            assert_eq!(m.bias(&h, &empty, group), 0.0, "{}", m.name());
        }
        let r = fairness_report(&h, &empty, group);
        assert_eq!(r.accuracy, 0.0);
        assert_eq!(r.confusion, GroupConfusion::default());
    }

    #[test]
    fn metric_names() {
        assert_eq!(FairnessMetric::StatisticalParity.name(), "statistical parity");
        assert_eq!(FairnessMetric::ALL.len(), 3);
        assert_eq!(FairnessMetric::EXTENDED.len(), 4);
        assert!(FairnessMetric::EXTENDED.contains(&FairnessMetric::EqualOpportunity));
    }

    #[test]
    fn equal_opportunity_ignores_false_positive_rates() {
        let (data, group) = toy();
        // Equal TPRs (both 1/2), very different FPRs (1 vs 0):
        // privileged: rows 0,1 positive → predict row 0 only; rows 2,3
        // negative → predict both (FPR 1).
        // protected: rows 4,5 positive → predict row 4 only; rows 6,7
        // negative → predict none (FPR 0).
        let h = FixedPreds(vec![true, false, true, true, true, false, false, false]);
        let eo = FairnessMetric::EqualOpportunity.evaluate(&h, &data, group);
        assert_eq!(eo, 0.0, "TPRs match");
        let eodds = FairnessMetric::EqualizedOdds.evaluate(&h, &data, group);
        assert!((eodds - (-0.5)).abs() < 1e-12, "FPR gap shows in equalized odds: {eodds}");
    }
}
