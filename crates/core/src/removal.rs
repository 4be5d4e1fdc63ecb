//! Removal methods `R(A(D), D, T)`: ways to obtain "the model had it been
//! trained without subset T" (paper §3).
//!
//! The trait is *scoped*: [`RemovalMethod::with_removed`] hands the
//! counterfactual model to a closure instead of returning it, so callers
//! cannot retain or mutate it, and the deployed model stays untouched.
//!
//! Implementations:
//! * [`DareRemoval`] — FUME's path: clone the deployed DaRE forest,
//!   exactly unlearn the subset from the clone, measure;
//! * [`RetrainRemoval`] — the naive gold standard: fit a fresh forest on
//!   `D \ T` from scratch (ground truth in the paper's Figure 3 and the
//!   efficiency baseline);
//! * [`GbdtRetrainRemoval`] — model-agnostic retraining for GBDTs.

use fume_fairness::FairnessMetric;
use fume_forest::{DareConfig, DareForest, Gbdt, GbdtConfig};
use fume_tabular::{Classifier, Dataset, GroupSpec};

/// One bias measurement, fully specified: which metric, over which
/// held-out rows, against which sensitive-group split. FUME's hot loop
/// only ever asks removal methods this one question
/// ([`RemovalMethod::bias_removed`]).
#[derive(Clone, Copy)]
pub struct BiasEval<'a> {
    /// The fairness metric to measure.
    pub metric: FairnessMetric,
    /// The held-out evaluation rows.
    pub test: &'a Dataset,
    /// The sensitive-group split.
    pub group: GroupSpec,
}

impl BiasEval<'_> {
    /// `|F(h, test)|`: a full prediction pass over every test row and a
    /// fresh confusion tally.
    pub fn full(&self, model: &dyn Classifier) -> f64 {
        self.metric.bias(model, self.test, self.group)
    }
}

/// Produces a model equivalent to training on `D \ subset` and lends it
/// to a closure.
///
/// The trait is object-safe: callers that hold a removal method behind
/// `&dyn RemovalMethod` (an [`ExplainRequest`](crate::ExplainRequest)
/// carrying a custom method, see
/// [`RemovalSpec::Shared`](crate::RemovalSpec::Shared)) reach
/// [`Self::bias_removed`], [`Self::warm`] and [`Self::name`]; the generic
/// [`Self::with_removed`] needs the concrete type.
pub trait RemovalMethod: Sync {
    /// Runs `f` against the model with `subset` (training-row ids)
    /// removed, returning whatever `f` computes. The deployed model must
    /// be observably unchanged when this returns.
    fn with_removed<T>(&self, subset: &[u32], f: impl FnOnce(&dyn Classifier) -> T) -> T
    where
        Self: Sized;

    /// The bias of the model with `subset` removed:
    /// `self.with_removed(subset, |m| eval.full(m))`, which is what every
    /// implementation in this crate returns.
    fn bias_removed(&self, subset: &[u32], eval: &BiasEval<'_>) -> f64;

    /// One-time warm-up before a batch evaluation fans out over
    /// `workers` threads. Takes `&self` so a long-lived removal method
    /// can be warmed once and then shared across concurrent runs. The
    /// default does nothing.
    fn warm(&self, workers: usize) {
        let _ = workers;
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Machine unlearning via DaRE: each call clones the deployed forest,
/// exactly unlearns the subset from the clone, and lends the clone out.
#[derive(Debug, Clone, Copy)]
pub struct DareRemoval<'a> {
    forest: &'a DareForest,
    train: &'a Dataset,
}

impl<'a> DareRemoval<'a> {
    /// Wraps a trained forest and its training data.
    pub fn new(forest: &'a DareForest, train: &'a Dataset) -> Self {
        Self { forest, train }
    }
}

impl RemovalMethod for DareRemoval<'_> {
    fn with_removed<T>(&self, subset: &[u32], f: impl FnOnce(&dyn Classifier) -> T) -> T {
        let mut model = self.forest.clone();
        // Lattice selections come from the training universe the forest
        // was fitted on, so the per-call presence scan is skipped.
        model.delete_unchecked(subset, self.train);
        fume_forest::deepcheck::check_forest(&model, self.train, "delete_unchecked");
        f(&model)
    }

    fn bias_removed(&self, subset: &[u32], eval: &BiasEval<'_>) -> f64 {
        self.with_removed(subset, |model| eval.full(model))
    }

    fn name(&self) -> &'static str {
        "DaRE unlearning"
    }
}

/// The naive approach: retrain from scratch on the surviving rows with the
/// same hyperparameters and seed.
#[derive(Debug, Clone)]
pub struct RetrainRemoval<'a> {
    train: &'a Dataset,
    config: DareConfig,
}

impl<'a> RetrainRemoval<'a> {
    /// Wraps the training data and forest hyperparameters.
    pub fn new(train: &'a Dataset, config: DareConfig) -> Self {
        Self { train, config }
    }
}

fn complement(subset: &[u32], num_rows: usize) -> Vec<u32> {
    let mut keep = vec![true; num_rows];
    for &id in subset {
        keep[id as usize] = false;
    }
    (0..num_rows as u32).filter(|&r| keep[r as usize]).collect()
}

impl RemovalMethod for RetrainRemoval<'_> {
    fn with_removed<T>(&self, subset: &[u32], f: impl FnOnce(&dyn Classifier) -> T) -> T {
        let surviving = complement(subset, self.train.num_rows());
        // Retrains serially: the caller parallelizes across subsets.
        let cfg = DareConfig { n_jobs: Some(1), ..self.config.clone() };
        let model = DareForest::fit_on(self.train, surviving, cfg);
        f(&model)
    }

    fn bias_removed(&self, subset: &[u32], eval: &BiasEval<'_>) -> f64 {
        self.with_removed(subset, |model| eval.full(model))
    }

    fn name(&self) -> &'static str {
        "retraining from scratch"
    }
}

/// Model-agnostic removal for gradient-boosted trees: retrain on the
/// complement. GBDT trees are sequential (each fits the previous
/// ensemble's gradients), so a deletion invalidates every later tree and
/// retraining *is* the exact removal method — which is precisely why the
/// paper's fast path needs a model like DaRE, and why this impl exists:
/// it demonstrates §5.1's claim that FUME runs unchanged on any model by
/// swapping `EstimateAttribution`'s removal method.
#[derive(Debug, Clone)]
pub struct GbdtRetrainRemoval<'a> {
    train: &'a Dataset,
    config: GbdtConfig,
}

impl<'a> GbdtRetrainRemoval<'a> {
    /// Wraps the training data and GBDT hyperparameters.
    pub fn new(train: &'a Dataset, config: GbdtConfig) -> Self {
        Self { train, config }
    }
}

impl RemovalMethod for GbdtRetrainRemoval<'_> {
    fn with_removed<T>(&self, subset: &[u32], f: impl FnOnce(&dyn Classifier) -> T) -> T {
        let surviving = complement(subset, self.train.num_rows());
        let model = Gbdt::fit_on(self.train, surviving, self.config.clone());
        f(&model)
    }

    fn bias_removed(&self, subset: &[u32], eval: &BiasEval<'_>) -> f64 {
        self.with_removed(subset, |model| eval.full(model))
    }

    fn name(&self) -> &'static str {
        "GBDT retraining"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_tabular::datasets::planted_toy;

    #[test]
    fn dare_removal_does_not_mutate_deployed_model() {
        let (train, _) = planted_toy().generate_scaled(0.15, 61).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(61));
        let snapshot = forest.clone();
        let removal = DareRemoval::new(&forest, &train);
        let n = removal.with_removed(&[0, 1, 2, 3, 4], |model| {
            let _ = model.predict(&train);
            5u32
        });
        assert_eq!(forest, snapshot, "deployed model must be untouched");
        assert_eq!(n, 5);
    }

    #[test]
    fn dare_removal_matches_clone_then_delete() {
        let (data, group) = planted_toy().generate_scaled(0.3, 66).unwrap();
        let (train, test) = fume_tabular::split::train_test_split(&data, 0.3, 66).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(66));
        let removal = DareRemoval::new(&forest, &train);
        let eval = BiasEval { metric: FairnessMetric::StatisticalParity, test: &test, group };
        for subset in [vec![0u32, 3, 9], (0..30).collect::<Vec<u32>>()] {
            let mut reference = forest.clone();
            reference.delete(&subset, &train).unwrap();
            let want = eval.full(&reference);
            let got = removal.bias_removed(&subset, &eval);
            assert_eq!(got.to_bits(), want.to_bits(), "|T| = {}", subset.len());
            let via_dyn = (&removal as &dyn RemovalMethod).bias_removed(&subset, &eval);
            assert_eq!(via_dyn.to_bits(), want.to_bits(), "dispatch through &dyn");
        }
    }

    #[test]
    fn retrain_removal_trains_on_complement() {
        let (train, _) = planted_toy().generate_scaled(0.15, 62).unwrap();
        let removal = RetrainRemoval::new(&train, DareConfig::small(62).with_trees(5));
        let n = removal.with_removed(&[0, 10, 20], |model| {
            model.predict(&train).len()
        });
        assert_eq!(n, train.num_rows());
    }

    #[test]
    fn both_methods_agree_closely_on_small_deletions() {
        let (data, group) = planted_toy().generate_scaled(0.5, 63).unwrap();
        let (train, test) =
            fume_tabular::split::train_test_split(&data, 0.3, 63).unwrap();
        let cfg = DareConfig::small(63);
        let forest = DareForest::fit(&train, cfg.clone());
        let dare = DareRemoval::new(&forest, &train);
        let retrain = RetrainRemoval::new(&train, cfg);
        let subset: Vec<u32> = (0..40).collect();
        let metric = FairnessMetric::StatisticalParity;
        let b_dare = dare.with_removed(&subset, |m| metric.bias(m, &test, group));
        let b_retrain = retrain.with_removed(&subset, |m| metric.bias(m, &test, group));
        assert!(
            (b_dare - b_retrain).abs() < 0.08,
            "unlearned bias {b_dare} vs retrained {b_retrain}"
        );
    }

    #[test]
    fn names() {
        let (train, _) = planted_toy().generate_scaled(0.1, 64).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(64).with_trees(2));
        assert_eq!(DareRemoval::new(&forest, &train).name(), "DaRE unlearning");
        assert_eq!(
            RetrainRemoval::new(&train, DareConfig::small(64)).name(),
            "retraining from scratch"
        );
    }
}
