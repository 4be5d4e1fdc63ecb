//! The traced run's instruments. They time calls into each layer's
//! public functions from outside; nothing inside the program changes.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use fume_core::{BiasEval, DareRemoval, FumeReport, RemovalMethod};
use fume_fairness::FairnessMetric;
use fume_forest::{DareForest, DeleteReport};
use fume_tabular::{Classifier, Dataset, GroupSpec};

/// A production [`DareRemoval`] that records the wall time of every
/// `bias_removed` (one unlearn-and-re-evaluate) and `warm` call.
pub struct TimedRemoval<'a> {
    inner: DareRemoval<'a>,
    evals: Mutex<Vec<(Vec<u32>, Duration)>>,
    warm: Mutex<Duration>,
}

impl<'a> TimedRemoval<'a> {
    pub fn new(forest: &'a DareForest, train: &'a Dataset) -> Self {
        Self {
            inner: DareRemoval::new(forest, train),
            evals: Mutex::new(Vec::new()),
            warm: Mutex::new(Duration::ZERO),
        }
    }

    /// Every evaluated subset with its eval time, and the total warm-up time.
    pub fn into_parts(self) -> (Vec<(Vec<u32>, Duration)>, Duration) {
        let evals = self
            .evals
            .into_inner()
            .expect("no recorder thread panicked");
        let warm = self.warm.into_inner().expect("no recorder thread panicked");
        (evals, warm)
    }
}

impl RemovalMethod for TimedRemoval<'_> {
    fn with_removed<T>(&self, subset: &[u32], f: impl FnOnce(&dyn Classifier) -> T) -> T {
        self.inner.with_removed(subset, f)
    }

    fn bias_removed(&self, subset: &[u32], eval: &BiasEval<'_>) -> f64 {
        let t0 = Instant::now();
        let bias = self.inner.bias_removed(subset, eval);
        let took = t0.elapsed();
        self.evals
            .lock()
            .expect("no recorder thread panicked")
            .push((subset.to_vec(), took));
        bias
    }

    fn warm(&self, workers: usize) {
        let t0 = Instant::now();
        self.inner.warm(workers);
        *self.warm.lock().expect("no recorder thread panicked") += t0.elapsed();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One subset replayed layer by layer on a clone of the deployed forest.
pub struct Replay {
    pub clone: Duration,
    pub delete: Duration,
    pub bias: Duration,
    pub report: DeleteReport,
    /// `|F|` of the counterfactual model.
    pub bias_value: f64,
}

/// `DareForest::clone`, `DareForest::delete`, then a full
/// `FairnessMetric::bias` pass over the test rows — the independent
/// recompute every reported ρ is checked against, timed per layer.
pub fn replay(
    forest: &DareForest,
    train: &Dataset,
    test: &Dataset,
    group: GroupSpec,
    metric: FairnessMetric,
    rows: &[u32],
) -> Replay {
    let t0 = Instant::now();
    let mut model = forest.clone();
    let clone = t0.elapsed();
    let t1 = Instant::now();
    let report = model
        .delete(rows, train)
        .expect("evaluated rows come from the training set");
    let delete = t1.elapsed();
    let t2 = Instant::now();
    let bias_value = metric.bias(&model, test, group);
    let bias = t2.elapsed();
    Replay {
        clone,
        delete,
        bias,
        report,
        bias_value,
    }
}

/// The distinct row sets a report evaluated, in first-seen order (the
/// estimator unlearns each distinct selection once).
pub fn distinct_evaluated(report: &FumeReport) -> Vec<&[u32]> {
    let mut seen = std::collections::HashSet::new();
    report
        .evaluated
        .iter()
        .map(|s| s.rows.as_slice())
        .filter(|rows| seen.insert(*rows))
        .collect()
}
