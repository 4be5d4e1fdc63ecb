//! Instance-level (example-based) attribution via unlearning — the
//! leave-one-out analogue of the influence-function explanations the
//! paper cites [45, 58], made applicable to non-parametric models by the
//! same unlearning trick FUME uses for subsets.
//!
//! For each candidate training instance, the deployed DaRE forest is
//! cloned, the instance unlearned, and the fairness change recorded. The
//! result ranks *individual rows*, which is useful for spot checks but —
//! as the paper's introduction argues — far less actionable than FUME's
//! coherent predicate subsets. The two are contrasted in the examples.

use fume_fairness::FairnessMetric;
use fume_forest::DareForest;
use fume_tabular::{Dataset, GroupSpec};

use crate::attribution::AttributionEstimator;
use crate::removal::DareRemoval;

/// One instance's attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceAttribution {
    /// Training-row id.
    pub row: u32,
    /// Parity reduction when this single row is unlearned
    /// (positive = the row contributes to the violation).
    pub parity_reduction: f64,
}

/// Ranks the given training rows (or all rows if `candidates` is `None`)
/// by the fairness improvement from unlearning each one alone, most
/// responsible first. `O(|candidates|)` clone+delete operations — use the
/// candidate list to pre-filter on large datasets.
pub fn rank_instances(
    forest: &DareForest,
    train: &Dataset,
    test: &Dataset,
    group: GroupSpec,
    metric: FairnessMetric,
    candidates: Option<&[u32]>,
    n_jobs: Option<usize>,
) -> Vec<InstanceAttribution> {
    let original = metric.bias(forest, test, group);
    if original <= f64::EPSILON {
        return Vec::new();
    }
    let removal = DareRemoval::new(forest, train);
    let estimator = AttributionEstimator::new(
        &removal,
        metric,
        test,
        group,
        original,
        n_jobs,
    );
    let all_ids;
    let ids: &[u32] = match candidates {
        Some(c) => c,
        None => {
            all_ids = train.all_row_ids();
            &all_ids
        }
    };
    // Reuse the batch evaluator: each "subset" is a single row.
    use fume_lattice::{BatchEvaluator as _, EvalItem, Predicate};
    let dummy = Predicate::new(vec![]);
    let singletons: Vec<[u32; 1]> = ids.iter().map(|&id| [id]).collect();
    let items: Vec<EvalItem<'_>> = singletons
        .iter()
        .map(|s| EvalItem { predicate: &dummy, rows: s })
        .collect();
    let rhos = estimator.evaluate(&items);
    let mut out: Vec<InstanceAttribution> = ids
        .iter()
        .zip(rhos)
        .map(|(&row, parity_reduction)| InstanceAttribution { row, parity_reduction })
        .collect();
    out.sort_by(|a, b| b.parity_reduction.total_cmp(&a.parity_reduction));
    out
}

/// How concentrated the per-instance attributions are inside a predicate
/// subset: the fraction of the top-`k` ranked instances that fall in
/// `subset_rows` (sorted). Used to validate that FUME's subsets capture
/// the individually-responsible instances.
pub fn overlap_with_subset(
    ranked: &[InstanceAttribution],
    subset_rows: &[u32],
    k: usize,
) -> f64 {
    let k = k.min(ranked.len());
    if k == 0 {
        return 0.0;
    }
    let hits = ranked[..k]
        .iter()
        .filter(|a| subset_rows.binary_search(&a.row).is_ok())
        .count();
    hits as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_forest::DareConfig;
    use fume_tabular::datasets::planted_toy;
    use fume_tabular::split::train_test_split;

    #[test]
    fn ranks_descending_and_respects_candidates() {
        let (data, group) = planted_toy().generate_scaled(0.3, 91).unwrap();
        let (train, test) = train_test_split(&data, 0.3, 91).unwrap();
        let forest = DareForest::fit(&train, DareConfig::small(91).with_trees(10));
        let candidates: Vec<u32> = (0..40).collect();
        let ranked = rank_instances(
            &forest,
            &train,
            &test,
            group,
            FairnessMetric::StatisticalParity,
            Some(&candidates),
            Some(2),
        );
        assert_eq!(ranked.len(), 40);
        assert!(ranked
            .windows(2)
            .all(|w| w[0].parity_reduction >= w[1].parity_reduction));
        for a in &ranked {
            assert!(a.row < 40);
        }
    }

    #[test]
    fn overlap_metric() {
        let ranked: Vec<InstanceAttribution> = (0..10)
            .map(|i| InstanceAttribution { row: i, parity_reduction: 1.0 - i as f64 / 10.0 })
            .collect();
        let subset = vec![0u32, 1, 2, 3, 4];
        assert!((overlap_with_subset(&ranked, &subset, 5) - 1.0).abs() < 1e-12);
        assert!((overlap_with_subset(&ranked, &subset, 10) - 0.5).abs() < 1e-12);
        assert_eq!(overlap_with_subset(&[], &subset, 5), 0.0);
    }
}
