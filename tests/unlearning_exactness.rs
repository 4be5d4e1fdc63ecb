//! Exactness of DaRE unlearning, exercised across the whole stack: after
//! any sequence of deletions, every cached statistic must equal what a
//! from-scratch pass over the surviving data computes, and the unlearned
//! model's *fairness* must track a true retrain (the paper's RQ1).

use fume::core::{DareRemoval, RemovalMethod, RetrainRemoval};
use fume::fairness::FairnessMetric;
use fume::forest::validate::validate_forest;
use fume::forest::{extra_trees::ExtraForest, DareConfig, DareForest, MaxFeatures};
use fume::tabular::datasets::{german_credit, planted_toy};
use fume::tabular::split::train_test_split;
use fume::tabular::Classifier;
use fume::tabular::rng::{SeedableRng, SliceRandom, StdRng};

fn configs(seed: u64) -> Vec<DareConfig> {
    vec![
        // Pure greedy forest, all features.
        DareConfig {
            n_trees: 5,
            max_depth: 6,
            random_depth: 0,
            max_features: MaxFeatures::All,
            seed,
            ..DareConfig::default()
        },
        // Default DaRE layout: one random layer, sqrt features.
        DareConfig { n_trees: 5, max_depth: 7, random_depth: 1, seed, ..DareConfig::default() },
        // Deep random layers, few thresholds.
        DareConfig {
            n_trees: 5,
            max_depth: 6,
            random_depth: 3,
            n_thresholds: 2,
            seed,
            ..DareConfig::default()
        },
        // Larger leaves.
        DareConfig {
            n_trees: 5,
            max_depth: 8,
            min_samples_leaf: 5,
            min_samples_split: 12,
            seed,
            ..DareConfig::default()
        },
    ]
}

#[test]
fn statistics_stay_exact_under_random_deletion_waves() {
    let (data, _) = planted_toy().generate_scaled(0.25, 41).unwrap();
    for (ci, cfg) in configs(41).into_iter().enumerate() {
        let mut forest = DareForest::fit(&data, cfg);
        let mut rng = StdRng::seed_from_u64(41 + ci as u64);
        let mut remaining = data.all_row_ids();
        for wave in 0..5 {
            remaining.shuffle(&mut rng);
            let k = (remaining.len() / 6).max(1);
            let del: Vec<u32> = remaining.drain(..k).collect();
            forest.delete(&del, &data).unwrap();
            let violations = validate_forest(&forest, &data);
            assert!(
                violations.is_empty(),
                "config {ci} wave {wave}: {violations:?}"
            );
        }
    }
}

#[test]
fn unlearning_the_rest_of_the_data_yields_empty_forest() {
    let (data, _) = planted_toy().generate_scaled(0.1, 43).unwrap();
    let cfg = DareConfig { n_trees: 3, max_depth: 5, seed: 43, ..DareConfig::default() };
    let mut forest = DareForest::fit(&data, cfg);
    // Two halves.
    let half: Vec<u32> = (0..(data.num_rows() / 2) as u32).collect();
    let rest: Vec<u32> = ((data.num_rows() / 2) as u32..data.num_rows() as u32).collect();
    forest.delete(&half, &data).unwrap();
    forest.delete(&rest, &data).unwrap();
    assert_eq!(forest.num_instances(), 0);
    // An empty forest predicts maximal uncertainty.
    for p in forest.predict_proba(&data) {
        assert_eq!(p, 0.5);
    }
}

#[test]
fn unlearned_fairness_tracks_retrained_fairness() {
    // A miniature of the paper's Figure 3: over a handful of coherent
    // subsets, the DaRE estimate and the retrain ground truth must agree
    // in sign and rough magnitude.
    let (data, group) = german_credit().generate_full(47).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 47).unwrap();
    let cfg = DareConfig { n_trees: 15, max_depth: 8, seed: 47, ..DareConfig::default() };
    let forest = DareForest::fit(&train, cfg.clone());
    let metric = FairnessMetric::StatisticalParity;
    let base = metric.bias(&forest, &test, group);
    assert!(base > 0.02, "German stand-in must show a violation ({base})");

    let dare = DareRemoval::new(&forest, &train);
    let retrain = RetrainRemoval::new(&train, cfg);
    let mut diffs = Vec::new();
    for start in [0u32, 100, 200, 300] {
        let subset: Vec<u32> = (start..start + 70).collect();
        let b_unlearn = dare.with_removed(&subset, |m| metric.bias(m, &test, group));
        let b_retrain = retrain.with_removed(&subset, |m| metric.bias(m, &test, group));
        diffs.push((b_unlearn - b_retrain).abs());
    }
    let mean_diff = diffs.iter().sum::<f64>() / diffs.len() as f64;
    assert!(
        mean_diff < 0.06,
        "mean |unlearned - retrained| fairness gap too large: {mean_diff} ({diffs:?})"
    );
}

#[test]
fn deleting_one_row_barely_moves_predictions() {
    // DaRE's empirical claim: single-instance deletion changes test error
    // by well under a percent.
    let (data, _) = planted_toy().generate_scaled(0.5, 53).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 53).unwrap();
    let cfg = DareConfig { n_trees: 10, max_depth: 7, seed: 53, ..DareConfig::default() };
    let forest = DareForest::fit(&train, cfg);
    let acc_before = forest.accuracy(&test);
    let mut unlearned = forest.clone();
    unlearned.delete(&[17], &train).unwrap();
    let acc_after = unlearned.accuracy(&test);
    assert!(
        (acc_before - acc_after).abs() < 0.02,
        "single deletion moved accuracy {acc_before} -> {acc_after}"
    );
}

#[test]
fn extra_trees_variant_survives_the_same_deletion_waves() {
    let (data, _) = planted_toy().generate_scaled(0.2, 59).unwrap();
    let cfg = DareConfig { n_trees: 5, max_depth: 6, seed: 59, ..DareConfig::default() };
    let mut ert = ExtraForest::fit(&data, cfg);
    let mut rng = StdRng::seed_from_u64(59);
    let mut remaining = data.all_row_ids();
    for _ in 0..4 {
        remaining.shuffle(&mut rng);
        let k = remaining.len() / 5;
        let del: Vec<u32> = remaining.drain(..k).collect();
        ert.delete(&del, &data).unwrap();
        let violations = validate_forest(ert.as_dare(), &data);
        assert!(violations.is_empty(), "{violations:?}");
    }
}

#[test]
fn clone_then_delete_leaves_original_usable() {
    let (data, group) = planted_toy().generate_scaled(0.3, 61).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 61).unwrap();
    let cfg = DareConfig { n_trees: 8, max_depth: 6, seed: 61, ..DareConfig::default() };
    let forest = DareForest::fit(&train, cfg);
    let preds_before = forest.predict_proba(&test);
    // Many scoped unlearn-evals against the same deployed model (what
    // FUME's parallel attribution does, one clone per eval).
    let removal = DareRemoval::new(&forest, &train);
    for start in (0..200u32).step_by(40) {
        removal.with_removed(&(start..start + 30).collect::<Vec<_>>(), |_| ());
    }
    assert_eq!(forest.predict_proba(&test), preds_before);
    let _ = FairnessMetric::EqualizedOdds.bias(&forest, &test, group);
}
