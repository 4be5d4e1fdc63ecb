//! The unlearn-eval path, exercised across the stack: the ρ vector
//! `DareRemoval` produces through the attribution estimator must be
//! bit-identical to an independent clone → `delete` → bias replay at any
//! parallelism, and evaluating must never touch the deployed forest.

use fume::core::parity_reduction;
use fume::core::prelude::*;
use fume::lattice::{BatchEvaluator, EvalItem, Literal, Predicate};
use fume::tabular::datasets::planted_toy;
use fume::tabular::split::train_test_split;

struct Fixture {
    train: Dataset,
    test: Dataset,
    group: GroupSpec,
    forest: DareForest,
    preds: Vec<Predicate>,
}

fn fixture() -> Fixture {
    let (data, group) = planted_toy().generate_scaled(0.5, 93).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 93).unwrap();
    let forest = DareForest::fit(&train, DareConfig::small(93));
    let preds = (0..2u16)
        .flat_map(|attr| (0..3u16).map(move |v| Predicate::single(Literal::eq(attr, v))))
        .collect();
    Fixture { train, test, group, forest, preds }
}

const METRIC: FairnessMetric = FairnessMetric::StatisticalParity;

/// ρ of every fixture predicate through `DareRemoval` and the estimator.
fn rho_vector(f: &Fixture, n_jobs: usize) -> Vec<f64> {
    let bias = METRIC.bias(&f.forest, &f.test, f.group);
    assert!(bias > 0.0, "fixture must show a violation");
    let selections: Vec<Vec<u32>> = f.preds.iter().map(|p| p.select(&f.train)).collect();
    let items: Vec<EvalItem<'_>> = f
        .preds
        .iter()
        .zip(&selections)
        .map(|(p, s)| EvalItem { predicate: p, rows: s })
        .collect();
    let removal = DareRemoval::new(&f.forest, &f.train);
    let est = AttributionEstimator::new(&removal, METRIC, &f.test, f.group, bias, Some(n_jobs));
    est.evaluate(&items)
}

/// `DareRemoval`'s ρ vector, serial and parallel, must equal bit for bit
/// the ρ of a clone of the deployed forest with the subset deleted
/// through the checked `delete`, scored by a fresh bias pass.
#[test]
fn dare_removal_rho_matches_a_clone_delete_bias_replay() {
    let f = fixture();
    let bias = METRIC.bias(&f.forest, &f.test, f.group);
    let reference: Vec<f64> = f
        .preds
        .iter()
        .map(|p| {
            let mut model = f.forest.clone();
            model.delete(&p.select(&f.train), &f.train).unwrap();
            parity_reduction(bias, METRIC.bias(&model, &f.test, f.group))
        })
        .collect();
    assert!(!reference.is_empty());
    for n_jobs in [1usize, 4] {
        let got = rho_vector(&f, n_jobs);
        assert_eq!(got.len(), reference.len());
        for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "subset {i} at n_jobs {n_jobs}: {a} vs {b}");
        }
    }
}

/// The deployed forest is untouched by evaluation, and repeating the same
/// batch gives the same answers.
#[test]
fn dare_removal_is_repeatable_and_leaves_the_deployed_forest_untouched() {
    let f = fixture();
    let snapshot = f.forest.clone();
    let a = rho_vector(&f, 4);
    let b = rho_vector(&f, 4);
    assert_eq!(a, b);
    assert_eq!(f.forest, snapshot, "deployed model must never change");
}
