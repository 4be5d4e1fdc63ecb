//! Regression gate for exact deletion under `FUME_DEEPCHECK=1`: after an
//! unjournaled `delete_unchecked` — the deletion every unlearn-eval runs
//! on its clone of the deployed forest — the full forest must re-validate
//! with zero violations.
//!
//! This file is its own integration-test binary so the environment
//! variable can be set before anything reads (and caches) it.

use fume_forest::deepcheck;
use fume_forest::validate::validate_forest;
use fume_forest::{DareConfig, DareForest};
use fume_tabular::datasets::planted_toy;

#[test]
fn unchecked_deletes_stay_valid_under_deepcheck() {
    // Must run before the first `deepcheck::enabled()` call in this
    // process: the gate caches the answer in a OnceLock.
    std::env::set_var("FUME_DEEPCHECK", "1");
    assert!(
        deepcheck::enabled() || !cfg!(debug_assertions),
        "deepcheck must be active in debug/test builds once the env var is set"
    );

    let (data, _) = planted_toy().generate_scaled(0.6, 91).unwrap();
    let n = data.num_rows() as u32;
    assert!(n > 512, "need enough rows for the 256-id subset");

    let cfg = DareConfig { n_trees: 9, max_depth: 6, seed: 91, ..DareConfig::default() };
    let deployed = DareForest::fit(&data, cfg);

    for subset_size in [1usize, 16, 256] {
        let del: Vec<u32> = (0..n).step_by(n as usize / subset_size).take(subset_size).collect();
        assert_eq!(del.len(), subset_size);

        let mut forest = deployed.clone();
        let report = forest.delete_unchecked(&del, &data);
        assert!(report.nodes_updated + report.subtrees_retrained > 0);
        assert_eq!(forest.num_instances(), n - subset_size as u32);

        // The gate the removal method runs after every delete (it panics
        // on any violation); verify explicitly as well so the test also
        // guards release-profile runs where the gate is compiled out.
        deepcheck::check_forest(&forest, &data, "delete_unchecked");
        let violations = validate_forest(&forest, &data);
        assert!(
            violations.is_empty(),
            "violations after deleting {subset_size} ids: {violations:?}"
        );
    }
}
