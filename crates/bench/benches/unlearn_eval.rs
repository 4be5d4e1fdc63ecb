//! The unlearn-eval path (`DareRemoval::bias_removed`: clone the deployed
//! forest, exactly delete the subset, one full bias pass) in two regimes,
//! on Adult-scale synthetic data:
//!
//! * `lattice` — the subsets FUME actually evaluates: the lattice's real
//!   level-1 candidates inside the paper's default 5–15 % support range;
//! * `tiny` — 4–10-row subsets spread across the id range, kept as a
//!   separately labelled row so that regime stays in view too.
//!
//! Every bias value is checked bitwise against an independent
//! clone → `delete` → bias replay before any timing is reported. Emits
//! `BENCH_unlearn_eval.json`; `scripts/verify.sh` runs the `--smoke` mode.
//!
//! ```text
//! cargo bench --bench unlearn_eval            # full Adult-scale run
//! cargo bench --bench unlearn_eval -- --smoke # small CI-gate run
//! ```

use std::time::Instant;

use fume_core::prelude::*;
use fume_fairness::FairnessMetric;
use fume_lattice::level1_nodes_with;
use fume_tabular::datasets::adult;
use fume_tabular::split::train_test_split;

struct Setup {
    mode: &'static str,
    train: Dataset,
    test: Dataset,
    group: GroupSpec,
    forest: DareForest,
    rounds: usize,
}

fn setup(smoke: bool) -> (Setup, usize) {
    let (mode, scale, trees, depth, n_subsets, rounds) =
        if smoke { ("smoke", 0.05, 30, 8, 8, 3) } else { ("full", 0.5, 50, 14, 30, 3) };
    let (data, group) = adult().generate_scaled(scale, 10).expect("generate");
    let (train, test) = train_test_split(&data, 0.3, 10).expect("split");
    let cfg = DareConfig::default().with_trees(trees).with_max_depth(depth).with_seed(10);
    let forest = DareForest::fit(&train, cfg);
    (Setup { mode, train, test, group, forest, rounds }, n_subsets)
}

/// Up to `n` of the lattice's level-1 selections whose support lies in
/// FUME's default range, spread evenly over the candidate list.
fn lattice_subsets(s: &Setup, n: usize) -> Vec<Vec<u32>> {
    let config = FumeConfig::default();
    let rows = s.train.num_rows();
    let candidates: Vec<Vec<u32>> =
        level1_nodes_with(&s.train, &config.exclude_attrs, config.literal_gen)
            .into_iter()
            .filter(|node| config.support.contains(node.support(rows)))
            .map(|node| node.rows)
            .collect();
    assert!(!candidates.is_empty(), "no level-1 candidate inside the default support range");
    let take = n.min(candidates.len());
    (0..take).map(|i| candidates[i * candidates.len() / take].clone()).collect()
}

/// `n` small contiguous subsets of 4–10 rows spread across the id range.
fn tiny_subsets(s: &Setup, n: usize) -> Vec<Vec<u32>> {
    let rows = s.train.num_rows() as u32;
    (0..n as u32)
        .map(|i| {
            let size = 4 + (i % 4) * 2;
            let start = (i * (rows / n as u32)).min(rows - size - 1);
            (start..start + size).collect()
        })
        .collect()
}

/// One regime's measurement.
struct Regime {
    subsets: usize,
    mean_rows: f64,
    secs: f64,
}

impl Regime {
    fn evals_per_sec(&self) -> f64 {
        self.subsets as f64 / self.secs
    }

    fn ms_per_eval(&self) -> f64 {
        self.secs * 1e3 / self.subsets as f64
    }
}

/// Times `DareRemoval::bias_removed` over `subsets` (best of the rounds),
/// after checking every answer bitwise against a clone → `delete` → bias
/// replay.
fn measure(s: &Setup, subsets: &[Vec<u32>]) -> Regime {
    let eval = BiasEval { metric: FairnessMetric::StatisticalParity, test: &s.test, group: s.group };
    let removal = DareRemoval::new(&s.forest, &s.train);
    for subset in subsets {
        let mut model = s.forest.clone();
        model.delete(subset, &s.train).expect("subsets come from the training rows");
        let want = eval.metric.bias(&model, &s.test, s.group);
        let got = removal.bias_removed(subset, &eval);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "bias of a {}-row subset diverged from the clone → delete → bias replay",
            subset.len()
        );
    }
    let mut secs = f64::INFINITY;
    for _ in 0..s.rounds {
        let t0 = Instant::now();
        for subset in subsets {
            removal.bias_removed(subset, &eval);
        }
        secs = secs.min(t0.elapsed().as_secs_f64());
    }
    let rows: usize = subsets.iter().map(Vec::len).sum();
    Regime { subsets: subsets.len(), mean_rows: rows as f64 / subsets.len() as f64, secs }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // `FUME_TRACE=<path>`: record the whole run as a JSONL trace, so
    // `fume-trace diff` can gate two runs against each other.
    let trace_path = std::env::var("FUME_TRACE").ok().filter(|p| !p.is_empty());
    if trace_path.is_some() {
        let rec = fume_obs::install();
        rec.reset();
        rec.set_meta("bench", "unlearn_eval");
        rec.set_meta("mode", if smoke { "smoke" } else { "full" });
    }
    let (s, n_subsets) = setup(smoke);
    let lattice = measure(&s, &lattice_subsets(&s, n_subsets));
    let tiny = measure(&s, &tiny_subsets(&s, n_subsets));

    println!(
        "unlearn_eval ({} · {} rows · {} test rows · {} trees · {} rounds, best round)",
        s.mode,
        s.train.num_rows(),
        s.test.num_rows(),
        s.forest.config().n_trees,
        s.rounds
    );
    for (label, r) in [("lattice 5-15%", &lattice), ("tiny 4-10 rows", &tiny)] {
        println!(
            "  {label:<15} {:>3} subsets · {:>7.1} rows mean · {:>8.3} ms/eval · {:>8.1} evals/s",
            r.subsets,
            r.mean_rows,
            r.ms_per_eval(),
            r.evals_per_sec()
        );
    }
    println!("  every bias bitwise equal to a clone -> delete -> bias replay");

    let mut json = format!(
        "{{\"bench\":\"unlearn_eval\",\"mode\":\"{}\",\"rows\":{},\"test_rows\":{},\"trees\":{},\
         \"rounds\":{},\"bitwise_checked\":true",
        s.mode,
        s.train.num_rows(),
        s.test.num_rows(),
        s.forest.config().n_trees,
        s.rounds
    );
    for (key, r) in [("lattice", &lattice), ("tiny", &tiny)] {
        json.push_str(&format!(
            ",\"{key}_subsets\":{},\"{key}_rows_mean\":{:.1},\"{key}_secs\":{:.6},\
             \"{key}_ms_per_eval\":{:.3},\"{key}_evals_per_sec\":{:.3}",
            r.subsets,
            r.mean_rows,
            r.secs,
            r.ms_per_eval(),
            r.evals_per_sec()
        ));
    }
    json.push_str("}\n");
    // `cargo bench` sets the executable's CWD to the package directory;
    // anchor the output at the workspace root instead.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_unlearn_eval.json");
    std::fs::write(out, json).expect("write BENCH_unlearn_eval.json");
    eprintln!("wrote BENCH_unlearn_eval.json");

    if let (Some(path), Some(rec)) = (trace_path, fume_obs::global()) {
        // Like the BENCH json: `cargo bench` runs with the package as CWD,
        // so anchor relative paths at the workspace root.
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let dest = root.join(&path);
        std::fs::write(&dest, rec.events_to_jsonl()).expect("write FUME_TRACE file");
        eprintln!("wrote trace to {path}");
    }
}
