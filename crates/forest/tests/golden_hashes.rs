//! Golden byte-identity gate for the DaRE builder and the delete pass.
//!
//! Hashes the persisted encoding of forests fitted on German and Adult at
//! quick scale (the rows and 70/30 split of paper Tables 3–4) in three
//! states: after `fit`, after a fixed `delete_unchecked` wave, and after a
//! further pattern-shaped delete; a fourth digest follows re-inserting the
//! wave. The encoding
//! covers structure, thresholds, candidate pools and leaf id order, and the
//! delete wave consumes the tree RNG streams the fit left behind, so any
//! change to how the builder draws from its RNG, partitions ids or lays out
//! candidates moves a hash.
//!
//! The pinned values were produced by the builder that allocated a fresh
//! histogram and id vectors per node; a rewrite of the builder or the
//! delete pass must reproduce them unchanged.

use fume_forest::persist::to_bytes;
use fume_forest::{DareConfig, DareForest};
use fume_tabular::datasets::{adult, german_credit, PaperDataset};
use fume_tabular::generator::generate;
use fume_tabular::split::train_test_split;
use fume_tabular::Dataset;

/// FNV-1a over the persisted bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(forest: &DareForest) -> u64 {
    fnv1a(&to_bytes(forest))
}

/// The quick-scale training split: 10% of the published rows, at least
/// 1 000, then a 70/30 split, exactly as the benchmark harness prepares it.
fn quick_train(ds: &PaperDataset, seed: u64) -> Dataset {
    let n = ((ds.full_size as f64 * 0.10).round() as usize)
        .max(1_000)
        .min(ds.full_size);
    let (data, _) = generate(&ds.spec, n, seed).unwrap();
    train_test_split(&data, 0.3, seed).unwrap().0
}

/// `[fit, delete wave, pattern delete, re-insert]` digests. Re-inserting
/// the wave drives the insert path's rebuilds through the same builder.
fn states(train: &Dataset, cfg: DareConfig) -> [u64; 4] {
    let mut forest = DareForest::fit(train, cfg);
    let fit = digest(&forest);

    // A fixed ~8% wave spread over the id space.
    let n = train.num_rows() as u32;
    let wave: Vec<u32> = (0..n).filter(|id| id % 13 == 5).collect();
    let report = forest.delete_unchecked(&wave, train);
    assert!(report.subtrees_retrained > 0 && report.candidates_replenished > 0);
    let waved = digest(&forest);

    // A pattern-shaped subset, like the lattice evaluates: every surviving
    // row whose first attribute takes its smallest code.
    let column = train.column(0);
    let pattern: Vec<u32> = (0..n)
        .filter(|&id| id % 13 != 5 && column[id as usize] == 0)
        .collect();
    assert!(!pattern.is_empty());
    forest.delete_unchecked(&pattern, train);
    let patterned = digest(&forest);
    let report = forest.insert(&wave, train).unwrap();
    assert!(report.subtrees_rebuilt > 0);
    [fit, waved, patterned, digest(&forest)]
}

fn config(seed: u64, random_depth: usize, min_samples_leaf: u32) -> DareConfig {
    DareConfig {
        n_trees: 10,
        max_depth: 8,
        random_depth,
        min_samples_split: 2 * min_samples_leaf.max(1),
        min_samples_leaf,
        seed,
        n_jobs: Some(1),
        ..DareConfig::default()
    }
}

/// `(dataset, seed, random_depth, min_samples_leaf)` for each pinned case.
fn cases() -> Vec<(&'static str, PaperDataset, u64, usize, u32)> {
    vec![
        ("german", german_credit(), 1, 0, 1),
        ("german", german_credit(), 1, 1, 1),
        ("german", german_credit(), 2, 3, 1),
        ("german", german_credit(), 3, 1, 4),
        ("adult", adult(), 1, 0, 1),
        ("adult", adult(), 1, 1, 1),
        ("adult", adult(), 2, 3, 1),
        ("adult", adult(), 3, 1, 4),
    ]
}

const PINNED: [[u64; 4]; 8] = [
    // german seed 1 d_rand 0 msl 1
    [0x60edc1e979415722, 0x03f8e8e617f0761a, 0xe12e0e7b311fad16, 0x091fa808a7d550bc],
    // german seed 1 d_rand 1 msl 1
    [0xff96c95cd0fc8a31, 0x11a3be7625d3512c, 0xeb6ceb0203e364e9, 0xd6a511cfc2ef729a],
    // german seed 2 d_rand 3 msl 1
    [0x7d3279d61f3f5fd4, 0x9e6baa7b42474470, 0xd44fce4ce191dd85, 0xc52a262eff9483cd],
    // german seed 3 d_rand 1 msl 4
    [0xb2d0465a4d4a0429, 0xf7fecaa9c2307f26, 0x7f6dda1d3bfce484, 0xf40be40755385e77],
    // adult seed 1 d_rand 0 msl 1
    [0xee09af7b3e8f5db9, 0xc8c023c6e282f1ed, 0xa2fdc4165dd0a1f1, 0x25148480d08efcaf],
    // adult seed 1 d_rand 1 msl 1
    [0x9c6ce3572c930b67, 0xd57ed93dbb16d843, 0xa9d637ef6cd20bdd, 0xf0695e8ac663e72e],
    // adult seed 2 d_rand 3 msl 1
    [0x2b7c500b98478b99, 0x72764313eb3795ba, 0x20492929b792f774, 0xe53f28de4a6dccfe],
    // adult seed 3 d_rand 1 msl 4
    [0xbedf54052c44e4ca, 0x46060695a1d2ca2b, 0xe3c24493972f592a, 0x0f3d54de36416fc8],
];

#[test]
fn forest_bytes_match_the_pinned_digests() {
    let mut got = Vec::new();
    for (name, ds, seed, random_depth, msl) in cases() {
        let train = quick_train(&ds, seed);
        let d = states(&train, config(seed, random_depth, msl));
        println!("    // {name} seed {seed} d_rand {random_depth} msl {msl}");
        println!("    [{:#018x}, {:#018x}, {:#018x}, {:#018x}],", d[0], d[1], d[2], d[3]);
        got.push(d);
    }
    assert_eq!(got, PINNED);
}
