//! Tree construction: random upper layers + greedy Gini nodes with cached
//! candidate-threshold statistics.
//!
//! One recursive builder serves fitting, delete-time retraining and
//! insert-time rebuilding. It works over a mutable id slice that it
//! partitions stably in place, and keeps every per-node buffer (the
//! attribute shuffle, the label histogram, the sampled cuts, the candidate
//! list and the partition's right side) in a [`BuildScratch`] that the
//! caller creates once and threads down the recursion. A node therefore
//! allocates only what it keeps: its leaf id list or its candidate pool,
//! each at exact capacity.

use fume_tabular::cast::{code_u16, row_u32};
use fume_tabular::rng::{Rng, SliceRandom, StdRng};
use fume_tabular::Dataset;

use crate::config::DareConfig;
use crate::gini::gini_gain;
use crate::node::{Candidate, Internal, Leaf, Node};

/// Tolerance for "strictly better" gain comparisons: build-time choice and
/// delete-time re-evaluation must use the same epsilon or unlearning would
/// retrain on floating-point noise.
pub(crate) const GAIN_EPS: f64 = 1e-12;

/// Reusable cumulative label histogram of one attribute over a set of
/// instance ids, plus the cut thresholds sampled from it.
pub(crate) struct CutHistogram {
    /// After [`Self::fill`]: `counts[c]` = instances with code `<= c`.
    counts: Vec<u32>,
    /// After [`Self::fill`]: `pos[c]` = positive instances with code `<= c`.
    pos: Vec<u32>,
    /// Cuts chosen by the last [`Self::sample_cuts`], ascending.
    cuts: Vec<u16>,
}

impl CutHistogram {
    /// Fills the cumulative histogram of `attr` over `ids` and returns the
    /// attribute's cardinality (the histogram's live length).
    pub(crate) fn fill(&mut self, data: &Dataset, attr: u16, ids: &[u32]) -> usize {
        let card = data.schema().attributes()[attr as usize].cardinality() as usize;
        let (counts, pos) = (&mut self.counts[..card], &mut self.pos[..card]);
        counts.fill(0);
        pos.fill(0);
        let column = data.column(attr as usize);
        let labels = data.labels();
        for &id in ids {
            let c = column[id as usize] as usize;
            counts[c] += 1;
            pos[c] += u32::from(labels[id as usize]);
        }
        for c in 1..card {
            counts[c] += counts[c - 1];
            pos[c] += pos[c - 1];
        }
        card
    }

    /// `(n_left, n_left_pos)` of the cut `code <= threshold`.
    #[inline]
    pub(crate) fn left_stats(&self, threshold: u16) -> (u32, u32) {
        (self.counts[threshold as usize], self.pos[threshold as usize])
    }

    /// Samples up to `k` cut thresholds, without replacement, from the
    /// codes present in the histogram (every present code except the
    /// largest is a valid cut). `exclude` suppresses cuts already cached
    /// (used when replenishing after unlearning). The chosen cuts are kept
    /// sorted, so equal RNG states give identical candidate layouts.
    pub(crate) fn sample_cuts(
        &mut self,
        card: usize,
        k: usize,
        exclude: impl Fn(u16) -> bool,
        rng: &mut StdRng,
    ) {
        self.cuts.clear();
        let mut below = 0;
        let mut last_present = None;
        for c in 0..card {
            if self.counts[c] > below {
                below = self.counts[c];
                if let Some(prev) = last_present.replace(code_u16(c)) {
                    if !exclude(prev) {
                        self.cuts.push(prev);
                    }
                }
            }
        }
        self.cuts.shuffle(rng);
        self.cuts.truncate(k);
        self.cuts.sort_unstable();
    }

    /// The candidates of the last [`Self::sample_cuts`] on `attr`.
    pub(crate) fn candidates(&self, attr: u16) -> impl Iterator<Item = Candidate> + '_ {
        self.cuts.iter().map(move |&threshold| {
            let (n_left, n_left_pos) = self.left_stats(threshold);
            Candidate { attr, threshold, n_left, n_left_pos }
        })
    }
}

/// The builder's workspace: created once per build (or per delete/insert
/// pass) and threaded down the recursion, so per-node work allocates
/// nothing but what the node keeps.
pub(crate) struct BuildScratch {
    /// Attribute order for the per-node shuffle.
    attrs: Vec<u16>,
    /// Label histogram and sampled cuts of one attribute.
    pub(crate) hist: CutHistogram,
    /// Valid candidates of the greedy node being built.
    candidates: Vec<Candidate>,
    /// Right side of [`partition_in_place`].
    pub(crate) right: Vec<u32>,
}

impl BuildScratch {
    /// An empty workspace sized for `data`'s schema.
    pub(crate) fn new(data: &Dataset) -> Self {
        let max_card = data
            .schema()
            .attributes()
            .iter()
            .map(|a| a.cardinality() as usize)
            .max()
            .unwrap_or(0);
        Self {
            attrs: Vec::with_capacity(data.num_attributes()),
            hist: CutHistogram {
                counts: vec![0; max_card],
                pos: vec![0; max_card],
                cuts: Vec::with_capacity(max_card),
            },
            candidates: Vec::new(),
            right: Vec::new(),
        }
    }

    /// Resets `attrs` to `0..p` and shuffles it, consuming the RNG exactly
    /// as a fresh shuffled attribute vector would.
    fn shuffle_attrs(&mut self, p: usize, rng: &mut StdRng) {
        self.attrs.clear();
        self.attrs.extend(0..code_u16(p));
        self.attrs.shuffle(rng);
    }
}

/// Stably partitions `ids` in place into `code(attr) <= threshold` (front)
/// and the rest (back), using `right` as the buffer for the back part.
/// Returns the length of the front part. Both parts keep their relative
/// order, so a sorted slice yields two sorted parts.
pub(crate) fn partition_in_place(
    column: &[u16],
    threshold: u16,
    ids: &mut [u32],
    right: &mut Vec<u32>,
) -> usize {
    right.clear();
    let mut n_left = 0;
    for i in 0..ids.len() {
        let id = ids[i];
        if column[id as usize] <= threshold {
            ids[n_left] = id;
            n_left += 1;
        } else {
            right.push(id);
        }
    }
    ids[n_left..].copy_from_slice(right);
    n_left
}

/// Applies the label histogram of `rows` to every cached candidate:
/// `apply(candidate, n_left_delta, n_left_pos_delta)` receives how many of
/// `rows` (and how many positive ones) fall on the candidate's left side.
/// One cumulative histogram per distinct attribute replaces a scan of
/// every row per candidate; candidates may come in any attribute order.
pub(crate) fn shift_candidates(
    candidates: &mut [Candidate],
    rows: &[u32],
    data: &Dataset,
    hist: &mut CutHistogram,
    mut apply: impl FnMut(&mut Candidate, u32, u32),
) {
    for i in 0..candidates.len() {
        let attr = candidates[i].attr;
        if candidates[..i].iter().any(|c| c.attr == attr) {
            continue; // this attribute's histogram was already applied
        }
        hist.fill(data, attr, rows);
        for cand in candidates[i..].iter_mut().filter(|c| c.attr == attr) {
            let (dn, dpos) = hist.left_stats(cand.threshold);
            apply(cand, dn, dpos);
        }
    }
}

fn count_pos(data: &Dataset, ids: &[u32]) -> u32 {
    let labels = data.labels();
    row_u32(ids.iter().filter(|&&id| labels[id as usize]).count())
}

/// Whether a candidate split separates the node's data while honoring the
/// leaf-size minimum. Used identically at build time and unlearning time.
#[inline]
pub(crate) fn candidate_valid(c: &Candidate, n: u32, cfg: &DareConfig) -> bool {
    c.n_left >= cfg.min_samples_leaf && (n - c.n_left) >= cfg.min_samples_leaf
}

/// Index of the best valid candidate by Gini gain (ties keep the earliest),
/// or `None` if no candidate is valid. Zero-gain splits are allowed — like
/// standard random forests, a mixed node keeps splitting until pure or
/// depth-capped, because deeper splits may separate what this one cannot
/// (e.g. XOR-shaped labels).
pub(crate) fn best_candidate(
    candidates: &[Candidate],
    n: u32,
    n_pos: u32,
    cfg: &DareConfig,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in candidates.iter().enumerate() {
        if !candidate_valid(c, n, cfg) {
            continue;
        }
        let g = gini_gain(n, n_pos, c.n_left, c.n_left_pos);
        match best {
            Some((_, bg)) if g <= bg + GAIN_EPS => {}
            _ => best = Some((i, g)),
        }
    }
    best.map(|(i, _)| i)
}

/// The split a node settles on, before its children are built.
struct Split {
    attr: u16,
    threshold: u16,
    is_random: bool,
    candidates: Vec<Candidate>,
    chosen: u32,
}

/// Recursively builds a (sub)tree over `ids` rooted at `depth`. `ids` is
/// reordered in place (stably partitioned at every split).
pub(crate) fn build_node(
    data: &Dataset,
    ids: &mut [u32],
    depth: usize,
    rng: &mut StdRng,
    cfg: &DareConfig,
    scratch: &mut BuildScratch,
) -> Node {
    let n = row_u32(ids.len());
    let n_pos = count_pos(data, ids);
    let splittable =
        n >= cfg.min_samples_split && n_pos > 0 && n_pos < n && depth < cfg.max_depth;
    let split = match splittable {
        false => None,
        true if depth < cfg.random_depth => random_split(data, ids, n, rng, cfg, scratch),
        true => greedy_split(data, ids, n, n_pos, rng, cfg, scratch),
    };
    let Some(Split { attr, threshold, is_random, candidates, chosen }) = split else {
        return Node::Leaf(Leaf { ids: ids.to_vec(), n_pos });
    };
    let n_left = partition_in_place(data.column(attr as usize), threshold, ids, &mut scratch.right);
    let (left_ids, right_ids) = ids.split_at_mut(n_left);
    let left = build_node(data, left_ids, depth + 1, rng, cfg, scratch);
    let right = build_node(data, right_ids, depth + 1, rng, cfg, scratch);
    Node::Internal(Box::new(Internal {
        attr,
        threshold,
        is_random,
        n,
        n_pos,
        candidates,
        chosen,
        left,
        right,
    }))
}

/// A random upper-layer split: uniformly random attribute, uniformly
/// random threshold within that attribute's observed code range. Both
/// children are non-empty by construction (`threshold ∈ [min, max)`).
/// `None` when no attribute can split the node's data.
fn random_split(
    data: &Dataset,
    ids: &[u32],
    n: u32,
    rng: &mut StdRng,
    cfg: &DareConfig,
    scratch: &mut BuildScratch,
) -> Option<Split> {
    scratch.shuffle_attrs(data.num_attributes(), rng);
    for &attr in &scratch.attrs {
        let column = data.column(attr as usize);
        let (mut lo, mut hi) = (u16::MAX, 0u16);
        for &id in ids {
            let c = column[id as usize];
            lo = lo.min(c);
            hi = hi.max(c);
        }
        if lo >= hi {
            continue; // constant attribute in this node
        }
        let threshold = rng.gen_range(lo..hi);
        let n_left = row_u32(ids.iter().filter(|&&id| column[id as usize] <= threshold).count());
        if n_left < cfg.min_samples_leaf || n - n_left < cfg.min_samples_leaf {
            continue;
        }
        return Some(Split { attr, threshold, is_random: true, candidates: Vec::new(), chosen: 0 });
    }
    None
}

/// A greedy split: samples `p̃` attributes and `k'` thresholds per
/// attribute, caches every candidate's statistics, and splits on the best
/// Gini gain. `None` when no candidate is valid.
fn greedy_split(
    data: &Dataset,
    ids: &[u32],
    n: u32,
    n_pos: u32,
    rng: &mut StdRng,
    cfg: &DareConfig,
    scratch: &mut BuildScratch,
) -> Option<Split> {
    let p = data.num_attributes();
    scratch.shuffle_attrs(p, rng);
    scratch.attrs.truncate(cfg.max_features.resolve(p));
    scratch.attrs.sort_unstable(); // deterministic candidate layout

    // Only cache candidates the builder could actually choose: cuts that
    // violate the leaf-size minimum would be dead weight and would break
    // the "every cached candidate is valid" invariant that unlearning's
    // replenishment step maintains.
    let BuildScratch { attrs, hist, candidates, .. } = scratch;
    candidates.clear();
    for &attr in attrs.iter() {
        let card = hist.fill(data, attr, ids);
        hist.sample_cuts(card, cfg.n_thresholds, |_| false, rng);
        candidates.extend(hist.candidates(attr).filter(|c| candidate_valid(c, n, cfg)));
    }

    let chosen = best_candidate(candidates, n, n_pos, cfg)?;
    let Candidate { attr, threshold, .. } = candidates[chosen];
    Some(Split {
        attr,
        threshold,
        is_random: false,
        candidates: candidates.to_vec(),
        chosen: row_u32(chosen),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_tabular::{Attribute, Schema};
    use fume_tabular::rng::SeedableRng;
    use std::sync::Arc;

    fn xor_data() -> Dataset {
        // label = a XOR b, plus a noise attribute.
        let schema = Arc::new(
            Schema::with_default_label(vec![
                Attribute::categorical("a", vec!["0".into(), "1".into()]),
                Attribute::categorical("b", vec!["0".into(), "1".into()]),
                Attribute::categorical("noise", vec!["0".into(), "1".into(), "2".into()]),
            ])
            .unwrap(),
        );
        let mut cols = vec![Vec::new(), Vec::new(), Vec::new()];
        let mut labels = Vec::new();
        for i in 0..64usize {
            let a = (i % 2) as u16;
            let b = ((i / 2) % 2) as u16;
            cols[0].push(a);
            cols[1].push(b);
            cols[2].push((i % 3) as u16);
            labels.push((a ^ b) == 1);
        }
        Dataset::new(schema, cols, labels).unwrap()
    }

    fn cfg() -> DareConfig {
        DareConfig {
            n_trees: 1,
            max_depth: 8,
            random_depth: 0,
            n_thresholds: 5,
            max_features: crate::config::MaxFeatures::All,
            ..DareConfig::default()
        }
    }

    /// Builds over all rows of `d` with a fresh workspace.
    fn build(d: &Dataset, seed: u64, cfg: &DareConfig) -> Node {
        build_ids(d, d.all_row_ids(), seed, cfg)
    }

    fn build_ids(d: &Dataset, mut ids: Vec<u32>, seed: u64, cfg: &DareConfig) -> Node {
        let mut rng = StdRng::seed_from_u64(seed);
        build_node(d, &mut ids, 0, &mut rng, cfg, &mut BuildScratch::new(d))
    }

    #[test]
    fn histogram_is_cumulative() {
        let d = xor_data();
        let ids = d.all_row_ids();
        let mut scratch = BuildScratch::new(&d);
        let h = &mut scratch.hist;
        assert_eq!(h.fill(&d, 0, &ids), 2);
        assert_eq!(h.left_stats(0), (32, 16));
        assert_eq!(h.left_stats(1), (64, 32));
        // Refilling over a subset forgets the previous contents.
        assert_eq!(h.fill(&d, 2, &ids[..6]), 3);
        assert_eq!((h.left_stats(0), h.left_stats(1), h.left_stats(2)), ((2, 0), (4, 1), (6, 3)));
    }

    #[test]
    fn partition_in_place_is_stable_and_complete() {
        let d = xor_data();
        let mut ids = d.all_row_ids();
        let mut right = Vec::new();
        let n_left = partition_in_place(d.column(0), 0, &mut ids, &mut right);
        let (l, r) = ids.split_at(n_left);
        assert_eq!(n_left, 32);
        assert!(l.windows(2).all(|w| w[0] < w[1]), "stable order");
        assert!(r.windows(2).all(|w| w[0] < w[1]), "stable order");
        assert!(l.iter().all(|&id| d.code(id as usize, 0) == 0));
        assert!(r.iter().all(|&id| d.code(id as usize, 0) == 1));
    }

    #[test]
    fn partition_in_place_matches_a_stable_filter_on_random_input() {
        let mut rng = StdRng::seed_from_u64(21);
        let column: Vec<u16> = (0..500).map(|_| rng.gen_range(0..7u16)).collect();
        let mut right = Vec::new();
        for round in 0..50 {
            let len = rng.gen_range(0..200usize);
            let mut ids: Vec<u32> = (0..len).map(|_| rng.gen_range(0..500u32)).collect();
            let before = ids.clone();
            let threshold = rng.gen_range(0..7u16);
            let n_left = partition_in_place(&column, threshold, &mut ids, &mut right);
            let goes_left = |id: &&u32| column[**id as usize] <= threshold;
            let want_left: Vec<u32> = before.iter().filter(goes_left).copied().collect();
            let want_right: Vec<u32> =
                before.iter().filter(|id| !goes_left(id)).copied().collect();
            assert_eq!(&ids[..n_left], want_left.as_slice(), "round {round}: left order");
            assert_eq!(&ids[n_left..], want_right.as_slice(), "round {round}: right order");
            let (mut sorted_before, mut sorted_after) = (before, ids);
            sorted_before.sort_unstable();
            sorted_after.sort_unstable();
            assert_eq!(sorted_before, sorted_after, "round {round}: not a permutation");
        }
    }

    #[test]
    fn greedy_tree_learns_xor() {
        let d = xor_data();
        let root = build(&d, 1, &cfg());
        for row in 0..d.num_rows() {
            let p = root.predict_row(&d, row);
            assert_eq!(p > 0.5, d.label(row), "row {row} proba {p}");
        }
    }

    #[test]
    fn node_statistics_are_consistent() {
        let d = xor_data();
        let root = build(&d, 2, &cfg());
        fn check(node: &Node) {
            if let Node::Internal(i) = node {
                assert_eq!(i.n, i.left.n() + i.right.n());
                assert_eq!(i.n_pos, i.left.n_pos() + i.right.n_pos());
                let c = &i.candidates[i.chosen as usize];
                assert_eq!((c.attr, c.threshold), (i.attr, i.threshold));
                assert_eq!(c.n_left, i.left.n());
                assert_eq!(c.n_left_pos, i.left.n_pos());
                check(&i.left);
                check(&i.right);
            }
        }
        check(&root);
    }

    #[test]
    fn random_layers_are_marked() {
        let d = xor_data();
        let mut c = cfg();
        c.random_depth = 2;
        let root = build(&d, 3, &c);
        if let Node::Internal(i) = &root {
            assert!(i.is_random);
            assert!(i.candidates.is_empty());
            // Random splits always separate.
            assert!(i.left.n() > 0 && i.right.n() > 0);
        } else {
            panic!("expected split at root");
        }
    }

    #[test]
    fn pure_data_yields_single_leaf() {
        let d = xor_data();
        let pure_ids: Vec<u32> = (0..d.num_rows() as u32)
            .filter(|&r| d.label(r as usize))
            .collect();
        let root = build_ids(&d, pure_ids.clone(), 4, &cfg());
        match root {
            Node::Leaf(l) => {
                assert_eq!(l.ids.len(), pure_ids.len());
                assert_eq!(l.proba(), 1.0);
            }
            _ => panic!("pure node must be a leaf"),
        }
    }

    #[test]
    fn max_depth_zero_means_single_leaf() {
        let d = xor_data();
        let mut c = cfg();
        c.max_depth = 0;
        let root = build(&d, 5, &c);
        assert!(matches!(root, Node::Leaf(_)));
    }

    #[test]
    fn sample_cuts_excludes_and_caps() {
        let d = xor_data();
        let mut scratch = BuildScratch::new(&d);
        let h = &mut scratch.hist;
        let card = h.fill(&d, 2, &d.all_row_ids()); // codes 0,1,2
        let mut rng = StdRng::seed_from_u64(6);
        h.sample_cuts(card, 10, |_| false, &mut rng);
        assert_eq!(h.candidates(2).count(), 2); // cuts at 0 and 1
        h.sample_cuts(card, 10, |t| t == 0, &mut rng);
        let excl: Vec<Candidate> = h.candidates(2).collect();
        assert_eq!(excl.len(), 1);
        assert_eq!((excl[0].threshold, excl[0].n_left), (1, 43));
        h.sample_cuts(card, 1, |_| false, &mut rng);
        assert_eq!(h.candidates(2).count(), 1);
        // A single present code offers no cut.
        let card = h.fill(&d, 2, &[0, 3, 6]);
        h.sample_cuts(card, 10, |_| false, &mut rng);
        assert_eq!(h.candidates(2).count(), 0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let d = xor_data();
        let mut c = cfg();
        c.min_samples_leaf = 8;
        let root = build(&d, 7, &c);
        fn check(node: &Node, msl: u32) {
            if let Node::Internal(i) = node {
                assert!(i.left.n() >= msl && i.right.n() >= msl);
                check(&i.left, msl);
                check(&i.right, msl);
            }
        }
        check(&root, 8);
    }
}
