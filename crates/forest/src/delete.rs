//! Exact unlearning: batch deletion of training instances from a tree.
//!
//! The saved statistics decide, top-down, whether each node can absorb the
//! deletion by updating counts (cheap) or whether its subtree must be
//! rebuilt from the surviving instances (rare). Decision rules mirror the
//! build rules exactly, so an unlearned tree is always a tree the builder
//! *could* have produced on the surviving data — DaRE's exactness
//! guarantee.

use fume_tabular::cast::row_u32;
use fume_tabular::rng::StdRng;
use fume_tabular::Dataset;

use crate::builder::{
    best_candidate, build_node, candidate_valid, partition_in_place, shift_candidates,
    BuildScratch, CutHistogram, GAIN_EPS,
};
use crate::config::DareConfig;
use crate::gini::gini_gain;
use crate::node::{Candidate, Internal, Node};

/// Counters describing what one deletion did to a tree (aggregated over the
/// forest by the caller). Useful for the paper's complexity discussion and
/// the ablation benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeleteReport {
    /// Decision nodes whose statistics were updated in place.
    pub nodes_updated: usize,
    /// Subtrees that had to be rebuilt.
    pub subtrees_retrained: usize,
    /// Surviving instances handed to the builder by those rebuilds: the
    /// deterministic measure of subtree-retraining work.
    pub rows_retrained: usize,
    /// Leaves whose instance lists were edited.
    pub leaves_updated: usize,
    /// Greedy nodes that replenished invalidated candidate thresholds.
    pub candidates_replenished: usize,
}

impl DeleteReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &DeleteReport) {
        self.nodes_updated += other.nodes_updated;
        self.subtrees_retrained += other.subtrees_retrained;
        self.rows_retrained += other.rows_retrained;
        self.leaves_updated += other.leaves_updated;
        self.candidates_replenished += other.candidates_replenished;
    }
}

/// Removes the sorted id set `del` (all of which must be present) from the
/// sorted-or-unsorted id list `ids`, in place.
fn subtract_sorted(ids: &mut Vec<u32>, del: &[u32]) {
    ids.retain(|id| del.binary_search(id).is_err());
}

/// Deletes `del` (sorted, deduplicated, all present under `node`) from the
/// subtree rooted at `node` which sits at `depth`.
pub(crate) fn delete_from_node(
    node: &mut Node,
    del: &[u32],
    data: &Dataset,
    depth: usize,
    rng: &mut StdRng,
    cfg: &DareConfig,
    report: &mut DeleteReport,
) {
    let scratch = BuildScratch::new(data);
    let mut pass = DeletePass { data, cfg, rng, report, survivors: Vec::new(), scratch };
    // The traversal partitions the deleted ids in place, node by node.
    pass.delete(node, &mut del.to_vec(), depth);
}

/// One top-down deletion pass over a tree.
struct DeletePass<'a> {
    data: &'a Dataset,
    cfg: &'a DareConfig,
    rng: &'a mut StdRng,
    report: &'a mut DeleteReport,
    /// Surviving ids of the subtree being retrained or replenished.
    survivors: Vec<u32>,
    /// Builder workspace, shared by retrains, replenishment, candidate
    /// updates and the per-node partition of the deleted ids.
    scratch: BuildScratch,
}

impl DeletePass<'_> {
    /// Deletes `del` from the subtree at `node`. `del` is sorted on entry;
    /// it is partitioned in place only when the recursion descends, so
    /// every decision at this node sees it sorted.
    fn delete(&mut self, node: &mut Node, del: &mut [u32], depth: usize) {
        if del.is_empty() {
            return;
        }
        let (data, cfg) = (self.data, self.cfg);
        let labels = data.labels();
        let del_pos = row_u32(del.iter().filter(|&&id| labels[id as usize]).count());

        match node {
            Node::Leaf(leaf) => {
                subtract_sorted(&mut leaf.ids, del);
                leaf.n_pos -= del_pos;
                self.report.leaves_updated += 1;
            }
            Node::Internal(internal) => {
                let new_n = internal.n - row_u32(del.len());
                let new_n_pos = internal.n_pos - del_pos;

                // The builder would now make this node a leaf: rebuild.
                if new_n < cfg.min_samples_split || new_n_pos == 0 || new_n_pos == new_n {
                    self.retrain(node, del, depth);
                    return;
                }

                internal.n = new_n;
                internal.n_pos = new_n_pos;
                self.report.nodes_updated += 1;

                let retrain = if internal.is_random {
                    random_split_invalid(internal, del, data, cfg)
                } else {
                    update_candidates(&mut internal.candidates, del, data, &mut self.scratch.hist);
                    // The chosen split must stay valid and improving; if so,
                    // resample any invalidated candidate thresholds *before*
                    // re-checking optimality (a fresh candidate may win).
                    chosen_split_dead(internal, cfg) || {
                        self.replenish_candidates(internal, del);
                        greedy_split_beaten(internal, cfg)
                    }
                };

                if retrain {
                    self.retrain(node, del, depth);
                    return;
                }

                let column = data.column(internal.attr as usize);
                let n_left =
                    partition_in_place(column, internal.threshold, del, &mut self.scratch.right);
                let (del_left, del_right) = del.split_at_mut(n_left);
                self.delete(&mut internal.left, del_left, depth + 1);
                self.delete(&mut internal.right, del_right, depth + 1);
            }
        }
    }

    /// Fills `survivors` with the ids under `subtrees`, in tree order,
    /// minus `del` (sorted).
    fn collect_survivors(&mut self, subtrees: &[&Node], del: &[u32]) {
        self.survivors.clear();
        for node in subtrees {
            node.collect_ids(&mut self.survivors);
        }
        subtract_sorted(&mut self.survivors, del);
    }

    /// Rebuilds the subtree at `node` from its surviving instances.
    fn retrain(&mut self, node: &mut Node, del: &[u32], depth: usize) {
        self.collect_survivors(&[node], del);
        self.report.rows_retrained += self.survivors.len();
        self.report.subtrees_retrained += 1;
        let Self { data, cfg, rng, survivors, scratch, .. } = self;
        *node = build_node(data, survivors, depth, rng, cfg, scratch);
    }

    /// Replaces cached candidates that stopped separating the node's data
    /// with freshly sampled thresholds from the surviving instances,
    /// keeping the candidate pool full for future deletions (the
    /// `O(|D| log |D|)` threshold-resampling step of the DaRE paper).
    ///
    /// Each attribute that lost candidates, in order of its first loss,
    /// resamples as many cuts as it lost, excluding the thresholds it still
    /// holds; the fresh candidates follow the surviving ones in the pool.
    fn replenish_candidates(&mut self, internal: &mut Internal, del: &[u32]) {
        let (data, cfg) = (self.data, self.cfg);
        let n = internal.n;
        let valid = |c: &Candidate| candidate_valid(c, n, cfg);
        if internal.candidates.iter().all(valid) {
            return;
        }
        self.report.candidates_replenished += 1;

        // Identify the chosen candidate before the pool is restructured.
        let chosen_key = {
            let c = &internal.candidates[internal.chosen as usize];
            (c.attr, c.threshold)
        };

        // The surviving instances of this node, needed for fresh histograms.
        self.collect_survivors(&[&internal.left, &internal.right], del);

        let pool = internal.candidates.len();
        for i in 0..pool {
            let attr = internal.candidates[i].attr;
            let lost = |c: &Candidate| c.attr == attr && !valid(c);
            if !lost(&internal.candidates[i]) || internal.candidates[..i].iter().any(lost) {
                continue; // not a loss, or this attribute was already resampled
            }
            let k = internal.candidates[..pool].iter().filter(|c| lost(c)).count();
            let hist = &mut self.scratch.hist;
            let card = hist.fill(data, attr, &self.survivors);
            let held = &internal.candidates;
            let holds =
                |t: u16| held.iter().any(|c| c.attr == attr && c.threshold == t && valid(c));
            hist.sample_cuts(card, k, holds, self.rng);
            internal.candidates.extend(hist.candidates(attr).filter(valid));
        }
        internal.candidates.retain(valid);

        // Re-locate the chosen candidate after the reshuffle.
        let chosen_pos = internal
            .candidates
            .iter()
            .position(|c| (c.attr, c.threshold) == chosen_key)
            // fume-lint: allow(F001) -- replenish invariant: the chosen candidate passed candidate_valid above, so the retain/extend pass cannot have dropped it
            .expect("chosen candidate is valid and therefore retained");
        internal.chosen = row_u32(chosen_pos);
    }
}

/// A random node must be redrawn when the deletion empties one side (its
/// threshold fell outside the surviving code range) or violates the
/// leaf-size minimum the builder honored.
fn random_split_invalid(
    internal: &Internal,
    del: &[u32],
    data: &Dataset,
    cfg: &DareConfig,
) -> bool {
    let column = data.column(internal.attr as usize);
    let goes_left = |id: &&u32| column[**id as usize] <= internal.threshold;
    let del_left = row_u32(del.iter().filter(goes_left).count());
    let left_n = internal.left.n() - del_left;
    let right_n = internal.right.n() - (row_u32(del.len()) - del_left);
    left_n < cfg.min_samples_leaf.max(1) || right_n < cfg.min_samples_leaf.max(1)
}

/// Incrementally updates every cached candidate's statistics for the
/// deletion of `del`, one label histogram of `del` per distinct attribute.
fn update_candidates(
    candidates: &mut [Candidate],
    del: &[u32],
    data: &Dataset,
    hist: &mut CutHistogram,
) {
    shift_candidates(candidates, del, data, hist, |c, dn, dpos| {
        c.n_left -= dn;
        c.n_left_pos -= dpos;
    });
}

/// Whether the chosen split stopped being a split the builder could have
/// made: it no longer separates the node's data within the leaf-size
/// minimum. (Zero-gain splits are legal at build time, so gain alone never
/// kills a split — only being strictly beaten does, see
/// [`greedy_split_beaten`].)
fn chosen_split_dead(internal: &Internal, cfg: &DareConfig) -> bool {
    let chosen = &internal.candidates[internal.chosen as usize];
    !candidate_valid(chosen, internal.n, cfg)
}

/// After replenishment, the node must be rebuilt when some other cached
/// candidate now has a *strictly* better Gini gain (the paper's "improved
/// splitting criterion"). Ties never retrain — the builder's earliest-max
/// tie-break keeps the choice stable.
fn greedy_split_beaten(internal: &Internal, cfg: &DareConfig) -> bool {
    let chosen = &internal.candidates[internal.chosen as usize];
    let chosen_gain = gini_gain(internal.n, internal.n_pos, chosen.n_left, chosen.n_left_pos);
    match best_candidate(&internal.candidates, internal.n, internal.n_pos, cfg) {
        None => true,
        Some(best) => {
            let b = &internal.candidates[best];
            let best_gain = gini_gain(internal.n, internal.n_pos, b.n_left, b.n_left_pos);
            best_gain > chosen_gain + GAIN_EPS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MaxFeatures;
    use fume_tabular::{Attribute, Schema};
    use fume_tabular::rng::SeedableRng;
    use std::sync::Arc;

    fn data() -> Dataset {
        let schema = Arc::new(
            Schema::with_default_label(vec![
                Attribute::categorical("a", vec!["0".into(), "1".into(), "2".into()]),
                Attribute::categorical("b", vec!["0".into(), "1".into()]),
            ])
            .unwrap(),
        );
        let mut cols = vec![Vec::new(), Vec::new()];
        let mut labels = Vec::new();
        for i in 0..90usize {
            let a = (i % 3) as u16;
            let b = ((i / 3) % 2) as u16;
            cols[0].push(a);
            cols[1].push(b);
            // labels depend on a: a==2 mostly positive.
            labels.push(a == 2 || (a == 1 && i % 5 == 0));
        }
        Dataset::new(schema, cols, labels).unwrap()
    }

    fn cfg() -> DareConfig {
        DareConfig {
            random_depth: 0,
            max_features: MaxFeatures::All,
            max_depth: 6,
            ..DareConfig::default()
        }
    }

    fn build(d: &Dataset, rng: &mut StdRng, cfg: &DareConfig) -> Node {
        build_node(d, &mut d.all_row_ids(), 0, rng, cfg, &mut BuildScratch::new(d))
    }

    fn validate(node: &Node, data: &Dataset, cfg: &DareConfig) {
        if let Node::Internal(i) = node {
            assert_eq!(i.n, i.left.n() + i.right.n(), "n consistency");
            assert_eq!(i.n_pos, i.left.n_pos() + i.right.n_pos(), "n_pos consistency");
            let mut left_ids = Vec::new();
            i.left.collect_ids(&mut left_ids);
            for id in left_ids {
                assert!(data.code(id as usize, i.attr as usize) <= i.threshold);
            }
            if !i.is_random {
                for c in &i.candidates {
                    let mut ids = Vec::new();
                    node.collect_ids(&mut ids);
                    let col = data.column(c.attr as usize);
                    let n_left = ids.iter().filter(|&&id| col[id as usize] <= c.threshold).count();
                    assert_eq!(c.n_left as usize, n_left, "candidate n_left stale");
                    assert!(candidate_valid(c, i.n, cfg), "invalid candidate retained");
                }
            }
            validate(&i.left, data, cfg);
            validate(&i.right, data, cfg);
        }
    }

    #[test]
    fn delete_keeps_statistics_exact() {
        let d = data();
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(10);
        let mut root = build(&d, &mut rng, &cfg);
        let mut report = DeleteReport::default();
        // Delete a batch spread across the space.
        let del: Vec<u32> = vec![0, 7, 14, 21, 28, 35, 42];
        delete_from_node(&mut root, &del, &d, 0, &mut rng, &cfg, &mut report);
        assert_eq!(root.n() as usize, d.num_rows() - del.len());
        validate(&root, &d, &cfg);
        let mut ids = Vec::new();
        root.collect_ids(&mut ids);
        for id in &del {
            assert!(!ids.contains(id), "deleted id {id} survives");
        }
    }

    #[test]
    fn delete_everything_leaves_empty_leaf() {
        let d = data();
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(11);
        let mut root = build(&d, &mut rng, &cfg);
        let mut report = DeleteReport::default();
        delete_from_node(&mut root, &d.all_row_ids(), &d, 0, &mut rng, &cfg, &mut report);
        assert_eq!(root.n(), 0);
        assert!(matches!(root, Node::Leaf(_)));
        assert!(report.subtrees_retrained >= 1);
    }

    #[test]
    fn delete_one_class_collapses_to_pure_leaf() {
        let d = data();
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(12);
        let mut root = build(&d, &mut rng, &cfg);
        let positives: Vec<u32> = (0..d.num_rows() as u32)
            .filter(|&r| d.label(r as usize))
            .collect();
        let mut report = DeleteReport::default();
        delete_from_node(&mut root, &positives, &d, 0, &mut rng, &cfg, &mut report);
        assert!(matches!(root, Node::Leaf(_)), "pure data must collapse to a leaf");
        assert_eq!(root.n_pos(), 0);
        validate(&root, &d, &cfg);
    }

    #[test]
    fn sequential_deletions_stay_consistent() {
        let d = data();
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(13);
        let mut root = build(&d, &mut rng, &cfg);
        let mut remaining: Vec<u32> = d.all_row_ids();
        let mut report = DeleteReport::default();
        for step in 0..30 {
            let victim = remaining.remove((step * 7) % remaining.len());
            delete_from_node(&mut root, &[victim], &d, 0, &mut rng, &cfg, &mut report);
            assert_eq!(root.n() as usize, remaining.len(), "step {step}");
            validate(&root, &d, &cfg);
        }
    }

    #[test]
    fn random_node_redrawn_when_side_empties() {
        let d = data();
        let mut cfg = cfg();
        cfg.random_depth = 1;
        let mut rng = StdRng::seed_from_u64(14);
        let mut root = build(&d, &mut rng, &cfg);
        let (attr, thr) = match &root {
            Node::Internal(i) => {
                assert!(i.is_random);
                (i.attr, i.threshold)
            }
            _ => panic!("expected internal root"),
        };
        // Delete the entire left side of the random root.
        let left_ids: Vec<u32> = (0..d.num_rows() as u32)
            .filter(|&r| d.code(r as usize, attr as usize) <= thr)
            .collect();
        let mut report = DeleteReport::default();
        delete_from_node(&mut root, &left_ids, &d, 0, &mut rng, &cfg, &mut report);
        assert!(report.subtrees_retrained >= 1);
        validate(&root, &d, &cfg);
        assert_eq!(root.n() as usize, d.num_rows() - left_ids.len());
    }

    #[test]
    fn subtract_sorted_removes_only_targets() {
        let mut ids = vec![5, 1, 9, 3, 7];
        subtract_sorted(&mut ids, &[3, 9]);
        assert_eq!(ids, vec![5, 1, 7]);
    }

    /// A dataset of `cards.len()` random attributes with the given
    /// cardinalities and random labels.
    fn random_data(rows: usize, cards: &[u16], rng: &mut StdRng) -> Dataset {
        use fume_tabular::rng::Rng;
        let attrs = cards
            .iter()
            .enumerate()
            .map(|(a, &card)| {
                Attribute::categorical(format!("a{a}"), (0..card).map(|c| c.to_string()).collect())
            })
            .collect();
        let schema = Arc::new(Schema::with_default_label(attrs).unwrap());
        let cols = cards
            .iter()
            .map(|&card| (0..rows).map(|_| rng.gen_range(0..card)).collect())
            .collect();
        let labels = (0..rows).map(|_| rng.gen_range(0..2u32) == 1).collect();
        Dataset::new(schema, cols, labels).unwrap()
    }

    #[test]
    fn histogram_update_matches_the_naive_scan() {
        use fume_tabular::rng::Rng;
        let mut rng = StdRng::seed_from_u64(31);
        let cards = [2u16, 3, 5, 9, 1];
        let d = random_data(400, &cards, &mut rng);
        let mut hist = BuildScratch::new(&d).hist;
        let left_of = |ids: &[u32], attr: u16, threshold: u16| {
            let col = d.column(attr as usize);
            let left = ids.iter().filter(|&&id| col[id as usize] <= threshold);
            let n_pos = left.clone().filter(|&&id| d.label(id as usize)).count();
            (row_u32(left.count()), row_u32(n_pos))
        };
        for round in 0..200 {
            // A random node and a random deletion from it.
            let node: Vec<u32> = (0..400).filter(|_| rng.gen_range(0..3u32) > 0).collect();
            let del: Vec<u32> =
                node.iter().copied().filter(|_| rng.gen_range(0..4u32) == 0).collect();
            // A random pool: attributes in any order, as replenishment
            // appends them, with repeated attributes and thresholds.
            let pool: Vec<Candidate> = (0..rng.gen_range(0..14usize))
                .map(|_| {
                    let attr = rng.gen_range(0..cards.len() as u16);
                    let threshold = rng.gen_range(0..cards[attr as usize]);
                    let (n_left, n_left_pos) = left_of(&node, attr, threshold);
                    Candidate { attr, threshold, n_left, n_left_pos }
                })
                .collect();
            let mut naive = pool.clone();
            for c in &mut naive {
                let (dn, dpos) = left_of(&del, c.attr, c.threshold);
                c.n_left -= dn;
                c.n_left_pos -= dpos;
            }
            let mut fast = pool;
            update_candidates(&mut fast, &del, &d, &mut hist);
            assert_eq!(fast, naive, "round {round}");
        }
    }

    #[test]
    fn replenished_pools_append_out_of_attribute_order_and_stay_exact() {
        let mut rng = StdRng::seed_from_u64(15);
        let d = random_data(300, &[4, 6, 9, 3], &mut rng);
        let cfg = DareConfig { min_samples_leaf: 4, min_samples_split: 8, ..cfg() };
        let mut root = build(&d, &mut rng, &cfg);
        let mut report = DeleteReport::default();
        let mut remaining: Vec<u32> = d.all_row_ids();
        fn out_of_order(node: &Node) -> bool {
            match node {
                Node::Leaf(_) => false,
                Node::Internal(i) => {
                    i.candidates.windows(2).any(|w| w[0].attr > w[1].attr)
                        || out_of_order(&i.left)
                        || out_of_order(&i.right)
                }
            }
        }
        let mut seen = false;
        for step in 0..40 {
            let mut batch: Vec<u32> =
                (0..5).map(|k| remaining.remove((step * 11 + k) % remaining.len())).collect();
            batch.sort_unstable();
            delete_from_node(&mut root, &batch, &d, 0, &mut rng, &cfg, &mut report);
            validate(&root, &d, &cfg);
            seen |= out_of_order(&root);
        }
        assert!(report.candidates_replenished > 0);
        assert!(seen, "no replenishment appended a candidate out of attribute order");
    }
}
