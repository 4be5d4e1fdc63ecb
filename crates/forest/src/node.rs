//! Tree node structures with the cached statistics that make exact
//! unlearning possible.
//!
//! DaRE trees store, at every node, the counts needed to re-evaluate
//! split decisions without touching the training data:
//! * decision nodes: `n`, `n_pos`, and for every cached candidate split
//!   the pair `(n_left, n_left_pos)`;
//! * leaves: the list of training-instance ids plus the positive count.
//!
//! Splits are of the form `code(attr) <= threshold → left`.

use fume_tabular::cast::row_u32;
use fume_tabular::Dataset;

/// A cached candidate split with its sufficient statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Attribute index.
    pub attr: u16,
    /// Split threshold: codes `<= threshold` go left.
    pub threshold: u16,
    /// Number of node instances on the left side.
    pub n_left: u32,
    /// Number of positive node instances on the left side.
    pub n_left_pos: u32,
}

/// A leaf: the instances it holds and their positive count.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaf {
    /// Training-instance ids contained in this leaf.
    pub ids: Vec<u32>,
    /// Number of those with a positive label.
    pub n_pos: u32,
}

impl Leaf {
    /// Probability of the positive class in this leaf; an empty leaf is
    /// maximally uncertain (0.5).
    #[inline]
    pub fn proba(&self) -> f64 {
        if self.ids.is_empty() {
            0.5
        } else {
            self.n_pos as f64 / self.ids.len() as f64
        }
    }
}

/// An internal decision node.
#[derive(Debug, Clone, PartialEq)]
pub struct Internal {
    /// Splitting attribute.
    pub attr: u16,
    /// Codes `<= threshold` go to `left`.
    pub threshold: u16,
    /// Whether this is one of the tree's random upper-layer nodes
    /// (chosen uniformly, no cached candidates, rarely retrained).
    pub is_random: bool,
    /// Instances under this node.
    pub n: u32,
    /// Positive instances under this node.
    pub n_pos: u32,
    /// Cached candidate splits (greedy nodes only; empty for random nodes).
    pub candidates: Vec<Candidate>,
    /// Index into `candidates` of the currently chosen split
    /// (greedy nodes only).
    pub chosen: u32,
    /// Left child (`code <= threshold`).
    pub left: Node,
    /// Right child.
    pub right: Node,
}

/// A tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A leaf node.
    Leaf(Leaf),
    /// An internal decision node.
    Internal(Box<Internal>),
}

impl Node {
    /// Instances under this node.
    pub fn n(&self) -> u32 {
        match self {
            Node::Leaf(l) => row_u32(l.ids.len()),
            Node::Internal(i) => i.n,
        }
    }

    /// Positive instances under this node.
    pub fn n_pos(&self) -> u32 {
        match self {
            Node::Leaf(l) => l.n_pos,
            Node::Internal(i) => i.n_pos,
        }
    }

    /// Collects all training-instance ids under this node (ascending order
    /// is *not* guaranteed).
    pub fn collect_ids(&self, out: &mut Vec<u32>) {
        match self {
            Node::Leaf(l) => out.extend_from_slice(&l.ids),
            Node::Internal(i) => {
                i.left.collect_ids(out);
                i.right.collect_ids(out);
            }
        }
    }

    /// Walks to the leaf for `row` of `data` and returns its positive-class
    /// probability.
    pub fn predict_row(&self, data: &Dataset, row: usize) -> f64 {
        let mut node = self;
        loop {
            match node {
                Node::Leaf(l) => return l.proba(),
                Node::Internal(i) => {
                    node = if data.code(row, i.attr as usize) <= i.threshold {
                        &i.left
                    } else {
                        &i.right
                    };
                }
            }
        }
    }

    /// Number of nodes in this subtree (internal + leaves).
    pub fn size(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Internal(i) => 1 + i.left.size() + i.right.size(),
        }
    }

    /// Depth of this subtree (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        match self {
            Node::Leaf(_) => 0,
            Node::Internal(i) => 1 + i.left.depth().max(i.right.depth()),
        }
    }

    /// Number of leaves in this subtree.
    pub fn num_leaves(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Internal(i) => i.left.num_leaves() + i.right.num_leaves(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_tree() -> Node {
        // split on attr 0 at threshold 0: code 0 → left leaf, 1.. → right.
        Node::Internal(Box::new(Internal {
            attr: 0,
            threshold: 0,
            is_random: false,
            n: 5,
            n_pos: 3,
            candidates: vec![Candidate { attr: 0, threshold: 0, n_left: 2, n_left_pos: 0 }],
            chosen: 0,
            left: Node::Leaf(Leaf { ids: vec![0, 3], n_pos: 0 }),
            right: Node::Leaf(Leaf { ids: vec![1, 2, 4], n_pos: 3 }),
        }))
    }

    #[test]
    fn structural_accessors() {
        let t = tiny_tree();
        assert_eq!(t.n(), 5);
        assert_eq!(t.n_pos(), 3);
        assert_eq!(t.size(), 3);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.num_leaves(), 2);
        let mut ids = Vec::new();
        t.collect_ids(&mut ids);
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn leaf_probability() {
        assert_eq!(Leaf { ids: vec![], n_pos: 0 }.proba(), 0.5);
        assert_eq!(Leaf { ids: vec![1, 2], n_pos: 2 }.proba(), 1.0);
        assert_eq!(Leaf { ids: vec![1, 2, 3, 4], n_pos: 1 }.proba(), 0.25);
    }

    #[test]
    fn prediction_routes_by_threshold() {
        use fume_tabular::{Attribute, Schema};
        use std::sync::Arc;
        let schema = Arc::new(
            Schema::with_default_label(vec![Attribute::categorical(
                "x",
                vec!["a".into(), "b".into()],
            )])
            .unwrap(),
        );
        let data =
            Dataset::new(schema, vec![vec![0, 1]], vec![false, true]).unwrap();
        let t = tiny_tree();
        assert_eq!(t.predict_row(&data, 0), 0.0); // goes left
        assert_eq!(t.predict_row(&data, 1), 1.0); // goes right
    }
}
