//! The quadratic split search, kept as the oracle the presorted
//! running-statistics search must equal bit for bit, and the random
//! datasets the oracle tests run on.
//!
//! `grow` re-sorts the node's rows by every candidate feature and scores
//! each threshold by recomputing both sides' [`impurity`]: O(n²) per
//! feature per node. Node rows are kept in ascending index order, and
//! children are split off with an order-preserving partition.

use super::{impurity, leaf_value, DecisionTree, Node, RegressionTree, Task, TreeConfig};
use crate::data::Dataset;
use lori_core::Rng;

/// The best `(feature, threshold, weighted impurity)`, found by the
/// quadratic scan.
pub(crate) fn quadratic_best_split(
    ds: &Dataset,
    idx: &[usize],
    task: Task,
) -> Option<(usize, f64, f64)> {
    #[allow(clippy::cast_precision_loss)]
    let n = idx.len() as f64;
    let mut best: Option<(usize, f64, f64)> = None;
    for f in 0..ds.n_features() {
        let mut sorted: Vec<usize> = idx.to_vec();
        sorted.sort_by(|&a, &b| {
            ds.features()[a][f]
                .partial_cmp(&ds.features()[b][f])
                .expect("NaN feature")
        });
        for w in 1..sorted.len() {
            let lo = ds.features()[sorted[w - 1]][f];
            let hi = ds.features()[sorted[w]][f];
            if hi - lo < 1e-12 {
                continue;
            }
            let threshold = (lo + hi) / 2.0;
            let (left, right) = (&sorted[..w], &sorted[w..]);
            #[allow(clippy::cast_precision_loss)]
            let weighted = (left.len() as f64 * impurity(ds.targets(), left, task)
                + right.len() as f64 * impurity(ds.targets(), right, task))
                / n;
            if best.as_ref().is_none_or(|&(_, _, b)| weighted < b) {
                best = Some((f, threshold, weighted));
            }
        }
    }
    best
}

fn grow(ds: &Dataset, idx: &[usize], task: Task, config: &TreeConfig, depth: usize) -> Node {
    let parent_imp = impurity(ds.targets(), idx, task);
    if depth >= config.max_depth || idx.len() < config.min_samples_split || parent_imp < 1e-12 {
        return Node::Leaf {
            value: leaf_value(ds.targets(), idx, task),
        };
    }
    match quadratic_best_split(ds, idx, task) {
        Some((feature, threshold, weighted)) if weighted < parent_imp - 1e-12 => {
            let (li, ri): (Vec<usize>, Vec<usize>) = idx
                .iter()
                .partition(|&&i| ds.features()[i][feature] <= threshold);
            Node::Split {
                feature,
                threshold,
                left: Box::new(grow(ds, &li, task, config, depth + 1)),
                right: Box::new(grow(ds, &ri, task, config, depth + 1)),
            }
        }
        _ => Node::Leaf {
            value: leaf_value(ds.targets(), idx, task),
        },
    }
}

impl DecisionTree {
    /// [`DecisionTree::fit`] grown by the quadratic scan.
    pub(crate) fn fit_quadratic(ds: &Dataset, config: &TreeConfig) -> Self {
        let n_classes = ds.n_classes();
        let idx: Vec<usize> = (0..ds.len()).collect();
        DecisionTree {
            root: grow(ds, &idx, Task::Classify { n_classes }, config, 0),
            n_classes,
            n_features: ds.n_features(),
        }
    }

    /// Every split and leaf of the tree as bit patterns, in pre-order.
    pub(crate) fn fingerprint(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.root.fingerprint(&mut out);
        out
    }
}

impl RegressionTree {
    /// [`RegressionTree::fit`] grown by the quadratic scan.
    pub(crate) fn fit_quadratic(ds: &Dataset, config: &TreeConfig) -> Self {
        let idx: Vec<usize> = (0..ds.len()).collect();
        RegressionTree {
            root: grow(ds, &idx, Task::Regress, config, 0),
            n_features: ds.n_features(),
        }
    }

    /// Every split and leaf of the tree as bit patterns, in pre-order.
    pub(crate) fn fingerprint(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.root.fingerprint(&mut out);
        out
    }
}

impl Node {
    fn fingerprint(&self, out: &mut Vec<u64>) {
        match self {
            Node::Leaf { value } => {
                out.push(u64::MAX);
                out.extend(value.iter().map(|v| v.to_bits()));
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                out.push(*feature as u64);
                out.push(threshold.to_bits());
                left.fingerprint(out);
                right.fingerprint(out);
            }
        }
    }
}

/// A small random dataset that stresses tie order and rounding. Feature
/// columns are continuous, few-valued (ties), constant, drawn from
/// `{-1, -0.0, 0.0, 1, ±inf}`, or quarter-steps jittered below the 1e-12
/// tie threshold; a third of the datasets repeat some rows, and `n` goes down
/// to 2. With `classes == 0` the targets are regression targets, offset
/// by 0, ±1e6 or 1e12 from a spread of 1e-3, 1 or 1e3; otherwise they are
/// classes `0..classes`, each present.
pub(crate) fn random_dataset(rng: &mut Rng, classes: usize) -> Dataset {
    #[allow(clippy::cast_possible_truncation)]
    let n = match rng.below(6) {
        0 => 2,
        1 => 3 + rng.below(3) as usize,
        _ => 6 + rng.below(55) as usize,
    };
    #[allow(clippy::cast_possible_truncation)]
    let d = 1 + rng.below(4) as usize;
    let kinds: Vec<u64> = (0..d).map(|_| rng.below(5)).collect();
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            kinds
                .iter()
                .map(|&kind| match kind {
                    0 => rng.uniform_in(-3.0, 3.0),
                    #[allow(clippy::cast_precision_loss)]
                    1 => rng.below(4) as f64 * 0.5,
                    2 => 1.25,
                    3 => *rng
                        .choose(&[-1.0, -0.0, 0.0, 1.0, f64::INFINITY, f64::NEG_INFINITY])
                        .expect("non-empty"),
                    _ => (rng.uniform_in(0.0, 3.0) * 4.0).round() / 4.0 + 1e-13 * rng.uniform(),
                })
                .collect()
        })
        .collect();
    let mut ys: Vec<f64> = if classes == 0 {
        let offset = *rng.choose(&[0.0, 1e6, -1e6, 1e12]).expect("non-empty");
        let spread = *rng.choose(&[1e-3, 1.0, 1e3]).expect("non-empty");
        let rounded = rng.bernoulli(0.2);
        rows.iter()
            .map(|r| {
                let (a, b) = (r[0].clamp(-3.0, 3.0), r[d - 1].clamp(-3.0, 3.0));
                let v = (a * 1.3).sin() * 2.0 + b + rng.normal_with(0.0, 0.3);
                offset + spread * if rounded { v.round() } else { v }
            })
            .collect()
    } else {
        rows.iter()
            .map(|r| {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let c = ((r[0].clamp(-3.0, 3.0) + 3.0) * 1.7) as u64 + rng.below(2);
                #[allow(clippy::cast_precision_loss)]
                let c = (c % classes as u64) as f64;
                c
            })
            .collect()
    };
    if classes > 0 {
        // Every class present, so the classification fits accept it.
        for (c, y) in ys.iter_mut().enumerate().take(classes.min(n)) {
            #[allow(clippy::cast_precision_loss)]
            let class = c as f64;
            *y = class;
        }
    }
    if rng.bernoulli(0.33) {
        for _ in 0..n / 3 {
            #[allow(clippy::cast_possible_truncation)]
            let (to, from) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
            if to >= classes {
                rows[to] = rows[from].clone();
                ys[to] = ys[from];
            }
        }
    }
    Dataset::from_rows(rows, ys).expect("well-formed rows")
}
