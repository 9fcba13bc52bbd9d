//! CART decision trees (classification with Gini impurity, regression with
//! variance reduction).
//!
//! Decision trees are the workhorse of the error-pattern mining approaches
//! surveyed in Sec. III-B.2 (gradient-boosted trees on HPC error traces).
//!
//! A fit sorts every feature once ([`Presort`]) and grows the tree by
//! stable-partitioning those orders in place, so each node sees its rows in
//! ascending feature order with ties in row order, as a per-node stable
//! sort would give. Each feature's thresholds are then scored in one pass
//! from running statistics: class counts for Gini, which are exact, and
//! shifted sums for variance, where every threshold whose score lies within
//! a derived rounding-error margin of the best is re-scored with the
//! two-pass [`impurity`]. The chosen splits are bit-identical to
//! recomputing both sides' impurity at every threshold (DESIGN.md §14);
//! that quadratic scan survives as the test oracle in `tree/oracle.rs`.

use crate::data::Dataset;
use crate::error::MlError;
use crate::traits::{Classifier, ProbabilisticClassifier, Regressor};

#[cfg(test)]
pub(crate) mod oracle;

/// Configuration for tree growth.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0). 0 means a single leaf.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 2,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        /// Class-probability vector (classification) or `[mean]` (regression).
        value: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn lookup(&self, x: &[f64]) -> &[f64] {
        match self {
            Node::Leaf { value } => value,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if x[*feature] <= *threshold {
                    left.lookup(x)
                } else {
                    right.lookup(x)
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    fn leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => left.leaves() + right.leaves(),
        }
    }
}

/// Task determines the split criterion and leaf value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Task {
    Classify { n_classes: usize },
    Regress,
}

/// A fitted CART decision-tree classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
    n_classes: usize,
    n_features: usize,
}

impl DecisionTree {
    /// Grows a classification tree.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::SingleClass`] if only one class is present (grow a
    /// stump on purpose? a constant prediction needs no tree),
    /// [`MlError::InvalidHyperparameter`] for a zero `min_samples_split`, or
    /// [`MlError::Numerical`] if a feature value is NaN.
    pub fn fit(ds: &Dataset, config: &TreeConfig) -> Result<Self, MlError> {
        let _span = lori_obs::span("ml.tree.fit");
        if config.min_samples_split < 2 {
            return Err(MlError::InvalidHyperparameter("min_samples_split"));
        }
        let n_classes = ds.n_classes();
        if n_classes < 2 {
            return Err(MlError::SingleClass);
        }
        let mut buffers = TreeBuffers {
            order: Presort::new(ds.features())?.order,
            ..TreeBuffers::default()
        };
        let task = Task::Classify { n_classes };
        let root = buffers.grow_tree(ds.features(), ds.targets(), task, config);
        Ok(DecisionTree {
            root,
            n_classes,
            n_features: ds.n_features(),
        })
    }

    /// Maximum depth of the grown tree.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Number of leaves of the grown tree.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.root.leaves()
    }
}

impl Classifier for DecisionTree {
    fn predict(&self, x: &[f64]) -> usize {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        argmax(self.root.lookup(x))
    }
}

impl ProbabilisticClassifier for DecisionTree {
    fn scores(&self, x: &[f64]) -> Vec<f64> {
        self.root.lookup(x).to_vec()
    }
}

/// A fitted CART regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    root: Node,
    n_features: usize,
}

impl RegressionTree {
    /// Grows a regression tree minimizing within-leaf variance.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for a `min_samples_split`
    /// below two, or [`MlError::Numerical`] if a feature value is NaN.
    pub fn fit(ds: &Dataset, config: &TreeConfig) -> Result<Self, MlError> {
        let _span = lori_obs::span("ml.tree.fit");
        if config.min_samples_split < 2 {
            return Err(MlError::InvalidHyperparameter("min_samples_split"));
        }
        let mut buffers = TreeBuffers {
            order: Presort::new(ds.features())?.order,
            ..TreeBuffers::default()
        };
        let root = buffers.grow_tree(ds.features(), ds.targets(), Task::Regress, config);
        Ok(RegressionTree {
            root,
            n_features: ds.n_features(),
        })
    }

    /// Grows one boosting stage: a regression tree on `targets` (the
    /// stage's residuals) over a presort of `features` that every stage of
    /// the fit shares. Opens no span; the boosted fit's span covers it.
    pub(crate) fn fit_presorted(
        features: &[Vec<f64>],
        targets: &[f64],
        config: &TreeConfig,
        presort: &Presort,
        buffers: &mut TreeBuffers,
    ) -> Self {
        debug_assert!(config.min_samples_split >= 2);
        buffers.order.clear();
        buffers.order.extend_from_slice(&presort.order);
        let root = buffers.grow_tree(features, targets, Task::Regress, config);
        RegressionTree {
            root,
            n_features: features.first().map_or(0, Vec::len),
        }
    }

    /// Maximum depth of the grown tree.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.root.depth()
    }
}

impl Regressor for RegressionTree {
    fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        self.root.lookup(x)[0]
    }
}

/// Every feature's row order, sorted once per fit and shared by everything
/// grown on the same rows: each tree, every stage of a boosted fit and
/// every AdaBoost round.
#[derive(Debug)]
pub(crate) struct Presort {
    /// `d + 1` slots of `n` row indices. Slot `f < d` holds the rows in
    /// ascending order of feature `f`, ties in row order; slot `d` holds
    /// the rows in index order.
    order: Vec<usize>,
    n: usize,
}

impl Presort {
    /// Sorts every feature with a stable sort under `partial_cmp`, the
    /// order the per-node sort of the quadratic scan produced. `total_cmp`
    /// would not do: it puts `-0.0` before `0.0`, where the stable sort
    /// keeps row order, and that changes every impurity's summation order.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Numerical`] if a feature value is NaN.
    pub(crate) fn new(features: &[Vec<f64>]) -> Result<Self, MlError> {
        reject_nan_features(features)?;
        let n = features.len();
        let d = features.first().map_or(0, Vec::len);
        let mut order = Vec::with_capacity((d + 1) * n);
        for f in 0..=d {
            order.extend(0..n);
            if f < d {
                order[f * n..].sort_by(|&a, &b| {
                    features[a][f]
                        .partial_cmp(&features[b][f])
                        .expect("NaN features are rejected above")
                });
            }
        }
        Ok(Presort { order, n })
    }

    /// The rows in ascending order of feature `f`.
    pub(crate) fn feature(&self, f: usize) -> &[usize] {
        &self.order[f * self.n..(f + 1) * self.n]
    }
}

/// Rejects NaN feature values, which have no place in a sorted order.
///
/// # Errors
///
/// Returns [`MlError::Numerical`] if a feature value is NaN.
pub(crate) fn reject_nan_features(features: &[Vec<f64>]) -> Result<(), MlError> {
    if features.iter().flatten().any(|x| x.is_nan()) {
        return Err(MlError::Numerical("NaN feature"));
    }
    Ok(())
}

/// Working memory for growing trees over one [`Presort`]. A boosted fit
/// keeps one for all its stages; growing a node allocates only the node.
#[derive(Debug, Default)]
pub(crate) struct TreeBuffers {
    /// The presort, stable-partitioned in place as the tree grows: a node
    /// owns the same range of every slot.
    order: Vec<usize>,
    /// The rows bound right while one slot's range is partitioned.
    scratch: Vec<usize>,
    /// Per row, whether the split being applied sends it left.
    goes_left: Vec<bool>,
    /// Per row, its class (classification only).
    classes: Vec<usize>,
    /// Class counts of the node, of the left side and of the right side.
    node_counts: Vec<f64>,
    left_counts: Vec<f64>,
    right_counts: Vec<f64>,
    /// Regression thresholds kept for exact re-scoring, in scan order.
    candidates: Vec<Candidate>,
}

impl TreeBuffers {
    /// Grows a tree on `targets`; `self.order` must hold a presort of all
    /// rows of `features`.
    fn grow_tree(
        &mut self,
        features: &[Vec<f64>],
        targets: &[f64],
        task: Task,
        config: &TreeConfig,
    ) -> Node {
        self.prepare(features, targets, task);
        Grower {
            features,
            targets,
            task,
            config,
            buf: self,
        }
        .grow(0, features.len(), 0)
    }

    /// Sizes the per-row and per-class buffers for one tree.
    fn prepare(&mut self, features: &[Vec<f64>], targets: &[f64], task: Task) {
        let n = features.len();
        debug_assert_eq!(
            self.order.len(),
            (features.first().map_or(0, Vec::len) + 1) * n
        );
        self.goes_left.resize(n, false);
        self.scratch.reserve(n);
        if let Task::Classify { n_classes } = task {
            self.classes.clear();
            self.classes.extend(targets.iter().map(|&y| class_of(y)));
            for counts in [
                &mut self.node_counts,
                &mut self.left_counts,
                &mut self.right_counts,
            ] {
                counts.clear();
                counts.resize(n_classes, 0.0);
            }
        }
    }
}

/// The best threshold of a node and its size-weighted impurity.
#[derive(Debug, Clone, Copy)]
struct Split {
    feature: usize,
    threshold: f64,
    score: f64,
}

/// A regression threshold kept for exact re-scoring.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    feature: usize,
    /// Rows on the left, a prefix of the node's range in the feature's order.
    n_left: usize,
    threshold: f64,
    /// The running-statistics score; `-inf` forces a re-score.
    approx: f64,
}

/// Grows one tree over a partitioned presort. A node is a range `lo..hi`
/// shared by every slot of `buf.order`.
struct Grower<'a> {
    features: &'a [Vec<f64>],
    targets: &'a [f64],
    task: Task,
    config: &'a TreeConfig,
    buf: &'a mut TreeBuffers,
}

impl Grower<'_> {
    fn n(&self) -> usize {
        self.features.len()
    }

    fn d(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// The rows of node `lo..hi` in index order.
    fn rows(&self, lo: usize, hi: usize) -> &[usize] {
        let base = self.d() * self.n();
        &self.buf.order[base + lo..base + hi]
    }

    fn leaf(&self, lo: usize, hi: usize) -> Node {
        Node::Leaf {
            value: leaf_value(self.targets, self.rows(lo, hi), self.task),
        }
    }

    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> Node {
        let parent_imp = impurity(self.targets, self.rows(lo, hi), self.task);
        if depth >= self.config.max_depth
            || hi - lo < self.config.min_samples_split
            || parent_imp < 1e-12
        {
            return self.leaf(lo, hi);
        }
        let best = match self.task {
            Task::Classify { .. } => self.best_gini_split(lo, hi),
            Task::Regress => self.best_variance_split(lo, hi),
        };
        match best {
            Some(split) if split.score < parent_imp - 1e-12 => {
                let mid = self.partition(lo, hi, split.feature, split.threshold);
                Node::Split {
                    feature: split.feature,
                    threshold: split.threshold,
                    left: Box::new(self.grow(lo, mid, depth + 1)),
                    right: Box::new(self.grow(mid, hi, depth + 1)),
                }
            }
            _ => self.leaf(lo, hi),
        }
    }

    /// The lowest-scoring threshold, first in (feature, threshold) order
    /// among equals. Class counts are integers in `f64`, so the running
    /// counts give every side exactly the Gini the two-pass [`impurity`]
    /// would.
    fn best_gini_split(&mut self, lo: usize, hi: usize) -> Option<Split> {
        let (n, d, m) = (self.n(), self.d(), hi - lo);
        let features = self.features;
        let TreeBuffers {
            order,
            classes,
            node_counts,
            left_counts,
            right_counts,
            ..
        } = &mut *self.buf;
        node_counts.fill(0.0);
        for &i in &order[d * n + lo..d * n + hi] {
            node_counts[classes[i]] += 1.0;
        }
        let mut best: Option<Split> = None;
        for f in 0..d {
            let sorted = &order[f * n + lo..f * n + hi];
            left_counts.fill(0.0);
            for w in 1..m {
                left_counts[classes[sorted[w - 1]]] += 1.0;
                let below = features[sorted[w - 1]][f];
                let above = features[sorted[w]][f];
                if above - below < 1e-12 {
                    continue;
                }
                for ((r, t), l) in right_counts
                    .iter_mut()
                    .zip(&*node_counts)
                    .zip(&*left_counts)
                {
                    *r = t - l;
                }
                #[allow(clippy::cast_precision_loss)]
                let score = split_score(
                    w,
                    gini(left_counts, w as f64),
                    m - w,
                    gini(right_counts, (m - w) as f64),
                );
                if best.is_none_or(|b| score < b.score) {
                    best = Some(Split {
                        feature: f,
                        threshold: (below + above) / 2.0,
                        score,
                    });
                }
            }
        }
        best
    }

    /// The lowest-scoring threshold, first in (feature, threshold) order
    /// among equals, scored exactly as the two-pass [`impurity`] scores it.
    ///
    /// One pass per feature keeps the sum and sum of squares of the
    /// left side's targets, shifted by the node mean, and derives both
    /// sides' variance from them. Those scores differ from the two-pass
    /// ones by at most [`score_error_bound`], so only thresholds scoring
    /// within twice the bound of the lowest can be the two-pass minimum;
    /// they are re-scored with [`impurity`] in scan order under the same
    /// strict `<`. A looser bound costs re-scores, never a different split.
    fn best_variance_split(&mut self, lo: usize, hi: usize) -> Option<Split> {
        let (n, d, m) = (self.n(), self.d(), hi - lo);
        let (features, y) = (self.features, self.targets);
        let TreeBuffers {
            order, candidates, ..
        } = &mut *self.buf;
        #[allow(clippy::cast_precision_loss)]
        let mf = m as f64;
        let rows = &order[d * n + lo..d * n + hi];
        let shift = rows.iter().map(|&i| y[i]).sum::<f64>() / mf;
        let (mut t1, mut t2, mut p1, mut zmax, mut y2) = (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for &i in rows {
            let z = y[i] - shift;
            t1 += z;
            t2 += z * z;
            p1 += z.abs();
            zmax = zmax.max(z.abs());
            y2 += y[i] * y[i];
        }
        let margin = 2.0 * score_error_bound(m, p1, zmax, y2);
        // Non-finite targets, or sums of squares near overflow, leave no
        // usable bound; then every threshold is re-scored, which is the
        // quadratic scan itself.
        let exhaustive = !(margin.is_finite() && t2 <= 1e300);
        candidates.clear();
        let mut min_approx = f64::INFINITY;
        for f in 0..d {
            let sorted = &order[f * n + lo..f * n + hi];
            let (mut s1, mut s2) = (0.0f64, 0.0f64);
            for w in 1..m {
                let z = y[sorted[w - 1]] - shift;
                s1 += z;
                s2 += z * z;
                let below = features[sorted[w - 1]][f];
                let above = features[sorted[w]][f];
                if above - below < 1e-12 {
                    continue;
                }
                let approx = if exhaustive {
                    f64::NEG_INFINITY
                } else {
                    let a = running_score(s1, s2, t1 - s1, t2 - s2, w, m);
                    if a.is_finite() {
                        min_approx = min_approx.min(a);
                        a
                    } else {
                        f64::NEG_INFINITY
                    }
                };
                if exhaustive || approx <= min_approx + margin {
                    candidates.push(Candidate {
                        feature: f,
                        n_left: w,
                        threshold: (below + above) / 2.0,
                        approx,
                    });
                }
            }
        }
        let cutoff = if exhaustive {
            f64::INFINITY
        } else {
            min_approx + margin
        };
        let mut best: Option<Split> = None;
        for c in candidates.iter().filter(|c| c.approx <= cutoff) {
            let sorted = &order[c.feature * n + lo..c.feature * n + hi];
            let (left, right) = sorted.split_at(c.n_left);
            let score = split_score(
                left.len(),
                impurity(y, left, Task::Regress),
                right.len(),
                impurity(y, right, Task::Regress),
            );
            if best.is_none_or(|b| score < b.score) {
                best = Some(Split {
                    feature: c.feature,
                    threshold: c.threshold,
                    score,
                });
            }
        }
        best
    }

    /// Stable-partitions the range `lo..hi` of every slot by
    /// `x[feature] <= threshold` and returns where the right side starts.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let (n, d) = (self.n(), self.d());
        let features = self.features;
        let TreeBuffers {
            order,
            scratch,
            goes_left,
            ..
        } = &mut *self.buf;
        for &i in &order[d * n + lo..d * n + hi] {
            goes_left[i] = features[i][feature] <= threshold;
        }
        let mut mid = lo;
        for slot in order.chunks_exact_mut(n) {
            let range = &mut slot[lo..hi];
            scratch.clear();
            let mut kept = 0;
            for j in 0..range.len() {
                let i = range[j];
                if goes_left[i] {
                    range[kept] = i;
                    kept += 1;
                } else {
                    scratch.push(i);
                }
            }
            range[kept..].copy_from_slice(scratch);
            mid = lo + kept;
        }
        mid
    }
}

/// The running-statistics score of a threshold: both sides' sums of
/// squared deviations from `s1`/`s2` (left) and `r1`/`r2` (right), the sums
/// and sums of squares of shifted targets, over the node's `m` rows.
#[allow(clippy::cast_precision_loss)]
fn running_score(s1: f64, s2: f64, r1: f64, r2: f64, n_left: usize, m: usize) -> f64 {
    let (wl, wr) = (n_left as f64, (m - n_left) as f64);
    ((s2 - s1 * s1 / wl) + (r2 - r1 * r1 / wr)) / m as f64
}

/// Bounds, for every threshold of a node of `m` rows, how far the
/// [`running_score`] can lie from the two-pass score. `p1` and `zmax` are
/// the sum and maximum of `|y − shift|` over the node and `y2` is `Σ y²`.
/// DESIGN.md §14 derives the bound to first order in the unit roundoff; the
/// leading factor 2 covers the higher-order terms and the rounding of this
/// evaluation itself.
#[allow(clippy::cast_precision_loss)]
fn score_error_bound(m: usize, p1: f64, zmax: f64, y2: f64) -> f64 {
    let k = (m + 4) as f64 * (f64::EPSILON / 2.0);
    let gamma = k / (1.0 - k);
    2.0 * (16.0 * gamma * p1 * zmax + gamma * gamma * (30.0 * p1 * p1 + y2)) / m as f64
}

/// Size-weighted impurity of a split, the quantity the split search
/// minimizes.
#[allow(clippy::cast_precision_loss)]
fn split_score(n_left: usize, left_imp: f64, n_right: usize, right_imp: f64) -> f64 {
    (n_left as f64 * left_imp + n_right as f64 * right_imp) / (n_left + n_right) as f64
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn class_of(y: f64) -> usize {
    y.round().max(0.0) as usize
}

/// Gini impurity of class counts summing to `n`.
fn gini(counts: &[f64], n: f64) -> f64 {
    1.0 - counts.iter().map(|c| (c / n).powi(2)).sum::<f64>()
}

fn leaf_value(targets: &[f64], idx: &[usize], task: Task) -> Vec<f64> {
    match task {
        Task::Classify { n_classes } => {
            let mut counts = vec![0.0f64; n_classes];
            for &i in idx {
                counts[class_of(targets[i])] += 1.0;
            }
            #[allow(clippy::cast_precision_loss)]
            let n = idx.len().max(1) as f64;
            for c in &mut counts {
                *c /= n;
            }
            counts
        }
        Task::Regress => {
            #[allow(clippy::cast_precision_loss)]
            let n = idx.len().max(1) as f64;
            let mean = idx.iter().map(|&i| targets[i]).sum::<f64>() / n;
            vec![mean]
        }
    }
}

/// Impurity of the rows `idx`, summed in the order given: Gini for
/// classification, two-pass variance for regression.
fn impurity(targets: &[f64], idx: &[usize], task: Task) -> f64 {
    if idx.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = idx.len() as f64;
    match task {
        Task::Classify { n_classes } => {
            let mut counts = vec![0.0f64; n_classes];
            for &i in idx {
                counts[class_of(targets[i])] += 1.0;
            }
            gini(&counts, n)
        }
        Task::Regress => {
            let mean = idx.iter().map(|&i| targets[i]).sum::<f64>() / n;
            idx.iter()
                .map(|&i| (targets[i] - mean).powi(2))
                .sum::<f64>()
                / n
        }
    }
}

/// Index of the first maximum (ties resolve to the smallest index).
pub(crate) fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};
    use lori_core::Rng;

    fn xor_dataset() -> Dataset {
        // XOR is not linearly separable; a depth-2 tree nails it.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let mut rng = Rng::from_seed(5);
        for _ in 0..200 {
            let a = rng.bernoulli(0.5);
            let b = rng.bernoulli(0.5);
            rows.push(vec![
                f64::from(u8::from(a)) + rng.normal_with(0.0, 0.05),
                f64::from(u8::from(b)) + rng.normal_with(0.0, 0.05),
            ]);
            ys.push(f64::from(u8::from(a ^ b)));
        }
        Dataset::from_rows(rows, ys).unwrap()
    }

    #[test]
    fn solves_xor() {
        let ds = xor_dataset();
        let tree = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        let acc = accuracy(&ds.class_targets(), &tree.predict_batch(ds.features())).unwrap();
        assert!(acc > 0.99, "accuracy {acc}");
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let ds = xor_dataset();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&ds, &cfg).unwrap();
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn max_depth_is_respected() {
        let ds = xor_dataset();
        for d in [1, 2, 3] {
            let cfg = TreeConfig {
                max_depth: d,
                ..TreeConfig::default()
            };
            let tree = DecisionTree::fit(&ds, &cfg).unwrap();
            assert!(tree.depth() <= d);
        }
    }

    #[test]
    fn scores_are_distribution() {
        let ds = xor_dataset();
        let tree = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        let s = tree.scores(&[0.5, 0.5]);
        assert_eq!(s.len(), 2);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
        let ys: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let ds = Dataset::from_rows(rows, ys).unwrap();
        let tree = RegressionTree::fit(&ds, &TreeConfig::default()).unwrap();
        assert!((tree.predict(&[10.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[90.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn regression_tree_quadratic_r2() {
        let mut rng = Rng::from_seed(7);
        let rows: Vec<Vec<f64>> = (0..500).map(|_| vec![rng.uniform_in(-3.0, 3.0)]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0] * r[0]).collect();
        let ds = Dataset::from_rows(rows.clone(), ys.clone()).unwrap();
        let tree = RegressionTree::fit(&ds, &TreeConfig::default()).unwrap();
        let preds: Vec<f64> = rows.iter().map(|r| tree.predict(r)).collect();
        let score = r2(&ys, &preds).unwrap();
        assert!(score > 0.95, "r2 {score}");
    }

    #[test]
    fn single_class_rejected() {
        let ds = Dataset::from_rows(vec![vec![1.0], vec![2.0]], vec![0.0, 0.0]).unwrap();
        assert_eq!(
            DecisionTree::fit(&ds, &TreeConfig::default()),
            Err(MlError::SingleClass)
        );
    }

    #[test]
    fn min_samples_split_validated() {
        let ds = xor_dataset();
        let cfg = TreeConfig {
            min_samples_split: 0,
            ..TreeConfig::default()
        };
        assert!(DecisionTree::fit(&ds, &cfg).is_err());
        assert!(RegressionTree::fit(&ds, &cfg).is_err());
    }

    #[test]
    fn pure_node_stops_early() {
        // Perfectly separated single-feature data: tree needs depth 1 only.
        let ds = Dataset::from_rows(
            vec![vec![0.0], vec![0.1], vec![1.0], vec![1.1]],
            vec![0.0, 0.0, 1.0, 1.0],
        )
        .unwrap();
        let tree = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.leaf_count(), 2);
    }

    #[test]
    fn nan_feature_is_a_typed_error() {
        let ds = Dataset::from_rows(
            vec![vec![0.0, 1.0], vec![f64::NAN, 2.0], vec![1.0, 3.0]],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let nan = MlError::Numerical("NaN feature");
        let cfg = TreeConfig::default();
        assert_eq!(DecisionTree::fit(&ds, &cfg), Err(nan.clone()));
        assert_eq!(RegressionTree::fit(&ds, &cfg), Err(nan));
    }

    #[test]
    fn presort_keeps_row_order_among_signed_zeros() {
        let rows = vec![vec![0.0], vec![-0.0], vec![0.0], vec![-1.0], vec![-0.0]];
        let presort = Presort::new(&rows).unwrap();
        assert_eq!(presort.feature(0), [3, 0, 1, 2, 4]);
        assert_eq!(presort.feature(1), [0, 1, 2, 3, 4], "identity slot");
    }

    const TRIALS: u64 = 400;

    /// A random task for a generated dataset: regression, or 2 or 3 classes.
    fn random_classes(rng: &mut Rng) -> usize {
        [0, 0, 2, 3][usize::try_from(rng.below(4)).unwrap()]
    }

    fn task_of(ds: &Dataset, classes: usize) -> Task {
        if classes == 0 {
            Task::Regress
        } else {
            Task::Classify {
                n_classes: ds.n_classes(),
            }
        }
    }

    /// The presorted search's best root split as `(feature, threshold,
    /// score)` bit patterns.
    fn fast_root_split(ds: &Dataset, task: Task) -> Option<(usize, u64, u64)> {
        let mut buf = TreeBuffers {
            order: Presort::new(ds.features()).unwrap().order,
            ..TreeBuffers::default()
        };
        buf.prepare(ds.features(), ds.targets(), task);
        let mut grower = Grower {
            features: ds.features(),
            targets: ds.targets(),
            task,
            config: &TreeConfig::default(),
            buf: &mut buf,
        };
        let best = match task {
            Task::Classify { .. } => grower.best_gini_split(0, ds.len()),
            Task::Regress => grower.best_variance_split(0, ds.len()),
        };
        best.map(|s| (s.feature, s.threshold.to_bits(), s.score.to_bits()))
    }

    #[test]
    fn split_search_matches_quadratic_scan() {
        let mut rng = Rng::from_seed(41);
        for _ in 0..TRIALS {
            let classes = random_classes(&mut rng);
            let ds = oracle::random_dataset(&mut rng, classes);
            let task = task_of(&ds, classes);
            let idx: Vec<usize> = (0..ds.len()).collect();
            let oracle = oracle::quadratic_best_split(&ds, &idx, task)
                .map(|(f, t, s)| (f, t.to_bits(), s.to_bits()));
            assert_eq!(fast_root_split(&ds, task), oracle, "{ds:?}");
        }
    }

    #[test]
    fn trees_match_quadratic_oracle() {
        let mut rng = Rng::from_seed(42);
        for _ in 0..TRIALS {
            let classes = random_classes(&mut rng);
            let ds = oracle::random_dataset(&mut rng, classes);
            #[allow(clippy::cast_possible_truncation)]
            let config = TreeConfig {
                max_depth: rng.below(7) as usize,
                min_samples_split: 2 + rng.below(3) as usize,
            };
            // A with-replacement resample repeats rows, so ties between
            // duplicate rows are covered too.
            #[allow(clippy::cast_possible_truncation)]
            let resample: Vec<usize> = (0..ds.len())
                .map(|_| rng.below(ds.len() as u64) as usize)
                .collect();
            let boot = ds.subset(&resample);
            for data in [&ds, &boot] {
                if classes == 0 {
                    let fast = RegressionTree::fit(data, &config).unwrap();
                    let slow = RegressionTree::fit_quadratic(data, &config);
                    assert_eq!(
                        fast.fingerprint(),
                        slow.fingerprint(),
                        "{config:?} {data:?}"
                    );
                } else if data.n_classes() >= 2 {
                    let fast = DecisionTree::fit(data, &config).unwrap();
                    let slow = DecisionTree::fit_quadratic(data, &config);
                    assert_eq!(
                        fast.fingerprint(),
                        slow.fingerprint(),
                        "{config:?} {data:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_finite_targets_match_quadratic_oracle() {
        // No finite error bound exists here, so every threshold is
        // re-scored; the result must still be the quadratic scan's.
        let mut rng = Rng::from_seed(45);
        for _ in 0..100 {
            let ds = oracle::random_dataset(&mut rng, 0);
            let mut ys = ds.targets().to_vec();
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200, -1e200];
            for _ in 0..=rng.below(2) {
                let i = usize::try_from(rng.below(ys.len() as u64)).unwrap();
                ys[i] = *rng.choose(&bad).unwrap();
            }
            let data = Dataset::from_rows(ds.features().to_vec(), ys).unwrap();
            let config = TreeConfig::default();
            let fast = RegressionTree::fit(&data, &config).unwrap();
            let slow = RegressionTree::fit_quadratic(&data, &config);
            assert_eq!(fast.fingerprint(), slow.fingerprint(), "{data:?}");
        }
    }

    #[test]
    fn running_scores_stay_within_the_error_bound() {
        let mut rng = Rng::from_seed(43);
        let mut worst = 0.0f64;
        for _ in 0..TRIALS {
            let ds = oracle::random_dataset(&mut rng, 0);
            let (y, m) = (ds.targets(), ds.len());
            #[allow(clippy::cast_precision_loss)]
            let shift = y.iter().sum::<f64>() / m as f64;
            let z: Vec<f64> = y.iter().map(|v| v - shift).collect();
            let (t1, t2) = (z.iter().sum::<f64>(), z.iter().map(|v| v * v).sum::<f64>());
            let p1 = z.iter().map(|v| v.abs()).sum::<f64>();
            let zmax = z.iter().fold(0.0f64, |a, v| a.max(v.abs()));
            let bound = score_error_bound(m, p1, zmax, y.iter().map(|v| v * v).sum());
            let presort = Presort::new(ds.features()).unwrap();
            for f in 0..ds.n_features() {
                let sorted = presort.feature(f);
                let (mut s1, mut s2) = (0.0, 0.0);
                for w in 1..m {
                    s1 += z[sorted[w - 1]];
                    s2 += z[sorted[w - 1]] * z[sorted[w - 1]];
                    let approx = running_score(s1, s2, t1 - s1, t2 - s2, w, m);
                    let (left, right) = sorted.split_at(w);
                    let exact = split_score(
                        w,
                        impurity(y, left, Task::Regress),
                        m - w,
                        impurity(y, right, Task::Regress),
                    );
                    assert!(
                        (approx - exact).abs() <= bound,
                        "{approx} vs {exact}: {bound}"
                    );
                    if bound > 0.0 {
                        worst = worst.max((approx - exact).abs() / bound);
                    }
                }
            }
        }
        assert!(worst < 1.0, "largest error {worst} of the bound");
    }
}
