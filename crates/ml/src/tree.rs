//! CART regression trees with variance-reduction splits and optional
//! Newton leaf values (for use inside gradient boosting).
//!
//! Two training paths produce bit-identical trees:
//!
//! * [`RegressionTree::fit`] — the exact reference: per node, per feature,
//!   stable comparison sort of the sample order, prefix-sum split scan.
//! * `NodeMemo::grow` — the memoized grower that boosting uses: each
//!   node's members, carried orders and candidate boundaries are computed
//!   once per fit and shared by every stage that reaches the node, so a
//!   stage only repeats the reference's additions, in its order (see the
//!   `memo` module). Equivalence is pinned by tests, not approximate.

/// Tree growth limits.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0). Boosting uses shallow trees.
    pub max_depth: usize,
    /// Minimum number of samples required in each child of a split.
    pub min_samples_leaf: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self { max_depth: 3, min_samples_leaf: 1 }
    }
}

/// A node of the regression tree, stored in a flat arena.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        /// Samples with `x[feature] <= threshold` go left.
        threshold: f32,
        left: usize,
        right: usize,
    },
}

/// A fitted CART regression tree.
///
/// `PartialEq` compares arena structure node for node — used by the
/// equivalence tests that pin the memoized grower to the exact path.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Fits a tree on `x` (row-major) against `targets`, using per-sample
    /// `hessians` for Newton leaf values (`leaf = Σtarget / (Σhessian + λ)`).
    /// Pass all-ones hessians for plain mean-target leaves.
    ///
    /// # Panics
    /// Panics if inputs are empty or lengths disagree.
    pub fn fit<R: AsRef<[f32]>>(
        x: &[R],
        targets: &[f64],
        hessians: &[f64],
        config: &TreeConfig,
    ) -> Self {
        assert!(!x.is_empty(), "cannot fit a tree on zero samples");
        assert_eq!(x.len(), targets.len());
        assert_eq!(x.len(), hessians.len());
        let mut tree = Self { nodes: Vec::new() };
        let idx: Vec<usize> = (0..x.len()).collect();
        tree.grow(x, targets, hessians, &idx, 0, config);
        tree
    }

    /// A tree over an arena built elsewhere in the crate.
    pub(crate) fn from_nodes(nodes: Vec<Node>) -> Self {
        Self { nodes }
    }

    /// Predicts the regression value for one sample.
    pub fn predict(&self, sample: &[f32]) -> f64 {
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    cur = if sample[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes (leaves + splits).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Grows the subtree over `idx`, returning the new node's arena index.
    fn grow<R: AsRef<[f32]>>(
        &mut self,
        x: &[R],
        targets: &[f64],
        hessians: &[f64],
        idx: &[usize],
        depth: usize,
        config: &TreeConfig,
    ) -> usize {
        let leaf_value = |ids: &[usize]| -> f64 {
            let g: f64 = ids.iter().map(|&i| targets[i]).sum();
            let h: f64 = ids.iter().map(|&i| hessians[i]).sum();
            g / (h + 1e-9)
        };

        let pure = {
            let first = targets[idx[0]];
            idx.iter().all(|&i| (targets[i] - first).abs() < 1e-12)
        };
        if pure
            || depth >= config.max_depth
            || idx.len() < 2 * config.min_samples_leaf
            || idx.len() < 2
        {
            let id = self.nodes.len();
            self.nodes.push(Node::Leaf { value: leaf_value(idx) });
            return id;
        }

        match best_split(x, targets, idx, config.min_samples_leaf) {
            None => {
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf { value: leaf_value(idx) });
                id
            }
            Some((feature, threshold)) => {
                let (l, r): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| x[i].as_ref()[feature] <= threshold);
                if l.is_empty() || r.is_empty() {
                    // Defensive: a degenerate split (NaN features or float
                    // rounding) must not recurse on an empty child.
                    let id = self.nodes.len();
                    self.nodes.push(Node::Leaf { value: leaf_value(idx) });
                    return id;
                }
                let id = self.nodes.len();
                // Reserve the split slot, then grow children.
                self.nodes.push(Node::Leaf { value: 0.0 });
                let left = self.grow(x, targets, hessians, &l, depth + 1, config);
                let right = self.grow(x, targets, hessians, &r, depth + 1, config);
                self.nodes[id] = Node::Split { feature, threshold, left, right };
                id
            }
        }
    }
}

/// Finds the split (feature, threshold) with the largest weighted-variance
/// reduction; `None` if no valid split improves on the parent.
fn best_split<R: AsRef<[f32]>>(
    x: &[R],
    targets: &[f64],
    idx: &[usize],
    min_leaf: usize,
) -> Option<(usize, f32)> {
    let n = idx.len() as f64;
    let total_sum: f64 = idx.iter().map(|&i| targets[i]).sum();
    let n_features = x[0].as_ref().len();
    let mut best: Option<(usize, f32, f64)> = None;

    let mut order: Vec<usize> = idx.to_vec();
    for f in 0..n_features {
        order.sort_by(|&a, &b| {
            x[a].as_ref()[f].partial_cmp(&x[b].as_ref()[f]).expect("finite features")
        });
        // Prefix sums over the sorted order; candidate thresholds sit
        // between distinct consecutive feature values.
        let mut left_sum = 0.0f64;
        for (pos, &i) in order.iter().enumerate().take(order.len() - 1) {
            left_sum += targets[i];
            let nl = (pos + 1) as f64;
            let nr = n - nl;
            let (a, b) = (x[i].as_ref()[f], x[order[pos + 1]].as_ref()[f]);
            if a == b {
                continue; // not a boundary between distinct values
            }
            if (pos + 1) < min_leaf || (order.len() - pos - 1) < min_leaf {
                continue;
            }
            // Maximizing variance reduction == maximizing
            // left_sum²/nl + right_sum²/nr (parent terms are constant).
            let right_sum = total_sum - left_sum;
            let score = left_sum * left_sum / nl + right_sum * right_sum / nr;
            // Split at `a` exactly (f <= a goes left). A midpoint
            // (a + b) / 2 can round up to `b` in f32 when the two values
            // are adjacent, which would leave the right child empty.
            let threshold = a;
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((f, threshold, score));
            }
        }
    }

    // Accept the best valid split even at zero improvement (like CART in
    // scikit-learn): on XOR-shaped targets every top-level split has zero
    // variance reduction, yet splitting is what makes the children
    // separable. Pure nodes never reach this function (the grower leafs
    // them), so this cannot loop on constant targets.
    let _ = (total_sum, n);
    best.map(|(f, t, _)| (f, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    #[test]
    fn fits_a_step_function() {
        let x: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32]).collect();
        let y: Vec<f64> = (0..10).map(|i| if i < 5 { 0.0 } else { 1.0 }).collect();
        let t = RegressionTree::fit(&x, &y, &ones(10), &TreeConfig::default());
        assert!(t.predict(&[2.0]) < 0.01);
        assert!(t.predict(&[7.0]) > 0.99);
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let x: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32]).collect();
        let y = vec![3.5; 6];
        let t = RegressionTree::fit(&x, &y, &ones(6), &TreeConfig::default());
        assert_eq!(t.n_nodes(), 1, "no split should be made on constant targets");
        assert!((t.predict(&[100.0]) - 3.5).abs() < 1e-6);
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let t = RegressionTree::fit(
            &x,
            &y,
            &ones(64),
            &TreeConfig { max_depth: 1, min_samples_leaf: 1 },
        );
        // Depth 1 => at most one split and two leaves.
        assert!(t.n_nodes() <= 3);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let x: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32]).collect();
        // Outlier at position 0 would be isolated by an unconstrained split.
        let mut y = vec![0.0; 8];
        y[0] = 100.0;
        let t = RegressionTree::fit(
            &x,
            &y,
            &ones(8),
            &TreeConfig { max_depth: 1, min_samples_leaf: 4 },
        );
        // The only legal split is 4|4; prediction for x=0 is the mean of
        // the left half, not 100.
        let p = t.predict(&[0.0]);
        assert!(p < 50.0, "prediction {p} leaked a tiny leaf");
    }

    #[test]
    fn multifeature_split_selects_informative_feature() {
        // Feature 0 is noise (constant), feature 1 carries the signal.
        let x: Vec<Vec<f32>> = (0..10).map(|i| vec![1.0, (i % 2) as f32]).collect();
        let y: Vec<f64> = (0..10).map(|i| (i % 2) as f64).collect();
        let t = RegressionTree::fit(&x, &y, &ones(10), &TreeConfig::default());
        assert!(t.predict(&[1.0, 0.0]) < 0.01);
        assert!(t.predict(&[1.0, 1.0]) > 0.99);
    }

    #[test]
    fn newton_leaves_divide_by_hessian() {
        // Single leaf: value = Σg / (Σh + λ).
        let x = vec![vec![0.0f32], vec![0.0]];
        let g = vec![1.0, 1.0];
        let h = vec![4.0, 4.0];
        let t = RegressionTree::fit(&x, &g, &h, &TreeConfig::default());
        assert!((t.predict(&[0.0]) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn adjacent_f32_values_do_not_create_empty_children() {
        // Regression test: with two adjacent f32 values the midpoint
        // (a + b) / 2 rounds to b, which used to partition every sample
        // into the left child and recurse on an empty right child.
        let a = 1.0f32;
        let b = f32::from_bits(a.to_bits() + 1); // next representable
        let x = vec![vec![a], vec![a], vec![b], vec![b]];
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let t = RegressionTree::fit(&x, &y, &ones(4), &TreeConfig::default());
        assert!(t.predict(&[a]) < 0.5);
        assert!(t.predict(&[b]) > 0.5);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_input_panics() {
        let _ = RegressionTree::fit::<Vec<f32>>(&[], &[], &[], &TreeConfig::default());
    }
}
