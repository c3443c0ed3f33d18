//! CART regression trees with variance-reduction splits and optional
//! Newton leaf values (for use inside gradient boosting).
//!
//! Two training paths produce bit-identical trees:
//!
//! * [`RegressionTree::fit`] — the exact reference: per node, per feature,
//!   stable comparison sort of the sample order, prefix-sum split scan.
//! * [`RegressionTree::fit_binned`] — the histogram path over a
//!   [`BinnedDataset`]: per-node bin-count histograms (the root's comes
//!   from the dataset; below it, the sibling = parent − child subtraction
//!   trick) drive a *stable counting sort*, so the split scan visits
//!   samples in exactly the order the reference's comparison sort would,
//!   and every f64 accumulation happens in the same sequence. A feature
//!   with two occupied bins in a node sorts and scores in one pass.
//!   Equivalence is pinned by tests, not approximate.

use crate::binned::BinnedDataset;
use matelda_exec::Executor;

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
enum Node {
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
/// equivalence tests that pin the binned path to the exact path.
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
    pub fn fit(x: &[Vec<f32>], targets: &[f64], hessians: &[f64], config: &TreeConfig) -> Self {
        assert!(!x.is_empty(), "cannot fit a tree on zero samples");
        assert_eq!(x.len(), targets.len());
        assert_eq!(x.len(), hessians.len());
        let mut tree = Self { nodes: Vec::new() };
        let idx: Vec<usize> = (0..x.len()).collect();
        tree.grow(x, targets, hessians, &idx, 0, config);
        tree
    }

    /// Fits a tree on a pre-binned dataset — same contract and same result
    /// as [`RegressionTree::fit`] on the raw samples the dataset was built
    /// from, but split search scans bin histograms instead of re-sorting
    /// raw feature vectors per node.
    ///
    /// # Panics
    /// Panics if the dataset is empty or lengths disagree.
    pub fn fit_binned(
        data: &BinnedDataset,
        targets: &[f64],
        hessians: &[f64],
        config: &TreeConfig,
    ) -> Self {
        Self::fit_binned_with(data, targets, hessians, config, &Executor::single())
    }

    /// [`RegressionTree::fit_binned`] with per-node histogram
    /// construction parallelized across features on `exec` (bin counts
    /// are integers and features are independent, so the histogram — and
    /// therefore the tree — is bit-identical at every thread count).
    /// Small nodes stay serial, below a cells threshold that keeps
    /// the pool wake cheaper than the work it offloads. The root needs no
    /// histogram build: it is [`BinnedDataset::root_histogram`].
    pub fn fit_binned_with(
        data: &BinnedDataset,
        targets: &[f64],
        hessians: &[f64],
        config: &TreeConfig,
        exec: &Executor,
    ) -> Self {
        assert!(data.n_samples() > 0, "cannot fit a tree on zero samples");
        assert_eq!(data.n_samples(), targets.len());
        assert_eq!(data.n_samples(), hessians.len());
        let mut tree = Self { nodes: Vec::new() };
        let idx: Vec<usize> = (0..data.n_samples()).collect();
        tree.grow_binned(data, targets, hessians, &idx, data.root_histogram(), 0, config, exec);
        tree
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
    fn grow(
        &mut self,
        x: &[Vec<f32>],
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
                    idx.iter().partition(|&&i| x[i][feature] <= threshold);
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

    /// Binned counterpart of [`RegressionTree::grow`]. `hist` is this
    /// node's per-feature bin-count histogram (`n_features × max_bins`).
    #[allow(clippy::too_many_arguments)]
    fn grow_binned(
        &mut self,
        data: &BinnedDataset,
        targets: &[f64],
        hessians: &[f64],
        idx: &[usize],
        hist: &[u32],
        depth: usize,
        config: &TreeConfig,
        exec: &Executor,
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

        match best_split_binned(data, targets, idx, hist, config.min_samples_leaf) {
            None => {
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf { value: leaf_value(idx) });
                id
            }
            Some((feature, split_bin)) => {
                let codes = data.codes_of(feature);
                // `code <= split_bin` ⟺ `value <= threshold` (codes are
                // ranks of distinct values), so this partition matches the
                // reference's exactly, in the same stable order.
                let (l, r): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| codes[i] <= split_bin);
                if l.is_empty() || r.is_empty() {
                    let id = self.nodes.len();
                    self.nodes.push(Node::Leaf { value: leaf_value(idx) });
                    return id;
                }
                // Subtraction trick: count the smaller child directly and
                // derive the sibling as parent − child. Counts are
                // integers, so the subtraction is exact.
                let small = if l.len() <= r.len() { &l } else { &r };
                let small_hist = node_histogram_with(data, small, exec);
                let mut other_hist = hist.to_vec();
                for (o, s) in other_hist.iter_mut().zip(&small_hist) {
                    *o -= s;
                }
                let (l_hist, r_hist) = if l.len() <= r.len() {
                    (small_hist, other_hist)
                } else {
                    (other_hist, small_hist)
                };
                let threshold = data.threshold(feature, split_bin);
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf { value: 0.0 });
                let left =
                    self.grow_binned(data, targets, hessians, &l, &l_hist, depth + 1, config, exec);
                let right =
                    self.grow_binned(data, targets, hessians, &r, &r_hist, depth + 1, config, exec);
                self.nodes[id] = Node::Split { feature, threshold, left, right };
                id
            }
        }
    }
}

/// Per-feature bin-count histogram over the samples in `idx`, laid out
/// `hist[f * max_bins + bin]`.
fn node_histogram(data: &BinnedDataset, idx: &[usize]) -> Vec<u32> {
    let max_bins = data.max_bins();
    let mut hist = vec![0u32; data.n_features() * max_bins];
    for f in 0..data.n_features() {
        let codes = data.codes_of(f);
        let row = &mut hist[f * max_bins..(f + 1) * max_bins];
        for &i in idx {
            row[codes[i] as usize] += 1;
        }
    }
    hist
}

/// A node below this many `samples × features` cells builds its
/// histogram serially — per-feature scans of a small node are cheaper
/// than a pool wake, and deep-tree nodes shrink geometrically.
const PARALLEL_HIST_MIN_CELLS: usize = 1 << 16;

/// [`node_histogram`] parallelized across features on `exec`: every
/// feature's count row is independent and counts are integers, so the
/// concatenated histogram equals the serial one exactly. Falls back to
/// the serial scan for small nodes (and on 1-thread executors).
fn node_histogram_with(data: &BinnedDataset, idx: &[usize], exec: &Executor) -> Vec<u32> {
    let n_features = data.n_features();
    if exec.threads() <= 1 || idx.len().saturating_mul(n_features) < PARALLEL_HIST_MIN_CELLS {
        return node_histogram(data, idx);
    }
    let max_bins = data.max_bins();
    let rows = exec.map_n(n_features, |f| {
        let codes = data.codes_of(f);
        let mut row = vec![0u32; max_bins];
        for &i in idx {
            row[codes[i] as usize] += 1;
        }
        row
    });
    rows.concat()
}

/// Binned counterpart of [`best_split`], returning `(feature, split_bin)`.
///
/// Bit-exactness note: the reference reuses one `order` vector across
/// features, so ties under feature `f`'s stable sort preserve the order
/// left by feature `f − 1`. This function reproduces that by applying a
/// *stable counting sort* (bucket offsets from the node histogram) to the
/// same carried-over order, then accumulating the prefix sum point by
/// point in that order — the f64 additions happen in the identical
/// sequence, so scores (and thus the argmax under strict `>`) are
/// bit-identical, not merely close. A feature with exactly two occupied
/// bins takes [`two_bin_pass`] instead.
///
/// Not inlined into the recursive grower: there, the counting-sort scan
/// measured up to ~30% slower on 3,000 samples of 33 five-valued
/// features (2-vCPU Xeon).
#[inline(never)]
fn best_split_binned(
    data: &BinnedDataset,
    targets: &[f64],
    idx: &[usize],
    hist: &[u32],
    min_leaf: usize,
) -> Option<(usize, u8)> {
    let n = idx.len() as f64;
    let total_sum: f64 = idx.iter().map(|&i| targets[i]).sum();
    let max_bins = data.max_bins();
    let mut best: Option<(usize, u8, f64)> = None;
    // Scores the candidate with `nl` samples left of the boundary; the
    // reference's strict `>` keeps the first of equal scores.
    let mut consider = |f: usize, bin: u8, nl: usize, left_sum: f64| {
        if nl < min_leaf || idx.len() - nl < min_leaf {
            return;
        }
        let (nl, nr) = (nl as f64, n - nl as f64);
        let right_sum = total_sum - left_sum;
        let score = left_sum * left_sum / nl + right_sum * right_sum / nr;
        if best.is_none_or(|(_, _, s)| score > s) {
            best = Some((f, bin, score));
        }
    };

    let mut order: Vec<usize> = idx.to_vec();
    let mut sorted: Vec<usize> = vec![0; idx.len()];
    let mut cursor: Vec<usize> = vec![0; max_bins + 1];
    for f in 0..data.n_features() {
        let nb = data.n_bins(f);
        let counts = &hist[f * max_bins..f * max_bins + nb];
        let codes = data.codes_of(f);
        let mut occupied = counts.iter().enumerate().filter(|&(_, &c)| c > 0);
        let Some((lo, &n_lo)) = occupied.next() else { continue };
        match 1 + occupied.count() {
            // Feature is constant within this node: the reference's
            // stable sort is the identity (order carries over unchanged)
            // and no bin boundary exists, so it generates no candidates.
            1 => continue,
            2 => {
                let (lo, n_lo) = (lo as u8, n_lo as usize);
                let left_sum = two_bin_pass(&order, &mut sorted, codes, lo, n_lo, targets);
                std::mem::swap(&mut order, &mut sorted);
                consider(f, lo, n_lo, left_sum);
            }
            _ => {
                // Stable counting sort of `order` by this feature's bin code.
                cursor[0] = 0;
                for b in 0..nb {
                    cursor[b + 1] = cursor[b] + counts[b] as usize;
                }
                for &i in &order {
                    let b = codes[i] as usize;
                    sorted[cursor[b]] = i;
                    cursor[b] += 1;
                }
                std::mem::swap(&mut order, &mut sorted);

                let mut left_sum = 0.0f64;
                for (pos, &i) in order.iter().enumerate().take(order.len() - 1) {
                    left_sum += targets[i];
                    let a = codes[i];
                    if a != codes[order[pos + 1]] {
                        consider(f, a, pos + 1, left_sum);
                    }
                }
            }
        }
    }

    best.map(|(f, b, _)| (f, b))
}

/// The split search of a feature whose node samples fall in exactly two
/// bins, `lo` (holding `n_lo` of them) and one above it, in one pass.
/// Writes into `sorted` the stable partition of `order`: the `lo`
/// samples, then the others, each in carried order. That is the
/// reference's stable sort of two values. Returns the `lo` samples'
/// target sum, added from `0.0` in carried order. The reference's only
/// candidate is the boundary after the `lo` samples, and its prefix sum
/// there has made exactly these additions in exactly this sequence.
///
/// Not inlined into [`best_split_binned`], whose multi-valued scan it
/// measurably slowed there.
#[inline(never)]
fn two_bin_pass(
    order: &[usize],
    sorted: &mut [usize],
    codes: &[u8],
    lo: u8,
    n_lo: usize,
    targets: &[f64],
) -> f64 {
    let (mut l, mut r) = (0, n_lo);
    let mut left_sum = 0.0f64;
    for &i in order {
        if codes[i] == lo {
            sorted[l] = i;
            l += 1;
            left_sum += targets[i];
        } else {
            sorted[r] = i;
            r += 1;
        }
    }
    left_sum
}

/// Finds the split (feature, threshold) with the largest weighted-variance
/// reduction; `None` if no valid split improves on the parent.
fn best_split(
    x: &[Vec<f32>],
    targets: &[f64],
    idx: &[usize],
    min_leaf: usize,
) -> Option<(usize, f32)> {
    let n = idx.len() as f64;
    let total_sum: f64 = idx.iter().map(|&i| targets[i]).sum();
    let n_features = x[0].len();
    let mut best: Option<(usize, f32, f64)> = None;

    let mut order: Vec<usize> = idx.to_vec();
    for f in 0..n_features {
        order.sort_by(|&a, &b| x[a][f].partial_cmp(&x[b][f]).expect("finite features"));
        // Prefix sums over the sorted order; candidate thresholds sit
        // between distinct consecutive feature values.
        let mut left_sum = 0.0f64;
        for (pos, &i) in order.iter().enumerate().take(order.len() - 1) {
            left_sum += targets[i];
            let nl = (pos + 1) as f64;
            let nr = n - nl;
            let (a, b) = (x[i][f], x[order[pos + 1]][f]);
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
        let _ = RegressionTree::fit(&[], &[], &[], &TreeConfig::default());
    }

    fn assert_binned_equals_exact(
        x: &[Vec<f32>],
        targets: &[f64],
        hessians: &[f64],
        config: &TreeConfig,
    ) {
        let data = BinnedDataset::build(x).expect("binnable input");
        let exact = RegressionTree::fit(x, targets, hessians, config);
        let binned = RegressionTree::fit_binned(&data, targets, hessians, config);
        assert_eq!(exact, binned, "binned tree must equal exact tree node for node");
    }

    #[test]
    fn binned_equals_exact_on_step_function() {
        let x: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32]).collect();
        let y: Vec<f64> = (0..10).map(|i| if i < 5 { 0.0 } else { 1.0 }).collect();
        assert_binned_equals_exact(&x, &y, &ones(10), &TreeConfig::default());
    }

    #[test]
    fn binned_equals_exact_on_xor_with_tie_carryover() {
        // XOR exercises the stable-sort tie-carryover: every top-level
        // split has an identical (zero-improvement) score, so the winning
        // split depends on the exact scan order across features.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..4 {
                    x.push(vec![a as f32, b as f32]);
                    y.push(f64::from(a ^ b));
                }
            }
        }
        let h = ones(x.len());
        assert_binned_equals_exact(&x, &y, &h, &TreeConfig::default());
    }

    #[test]
    fn binned_equals_exact_with_min_leaf_and_depth_limits() {
        let x: Vec<Vec<f32>> = (0..16).map(|i| vec![(i % 4) as f32, (i / 4) as f32]).collect();
        let y: Vec<f64> = (0..16).map(|i| f64::from(u8::from(i % 3 == 0))).collect();
        for min_leaf in [1, 2, 4] {
            for depth in [1, 2, 5] {
                assert_binned_equals_exact(
                    &x,
                    &y,
                    &ones(16),
                    &TreeConfig { max_depth: depth, min_samples_leaf: min_leaf },
                );
            }
        }
    }

    #[test]
    fn parallel_histogram_trees_are_bit_identical_to_serial() {
        // The root's histogram comes from the dataset, so only child
        // nodes build one. 8800 samples × 33 features puts the root's
        // smaller child above PARALLEL_HIST_MIN_CELLS, so its histogram
        // really fans out across features; the fitted trees must match
        // the serial build arena-for-arena.
        let n = 8800usize;
        let nf = 33usize;
        let x: Vec<Vec<f32>> =
            (0..n).map(|i| (0..nf).map(|f| ((i * (f + 3)) % 7) as f32).collect()).collect();
        let targets: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) * 0.125).collect();
        let hessians: Vec<f64> = (0..n).map(|i| 0.5 + (i % 3) as f64).collect();
        let config = TreeConfig { max_depth: 4, min_samples_leaf: 1 };
        let data = BinnedDataset::build(&x).expect("palette data is binnable");
        let serial = RegressionTree::fit_binned(&data, &targets, &hessians, &config);
        for threads in [2, 4, 8] {
            let exec = Executor::new(threads);
            let parallel =
                RegressionTree::fit_binned_with(&data, &targets, &hessians, &config, &exec);
            assert_eq!(serial, parallel, "threads={threads}");
            // Pool workers start on the first parallel map only.
            assert!(exec.workers_spawned() > 0, "threads={threads}: no parallel histogram ran");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        // The binned path is pinned to the exact-split reference: same
        // arena, same split features, thresholds, and leaf values, bit
        // for bit. Feature values come from a small palette so columns
        // carry heavy ties (the hard case for stable-order carryover).
        #[test]
        fn binned_tree_equals_exact_tree(
            rows in proptest::collection::vec(
                proptest::collection::vec(0u8..5, 3),
                2usize..40,
            ),
            targets_raw in proptest::collection::vec(-4i8..4, 40),
            max_depth in 1usize..4,
            min_leaf in 1usize..3,
        ) {
            let x: Vec<Vec<f32>> = rows
                .iter()
                .map(|r| r.iter().map(|&v| f32::from(v) * 0.25 - 0.5).collect())
                .collect();
            let targets: Vec<f64> =
                (0..x.len()).map(|i| f64::from(targets_raw[i]) * 0.125).collect();
            let hessians: Vec<f64> =
                (0..x.len()).map(|i| 0.5 + f64::from(targets_raw[i].unsigned_abs())).collect();
            let config = TreeConfig { max_depth, min_samples_leaf: min_leaf };
            let data = BinnedDataset::build(&x).expect("palette data is binnable");
            let exact = RegressionTree::fit(&x, &targets, &hessians, &config);
            let binned = RegressionTree::fit_binned(&data, &targets, &hessians, &config);
            proptest::prop_assert_eq!(exact, binned);
        }

        // The pipeline's features are {0,1} flags, so every feature that
        // varies within a node has exactly two occupied bins and takes
        // the fused two-bin pass. Rows repeat a few prototypes, so the
        // carried order holds long tie runs. Thirds are not dyadic, so
        // f64 sums of them round differently when added in another order.
        #[test]
        fn binary_palette_binned_tree_equals_exact_tree(
            prototypes in proptest::collection::vec(
                proptest::collection::vec(0u8..2, 33),
                1usize..10,
            ),
            picks in proptest::collection::vec(0usize..64, 2usize..80),
            n_features in 1usize..34,
            targets_raw in proptest::collection::vec(-4i8..4, 80),
            max_depth in 1usize..4,
            min_leaf in 1usize..3,
        ) {
            let x: Vec<Vec<f32>> = picks
                .iter()
                .map(|&p| {
                    let row = &prototypes[p % prototypes.len()][..n_features];
                    row.iter().map(|&v| f32::from(v)).collect()
                })
                .collect();
            let targets: Vec<f64> =
                (0..x.len()).map(|i| f64::from(targets_raw[i]) / 3.0).collect();
            let hessians: Vec<f64> =
                (0..x.len()).map(|i| 0.5 + f64::from(targets_raw[i].unsigned_abs())).collect();
            let config = TreeConfig { max_depth, min_samples_leaf: min_leaf };
            let data = BinnedDataset::build(&x).expect("flags are binnable");
            let exact = RegressionTree::fit(&x, &targets, &hessians, &config);
            let binned = RegressionTree::fit_binned(&data, &targets, &hessians, &config);
            proptest::prop_assert_eq!(exact, binned);
        }
    }
}
