//! The memoized tree grower: one boosting fit searches each tree node
//! once, however many of its stages reach it.
//!
//! Boosting grows one tree per stage on the same samples, and a tree
//! node is the set of samples its path from the root selects. The same
//! path (parent node, split feature, split bin) therefore reaches the
//! same members in every stage, and everything the exact split search
//! of [`RegressionTree::fit`] derives from the members alone is the
//! same in every stage too:
//!
//! * the members, in ascending sample order (the reference's `idx`);
//! * each feature's *carried order*: the reference sorts one order
//!   vector feature after feature with a stable sort, so ties under
//!   feature `f` keep the order feature `f − 1` left;
//! * the candidate boundaries, where the sorted codes change, and which
//!   of them leave `min_samples_leaf` samples on each side.
//!
//! None of these depends on the stage's targets. [`NodeMemo`] stores
//! them when a node is first searched, and a later stage that reaches
//! the node only repeats the reference's f64 additions, in the
//! reference's order, and scores them. Scores, the strict-`>` argmax,
//! leaf sums and thus the trees are bit-identical to the reference's
//! (pinned by this module's tests and `crate::gbm`'s).
//!
//! Samples are grouped into *classes* of bit-identical feature rows:
//! the memo stores class ids and bins one row per class, and targets and
//! hessians are given per class. A sum still adds one term per sample,
//! in sample or carried order — a class's `k` samples are `k`
//! additions, never one multiplication.
//!
//! The memo's bytes are capped at [`MEMO_BYTES_PER_SAMPLE`] per sample.
//! A node that does not fit is searched the same way but not kept, so
//! the cap bounds memory without changing a bit of the result.

use crate::binned::{BinnedDataset, MAX_BINS};
use crate::tree::{Node, RegressionTree, TreeConfig};
use std::mem::size_of;

/// The memo's byte budget per training sample. A fit of `n` samples
/// keeps at most `n × MEMO_BYTES_PER_SAMPLE` bytes of node state. With
/// 16-bit class ids, the root's members and carried orders over 33 flags
/// take up to 68 bytes per sample, and each level of nodes below it as
/// much again per split taken. At 256, a TPDF detect of the lake-full
/// lake (seed 1, 2 threads; its per-fold fits are the largest) peaks
/// near the histogram grower's ~43 MB instead of 92–99 MB unbounded,
/// and lake-full's per-column fits scan 4,187 nodes a rep instead of
/// 3,424.
pub const MEMO_BYTES_PER_SAMPLE: usize = 256;

/// The target-independent state of every tree node one fit has searched,
/// reused by each boosting stage's tree (see the module docs). Class ids
/// are stored in 16 bits when there are at most 2^16 classes.
#[derive(Debug)]
pub struct NodeMemo(Width);

#[derive(Debug)]
enum Width {
    Narrow(Memo<u16>),
    Wide(Memo<u32>),
}

/// A stored class id.
trait ClassId: Copy {
    fn index(self) -> usize;
    fn from_class(class: u32) -> Self;
}

impl ClassId for u16 {
    fn index(self) -> usize {
        usize::from(self)
    }
    fn from_class(class: u32) -> Self {
        u16::try_from(class).expect("narrow memos hold at most 2^16 classes")
    }
}

impl ClassId for u32 {
    fn index(self) -> usize {
        self as usize
    }
    fn from_class(class: u32) -> Self {
        class
    }
}

#[derive(Debug)]
struct Memo<I> {
    /// One binned row per class.
    data: BinnedDataset,
    config: TreeConfig,
    /// Node arena; `nodes[0]` is the root, whose members are every sample.
    nodes: Vec<MemoNode<I>>,
    /// Bytes held by `nodes`.
    bytes: usize,
    /// Most bytes `nodes` may hold.
    cap: usize,
}

/// One node's members and, once searched, its split candidates.
#[derive(Debug)]
struct MemoNode<I> {
    /// Each member's class, in ascending sample order.
    members: Vec<I>,
    scans: Option<Scans<I>>,
    /// Memoized children, one pair per split taken here so far.
    children: Vec<Children>,
}

#[derive(Debug)]
struct Children {
    feature: usize,
    bin: u8,
    left: usize,
    right: usize,
}

/// A node's split candidates in the reference's scan order: per feature
/// with a valid boundary, the carried-order classes up to its last valid
/// boundary, and the boundaries.
#[derive(Debug)]
struct Scans<I> {
    features: Vec<FeatureScan>,
    /// Concatenated carried-order class prefixes.
    seq: Vec<I>,
    /// Concatenated valid boundaries: (samples left of it, bin ending
    /// there), ascending within a feature.
    bounds: Vec<(u32, u8)>,
}

#[derive(Debug)]
struct FeatureScan {
    feature: usize,
    /// End of this feature's prefix in `seq` and boundaries in `bounds`;
    /// each starts where the previous feature's ends.
    seq_end: usize,
    bounds_end: usize,
}

/// Where a node being grown lives: in the memo, or only for this tree
/// (its own and its subtree's members), when the memo is full.
enum Slot<I> {
    Stored(usize),
    Transient(Vec<I>),
}

impl<I: ClassId> Scans<I> {
    fn bytes(&self) -> usize {
        self.seq.len() * size_of::<I>()
            + self.bounds.len() * size_of::<(u32, u8)>()
            + self.features.len() * size_of::<FeatureScan>()
    }

    /// The reference's split search over these candidates: the split
    /// with the largest `left_sum²/nl + right_sum²/nr`, the first of
    /// equal scores. `total_sum` is the node's target sum.
    fn best_split(&self, targets: &[f64], n: usize, total_sum: f64) -> Option<(usize, u8)> {
        let left_sums = self.left_sums(targets);
        let n = n as f64;
        let mut best: Option<(usize, u8, f64)> = None;
        let mut bounds_start = 0;
        for fs in &self.features {
            for (&(nl, bin), &left_sum) in
                self.bounds[bounds_start..fs.bounds_end].iter().zip(&left_sums[bounds_start..])
            {
                let (nl, nr) = (f64::from(nl), n - f64::from(nl));
                let right_sum = total_sum - left_sum;
                let score = left_sum * left_sum / nl + right_sum * right_sum / nr;
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((fs.feature, bin, score));
                }
            }
            bounds_start = fs.bounds_end;
        }
        best.map(|(f, b, _)| (f, b))
    }

    /// Each boundary's left sum, in `bounds` order: per feature, the
    /// targets of its carried-order classes added one by one from `0.0`,
    /// read off after each of its boundaries. Each feature's additions
    /// form one dependent chain, so [`LANES`] features' chains run
    /// interleaved to overlap their latencies; each chain's own order is
    /// unchanged.
    fn left_sums(&self, targets: &[f64]) -> Vec<f64> {
        let mut sums = vec![0.0f64; self.bounds.len()];
        let mut chains = Vec::with_capacity(self.features.len());
        let (mut seq_start, mut bounds_start) = (0, 0);
        let mut rest = sums.as_mut_slice();
        for fs in &self.features {
            let (head, tail) = rest.split_at_mut(fs.bounds_end - bounds_start);
            chains.push(Chain {
                seq: &self.seq[seq_start..fs.seq_end],
                bounds: &self.bounds[bounds_start..fs.bounds_end],
                sums: head,
                k: 0,
                pos: 0,
                acc: 0.0,
            });
            rest = tail;
            (seq_start, bounds_start) = (fs.seq_end, fs.bounds_end);
        }
        let mut pending = chains.into_iter();
        let mut lanes: Vec<Chain<'_, I>> = pending.by_ref().take(LANES).collect();
        while let Ok(full) = <&mut [Chain<'_, I>; LANES]>::try_from(lanes.as_mut_slice()) {
            add_lanes(targets, full);
            lanes.retain(|c| c.k < c.bounds.len());
            lanes.extend(pending.by_ref().take(LANES - lanes.len()));
        }
        for chain in &mut lanes {
            chain.add_rest(targets);
        }
        sums
    }
}

/// Chains of additions run in lockstep by [`Scans::left_sums`].
const LANES: usize = 4;

/// One feature's chain of additions: its carried-order classes, its
/// boundaries, where to record the running sum at each, and how far it
/// has come: the next boundary `k`, the position `pos` and the running
/// sum `acc`.
struct Chain<'a, I> {
    seq: &'a [I],
    bounds: &'a [(u32, u8)],
    sums: &'a mut [f64],
    k: usize,
    pos: usize,
    acc: f64,
}

impl<I: ClassId> Chain<'_, I> {
    /// Positions left before the next boundary.
    fn to_boundary(&self) -> usize {
        self.bounds[self.k].0 as usize - self.pos
    }

    /// Records the running sum if the chain stands at its next boundary.
    fn record(&mut self) {
        if self.pos == self.bounds[self.k].0 as usize {
            self.sums[self.k] = self.acc;
            self.k += 1;
        }
    }

    /// Continues the chain alone to its end.
    fn add_rest(&mut self, targets: &[f64]) {
        while self.k < self.bounds.len() {
            let end = self.bounds[self.k].0 as usize;
            for &c in &self.seq[self.pos..end] {
                self.acc += targets[c.index()];
            }
            self.pos = end;
            self.record();
        }
    }
}

/// Advances [`LANES`] unfinished chains in lockstep up to the nearest
/// boundary among them, and records the sums of those that reach one.
fn add_lanes<I: ClassId>(targets: &[f64], lanes: &mut [Chain<'_, I>; LANES]) {
    let step = lanes.iter().map(Chain::to_boundary).min().expect("LANES is positive");
    let [a, b, c, d] = lanes;
    let (mut acc_a, mut acc_b, mut acc_c, mut acc_d) = (a.acc, b.acc, c.acc, d.acc);
    let ids = a.seq[a.pos..a.pos + step]
        .iter()
        .zip(&b.seq[b.pos..b.pos + step])
        .zip(&c.seq[c.pos..c.pos + step])
        .zip(&d.seq[d.pos..d.pos + step]);
    for (((&ia, &ib), &ic), &id) in ids {
        acc_a += targets[ia.index()];
        acc_b += targets[ib.index()];
        acc_c += targets[ic.index()];
        acc_d += targets[id.index()];
    }
    for (lane, acc) in [a, b, c, d].into_iter().zip([acc_a, acc_b, acc_c, acc_d]) {
        lane.acc = acc;
        lane.pos += step;
        lane.record();
    }
}

impl<I: ClassId> MemoNode<I> {
    fn new(members: Vec<I>) -> Self {
        Self { members, scans: None, children: Vec::new() }
    }

    fn bytes(members: usize) -> usize {
        size_of::<MemoNode<I>>() + members * size_of::<I>()
    }
}

impl NodeMemo {
    /// A memo for trees over `classes` — the class of each sample, in
    /// sample order — whose feature rows `data` bins, one row per class.
    ///
    /// # Panics
    /// Panics if there are no samples or 2^32 or more, or if a class has
    /// no binned row.
    pub fn new(data: BinnedDataset, classes: Vec<u32>, config: TreeConfig) -> Self {
        assert!(!classes.is_empty(), "cannot fit a tree on zero samples");
        // Boundaries store their left counts as `u32`.
        assert!(u32::try_from(classes.len()).is_ok(), "under 2^32 samples");
        assert!(classes.iter().all(|&c| (c as usize) < data.n_rows()), "class without a row");
        if data.n_rows() <= 1 << 16 {
            let classes = classes.into_iter().map(u16::from_class).collect();
            NodeMemo(Width::Narrow(Memo::new(data, classes, config)))
        } else {
            NodeMemo(Width::Wide(Memo::new(data, classes, config)))
        }
    }

    /// Grows one tree against per-class `targets`, with per-class
    /// `hessians` for Newton leaf values: the tree [`RegressionTree::fit`]
    /// grows on the samples' rows and the targets and hessians of their
    /// classes, node for node and bit for bit.
    ///
    /// # Panics
    /// Panics if `targets` or `hessians` does not hold one value per class.
    pub fn grow(&mut self, targets: &[f64], hessians: &[f64]) -> RegressionTree {
        match &mut self.0 {
            Width::Narrow(memo) => memo.grow(targets, hessians),
            Width::Wide(memo) => memo.grow(targets, hessians),
        }
    }
}

impl<I: ClassId> Memo<I> {
    fn new(data: BinnedDataset, classes: Vec<I>, config: TreeConfig) -> Self {
        let cap = classes.len().saturating_mul(MEMO_BYTES_PER_SAMPLE);
        let bytes = MemoNode::<I>::bytes(classes.len());
        Self { data, config, nodes: vec![MemoNode::new(classes)], bytes, cap }
    }

    fn grow(&mut self, targets: &[f64], hessians: &[f64]) -> RegressionTree {
        assert_eq!(targets.len(), self.data.n_rows(), "one target per class");
        assert_eq!(hessians.len(), self.data.n_rows(), "one hessian per class");
        let mut nodes = Vec::new();
        self.grow_node(&mut nodes, Slot::Stored(0), 0, targets, hessians);
        RegressionTree::from_nodes(nodes)
    }

    fn fits(&self, bytes: usize) -> bool {
        self.bytes.saturating_add(bytes) <= self.cap
    }

    /// [`RegressionTree::fit`]'s `grow` over the node in `slot`,
    /// returning the new tree node's arena index.
    fn grow_node(
        &mut self,
        tree: &mut Vec<Node>,
        slot: Slot<I>,
        depth: usize,
        targets: &[f64],
        hessians: &[f64],
    ) -> usize {
        let members = self.members(&slot);
        let n = members.len();
        // The reference's target and hessian sums, as two interleaved
        // chains that start from `Iterator::sum`'s `-0.0`.
        let (mut target_sum, mut hessian_sum) = (-0.0f64, -0.0f64);
        for &c in members {
            target_sum += targets[c.index()];
            hessian_sum += hessians[c.index()];
        }
        let first = targets[members[0].index()];
        let pure = members.iter().all(|&c| (targets[c.index()] - first).abs() < 1e-12);
        let min_leaf = self.config.min_samples_leaf;
        let split = if pure || depth >= self.config.max_depth || n < 2 * min_leaf || n < 2 {
            None
        } else {
            self.search(&slot, targets, target_sum)
        };
        let id = tree.len();
        let Some((feature, bin)) = split else {
            tree.push(Node::Leaf { value: target_sum / (hessian_sum + 1e-9) });
            return id;
        };
        // A boundary lies between two occupied bins, so both children
        // are non-empty.
        let (left, right) = self.children(slot, feature, bin);
        tree.push(Node::Leaf { value: 0.0 });
        let left = self.grow_node(tree, left, depth + 1, targets, hessians);
        let right = self.grow_node(tree, right, depth + 1, targets, hessians);
        let threshold = self.data.threshold(feature, bin);
        tree[id] = Node::Split { feature, threshold, left, right };
        id
    }

    fn members<'a>(&'a self, slot: &'a Slot<I>) -> &'a [I] {
        match slot {
            Slot::Stored(id) => &self.nodes[*id].members,
            Slot::Transient(members) => members,
        }
    }

    /// The best split of the node in `slot`, whose targets sum to
    /// `target_sum`, from its memoized scans — scanned now on its first
    /// search, and kept if they fit.
    fn search(&mut self, slot: &Slot<I>, targets: &[f64], target_sum: f64) -> Option<(usize, u8)> {
        let n = self.members(slot).len();
        let id = match slot {
            Slot::Stored(id) => *id,
            Slot::Transient(members) => {
                return self.scan(members).best_split(targets, n, target_sum);
            }
        };
        if self.nodes[id].scans.is_none() {
            let scans = self.scan(&self.nodes[id].members);
            if !self.fits(scans.bytes()) {
                return scans.best_split(targets, n, target_sum);
            }
            self.bytes += scans.bytes();
            self.nodes[id].scans = Some(scans);
        }
        let scans = self.nodes[id].scans.as_ref().expect("scanned above");
        scans.best_split(targets, n, target_sum)
    }

    /// The children of the node in `slot` under the split `feature ≤
    /// bin`: the reference's stable partition of its members, kept in
    /// the memo when the parent is and both fit.
    fn children(&mut self, slot: Slot<I>, feature: usize, bin: u8) -> (Slot<I>, Slot<I>) {
        let members = match &slot {
            Slot::Stored(id) => {
                let node = &self.nodes[*id];
                let known = node.children.iter().find(|c| c.feature == feature && c.bin == bin);
                if let Some(c) = known {
                    return (Slot::Stored(c.left), Slot::Stored(c.right));
                }
                &node.members
            }
            Slot::Transient(members) => members,
        };
        let codes = self.data.codes_of(feature);
        let (left, right): (Vec<I>, Vec<I>) =
            members.iter().partition(|&&c| codes[c.index()] <= bin);
        let Slot::Stored(parent) = slot else {
            return (Slot::Transient(left), Slot::Transient(right));
        };
        let bytes = MemoNode::<I>::bytes(left.len())
            + MemoNode::<I>::bytes(right.len())
            + size_of::<Children>();
        if !self.fits(bytes) {
            return (Slot::Transient(left), Slot::Transient(right));
        }
        self.bytes += bytes;
        let (l, r) = (self.nodes.len(), self.nodes.len() + 1);
        self.nodes.push(MemoNode::new(left));
        self.nodes.push(MemoNode::new(right));
        self.nodes[parent].children.push(Children { feature, bin, left: l, right: r });
        (Slot::Stored(l), Slot::Stored(r))
    }

    /// The reference's per-feature pass over `members`: a stable sort
    /// of the carried order by each feature's codes (a counting sort; a
    /// feature constant in the node leaves the order as it is), and the
    /// boundaries between its occupied bins that leave at least
    /// `min_samples_leaf` samples on each side.
    fn scan(&self, members: &[I]) -> Scans<I> {
        let n = members.len();
        let min_leaf = self.config.min_samples_leaf;
        // Bin counts come from each class's count in the node, once per
        // distinct class rather than once per member.
        let mut multiplicity = vec![0usize; self.data.n_rows()];
        let mut distinct = Vec::new();
        for &c in members {
            if multiplicity[c.index()] == 0 {
                distinct.push(c);
            }
            multiplicity[c.index()] += 1;
        }
        let mut order = members.to_vec();
        let mut sorted = order.clone();
        let mut counts = [0usize; MAX_BINS];
        let mut cursor = [0usize; MAX_BINS];
        let mut scans = Scans { features: Vec::new(), seq: Vec::new(), bounds: Vec::new() };
        for f in 0..self.data.n_features() {
            let codes = self.data.codes_of(f);
            let counts = &mut counts[..self.data.n_bins(f)];
            counts.fill(0);
            for &c in &distinct {
                counts[usize::from(codes[c.index()])] += multiplicity[c.index()];
            }
            if counts.iter().filter(|&&k| k > 0).count() < 2 {
                continue;
            }
            let mut start = 0;
            for (cur, &k) in cursor.iter_mut().zip(counts.iter()) {
                *cur = start;
                start += k;
            }
            for &c in &order {
                let b = usize::from(codes[c.index()]);
                sorted[cursor[b]] = c;
                cursor[b] += 1;
            }
            std::mem::swap(&mut order, &mut sorted);

            let bounds_start = scans.bounds.len();
            let mut nl = 0;
            for (b, &k) in counts.iter().enumerate() {
                nl += k;
                if k == 0 || nl == n {
                    continue;
                }
                if nl >= min_leaf && n - nl >= min_leaf {
                    scans.bounds.push((nl as u32, b as u8));
                }
            }
            if let Some(&(last, _)) = scans.bounds[bounds_start..].last() {
                scans.seq.extend_from_slice(&order[..last as usize]);
                scans.features.push(FeatureScan {
                    feature: f,
                    seq_end: scans.seq.len(),
                    bounds_end: scans.bounds.len(),
                });
            }
        }
        scans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    /// One class per sample: the memo bins every row.
    fn per_sample(x: &[Vec<f32>], config: &TreeConfig) -> NodeMemo {
        let data = BinnedDataset::build(x).expect("binnable input");
        NodeMemo::new(data, (0..x.len() as u32).collect(), config.clone())
    }

    /// One class per distinct row (by bits, first-seen order), and each
    /// sample's class.
    fn per_distinct_row(x: &[Vec<f32>]) -> (Vec<Vec<f32>>, Vec<u32>) {
        let mut rows: Vec<Vec<f32>> = Vec::new();
        let classes = x
            .iter()
            .map(|r| {
                let bits = |v: &Vec<f32>| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                let at = rows.iter().position(|d| bits(d) == bits(r)).unwrap_or_else(|| {
                    rows.push(r.clone());
                    rows.len() - 1
                });
                at as u32
            })
            .collect();
        (rows, classes)
    }

    fn assert_memo_equals_exact(
        x: &[Vec<f32>],
        targets: &[f64],
        hessians: &[f64],
        config: &TreeConfig,
    ) {
        let exact = RegressionTree::fit(x, targets, hessians, config);
        let memoized = per_sample(x, config).grow(targets, hessians);
        assert_eq!(exact, memoized, "memoized tree must equal exact tree node for node");
    }

    #[test]
    fn memoized_equals_exact_on_step_function() {
        let x: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32]).collect();
        let y: Vec<f64> = (0..10).map(|i| if i < 5 { 0.0 } else { 1.0 }).collect();
        assert_memo_equals_exact(&x, &y, &ones(10), &TreeConfig::default());
    }

    #[test]
    fn memoized_equals_exact_on_xor_with_tie_carryover() {
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
        assert_memo_equals_exact(&x, &y, &h, &TreeConfig::default());
    }

    #[test]
    fn memoized_equals_exact_with_min_leaf_and_depth_limits() {
        let x: Vec<Vec<f32>> = (0..16).map(|i| vec![(i % 4) as f32, (i / 4) as f32]).collect();
        let y: Vec<f64> = (0..16).map(|i| f64::from(u8::from(i % 3 == 0))).collect();
        for min_leaf in [1, 2, 4] {
            for depth in [1, 2, 5] {
                assert_memo_equals_exact(
                    &x,
                    &y,
                    &ones(16),
                    &TreeConfig { max_depth: depth, min_samples_leaf: min_leaf },
                );
            }
        }
    }

    #[test]
    fn a_full_memo_grows_the_same_trees() {
        // 600 samples of 200 seven-valued features: the root's carried
        // orders alone outgrow the byte cap, so its searches and those
        // of every node without room run on transient scans. Each stage
        // must still grow the reference's tree.
        let n = 600usize;
        let x: Vec<Vec<f32>> =
            (0..n).map(|i| (0..200).map(|f| ((i * (f + 3)) % 7) as f32).collect()).collect();
        let config = TreeConfig { max_depth: 4, min_samples_leaf: 1 };
        let mut memo = per_sample(&x, &config);
        for stage in 0..3 {
            let targets: Vec<f64> =
                (0..n).map(|i| (((i + stage) % 11) as f64 - 5.0) / 3.0).collect();
            let hessians: Vec<f64> = (0..n).map(|i| 0.5 + ((i + stage) % 3) as f64).collect();
            let exact = RegressionTree::fit(&x, &targets, &hessians, &config);
            assert_eq!(memo.grow(&targets, &hessians), exact, "stage {stage}");
            let Width::Narrow(inner) = &memo.0 else { panic!("600 classes take 16-bit ids") };
            assert!(inner.bytes <= inner.cap, "stage {stage}: {} > {}", inner.bytes, inner.cap);
            assert!(inner.nodes[0].scans.is_none(), "the root's scans outgrow the cap");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        // The memoized grower is pinned to the exact-split reference:
        // same arena, same split features, thresholds, and leaf values,
        // bit for bit. Feature values come from a small palette so
        // columns carry heavy ties (the hard case for stable-order
        // carryover).
        #[test]
        fn memoized_tree_equals_exact_tree(
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
            let exact = RegressionTree::fit(&x, &targets, &hessians, &config);
            let memoized = per_sample(&x, &config).grow(&targets, &hessians);
            proptest::prop_assert_eq!(exact, memoized);
        }

        // The pipeline's features are {0,1} flags, so every feature that
        // varies within a node has exactly two occupied bins. Rows repeat
        // a few prototypes, so the carried order holds long tie runs.
        // Thirds are not dyadic, so f64 sums of them round differently
        // when added in another order.
        #[test]
        fn binary_palette_memoized_tree_equals_exact_tree(
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
            let exact = RegressionTree::fit(&x, &targets, &hessians, &config);
            let memoized = per_sample(&x, &config).grow(&targets, &hessians);
            proptest::prop_assert_eq!(exact, memoized);
        }

        // One memo serves successive target/hessian vectors, as a fit's
        // boosting stages do, with classes one per sample or one per
        // distinct row. Each stage's tree must equal the reference's on
        // the targets and hessians expanded to one per sample.
        #[test]
        fn one_memo_grows_every_stage_like_the_reference(
            prototypes in proptest::collection::vec(
                proptest::collection::vec(0u8..5, 4),
                1usize..8,
            ),
            picks in proptest::collection::vec(0usize..64, 2usize..60),
            stages in proptest::collection::vec(
                proptest::collection::vec((-4i8..4, 0u8..4), 60),
                3usize..6,
            ),
            one_per_row in 0u8..2,
            max_depth in 1usize..5,
            min_leaf in 1usize..4,
        ) {
            let x: Vec<Vec<f32>> = picks
                .iter()
                .map(|&p| prototypes[p % prototypes.len()].iter().map(|&v| f32::from(v)).collect())
                .collect();
            let (rows, classes) = if one_per_row == 1 {
                per_distinct_row(&x)
            } else {
                (x.clone(), (0..x.len() as u32).collect())
            };
            let config = TreeConfig { max_depth, min_samples_leaf: min_leaf };
            let data = BinnedDataset::build(&rows).expect("palette data is binnable");
            // Both id widths: `new` picks 16 bits for these few classes.
            let mut narrow = NodeMemo::new(data.clone(), classes.clone(), config.clone());
            let mut wide = NodeMemo(Width::Wide(Memo::new(data, classes.clone(), config.clone())));
            for stage in &stages {
                let targets: Vec<f64> =
                    stage[..rows.len()].iter().map(|&(t, _)| f64::from(t) / 3.0).collect();
                let hessians: Vec<f64> =
                    stage[..rows.len()].iter().map(|&(_, h)| 0.5 + f64::from(h) / 3.0).collect();
                let expand = |v: &[f64]| classes.iter().map(|&c| v[c as usize]).collect::<Vec<_>>();
                let exact = RegressionTree::fit(&x, &expand(&targets), &expand(&hessians), &config);
                proptest::prop_assert_eq!(&narrow.grow(&targets, &hessians), &exact);
                proptest::prop_assert_eq!(&wide.grow(&targets, &hessians), &exact);
            }
        }
    }
}
