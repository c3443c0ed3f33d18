//! The memoized tree grower: one boosting fit searches each tree node
//! once, however many of its stages reach it, and each search adds only
//! where its winner is in doubt.
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
//!   of them leave `min_samples_leaf` samples on each side;
//! * the node's distinct classes and how many members each has.
//!
//! None of these depends on the stage's targets. [`NodeMemo`] stores
//! them when a node is first searched. A feature whose boundaries and
//! carried-order prefix equal an earlier stored feature's is not
//! stored: its sums, and so its scores, are the same bits, and the
//! reference's strict `>` never picks a later equal score.
//!
//! A search then *brackets, then verifies*. Per-class sums, `count ×
//! target` added in any order, bound each boundary's left sum, and so
//! its score, from below and above (see [`Scans::bracket`]). The
//! reference's winner scores at least any boundary's lower bound, so
//! every boundary whose upper bound falls short of one scores strictly
//! less and cannot win. When one boundary is left, it is the winner, and the
//! search adds nothing. Otherwise the search repeats the reference's
//! f64 additions, in the reference's order, for the remaining
//! boundaries' features, scores those boundaries and picks among them
//! with the reference's strict-`>` scan. Scores, the argmax, leaf sums
//! and thus the trees are bit-identical to the reference's (pinned by
//! this module's tests and `crate::gbm`'s).
//!
//! Samples are grouped into *classes* of bit-identical feature rows:
//! the memo stores class ids and bins one row per class, and targets and
//! hessians are given per class. An exact sum still adds one term per
//! sample, in sample or carried order — a class's `k` samples are `k`
//! additions, never one multiplication; only the bracket multiplies.
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
/// and lake-full's per-column fits scan 4,246 nodes a rep instead of
/// 3,424.
pub const MEMO_BYTES_PER_SAMPLE: usize = 256;

/// The unit roundoff of f64, `2^-53`.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// Relative slack on a bracketed score: the reference rounds at most
/// four times between its sums and a score term, and the bound itself
/// at most seven; 64 unit roundoffs cover both several times over.
const SCORE_SLACK: f64 = 64.0 * UNIT_ROUNDOFF;

/// Absolute slack on a bracketed score for the products and quotients
/// that underflow, where relative error bounds fail: each such rounding
/// errs by less than half the smallest subnormal.
const UNDERFLOW_SLACK: f64 = 4.0 * f64::MIN_POSITIVE;

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
trait ClassId: Copy + PartialEq {
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
/// with a valid boundary and no earlier twin, the carried-order classes
/// up to its last valid boundary, and the boundaries; and the node's
/// distinct classes, ordered per feature by bin, which bracket the
/// boundaries' scores.
#[derive(Debug)]
struct Scans<I> {
    features: Vec<FeatureScan>,
    /// Concatenated carried-order class prefixes.
    seq: Vec<I>,
    /// Concatenated valid boundaries, ascending within a feature: the
    /// samples left of each, the bin ending there, and the distinct
    /// classes left of it.
    lefts: Vec<u32>,
    bins: Vec<u8>,
    class_lefts: Vec<u32>,
    /// The node's distinct classes, in first-seen member order, and each
    /// one's number of members.
    classes: Vec<I>,
    counts: Vec<u32>,
    /// Concatenated per-feature class orders: positions in `classes`
    /// sorted by the feature's bin, up to its last valid boundary.
    class_seq: Vec<I>,
}

#[derive(Debug)]
struct FeatureScan {
    feature: usize,
    /// End of this feature's prefix in `seq`, its class order in
    /// `class_seq` and its boundaries; each starts where the previous
    /// feature's ends.
    seq_end: usize,
    class_seq_end: usize,
    bounds_end: usize,
}

/// Where a node being grown lives: in the memo, or only for this tree
/// (its own and its subtree's members), when the memo is full.
enum Slot<I> {
    Stored(usize),
    Transient(Vec<I>),
}

/// `γ_k = k·u / (1 − k·u)`: `k` f64 terms added in any order, each
/// possibly the rounded product of an exact term, land within
/// `γ_k·Σ|term|` of their real sum (Higham, *Accuracy and Stability of
/// Numerical Algorithms*, §3.1 and §4.2).
fn gamma(k: usize) -> f64 {
    let ku = k as f64 * UNIT_ROUNDOFF;
    ku / (1.0 - ku)
}

/// How far a chain of at most `n` additions can end from a sum of at
/// most `d` class terms `count × target` over the same samples, whose
/// absolute values sum to at most `abs`: each lies within its `γ·Σ|t|`
/// of the real sum. Doubled to cover the rounding of `abs` and of this
/// bound itself.
fn sum_err(n: usize, d: usize, abs: f64) -> f64 {
    2.0 * (gamma(n) + gamma(d)) * abs
}

/// `values` summed over `ids` with four partial sums, for the bracket,
/// whose sums may be added in any order.
fn sum_any_order<I: ClassId>(values: &[f64], ids: &[I]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut quads = ids.chunks_exact(4);
    for quad in &mut quads {
        for (acc, &c) in acc.iter_mut().zip(quad) {
            *acc += values[c.index()];
        }
    }
    let rest: f64 = quads.remainder().iter().map(|&c| values[c.index()]).sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + rest
}

impl<I: ClassId> Scans<I> {
    fn bytes(&self) -> usize {
        (self.seq.len() + self.classes.len() + self.class_seq.len()) * size_of::<I>()
            + (self.lefts.len() + self.class_lefts.len() + self.counts.len()) * size_of::<u32>()
            + self.bins.len()
            + self.features.len() * size_of::<FeatureScan>()
    }

    /// The reference's split search over these candidates, for the node
    /// with these `members`: the split with the largest `left_sum²/nl +
    /// right_sum²/nr`, the first of equal scores. The bracket closes the
    /// boundaries that cannot win; the reference's additions decide
    /// among the open ones.
    fn best_split(&self, targets: &[f64], members: &[I]) -> Option<(usize, u8)> {
        if self.lefts.is_empty() {
            return None;
        }
        let open = self.bracket(targets, members.len());
        if let Some(open) = &open {
            let mut open = open.iter().enumerate().filter(|&(_, &o)| o);
            if let (Some((j, _)), None) = (open.next(), open.next()) {
                #[cfg(test)]
                tests::tally(tests::Outcome::Settled);
                return Some(self.split_at(j));
            }
        }
        #[cfg(test)]
        tests::tally(tests::Outcome::Verified);
        self.verify(targets, members, open.as_deref()).map(|j| self.split_at(j))
    }

    /// The reference's strict-`>` scan over the `open` boundaries (all
    /// of them without `open`), scored from the reference's additions:
    /// the winning boundary's index.
    fn verify(&self, targets: &[f64], members: &[I], open: Option<&[bool]>) -> Option<usize> {
        // The reference's node total: one chain from `Iterator::sum`'s
        // `-0.0`.
        let total_sum = members.iter().fold(-0.0f64, |s, &c| s + targets[c.index()]);
        let left_sums = self.left_sums(targets, open);
        let n = members.len() as f64;
        let mut best: Option<(usize, f64)> = None;
        for (j, (&nl, &left_sum)) in self.lefts.iter().zip(&left_sums).enumerate() {
            if open.is_some_and(|open| !open[j]) {
                continue;
            }
            let (nl, nr) = (f64::from(nl), n - f64::from(nl));
            let right_sum = total_sum - left_sum;
            let score = left_sum * left_sum / nl + right_sum * right_sum / nr;
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((j, score));
            }
        }
        best.map(|(j, _)| j)
    }

    /// The split boundary `j` stands for.
    fn split_at(&self, j: usize) -> (usize, u8) {
        let fs = self.features.iter().find(|fs| j < fs.bounds_end).expect("a boundary's feature");
        (fs.feature, self.bins[j])
    }

    /// Which boundaries can still win, one flag per boundary; `None`
    /// when a bound is not finite (NaN or overflowing targets), as every
    /// boundary must then be verified.
    ///
    /// Per boundary, `L̃` sums the left classes' `count × target` terms
    /// in any order. The reference's chain adds the same `nl` targets
    /// one by one, so its `L` lies within [`sum_err`] of `L̃`; so does
    /// the node total `T` of `T̃`, and `T − L` lies within both errors of
    /// `T̃ − L̃`. Squaring the largest and the smallest magnitudes these
    /// allow, with slack for the score's own roundings, gives `lo ≤
    /// score ≤ hi`. The reference's winner `j*` scores at least any
    /// boundary's `lo`, so with `bar` the `lo` of the boundary with the
    /// highest `hi`, `hi[j*] ≥ score[j*] ≥ bar` keeps `j*` open, and a
    /// closed boundary scores strictly below `j*`, so closing it cannot
    /// move the first-of-equals choice.
    fn bracket(&self, targets: &[f64], n: usize) -> Option<Vec<bool>> {
        let terms: Vec<f64> = self
            .classes
            .iter()
            .zip(&self.counts)
            .map(|(&c, &k)| f64::from(k) * targets[c.index()])
            .collect();
        let (total, abs) = terms.iter().fold((0.0, 0.0), |(s, a), &t| (s + t, a + t.abs()));
        let err = sum_err(n, terms.len(), abs);
        // `T̃ − L̃` rounds once more.
        let right_err = |right: f64| 2.0 * err + 2.0 * UNIT_ROUNDOFF * right.abs();
        let n = n as f64;
        let score = |l: f64, r: f64, nl: f64| l * l / nl + r * r / (n - nl);
        let mut his = Vec::with_capacity(self.lefts.len());
        // The highest `hi` so far, and its boundary's sum and left count.
        let mut top = (f64::NEG_INFINITY, 0.0, 0.0);
        let (mut start, mut class_start) = (0, 0);
        for fs in &self.features {
            let mut left = 0.0;
            let mut pos = class_start;
            for (&nl, &dl) in
                self.lefts[start..fs.bounds_end].iter().zip(&self.class_lefts[start..])
            {
                let end = class_start + dl as usize;
                left += sum_any_order(&terms, &self.class_seq[pos..end]);
                pos = end;
                let nl = f64::from(nl);
                let right = total - left;
                let hi = score(left.abs() + err, right.abs() + right_err(right), nl);
                let hi = hi * (1.0 + SCORE_SLACK) + UNDERFLOW_SLACK;
                if hi > top.0 {
                    top = (hi, left, nl);
                }
                his.push(hi);
            }
            (start, class_start) = (fs.bounds_end, fs.class_seq_end);
        }
        let (_, left, nl) = top;
        let right = total - left;
        let lo = score((left.abs() - err).max(0.0), (right.abs() - right_err(right)).max(0.0), nl);
        let bar = lo * (1.0 - SCORE_SLACK) - UNDERFLOW_SLACK;
        if !bar.is_finite() || !his.iter().all(|hi| hi.is_finite()) {
            return None;
        }
        Some(his.iter().map(|&hi| hi >= bar).collect())
    }

    /// Whether a stored feature has the left counts of the boundaries
    /// pushed from `bounds_start` on and the carried-order `prefix`: the
    /// same additions, so the same left sums and scores, earlier in the
    /// reference's scan.
    fn has_twin(&self, bounds_start: usize, prefix: &[I]) -> bool {
        let new = &self.lefts[bounds_start..];
        let (mut seq_start, mut start) = (0, 0);
        self.features.iter().any(|fs| {
            let lefts = &self.lefts[start..fs.bounds_end];
            let seq = &self.seq[seq_start..fs.seq_end];
            (seq_start, start) = (fs.seq_end, fs.bounds_end);
            lefts == new && seq == prefix
        })
    }

    /// Each boundary's left sum: per feature, the targets of its
    /// carried-order classes added one by one from `0.0`, read off after
    /// each of its boundaries. With `open`, a feature runs only up to its
    /// last open boundary, and the sums past it stay `0.0`. Each
    /// feature's additions form one dependent chain, so [`LANES`]
    /// features' chains run interleaved to overlap their latencies; each
    /// chain's own order is unchanged.
    fn left_sums(&self, targets: &[f64], open: Option<&[bool]>) -> Vec<f64> {
        let mut sums = vec![0.0f64; self.lefts.len()];
        let mut chains = Vec::with_capacity(self.features.len());
        let (mut seq_start, mut bounds_start) = (0, 0);
        let mut rest = sums.as_mut_slice();
        for fs in &self.features {
            let (head, tail) = rest.split_at_mut(fs.bounds_end - bounds_start);
            let len = open.map_or(head.len(), |open| {
                let open = &open[bounds_start..fs.bounds_end];
                open.iter().rposition(|&o| o).map_or(0, |last| last + 1)
            });
            if len > 0 {
                chains.push(Chain {
                    seq: &self.seq[seq_start..fs.seq_end],
                    lefts: &self.lefts[bounds_start..bounds_start + len],
                    sums: &mut head[..len],
                    k: 0,
                    pos: 0,
                    acc: 0.0,
                });
            }
            rest = tail;
            (seq_start, bounds_start) = (fs.seq_end, fs.bounds_end);
        }
        let mut pending = chains.into_iter();
        let mut lanes: Vec<Chain<'_, I>> = pending.by_ref().take(LANES).collect();
        while let Ok(full) = <&mut [Chain<'_, I>; LANES]>::try_from(lanes.as_mut_slice()) {
            add_lanes(targets, full);
            lanes.retain(|c| c.k < c.lefts.len());
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

/// One feature's chain of additions: its carried-order classes, the
/// left counts of its boundaries, where to record the running sum at
/// each, and how far it has come: the next boundary `k`, the position
/// `pos` and the running sum `acc`.
struct Chain<'a, I> {
    seq: &'a [I],
    lefts: &'a [u32],
    sums: &'a mut [f64],
    k: usize,
    pos: usize,
    acc: f64,
}

impl<I: ClassId> Chain<'_, I> {
    /// Positions left before the next boundary.
    fn to_boundary(&self) -> usize {
        self.lefts[self.k] as usize - self.pos
    }

    /// Records the running sum if the chain stands at its next boundary.
    fn record(&mut self) {
        if self.pos == self.lefts[self.k] as usize {
            self.sums[self.k] = self.acc;
            self.k += 1;
        }
    }

    /// Continues the chain alone to its end.
    fn add_rest(&mut self, targets: &[f64]) {
        while self.k < self.lefts.len() {
            let end = self.lefts[self.k] as usize;
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
    /// returning the new tree node's arena index. Sums are taken where
    /// they are used: the leaf's target and hessian sums only at a leaf,
    /// the node total only by a search that verifies.
    fn grow_node(
        &mut self,
        tree: &mut Vec<Node>,
        slot: Slot<I>,
        depth: usize,
        targets: &[f64],
        hessians: &[f64],
    ) -> usize {
        let n = self.members(&slot).len();
        let min_leaf = self.config.min_samples_leaf;
        let split = if depth >= self.config.max_depth
            || n < 2 * min_leaf
            || n < 2
            || self.pure(&slot, targets)
        {
            None
        } else {
            self.search(&slot, targets)
        };
        let id = tree.len();
        let Some((feature, bin)) = split else {
            // The reference's leaf sums, as two interleaved chains that
            // start from `Iterator::sum`'s `-0.0`.
            let (mut target_sum, mut hessian_sum) = (-0.0f64, -0.0f64);
            for &c in self.members(&slot) {
                target_sum += targets[c.index()];
                hessian_sum += hessians[c.index()];
            }
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

    /// The reference's purity test: every member's target within
    /// `1e-12` of the first member's. Once the node's scans are stored,
    /// it tests each distinct class once.
    fn pure(&self, slot: &Slot<I>, targets: &[f64]) -> bool {
        let members = self.members(slot);
        let first = targets[members[0].index()];
        let near = |&c: &I| (targets[c.index()] - first).abs() < 1e-12;
        match slot {
            Slot::Stored(id) => match &self.nodes[*id].scans {
                Some(scans) => scans.classes.iter().all(near),
                None => members.iter().all(near),
            },
            Slot::Transient(_) => members.iter().all(near),
        }
    }

    /// The best split of the node in `slot` from its memoized scans —
    /// scanned now on its first search, and kept if they fit.
    fn search(&mut self, slot: &Slot<I>, targets: &[f64]) -> Option<(usize, u8)> {
        let id = match slot {
            Slot::Stored(id) => *id,
            Slot::Transient(members) => {
                return self.scan(members).best_split(targets, members);
            }
        };
        if self.nodes[id].scans.is_none() {
            let scans = self.scan(&self.nodes[id].members);
            if !self.fits(scans.bytes()) {
                return scans.best_split(targets, &self.nodes[id].members);
            }
            self.bytes += scans.bytes();
            self.nodes[id].scans = Some(scans);
        }
        let node = &self.nodes[id];
        node.scans.as_ref().expect("scanned above").best_split(targets, &node.members)
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
    /// `min_samples_leaf` samples on each side. A feature whose
    /// boundaries and prefix twin an earlier stored feature's is not
    /// stored (see the module docs). Each stored feature also orders the
    /// node's distinct classes by bin, for the bracket.
    fn scan(&self, members: &[I]) -> Scans<I> {
        let n = members.len();
        let min_leaf = self.config.min_samples_leaf;
        // Bin counts come from each class's count in the node, once per
        // distinct class rather than once per member.
        let mut multiplicity = vec![0u32; self.data.n_rows()];
        let mut classes = Vec::new();
        for &c in members {
            if multiplicity[c.index()] == 0 {
                classes.push(c);
            }
            multiplicity[c.index()] += 1;
        }
        let counts = classes.iter().map(|c| multiplicity[c.index()]).collect();
        let mut scans = Scans {
            features: Vec::new(),
            seq: Vec::new(),
            lefts: Vec::new(),
            bins: Vec::new(),
            class_lefts: Vec::new(),
            classes,
            counts,
            class_seq: Vec::new(),
        };
        let mut order = members.to_vec();
        let mut sorted = order.clone();
        let mut by_bin = vec![I::from_class(0); scans.classes.len()];
        let mut samples = [0usize; MAX_BINS];
        let mut distinct = [0usize; MAX_BINS];
        let mut cursor = [0usize; MAX_BINS];
        for f in 0..self.data.n_features() {
            let codes = self.data.codes_of(f);
            let n_bins = self.data.n_bins(f);
            samples[..n_bins].fill(0);
            distinct[..n_bins].fill(0);
            for (&c, &k) in scans.classes.iter().zip(&scans.counts) {
                let b = usize::from(codes[c.index()]);
                samples[b] += k as usize;
                distinct[b] += 1;
            }
            if samples[..n_bins].iter().filter(|&&k| k > 0).count() < 2 {
                continue;
            }
            let mut start = 0;
            for (cur, &k) in cursor.iter_mut().zip(&samples[..n_bins]) {
                *cur = start;
                start += k;
            }
            for &c in &order {
                let b = usize::from(codes[c.index()]);
                sorted[cursor[b]] = c;
                cursor[b] += 1;
            }
            std::mem::swap(&mut order, &mut sorted);

            let bounds_start = scans.lefts.len();
            let (mut nl, mut dl) = (0, 0);
            for b in 0..n_bins {
                nl += samples[b];
                dl += distinct[b];
                if samples[b] == 0 || nl == n {
                    continue;
                }
                if nl >= min_leaf && n - nl >= min_leaf {
                    scans.lefts.push(nl as u32);
                    scans.bins.push(b as u8);
                    scans.class_lefts.push(dl as u32);
                }
            }
            let Some(&last) = scans.lefts[bounds_start..].last() else { continue };
            let prefix = &order[..last as usize];
            if scans.has_twin(bounds_start, prefix) {
                scans.lefts.truncate(bounds_start);
                scans.bins.truncate(bounds_start);
                scans.class_lefts.truncate(bounds_start);
                continue;
            }
            scans.seq.extend_from_slice(prefix);
            let mut start = 0;
            for (cur, &k) in cursor.iter_mut().zip(&distinct[..n_bins]) {
                *cur = start;
                start += k;
            }
            for (pos, &c) in scans.classes.iter().enumerate() {
                let b = usize::from(codes[c.index()]);
                by_bin[cursor[b]] = I::from_class(pos as u32);
                cursor[b] += 1;
            }
            let class_last = *scans.class_lefts.last().expect("pushed above") as usize;
            scans.class_seq.extend_from_slice(&by_bin[..class_last]);
            scans.features.push(FeatureScan {
                feature: f,
                seq_end: scans.seq.len(),
                class_seq_end: scans.class_seq.len(),
                bounds_end: scans.lefts.len(),
            });
        }
        scans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// How a search ended: settled by the bracket alone, or verified by
    /// the reference's additions.
    #[derive(Clone, Copy)]
    pub(super) enum Outcome {
        Settled,
        Verified,
    }

    thread_local! {
        static OUTCOMES: Cell<[usize; 2]> = const { Cell::new([0; 2]) };
    }

    pub(super) fn tally(outcome: Outcome) {
        OUTCOMES.with(|o| {
            let mut tally = o.get();
            tally[outcome as usize] += 1;
            o.set(tally);
        });
    }

    /// This thread's searches since the last call, by [`Outcome`].
    fn outcomes() -> [usize; 2] {
        OUTCOMES.with(|o| o.replace([0; 2]))
    }

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
        // 600 samples of 200 seven-valued features, no two alike (so
        // none is dropped as an earlier feature's twin): the root's
        // carried orders alone outgrow the byte cap, so its searches and
        // those of every node without room run on transient scans. Each
        // stage must still grow the reference's tree.
        let n = 600usize;
        let value = |i: usize, f: usize| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (f as u64 + 1);
            (h.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 32) % 7
        };
        let x: Vec<Vec<f32>> =
            (0..n).map(|i| (0..200).map(|f| value(i, f) as f32).collect()).collect();
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

    /// Grows one tree per stage with one memo over a class per distinct
    /// row of `x`, each stage's targets and hessians given per class, and
    /// asserts each equals the reference's on the same values expanded
    /// to one per sample. Returns the searches' outcomes.
    fn assert_stages_equal_exact(
        x: &[Vec<f32>],
        stages: &[(Vec<f64>, Vec<f64>)],
        config: &TreeConfig,
    ) -> [usize; 2] {
        let (rows, classes) = per_distinct_row(x);
        let data = BinnedDataset::build(&rows).expect("binnable input");
        let mut memo = NodeMemo::new(data, classes.clone(), config.clone());
        outcomes();
        for (stage, (targets, hessians)) in stages.iter().enumerate() {
            let (targets, hessians) = (&targets[..rows.len()], &hessians[..rows.len()]);
            let expand = |v: &[f64]| classes.iter().map(|&c| v[c as usize]).collect::<Vec<_>>();
            let exact = RegressionTree::fit(x, &expand(targets), &expand(hessians), config);
            assert_eq!(memo.grow(targets, hessians), exact, "stage {stage}");
        }
        outcomes()
    }

    /// `n` rows of `features` flags drawn from a small pseudo-random
    /// generator, so rows repeat and classes hold many samples.
    fn flag_rows(n: usize, features: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut state = seed;
        let mut bit = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 63) as f32
        };
        (0..n).map(|_| (0..features).map(|_| bit()).collect()).collect()
    }

    #[test]
    fn large_inputs_take_every_search_path() {
        // 400 rows over 5 random flags and copies of the first 3, so
        // searches have many samples per class, and copies of a flag
        // reach the same left sets in other carried orders: the bracket
        // settles most searches and verifies the near-ties.
        let mut x = flag_rows(400, 5, 7);
        for row in &mut x {
            row.extend_from_within(..3);
        }
        let classes = per_distinct_row(&x).0.len();
        let stages: Vec<(Vec<f64>, Vec<f64>)> = (0..5)
            .map(|s| {
                let targets =
                    (0..classes).map(|c| ((c * 7 + s * 3) % 11) as f64 / 3.0 - 1.5).collect();
                let hessians = (0..classes).map(|c| 0.25 + ((c + s) % 4) as f64 / 7.0).collect();
                (targets, hessians)
            })
            .collect();
        let [settled, verified] = assert_stages_equal_exact(
            &x,
            &stages,
            &TreeConfig { max_depth: 5, min_samples_leaf: 2 },
        );
        assert!(settled > 0 && verified > 0, "{settled} {verified}");
    }

    #[test]
    fn copies_of_a_flag_around_a_shuffle_are_verified_not_guessed() {
        // Flag 0 and its copies at 2 and 4 have one left set each, but
        // the shuffling flags between them change its carried order, so
        // their left sums agree in the reals and may differ in the last
        // bits. The targets follow flag 0, so those copies are the best
        // splits; the bracket cannot tell them apart and must verify.
        let x: Vec<Vec<f32>> = flag_rows(300, 2, 11)
            .into_iter()
            .enumerate()
            .map(|(i, shuffles)| {
                let flag = f32::from(u8::from(i % 3 == 0));
                vec![flag, shuffles[0], flag, shuffles[1], flag]
            })
            .collect();
        let classes = per_distinct_row(&x).0;
        let stages: Vec<(Vec<f64>, Vec<f64>)> = (0..4)
            .map(|s| {
                let targets = classes
                    .iter()
                    .map(|r| {
                        let base = if r[0] == 1.0 { 0.7 } else { -0.3 };
                        base + f64::from(r[1] + 2.0 * r[3]) / (7.0 + s as f64)
                    })
                    .collect();
                (targets, vec![0.3; classes.len()])
            })
            .collect();
        let [_, verified] = assert_stages_equal_exact(
            &x,
            &stages,
            &TreeConfig { max_depth: 2, min_samples_leaf: 1 },
        );
        assert!(verified > 0, "the copies' near-tie must be verified");
    }

    #[test]
    fn equal_sums_of_different_sets_are_verified_not_guessed() {
        // Flag 0's left set holds eight classes whose targets, ±a_i plus
        // tenths, sum to 0.6 per sample in the reals; flag 1's holds
        // eight other classes with the same targets in another order.
        // The big terms cancel, so the two left sums round apart, in the
        // chains and in the bracket's class sums alike, and not always
        // the same way. Both beat every split of the id feature 2, whose
        // left sets cancel their big terms too and mix in the rest's -1,
        // so the bracket's error terms must keep both open whichever
        // rounds higher.
        for m in (3..14).map(|e| 10f64.powi(e)) {
            let a = |i: u8| m * f64::from(i) / 7.0;
            let left: Vec<(u8, f64)> = (0..4)
                .flat_map(|i| [(2 * i, a(i + 1)), (2 * i + 1, f64::from(i) / 10.0 - a(i + 1))])
                .collect();
            let mirrored: Vec<(u8, f64)> = (0..4)
                .map(|i| (2 * i, f64::from(i) / 10.0 - a(i + 1)))
                .chain((0..4).map(|i| (2 * i + 1, a(i + 1))))
                .collect();
            let rest: Vec<(u8, f64)> = (0..8).map(|id| (id, -1.0)).collect();
            let mut x = Vec::new();
            let mut targets = Vec::new();
            for (flags, side) in [([0.0, 1.0], left), ([1.0, 0.0], mirrored), ([1.0, 1.0], rest)] {
                for (id, t) in side {
                    x.extend((0..40).map(|_| vec![flags[0], flags[1], f32::from(id)]));
                    targets.push(t);
                }
            }
            let stages = [(targets, vec![0.5; 24])];
            let [_, verified] = assert_stages_equal_exact(
                &x,
                &stages,
                &TreeConfig { max_depth: 1, min_samples_leaf: 1 },
            );
            assert!(verified > 0, "m = {m}: the equal sums' near-tie must be verified");
        }
    }

    #[test]
    fn non_finite_targets_verify_every_boundary() {
        // NaN, infinite and overflowing targets leave no finite bracket;
        // the search then verifies every boundary, which is the
        // reference. Leaves may be NaN, so trees compare as text.
        let x = flag_rows(200, 6, 3);
        let (rows, classes) = per_distinct_row(&x);
        let config = TreeConfig { max_depth: 3, min_samples_leaf: 1 };
        for poison in [f64::NAN, f64::INFINITY, 1e306] {
            let targets: Vec<f64> = (0..rows.len())
                .map(|c| if c % 5 == 1 { poison } else { (c % 7) as f64 / 3.0 - 1.0 })
                .collect();
            let hessians = vec![0.5; rows.len()];
            let data = BinnedDataset::build(&rows).expect("binnable input");
            let mut memo = NodeMemo::new(data, classes.clone(), config.clone());
            let expand = |v: &[f64]| classes.iter().map(|&c| v[c as usize]).collect::<Vec<_>>();
            let exact = RegressionTree::fit(&x, &expand(&targets), &expand(&hessians), &config);
            let grown = memo.grow(&targets, &hessians);
            assert_eq!(format!("{grown:?}"), format!("{exact:?}"), "targets with {poison}");
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // Boosting on nodes large enough to bracket: 100–500 samples over
        // a few prototypes, with binary and six-valued features, copies
        // of the first features after shuffling ones and mirror images
        // (whose splits tie their originals' in the reals), non-dyadic
        // targets and min_samples_leaf 1–3. Each stage fits the previous
        // stage's residuals, so the sums of later stages cancel heavily,
        // as boosting's gradients do.
        #[test]
        fn residual_stages_equal_the_reference_on_large_nodes(
            prototypes in proptest::collection::vec(
                proptest::collection::vec(0u8..6, 7),
                2usize..10,
            ),
            picks in proptest::collection::vec(0usize..64, 100usize..500),
            copies in 0usize..4,
            raw in proptest::collection::vec((-6i8..6, 0u8..7, 0u8..4), 10),
            stages in 2usize..6,
            max_depth in 1usize..5,
            min_leaf in 1usize..4,
        ) {
            let x: Vec<Vec<f32>> = picks
                .iter()
                .map(|&p| {
                    let row = &prototypes[p % prototypes.len()];
                    let mut x: Vec<f32> = row
                        .iter()
                        .enumerate()
                        .map(|(f, &v)| f32::from(if f % 2 == 0 { v % 2 } else { v }))
                        .collect();
                    x.extend_from_within(..copies);
                    x.extend([1.0 - x[0], 5.0 - x[1]]);
                    x
                })
                .collect();
            let (rows, classes) = per_distinct_row(&x);
            let raw = &raw[..rows.len()];
            let mut targets: Vec<f64> =
                raw.iter().map(|&(t, j, _)| f64::from(t) / 3.0 + f64::from(j) / 7.0).collect();
            let hessians: Vec<f64> =
                raw.iter().map(|&(_, _, h)| 0.5 + f64::from(h) / 3.0).collect();
            let config = TreeConfig { max_depth, min_samples_leaf: min_leaf };
            let data = BinnedDataset::build(&rows).expect("binnable input");
            let mut memo = NodeMemo::new(data, classes.clone(), config.clone());
            let expand = |v: &[f64]| classes.iter().map(|&c| v[c as usize]).collect::<Vec<_>>();
            for stage in 0..stages {
                let exact = RegressionTree::fit(&x, &expand(&targets), &expand(&hessians), &config);
                let grown = memo.grow(&targets, &hessians);
                proptest::prop_assert_eq!(&grown, &exact, "stage {}", stage);
                // Newton residuals: each leaf's members' sum to about 0.
                for ((t, h), row) in targets.iter_mut().zip(&hessians).zip(&rows) {
                    *t -= h * grown.predict(row);
                }
            }
        }

        // The bracket never closes the reference's winner, at any scale:
        // targets from subnormal to near overflow, with heavy cancellation
        // between large terms of both signs, over copies of features that
        // tie in the reals.
        #[test]
        fn the_bracket_never_closes_the_reference_winner(
            prototypes in proptest::collection::vec(
                proptest::collection::vec(0u8..4, 6),
                2usize..16,
            ),
            picks in proptest::collection::vec(0usize..64, 20usize..400),
            raw in proptest::collection::vec((-8i8..8, 0u8..16), 16),
            scale in 0usize..6,
            big in 0usize..3,
            min_leaf in 1usize..3,
        ) {
            let x: Vec<Vec<f32>> = picks
                .iter()
                .map(|&p| {
                    let mut row: Vec<f32> =
                        prototypes[p % prototypes.len()].iter().map(|&v| f32::from(v)).collect();
                    row.extend_from_within(..3);
                    row
                })
                .collect();
            let (rows, classes) = per_distinct_row(&x);
            let scale = [1e-310, 1e-160, 1e-3, 1.0, 1e150, 1e300][scale];
            let big = [1.0, 1e4, 1e8][big];
            let targets: Vec<f64> = raw[..rows.len()]
                .iter()
                .map(|&(t, j)| scale * (f64::from(t) * big + f64::from(j) / 7.0))
                .collect();
            let data = BinnedDataset::build(&rows).expect("binnable input");
            let config = TreeConfig { max_depth: 3, min_samples_leaf: min_leaf };
            let classes = classes.into_iter().map(u16::from_class).collect();
            let memo = Memo::<u16>::new(data, classes, config);
            let members = &memo.nodes[0].members;
            let scans = memo.scan(members);
            let winner = scans.verify(&targets, members, None);
            match (winner, scans.bracket(&targets, members.len())) {
                (Some(winner), Some(open)) => {
                    proptest::prop_assert!(open[winner], "closed {winner}");
                }
                (_, open) => proptest::prop_assert!(
                    winner.is_none() || open.is_none() && targets.iter().any(|t| t.abs() > 1e100),
                    "only huge targets leave the bracket unfinite"
                ),
            }
        }
    }
}
