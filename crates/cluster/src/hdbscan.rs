//! HDBSCAN* — hierarchical density-based clustering (Campello, Moulavi,
//! Zimek, Sander 2015), implemented in full:
//!
//! 1. pairwise distances into one dense n×n matrix, one distance call
//!    per ordered pair,
//! 2. core distances (k-NN with `k = min_samples`, self included), read
//!    from the matrix's rows,
//! 3. mutual-reachability distances, written over the same matrix,
//! 4. minimum spanning tree over the mutual-reachability graph (Prim,
//!    dense O(n²) — the paper clusters *tables*, so n is at most a few
//!    thousand),
//! 5. single-linkage dendrogram,
//! 6. condensed tree with `min_cluster_size`,
//! 7. excess-of-mass (EOM) cluster extraction by stability.
//!
//! The paper's domain folding runs this with `min_cluster_size = 2`
//! (§4.1.3); outlying tables come back as [`NOISE`] and are promoted to
//! singleton domain folds by the pipeline.

use crate::budget::{check_budget, dense_matrix_bytes, ScaleError};
use crate::linkage::{single_linkage, Merge};
use matelda_exec::Executor;
use std::sync::Mutex;

/// Label for points not assigned to any cluster.
pub const NOISE: isize = -1;

/// HDBSCAN configuration.
#[derive(Debug, Clone)]
pub struct HdbscanConfig {
    /// Smallest size a condensed cluster may have. The paper sets 2.
    pub min_cluster_size: usize,
    /// Neighborhood size for core distances; `None` means
    /// `min_cluster_size` (the library default).
    pub min_samples: Option<usize>,
    /// If true, the dendrogram root itself may be selected when it is the
    /// most stable cluster (library's `allow_single_cluster`).
    pub allow_single_cluster: bool,
}

impl Default for HdbscanConfig {
    fn default() -> Self {
        Self { min_cluster_size: 2, min_samples: None, allow_single_cluster: false }
    }
}

/// The HDBSCAN* estimator.
///
/// ```
/// use matelda_cluster::matrix::euclidean;
/// use matelda_cluster::{Hdbscan, NOISE};
/// use matelda_exec::Executor;
/// let points = vec![
///     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],
///     vec![9.0, 9.0], vec![9.1, 9.0], vec![9.0, 9.1],
///     vec![100.0, -50.0], // loner
/// ];
/// let dist = |a: usize, b: usize| euclidean(&points[a], &points[b]);
/// let labels = Hdbscan::default().fit(points.len(), dist, &Executor::single(), None).unwrap();
/// assert_eq!(labels[0], labels[1]);
/// assert_ne!(labels[0], labels[3]);
/// assert_eq!(labels[6], NOISE);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Hdbscan {
    config: HdbscanConfig,
}

/// One edge of the condensed tree.
#[derive(Debug, Clone, Copy)]
struct CondensedEdge {
    parent: usize,
    child: usize,
    lambda: f64,
    size: usize,
}

impl Hdbscan {
    /// Creates an estimator with the given configuration.
    pub fn new(config: HdbscanConfig) -> Self {
        Self { config }
    }

    /// Clusters `n` items given a pairwise distance function. Returns one
    /// label per item; unclustered items get [`NOISE`]. Cluster labels are
    /// dense `0..k` and deterministic.
    ///
    /// The fit materializes one dense `n × n` f64 mutual-reachability
    /// matrix, so it first checks that matrix against `budget`: over
    /// budget the caller gets a [`ScaleError`] to degrade on, before
    /// anything is allocated (`None` disables the check). The matrix's
    /// rows are built in parallel blocks on `exec`, one `dist` call per
    /// ordered pair; per-row arithmetic is untouched and rows merge in
    /// index order, so labels are bit-identical at every thread count
    /// (Prim's edge selection itself stays sequential: each step consumes
    /// the previous one's tree).
    pub fn fit(
        &self,
        n: usize,
        dist: impl Fn(usize, usize) -> f64 + Sync,
        exec: &Executor,
        budget: Option<u64>,
    ) -> Result<Vec<isize>, ScaleError> {
        check_budget("hdbscan mutual-reachability matrix", dense_matrix_bytes(n), budget)?;
        if n <= 1 {
            return Ok(vec![NOISE; n]);
        }
        let mcs = self.config.min_cluster_size.max(2);
        let min_samples = self.config.min_samples.unwrap_or(mcs).max(1).min(n);
        let mreach = mutual_reachability(n, &dist, min_samples, exec);
        Ok(labels_from_mutual_reachability(n, &mreach, mcs, self.config.allow_single_cluster))
    }
}

/// Row-block size for the parallel core-distance and mutual-reachability
/// builds: each block's rows are independent, so results merge in row
/// order and match the serial loop bit for bit.
const HDBSCAN_ROW_BLOCK: usize = 32;

/// The mutual-reachability matrix `max(dist(a,b), core[a], core[b])`
/// with a zero diagonal, calling `dist` once per ordered pair.
///
/// The first pass writes each row's distances into the matrix and reads
/// the row's core distance — its `k`-th smallest value, the point itself
/// counted at distance 0 — from a copy of the row. The second pass, once
/// every core distance is known, turns each off-diagonal cell into
/// mutual reachability in place. Both passes run over row blocks on
/// `exec`. `dist` need not be symmetric, so every ordered pair is its own
/// call. Every cell is a pure function of its row's values and the core
/// distances (`max` over identical inputs is exact), so the matrix — and
/// everything downstream — is the same at every thread count.
fn mutual_reachability(
    n: usize,
    dist: &(impl Fn(usize, usize) -> f64 + Sync),
    k: usize,
    exec: &Executor,
) -> Vec<f64> {
    let mut matrix = vec![0.0f64; n * n];
    // `map_n` shares one closure among its tasks; a lock per row block,
    // never contended, hands each task its own rows to write.
    let blocks: Vec<Mutex<&mut [f64]>> =
        matrix.chunks_mut(HDBSCAN_ROW_BLOCK * n).map(Mutex::new).collect();
    let lock = |b: usize| blocks[b].lock().expect("unpoisoned: a panic in `dist` ends the fit");
    let core = exec
        .map_n(blocks.len(), |b| {
            let mut rows = lock(b);
            let mut sorted = Vec::with_capacity(n);
            let mut core = Vec::with_capacity(HDBSCAN_ROW_BLOCK);
            for (r, row) in rows.chunks_exact_mut(n).enumerate() {
                let i = b * HDBSCAN_ROW_BLOCK + r;
                for (j, d) in row.iter_mut().enumerate() {
                    *d = if i == j { 0.0 } else { dist(i, j) };
                }
                sorted.clear();
                sorted.extend_from_slice(row);
                sorted.select_nth_unstable_by(k - 1, |a, b| a.partial_cmp(b).expect("finite"));
                core.push(sorted[k - 1]);
            }
            core
        })
        .concat();
    exec.map_n(blocks.len(), |b| {
        let mut rows = lock(b);
        for (r, row) in rows.chunks_exact_mut(n).enumerate() {
            let i = b * HDBSCAN_ROW_BLOCK + r;
            for (j, d) in row.iter_mut().enumerate() {
                if i != j {
                    *d = d.max(core[i]).max(core[j]);
                }
            }
        }
    });
    drop(blocks);
    matrix
}

/// Steps 4-7 of the fit over the `n × n` mutual-reachability matrix
/// (`n >= 2`): one label per point, [`NOISE`] for the unclustered.
fn labels_from_mutual_reachability(
    n: usize,
    mreach: &[f64],
    mcs: usize,
    allow_single_cluster: bool,
) -> Vec<isize> {
    // 4. MST: Prim runs over cheap lookups.
    let mut edges = prim_mst(n, |a, b| mreach[a * n + b]);
    edges.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite distances"));

    // 5. Single-linkage dendrogram.
    let merges = single_linkage(n, &edges);

    // 6. Condensed tree.
    let condensed = condense(n, &merges, mcs);

    // 7. Stability + EOM extraction.
    extract_eom(n, &condensed, allow_single_cluster)
}

/// Dense Prim's algorithm; returns the n-1 MST edges.
fn prim_mst(n: usize, dist: impl Fn(usize, usize) -> f64) -> Vec<(usize, usize, f64)> {
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    let mut edges = Vec::with_capacity(n - 1);
    in_tree[0] = true;
    for j in 1..n {
        best[j] = dist(0, j);
        best_from[j] = 0;
    }
    for _ in 1..n {
        let (next, _) = best
            .iter()
            .enumerate()
            .filter(|(j, _)| !in_tree[*j])
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("unvisited node remains");
        in_tree[next] = true;
        edges.push((best_from[next], next, best[next]));
        for j in 0..n {
            if !in_tree[j] {
                let d = dist(next, j);
                if d < best[j] {
                    best[j] = d;
                    best_from[j] = next;
                }
            }
        }
    }
    edges
}

/// Converts a merge distance to a density lambda, guarding zero distances.
fn lambda_of(distance: f64) -> f64 {
    if distance <= 1e-12 {
        1e12
    } else {
        1.0 / distance
    }
}

/// Condenses the single-linkage dendrogram: splits that produce two
/// children of size >= `mcs` become new clusters; smaller children "fall
/// out" of the parent cluster point by point.
fn condense(n: usize, merges: &[Merge], mcs: usize) -> Vec<CondensedEdge> {
    let root = 2 * n - 2; // scipy node id of the last merge
    let node_size = |node: usize| if node < n { 1 } else { merges[node - n].size };
    let leaves_under = |node: usize| -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(x) = stack.pop() {
            if x < n {
                out.push(x);
            } else {
                let m = merges[x - n];
                stack.push(m.left);
                stack.push(m.right);
            }
        }
        out
    };

    let mut condensed = Vec::new();
    let mut next_label = n + 1;
    // (dendrogram node, condensed label of the cluster it belongs to)
    let mut stack: Vec<(usize, usize)> = vec![(root, n)];
    while let Some((node, label)) = stack.pop() {
        if node < n {
            continue;
        }
        let m = merges[node - n];
        let lambda = lambda_of(m.distance);
        let (ls, rs) = (node_size(m.left), node_size(m.right));
        match (ls >= mcs, rs >= mcs) {
            (true, true) => {
                let (cl, cr) = (next_label, next_label + 1);
                next_label += 2;
                condensed.push(CondensedEdge { parent: label, child: cl, lambda, size: ls });
                condensed.push(CondensedEdge { parent: label, child: cr, lambda, size: rs });
                stack.push((m.left, cl));
                stack.push((m.right, cr));
            }
            (true, false) => {
                for p in leaves_under(m.right) {
                    condensed.push(CondensedEdge { parent: label, child: p, lambda, size: 1 });
                }
                stack.push((m.left, label));
            }
            (false, true) => {
                for p in leaves_under(m.left) {
                    condensed.push(CondensedEdge { parent: label, child: p, lambda, size: 1 });
                }
                stack.push((m.right, label));
            }
            (false, false) => {
                for p in leaves_under(m.left).into_iter().chain(leaves_under(m.right)) {
                    condensed.push(CondensedEdge { parent: label, child: p, lambda, size: 1 });
                }
            }
        }
    }
    condensed
}

/// Excess-of-mass cluster extraction: computes stabilities over the
/// condensed tree, selects the most stable antichain, labels points.
fn extract_eom(n: usize, condensed: &[CondensedEdge], allow_single_cluster: bool) -> Vec<isize> {
    if condensed.is_empty() {
        return vec![NOISE; n];
    }
    let max_label = condensed.iter().map(|e| e.parent.max(e.child)).max().expect("non-empty") + 1;

    // Birth lambda of each cluster: lambda of the edge that created it;
    // the root (cluster n) is born at lambda 0.
    let mut birth = vec![0.0f64; max_label];
    let mut parent_of = vec![usize::MAX; max_label];
    for e in condensed {
        if e.child >= n {
            birth[e.child] = e.lambda;
            parent_of[e.child] = e.parent;
        }
    }

    // Stability: sum over departing mass of (lambda_departure - birth).
    let mut stability = vec![0.0f64; max_label];
    for e in condensed {
        stability[e.parent] += e.size as f64 * (e.lambda - birth[e.parent]);
    }

    // Children clusters of each cluster.
    let mut cluster_children: Vec<Vec<usize>> = vec![Vec::new(); max_label];
    for e in condensed {
        if e.child >= n {
            cluster_children[e.parent].push(e.child);
        }
    }

    // Bottom-up EOM: condensed labels are assigned increasing with depth,
    // so descending id order visits children before parents.
    let mut selected = vec![false; max_label];
    let mut propagated = vec![0.0f64; max_label];
    for c in (n..max_label).rev() {
        let child_sum: f64 = cluster_children[c].iter().map(|&ch| propagated[ch]).sum();
        let is_root = c == n;
        if (!is_root || allow_single_cluster)
            && (cluster_children[c].is_empty() || stability[c] >= child_sum)
        {
            selected[c] = true;
            propagated[c] = stability[c].max(child_sum);
        } else {
            selected[c] = false;
            propagated[c] = child_sum;
        }
    }
    // Enforce an antichain: deselect descendants of selected clusters.
    for c in n..max_label {
        if selected[c] {
            let mut stack = cluster_children[c].clone();
            while let Some(d) = stack.pop() {
                selected[d] = false;
                stack.extend(cluster_children[d].iter().copied());
            }
        }
    }

    // Compact selected ids to 0..k in id order (deterministic).
    let mut compact = vec![NOISE; max_label];
    let mut k = 0isize;
    for c in n..max_label {
        if selected[c] {
            compact[c] = k;
            k += 1;
        }
    }

    // Each point belongs to the nearest selected ancestor of the cluster
    // it fell out of; no selected ancestor -> noise.
    let mut labels = vec![NOISE; n];
    for e in condensed {
        if e.child < n {
            let mut c = e.parent;
            labels[e.child] = loop {
                if selected[c] {
                    break compact[c];
                }
                if parent_of[c] == usize::MAX {
                    break NOISE;
                }
                c = parent_of[c];
            };
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::euclidean;

    /// Clusters points under Euclidean distance, unbudgeted.
    fn cluster_points(h: &Hdbscan, points: &[Vec<f32>], exec: &Executor) -> Vec<isize> {
        let dist = |a: usize, b: usize| euclidean(&points[a], &points[b]);
        h.fit(points.len(), dist, exec, None).expect("no budget")
    }

    fn blob(center: (f32, f32), k: usize, spread: f32) -> Vec<Vec<f32>> {
        // Deterministic ring of points around the center.
        (0..k)
            .map(|i| {
                let a = i as f32 * 2.399963; // golden angle: no collinearity
                vec![
                    center.0 + spread * (1.0 + 0.1 * i as f32) * a.cos(),
                    center.1 + spread * (1.0 + 0.1 * i as f32) * a.sin(),
                ]
            })
            .collect()
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let h = Hdbscan::default();
        let single = Executor::single();
        assert!(cluster_points(&h, &[], &single).is_empty());
        assert_eq!(cluster_points(&h, &[vec![1.0, 2.0]], &single), vec![NOISE]);
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial_across_thread_counts() {
        // Large enough to span several row blocks of the parallel core /
        // reachability builds; includes noise points and two clusters.
        let mut pts = blob((0.0, 0.0), 40, 0.05);
        pts.extend(blob((10.0, 10.0), 40, 0.05));
        pts.push(vec![100.0, -50.0]);
        pts.push(vec![-80.0, 60.0]);
        let h = Hdbscan::new(HdbscanConfig { min_cluster_size: 4, ..Default::default() });
        let base = cluster_points(&h, &pts, &Executor::single());
        for threads in [2, 4, 8] {
            let exec = Executor::new(threads);
            assert_eq!(cluster_points(&h, &pts, &exec), base, "threads={threads}");
        }
    }

    #[test]
    fn budgeted_fit_checks_the_mutual_reachability_matrix() {
        let pts = blob((0.0, 0.0), 24, 0.05);
        let n = pts.len();
        let dist = |a: usize, b: usize| euclidean(&pts[a], &pts[b]);
        let h = Hdbscan::default();
        // One 24×24 f64 matrix = 4608 bytes; a budget one byte short
        // must refuse before allocating, the exact budget must pass
        // (inclusive boundary).
        let err = h.fit(n, dist, &Executor::single(), Some(24 * 24 * 8 - 1)).unwrap_err();
        assert_eq!(err.needed_bytes, 24 * 24 * 8);
        assert_eq!(err.budget_bytes, 24 * 24 * 8 - 1);
        // A budget that fits changes nothing: labels bit-identical to
        // the unbudgeted path at several thread counts.
        let base = h.fit(n, dist, &Executor::single(), None).unwrap();
        for threads in [1, 2, 4] {
            let budgeted = h.fit(n, dist, &Executor::new(threads), Some(24 * 24 * 8)).unwrap();
            assert_eq!(budgeted, base, "threads={threads}");
        }
    }

    #[test]
    fn two_well_separated_blobs() {
        let mut pts = blob((0.0, 0.0), 8, 0.05);
        pts.extend(blob((10.0, 10.0), 8, 0.05));
        let h = Hdbscan::new(HdbscanConfig { min_cluster_size: 3, ..Default::default() });
        let labels = cluster_points(&h, &pts, &Executor::single());
        let a = labels[0];
        let b = labels[8];
        assert_ne!(a, NOISE);
        assert_ne!(b, NOISE);
        assert_ne!(a, b);
        assert!(labels[..8].iter().all(|&l| l == a), "{labels:?}");
        assert!(labels[8..].iter().all(|&l| l == b), "{labels:?}");
    }

    #[test]
    fn far_outlier_is_noise() {
        let mut pts = blob((0.0, 0.0), 10, 0.05);
        pts.extend(blob((10.0, 0.0), 10, 0.05));
        pts.push(vec![500.0, 500.0]);
        let h = Hdbscan::new(HdbscanConfig { min_cluster_size: 4, ..Default::default() });
        let labels = cluster_points(&h, &pts, &Executor::single());
        assert_eq!(*labels.last().expect("non-empty"), NOISE, "{labels:?}");
        assert!(labels[..10].iter().all(|&l| l != NOISE));
    }

    #[test]
    fn min_cluster_size_two_pairs_tables() {
        // The paper's setting: clusters may be as small as two tables.
        let pts = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![50.0, 50.0],
            vec![50.1, 50.0],
            vec![-80.0, 90.0], // loner
        ];
        let labels = cluster_points(&Hdbscan::default(), &pts, &Executor::single());
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[0], NOISE);
        assert_eq!(labels[4], NOISE);
    }

    #[test]
    fn all_identical_points_single_cluster_when_allowed() {
        let pts = vec![vec![1.0, 1.0]; 6];
        let cfg = HdbscanConfig { allow_single_cluster: true, ..Default::default() };
        let labels = cluster_points(&Hdbscan::new(cfg), &pts, &Executor::single());
        assert!(labels.iter().all(|&l| l == 0), "{labels:?}");
    }

    #[test]
    fn three_blobs_three_clusters() {
        let mut pts = blob((0.0, 0.0), 6, 0.1);
        pts.extend(blob((20.0, 0.0), 6, 0.1));
        pts.extend(blob((0.0, 20.0), 6, 0.1));
        let h = Hdbscan::new(HdbscanConfig { min_cluster_size: 3, ..Default::default() });
        let labels = cluster_points(&h, &pts, &Executor::single());
        let distinct: std::collections::HashSet<_> =
            labels.iter().filter(|&&l| l != NOISE).collect();
        assert_eq!(distinct.len(), 3, "{labels:?}");
    }

    #[test]
    fn labels_are_dense_from_zero() {
        let mut pts = blob((0.0, 0.0), 5, 0.1);
        pts.extend(blob((30.0, 0.0), 5, 0.1));
        let h = Hdbscan::new(HdbscanConfig { min_cluster_size: 3, ..Default::default() });
        let labels = cluster_points(&h, &pts, &Executor::single());
        let mut seen: Vec<isize> = labels.iter().copied().filter(|&l| l != NOISE).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![0, 1]);
    }

    /// The two distance passes the fit used to make, kept verbatim as the
    /// reference: core distances with one `dist` call per ordered pair,
    /// then the mutual-reachability matrix with another.
    fn two_pass_core_distances(
        n: usize,
        dist: &(impl Fn(usize, usize) -> f64 + Sync),
        k: usize,
        exec: &Executor,
    ) -> Vec<f64> {
        let n_blocks = n.div_ceil(HDBSCAN_ROW_BLOCK);
        let blocks = exec.map_n(n_blocks, |b| {
            let lo = b * HDBSCAN_ROW_BLOCK;
            let hi = (lo + HDBSCAN_ROW_BLOCK).min(n);
            let mut out = Vec::with_capacity(hi - lo);
            let mut row = vec![0.0f64; n];
            for i in lo..hi {
                for (j, r) in row.iter_mut().enumerate() {
                    *r = if i == j { 0.0 } else { dist(i, j) };
                }
                // k-th smallest including self (k >= 1).
                let kth = k - 1;
                row.select_nth_unstable_by(kth, |a, b| a.partial_cmp(b).expect("finite"));
                out.push(row[kth]);
            }
            out
        });
        blocks.concat()
    }

    fn two_pass_mutual_reachability(
        n: usize,
        dist: &(impl Fn(usize, usize) -> f64 + Sync),
        core: &[f64],
        exec: &Executor,
    ) -> Vec<f64> {
        let n_blocks = n.div_ceil(HDBSCAN_ROW_BLOCK);
        let blocks = exec.map_n(n_blocks, |b| {
            let lo = b * HDBSCAN_ROW_BLOCK;
            let hi = (lo + HDBSCAN_ROW_BLOCK).min(n);
            let mut rows = vec![0.0f64; (hi - lo) * n];
            for i in lo..hi {
                let row = &mut rows[(i - lo) * n..(i - lo + 1) * n];
                for (j, r) in row.iter_mut().enumerate() {
                    *r = if i == j { 0.0 } else { dist(i, j).max(core[i]).max(core[j]) };
                }
            }
            rows
        });
        blocks.concat()
    }

    #[test]
    fn the_fit_calls_dist_once_per_ordered_pair() {
        let n = 70;
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let dist = |a: usize, b: usize| {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            (a as f64 - b as f64).abs()
        };
        for threads in [1, 3] {
            calls.store(0, std::sync::atomic::Ordering::Relaxed);
            let _ = Hdbscan::default().fit(n, dist, &Executor::new(threads), None);
            assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), n * (n - 1));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // The one-matrix construction is pinned to the two-pass reference
        // by the mutual-reachability matrix's bits and by the labels, at
        // 1 and 3 threads. Distances come from a random table: ties,
        // 0.0 and -0.0 among them, and about half the cases read it
        // asymmetrically (`dist(a, b) != dist(b, a)`).
        #[test]
        fn one_matrix_fit_equals_the_two_pass_reference(
            n in 2usize..75,
            raw in proptest::collection::vec((0u64..8, 0.0f64..10.0), 75 * 75),
            symmetric in 0usize..2,
            config in (2usize..5, 0usize..6, 0usize..2),
        ) {
            let value = |(s, v): (u64, f64)| match s {
                0 => 0.0,
                1 => -0.0,
                2 => 1.0,
                3 => 1.0 / 3.0,
                _ => v,
            };
            let table: Vec<f64> = raw.iter().copied().map(value).collect();
            let dist = |a: usize, b: usize| {
                let (a, b) = if symmetric == 1 { (a.min(b), a.max(b)) } else { (a, b) };
                table[a * n + b]
            };
            let (mcs, min_samples, allow_single_cluster) = config;
            let cfg = HdbscanConfig {
                min_cluster_size: mcs,
                min_samples: (min_samples > 0).then_some(min_samples),
                allow_single_cluster: allow_single_cluster == 1,
            };
            let k = cfg.min_samples.unwrap_or(mcs).max(1).min(n);
            let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            for threads in [1, 3] {
                let exec = Executor::new(threads);
                let core = two_pass_core_distances(n, &dist, k, &exec);
                let want = two_pass_mutual_reachability(n, &dist, &core, &exec);
                let got = mutual_reachability(n, &dist, k, &exec);
                proptest::prop_assert_eq!(bits(&got), bits(&want), "threads {}", threads);
                proptest::prop_assert_eq!(
                    Hdbscan::new(cfg.clone()).fit(n, dist, &exec, None).unwrap(),
                    labels_from_mutual_reachability(n, &want, mcs, cfg.allow_single_cluster),
                    "threads {}",
                    threads
                );
            }
        }
    }

    #[test]
    fn fit_with_custom_metric() {
        // Distance on a line given by index gaps.
        let d = |a: usize, b: usize| {
            let pos: [f64; 6] = [0.0, 0.2, 0.4, 10.0, 10.2, 10.4];
            pos[a] - pos[b]
        };
        let labels = Hdbscan::new(HdbscanConfig { min_cluster_size: 3, ..Default::default() })
            .fit(6, |a, b| d(a, b).abs(), &Executor::single(), None)
            .unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }
}
