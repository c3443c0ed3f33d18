//! Binary gradient boosting with logistic loss (Friedman 2001).
//!
//! This is the per-column classifier of Matelda's step 5 and of the Raha
//! baseline: given propagated labels over a column's cells (unified feature
//! vectors), predict the error probability of every cell.

use crate::binned::BinnedDataset;
use crate::memo::NodeMemo;
use crate::tree::{RegressionTree, TreeConfig};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// Gradient boosting hyperparameters. Defaults mirror the spirit of
/// scikit-learn's `GradientBoostingClassifier` (shrinkage 0.1, shallow
/// trees), which the paper uses with default parameters (§4.1.3).
#[derive(Debug, Clone)]
pub struct GradientBoostingConfig {
    /// Number of boosting stages.
    pub n_trees: usize,
    /// Shrinkage applied to each stage's contribution.
    pub learning_rate: f64,
    /// Depth of each stage's tree.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
}

impl Default for GradientBoostingConfig {
    fn default() -> Self {
        Self { n_trees: 50, learning_rate: 0.1, max_depth: 3, min_samples_leaf: 1 }
    }
}

/// A fitted binary gradient boosting classifier.
///
/// ```
/// use matelda_ml::{GradientBoostingClassifier, GradientBoostingConfig};
/// let x: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
/// let y: Vec<bool> = (0..20).map(|i| i >= 10).collect();
/// let model = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
/// assert!(model.predict(&[15.0]));
/// assert!(!model.predict(&[2.0]));
/// ```
#[derive(Debug, Clone)]
pub struct GradientBoostingClassifier {
    base_score: f64,
    trees: Vec<RegressionTree>,
    learning_rate: f64,
    used_binned: bool,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// A sample's feature row, compared and hashed by its f32 bits (so
/// `-0.0` and `0.0` differ and a NaN equals itself), and its label.
struct ClassKey<'a>(&'a [f32], bool);

impl Hash for ClassKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Two values per write: half the hasher calls of one per value.
        let mut pairs = self.0.chunks_exact(2);
        for pair in &mut pairs {
            state.write_u64(u64::from(pair[0].to_bits()) << 32 | u64::from(pair[1].to_bits()));
        }
        for v in pairs.remainder() {
            state.write_u64(u64::from(v.to_bits()));
        }
        state.write_u64(u64::from(self.1));
    }
}

impl PartialEq for ClassKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.1 == other.1
            && self.0.len() == other.0.len()
            && self.0.iter().zip(other.0).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for ClassKey<'_> {}

/// A multiply-fold hasher for [`ClassKey`]s: each 64-bit word is mixed
/// in with one 64×64→128-bit multiply whose halves are folded together.
/// A row of 33 features is 17 words, where std's SipHash spent most of
/// the grouping's time.
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FoldHasher`]s from a seed drawn from std's random keys once
/// per map, so rows cannot be chosen to collide in advance.
struct FoldState(u64);

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.0)
    }
}

/// Groups samples into classes of bit-identical rows with equal labels,
/// numbered in first-seen order: each sample's class, and each class's
/// first sample.
fn classes<R: AsRef<[f32]>>(x: &[R], y: &[bool]) -> (Vec<u32>, Vec<usize>) {
    let seed = RandomState::new().hash_one(0u8);
    let mut index: HashMap<ClassKey<'_>, u32, FoldState> = HashMap::with_hasher(FoldState(seed));
    let mut firsts = Vec::new();
    let classes = x
        .iter()
        .zip(y)
        .enumerate()
        .map(|(i, (row, &label))| {
            let next = u32::try_from(firsts.len()).expect("under 2^32 classes");
            *index.entry(ClassKey(row.as_ref(), label)).or_insert_with(|| {
                firsts.push(i);
                next
            })
        })
        .collect();
    (classes, firsts)
}

impl GradientBoostingClassifier {
    /// Fits on `x` (row-major features) and boolean labels (`true` =
    /// positive / erroneous).
    ///
    /// Degenerate inputs are handled the way the pipeline needs them to
    /// be: with a single class (or no samples) the model collapses to a
    /// constant predictor at the empirical rate.
    ///
    /// Samples with bit-identical rows and equal labels share every
    /// margin, gradient and hessian, so boosting computes those, each
    /// stage's margin update and the binning once per such class, and
    /// grows every stage's tree with one node memo. The trees equal
    /// the per-sample exact reference's bit for bit. Rows that are not
    /// losslessly binnable (>256 distinct values in a feature, NaN) fall
    /// back to [`RegressionTree::fit`] on the samples.
    pub fn fit<R: AsRef<[f32]>>(x: &[R], y: &[bool], config: &GradientBoostingConfig) -> Self {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        let n = x.len();
        let pos = y.iter().filter(|b| **b).count();

        // Prior log-odds, clamped away from ±inf for single-class data.
        // With no data at all, default to "clean" (negative class): in the
        // pipeline an untrained column classifier must not flood the
        // predictions with false positives.
        let p0 = if n == 0 {
            1e-6
        } else {
            ((pos as f64 + 0.5) / (n as f64 + 1.0)).clamp(1e-6, 1.0 - 1e-6)
        };
        let base_score = (p0 / (1.0 - p0)).ln();
        let mut model = Self {
            base_score,
            trees: Vec::new(),
            learning_rate: config.learning_rate,
            used_binned: false,
        };
        if n == 0 || pos == 0 || pos == n {
            // Constant predictor: nothing for boosting to learn.
            return model;
        }

        let (classes, firsts) = classes(x, y);
        let rows: Vec<&[f32]> = firsts.iter().map(|&i| x[i].as_ref()).collect();
        let tree_config =
            TreeConfig { max_depth: config.max_depth, min_samples_leaf: config.min_samples_leaf };
        // `classes` stays only for the exact fallback, which expands the
        // per-class targets to one per sample.
        let (mut memo, classes) = match BinnedDataset::build(&rows) {
            Some(data) => (Some(NodeMemo::new(data, classes, tree_config.clone())), Vec::new()),
            None => (None, classes),
        };
        model.used_binned = memo.is_some();

        let mut margins = vec![base_score; rows.len()];
        let mut gradients = vec![0.0f64; rows.len()];
        let mut hessians = vec![0.0f64; rows.len()];
        for _ in 0..config.n_trees {
            for (c, &first) in firsts.iter().enumerate() {
                let p = sigmoid(margins[c]);
                gradients[c] = f64::from(u8::from(y[first])) - p; // y - p
                hessians[c] = (p * (1.0 - p)).max(1e-9);
            }
            let tree = match &mut memo {
                Some(memo) => memo.grow(&gradients, &hessians),
                None => {
                    let per_sample = |v: &[f64]| -> Vec<f64> {
                        classes.iter().map(|&c| v[c as usize]).collect()
                    };
                    let (g, h) = (per_sample(&gradients), per_sample(&hessians));
                    RegressionTree::fit(x, &g, &h, &tree_config)
                }
            };
            if tree.n_nodes() == 1 && model.trees.len() > 1 {
                // A stump-less tree means the gradients are no longer
                // separable — further stages would add constant shifts.
                let delta = tree.predict(rows[0]);
                if delta.abs() < 1e-9 {
                    break;
                }
            }
            for (m, row) in margins.iter_mut().zip(&rows) {
                *m += config.learning_rate * tree.predict(row);
            }
            model.trees.push(tree);
        }
        model
    }

    /// Probability that `sample` is positive.
    pub fn predict_proba(&self, sample: &[f32]) -> f64 {
        let margin: f64 = self.base_score
            + self.learning_rate * self.trees.iter().map(|t| t.predict(sample)).sum::<f64>();
        sigmoid(margin)
    }

    /// Hard decision at the 0.5 threshold.
    pub fn predict(&self, sample: &[f32]) -> bool {
        self.predict_proba(sample) >= 0.5
    }

    /// Number of fitted boosting stages.
    pub fn n_stages(&self) -> usize {
        self.trees.len()
    }

    /// Whether training ran on the memoized grower over binned rows
    /// rather than the exact-split fallback. Surfaced as an obs metric by
    /// the classify stage.
    pub fn used_binned(&self) -> bool {
        self.used_binned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..8 {
                    x.push(vec![a as f32, b as f32]);
                    y.push((a ^ b) == 1);
                }
            }
        }
        (x, y)
    }

    #[test]
    fn learns_linearly_separable_data() {
        let x: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let y: Vec<bool> = (0..20).map(|i| i >= 10).collect();
        let m = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
        assert!(!m.predict(&[3.0]));
        assert!(m.predict(&[17.0]));
        assert!(m.predict_proba(&[0.0]) < 0.1);
        assert!(m.predict_proba(&[19.0]) > 0.9);
    }

    #[test]
    fn learns_xor_thanks_to_depth() {
        let (x, y) = xor_data();
        let m = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
        assert!(!m.predict(&[0.0, 0.0]));
        assert!(m.predict(&[0.0, 1.0]));
        assert!(m.predict(&[1.0, 0.0]));
        assert!(!m.predict(&[1.0, 1.0]));
    }

    #[test]
    fn single_class_collapses_to_constant() {
        let x = vec![vec![1.0f32], vec![2.0], vec![3.0]];
        let all_neg = vec![false; 3];
        let m = GradientBoostingClassifier::fit(&x, &all_neg, &GradientBoostingConfig::default());
        assert_eq!(m.n_stages(), 0);
        assert!(!m.predict(&[1.0]));
        assert!(m.predict_proba(&[99.0]) < 0.2);

        let all_pos = vec![true; 3];
        let m = GradientBoostingClassifier::fit(&x, &all_pos, &GradientBoostingConfig::default());
        assert!(m.predict(&[-5.0]));
    }

    #[test]
    fn empty_training_set_predicts_negative() {
        let m = GradientBoostingClassifier::fit::<Vec<f32>>(
            &[],
            &[],
            &GradientBoostingConfig::default(),
        );
        assert!(!m.predict(&[0.0]));
    }

    #[test]
    fn probabilities_are_calibrated_ordering() {
        // More positive-looking samples get higher probabilities.
        let x: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32 / 40.0]).collect();
        let y: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let m = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
        let p_low = m.predict_proba(&[0.1]);
        let p_mid = m.predict_proba(&[0.5]);
        let p_high = m.predict_proba(&[0.9]);
        assert!(p_low < p_mid || p_low < p_high);
        assert!(p_low < p_high);
    }

    #[test]
    fn class_imbalance_still_finds_minority() {
        // 5% positives concentrated in a feature corner — the class
        // imbalance situation §3.3.2 describes for error detection.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            let is_err = i % 20 == 0;
            x.push(vec![if is_err { 1.0 } else { 0.0 }, (i % 7) as f32]);
            y.push(is_err);
        }
        let m = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
        assert!(m.predict(&[1.0, 3.0]));
        assert!(!m.predict(&[0.0, 3.0]));
    }

    #[test]
    fn binnable_data_uses_the_memoized_grower() {
        let (x, y) = xor_data();
        let m = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
        assert!(m.used_binned(), "small-palette features must take the memoized grower");
    }

    #[test]
    fn high_cardinality_data_falls_back_to_exact_path() {
        // >256 distinct values in a column cannot be coded in u8 bins.
        let x: Vec<Vec<f32>> = (0..600).map(|i| vec![i as f32]).collect();
        let y: Vec<bool> = (0..600).map(|i| i >= 300).collect();
        let m = GradientBoostingClassifier::fit(&x, &y, &GradientBoostingConfig::default());
        assert!(!m.used_binned());
        assert!(!m.predict(&[3.0]));
        assert!(m.predict(&[500.0]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = GradientBoostingClassifier::fit(
            &[vec![0.0]],
            &[true, false],
            &GradientBoostingConfig::default(),
        );
    }

    /// `fit`'s boosting loop, one sample at a time, with every stage grown
    /// by the exact reference [`RegressionTree::fit`].
    fn fit_exact_reference(
        x: &[Vec<f32>],
        y: &[bool],
        config: &GradientBoostingConfig,
    ) -> GradientBoostingClassifier {
        let n = x.len();
        let pos = y.iter().filter(|b| **b).count();
        let p0 = ((pos as f64 + 0.5) / (n as f64 + 1.0)).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (p0 / (1.0 - p0)).ln();
        let mut model = GradientBoostingClassifier {
            base_score,
            trees: Vec::new(),
            learning_rate: config.learning_rate,
            used_binned: false,
        };
        let tree_config =
            TreeConfig { max_depth: config.max_depth, min_samples_leaf: config.min_samples_leaf };
        let mut margins = vec![base_score; n];
        for _ in 0..config.n_trees {
            let p: Vec<f64> = margins.iter().map(|&m| sigmoid(m)).collect();
            let gradients: Vec<f64> =
                p.iter().zip(y).map(|(&p, &yi)| f64::from(u8::from(yi)) - p).collect();
            let hessians: Vec<f64> = p.iter().map(|&p| (p * (1.0 - p)).max(1e-9)).collect();
            let tree = RegressionTree::fit(x, &gradients, &hessians, &tree_config);
            if tree.n_nodes() == 1 && model.trees.len() > 1 && tree.predict(&x[0]).abs() < 1e-9 {
                break;
            }
            for (m, xi) in margins.iter_mut().zip(x) {
                *m += config.learning_rate * tree.predict(xi);
            }
            model.trees.push(tree);
        }
        model
    }

    fn assert_equals_exact_reference(x: &[Vec<f32>], y: &[bool], config: &GradientBoostingConfig) {
        let memoized = GradientBoostingClassifier::fit(x, y, config);
        let exact = fit_exact_reference(x, y, config);
        assert!(memoized.used_binned());
        assert_eq!(memoized.n_stages(), exact.n_stages());
        assert_eq!(memoized.trees, exact.trees);
        for sample in x {
            assert_eq!(
                memoized.predict_proba(sample).to_bits(),
                exact.predict_proba(sample).to_bits()
            );
        }
    }

    #[test]
    fn memoized_boosting_equals_exact_reference_on_tied_rows() {
        // Identical rows carry both labels (two classes of one row), and
        // -0.0 and +0.0 are equal values in different classes.
        let rows = [[0.0f32, 1.0, 0.0], [-0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..48 {
            x.push(rows[i % 4].to_vec());
            y.push(i % 3 == 0 || (i % 4 == 3 && i % 5 != 0));
        }
        let config = GradientBoostingConfig::default();
        assert_equals_exact_reference(&x, &y, &config);
        let deep = GradientBoostingConfig { max_depth: 4, min_samples_leaf: 2, ..config };
        assert_equals_exact_reference(&x, &y, &deep);

        // A NaN row is not binnable: the fit takes the exact path, whose
        // ordering contract rejects NaN with the reference's panic.
        x[5][1] = f32::NAN;
        let fit = std::panic::catch_unwind(|| GradientBoostingClassifier::fit(&x, &y, &config));
        let reference = std::panic::catch_unwind(|| fit_exact_reference(&x, &y, &config));
        let message = |e: Box<dyn std::any::Any + Send>| e.downcast_ref::<String>().cloned();
        let fit = message(fit.expect_err("NaN takes the exact path"));
        assert_eq!(fit, message(reference.expect_err("the reference rejects NaN")));
        assert_eq!(fit.as_deref(), Some("finite features"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        // Pins the memoized grower across all boosting stages — where one
        // memo serves every tree — to the exact reference, on {0,1} flag
        // rows like the pipeline's features.
        #[test]
        fn binned_boosting_equals_exact_reference_on_binary_flags(
            prototypes in proptest::collection::vec(
                proptest::collection::vec(0u8..2, 33),
                2usize..12,
            ),
            picks in proptest::collection::vec(0usize..64, 20usize..120),
            noise in proptest::collection::vec(0u8..8, 120),
        ) {
            let x: Vec<Vec<f32>> = picks
                .iter()
                .map(|&p| prototypes[p % prototypes.len()].iter().map(|&v| f32::from(v)).collect())
                .collect();
            // A noisy majority vote over three flags, with both classes.
            let mut y: Vec<bool> = x
                .iter()
                .zip(&noise)
                .map(|(r, &e)| (r[0] + r[1] + r[2] >= 2.0) != (e == 0))
                .collect();
            if y.iter().all(|&v| v == y[0]) {
                y[0] = !y[0];
            }
            let config = GradientBoostingConfig::default();
            let memoized = GradientBoostingClassifier::fit(&x, &y, &config);
            let exact = fit_exact_reference(&x, &y, &config);
            proptest::prop_assert!(memoized.used_binned());
            proptest::prop_assert_eq!(memoized.n_stages(), exact.n_stages());
            proptest::prop_assert_eq!(&memoized.trees, &exact.trees);
            for sample in &x {
                proptest::prop_assert_eq!(
                    memoized.predict_proba(sample).to_bits(),
                    exact.predict_proba(sample).to_bits()
                );
            }
        }
    }
}
