//! Assembly of the unified 32-dim cell feature vector (Alg. 1 line 10).

use crate::outlier::{
    gaussian_flags_distinct, histogram_flags_distinct, histogram_flags_eq2_literal_distinct,
};
use crate::rules::{interned_rule_signals, RuleSignals};
use matelda_table::wire::{DecodeError, Reader, Writer};
use matelda_table::{InternedTable, Table};
use matelda_text::SpellChecker;
use std::collections::{HashMap, HashSet};

/// Dimensionality of the unified cell feature space: 9 histogram + 9
/// Gaussian + 1 typo + 3 structural FD + 5 `nv_LHS` + 5 `nv_RHS` + 1
/// missing-value flag.
///
/// The missing-value dimension is a documented deviation from the paper's
/// Alg. 1 line 10 (see DESIGN.md): in the single-table setting Raha's
/// bag-of-characters features make empty cells maximally distinctive,
/// but the paper's Aspell substitution (which we follow) has no words to
/// check in an empty cell and the outlier detectors only see emptiness in
/// numeric columns. One explicit nullness bit restores that visibility in
/// the unified space.
pub const FEATURE_DIM: usize = 33;
// `featurize_table` packs a cell's flags into one u64.
const _: () = assert!(FEATURE_DIM <= 64);

/// Offsets of the feature blocks within the vector.
pub mod layout {
    /// TF-histogram flags (9).
    pub const HISTOGRAM: usize = 0;
    /// Gaussian flags (9).
    pub const GAUSSIAN: usize = 9;
    /// Typo flag (1).
    pub const TYPO: usize = 18;
    /// Structural FD flags (3).
    pub const STRUCTURAL_FD: usize = 19;
    /// `nv_LHS` one-hot buckets (5).
    pub const NV_LHS: usize = 22;
    /// `nv_RHS` one-hot buckets (5).
    pub const NV_RHS: usize = 27;
    /// Missing-value flag (1).
    pub const NULL_FLAG: usize = 32;
}

/// Human-readable name of one dimension of the unified feature space.
///
/// The failure-analysis report uses these to say *which detector fired*
/// on a misclassified cell, so the names carry the detector's threshold
/// where one exists (the outlier blocks) and the bucket index where the
/// dimension is a one-hot slot (the `nv` blocks).
///
/// # Panics
/// Panics if `dim >= FEATURE_DIM` — there is no such dimension.
pub fn feature_name(dim: usize) -> String {
    use crate::outlier::{DIST_THRESHOLDS, TF_THRESHOLDS};
    assert!(dim < FEATURE_DIM, "feature dimension {dim} out of range");
    match dim {
        d if d < layout::GAUSSIAN => format!("tf_hist(θ={})", TF_THRESHOLDS[d - layout::HISTOGRAM]),
        d if d < layout::TYPO => format!("gaussian(θ={})", DIST_THRESHOLDS[d - layout::GAUSSIAN]),
        d if d == layout::TYPO => "typo".to_string(),
        d if d < layout::NV_LHS => {
            // The three Eq. 5 structural-FD directions, in layout order.
            const FD: [&str; 3] = ["a0→aj", "aj-1→aj", "aj→aj+1"];
            format!("fd_structural[{}]", FD[d - layout::STRUCTURAL_FD])
        }
        d if d < layout::NV_RHS => format!("nv_lhs[bucket {}]", d - layout::NV_LHS),
        d if d < layout::NULL_FLAG => format!("nv_rhs[bucket {}]", d - layout::NV_RHS),
        _ => "null_flag".to_string(),
    }
}

/// The names of every dimension that fired (value > 0) in one cell's
/// feature vector — what the failure-analysis report prints per
/// misclassified cell. `nv` one-hot buckets appear with their bucket
/// index; bucket 0 (the least-suspicious quantile) is suppressed so the
/// list shows *signals*, not the vector's baseline encoding.
pub fn fired_features(v: &[f32]) -> Vec<String> {
    v.iter()
        .enumerate()
        .filter(|&(d, &x)| x > 0.0 && d != layout::NV_LHS && d != layout::NV_RHS && d < FEATURE_DIM)
        .map(|(d, _)| feature_name(d))
        .collect()
}

/// The g3 tolerance of the `nv` rule set: a unary FD counts as a rule if
/// it holds on all but at most this fraction of rows (see
/// [`interned_rule_signals`]).
const RULE_G3_THRESHOLD: f64 = 0.3;

/// Which detector families contribute to the vector. Disabled families
/// are zeroed (not removed), so vector dimensionality — and therefore
/// cross-configuration comparability — is preserved. Implements the
/// paper's feature ablations (§4.5.3).
#[derive(Debug, Clone, Copy)]
pub struct FeatureConfig {
    /// Histogram + Gaussian outlier flags. Off = Matelda-NOD.
    pub outliers: bool,
    /// Dictionary typo flag. Off = Matelda-NTD.
    pub typos: bool,
    /// Structural FD flags and `nv` buckets. Off = Matelda-NRVD.
    pub rules: bool,
    /// Deviation ablation: use the literal Eq. 2 TF normalization instead
    /// of the max-count normalization this repo defaults to (DESIGN.md).
    pub tf_eq2_literal: bool,
    /// Deviation ablation: mark whole violating FD groups (Raha's
    /// convention) instead of only the minority rows.
    pub fd_whole_group: bool,
    /// Deviation ablation: drop the explicit missing-value dimension.
    pub no_null_flag: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        Self {
            outliers: true,
            typos: true,
            rules: true,
            tf_eq2_literal: false,
            fd_whole_group: false,
            no_null_flag: false,
        }
    }
}

impl FeatureConfig {
    /// Matelda-NOD: no outlier detectors.
    pub fn no_outliers() -> Self {
        Self { outliers: false, ..Self::default() }
    }

    /// Matelda-NTD: no typo detector.
    pub fn no_typos() -> Self {
        Self { typos: false, ..Self::default() }
    }

    /// Matelda-NRVD: no rule-violation detectors.
    pub fn no_rules() -> Self {
        Self { rules: false, ..Self::default() }
    }
}

/// The feature vectors of every cell of one table, dictionary-encoded:
/// each distinct vector is stored once in a pattern table, keyed by its
/// f32 bit pattern (so `-0.0` and every NaN payload are patterns of
/// their own), and each cell holds one `u32` code into it (row-major,
/// cell index = `row * n_cols + col`). Pipeline vectors are {0,1}
/// flags and a table holds few distinct ones, so a cell costs 4 bytes
/// plus its share of the pattern table (DESIGN.md §14). `get` still
/// hands out plain slices — of the pattern table — so the cluster/ML
/// kernels see the same bits as before.
#[derive(Debug, Clone)]
pub struct CellFeatures {
    /// Number of columns (for indexing).
    pub n_cols: usize,
    /// Number of rows.
    pub n_rows: usize,
    /// Values per cell ([`FEATURE_DIM`] for pipeline-produced features).
    pub dim: usize,
    /// Distinct vectors in first-seen (row-major) order, `dim` values each.
    pub(crate) patterns: Vec<f32>,
    /// Number of distinct vectors (`patterns.len() / dim` when `dim > 0`).
    n_patterns: usize,
    /// One code per cell, each `< n_patterns`.
    pub(crate) codes: Vec<u32>,
}

impl CellFeatures {
    /// Interns one key per cell (row-major): a key seen before reuses its
    /// code, a new one appends its vector, written by `unpack`.
    fn encode<K: Copy + Eq + std::hash::Hash>(
        n_cols: usize,
        n_rows: usize,
        dim: usize,
        keys: impl Iterator<Item = K>,
        mut unpack: impl FnMut(K, &mut Vec<f32>),
    ) -> Self {
        let mut index: HashMap<K, u32> = HashMap::new();
        let mut patterns = Vec::new();
        let codes = keys
            .map(|key| {
                let next = u32::try_from(index.len()).expect("under 2^32 distinct cell vectors");
                *index.entry(key).or_insert_with(|| {
                    unpack(key, &mut patterns);
                    next
                })
            })
            .collect();
        Self { n_cols, n_rows, dim, patterns, n_patterns: index.len(), codes }
    }

    /// An all-zero feature matrix of the given shape.
    pub fn zeros(n_cols: usize, n_rows: usize, dim: usize) -> Self {
        let cells = std::iter::repeat_n((), n_rows * n_cols);
        Self::encode(n_cols, n_rows, dim, cells, |(), p| p.extend(std::iter::repeat_n(0.0, dim)))
    }

    /// Builds from the flat row-major matrix (`n_rows * n_cols * dim`
    /// values).
    ///
    /// # Panics
    /// Panics if `data.len()` disagrees with the shape.
    pub fn from_flat(n_cols: usize, n_rows: usize, dim: usize, data: Vec<f32>) -> Self {
        let n_cells = n_rows * n_cols;
        assert_eq!(data.len(), n_cells * dim, "flat payload shape mismatch");
        let bits: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        let cells = (0..n_cells).map(|i| &bits[i * dim..(i + 1) * dim]);
        Self::encode(n_cols, n_rows, dim, cells, |row, p| {
            p.extend(row.iter().map(|&b| f32::from_bits(b)));
        })
    }

    /// Builds from one vector per cell (row-major cells). Convenience for
    /// tests and fixtures.
    ///
    /// # Panics
    /// Panics if the number of vectors is not `n_rows * n_cols` or their
    /// dimensions disagree.
    pub fn from_vectors(n_cols: usize, n_rows: usize, vectors: &[Vec<f32>]) -> Self {
        assert_eq!(vectors.len(), n_rows * n_cols, "cell count mismatch");
        let dim = vectors.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(vectors.len() * dim);
        for v in vectors {
            assert_eq!(v.len(), dim, "cell vector dimension mismatch");
            data.extend_from_slice(v);
        }
        Self::from_flat(n_cols, n_rows, dim, data)
    }

    /// The vector of cell `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> &[f32] {
        self.pattern(self.code(row, col))
    }

    /// The pattern code of cell `(row, col)`: cells share a code exactly
    /// when their vectors are bit-identical.
    pub fn code(&self, row: usize, col: usize) -> u32 {
        self.codes[row * self.n_cols + col]
    }

    /// The vector a code stands for.
    pub fn pattern(&self, code: u32) -> &[f32] {
        let at = code as usize * self.dim;
        &self.patterns[at..at + self.dim]
    }

    /// Number of distinct vectors; every code is below it.
    pub fn n_patterns(&self) -> usize {
        self.n_patterns
    }

    /// Number of cells (`n_rows * n_cols`).
    pub fn n_cells(&self) -> usize {
        self.n_rows * self.n_cols
    }

    /// Whether the table holds no cells.
    pub fn is_empty(&self) -> bool {
        self.n_cells() == 0
    }

    /// Total number of values the cells stand for (`n_cells() * dim`).
    pub fn n_values(&self) -> usize {
        self.n_cells() * self.dim
    }

    /// Iterates the cells row-major as `dim`-length slices.
    pub fn cells(&self) -> impl Iterator<Item = &[f32]> {
        self.codes.iter().map(|&c| self.pattern(c))
    }

    /// Appends the table's one binary encoding — the body of its `.mtf`
    /// spill and its section of the featurize snapshot:
    ///
    /// ```text
    /// n_cols | n_rows | dim | n_patterns      varints
    /// patterns                                one f32 run of n_patterns·dim values
    /// codes                                   n_rows·n_cols varints, row-major
    /// ```
    ///
    /// Pipeline patterns are {0,1} flags, so the pattern table packs to
    /// one bit per value ([`Writer::write_f32s`]).
    pub fn encode_into(&self, w: &mut Writer) {
        for n in [self.n_cols, self.n_rows, self.dim, self.n_patterns] {
            w.write_varint(n as u64);
        }
        w.write_f32s(&self.patterns);
        for &code in &self.codes {
            w.write_varint(u64::from(code));
        }
    }

    /// Decodes what [`CellFeatures::encode_into`] wrote, accepting only
    /// the canonical form this type builds — patterns pairwise distinct
    /// by bits, first used in code order (each code is at most one past
    /// the largest before it) and all used — so the bytes that decode are
    /// exactly the ones interning the same cell values writes, and
    /// decode-then-re-encode is byte-identical. The cell count is checked
    /// against the bytes left (a code takes at least one) before the
    /// codes are sized by it.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let malformed = |what: String| DecodeError::Malformed(format!("CellFeatures: {what}"));
        let mut shape = [0usize; 4];
        for n in &mut shape {
            *n = usize::try_from(r.read_varint()?)
                .map_err(|_| malformed("size exceeds the address space".into()))?;
        }
        let [n_cols, n_rows, dim, n_patterns] = shape;
        let patterns = r.read_f32s()?;
        if Some(patterns.len()) != n_patterns.checked_mul(dim) {
            return Err(malformed(format!("{} values for {n_patterns}x{dim}", patterns.len())));
        }
        let n_cells = n_rows
            .checked_mul(n_cols)
            .ok_or_else(|| malformed(format!("{n_rows}x{n_cols} cells overflow")))?;
        if n_cells > r.remaining() {
            return Err(DecodeError::LengthOverflow {
                len: n_cells as u64,
                remaining: r.remaining(),
            });
        }
        let mut codes = Vec::with_capacity(n_cells);
        let mut used = 0; // patterns first used so far
        for _ in 0..n_cells {
            let code = r.read_varint()?;
            if code > used || code >= n_patterns as u64 {
                return Err(malformed(format!("code {code} after {used} first uses")));
            }
            used += u64::from(code == used);
            codes.push(u32::try_from(code).map_err(|_| malformed("code exceeds u32".into()))?);
        }
        if used != n_patterns as u64 {
            return Err(malformed(format!("{used} of {n_patterns} patterns used")));
        }
        // With no dimensions, every cell holds the one empty pattern.
        let bits: Vec<u32> = patterns.iter().map(|v| v.to_bits()).collect();
        let mut seen = HashSet::with_capacity(n_patterns);
        let distinct = match dim {
            0 => n_patterns <= 1,
            _ => bits.chunks_exact(dim).all(|p| seen.insert(p)),
        };
        if !distinct {
            return Err(malformed("repeated pattern".into()));
        }
        Ok(Self { n_cols, n_rows, dim, patterns, n_patterns, codes })
    }

    /// Materializes the flat row-major matrix (one contiguous copy) —
    /// for equality checks and fixtures, not for hot paths.
    pub fn to_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.n_values());
        self.cells().for_each(|v| out.extend_from_slice(v));
        out
    }
}

/// Featurizes every cell of `table` into the unified space.
///
/// Zero-copy path: the table's columns are interned once (distinct
/// values plus per-row codes, borrowing the table's own strings), the
/// per-value detectors — TF-histogram ratios, numeric parsing and
/// z-tests, the spellchecker, the nullness test — run once per
/// *distinct* value into one flag word per value, scattered through the
/// codes into one `u64` of flags per cell, which the dictionary-encoded
/// [`CellFeatures`] interns. The rule detectors read the same interned
/// table through the FD pair kernel, one scan per ordered column pair
/// ([`interned_rule_signals`]). Bit-identical to featurizing each cell
/// independently (pinned by the equivalence proptest below): interning
/// preserves the value multiset, per-value counts, and row order, the
/// only order-sensitive accumulations (the Gaussian detector's f64
/// moments) still run in row order through the codes, and a set bit
/// unpacks to exactly the `1.0` the reference writes.
pub fn featurize_table(
    table: &Table,
    spell: &SpellChecker,
    config: &FeatureConfig,
) -> CellFeatures {
    let (n, m) = (table.n_rows(), table.n_cols());
    let interned = InternedTable::build(table);
    let flag = |dim: usize, on: bool| u64::from(on) << dim;
    let mut cells = vec![0u64; n * m];

    for (j, (col, icol)) in table.columns.iter().zip(&interned.columns).enumerate() {
        let mut words = vec![0u64; icol.n_distinct()];
        if config.outliers {
            let hist = if config.tf_eq2_literal {
                histogram_flags_eq2_literal_distinct(&icol.counts)
            } else {
                histogram_flags_distinct(&icol.counts)
            };
            let gauss = gaussian_flags_distinct(&icol.distinct, &icol.codes, col.data_type());
            for (w, (h, g)) in words.iter_mut().zip(hist.iter().zip(&gauss)) {
                for k in 0..9 {
                    *w |= flag(layout::HISTOGRAM + k, h[k]) | flag(layout::GAUSSIAN + k, g[k]);
                }
            }
        }
        for (w, v) in words.iter_mut().zip(&icol.distinct) {
            *w |= flag(layout::TYPO, config.typos && spell.flags_cell(v));
            // The nullness bit belongs to no ablatable detector family
            // (the paper's NOD/NTD/NRVD variants each keep it); only the
            // deviation ablation drops it.
            *w |= flag(layout::NULL_FLAG, !config.no_null_flag && matelda_table::value::is_null(v));
        }
        for (r, &code) in icol.codes.iter().enumerate() {
            cells[r * m + j] = words[code as usize];
        }
    }

    if config.rules && m > 0 {
        let RuleSignals { structural, nv_lhs_bucket, nv_rhs_bucket } =
            interned_rule_signals(&interned, RULE_G3_THRESHOLD, config.fd_whole_group);
        for j in 0..m {
            for r in 0..n {
                let w = &mut cells[r * m + j];
                for k in 0..3 {
                    *w |= flag(layout::STRUCTURAL_FD + k, structural[j][r][k]);
                }
                *w |= flag(layout::NV_LHS + nv_lhs_bucket[j][r], true);
                *w |= flag(layout::NV_RHS + nv_rhs_bucket[j][r], true);
            }
        }
    }

    CellFeatures::encode(m, n, FEATURE_DIM, cells.into_iter(), |w, p| {
        p.extend((0..FEATURE_DIM).map(|d| f32::from(u8::from((w >> d) & 1 == 1))));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::rule_signals_with;
    use matelda_table::Column;

    fn spell() -> SpellChecker {
        SpellChecker::english()
    }

    fn demo_table() -> Table {
        Table::new(
            "t",
            vec![
                Column::new("club", ["Real", "Real", "City", "City"]),
                Column::new("country", ["Spain", "France", "England", "England"]),
                Column::new("score", ["10", "12", "11", "900"]),
            ],
        )
    }

    #[test]
    fn vector_shape_and_layout() {
        let f = featurize_table(&demo_table(), &spell(), &FeatureConfig::default());
        assert_eq!(f.n_rows, 4);
        assert_eq!(f.n_cols, 3);
        assert_eq!(f.n_cells(), 12);
        assert_eq!(f.dim, FEATURE_DIM);
        assert_eq!(f.n_values(), 12 * FEATURE_DIM);
        // Every cell has exactly one nv bucket per side set.
        for v in f.cells() {
            let lhs: f32 = v[layout::NV_LHS..layout::NV_LHS + 5].iter().sum();
            let rhs: f32 = v[layout::NV_RHS..layout::NV_RHS + 5].iter().sum();
            assert_eq!(lhs, 1.0);
            assert_eq!(rhs, 1.0);
        }
    }

    #[test]
    fn numeric_outlier_shows_in_gaussian_block() {
        let f = featurize_table(&demo_table(), &spell(), &FeatureConfig::default());
        let outlier = f.get(3, 2);
        let inlier = f.get(0, 2);
        let sum = |v: &[f32]| v[layout::GAUSSIAN..layout::GAUSSIAN + 9].iter().sum::<f32>();
        assert!(sum(outlier) > sum(inlier));
    }

    #[test]
    fn fd_violation_shows_in_structural_block() {
        let f = featurize_table(&demo_table(), &spell(), &FeatureConfig::default());
        // The Real group disagrees on country (Spain vs France); the
        // 1-vs-1 tie breaks to "France", so row 0 (Spain) is the minority
        // cell that gets flagged. Row 2's City group is consistent.
        let dirty = f.get(0, 1);
        let clean = f.get(2, 1);
        assert_eq!(dirty[layout::STRUCTURAL_FD + 1], 1.0);
        assert_eq!(clean[layout::STRUCTURAL_FD + 1], 0.0);
    }

    #[test]
    fn ablations_zero_their_blocks() {
        let t = demo_table();
        let sp = spell();
        let nod = featurize_table(&t, &sp, &FeatureConfig::no_outliers());
        for v in nod.cells() {
            assert!(v[layout::HISTOGRAM..layout::TYPO].iter().all(|x| *x == 0.0));
        }
        let ntd = featurize_table(&t, &sp, &FeatureConfig::no_typos());
        for v in ntd.cells() {
            assert_eq!(v[layout::TYPO], 0.0);
        }
        let nrvd = featurize_table(&t, &sp, &FeatureConfig::no_rules());
        for v in nrvd.cells() {
            assert!(v[layout::STRUCTURAL_FD..layout::NULL_FLAG].iter().all(|x| *x == 0.0));
        }
    }

    #[test]
    fn feature_names_cover_every_dimension() {
        let names: Vec<String> = (0..FEATURE_DIM).map(feature_name).collect();
        // Unique, and the block boundaries carry the right labels.
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), FEATURE_DIM, "duplicate feature names: {names:?}");
        assert_eq!(names[layout::HISTOGRAM], "tf_hist(θ=0.1)");
        assert_eq!(names[layout::GAUSSIAN], "gaussian(θ=1)");
        assert_eq!(names[layout::TYPO], "typo");
        assert_eq!(names[layout::STRUCTURAL_FD], "fd_structural[a0→aj]");
        assert_eq!(names[layout::NV_LHS + 2], "nv_lhs[bucket 2]");
        assert_eq!(names[layout::NULL_FLAG], "null_flag");
    }

    #[test]
    fn fired_features_names_the_active_detectors() {
        let t = Table::new("t", vec![Column::new("genre", ["drama", "derama", "crime"])]);
        let f = featurize_table(&t, &spell(), &FeatureConfig::default());
        let fired = fired_features(f.get(1, 0));
        assert!(fired.iter().any(|n| n == "typo"), "{fired:?}");
        // Baseline nv bucket 0 is suppressed — signals only.
        assert!(!fired.iter().any(|n| n.ends_with("[bucket 0]")), "{fired:?}");
    }

    #[test]
    fn typo_block_fires_on_unknown_words() {
        let t = Table::new("t", vec![Column::new("genre", ["drama", "derama", "crime"])]);
        let f = featurize_table(&t, &spell(), &FeatureConfig::default());
        assert_eq!(f.get(0, 0)[layout::TYPO], 0.0);
        assert_eq!(f.get(1, 0)[layout::TYPO], 1.0);
    }

    #[test]
    fn dictionary_store_keeps_each_distinct_vector_once() {
        // Six cells, four distinct vectors by bits: +0.0 and -0.0 differ,
        // and so do two NaNs with different payloads.
        let nan_a = f32::from_bits(0x7FC0_1234);
        let nan_b = f32::from_bits(0x7FC0_0001);
        let cells = [[1.0, 0.0], [1.0, -0.0], [1.0, 0.0], [nan_a, 1.0], [nan_b, 1.0], [nan_a, 1.0]];
        let flat: Vec<f32> = cells.iter().flatten().copied().collect();
        let f = CellFeatures::from_flat(3, 2, 2, flat.clone());
        assert_eq!(f.n_patterns(), 4);
        let codes: Vec<u32> =
            (0..2).flat_map(|r| (0..3).map(move |c| (r, c))).map(|(r, c)| f.code(r, c)).collect();
        assert_eq!(codes, vec![0, 1, 0, 2, 3, 2], "first-seen order, shared by equal bits");
        for (i, cell) in cells.iter().enumerate() {
            let got: Vec<u32> = f.get(i / 3, i % 3).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = cell.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "cell {i}");
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&f.to_flat()), bits(&flat));
        // Featurized tables share codes the same way: the demo table's 12
        // cells hold fewer distinct flag vectors, and re-encoding the flat
        // matrix reproduces the codes.
        let t = featurize_table(&demo_table(), &spell(), &FeatureConfig::default());
        assert!(t.n_patterns() < t.n_cells());
        let again = CellFeatures::from_flat(t.n_cols, t.n_rows, t.dim, t.to_flat());
        assert_eq!(again.codes, t.codes);
        assert_eq!(bits(&again.patterns), bits(&t.patterns));
    }

    #[test]
    fn only_the_canonical_dictionary_encoding_decodes() {
        // One row of three 2-value cells, written as given.
        let raw = |n_patterns: u64, patterns: &[f32], codes: [u64; 3]| {
            let mut w = Writer::new();
            [3, 1, 2, n_patterns].into_iter().for_each(|n| w.write_varint(n));
            w.write_f32s(patterns);
            codes.into_iter().for_each(|c| w.write_varint(c));
            w.into_bytes()
        };
        let decode = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            CellFeatures::decode_from(&mut r).and_then(|f| r.finish().map(|()| f))
        };
        let good = raw(2, &[1.0, 0.0, 0.0, 1.0], [0, 1, 0]);
        let f = decode(&good).expect("the canonical form decodes");
        assert_eq!(f.codes, vec![0, 1, 0]);
        let mut w = Writer::new();
        f.encode_into(&mut w);
        assert_eq!(w.into_bytes(), good);
        for (what, bytes) in [
            ("repeated pattern", raw(2, &[1.0, 0.0, 1.0, 0.0], [0, 1, 0])),
            ("unused pattern", raw(2, &[1.0, 0.0, 0.0, 1.0], [0, 0, 0])),
            ("code skipping first-seen order", raw(2, &[1.0, 0.0, 0.0, 1.0], [1, 0, 1])),
        ] {
            assert!(matches!(decode(&bytes), Err(DecodeError::Malformed(_))), "{what}");
        }
    }

    #[test]
    fn empty_table_yields_no_vectors() {
        let t = Table::new("t", vec![]);
        let f = featurize_table(&t, &spell(), &FeatureConfig::default());
        assert!(f.is_empty());
        assert_eq!(f.n_values(), 0);
    }

    #[test]
    fn cells_comparable_across_tables() {
        // The whole point of the unified space: equivalent dirtiness in
        // different tables should produce nearby vectors. Two tables with
        // disjoint schemata, each containing one numeric outlier.
        let t1 =
            Table::new("players", vec![Column::new("age", ["24", "23", "30", "1995", "31", "26"])]);
        let t2 = Table::new(
            "cities",
            vec![Column::new(
                "population",
                ["10000000", "10100000", "10200000", "10300000", "10400000", "99"],
            )],
        );
        let sp = spell();
        let cfg = FeatureConfig::default();
        let f1 = featurize_table(&t1, &sp, &cfg);
        let f2 = featurize_table(&t2, &sp, &cfg);
        let d = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt()
        };
        // outlier in t1 vs outlier in t2 closer than outlier vs inlier.
        let cross_outlier = d(f1.get(3, 0), f2.get(5, 0));
        let outlier_vs_inlier = d(f1.get(3, 0), f1.get(0, 0));
        assert!(
            cross_outlier < outlier_vs_inlier,
            "cross-table outliers {cross_outlier} vs within-table contrast {outlier_vs_inlier}"
        );
    }

    /// The pre-interning featurizer, kept verbatim as the equivalence
    /// reference: every detector runs per cell over the raw column
    /// values. The arena path must reproduce it bit for bit.
    fn reference_featurize(
        table: &Table,
        spell: &SpellChecker,
        config: &FeatureConfig,
    ) -> Vec<Vec<f32>> {
        use crate::outlier::{gaussian_flags, histogram_flags, histogram_flags_eq2_literal};
        use crate::typo::typo_flags;
        let (n, m) = (table.n_rows(), table.n_cols());
        let mut vectors = vec![vec![0.0f32; FEATURE_DIM]; n * m];
        if config.outliers {
            for (j, col) in table.columns.iter().enumerate() {
                let hist = if config.tf_eq2_literal {
                    histogram_flags_eq2_literal(&col.values)
                } else {
                    histogram_flags(&col.values)
                };
                let gauss = gaussian_flags(&col.values, col.data_type());
                for r in 0..n {
                    let v = &mut vectors[r * m + j];
                    for k in 0..9 {
                        v[layout::HISTOGRAM + k] = f32::from(u8::from(hist[r][k]));
                        v[layout::GAUSSIAN + k] = f32::from(u8::from(gauss[r][k]));
                    }
                }
            }
        }
        if config.typos {
            for (j, col) in table.columns.iter().enumerate() {
                let flags = typo_flags(&col.values, spell);
                for (r, &flag) in flags.iter().enumerate() {
                    vectors[r * m + j][layout::TYPO] = f32::from(u8::from(flag));
                }
            }
        }
        if !config.no_null_flag {
            for (j, col) in table.columns.iter().enumerate() {
                for (r, v) in col.values.iter().enumerate() {
                    if matelda_table::value::is_null(v) {
                        vectors[r * m + j][layout::NULL_FLAG] = 1.0;
                    }
                }
            }
        }
        if config.rules && m > 0 {
            let RuleSignals { structural, nv_lhs_bucket, nv_rhs_bucket } =
                rule_signals_with(table, RULE_G3_THRESHOLD, config.fd_whole_group);
            for j in 0..m {
                for r in 0..n {
                    let v = &mut vectors[r * m + j];
                    for k in 0..3 {
                        v[layout::STRUCTURAL_FD + k] = f32::from(u8::from(structural[j][r][k]));
                    }
                    v[layout::NV_LHS + nv_lhs_bucket[j][r]] = 1.0;
                    v[layout::NV_RHS + nv_rhs_bucket[j][r]] = 1.0;
                }
            }
        }
        vectors
    }

    fn assert_matches_reference(table: &Table, config: &FeatureConfig) {
        let sp = spell();
        let fast = featurize_table(table, &sp, config);
        let slow = reference_featurize(table, &sp, config);
        assert_eq!(fast.n_cells(), slow.len());
        for (got, want) in fast.cells().zip(&slow) {
            assert_eq!(got, want.as_slice());
        }
    }

    #[test]
    fn arena_featurize_matches_per_cell_reference_on_demo() {
        for config in [
            FeatureConfig::default(),
            FeatureConfig::no_outliers(),
            FeatureConfig::no_typos(),
            FeatureConfig::no_rules(),
            FeatureConfig { tf_eq2_literal: true, ..FeatureConfig::default() },
            FeatureConfig { fd_whole_group: true, ..FeatureConfig::default() },
            FeatureConfig { no_null_flag: true, ..FeatureConfig::default() },
        ] {
            assert_matches_reference(&demo_table(), &config);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // The dictionary store is lossless on any f32 bits: cells drawn
        // from a small palette of arbitrary bit patterns (so NaN
        // payloads, infinities and -0.0 all occur, and repeat) come back
        // from `to_flat` bit for bit, every code is below `n_patterns`,
        // and no two patterns share bits.
        #[test]
        fn from_flat_to_flat_is_bit_identical_and_codes_are_in_range(
            palette in proptest::collection::vec(
                proptest::collection::vec(0u64..u64::MAX, 3),
                1..5,
            ),
            picks in proptest::collection::vec(0usize..8, 0..24),
            n_cols in 1usize..4,
        ) {
            let palette: Vec<Vec<u32>> = palette
                .iter()
                .map(|v| v.iter().map(|&b| if b % 5 == 0 { 0x8000_0000 } else { b as u32 }).collect())
                .collect();
            let n_rows = picks.len() / n_cols;
            let bits: Vec<u32> = picks[..n_rows * n_cols]
                .iter()
                .flat_map(|&p| palette[p % palette.len()].iter().copied())
                .collect();
            let flat = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let f = CellFeatures::from_flat(n_cols, n_rows, 3, flat);
            let back: Vec<u32> = f.to_flat().iter().map(|v| v.to_bits()).collect();
            proptest::prop_assert_eq!(back, bits);
            proptest::prop_assert!(f.n_patterns() <= palette.len().min(f.n_cells()));
            proptest::prop_assert!(f.codes.iter().all(|&c| (c as usize) < f.n_patterns()));
            let mut keys: Vec<Vec<u32>> = (0..f.n_patterns() as u32)
                .map(|c| f.pattern(c).iter().map(|v| v.to_bits()).collect())
                .collect();
            keys.sort();
            keys.dedup();
            proptest::prop_assert_eq!(keys.len(), f.n_patterns());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        // The interned/arena featurizer is pinned to the per-cell
        // reference: identical flat output for arbitrary small tables
        // mixing repeated strings, numerics, nulls, and typos.
        #[test]
        fn arena_featurize_matches_per_cell_reference(
            cols in proptest::collection::vec(
                proptest::collection::vec(0usize..10, 2..12),
                1..4,
            ),
            tf_eq2_raw in 0u8..2,
        ) {
            // A palette exercising every detector family: repeats, a
            // numeric run, an unparsable money string, nulls, typos.
            const PALETTE: [&str; 10] = [
                "drama", "derama", "10", "12", "900", "$13", "", "NULL", "crime", "10",
            ];
            let n_rows = cols.iter().map(Vec::len).min().unwrap_or(0);
            let table = Table::new(
                "p",
                cols.iter()
                    .enumerate()
                    .map(|(j, rows)| {
                        Column::new(
                            format!("c{j}"),
                            rows[..n_rows].iter().map(|&v| PALETTE[v].to_string()),
                        )
                    })
                    .collect(),
            );
            // Small dictionary: equivalence does not depend on dictionary
            // contents, and skipping the full English load keeps the 48
            // proptest cases fast.
            let sp = SpellChecker::from_words(["drama", "crime"]);
            let config =
                FeatureConfig { tf_eq2_literal: tf_eq2_raw == 1, ..FeatureConfig::default() };
            let fast = featurize_table(&table, &sp, &config);
            let slow = reference_featurize(&table, &sp, &config);
            proptest::prop_assert_eq!(fast.n_cells(), slow.len());
            for (got, want) in fast.cells().zip(&slow) {
                proptest::prop_assert_eq!(got, want.as_slice());
            }
        }
    }
}
