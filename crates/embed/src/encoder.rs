//! The signed feature-hashing text encoder (BERT substitute).
//!
//! The encoder reads a stream of text pieces — a table's cells,
//! row-major (Alg. 1 line 3) — as the words of their space-joined text:
//! tokens are maximal runs of alphanumeric characters, and the joining
//! space is never inside one, so streaming the cells yields the token
//! sequence of the serialized table without building it. Each token is
//! lowercased into one reused buffer (through `str::to_lowercase` when it
//! is not ASCII) and interned to an id once. Word n-grams up to
//! `max_word_ngram` are counted by id tuple, including those spanning
//! adjacent cells, and each distinct token's `^tok$` character trigrams
//! are expanded once and weighted by the token's count.
//!
//! Each feature is FNV-1a-hashed once, over the bytes of its string form
//! (`a_b` for a word bigram, `#abc` for a trigram), into a signed bucket.
//! Its term frequency is the f32 sum of one weight per occurrence (1 for
//! words, `trigram_weight` for trigrams), added one occurrence at a time.
//! Buckets are summed in the features' first-occurrence order: word
//! n-grams by `n`, each in stream order, then trigrams. One order means
//! a table's embedding has the same bits in every run and at every
//! thread count. The encoder's test
//! reference builds every feature string and counts them in an
//! insertion-ordered map; the pin compares bits.

use crate::vector::{l2_normalize, Vector};
use matelda_table::fingerprint::Fnv1a;
use matelda_table::Table;
use std::collections::HashMap;

/// Configuration of the [`HashedEncoder`].
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    /// Embedding dimensionality. 128 is plenty for the coarse domain
    /// separation this is used for; collisions are mitigated by the ±1
    /// hashing signs.
    pub dim: usize,
    /// Longest word n-gram to hash (1 = unigrams only).
    pub max_word_ngram: usize,
    /// Whether to also hash character trigrams (captures value *shape* —
    /// dates, codes, numeric formats — independent of vocabulary).
    pub char_trigrams: bool,
    /// Weight of character-trigram features relative to word features.
    pub trigram_weight: f32,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self { dim: 128, max_word_ngram: 2, char_trigrams: true, trigram_weight: 0.5 }
    }
}

/// Deterministic text encoder: hashed word n-grams + char trigrams with
/// sublinear tf weighting and L2 normalization.
///
/// Substitutes the paper's pre-trained BERT model for domain folding; see
/// the crate docs and DESIGN.md for the substitution argument.
#[derive(Debug, Clone, Default)]
pub struct HashedEncoder {
    config: EncoderConfig,
}

/// One distinct feature: its signed bucket and how often it occurred.
#[derive(Debug, Clone, Copy)]
struct Feature {
    bucket: usize,
    sign: f32,
    count: u64,
}

impl Feature {
    /// The signed feature-hashing trick (Weinberger et al.): the FNV-1a
    /// hash picks the bucket, its top bit the ±1 sign, so colliding
    /// features cancel in expectation instead of piling up.
    fn new(hash: &Fnv1a, dim: usize) -> Self {
        let h = hash.finish();
        let sign = if (h >> 63) & 1 == 0 { 1.0 } else { -1.0 };
        Self { bucket: (h % dim as u64) as usize, sign, count: 0 }
    }
}

/// The feature counts of one [`HashedEncoder::encode`] call. Its maps
/// are looked up, never iterated: their seeded hashes (which keep
/// crafted cell text from colliding) cannot reach the vector.
struct Counts {
    dim: usize,
    max_n: usize,
    /// Lowercased token → id, ids in first-occurrence order.
    token_ids: HashMap<Box<str>, u32>,
    /// Each token's lowercased text, by id.
    token_text: Vec<Box<str>>,
    /// `words[n - 1]`: the word n-grams in first-occurrence order;
    /// `words[0]` is indexed by token id (its counts are token counts).
    words: Vec<Vec<Feature>>,
    /// A word n-gram (`n ≥ 2`) as its id tuple → index into `words[n - 1]`.
    gram_ids: HashMap<Box<[u32]>, u32>,
    /// The ids of the last `max_n - 1` tokens, oldest first.
    recent: Vec<u32>,
    /// Reused buffers: the lowercased token and an n-gram's id tuple.
    lower: String,
    gram: Vec<u32>,
}

impl Counts {
    fn new(dim: usize, max_n: usize) -> Self {
        Self {
            dim,
            max_n,
            token_ids: HashMap::new(),
            token_text: Vec::new(),
            words: vec![Vec::new(); max_n.max(1)],
            gram_ids: HashMap::new(),
            recent: Vec::new(),
            lower: String::new(),
            gram: Vec::new(),
        }
    }

    /// Counts every token of one text piece and the word n-grams that
    /// end at each.
    fn add_piece(&mut self, piece: &str) {
        for raw in piece.split(|c: char| !c.is_alphanumeric()).filter(|t| !t.is_empty()) {
            self.lower.clear();
            if raw.is_ascii() {
                self.lower.push_str(raw);
                self.lower.make_ascii_lowercase();
            } else {
                self.lower.push_str(&raw.to_lowercase());
            }
            let id = self.token_id();
            self.words[0][id as usize].count += 1;
            for n in 2..=self.max_n.min(self.recent.len() + 1) {
                self.gram.clear();
                self.gram.extend_from_slice(&self.recent[self.recent.len() + 1 - n..]);
                self.gram.push(id);
                self.count_gram();
            }
            if self.max_n > 1 {
                if self.recent.len() == self.max_n - 1 {
                    self.recent.remove(0);
                }
                self.recent.push(id);
            }
        }
    }

    /// The id of the token in `lower`, interning it on first sight.
    fn token_id(&mut self) -> u32 {
        if let Some(&id) = self.token_ids.get(self.lower.as_str()) {
            return id;
        }
        let id = self.token_text.len() as u32;
        let mut hash = Fnv1a::new();
        hash.write_bytes(self.lower.as_bytes());
        self.words[0].push(Feature::new(&hash, self.dim));
        self.token_ids.insert(self.lower.as_str().into(), id);
        self.token_text.push(self.lower.as_str().into());
        id
    }

    /// Counts the word n-gram in `gram`, hashing `a_b_…` on first sight.
    fn count_gram(&mut self) {
        let n = self.gram.len();
        let slot = match self.gram_ids.get(self.gram.as_slice()) {
            Some(&slot) => slot,
            None => {
                let mut hash = Fnv1a::new();
                for (i, &id) in self.gram.iter().enumerate() {
                    if i > 0 {
                        hash.write_bytes(b"_");
                    }
                    hash.write_bytes(self.token_text[id as usize].as_bytes());
                }
                let slot = self.words[n - 1].len() as u32;
                self.words[n - 1].push(Feature::new(&hash, self.dim));
                self.gram_ids.insert(self.gram.as_slice().into(), slot);
                slot
            }
        };
        self.words[n - 1][slot as usize].count += 1;
    }

    /// The character-trigram features: each distinct token's `^tok$`
    /// windows (of its text lowercased once more, as a per-token
    /// lowercase pass does), weighted by the token's count, in
    /// first-occurrence order.
    fn char_trigrams(&self) -> Vec<Feature> {
        let mut ids: HashMap<[char; 3], u32> = HashMap::new();
        let mut out: Vec<Feature> = Vec::new();
        let mut padded: Vec<char> = Vec::new();
        let mut utf8 = [0u8; 4];
        for (text, word) in self.token_text.iter().zip(&self.words[0]) {
            padded.clear();
            padded.push('^');
            if text.is_ascii() {
                padded.extend(text.chars());
            } else {
                padded.extend(text.to_lowercase().chars());
            }
            padded.push('$');
            // A token is never empty, so `padded` has at least 3 chars.
            for w in padded.windows(3) {
                let key = [w[0], w[1], w[2]];
                let slot = *ids.entry(key).or_insert_with(|| {
                    let mut hash = Fnv1a::new();
                    hash.write_bytes(b"#");
                    for c in key {
                        hash.write_bytes(c.encode_utf8(&mut utf8).as_bytes());
                    }
                    out.push(Feature::new(&hash, self.dim));
                    (out.len() - 1) as u32
                });
                out[slot as usize].count += word.count;
            }
        }
        out
    }
}

impl HashedEncoder {
    /// Creates an encoder with the given configuration.
    pub fn new(config: EncoderConfig) -> Self {
        Self { config }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Encodes a stream of text pieces, read as their space-joined text,
    /// into a unit-norm dense vector (all zeros when there is no token).
    pub fn encode<'p>(&self, pieces: impl IntoIterator<Item = &'p str>) -> Vector {
        let mut counts = Counts::new(self.config.dim, self.config.max_word_ngram);
        for piece in pieces {
            counts.add_piece(piece);
        }
        let mut v = vec![0.0f32; self.config.dim];
        let mut add = |f: &Feature, weight: f32| {
            // tf adds `weight` once per occurrence: an f32 sum, not a product.
            let tf = (0..f.count).fold(0.0f32, |sum, _| sum + weight);
            // Sublinear tf: repeated tokens saturate instead of dominating.
            v[f.bucket] += f.sign * (1.0 + tf.ln());
        };
        for f in counts.words.iter().take(self.config.max_word_ngram).flatten() {
            add(f, 1.0);
        }
        if self.config.char_trigrams {
            for f in &counts.char_trigrams() {
                add(f, self.config.trigram_weight);
            }
        }
        l2_normalize(&mut v);
        v
    }
}

/// Embeds a whole table: its cells streamed row-major (Alg. 1 line 3)
/// into the encoder (Alg. 1 line 4).
pub fn embed_table(encoder: &HashedEncoder, table: &Table) -> Vector {
    encoder.encode(
        (0..table.n_rows()).flat_map(|r| table.columns.iter().map(move |c| c.values[r].as_str())),
    )
}

/// Embeds a table from a row sample — the Matelda-RS variant (§4.5.2),
/// which feeds only ~1% of rows to the encoder to cut embedding cost.
pub fn embed_table_sampled(encoder: &HashedEncoder, table: &Table, rows: &[usize]) -> Vector {
    encoder
        .encode(rows.iter().flat_map(|&r| table.columns.iter().map(move |c| c.values[r].as_str())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{cosine, norm};
    use matelda_table::Column;

    fn enc() -> HashedEncoder {
        HashedEncoder::default()
    }

    #[test]
    fn encoding_is_deterministic_and_unit_norm() {
        let e = enc();
        let a = e.encode(["liverpool beat chelsea in london"]);
        let b = e.encode(["liverpool beat chelsea in london"]);
        assert_eq!(a, b);
        assert!((norm(&a) - 1.0).abs() < 1e-5);
        assert_eq!(a.len(), 128);
    }

    #[test]
    fn same_domain_more_similar_than_cross_domain() {
        let e = enc();
        let football1 =
            e.encode(["liverpool chelsea arsenal goals league season club striker england"]);
        let football2 =
            e.encode(["manchester club league bayern goals season striker spain madrid"]);
        let movies =
            e.encode(["director genre release screenplay studio drama thriller actor oscar"]);
        let within = cosine(&football1, &football2);
        let across = cosine(&football1, &movies);
        assert!(
            within > across,
            "within-domain cosine {within} should exceed cross-domain {across}"
        );
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = enc();
        let v = e.encode([""]);
        assert!(v.iter().all(|x| *x == 0.0));
        assert!(e.encode([]).iter().all(|x| *x == 0.0));
    }

    #[test]
    fn table_embedding_matches_serialized_text() {
        let e = enc();
        let t = Table::new(
            "t",
            vec![Column::new("a", ["hello", "big"]), Column::new("b", ["world", "cat"])],
        );
        assert_eq!(embed_table(&e, &t), e.encode(["hello world big cat"]));
    }

    #[test]
    fn sampled_embedding_uses_only_selected_rows() {
        let e = enc();
        let t = Table::new(
            "t",
            vec![Column::new("a", ["hello", "big"]), Column::new("b", ["world", "cat"])],
        );
        assert_eq!(embed_table_sampled(&e, &t, &[1]), e.encode(["big cat"]));
    }

    #[test]
    fn sampled_embedding_approximates_full_embedding() {
        // A table with homogeneous rows: embedding from half the rows should
        // stay very close to the full embedding (the Matelda-RS premise).
        let e = enc();
        let values: Vec<String> = (0..200)
            .map(|i| if i % 2 == 0 { "red apple".to_string() } else { "green pear".to_string() })
            .collect();
        let t = Table::new("t", vec![Column::new("fruit", values)]);
        let full = embed_table(&e, &t);
        // A uniform sample keeps the row mix balanced, as random sampling
        // would in expectation.
        let rows: Vec<usize> = (0..200).step_by(5).collect();
        let sampled = embed_table_sampled(&e, &t, &rows);
        assert!(cosine(&full, &sampled) > 0.9, "cosine = {}", cosine(&full, &sampled));
    }

    #[test]
    fn dimension_is_configurable() {
        let e = HashedEncoder::new(EncoderConfig { dim: 32, ..EncoderConfig::default() });
        assert_eq!(e.encode(["x y z"]).len(), 32);
        assert_eq!(e.dim(), 32);
    }

    /// Today's tokenizer, n-gram, trigram and bucket helpers, owned by
    /// the reference encoder below.
    mod reference {
        /// 64-bit FNV-1a of a byte string.
        fn fnv1a64(bytes: &[u8]) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            h
        }

        /// Lowercased word tokens including alphanumeric mixes.
        pub fn tokens(s: &str) -> Vec<String> {
            s.split(|c: char| !c.is_alphanumeric())
                .filter(|t| !t.is_empty())
                .map(|t| t.to_lowercase())
                .collect()
        }

        /// Character trigrams of the lowercased input with `^`/`$` padding.
        pub fn char_trigrams(s: &str) -> Vec<String> {
            let lowered = s.to_lowercase();
            let padded: Vec<char> =
                std::iter::once('^').chain(lowered.chars()).chain(std::iter::once('$')).collect();
            if padded.len() < 3 {
                return vec![padded.iter().collect()];
            }
            padded.windows(3).map(|w| w.iter().collect()).collect()
        }

        /// Word n-grams (n = 1..=max_n) over a token slice, joined with `_`.
        pub fn word_ngrams(tokens: &[String], max_n: usize) -> Vec<String> {
            let mut out = Vec::new();
            for n in 1..=max_n {
                if tokens.len() < n {
                    break;
                }
                for w in tokens.windows(n) {
                    out.push(w.join("_"));
                }
            }
            out
        }

        /// Signed feature hashing of one feature string.
        pub fn signed_bucket(token: &str, dim: usize) -> (usize, f32) {
            let h = fnv1a64(token.as_bytes());
            let bucket = (h % dim as u64) as usize;
            let sign = if (h >> 63) & 1 == 0 { 1.0 } else { -1.0 };
            (bucket, sign)
        }

        /// `Table::serialize_rows`: the rows' cells joined by spaces.
        pub fn serialize_rows(table: &matelda_table::Table, rows: &[usize]) -> String {
            let mut out = String::new();
            for &i in rows {
                for c in &table.columns {
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    out.push_str(&c.values[i]);
                }
            }
            out
        }
    }

    #[test]
    fn reference_helpers_keep_their_behaviour() {
        use reference::{char_trigrams, serialize_rows, signed_bucket, tokens, word_ngrams};
        assert_eq!(tokens("A4 paper"), vec!["a4", "paper"]);
        assert_eq!(tokens("1994-07-05"), vec!["1994", "07", "05"]);
        assert_eq!(char_trigrams("ab"), vec!["^ab", "ab$"]);
        assert_eq!(char_trigrams(""), vec!["^$"]);
        assert_eq!(char_trigrams("a"), vec!["^a$"]);
        assert_eq!(char_trigrams("abc"), vec!["^ab", "abc", "bc$"]);
        let toks: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        assert_eq!(word_ngrams(&toks, 2), vec!["a", "b", "c", "a_b", "b_c"]);
        assert_eq!(word_ngrams(&toks[..0], 2), Vec::<String>::new());
        assert_eq!(word_ngrams(&toks[..1], 3), vec!["a"]);
        for t in ["a", "hello", "FRANCE", "1994", ""] {
            let (b, s) = signed_bucket(t, 64);
            assert!(b < 64);
            assert!(s == 1.0 || s == -1.0);
        }
        let t = Table::new("t", vec![Column::new("a", ["1", "3"]), Column::new("b", ["2", "4"])]);
        assert_eq!(serialize_rows(&t, &[0, 1]), "1 2 3 4");
        assert_eq!(serialize_rows(&t, &[1]), "3 4");
        assert_eq!(serialize_rows(&t, &[]), "");
    }

    /// The string-keyed encoder the streamed one replaced: every feature
    /// string built (`tokens`, `word_ngrams`, `#` + each trigram), one
    /// `+= weight` per occurrence, summed in first-occurrence order (an
    /// insertion-ordered map, where the old encoder iterated a randomly
    /// seeded `HashMap`).
    fn reference_encode(config: &EncoderConfig, text: &str) -> Vector {
        use reference::{char_trigrams, signed_bucket, tokens, word_ngrams};
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut counts: Vec<(String, f32)> = Vec::new();
        let mut bump = |feature: String, weight: f32| {
            let i = *index.entry(feature.clone()).or_insert_with(|| {
                counts.push((feature, 0.0));
                counts.len() - 1
            });
            counts[i].1 += weight;
        };
        let toks = tokens(text);
        for g in word_ngrams(&toks, config.max_word_ngram) {
            bump(g, 1.0);
        }
        if config.char_trigrams {
            for tok in &toks {
                for tri in char_trigrams(tok) {
                    bump(format!("#{tri}"), config.trigram_weight);
                }
            }
        }
        let mut v = vec![0.0f32; config.dim];
        for (feature, tf) in counts {
            let (bucket, sign) = signed_bucket(&feature, config.dim);
            v[bucket] += sign * (1.0 + tf.ln());
        }
        l2_normalize(&mut v);
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn streamed_encoder_matches_the_reference_on_unicode() {
        let t = Table::new(
            "u",
            vec![
                Column::new("a", ["İstanbul İİ", "STRAẞE ẞ", "ΣΑΣ ΟΔΟΣ", "", "ǅemal ǅ"]),
                Column::new("b", ["--", "42nd A4", "x_y #z", "Ωmega ω", "a  b\tc"]),
            ],
        );
        for max_word_ngram in 0..=3 {
            for char_trigrams in [false, true] {
                let config =
                    EncoderConfig { max_word_ngram, char_trigrams, ..EncoderConfig::default() };
                let e = HashedEncoder::new(config.clone());
                let all: Vec<usize> = (0..t.n_rows()).collect();
                let want = reference_encode(&config, &reference::serialize_rows(&t, &all));
                assert_eq!(bits(&embed_table(&e, &t)), bits(&want), "{config:?}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        // Cells built from Unicode fragments — capitals whose lowercase
        // changes length (`İ`, `ẞ`), a final sigma, titlecase, digits,
        // punctuation-only and empty cells, `_` and `#` (the feature
        // strings' own separators) — streamed whole or as a row sample,
        // at every n-gram length 1–3, trigrams on and off and several
        // trigram weights: the streamed encoder equals the string-keyed
        // reference bit for bit. The small dimensions pile many features
        // into each bucket, so a changed summation order changes bits.
        #[test]
        fn streamed_encoder_matches_the_string_keyed_reference(
            cells in proptest::collection::vec(proptest::collection::vec(0usize..16, 0..6), 1..40),
            n_cols in 1usize..4,
            max_word_ngram in 1usize..4,
            trigrams_on in 0u8..2,
            weight in 0usize..3,
            dim in 0usize..3,
            sample_mask in 0u64..u64::MAX,
        ) {
            const FRAGMENTS: [&str; 16] = [
                "Real", "madrid", "İ", "ẞig", "ΣΑΣ", "ǅx", "1994", "07-05", "--", "",
                "a_b", "#c", "real", " ", "Ωω", "ab",
            ];
            let n_rows = cells.len() / n_cols;
            let cell = |i: usize| cells[i].iter().map(|&f| FRAGMENTS[f]).collect::<String>();
            let table = Table::new(
                "p",
                (0..n_cols)
                    .map(|c| Column::new(format!("c{c}"), (0..n_rows).map(|r| cell(r * n_cols + c))))
                    .collect(),
            );
            let config = EncoderConfig {
                dim: [3, 8, 128][dim],
                max_word_ngram,
                char_trigrams: trigrams_on == 1,
                trigram_weight: [0.5, 0.3, 1.0][weight],
            };
            let e = HashedEncoder::new(config.clone());
            let all: Vec<usize> = (0..n_rows).collect();
            let want = reference_encode(&config, &reference::serialize_rows(&table, &all));
            proptest::prop_assert_eq!(bits(&embed_table(&e, &table)), bits(&want));
            let rows: Vec<usize> = (0..n_rows).filter(|r| sample_mask >> (r % 64) & 1 == 1).collect();
            let want = reference_encode(&config, &reference::serialize_rows(&table, &rows));
            proptest::prop_assert_eq!(bits(&embed_table_sampled(&e, &table, &rows)), bits(&want));
        }
    }
}
