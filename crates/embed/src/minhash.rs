//! MinHash sketches for set-overlap estimation (Broder 1997).
//!
//! The SANTOS-like domain-folding variant (paper §4.5.2) computes exact
//! Jaccard overlaps between every pair of column value-sets — the cost
//! that makes it ~4× slower than the standard embedding. MinHash replaces
//! each value set with a constant-size signature whose per-slot minimum
//! hashes estimate Jaccard similarity in O(k) per pair, turning the
//! unionability matrix from O(T²·V) into O(T²·k) — the classic data-lake
//! discovery trick (and the basis of systems like JOSIE/LSH Ensemble the
//! paper cites).

use matelda_table::fingerprint::Fnv1a;

/// A MinHash signature of a set of strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHashSketch {
    mins: Vec<u64>,
}

impl MinHashSketch {
    /// Number of hash slots (`k`). More slots → lower estimation variance
    /// (σ ≈ 1/√k).
    pub fn k(&self) -> usize {
        self.mins.len()
    }

    /// Sketches a set of string items with `k` salted FNV functions.
    pub fn of<I, S>(items: I, k: usize) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        assert!(k > 0, "sketch needs at least one slot");
        let mut mins = vec![u64::MAX; k];
        for item in items {
            let mut hash = Fnv1a::new();
            hash.write_bytes(item.as_ref().as_bytes());
            let base = hash.finish();
            for (slot, min) in mins.iter_mut().enumerate() {
                // Independent-ish hash per slot: remix the base hash with a
                // slot-specific odd multiplier (splitmix-style finalizer).
                let mut h = base ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 30;
                h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h ^= h >> 27;
                h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
                h ^= h >> 31;
                if h < *min {
                    *min = h;
                }
            }
        }
        Self { mins }
    }

    /// Estimated Jaccard similarity: fraction of matching slots.
    ///
    /// # Panics
    /// Panics if the sketches have different `k`.
    pub fn jaccard(&self, other: &Self) -> f64 {
        assert_eq!(self.k(), other.k(), "sketch size mismatch");
        if self.mins.iter().all(|&m| m == u64::MAX) && other.mins.iter().all(|&m| m == u64::MAX) {
            return 1.0; // both empty
        }
        let hits = self.mins.iter().zip(&other.mins).filter(|(a, b)| a == b).count();
        hits as f64 / self.k() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(range: std::ops::Range<u32>) -> Vec<String> {
        range.map(|i| format!("v{i}")).collect()
    }

    #[test]
    fn identical_sets_estimate_one() {
        let a = MinHashSketch::of(set(0..100), 128);
        let b = MinHashSketch::of(set(0..100), 128);
        assert_eq!(a.jaccard(&b), 1.0);
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let a = MinHashSketch::of(set(0..100), 128);
        let b = MinHashSketch::of(set(1000..1100), 128);
        assert!(a.jaccard(&b) < 0.05, "{}", a.jaccard(&b));
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        // |A∩B| = 50, |A∪B| = 150 → J = 1/3. With k = 256, σ ≈ 0.03.
        let a = MinHashSketch::of(set(0..100), 256);
        let b = MinHashSketch::of(set(50..150), 256);
        let est = a.jaccard(&b);
        assert!((est - 1.0 / 3.0).abs() < 0.12, "estimate {est}");
    }

    #[test]
    fn empty_sets() {
        let e = MinHashSketch::of(Vec::<String>::new(), 64);
        let f = MinHashSketch::of(Vec::<String>::new(), 64);
        assert_eq!(e.jaccard(&f), 1.0);
        let a = MinHashSketch::of(set(0..10), 64);
        assert!(e.jaccard(&a) < 0.05);
    }

    #[test]
    fn order_and_duplicates_do_not_matter() {
        let a = MinHashSketch::of(["x", "y", "z"], 64);
        let b = MinHashSketch::of(["z", "y", "x", "x", "z"], 64);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sketch size mismatch")]
    fn mismatched_k_panics() {
        let a = MinHashSketch::of(["x"], 32);
        let b = MinHashSketch::of(["x"], 64);
        let _ = a.jaccard(&b);
    }
}
