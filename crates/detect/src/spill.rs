//! Spilling featurized tables to disk and reading them back.
//!
//! The out-of-core driver featurizes one table per work item; holding every
//! table's [`CellFeatures`] resident through the streaming phase would
//! grow with the lake before the fold stages need any of it. This module
//! writes a table's features to one `.mtf` file through the
//! [`ChunkSource`] seam (fault-injectable when the caller passes the
//! ckpt VFS), and the driver reloads every spill after featurize.
//!
//! A `.mtf` file is a magic, a version and the table's one binary
//! encoding, [`CellFeatures::encode_into`] — the same bytes as the
//! table's section of the featurize snapshot. A reload costs the file's
//! bytes once, transiently; values round-trip bit for bit (NaN payloads
//! included), which the in-memory/out-of-core digest contract
//! (DESIGN.md §14) requires. The file decodes through the total
//! [`Reader`], so a crafted or torn file is [`ChunkedError::Corrupt`],
//! never a panic or an allocation the file cannot back.

use crate::featurize::CellFeatures;
use matelda_table::chunked::{ChunkSource, ChunkedError};
use matelda_table::wire::{DecodeError, Reader, Writer};
use std::path::{Path, PathBuf};

/// Magic prefix of a spilled feature file.
pub const SPILL_MAGIC: &[u8; 4] = b"MTFS";
/// Spill format version; bump on any layout change.
pub const SPILL_VERSION: u32 = 3;
/// File extension of spilled feature files.
pub const SPILL_EXT: &str = "mtf";

/// The `.mtf` path for table index `t` inside `dir`.
pub fn spill_path(dir: &Path, table_index: usize) -> PathBuf {
    dir.join(format!("t{table_index:05}.{SPILL_EXT}"))
}

/// Serializes one table's features:
///
/// ```text
/// "MTFS" | version:u32 | CellFeatures::encode_into
/// ```
pub fn encode_features(f: &CellFeatures) -> Vec<u8> {
    let mut w = Writer::new();
    w.write_raw(SPILL_MAGIC);
    w.write_u32(SPILL_VERSION);
    f.encode_into(&mut w);
    w.into_bytes()
}

/// Writes `f` to `path` atomically through the source.
pub fn spill_features(
    src: &dyn ChunkSource,
    path: &Path,
    f: &CellFeatures,
) -> Result<(), ChunkedError> {
    if let Some(dir) = path.parent() {
        src.create_dir_all(dir)?;
    }
    src.write_atomic(path, &encode_features(f))?;
    Ok(())
}

/// Reads one spill back: the whole file, decoded and consumed exactly.
pub fn load_features(src: &dyn ChunkSource, path: &Path) -> Result<CellFeatures, ChunkedError> {
    let len = usize::try_from(src.file_len(path)?)
        .map_err(|_| ChunkedError::Corrupt("spill too large for this platform".into()))?;
    let bytes = src.read_range(path, 0, len)?;
    let mut r = Reader::new(&bytes);
    if r.read_raw(4)? != SPILL_MAGIC {
        return Err(DecodeError::BadMagic { expected: "MTFS" }.into());
    }
    let version = r.read_u32()?;
    if version != SPILL_VERSION {
        return Err(DecodeError::BadVersion { found: version, expected: SPILL_VERSION }.into());
    }
    let features = CellFeatures::decode_from(&mut r)?;
    r.finish()?;
    Ok(features)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_table::chunked::StdFs;
    use proptest::prelude::Strategy;
    use std::io;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("matelda_spill_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// One file held in memory, so the decoder tests need no disk. A read
    /// longer than the file panics: `StdFs` would allocate that length up
    /// front, so such a read means the decoder trusted a length the file
    /// cannot back.
    struct Mem(Vec<u8>);

    impl ChunkSource for Mem {
        fn file_len(&self, _: &Path) -> io::Result<u64> {
            Ok(self.0.len() as u64)
        }
        fn read_range(&self, _: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
            assert!(len <= self.0.len(), "read of {len} bytes trusts the header");
            let start = usize::try_from(offset).map_or(self.0.len(), |o| o.min(self.0.len()));
            Ok(self.0[start..].iter().take(len).copied().collect())
        }
        fn write_atomic(&self, _: &Path, _: &[u8]) -> io::Result<()> {
            Err(io::Error::other("read-only"))
        }
        fn create_dir_all(&self, _: &Path) -> io::Result<()> {
            Ok(())
        }
        fn read_dir(&self, _: &Path) -> io::Result<Vec<PathBuf>> {
            Ok(Vec::new())
        }
    }

    fn load(bytes: Vec<u8>) -> Result<CellFeatures, ChunkedError> {
        load_features(&Mem(bytes), Path::new("mem.mtf"))
    }

    fn bits(f: &CellFeatures) -> Vec<u32> {
        f.to_flat().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn spill_round_trips_bit_for_bit_including_nan_payloads() {
        let dir = tmpdir("roundtrip");
        let mut flat: Vec<f32> = (0..4 * 3 * 5).map(|i| (i % 7) as f32 * 0.25 - 1.0).collect();
        // Hostile payloads: negative zero, infinities, a NaN with a
        // nonstandard payload — all must survive the trip bit for bit.
        flat[0] = -0.0;
        flat[(3 + 1) * 5 + 1] = f32::INFINITY;
        flat[(2 * 3 + 2) * 5 + 2] = f32::from_bits(0x7FC0_1234);
        let f = CellFeatures::from_flat(3, 4, 5, flat);
        let path = spill_path(&dir, 7);
        spill_features(&StdFs, &path, &f).expect("spill");
        let back = load_features(&StdFs, &path).expect("load");
        assert_eq!((back.n_cols, back.n_rows, back.dim), (f.n_cols, f.n_rows, f.dim));
        assert_eq!(back.n_patterns(), f.n_patterns());
        assert_eq!(bits(&back), bits(&f), "bit-exact reload");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn empty_features_round_trip() {
        let dir = tmpdir("empty");
        let f = CellFeatures::zeros(2, 0, 33);
        let path = spill_path(&dir, 0);
        spill_features(&StdFs, &path, &f).expect("spill");
        let back = load_features(&StdFs, &path).expect("load");
        assert_eq!(back.n_cells(), 0);
        assert_eq!(back.n_cols, 2);
        assert_eq!(back.dim, 33);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_spills_are_rejected() {
        let dir = tmpdir("corrupt");
        let f = CellFeatures::from_vectors(1, 2, &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let good = encode_features(&f);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("truncated", good[..good.len() - 3].to_vec()),
            ("bad_magic", {
                let mut b = good.clone();
                b[0] = b'X';
                b
            }),
            ("bad_version", {
                let mut b = good.clone();
                b[4] = 9;
                b
            }),
            ("short", good[..7].to_vec()),
        ];
        for (tag, bytes) in cases {
            let path = dir.join(format!("{tag}.mtf"));
            std::fs::write(&path, &bytes).expect("write");
            assert!(matches!(load_features(&StdFs, &path), Err(ChunkedError::Corrupt(_))), "{tag}");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A spill whose shape is `[n_cols, n_rows, dim, n_patterns]`,
    /// followed by `body` (the pattern run and the codes).
    fn spill_with_shape(shape: [u64; 4], body: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.write_raw(SPILL_MAGIC);
        w.write_u32(SPILL_VERSION);
        shape.iter().for_each(|&n| w.write_varint(n));
        w.write_raw(body);
        w.into_bytes()
    }

    /// A header claiming 2^62 rows is corrupt before anything is sized by
    /// it: its cell count overflows any byte arithmetic, and a release
    /// build would wrap past such a check silently. Through the
    /// real file system, as the out-of-core driver reads it.
    #[test]
    fn a_huge_row_count_in_the_header_is_corrupt_not_an_allocation() {
        let dir = tmpdir("huge_rows");
        // One packed pattern of one value, then a single code.
        let bytes = spill_with_shape([1, 1 << 62, 1, 1], &[1, 1, 1, 0]);
        let path = dir.join("huge.mtf");
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(load_features(&StdFs, &path), Err(ChunkedError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn huge_pattern_counts_and_out_of_range_codes_are_corrupt() {
        let f = CellFeatures::from_vectors(2, 1, &[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let good = encode_features(&f);
        assert_eq!(f.n_patterns(), 2);
        // The packed 4-value run (tag, length, one byte), then codes 0 and 1.
        let body = &good[good.len() - 5..];
        assert_eq!(bits(&load(spill_with_shape([2, 1, 2, 2], body)).expect("loads")), bits(&f));
        // A pattern count whose values overflow, one the pattern run
        // cannot back, and one above the cell count with a dimension of
        // zero (so it claims no pattern values at all).
        for bytes in [
            spill_with_shape([2, 1, 2, u64::MAX / 2], body),
            spill_with_shape([2, 1, 2, 1 << 40], body),
            spill_with_shape([2, 1, 0, 1 << 40], &[1, 0, 0, 0]),
        ] {
            assert!(matches!(load(bytes), Err(ChunkedError::Corrupt(_))));
        }
        // The last code, rewritten to point past the pattern table.
        let mut bad_code = good.clone();
        *bad_code.last_mut().expect("a code") = 2;
        assert!(matches!(load(bad_code), Err(ChunkedError::Corrupt(_))));
        assert_eq!(bits(&load(good).expect("untouched file loads")), bits(&f));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // Arbitrary bytes behind a valid magic and version, with shape
        // varints that are small or arbitrary: the decoder returns a
        // value or a structured error, and never panics or reads a length
        // the file cannot back (`Mem` panics on such a read). What loads
        // is canonical: it re-encodes to exactly the file, and so do its
        // values re-interned by `from_flat`.
        #[test]
        fn load_features_never_panics_on_arbitrary_bytes(
            fields in proptest::collection::vec(
                (0u64..8, 0u64..u64::MAX).prop_map(|(s, h)| if s < 6 { s } else { h }),
                4,
            ),
            tail in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..96),
            prefix in 0usize..2,
        ) {
            let bytes = if prefix == 1 {
                spill_with_shape([fields[0], fields[1], fields[2], fields[3]], &tail)
            } else {
                tail
            };
            if let Ok(f) = load(bytes.clone()) {
                proptest::prop_assert!(f.cells().count() == f.n_cells());
                proptest::prop_assert_eq!(encode_features(&f), bytes.clone());
                let rebuilt = CellFeatures::from_flat(f.n_cols, f.n_rows, f.dim, f.to_flat());
                proptest::prop_assert_eq!(encode_features(&rebuilt), bytes);
            }
        }

        // Every strict prefix of a real spill — a torn write — is an
        // error, never a panic and never `Ok`; the whole file is the
        // features, bit for bit.
        #[test]
        fn every_truncated_prefix_of_a_spill_is_an_error(
            n_cols in 0usize..4,
            n_rows in 0usize..4,
            dim in 0usize..4,
            raw in proptest::collection::vec(0u64..8, 48),
        ) {
            // A few distinct values, including -0.0 and a NaN payload.
            const VALUES: [f32; 8] = [0.0, 1.0, -0.0, 1.0, 0.0, f32::INFINITY, 0.5, 0.0];
            let value = |i: usize| {
                if raw[i] == 7 { f32::from_bits(0x7FC0_0042) } else { VALUES[raw[i] as usize] }
            };
            let flat: Vec<f32> = (0..n_cols * n_rows * dim).map(value).collect();
            let f = CellFeatures::from_flat(n_cols, n_rows, dim, flat);
            let bytes = encode_features(&f);
            for cut in 0..bytes.len() {
                proptest::prop_assert!(load(bytes[..cut].to_vec()).is_err(), "cut {cut}");
            }
            let back = load(bytes).expect("a whole spill loads");
            proptest::prop_assert_eq!(bits(&back), bits(&f));
            proptest::prop_assert_eq!(back.n_patterns(), f.n_patterns());
        }
    }
}
