//! Spilling featurized tables to disk and reading them back.
//!
//! The out-of-core driver featurizes one table per work item; holding every
//! table's [`CellFeatures`] resident through the streaming phase would
//! grow with the lake before the fold stages need any of it. This module
//! writes a table's features to one `.mtf` file through the
//! [`ChunkSource`] seam (fault-injectable when the caller passes the
//! ckpt VFS), and the driver reloads every spill after featurize.
//!
//! The file is the dictionary encoding itself — the pattern table as raw
//! little-endian f32s, then one `u32` code per cell — so a reload costs
//! the file's bytes once, transiently, and the values round-trip bit for
//! bit (NaN payloads included), which the in-memory/out-of-core digest
//! contract (DESIGN.md §14) requires. Every size the header claims is
//! checked against the file's length before anything is allocated, and
//! every code against the pattern count, so a crafted or torn file is
//! [`ChunkedError::Corrupt`], never a panic or a huge allocation.

use crate::featurize::CellFeatures;
use matelda_table::chunked::{ChunkSource, ChunkedError};
use std::path::{Path, PathBuf};

/// Magic prefix of a spilled feature file.
pub const SPILL_MAGIC: &[u8; 4] = b"MTFS";
/// Spill format version; bump on any layout change.
pub const SPILL_VERSION: u32 = 2;
/// File extension of spilled feature files.
pub const SPILL_EXT: &str = "mtf";

/// The `.mtf` path for table index `t` inside `dir`.
pub fn spill_path(dir: &Path, table_index: usize) -> PathBuf {
    dir.join(format!("t{table_index:05}.{SPILL_EXT}"))
}

/// Serializes one table's features:
///
/// ```text
/// "MTFS" | version:u32 | n_cols:u64 | n_rows:u64 | dim:u64 | n_patterns:u64
///        | f32-LE × n_patterns·dim | u32-LE code × n_rows·n_cols
/// ```
pub fn encode_features(f: &CellFeatures) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + (f.patterns.len() + f.codes.len()) * 4);
    out.extend_from_slice(SPILL_MAGIC);
    out.extend_from_slice(&SPILL_VERSION.to_le_bytes());
    for n in [f.n_cols, f.n_rows, f.dim, f.n_patterns()] {
        out.extend_from_slice(&(n as u64).to_le_bytes());
    }
    f.patterns.iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
    f.codes.iter().for_each(|c| out.extend_from_slice(&c.to_le_bytes()));
    out
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

const HEADER_LEN: usize = 4 + 4 + 4 * 8;

/// Reads one spill back. The header's sizes are checked — overflow, the
/// exact file length, at most one pattern per cell — before the payload
/// is read, and every code is checked against the pattern count.
pub fn load_features(src: &dyn ChunkSource, path: &Path) -> Result<CellFeatures, ChunkedError> {
    let corrupt = |what: &str| ChunkedError::Corrupt(what.to_string());
    let header = src.read_range(path, 0, HEADER_LEN)?;
    if header.len() < HEADER_LEN {
        return Err(corrupt("spill file shorter than header"));
    }
    if &header[..4] != SPILL_MAGIC {
        return Err(corrupt("bad spill magic"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != SPILL_VERSION {
        return Err(corrupt(&format!("spill version {version}, expected {SPILL_VERSION}")));
    }
    let field =
        |i: usize| u64::from_le_bytes(header[8 + 8 * i..16 + 8 * i].try_into().expect("8 bytes"));
    let (n_cols, n_rows, dim, n_patterns) = (field(0), field(1), field(2), field(3));
    // Checked: a crafted header must neither overflow nor size an
    // allocation the file cannot back.
    let sizes = (|| {
        let (n_cells, n_values) = (n_rows.checked_mul(n_cols)?, n_patterns.checked_mul(dim)?);
        let len = n_values.checked_add(n_cells)?.checked_mul(4)?.checked_add(HEADER_LEN as u64)?;
        Some((n_cells, n_values, len))
    })();
    let Some((n_cells, n_values, len)) = sizes else {
        return Err(corrupt("spill shape overflows"));
    };
    if src.file_len(path)? != len || n_patterns > n_cells {
        return Err(corrupt(&format!(
            "spill payload length != {n_patterns} patterns x {dim} + {n_rows}x{n_cols} codes"
        )));
    }
    let size =
        |v: u64| usize::try_from(v).map_err(|_| corrupt("spill too large for this platform"));
    let payload = size(len - HEADER_LEN as u64)?;
    let bytes = src.read_range(path, HEADER_LEN as u64, payload)?;
    if bytes.len() < payload {
        return Err(corrupt("spill payload truncated"));
    }
    let (pattern_bytes, code_bytes) = bytes.split_at(size(n_values)? * 4);
    let word = |b: &[u8]| <[u8; 4]>::try_from(b).expect("4 bytes");
    let patterns = pattern_bytes.chunks_exact(4).map(|b| f32::from_le_bytes(word(b))).collect();
    let codes = code_bytes.chunks_exact(4).map(|b| u32::from_le_bytes(word(b))).collect();
    CellFeatures::from_parts(
        size(n_cols)?,
        size(n_rows)?,
        size(dim)?,
        size(n_patterns)?,
        patterns,
        codes,
    )
    .ok_or_else(|| corrupt("spill code out of range"))
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
    /// longer than the file (beyond the fixed-size header probe) panics:
    /// `StdFs` would allocate that length up front, so such a read means
    /// the decoder trusted a length the file cannot back.
    struct Mem(Vec<u8>);

    impl ChunkSource for Mem {
        fn file_len(&self, _: &Path) -> io::Result<u64> {
            Ok(self.0.len() as u64)
        }
        fn read_range(&self, _: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
            assert!(len <= self.0.len().max(HEADER_LEN), "read of {len} bytes trusts the header");
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

    /// Overwrites header field `i` (0 = n_cols, 1 = n_rows, 2 = dim,
    /// 3 = n_patterns).
    fn with_field(mut bytes: Vec<u8>, i: usize, value: u64) -> Vec<u8> {
        bytes[8 + 8 * i..16 + 8 * i].copy_from_slice(&value.to_le_bytes());
        bytes
    }

    /// Regression: a header claiming 2^62 rows made the size check
    /// overflow — a debug build panicked, and a release build wrapped past
    /// the check and aborted allocating the claimed payload. Through the
    /// real file system, as the out-of-core driver reads it.
    #[test]
    fn a_huge_row_count_in_the_header_is_corrupt_not_an_allocation() {
        let dir = tmpdir("huge_rows");
        let one_cell = encode_features(&CellFeatures::from_vectors(1, 1, &[vec![1.0]]));
        let mut bytes = with_field(one_cell, 1, 1 << 62);
        bytes.truncate(HEADER_LEN);
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
        // A pattern count whose payload overflows, one the file cannot
        // back, and one above the cell count with a dimension of zero (so
        // it claims no pattern bytes at all).
        for bytes in [
            with_field(good.clone(), 3, u64::MAX / 2),
            with_field(good.clone(), 3, 1 << 40),
            with_field(with_field(good.clone(), 2, 0), 3, 1 << 40),
        ] {
            assert!(matches!(load(bytes), Err(ChunkedError::Corrupt(_))));
        }
        // The last code, rewritten to point past the pattern table.
        let mut bad_code = good.clone();
        let at = bad_code.len() - 4;
        bad_code[at..].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(load(bad_code), Err(ChunkedError::Corrupt(_))));
        assert_eq!(bits(&load(good).expect("untouched file loads")), bits(&f));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // Arbitrary bytes behind a valid magic and version, with header
        // fields that are small or arbitrary: the decoder returns a
        // value or a structured error, and never panics or reads a
        // length the file cannot back (`Mem` panics on such a read).
        #[test]
        fn load_features_never_panics_on_arbitrary_bytes(
            fields in proptest::collection::vec(
                (0u64..8, 0u64..u64::MAX).prop_map(|(s, h)| if s < 6 { s } else { h }),
                4,
            ),
            tail in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..96),
            prefix in 0usize..2,
        ) {
            let mut bytes = Vec::new();
            if prefix == 1 {
                bytes.extend_from_slice(SPILL_MAGIC);
                bytes.extend_from_slice(&SPILL_VERSION.to_le_bytes());
                fields.iter().for_each(|v| bytes.extend_from_slice(&v.to_le_bytes()));
            }
            bytes.extend_from_slice(&tail);
            if let Ok(f) = load(bytes.clone()) {
                proptest::prop_assert!(f.cells().count() == f.n_cells());
                proptest::prop_assert_eq!(encode_features(&f), bytes);
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
