//! Spilling featurized tables to disk and streaming them back.
//!
//! The out-of-core driver featurizes one table per work item; holding every
//! table's [`CellFeatures`] resident until the fold stages need them
//! would rebuild exactly the allocation the blocked store avoids. This
//! module writes a table's features to one `.mtf` file through the
//! [`ChunkSource`] seam (fault-injectable when the caller passes the
//! ckpt VFS) and reloads them block by block — the reload never holds
//! more than one backing block plus the file chunk being parsed.
//!
//! The format is raw little-endian f32s behind a fixed header; the
//! values round-trip bit for bit (NaN payloads included), which the
//! in-memory/out-of-core digest contract (DESIGN.md §14) requires.

use crate::featurize::CellFeatures;
use matelda_table::chunked::{ChunkSource, ChunkedError};
use std::path::{Path, PathBuf};

/// Magic prefix of a spilled feature file.
pub const SPILL_MAGIC: &[u8; 4] = b"MTFS";
/// Spill format version; bump on any layout change.
pub const SPILL_VERSION: u32 = 1;
/// File extension of spilled feature files.
pub const SPILL_EXT: &str = "mtf";

/// The `.mtf` path for table index `t` inside `dir`.
pub fn spill_path(dir: &Path, table_index: usize) -> PathBuf {
    dir.join(format!("t{table_index:05}.{SPILL_EXT}"))
}

/// Serializes one table's features:
///
/// ```text
/// "MTFS" | version:u32 | n_cols:u64 | n_rows:u64 | dim:u64 | f32-LE × n
/// ```
pub fn encode_features(f: &CellFeatures) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 + 24 + f.n_values() * 4);
    out.extend_from_slice(SPILL_MAGIC);
    out.extend_from_slice(&SPILL_VERSION.to_le_bytes());
    out.extend_from_slice(&(f.n_cols as u64).to_le_bytes());
    out.extend_from_slice(&(f.n_rows as u64).to_le_bytes());
    out.extend_from_slice(&(f.dim as u64).to_le_bytes());
    for block in f.blocks() {
        for v in block {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
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

const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// Reloads spilled features block by block: each ranged read fills one
/// backing block of the result, so peak memory is the features being
/// rebuilt plus a single block's bytes.
pub fn load_features(src: &dyn ChunkSource, path: &Path) -> Result<CellFeatures, ChunkedError> {
    let header = src.read_range(path, 0, HEADER_LEN)?;
    if header.len() < HEADER_LEN {
        return Err(ChunkedError::Corrupt("spill file shorter than header".into()));
    }
    if &header[..4] != SPILL_MAGIC {
        return Err(ChunkedError::Corrupt("bad spill magic".into()));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != SPILL_VERSION {
        return Err(ChunkedError::Corrupt(format!(
            "spill version {version}, expected {SPILL_VERSION}"
        )));
    }
    let n_cols = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes")) as usize;
    let n_rows = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes")) as usize;
    let dim = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes")) as usize;
    let total = n_rows
        .checked_mul(n_cols)
        .and_then(|c| c.checked_mul(dim))
        .ok_or_else(|| ChunkedError::Corrupt("spill shape overflows".into()))?;
    let expected_len = HEADER_LEN as u64 + total as u64 * 4;
    if src.file_len(path)? != expected_len {
        return Err(ChunkedError::Corrupt(format!(
            "spill payload length != {n_rows}x{n_cols}x{dim} values"
        )));
    }
    // Probe the block geometry from an empty instance of the same dim so
    // reload and fresh featurization share identical backing layout.
    let block_len = CellFeatures::zeros(0, 0, dim).block_len();
    let mut blocks = Vec::with_capacity(total.div_ceil(block_len.max(1)));
    let mut read = 0usize;
    while read < total {
        let this = block_len.min(total - read);
        let bytes = src.read_range(path, HEADER_LEN as u64 + read as u64 * 4, this * 4)?;
        if bytes.len() < this * 4 {
            return Err(ChunkedError::Corrupt("spill payload truncated".into()));
        }
        let mut block = Vec::with_capacity(this);
        for v in bytes.chunks_exact(4) {
            block.push(f32::from_le_bytes(v.try_into().expect("4 bytes")));
        }
        blocks.push(block);
        read += this;
    }
    Ok(CellFeatures::from_blocks(n_cols, n_rows, dim, block_len, blocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_table::chunked::StdFs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("matelda_spill_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn spill_round_trips_bit_for_bit_including_nan_payloads() {
        let dir = tmpdir("roundtrip");
        let mut f = CellFeatures::zeros(3, 4, 5);
        for row in 0..4 {
            for col in 0..3 {
                for (k, v) in f.get_mut(row, col).iter_mut().enumerate() {
                    *v = (row * 31 + col * 7 + k) as f32 * 0.25 - 3.0;
                }
            }
        }
        // Hostile payloads: negative zero, infinities, a NaN with a
        // nonstandard payload — all must survive the trip bit for bit.
        f.get_mut(0, 0)[0] = -0.0;
        f.get_mut(1, 1)[1] = f32::INFINITY;
        f.get_mut(2, 2)[2] = f32::from_bits(0x7FC0_1234);
        let path = spill_path(&dir, 7);
        spill_features(&StdFs, &path, &f).expect("spill");
        let back = load_features(&StdFs, &path).expect("load");
        assert_eq!(back.n_cols, f.n_cols);
        assert_eq!(back.n_rows, f.n_rows);
        assert_eq!(back.dim, f.dim);
        let a: Vec<u32> = f.to_flat().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = back.to_flat().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "bit-exact reload");
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
}
