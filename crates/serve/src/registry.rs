//! The lake registry: parsed lakes cached across requests, invalidated
//! by file metadata.
//!
//! A daemon serving the same lake to many clients should not re-parse
//! its CSV files per request — but it must also never serve a stale
//! parse. Each cached entry records a freshness stamp (path, length,
//! modification time in nanoseconds) for every CSV file it was built
//! from, plus the *directory listing* itself; any difference on lookup
//! evicts and reloads. The memo-cache layer above is keyed by content
//! fingerprint, so even a stamp collision (same length, same mtime,
//! different bytes — not producible by normal filesystems) could only
//! cost a wrong cache key, and the checkpoint manifest validation
//! would still refuse to mix artifacts.

use matelda_table::{
    csv_paths_sorted, diff_lakes, lake_fingerprint, read_lake_from_dir_with, CellMask, Lake,
    ReadOptions,
};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// One file's freshness stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Stamp {
    path: PathBuf,
    len: u64,
    mtime: SystemTime,
}

fn stamps(dir: &Path) -> io::Result<Vec<Stamp>> {
    let mut out = Vec::new();
    for path in csv_paths_sorted(dir)? {
        let meta = std::fs::metadata(&path)?;
        out.push(Stamp {
            path,
            len: meta.len(),
            mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
        });
    }
    Ok(out)
}

/// A dirty/clean lake pair plus the derived labeling truth.
#[derive(Debug, Clone)]
pub struct LakePair {
    /// The dirty lake under detection.
    pub dirty: Lake,
    /// Ground truth (cells where dirty and clean differ) — the oracle's
    /// answer sheet.
    pub truth: CellMask,
    /// [`lake_fingerprint`] of `dirty`, computed once per parse: every
    /// request's memo key is built from it. Only the registry sets it,
    /// so it always matches `dirty`.
    pub(crate) fingerprint: u64,
}

struct Entry {
    dirty_stamps: Vec<Stamp>,
    clean_stamps: Vec<Stamp>,
    pair: Arc<LakePair>,
}

/// A concurrent map from `(dirty_dir, clean_dir)` to parsed lakes.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<HashMap<(PathBuf, PathBuf), Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the parsed pair for two directories, reloading if any
    /// underlying CSV file changed (or appeared, or vanished) since the
    /// cached parse. A hit shares the cached pair instead of copying the
    /// lake.
    pub fn load(&self, dirty_dir: &Path, clean_dir: &Path) -> io::Result<Arc<LakePair>> {
        let key = (dirty_dir.to_path_buf(), clean_dir.to_path_buf());
        let dirty_stamps = stamps(dirty_dir)?;
        let clean_stamps = stamps(clean_dir)?;
        let mut entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(e) = entries.get(&key) {
            if e.dirty_stamps == dirty_stamps && e.clean_stamps == clean_stamps {
                return Ok(Arc::clone(&e.pair));
            }
        }
        let opts = ReadOptions::strict();
        let (dirty, _) = read_lake_from_dir_with(dirty_dir, &opts)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let (clean, _) = read_lake_from_dir_with(clean_dir, &opts)
            .map_err(|e| io::Error::other(e.to_string()))?;
        if dirty.n_tables() != clean.n_tables() {
            return Err(io::Error::other("dirty and clean lakes have different table counts"));
        }
        let pair = Arc::new(LakePair {
            truth: diff_lakes(&dirty, &clean),
            fingerprint: lake_fingerprint(&dirty),
            dirty,
        });
        entries.insert(key, Entry { dirty_stamps, clean_stamps, pair: Arc::clone(&pair) });
        Ok(pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matelda_table::{write_lake_to_dir, Column, Table};

    fn lake(cell: &str) -> Lake {
        Lake::new(vec![
            Table::new("a", vec![Column::new("x", ["1", cell])]),
            Table::new("b", vec![Column::new("y", ["p", "q"])]),
        ])
    }

    #[test]
    fn hits_share_the_parsed_lake_and_a_rewrite_reloads_it() {
        let root = std::env::temp_dir().join(format!("matelda_registry_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (dirty_dir, clean_dir) = (root.join("dirty"), root.join("clean"));
        write_lake_to_dir(&lake("2x"), &dirty_dir).expect("write dirty");
        write_lake_to_dir(&lake("2"), &clean_dir).expect("write clean");

        let registry = Registry::new();
        let first = registry.load(&dirty_dir, &clean_dir).expect("cold load");
        let hit = registry.load(&dirty_dir, &clean_dir).expect("hit");
        assert!(Arc::ptr_eq(&first, &hit), "an unchanged lake is shared, not copied");
        assert_eq!(first.dirty, lake("2x"));
        assert_eq!(first.truth.count(), 1);
        assert_eq!(first.fingerprint, lake_fingerprint(&first.dirty));

        // A rewrite with a different length always changes the stamp.
        write_lake_to_dir(&lake("22"), &dirty_dir).expect("rewrite dirty");
        let reloaded = registry.load(&dirty_dir, &clean_dir).expect("reload");
        assert!(!Arc::ptr_eq(&first, &reloaded), "a changed file must reload");
        assert_eq!(reloaded.dirty, lake("22"));
        assert_eq!(reloaded.fingerprint, lake_fingerprint(&reloaded.dirty));
        assert_ne!(reloaded.fingerprint, first.fingerprint, "the reload fingerprints the new lake");
        assert_eq!(first.dirty, lake("2x"), "a shared pair never changes under its holder");
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
