//! The fingerprint-keyed memo-cache: checksum-validated answers for
//! previously completed runs.
//!
//! The key is [`matelda_core::Matelda::manifest`]'s hash — an FNV-1a
//! digest over exactly the inputs that shape output bits (config hash,
//! lake fingerprint, seed, budget; thread count excluded). Equal key ⇒
//! bit-equal result, so a hit may answer without running any stage.
//!
//! Entries reuse the checkpoint layer's envelope
//! ([`matelda_ckpt::encode_envelope`]): magic, format version, the key
//! stamped as the manifest hash, a fixed stage name and an FNV-1a
//! payload checksum. A read validates *all* of it; any failure —
//! truncated file, flipped byte, an entry copied from a different run —
//! deletes the entry and reports [`CacheRead::Corrupt`], and the caller
//! recomputes. A corrupt cache can cost time; it can never produce a
//! wrong answer.

use crate::proto::{decode_outcome, encode_outcome, DetectOutcome};
use matelda_ckpt::{decode_envelope, encode_envelope, Vfs};
use matelda_table::wire::{Reader, Writer};
use std::io;
use std::path::{Path, PathBuf};

/// The envelope "stage" name for memo entries — distinct from every
/// pipeline stage, so a stray stage snapshot can never validate as a
/// cache entry (and vice versa).
const MEMO_STAGE: &str = "memo";

/// What a cache lookup found.
#[derive(Debug, PartialEq)]
pub enum CacheRead {
    /// No entry for this key.
    Miss,
    /// A fully validated entry.
    Hit(DetectOutcome),
    /// An entry existed but failed validation; it has been removed and
    /// the caller must recompute. Never served.
    Corrupt,
}

/// An on-disk memo-cache rooted at one directory, one file per key.
#[derive(Debug, Clone)]
pub struct MemoCache {
    dir: PathBuf,
    vfs: Vfs,
}

impl MemoCache {
    /// Opens (creating if needed) the cache directory with plain
    /// filesystem I/O.
    pub fn open(dir: &Path) -> io::Result<MemoCache> {
        Self::open_with(dir, Vfs::real())
    }

    /// Opens (creating if needed) the cache directory, routing every
    /// byte through `vfs`. Stale `*.tmp` litter from interrupted
    /// commits is scavenged here — a crashed store never pins disk.
    pub fn open_with(dir: &Path, vfs: Vfs) -> io::Result<MemoCache> {
        vfs.create_dir_all(dir)?;
        for path in vfs.read_dir_paths(dir)? {
            if path.extension().is_some_and(|e| e == "tmp") && path.is_file() {
                vfs.remove_file(&path)?;
            }
        }
        Ok(MemoCache { dir: dir.to_path_buf(), vfs })
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for a key (exposed for corruption tests).
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.res"))
    }

    /// Looks a key up, validating magic, version, key stamp, stage name
    /// and payload checksum before trusting a byte of the payload.
    pub fn load(&self, key: u64) -> CacheRead {
        let path = self.entry_path(key);
        let bytes = match self.vfs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CacheRead::Miss,
            Err(_) => return self.evict(&path),
        };
        let (stamped, stage, payload) = match decode_envelope(&bytes) {
            Ok(parts) => parts,
            Err(_) => return self.evict(&path),
        };
        if stamped != key || stage != MEMO_STAGE {
            return self.evict(&path);
        }
        let mut r = Reader::new(&payload);
        let outcome = match decode_outcome(&mut r).and_then(|o| r.finish().map(|()| o)) {
            Ok(o) => o,
            Err(_) => return self.evict(&path),
        };
        CacheRead::Hit(outcome)
    }

    /// Stores an entry with the full tmp + fsync + rename commit, so a
    /// crash — or power cut — mid-write leaves either the old entry or
    /// none, never a torn one under the final name. Best-effort at the
    /// call site: a failed store only costs a future recompute, never
    /// the request.
    pub fn store(&self, key: u64, outcome: &DetectOutcome) -> io::Result<()> {
        let mut w = Writer::new();
        encode_outcome(&mut w, outcome);
        let bytes = encode_envelope(key, MEMO_STAGE, w.as_bytes());
        self.vfs.write_atomic(&self.entry_path(key), &bytes).map(|_| ())
    }

    /// Removes one entry by key (the eviction layer's hook). Missing
    /// entries are fine — eviction races lookups by design.
    pub fn remove(&self, key: u64) -> io::Result<()> {
        match self.vfs.remove_file(&self.entry_path(key)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    fn evict(&self, path: &Path) -> CacheRead {
        let _ = self.vfs.remove_file(path);
        CacheRead::Corrupt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> DetectOutcome {
        DetectOutcome {
            digest: 0xDEAD_BEEF,
            labels_used: 20,
            n_domain_folds: 3,
            n_quality_folds: 9,
            flagged: 155,
            quarantined_tables: 0,
            stages_run: 6,
            stages_restored: 0,
            cached: false,
            degraded: false,
        }
    }

    fn temp_cache(tag: &str) -> MemoCache {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("matelda-memo-{tag}-{}-{n}", std::process::id()));
        MemoCache::open(&dir).unwrap()
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = temp_cache("roundtrip");
        assert_eq!(cache.load(7), CacheRead::Miss);
        cache.store(7, &outcome()).unwrap();
        assert_eq!(cache.load(7), CacheRead::Hit(outcome()));
        // A different key never sees the entry.
        assert_eq!(cache.load(8), CacheRead::Miss);
        let _ = std::fs::remove_dir_all(cache.dir);
    }

    #[test]
    fn any_corruption_is_detected_and_evicted() {
        for (i, damage) in [0usize, 1, 2].into_iter().enumerate() {
            let cache = temp_cache("corrupt");
            cache.store(5, &outcome()).unwrap();
            let path = cache.entry_path(5);
            let mut bytes = std::fs::read(&path).unwrap();
            match damage {
                0 => bytes.truncate(bytes.len() / 2),
                1 => {
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x20;
                }
                _ => bytes.clear(),
            }
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(cache.load(5), CacheRead::Corrupt, "damage {i}");
            assert!(!path.exists(), "corrupt entry must be evicted (damage {i})");
            // The corrupt read degraded to a miss for the next caller.
            assert_eq!(cache.load(5), CacheRead::Miss, "damage {i}");
            let _ = std::fs::remove_dir_all(cache.dir);
        }
    }

    #[test]
    fn open_scavenges_stale_tmp_litter() {
        let cache = temp_cache("scavenge");
        cache.store(3, &outcome()).unwrap();
        let litter = cache.dir().join("deadbeef00000000.tmp");
        std::fs::write(&litter, b"half a crashed commit").unwrap();
        let reopened = MemoCache::open(cache.dir()).unwrap();
        assert!(!litter.exists(), "stale tmp must be scavenged on open");
        assert_eq!(reopened.load(3), CacheRead::Hit(outcome()), "real entries survive");
        let _ = std::fs::remove_dir_all(cache.dir);
    }

    #[test]
    fn store_commits_atomically_through_the_vfs() {
        use matelda_ckpt::{FaultKind, InjectAt, Vfs};
        let cache = temp_cache("atomic");
        cache.store(9, &outcome()).unwrap();
        // A faulted re-store (any site of the commit) must leave the old
        // entry fully intact — write_atomic never tears the final name.
        // Opening consumes ops 0-1 (create_dir, scavenge read_dir); the
        // commit is ops 2-6 (open, write, sync, rename, dir-sync).
        for at in 2..6 {
            let inj = InjectAt::new(at, FaultKind::Errno(std::io::ErrorKind::StorageFull));
            let faulty =
                MemoCache::open_with(cache.dir(), Vfs::with_injector(inj.clone())).unwrap();
            let err = faulty.store(9, &outcome()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::StorageFull, "site {at}");
            assert_eq!(inj.fired(), 1, "site {at}");
            assert_eq!(cache.load(9), CacheRead::Hit(outcome()), "site {at}");
        }
        let _ = std::fs::remove_dir_all(cache.dir);
    }

    #[test]
    fn remove_frees_the_entry_and_tolerates_absence() {
        let cache = temp_cache("remove");
        cache.store(4, &outcome()).unwrap();
        cache.remove(4).unwrap();
        assert_eq!(cache.load(4), CacheRead::Miss);
        cache.remove(4).unwrap(); // absent: still Ok
        let _ = std::fs::remove_dir_all(cache.dir);
    }

    #[test]
    fn an_entry_stamped_for_another_key_never_validates() {
        let cache = temp_cache("foreign");
        cache.store(1, &outcome()).unwrap();
        std::fs::copy(cache.entry_path(1), cache.entry_path(2)).unwrap();
        assert_eq!(cache.load(2), CacheRead::Corrupt, "foreign entry must not be served");
        assert_eq!(cache.load(1), CacheRead::Hit(outcome()));
        let _ = std::fs::remove_dir_all(cache.dir);
    }
}
