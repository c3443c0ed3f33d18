//! The atomic checkpoint store: one directory per run holding
//! `manifest.ckpt` plus one `<stage>.ckpt` snapshot per completed
//! stage.
//!
//! ## Commit protocol
//!
//! Every file is written as `<name>.tmp`, fsync'd, renamed over the
//! final name, and the directory fsync'd (best-effort). A crash at any
//! point leaves either the previous complete file or a stray `*.tmp`
//! that [`CheckpointStore::open`] sweeps away — the final name is never
//! observed half-written by a well-behaved writer. External corruption
//! (disk faults, hostile edits, the chaos harness's torn-write mode)
//! is caught by the envelope checks on load instead.
//!
//! ## Snapshot envelope
//!
//! ```text
//! "MTLDCKPT" | version:u32 | manifest_hash:u64 | stage:str
//!            | payload:bytes | payload_fnv1a:u64
//! ```
//!
//! A snapshot loads only if magic, version, manifest hash, stage name
//! and payload digest all check out and the file is consumed exactly.
//! Failures map to [`CkptError::Corrupt`] (bad bytes) or
//! [`CkptError::Mismatch`] (valid bytes from a *different* run) — the
//! caller decides whether that aborts the run or falls back to
//! recomputation, but a questionable snapshot is never silently reused.
//!
//! ## Crash injection
//!
//! For subprocess crash-recovery tests, the [`CRASH_ENV`] environment
//! variable (`after:<stage>` or `torn:<stage>`) makes [`CheckpointStore::
//! save_stage`] abort the process at the matching boundary — after a
//! complete commit, or after planting a truncated snapshot directly
//! under the final name (modelling corruption the rename protocol
//! cannot prevent). Parsed once per process; inert when unset.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use crate::manifest::{Manifest, FORMAT_VERSION};
use crate::vfs::Vfs;
use matelda_obs::{Obs, Val};
use matelda_table::fingerprint::Fnv1a;
use matelda_table::wire::{DecodeError, Reader, Writer};

const ENVELOPE_MAGIC: &[u8; 8] = b"MTLDCKPT";
const MANIFEST_FILE: &str = "manifest.ckpt";

/// Environment variable carrying a crash directive for subprocess
/// crash-recovery tests: `after:<stage>` or `torn:<stage>`.
pub const CRASH_ENV: &str = "MATELDA_CKPT_CRASH";

/// What a durability operation can fail with.
#[derive(Debug)]
pub enum CkptError {
    /// An I/O error touching the checkpoint directory.
    Io { path: PathBuf, source: io::Error },
    /// A file exists but its bytes do not decode as a valid record.
    Corrupt { path: PathBuf, reason: DecodeError },
    /// A valid record that belongs to a different run: resuming would
    /// silently mix artifacts from incompatible inputs, so it is a
    /// hard error naming the differing field.
    Mismatch { what: &'static str, expected: String, found: String },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { path, source } => {
                write!(f, "checkpoint I/O error at {}: {source}", path.display())
            }
            CkptError::Corrupt { path, reason } => {
                write!(f, "corrupt checkpoint {}: {reason}", path.display())
            }
            CkptError::Mismatch { what, expected, found } => {
                write!(
                    f,
                    "resume mismatch: checkpoint {what} is {expected}, current run has {found}"
                )
            }
        }
    }
}

impl Error for CkptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CkptError::Io { source, .. } => Some(source),
            CkptError::Corrupt { reason, .. } => Some(reason),
            CkptError::Mismatch { .. } => None,
        }
    }
}

/// Where in [`CheckpointStore::save_stage`] an injected crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Abort *after* the snapshot is fully committed — models a crash
    /// between stages; resume should restore everything up to and
    /// including this stage.
    AfterCommit,
    /// Write a truncated envelope directly under the final name
    /// (bypassing tmp+rename) and abort — models external corruption;
    /// resume must reject the snapshot.
    TornWrite,
}

/// A parsed [`CRASH_ENV`] directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashDirective {
    /// How to die.
    pub mode: CrashMode,
    /// The stage whose `save_stage` call triggers the crash.
    pub stage: String,
}

impl CrashDirective {
    /// Parses `after:<stage>` / `torn:<stage>`; `None` for anything else.
    pub fn parse(value: &str) -> Option<CrashDirective> {
        let (mode, stage) = value.split_once(':')?;
        let mode = match mode {
            "after" => CrashMode::AfterCommit,
            "torn" => CrashMode::TornWrite,
            _ => return None,
        };
        if stage.is_empty() {
            return None;
        }
        Some(CrashDirective { mode, stage: stage.to_owned() })
    }

    /// The [`CRASH_ENV`] value encoding this directive.
    pub fn env_value(&self) -> String {
        let mode = match self.mode {
            CrashMode::AfterCommit => "after",
            CrashMode::TornWrite => "torn",
        };
        format!("{mode}:{}", self.stage)
    }

    fn from_env() -> Option<&'static CrashDirective> {
        static DIRECTIVE: OnceLock<Option<CrashDirective>> = OnceLock::new();
        DIRECTIVE
            .get_or_init(|| std::env::var(CRASH_ENV).ok().as_deref().and_then(Self::parse))
            .as_ref()
    }
}

/// An open per-run checkpoint directory bound to one [`Manifest`].
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    manifest: Manifest,
    obs: Obs,
    vfs: Vfs,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory for a run
    /// described by `manifest`, with plain filesystem I/O. See
    /// [`CheckpointStore::open_with`] for the full contract.
    pub fn open(
        dir: &Path,
        manifest: Manifest,
        resume: bool,
    ) -> Result<CheckpointStore, CkptError> {
        Self::open_with(dir, manifest, resume, Vfs::real())
    }

    /// Opens (creating if needed) a checkpoint directory for a run
    /// described by `manifest`, routing every byte through `vfs`.
    ///
    /// Stray `*.tmp` files from interrupted commits are always removed.
    /// With `resume = false` any existing snapshots are deleted and a
    /// fresh manifest written. With `resume = true` and an existing
    /// manifest on disk, the stored determinism inputs must match the
    /// live run (thread count exempt) or the open fails with
    /// [`CkptError::Mismatch`]; a missing manifest degrades to a fresh
    /// run, a corrupt one is [`CkptError::Corrupt`].
    pub fn open_with(
        dir: &Path,
        manifest: Manifest,
        resume: bool,
        vfs: Vfs,
    ) -> Result<CheckpointStore, CkptError> {
        let io_err = |source| CkptError::Io { path: dir.to_path_buf(), source };
        vfs.create_dir_all(dir).map_err(io_err)?;
        Self::sweep(&vfs, dir, "tmp").map_err(io_err)?;

        let manifest_path = dir.join(MANIFEST_FILE);
        let stored = if resume {
            match vfs.read(&manifest_path) {
                Ok(bytes) => Some(Manifest::decode(&bytes).map_err(|reason| {
                    CkptError::Corrupt { path: manifest_path.clone(), reason }
                })?),
                Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                Err(source) => return Err(CkptError::Io { path: manifest_path, source }),
            }
        } else {
            None
        };

        match stored {
            Some(disk) => manifest.validate_against(&disk)?,
            None => {
                // Fresh run (or resume with nothing to resume from):
                // stale snapshots must not survive under a new manifest.
                Self::sweep(&vfs, dir, "ckpt").map_err(io_err)?;
                vfs.write_atomic(&manifest_path, &manifest.encode())
                    .map_err(|source| CkptError::Io { path: manifest_path, source })?;
            }
        }
        Ok(CheckpointStore { dir: dir.to_path_buf(), manifest, obs: Obs::disabled(), vfs })
    }

    /// Attaches an observability handle: commits and restores then
    /// land in the run event log (`ckpt.commit` / `ckpt.load`) with
    /// matching counters. Events describe I/O only — snapshot bytes,
    /// checksums and the manifest never depend on the handle.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Deletes every regular file in `dir` with the given extension.
    fn sweep(vfs: &Vfs, dir: &Path, ext: &str) -> io::Result<()> {
        for path in vfs.read_dir_paths(dir)? {
            if path.extension().is_some_and(|e| e == ext) && path.is_file() {
                vfs.remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest this store is bound to.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The storage handle this store routes its I/O through.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    fn stage_path(&self, stage: &str) -> PathBuf {
        // Stage names are pipeline identifiers (`embed`, `quality_folds`,
        // …), never user input, so plain join is safe.
        self.dir.join(format!("{stage}.ckpt"))
    }

    /// Commits one stage snapshot atomically. If a [`CRASH_ENV`]
    /// directive names this stage, the process aborts per its mode.
    pub fn save_stage(&self, stage: &str, payload: &[u8]) -> Result<(), CkptError> {
        let path = self.stage_path(stage);
        let bytes = encode_envelope(self.manifest.hash(), stage, payload);
        let io_err = |source| CkptError::Io { path: path.clone(), source };

        if let Some(d) = CrashDirective::from_env() {
            if d.stage == stage {
                match d.mode {
                    CrashMode::AfterCommit => {
                        self.vfs.write_atomic(&path, &bytes).map_err(io_err)?;
                        std::process::abort();
                    }
                    CrashMode::TornWrite => {
                        // Plant a half-written snapshot under the final
                        // name, bypassing tmp+rename: this is the fault
                        // class atomic commit *cannot* rule out, only
                        // the envelope checks can catch.
                        let torn = &bytes[..bytes.len() / 2];
                        fs::write(&path, torn).map_err(io_err)?;
                        std::process::abort();
                    }
                }
            }
        }
        let commit = self.vfs.write_atomic(&path, &bytes).map_err(io_err)?;
        if !commit.dir_synced {
            // The snapshot is durable but the *rename* may not survive a
            // power cut. Not fatal — but no longer silent either.
            self.obs.counter_add("ckpt.dirsync_failed", 1);
            if self.obs.is_enabled() {
                self.obs.event("ckpt.dirsync_failed", &[("stage", Val::S(stage))]);
            }
        }
        if self.obs.is_enabled() {
            self.obs.event(
                "ckpt.commit",
                &[
                    ("stage", Val::S(stage)),
                    ("bytes", Val::U(bytes.len() as u64)),
                    ("retries", Val::U(commit.retries as u64)),
                ],
            );
            self.obs.counter_add("ckpt.commits", 1);
        }
        Ok(())
    }

    /// Loads and fully verifies one stage snapshot.
    ///
    /// `Ok(None)` means no snapshot exists (the stage must run).
    /// `Err(Corrupt)` means a file exists but fails any envelope check;
    /// `Err(Mismatch)` means a *valid* snapshot stamped with a different
    /// manifest hash. Neither is ever reinterpreted as "just recompute".
    pub fn load_stage(&self, stage: &str) -> Result<Option<Vec<u8>>, CkptError> {
        let path = self.stage_path(stage);
        let bytes = match self.vfs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(source) => return Err(CkptError::Io { path, source }),
        };
        let (manifest_hash, name, payload) = decode_envelope(&bytes)
            .map_err(|reason| CkptError::Corrupt { path: path.clone(), reason })?;
        if name != stage {
            return Err(CkptError::Mismatch {
                what: "stage name",
                expected: stage.to_owned(),
                found: name,
            });
        }
        if manifest_hash != self.manifest.hash() {
            // The envelope only carries the combined hash, but the
            // rejecting run knows its own full identity — include it so
            // the log line says which config/lake/seed refused the file.
            return Err(CkptError::Mismatch {
                what: "manifest hash",
                expected: format!("{manifest_hash:#018x} [from {}]", path.display()),
                found: format!(
                    "{:#018x} [current run {}]",
                    self.manifest.hash(),
                    self.manifest.identity()
                ),
            });
        }
        if self.obs.is_enabled() {
            self.obs.event(
                "ckpt.load",
                &[("stage", Val::S(stage)), ("bytes", Val::U(payload.len() as u64))],
            );
            self.obs.counter_add("ckpt.loads", 1);
        }
        Ok(Some(payload))
    }
}

/// Builds the snapshot envelope around a stage payload.
pub fn encode_envelope(manifest_hash: u64, stage: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.write_raw(ENVELOPE_MAGIC);
    w.write_u32(FORMAT_VERSION);
    w.write_u64(manifest_hash);
    w.write_str(stage);
    w.write_bytes(payload);
    let mut digest = Fnv1a::new();
    digest.write_bytes(payload);
    w.write_u64(digest.finish());
    w.into_bytes()
}

/// Decodes and fully verifies a snapshot envelope, returning
/// `(manifest_hash, stage_name, payload)`.
pub fn decode_envelope(bytes: &[u8]) -> Result<(u64, String, Vec<u8>), DecodeError> {
    let mut r = Reader::new(bytes);
    if r.read_raw(ENVELOPE_MAGIC.len())? != ENVELOPE_MAGIC {
        return Err(DecodeError::BadMagic { expected: "MTLDCKPT" });
    }
    let version = r.read_u32()?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::BadVersion { found: version, expected: FORMAT_VERSION });
    }
    let manifest_hash = r.read_u64()?;
    let stage = r.read_str()?;
    let payload = r.read_bytes()?.to_vec();
    let recorded = r.read_u64()?;
    r.finish()?;
    let mut digest = Fnv1a::new();
    digest.write_bytes(&payload);
    let computed = digest.finish();
    if recorded != computed {
        return Err(DecodeError::HashMismatch { expected: recorded, found: computed });
    }
    Ok((manifest_hash, stage, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn manifest() -> Manifest {
        Manifest { config_hash: 11, lake_fingerprint: 22, seed: 33, budget: 44, threads: 2 }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("matelda-ckpt-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::open(&dir, manifest(), false).unwrap();
        store.save_stage("embed", b"artifact bytes").unwrap();
        assert_eq!(store.load_stage("embed").unwrap().unwrap(), b"artifact bytes");
        assert_eq!(store.load_stage("classify").unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_open_discards_old_snapshots_resume_keeps_them() {
        let dir = temp_dir("fresh");
        let store = CheckpointStore::open(&dir, manifest(), false).unwrap();
        store.save_stage("embed", b"old").unwrap();

        let resumed = CheckpointStore::open(&dir, manifest(), true).unwrap();
        assert_eq!(resumed.load_stage("embed").unwrap().unwrap(), b"old");

        let fresh = CheckpointStore::open(&dir, manifest(), false).unwrap();
        assert_eq!(fresh.load_stage("embed").unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_with_changed_inputs_is_a_named_mismatch() {
        let dir = temp_dir("mismatch");
        CheckpointStore::open(&dir, manifest(), false).unwrap();
        let mut other = manifest();
        other.seed ^= 1;
        let err = CheckpointStore::open(&dir, other, true).unwrap_err();
        assert!(err.to_string().contains("seed"), "got: {err}");
        // Thread count alone must not block resume.
        let mut threads = manifest();
        threads.threads = 16;
        CheckpointStore::open(&dir, threads, true).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_without_manifest_degrades_to_fresh() {
        let dir = temp_dir("nomanifest");
        let store = CheckpointStore::open(&dir, manifest(), true).unwrap();
        assert_eq!(store.load_stage("embed").unwrap(), None);
        assert!(dir.join(MANIFEST_FILE).is_file());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_is_corrupt_not_reused() {
        let dir = temp_dir("torn");
        let store = CheckpointStore::open(&dir, manifest(), false).unwrap();
        store.save_stage("embed", b"some payload with real length").unwrap();
        let path = dir.join("embed.ckpt");
        let full = fs::read(&path).unwrap();
        for cut in [0, 5, full.len() / 2, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(
                matches!(store.load_stage("embed"), Err(CkptError::Corrupt { .. })),
                "cut at {cut}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbled_snapshot_is_corrupt() {
        let dir = temp_dir("garble");
        let store = CheckpointStore::open(&dir, manifest(), false).unwrap();
        store.save_stage("embed", b"payload payload payload").unwrap();
        let path = dir.join("embed.ckpt");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip one payload-digest bit
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.load_stage("embed"), Err(CkptError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_from_another_run_is_a_mismatch() {
        let dir_a = temp_dir("foreign-a");
        let dir_b = temp_dir("foreign-b");
        let a = CheckpointStore::open(&dir_a, manifest(), false).unwrap();
        a.save_stage("embed", b"theirs").unwrap();
        let mut other = manifest();
        other.seed = 777;
        let b = CheckpointStore::open(&dir_b, other, false).unwrap();
        fs::copy(dir_a.join("embed.ckpt"), dir_b.join("embed.ckpt")).unwrap();
        assert!(matches!(b.load_stage("embed"), Err(CkptError::Mismatch { .. })));
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn stray_tmp_files_are_swept_on_open() {
        let dir = temp_dir("sweep");
        fs::write(dir.join("embed.tmp"), b"half a write").unwrap();
        CheckpointStore::open(&dir, manifest(), true).unwrap();
        assert!(!dir.join("embed.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_directive_parses_and_round_trips() {
        let d = CrashDirective::parse("after:classify").unwrap();
        assert_eq!(d, CrashDirective { mode: CrashMode::AfterCommit, stage: "classify".into() });
        assert_eq!(CrashDirective::parse(&d.env_value()).unwrap(), d);
        let t = CrashDirective::parse("torn:embed").unwrap();
        assert_eq!(t.mode, CrashMode::TornWrite);
        for bad in ["", "after", "boom:embed", "after:"] {
            assert_eq!(CrashDirective::parse(bad), None, "{bad:?}");
        }
    }
}
