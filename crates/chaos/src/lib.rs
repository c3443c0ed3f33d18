//! # matelda-chaos
//!
//! A seed-deterministic chaos harness for the fault-isolated pipeline.
//!
//! Robustness claims are only testable if the faults themselves are
//! reproducible, so everything here derives from a single [`FaultPlan`]
//! seed:
//!
//! * **File-level** — [`FaultPlan::corrupt_dir`] picks victim CSV files
//!   in a lake directory and applies a [`Corruption`] (truncate mid-byte,
//!   garble with invalid UTF-8, raggedize rows). Running the same plan on
//!   two identical directories produces byte-identical corruption, so
//!   ingestion tests can assert exact outcomes.
//! * **Stage-level** — [`FaultPlan::stage_points`] picks victim
//!   `(stage, index)` work items; arm them with
//!   [`matelda_exec::faultpoint::arm`] and the executor
//!   converts each injected panic into a per-item fault that the engine
//!   quarantines under `FaultPolicy::Skip`.
//! * **Process-level** — [`FaultPlan::crash_directive`] picks the stage
//!   boundary at which a *subprocess* run dies: exported through the
//!   [`CRASH_ENV`] environment variable, the checkpoint store aborts the
//!   process right after committing that stage's snapshot
//!   ([`CrashMode::AfterCommit`]) or after planting a truncated snapshot
//!   under the final name ([`CrashMode::TornWrite`]). The crash-recovery
//!   suites then resume and assert bit-identity with a clean run.
//! * **Storage-level** — [`FaultPlan::io_fault`] picks the Nth
//!   durability I/O operation and an errno-level [`FaultKind`]
//!   (ENOSPC, EIO, short write, torn rename) to inject through the
//!   checkpoint layer's [`Vfs`] seam; `tests/io_faults.rs` sweeps
//!   *every* site exhaustively and asserts the degradation contract
//!   (DESIGN.md §12): bit-identical digest or an explicit degraded /
//!   storage-full outcome — never a panic, never silent corruption.
//!
//! The integration suites (`tests/chaos.rs`, `tests/durability.rs`) use
//! these layers to assert the robustness contracts: a run with k killed
//! tables completes, quarantines exactly those k, and scores the
//! survivors bit-identically to a faultless run on the survivor-only
//! lake; a run killed at any checkpoint boundary resumes bit-identically
//! to an uninterrupted one — at any thread count.

use matelda_table::fingerprint::Fnv1a;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::{Path, PathBuf};

pub use matelda_ckpt::{CrashDirective, CrashMode, CRASH_ENV};
pub use matelda_ckpt::{FaultKind, InjectAt, IoOp, Vfs};
pub use matelda_exec::faultpoint;

/// The errno-level storage faults an I/O plan can inject — the hostile
/// filesystem's repertoire: out of space, a medium error, a write cut
/// short, a rename that leaves torn bytes under the final name.
pub const IO_FAULT_KINDS: [FaultKind; 4] = [
    FaultKind::Errno(io::ErrorKind::StorageFull),
    FaultKind::Errno(io::ErrorKind::Other),
    FaultKind::ShortWrite,
    FaultKind::TornRename,
];

/// The pipeline's stage names in execution order — the checkpoint
/// boundaries a [`FaultPlan::crash_directive`] can pick from.
pub const STAGE_NAMES: [&str; 6] =
    ["embed", "featurize", "domain_folds", "quality_folds", "label", "classify"];

/// The kinds of file corruption the harness can inflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Cut the file at a random byte offset (possibly mid-record,
    /// mid-field or mid-quote).
    Truncate,
    /// Overwrite ~10% of the bytes with values from `0x80..=0xFF`,
    /// which are never valid single-byte UTF-8.
    Garble,
    /// Add or remove trailing fields on random data rows, so row widths
    /// disagree with the header.
    Raggedize,
}

/// One applied corruption: which file, which kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionRecord {
    /// The corrupted file.
    pub path: PathBuf,
    /// What was done to it.
    pub kind: Corruption,
}

/// A reproducible plan of faults. Every decision — victim choice,
/// corruption kind, byte offsets — is a pure function of the plan seed
/// and a domain string (stage name or file name), so two plans with the
/// same seed inflict identical damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The master seed.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan with the given master seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed }
    }

    /// The RNG for one decision domain: the master seed mixed with an
    /// FNV-1a hash of the domain string, so choices for different
    /// stages/files are independent but individually reproducible.
    fn rng(&self, domain: &str) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ fnv1a(domain))
    }

    /// Picks `k` distinct victims among `n` items (ascending). `k` is
    /// clamped to `n`.
    pub fn victims(&self, domain: &str, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        let mut rng = self.rng(domain);
        let mut idx: Vec<usize> = sample(&mut rng, n, k).into_iter().collect();
        idx.sort_unstable();
        idx
    }

    /// Stage-level injection points: kill `k` of the stage's `n_items`
    /// work items. Feed the result to
    /// [`matelda_exec::faultpoint::arm`].
    pub fn stage_points(&self, stage: &str, n_items: usize, k: usize) -> Vec<(String, usize)> {
        self.victims(stage, n_items, k).into_iter().map(|i| (stage.to_string(), i)).collect()
    }

    /// Picks the checkpoint boundary at which a subprocess run should
    /// die, deterministically from the plan seed and the crash mode.
    /// Export [`CrashDirective::env_value`] under [`CRASH_ENV`] in the
    /// child's environment; the checkpoint store does the killing.
    pub fn crash_directive(&self, mode: CrashMode) -> CrashDirective {
        let domain = match mode {
            CrashMode::AfterCommit => "crash:after",
            CrashMode::TornWrite => "crash:torn",
        };
        let mut rng = self.rng(domain);
        let stage = STAGE_NAMES[rng.random_range(0..STAGE_NAMES.len())];
        CrashDirective { mode, stage: stage.to_string() }
    }

    /// **Storage-level** — picks one I/O fault over a run known (from a
    /// [`Vfs::recording`] dry run) to perform `n_ops` storage
    /// operations: a site in `0..n_ops` and a kind from
    /// [`IO_FAULT_KINDS`], both pure functions of the plan seed and
    /// `domain`. Arm it with [`InjectAt::new`] and hand that to
    /// [`Vfs::with_injector`].
    pub fn io_fault(&self, domain: &str, n_ops: u64) -> (u64, FaultKind) {
        let mut rng = self.rng(&format!("io:{domain}"));
        let at = rng.random_range(0..n_ops.max(1));
        let kind = IO_FAULT_KINDS[rng.random_range(0..IO_FAULT_KINDS.len())];
        (at, kind)
    }

    /// Corrupts `k` of the `*.csv` files under `dir` in place (victims
    /// chosen over the sorted file list, corruption kind and bytes
    /// derived per file name). Returns what was done to which file.
    pub fn corrupt_dir(&self, dir: &Path, k: usize) -> io::Result<Vec<CorruptionRecord>> {
        // The same file-name ordering ingestion uses, so victim indices
        // line up with table indices regardless of readdir order.
        let paths: Vec<PathBuf> = matelda_table::csv_paths_sorted(dir)?;
        let victims = self.victims("files", paths.len(), k);
        let mut records = Vec::with_capacity(victims.len());
        for &v in &victims {
            let path = &paths[v];
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
            let mut rng = self.rng(&format!("corrupt:{name}"));
            let kind = match rng.random_range(0..3usize) {
                0 => Corruption::Truncate,
                1 => Corruption::Garble,
                _ => Corruption::Raggedize,
            };
            let bytes = std::fs::read(path)?;
            std::fs::write(path, corrupt_bytes(&bytes, kind, &mut rng))?;
            records.push(CorruptionRecord { path: path.clone(), kind });
        }
        Ok(records)
    }

    /// [`Self::corrupt_dir`] with the inflicted damage recorded in an
    /// observability handle: one `chaos.corrupt` event per victim file
    /// plus a `chaos.corruptions` counter, so a traced chaos run's event
    /// log shows which faults were *planned* next to the `fault.item`
    /// events the pipeline emits when it hits them.
    pub fn corrupt_dir_logged(
        &self,
        dir: &Path,
        k: usize,
        obs: &matelda_obs::Obs,
    ) -> io::Result<Vec<CorruptionRecord>> {
        let records = self.corrupt_dir(dir, k)?;
        for rec in &records {
            let name = rec.path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
            let kind = match rec.kind {
                Corruption::Truncate => "truncate",
                Corruption::Garble => "garble",
                Corruption::Raggedize => "raggedize",
            };
            obs.event(
                "chaos.corrupt",
                &[
                    ("file", matelda_obs::Val::S(name)),
                    ("kind", matelda_obs::Val::S(kind)),
                    ("seed", matelda_obs::Val::U(self.seed)),
                ],
            );
        }
        obs.counter_add("chaos.corruptions", records.len() as u64);
        Ok(records)
    }
}

/// Corrupts one file in place, seed-deterministically: reads it, applies
/// [`corrupt_bytes`] with an RNG derived from `seed` and the file name,
/// writes the damage back. The serve memo-cache tests use this to prove
/// a checksum-validated cache entry is recomputed, never served, after
/// on-disk damage.
pub fn corrupt_file(path: &Path, kind: Corruption, seed: u64) -> io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let mut rng = StdRng::seed_from_u64(seed ^ fnv1a(name));
    let bytes = std::fs::read(path)?;
    std::fs::write(path, corrupt_bytes(&bytes, kind, &mut rng))
}

/// Applies one corruption to a byte buffer (pure; exposed so tests can
/// corrupt in memory without touching disk).
pub fn corrupt_bytes(bytes: &[u8], kind: Corruption, rng: &mut StdRng) -> Vec<u8> {
    match kind {
        Corruption::Truncate => {
            if bytes.len() < 2 {
                return bytes.to_vec();
            }
            let cut = rng.random_range(1..bytes.len());
            bytes[..cut].to_vec()
        }
        Corruption::Garble => {
            let mut out = bytes.to_vec();
            if out.is_empty() {
                return out;
            }
            let hits = (out.len() / 10).max(1);
            for _ in 0..hits {
                let i = rng.random_range(0..out.len());
                out[i] = rng.random_range(0x80u8..=0xFF);
            }
            out
        }
        Corruption::Raggedize => {
            let mut lines: Vec<Vec<u8>> =
                bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
            // Skip the header (line 0); damage each data row with
            // probability 1/2: half the damaged rows grow a field, half
            // lose their last one.
            for line in lines.iter_mut().skip(1).filter(|l| !l.is_empty()) {
                match rng.random_range(0..4usize) {
                    0 => line.extend_from_slice(b",__chaos__"),
                    1 => {
                        if let Some(p) = line.iter().rposition(|&b| b == b',') {
                            line.truncate(p);
                        }
                    }
                    _ => {}
                }
            }
            lines.join(&b'\n')
        }
    }
}

/// FNV-1a over a string's bytes (no length prefix), used to derive
/// per-domain seeds.
fn fnv1a(s: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(s.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_are_deterministic_distinct_and_bounded() {
        let plan = FaultPlan::new(42);
        let v = plan.victims("embed", 10, 3);
        assert_eq!(v, FaultPlan::new(42).victims("embed", 10, 3));
        assert_eq!(v, [3, 8, 9], "the victims recorded before the seed hash moved to Fnv1a");
        assert_eq!(v.len(), 3);
        let mut d = v.clone();
        d.dedup();
        assert_eq!(d, v, "victims are distinct and sorted");
        assert!(v.iter().all(|&i| i < 10));
        // k clamps to n; k = 0 picks nobody.
        assert_eq!(plan.victims("embed", 2, 5).len(), 2);
        assert!(plan.victims("embed", 10, 0).is_empty());
        assert!(plan.victims("embed", 0, 3).is_empty());
    }

    #[test]
    fn stage_points_name_the_stage() {
        let plan = FaultPlan::new(7);
        let points = plan.stage_points("featurize", 6, 2);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|(s, i)| s == "featurize" && *i < 6));
    }

    #[test]
    fn crash_directive_is_deterministic_and_names_a_real_stage() {
        for mode in [CrashMode::AfterCommit, CrashMode::TornWrite] {
            let d = FaultPlan::new(11).crash_directive(mode);
            assert_eq!(d, FaultPlan::new(11).crash_directive(mode));
            assert!(STAGE_NAMES.contains(&d.stage.as_str()), "{d:?}");
            assert_eq!(d.mode, mode);
            // The env round trip the subprocess harness relies on.
            assert_eq!(CrashDirective::parse(&d.env_value()).unwrap(), d);
        }
        // Different seeds eventually pick different boundaries.
        let picks: std::collections::BTreeSet<String> = (0..32)
            .map(|s| FaultPlan::new(s).crash_directive(CrashMode::AfterCommit).stage)
            .collect();
        assert!(picks.len() > 1, "crash boundary must vary with the seed");
    }

    #[test]
    fn garble_introduces_invalid_utf8() {
        let mut rng = StdRng::seed_from_u64(1);
        let out = corrupt_bytes(b"a,b\n1,2\n3,4\n", Corruption::Garble, &mut rng);
        assert!(std::str::from_utf8(&out).is_err());
        assert_eq!(out.len(), 12, "garbling preserves length");
    }

    #[test]
    fn truncate_shortens_without_growing() {
        let mut rng = StdRng::seed_from_u64(2);
        let input = b"a,b\n1,2\n3,4\n";
        let out = corrupt_bytes(input, Corruption::Truncate, &mut rng);
        assert!(!out.is_empty() && out.len() < input.len());
        assert!(input.starts_with(&out));
    }

    #[test]
    fn raggedize_keeps_the_header_line() {
        let mut rng = StdRng::seed_from_u64(3);
        let out = corrupt_bytes(b"a,b\n1,2\n3,4\n5,6\n7,8\n", Corruption::Raggedize, &mut rng);
        assert!(out.starts_with(b"a,b\n"), "header untouched: {:?}", String::from_utf8_lossy(&out));
    }

    #[test]
    fn corruption_is_byte_deterministic() {
        for kind in [Corruption::Truncate, Corruption::Garble, Corruption::Raggedize] {
            let a = corrupt_bytes(b"x,y\n1,2\n3,4\n", kind, &mut StdRng::seed_from_u64(9));
            let b = corrupt_bytes(b"x,y\n1,2\n3,4\n", kind, &mut StdRng::seed_from_u64(9));
            assert_eq!(a, b, "{kind:?}");
        }
    }
}
