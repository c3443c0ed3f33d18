//! The storage VFS seam: every durability byte goes through a [`Vfs`].
//!
//! PR 3 proved the checkpoint layer against *crashes*; this module is
//! how the workspace proves it against a *hostile filesystem*. A
//! [`Vfs`] is a cloneable handle wrapping the handful of filesystem
//! operations durability code is allowed to perform — read, atomic
//! write, rename, remove, directory listing/creation — with three
//! orthogonal capabilities layered behind one `Option` branch:
//!
//! * **Fault injection.** An [`InjectAt`] sees every operation
//!   (globally numbered, typed by [`IoOp`]) before it executes and
//!   answers the one it is armed for with a [`FaultKind`]: a plain errno (`ENOSPC`, `EIO`, …), a
//!   short write (half the bytes land, then the error), or a torn
//!   rename (a prefix of the payload appears under the *final* name —
//!   the fault class the commit protocol cannot prevent and the
//!   envelope checks must catch). Injection is how the fault-matrix
//!   audit enumerates "the Nth I/O operation fails" exhaustively.
//! * **Disk budget.** A [`Vfs::with_budget`] handle accounts every byte
//!   it puts under its root and refuses — with
//!   [`io::ErrorKind::StorageFull`] — any write that would exceed the
//!   budget. The accounting is conservative: while a commit is in
//!   flight both the tmp file and the old target are charged, so the
//!   bytes on disk never exceed the budget even transiently.
//!   [`Vfs::budget_release`] gives eviction layers (the serve state
//!   manager) their refund when they delete through the handle.
//! * **Bounded retry.** Transient errnos (`Interrupted`, `WouldBlock`,
//!   `TimedOut`) are retried up to [`TRANSIENT_RETRIES`] times inside
//!   [`Vfs::write_atomic`] and [`Vfs::read`]; anything else surfaces
//!   immediately. The retry count rides back on [`AtomicCommit`] so
//!   callers can log it.
//!
//! The plain handle ([`Vfs::real`], also `Default`) carries no state at
//! all and compiles down to the direct `std::fs` calls plus one
//! discriminant check.

use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many times a transient errno is retried before it surfaces.
pub const TRANSIENT_RETRIES: u32 = 3;

/// The operation classes the injection gate numbers (and can fault);
/// fault messages name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Creating/opening a file for writing (the tmp file of a commit).
    Open,
    /// Reading a whole file.
    Read,
    /// Writing payload bytes to an open file.
    Write,
    /// `fsync` on a file.
    Sync,
    /// Renaming tmp → final.
    Rename,
    /// Removing a file or directory tree.
    Remove,
    /// Listing a directory.
    ReadDir,
    /// Creating a directory chain.
    CreateDir,
    /// Best-effort `fsync` on a directory.
    DirSync,
}

impl IoOp {
    /// Stable lowercase name (event payloads, test labels).
    pub fn name(self) -> &'static str {
        match self {
            IoOp::Open => "open",
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Sync => "sync",
            IoOp::Rename => "rename",
            IoOp::Remove => "remove",
            IoOp::ReadDir => "read_dir",
            IoOp::CreateDir => "create_dir",
            IoOp::DirSync => "dir_sync",
        }
    }
}

/// What an injector can do to one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail with this errno; the operation has no effect.
    Errno(io::ErrorKind),
    /// Only half the payload reaches the file, then `WriteZero`.
    /// Meaningful for [`IoOp::Write`]; other ops treat it as `EIO`.
    ShortWrite,
    /// The rename "succeeds partially": a prefix of the payload lands
    /// under the destination name, the tmp file is gone, and the caller
    /// sees `EIO`. Models a non-atomic filesystem — the case that only
    /// envelope validation, never the commit protocol, can catch.
    /// Meaningful for [`IoOp::Rename`]; other ops treat it as `EIO`.
    TornRename,
}

impl FaultKind {
    /// The errno surfaced to the caller when this fault fires.
    pub fn errno(self) -> io::ErrorKind {
        match self {
            FaultKind::Errno(k) => k,
            FaultKind::ShortWrite => io::ErrorKind::WriteZero,
            FaultKind::TornRename => io::ErrorKind::Other,
        }
    }
}

/// Faults exactly one operation index.
///
/// Operations are numbered per handle, globally and from 0 — stable for
/// a deterministic workload, which is what lets the fault-matrix audit
/// enumerate sites by first counting a clean run's operations.
#[derive(Debug)]
pub struct InjectAt {
    /// The operation index to fault.
    pub at: u64,
    /// What to do to it.
    pub kind: FaultKind,
    fired: AtomicU64,
}

impl InjectAt {
    /// Faults operation `at` with `kind`; every other op passes.
    pub fn new(at: u64, kind: FaultKind) -> Arc<InjectAt> {
        Arc::new(InjectAt { at, kind, fired: AtomicU64::new(0) })
    }

    /// How many times the fault actually fired (0 or 1 per run unless
    /// retries re-reach the same index — they cannot: indices are
    /// globally monotonic).
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// `Some(fault)` makes operation `n` fail as described.
    fn inject(&self, n: u64) -> Option<FaultKind> {
        if n == self.at {
            self.fired.fetch_add(1, Ordering::Relaxed);
            Some(self.kind)
        } else {
            None
        }
    }
}

/// Shared byte accounting for one budgeted root.
#[derive(Debug)]
struct Budget {
    limit: u64,
    used: AtomicU64,
}

#[derive(Debug, Default)]
struct Instrumented {
    ops: AtomicU64,
    injector: Option<Arc<InjectAt>>,
    budget: Option<Budget>,
}

/// The storage handle. Cloning shares the op counter, injector and
/// budget, so one handle threads through store, cache and service
/// layers while faults and accounting stay globally coherent.
#[derive(Debug, Clone, Default)]
pub struct Vfs {
    inner: Option<Arc<Instrumented>>,
}

impl Vfs {
    /// The plain handle: direct `std::fs`, no counting, no faults, no
    /// budget. This is `Default` and what production runs use.
    pub fn real() -> Vfs {
        Vfs { inner: None }
    }

    /// A counting handle with no injector: operations execute normally
    /// but [`Vfs::op_count`] records how many there were — the site
    /// enumeration pass of the fault-matrix audit.
    pub fn recording() -> Vfs {
        Vfs { inner: Some(Arc::new(Instrumented::default())) }
    }

    /// A handle that consults `injector` before every operation.
    pub fn with_injector(injector: Arc<InjectAt>) -> Vfs {
        Vfs {
            inner: Some(Arc::new(Instrumented {
                ops: AtomicU64::new(0),
                injector: Some(injector),
                budget: None,
            })),
        }
    }

    /// A handle enforcing a byte budget, pre-charged with `used` bytes
    /// (what a scan of the root found already on disk). Writes that
    /// would push usage past `limit` fail with
    /// [`io::ErrorKind::StorageFull`] before touching the disk.
    pub fn with_budget(limit: u64, used: u64) -> Vfs {
        Vfs {
            inner: Some(Arc::new(Instrumented {
                ops: AtomicU64::new(0),
                injector: None,
                budget: Some(Budget { limit, used: AtomicU64::new(used) }),
            })),
        }
    }

    /// Operations executed through this handle (and its clones) so far.
    /// Always 0 on a plain [`Vfs::real`] handle.
    pub fn op_count(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ops.load(Ordering::Relaxed))
    }

    /// Bytes currently charged against the budget (`None` without one).
    pub fn budget_used(&self) -> Option<u64> {
        Some(self.inner.as_ref()?.budget.as_ref()?.used.load(Ordering::Relaxed))
    }

    /// The budget limit (`None` without one).
    pub fn budget_limit(&self) -> Option<u64> {
        Some(self.inner.as_ref()?.budget.as_ref()?.limit)
    }

    /// Refunds `bytes` to the budget — called by eviction layers after
    /// deleting files *through this handle* ([`Vfs::remove_file`] and
    /// [`Vfs::remove_dir_all`] refund automatically; this is for
    /// callers that measured and removed some other way).
    pub fn budget_release(&self, bytes: u64) {
        if let Some(b) = self.inner.as_ref().and_then(|i| i.budget.as_ref()) {
            // Saturating: a release can race a concurrent scan re-charge,
            // and a budget that under-counts is safer than one that wraps.
            let mut cur = b.used.load(Ordering::Relaxed);
            loop {
                let next = cur.saturating_sub(bytes);
                match b.used.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => return,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    fn try_reserve(&self, bytes: u64) -> io::Result<()> {
        let Some(b) = self.inner.as_ref().and_then(|i| i.budget.as_ref()) else {
            return Ok(());
        };
        let mut cur = b.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(bytes);
            if next > b.limit {
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    format!(
                        "disk budget exhausted: {cur} + {bytes} bytes exceeds the {} byte budget",
                        b.limit
                    ),
                ));
            }
            match b.used.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Ok(()),
                Err(seen) => cur = seen,
            }
        }
    }

    /// The injection gate: numbers the operation, asks the injector.
    /// Returns the fault to apply, if any.
    fn gate(&self) -> Option<FaultKind> {
        let inner = self.inner.as_ref()?;
        let n = inner.ops.fetch_add(1, Ordering::Relaxed);
        inner.injector.as_ref()?.inject(n)
    }

    fn gate_errno(&self, op: IoOp, path: &Path) -> io::Result<()> {
        match self.gate() {
            Some(fault) => Err(io::Error::new(
                fault.errno(),
                format!("injected {:?} at {} {}", fault, op.name(), path.display()),
            )),
            None => Ok(()),
        }
    }

    /// Reads a whole file, retrying transient errnos.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        retry_transient(|| {
            self.gate_errno(IoOp::Read, path)?;
            fs::read(path)
        })
        .map(|(bytes, _)| bytes)
    }

    /// Reads up to `len` bytes starting at `offset` (fewer at EOF, an
    /// empty vector past it), retrying transient errnos. Counts and
    /// faults as [`IoOp::Read`] — one gated operation per chunk — so
    /// out-of-core readers that pull a file through this method inherit
    /// the storage fault matrix site by site.
    pub fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        retry_transient(|| {
            self.gate_errno(IoOp::Read, path)?;
            let mut f = File::open(path)?;
            f.seek(SeekFrom::Start(offset))?;
            let mut buf = vec![0u8; len];
            let mut filled = 0;
            while filled < len {
                match f.read(&mut buf[filled..]) {
                    Ok(0) => break,
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            buf.truncate(filled);
            Ok(buf)
        })
        .map(|(bytes, _)| bytes)
    }

    /// The byte length of a file, through the [`IoOp::Read`] gate (a
    /// chunked reader's size probe must be as injectable as its reads).
    pub fn file_len(&self, path: &Path) -> io::Result<u64> {
        retry_transient(|| {
            self.gate_errno(IoOp::Read, path)?;
            fs::metadata(path).map(|m| m.len())
        })
        .map(|(len, _)| len)
    }

    /// Removes one file, refunding its size to the budget.
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        let len = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        self.gate_errno(IoOp::Remove, path)?;
        fs::remove_file(path)?;
        self.budget_release(len);
        Ok(())
    }

    /// Removes a directory tree, refunding its total file bytes.
    pub fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let len = dir_bytes(path).unwrap_or(0);
        self.gate_errno(IoOp::Remove, path)?;
        fs::remove_dir_all(path)?;
        self.budget_release(len);
        Ok(())
    }

    /// `create_dir_all` through the gate.
    pub fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.gate_errno(IoOp::CreateDir, path)?;
        fs::create_dir_all(path)
    }

    /// Lists the entry paths of a directory (unsorted, files and dirs).
    pub fn read_dir_paths(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.gate_errno(IoOp::ReadDir, dir)?;
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    /// Commits `bytes` to `path` with the classic protocol — tmp,
    /// fsync, rename, best-effort directory fsync — every step through
    /// the injection gate and the budget.
    ///
    /// On success the target holds exactly `bytes`. On failure the
    /// target is untouched (except under an injected [`FaultKind::
    /// TornRename`], which deliberately plants a torn file there), and
    /// any `*.tmp` litter is left for the caller's scavenger — exactly
    /// what a crash would leave. Transient errnos restart the whole
    /// protocol up to [`TRANSIENT_RETRIES`] times.
    pub fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<AtomicCommit> {
        let (dir_synced, retries) = retry_transient(|| self.write_atomic_once(path, bytes))?;
        Ok(AtomicCommit { dir_synced, retries })
    }

    fn write_atomic_once(&self, path: &Path, bytes: &[u8]) -> io::Result<bool> {
        let tmp = path.with_extension("tmp");
        // Conservative reservation: tmp and the old target coexist
        // until the rename lands, so the full new length is charged up
        // front and the old target refunded only after it is replaced.
        self.try_reserve(bytes.len() as u64)?;
        let replaced_len = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let commit = (|| -> io::Result<bool> {
            self.gate_errno(IoOp::Open, &tmp)?;
            let mut f = File::create(&tmp)?;
            match self.gate() {
                Some(FaultKind::ShortWrite) => {
                    // Half the payload lands, then the error — the torn
                    // state a real short write leaves in the tmp file.
                    let _ = f.write_all(&bytes[..bytes.len() / 2]);
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        format!("injected short write at {}", tmp.display()),
                    ));
                }
                Some(fault) => {
                    return Err(io::Error::new(
                        fault.errno(),
                        format!("injected {fault:?} at write {}", tmp.display()),
                    ));
                }
                None => f.write_all(bytes)?,
            }
            self.gate_errno(IoOp::Sync, &tmp)?;
            f.sync_all()?;
            drop(f);
            match self.gate() {
                Some(FaultKind::TornRename) => {
                    // The fault class atomic commit cannot rule out: a
                    // prefix of the payload appears under the final
                    // name. Only envelope validation catches this.
                    let _ = fs::write(path, &bytes[..bytes.len() / 2]);
                    let _ = fs::remove_file(&tmp);
                    return Err(io::Error::other(format!(
                        "injected torn rename at {}",
                        path.display()
                    )));
                }
                Some(fault) => {
                    return Err(io::Error::new(
                        fault.errno(),
                        format!("injected {fault:?} at rename {}", path.display()),
                    ));
                }
                None => fs::rename(&tmp, path)?,
            }
            self.budget_release(replaced_len);
            // Persist the rename itself. Some filesystems refuse fsync
            // on a directory handle; the rename is still ordered after
            // the file data, so failure here only widens the crash
            // window, never corrupts — best-effort, but *observable*:
            // the caller gets the outcome and can count it.
            let dir_synced = match path.parent() {
                Some(parent) => {
                    self.gate().is_none() && File::open(parent).and_then(|d| d.sync_all()).is_ok()
                }
                None => false,
            };
            Ok(dir_synced)
        })();
        if commit.is_err() {
            // The reservation was for bytes that never became durable.
            self.budget_release(bytes.len() as u64);
        }
        commit
    }
}

/// What a successful [`Vfs::write_atomic`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicCommit {
    /// Whether the best-effort directory fsync succeeded. `false` means
    /// the commit is on disk but the *rename* may not survive a power
    /// cut — callers count this (`ckpt.dirsync_failed`) instead of
    /// silently dropping it.
    pub dir_synced: bool,
    /// Transient-errno retries the commit needed (0 on the happy path).
    pub retries: u32,
}

/// The out-of-core table layer reads and writes through [`ChunkSource`](matelda_table::chunked::ChunkSource)
/// (`matelda-table` cannot depend on this crate); plugging the `Vfs` in
/// here routes every chunked column read and columnar write of the
/// scale tier through the same injection gate, op counter and disk
/// budget as checkpoints — the storage fault matrix covers the
/// out-of-core path for free.
impl matelda_table::chunked::ChunkSource for Vfs {
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Vfs::file_len(self, path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        Vfs::read_range(self, path, offset, len)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        Vfs::write_atomic(self, path, bytes).map(|_| ())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        Vfs::create_dir_all(self, dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.read_dir_paths(dir)
    }
}

/// Whether an errno is worth an immediate bounded retry.
pub fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Runs `f`, retrying transient errnos up to [`TRANSIENT_RETRIES`]
/// times. Returns the value and how many retries it took.
fn retry_transient<T>(mut f: impl FnMut() -> io::Result<T>) -> io::Result<(T, u32)> {
    let mut retries = 0;
    loop {
        match f() {
            Ok(v) => return Ok((v, retries)),
            Err(e) if is_transient(e.kind()) && retries < TRANSIENT_RETRIES => retries += 1,
            Err(e) => return Err(e),
        }
    }
}

/// Total bytes of regular files under `dir`, recursively. Missing
/// entries (concurrent deletion) count as zero — sizing is advisory.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    let meta = fs::metadata(dir)?;
    if meta.is_file() {
        return Ok(meta.len());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        match fs::metadata(&path) {
            Ok(m) if m.is_dir() => total += dir_bytes(&path).unwrap_or(0),
            Ok(m) => total += m.len(),
            Err(_) => {}
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("matelda-vfs-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_handle_round_trips_and_counts_nothing() {
        let dir = temp_dir("real");
        let vfs = Vfs::real();
        let path = dir.join("a.bin");
        let commit = vfs.write_atomic(&path, b"payload").unwrap();
        assert_eq!(commit.retries, 0);
        assert_eq!(vfs.read(&path).unwrap(), b"payload");
        assert_eq!(vfs.op_count(), 0, "plain handle never counts");
        assert!(!path.with_extension("tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recording_handle_counts_every_op() {
        let dir = temp_dir("count");
        let vfs = Vfs::recording();
        vfs.write_atomic(&dir.join("a.bin"), b"x").unwrap();
        // open + write + sync + rename + dirsync = 5 ops per commit.
        assert_eq!(vfs.op_count(), 5);
        vfs.read(&dir.join("a.bin")).unwrap();
        assert_eq!(vfs.op_count(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_errno_leaves_target_untouched() {
        let dir = temp_dir("errno");
        let path = dir.join("a.bin");
        Vfs::real().write_atomic(&path, b"old contents").unwrap();
        for at in 0..4 {
            // ops 0..4 of the next commit: open, write, sync, rename.
            let inj = InjectAt::new(at, FaultKind::Errno(io::ErrorKind::StorageFull));
            let vfs = Vfs::with_injector(inj.clone());
            let err = vfs.write_atomic(&path, b"new contents").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "site {at}");
            assert_eq!(inj.fired(), 1);
            assert_eq!(fs::read(&path).unwrap(), b"old contents", "site {at}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_leaves_torn_tmp_never_torn_target() {
        let dir = temp_dir("short");
        let path = dir.join("a.bin");
        let vfs = Vfs::with_injector(InjectAt::new(1, FaultKind::ShortWrite));
        let err = vfs.write_atomic(&path, b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert!(!path.exists(), "target must not exist");
        assert_eq!(fs::read(path.with_extension("tmp")).unwrap(), b"01234", "torn tmp litter");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_rename_plants_a_prefix_under_the_final_name() {
        let dir = temp_dir("torn");
        let path = dir.join("a.bin");
        let vfs = Vfs::with_injector(InjectAt::new(3, FaultKind::TornRename));
        vfs.write_atomic(&path, b"0123456789").unwrap_err();
        assert_eq!(fs::read(&path).unwrap(), b"01234", "torn bytes under the final name");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_errnos_are_retried_to_success() {
        let dir = temp_dir("transient");
        let path = dir.join("a.bin");
        let vfs =
            Vfs::with_injector(InjectAt::new(2, FaultKind::Errno(io::ErrorKind::Interrupted)));
        let commit = vfs.write_atomic(&path, b"persistent").unwrap();
        assert_eq!(commit.retries, 1, "one transient retry");
        assert_eq!(fs::read(&path).unwrap(), b"persistent");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_refuses_with_storage_full_and_eviction_refunds() {
        let dir = temp_dir("budget");
        let vfs = Vfs::with_budget(10, 0);
        vfs.write_atomic(&dir.join("a.bin"), b"123456").unwrap();
        assert_eq!(vfs.budget_used(), Some(6));
        let err = vfs.write_atomic(&dir.join("b.bin"), b"123456").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(!dir.join("b.bin").exists());
        assert_eq!(vfs.budget_used(), Some(6), "failed reservation refunded");
        vfs.remove_file(&dir.join("a.bin")).unwrap();
        assert_eq!(vfs.budget_used(), Some(0));
        vfs.write_atomic(&dir.join("b.bin"), b"123456").unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_replacing_a_file_charges_the_delta() {
        let dir = temp_dir("replace");
        let vfs = Vfs::with_budget(16, 0);
        let path = dir.join("a.bin");
        vfs.write_atomic(&path, b"12345678").unwrap();
        // 8 on disk; replacing with 8 needs 16 transiently — exactly fits.
        vfs.write_atomic(&path, b"abcdefgh").unwrap();
        assert_eq!(vfs.budget_used(), Some(8), "replacement refunds the old length");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_range_chunks_reassemble_the_file_and_truncate_at_eof() {
        let dir = temp_dir("range");
        let path = dir.join("a.bin");
        let payload: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        Vfs::real().write_atomic(&path, &payload).unwrap();
        let vfs = Vfs::recording();
        assert_eq!(vfs.file_len(&path).unwrap(), 1000);
        // Reassemble through ragged chunk sizes, including one spanning EOF.
        for chunk in [1usize, 7, 256, 999, 1000, 4096] {
            let mut got = Vec::new();
            let mut offset = 0u64;
            loop {
                let part = vfs.read_range(&path, offset, chunk).unwrap();
                if part.is_empty() {
                    break;
                }
                offset += part.len() as u64;
                got.extend_from_slice(&part);
            }
            assert_eq!(got, payload, "chunk size {chunk}");
        }
        // Entirely past EOF: empty, not an error.
        assert!(vfs.read_range(&path, 5000, 16).unwrap().is_empty());
        assert!(vfs.op_count() > 0, "every range read is a counted op");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_range_is_injectable_per_chunk() {
        let dir = temp_dir("range-inject");
        let path = dir.join("a.bin");
        Vfs::real().write_atomic(&path, b"0123456789").unwrap();
        // Op 0 is the file_len probe, op 1 the first chunk, op 2 the
        // second: fault exactly the second chunk read.
        let inj = InjectAt::new(2, FaultKind::Errno(io::ErrorKind::Other));
        let vfs = Vfs::with_injector(inj.clone());
        assert_eq!(vfs.file_len(&path).unwrap(), 10);
        assert_eq!(vfs.read_range(&path, 0, 4).unwrap(), b"0123");
        let err = vfs.read_range(&path, 4, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(inj.fired(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn columnar_reads_through_the_vfs_hit_the_injection_gate() {
        use matelda_table::chunked::{write_table_columnar, ColumnarReader};
        use matelda_table::{Column, Table};
        let dir = temp_dir("columnar-vfs");
        let table = Table::new(
            "t",
            vec![Column::new("a", ["1", "2", "3"]), Column::new("b", ["x", "yy", "zzz"])],
        );
        // Written and read back through the recording Vfs: ops counted.
        let vfs = Vfs::recording();
        let path = write_table_columnar(&vfs, &dir, &table).unwrap();
        let back = ColumnarReader::open(&vfs, &path).unwrap().read_table(4).unwrap();
        assert_eq!(back, table);
        assert!(vfs.op_count() > 5, "columnar io is gated and counted");
        // A fault planted mid-column surfaces as an error, not a
        // misparse: the out-of-core path inherits the fault matrix.
        let ops = vfs.op_count();
        for at in 0..ops {
            let inj = InjectAt::new(at, FaultKind::Errno(io::ErrorKind::Other));
            let faulty = Vfs::with_injector(inj);
            let res = ColumnarReader::open(&faulty, &path).and_then(|r| r.read_table(4));
            if let Err(e) = res {
                let msg = e.to_string();
                assert!(msg.contains("injected") || msg.contains("chunked io"), "{msg}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_bytes_sums_recursively() {
        let dir = temp_dir("bytes");
        fs::create_dir_all(dir.join("sub")).unwrap();
        fs::write(dir.join("a"), b"1234").unwrap();
        fs::write(dir.join("sub/b"), b"56").unwrap();
        assert_eq!(dir_bytes(&dir).unwrap(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }
}
