//! # matelda-ckpt
//!
//! Durable run state for the Matelda pipeline: a versioned on-disk
//! snapshot format for stage artifacts, a run manifest binding those
//! snapshots to one (config, lake, seed, budget) tuple, and an atomic
//! [`CheckpointStore`] that makes interrupted runs resumable.
//!
//! ## Contract
//!
//! The pipeline is bit-deterministic: the same configuration, lake,
//! seed and label budget produce the same artifact at every stage, at
//! any thread count. Snapshots exploit that — a stage snapshot is valid
//! for *any* run whose [`Manifest`] hashes identically, and a resumed
//! run that restores a verified snapshot is indistinguishable from an
//! uninterrupted one. Thread count is recorded in the manifest for
//! diagnostics but deliberately excluded from its hash: crash at
//! `--threads 4`, resume at `--threads 1`, get the same bits.
//!
//! ## Crash safety
//!
//! Every file is committed with the classic tmp + fsync + rename
//! protocol: a crash at any instant leaves either the previous complete
//! file or an ignorable `*.tmp`, never a half-written snapshot under
//! the final name. Decoding still defends in depth — the envelope
//! carries magic, format version, manifest hash and an FNV-1a payload
//! digest, and a snapshot failing any of those checks is reported as a
//! structured [`CkptError`], never silently reused (see
//! `DESIGN.md §6`).
//!
//! Module map: [`manifest`] — the run manifest; [`store`] — the atomic
//! store, snapshot envelope, and the `MATELDA_CKPT_CRASH` crash-injection
//! hook used by the chaos harness; [`vfs`] — the storage seam every
//! durability byte goes through, carrying errno fault injection,
//! disk-budget enforcement and bounded transient retry (see
//! `DESIGN.md §12`). The byte codec itself is
//! [`matelda_table::wire`], shared with every other binary format of
//! the repo.

pub mod manifest;
pub mod store;
pub mod vfs;

pub use manifest::{Manifest, FORMAT_VERSION};
pub use store::{
    decode_envelope, encode_envelope, CheckpointStore, CkptError, CrashDirective, CrashMode,
    CRASH_ENV,
};
pub use vfs::{dir_bytes, AtomicCommit, FaultKind, InjectAt, IoOp, Vfs, TRANSIENT_RETRIES};
