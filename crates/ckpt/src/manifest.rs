//! The run manifest: the identity a set of snapshots belongs to.
//!
//! Matelda's pipeline is a pure function of (configuration, lake, seed,
//! label budget) — thread count only changes wall-clock, never bits.
//! The manifest records exactly those determinism inputs; its
//! [`Manifest::hash`] is stamped into every snapshot envelope so a
//! snapshot can never be re-attached to a run it was not computed for.
//! Thread count is stored for diagnostics but excluded from the hash:
//! resuming a 4-thread run with 1 thread is explicitly supported.

use crate::store::CkptError;
use matelda_table::fingerprint::Fnv1a;
use matelda_table::wire::{DecodeError, Reader, Writer};

/// On-disk checkpoint format version. Bump on any change to the
/// envelope layout, the manifest layout, or a stage payload codec —
/// old snapshots are then rejected with `BadVersion` instead of being
/// misread.
///
/// v2: `CellFeatures` switched from per-cell vectors to one flat f32
/// matrix, changing the featurize-stage payload codec.
/// v3: the featurize payload is each table's dictionary encoding
/// (`CellFeatures::encode_into`, the `.mtf` spill body) instead of the
/// flattened matrix.
/// v4: quality folds store each domain fold's membership as one local
/// fold index per cell instead of a `CellId` list per fold, and labeled
/// folds name their quality fold by index instead of copying it.
pub const FORMAT_VERSION: u32 = 4;

const MANIFEST_MAGIC: &[u8; 8] = b"MTLDMANI";

/// The determinism inputs of one detection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// FNV-1a digest of the canonicalized `MateldaConfig` (thread count
    /// excluded — see [`Manifest::hash`]).
    pub config_hash: u64,
    /// Content fingerprint of the input lake
    /// ([`matelda_table::lake_fingerprint`]).
    pub lake_fingerprint: u64,
    /// The run's RNG seed.
    pub seed: u64,
    /// The labeling budget in cells.
    pub budget: u64,
    /// Thread count of the run that *wrote* the manifest. Informational
    /// only: not hashed, not validated on resume.
    pub threads: u64,
}

impl Manifest {
    /// The identity digest stamped into snapshot envelopes. Covers
    /// everything that determines output bits; deliberately excludes
    /// `threads`.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(u64::from(FORMAT_VERSION));
        h.write_u64(self.config_hash);
        h.write_u64(self.lake_fingerprint);
        h.write_u64(self.seed);
        h.write_u64(self.budget);
        h.finish()
    }

    /// Serializes the manifest: magic, version, fields, then an FNV-1a
    /// digest over all preceding bytes so corruption of the manifest
    /// file itself is detected.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.write_raw(MANIFEST_MAGIC);
        w.write_u32(FORMAT_VERSION);
        w.write_u64(self.config_hash);
        w.write_u64(self.lake_fingerprint);
        w.write_u64(self.seed);
        w.write_u64(self.budget);
        w.write_u64(self.threads);
        let mut digest = Fnv1a::new();
        digest.write_bytes(w.as_bytes());
        w.write_u64(digest.finish());
        w.into_bytes()
    }

    /// Decodes and fully validates a manifest file.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, DecodeError> {
        let mut r = Reader::new(bytes);
        if r.read_raw(MANIFEST_MAGIC.len())? != MANIFEST_MAGIC {
            return Err(DecodeError::BadMagic { expected: "MTLDMANI" });
        }
        let version = r.read_u32()?;
        if version != FORMAT_VERSION {
            return Err(DecodeError::BadVersion { found: version, expected: FORMAT_VERSION });
        }
        let m = Manifest {
            config_hash: r.read_u64()?,
            lake_fingerprint: r.read_u64()?,
            seed: r.read_u64()?,
            budget: r.read_u64()?,
            threads: r.read_u64()?,
        };
        let recorded = r.read_u64()?;
        let mut digest = Fnv1a::new();
        digest.write_bytes(&bytes[..bytes.len() - 8]);
        let computed = digest.finish();
        if recorded != computed {
            return Err(DecodeError::HashMismatch { expected: recorded, found: computed });
        }
        r.finish()?;
        Ok(m)
    }

    /// Checks a manifest read from disk against this (live) run,
    /// naming the first differing field. `threads` is exempt.
    ///
    /// Both sides carry their full identity ([`Manifest::identity`]) in
    /// the error, so a foreign-checkpoint rejection is triageable from
    /// the log line alone: which config hash and which lake fingerprint
    /// the checkpoint was written for, and which ones the rejecting run
    /// had.
    pub fn validate_against(&self, disk: &Manifest) -> Result<(), CkptError> {
        let fields: [(&str, u64, u64); 4] = [
            ("config", self.config_hash, disk.config_hash),
            ("lake fingerprint", self.lake_fingerprint, disk.lake_fingerprint),
            ("seed", self.seed, disk.seed),
            ("label budget", self.budget, disk.budget),
        ];
        for (what, live, stored) in fields {
            if live != stored {
                return Err(CkptError::Mismatch {
                    what,
                    expected: format!("{stored:#018x} [checkpoint {}]", disk.identity()),
                    found: format!("{live:#018x} [current run {}]", self.identity()),
                });
            }
        }
        Ok(())
    }

    /// A compact one-line identity for log messages: every hashed field
    /// plus the overall manifest hash.
    pub fn identity(&self) -> String {
        format!(
            "config {:#018x}, lake {:#018x}, seed {}, budget {}, manifest hash {:#018x}",
            self.config_hash,
            self.lake_fingerprint,
            self.seed,
            self.budget,
            self.hash()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest { config_hash: 1, lake_fingerprint: 2, seed: 3, budget: 4, threads: 8 }
    }

    #[test]
    fn encode_decode_round_trips() {
        let m = manifest();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn hash_ignores_threads_but_not_the_rest() {
        let base = manifest();
        let mut t = base;
        t.threads = 1;
        assert_eq!(base.hash(), t.hash(), "thread count must not affect snapshot identity");
        for field in 0..4usize {
            let mut m = base;
            match field {
                0 => m.config_hash ^= 1,
                1 => m.lake_fingerprint ^= 1,
                2 => m.seed ^= 1,
                _ => m.budget ^= 1,
            }
            assert_ne!(base.hash(), m.hash());
        }
    }

    #[test]
    fn flipped_byte_is_detected() {
        let mut bytes = manifest().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(Manifest::decode(&bytes).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = manifest().encode();
        for cut in [0, 3, 8, bytes.len() - 1] {
            assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = manifest().encode();
        bytes[8] = 0xEE; // version lives right after the 8-byte magic
        assert!(matches!(
            Manifest::decode(&bytes),
            Err(DecodeError::BadVersion { .. } | DecodeError::HashMismatch { .. })
        ));
    }

    #[test]
    fn validate_names_the_differing_field() {
        let live = manifest();
        let mut disk = live;
        disk.seed = 99;
        let err = live.validate_against(&disk).unwrap_err();
        assert!(err.to_string().contains("seed"), "got: {err}");
        let mut disk = live;
        disk.threads = 1;
        live.validate_against(&disk).unwrap();
    }

    #[test]
    fn mismatch_message_carries_both_identities() {
        let live = manifest();
        let mut disk = live;
        disk.lake_fingerprint = 0xDEAD_BEEF;
        let msg = live.validate_against(&disk).unwrap_err().to_string();
        // Both sides' config hashes and lake fingerprints must appear, so
        // a foreign-checkpoint rejection is triageable from logs alone.
        for needle in [
            format!("{:#018x}", disk.lake_fingerprint),
            format!("{:#018x}", live.lake_fingerprint),
            format!("config {:#018x}", live.config_hash),
            disk.identity(),
            live.identity(),
        ] {
            assert!(msg.contains(&needle), "missing {needle:?} in: {msg}");
        }
        assert!(msg.contains("checkpoint"), "got: {msg}");
        assert!(msg.contains("current run"), "got: {msg}");
    }
}
