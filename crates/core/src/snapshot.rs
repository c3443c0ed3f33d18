//! Stage-artifact snapshot codecs.
//!
//! Each pipeline stage's checkpoint payload is a [`CtxState`] — the
//! *cumulative* run state at the moment the stage finished (quarantine
//! decisions, fault log, per-stage reports) — followed by the stage's
//! artifact. Restoring stage *k*'s snapshot therefore reinstates
//! everything the first *k* stages did; resume never replays partial
//! history.
//!
//! Codecs are exact: floats travel as IEEE-754 bit patterns (an `f32`
//! feature value or `f64` metric re-decodes to the same bits), cell
//! masks are bit-packed, and decoding consumes the payload completely.
//! That is what backs the durability contract — a restored artifact is
//! indistinguishable from a recomputed one, so a resumed run's output
//! is bit-identical to an uninterrupted run (`DESIGN.md §6`).
//!
//! Byte-level framing (length prefixes, bounds checks, the canonical
//! f32 run, structured [`DecodeError`]s on truncated or garbled input)
//! comes from [`matelda_table::wire`]; this module only knows the
//! artifact shapes, and a featurized table's shape is its own
//! [`CellFeatures::encode_into`] — the `.mtf` spill body.
//! The codecs live here rather than in `matelda-ckpt` so the dependency
//! points the right way: the generic store knows nothing about folds,
//! features or masks.

use crate::domain_fold::{EmbeddedLake, Fold};
use crate::engine::{
    DomainFolds, FeaturizedLake, LabeledFold, Predictions, PropagatedLabels, QualityFoldEntry,
    QualityFolds, QuarantineReport,
};
use crate::quality_fold::{FoldMembership, QualityFold};
use matelda_detect::CellFeatures;
use matelda_exec::{ItemFault, StageReport};
use matelda_table::wire::{DecodeError, Reader, Writer};
use matelda_table::{CellId, CellMask};

/// The run state a stage snapshot carries alongside its artifact: the
/// quarantine ledger, the fault log and the stage reports accumulated
/// up to and including the snapshotted stage.
#[derive(Debug, Clone, Default)]
pub struct CtxState {
    /// Quarantine and degradation decisions so far.
    pub quarantine: QuarantineReport,
    /// Isolated work-item faults so far.
    pub faults: Vec<ItemFault>,
    /// Per-stage instrumentation so far (wall times are the *original*
    /// run's — a restored stage reports the time it actually took when
    /// it ran, not the time it took to load).
    pub stages: Vec<StageReport>,
}

impl CtxState {
    /// Captures the snapshot-relevant state of a live context.
    pub fn capture(ctx: &crate::engine::StageContext<'_>) -> Self {
        CtxState {
            quarantine: ctx.quarantine.clone(),
            faults: ctx.report.faults.clone(),
            stages: ctx.report.stages.clone(),
        }
    }

    /// Reinstates this state into a live context, replacing whatever the
    /// context accumulated so far (snapshots are cumulative, so the
    /// latest restored state is always the whole history).
    pub fn restore(self, ctx: &mut crate::engine::StageContext<'_>) {
        ctx.quarantine = self.quarantine;
        ctx.report.faults = self.faults;
        ctx.report.stages = self.stages;
    }
}

/// An artifact that can be persisted in a stage snapshot.
pub trait ArtifactCodec: Sized {
    /// Appends the artifact's exact encoding to `w`.
    fn encode_into(&self, w: &mut Writer);
    /// Decodes one artifact, consuming exactly what `encode_into` wrote.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Encodes a full stage snapshot payload: context state, then artifact.
pub fn encode_snapshot<A: ArtifactCodec>(state: &CtxState, artifact: &A) -> Vec<u8> {
    let mut w = Writer::new();
    encode_state(state, &mut w);
    artifact.encode_into(&mut w);
    w.into_bytes()
}

/// Decodes a full stage snapshot payload, requiring exact consumption.
pub fn decode_snapshot<A: ArtifactCodec>(bytes: &[u8]) -> Result<(CtxState, A), DecodeError> {
    let mut r = Reader::new(bytes);
    let state = decode_state(&mut r)?;
    let artifact = A::decode_from(&mut r)?;
    r.finish()?;
    Ok((state, artifact))
}

// ---------------------------------------------------------------------
// Context state
// ---------------------------------------------------------------------

fn encode_state(state: &CtxState, w: &mut Writer) {
    let q = &state.quarantine;
    w.write_varint(q.tables.len() as u64);
    for &t in &q.tables {
        w.write_varint(t as u64);
    }
    w.write_varint(q.columns.len() as u64);
    for &(t, c) in &q.columns {
        w.write_varint(t as u64);
        w.write_varint(c as u64);
    }
    w.write_varint(q.fold_fallbacks.len() as u64);
    for &f in &q.fold_fallbacks {
        w.write_varint(f as u64);
    }
    w.write_varint(state.faults.len() as u64);
    for fault in &state.faults {
        w.write_str(&fault.stage);
        w.write_varint(fault.index as u64);
        w.write_str(&fault.message);
    }
    w.write_varint(state.stages.len() as u64);
    for s in &state.stages {
        w.write_str(&s.name);
        w.write_f64(s.wall_secs);
        w.write_varint(s.items);
        w.write_varint(s.metrics.len() as u64);
        for (name, value) in &s.metrics {
            w.write_str(name);
            w.write_f64(*value);
        }
    }
}

fn decode_state(r: &mut Reader<'_>) -> Result<CtxState, DecodeError> {
    let mut quarantine = QuarantineReport::default();
    for _ in 0..r.read_varint_len()? {
        quarantine.tables.push(r.read_varint()? as usize);
    }
    for _ in 0..r.read_varint_len()? {
        let t = r.read_varint()? as usize;
        let c = r.read_varint()? as usize;
        quarantine.columns.push((t, c));
    }
    for _ in 0..r.read_varint_len()? {
        quarantine.fold_fallbacks.push(r.read_varint()? as usize);
    }
    let mut faults = Vec::new();
    for _ in 0..r.read_varint_len()? {
        let stage = r.read_str()?;
        let index = r.read_varint()? as usize;
        let message = r.read_str()?;
        faults.push(ItemFault { stage, index, message });
    }
    let mut stages = Vec::new();
    for _ in 0..r.read_varint_len()? {
        let mut s = StageReport::new(&r.read_str()?);
        s.wall_secs = r.read_f64()?;
        s.items = r.read_varint()?;
        for _ in 0..r.read_varint_len()? {
            let name = r.read_str()?;
            let value = r.read_f64()?;
            s.metrics.push((name, value));
        }
        stages.push(s);
    }
    Ok(CtxState { quarantine, faults, stages })
}

// ---------------------------------------------------------------------
// Shared shapes
// ---------------------------------------------------------------------

fn encode_cell_id(id: CellId, w: &mut Writer) {
    w.write_varint(id.table as u64);
    w.write_varint(id.row as u64);
    w.write_varint(id.col as u64);
}

fn decode_cell_id(r: &mut Reader<'_>) -> Result<CellId, DecodeError> {
    let table = r.read_varint()? as usize;
    let row = r.read_varint()? as usize;
    let col = r.read_varint()? as usize;
    Ok(CellId::new(table, row, col))
}

// ---------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------

impl ArtifactCodec for EmbeddedLake {
    fn encode_into(&self, w: &mut Writer) {
        match self {
            EmbeddedLake::Vectors(vecs) => {
                w.write_u8(0);
                w.write_varint(vecs.len() as u64);
                for v in vecs {
                    w.write_f32s(v);
                }
            }
            EmbeddedLake::Unionability(rows) => {
                w.write_u8(1);
                w.write_varint(rows.len() as u64);
                for row in rows {
                    w.write_varint(row.len() as u64);
                    for &x in row {
                        w.write_f64(x);
                    }
                }
            }
            EmbeddedLake::Trivial => w.write_u8(2),
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => {
                let mut vecs = Vec::new();
                for _ in 0..r.read_varint_len()? {
                    vecs.push(r.read_f32s()?);
                }
                Ok(EmbeddedLake::Vectors(vecs))
            }
            1 => {
                let mut rows = Vec::new();
                for _ in 0..r.read_varint_len()? {
                    let n = r.read_varint_len()?;
                    let mut row = Vec::with_capacity(n.min(r.remaining()));
                    for _ in 0..n {
                        row.push(r.read_f64()?);
                    }
                    rows.push(row);
                }
                Ok(EmbeddedLake::Unionability(rows))
            }
            2 => Ok(EmbeddedLake::Trivial),
            tag => Err(DecodeError::Malformed(format!("EmbeddedLake tag {tag}"))),
        }
    }
}

impl ArtifactCodec for FeaturizedLake {
    fn encode_into(&self, w: &mut Writer) {
        w.write_varint(self.features.len() as u64);
        for f in &self.features {
            f.encode_into(w);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut features = Vec::new();
        for _ in 0..r.read_varint_len()? {
            features.push(CellFeatures::decode_from(r)?);
        }
        Ok(FeaturizedLake { features })
    }
}

impl ArtifactCodec for DomainFolds {
    fn encode_into(&self, w: &mut Writer) {
        w.write_varint(self.folds.len() as u64);
        for fold in &self.folds {
            w.write_varint(fold.columns.len() as u64);
            for &(t, c) in &fold.columns {
                w.write_varint(t as u64);
                w.write_varint(c as u64);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut folds = Vec::new();
        for _ in 0..r.read_varint_len()? {
            let mut columns = Vec::new();
            for _ in 0..r.read_varint_len()? {
                let t = r.read_varint()? as usize;
                let c = r.read_varint()? as usize;
                columns.push((t, c));
            }
            folds.push(Fold { columns });
        }
        Ok(DomainFolds { folds })
    }
}

/// Quality folds are stored domain fold by domain fold: its budget, its
/// quality folds (centroid, labeled), then its membership — the columns
/// and one varint per cell, the cell's quality fold among the domain
/// fold's. Decoding accepts only a membership the label stage can use:
/// every index names one of the domain fold's quality folds, and every
/// quality fold has a member.
impl ArtifactCodec for QualityFolds {
    fn encode_into(&self, w: &mut Writer) {
        debug_assert_eq!(self.budgets.len(), self.members.len(), "one membership per domain fold");
        w.write_varint(self.budgets.len() as u64);
        for (fi, (&budget, membership)) in self.budgets.iter().zip(&self.members).enumerate() {
            w.write_varint(budget as u64);
            let entries = self.entries_of(fi);
            w.write_varint(entries.len() as u64);
            for e in entries {
                w.write_f32s(&e.fold.centroid);
                w.write_bool(e.labeled);
            }
            w.write_varint(membership.columns.len() as u64);
            for &(t, c) in &membership.columns {
                w.write_varint(t as u64);
                w.write_varint(c as u64);
            }
            w.write_varint(membership.index.len() as u64);
            for &q in &membership.index {
                w.write_varint(u64::from(q));
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (mut entries, mut budgets, mut members) = (Vec::new(), Vec::new(), Vec::new());
        for domain_fold in 0..r.read_varint_len()? {
            budgets.push(r.read_varint()? as usize);
            let n_folds = r.read_varint_len()?;
            for _ in 0..n_folds {
                let fold = QualityFold { centroid: r.read_f32s()? };
                entries.push(QualityFoldEntry { domain_fold, fold, labeled: r.read_bool()? });
            }
            let mut columns = Vec::new();
            for _ in 0..r.read_varint_len()? {
                let t = r.read_varint()? as usize;
                let c = r.read_varint()? as usize;
                columns.push((t, c));
            }
            let n_cells = r.read_varint_len()?;
            let mut index = Vec::with_capacity(n_cells);
            for _ in 0..n_cells {
                let q = r.read_varint()?;
                let q =
                    u32::try_from(q).ok().filter(|&q| (q as usize) < n_folds).ok_or_else(|| {
                        DecodeError::Malformed(format!(
                            "domain fold {domain_fold}: quality fold {q} of {n_folds}"
                        ))
                    })?;
                index.push(q);
            }
            let membership = FoldMembership { columns, index };
            if let Some(q) = membership.sizes(n_folds).iter().position(|&n| n == 0) {
                return Err(DecodeError::Malformed(format!(
                    "domain fold {domain_fold}: quality fold {q} has no member"
                )));
            }
            members.push(membership);
        }
        Ok(QualityFolds { entries, budgets, members })
    }
}

impl ArtifactCodec for PropagatedLabels {
    fn encode_into(&self, w: &mut Writer) {
        w.write_varint(self.labels.len() as u64);
        for table in &self.labels {
            w.write_varint(table.len() as u64);
            for lab in table {
                // None / Some(false) / Some(true) as one byte.
                w.write_u8(match lab {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                });
            }
        }
        w.write_varint(self.labeled_folds.len() as u64);
        for lf in &self.labeled_folds {
            w.write_varint(lf.fold as u64);
            encode_cell_id(lf.anchor, w);
            w.write_bool(lf.verdict);
        }
        w.write_varint(self.labels_used as u64);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut labels = Vec::new();
        for _ in 0..r.read_varint_len()? {
            let n = r.read_varint_len()?;
            let mut table = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                table.push(match r.read_u8()? {
                    0 => None,
                    1 => Some(false),
                    2 => Some(true),
                    b => return Err(DecodeError::Malformed(format!("label byte {b}"))),
                });
            }
            labels.push(table);
        }
        let mut labeled_folds: Vec<LabeledFold> = Vec::new();
        for _ in 0..r.read_varint_len()? {
            let fold = r.read_varint()? as usize;
            // The label stage labels quality folds in entry order.
            if labeled_folds.last().is_some_and(|prev| prev.fold >= fold) {
                return Err(DecodeError::Malformed(format!("labeled fold {fold} out of order")));
            }
            let anchor = decode_cell_id(r)?;
            let verdict = r.read_bool()?;
            labeled_folds.push(LabeledFold { fold, anchor, verdict });
        }
        let labels_used = r.read_varint()? as usize;
        Ok(PropagatedLabels { labels, labeled_folds, labels_used })
    }
}

impl ArtifactCodec for Predictions {
    fn encode_into(&self, w: &mut Writer) {
        let dims = self.mask.dims();
        w.write_varint(dims.len() as u64);
        for &(rows, cols) in dims {
            w.write_varint(rows as u64);
            w.write_varint(cols as u64);
        }
        // Bit-packed flags, one run of ceil(rows*cols / 8) bytes per
        // table, row-major, LSB first. No length prefix: the byte count
        // is determined by the dims.
        for (t, &(rows, cols)) in dims.iter().enumerate() {
            let n = rows * cols;
            let mut packed = vec![0u8; n.div_ceil(8)];
            for o in 0..n {
                // n > 0 implies cols > 0, so the divisions are safe.
                if self.mask.get(CellId::new(t, o / cols, o % cols)) {
                    packed[o / 8] |= 1 << (o % 8);
                }
            }
            w.write_raw(&packed);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut dims = Vec::new();
        let mut total_bytes = 0u64;
        for _ in 0..r.read_varint_len()? {
            let rows = r.read_varint()? as usize;
            let cols = r.read_varint()? as usize;
            let n = rows.checked_mul(cols).ok_or_else(|| {
                DecodeError::Malformed(format!("mask dims {rows}x{cols} overflow"))
            })?;
            total_bytes += n.div_ceil(8) as u64;
            dims.push((rows, cols));
        }
        // Validate the claimed mask size against the input before the
        // mask (which is sized from the dims) is allocated.
        if total_bytes > r.remaining() as u64 {
            return Err(DecodeError::LengthOverflow { len: total_bytes, remaining: r.remaining() });
        }
        let mut mask = CellMask::from_dims(dims.clone());
        for (t, &(rows, cols)) in dims.iter().enumerate() {
            let n = rows.checked_mul(cols).ok_or_else(|| {
                DecodeError::Malformed(format!("mask table {t}: {rows}x{cols} overflows"))
            })?;
            let packed = r.read_raw(n.div_ceil(8))?;
            // Unused bits past `n` in the last byte must be zero — a set
            // stray bit would vanish on re-encode.
            if n % 8 != 0 && packed[packed.len() - 1] >> (n % 8) != 0 {
                return Err(DecodeError::Malformed(format!(
                    "mask table {t}: nonzero padding bits"
                )));
            }
            for o in 0..n {
                if packed[o / 8] & (1 << (o % 8)) != 0 {
                    mask.set(CellId::new(t, o / cols, o % cols), true);
                }
            }
        }
        Ok(Predictions { mask })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> CtxState {
        let mut s = CtxState::default();
        s.quarantine.tables = vec![1, 3];
        s.quarantine.columns = vec![(0, 2)];
        s.quarantine.fold_fallbacks = vec![5];
        s.faults.push(ItemFault::new("embed", 1, "boom"));
        let mut r = StageReport::new("embed");
        r.wall_secs = 0.125;
        r.items = 7;
        r.metrics.push(("dims".into(), 64.0));
        s.stages.push(r);
        s
    }

    fn round_trip<A: ArtifactCodec>(artifact: &A) -> (CtxState, A) {
        let bytes = encode_snapshot(&state(), artifact);
        let decoded = decode_snapshot::<A>(&bytes).expect("decode");
        // Re-encode: must be byte-identical, which also proves the
        // artifact itself round-tripped exactly.
        assert_eq!(encode_snapshot(&decoded.0, &decoded.1), bytes);
        decoded
    }

    #[test]
    fn embedded_lake_round_trips_every_variant() {
        round_trip(&EmbeddedLake::Vectors(vec![vec![1.5, -0.0, f32::MIN], vec![]]));
        round_trip(&EmbeddedLake::Unionability(vec![vec![0.25, 1.0e-300], vec![]]));
        round_trip(&EmbeddedLake::Trivial);
    }

    #[test]
    fn featurized_lake_round_trips() {
        let f = FeaturizedLake {
            features: vec![
                CellFeatures::from_vectors(2, 1, &[vec![0.5; 3], vec![-1.0; 3]]),
                CellFeatures::zeros(0, 0, 0),
            ],
        };
        let (_, got) = round_trip(&f);
        assert_eq!(got.features[0].get(0, 1), &[-1.0; 3]);
    }

    /// 2^40 × 2^20 cells of dimension 0 claim no pattern values at all;
    /// their codes are what the input cannot back, and that is checked
    /// before the codes are sized by the claim.
    #[test]
    fn featurized_cells_the_input_cannot_back_are_rejected() {
        let mut w = Writer::new();
        for v in [1, 1 << 40, 1 << 20, 0, 1] {
            w.write_varint(v);
        }
        w.write_f32s(&[]);
        w.write_varint(0);
        let bytes = w.into_bytes();
        assert!(matches!(
            FeaturizedLake::decode_from(&mut Reader::new(&bytes)),
            Err(DecodeError::LengthOverflow { len, .. }) if len == 1 << 60
        ));
    }

    #[test]
    fn a_featurized_table_snapshots_as_its_spill_body() {
        let f = CellFeatures::from_vectors(
            2,
            2,
            &[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![-0.0, 1.0]],
        );
        let spill = matelda_detect::spill::encode_features(&f);
        let mut w = Writer::new();
        FeaturizedLake { features: vec![f] }.encode_into(&mut w);
        let snapshot = w.into_bytes();
        // The snapshot is the table count, then each table's section;
        // the spill is a magic and a version, then the same section.
        assert_eq!(snapshot[1..], spill[8..]);
    }

    fn quality_folds() -> QualityFolds {
        let entry = |domain_fold, centroid: &[f32], labeled| QualityFoldEntry {
            domain_fold,
            fold: QualityFold { centroid: centroid.to_vec() },
            labeled,
        };
        QualityFolds {
            entries: vec![entry(1, &[0.25, 0.75], true), entry(1, &[f32::NAN, 1.0], false)],
            budgets: vec![0, 3],
            members: vec![
                FoldMembership::default(),
                FoldMembership { columns: vec![(0, 1), (2, 0)], index: vec![1, 0, 0, 1] },
            ],
        }
    }

    #[test]
    fn quality_and_domain_folds_round_trip() {
        round_trip(&DomainFolds { folds: vec![Fold { columns: vec![(0, 0), (2, 1)] }] });
        let (st, got) = round_trip(&quality_folds());
        assert_eq!(got.budgets, vec![0, 3]);
        assert_eq!(got.members, quality_folds().members);
        assert_eq!(got.entries.iter().map(|e| e.domain_fold).collect::<Vec<_>>(), vec![1, 1]);
        assert_eq!(st.quarantine.tables, vec![1, 3]);
    }

    /// The per-cell index is one varint per cell, local to its domain
    /// fold: the quality-fold artifact holds no cell id.
    #[test]
    fn quality_fold_membership_is_one_byte_per_cell() {
        let mut q = quality_folds();
        let size = |q: &QualityFolds| {
            let mut w = Writer::new();
            q.encode_into(&mut w);
            w.into_bytes().len()
        };
        let before = size(&q);
        q.members[1].index.extend([0, 1, 1, 0]);
        assert_eq!(size(&q), before + 4);
    }

    /// Decodes the artifact after `edit` rewrote the membership of the
    /// test artifact's second domain fold.
    fn decode_edited(edit: impl FnOnce(&mut FoldMembership)) -> Result<QualityFolds, DecodeError> {
        let mut q = quality_folds();
        edit(&mut q.members[1]);
        let mut w = Writer::new();
        q.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        QualityFolds::decode_from(&mut r).and_then(|q| r.finish().map(|()| q))
    }

    #[test]
    fn a_cell_indexed_past_its_domain_folds_quality_folds_is_rejected() {
        assert!(decode_edited(|_| ()).is_ok());
        for bad in [2, u32::MAX] {
            let got = decode_edited(|m| m.index[2] = bad);
            assert!(
                matches!(got, Err(DecodeError::Malformed(ref m)) if m.contains("of 2")),
                "{got:?}"
            );
        }
        // A zero-budget domain fold formed no quality fold, so any index
        // there is out of range.
        let mut q = quality_folds();
        q.members[0].index.push(0);
        let mut w = Writer::new();
        q.encode_into(&mut w);
        let got = QualityFolds::decode_from(&mut Reader::new(&w.into_bytes()));
        assert!(matches!(got, Err(DecodeError::Malformed(ref m)) if m.contains("of 0")), "{got:?}");
    }

    #[test]
    fn a_quality_fold_without_a_member_is_rejected() {
        let got = decode_edited(|m| m.index = vec![0, 0, 0, 0]);
        assert!(
            matches!(got, Err(DecodeError::Malformed(ref m)) if m.contains("no member")),
            "{got:?}"
        );
        let got = decode_edited(|m| m.index.clear());
        assert!(
            matches!(got, Err(DecodeError::Malformed(ref m)) if m.contains("no member")),
            "{got:?}"
        );
    }

    fn propagated_labels() -> PropagatedLabels {
        PropagatedLabels {
            labels: vec![vec![None, Some(true), Some(false)], vec![]],
            labeled_folds: vec![
                LabeledFold { fold: 0, anchor: CellId::new(0, 0, 1), verdict: true },
                LabeledFold { fold: 2, anchor: CellId::new(0, 0, 2), verdict: false },
            ],
            labels_used: 4,
        }
    }

    #[test]
    fn propagated_labels_round_trip() {
        let (_, got) = round_trip(&propagated_labels());
        assert_eq!(got.labels[0], vec![None, Some(true), Some(false)]);
        assert_eq!(got.labeled_folds, propagated_labels().labeled_folds);
        assert_eq!(got.labels_used, 4);
    }

    #[test]
    fn labeled_folds_out_of_entry_order_are_rejected() {
        for folds in [[2, 0], [2, 2]] {
            let mut p = propagated_labels();
            p.labeled_folds[0].fold = folds[0];
            p.labeled_folds[1].fold = folds[1];
            let bytes = encode_snapshot(&state(), &p);
            let got = decode_snapshot::<PropagatedLabels>(&bytes);
            assert!(
                matches!(got, Err(DecodeError::Malformed(ref m)) if m.contains("out of order"))
            );
        }
    }

    #[test]
    fn predictions_round_trip_bit_packed() {
        use matelda_table::{Column, Lake, Table};
        let lake = Lake::new(vec![
            Table::new(
                "a",
                vec![Column::new("x", ["1", "2", "3"]), Column::new("y", ["4", "5", "6"])],
            ),
            Table::new("b", vec![Column::new("z", ["7"])]),
        ]);
        let mask = CellMask::from_cells(
            &lake,
            [CellId::new(0, 0, 1), CellId::new(0, 2, 0), CellId::new(1, 0, 0)],
        );
        let (_, got) = round_trip(&Predictions { mask: mask.clone() });
        assert_eq!(got.mask, mask);
    }

    #[test]
    fn truncated_and_garbled_payloads_error_not_panic() {
        let bytes = encode_snapshot(&state(), &EmbeddedLake::Vectors(vec![vec![1.0; 8]; 4]));
        for cut in 0..bytes.len() {
            // Every strict prefix must fail (the full payload decodes).
            assert!(decode_snapshot::<EmbeddedLake>(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut garbled = bytes.clone();
        garbled[0] ^= 0xFF; // first state length prefix becomes absurd
        assert!(decode_snapshot::<EmbeddedLake>(&garbled).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_snapshot(&state(), &EmbeddedLake::Trivial);
        bytes.push(0);
        assert!(matches!(
            decode_snapshot::<EmbeddedLake>(&bytes),
            Err(DecodeError::TrailingBytes { count: 1 })
        ));
    }
}
