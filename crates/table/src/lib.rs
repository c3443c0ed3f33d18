//! # matelda-table
//!
//! The relational substrate underneath the MaTElDa multi-table error
//! detection system (Ahmadi et al., EDBT 2025).
//!
//! Everything in the paper operates on *sets of tables* ("lakes") whose
//! cells are raw strings: an error is any cell whose serialized value
//! differs from the corresponding ground-truth cell (paper Eq. 1). This
//! crate provides:
//!
//! * [`Table`] — a named, column-major relational instance of string cells,
//! * [`Lake`] — an ordered set of tables with global [`CellId`] addressing,
//! * [`CellMask`] — a per-lake bitset over cells (error masks, predictions),
//! * [`diff`] — ground-truth diffing that turns a (dirty, clean) lake pair
//!   into the error set `E` of Eq. 1,
//! * [`metrics`] — precision / recall / F1 and per-error-type recall used
//!   throughout the paper's evaluation (Figures 3–9, Tables 2–3),
//! * [`csv`] — a minimal RFC-4180 reader/writer so lakes round-trip to disk,
//! * [`intern`] — per-column string interning (distinct values, a `u32`
//!   code per row), which featurization and FD mining share,
//! * [`wire`] — the total little-endian codec every binary file of the
//!   repo decodes through (snapshots, `.mtc`, `.mtf`, daemon frames).
//!
//! Cells are deliberately kept as strings: detection happens on the
//! serialized value (`"1995"` in an Age column *is* the error), numeric
//! detectors parse on demand via [`value`] helpers.

pub mod chunked;
pub mod csv;
pub mod diff;
pub mod fingerprint;
pub mod intern;
pub mod io;
pub mod lake;
pub mod mask;
pub mod metrics;
pub mod oracle;
pub mod profile;
pub mod table;
pub mod value;
pub mod wire;

pub use chunked::{
    columnar_lake_fingerprint, columnar_paths_sorted, csv_dir_to_columnar, read_lake_columnar,
    read_table_csv_chunked, skeleton_lake, write_lake_columnar, write_table_columnar, ChunkSource,
    ChunkedError, ColumnarReader, StdFs, DEFAULT_CHUNK_LEN,
};
pub use diff::{diff_lakes, diff_tables};
pub use fingerprint::lake_fingerprint;
pub use intern::{InternedColumn, InternedTable};
pub use io::{
    csv_paths_sorted, read_lake_from_dir, read_lake_from_dir_with, write_lake_to_dir, FileIngest,
    FileOutcome, IngestReport, ReadMode, ReadOptions,
};
pub use lake::{CellId, Lake};
pub use mask::CellMask;
pub use metrics::{Confusion, PerTypeRecall, TypeRecall};
pub use oracle::{Labeler, Oracle};
pub use profile::{profile_table, ColumnProfile, NumericSummary};
pub use table::{Column, Table};
pub use value::DataType;
