//! Out-of-core table access: chunked CSV reads and a columnar on-disk
//! layout, both behind the [`ChunkSource`] byte-range seam.
//!
//! The scale tiers (ROADMAP item 2) generate lakes that must never be
//! materialized whole. This module keeps the `matelda-table` API the
//! unit of truth while letting storage stream:
//!
//! * [`ChunkSource`] — the minimal byte-range I/O the out-of-core path
//!   needs. `matelda-ckpt` implements it for its fault-injectable `Vfs`,
//!   so every chunked read below is covered by the storage fault matrix
//!   for free; [`StdFs`] is the dependency-free direct implementation.
//! * [`read_table_csv_chunked`] — parses a CSV file in fixed-size byte
//!   chunks (UTF-8 sequences and quoted records may straddle chunk
//!   boundaries) into the *identical* [`Table`] that
//!   [`csv::parse_table`](crate::csv::parse_table) builds from the whole
//!   file.
//! * The `.mtc` columnar layout — one file per table, values
//!   length-prefixed per column, so a single column (or one chunk of
//!   one column) can be read without touching the rest of the table.
//! * [`columnar_lake_fingerprint`] — streams the exact byte sequence of
//!   [`lake_fingerprint`](crate::fingerprint::lake_fingerprint) out of
//!   columnar files chunk by chunk: the in-memory / out-of-core
//!   equivalence contract starts here.
//!
//! Everything is little-endian and versioned; format drift is an error,
//! not a misparse. The `.mtc` prelude and directory are written with
//! [`Writer`] and decoded with the total [`Reader`], so a crafted header
//! is a structured [`ChunkedError::Corrupt`], never a panic.

use crate::csv::{table_from_records, CsvError, RecordSplitter};
use crate::fingerprint::Fnv1a;
use crate::lake::Lake;
use crate::table::{Column, Table};
use crate::wire::{DecodeError, Reader, Writer};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Magic prefix of a columnar `.mtc` table file.
pub const COLUMNAR_MAGIC: &[u8; 4] = b"MTCT";
/// Version of the columnar layout; bump on any format change.
pub const COLUMNAR_VERSION: u32 = 1;
/// File extension of columnar table files.
pub const COLUMNAR_EXT: &str = "mtc";
/// Default read granularity (64 KiB) when a caller has no opinion.
pub const DEFAULT_CHUNK_LEN: usize = 64 * 1024;

/// The byte-range storage seam the out-of-core path reads and writes
/// through. `matelda-table` cannot depend on `matelda-ckpt` (the
/// dependency points the other way), so the fault-injectable VFS plugs
/// in from above via this trait; [`StdFs`] is the plain implementation.
/// `Sync` because the out-of-core driver reads tables from executor
/// workers concurrently.
pub trait ChunkSource: Sync {
    /// Length of the file in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Reads up to `len` bytes at `offset`; short reads only at EOF.
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>>;
    /// Atomically replaces `path` with `bytes` (write-then-rename).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Creates `dir` and its parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// The entries of `dir` (files only, any order; callers sort).
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
}

/// Direct `std::fs` implementation of [`ChunkSource`] — no fault
/// injection, no budgets; used by tests and standalone tools.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl ChunkSource for StdFs {
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        std::fs::metadata(path).map(|m| m.len())
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = std::fs::File::open(path)?;
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
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("mtc.tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        Ok(std::fs::read_dir(dir)?.filter_map(Result::ok).map(|e| e.path()).collect())
    }
}

/// Errors of the chunked/columnar layer.
#[derive(Debug)]
pub enum ChunkedError {
    /// Underlying storage failed.
    Io(io::Error),
    /// The CSV content was malformed (same taxonomy as whole-file parse).
    Csv(CsvError),
    /// The columnar file (or a CSV chunk) violated the format contract.
    Corrupt(String),
}

impl fmt::Display for ChunkedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkedError::Io(e) => write!(f, "chunked io: {e}"),
            ChunkedError::Csv(e) => write!(f, "chunked csv: {e}"),
            ChunkedError::Corrupt(what) => write!(f, "corrupt columnar data: {what}"),
        }
    }
}

impl std::error::Error for ChunkedError {}

impl From<io::Error> for ChunkedError {
    fn from(e: io::Error) -> Self {
        ChunkedError::Io(e)
    }
}

impl From<CsvError> for ChunkedError {
    fn from(e: CsvError) -> Self {
        ChunkedError::Csv(e)
    }
}

impl From<DecodeError> for ChunkedError {
    fn from(e: DecodeError) -> Self {
        ChunkedError::Corrupt(e.to_string())
    }
}

/// Reads a CSV file through `src` in `chunk_len`-byte pieces, returning
/// the same records as [`crate::csv::parse_records`] over the whole
/// file. Multi-byte UTF-8 sequences and quoted records may straddle
/// chunk boundaries; both are carried across feeds. In repair mode an
/// unterminated quote at EOF is closed (flag returned) instead of
/// erroring.
pub fn read_csv_records_chunked(
    src: &dyn ChunkSource,
    path: &Path,
    chunk_len: usize,
    repair: bool,
) -> Result<(Vec<Vec<String>>, bool), ChunkedError> {
    let chunk_len = chunk_len.max(1);
    let total = src.file_len(path)?;
    let mut splitter = RecordSplitter::new();
    let mut done: Vec<Vec<String>> = Vec::new();
    let mut carry: Vec<u8> = Vec::new();
    let mut off = 0u64;
    while off < total {
        let want = chunk_len.min((total - off) as usize);
        let bytes = src.read_range(path, off, want)?;
        if bytes.is_empty() {
            // File shrank under us; treat what we have as the whole file.
            break;
        }
        off += bytes.len() as u64;
        carry.extend_from_slice(&bytes);
        match std::str::from_utf8(&carry) {
            Ok(s) => {
                splitter.feed(s);
                carry.clear();
            }
            Err(e) if e.error_len().is_none() => {
                // Incomplete multi-byte sequence at the chunk edge: feed
                // the valid prefix, carry the tail (≤ 3 bytes) forward.
                let valid = e.valid_up_to();
                splitter.feed(std::str::from_utf8(&carry[..valid]).expect("valid prefix"));
                carry.drain(..valid);
            }
            Err(e) => {
                return Err(ChunkedError::Corrupt(format!(
                    "invalid utf-8 at byte {}",
                    off - bytes.len() as u64 + e.valid_up_to() as u64
                )));
            }
        }
        done.extend(splitter.drain());
    }
    if !carry.is_empty() {
        return Err(ChunkedError::Corrupt("invalid utf-8: truncated sequence at eof".into()));
    }
    // `finish` counts drained records too, so Empty here really means
    // the whole file produced nothing.
    let (tail, closed_quote) = splitter.finish(repair).map_err(ChunkedError::Csv)?;
    done.extend(tail);
    Ok((done, closed_quote))
}

/// Parses one CSV file into a [`Table`] via chunked reads: identical
/// output (and identical error taxonomy) to loading the whole file and
/// calling [`crate::csv::parse_table`].
pub fn read_table_csv_chunked(
    src: &dyn ChunkSource,
    path: &Path,
    name: &str,
    chunk_len: usize,
) -> Result<Table, ChunkedError> {
    let (records, _) = read_csv_records_chunked(src, path, chunk_len, false)?;
    Ok(table_from_records(name, records)?)
}

/// The `.mtc` path of table `name` inside `dir`.
pub fn columnar_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.{COLUMNAR_EXT}"))
}

/// The `.mtc` files of `dir`, sorted by file name — the same ordering
/// contract as [`crate::io::csv_paths_sorted`], so table indices line up
/// between a CSV lake and its columnar conversion. (Table names must not
/// contain `.` for the two orders to agree; lake generators never emit
/// dotted names.)
pub fn columnar_paths_sorted(src: &dyn ChunkSource, dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = src
        .read_dir(dir)?
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == COLUMNAR_EXT))
        .collect();
    paths.sort_by(|a, b| a.file_name().cmp(&b.file_name()));
    Ok(paths)
}

/// Bytes before the directory: magic, version and directory length.
const PRELUDE_LEN: usize = 4 + 4 + 8;

/// Serializes one table into the columnar `.mtc` byte layout:
///
/// ```text
/// "MTCT" | version:u32 | dir_len:u64 |
/// directory { name:str, n_cols:u64, n_rows:u64,
///             per col { name:str, data_off:u64, data_len:u64 } } |
/// per col: n_rows × { len:u64 | utf-8 bytes }
/// ```
///
/// (`str` = u64 length + bytes, [`Writer::write_str`]; offsets are
/// absolute file offsets.)
pub fn encode_table_columnar(table: &Table) -> Vec<u8> {
    let directory = |ranges: &[(u64, u64)]| {
        let mut w = Writer::new();
        w.write_str(&table.name);
        w.write_u64(table.n_cols() as u64);
        w.write_u64(table.n_rows() as u64);
        for (col, &(off, len)) in table.columns.iter().zip(ranges) {
            w.write_str(&col.name);
            w.write_u64(off);
            w.write_u64(len);
        }
        w.into_bytes()
    };
    // Offsets are absolute, so the data starts after the directory:
    // its length does not depend on the offsets it holds.
    let mut at = (PRELUDE_LEN + directory(&vec![(0, 0); table.n_cols()]).len()) as u64;
    let ranges: Vec<(u64, u64)> = table
        .columns
        .iter()
        .map(|col| {
            let len = col.values.iter().map(|v| 8 + v.len() as u64).sum::<u64>();
            let range = (at, len);
            at += len;
            range
        })
        .collect();
    let mut w = Writer::new();
    w.write_raw(COLUMNAR_MAGIC);
    w.write_u32(COLUMNAR_VERSION);
    w.write_bytes(&directory(&ranges));
    for v in table.columns.iter().flat_map(|col| &col.values) {
        w.write_str(v);
    }
    w.into_bytes()
}

/// Writes `table` as `<dir>/<table name>.mtc` (atomic replace).
pub fn write_table_columnar(
    src: &dyn ChunkSource,
    dir: &Path,
    table: &Table,
) -> Result<PathBuf, ChunkedError> {
    src.create_dir_all(dir)?;
    let path = columnar_path(dir, &table.name);
    src.write_atomic(&path, &encode_table_columnar(table))?;
    Ok(path)
}

/// Per-column directory entry of an open columnar file.
#[derive(Debug, Clone)]
struct ColMeta {
    name: String,
    off: u64,
    len: u64,
}

/// An open columnar table file: the directory is resident, cell data is
/// read on demand in byte ranges.
pub struct ColumnarReader<'a> {
    src: &'a dyn ChunkSource,
    path: PathBuf,
    name: String,
    n_rows: usize,
    cols: Vec<ColMeta>,
}

impl<'a> ColumnarReader<'a> {
    /// Opens a columnar file: validates magic/version, reads the
    /// directory (two small ranged reads), leaves cell data on disk.
    ///
    /// The prelude and the directory decode through the total
    /// [`Reader`], and every length the header claims is checked against
    /// the bytes that could back it before anything is sized by it: the
    /// directory against the file (and consumed exactly), each column's
    /// data range against the file, and the row count against every
    /// column's data (each value takes at least its 8-byte length). A
    /// header that fails any check is [`ChunkedError::Corrupt`].
    pub fn open(src: &'a dyn ChunkSource, path: &Path) -> Result<Self, ChunkedError> {
        let prelude = src.read_range(path, 0, PRELUDE_LEN)?;
        let mut r = Reader::new(&prelude);
        if r.read_raw(4)? != COLUMNAR_MAGIC {
            return Err(DecodeError::BadMagic { expected: "MTCT" }.into());
        }
        let version = r.read_u32()?;
        if version != COLUMNAR_VERSION {
            return Err(
                DecodeError::BadVersion { found: version, expected: COLUMNAR_VERSION }.into()
            );
        }
        let dir_len = r.read_u64()?;
        let file_len = src.file_len(path)?;
        if dir_len > file_len.saturating_sub(PRELUDE_LEN as u64) {
            return Err(ChunkedError::Corrupt("directory extends past eof".into()));
        }
        let dir_len = usize::try_from(dir_len)
            .map_err(|_| ChunkedError::Corrupt("directory larger than memory".into()))?;
        let dir_blob = src.read_range(path, PRELUDE_LEN as u64, dir_len)?;
        let mut r = Reader::new(&dir_blob);
        let name = r.read_str()?;
        let n_cols = r.read_u64()?;
        let n_rows = r.read_u64()?;
        // Nothing is sized by `n_cols`: each entry is read or the
        // directory runs out.
        let mut cols = Vec::new();
        for _ in 0..n_cols {
            let col_name = r.read_str()?;
            let off = r.read_u64()?;
            let len = r.read_u64()?;
            if off.checked_add(len).is_none_or(|end| end > file_len) {
                return Err(ChunkedError::Corrupt(format!(
                    "column {col_name:?} data range [{off}, +{len}) past eof"
                )));
            }
            if n_rows > len / 8 {
                return Err(ChunkedError::Corrupt(format!(
                    "column {col_name:?} holds {len} bytes, too few for {n_rows} rows"
                )));
            }
            cols.push(ColMeta { name: col_name, off, len });
        }
        r.finish()?;
        if cols.is_empty() && n_rows > 0 {
            return Err(ChunkedError::Corrupt(format!("{n_rows} rows without a column")));
        }
        let n_rows = usize::try_from(n_rows)
            .map_err(|_| ChunkedError::Corrupt(format!("{n_rows} rows exceed memory")))?;
        Ok(Self { src, path: path.to_path_buf(), name, n_rows, cols })
    }

    /// Table name stored in the file (not derived from the path).
    pub fn table_name(&self) -> &str {
        &self.name
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows (shared by all columns).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Total number of cells.
    pub fn n_cells(&self) -> usize {
        self.n_rows * self.cols.len()
    }

    /// Name of column `c`.
    pub fn column_name(&self, c: usize) -> &str {
        &self.cols[c].name
    }

    /// Streams every value of column `c` in row order through `f`,
    /// reading the column's byte range in `chunk_len`-sized pieces; no
    /// more than one chunk (plus one value) is resident at a time.
    pub fn for_each_value(
        &self,
        c: usize,
        chunk_len: usize,
        mut f: impl FnMut(&str),
    ) -> Result<(), ChunkedError> {
        let chunk_len = chunk_len.max(1);
        let col = &self.cols[c];
        let end = col.off + col.len;
        let mut pos = col.off;
        let mut buf: Vec<u8> = Vec::new();
        let mut cursor = 0usize;
        for row in 0..self.n_rows {
            // Ensure the 8-byte length, then the value bytes, topping the
            // buffer up from disk as needed.
            while buf.len() - cursor < 8 {
                fill(self.src, &self.path, &mut buf, &mut cursor, &mut pos, end, chunk_len)
                    .map_err(|e| truncated(e, c, row))?;
            }
            let len =
                u64::from_le_bytes(buf[cursor..cursor + 8].try_into().expect("8 bytes")) as usize;
            cursor += 8;
            while buf.len() - cursor < len {
                fill(self.src, &self.path, &mut buf, &mut cursor, &mut pos, end, chunk_len)
                    .map_err(|e| truncated(e, c, row))?;
            }
            let value = std::str::from_utf8(&buf[cursor..cursor + len])
                .map_err(|_| ChunkedError::Corrupt(format!("column {c} row {row} not utf-8")))?;
            f(value);
            cursor += len;
        }
        Ok(())
    }

    /// Materializes column `c` via chunked reads.
    pub fn read_column(&self, c: usize, chunk_len: usize) -> Result<Column, ChunkedError> {
        let mut values = Vec::with_capacity(self.n_rows);
        self.for_each_value(c, chunk_len, |v| values.push(v.to_string()))?;
        Ok(Column { name: self.cols[c].name.clone(), values })
    }

    /// Materializes the whole table via chunked reads.
    pub fn read_table(&self, chunk_len: usize) -> Result<Table, ChunkedError> {
        let mut columns = Vec::with_capacity(self.cols.len());
        for c in 0..self.cols.len() {
            columns.push(self.read_column(c, chunk_len)?);
        }
        Ok(Table { name: self.name.clone(), columns })
    }
}

/// Reads the next chunk of `[pos, end)` into `buf`, compacting consumed
/// bytes first so the buffer stays bounded by one value + one chunk.
fn fill(
    src: &dyn ChunkSource,
    path: &Path,
    buf: &mut Vec<u8>,
    cursor: &mut usize,
    pos: &mut u64,
    end: u64,
    chunk_len: usize,
) -> Result<(), ChunkedError> {
    if *cursor > 0 {
        buf.drain(..*cursor);
        *cursor = 0;
    }
    if *pos >= end {
        return Err(ChunkedError::Corrupt("column data truncated".into()));
    }
    let want = chunk_len.min((end - *pos) as usize);
    let bytes = src.read_range(path, *pos, want)?;
    if bytes.is_empty() {
        return Err(ChunkedError::Corrupt("column data truncated".into()));
    }
    *pos += bytes.len() as u64;
    buf.extend_from_slice(&bytes);
    Ok(())
}

fn truncated(e: ChunkedError, col: usize, row: usize) -> ChunkedError {
    match e {
        ChunkedError::Corrupt(what) => {
            ChunkedError::Corrupt(format!("column {col} row {row}: {what}"))
        }
        other => other,
    }
}

/// Writes every table of `lake` into `dir` as columnar `.mtc` files.
pub fn write_lake_columnar(
    src: &dyn ChunkSource,
    dir: &Path,
    lake: &Lake,
) -> Result<(), ChunkedError> {
    for table in &lake.tables {
        write_table_columnar(src, dir, table)?;
    }
    Ok(())
}

/// Loads a columnar lake directory fully into memory, in file-name
/// order — the columnar analogue of [`crate::io::read_lake_from_dir`].
pub fn read_lake_columnar(
    src: &dyn ChunkSource,
    dir: &Path,
    chunk_len: usize,
) -> Result<Lake, ChunkedError> {
    let mut tables = Vec::new();
    for path in columnar_paths_sorted(src, dir)? {
        tables.push(ColumnarReader::open(src, &path)?.read_table(chunk_len)?);
    }
    Ok(Lake::new(tables))
}

/// Converts a CSV lake directory into a columnar one, one table at a
/// time (chunked CSV read in, atomic `.mtc` write out — the lake itself
/// is never resident). Table names are the CSV file stems, exactly as
/// in [`crate::io::read_lake_from_dir`]. Returns the number of tables
/// converted.
pub fn csv_dir_to_columnar(
    src: &dyn ChunkSource,
    csv_dir: &Path,
    out_dir: &Path,
    chunk_len: usize,
) -> Result<usize, ChunkedError> {
    let mut paths: Vec<PathBuf> = src
        .read_dir(csv_dir)?
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "csv"))
        .collect();
    paths.sort_by(|a, b| a.file_name().cmp(&b.file_name()));
    let mut n = 0;
    for path in paths {
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("table").to_string();
        let table = read_table_csv_chunked(src, &path, &name, chunk_len)?;
        write_table_columnar(src, out_dir, &table)?;
        n += 1;
    }
    Ok(n)
}

/// Streams the lake fingerprint straight off a columnar directory: the
/// digest equals [`lake_fingerprint`](crate::fingerprint::lake_fingerprint)
/// of the fully materialized lake, but peak memory is one chunk plus one
/// cell value. This is the anchor of the out-of-core equivalence
/// contract (DESIGN.md §14).
pub fn columnar_lake_fingerprint(
    src: &dyn ChunkSource,
    dir: &Path,
    chunk_len: usize,
) -> Result<u64, ChunkedError> {
    let paths = columnar_paths_sorted(src, dir)?;
    let mut h = Fnv1a::new();
    h.write_u64(paths.len() as u64);
    for path in paths {
        let reader = ColumnarReader::open(src, &path)?;
        h.write_str(reader.table_name());
        h.write_u64(reader.n_cols() as u64);
        for c in 0..reader.n_cols() {
            h.write_str(reader.column_name(c));
            h.write_u64(reader.n_rows() as u64);
            reader.for_each_value(c, chunk_len, |v| h.write_str(v))?;
        }
    }
    Ok(h.finish())
}

/// A lake with every table's *shape* (name, header, row count) but empty
/// cell values — the stage inputs the post-featurize pipeline actually
/// reads under the default configuration. Built from columnar metadata
/// alone: no cell data is read at all.
pub fn skeleton_lake(src: &dyn ChunkSource, dir: &Path) -> Result<Lake, ChunkedError> {
    let mut tables = Vec::new();
    for path in columnar_paths_sorted(src, dir)? {
        let reader = ColumnarReader::open(src, &path)?;
        let columns = (0..reader.n_cols())
            .map(|c| Column {
                name: reader.column_name(c).to_string(),
                values: vec![String::new(); reader.n_rows()],
            })
            .collect();
        tables.push(Table { name: reader.table_name().to_string(), columns });
    }
    Ok(Lake::new(tables))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{parse_table, write_table};
    use crate::fingerprint::lake_fingerprint;
    use proptest::prelude::Strategy;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("matelda_chunked_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn spiky_table() -> Table {
        Table::new(
            "spiky",
            vec![
                Column::new("a,b", ["va,l", "quote\"inside", "", "plain"]),
                Column::new("c", ["multi\nline", "crème brûlée", "naïve—em", "42"]),
                Column::new("d\"q", ["x", "\"\"", ",", "\r\nmix"]),
            ],
        )
    }

    #[test]
    fn chunked_csv_read_matches_whole_file_parse_at_every_chunk_size() {
        let dir = tmpdir("csv_eq");
        let table = spiky_table();
        let text = write_table(&table);
        let path = dir.join("spiky.csv");
        std::fs::write(&path, &text).expect("write");
        let expect = parse_table("spiky", &text).expect("whole-file parse");
        // Chunk size 1 forces every boundary: mid-UTF-8, mid-quote,
        // between the two quotes of an escaped pair, mid-CRLF.
        for chunk_len in [1, 2, 3, 5, 7, 16, 64, text.len(), text.len() + 100] {
            let got = read_table_csv_chunked(&StdFs, &path, "spiky", chunk_len)
                .unwrap_or_else(|e| panic!("chunk_len {chunk_len}: {e}"));
            assert_eq!(got, expect, "chunk_len {chunk_len}");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn chunked_csv_read_reports_the_same_errors_as_whole_file_parse() {
        let dir = tmpdir("csv_err");
        for (tag, text) in [("empty", ""), ("ragged", "a,b\n1\n"), ("quote", "a\n\"unclosed\n")] {
            let path = dir.join(format!("{tag}.csv"));
            std::fs::write(&path, text).expect("write");
            let whole = parse_table(tag, text).expect_err("whole-file parse fails");
            for chunk_len in [1, 3, 1024] {
                match read_table_csv_chunked(&StdFs, &path, tag, chunk_len) {
                    Err(ChunkedError::Csv(e)) => assert_eq!(e, whole, "{tag} chunk {chunk_len}"),
                    other => panic!("{tag} chunk {chunk_len}: expected Csv error, got {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn columnar_round_trip_preserves_the_table_exactly() {
        let dir = tmpdir("roundtrip");
        let table = spiky_table();
        let path = write_table_columnar(&StdFs, &dir, &table).expect("write");
        let reader = ColumnarReader::open(&StdFs, &path).expect("open");
        assert_eq!(reader.table_name(), "spiky");
        assert_eq!(reader.n_cols(), 3);
        assert_eq!(reader.n_rows(), 4);
        assert_eq!(reader.n_cells(), 12);
        for chunk_len in [1, 2, 9, 64, 1 << 20] {
            assert_eq!(reader.read_table(chunk_len).expect("read"), table, "chunk {chunk_len}");
        }
        // Single-column access agrees too.
        let col = reader.read_column(1, 3).expect("column");
        assert_eq!(col, table.columns[1]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// The v1 `.mtc` bytes are pinned: a change to what the encoder
    /// writes must come with a `COLUMNAR_VERSION` bump and a new constant.
    #[test]
    fn columnar_bytes_match_the_recorded_v1_encoding() {
        let bytes = encode_table_columnar(&spiky_table());
        let mut h = Fnv1a::new();
        h.write_bytes(&bytes);
        assert_eq!((bytes.len(), h.finish()), (288, 0x6cb7_3f0e_4276_5584));
    }

    #[test]
    fn empty_and_header_only_tables_round_trip() {
        let dir = tmpdir("edge");
        for table in [
            Table::new("empty", vec![]),
            Table::new("header_only", vec![Column::new("a", Vec::<String>::new())]),
        ] {
            let path = write_table_columnar(&StdFs, &dir, &table).expect("write");
            let back =
                ColumnarReader::open(&StdFs, &path).expect("open").read_table(7).expect("read");
            assert_eq!(back, table);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn streaming_fingerprint_matches_in_memory_lake_fingerprint() {
        let dir = tmpdir("fp");
        let lake = Lake::new(vec![
            Table::new("b", vec![Column::new("z", ["7", "8"])]),
            spiky_table(),
            Table::new("z_last", vec![Column::new("only", ["一", "二", "三"])]),
        ]);
        write_lake_columnar(&StdFs, &dir, &lake).expect("write lake");
        // Note: columnar_paths_sorted orders by file name; lake table
        // names here are already in sorted order to match.
        for chunk_len in [1, 5, 4096] {
            assert_eq!(
                columnar_lake_fingerprint(&StdFs, &dir, chunk_len).expect("stream fp"),
                lake_fingerprint(&lake),
                "chunk {chunk_len}"
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn csv_dir_conversion_preserves_lake_and_fingerprint() {
        let csv_dir = tmpdir("conv_csv");
        let col_dir = tmpdir("conv_mtc");
        let lake = Lake::new(vec![
            Table::new("a_first", vec![Column::new("x", ["1", "2"]), Column::new("y", ["p", "q"])]),
            spiky_table(),
        ]);
        crate::io::write_lake_to_dir(&lake, &csv_dir).expect("write csv");
        let n = csv_dir_to_columnar(&StdFs, &csv_dir, &col_dir, 11).expect("convert");
        assert_eq!(n, 2);
        let back = read_lake_columnar(&StdFs, &col_dir, 13).expect("read back");
        let via_csv = crate::io::read_lake_from_dir(&csv_dir).expect("read csv");
        assert_eq!(back, via_csv);
        assert_eq!(
            columnar_lake_fingerprint(&StdFs, &col_dir, 17).expect("stream fp"),
            lake_fingerprint(&via_csv)
        );
        std::fs::remove_dir_all(&csv_dir).expect("cleanup");
        std::fs::remove_dir_all(&col_dir).expect("cleanup");
    }

    #[test]
    fn skeleton_lake_has_shapes_but_no_values() {
        let dir = tmpdir("skeleton");
        let lake = Lake::new(vec![spiky_table()]);
        write_lake_columnar(&StdFs, &dir, &lake).expect("write");
        let skel = skeleton_lake(&StdFs, &dir).expect("skeleton");
        assert_eq!(skel.n_tables(), 1);
        assert_eq!(skel.tables[0].name, "spiky");
        assert_eq!(skel.tables[0].n_rows(), 4);
        assert_eq!(skel.tables[0].header(), lake.tables[0].header());
        assert!(skel.tables[0].columns.iter().all(|c| c.values.iter().all(String::is_empty)));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_columnar_files_are_rejected_not_misparsed() {
        let dir = tmpdir("corrupt");
        let table = spiky_table();
        let bytes = encode_table_columnar(&table);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("truncated", bytes[..bytes.len() / 2].to_vec()),
            ("bad_magic", {
                let mut b = bytes.clone();
                b[0] ^= 0xFF;
                b
            }),
            ("bad_version", {
                let mut b = bytes.clone();
                b[4] = 0xEE;
                b
            }),
            ("short", bytes[..10].to_vec()),
        ];
        for (tag, b) in cases {
            let path = dir.join(format!("{tag}.mtc"));
            std::fs::write(&path, &b).expect("write");
            let res = ColumnarReader::open(&StdFs, &path).and_then(|r| r.read_table(64));
            assert!(
                matches!(res, Err(ChunkedError::Corrupt(_))),
                "{tag}: expected Corrupt, got {:?}",
                res.map(|t| t.name)
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// One `.mtc` file held in memory, so the decoder tests need no disk.
    /// A read longer than the file (beyond the fixed 16-byte prelude)
    /// panics: `StdFs` would allocate that length up front, so such a
    /// read means the decoder trusted a length the file cannot back.
    struct Mem(Vec<u8>);

    impl ChunkSource for Mem {
        fn file_len(&self, _: &Path) -> io::Result<u64> {
            Ok(self.0.len() as u64)
        }
        fn read_range(&self, _: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
            assert!(len <= self.0.len().max(16), "read of {len} bytes trusts the header");
            let start = usize::try_from(offset).map_or(self.0.len(), |o| o.min(self.0.len()));
            Ok(self.0[start..].iter().take(len).copied().collect())
        }
        fn write_atomic(&self, _: &Path, _: &[u8]) -> io::Result<()> {
            Err(io::Error::other("read-only"))
        }
        fn create_dir_all(&self, _: &Path) -> io::Result<()> {
            Ok(())
        }
        fn read_dir(&self, _: &Path) -> io::Result<Vec<PathBuf>> {
            Ok(Vec::new())
        }
    }

    /// Opens `bytes` and reads the whole table at `chunk_len`.
    fn decode(bytes: Vec<u8>, chunk_len: usize) -> Result<Table, ChunkedError> {
        let src = Mem(bytes);
        let reader = ColumnarReader::open(&src, Path::new("mem.mtc"))?;
        let table = reader.read_table(chunk_len)?;
        assert_eq!(table.n_cols(), reader.n_cols());
        assert!(table.columns.iter().all(|c| c.len() == reader.n_rows()));
        Ok(table)
    }

    /// Overwrites the u64 at byte `at`.
    fn with_u64(mut bytes: Vec<u8>, at: usize, value: u64) -> Vec<u8> {
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        bytes
    }

    /// `table`'s encoding and the offsets of its header fields: the
    /// directory length, the table-name length, the column count and the
    /// row count.
    fn encoded_with_fields(table: &Table) -> (Vec<u8>, [usize; 4]) {
        let name_at = 16;
        let n_cols_at = name_at + 8 + table.name.len();
        (encode_table_columnar(table), [8, name_at, n_cols_at, n_cols_at + 8])
    }

    fn assert_corrupt(res: Result<impl fmt::Debug, ChunkedError>, what: &str) {
        assert!(matches!(res, Err(ChunkedError::Corrupt(_))), "{what}: got {res:?}");
    }

    /// Regression: `16 + dir_len` overflowed for a directory length near
    /// `u64::MAX` — a debug panic; in release it wrapped past the check
    /// and `StdFs` panicked allocating the claimed length.
    #[test]
    fn a_huge_directory_length_is_corrupt() {
        let (bytes, [dir_len_at, ..]) = encoded_with_fields(&spiky_table());
        for claim in [u64::MAX, u64::MAX - 15, u64::MAX - 16] {
            assert_corrupt(decode(with_u64(bytes.clone(), dir_len_at, claim), 64), "dir_len");
        }
    }

    /// Regression: a directory string claiming `u64::MAX - 7` bytes
    /// overflowed `pos + len` — a debug panic; release panicked slicing.
    #[test]
    fn a_huge_directory_string_length_is_corrupt() {
        let (bytes, [_, name_len_at, ..]) = encoded_with_fields(&spiky_table());
        for claim in [u64::MAX - 7, u64::MAX, 1 << 40] {
            assert_corrupt(decode(with_u64(bytes.clone(), name_len_at, claim), 64), "name");
        }
    }

    /// Regression: a column count of 2^60 panicked `Vec::with_capacity`
    /// with a capacity overflow before a single entry was read.
    #[test]
    fn a_huge_column_count_is_corrupt() {
        let (bytes, [_, _, n_cols_at, _]) = encoded_with_fields(&spiky_table());
        for claim in [1 << 60, u64::MAX, 4] {
            assert_corrupt(decode(with_u64(bytes.clone(), n_cols_at, claim), 64), "n_cols");
        }
    }

    /// Regression: a row count of 2^40 over an empty column opened `Ok`,
    /// and `skeleton_lake` then allocated 2^40 strings for it. Through the
    /// real file system, as the out-of-core driver reads it.
    #[test]
    fn a_row_count_the_columns_cannot_hold_is_corrupt() {
        let dir = tmpdir("huge_rows");
        let header_only = Table::new("h", vec![Column::new("a", Vec::<String>::new())]);
        let (bytes, [.., n_rows_at]) = encoded_with_fields(&header_only);
        std::fs::write(dir.join("h.mtc"), with_u64(bytes, n_rows_at, 1 << 40)).expect("write");
        assert_corrupt(
            ColumnarReader::open(&StdFs, &dir.join("h.mtc")).map(|r| r.n_rows()),
            "open",
        );
        assert_corrupt(skeleton_lake(&StdFs, &dir), "skeleton");
        // One row more than a real column's values can back, and a row
        // count without any column.
        let (bytes, [.., n_rows_at]) = encoded_with_fields(&spiky_table());
        let data_len: u64 =
            spiky_table().columns[1].values.iter().map(|v| 8 + v.len() as u64).sum();
        assert_corrupt(decode(with_u64(bytes, n_rows_at, data_len / 8 + 1), 64), "rows");
        let (bytes, [.., n_rows_at]) = encoded_with_fields(&Table::new("e", vec![]));
        assert_corrupt(decode(with_u64(bytes, n_rows_at, 1), 64), "no columns");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // Arbitrary bytes behind a valid magic and version, or a real
        // table's encoding with one u64 overwritten anywhere, with values
        // small or arbitrary: `open` and `read_table` return a table or a
        // structured error, and never panic or read a length the file
        // cannot back (`Mem` panics on such a read).
        #[test]
        fn columnar_decode_never_panics_on_arbitrary_bytes(
            fields in proptest::collection::vec(
                (0u64..10, 0u64..u64::MAX).prop_map(|(s, h)| match s {
                    0..=2 => s,
                    3..=5 => s * 8,
                    _ => h,
                }),
                0..12,
            ),
            tail in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..64),
            mode in (0usize..3, 0usize..1024),
            chunk_len in 1usize..40,
        ) {
            let bytes = match mode.0 {
                // A real table with one field overwritten.
                0 => {
                    let bytes = encode_table_columnar(&spiky_table());
                    let at = mode.1 % (bytes.len() - 7);
                    with_u64(bytes, at, fields.first().copied().unwrap_or(u64::MAX))
                }
                // A made-up directory whose claimed length is the rest of
                // the file, or arbitrary.
                _ => {
                    let mut bytes = COLUMNAR_MAGIC.to_vec();
                    bytes.extend_from_slice(&COLUMNAR_VERSION.to_le_bytes());
                    let rest = (fields.len() * 8 + tail.len()) as u64;
                    let dir_len = if mode.0 == 1 { rest } else { mode.1 as u64 };
                    bytes.extend_from_slice(&dir_len.to_le_bytes());
                    fields.iter().for_each(|v| bytes.extend_from_slice(&v.to_le_bytes()));
                    bytes.extend_from_slice(&tail);
                    bytes
                }
            };
            let _ = decode(bytes, chunk_len);
        }

        // Every strict prefix of a real `.mtc` file — a torn write — is
        // an error, never a panic and never `Ok`; the whole file is the
        // table.
        #[test]
        fn every_truncated_prefix_of_a_columnar_file_is_an_error(
            cols in proptest::collection::vec(proptest::collection::vec(0usize..5, 0..4), 0..4),
            chunk_len in 1usize..20,
        ) {
            const PALETTE: [&str; 5] = ["", "x", "é,\"", "漢字", "a longer value"];
            let n_rows = cols.iter().map(Vec::len).min().unwrap_or(0);
            let table = Table::new(
                "t",
                cols.iter()
                    .enumerate()
                    .map(|(i, picks)| {
                        Column::new(format!("c{i}"), picks[..n_rows].iter().map(|&p| PALETTE[p]))
                    })
                    .collect(),
            );
            let bytes = encode_table_columnar(&table);
            for cut in 0..bytes.len() {
                proptest::prop_assert!(decode(bytes[..cut].to_vec(), chunk_len).is_err(), "cut {cut}");
            }
            proptest::prop_assert_eq!(decode(bytes, chunk_len).expect("a whole file decodes"), table);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        // Arbitrary tables built from a hostile palette (quotes, commas,
        // newlines, CRLF, multi-byte UTF-8) survive: (a) CSV chunked
        // read == whole-file parse at an arbitrary chunk size — chunk
        // boundaries land inside quoted records and UTF-8 sequences;
        // (b) columnar round trip is exact; (c) the streaming columnar
        // fingerprint equals the in-memory one.
        #[test]
        fn chunked_paths_are_equivalent_to_in_memory(
            cols in proptest::collection::vec(
                proptest::collection::vec(0usize..12, 1..9),
                1..5,
            ),
            chunk_len in 1usize..40,
            case_tag in 0u64..1_000_000,
        ) {
            const PALETTE: [&str; 12] = [
                "plain", "a,b", "q\"q", "\"\"", "nl\nnl", "crlf\r\nx",
                "é", "漢字", "", " lead", "trail ", ",\",\n\"",
            ];
            let n_rows = cols.iter().map(Vec::len).min().unwrap_or(0);
            let table = Table::new(
                "t",
                cols.iter()
                    .enumerate()
                    .map(|(i, picks)| {
                        Column::new(
                            format!("c{i}"),
                            picks[..n_rows].iter().map(|&p| PALETTE[p].to_string()),
                        )
                    })
                    .collect(),
            );

            let dir = tmpdir(&format!("prop_{case_tag}"));

            // (a) CSV chunked read equivalence.
            let text = write_table(&table);
            let csv_path = dir.join("t.csv");
            std::fs::write(&csv_path, &text).expect("write csv");
            let whole = parse_table("t", &text).expect("whole-file parse");
            let chunked = read_table_csv_chunked(&StdFs, &csv_path, "t", chunk_len)
                .expect("chunked parse");
            proptest::prop_assert_eq!(&chunked, &whole);

            // (b) columnar round trip.
            let mtc = write_table_columnar(&StdFs, &dir, &table).expect("write mtc");
            let back = ColumnarReader::open(&StdFs, &mtc)
                .expect("open")
                .read_table(chunk_len)
                .expect("read");
            proptest::prop_assert_eq!(&back, &table);

            // (c) streaming fingerprint equivalence.
            let lake = Lake::new(vec![table.clone()]);
            proptest::prop_assert_eq!(
                columnar_lake_fingerprint(&StdFs, &dir, chunk_len).expect("stream fp"),
                lake_fingerprint(&lake)
            );

            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }
}
