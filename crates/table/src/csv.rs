//! A minimal RFC-4180 CSV reader/writer.
//!
//! The paper's lakes live as directories of CSV files (one dirty + one
//! clean file per table). This module is deliberately small: quoted fields,
//! embedded commas/quotes/newlines, CRLF tolerance — nothing more.

use crate::table::{Column, Table};
use std::fmt;

/// Errors produced while parsing CSV text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A record had a different number of fields than the header.
    RaggedRow {
        /// 1-based line-ish record index (header = record 0).
        record: usize,
        /// Fields found.
        found: usize,
        /// Fields expected (header width).
        expected: usize,
    },
    /// A quoted field was never closed.
    UnterminatedQuote,
    /// Input had no header record.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::RaggedRow { record, found, expected } => {
                write!(f, "record {record}: found {found} fields, expected {expected}")
            }
            CsvError::UnterminatedQuote => write!(f, "unterminated quoted field"),
            CsvError::Empty => write!(f, "empty csv input"),
        }
    }
}

impl std::error::Error for CsvError {}

/// What [`parse_table_repair`] had to do to make malformed input parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairSummary {
    /// Records narrower than the header, padded with empty fields.
    pub padded_rows: usize,
    /// Records wider than the header, truncated to the header width.
    pub truncated_rows: usize,
    /// An unterminated quoted field was closed at end of input.
    pub closed_quote: bool,
}

impl RepairSummary {
    /// Whether anything was actually repaired.
    pub fn is_clean(&self) -> bool {
        *self == RepairSummary::default()
    }
}

/// Splits CSV text into records of fields.
pub fn parse_records(input: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut splitter = RecordSplitter::new();
    splitter.feed(input);
    splitter.finish(false).map(|(records, _)| records)
}

/// The one CSV record splitter, behind both parse modes and the chunked
/// reader: feed the input in arbitrary pieces (any char boundary,
/// including mid-field, mid-quote, or between the two `"` of an escaped
/// quote), drain completed records as they close, and call
/// [`RecordSplitter::finish`] at end of input. For any split of the
/// input, `feed`+`finish` yields byte-for-byte the same records, flags
/// and errors as one `feed` of the whole input — the out-of-core CSV
/// reader leans on that equivalence.
#[derive(Debug, Default)]
pub struct RecordSplitter {
    done: Vec<Vec<String>>,
    record: Vec<String>,
    field: String,
    in_quotes: bool,
    /// Saw a `"` while in quotes; the *next* char decides whether it was
    /// an escaped quote (`""`) or the closing quote. May straddle feeds.
    pending_quote: bool,
    any: bool,
    emitted: usize,
}

impl RecordSplitter {
    /// A splitter with no input consumed yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the next piece of input.
    pub fn feed(&mut self, piece: &str) {
        for c in piece.chars() {
            self.any = true;
            if self.pending_quote {
                self.pending_quote = false;
                if c == '"' {
                    self.field.push('"');
                    continue;
                }
                // The pending quote closed the field; `c` is re-processed
                // below under the not-in-quotes rules.
                self.in_quotes = false;
            }
            if self.in_quotes {
                match c {
                    '"' => self.pending_quote = true,
                    _ => self.field.push(c),
                }
            } else {
                match c {
                    '"' => self.in_quotes = true,
                    ',' => self.record.push(std::mem::take(&mut self.field)),
                    '\r' => {
                        // Swallow; the \n (if any) terminates the record.
                    }
                    '\n' => {
                        self.record.push(std::mem::take(&mut self.field));
                        self.done.push(std::mem::take(&mut self.record));
                    }
                    _ => self.field.push(c),
                }
            }
        }
    }

    /// Takes the records completed so far, leaving any partial record
    /// buffered for the next feed.
    pub fn drain(&mut self) -> Vec<Vec<String>> {
        self.emitted += self.done.len();
        std::mem::take(&mut self.done)
    }

    /// Ends the input: a still-open quote errors (strict) or is closed
    /// and flagged (repair, which closes it instead of erroring); a
    /// trailing unterminated field/record is flushed; input that never
    /// produced a record is [`CsvError::Empty`]. Returns the remaining
    /// records plus the `closed_quote` flag.
    pub fn finish(mut self, repair: bool) -> Result<(Vec<Vec<String>>, bool), CsvError> {
        // A quote pending at EOF is a closing quote (`peek() == None`).
        if self.pending_quote {
            self.in_quotes = false;
        }
        let closed_quote = self.in_quotes;
        if self.in_quotes && !repair {
            return Err(CsvError::UnterminatedQuote);
        }
        if !self.field.is_empty() || !self.record.is_empty() {
            self.record.push(std::mem::take(&mut self.field));
            self.done.push(std::mem::take(&mut self.record));
        }
        if !self.any || (self.emitted == 0 && self.done.is_empty()) {
            return Err(CsvError::Empty);
        }
        Ok((self.done, closed_quote))
    }
}

/// Parses CSV text (header + data records) into a [`Table`].
pub fn parse_table(name: &str, input: &str) -> Result<Table, CsvError> {
    table_from_records(name, parse_records(input)?)
}

/// Assembles parsed records (header first) into a [`Table`], enforcing
/// the header width. Shared by [`parse_table`] and the chunked reader so
/// both construct byte-identical tables.
pub(crate) fn table_from_records(name: &str, records: Vec<Vec<String>>) -> Result<Table, CsvError> {
    if records.is_empty() {
        return Err(CsvError::Empty);
    }
    let width = records[0].len();
    let mut columns: Vec<Column> = records[0]
        .iter()
        .map(|h| Column { name: h.clone(), values: Vec::with_capacity(records.len() - 1) })
        .collect();
    for (i, rec) in records.into_iter().enumerate().skip(1) {
        if rec.len() != width {
            return Err(CsvError::RaggedRow { record: i, found: rec.len(), expected: width });
        }
        for (col, v) in columns.iter_mut().zip(rec) {
            col.values.push(v);
        }
    }
    Ok(Table { name: name.to_string(), columns })
}

/// Parses CSV text into a [`Table`] tolerantly: ragged records are padded
/// or truncated to the header width and an unterminated quote is closed
/// at end of input, with every intervention recorded in the summary. The
/// output table's row widths therefore always agree with its header. Only
/// input with no header record at all (`CsvError::Empty`) still fails.
pub fn parse_table_repair(name: &str, input: &str) -> Result<(Table, RepairSummary), CsvError> {
    let mut splitter = RecordSplitter::new();
    splitter.feed(input);
    let (records, closed_quote) = splitter.finish(true)?;
    let mut summary = RepairSummary { closed_quote, ..Default::default() };
    let header = &records[0];
    let width = header.len();
    let mut columns: Vec<Column> = header
        .iter()
        .map(|h| Column { name: h.clone(), values: Vec::with_capacity(records.len() - 1) })
        .collect();
    for rec in records.iter().skip(1) {
        match rec.len().cmp(&width) {
            std::cmp::Ordering::Less => summary.padded_rows += 1,
            std::cmp::Ordering::Greater => summary.truncated_rows += 1,
            std::cmp::Ordering::Equal => {}
        }
        for (c, col) in columns.iter_mut().enumerate() {
            col.values.push(rec.get(c).cloned().unwrap_or_default());
        }
    }
    Ok((Table { name: name.to_string(), columns }, summary))
}

/// Escapes one field per RFC 4180.
fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// Serializes a [`Table`] to CSV text (header + rows, `\n` line endings).
pub fn write_table(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<String> = table.columns.iter().map(|c| escape(&c.name)).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for r in 0..table.n_rows() {
        let row: Vec<String> = table.columns.iter().map(|c| escape(&c.values[r])).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_round_trip() {
        let t = Table::new("t", vec![Column::new("a", ["1", "2"]), Column::new("b", ["x", "y"])]);
        let text = write_table(&t);
        let back = parse_table("t", &text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn quoting_round_trip() {
        let t = Table::new(
            "t",
            vec![
                Column::new("a,b", ["va,l", "quote\"inside"]),
                Column::new("c", ["multi\nline", "plain"]),
            ],
        );
        let back = parse_table("t", &write_table(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn crlf_tolerated() {
        let t = parse_table("t", "a,b\r\n1,2\r\n3,4\r\n").unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.cell(1, 1), "4");
    }

    #[test]
    fn errors_reported() {
        assert_eq!(parse_table("t", ""), Err(CsvError::Empty));
        assert_eq!(
            parse_table("t", "a,b\n1\n"),
            Err(CsvError::RaggedRow { record: 1, found: 1, expected: 2 })
        );
        assert_eq!(parse_table("t", "a\n\"unclosed\n"), Err(CsvError::UnterminatedQuote));
    }

    #[test]
    fn empty_fields_preserved() {
        let t = parse_table("t", "a,b\n,2\n1,\n").unwrap();
        assert_eq!(t.cell(0, 0), "");
        assert_eq!(t.cell(1, 1), "");
    }

    #[test]
    fn header_only_table() {
        let t = parse_table("t", "a,b\n").unwrap();
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.n_cols(), 2);
    }

    #[test]
    fn repair_pads_and_truncates_ragged_rows() {
        let (t, s) = parse_table_repair("t", "a,b\n1\n2,3,4\n5,6\n").unwrap();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.cell(0, 0), "1");
        assert_eq!(t.cell(0, 1), "", "short row padded with empty fields");
        assert_eq!(t.cell(1, 1), "3", "long row truncated to header width");
        assert_eq!(s, RepairSummary { padded_rows: 1, truncated_rows: 1, closed_quote: false });
        assert!(!s.is_clean());
    }

    #[test]
    fn repair_closes_unterminated_quote() {
        let (t, s) = parse_table_repair("t", "a\n\"unclosed\n").unwrap();
        assert!(s.closed_quote);
        assert_eq!(t.n_rows(), 1);
        assert_eq!(t.cell(0, 0), "unclosed\n", "quoted newline kept, quote closed at EOF");
    }

    #[test]
    fn repair_of_well_formed_input_is_clean_and_identical() {
        let text = "a,b\n1,2\n\"x,y\",z\n";
        let strict = parse_table("t", text).unwrap();
        let (repaired, s) = parse_table_repair("t", text).unwrap();
        assert_eq!(strict, repaired);
        assert!(s.is_clean());
    }

    #[test]
    fn repair_still_rejects_headerless_input() {
        assert_eq!(parse_table_repair("t", ""), Err(CsvError::Empty));
    }

    /// A batch splitter over the whole input, written independently of
    /// [`RecordSplitter`] as the reference it is pinned against. In
    /// repair mode an unterminated quote is closed at end of input
    /// (reported via the flag) instead of erroring.
    fn split_records(input: &str, repair: bool) -> Result<(Vec<Vec<String>>, bool), CsvError> {
        let mut records = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut chars = input.chars().peekable();
        let mut in_quotes = false;
        let mut any = false;

        while let Some(c) = chars.next() {
            any = true;
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    _ => field.push(c),
                }
            } else {
                match c {
                    '"' => in_quotes = true,
                    ',' => {
                        record.push(std::mem::take(&mut field));
                    }
                    '\r' => {
                        // Swallow; the \n (if any) terminates the record.
                    }
                    '\n' => {
                        record.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut record));
                    }
                    _ => field.push(c),
                }
            }
        }
        let closed_quote = in_quotes;
        if in_quotes && !repair {
            return Err(CsvError::UnterminatedQuote);
        }
        if !field.is_empty() || !record.is_empty() {
            record.push(field);
            records.push(record);
        }
        if !any || records.is_empty() {
            return Err(CsvError::Empty);
        }
        Ok((records, closed_quote))
    }

    /// Feeds `input` in `step`-char pieces, draining along the way.
    fn split_incremental(
        input: &str,
        step: usize,
        repair: bool,
    ) -> Result<(Vec<Vec<String>>, bool), CsvError> {
        let chars: Vec<char> = input.chars().collect();
        let mut s = RecordSplitter::new();
        let mut done = Vec::new();
        for piece in chars.chunks(step.max(1)) {
            s.feed(&piece.iter().collect::<String>());
            done.extend(s.drain());
        }
        let (tail, closed) = s.finish(repair)?;
        done.extend(tail);
        Ok((done, closed))
    }

    #[test]
    fn incremental_splitter_matches_batch_at_every_feed_size() {
        // Escaped quotes, quoted newlines/commas, CRLF, multi-byte chars,
        // trailing unterminated field — every boundary-sensitive shape.
        let inputs = [
            "a,b\n1,2\n3,4\n",
            "a,b\r\n\"x,\"\"y\"\"\",z\r\ntail,end",
            "h\n\"multi\nline é 漢\",\n",
            "a\n\"\"\"\"\n",
            "solo",
            "a,b\n,\n",
        ];
        for input in inputs {
            for repair in [false, true] {
                let expect = split_records(input, repair);
                for step in 1..=input.chars().count() {
                    assert_eq!(
                        split_incremental(input, step, repair),
                        expect,
                        "input {input:?} step {step} repair {repair}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_splitter_matches_batch_on_malformed_input() {
        for input in ["", "a\n\"unclosed\n", "\"open"] {
            for repair in [false, true] {
                for step in 1..=input.chars().count().max(1) {
                    assert_eq!(
                        split_incremental(input, step, repair),
                        split_records(input, repair),
                        "input {input:?} step {step} repair {repair}"
                    );
                }
            }
        }
    }
}
