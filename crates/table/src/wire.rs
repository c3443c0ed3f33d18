//! Little-endian wire primitives: the one codec layer under every
//! binary file this repo owns — checkpoint envelopes, manifests and
//! stage snapshots, the `.mtc` prelude and directory, the `.mtf` feature
//! spill, and the daemon's frames and memo entries.
//!
//! The encoder is infallible ([`Writer`] appends to a growable buffer);
//! the decoder ([`Reader`]) is *total* — every read is bounds-checked
//! against the remaining input before anything is allocated, so
//! truncated or garbled bytes produce a structured [`DecodeError`],
//! never a panic or an attempt to allocate a bogus multi-gigabyte
//! vector. This is what the decoder property tests lean on: decode of
//! arbitrary bytes must be safe. Every variable-size form decodes only
//! in the canonical shape its writer produces, so any bytes that decode
//! at all re-encode to exactly themselves.

use std::error::Error;
use std::fmt;

/// The bits of `1.0f32`, the one value besides `+0.0` a packed f32 run holds.
const ONE_BITS: u32 = 0x3F80_0000;

/// Why a byte buffer failed to decode. Carries enough context to tell a
/// torn write (EOF) from bit rot (hash/magic) from a format change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before a fixed-size field: `wanted` bytes needed,
    /// `remaining` left.
    UnexpectedEof { wanted: usize, remaining: usize },
    /// A length prefix exceeds the bytes that follow it — the telltale
    /// of truncation mid-record (or garbage interpreted as a length).
    LengthOverflow { len: u64, remaining: usize },
    /// The leading magic bytes are not the expected tag.
    BadMagic { expected: &'static str },
    /// The format version is one this build does not understand.
    BadVersion { found: u32, expected: u32 },
    /// A content digest does not match the bytes it covers.
    HashMismatch { expected: u64, found: u64 },
    /// Decoding finished but `count` bytes were left over — a valid
    /// snapshot is consumed exactly.
    TrailingBytes { count: usize },
    /// A field decoded but its value is semantically impossible
    /// (e.g. a boolean byte that is neither 0 nor 1).
    Malformed(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { wanted, remaining } => {
                write!(f, "unexpected end of input: wanted {wanted} bytes, {remaining} remaining")
            }
            DecodeError::LengthOverflow { len, remaining } => {
                write!(f, "length prefix {len} exceeds {remaining} remaining bytes")
            }
            DecodeError::BadMagic { expected } => {
                write!(f, "bad magic: expected {expected:?}")
            }
            DecodeError::BadVersion { found, expected } => {
                write!(f, "unsupported format version {found} (this build reads {expected})")
            }
            DecodeError::HashMismatch { expected, found } => {
                write!(
                    f,
                    "content hash mismatch: recorded {expected:#018x}, computed {found:#018x}"
                )
            }
            DecodeError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete record")
            }
            DecodeError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl Error for DecodeError {}

/// Append-only encoder. All integers are little-endian; variable-size
/// fields are length-prefixed with a `u64`.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern — exact round-trip,
    /// no formatting involved.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Appends a boolean as one byte (0 or 1).
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a string as length-prefixed UTF-8.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Appends raw bytes with no prefix (magic tags, nested records).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` as an LEB128 varint (1 byte for values < 128,
    /// up to 10 for the full range). Snapshot payloads are dominated by
    /// small counts and indexes, so this is the default integer
    /// encoding for artifact codecs; fixed-width `write_u64` remains
    /// for envelope fields that must be seekable.
    pub fn write_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends an `f32` run in the one form [`Reader::read_f32s`]
    /// accepts: a tag byte, the length as a varint, then the values.
    ///
    /// * Tag `1` — every value is exactly `+0.0` or `1.0` (the shape of
    ///   the feature flags, which dominate snapshot volume): one bit per
    ///   value, LSB first. The empty run takes this form.
    /// * Tag `0` — raw IEEE-754 bit patterns, 4 bytes each, used only
    ///   when some value is outside `{+0.0, 1.0}`; `-0.0` and NaN
    ///   payloads travel exactly.
    pub fn write_f32s(&mut self, v: &[f32]) {
        let packable = v.iter().all(|x| matches!(x.to_bits(), 0 | ONE_BITS));
        self.write_u8(u8::from(packable));
        self.write_varint(v.len() as u64);
        if packable {
            let start = self.buf.len();
            self.buf.resize(start + v.len().div_ceil(8), 0);
            for (i, x) in v.iter().enumerate() {
                if x.to_bits() == ONE_BITS {
                    self.buf[start + i / 8] |= 1 << (i % 8);
                }
            }
        } else {
            self.reserve(v.len() * 4);
            for &x in v {
                self.write_u32(x.to_bits());
            }
        }
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes so far, without consuming the writer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof { wanted: n, remaining: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn read_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a boolean byte; anything but 0 or 1 is [`DecodeError::Malformed`].
    pub fn read_bool(&mut self) -> Result<bool, DecodeError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::Malformed(format!("boolean byte {b}"))),
        }
    }

    /// Reads an LEB128 varint written by [`Writer::write_varint`].
    ///
    /// Only the *minimal* encoding of a value decodes: a padded form
    /// (trailing zero continuation groups) or one exceeding 64 bits is
    /// [`DecodeError::Malformed`]. Canonicality matters because the
    /// snapshot property tests assert that any byte string which
    /// decodes at all re-encodes to exactly itself.
    pub fn read_varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        for i in 0..10 {
            let byte = self.read_u8()?;
            if i == 9 && byte > 0x01 {
                return Err(DecodeError::Malformed("varint exceeds 64 bits".into()));
            }
            value |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                if i > 0 && byte == 0 {
                    return Err(DecodeError::Malformed("non-canonical varint".into()));
                }
                return Ok(value);
            }
        }
        unreachable!("the tenth varint byte always terminates or errors")
    }

    /// Reads a varint length prefix, validated against the remaining
    /// input before any allocation — the varint twin of [`Reader::read_len`].
    pub fn read_varint_len(&mut self) -> Result<usize, DecodeError> {
        let len = self.read_varint()?;
        if len > self.remaining() as u64 {
            return Err(DecodeError::LengthOverflow { len, remaining: self.remaining() });
        }
        Ok(len as usize)
    }

    /// Reads a `u64` length prefix, validated against the remaining
    /// input *before* any allocation. This is the load-bearing check
    /// that makes garbled input safe: a corrupted prefix claiming 2^60
    /// elements is rejected here, not handed to `Vec::with_capacity`.
    pub fn read_len(&mut self) -> Result<usize, DecodeError> {
        let len = self.read_u64()?;
        if len > self.remaining() as u64 {
            return Err(DecodeError::LengthOverflow { len, remaining: self.remaining() });
        }
        Ok(len as usize)
    }

    /// Reads length-prefixed raw bytes.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.read_len()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String, DecodeError> {
        let bytes = self.read_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| DecodeError::Malformed(format!("invalid UTF-8: {e}")))
    }

    /// Reads an `f32` run written by [`Writer::write_f32s`]. The claimed
    /// length is checked against the remaining input before anything is
    /// sized by it, and only the canonical form decodes: nonzero padding
    /// bits, or a raw run whose values would all pack, are
    /// [`DecodeError::Malformed`].
    pub fn read_f32s(&mut self) -> Result<Vec<f32>, DecodeError> {
        let tag = self.read_u8()?;
        let n = self.read_varint()?;
        let n_bytes = match tag {
            1 => n.div_ceil(8),
            0 => n.saturating_mul(4),
            tag => return Err(DecodeError::Malformed(format!("f32 run tag {tag}"))),
        };
        if n_bytes > self.remaining() as u64 {
            return Err(DecodeError::LengthOverflow { len: n, remaining: self.remaining() });
        }
        let (n, bytes) = (n as usize, self.take(n_bytes as usize)?);
        if tag == 1 {
            // Unused bits past `n` in the last byte must be zero, or the
            // same values would have a second valid encoding.
            if n % 8 != 0 && bytes[n / 8] >> (n % 8) != 0 {
                return Err(DecodeError::Malformed("nonzero padding in packed f32 run".into()));
            }
            return Ok((0..n)
                .map(|i| if bytes[i / 8] & (1 << (i % 8)) != 0 { 1.0 } else { 0.0 })
                .collect());
        }
        let out: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|b| f32::from_bits(u32::from_le_bytes(b.try_into().expect("4-byte chunk"))))
            .collect();
        if out.iter().all(|x| matches!(x.to_bits(), 0 | ONE_BITS)) {
            // Includes the empty run: the writer always packs it.
            return Err(DecodeError::Malformed("non-canonical raw f32 run".into()));
        }
        Ok(out)
    }

    /// Reads exactly `n` un-prefixed bytes (magic tags, nested records).
    pub fn read_raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Asserts the input is fully consumed — a complete record has no
    /// slack for trailing garbage to hide in.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes { count: self.remaining() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = Writer::new();
        w.write_u8(7);
        w.write_u32(0xDEAD_BEEF);
        w.write_u64(u64::MAX - 1);
        w.write_f64(-0.125);
        w.write_bool(true);
        w.write_bool(false);
        w.write_bytes(b"raw");
        w.write_str("snowman \u{2603}");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.read_f64().unwrap(), -0.125);
        assert!(r.read_bool().unwrap());
        assert!(!r.read_bool().unwrap());
        assert_eq!(r.read_bytes().unwrap(), b"raw");
        assert_eq!(r.read_str().unwrap(), "snowman \u{2603}");
        r.finish().unwrap();
    }

    #[test]
    fn f64_round_trip_is_bitwise() {
        for v in [0.0, -0.0, f64::NAN, f64::INFINITY, 1.0e-300] {
            let mut w = Writer::new();
            w.write_f64(v);
            let bytes = w.into_bytes();
            let got = Reader::new(&bytes).read_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn varint_round_trips_across_the_full_range() {
        for v in [0u64, 1, 127, 128, 300, 16383, 16384, u64::from(u32::MAX), u64::MAX - 1, u64::MAX]
        {
            let mut w = Writer::new();
            w.write_varint(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.read_varint().unwrap(), v);
            r.finish().unwrap();
            // Minimal length: one byte per 7 bits, never more.
            let expected_len = (64 - v.leading_zeros()).div_ceil(7).max(1) as usize;
            assert_eq!(bytes.len(), expected_len, "value {v}");
        }
    }

    #[test]
    fn padded_or_oversized_varints_are_malformed() {
        // 0x80 0x00 decodes to the same value as 0x00 — reject the pad.
        assert!(matches!(Reader::new(&[0x80, 0x00]).read_varint(), Err(DecodeError::Malformed(_))));
        // Eleven continuation bytes exceed 64 bits.
        let too_long = [0xFFu8; 10];
        assert!(matches!(Reader::new(&too_long).read_varint(), Err(DecodeError::Malformed(_))));
        // The tenth byte may carry only bit 63.
        let mut max = [0x80u8; 10];
        max[9] = 0x02;
        assert!(matches!(Reader::new(&max).read_varint(), Err(DecodeError::Malformed(_))));
        // Truncation mid-varint is EOF, not a panic.
        assert!(matches!(
            Reader::new(&[0x80]).read_varint(),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn varint_length_prefix_is_checked_before_allocation() {
        let mut w = Writer::new();
        w.write_varint(1 << 40);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).read_varint_len(),
            Err(DecodeError::LengthOverflow { len, .. }) if len == 1 << 40
        ));
    }

    #[test]
    fn truncated_input_is_eof_not_panic() {
        let mut w = Writer::new();
        w.write_u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert_eq!(r.read_u64(), Err(DecodeError::UnexpectedEof { wanted: 8, remaining: 5 }));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.write_u64(u64::MAX); // a length prefix claiming ~2^64 bytes
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.read_bytes(),
            Err(DecodeError::LengthOverflow { len: u64::MAX, remaining: 0 })
        );
    }

    #[test]
    fn bad_boolean_byte_is_malformed() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.read_bool(), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = Writer::new();
        w.write_u8(1);
        w.write_u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.read_u8().unwrap();
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes { count: 1 }));
    }

    #[test]
    fn f32_runs_round_trip_bitwise_in_their_one_form() {
        let nan = f32::from_bits(0x7FC0_1234);
        for (v, packed) in [
            (vec![], true),
            (vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0], true),
            (vec![1.0, -0.0], false),
            (vec![nan, 0.5, f32::INFINITY], false),
        ] {
            let mut w = Writer::new();
            w.write_f32s(&v);
            let bytes = w.into_bytes();
            assert_eq!(bytes[0], u8::from(packed), "{v:?}");
            let mut r = Reader::new(&bytes);
            let back = r.read_f32s().unwrap();
            r.finish().unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&v));
        }
    }

    #[test]
    fn non_canonical_or_oversized_f32_runs_are_rejected() {
        // A raw run of values that pack, including the empty run.
        for raw in [&[0u8, 1, 0, 0, 0x80, 0x3F][..], &[0, 0]] {
            assert!(matches!(Reader::new(raw).read_f32s(), Err(DecodeError::Malformed(_))));
        }
        // Three packed values with a stray fourth bit; an unknown tag.
        for bad in [&[1u8, 3, 0b1001][..], &[2, 0]] {
            assert!(matches!(Reader::new(bad).read_f32s(), Err(DecodeError::Malformed(_))));
        }
        // Lengths the input cannot back, in either form, before allocation.
        for tag in [0u8, 1] {
            let mut w = Writer::new();
            w.write_u8(tag);
            w.write_varint(u64::MAX);
            let bytes = w.into_bytes();
            assert!(matches!(
                Reader::new(&bytes).read_f32s(),
                Err(DecodeError::LengthOverflow { len: u64::MAX, .. })
            ));
        }
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut w = Writer::new();
        w.write_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert!(matches!(Reader::new(&bytes).read_str(), Err(DecodeError::Malformed(_))));
    }
}
