//! The one byte codec under all five container formats (ALSV, ALJL,
//! ALCK, ALFR, ALPR): little-endian `put_*` writers, [`seal`] and
//! [`unseal`] for the CRC-32 trailer, and a bounded [`Reader`] whose every
//! read names its field and whose counts are checked against the bytes
//! remaining before anything is allocated. Each format keeps its own
//! magic, version rule, header layout, size cap, check order and public
//! error enum, mapped from [`CodecError`].

use std::fmt;

use crate::crc::crc32;

/// Bytes in the CRC-32 trailer.
pub const TRAILER_LEN: usize = 4;

/// Why a field failed to decode. Exhaustive on purpose: each format maps
/// every variant onto its own public error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes end before the field (`needed` saturates at `usize::MAX`).
    Truncated {
        /// The field being read.
        what: &'static str,
        /// Bytes the field needs.
        needed: usize,
        /// Bytes remaining.
        got: usize,
    },
    /// A `u64` field does not fit in `usize`.
    Overflow {
        /// The field being read.
        what: &'static str,
        /// The raw value.
        value: u64,
    },
    /// A string field is not UTF-8.
    BadUtf8 {
        /// The field being read.
        what: &'static str,
    },
    /// Bytes remain after the last field.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
    /// The CRC-32 trailer does not match the bytes before it.
    CrcMismatch {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum recomputed over the bytes before it.
        computed: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what, needed, got } => {
                write!(f, "truncated {what}: needed {needed} bytes, found {got}")
            }
            CodecError::Overflow { what, value } => write!(f, "{what} {value} overflows usize"),
            CodecError::BadUtf8 { what } => write!(f, "{what} is not UTF-8"),
            CodecError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes"),
            CodecError::CrcMismatch { stored, computed } => write!(
                f,
                "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `v` little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends the raw bits of `v`, little-endian.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `u64` count, then each value's bits.
pub fn put_f64s(out: &mut Vec<u8>, v: &[f64]) {
    out.reserve(8 + 8 * v.len());
    put_u64(out, v.len() as u64);
    for &value in v {
        put_f64(out, value);
    }
}

/// Appends a `u64` byte length, then the UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends the CRC-32 of everything in `out` so far.
pub fn seal(out: &mut Vec<u8>) {
    let crc = crc32(out);
    put_u32(out, crc);
}

/// Checks the CRC-32 trailer of `sealed` and returns the bytes it covers.
pub fn unseal(sealed: &[u8]) -> Result<&[u8], CodecError> {
    let mut rd = Reader::new(sealed);
    let body = rd.take(sealed.len().saturating_sub(TRAILER_LEN), "body")?;
    let stored = rd.u32("CRC trailer")?;
    let computed = crc32(body);
    if stored != computed {
        return Err(CodecError::CrcMismatch { stored, computed });
    }
    Ok(body)
}

/// A bounded cursor over a byte buffer; every read names its field.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `len` bytes.
    #[inline]
    pub fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        let got = self.remaining();
        if got < len {
            return Err(CodecError::Truncated {
                what,
                needed: len,
                got,
            });
        }
        let out = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, what)?);
        Ok(a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// An `f64` from its raw bits.
    #[inline]
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        self.u64(what).map(f64::from_bits)
    }

    /// A `u64` that must fit in `usize` (a dimension or an index).
    #[inline]
    pub fn usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let value = self.u64(what)?;
        usize::try_from(value).map_err(|_| CodecError::Overflow { what, value })
    }

    /// A `u64` count of records of at least `each` bytes, checked with
    /// `checked_mul` against the remaining bytes before any allocation.
    pub fn count(&mut self, what: &'static str, each: usize) -> Result<usize, CodecError> {
        let count = self.u64(what)?;
        let got = self.remaining();
        let needed = usize::try_from(count)
            .ok()
            .and_then(|c| c.checked_mul(each))
            .unwrap_or(usize::MAX);
        if needed > got {
            return Err(CodecError::Truncated { what, needed, got });
        }
        Ok(count as usize)
    }

    /// A `u64`-counted vector of `f64` bit patterns.
    pub fn f64_vec(&mut self, what: &'static str) -> Result<Vec<f64>, CodecError> {
        let len = self.count(what, 8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64(what)?);
        }
        Ok(out)
    }

    /// A `u64`-length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.count(what, 1)?;
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::BadUtf8 { what })
    }

    /// Checks that every byte was read.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_primitive_round_trips() {
        let mut out = Vec::new();
        out.extend_from_slice(&[7, 1, 2]);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        put_f64s(&mut out, &[1.5, f64::MIN_POSITIVE]);
        put_str(&mut out, "tenant-α");
        seal(&mut out);
        let body = unseal(&out).unwrap();
        let mut rd = Reader::new(body);
        assert_eq!(rd.u8("a").unwrap(), 7);
        assert_eq!(rd.array("b").unwrap(), [1, 2]);
        assert_eq!(rd.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(rd.u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(rd.f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(rd.f64_vec("f").unwrap(), vec![1.5, f64::MIN_POSITIVE]);
        assert_eq!(rd.string("g").unwrap(), "tenant-α");
        assert_eq!(rd.finish(), Ok(()));
    }

    #[test]
    fn short_reads_name_the_field() {
        let mut rd = Reader::new(&[1, 2, 3]);
        assert_eq!(
            rd.u32("version"),
            Err(CodecError::Truncated {
                what: "version",
                needed: 4,
                got: 3
            })
        );
        assert_eq!(rd.u8("tag"), Ok(1));
        assert_eq!(rd.finish(), Err(CodecError::TrailingBytes { extra: 2 }));
    }

    #[test]
    fn counts_are_checked_before_allocation() {
        for count in [u64::MAX, u64::MAX / 8 + 1, u64::from(u32::MAX), 2] {
            let mut bytes = count.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 8]);
            let err = Reader::new(&bytes).f64_vec("x").unwrap_err();
            let CodecError::Truncated { what, needed, got } = err else {
                panic!("count {count}: {err:?}");
            };
            assert_eq!((what, got), ("x", 8));
            assert!(needed > got);
        }
        let mut bytes = 1u64.to_le_bytes().to_vec();
        bytes.push(0xFF);
        assert_eq!(
            Reader::new(&bytes).string("tenant"),
            Err(CodecError::BadUtf8 { what: "tenant" })
        );
    }

    #[test]
    fn trailer_rejects_any_flip_and_short_input() {
        let mut sealed = b"payload".to_vec();
        seal(&mut sealed);
        assert_eq!(unseal(&sealed), Ok(&b"payload"[..]));
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert!(matches!(unseal(&bad), Err(CodecError::CrcMismatch { .. })));
        }
        assert!(matches!(
            unseal(&sealed[..3]),
            Err(CodecError::Truncated { needed: 4, .. })
        ));
    }
}
