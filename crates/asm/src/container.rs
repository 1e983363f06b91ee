//! The `.alp` on-disk container for an assembled program triple.
//!
//! `alasm asm` writes one and `alasm disasm` reads one back; the format
//! carries everything the disassembler needs to reproduce the listing:
//!
//! ```text
//! "ALPR" magic \u{b7} version u8 \u{b7} kernel u8 \u{b7} rows/cols/\u{3c9} u64 \u{b7} layout u8
//! entry_count u64 \u{b7} packed program bits (EntryLayout::packed_bytes)
//! diagonal (u64 count + f64 values)
//! blocks (u64 count; each: row u64, col u64, kind u8, reversed u8, \u{3c9}\u{b2} f64)
//! crc32 u32 over everything above
//! ```
//!
//! All integers little-endian; floats as IEEE-754 bit patterns. The
//! CRC-32 (IEEE, reflected) trailer rejects truncation and bit rot with a
//! typed error instead of a garbage program.

use alrescha::convert::KernelType;
use alrescha::program::{EntryLayout, ProgramBinary};
use alrescha_obs::codec::{self, put_f64, put_u64, CodecError, Reader};
use alrescha_sparse::alf::AlfLayout;
use alrescha_sparse::{Alf, AlfBlock, BlockKind};

use crate::assemble::AssembledProgram;

/// Container magic: "ALPR" (ALRESCHA program).
pub const MAGIC: [u8; 4] = *b"ALPR";
/// Current container version.
pub const VERSION: u8 = 1;

/// A container decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The buffer does not start with the `ALPR` magic.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u8),
    /// The buffer ends before a declared field.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// The CRC-32 trailer does not match the payload.
    ChecksumMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// A field holds a value outside its domain.
    BadField {
        /// Which field.
        what: &'static str,
        /// The raw value.
        value: u64,
    },
    /// The reconstructed triple fails geometry validation.
    BadGeometry(String),
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "not an ALPR container (bad magic)"),
            ContainerError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            ContainerError::Truncated { what } => write!(f, "container truncated reading {what}"),
            ContainerError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ContainerError::BadField { what, value } => {
                write!(f, "field {what} holds invalid value {value}")
            }
            ContainerError::BadGeometry(msg) => write!(f, "invalid geometry: {msg}"),
        }
    }
}

impl std::error::Error for ContainerError {}

impl From<CodecError> for ContainerError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { what, .. } => ContainerError::Truncated { what },
            CodecError::Overflow { what, value } => ContainerError::BadField { what, value },
            CodecError::BadUtf8 { what } => ContainerError::BadField { what, value: 0 },
            CodecError::TrailingBytes { extra } => ContainerError::BadField {
                what: "trailing bytes",
                value: extra as u64,
            },
            CodecError::CrcMismatch { stored, computed } => {
                ContainerError::ChecksumMismatch { stored, computed }
            }
        }
    }
}

fn kernel_code(kernel: KernelType) -> u8 {
    match kernel {
        KernelType::SpMv => 0,
        KernelType::SymGs => 1,
        KernelType::Bfs => 2,
        KernelType::Sssp => 3,
        KernelType::PageRank => 4,
        KernelType::ConnectedComponents => 5,
    }
}

fn kernel_from_code(code: u8) -> Option<KernelType> {
    Some(match code {
        0 => KernelType::SpMv,
        1 => KernelType::SymGs,
        2 => KernelType::Bfs,
        3 => KernelType::Sssp,
        4 => KernelType::PageRank,
        5 => KernelType::ConnectedComponents,
        _ => return None,
    })
}

/// Serializes an assembled program into the container format.
pub fn write_container(program: &AssembledProgram) -> Vec<u8> {
    let alf = &program.alf;
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kernel_code(program.kernel));
    put_u64(&mut out, alf.rows() as u64);
    put_u64(&mut out, alf.cols() as u64);
    put_u64(&mut out, alf.omega() as u64);
    out.push(match alf.layout() {
        AlfLayout::Streaming => 0,
        AlfLayout::SymGs => 1,
    });
    put_u64(&mut out, program.binary.entry_count() as u64);
    out.extend_from_slice(program.binary.as_bytes());
    put_u64(&mut out, alf.diagonal().len() as u64);
    for &v in alf.diagonal() {
        put_f64(&mut out, v);
    }
    put_u64(&mut out, alf.blocks().len() as u64);
    for b in alf.blocks() {
        put_u64(&mut out, b.block_row() as u64);
        put_u64(&mut out, b.block_col() as u64);
        out.push(match b.kind() {
            BlockKind::Diagonal => 1,
            BlockKind::OffDiagonal => 0,
        });
        out.push(u8::from(b.reversed()));
        for &v in b.payload() {
            put_f64(&mut out, v);
        }
    }
    codec::seal(&mut out);
    out
}

/// Deserializes a container, verifying the trailer and the geometry.
///
/// # Errors
///
/// [`ContainerError`] on malformed, truncated, or corrupted input.
pub fn read_container(bytes: &[u8]) -> Result<AssembledProgram, ContainerError> {
    if bytes.len() < 4 + MAGIC.len() {
        return Err(ContainerError::Truncated { what: "header" });
    }
    let mut r = Reader::new(codec::unseal(bytes)?);
    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let version = r.u8("version")?;
    if version != VERSION {
        return Err(ContainerError::BadVersion(version));
    }
    let kernel_raw = r.u8("kernel")?;
    let kernel = kernel_from_code(kernel_raw).ok_or(ContainerError::BadField {
        what: "kernel",
        value: u64::from(kernel_raw),
    })?;
    let rows = r.usize("rows")?;
    let cols = r.usize("cols")?;
    let omega = r.usize("omega")?;
    if omega == 0 {
        return Err(ContainerError::BadField {
            what: "omega",
            value: 0,
        });
    }
    let layout = match r.u8("layout")? {
        0 => AlfLayout::Streaming,
        1 => AlfLayout::SymGs,
        other => {
            return Err(ContainerError::BadField {
                what: "layout",
                value: u64::from(other),
            })
        }
    };
    let entry_count = r.usize("entry_count")?;
    let n = rows.max(cols);
    let packed_len = EntryLayout::for_matrix(n, omega)
        .packed_bytes(entry_count)
        .ok_or(ContainerError::BadField {
            what: "entry_count",
            value: entry_count as u64,
        })?;
    let packed = r.take(packed_len, "program bits")?;
    let binary = ProgramBinary::from_raw_parts(kernel, n, omega, entry_count, packed.to_vec());

    let diagonal = r.f64_vec("diag_len")?;
    let slots = omega.checked_mul(omega).ok_or(ContainerError::BadField {
        what: "omega",
        value: omega as u64,
    })?;
    // Each block is row, col, kind, order, then ω² values.
    let block_count = r.count("block_count", slots.saturating_mul(8).saturating_add(18))?;
    let mut blocks = Vec::with_capacity(block_count);
    for _ in 0..block_count {
        let br = r.usize("block row")?;
        let bc = r.usize("block col")?;
        let kind = match r.u8("block kind")? {
            0 => BlockKind::OffDiagonal,
            1 => BlockKind::Diagonal,
            other => {
                return Err(ContainerError::BadField {
                    what: "block kind",
                    value: u64::from(other),
                })
            }
        };
        let reversed = r.u8("block order")? != 0;
        let mut payload = Vec::with_capacity(slots);
        for _ in 0..slots {
            payload.push(r.f64("block payload")?);
        }
        blocks.push(
            AlfBlock::from_streamed_payload(br, bc, kind, payload, omega, reversed)
                .map_err(|e| ContainerError::BadGeometry(e.to_string()))?,
        );
    }
    r.finish()?;

    let alf = Alf::from_raw_parts(rows, cols, omega, layout, blocks, diagonal)
        .map_err(|e| ContainerError::BadGeometry(e.to_string()))?;
    let table = binary
        .decode()
        .map_err(|e| ContainerError::BadGeometry(e.to_string()))?;
    Ok(AssembledProgram {
        kernel,
        binary,
        table,
        alf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble_text;
    use crate::disasm::disassemble;
    use alrescha::convert::convert;
    use alrescha_sparse::gen;

    fn sample() -> AssembledProgram {
        let coo = gen::stencil27(2);
        let (alf, table) = convert(KernelType::SymGs, &coo, 8).unwrap();
        let text = disassemble(KernelType::SymGs, &table, &alf);
        assemble_text(&text).unwrap()
    }

    #[test]
    fn container_round_trips_the_triple() {
        let program = sample();
        let bytes = write_container(&program);
        let back = read_container(&bytes).unwrap();
        assert_eq!(back.kernel, program.kernel);
        assert_eq!(back.binary.as_bytes(), program.binary.as_bytes());
        assert_eq!(back.table.entries(), program.table.entries());
        assert_eq!(back.alf, program.alf);
    }

    #[test]
    fn bit_rot_is_rejected_by_the_trailer() {
        let mut bytes = write_container(&sample());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            read_container(&bytes),
            Err(ContainerError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = write_container(&sample());
        for cut in [3, 16, bytes.len() - 5] {
            assert!(read_container(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// A CRC-valid SpMV container header: rows, cols, ω, Streaming layout,
    /// `entry_count` entries; the caller appends the rest and [`seal`]s it.
    fn forged_header(rows: u64, cols: u64, omega: u64, entry_count: u64) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&[VERSION, kernel_code(KernelType::SpMv)]);
        for v in [rows, cols, omega] {
            put_u64(&mut out, v);
        }
        out.push(0);
        put_u64(&mut out, entry_count);
        out
    }

    /// Appends the CRC trailer, so only payload decoding can reject it.
    fn seal(mut body: Vec<u8>) -> Vec<u8> {
        codec::seal(&mut body);
        body
    }

    #[test]
    fn huge_diagonal_count_is_truncation_not_an_allocation() {
        for diag_len in [u64::MAX / 2, 1 << 37] {
            let mut body = forged_header(4, 4, 2, 0);
            put_u64(&mut body, diag_len);
            put_u64(&mut body, 0);
            assert_eq!(
                read_container(&seal(body)).err(),
                Some(ContainerError::Truncated { what: "diag_len" }),
                "diag_len {diag_len}"
            );
        }
    }

    #[test]
    fn huge_block_count_is_truncation_not_an_allocation() {
        let mut body = forged_header(4, 4, 2, 0);
        put_u64(&mut body, 0);
        put_u64(&mut body, u64::MAX / 2);
        assert_eq!(
            read_container(&seal(body)).err(),
            Some(ContainerError::Truncated {
                what: "block_count"
            })
        );
    }

    #[test]
    fn omega_whose_square_wraps_is_rejected() {
        // ω = 2^33: ω² wraps to 0 in 64 bits, so an empty payload would
        // pass a wrapping size check.
        let omega = 1u64 << 33;
        let mut body = forged_header(omega, omega, omega, 0);
        put_u64(&mut body, 0);
        put_u64(&mut body, 1);
        body.extend_from_slice(&[0; 18]);
        assert_eq!(
            read_container(&seal(body)).err(),
            Some(ContainerError::BadField {
                what: "omega",
                value: omega
            })
        );
        assert!(AlfBlock::from_streamed_payload(
            0,
            0,
            BlockKind::OffDiagonal,
            Vec::new(),
            1 << 33,
            false
        )
        .is_err());
    }

    #[test]
    fn entry_count_whose_bit_size_wraps_is_rejected() {
        // n = 64 at ω = 8 packs 9-bit entries. This count is 9⁻¹ mod 2^64,
        // so 9 · entry_count wraps to 1 bit and a wrapping size check would
        // accept one packed byte for ~10^19 entries.
        let entry_count = 0x8e38_e38e_38e3_8e39u64;
        assert_eq!(entry_count.wrapping_mul(9), 1);
        let mut body = forged_header(64, 64, 8, entry_count);
        body.push(0);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        assert_eq!(
            read_container(&seal(body)).err(),
            Some(ContainerError::BadField {
                what: "entry_count",
                value: entry_count
            })
        );
        let binary =
            ProgramBinary::from_raw_parts(KernelType::SpMv, 64, 8, entry_count as usize, vec![0]);
        assert!(binary.decode().is_err());
    }
}
