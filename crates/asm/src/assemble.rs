//! Assembler: [`Listing`] AST → the bit-packed program binary, the
//! config table, and the ALF payload, all through the same
//! [`EntryLayout`] tables the codec and the verifier use.
//!
//! The assembler enforces *encodability*, not schedule legality: a field
//! that cannot survive the bit-packed round trip is rejected here
//! (AL502 overflow, AL505 derived-field disagreement), while schedule
//! invariants (AL0xx–AL4xx) stay with `alverify`, which the `alasm` CLI
//! runs on every assembled program by default.
//!
//! Two fields of the config entry are *derived* on decode rather than
//! stored (§4.1's `2·⌈log₂(n/ω)⌉+3`-bit entry has no room for them):
//! under the SymGS kernel a `gemv` entry's `out` is always the link
//! stack (`-`), and a `dsymgs` entry's `out` is always `in+1`. The
//! assembler requires the text to say exactly that — anything else could
//! not round-trip — and width-checks only the fields that are stored.

use alrescha::convert::{ConfigEntry, ConfigTable, DataPath, KernelType};
use alrescha::program::{EntryLayout, ProgramBinary};
use alrescha_sparse::alf::{config_entry_bits, AlfLayout};
use alrescha_sparse::{Alf, AlfBlock};

use crate::parser::{parse, Listing};
use crate::{AsmDiagnostic, AsmError, Span};

/// The assembled triple: everything downstream tooling needs.
#[derive(Debug, Clone)]
pub struct AssembledProgram {
    /// The kernel the program targets.
    pub kernel: KernelType,
    /// The bit-packed program binary.
    pub binary: ProgramBinary,
    /// The decoded configuration table (one entry per block).
    pub table: ConfigTable,
    /// The locally-dense payload.
    pub alf: Alf,
}

/// Parses and assembles a listing in one step.
///
/// # Errors
///
/// [`AsmError`] with AL5xx findings from either phase.
pub fn assemble_text(source: &str) -> Result<AssembledProgram, AsmError> {
    assemble(&parse(source)?)
}

/// Assembles a parsed listing.
///
/// # Errors
///
/// [`AsmError`] with AL502/AL503/AL505 findings anchored to the
/// offending statements.
#[allow(clippy::too_many_lines)]
pub fn assemble(listing: &Listing) -> Result<AssembledProgram, AsmError> {
    let mut diags: Vec<AsmDiagnostic> = Vec::new();
    let header = Span { line: 1, col: 1 };

    if listing.omega == 0 {
        return Err(AsmError::single(AsmDiagnostic::of(
            "AL505",
            header,
            "block width ω must be at least 1".to_string(),
        )));
    }
    let expected_layout = match listing.kernel {
        KernelType::SymGs => AlfLayout::SymGs,
        _ => AlfLayout::Streaming,
    };
    if listing.layout != expected_layout {
        diags.push(AsmDiagnostic::of(
            "AL505",
            header,
            format!(
                "kernel `{:?}` requires `.layout {}`, listing declares `.layout {}`",
                listing.kernel,
                layout_name(expected_layout),
                layout_name(listing.layout),
            ),
        ));
    }
    let diag_len = listing.diag.len();
    match listing.layout {
        AlfLayout::SymGs => {
            let want = listing.rows.min(listing.cols);
            if diag_len != want {
                diags.push(AsmDiagnostic::of(
                    "AL503",
                    listing.diag_span.unwrap_or(header),
                    format!("`.diag` carries {diag_len} values, geometry needs {want}"),
                ));
            }
        }
        AlfLayout::Streaming => {
            if let Some(span) = listing.diag_span {
                diags.push(AsmDiagnostic::of(
                    "AL505",
                    span,
                    "`.diag` is only meaningful under `.layout symgs`".to_string(),
                ));
            }
        }
    }

    let omega = listing.omega;
    let n = listing.rows.max(listing.cols);
    let layout = EntryLayout::for_matrix(n, omega);
    debug_assert_eq!(layout.entry_bits(), config_entry_bits(n, omega));
    // The index fields store *block* indices, `idx_bits` wide.
    let idx_limit = if layout.idx_bits() >= usize::BITS as usize {
        usize::MAX
    } else {
        1usize << layout.idx_bits()
    };
    let block_rows = listing.rows.div_ceil(omega);
    let block_cols = listing.cols.div_ceil(omega);

    let mut entries: Vec<ConfigEntry> = Vec::with_capacity(listing.blocks.len());
    let mut blocks: Vec<AlfBlock> = Vec::with_capacity(listing.blocks.len());
    for stmt in &listing.blocks {
        if stmt.block_row >= block_rows || stmt.block_col >= block_cols {
            diags.push(AsmDiagnostic::of(
                "AL505",
                stmt.span,
                format!(
                    "block {},{} lies outside the {block_rows}×{block_cols} block grid of a \
                     {}×{} matrix at ω={omega}",
                    stmt.block_row, stmt.block_col, listing.rows, listing.cols
                ),
            ));
            continue;
        }
        if stmt.payload_rows.len() != omega || stmt.payload_rows.iter().any(|r| r.len() != omega) {
            diags.push(AsmDiagnostic::of(
                "AL503",
                stmt.span,
                format!(
                    "block {},{} needs {omega} `.row` lines of {omega} values each, found {}",
                    stmt.block_row,
                    stmt.block_col,
                    stmt.payload_rows.len()
                ),
            ));
            continue;
        }

        let e = &stmt.entry;
        // The 1-bit data-path field only distinguishes D-SymGS from the
        // kernel's own path; any other mnemonic cannot survive the
        // bit-packed round trip.
        if e.data_path != DataPath::DSymGs && e.data_path != listing.kernel.data_path() {
            diags.push(AsmDiagnostic::of(
                "AL505",
                e.span,
                format!(
                    "data path `{:?}` is not encodable under kernel `{:?}`: the 1-bit \
                     field only distinguishes dsymgs from the kernel's own path ({:?})",
                    e.data_path,
                    listing.kernel,
                    listing.kernel.data_path()
                ),
            ));
            continue;
        }
        // Width-check the stored fields against the shared layout tables.
        if e.in_block >= idx_limit {
            diags.push(AsmDiagnostic::of(
                "AL502",
                e.in_span,
                format!(
                    "in={} overflows the {}-bit Inx_in field (block-index limit {idx_limit})",
                    e.in_block,
                    layout.idx_bits()
                ),
            ));
            continue;
        }
        let inx_in = e.in_block * omega;
        // Constrain the derived fields; width-check the stored ones.
        let inx_out = match (listing.kernel, e.data_path) {
            (KernelType::SymGs, DataPath::Gemv) => {
                if let Some(out) = e.out_block {
                    diags.push(AsmDiagnostic::of(
                        "AL505",
                        e.out_span,
                        format!(
                            "out={out} cannot be stored: under the symgs kernel a gemv \
                             entry always targets the link stack — write `out=-`"
                        ),
                    ));
                    continue;
                }
                None
            }
            (KernelType::SymGs, DataPath::DSymGs) => {
                if e.out_block != Some(e.in_block + 1) {
                    diags.push(AsmDiagnostic::of(
                        "AL505",
                        e.out_span,
                        format!(
                            "dsymgs `out` is derived as in+1 on decode; in={} requires \
                             out={}, found {}",
                            e.in_block,
                            e.in_block + 1,
                            render_out(e.out_block)
                        ),
                    ));
                    continue;
                }
                Some((e.in_block + 1) * omega)
            }
            _ => {
                let Some(out) = e.out_block else {
                    diags.push(AsmDiagnostic::of(
                        "AL505",
                        e.out_span,
                        format!(
                            "`out=-` is only encodable under the symgs kernel; \
                             `{:?}` entries store an output index",
                            listing.kernel
                        ),
                    ));
                    continue;
                };
                if out >= idx_limit {
                    diags.push(AsmDiagnostic::of(
                        "AL502",
                        e.out_span,
                        format!(
                            "out={out} overflows the {}-bit Inx_out field \
                             (block-index limit {idx_limit})",
                            layout.idx_bits()
                        ),
                    ));
                    continue;
                }
                Some(out * omega)
            }
        };
        entries.push(ConfigEntry {
            data_path: e.data_path,
            inx_in,
            inx_out,
            order: e.order,
            op: e.port,
        });
        let payload: Vec<f64> = stmt.payload_rows.iter().flatten().copied().collect();
        match AlfBlock::from_streamed_payload(
            stmt.block_row,
            stmt.block_col,
            stmt.kind,
            payload,
            omega,
            stmt.reversed,
        ) {
            Ok(b) => blocks.push(b),
            Err(e) => diags.push(AsmDiagnostic::of(
                "AL503",
                stmt.span,
                format!("block payload rejected: {e}"),
            )),
        }
    }

    if !diags.is_empty() {
        diags.sort_by_key(|d| (d.span.line, d.span.col));
        return Err(AsmError { diagnostics: diags });
    }

    let alf = Alf::from_raw_parts(
        listing.rows,
        listing.cols,
        omega,
        listing.layout,
        blocks,
        listing.diag.clone(),
    )
    .map_err(|e| {
        AsmError::single(AsmDiagnostic::of(
            "AL505",
            header,
            format!("listing geometry rejected: {e}"),
        ))
    })?;
    let table = ConfigTable::from_entries(entries, layout.entry_bits());
    let binary = ProgramBinary::encode(listing.kernel, &table, n, omega);
    Ok(AssembledProgram {
        kernel: listing.kernel,
        binary,
        table,
        alf,
    })
}

fn render_out(out: Option<usize>) -> String {
    match out {
        Some(v) => format!("out={v}"),
        None => "out=-".to_string(),
    }
}

fn layout_name(layout: AlfLayout) -> &'static str {
    match layout {
        AlfLayout::SymGs => "symgs",
        AlfLayout::Streaming => "streaming",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha::convert::{AccessOrder, OperandPort};

    const SPMV: &str = "\
.alasm 1
.kernel spmv
.n 4
.omega 2
.layout streaming

.block 0 0 offdiag l2r
.entry gemv in=0 out=0 order=l2r port=1
.row 1.0 0.0
.row 0.0 2.0

.block 0 1 offdiag l2r
.entry gemv in=0 out=1 order=l2r port=1
.row 3.0 0.0
.row 0.0 0.0
";

    #[test]
    fn assembles_and_encodes_through_the_shared_layout() {
        let asm = assemble_text(SPMV).unwrap();
        assert_eq!(asm.kernel, KernelType::SpMv);
        assert_eq!(asm.table.entries().len(), 2);
        assert_eq!(asm.table.entry_bits(), config_entry_bits(4, 2));
        assert_eq!(asm.binary.entry_count(), 2);
        let decoded = asm.binary.decode().unwrap();
        assert_eq!(decoded.entries(), asm.table.entries());
        assert_eq!(asm.alf.blocks().len(), 2);
        assert_eq!(asm.table.entries()[1].inx_out, Some(2));
        assert_eq!(asm.table.entries()[0].order, AccessOrder::L2R);
        assert_eq!(asm.table.entries()[0].op, OperandPort::Port1);
    }

    #[test]
    fn field_overflow_is_al502_at_the_field_token() {
        let bad = SPMV.replace("in=0 out=1", "in=0 out=9");
        let err = assemble_text(&bad).unwrap_err();
        let d = &err.diagnostics[0];
        assert_eq!(d.code, "AL502");
        assert_eq!(d.span.line, 13);
        assert!(d.message.contains("overflows"));
    }

    #[test]
    fn dsymgs_out_must_be_the_derived_value() {
        let src = "\
.alasm 1
.kernel symgs
.n 2
.omega 2
.layout symgs
.diag 4.0 4.0

.block 0 0 diag r2l
.entry dsymgs in=0 out=0 order=r2l port=2
.row 4.0 0.0
.row 1.0 4.0
";
        let err = assemble_text(src).unwrap_err();
        assert_eq!(err.diagnostics[0].code, "AL505");
        assert!(err.diagnostics[0].message.contains("out=1"));
        let ok = src.replace("out=0", "out=1");
        let asm = assemble_text(&ok).unwrap();
        assert_eq!(asm.table.entries()[0].inx_out, Some(2));
    }

    #[test]
    fn out_of_grid_block_is_al505() {
        let bad = SPMV.replace(".block 0 1", ".block 0 7");
        let err = assemble_text(&bad).unwrap_err();
        assert_eq!(err.diagnostics[0].code, "AL505");
        assert!(err.diagnostics[0].message.contains("block grid"));
    }

    #[test]
    fn wrong_row_arity_is_al503() {
        let bad = SPMV.replace(".row 3.0 0.0\n.row 0.0 0.0\n", ".row 3.0 0.0\n");
        let err = assemble_text(&bad).unwrap_err();
        assert_eq!(err.diagnostics[0].code, "AL503");
    }
}
