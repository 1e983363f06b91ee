//! Disassembler: the (kernel, config-table, ALF) triple → a canonical
//! alasm listing.
//!
//! The output is the *canonical* text form: assembling it reproduces the
//! input binary bit-for-bit, and disassembling that binary again
//! reproduces the same token stream (the two round-trip properties
//! `tests/program_codec_roundtrip.rs` pins). Comments cross-reference the
//! alobs device-timeline span names (`block 0,2 (Gemv)`,
//! `reconfigure → DSymGs`), so a listing can be read side-by-side with a
//! Perfetto trace of the same program.

use std::fmt::Write as _;

use alrescha::convert::{AccessOrder, ConfigEntry, ConfigTable, DataPath, KernelType, OperandPort};
use alrescha_sparse::{Alf, BlockKind};

use crate::parser::{data_path_mnemonic, kernel_mnemonic};
use crate::syntax::format_value;

/// Renders the triple as a canonical listing.
///
/// Config entries store element indices; the text form writes them in
/// block units (`in=2` means element chunk `2·ω`). Both the converter and
/// the assembler only ever produce ω-aligned indices, so the division is
/// exact for every program this workspace can construct.
pub fn disassemble(kernel: KernelType, table: &ConfigTable, alf: &Alf) -> String {
    let omega = alf.omega();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; alasm listing \u{2014} ALRESCHA textual ISA (DESIGN.md \u{a7}15)"
    );
    let _ = writeln!(
        out,
        "; kernel {} over a {}\u{d7}{} matrix at \u{3c9}={omega}: {} block(s), {}-bit entries, {} data-path switch(es)",
        kernel_mnemonic(kernel),
        alf.rows(),
        alf.cols(),
        table.entries().len(),
        table.entry_bits(),
        table.switch_count(),
    );
    out.push_str(".alasm 1\n");
    let _ = writeln!(out, ".kernel {}", kernel_mnemonic(kernel));
    if alf.rows() == alf.cols() {
        let _ = writeln!(out, ".n {}", alf.rows());
    } else {
        let _ = writeln!(out, ".n {} {}", alf.rows(), alf.cols());
    }
    let _ = writeln!(out, ".omega {omega}");
    let _ = writeln!(
        out,
        ".layout {}",
        match alf.layout() {
            alrescha_sparse::alf::AlfLayout::SymGs => "symgs",
            alrescha_sparse::alf::AlfLayout::Streaming => "streaming",
        }
    );
    if !alf.diagonal().is_empty() {
        out.push_str(".diag");
        for v in alf.diagonal() {
            out.push(' ');
            out.push_str(&format_value(*v));
        }
        out.push('\n');
    }

    let mut current_path: Option<DataPath> = None;
    for (block, entry) in alf.blocks().iter().zip(table.entries()) {
        out.push('\n');
        if current_path != Some(entry.data_path) {
            // The engine reconfigures the RCU before this block; alobs
            // records the switch as a timeline point with this name.
            let _ = writeln!(
                out,
                "; alobs span: reconfigure \u{2192} {}",
                path_kind_name(entry.data_path)
            );
            current_path = Some(entry.data_path);
        }
        let _ = writeln!(
            out,
            "; alobs span: block {},{} ({})",
            block.block_row(),
            block.block_col(),
            path_kind_name(entry.data_path)
        );
        let _ = writeln!(
            out,
            ".block {} {} {} {}",
            block.block_row(),
            block.block_col(),
            match block.kind() {
                BlockKind::Diagonal => "diag",
                BlockKind::OffDiagonal => "offdiag",
            },
            if block.reversed() { "r2l" } else { "l2r" },
        );
        out.push_str(&render_entry(entry, omega));
        out.push('\n');
        for i in 0..omega {
            out.push_str(".row");
            for v in block.row(i) {
                out.push(' ');
                out.push_str(&format_value(*v));
            }
            out.push('\n');
        }
    }
    out
}

fn render_entry(entry: &ConfigEntry, omega: usize) -> String {
    debug_assert_eq!(entry.inx_in % omega, 0, "Inx_in must be \u{3c9}-aligned");
    debug_assert!(
        entry.inx_out.is_none_or(|v| v % omega == 0),
        "Inx_out must be \u{3c9}-aligned"
    );
    let out = match entry.inx_out {
        Some(v) => (v / omega).to_string(),
        None => "-".to_string(),
    };
    format!(
        ".entry {} in={} out={} order={} port={}",
        data_path_mnemonic(entry.data_path),
        entry.inx_in / omega,
        out,
        match entry.order {
            AccessOrder::L2R => "l2r",
            AccessOrder::R2L => "r2l",
        },
        match entry.op {
            OperandPort::Port1 => "1",
            OperandPort::Port2 => "2",
        },
    )
}

/// The `DataPathKind` debug name alobs uses in its span names.
fn path_kind_name(path: DataPath) -> &'static str {
    match path {
        DataPath::Gemv => "Gemv",
        DataPath::DSymGs => "DSymGs",
        DataPath::DBfs => "DBfs",
        DataPath::DSssp => "DSssp",
        DataPath::DPr => "DPr",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble_text;
    use crate::syntax::token_stream;
    use alrescha::convert::convert;
    use alrescha_sparse::gen;

    #[test]
    fn converter_output_round_trips_bit_identically() {
        let coo = gen::stencil27(2);
        for (kernel, omega) in [(KernelType::SpMv, 4), (KernelType::SymGs, 8)] {
            let (alf, table) = convert(kernel, &coo, omega).unwrap();
            let binary =
                alrescha::program::ProgramBinary::encode(kernel, &table, coo.rows(), omega);
            let text = disassemble(kernel, &table, &alf);
            let asm = assemble_text(&text)
                .unwrap_or_else(|e| panic!("canonical listing failed to assemble: {e}\n{text}"));
            assert_eq!(asm.binary.as_bytes(), binary.as_bytes(), "{kernel:?} bits");
            assert_eq!(asm.alf, alf, "{kernel:?} payload");
            let text2 = disassemble(kernel, &asm.table, &asm.alf);
            assert_eq!(
                token_stream(&text),
                token_stream(&text2),
                "{kernel:?} tokens"
            );
        }
    }

    #[test]
    fn listing_comments_cross_reference_alobs_span_names() {
        let coo = gen::stencil27(2);
        let (alf, table) = convert(KernelType::SymGs, &coo, 4).unwrap();
        let text = disassemble(KernelType::SymGs, &table, &alf);
        assert!(text.contains("; alobs span: reconfigure \u{2192} Gemv"));
        assert!(text.contains("; alobs span: reconfigure \u{2192} DSymGs"));
        assert!(text.contains("(DSymGs)"));
        assert!(text.contains("; alobs span: block 0,0 "));
    }
}
