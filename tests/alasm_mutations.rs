//! alasm malformed-text mutation corpus: each listing under
//! `tests/alasm_corpus/` is a deliberate single mutation of a valid
//! program, and must produce a **typed** AL5xx diagnostic anchored to the
//! expected line/column span — never a panic, never a silent success.
//!
//! The corpus pins one representative per failure family:
//!
//! | file | mutation | rule |
//! |------|----------|------|
//! | `bad_mnemonic.alasm`    | misspelled data-path mnemonic  | AL501 |
//! | `field_overflow.alasm`  | `out=` exceeds idx_bits width  | AL502 |
//! | `truncated_entry.alasm` | `.entry` missing its `port=`   | AL503 |
//! | `duplicate_label.alasm` | label defined twice            | AL504 |
//!
//! A second tier mutates a canonical machine-generated listing (token
//! deletion, token corruption, truncation) across a seed sweep and
//! asserts the assembler always returns `Ok`/`Err` — no panics anywhere
//! in the parse/assemble path.

use std::panic::{self, AssertUnwindSafe};

use alrescha_asm::{assemble_text, AsmError};

struct Case {
    name: &'static str,
    source: &'static str,
    /// The rule the mutation must trip.
    code: &'static str,
    /// Expected (line, col) anchor of the primary diagnostic.
    at: (usize, usize),
    /// A fragment the message must contain.
    message_has: &'static str,
}

const CORPUS: &[Case] = &[
    Case {
        name: "bad_mnemonic",
        source: include_str!("alasm_corpus/bad_mnemonic.alasm"),
        code: "AL501",
        at: (9, 8),
        message_has: "gemvv",
    },
    Case {
        name: "field_overflow",
        source: include_str!("alasm_corpus/field_overflow.alasm"),
        code: "AL502",
        at: (9, 18),
        message_has: "out",
    },
    Case {
        name: "truncated_entry",
        source: include_str!("alasm_corpus/truncated_entry.alasm"),
        code: "AL503",
        at: (9, 1),
        message_has: "port",
    },
    Case {
        name: "duplicate_label",
        source: include_str!("alasm_corpus/duplicate_label.alasm"),
        code: "AL504",
        at: (14, 1),
        message_has: "b0",
    },
];

fn assemble_err(name: &str, source: &str) -> AsmError {
    match assemble_text(source) {
        Ok(_) => panic!("{name}: mutated listing assembled cleanly"),
        Err(e) => e,
    }
}

#[test]
fn every_corpus_case_yields_its_typed_diagnostic_at_the_expected_span() {
    for case in CORPUS {
        let err = assemble_err(case.name, case.source);
        let primary = &err.diagnostics[0];
        assert_eq!(
            primary.code, case.code,
            "{}: wrong rule ({primary})",
            case.name
        );
        assert_eq!(
            (primary.span.line, primary.span.col),
            case.at,
            "{}: wrong span ({primary})",
            case.name
        );
        assert!(
            primary.message.contains(case.message_has),
            "{}: message {:?} lacks {:?}",
            case.name,
            primary.message,
            case.message_has
        );
        // Severity must come from the shared RULES catalog, not be
        // re-declared ad hoc in the assembler.
        assert_eq!(
            Some(primary.severity),
            alrescha_lint::rule(case.code).map(|r| r.severity),
            "{}: severity drifted from the catalog",
            case.name
        );
    }
}

#[test]
fn corpus_diagnostics_render_spans_in_json() {
    for case in CORPUS {
        let err = assemble_err(case.name, case.source);
        let json = alrescha_asm::render_json(&err.diagnostics);
        assert!(
            json.contains(&format!(r#""code":"{}""#, case.code))
                && json.contains(&format!(r#""line":{}"#, case.at.0))
                && json.contains(&format!(r#""col":{}"#, case.at.1)),
            "{}: JSON {json} lacks the typed span",
            case.name
        );
    }
}

/// Undirected tier: token deletion / corruption / truncation over a
/// canonical listing. Any outcome is fine except a panic.
#[test]
fn random_token_mutations_never_panic() {
    let base = alrescha_asm::genprog::generate(0xFACE).text;
    let tokens: Vec<(usize, usize)> = token_ranges(&base);
    let mut checked = 0usize;
    for seed in 0..192u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (start, end) = tokens[(next() as usize) % tokens.len()];
        let mutated = match next() % 3 {
            0 => format!("{}{}", &base[..start], &base[end..]), // delete token
            1 => format!("{}__{}{}", &base[..start], &base[start..end], &base[end..]),
            _ => base[..start].to_string(), // hard truncation
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = assemble_text(&mutated);
        }));
        assert!(
            outcome.is_ok(),
            "mutation seed {seed} panicked; mutated listing:\n{mutated}"
        );
        checked += 1;
    }
    assert_eq!(checked, 192);
}

/// Byte ranges of whitespace-separated tokens outside comments.
fn token_ranges(text: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        let code = line.split(';').next().unwrap_or("");
        let mut pos = 0;
        for tok in code.split_whitespace() {
            let rel = code[pos..].find(tok).map_or(pos, |i| pos + i);
            out.push((offset + rel, offset + rel + tok.len()));
            pos = rel + tok.len();
        }
        offset += line.len();
    }
    out
}
