//! alasm differential-fuzz tier: seeded programs generated in **text
//! space**, assembled, then executed twice — once on the cycle-accurate
//! engine and once on the straight-line reference interpreter — with
//! bit-identical results required.
//!
//! The generator ([`alrescha_asm::genprog`]) deliberately emits schedules
//! Algorithm 1 would never produce: off-diagonal blocks reordered within
//! their block row, padding-heavy blocks, padded tails, and mixed
//! SpMV/SymGS kernels across seeds — all inside the AL0xx–AL4xx legality
//! envelope, which each program is gated through before execution.
//!
//! Per seed:
//!
//! 1. generate a listing, parse + assemble it (AL5xx-clean);
//! 2. run the full alverify preflight — zero error diagnostics;
//! 3. execute engine and reference interpreter; every output value must
//!    match **bit for bit**;
//! 4. cross-check the engine's cycle report against schedule-derived
//!    invariants (breakdown totals, block counts, buffer peaks).
//!
//! Knobs, in the house alchaos style:
//!
//! * `ALASM_SEED=<n>` runs exactly that seed — the repro knob printed
//!   when a seed fails;
//! * `ALASM_SEEDS=<count>` sets the matrix width (CI uses 256);
//! * unset, a smaller default keeps `cargo test` quick.

use std::panic::{self, AssertUnwindSafe};

use alrescha::convert::KernelType;
use alrescha_asm::genprog::{generate, GeneratedProgram};
use alrescha_asm::interp::{spmv_reference, symgs_reference};
use alrescha_asm::{assemble_text, AssembledProgram};
use alrescha_sim::{Engine, SimConfig};
use alrescha_sparse::BlockKind;

/// Base offset so alasm fuzz seeds are recognizable in logs.
const SEED_BASE: u64 = 0xA5A5_0000;

/// The seed matrix: `ALASM_SEED` pins one seed, `ALASM_SEEDS` widens the
/// matrix (CI passes 256), otherwise `default_count` seeds run.
fn seed_matrix(default_count: u64) -> Vec<u64> {
    if let Ok(pinned) = std::env::var("ALASM_SEED") {
        let seed = pinned
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("ALASM_SEED must be a u64, got {pinned:?}"));
        return vec![seed];
    }
    let count = std::env::var("ALASM_SEEDS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(default_count);
    (0..count).map(|i| SEED_BASE + i).collect()
}

/// Runs `body` for every seed in the matrix; a failing seed prints a
/// copy-pasteable repro line (and the offending listing) before
/// propagating the panic.
fn for_each_seed(test: &str, default_count: u64, body: impl Fn(u64)) {
    let seeds = seed_matrix(default_count);
    for &seed in &seeds {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(seed))) {
            eprintln!(
                "\nalasm seed {seed} failed; reproduce with:\n  \
                 ALASM_SEED={seed} cargo test --release --test alasm_differential {test} -- --nocapture\n"
            );
            eprintln!("--- listing for seed {seed} ---\n{}", generate(seed).text);
            panic::resume_unwind(payload);
        }
    }
}

/// Coverage assertions only make sense over a real matrix, not a pinned
/// single-seed repro run.
fn full_matrix() -> bool {
    std::env::var("ALASM_SEED").is_err()
}

/// Generate → assemble → preflight-gate one seed's program.
fn assembled(seed: u64) -> (GeneratedProgram, AssembledProgram) {
    let p = generate(seed);
    let asm = assemble_text(&p.text)
        .unwrap_or_else(|e| panic!("seed {seed}: generated listing rejected by assembler:\n{e}"));
    let config = SimConfig::paper().with_omega(p.omega);
    let diags = alrescha_lint::verify(&asm.binary, &asm.alf, &config);
    let errors = alrescha_lint::count(&diags, alrescha_lint::Severity::Error);
    assert_eq!(
        errors,
        0,
        "seed {seed}: assembled program fails preflight:\n{}",
        alrescha_lint::render_text(&diags)
    );
    (p, asm)
}

fn assert_bits_equal(what: &str, engine: &[f64], reference: &[f64]) {
    assert_eq!(engine.len(), reference.len(), "{what}: length mismatch");
    for (i, (e, r)) in engine.iter().zip(reference).enumerate() {
        assert!(
            e.to_bits() == r.to_bits(),
            "{what}[{i}]: engine {e:?} ({:#018x}) != reference {r:?} ({:#018x})",
            e.to_bits(),
            r.to_bits()
        );
    }
}

#[test]
fn engine_matches_reference_interpreter_bit_for_bit() {
    for_each_seed(
        "engine_matches_reference_interpreter_bit_for_bit",
        64,
        |seed| {
            let (p, asm) = assembled(seed);
            let mut engine = Engine::new(SimConfig::paper().with_omega(p.omega));
            match p.kernel {
                KernelType::SpMv => {
                    let (y_engine, report) = engine
                        .run_spmv(&asm.alf, &p.x)
                        .unwrap_or_else(|e| panic!("seed {seed}: engine rejected SpMV: {e}"));
                    let y_ref = spmv_reference(&asm.alf, &p.x)
                        .unwrap_or_else(|e| panic!("seed {seed}: reference rejected SpMV: {e}"));
                    assert_bits_equal("y", &y_engine, &y_ref);
                    // Cycle-report consistency against the schedule.
                    assert_eq!(report.cycles, report.breakdown.total(), "seed {seed}");
                    assert_eq!(
                        report.datapaths.gemv_blocks,
                        asm.alf.blocks().len() as u64,
                        "seed {seed}: one GEMV execution per streamed block"
                    );
                    assert_eq!(report.datapaths.dsymgs_blocks, 0, "seed {seed}");
                }
                KernelType::SymGs => {
                    let mut x_engine = p.x.clone();
                    let mut x_ref = p.x.clone();
                    let report = engine
                        .run_symgs(&asm.alf, &p.b, &mut x_engine)
                        .unwrap_or_else(|e| panic!("seed {seed}: engine rejected SymGS: {e}"));
                    symgs_reference(&asm.alf, &p.b, &mut x_ref)
                        .unwrap_or_else(|e| panic!("seed {seed}: reference rejected SymGS: {e}"));
                    assert_bits_equal("x", &x_engine, &x_ref);

                    // Cycle-report consistency: the merged forward+backward
                    // report executes every block twice.
                    assert_eq!(report.cycles, report.breakdown.total(), "seed {seed}");
                    assert_eq!(report.datapaths.iterations, 1, "seed {seed}");
                    let offdiag = asm
                        .alf
                        .blocks()
                        .iter()
                        .filter(|b| b.kind() == BlockKind::OffDiagonal)
                        .count() as u64;
                    let diag_rows = asm
                        .alf
                        .blocks()
                        .iter()
                        .filter(|b| b.kind() == BlockKind::Diagonal)
                        .count() as u64;
                    assert_eq!(
                        report.datapaths.gemv_blocks,
                        2 * offdiag,
                        "seed {seed}: two sweeps over each off-diagonal block"
                    );
                    assert_eq!(
                        report.datapaths.dsymgs_blocks,
                        2 * diag_rows,
                        "seed {seed}: two sweeps over each diagonal block"
                    );
                    // Link-stack peak: the widest block row's GEMV results
                    // (ω entries per off-diagonal block) are all in flight.
                    let mut per_row = vec![0u64; asm.alf.block_rows()];
                    for b in asm.alf.blocks() {
                        if b.kind() == BlockKind::OffDiagonal {
                            per_row[b.block_row()] += p.omega as u64;
                        }
                    }
                    let widest = per_row.iter().copied().max().unwrap_or(0);
                    assert_eq!(
                        report.datapaths.link_stack_peak, widest,
                        "seed {seed}: link-stack peak must equal the widest row's GEMV burst"
                    );
                    // Operand FIFOs fill one slot per valid lane; the first
                    // block row always has ω valid rows.
                    assert_eq!(
                        report.datapaths.operand_fifo_peak,
                        p.omega.min(p.n) as u64,
                        "seed {seed}: operand FIFO peak"
                    );
                }
                other => panic!("seed {seed}: generator emitted unexpected kernel {other:?}"),
            }
        },
    );
}

#[test]
fn seed_matrix_covers_the_advertised_program_space() {
    if !full_matrix() {
        return;
    }
    let mut kernels = std::collections::HashSet::new();
    let mut omegas = std::collections::HashSet::new();
    let mut padded_tail = false;
    let mut shuffled_row = false;
    for &seed in &seed_matrix(64) {
        let (p, asm) = assembled(seed);
        kernels.insert(p.kernel);
        omegas.insert(p.omega);
        padded_tail |= p.n % p.omega != 0;
        // A block row whose off-diagonal columns are out of ascending
        // order is a schedule Algorithm 1 cannot emit.
        let mut last: Option<(usize, usize)> = None;
        for b in asm.alf.blocks() {
            if b.kind() == BlockKind::OffDiagonal {
                if let Some((lr, lc)) = last {
                    if lr == b.block_row() && b.block_col() < lc {
                        shuffled_row = true;
                    }
                }
                last = Some((b.block_row(), b.block_col()));
            } else {
                last = None;
            }
        }
    }
    assert_eq!(kernels.len(), 2, "matrix must mix SpMV and SymGS");
    assert!(omegas.len() >= 2, "matrix must vary ω, saw {omegas:?}");
    assert!(padded_tail, "matrix must include a padded tail");
    assert!(
        shuffled_row,
        "matrix must include a converter-unreachable shuffled schedule"
    );
}

#[test]
fn canonical_listing_round_trips_for_every_seed() {
    for_each_seed("canonical_listing_round_trips_for_every_seed", 32, |seed| {
        use alrescha_asm::syntax::token_stream;
        let (_, asm) = assembled(seed);
        let text = alrescha_asm::disassemble(asm.kernel, &asm.table, &asm.alf);
        let again = assemble_text(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: canonical listing rejected:\n{e}"));
        assert_eq!(
            again.binary.as_bytes(),
            asm.binary.as_bytes(),
            "seed {seed}: program bits diverged across text round-trip"
        );
        assert_eq!(again.alf, asm.alf, "seed {seed}: payload diverged");
        let text2 = alrescha_asm::disassemble(again.kernel, &again.table, &again.alf);
        assert_eq!(
            token_stream(&text),
            token_stream(&text2),
            "seed {seed}: token stream diverged"
        );
    });
}
