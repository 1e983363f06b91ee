//! Seeded generation of valid alasm programs in **text space**.
//!
//! The generator builds the triple directly — never through Algorithm 1 —
//! so it reaches schedules the converter would never emit while staying
//! inside the AL0xx–AL4xx legality envelope:
//!
//! * off-diagonal blocks *shuffled* within their block row (the converter
//!   always streams them in ascending column order),
//! * padding-heavy blocks (a single non-zero in an ω² payload),
//! * padded tails (`n` not a multiple of ω),
//! * mixed SpMV/SymGS kernels across seeds.
//!
//! Determinism: the same seed always yields the same program and
//! operands, which is what makes `ALASM_SEED=<n>` repro lines from the
//! differential fuzzer replayable.

use alrescha::convert::{AccessOrder, ConfigEntry, ConfigTable, DataPath, KernelType, OperandPort};
use alrescha_sparse::alf::{config_entry_bits, AlfLayout};
use alrescha_sparse::{Alf, AlfBlock, BlockKind};

use crate::disasm::disassemble;

/// SplitMix64 — the seeding PRNG of the house chaos harness, backed by the
/// workspace-shared stream in [`alrescha::util`]; kept as a local type so
/// generator-specific draws (`value`, `diag_value`, `shuffle`) stay here.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    inner: alrescha::util::SplitMix64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 {
            inner: alrescha::util::SplitMix64::new(seed),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        alrescha::util::unit_f64(self.next_u64())
    }

    /// A payload value in `[-2, 2]`, quantized so listings stay short.
    fn value(&mut self) -> f64 {
        let v = self.unit().mul_add(4.0, -2.0);
        (v * 64.0).round() / 64.0
    }

    /// A diagonal value with `1 ≤ |v| ≤ 3` (keeps the recurrence tame).
    fn diag_value(&mut self) -> f64 {
        let mag = self.unit().mul_add(2.0, 1.0);
        let v = if self.next_u64() & 1 == 0 { mag } else { -mag };
        (v * 64.0).round() / 64.0
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated program plus the operands a differential run needs.
#[derive(Debug, Clone)]
pub struct GeneratedProgram {
    /// The seed that produced it.
    pub seed: u64,
    /// The kernel.
    pub kernel: KernelType,
    /// Matrix dimension (square).
    pub n: usize,
    /// Block width ω.
    pub omega: usize,
    /// The canonical alasm listing.
    pub text: String,
    /// SpMV operand / SymGS initial iterate (length `n`).
    pub x: Vec<f64>,
    /// SymGS right-hand side (length `n`; unused by SpMV).
    pub b: Vec<f64>,
}

/// Generates the program for `seed`. Every output parses, assembles, and
/// passes the full alverify preflight with zero errors.
pub fn generate(seed: u64) -> GeneratedProgram {
    let mut rng = SplitMix64::new(seed.wrapping_add(0x5eed_a15a_5eed_a15a));
    let kernel = if rng.next_u64() & 1 == 0 {
        KernelType::SpMv
    } else {
        KernelType::SymGs
    };
    let omega = [2, 4, 8][rng.below(3)];
    let block_rows = 2 + rng.below(4); // 2..=5
                                       // Padded tail: chop up to ω−1 rows off the last block row (never all
                                       // of it) so `n` is frequently not a multiple of ω.
    let chop = rng.below(omega);
    let n = block_rows * omega - chop;

    let (blocks, entries) = match kernel {
        KernelType::SymGs => symgs_schedule(&mut rng, block_rows, omega),
        _ => streaming_schedule(&mut rng, kernel, block_rows, omega),
    };
    let layout = match kernel {
        KernelType::SymGs => AlfLayout::SymGs,
        _ => AlfLayout::Streaming,
    };
    let diagonal = if layout == AlfLayout::SymGs {
        (0..n).map(|_| rng.diag_value()).collect()
    } else {
        Vec::new()
    };
    #[allow(clippy::expect_used)]
    let alf = Alf::from_raw_parts(n, n, omega, layout, blocks, diagonal)
        .expect("generated geometry is valid by construction");
    let table = ConfigTable::from_entries(entries, config_entry_bits(n, omega));
    let text = disassemble(kernel, &table, &alf);
    let x = (0..n).map(|_| rng.value()).collect();
    let b = (0..n).map(|_| rng.value()).collect();
    GeneratedProgram {
        seed,
        kernel,
        n,
        omega,
        text,
        x,
        b,
    }
}

/// A payload with `fill` non-zeros scattered over the ω² slots (≥ 1, so
/// padding-heavy blocks never trip the AL003 all-zero warning).
fn sparse_payload(rng: &mut SplitMix64, omega: usize, fill: usize) -> Vec<f64> {
    let mut payload = vec![0.0; omega * omega];
    let fill = fill.clamp(1, omega * omega);
    let mut placed = 0;
    while placed < fill {
        let slot = rng.below(omega * omega);
        if payload[slot] == 0.0 {
            let v = rng.value();
            payload[slot] = if v == 0.0 { 0.5 } else { v };
            placed += 1;
        }
    }
    payload
}

/// Reverses each payload row (logical → streamed under `r2l`).
fn reverse_rows(payload: &mut [f64], omega: usize) {
    for row in payload.chunks_mut(omega) {
        row.reverse();
    }
}

fn build_block(
    br: usize,
    bc: usize,
    kind: BlockKind,
    payload: Vec<f64>,
    omega: usize,
    reversed: bool,
) -> AlfBlock {
    #[allow(clippy::expect_used)]
    AlfBlock::from_streamed_payload(br, bc, kind, payload, omega, reversed)
        .expect("generated payload is ω² by construction")
}

/// SymGS: per block row, shuffled off-diagonal GEMVs then the diagonal
/// D-SymGS block — the full AL001/AL201-legal non-canonical space.
fn symgs_schedule(
    rng: &mut SplitMix64,
    block_rows: usize,
    omega: usize,
) -> (Vec<AlfBlock>, Vec<ConfigEntry>) {
    let mut blocks = Vec::new();
    let mut entries = Vec::new();
    for br in 0..block_rows {
        let mut cols: Vec<usize> = (0..block_rows).filter(|&bc| bc != br).collect();
        rng.shuffle(&mut cols);
        cols.truncate(rng.below(cols.len() + 1));
        // The converter would sort these; the generator leaves the
        // shuffled order — legal (AL001 only pins rows and the diagonal).
        for bc in cols {
            let reversed = bc > br;
            // Mix dense-ish and padding-heavy blocks.
            let fill = if rng.next_u64().trailing_zeros() >= 2 {
                1
            } else {
                1 + rng.below(omega * omega)
            };
            let mut payload = sparse_payload(rng, omega, fill);
            if reversed {
                reverse_rows(&mut payload, omega);
            }
            blocks.push(build_block(
                br,
                bc,
                BlockKind::OffDiagonal,
                payload,
                omega,
                reversed,
            ));
            entries.push(ConfigEntry {
                data_path: DataPath::Gemv,
                inx_in: bc * omega,
                inx_out: None,
                order: if reversed {
                    AccessOrder::R2L
                } else {
                    AccessOrder::L2R
                },
                op: if br > bc {
                    OperandPort::Port2
                } else {
                    OperandPort::Port1
                },
            });
        }
        // Diagonal block: extracted diagonal slots are zero; streamed r2l.
        let mut payload = vec![0.0; omega * omega];
        for i in 0..omega {
            for j in 0..omega {
                if i != j && rng.next_u64().trailing_zeros() >= 2 {
                    payload[i * omega + j] = rng.value();
                }
            }
        }
        reverse_rows(&mut payload, omega);
        blocks.push(build_block(
            br,
            br,
            BlockKind::Diagonal,
            payload,
            omega,
            true,
        ));
        entries.push(ConfigEntry {
            data_path: DataPath::DSymGs,
            inx_in: br * omega,
            inx_out: Some((br + 1) * omega),
            order: AccessOrder::R2L,
            op: OperandPort::Port2,
        });
    }
    (blocks, entries)
}

/// Streaming kernels: ascending block rows, shuffled columns within each
/// row, every block an l2r off-diagonal-kind GEMV.
fn streaming_schedule(
    rng: &mut SplitMix64,
    kernel: KernelType,
    block_rows: usize,
    omega: usize,
) -> (Vec<AlfBlock>, Vec<ConfigEntry>) {
    let mut blocks = Vec::new();
    let mut entries = Vec::new();
    for br in 0..block_rows {
        let mut cols: Vec<usize> = (0..block_rows).collect();
        rng.shuffle(&mut cols);
        cols.truncate(1 + rng.below(cols.len().min(4)));
        for bc in cols {
            let fill = if rng.next_u64().trailing_zeros() >= 2 {
                1
            } else {
                1 + rng.below(omega * omega)
            };
            let payload = sparse_payload(rng, omega, fill);
            blocks.push(build_block(
                br,
                bc,
                BlockKind::OffDiagonal,
                payload,
                omega,
                false,
            ));
            entries.push(ConfigEntry {
                data_path: kernel.data_path(),
                inx_in: br * omega,
                inx_out: Some(bc * omega),
                order: AccessOrder::L2R,
                op: OperandPort::Port1,
            });
        }
    }
    (blocks, entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble_text;
    use alrescha_sim::SimConfig;

    #[test]
    fn generated_programs_assemble_and_pass_preflight() {
        let mut kernels_seen = std::collections::HashSet::new();
        let mut padded_seen = false;
        for seed in 0..64 {
            let p = generate(seed);
            kernels_seen.insert(p.kernel);
            padded_seen |= !p.n.is_multiple_of(p.omega);
            let asm = assemble_text(&p.text)
                .unwrap_or_else(|e| panic!("seed {seed} failed to assemble: {e}\n{}", p.text));
            let config = SimConfig::paper().with_omega(p.omega);
            let diags = alrescha_lint::verify(&asm.binary, &asm.alf, &config);
            let errors: Vec<_> = diags
                .iter()
                .filter(|d| d.severity == alrescha_lint::Severity::Error)
                .collect();
            assert!(
                errors.is_empty(),
                "seed {seed} fails preflight: {errors:?}\n{}",
                p.text
            );
        }
        assert_eq!(kernels_seen.len(), 2, "seeds 0..64 should mix kernels");
        assert!(padded_seen, "seeds 0..64 should include a padded tail");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(42);
        let b = generate(42);
        assert_eq!(a.text, b.text);
        assert_eq!(a.x, b.x);
        assert_eq!(a.b, b.b);
        assert_ne!(generate(43).text, a.text);
    }

    #[test]
    fn generator_reaches_non_canonical_schedules() {
        // At least one seed must emit off-diagonal columns out of
        // ascending order — a schedule Algorithm 1 never produces.
        let non_canonical = (0..64).any(|seed| {
            let p = generate(seed);
            let asm = assemble_text(&p.text).unwrap();
            let mut last: Option<(usize, usize)> = None;
            let mut shuffled = false;
            for blk in asm.alf.blocks() {
                if blk.kind() == BlockKind::OffDiagonal {
                    if let Some((lr, lc)) = last {
                        if lr == blk.block_row() && blk.block_col() < lc {
                            shuffled = true;
                        }
                    }
                    last = Some((blk.block_row(), blk.block_col()));
                } else {
                    last = None;
                }
            }
            shuffled
        });
        assert!(non_canonical, "no shuffled schedule in seeds 0..64");
    }
}
