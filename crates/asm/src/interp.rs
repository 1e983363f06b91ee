//! Straight-line reference interpreter over the decoded program triple.
//!
//! The cycle-accurate engine interleaves arithmetic with memory, cache,
//! fault-injection, and trace machinery; this module re-states just the
//! *value* semantics in a few dozen lines, preserving every
//! floating-point association the data paths pin down:
//!
//! * GEMV dots reduce left-to-right over logical columns
//!   ([`alrescha_sim::fcu`]'s `mac_row`).
//! * Link-stack accumulation is LIFO, so a block row's partial sums add
//!   its GEMV contributions in *reverse* stream order.
//! * The forward D-SymGS recurrence multiplies the streamed (reversed)
//!   diagonal-block row, rotated by the step index, against the Figure 10
//!   shift-register lanes; the backward sweep reads logical columns
//!   against the addressable cache.
//!
//! On fault-free runs the engine and this interpreter agree **bit for
//! bit** — the oracle relation `tests/alasm_differential.rs` fuzzes.

use alrescha_sim::shift::ShiftRegister;
use alrescha_sparse::alf::AlfLayout;
use alrescha_sparse::{Alf, AlfBlock, BlockKind};

/// A reference-execution failure (mirrors the engine's fault-free errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Operand length does not match the matrix.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Provided length.
        found: usize,
    },
    /// Layout does not fit the kernel.
    LayoutMismatch {
        /// Required layout.
        expected: &'static str,
    },
    /// A zero diagonal value makes the SymGS recurrence undefined.
    MissingDiagonal {
        /// The offending row.
        row: usize,
    },
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::DimensionMismatch { expected, found } => {
                write!(f, "operand length {found}, expected {expected}")
            }
            InterpError::LayoutMismatch { expected } => {
                write!(f, "matrix layout must be {expected}")
            }
            InterpError::MissingDiagonal { row } => {
                write!(f, "zero diagonal at row {row}")
            }
        }
    }
}

impl std::error::Error for InterpError {}

fn operand_slice(x: &[f64], start: usize, omega: usize) -> Vec<f64> {
    (0..omega)
        .map(|k| x.get(start + k).copied().unwrap_or(0.0))
        .collect()
}

/// Left-to-right dot product — the FCU's reduction association.
fn mac_row(row: &[f64], operand: &[f64]) -> f64 {
    row.iter().zip(operand).map(|(a, b)| a * b).sum()
}

/// The ω GEMV dots of one block against an operand chunk, logical order.
fn gemv_block(block: &AlfBlock, operand: &[f64], omega: usize) -> Vec<f64> {
    (0..omega)
        .map(|i| {
            let logical: Vec<f64> = (0..omega).map(|j| block.get(i, j)).collect();
            mac_row(&logical, operand)
        })
        .collect()
}

/// Reference SpMV: `y = A·x` over a streaming-layout ALF.
///
/// # Errors
///
/// [`InterpError`] on layout or operand-shape mismatches.
pub fn spmv_reference(a: &Alf, x: &[f64]) -> Result<Vec<f64>, InterpError> {
    if a.layout() != AlfLayout::Streaming {
        return Err(InterpError::LayoutMismatch {
            expected: "streaming",
        });
    }
    if x.len() != a.cols() {
        return Err(InterpError::DimensionMismatch {
            expected: a.cols(),
            found: x.len(),
        });
    }
    let omega = a.omega();
    let mut y = vec![0.0; a.rows()];
    for block in a.blocks() {
        let row_base = block.block_row() * omega;
        let operand = operand_slice(x, block.block_col() * omega, omega);
        for (i, dot) in gemv_block(block, &operand, omega).into_iter().enumerate() {
            if row_base + i < y.len() {
                y[row_base + i] += dot;
            }
        }
    }
    Ok(y)
}

/// Reference SymGS: one forward then one backward Gauss-Seidel sweep,
/// updating `x` in place.
///
/// # Errors
///
/// [`InterpError`] on shape mismatches or a zero diagonal.
pub fn symgs_reference(a: &Alf, b: &[f64], x: &mut [f64]) -> Result<(), InterpError> {
    sweep_reference(a, b, x, false)?;
    sweep_reference(a, b, x, true)
}

fn sweep_reference(a: &Alf, b: &[f64], x: &mut [f64], backward: bool) -> Result<(), InterpError> {
    if a.layout() != AlfLayout::SymGs {
        return Err(InterpError::LayoutMismatch { expected: "symgs" });
    }
    if b.len() != a.rows() {
        return Err(InterpError::DimensionMismatch {
            expected: a.rows(),
            found: b.len(),
        });
    }
    if x.len() != a.cols() {
        return Err(InterpError::DimensionMismatch {
            expected: a.cols(),
            found: x.len(),
        });
    }
    let omega = a.omega();
    let block_rows = a.block_rows();
    let mut per_row: Vec<Vec<&AlfBlock>> = vec![Vec::new(); block_rows];
    for block in a.blocks() {
        per_row[block.block_row()].push(block);
    }

    let mut order: Vec<usize> = (0..block_rows).collect();
    if backward {
        order.reverse();
    }
    for &br in &order {
        let row_base = br * omega;
        let mut diag_block: Option<&AlfBlock> = None;
        let mut dots_per_block: Vec<Vec<f64>> = Vec::new();
        for block in &per_row[br] {
            if block.kind() == BlockKind::Diagonal {
                diag_block = Some(block);
                continue;
            }
            let operand = operand_slice(x, block.block_col() * omega, omega);
            dots_per_block.push(gemv_block(block, &operand, omega));
        }
        // LIFO link-stack pops: each lane accumulates its per-block dots
        // in reverse stream order.
        let mut partial = vec![0.0; omega];
        for dots in dots_per_block.iter().rev() {
            for (lane, dot) in dots.iter().enumerate() {
                partial[lane] += dot;
            }
        }

        let mut shift_reg = (!backward).then(|| {
            let initial: Vec<f64> = (0..omega)
                .map(|k| x.get(row_base + omega - 1 - k).copied().unwrap_or(0.0))
                .collect();
            ShiftRegister::load(&initial)
        });
        let rows_iter: Box<dyn Iterator<Item = usize>> = if backward {
            Box::new((0..omega).rev())
        } else {
            Box::new(0..omega)
        };
        for i in rows_iter {
            let g = row_base + i;
            if g >= a.rows() {
                continue;
            }
            let diag = a.diagonal()[g];
            if diag == 0.0 {
                return Err(InterpError::MissingDiagonal { row: g });
            }
            let mut sum = b[g] - partial[i];
            if let Some(block) = diag_block {
                if let Some(reg) = &shift_reg {
                    let streamed = block.row(i);
                    let rotated: Vec<f64> = (0..omega)
                        .map(|k| streamed[(k + omega - (i % omega)) % omega])
                        .collect();
                    sum -= mac_row(&rotated, reg.lanes());
                } else {
                    let logical: Vec<f64> = (0..omega).map(|j| block.get(i, j)).collect();
                    let operand = operand_slice(x, row_base, omega);
                    sum -= mac_row(&logical, &operand);
                }
            }
            x[g] = sum / diag;
            if let Some(reg) = &mut shift_reg {
                reg.push(x[g]);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha::convert::{convert, KernelType};
    use alrescha_sim::{Engine, SimConfig};
    use alrescha_sparse::gen;

    fn operand(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i % 13) as f64).mul_add(0.375, -1.5))
            .collect()
    }

    #[test]
    fn spmv_reference_is_bit_identical_to_the_engine() {
        for (coo, omega) in [
            (gen::stencil27(3), 8),
            (gen::banded(20, 3, 7), 4),
            (gen::scattered(17, 5, 7), 4),
        ] {
            let (alf, _) = convert(KernelType::SpMv, &coo, omega).unwrap();
            let x = operand(coo.cols());
            let mut engine = Engine::new(SimConfig::paper().with_omega(omega));
            let (y_engine, _) = engine.run_spmv(&alf, &x).unwrap();
            let y_ref = spmv_reference(&alf, &x).unwrap();
            assert_eq!(y_engine.len(), y_ref.len());
            for (i, (a, b)) in y_engine.iter().zip(&y_ref).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} diverged: {a} vs {b}");
            }
        }
    }

    #[test]
    fn symgs_reference_is_bit_identical_to_the_engine() {
        for (coo, omega) in [(gen::stencil27(2), 8), (gen::banded(21, 2, 7), 4)] {
            let (alf, _) = convert(KernelType::SymGs, &coo, omega).unwrap();
            let b = operand(coo.rows());
            let mut x_engine = vec![0.0; coo.cols()];
            let mut x_ref = x_engine.clone();
            let mut engine = Engine::new(SimConfig::paper().with_omega(omega));
            engine.run_symgs(&alf, &b, &mut x_engine).unwrap();
            symgs_reference(&alf, &b, &mut x_ref).unwrap();
            for (i, (a, r)) in x_engine.iter().zip(&x_ref).enumerate() {
                assert_eq!(a.to_bits(), r.to_bits(), "x[{i}] diverged: {a} vs {r}");
            }
        }
    }

    #[test]
    fn zero_diagonal_is_rejected_like_the_engine() {
        let coo = gen::banded(8, 1, 7);
        let (mut alf, _) = convert(KernelType::SymGs, &coo, 4).unwrap();
        alf.diagonal_mut_unchecked()[3] = 0.0;
        let b = operand(8);
        let mut x = vec![0.0; 8];
        assert_eq!(
            symgs_reference(&alf, &b, &mut x),
            Err(InterpError::MissingDiagonal { row: 3 })
        );
    }
}
