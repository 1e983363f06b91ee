//! `Alf::from_coo` and `Bcsr::from_coo` against a dense oracle.
//!
//! The oracle materializes the matrix cell by cell, summing each
//! coordinate's duplicates in insertion order onto `+0.0`, and then cuts it
//! into ω×ω blocks. A block exists when any of its in-range cells was
//! written, an explicit zero or a cancelling pair included. Every payload
//! and diagonal value is compared bit for bit. A mismatch panics.

use proptest::prelude::*;

use alrescha_sparse::alf::AlfLayout;
use alrescha_sparse::{Alf, Bcsr, BlockKind, Coo, Error, MetaData};

/// The matrix as the packers must see it: `None` where no entry was pushed.
struct Dense {
    rows: usize,
    cols: usize,
    cells: Vec<Option<f64>>,
}

impl Dense {
    fn from_coo(coo: &Coo) -> Self {
        let mut cells = vec![None; coo.rows() * coo.cols()];
        for &(r, c, v) in coo.entries() {
            let cell: &mut Option<f64> = &mut cells[r * coo.cols() + c];
            *cell = Some(cell.unwrap_or(0.0) + v);
        }
        Dense {
            rows: coo.rows(),
            cols: coo.cols(),
            cells,
        }
    }

    /// The value at `(r, c)`, `+0.0` for an absent or padding cell.
    fn value(&self, r: usize, c: usize) -> f64 {
        self.cell(r, c).unwrap_or(0.0)
    }

    fn cell(&self, r: usize, c: usize) -> Option<f64> {
        if r < self.rows && c < self.cols {
            self.cells[r * self.cols + c]
        } else {
            None
        }
    }

    fn nnz(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// Block columns of block row `br` that hold a written cell, ascending.
    fn block_cols(&self, br: usize, omega: usize) -> Vec<usize> {
        (0..self.cols.div_ceil(omega))
            .filter(|&bc| {
                (0..omega).any(|i| {
                    (0..omega).any(|j| self.cell(br * omega + i, bc * omega + j).is_some())
                })
            })
            .collect()
    }
}

/// One expected block: coordinates, kind, reversal and payload bits in
/// streaming order.
#[derive(Debug, PartialEq)]
struct Block {
    at: (usize, usize),
    kind: BlockKind,
    reversed: bool,
    payload: Vec<u64>,
}

/// What `Alf::from_coo` must return: the streamed blocks, the diagonal
/// bits, and `nnz` — or the first row with a zero diagonal.
fn expected_alf(
    dense: &Dense,
    omega: usize,
    layout: AlfLayout,
) -> Result<(Vec<Block>, Vec<u64>, usize), usize> {
    let symgs = layout == AlfLayout::SymGs;
    let diagonal: Vec<f64> = if symgs {
        (0..dense.rows.min(dense.cols))
            .map(|r| dense.value(r, r))
            .collect()
    } else {
        Vec::new()
    };
    if symgs && dense.rows == dense.cols {
        if let Some(row) = diagonal.iter().position(|&d| d == 0.0) {
            return Err(row);
        }
    }
    let mut blocks = Vec::new();
    for br in 0..dense.rows.div_ceil(omega) {
        let mut cols = dense.block_cols(br, omega);
        if symgs {
            // Off-diagonal blocks first, the diagonal block last.
            cols.sort_by_key(|&bc| bc == br);
        }
        for bc in cols {
            let is_diag = symgs && bc == br;
            let reversed = symgs && bc >= br;
            let mut payload = vec![0.0f64; omega * omega];
            for i in 0..omega {
                for j in 0..omega {
                    let jj = if reversed { omega - 1 - j } else { j };
                    if !(is_diag && i == j) {
                        payload[i * omega + jj] = dense.value(br * omega + i, bc * omega + j);
                    }
                }
            }
            blocks.push(Block {
                at: (br, bc),
                kind: if is_diag {
                    BlockKind::Diagonal
                } else {
                    BlockKind::OffDiagonal
                },
                reversed,
                payload: payload.iter().map(|v| v.to_bits()).collect(),
            });
        }
    }
    let diagonal = diagonal.iter().map(|v| v.to_bits()).collect();
    Ok((blocks, diagonal, dense.nnz()))
}

fn check_alf(coo: &Coo, omega: usize, layout: AlfLayout) {
    let dense = Dense::from_coo(coo);
    match (
        Alf::from_coo(coo, omega, layout),
        expected_alf(&dense, omega, layout),
    ) {
        (Ok(alf), Ok((blocks, diagonal, nnz))) => {
            let got: Vec<Block> = alf
                .blocks()
                .iter()
                .map(|b| Block {
                    at: (b.block_row(), b.block_col()),
                    kind: b.kind(),
                    reversed: b.reversed(),
                    payload: b.payload().iter().map(|v| v.to_bits()).collect(),
                })
                .collect();
            assert_eq!(got, blocks);
            let got_diag: Vec<u64> = alf.diagonal().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_diag, diagonal);
            assert_eq!(alf.nnz(), nnz);
        }
        (Err(Error::MissingDiagonal { row }), Err(want)) => assert_eq!(row, want),
        (got, want) => panic!("packer {got:?}, oracle {want:?}"),
    }
}

fn check_bcsr(coo: &Coo, omega: usize) {
    let dense = Dense::from_coo(coo);
    let bcsr = Bcsr::from_coo(coo, omega).unwrap();
    assert_eq!(bcsr.nnz(), dense.nnz());
    let mut blocks = 0;
    for br in 0..dense.rows.div_ceil(omega) {
        let got: Vec<(usize, Vec<u64>)> = bcsr
            .block_row(br)
            .map(|(bc, block)| {
                let bits = (0..omega * omega)
                    .map(|k| block[(k / omega, k % omega)].to_bits())
                    .collect();
                (bc, bits)
            })
            .collect();
        let want: Vec<(usize, Vec<u64>)> = dense
            .block_cols(br, omega)
            .into_iter()
            .map(|bc| {
                let bits = (0..omega * omega)
                    .map(|k| {
                        let (i, j) = (k / omega, k % omega);
                        dense.value(br * omega + i, bc * omega + j).to_bits()
                    })
                    .collect();
                (bc, bits)
            })
            .collect();
        blocks += want.len();
        assert_eq!(got, want, "block row {}", br);
    }
    assert_eq!(bcsr.num_blocks(), blocks);
}

fn check_all(coo: &Coo, omega: usize) {
    check_bcsr(coo, omega);
    check_alf(coo, omega, AlfLayout::Streaming);
    check_alf(coo, omega, AlfLayout::SymGs);
}

/// Values that stress summation: zeros of both signs, small exact values
/// that cancel, and arbitrary finite ones.
fn arb_value() -> impl Strategy<Value = f64> {
    (0u8..6, -4i32..4, -1e3f64..1e3).prop_map(|(kind, small, any)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 | 3 => f64::from(small) * 0.5,
        _ => any,
    })
}

/// A rectangular or square COO with duplicates, explicit and negative
/// zeros, cancelling pairs, optionally a full diagonal, and optionally
/// every odd block row left empty; paired with its block width.
fn arb_case() -> impl Strategy<Value = (Coo, usize)> {
    (1usize..24, 1usize..24, 0usize..4).prop_flat_map(|(rows, cols, w)| {
        let omega = [1, 3, 8, 16][w];
        (
            proptest::collection::vec((0..rows, 0..cols, arb_value()), 0..60),
            proptest::collection::vec((0..rows, 0..cols, -1e3f64..1e3), 0..6),
            0u8..2,
            0u8..2,
        )
            .prop_map(move |(entries, pairs, diagonal, hollow)| {
                let mut coo = Coo::new(rows, cols);
                if diagonal == 1 {
                    for i in 0..rows.min(cols) {
                        coo.push(i, i, 1.0 + i as f64);
                    }
                }
                for (k, (r, c, v)) in entries.into_iter().enumerate() {
                    if let Some(&(pr, pc, pv)) = pairs.get(k) {
                        coo.push(pr, pc, pv);
                    }
                    coo.push(r, c, v);
                    if let Some(&(pr, pc, pv)) = pairs.get(k) {
                        coo.push(pr, pc, -pv);
                    }
                }
                if hollow == 1 {
                    let kept: Vec<_> = coo
                        .entries()
                        .iter()
                        .copied()
                        .filter(|&(r, _, _)| (r / omega) % 2 == 0)
                        .collect();
                    coo = Coo::from_triplets(rows, cols, kept).unwrap();
                }
                (coo, omega)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn packers_match_the_dense_oracle((coo, omega) in arb_case()) {
        check_all(&coo, omega);
    }
}

#[test]
fn zero_sums_create_blocks_and_normalize_negative_zero() {
    let mut coo = Coo::new(6, 5);
    coo.push(0, 4, -0.0); // a lone -0.0: its block exists and stores +0.0
    coo.push(4, 1, 2.5);
    coo.push(4, 1, -2.5); // a cancelling pair still creates block (1, 0)
    coo.push(2, 2, 0.0); // an explicit zero creates diagonal block (0, 0)
    for omega in [1, 2, 3, 8, 16] {
        check_all(&coo, omega);
    }
    let bcsr = Bcsr::from_coo(&coo, 3).unwrap();
    assert_eq!(bcsr.num_blocks(), 3);
    assert_eq!(bcsr.nnz(), 3);
    let (_, block) = bcsr.block_row(0).nth(1).unwrap();
    assert_eq!(block[(0, 1)].to_bits(), 0.0f64.to_bits());
}

#[test]
fn missing_diagonal_reports_the_first_zero_sum() {
    let mut coo = Coo::new(4, 4);
    for i in 0..4 {
        coo.push(i, i, 1.0);
    }
    coo.push(3, 3, -1.0); // row 3's diagonal sums to zero
    coo.push(1, 1, -1.0); // and so does row 1's, which is reported
    assert_eq!(
        Alf::from_coo(&coo, 2, AlfLayout::SymGs).unwrap_err(),
        Error::MissingDiagonal { row: 1 }
    );
    check_alf(&coo, 2, AlfLayout::SymGs);
    assert!(Alf::from_coo(&coo, 0, AlfLayout::Streaming).is_err());
    assert!(Bcsr::from_coo(&coo, 0).is_err());
}
