//! The ALRESCHA locally-dense storage format (§4.5 of the paper).
//!
//! The format adapts BCSR so that the order of stored values *equals* the
//! order of computation, letting the accelerator stream payload from memory
//! with no runtime meta-data:
//!
//! * **Block order** — within a block row, all non-diagonal non-zero blocks
//!   are stored first, followed by the diagonal block. This realizes the
//!   GEMV-before-D-SymGS reordering of Algorithm 1 directly in memory layout.
//! * **Value order** — blocks in the strict upper triangle store each row's
//!   values right-to-left (`r2l`), matching the operand rotation of the
//!   D-SymGS data path (Figure 10); lower-triangle blocks keep the natural
//!   left-to-right order.
//! * **Diagonal extraction** — for SymGS the main diagonal of `A` is removed
//!   from the payload and kept in a separate vector that the accelerator
//!   loads into its local cache, so memory bandwidth carries only dot-product
//!   operands.
//! * **Meta-data** — block indices (`Inx_in`/`Inx_out`) are not streamed;
//!   they live in the one-time configuration table
//!   (see [`config_entry_bits`]).
//!
//! [`Alf::from_coo`] packs in one pass, sharing its bucketing step with
//! [`crate::Bcsr::from_coo`]: each entry is added straight into its
//! streaming-order slot in its block's one ω² payload (or into `diagonal`),
//! duplicates summed in insertion order onto `+0.0`.

use crate::bcsr::bucket_block_rows;
use crate::{Coo, Error, MetaData, Result};

/// Bits per configuration-table entry for an `n`×`n` matrix blocked at `ω`:
/// `2·ceil(log2(n/ω)) + 3` (§4.1 — two block indices plus one bit each for
/// data-path type, access order, and operand source).
pub fn config_entry_bits(n: usize, omega: usize) -> usize {
    let block_rows = n.div_ceil(omega).max(1);
    let idx_bits = usize::BITS as usize - (block_rows - 1).leading_zeros() as usize;
    // ceil(log2(block_rows)) with log2(1) = 0.
    let idx_bits = if block_rows == 1 { 0 } else { idx_bits };
    2 * idx_bits + 3
}

/// Role of a block in the streamed layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Off-diagonal block: executed as a parallel data path (GEMV / D-BFS /
    /// D-SSSP / D-PR).
    OffDiagonal,
    /// Diagonal block: executed as the data-dependent D-SymGS path when the
    /// kernel is SymGS.
    Diagonal,
}

/// Layout flavor: SymGS needs the diagonal extracted and upper-triangle rows
/// reversed; single-data-path kernels (SpMV, BFS, SSSP, PR) stream every
/// block left-to-right with the diagonal kept in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlfLayout {
    /// All blocks ordered `l2r`, diagonal values stay in the payload.
    Streaming,
    /// SymGS layout: diagonal extracted, upper-triangle value order reversed,
    /// diagonal block stored last in its block row.
    SymGs,
}

/// One locally-dense block in streaming order.
#[derive(Debug, Clone, PartialEq)]
pub struct AlfBlock {
    block_row: usize,
    block_col: usize,
    kind: BlockKind,
    /// ω×ω values in *streaming* order: row-major, each row already permuted
    /// to the access order the compute engine consumes (reversed for
    /// upper-triangle blocks under [`AlfLayout::SymGs`]). Extracted diagonal
    /// slots hold `0.0`.
    payload: Vec<f64>,
    omega: usize,
    reversed: bool,
}

impl AlfBlock {
    /// Block-row coordinate.
    pub fn block_row(&self) -> usize {
        self.block_row
    }

    /// Block-column coordinate.
    pub fn block_col(&self) -> usize {
        self.block_col
    }

    /// Whether this is a diagonal or off-diagonal block.
    pub fn kind(&self) -> BlockKind {
        self.kind
    }

    /// The ω² payload values in streaming order.
    pub fn payload(&self) -> &[f64] {
        &self.payload
    }

    /// True if this block's rows are streamed right-to-left.
    pub fn reversed(&self) -> bool {
        self.reversed
    }

    /// The reversal flag this block *should* carry under `layout`: SymGS
    /// streams strict-upper-triangle blocks and diagonal blocks
    /// right-to-left (the Figure 10 operand rotation); everything else is
    /// natural order. Verification tooling compares this against
    /// [`AlfBlock::reversed`].
    pub fn expected_reversed(&self, layout: AlfLayout) -> bool {
        layout == AlfLayout::SymGs
            && (self.block_col > self.block_row || self.kind == BlockKind::Diagonal)
    }

    /// Number of non-zero payload slots (padding zeros excluded).
    pub fn fill_count(&self) -> usize {
        self.payload.iter().filter(|v| **v != 0.0).count()
    }

    /// Overrides the reversal flag for verifier/mutation tests.
    #[doc(hidden)]
    pub fn set_reversed_unchecked(&mut self, reversed: bool) {
        self.reversed = reversed;
    }

    /// Builds a block directly from a streamed payload — the assembler's
    /// entry point (`alrescha-asm`), where the text listing *is* the stream
    /// and no COO round-trip exists to canonicalize it. The payload is taken
    /// verbatim in streaming order; `reversed` records how logical columns
    /// map onto it (see [`AlfBlock::get`]). Format invariants beyond the
    /// payload geometry (ordering, reversal legality, diagonal extraction)
    /// are alverify's job, not this constructor's.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidBlockWidth`] if `omega == 0`.
    /// * [`Error::DimensionMismatch`] if `payload.len() != ω²`.
    pub fn from_streamed_payload(
        block_row: usize,
        block_col: usize,
        kind: BlockKind,
        payload: Vec<f64>,
        omega: usize,
        reversed: bool,
    ) -> Result<Self> {
        if omega == 0 {
            return Err(Error::InvalidBlockWidth { omega });
        }
        if omega.checked_mul(omega) != Some(payload.len()) {
            return Err(Error::DimensionMismatch {
                expected: (omega, omega),
                found: (payload.len(), 1),
            });
        }
        Ok(AlfBlock {
            block_row,
            block_col,
            kind,
            payload,
            omega,
            reversed,
        })
    }

    /// One streamed row of the payload (already in access order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= ω`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.payload[i * self.omega..(i + 1) * self.omega]
    }

    /// Value at logical in-block position `(i, j)` (matrix orientation,
    /// before any streaming reversal).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let jj = if self.reversed { self.omega - 1 - j } else { j };
        self.payload[i * self.omega + jj]
    }
}

/// A sparse matrix in the ALRESCHA locally-dense format.
///
/// # Example
///
/// ```
/// use alrescha_sparse::{alf::AlfLayout, Alf, Coo};
///
/// let mut coo = Coo::new(4, 4);
/// for i in 0..4 { coo.push(i, i, 2.0); }
/// coo.push(0, 3, -1.0);
/// let alf = Alf::from_coo(&coo, 2, AlfLayout::SymGs)?;
/// assert_eq!(alf.diagonal(), &[2.0, 2.0, 2.0, 2.0]);
/// // Block row 0: off-diagonal block (0,1) streams before diagonal block (0,0).
/// let order: Vec<(usize, usize)> = alf.blocks().iter()
///     .map(|b| (b.block_row(), b.block_col())).collect();
/// assert_eq!(order, vec![(0, 1), (0, 0), (1, 1)]);
/// # Ok::<(), alrescha_sparse::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Alf {
    rows: usize,
    cols: usize,
    omega: usize,
    layout: AlfLayout,
    blocks: Vec<AlfBlock>,
    /// Extracted main diagonal (empty under [`AlfLayout::Streaming`]).
    diagonal: Vec<f64>,
    nnz: usize,
}

impl Alf {
    /// Converts from COO with block width `omega`.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidBlockWidth`] if `omega == 0`.
    /// * [`Error::MissingDiagonal`] if `layout` is [`AlfLayout::SymGs`] and a
    ///   diagonal entry of a square matrix is structurally zero (Gauss-Seidel
    ///   divides by it).
    pub fn from_coo(coo: &Coo, omega: usize, layout: AlfLayout) -> Result<Self> {
        let symgs = layout == AlfLayout::SymGs;
        let mut diagonal = vec![0.0; if symgs { coo.rows().min(coo.cols()) } else { 0 }];
        let mut blocks: Vec<AlfBlock> = Vec::new();
        let nnz = bucket_block_rows(coo, omega, |br, cols, entries| {
            let base = blocks.len();
            let diag = cols.binary_search(&br).ok().filter(|_| symgs);
            blocks.extend(cols.iter().map(|&bc| AlfBlock {
                block_row: br,
                block_col: bc,
                kind: BlockKind::OffDiagonal,
                payload: vec![0.0; omega * omega],
                omega,
                reversed: symgs && bc >= br, // upper triangle or diagonal
            }));
            for &(k, i, j, v) in entries {
                let block = &mut blocks[base + k];
                if Some(k) == diag && i == j {
                    diagonal[br * omega + i] += v;
                } else {
                    let jj = if block.reversed { omega - 1 - j } else { j };
                    block.payload[i * omega + jj] += v;
                }
            }
            // Block order rule: the diagonal block closes its block row.
            if let Some(d) = diag {
                blocks[base + d].kind = BlockKind::Diagonal;
                blocks[base + d..].rotate_left(1);
            }
        })?;

        if symgs && coo.rows() == coo.cols() {
            if let Some(row) = diagonal.iter().position(|&d| d == 0.0) {
                return Err(Error::MissingDiagonal { row });
            }
        }
        Ok(Alf {
            rows: coo.rows(),
            cols: coo.cols(),
            omega,
            layout,
            blocks,
            diagonal,
            nnz,
        })
    }

    /// Assembles a format directly from streamed blocks — the inverse of
    /// rendering one as text. [`Alf::from_coo`] always re-canonicalizes the
    /// block order (off-diagonals first, diagonal last, rows ascending), so
    /// an assembler that went through COO could never carry a reordered
    /// schedule to the engine; this constructor preserves the given stream
    /// order verbatim. Only geometry is validated here — stream-order and
    /// reversal legality are alverify's AL0xx/AL2xx rules, which is exactly
    /// what lets verifier tests and the differential fuzzer build
    /// non-canonical (but still legal) schedules.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidBlockWidth`] if `omega == 0`.
    /// * [`Error::DimensionMismatch`] if a block was built at a different ω,
    ///   or the diagonal length disagrees with the layout (`min(rows, cols)`
    ///   under [`AlfLayout::SymGs`], empty under [`AlfLayout::Streaming`]).
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        omega: usize,
        layout: AlfLayout,
        blocks: Vec<AlfBlock>,
        diagonal: Vec<f64>,
    ) -> Result<Self> {
        if omega == 0 {
            return Err(Error::InvalidBlockWidth { omega });
        }
        for b in &blocks {
            if b.omega != omega || omega.checked_mul(omega) != Some(b.payload.len()) {
                return Err(Error::DimensionMismatch {
                    expected: (omega, omega),
                    found: (b.omega, b.payload.len() / b.omega.max(1)),
                });
            }
        }
        let want_diag = if layout == AlfLayout::SymGs {
            rows.min(cols)
        } else {
            0
        };
        if diagonal.len() != want_diag {
            return Err(Error::DimensionMismatch {
                expected: (want_diag, 1),
                found: (diagonal.len(), 1),
            });
        }
        let nnz = blocks.iter().map(AlfBlock::fill_count).sum::<usize>()
            + diagonal.iter().filter(|v| **v != 0.0).count();
        Ok(Alf {
            rows,
            cols,
            omega,
            layout,
            blocks,
            diagonal,
            nnz,
        })
    }

    /// Reconstructs the matrix as COO (inverse of [`Alf::from_coo`]).
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::with_capacity(self.rows, self.cols, self.nnz);
        for block in &self.blocks {
            for i in 0..self.omega {
                for j in 0..self.omega {
                    let v = block.get(i, j);
                    let (r, c) = (
                        block.block_row * self.omega + i,
                        block.block_col * self.omega + j,
                    );
                    if v != 0.0 && r < self.rows && c < self.cols {
                        coo.push(r, c, v);
                    }
                }
            }
        }
        if self.layout == AlfLayout::SymGs {
            for (i, &d) in self.diagonal.iter().enumerate() {
                if d != 0.0 {
                    coo.push(i, i, d);
                }
            }
        }
        coo
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block width ω.
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// The layout flavor this matrix was built with.
    pub fn layout(&self) -> AlfLayout {
        self.layout
    }

    /// Blocks in exact streaming order.
    pub fn blocks(&self) -> &[AlfBlock] {
        &self.blocks
    }

    /// Number of block rows.
    pub fn block_rows(&self) -> usize {
        self.rows.div_ceil(self.omega)
    }

    /// The extracted main diagonal (empty for [`AlfLayout::Streaming`]).
    pub fn diagonal(&self) -> &[f64] {
        &self.diagonal
    }

    /// Bits per configuration-table entry for this matrix (§4.1).
    pub fn config_entry_bits(&self) -> usize {
        config_entry_bits(self.rows.max(self.cols), self.omega)
    }

    /// Total configuration-table size in bits (one entry per block).
    pub fn config_table_bits(&self) -> usize {
        self.blocks.len() * self.config_entry_bits()
    }

    /// Bytes streamed from memory per full pass over the matrix: the dense
    /// block payloads only — no indices, no pointers (the ALRESCHA headline
    /// property). The extracted diagonal is loaded once into the local cache
    /// and is charged separately by the simulator.
    pub fn streamed_bytes(&self) -> usize {
        self.blocks.len() * self.omega * self.omega * std::mem::size_of::<f64>()
    }

    /// The padded dimension the streamed layout covers: `⌈rows/ω⌉·ω`.
    /// When this exceeds [`Alf::rows`] the final chunk of every vector
    /// operand is partially padding.
    pub fn padded_dim(&self) -> usize {
        self.block_rows() * self.omega
    }

    /// True when the matrix dimension is not a multiple of ω, i.e. the
    /// final block row carries padding lanes.
    pub fn has_padded_tail(&self) -> bool {
        !self.rows.is_multiple_of(self.omega) || !self.cols.is_multiple_of(self.omega)
    }

    /// Off-diagonal block count of the densest block row — the static peak
    /// occupancy of the RCU link stack is ω times this (one GEMV partial
    /// result per lane per block rides the LIFO until the row's D-SymGS
    /// pops them).
    pub fn max_off_diagonal_blocks_per_row(&self) -> usize {
        let mut per_row = vec![0usize; self.block_rows().max(1)];
        for b in &self.blocks {
            if b.kind == BlockKind::OffDiagonal && b.block_row < per_row.len() {
                per_row[b.block_row] += 1;
            }
        }
        per_row.into_iter().max().unwrap_or(0)
    }

    /// Distinct operand block columns of the densest block row — with the
    /// `b` and diagonal chunks, the per-block-row cache working set in
    /// chunks. Blocks outside the block grid (an AL304 error) are not
    /// counted.
    pub fn max_operand_blocks_per_row(&self) -> usize {
        let (rows, cols) = (self.block_rows().max(1), self.cols.div_ceil(self.omega));
        let in_grid = |b: &&AlfBlock| b.block_row < rows && b.block_col < cols;
        // Group the block columns by block row (a counting sort: the stream
        // need not be in row order), then count each row's distinct columns
        // with one stamp array: `stamp[bc]` is 1 + the last block row that
        // counted bc, so nothing is cleared between rows.
        let mut start = vec![0usize; rows + 1];
        for b in self.blocks.iter().filter(in_grid) {
            start[b.block_row + 1] += 1;
        }
        for br in 1..=rows {
            start[br] += start[br - 1];
        }
        let (mut next, mut grouped) = (start.clone(), vec![0; start[rows]]);
        for b in self.blocks.iter().filter(in_grid) {
            grouped[next[b.block_row]] = b.block_col;
            next[b.block_row] += 1;
        }
        let mut stamp = vec![0; cols];
        start
            .windows(2)
            .enumerate()
            .map(|(br, w)| {
                grouped[w[0]..w[1]]
                    .iter()
                    .filter(|&&bc| std::mem::replace(&mut stamp[bc], br + 1) != br + 1)
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    /// Mutable block access for verifier/mutation tests (swap stream order,
    /// corrupt payloads). Breaks the format invariants by design.
    #[doc(hidden)]
    pub fn blocks_mut_unchecked(&mut self) -> &mut Vec<AlfBlock> {
        &mut self.blocks
    }

    /// Mutable diagonal access for verifier/mutation tests.
    #[doc(hidden)]
    pub fn diagonal_mut_unchecked(&mut self) -> &mut Vec<f64> {
        &mut self.diagonal
    }

    /// Mean fraction of non-zero slots across stored blocks.
    pub fn mean_block_fill(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        let slots = self.omega * self.omega;
        let fill: f64 = self
            .blocks
            .iter()
            .map(|b| b.fill_count() as f64 / slots as f64)
            .sum();
        fill / self.blocks.len() as f64
    }
}

impl MetaData for Alf {
    fn meta_bytes(&self) -> usize {
        // "Same meta-data overhead" as BCSR (§4.5): one block index per block
        // plus block-row pointers — except it lives in the configuration
        // table rather than being streamed at runtime.
        self.blocks.len() * 4 + (self.block_rows() + 1) * 4
    }

    fn payload_bytes(&self) -> usize {
        self.streamed_bytes()
    }

    fn nnz(&self) -> usize {
        self.nnz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bcsr;

    /// The 9x9, ω=3 example shape of Figure 8/13: blocks on the diagonal
    /// plus off-diagonal blocks (0,2), (1,0)-ish pattern.
    fn paper_like() -> Coo {
        let mut coo = Coo::new(9, 9);
        for i in 0..9 {
            coo.push(i, i, 10.0 + i as f64);
        }
        // Off-diagonal block (0, 2): upper triangle.
        coo.push(0, 6, 1.0);
        coo.push(0, 7, 2.0);
        coo.push(1, 8, 3.0);
        // Off-diagonal block (2, 0): lower triangle.
        coo.push(7, 1, 4.0);
        coo.push(8, 0, 5.0);
        // In-diagonal-block off-diagonal entries.
        coo.push(0, 1, 6.0);
        coo.push(4, 3, 7.0);
        coo
    }

    #[test]
    fn block_order_puts_diagonal_last_per_block_row() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        let order: Vec<(usize, usize, BlockKind)> = alf
            .blocks()
            .iter()
            .map(|b| (b.block_row(), b.block_col(), b.kind()))
            .collect();
        assert_eq!(
            order,
            vec![
                (0, 2, BlockKind::OffDiagonal),
                (0, 0, BlockKind::Diagonal),
                (1, 1, BlockKind::Diagonal),
                (2, 0, BlockKind::OffDiagonal),
                (2, 2, BlockKind::Diagonal),
            ]
        );
    }

    #[test]
    fn diagonal_is_extracted_for_symgs() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        let expect: Vec<f64> = (0..9).map(|i| 10.0 + f64::from(i)).collect();
        assert_eq!(alf.diagonal(), expect.as_slice());
        // Diagonal block payloads must not contain the diagonal values.
        for b in alf
            .blocks()
            .iter()
            .filter(|b| b.kind() == BlockKind::Diagonal)
        {
            for i in 0..3 {
                assert_eq!(b.get(i, i), 0.0);
            }
        }
    }

    #[test]
    fn upper_triangle_rows_are_reversed_in_stream() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        let upper = &alf.blocks()[0];
        assert_eq!((upper.block_row(), upper.block_col()), (0, 2));
        assert!(upper.reversed());
        // Logical row 0 of block (0,2) is [1.0, 2.0, 0.0] (cols 6,7,8);
        // streamed right-to-left it must read [0.0, 2.0, 1.0].
        assert_eq!(upper.row(0), &[0.0, 2.0, 1.0]);
        // Logical accessor undoes the reversal.
        assert_eq!(upper.get(0, 0), 1.0);
        assert_eq!(upper.get(0, 1), 2.0);
    }

    #[test]
    fn lower_triangle_rows_keep_natural_order() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        let lower = alf
            .blocks()
            .iter()
            .find(|b| (b.block_row(), b.block_col()) == (2, 0))
            .unwrap();
        assert!(!lower.reversed());
        // Row 1 of block (2,0) holds A[7][1] = 4.0 at logical col 1.
        assert_eq!(lower.row(1), &[0.0, 4.0, 0.0]);
    }

    #[test]
    fn symgs_round_trips_through_coo() {
        let coo = paper_like().compress();
        let alf = Alf::from_coo(&coo, 3, AlfLayout::SymGs).unwrap();
        assert_eq!(alf.to_coo().compress(), coo);
    }

    #[test]
    fn streaming_round_trips_through_coo() {
        let coo = paper_like().compress();
        let alf = Alf::from_coo(&coo, 3, AlfLayout::Streaming).unwrap();
        assert_eq!(alf.to_coo().compress(), coo);
        assert!(alf.diagonal().is_empty());
    }

    #[test]
    fn streaming_layout_keeps_value_order() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::Streaming).unwrap();
        for b in alf.blocks() {
            assert_eq!(b.kind(), BlockKind::OffDiagonal);
        }
        let first = &alf.blocks()[0];
        // Under Streaming, block (0,0) comes first and keeps l2r order:
        assert_eq!((first.block_row(), first.block_col()), (0, 0));
        assert_eq!(first.row(0), &[10.0, 6.0, 0.0]);
    }

    #[test]
    fn missing_diagonal_rejected_for_symgs() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(3, 3, 1.0); // row 2 diagonal missing
        coo.push(2, 0, 5.0);
        let err = Alf::from_coo(&coo, 2, AlfLayout::SymGs).unwrap_err();
        assert_eq!(err, Error::MissingDiagonal { row: 2 });
    }

    #[test]
    fn config_entry_bits_formula() {
        // n = 9, ω = 3 -> 3 block rows -> ceil(log2 3) = 2 -> 2*2 + 3 = 7.
        assert_eq!(config_entry_bits(9, 3), 7);
        // n = 64, ω = 8 -> 8 block rows -> 3 bits -> 9.
        assert_eq!(config_entry_bits(64, 8), 9);
        // Single block row: only the 3 flag bits remain.
        assert_eq!(config_entry_bits(8, 8), 3);
    }

    #[test]
    fn meta_matches_bcsr_accounting() {
        let coo = paper_like();
        let alf = Alf::from_coo(&coo, 3, AlfLayout::SymGs).unwrap();
        let bcsr = Bcsr::from_coo(&coo, 3).unwrap();
        assert_eq!(alf.meta_bytes(), bcsr.meta_bytes());
    }

    #[test]
    fn streamed_bytes_counts_dense_blocks_only() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        assert_eq!(alf.streamed_bytes(), 5 * 9 * 8);
    }

    #[test]
    fn rejects_zero_omega() {
        assert!(Alf::from_coo(&paper_like(), 0, AlfLayout::SymGs).is_err());
    }

    #[test]
    fn from_raw_parts_preserves_non_canonical_stream_order() {
        // Rebuild a converted format with one block row's off-diagonals
        // reversed: from_coo would re-canonicalize, from_raw_parts must not.
        let canonical = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        let mut blocks: Vec<AlfBlock> = canonical.blocks().to_vec();
        blocks.swap(0, 1); // off-diagonal (0,2) and diagonal (0,0)
        let rebuilt = Alf::from_raw_parts(
            canonical.rows(),
            canonical.cols(),
            canonical.omega(),
            canonical.layout(),
            blocks.clone(),
            canonical.diagonal().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt.blocks(), blocks.as_slice());
        assert_eq!(rebuilt.nnz(), canonical.nnz());
        assert_eq!(rebuilt.diagonal(), canonical.diagonal());
    }

    #[test]
    fn raw_constructors_reject_bad_geometry() {
        let block =
            AlfBlock::from_streamed_payload(0, 0, BlockKind::OffDiagonal, vec![1.0; 9], 3, false)
                .unwrap();
        assert_eq!(block.payload(), &[1.0; 9]);
        assert!(AlfBlock::from_streamed_payload(
            0,
            0,
            BlockKind::OffDiagonal,
            vec![1.0; 8],
            3,
            false
        )
        .is_err());
        assert!(
            AlfBlock::from_streamed_payload(0, 0, BlockKind::OffDiagonal, vec![], 0, false)
                .is_err()
        );
        // Diagonal length must match the layout.
        assert!(
            Alf::from_raw_parts(6, 6, 3, AlfLayout::SymGs, vec![block.clone()], vec![]).is_err()
        );
        assert!(Alf::from_raw_parts(
            6,
            6,
            3,
            AlfLayout::Streaming,
            vec![block.clone()],
            vec![1.0; 6]
        )
        .is_err());
        // Block built at a different ω is refused.
        assert!(Alf::from_raw_parts(6, 6, 2, AlfLayout::Streaming, vec![block], vec![]).is_err());
    }

    #[test]
    fn invariant_views_expose_padding_and_row_densities() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        assert_eq!(alf.padded_dim(), 9);
        assert!(!alf.has_padded_tail());
        // Each block row holds at most one off-diagonal block here.
        assert_eq!(alf.max_off_diagonal_blocks_per_row(), 1);
        // Densest row touches two distinct block columns (own + remote).
        assert_eq!(alf.max_operand_blocks_per_row(), 2);
        for b in alf.blocks() {
            assert_eq!(b.reversed(), b.expected_reversed(AlfLayout::SymGs));
            assert!(b.fill_count() <= 9);
        }
        // A 4x4 at ω=3 pads its tail.
        let mut coo = Coo::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0);
        }
        let padded = Alf::from_coo(&coo, 3, AlfLayout::SymGs).unwrap();
        assert!(padded.has_padded_tail());
        assert_eq!(padded.padded_dim(), 6);
    }

    #[test]
    fn operand_blocks_per_row_counts_distinct_columns_in_any_stream_order() {
        let block = |br, bc| {
            AlfBlock::from_streamed_payload(br, bc, BlockKind::OffDiagonal, vec![1.0], 1, false)
                .unwrap()
        };
        // Row 0 touches columns {2, 1}; its repeat of column 2 comes after a
        // row-1 block. The (5, 0) and (0, 7) blocks lie outside the grid.
        let blocks = vec![
            block(0, 2),
            block(1, 2),
            block(0, 2),
            block(5, 0),
            block(0, 7),
            block(0, 1),
        ];
        let alf = Alf::from_raw_parts(3, 3, 1, AlfLayout::Streaming, blocks, Vec::new()).unwrap();
        assert_eq!(alf.max_operand_blocks_per_row(), 2);
    }

    #[test]
    fn non_power_of_two_block_width_works_end_to_end() {
        let mut coo = Coo::new(13, 13);
        for i in 0..13 {
            coo.push(i, i, 3.0);
            if i + 2 < 13 {
                coo.push(i, i + 2, -0.5);
                coo.push(i + 2, i, -0.5);
            }
        }
        let coo = coo.compress();
        for omega in [3usize, 5, 6, 7] {
            let alf = Alf::from_coo(&coo, omega, AlfLayout::SymGs).unwrap();
            assert_eq!(alf.to_coo().compress(), coo, "omega {omega}");
        }
    }
}
