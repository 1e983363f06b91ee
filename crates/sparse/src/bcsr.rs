//! Blocked compressed sparse row (BCSR) format.

use crate::{Coo, DenseMatrix, Error, MetaData, Result};

/// A sparse matrix in blocked CSR (BCSR) format.
///
/// BCSR partitions the matrix into dense ω×ω blocks and applies CSR indexing
/// at block granularity: one column index per *block*, one pointer per block
/// row. The paper adapts BCSR into its own locally-dense format (§4.5) —
/// same meta-data overhead, different block and value ordering. This type is
/// the faithful baseline BCSR; [`crate::Alf`] is the ALRESCHA adaptation.
///
/// Block payloads are stored dense and row-major, so a block with a single
/// non-zero still occupies ω² values; the `payload_bytes` accounting exposes
/// that fill cost.
///
/// # Example
///
/// ```
/// use alrescha_sparse::{Bcsr, Coo};
///
/// let mut coo = Coo::new(4, 4);
/// coo.push(0, 0, 1.0);
/// coo.push(3, 3, 2.0);
/// let a = Bcsr::from_coo(&coo, 2)?;
/// assert_eq!(a.num_blocks(), 2); // blocks (0,0) and (1,1)
/// # Ok::<(), alrescha_sparse::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bcsr {
    rows: usize,
    cols: usize,
    omega: usize,
    /// Block-row pointers (`block_rows + 1` entries).
    block_row_ptr: Vec<usize>,
    /// Block-column index per stored block.
    block_col_idx: Vec<usize>,
    /// Dense ω×ω payload per stored block, row-major.
    blocks: Vec<DenseMatrix>,
    nnz: usize,
}

impl Bcsr {
    /// Converts from COO with block width `omega`, summing duplicates.
    ///
    /// The matrix is logically zero-padded up to the next multiple of
    /// `omega` in both dimensions; padding never materializes new blocks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBlockWidth`] if `omega == 0`.
    pub fn from_coo(coo: &Coo, omega: usize) -> Result<Self> {
        let (mut block_row_ptr, mut block_col_idx, mut blocks) = (vec![0], Vec::new(), Vec::new());
        let nnz = bucket_block_rows(coo, omega, |_, cols, entries| {
            let base = blocks.len();
            block_col_idx.extend_from_slice(cols);
            blocks.resize_with(base + cols.len(), || DenseMatrix::zeros(omega, omega));
            for &(k, i, j, v) in entries {
                blocks[base + k][(i, j)] += v;
            }
            block_row_ptr.push(blocks.len());
        })?;
        Ok(Bcsr {
            rows: coo.rows(),
            cols: coo.cols(),
            omega,
            block_row_ptr,
            block_col_idx,
            blocks,
            nnz,
        })
    }

    /// Converts back to COO, dropping in-block zero padding.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::with_capacity(self.rows, self.cols, self.nnz);
        for br in 0..self.block_rows() {
            for (bc, block) in self.block_row(br) {
                for i in 0..self.omega {
                    for j in 0..self.omega {
                        let v = block[(i, j)];
                        let (r, c) = (br * self.omega + i, bc * self.omega + j);
                        if v != 0.0 && r < self.rows && c < self.cols {
                            coo.push(r, c, v);
                        }
                    }
                }
            }
        }
        coo
    }

    /// Number of rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block width ω.
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// Number of block rows (rows rounded up to ω).
    pub fn block_rows(&self) -> usize {
        self.rows.div_ceil(self.omega)
    }

    /// Number of stored (non-empty) blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over `(block_col, payload)` of one block row, sorted by
    /// block column.
    ///
    /// # Panics
    ///
    /// Panics if `block_row >= self.block_rows()`.
    pub fn block_row(&self, block_row: usize) -> impl Iterator<Item = (usize, &DenseMatrix)> {
        let span = self.block_row_ptr[block_row]..self.block_row_ptr[block_row + 1];
        self.block_col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.blocks[span].iter())
    }

    /// Mean fraction of non-zero slots across stored blocks (block density).
    ///
    /// The paper observes this "rarely reaches a hundred percent", which
    /// bounds achievable bandwidth utilization (Figure 15 discussion).
    pub fn mean_block_fill(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        let slots = self.omega * self.omega;
        let fill: f64 = self
            .blocks
            .iter()
            .map(|b| (slots - b.count_zeros()) as f64 / slots as f64)
            .sum();
        fill / self.blocks.len() as f64
    }
}

impl MetaData for Bcsr {
    fn meta_bytes(&self) -> usize {
        // One 32-bit column index per block plus 32-bit block-row pointers:
        // amortized over ω² potential values per block.
        self.block_col_idx.len() * 4 + self.block_row_ptr.len() * 4
    }

    fn payload_bytes(&self) -> usize {
        self.blocks.len() * self.omega * self.omega * std::mem::size_of::<f64>()
    }

    fn nnz(&self) -> usize {
        self.nnz
    }
}

/// The one bucketing pass behind [`Bcsr::from_coo`] and
/// [`crate::Alf::from_coo`]; returns the number of distinct coordinates.
/// `visit(br, cols, entries)` sees every block row in ascending order, empty
/// ones too: `cols` are its block columns that hold an entry, ascending, and
/// `entries` its entries in insertion order as `(position in cols, in-block
/// row, in-block col, value)`. The sort by block row is stable, so adding a
/// coordinate's entries onto `+0.0` sums duplicates in [`Coo::compress`]'s
/// order. Every entry creates its block, an explicit zero too.
pub(crate) fn bucket_block_rows(
    coo: &Coo,
    omega: usize,
    mut visit: impl FnMut(usize, &[usize], &[(usize, usize, usize, f64)]),
) -> Result<usize> {
    if omega == 0 {
        return Err(Error::InvalidBlockWidth { omega });
    }
    // Stable counting sort by block row into block-local coordinates.
    let mut start = vec![0; coo.rows().div_ceil(omega) + 1];
    for &(r, _, _) in coo.entries() {
        start[r / omega + 1] += 1;
    }
    for br in 1..start.len() {
        start[br] += start[br - 1];
    }
    let (mut next, mut sorted) = (start.clone(), vec![(0, 0, 0, 0.0); coo.entries().len()]);
    for &(r, c, v) in coo.entries() {
        sorted[next[r / omega]] = (c / omega, r % omega, c % omega, v);
        next[r / omega] += 1;
    }
    // `slot[bc]` is (1 + the last block row holding bc, bc's position in its
    // `cols`); `stamp[cell]` is 1 + the last block row that wrote the cell.
    // Stamping by row means neither needs clearing between rows.
    let mut slot = vec![(0, 0); coo.cols().div_ceil(omega)];
    let (mut cols, mut stamp, mut nnz) = (Vec::new(), Vec::new(), 0);
    for (br, w) in start.windows(2).enumerate() {
        let span = &mut sorted[w[0]..w[1]];
        cols.clear();
        for e in span.iter() {
            if std::mem::replace(&mut slot[e.0].0, br + 1) != br + 1 {
                cols.push(e.0);
            }
        }
        cols.sort_unstable();
        cols.iter().enumerate().for_each(|(k, &bc)| slot[bc].1 = k);
        stamp.resize(stamp.len().max(cols.len() * omega * omega), 0);
        for e in span.iter_mut() {
            e.0 = slot[e.0].1;
            let cell = &mut stamp[(e.0 * omega + e.1) * omega + e.2];
            nnz += usize::from(std::mem::replace(cell, br + 1) != br + 1);
        }
        visit(br, &cols, span);
    }
    Ok(nnz)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo {
        // 4x4, blocks of 2: nonzeros in block (0,0), (0,1), (1,1).
        let mut coo = Coo::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 2.0);
        coo.push(0, 3, 3.0);
        coo.push(2, 2, 4.0);
        coo.push(3, 3, 5.0);
        coo
    }

    #[test]
    fn blocks_are_bucketed() {
        let a = Bcsr::from_coo(&sample(), 2).unwrap();
        assert_eq!(a.num_blocks(), 3);
        assert_eq!(a.block_rows(), 2);
        let row0: Vec<usize> = a.block_row(0).map(|(bc, _)| bc).collect();
        assert_eq!(row0, vec![0, 1]);
    }

    #[test]
    fn payload_is_dense_within_block() {
        let a = Bcsr::from_coo(&sample(), 2).unwrap();
        let (bc, block) = a.block_row(1).next().unwrap();
        assert_eq!(bc, 1);
        assert_eq!(block[(0, 0)], 4.0);
        assert_eq!(block[(1, 1)], 5.0);
        assert_eq!(block[(0, 1)], 0.0);
    }

    #[test]
    fn round_trips_through_coo() {
        let coo = sample().compress();
        let back = Bcsr::from_coo(&coo, 2).unwrap().to_coo().compress();
        assert_eq!(coo, back);
    }

    #[test]
    fn round_trips_with_non_dividing_omega() {
        let mut coo = Coo::new(5, 5);
        coo.push(4, 4, 7.0);
        coo.push(0, 4, 1.0);
        let coo = coo.compress();
        let back = Bcsr::from_coo(&coo, 2).unwrap().to_coo().compress();
        assert_eq!(coo, back);
    }

    #[test]
    fn rejects_zero_omega() {
        assert!(matches!(
            Bcsr::from_coo(&sample(), 0),
            Err(Error::InvalidBlockWidth { omega: 0 })
        ));
    }

    #[test]
    fn mean_block_fill() {
        let a = Bcsr::from_coo(&sample(), 2).unwrap();
        // fills: 2/4, 1/4, 2/4 -> mean 5/12.
        assert!((a.mean_block_fill() - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn meta_is_per_block_not_per_nnz() {
        let a = Bcsr::from_coo(&sample(), 2).unwrap();
        assert_eq!(a.meta_bytes(), 3 * 4 + 3 * 4);
        assert_eq!(a.payload_bytes(), 3 * 4 * 8);
    }
}
