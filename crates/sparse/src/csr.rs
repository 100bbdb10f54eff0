//! Compressed sparse row matrix with validated invariants.

/// Error cases for CSR construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `indptr` must hold exactly `rows + 1` entries.
    IndptrLength { expected: usize, actual: usize },
    /// `indptr` must start at 0 and be non-decreasing, ending at `nnz`.
    IndptrNotMonotone { row: usize },
    /// `indices` and `values` must have equal length `nnz`.
    NnzMismatch { indices: usize, values: usize },
    /// Column index out of bounds.
    ColumnOutOfBounds { row: usize, col: u32, cols: usize },
    /// Column indices inside a row must be strictly increasing.
    UnsortedRow { row: usize },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::IndptrLength { expected, actual } => {
                write!(f, "indptr length {actual}, expected {expected}")
            }
            CsrError::IndptrNotMonotone { row } => {
                write!(f, "indptr not monotone at row {row}")
            }
            CsrError::NnzMismatch { indices, values } => {
                write!(f, "indices len {indices} != values len {values}")
            }
            CsrError::ColumnOutOfBounds { row, col, cols } => {
                write!(f, "column {col} out of bounds ({cols}) in row {row}")
            }
            CsrError::UnsortedRow { row } => write!(f, "row {row} has unsorted columns"),
        }
    }
}

impl std::error::Error for CsrError {}

/// A compressed-sparse-row `f32` matrix.
///
/// Invariants (checked by [`CsrMatrix::try_new`], maintained by every
/// operation):
///
/// * `indptr.len() == rows + 1`, `indptr[0] == 0`, non-decreasing,
///   `indptr[rows] == nnz`;
/// * `indices.len() == values.len() == nnz`;
/// * within each row, column indices are strictly increasing and `< cols`
///   ([`CsrMatrix::relabel_columns`] keeps them `< cols` only).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix, validating every invariant.
    pub fn try_new(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, CsrError> {
        if indptr.len() != rows + 1 {
            return Err(CsrError::IndptrLength {
                expected: rows + 1,
                actual: indptr.len(),
            });
        }
        if indices.len() != values.len() {
            return Err(CsrError::NnzMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        if indptr[0] != 0 || indptr[rows] != indices.len() {
            return Err(CsrError::IndptrNotMonotone { row: 0 });
        }
        for r in 0..rows {
            if indptr[r] > indptr[r + 1] {
                return Err(CsrError::IndptrNotMonotone { row: r });
            }
            let row_idx = &indices[indptr[r]..indptr[r + 1]];
            for w in row_idx.windows(2) {
                if w[0] >= w[1] {
                    return Err(CsrError::UnsortedRow { row: r });
                }
            }
            if let Some(&last) = row_idx.last() {
                if last as usize >= cols {
                    return Err(CsrError::ColumnOutOfBounds {
                        row: r,
                        col: last,
                        cols,
                    });
                }
            }
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// An empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from per-row `(sorted column indices, values)` pairs.
    ///
    /// # Panics
    /// Panics if a row's indices/values lengths differ. Column order and
    /// bounds are validated through [`CsrMatrix::try_new`].
    pub fn from_rows(cols: usize, rows: &[(Vec<u32>, Vec<f32>)]) -> Result<Self, CsrError> {
        let nnz: usize = rows.iter().map(|(i, _)| i.len()).sum();
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for (idx, val) in rows {
            assert_eq!(idx.len(), val.len(), "row indices/values length mismatch");
            indices.extend_from_slice(idx);
            values.extend_from_slice(val);
            indptr.push(indices.len());
        }
        Self::try_new(rows.len(), cols, indptr, indices, values)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Non-zeros in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// `(column indices, values)` of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// The row-pointer array.
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// All column indices, row-concatenated.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// All values, row-concatenated.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Density `nnz / (rows · cols)`; 0 for degenerate shapes.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Mean non-zeros per row (0 when there are no rows).
    pub fn avg_row_nnz(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.rows as f64
        }
    }

    /// Extracts the sub-matrix holding `row_ids` (in the given order) — the
    /// batch-construction primitive. Duplicate row ids are allowed (sampling
    /// with replacement).
    pub fn select_rows(&self, row_ids: &[usize]) -> CsrMatrix {
        let mut out = CsrMatrix {
            rows: 0,
            cols: self.cols,
            indptr: Vec::new(),
            indices: Vec::new(),
            values: Vec::new(),
        };
        self.select_rows_into(row_ids, &mut out);
        out
    }

    /// [`CsrMatrix::select_rows`] into `out`, whose previous contents are
    /// replaced and whose allocations are reused: once they have grown to a
    /// selection's size, selecting as many non-zeros again touches no heap.
    ///
    /// # Panics
    /// Panics when a row id is out of bounds.
    pub fn select_rows_into(&self, row_ids: &[usize], out: &mut CsrMatrix) {
        let nnz: usize = row_ids
            .iter()
            .map(|&r| {
                assert!(r < self.rows, "row id {r} out of bounds");
                self.row_nnz(r)
            })
            .sum();
        out.rows = row_ids.len();
        out.cols = self.cols;
        out.indptr.clear();
        out.indices.clear();
        out.values.clear();
        out.indptr.reserve(row_ids.len() + 1);
        out.indices.reserve(nnz);
        out.values.reserve(nnz);
        out.indptr.push(0);
        for &r in row_ids {
            let (idx, val) = self.row(r);
            out.indices.extend_from_slice(idx);
            out.values.extend_from_slice(val);
            out.indptr.push(out.indices.len());
        }
    }

    /// Renames every column id `j` to `map(j)` in place and makes the matrix
    /// `cols` wide: a batch's features renamed to the rows of a compact
    /// weight block that holds only theirs. Entries stay where they are, so
    /// a row's new ids need not increase — the one operation that may leave
    /// rows unsorted. The row-streaming kernels (`spmm*`, the sparse weight
    /// gradient) read a row's entries in stored order, so over a weight
    /// block whose rows are renamed the same way they compute the same
    /// bits as before.
    ///
    /// # Panics
    /// Panics when a new id is not below `cols`.
    pub fn relabel_columns(&mut self, cols: usize, map: impl Fn(u32) -> u32) {
        for j in &mut self.indices {
            let k = map(*j);
            assert!((k as usize) < cols, "column {j} renamed to {k} of {cols}");
            *j = k;
        }
        self.cols = cols;
    }

    /// Dense `rows × cols` copy — test/debug helper, O(rows·cols) memory.
    pub fn to_dense(&self) -> asgd_tensor::Matrix {
        let mut m = asgd_tensor::Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (idx, val) = self.row(r);
            for (&c, &v) in idx.iter().zip(val) {
                m.set(r, c as usize, v);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1,0,2],[0,0,0],[0,3,4]]
        CsrMatrix::try_new(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 1, 2],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
        let (idx, val) = m.row(2);
        assert_eq!(idx, &[1, 2]);
        assert_eq!(val, &[3.0, 4.0]);
        assert!((m.density() - 4.0 / 9.0).abs() < 1e-12);
        assert!((m.avg_row_nnz() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_indptr_len() {
        let e = CsrMatrix::try_new(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(e, Err(CsrError::IndptrLength { .. })));
    }

    #[test]
    fn rejects_nonmonotone_indptr() {
        let e = CsrMatrix::try_new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(CsrError::IndptrNotMonotone { .. })));
    }

    #[test]
    fn rejects_column_out_of_bounds() {
        let e = CsrMatrix::try_new(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(e, Err(CsrError::ColumnOutOfBounds { .. })));
    }

    #[test]
    fn rejects_unsorted_row() {
        let e = CsrMatrix::try_new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(matches!(e, Err(CsrError::UnsortedRow { .. })));
        // Duplicate column is also "not strictly increasing".
        let e = CsrMatrix::try_new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(CsrError::UnsortedRow { .. })));
    }

    #[test]
    fn rejects_nnz_mismatch() {
        let e = CsrMatrix::try_new(1, 3, vec![0, 2], vec![0, 1], vec![1.0]);
        assert!(matches!(e, Err(CsrError::NnzMismatch { .. })));
    }

    #[test]
    fn select_rows_reorders_and_repeats() {
        let m = sample();
        let b = m.select_rows(&[2, 0, 2]);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.nnz(), 6);
        assert_eq!(b.row(0), m.row(2));
        assert_eq!(b.row(1), m.row(0));
        assert_eq!(b.row(2), m.row(2));
    }

    #[test]
    fn select_rows_into_replaces_and_reuses() {
        let m = sample();
        let mut out = m.select_rows(&[0, 1, 2, 0]);
        let (indices, values) = (out.indices().as_ptr(), out.values().as_ptr());
        m.select_rows_into(&[2, 0], &mut out);
        assert_eq!(out, m.select_rows(&[2, 0]));
        assert_eq!(
            (out.indices().as_ptr(), out.values().as_ptr()),
            (indices, values)
        );
        m.select_rows_into(&[], &mut out);
        assert_eq!(out, m.select_rows(&[]));
    }

    #[test]
    fn select_rows_empty_selection() {
        let m = sample();
        let b = m.select_rows(&[]);
        assert_eq!(b.rows(), 0);
        assert_eq!(b.nnz(), 0);
        assert_eq!(b.cols(), 3);
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = CsrMatrix::from_rows(
            4,
            &[
                (vec![0, 3], vec![1.0, 2.0]),
                (vec![], vec![]),
                (vec![1], vec![5.0]),
            ],
        )
        .unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), (&[0u32, 3][..], &[1.0f32, 2.0][..]));
    }

    #[test]
    fn to_dense_matches() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.at(0, 0), 1.0);
        assert_eq!(d.at(0, 2), 2.0);
        assert_eq!(d.at(1, 1), 0.0);
        assert_eq!(d.at(2, 1), 3.0);
        assert_eq!(d.at(2, 2), 4.0);
    }

    #[test]
    fn zeros_is_valid_and_empty() {
        let m = CsrMatrix::zeros(5, 7);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.rows(), 5);
        for r in 0..5 {
            assert_eq!(m.row_nnz(r), 0);
        }
    }
}
