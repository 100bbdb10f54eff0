//! Row-major dense `f32` matrix.

use crate::kernels::transpose_block;

/// A dense, row-major `f32` matrix over the element storage `S`:
/// [`Matrix`] owns its elements, [`MatRef`] borrows them.
///
/// This is the storage type for model parameters, activations, and gradients.
/// It is intentionally minimal: contiguous storage, explicit dimensions, and
/// cheap row slicing. All compute kernels live in [`crate::ops`] and
/// [`crate::numerics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat<S> {
    rows: usize,
    cols: usize,
    data: S,
}

/// An owned matrix.
pub type Matrix = Mat<Vec<f32>>;

/// A borrowed matrix: a shape over a slice it does not own. This is how a
/// model hands the kernels a parameter block that lives inside its one flat
/// buffer. Every kernel operand that takes one also takes a `&Matrix`,
/// through `From`.
pub type MatRef<'a> = Mat<&'a [f32]>;

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major vector.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// The backing row-major mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Re-shapes `self` to `rows × cols` in place, reusing the backing
    /// allocation whenever its capacity suffices. Element values after the
    /// call are unspecified (kernels that write the full output, like GEMM
    /// with `beta = 0`, don't care); only the shape is guaranteed.
    ///
    /// This is the growth primitive of the zero-allocation training
    /// workspace: after the first (largest) batch, subsequent calls never
    /// touch the allocator.
    pub fn reshape_in_place(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }
}

impl<'a> MatRef<'a> {
    /// Views `data` as a row-major `rows × cols` matrix.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix view length");
        Self { rows, cols, data }
    }
}

impl<'a> From<&'a Matrix> for MatRef<'a> {
    fn from(m: &'a Matrix) -> Self {
        MatRef::new(m.rows, m.cols, &m.data)
    }
}

impl<S: AsRef<[f32]>> Mat<S> {
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

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the matrix holds zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.as_slice()[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.as_slice()[start..start + self.cols]
    }

    /// The backing row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        self.data.as_ref()
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The transpose as a new matrix, through [`transpose_block`] (64-square
    /// tiles, moved in 8 × 8 register blocks on AVX2 hosts): pure element
    /// copies, bit-identical on every dispatch path.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        transpose_block(self.as_slice(), self.rows, self.cols, &mut out.data);
        out
    }

    /// Largest absolute element-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.as_slice()
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.at(1, 2), 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "matrix data length")]
    fn from_vec_length_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 7 + c * 3) as f32);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed().at(2, 1), m.at(1, 2));
    }

    /// The element-wise definition `transposed` must reproduce.
    fn transpose_spec(m: &Matrix) -> Matrix {
        Matrix::from_fn(m.cols(), m.rows(), |r, c| m.at(c, r))
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Distinct value per element, NaN/−0.0 included: a copy kernel must
    /// move bit patterns, not numbers.
    fn patterned(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| match (r * cols + c) % 97 {
            0 => -0.0,
            1 => f32::NAN,
            _ => (r * cols + c) as f32 - 40.0,
        })
    }

    #[test]
    fn tiled_transpose_handles_degenerate_and_ragged_shapes() {
        let t = 64;
        for (rows, cols) in [
            (0, 7),
            (7, 0),
            (1, 100),
            (100, 1),
            (t, t),
            (t - 1, t + 1),
            (2 * t + 3, 3 * t - 5),
        ] {
            let m = patterned(rows, cols);
            assert_eq!(
                bits(&m.transposed()),
                bits(&transpose_spec(&m)),
                "{rows}x{cols}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn tiled_transpose_matches_definition(rows in 0usize..80, cols in 0usize..80) {
            let m = patterned(rows, cols);
            proptest::prop_assert_eq!(bits(&m.transposed()), bits(&transpose_spec(&m)));
        }
    }

    #[test]
    fn reshape_in_place_reuses_allocation() {
        let mut m = Matrix::zeros(8, 4);
        let ptr = m.as_slice().as_ptr();
        m.reshape_in_place(4, 4);
        assert_eq!(m.shape(), (4, 4));
        m.reshape_in_place(8, 4);
        assert_eq!(m.shape(), (8, 4));
        // Shrink + regrow within capacity must not move the buffer.
        assert_eq!(m.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn zero_sized_matrices_are_fine() {
        let m = Matrix::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.rows(), 0);
        let t = m.transposed();
        assert_eq!(t.shape(), (5, 0));
    }

    #[test]
    fn fill_sets_every_element() {
        let mut dst = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        dst.fill(7.0);
        assert_eq!(dst.as_slice(), &[7.0; 4]);
    }
}
