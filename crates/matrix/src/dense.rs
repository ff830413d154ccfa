//! Dense row-major matrices of `f64` *words* (the paper's unit of data).

use std::ops::{Index, IndexMut};

/// Minimal deterministic SplitMix64 generator for reproducible test
/// matrices (replaces the external `rand` dependency; only uniformity and
/// reproducibility matter here).
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform on (-1, 1).
    fn next_unit(&mut self) -> f64 {
        // 53 random mantissa bits → [0, 1), then map to (-1, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        2.0 * u - 1.0
    }
}

/// A dense row-major matrix of `f64`.
///
/// This is deliberately a simple owned type: the paper's algorithms move
/// explicit blocks between processors, so block extraction/insertion
/// ([`Matrix::submatrix`], [`Matrix::set_submatrix`]) and row-set gathers
/// ([`Matrix::take_rows`]) are the fundamental operations. The local
/// kernels, which recurse over blocks of one matrix, borrow them in
/// place as [`MatRef`]/[`MatMut`] instead of copying them out.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// A matrix with i.i.d. entries uniform on (-1, 1), reproducible from
    /// `seed`. (Uniform suffices for the paper's workloads; these are
    /// generic dense test matrices.)
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let data = (0..rows * cols).map(|_| rng.next_unit()).collect();
        Matrix { rows, cols, data }
    }

    /// Copy a borrowed row-major buffer into a matrix.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the underlying row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` mutably together with row `k` shared — the
    /// writer/reader pair of an axpy-style row update (`row_i += α·row_k`).
    ///
    /// # Panics
    /// If `i == k` or either index is out of bounds.
    pub fn row_pair_mut(&mut self, i: usize, k: usize) -> (&mut [f64], &[f64]) {
        assert_ne!(i, k, "row_pair_mut: rows must be distinct");
        let w = self.cols;
        if i < k {
            let (lo, hi) = self.data.split_at_mut(k * w);
            (&mut lo[i * w..(i + 1) * w], &hi[..w])
        } else {
            let (lo, hi) = self.data.split_at_mut(i * w);
            (&mut hi[..w], &lo[k * w..(k + 1) * w])
        }
    }

    /// Copy of the submatrix `rows r0..r1`, `cols c0..c1`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "col range out of bounds");
        let mut out = Matrix::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            out.row_mut(i - r0).copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Overwrite the block whose top-left corner is `(r0, c0)` with `block`.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(r0 + block.rows <= self.rows, "block exceeds rows");
        assert!(c0 + block.cols <= self.cols, "block exceeds cols");
        for i in 0..block.rows {
            self.row_mut(r0 + i)[c0..c0 + block.cols].copy_from_slice(block.row(i));
        }
    }

    /// The rows with the given global indices, in the given order.
    pub fn take_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (l, &g) in idx.iter().enumerate() {
            out.row_mut(l).copy_from_slice(self.row(g));
        }
        out
    }

    /// Scatter rows back: `self.row(idx[l]) = block.row(l)`.
    pub fn put_rows(&mut self, idx: &[usize], block: &Matrix) {
        assert_eq!(idx.len(), block.rows, "row count mismatch");
        assert_eq!(self.cols, block.cols, "col count mismatch");
        for (l, &g) in idx.iter().enumerate() {
            self.row_mut(g).copy_from_slice(block.row(l));
        }
    }

    /// Stack vertically: `[self; other]`.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack: column mismatch");
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Stack horizontally: `[self other]`.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack: row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// `self *= s`.
    pub fn scale(&mut self, s: f64) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// `self - other` as a new matrix.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// The whole matrix as a borrowed block.
    pub fn view(&self) -> MatRef<'_> {
        MatRef::new(&self.data, self.rows, self.cols, self.cols)
    }

    /// The block `rows r0..r1`, `cols c0..c1`, borrowed in place.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatRef<'_> {
        self.view().block(r0, r1, c0, c1)
    }

    /// The whole matrix as a mutable borrowed block.
    pub fn view_mut(&mut self) -> MatMut<'_> {
        MatMut::new(&mut self.data, self.rows, self.cols, self.cols)
    }

    /// The block `rows r0..r1`, `cols c0..c1`, mutably borrowed in place.
    pub fn block_mut(&mut self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatMut<'_> {
        self.view_mut().into_block(r0, r1, c0, c1)
    }

    /// The matrix cut into consecutive blocks of `counts[i]` whole
    /// rows, each mutably borrowed in place — one writer per block (the
    /// ranks of a block-row distribution filling one result).
    ///
    /// # Panics
    /// If the counts do not add up to the row count.
    pub fn row_blocks_mut(&mut self, counts: &[usize]) -> Vec<MatMut<'_>> {
        assert_eq!(counts.iter().sum::<usize>(), self.rows, "row counts");
        let cols = self.cols;
        let mut rest = self.data.as_mut_slice();
        counts
            .iter()
            .map(|&rows| {
                let (block, tail) = std::mem::take(&mut rest).split_at_mut(rows * cols);
                rest = tail;
                MatMut::new(block, rows, cols, cols)
            })
            .collect()
    }

    /// Keep only the upper triangle (entries below the main diagonal
    /// zeroed). Works for rectangular matrices too.
    pub fn upper_triangular_part(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            if j >= i {
                self[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// True if all entries strictly below the main diagonal are ≤ `tol`
    /// in magnitude.
    pub fn is_upper_triangular(&self, tol: f64) -> bool {
        for i in 1..self.rows {
            for j in 0..i.min(self.cols) {
                if self[(i, j)].abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// True if `self` is unit lower trapezoidal: ones on the main diagonal
    /// and zeros strictly above it (within `tol`).
    pub fn is_unit_lower_trapezoidal(&self, tol: f64) -> bool {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i == j {
                    if (self[(i, j)] - 1.0).abs() > tol {
                        return false;
                    }
                } else if j > i && self[(i, j)].abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// A borrowed row-major block: `rows × cols` words whose rows lie `ld`
/// words apart in `data` (`ld ≥ cols`). The block of a [`Matrix`] a
/// kernel reads where it lies ([`Matrix::block`]).
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    ld: usize,
}

/// Words a `rows × cols` block at row stride `ld` spans.
fn span(rows: usize, cols: usize, ld: usize) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        (rows - 1) * ld + cols
    }
}

/// The word range, within a `rows × cols` block at row stride `ld`, of
/// its sub-block `rows r0..r1`, `cols c0..c1` (bounds-checked).
fn sub_span(
    (rows, cols, ld): (usize, usize, usize),
    (r0, r1, c0, c1): (usize, usize, usize, usize),
) -> std::ops::Range<usize> {
    assert!(r0 <= r1 && r1 <= rows, "row range out of bounds");
    assert!(c0 <= c1 && c1 <= cols, "col range out of bounds");
    let len = span(r1 - r0, c1 - c0, ld);
    let start = if len == 0 { 0 } else { r0 * ld + c0 };
    start..start + len
}

impl<'a> MatRef<'a> {
    /// View `data` as a `rows × cols` block at row stride `ld`.
    ///
    /// # Panics
    /// If `ld < cols` or `data` is shorter than the block's span.
    pub fn new(data: &'a [f64], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= cols, "row stride {ld} below the {cols} columns");
        assert!(data.len() >= span(rows, cols, ld), "buffer too short");
        MatRef {
            data,
            rows,
            cols,
            ld,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Words between the starts of consecutive rows.
    pub(crate) fn ld(&self) -> usize {
        self.ld
    }

    /// The underlying words, from the block's first entry on: at least
    /// up to its last.
    pub(crate) fn span(&self) -> &'a [f64] {
        self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows, "row {i} out of bounds");
        &self.data[i * self.ld..i * self.ld + self.cols]
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols, "({i},{j}) out of bounds");
        self.data[i * self.ld + j]
    }

    /// An owned copy of the block: one `memcpy` where its rows are
    /// contiguous (whole rows of a [`Matrix`]), row by row otherwise.
    pub fn to_matrix(&self) -> Matrix {
        let data = if self.ld == self.cols || self.rows <= 1 {
            self.data[..self.rows * self.cols].to_vec()
        } else {
            let mut data = Vec::with_capacity(self.rows * self.cols);
            for i in 0..self.rows {
                data.extend_from_slice(self.row(i));
            }
            data
        };
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// The sub-block `rows r0..r1`, `cols c0..c1`.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatRef<'a> {
        let words = sub_span((self.rows, self.cols, self.ld), (r0, r1, c0, c1));
        MatRef {
            data: &self.data[words],
            rows: r1 - r0,
            cols: c1 - c0,
            ld: self.ld,
        }
    }
}

/// The mutable counterpart of [`MatRef`].
#[derive(Debug)]
pub struct MatMut<'a> {
    data: &'a mut [f64],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a> MatMut<'a> {
    /// View `data` as a mutable `rows × cols` block at row stride `ld`.
    ///
    /// # Panics
    /// If `ld < cols` or `data` is shorter than the block's span.
    pub fn new(data: &'a mut [f64], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= cols, "row stride {ld} below the {cols} columns");
        assert!(data.len() >= span(rows, cols, ld), "buffer too short");
        MatMut {
            data,
            rows,
            cols,
            ld,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Words between the starts of consecutive rows.
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// The block, borrowed shared.
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
        }
    }

    /// The same block, borrowed for a shorter time.
    pub fn reborrow(&mut self) -> MatMut<'_> {
        MatMut {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
        }
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows, "row {i} out of bounds");
        &mut self.data[i * self.ld..i * self.ld + self.cols]
    }

    /// The mutable sub-block `rows r0..r1`, `cols c0..c1`, for the view's
    /// whole lifetime.
    pub fn into_block(self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatMut<'a> {
        let words = sub_span((self.rows, self.cols, self.ld), (r0, r1, c0, c1));
        let data: &'a mut [f64] = self.data;
        MatMut {
            data: &mut data[words],
            rows: r1 - r0,
            cols: c1 - c0,
            ld: self.ld,
        }
    }

    /// The underlying words, from the block's first entry to its last.
    pub(crate) fn span_mut(&mut self) -> &mut [f64] {
        self.data
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_identity_shapes() {
        let z = Matrix::zeros(3, 5);
        assert_eq!((z.rows(), z.cols()), (3, 5));
        assert_eq!(z.frobenius_norm(), 0.0);
        let i = Matrix::identity(4);
        assert_eq!(i[(2, 2)], 1.0);
        assert_eq!(i[(2, 3)], 0.0);
        assert_eq!(i.frobenius_norm(), 2.0);
    }

    #[test]
    fn from_fn_and_indexing() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn random_is_reproducible_and_bounded() {
        let a = Matrix::random(10, 7, 123);
        let b = Matrix::random(10, 7, 123);
        let c = Matrix::random(10, 7, 124);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.max_abs() < 1.0);
        assert!(a.frobenius_norm() > 0.0);
    }

    #[test]
    fn submatrix_roundtrip() {
        let m = Matrix::from_fn(5, 6, |i, j| (i * 6 + j) as f64);
        let s = m.submatrix(1, 4, 2, 5);
        assert_eq!((s.rows(), s.cols()), (3, 3));
        assert_eq!(s[(0, 0)], m[(1, 2)]);
        assert_eq!(s[(2, 2)], m[(3, 4)]);
        let mut back = Matrix::zeros(5, 6);
        back.set_submatrix(1, 2, &s);
        assert_eq!(back[(3, 4)], m[(3, 4)]);
        assert_eq!(back[(0, 0)], 0.0);
    }

    #[test]
    fn empty_submatrix_is_ok() {
        let m = Matrix::random(4, 4, 1);
        let s = m.submatrix(2, 2, 0, 4);
        assert_eq!((s.rows(), s.cols()), (0, 4));
        let s2 = m.submatrix(0, 4, 3, 3);
        assert_eq!((s2.rows(), s2.cols()), (4, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn submatrix_bounds_checked() {
        let m = Matrix::zeros(3, 3);
        let _ = m.submatrix(0, 4, 0, 3);
    }

    #[test]
    fn borrowed_blocks_address_the_matrix_in_place() {
        let mut m = Matrix::from_fn(5, 6, |i, j| (i * 6 + j) as f64);
        let b = m.block(1, 4, 2, 5);
        assert_eq!((b.rows(), b.cols()), (3, 3));
        assert_eq!(b.row(2), &[20.0, 21.0, 22.0]);
        assert_eq!(b.at(0, 1), m[(1, 3)]);
        assert_eq!(b.block(1, 3, 1, 2).at(1, 0), m[(3, 3)]);
        // Empty blocks at the far corner are fine.
        assert_eq!(m.block(5, 5, 0, 6).rows(), 0);
        assert_eq!(m.block(0, 5, 6, 6).cols(), 0);
        // Owned copies: strided, whole rows (contiguous), one row, none.
        for (r0, r1, c0, c1) in [(1, 4, 2, 5), (1, 4, 0, 6), (2, 3, 1, 4), (5, 5, 0, 6)] {
            assert_eq!(
                m.block(r0, r1, c0, c1).to_matrix(),
                m.submatrix(r0, r1, c0, c1)
            );
        }

        let mut w = m.block_mut(3, 5, 4, 6);
        w.row_mut(1)[0] = -1.0;
        w.reborrow().into_block(0, 1, 1, 2).row_mut(0)[0] = -2.0;
        assert_eq!(m[(4, 4)], -1.0);
        assert_eq!(m[(3, 5)], -2.0);
        assert_eq!(m[(4, 3)], 27.0, "neighbouring columns untouched");
    }

    #[test]
    fn row_blocks_partition_the_matrix() {
        let mut m = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64);
        let mut blocks = m.row_blocks_mut(&[2, 0, 3]);
        assert_eq!(
            blocks.iter().map(|b| b.rows()).collect::<Vec<_>>(),
            [2, 0, 3]
        );
        assert_eq!(blocks[2].as_ref().row(0), &[6.0, 7.0, 8.0]);
        blocks[0].row_mut(1)[2] = -1.0;
        blocks[2].row_mut(2)[0] = -2.0;
        assert_eq!(m[(1, 2)], -1.0);
        assert_eq!(m[(4, 0)], -2.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn borrowed_block_bounds_checked() {
        let m = Matrix::zeros(3, 3);
        let _ = m.block(0, 3, 1, 4);
    }

    #[test]
    fn take_put_rows_roundtrip() {
        let m = Matrix::from_fn(6, 2, |i, j| (i * 2 + j) as f64);
        let idx = [4, 0, 2];
        let t = m.take_rows(&idx);
        assert_eq!(t.row(0), m.row(4));
        assert_eq!(t.row(1), m.row(0));
        let mut back = Matrix::zeros(6, 2);
        back.put_rows(&idx, &t);
        assert_eq!(back.row(4), m.row(4));
        assert_eq!(back.row(0), m.row(0));
        assert_eq!(back.row(2), m.row(2));
        assert_eq!(back.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(1, 2, |_, j| (10 + j) as f64);
        let v = a.vstack(&b);
        assert_eq!((v.rows(), v.cols()), (3, 2));
        assert_eq!(v.row(2), &[10.0, 11.0]);
        let c = Matrix::from_fn(2, 1, |i, _| (20 + i) as f64);
        let h = a.hstack(&c);
        assert_eq!((h.rows(), h.cols()), (2, 3));
        assert_eq!(h[(1, 2)], 21.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::random(4, 7, 5);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(3, 2)], m[(2, 3)]);
    }

    #[test]
    fn arithmetic_ops() {
        let mut a = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        let b = Matrix::identity(2);
        a.add_assign(&b);
        assert_eq!(a[(0, 0)], 1.0);
        a.sub_assign(&b);
        assert_eq!(a[(0, 0)], 0.0);
        a.scale(3.0);
        assert_eq!(a[(1, 1)], 9.0);
        let d = a.sub(&a);
        assert_eq!(d.frobenius_norm(), 0.0);
    }

    #[test]
    fn triangular_predicates() {
        let r = Matrix::from_fn(3, 3, |i, j| if j >= i { 1.0 } else { 0.0 });
        assert!(r.is_upper_triangular(0.0));
        let mut not_r = r.clone();
        not_r[(2, 0)] = 0.5;
        assert!(!not_r.is_upper_triangular(1e-12));
        assert!(not_r.upper_triangular_part().is_upper_triangular(0.0));

        let v = Matrix::from_fn(4, 2, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                0.3
            } else {
                0.0
            }
        });
        assert!(v.is_unit_lower_trapezoidal(0.0));
        let mut not_v = v.clone();
        not_v[(0, 1)] = 0.1;
        assert!(!not_v.is_unit_lower_trapezoidal(1e-12));
    }

    #[test]
    fn upper_trapezoidal_rectangular() {
        // is_upper_triangular must handle rows > cols (trapezoid check).
        let m = Matrix::from_fn(5, 2, |i, j| if j >= i { 2.0 } else { 0.0 });
        assert!(m.is_upper_triangular(0.0));
    }
}
