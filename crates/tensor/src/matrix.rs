//! Dense row-major matrices: the activation buffers the synthesiser
//! fills, the stage kernels convert and the similarity gather reads row
//! by row.
//!
//! The element type is the stored precision. `Matrix` alone means
//! `Matrix<f32>`, the full-precision buffer every reference path uses;
//! `Matrix<f16>` holds FP16 bits, half the bytes, for stages whose
//! datapath precision is FP16. Both go through one [`Element`]-generic
//! store: a row of either type is a kernel operand ([`RowRef`]) that
//! the segment kernels widen exactly on load.

use core::fmt;

use crate::backend::{Backend, RowRef};
use crate::half::f16;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for crate::half::f16 {}
}

/// An element type a [`Matrix`] can store: `f32`, or [`f16`](struct@f16) bits at
/// the FP16 datapath's precision. Sealed: the kernels know exactly
/// these two.
pub trait Element:
    Copy + Default + PartialEq + fmt::Debug + Send + Sync + 'static + sealed::Sealed
{
    /// Whether the element is FP16 bits. The SIMD kernels load such
    /// rows through `vcvtph2ps`, eight elements per 128-bit load.
    const IS_F16: bool;

    /// The stored value as the f32 the datapath computes with. Exact:
    /// every binary16 value is an f32.
    fn widen(self) -> f32;

    /// Borrows a row of these elements as a kernel operand.
    fn row_ref(row: &[Self]) -> RowRef<'_>;

    /// Stores one datapath row `src` into `dst` at this element's
    /// precision: a copy for `f32`, and for [`f16`](struct@f16) one
    /// [`Backend::f16_encode`] launch, whose bits widen back to
    /// exactly what [`Backend::f16_round`] would have left in place.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    fn store(src: &[f32], dst: &mut [Self], backend: &dyn Backend);
}

impl Element for f32 {
    const IS_F16: bool = false;

    #[inline]
    fn widen(self) -> f32 {
        self
    }

    fn row_ref(row: &[f32]) -> RowRef<'_> {
        RowRef::F32(row)
    }

    fn store(src: &[f32], dst: &mut [f32], _backend: &dyn Backend) {
        dst.copy_from_slice(src);
    }
}

impl Element for f16 {
    const IS_F16: bool = true;

    #[inline]
    fn widen(self) -> f32 {
        self.to_f32()
    }

    fn row_ref(row: &[f16]) -> RowRef<'_> {
        RowRef::F16(row)
    }

    fn store(src: &[f32], dst: &mut [f16], backend: &dyn Backend) {
        backend.f16_encode(src, dst);
    }
}

/// A dense row-major matrix of `E` values (`f32` by default).
///
/// # Examples
///
/// ```
/// use focus_tensor::Matrix;
///
/// let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Matrix<E = f32> {
    rows: usize,
    cols: usize,
    data: Vec<E>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a generator called as `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix that takes ownership of `data` in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}×{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }
}

impl<E: Element> Matrix<E> {
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
        self.data.len()
    }

    /// Returns `true` if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes of element storage the matrix holds: its allocation's
    /// capacity, which [`Matrix::resize`] keeps at the high-water
    /// shape.
    pub fn held_bytes(&self) -> usize {
        self.data.capacity() * core::mem::size_of::<E>()
    }

    /// Reshapes the matrix to `rows × cols` in place, reusing the
    /// existing allocation where possible. Elements beyond the old
    /// total length are zero; all others keep their raw storage values
    /// reinterpreted in the new shape — callers are expected to
    /// overwrite every row before reading. This is the recycling
    /// primitive behind the executor's activation workspaces: a buffer
    /// resized every layer allocates only on high-water-mark growth.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, E::default());
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[E] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [E] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [E] {
        &mut self.data
    }
}

impl<E> core::ops::Index<(usize, usize)> for Matrix<E> {
    type Output = E;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &E {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl<E> core::ops::IndexMut<(usize, usize)> for Matrix<E> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut E {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend;

    #[test]
    fn resize_reuses_storage_and_zeroes_growth() {
        let mut m = Matrix::from_fn(4, 8, |r, c| (r * 8 + c) as f32);
        m.resize(2, 8);
        assert_eq!((m.rows(), m.cols()), (2, 8));
        assert_eq!(m.row(1)[7], 15.0);
        m.resize(3, 16);
        assert_eq!(m.len(), 48);
        assert_eq!(m.row(2)[15], 0.0, "grown elements are zero");
    }

    #[test]
    fn fp16_rounding_applies_elementwise() {
        let mut a = Matrix::from_vec(1, 2, vec![0.1, 2.0]);
        backend::scalar_ref().f16_round(&mut a);
        assert_ne!(a[(0, 0)], 0.1);
        assert_eq!(a[(0, 1)], 2.0);
    }

    #[test]
    fn fp16_store_holds_half_the_bytes_and_widens_to_the_rounded_values() {
        let src = Matrix::from_fn(3, 8, |r, c| (r * 8 + c) as f32 * 0.1 - 1.0);
        let mut rounded = src.clone();
        backend::scalar_ref().f16_round(&mut rounded);
        let mut stored: Matrix<f16> = Matrix::default();
        stored.resize(3, 8);
        for r in 0..3 {
            f16::store(src.row(r), stored.row_mut(r), backend::simd());
        }
        let widened: Vec<f32> = stored.as_slice().iter().map(|h| h.widen()).collect();
        assert_eq!(widened, rounded.as_slice());
        assert_eq!(stored.held_bytes() * 2, rounded.held_bytes());
    }
}
