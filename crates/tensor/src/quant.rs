//! Symmetric INT8 quantisation, used by the Table IV experiment
//! ("Synergy with Quantization").
//!
//! The paper integrates Focus with bitsandbytes-style INT8 and reports an
//! average 0.5 % accuracy drop with a 0.13 % sparsity change. We model the
//! same numeric effect: activations are quantised symmetrically per tensor
//! (or per row, matching vector-wise absmax), concentration runs on the
//! dequantised values, and the added quantisation noise slightly perturbs
//! similarity decisions near the 0.9 threshold.

use crate::matrix::Matrix;

/// The operand precision a pipeline runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DataType {
    /// IEEE binary16 storage with FP32 accumulation (the paper default).
    #[default]
    Fp16,
    /// Symmetric INT8 with per-row absmax scaling.
    Int8,
}

impl DataType {
    /// Bytes occupied by one operand element.
    pub const fn bytes_per_element(self) -> usize {
        match self {
            DataType::Fp16 => 2,
            DataType::Int8 => 1,
        }
    }
}

impl core::fmt::Display for DataType {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DataType::Fp16 => write!(f, "FP16"),
            DataType::Int8 => write!(f, "INT8"),
        }
    }
}

/// Scale parameters of a symmetric quantisation: `real = q × scale`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantParams {
    /// Multiplicative step between adjacent integer codes.
    pub scale: f32,
}

impl QuantParams {
    /// Derives the absmax scale for symmetric INT8: `scale = max|x| / 127`.
    /// An all-zero input gets scale 1.0 (any scale represents it exactly).
    pub fn from_absmax(values: &[f32]) -> Self {
        let absmax = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        QuantParams {
            scale: if absmax == 0.0 { 1.0 } else { absmax / 127.0 },
        }
    }

    /// Quantises one value to the nearest INT8 code.
    #[inline]
    pub fn quantize(&self, value: f32) -> i8 {
        (value / self.scale).round().clamp(-127.0, 127.0) as i8
    }

    /// Dequantises an INT8 code back to real value space.
    #[inline]
    pub fn dequantize(&self, code: i8) -> f32 {
        code as f32 * self.scale
    }
}

/// A matrix stored as INT8 codes with one scale per row (per-token
/// absmax, the granularity bitsandbytes uses for activations).
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedTensor {
    rows: usize,
    cols: usize,
    codes: Vec<i8>,
    row_params: Vec<QuantParams>,
}

impl QuantizedTensor {
    /// Quantises a matrix row-by-row.
    pub fn quantize(m: &Matrix) -> Self {
        let rows = m.rows();
        let cols = m.cols();
        let mut codes = Vec::with_capacity(rows * cols);
        let mut row_params = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = m.row(r);
            let params = QuantParams::from_absmax(row);
            for &v in row {
                codes.push(params.quantize(v));
            }
            row_params.push(params);
        }
        QuantizedTensor {
            rows,
            cols,
            codes,
            row_params,
        }
    }

    /// Reconstructs the real-valued matrix.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            self.row_params[r].dequantize(self.codes[r * self.cols + c])
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage footprint in bytes: one byte per code plus one f32 scale
    /// per row.
    pub fn storage_bytes(&self) -> usize {
        self.codes.len() + self.row_params.len() * core::mem::size_of::<f32>()
    }

    /// Borrows the INT8 codes of one row.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_codes(&self, r: usize) -> &[i8] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.codes[r * self.cols..(r + 1) * self.cols]
    }

    /// The quantisation parameters of one row.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_params(&self, r: usize) -> QuantParams {
        self.row_params[r]
    }
}

/// Applies a "fake quantisation" pass to a matrix: quantise + dequantise,
/// leaving the values on the INT8 grid. This is how the Table IV pipeline
/// injects quantisation noise while the rest of the code keeps operating
/// on `f32`.
pub fn fake_quantize(m: &Matrix) -> Matrix {
    QuantizedTensor::quantize(m).dequantize()
}

/// In-place [`fake_quantize`]: identical arithmetic (per-row absmax
/// scale, quantise + dequantise each element) without materialising a
/// [`QuantizedTensor`]. Reused activation workspaces quantise through
/// here so the hot path stays allocation-free.
pub fn fake_quantize_in_place(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let params = QuantParams::from_absmax(row);
        for v in row.iter_mut() {
            *v = params.dequantize(params.quantize(*v));
        }
    }
}

/// Batched, runtime-dispatched [`fake_quantize_in_place`]: the per-row
/// absmax scale comes from [`crate::math::quant_absmax`] and the
/// quantise + dequantise round trip runs over the whole row through
/// [`crate::math::int8_round_fill`]. Bit-identical to the sequential
/// reference on every input — absmax is an order-independent reduction
/// and the round trip is a pure per-element map (see the kernel docs
/// for the round-half-away-from-zero and NaN/`−0.0` parity argument).
pub fn fake_quantize_in_place_batched(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let absmax = crate::math::quant_absmax(row);
        let scale = if absmax == 0.0 { 1.0 } else { absmax / 127.0 };
        crate::math::int8_round_fill(row, scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_dequantize_error_is_bounded_by_half_step() {
        let vals = [0.0f32, 0.5, -1.0, 0.999, -0.333, 0.125];
        let params = QuantParams::from_absmax(&vals);
        for &v in &vals {
            let rt = params.dequantize(params.quantize(v));
            assert!(
                (rt - v).abs() <= params.scale / 2.0 + 1e-6,
                "error beyond half step for {v}"
            );
        }
    }

    #[test]
    fn absmax_value_is_exactly_representable() {
        let vals = [3.7f32, -9.2, 1.0];
        let params = QuantParams::from_absmax(&vals);
        let q = params.quantize(-9.2);
        assert_eq!(q, -127);
        assert!((params.dequantize(q) + 9.2).abs() < 1e-5);
    }

    #[test]
    fn zero_tensor_round_trips_exactly() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(fake_quantize(&m), m);
    }

    #[test]
    fn per_row_scaling_isolates_outliers() {
        // A huge value in row 0 must not destroy row 1's precision.
        let m = Matrix::from_vec(2, 2, vec![1000.0, 1.0, 0.01, 0.02]);
        let q = fake_quantize(&m);
        assert!((q[(1, 0)] - 0.01).abs() < 0.001);
        assert!((q[(1, 1)] - 0.02).abs() < 0.001);
    }

    #[test]
    fn storage_is_roughly_one_byte_per_element() {
        let m = Matrix::zeros(16, 64);
        let q = QuantizedTensor::quantize(&m);
        assert_eq!(q.storage_bytes(), 16 * 64 + 16 * 4);
        assert_eq!(q.rows(), 16);
        assert_eq!(q.cols(), 64);
        assert_eq!(q.row_codes(3).len(), 64);
    }

    #[test]
    fn fake_quantize_is_idempotent() {
        let m = Matrix::from_fn(4, 8, |r, c| ((r * 13 + c * 7) % 29) as f32 / 7.0 - 2.0);
        let once = fake_quantize(&m);
        let twice = fake_quantize(&once);
        assert_eq!(once, twice, "values already on the grid must not move");
    }

    #[test]
    fn in_place_fake_quantize_matches_allocating_path() {
        let m = Matrix::from_fn(7, 24, |r, c| ((r * 31 + c * 17) % 53) as f32 / 9.0 - 2.5);
        let reference = fake_quantize(&m);
        let mut in_place = m.clone();
        fake_quantize_in_place(&mut in_place);
        assert_eq!(in_place, reference);
    }

    #[test]
    fn batched_fake_quantize_matches_reference() {
        // Widths straddling the 8-lane boundary, plus awkward values:
        // exact ties, zeros, negatives, and a constant row.
        for cols in [1usize, 7, 8, 9, 24, 65] {
            let m = Matrix::from_fn(5, cols, |r, c| match (r, c % 5) {
                (4, _) => 3.25,
                (_, 0) => 0.0,
                (r, k) => ((r * 37 + k * 11) as f32 - 40.0) / 6.5,
            });
            let mut reference = m.clone();
            fake_quantize_in_place(&mut reference);
            let mut batched = m.clone();
            fake_quantize_in_place_batched(&mut batched);
            for (a, b) in reference.as_slice().iter().zip(batched.as_slice()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "batched path diverged ({cols} cols)"
                );
            }
        }
    }

    #[test]
    fn datatype_reports_bytes() {
        assert_eq!(DataType::Fp16.bytes_per_element(), 2);
        assert_eq!(DataType::Int8.bytes_per_element(), 1);
        assert_eq!(DataType::default(), DataType::Fp16);
        assert_eq!(format!("{}", DataType::Int8), "INT8");
    }
}
