//! Property tests for the numeric substrate.

use focus_tensor::backend::{row_cosine, row_norm, scalar_ref, simd};
use focus_tensor::half::round_to_f16;
use focus_tensor::ops::{geometric_mean, softmax_in_place, top_k_indices, vector_ranges};
use focus_tensor::quant::{fake_quantize, QuantParams};
use focus_tensor::{f16, Matrix};
use proptest::prelude::*;

proptest! {
    /// f16 round-tripping is idempotent: once on the grid, values stay.
    #[test]
    fn fp16_round_is_idempotent(x in -65000.0f32..65000.0) {
        let once = round_to_f16(x);
        prop_assert_eq!(round_to_f16(once), once);
    }

    /// f16 ordering is preserved (monotone rounding).
    #[test]
    fn fp16_round_is_monotone(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(round_to_f16(lo) <= round_to_f16(hi));
    }

    /// Every finite f16 bit pattern survives widening and re-rounding.
    #[test]
    fn fp16_bits_round_trip(bits in 0u16..0x7C00) {
        let h = f16::from_bits(bits);
        prop_assert_eq!(f16::from_f32(h.to_f32()).to_bits(), bits);
    }

    /// Symmetric INT8 round-trip error is bounded by half a step.
    #[test]
    fn int8_error_bounded(values in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
        let params = QuantParams::from_absmax(&values);
        for &v in &values {
            let rt = params.dequantize(params.quantize(v));
            prop_assert!((rt - v).abs() <= params.scale / 2.0 + 1e-5);
        }
    }

    /// Fake quantisation never changes the sign of large-magnitude
    /// entries (those above one quantisation step).
    #[test]
    fn int8_preserves_significant_signs(rows in 1usize..6, cols in 1usize..16, seed in 0u64..100) {
        let m = Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 17) as u64 ^ seed) % 200) as f32 - 100.0
        });
        let q = fake_quantize(&m);
        for r in 0..rows {
            let params = QuantParams::from_absmax(m.row(r));
            for c in 0..cols {
                if m[(r, c)].abs() > params.scale {
                    prop_assert_eq!(m[(r, c)].is_sign_positive(), q[(r, c)].is_sign_positive());
                }
            }
        }
    }

    /// Softmax output is a probability distribution for any finite row.
    #[test]
    fn softmax_is_simplex(mut row in proptest::collection::vec(-50.0f32..50.0, 1..64)) {
        softmax_in_place(&mut row);
        let sum: f32 = row.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(row.iter().all(|v| *v >= 0.0 && v.is_finite()));
    }

    /// Cosine similarity is symmetric, bounded, and scale-invariant, on
    /// both backends (whole rows as one segment each).
    #[test]
    fn cosine_properties(
        a in proptest::collection::vec(-10.0f32..10.0, 2..32),
        scale in 0.1f32..10.0,
    ) {
        let b: Vec<f32> = a.iter().map(|v| v * scale).collect();
        let mut c = a.clone();
        c.rotate_left(1);
        for be in [scalar_ref(), simd()] {
            let ab = row_cosine(be, &a, &b);
            prop_assert!((ab - 1.0).abs() < 1e-4, "positive scaling keeps cos=1: {}", ab);
            prop_assert!(ab <= 1.0, "the clamp holds: {}", ab);
            let ac = row_cosine(be, &a, &c);
            let ca = row_cosine(be, &c, &a);
            prop_assert!((ac - ca).abs() < 1e-5);
            prop_assert!((-1.0..=1.0).contains(&ac));
        }
    }

    /// vector_ranges partitions the width exactly.
    #[test]
    fn vector_ranges_partition(len in 0usize..500, v in 1usize..70) {
        let ranges = vector_ranges(len, v);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        prop_assert_eq!(total, len);
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
    }

    /// top_k indices are unique, valid and score-sorted.
    #[test]
    fn topk_invariants(scores in proptest::collection::vec(-100.0f32..100.0, 0..60), k in 0usize..70) {
        let idx = top_k_indices(&scores, k);
        prop_assert_eq!(idx.len(), k.min(scores.len()));
        let mut seen = std::collections::HashSet::new();
        for w in idx.windows(2) {
            prop_assert!(scores[w[0]] >= scores[w[1]]);
        }
        for &i in &idx {
            prop_assert!(i < scores.len());
            prop_assert!(seen.insert(i));
        }
        // Nothing outside the selection beats anything inside.
        if let Some(&last) = idx.last() {
            for (i, &s) in scores.iter().enumerate() {
                if !idx.contains(&i) {
                    prop_assert!(s <= scores[last] + 1e-6);
                }
            }
        }
    }

    /// Geometric mean sits between min and max for positive inputs.
    #[test]
    fn geomean_bounds(values in proptest::collection::vec(0.01f64..100.0, 1..20)) {
        let g = geometric_mean(&values);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(g >= min - 1e-9 && g <= max + 1e-9);
    }

    /// L2 norm satisfies the triangle inequality, on both backends.
    #[test]
    fn norm_triangle(
        a in proptest::collection::vec(-10.0f32..10.0, 1..32),
    ) {
        let b: Vec<f32> = a.iter().rev().cloned().collect();
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        for be in [scalar_ref(), simd()] {
            prop_assert!(row_norm(be, &sum) <= row_norm(be, &a) + row_norm(be, &b) + 1e-4);
        }
    }
}
