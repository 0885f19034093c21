//! The [`Backend`] contract, property-tested end to end:
//!
//! * **Bit-identity** — the `Simd` backend must match the `ScalarRef`
//!   oracle bit for bit on every kernel family (segment norms and
//!   segment scoring, many segments a launch or one spanning a whole
//!   row, INT8 fake-quantise, FP16 rounding), across widths sweeping
//!   every SIMD tail length, segment widths, slice
//!   alignments, counts sweeping the 8-wide group boundary, and wide
//!   magnitude spreads. A whole measured pipeline
//!   run on either backend must therefore produce identical results,
//!   for several cells, both schedules and both precisions.
//! * **Dispatch completeness** — a counting backend that forwards to
//!   `Simd` sees every stage-level kernel family launched through the
//!   trait, SEC's attention noise included, proving the stage graph
//!   routes all of them through it (nothing is open-coded behind its
//!   back).

use std::sync::atomic::{AtomicUsize, Ordering};

use focus::baselines::{AdaptivBaseline, CmcBaseline, Concentrator, FrameFusionBaseline};
use focus::core::exec::{GatherStage, LayerCtx, SemanticStage, StageWorkspace};
use focus::core::pipeline::{FocusPipeline, PipelineResult};
use focus::core::sic::{ConvLayouter, Fhw};
use focus::core::FocusConfig;
use focus::sim::ArchConfig;
use focus::tensor::backend::{
    row_cosine, row_norm, scalar_ref, simd, Backend, MatchTile, RowRef, RowRef::F32,
};
use focus::tensor::math::{cosine_from_dot, dot_chunked_scalar, NO_MATCH};
use focus::tensor::{f16, DataType, Matrix};
use focus::vlm::embedding::Stage;
use focus::vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};
use proptest::prelude::*;

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: value {i} diverged ({x} vs {y})"
        );
    }
}

fn assert_matrix_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: rows");
    assert_eq!(a.cols(), b.cols(), "{what}: cols");
    for r in 0..a.rows() {
        assert_bits_eq(a.row(r), b.row(r), what);
    }
}

/// Deterministic pseudo-random fill so candidate sets vary without
/// blowing up the proptest input space.
fn synth_values(n: usize, salt: usize, scale: f32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (salt.wrapping_mul(131).wrapping_add(i.wrapping_mul(31))) % 193;
            (h as f32 / 96.5 - 1.0) * scale
        })
        .collect()
}

/// Segment widths around the 8-lane chunk: below, at, and past it.
const SEG_WIDTHS: [usize; 6] = [1, 5, 8, 16, 32, 33];

/// A `width`-wide row of `seg`-wide segments: segment `i` is all zero
/// when `i % zero_mod == 2`, overflows (its squares exceed `f32::MAX`)
/// when `i % 7 == 3`, and holds [`synth_values`] otherwise.
fn segmented_row(width: usize, seg: usize, salt: usize, scale: f32, zero_mod: usize) -> Vec<f32> {
    synth_values(width, salt, scale)
        .into_iter()
        .enumerate()
        .map(|(k, v)| match k / seg {
            i if i % zero_mod == 2 => 0.0,
            i if i % 7 == 3 => 1e30 * v.signum(),
            _ => v,
        })
        .collect()
}

/// Probe patterns for the FP16 encode, from one raw word: the raw bits
/// themselves, a value in the FP16 normal range, one on the FP16
/// subnormal grid or below it (underflow to ±0), or an edge pattern —
/// each with the word's sign and mantissa bits.
fn f16_probe(raw: u32) -> f32 {
    const EDGES: [u32; 10] = [
        0x0000_0000, // ±0
        0x7F80_0000, // ±inf
        0x7FC0_0000, // quiet NaN
        0x7F80_0001, // signalling NaN
        0x7FFF_FFFF, // NaN, full payload
        0x477F_F000, // 65520: the overflow midpoint (→ inf)
        0x477F_E000, // 65504: the largest finite FP16
        0x3380_0000, // 2⁻²⁴: the smallest FP16 subnormal
        0x3300_0000, // 2⁻²⁵: a tie that rounds to zero
        0x3380_1000, // ties-to-even on the subnormal grid
    ];
    let sign = raw & 0x8000_0000;
    let mant = raw & 0x007F_FFFF;
    let pick = (raw >> 23) & 0xFF;
    f32::from_bits(match pick % 4 {
        0 => raw,
        1 => sign | ((113 + pick % 30) << 23) | mant,
        2 => sign | ((100 + pick % 14) << 23) | mant,
        _ => sign | EDGES[mant as usize % EDGES.len()],
    })
}

/// Segment indices into `count` segments: all of them in order for
/// `kind` 0, otherwise a shuffled two-thirds subset, with its first
/// index repeated for `kind` 2.
fn index_list(count: usize, salt: usize, kind: usize) -> Vec<usize> {
    if kind == 0 {
        return (0..count).collect();
    }
    let mix = |s: usize| (s.wrapping_mul(2_654_435_761) ^ salt.wrapping_mul(40_503)) % 1009;
    let mut list: Vec<usize> = (0..count).filter(|&s| mix(s) % 3 != 0).collect();
    list.sort_by_key(|&s| mix(7 * s + 1));
    if kind == 2 {
        list.extend(list.first().copied());
    }
    list
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Simd` ≡ `ScalarRef` bit for bit on segment norms and gather
    /// scoring of one row against each candidate, for every width tail,
    /// segment width, slice alignment and candidate count.
    #[test]
    fn gather_scoring_backends_are_bit_identical(
        width in 1usize..70,
        offset in 0usize..8,
        n_cands in 0usize..20,
        salt in 0usize..1000,
        exp in -20i32..20,
        seg_pick in 0usize..6,
    ) {
        let scale = (exp as f32).exp2();
        let seg = SEG_WIDTHS[seg_pick];
        let count = width.div_ceil(seg);
        let all: Vec<usize> = (0..count).collect();
        // Over-allocate and sub-slice so the row starts at every
        // alignment relative to the allocation.
        let backing = synth_values(width + offset, salt, scale);
        let row = &backing[offset..];
        let (s, f) = (scalar_ref(), simd());

        let mut norm = vec![0.0f32; count];
        s.segment_norms(F32(row), seg, &all, &mut norm);
        let mut norm_f = vec![0.0f32; count];
        f.segment_norms(F32(row), seg, &all, &mut norm_f);
        assert_bits_eq(&norm_f, &norm, "row segment_norms simd vs scalar");
        for c in 0..n_cands {
            let cand = synth_values(width, salt + 7 * c + 1, scale);
            let mut cand_norm = vec![0.0f32; count];
            s.segment_norms(F32(&cand), seg, &all, &mut cand_norm);
            let mut cand_norm_f = vec![0.0f32; count];
            f.segment_norms(F32(&cand), seg, &all, &mut cand_norm_f);
            assert_bits_eq(&cand_norm_f, &cand_norm, "candidate segment_norms simd vs scalar");

            let mut scalar = vec![0.0f32; count];
            s.segment_scores(F32(row), F32(&cand), seg, &all, &norm, &cand_norm, &mut scalar);
            let mut dispatched = vec![0.0f32; count];
            f.segment_scores(F32(row), F32(&cand), seg, &all, &norm, &cand_norm, &mut dispatched);
            assert_bits_eq(&dispatched, &scalar, "segment_scores simd vs scalar");
            for &cos in &scalar {
                prop_assert!((-1.0..=1.0).contains(&cos), "cosine {cos} out of range");
            }
        }
    }

    /// The segment-addressed kernels bit for bit: `Simd` ≡ `ScalarRef`,
    /// and every listed segment ≡ its own one-segment launch over just
    /// that segment (the reference gather's launch shape). Covers
    /// widths 1..=300 against segment widths around the 8-lane chunk
    /// (ragged last segments, segment counts off the 8-segment group),
    /// all-zero segments on one or both sides (the 1.0 / 0.0 rules),
    /// shrunken caller norms that push the quotient past ±1 (the
    /// clamp), overflowing segments whose quotient is NaN, and random
    /// index lists with repeats, whose unlisted slots stay untouched.
    #[test]
    fn segment_kernels_match_the_oracle_and_per_segment_launches(
        width in 1usize..=300,
        seg_pick in 0usize..6,
        salt in 0usize..1000,
        exp in -20i32..20,
        kind in 0usize..3,
    ) {
        const UNTOUCHED: f32 = -7.25;
        let scale = (exp as f32).exp2();
        let seg = SEG_WIDTHS[seg_pick];
        let count = width.div_ceil(seg);
        let a = segmented_row(width, seg, salt, scale, 5);
        let b = segmented_row(width, seg, salt + 1, scale, 4);
        let segs = index_list(count, salt, kind);
        let listed = |i: usize| segs.contains(&i);
        let range = |i: usize| i * seg..((i + 1) * seg).min(width);
        let (s, f) = (scalar_ref(), simd());

        let mut norms = Vec::new();
        for row in [&a, &b] {
            let mut scalar = vec![UNTOUCHED; count];
            s.segment_norms(F32(row), seg, &segs, &mut scalar);
            let mut dispatched = vec![UNTOUCHED; count];
            f.segment_norms(F32(row), seg, &segs, &mut dispatched);
            assert_bits_eq(&dispatched, &scalar, "segment_norms simd vs scalar");
            for (i, &n) in scalar.iter().enumerate() {
                let want = if listed(i) {
                    let mut one = [0.0f32];
                    f.segment_norms(F32(&row[range(i)]), range(i).len(), &[0], &mut one);
                    one[0]
                } else {
                    UNTOUCHED
                };
                prop_assert!(n.to_bits() == want.to_bits(), "norm of segment {i}: {n} vs {want}");
            }
            // Shrink every fourth norm so the quotient passes ±1.
            norms.push(
                scalar
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| if i % 4 == 1 { n * 0.25 } else { n })
                    .collect::<Vec<f32>>(),
            );
        }

        let (an, bn) = (&norms[0], &norms[1]);
        let mut scalar = vec![UNTOUCHED; count];
        s.segment_scores(F32(&a), F32(&b), seg, &segs, an, bn, &mut scalar);
        let mut dispatched = vec![UNTOUCHED; count];
        f.segment_scores(F32(&a), F32(&b), seg, &segs, an, bn, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "segment_scores simd vs scalar");
        for (i, &c) in scalar.iter().enumerate() {
            let want = if listed(i) {
                let mut one = [0.0f32];
                let (ai, bi) = (F32(&a[range(i)]), F32(&b[range(i)]));
                f.segment_scores(ai, bi, range(i).len(), &[0], &an[i..=i], &bn[i..=i], &mut one);
                one[0]
            } else {
                UNTOUCHED
            };
            prop_assert!(c.to_bits() == want.to_bits(), "score of segment {i}: {c} vs {want}");
            if listed(i) {
                let overflow = i % 7 == 3 && i % 5 != 2 && i % 4 != 2;
                prop_assert!(c.is_nan() == overflow, "segment {i} scored {c}");
                prop_assert!(c.is_nan() || (-1.0..=1.0).contains(&c), "cosine {c} out of range");
            }
        }
    }

    /// `Simd` ≡ `ScalarRef` bit for bit on whole-row norms and cosines
    /// of independent pairs (one segment spanning each row), and each
    /// equals the chunked-scalar dot finished by `sqrt` /
    /// `cosine_from_dot`, at widths from one element to beyond an FFN
    /// row. Zero rows are sprinkled in so the zero-norm conventions are
    /// exercised on this path too.
    #[test]
    fn pair_scoring_backends_are_bit_identical(
        width in 1usize..=4096,
        n_pairs in 0usize..20,
        salt in 0usize..1000,
        exp in -20i32..20,
    ) {
        let scale = (exp as f32).exp2();
        for p in 0..n_pairs {
            let a = synth_values(width, salt + 3 * p, scale);
            let b = if p % 5 == 0 {
                vec![0.0; width]
            } else {
                synth_values(width, salt + 3 * p + 1, scale)
            };
            let (na, nb) = (dot_chunked_scalar(&a, &a).sqrt(), dot_chunked_scalar(&b, &b).sqrt());
            let want = cosine_from_dot(dot_chunked_scalar(&a, &b), na, nb);
            prop_assert!((-1.0..=1.0).contains(&want), "cosine {want} out of range");
            for be in [scalar_ref(), simd()] {
                prop_assert_eq!(row_norm(be, &a).to_bits(), na.to_bits());
                prop_assert_eq!(row_norm(be, &b).to_bits(), nb.to_bits());
                prop_assert_eq!(row_cosine(be, &a, &b).to_bits(), want.to_bits());
            }
        }
    }

    /// `Simd` ≡ `ScalarRef` bit for bit on the whole-matrix dtype
    /// conversions (INT8 fake-quantise and FP16 rounding).
    #[test]
    fn dtype_conversion_backends_are_bit_identical(
        rows in 1usize..8,
        cols in 1usize..70,
        salt in 0usize..1000,
        exp in -20i32..20,
    ) {
        let scale = (exp as f32).exp2();
        let m = Matrix::from_fn(rows, cols, |r, c| {
            synth_values(1, salt + r * 71 + c, scale)[0]
        });

        let mut scalar = m.clone();
        scalar_ref().fake_quantize(&mut scalar);
        let mut dispatched = m.clone();
        simd().fake_quantize(&mut dispatched);
        assert_matrix_bits_eq(&dispatched, &scalar, "fake_quantize simd vs scalar");

        let mut scalar = m.clone();
        scalar_ref().f16_round(&mut scalar);
        let mut dispatched = m;
        simd().f16_round(&mut dispatched);
        assert_matrix_bits_eq(&dispatched, &scalar, "f16_round simd vs scalar");
    }

    /// The FP16 store's row encode, bit for bit: `Simd` ≡ `ScalarRef`,
    /// and widening the encoded bits gives exactly what `f16_round`
    /// leaves in place — over raw f32 patterns, the FP16 normal range,
    /// the subnormal grid and underflow, and edge patterns (±0, ±inf,
    /// NaNs with any payload, which encode to the canonical
    /// `sign | 0x7E00`, the overflow midpoint and the rounding ties),
    /// at every SIMD tail length.
    #[test]
    fn f16_encode_reproduces_f16_round_on_both_backends(
        raw in proptest::collection::vec(0u32..u32::MAX, 0..40),
    ) {
        let xs: Vec<f32> = raw.iter().map(|&r| f16_probe(r)).collect();
        let mut scalar = vec![f16::ZERO; xs.len()];
        scalar_ref().f16_encode(&xs, &mut scalar);
        let mut dispatched = vec![f16::from_bits(0x5555); xs.len()];
        simd().f16_encode(&xs, &mut dispatched);
        let mut rounded = Matrix::from_vec(1, xs.len(), xs.clone());
        scalar_ref().f16_round(&mut rounded);
        for (i, &x) in xs.iter().enumerate() {
            let (bits, h) = (x.to_bits(), scalar[i].to_bits());
            prop_assert!(dispatched[i].to_bits() == h, "encode simd vs scalar of {bits:#010x}");
            prop_assert!(
                scalar[i].to_f32().to_bits() == rounded.as_slice()[i].to_bits(),
                "widened encode vs f16_round of {bits:#010x}"
            );
            if x.is_nan() {
                let sign = (bits >> 16) as u16 & 0x8000;
                prop_assert!(h == sign | 0x7E00, "NaN {bits:#010x} encoded to {h:#06x}");
            }
        }
    }

    /// The segment kernels over FP16 rows equal the f32 kernels over
    /// the widened rows, bit for bit, on both backends: FP16 elements
    /// widen exactly on load, so the gather sweep may read the FP16
    /// store directly. Same shapes as the f32 oracle test above.
    #[test]
    fn f16_row_segment_kernels_match_f32_kernels_on_widened_rows(
        width in 1usize..=300,
        seg_pick in 0usize..6,
        salt in 0usize..1000,
        exp in -20i32..20,
        kind in 0usize..3,
    ) {
        const UNTOUCHED: f32 = -7.25;
        let scale = (exp as f32).exp2();
        let seg = SEG_WIDTHS[seg_pick];
        let count = width.div_ceil(seg);
        let encode = |row: &[f32]| {
            let mut bits = vec![f16::ZERO; row.len()];
            simd().f16_encode(row, &mut bits);
            let widened: Vec<f32> = bits.iter().map(|h| h.to_f32()).collect();
            (bits, widened)
        };
        let (a16, a) = encode(&segmented_row(width, seg, salt, scale, 5));
        let (b16, b) = encode(&segmented_row(width, seg, salt + 1, scale, 4));
        let segs = index_list(count, salt, kind);
        for backend in [scalar_ref(), simd()] {
            let name = backend.name();
            let mut norms = Vec::new();
            for (row16, row) in [(&a16, &a), (&b16, &b)] {
                let mut half = vec![UNTOUCHED; count];
                backend.segment_norms(RowRef::F16(row16), seg, &segs, &mut half);
                let mut full = vec![UNTOUCHED; count];
                backend.segment_norms(F32(row), seg, &segs, &mut full);
                assert_bits_eq(&half, &full, &format!("{name} segment_norms f16 vs widened"));
                norms.push(full);
            }
            let mut half = vec![UNTOUCHED; count];
            backend.segment_scores(
                RowRef::F16(&a16), RowRef::F16(&b16), seg, &segs, &norms[0], &norms[1], &mut half,
            );
            let mut full = vec![UNTOUCHED; count];
            backend.segment_scores(F32(&a), F32(&b), seg, &segs, &norms[0], &norms[1], &mut full);
            assert_bits_eq(&half, &full, &format!("{name} segment_scores f16 vs widened"));
        }
    }

    /// The row-granular matcher bit for bit: for every probe of a tile,
    /// `Simd` ≡ `ScalarRef` ≡ the composition `segment_match` replaces
    /// in the gather sweep (`segment_norms` over the probe's live
    /// segments, one `segment_scores` per candidate over the live
    /// intersection, and the scalar best-match fold), on the norm table,
    /// the best scores and the best candidates. Covers f32 and FP16
    /// tiles, widths 8..=2688 with ragged last segments, segment widths
    /// off and on the 8-lane chunk, 0 to 9 candidates (two fan passes
    /// past seven) with repeats, random carry flags, zero rows and
    /// zero or overflowing segments (NaN scores), duplicate rows (exact
    /// ties, which keep the earlier candidate) and thresholds of -1, 0.9,
    /// 1 and exactly one of the probe's own scores.
    #[test]
    fn segment_match_matches_the_composition_it_replaces(
        width in prop_oneof![8usize..=100, 500usize..=520, 2680usize..=2688],
        seg_pick in 0usize..6,
        rows in 1usize..12,
        n_cands in 0usize..10,
        salt in 0usize..1000,
        exp in -20i32..20,
        carry_level in 0usize..4,
        half in 0usize..2,
        thr_pick in 0usize..4,
    ) {
        let seg = SEG_WIDTHS[seg_pick];
        let segments = width.div_ceil(seg);
        let scale = (exp as f32).exp2();
        let mix = |x: usize| (x ^ salt).wrapping_mul(2_654_435_761) % 1_000_003;
        // Row kinds: zero, a copy of an earlier row, or fresh values.
        let mut data: Vec<f32> = Vec::with_capacity(rows * width);
        for r in 0..rows {
            let row: Vec<f32> = match mix(r) % 5 {
                0 => vec![0.0; width],
                1 if r > 0 => data[(mix(r + 7) % r) * width..][..width].to_vec(),
                _ => segmented_row(width, seg, salt + r, scale, 3 + r % 4),
            };
            data.extend(row);
        }
        let data16: Vec<f16> = data.iter().map(|&x| f16::from_f32(x)).collect();
        if half == 1 {
            data = data16.iter().map(|h| h.to_f32()).collect();
        }
        let carried: Vec<bool> = if carry_level == 0 {
            Vec::new()
        } else {
            (0..rows * segments).map(|i| mix(3 * i + 1) % 4 < carry_level).collect()
        };
        let rows_ref = if half == 1 { RowRef::F16(&data16) } else { F32(&data) };
        let row = |r: usize| match rows_ref {
            RowRef::F16(d) => RowRef::F16(&d[r * width..(r + 1) * width]),
            RowRef::F32(d) => F32(&d[r * width..(r + 1) * width]),
        };
        let is_carried = |r: usize, s: usize| !carried.is_empty() && carried[r * segments + s];
        let slots = |r: usize| r * segments..(r + 1) * segments;

        let (s, f) = (scalar_ref(), simd());
        let mut tables = [vec![-7.25f32; rows * segments], vec![-7.25; rows * segments]];
        let mut composed = vec![-7.25f32; rows * segments];
        for probe in 0..rows {
            let cands: Vec<u32> = if probe == 0 {
                Vec::new()
            } else {
                (0..n_cands).map(|k| (mix(probe * 16 + k) % probe) as u32).collect()
            };
            let live: Vec<usize> = (0..segments).filter(|&x| !is_carried(probe, x)).collect();

            // The composition: norms, one score launch per candidate.
            let mut probe_norms = composed[slots(probe)].to_vec();
            s.segment_norms(row(probe), seg, &live, &mut probe_norms);
            composed[slots(probe)].copy_from_slice(&probe_norms);
            let mut scores = Vec::new();
            for &c in &cands {
                let c = c as usize;
                let pair: Vec<usize> = live.iter().copied().filter(|&x| !is_carried(c, x)).collect();
                let mut out = vec![0.0f32; segments];
                let cand_norms = &composed[slots(c)];
                s.segment_scores(row(probe), row(c), seg, &pair, &probe_norms, cand_norms, &mut out);
                scores.push((c, pair, out));
            }
            let threshold = match thr_pick {
                0 => 0.9,
                1 => -1.0,
                2 => 1.0,
                // Exactly one of the probe's own scores, when it has one.
                _ => scores
                    .iter()
                    .flat_map(|(_, pair, out)| pair.iter().map(|&x| out[x]))
                    .find(|c| c.is_finite())
                    .unwrap_or(0.5),
            };
            let (mut best, mut best_cand) = (vec![f32::NEG_INFINITY; segments], vec![NO_MATCH; segments]);
            for (c, pair, out) in &scores {
                for &x in pair {
                    if out[x] >= threshold && out[x] > best[x] {
                        (best[x], best_cand[x]) = (out[x], *c as u32);
                    }
                }
            }

            let tile = MatchTile { rows: rows_ref, width, seg, carried: &carried, threshold };
            for (be, table) in [s, f].into_iter().zip(&mut tables) {
                let (mut got, mut got_cand) = (vec![9.0f32; segments], vec![7u32; segments]);
                be.segment_match(&tile, probe, &cands, table, &mut got, &mut got_cand);
                let name = be.name();
                assert_bits_eq(table, &composed, &format!("{name} norms after probe {probe}"));
                assert_bits_eq(&got, &best, &format!("{name} best scores of probe {probe}"));
                prop_assert!(got_cand == best_cand, "{name} best candidates of probe {probe}");
            }
        }
    }

    /// `Simd` ≡ `ScalarRef` bit for bit on the synthesis noise fill.
    #[test]
    fn normal_fill_backends_are_bit_identical(
        seed in 0u64..u64::MAX,
        width in 1usize..70,
    ) {
        let mut scalar = vec![0.0f32; width];
        scalar_ref().normal_fill(seed, &mut scalar);
        let mut dispatched = vec![0.0f32; width];
        simd().normal_fill(seed, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "normal_fill simd vs scalar");
    }
}

/// The zero-norm conventions hold on every launch shape: two zero
/// segments are "identical" (cosine 1), one zero segment matches
/// nothing (cosine 0), on both numeric backends, for listed segments
/// and for whole rows.
#[test]
fn zero_norm_conventions_hold_on_both_backends() {
    let zero = vec![0.0f32; 11];
    let unit: Vec<f32> = (0..11).map(|i| (i == 3) as u32 as f32).collect();
    let a = [zero.clone(), zero.clone()].concat();
    let b = [zero.clone(), unit.clone()].concat();
    for backend in [scalar_ref(), simd()] {
        let (mut an, mut bn) = ([0.0f32; 2], [0.0f32; 2]);
        backend.segment_norms(F32(&a), 11, &[0, 1], &mut an);
        backend.segment_norms(F32(&b), 11, &[0, 1], &mut bn);
        let mut scores = [9.0f32; 2];
        backend.segment_scores(F32(&a), F32(&b), 11, &[0, 1], &an, &bn, &mut scores);
        assert_eq!(scores, [1.0, 0.0], "{} zero-segment scores", backend.name());
        let rows = [
            row_cosine(backend, &zero, &zero),
            row_cosine(backend, &zero, &unit),
        ];
        assert_eq!(rows, [1.0, 0.0], "{} zero-row scores", backend.name());
    }
}

fn tiny_workload() -> Workload {
    Workload::new(
        ModelKind::LlavaVideo7B,
        DatasetKind::VideoMme,
        WorkloadScale::tiny(),
        42,
    )
}

fn assert_results_identical(a: &PipelineResult, b: &PipelineResult, what: &str) {
    assert_eq!(a.sparsity(), b.sparsity(), "{what}: sparsity");
    assert_eq!(a.accuracy, b.accuracy, "{what}: accuracy");
    assert_eq!(a.dense_accuracy, b.dense_accuracy, "{what}: dense accuracy");
    assert_eq!(a.work_items, b.work_items, "{what}: work items");
    assert_eq!(a.dram_bytes(), b.dram_bytes(), "{what}: DRAM bytes");
    assert_eq!(a.layers, b.layers, "{what}: layer records");
    assert_eq!(a.sec_layers, b.sec_layers, "{what}: SEC stats");
    assert_eq!(a.focus_macs, b.focus_macs, "{what}: effective MACs");
    assert_eq!(a.weight_bytes, b.weight_bytes, "{what}: weight bytes");
    assert_eq!(
        (a.sic_comparisons, a.sic_matches),
        (b.sic_comparisons, b.sic_matches),
        "{what}: matcher counters"
    );
}

/// A whole measured pipeline — synthesis, dtype conversion, gather
/// scoring — is bit-identical across the numeric backends, in both
/// precisions.
#[test]
fn pipeline_results_are_backend_invariant() {
    let wl = tiny_workload();
    let arch = ArchConfig::focus();
    for dtype in [DataType::Fp16, DataType::Int8] {
        let mut pipeline = FocusPipeline::paper();
        pipeline.dtype = dtype;
        let fast = pipeline.clone().with_backend(simd()).run(&wl, &arch);
        let oracle = pipeline.with_backend(scalar_ref()).run(&wl, &arch);
        assert_results_identical(&fast, &oracle, &format!("{dtype}"));
    }
}

/// Counts the launches of each kernel family and forwards them to
/// `Simd`. Handles are `'static`, so each test leaks its own instance.
#[derive(Debug, Default)]
struct Counting {
    segment_norms: AtomicUsize,
    segment_scores: AtomicUsize,
    segment_match: AtomicUsize,
    fake_quantize: AtomicUsize,
    f16_round: AtomicUsize,
    f16_encode: AtomicUsize,
    normal_fill: AtomicUsize,
}

fn bump(counter: &AtomicUsize) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn count(counter: &AtomicUsize) -> usize {
    counter.load(Ordering::Relaxed)
}

impl Backend for Counting {
    fn name(&self) -> &'static str {
        "counting"
    }
    fn segment_norms(&self, row: RowRef<'_>, seg: usize, segs: &[usize], out: &mut [f32]) {
        bump(&self.segment_norms);
        simd().segment_norms(row, seg, segs, out)
    }
    fn segment_scores(
        &self,
        a: RowRef<'_>,
        b: RowRef<'_>,
        seg: usize,
        segs: &[usize],
        a_norms: &[f32],
        b_norms: &[f32],
        out: &mut [f32],
    ) {
        bump(&self.segment_scores);
        simd().segment_scores(a, b, seg, segs, a_norms, b_norms, out)
    }
    fn segment_match(
        &self,
        tile: &MatchTile<'_>,
        probe: usize,
        cands: &[u32],
        norms: &mut [f32],
        best: &mut [f32],
        best_cand: &mut [u32],
    ) {
        bump(&self.segment_match);
        simd().segment_match(tile, probe, cands, norms, best, best_cand)
    }
    fn fake_quantize(&self, m: &mut Matrix) {
        bump(&self.fake_quantize);
        simd().fake_quantize(m)
    }
    fn f16_round(&self, m: &mut Matrix) {
        bump(&self.f16_round);
        simd().f16_round(m)
    }
    fn f16_encode(&self, src: &[f32], dst: &mut [f16]) {
        bump(&self.f16_encode);
        simd().f16_encode(src, dst)
    }
    fn normal_fill(&self, seed: u64, out: &mut [f32]) {
        bump(&self.normal_fill);
        simd().normal_fill(seed, out)
    }
}

/// A counting backend observes every kernel family of a two-layer,
/// two-stage walk: synthesis fills, the dtype kernels by the stage's
/// precision — an FP16 stage encodes each synthesised row as it is
/// stored (one `f16_encode` per row, no whole-matrix `f16_round`), an
/// INT8 stage fake-quantises exactly once per `synth` — one match
/// launch per gathered row, the SEC attention synthesiser's noise
/// fills. Every family dispatches through the trait. So do the
/// FrameFusion, AdapTiV
/// and CMC baselines: each, run on the counting backend, synthesises
/// and scores its cosines through it.
#[test]
fn counting_backend_sees_every_stage_kernel_family() {
    let counting: &'static Counting = Box::leak(Box::default());
    let wl = tiny_workload();
    let scaled = wl.scaled_model();
    let layouter = ConvLayouter::new(scaled.grid_h, scaled.grid_w);
    let retained: Vec<usize> = (0..wl.image_tokens_scaled()).step_by(2).collect();
    let positions: Vec<Option<Fhw>> = retained
        .iter()
        .map(|&t| Some(layouter.position_of(t)))
        .collect();
    let config = FocusConfig::paper();

    for (stage, dtype) in [
        (Stage::PvOut, DataType::Fp16),
        (Stage::FfnAct, DataType::Int8),
    ] {
        let gather = GatherStage::new_on(&config, stage, dtype, counting);
        let mut ws = StageWorkspace::new_on(&wl, counting);
        for layer in 0..2 {
            let ctx = LayerCtx {
                workload: &wl,
                layer,
                retained: &retained,
                positions: &positions,
            };
            let dtype_kernels = || {
                [
                    count(&counting.f16_round),
                    count(&counting.f16_encode),
                    count(&counting.fake_quantize),
                ]
            };
            let [round, encode, quantize] = dtype_kernels();
            let matches = count(&counting.segment_match);
            gather.synth(&ctx, &mut ws);
            let want = match dtype {
                DataType::Fp16 => [round, encode + retained.len(), quantize],
                DataType::Int8 => [round, encode, quantize + 1],
            };
            assert_eq!(
                dtype_kernels(),
                want,
                "{stage:?} layer {layer}: one encode per FP16 row, one fake-quantise per INT8 synth"
            );
            gather.gather(&ctx, &mut ws);
            assert_eq!(
                count(&counting.segment_match) - matches,
                retained.len(),
                "{stage:?} layer {layer}: one match launch per gathered row"
            );
        }
    }
    assert!(count(&counting.normal_fill) > 0, "synthesis fills");

    // SEC's attention synthesiser draws its logit noise through the
    // stage's backend too: one fill per text row and head.
    let fills = count(&counting.normal_fill);
    let semantic = SemanticStage::new_on(&config, &wl, counting);
    let all: Vec<usize> = (0..wl.image_tokens_scaled()).collect();
    let prune_layer = config.schedule.entries()[0].0;
    let ctx = LayerCtx {
        workload: &wl,
        layer: prune_layer,
        retained: &all,
        positions: &[],
    };
    assert!(
        semantic.prune_layer(&ctx).is_some(),
        "layer {prune_layer} prunes"
    );
    let att = wl.attention_synthesizer();
    assert_eq!(
        count(&counting.normal_fill) - fills,
        att.heads() * att.text_tokens(),
        "one SEC noise fill per text row and head"
    );
    assert_eq!(
        count(&counting.segment_norms),
        0,
        "the gather norms through the match family"
    );

    // The baselines' synthesis and whole-row cosines go through their
    // backend handle too.
    let baselines: [(&str, &dyn Concentrator, ArchConfig); 3] = [
        (
            "FrameFusion",
            &FrameFusionBaseline {
                backend: counting,
                ..Default::default()
            },
            ArchConfig::vanilla(),
        ),
        (
            "AdapTiV",
            &AdaptivBaseline {
                backend: counting,
                ..Default::default()
            },
            ArchConfig::adaptiv(),
        ),
        (
            "CMC",
            &CmcBaseline {
                backend: counting,
                ..Default::default()
            },
            ArchConfig::cmc(),
        ),
    ];
    for (name, baseline, arch) in baselines {
        let kernels = || {
            [
                count(&counting.normal_fill),
                count(&counting.segment_norms),
                count(&counting.segment_scores),
            ]
        };
        let before = kernels();
        baseline.run(&wl, &arch);
        let after = kernels();
        for (what, (b, a)) in ["fills", "norms", "cosines"]
            .iter()
            .zip(before.iter().zip(after))
        {
            assert!(a > *b, "{name} {what} dispatch through its backend");
        }
    }
}
