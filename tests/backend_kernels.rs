//! The [`Backend`] contract, property-tested end to end:
//!
//! * **Bit-identity** — the `Simd` backend must match the `ScalarRef`
//!   oracle bit for bit on every kernel family (segment and batched
//!   compact norms, segment and pair gather scoring, INT8
//!   fake-quantise, FP16 rounding, scatter replay), across widths
//!   sweeping every SIMD tail length, segment widths, slice
//!   alignments, counts sweeping the 8-wide group boundary, and wide
//!   magnitude spreads. A whole measured pipeline
//!   run on either backend must therefore produce identical results.
//! * **Dispatch completeness** — a `Trace` backend run does no numeric
//!   work but observes every stage-level kernel launch, proving the
//!   stage graph routes all five kernel families through the trait
//!   (nothing is open-coded behind its back).

use focus::core::exec::{GatherStage, LayerCtx, StageWorkspace};
use focus::core::pipeline::{FocusPipeline, PipelineResult};
use focus::core::sic::{scatter_on, ConvLayouter, Fhw, SimilarityMap};
use focus::core::FocusConfig;
use focus::sim::ArchConfig;
use focus::tensor::backend::{scalar_ref, simd, BackendHandle, KernelLaunch, Trace};
use focus::tensor::{DataType, Matrix};
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
        s.segment_norms(row, seg, &all, &mut norm);
        let mut norm_f = vec![0.0f32; count];
        f.segment_norms(row, seg, &all, &mut norm_f);
        assert_bits_eq(&norm_f, &norm, "row segment_norms simd vs scalar");
        for c in 0..n_cands {
            let cand = synth_values(width, salt + 7 * c + 1, scale);
            let mut cand_norm = vec![0.0f32; count];
            s.segment_norms(&cand, seg, &all, &mut cand_norm);
            let mut cand_norm_f = vec![0.0f32; count];
            f.segment_norms(&cand, seg, &all, &mut cand_norm_f);
            assert_bits_eq(&cand_norm_f, &cand_norm, "candidate segment_norms simd vs scalar");

            let mut scalar = vec![0.0f32; count];
            s.segment_scores(row, &cand, seg, &all, &norm, &cand_norm, &mut scalar);
            let mut dispatched = vec![0.0f32; count];
            f.segment_scores(row, &cand, seg, &all, &norm, &cand_norm, &mut dispatched);
            assert_bits_eq(&dispatched, &scalar, "segment_scores simd vs scalar");
            for &cos in &scalar {
                prop_assert!((-1.0..=1.0).contains(&cos), "cosine {cos} out of range");
            }
        }
    }

    /// The segment-addressed kernels bit for bit: `Simd` ≡ `ScalarRef`,
    /// and every listed segment ≡ its own one-pair `row_norms` /
    /// `score_pairs` launch (the reference gather's kernels). Covers
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
            s.segment_norms(row, seg, &segs, &mut scalar);
            let mut dispatched = vec![UNTOUCHED; count];
            f.segment_norms(row, seg, &segs, &mut dispatched);
            assert_bits_eq(&dispatched, &scalar, "segment_norms simd vs scalar");
            for (i, &n) in scalar.iter().enumerate() {
                let want = if listed(i) {
                    let mut one = [0.0f32];
                    s.row_norms(&[&row[range(i)]], &mut one);
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
        s.segment_scores(&a, &b, seg, &segs, an, bn, &mut scalar);
        let mut dispatched = vec![UNTOUCHED; count];
        f.segment_scores(&a, &b, seg, &segs, an, bn, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "segment_scores simd vs scalar");
        for (i, &c) in scalar.iter().enumerate() {
            let want = if listed(i) {
                let mut one = [0.0f32];
                s.score_pairs(&[&a[range(i)]], &[an[i]], &[&b[range(i)]], &[bn[i]], &mut one);
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

    /// `Simd` ≡ `ScalarRef` bit for bit on the tile-batched launches
    /// (`row_norms`, `score_pairs`), which must in turn match the
    /// one-segment launches of the segment kernels — the batching is
    /// bit-invisible. Zero rows are
    /// sprinkled in so the zero-norm conventions are exercised on the
    /// batched path too.
    #[test]
    fn pair_scoring_backends_are_bit_identical(
        width in 1usize..70,
        n_pairs in 0usize..20,
        salt in 0usize..1000,
        exp in -20i32..20,
    ) {
        let scale = (exp as f32).exp2();
        let left: Vec<Vec<f32>> = (0..n_pairs)
            .map(|p| synth_values(width, salt + 3 * p, scale))
            .collect();
        let right: Vec<Vec<f32>> = (0..n_pairs)
            .map(|p| {
                if p % 5 == 0 {
                    vec![0.0; width]
                } else {
                    synth_values(width, salt + 3 * p + 1, scale)
                }
            })
            .collect();
        let pa: Vec<&[f32]> = left.iter().map(|r| r.as_slice()).collect();
        let pb: Vec<&[f32]> = right.iter().map(|r| r.as_slice()).collect();
        let (s, f) = (scalar_ref(), simd());

        let mut an = vec![0.0f32; n_pairs];
        s.row_norms(&pa, &mut an);
        let mut an_f = vec![0.0f32; n_pairs];
        f.row_norms(&pa, &mut an_f);
        assert_bits_eq(&an_f, &an, "row_norms simd vs scalar");
        for p in 0..n_pairs {
            let mut one = [0.0f32];
            s.segment_norms(pa[p], width, &[0], &mut one);
            prop_assert_eq!(an[p].to_bits(), one[0].to_bits());
        }

        let mut bn = vec![0.0f32; n_pairs];
        s.row_norms(&pb, &mut bn);
        let mut scalar = vec![0.0f32; n_pairs];
        s.score_pairs(&pa, &an, &pb, &bn, &mut scalar);
        let mut dispatched = vec![0.0f32; n_pairs];
        f.score_pairs(&pa, &an, &pb, &bn, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "score_pairs simd vs scalar");
        for (p, &c) in scalar.iter().enumerate() {
            prop_assert!((-1.0..=1.0).contains(&c), "cosine {c} out of range");
            let mut one = [0.0f32];
            s.segment_scores(pa[p], pb[p], width, &[0], &an[p..=p], &bn[p..=p], &mut one);
            prop_assert_eq!(c.to_bits(), one[0].to_bits());
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

    /// `Simd` ≡ `ScalarRef` bit for bit on scatter row replay, for any
    /// representative mapping.
    #[test]
    fn scatter_backends_are_bit_identical(
        p in 1usize..6,
        cols in 1usize..40,
        reps in proptest::collection::vec(0u32..6, 1..24),
        salt in 0usize..1000,
    ) {
        let reps: Vec<u32> = reps.into_iter().map(|r| r % p as u32).collect();
        let partial = Matrix::from_fn(p, cols, |r, c| {
            synth_values(1, salt + r * 97 + c, 1.0)[0]
        });
        let mut scalar = Matrix::zeros(reps.len(), cols);
        scalar_ref().scatter_rows(&partial, &reps, &mut scalar);
        let mut dispatched = Matrix::zeros(reps.len(), cols);
        simd().scatter_rows(&partial, &reps, &mut dispatched);
        assert_matrix_bits_eq(&dispatched, &scalar, "scatter simd vs scalar");
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

/// The zero-norm conventions survive the batched scoring paths: two
/// zero segments are "identical" (cosine 1), one zero segment matches
/// nothing (cosine 0), on both numeric backends and both launch shapes.
#[test]
fn zero_norm_conventions_hold_on_both_backends() {
    let zero = vec![0.0f32; 11];
    let unit: Vec<f32> = (0..11).map(|i| (i == 3) as u32 as f32).collect();
    let a = [zero.clone(), zero.clone()].concat();
    let b = [zero.clone(), unit.clone()].concat();
    for backend in [scalar_ref(), simd()] {
        let (mut an, mut bn) = ([0.0f32; 2], [0.0f32; 2]);
        backend.segment_norms(&a, 11, &[0, 1], &mut an);
        backend.segment_norms(&b, 11, &[0, 1], &mut bn);
        let mut scores = [9.0f32; 2];
        backend.segment_scores(&a, &b, 11, &[0, 1], &an, &bn, &mut scores);
        assert_eq!(scores, [1.0, 0.0], "{} zero-segment scores", backend.name());
        let mut pairs = [9.0f32; 2];
        backend.score_pairs(
            &[&zero, &zero],
            &[0.0; 2],
            &[&zero, &unit],
            &[0.0, 1.0],
            &mut pairs,
        );
        assert_eq!(pairs, [1.0, 0.0], "{} zero-row pair scores", backend.name());
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
    assert_eq!(a.work_items, b.work_items, "{what}: work items");
    assert_eq!(a.dram_bytes(), b.dram_bytes(), "{what}: DRAM bytes");
    assert_eq!(a.layers, b.layers, "{what}: layer records");
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

/// A `Trace` backend observes the full per-layer kernel-launch
/// sequence of a two-layer, two-stage walk — synthesis fill, dtype
/// conversion and gather scoring all dispatch through the trait, in
/// schedule order, with the right shapes.
#[test]
fn trace_backend_records_the_stage_launch_sequence() {
    let trace: BackendHandle = Box::leak(Box::new(Trace::new()));
    let wl = tiny_workload();
    let scaled = wl.scaled_model();
    let layouter = ConvLayouter::new(scaled.grid_h, scaled.grid_w);
    let retained: Vec<usize> = (0..wl.image_tokens_scaled()).step_by(2).collect();
    let positions: Vec<Option<Fhw>> = retained
        .iter()
        .map(|&t| Some(layouter.position_of(t)))
        .collect();
    let config = FocusConfig::paper();
    let rows = retained.len();

    let mut expected = Vec::new();
    for (stage, dtype) in [
        (Stage::PvOut, DataType::Fp16),
        (Stage::FfnAct, DataType::Int8),
    ] {
        let gather = GatherStage::new_on(&config, stage, dtype, trace);
        let mut ws = StageWorkspace::new_on(&wl, trace);
        let width = stage.width(scaled);
        for layer in 0..2 {
            let ctx = LayerCtx {
                workload: &wl,
                layer,
                retained: &retained,
                positions: &positions,
            };
            gather.synth(&ctx, &mut ws);
            gather.gather(&ctx, &mut ws);
            expected.push(KernelLaunch::SynthFill { rows, width });
            expected.push(match dtype {
                DataType::Fp16 => KernelLaunch::F16Round { rows, cols: width },
                DataType::Int8 => KernelLaunch::FakeQuantize { rows, cols: width },
            });
            expected.push(KernelLaunch::GatherScore { rows, width });
        }
    }
    assert_eq!(trace.take_launches(), expected);

    // Scatter replay is the fifth family; it dispatches through the
    // trait too.
    let partial = Matrix::zeros(2, 3);
    let map = SimilarityMap::new(vec![0, 1, 0], 2);
    scatter_on(&partial, &map, trace);
    assert_eq!(
        trace.take_launches(),
        vec![KernelLaunch::Scatter { rows: 3, cols: 3 }]
    );
}
