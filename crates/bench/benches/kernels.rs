//! Criterion micro-benchmarks for the hot kernels of the Focus stack:
//! the similarity matcher path (gather), the synthesis normal fill, the
//! streaming top-k sorter, the importance analyzer, offset coding and
//! the numeric substrate.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use focus_core::sec::{ImportanceAnalyzer, OffsetEncoding, TopKSorter};
use focus_core::sic::{gather_tile, scatter, ConvLayouter, Fhw, GatherConfig};
use focus_core::BlockSize;
use focus_tensor::backend::MatchTile;
use focus_tensor::{backend, f16, Matrix, RowRef};

/// A 1024×32 tile with a realistic (~35 %) duplicate rate over a
/// 14×14×f grid.
fn make_tile() -> (Matrix, Vec<Option<Fhw>>) {
    let rows = 1024;
    let layouter = ConvLayouter::new(14, 14);
    let acts = Matrix::from_fn(rows, 32, |r, c| {
        // Rows of the same frame-position family repeat exactly.
        let family = if r % 3 == 0 { r % 196 } else { r };
        ((family * 131 + c * 17) % 257) as f32 - 128.0
    });
    let positions: Vec<Option<Fhw>> = (0..rows).map(|t| Some(layouter.position_of(t))).collect();
    (acts, positions)
}

fn bench_gather(c: &mut Criterion) {
    let (acts, positions) = make_tile();
    let cfg = GatherConfig {
        threshold: 0.9,
        block: BlockSize::DEFAULT,
    };
    c.bench_function("sic/gather_tile_1024x32", |b| {
        b.iter(|| {
            gather_tile(
                &acts,
                0..1024,
                0..32,
                &positions,
                &cfg,
                None,
                backend::active(),
            )
        })
    });
}

/// `Backend::segment_scores` over two contiguous rows with every
/// 32-wide segment listed — the launch shape of the gather sweep's
/// deferred fidelity probes — at widths 512 and 2688 (an FFN
/// activation row at evaluation scale), on the dispatched `simd` path
/// and the `scalar` oracle, over f32 rows and over the FP16 rows an
/// FP16 stage stores (`_f16_` legs, widened on load). One sample is
/// 100 launches, so the clock reads do not dominate a sub-microsecond
/// launch.
fn bench_segment_scores(c: &mut Criterion) {
    for width in [512usize, 2688] {
        let row =
            |k: usize| -> Vec<f32> { (0..width).map(|i| ((i * k) % 257) as f32 - 128.0).collect() };
        let (a, b, segs): (_, _, Vec<usize>) = (row(131), row(17), (0..width / 32).collect());
        let encode = |v: &[f32]| -> Vec<f16> { v.iter().map(|&x| f16::from_f32(x)).collect() };
        let (a16, b16) = (encode(&a), encode(&b));
        for (name, be) in [("simd", backend::simd()), ("scalar", backend::scalar_ref())] {
            for (elem, ra, rb) in [
                ("", RowRef::F32(&a), RowRef::F32(&b)),
                ("f16_", RowRef::F16(&a16), RowRef::F16(&b16)),
            ] {
                let mut an = vec![0.0; segs.len()];
                let (mut bn, mut out) = (an.clone(), an.clone());
                be.segment_norms(ra, 32, &segs, &mut an);
                be.segment_norms(rb, 32, &segs, &mut bn);
                let id = format!("gather/segment_scores_{name}_{elem}{width}x32");
                c.bench_function(&id, |bch| {
                    bch.iter(|| {
                        for _ in 0..100 {
                            be.segment_scores(black_box(ra), rb, 32, &segs, &an, &bn, &mut out);
                        }
                        black_box(&out);
                    })
                });
            }
        }
    }
}

/// `Backend::segment_match` — the production gather sweep's one launch
/// per row: the probe's 32-wide segment norms plus its cosines against
/// 3 or 7 candidate rows (a mid-block and a last-in-block row of the
/// 2×2×2 block) folded into each segment's best match — at widths 512
/// and 2688, on the `simd` and `scalar` backends, over f32 rows and
/// FP16 rows (`_f16_` legs). The id ends in `x<candidates>`. One
/// sample is 100 launches.
fn bench_segment_match(c: &mut Criterion) {
    for width in [512usize, 2688] {
        let rows: Vec<f32> = (0..8 * width)
            .map(|i| ((i * 131 + i / width * 7) % 257) as f32 - 128.0)
            .collect();
        let rows16: Vec<f16> = rows.iter().map(|&x| f16::from_f32(x)).collect();
        let segments = width / 32;
        for (name, be) in [("simd", backend::simd()), ("scalar", backend::scalar_ref())] {
            for (elem, rows) in [("", RowRef::F32(&rows)), ("f16_", RowRef::F16(&rows16))] {
                let tile = MatchTile {
                    rows,
                    width,
                    seg: 32,
                    carried: &[],
                    threshold: 0.9,
                };
                let mut norms = vec![0.0; 8 * segments];
                let (mut best, mut best_cand) = (vec![0.0; segments], vec![0; segments]);
                for probe in 0..7 {
                    be.segment_match(&tile, probe, &[], &mut norms, &mut best, &mut best_cand);
                }
                for cands in [&[4u32, 5, 6][..], &[0, 1, 2, 3, 4, 5, 6]] {
                    let id = format!(
                        "gather/segment_match_{name}_{elem}{width}x32x{}",
                        cands.len()
                    );
                    c.bench_function(&id, |bch| {
                        bch.iter(|| {
                            for _ in 0..100 {
                                be.segment_match(
                                    black_box(&tile),
                                    7,
                                    cands,
                                    &mut norms,
                                    &mut best,
                                    &mut best_cand,
                                );
                            }
                            black_box(&best);
                        })
                    });
                }
            }
        }
    }
}

/// `Backend::normal_fill` — the activation-synthesis kernel — at the
/// SEC noise-group width (8) and the FFN activation width (2688), on
/// the dispatched `simd` path (whichever tier the CPU takes) and the
/// `scalar` oracle. One sample is 100 launches, each from its own seed.
fn bench_normal_fill(c: &mut Criterion) {
    for width in [8usize, 2688] {
        let mut out = vec![0.0f32; width];
        for (name, be) in [("simd", backend::simd()), ("scalar", backend::scalar_ref())] {
            let id = format!("synthesis/normal_fill_{name}_{width}");
            c.bench_function(&id, |bch| {
                bch.iter(|| {
                    for seed in 0..100u64 {
                        be.normal_fill(black_box(seed), &mut out);
                    }
                    black_box(&out);
                })
            });
        }
    }
}

fn bench_scatter(c: &mut Criterion) {
    let (acts, positions) = make_tile();
    let cfg = GatherConfig {
        threshold: 0.9,
        block: BlockSize::DEFAULT,
    };
    let g = gather_tile(
        &acts,
        0..1024,
        0..32,
        &positions,
        &cfg,
        None,
        backend::active(),
    );
    c.bench_function("sic/scatter_1024x32", |b| {
        b.iter(|| scatter(&g.compact, &g.map))
    });
}

fn bench_topk(c: &mut Criterion) {
    let scores: Vec<f32> = (0..6272)
        .map(|i| ((i * 2654435761u64 as usize) % 10007) as f32)
        .collect();
    let sorter = TopKSorter::new(32);
    c.bench_function("sec/topk_6272_to_2509", |b| {
        b.iter(|| sorter.select(&scores, 2509))
    });
}

fn bench_importance(c: &mut Criterion) {
    let heads: Vec<Matrix> = (0..4)
        .map(|h| {
            Matrix::from_fn(109, 1568, |i, j| {
                ((h * 31 + i * 7 + j) % 100) as f32 / 100.0
            })
        })
        .collect();
    let analyzer = ImportanceAnalyzer::new(32);
    c.bench_function("sec/importance_4x109x1568", |b| {
        b.iter(|| analyzer.analyze(&heads))
    });
}

fn bench_offset_coding(c: &mut Criterion) {
    let indices: Vec<usize> = (0..6272).filter(|i| i % 7 != 0).collect();
    c.bench_function("sec/offset_encode_decode", |b| {
        b.iter_batched(
            || indices.clone(),
            |idx| {
                let enc = OffsetEncoding::encode(&idx);
                enc.decode()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_layouter(c: &mut Criterion) {
    let l = ConvLayouter::new(14, 14);
    c.bench_function("sic/layouter_address_6272", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for t in 0..6272 {
                let a = l.address_of(l.position_of(t));
                acc = acc.wrapping_add(a.bank * 31 + a.offset);
            }
            acc
        })
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_gather, bench_segment_scores, bench_segment_match, bench_normal_fill, bench_scatter, bench_topk,
              bench_importance, bench_offset_coding, bench_layouter
}
criterion_main!(kernels);
