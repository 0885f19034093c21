//! Similarity Concentrator (SIC, paper §VI).
//!
//! Vector-level redundancy removal aligned with GEMM tiling: the
//! [`gather`] pass deduplicates each output tile's vectors within
//! spatiotemporal blocks, the [`layout`] module recovers positions and
//! guarantees conflict-free bank access, and the [`scatter`](mod@scatter) pass
//! reconstructs full tiles from concentrated partial sums in the next
//! GEMM. [`SimilarityConcentrator`] applies gathering across a whole
//! activation matrix and aggregates the statistics the pipeline and the
//! cycle model consume.
//!
//! The recycled [`GatherScratch`] (flat position lookup, per-m-tile
//! candidate plan and the row-major sweep's buffers) is the SIC half of
//! [`crate::exec::StageWorkspace`]; the task-graph schedule keeps a
//! ring of them per gather stage so several layers' gathers can be in
//! flight without sharing mutable state.

pub mod block;
pub mod gather;
pub mod layout;
pub mod map;
pub mod scatter;
pub mod temporal;

pub use gather::{gather_tile, GatherConfig, GatherResult, GatherScratch};
pub use layout::{BankAddress, ConvLayouter, Fhw, PositionLookup};
pub use map::SimilarityMap;
pub use scatter::{scatter, scatter_cycles, scatter_ops};
pub use temporal::{
    CarryMask, TemporalCache, TemporalCacheConfig, TemporalCounters, TemporalSnapshot,
};

use core::ops::Range;

use focus_tensor::backend::BackendHandle;
use focus_tensor::ops::vector_ranges;
use focus_tensor::{Element, Matrix};

use crate::config::FocusConfig;

/// Aggregate gather statistics over one activation matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatrixGatherStats {
    /// Unique-vector counts per `(m_tile, col_tile)`, flattened
    /// `m_tile * col_tiles + col_tile` — exactly the `subtile_rows`
    /// layout [`focus_sim::GemmWork`] expects for the consuming GEMM.
    pub tile_p: Vec<usize>,
    /// Number of column tiles (= K sub-tiles of the consuming GEMM).
    pub col_tiles: usize,
    /// Height of each m-tile.
    pub tile_heights: Vec<usize>,
    /// Total vectors processed.
    pub total_vectors: u64,
    /// Unique vectors retained.
    pub unique_vectors: u64,
    /// Cosine comparisons evaluated.
    pub comparisons: u64,
    /// Vectors that matched.
    pub matches: u64,
    /// Vectors carried bit-exactly from the temporal cache (streaming
    /// sessions only; see [`temporal`]). Carried vectors are neither
    /// unique nor matched — they drop out of the compact payload
    /// entirely.
    pub carried: u64,
    /// Per-row mean reconstruction fidelity across column tiles.
    pub row_fidelity: Vec<f32>,
    /// Dense activation bytes (FP16).
    pub dense_bytes: u64,
    /// Compressed bytes (unique vectors + similarity maps).
    pub compressed_bytes: u64,
    /// Total matcher cycles across tiles (they overlap GEMM).
    pub matcher_cycles: u64,
    /// Matcher multiply ops (energy accounting).
    pub dot_ops: u64,
}

impl MatrixGatherStats {
    /// Fraction of vectors retained (`Σp / total`), 1.0 for an empty
    /// matrix.
    pub fn retained_ratio(&self) -> f64 {
        if self.total_vectors == 0 {
            1.0
        } else {
            self.unique_vectors as f64 / self.total_vectors as f64
        }
    }

    /// Compression ratio of the activation payload (dense / compressed).
    pub fn compression(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.dense_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// Matrix-level similarity concentration.
#[derive(Clone, Debug, PartialEq)]
pub struct SimilarityConcentrator {
    /// Gather parameters (threshold, block).
    pub gather: GatherConfig,
    /// Vector length (Table I: 32; `usize::MAX` = token-wise).
    pub vector_len: usize,
    /// Output-tile height.
    pub tile_m: usize,
}

impl SimilarityConcentrator {
    /// Builds a concentrator from a [`FocusConfig`].
    pub fn from_config(cfg: &FocusConfig) -> Self {
        SimilarityConcentrator {
            gather: GatherConfig {
                threshold: cfg.threshold,
                block: cfg.block,
            },
            vector_len: cfg.vector_len,
            tile_m: cfg.tile_m,
        }
    }

    /// The reference matrix gather: tiles rows by `tile_m` and columns
    /// by `vector_len` and runs the [`gather_tile`] reference on every
    /// `(m-tile, column-tile)` pair in turn, on the kernel [`Backend`]
    /// `backend`. `positions[row]` is each row's decoded (F,H,W)
    /// position (`None` for text tokens).
    ///
    /// The production sweep ([`SimilarityConcentrator::gather_matrix_with_on`])
    /// is pinned to this loop field by field; the serial executor mode
    /// and the ablation study run it.
    ///
    /// [`Backend`]: focus_tensor::backend::Backend
    pub fn gather_matrix_on(
        &self,
        acts: &Matrix,
        positions: &[Option<Fhw>],
        backend: BackendHandle,
    ) -> MatrixGatherStats {
        self.reference(acts, positions, |_, _, _| false, backend).0
    }

    /// The production matrix gather over a recycled [`GatherScratch`]:
    /// each m-tile's candidate plan is resolved **once** through the
    /// flat position lookup, then one row-major sweep gathers every
    /// column tile of the m-tile (see [`GatherScratch`]). Statistics are
    /// identical to [`SimilarityConcentrator::gather_matrix_on`] field
    /// by field — also over an FP16 store, whose rows the kernels
    /// widen to exactly the values an f32 buffer rounded through FP16
    /// holds.
    ///
    /// `temporal` is the optional cross-frame probe `(cache, tokens,
    /// layer, stage)`: each m-tile is settled against the cache's
    /// `(layer, stage)` plane in one [`TemporalCache::reconcile`] pass
    /// — the plane is locked once per m-tile, byte-identical rows
    /// become **carried** entries and moved rows are re-committed — and
    /// the sweep then reads the resulting carry mask without touching
    /// the cache (see [`temporal`]). `tokens[row]` keys each row to its
    /// absolute token index across frames. With a cold or never-hitting
    /// cache the statistics are identical to the probe-less call; only
    /// the cache's counters move.
    pub fn gather_matrix_with_on<E: Element>(
        &self,
        acts: &Matrix<E>,
        positions: &[Option<Fhw>],
        scratch: &mut GatherScratch,
        temporal: Option<(&TemporalCache, &[usize], usize, usize)>,
        backend: BackendHandle,
    ) -> MatrixGatherStats {
        let Some((cache, tokens, layer, stage)) = temporal else {
            return self
                .sweep(acts, positions, scratch, |_, _, _| false, backend)
                .0;
        };
        assert!(tokens.len() >= acts.rows(), "tokens shorter than matrix");
        let (width, v_len) = (acts.cols(), self.v_len(acts.cols()));
        let settle = |row_start, row_count, mask: &mut CarryMask| {
            cache.reconcile(
                layer, stage, width, row_start, row_count, v_len, tokens, mask,
            );
            true
        };
        let (stats, avoided) = self.sweep(acts, positions, scratch, settle, backend);
        cache.add_skipped(avoided);
        stats
    }

    /// The column-tile width for a `width`-wide matrix.
    fn v_len(&self, width: usize) -> usize {
        self.vector_len.min(width.max(1))
    }

    /// The m-tile loop both matrix gathers share: `tile(row_start,
    /// row_count, col_ranges, stats)` gathers one non-empty m-tile into
    /// `stats` and returns its avoided probes. Returns the statistics
    /// and the matrix's avoided-probe total.
    fn each_m_tile<E: Element>(
        &self,
        acts: &Matrix<E>,
        mut tile: impl FnMut(usize, usize, &[Range<usize>], &mut MatrixGatherStats) -> u64,
    ) -> (MatrixGatherStats, u64) {
        let width = acts.cols();
        let col_ranges = vector_ranges(width, self.v_len(width));
        let m_tiles = acts.rows().div_ceil(self.tile_m).max(1);
        let mut stats = MatrixGatherStats {
            col_tiles: col_ranges.len(),
            row_fidelity: vec![0.0; acts.rows()],
            ..MatrixGatherStats::default()
        };
        let mut avoided: u64 = 0;
        for mt in 0..m_tiles {
            let row_start = mt * self.tile_m;
            let row_count = self.tile_m.min(acts.rows().saturating_sub(row_start));
            stats.tile_heights.push(row_count);
            if row_count == 0 {
                stats.tile_p.extend(col_ranges.iter().map(|_| 0));
                continue;
            }
            avoided += tile(row_start, row_count, &col_ranges, &mut stats);
        }
        (stats, avoided)
    }

    /// The reference loop: `settle(row_start, row_count, mask)` may
    /// fill a carry mask for each m-tile and returns whether it applies.
    fn reference(
        &self,
        acts: &Matrix,
        positions: &[Option<Fhw>],
        mut settle: impl FnMut(usize, usize, &mut CarryMask) -> bool,
        backend: BackendHandle,
    ) -> (MatrixGatherStats, u64) {
        let mut mask = CarryMask::new();
        self.each_m_tile(acts, |row_start, row_count, col_ranges, stats| {
            let temporal = settle(row_start, row_count, &mut mask);
            let rows = row_start..row_start + row_count;
            let mut avoided = 0;
            for (ct, cols) in col_ranges.iter().enumerate() {
                let carry = temporal.then_some((&mask, ct));
                let r = gather_tile(
                    acts,
                    rows.clone(),
                    cols.clone(),
                    positions,
                    &self.gather,
                    carry,
                    backend,
                );
                stats.tile_p.push(r.p());
                stats.total_vectors += row_count as u64;
                stats.unique_vectors += r.p() as u64;
                stats.comparisons += r.comparisons;
                stats.matches += r.matches;
                stats.carried += r.carried;
                avoided += r.avoided;
                stats.matcher_cycles += r.cycles;
                stats.dot_ops += r.dot_ops;
                stats.dense_bytes += (row_count * cols.len() * 2) as u64;
                stats.compressed_bytes += r.compressed_bytes() as u64;
                for (local, &f) in r.fidelity.iter().enumerate() {
                    stats.row_fidelity[row_start + local] += f / col_ranges.len() as f32;
                }
            }
            avoided
        })
    }

    /// The production sweep, with the same `settle` contract as
    /// [`SimilarityConcentrator::reference`] (the mask is the scratch's).
    fn sweep<E: Element>(
        &self,
        acts: &Matrix<E>,
        positions: &[Option<Fhw>],
        scratch: &mut GatherScratch,
        mut settle: impl FnMut(usize, usize, &mut CarryMask) -> bool,
        backend: BackendHandle,
    ) -> (MatrixGatherStats, u64) {
        self.each_m_tile(acts, |row_start, row_count, col_ranges, stats| {
            scratch.plan_tile(positions, row_start, row_count, self.gather.block);
            let temporal = settle(row_start, row_count, &mut scratch.carry);
            scratch.sweep_tile(
                acts,
                row_start,
                row_count,
                col_ranges,
                &self.gather,
                temporal,
                backend,
                stats,
            )
        })
    }
}

/// Ratio of GEMM cycles to matcher cycles for one tile (paper §VI-A):
/// GEMM needs `(K/b)·m` cycles, the matcher `cells·m`; below 1 the
/// matcher would enter the critical path and parallel matcher units are
/// required (`K < cells·b`, e.g. K < 256 for the defaults).
pub fn matcher_overlap_ratio(k: usize, pe_rows: usize, block_cells: usize) -> f64 {
    (k as f64 / pe_rows as f64) / block_cells as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BlockSize;
    use focus_tensor::backend::{self, Backend, MatchTile, RowRef};
    use focus_tensor::{f16, Element};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn grid_positions(frames: usize, h: usize, w: usize) -> Vec<Option<Fhw>> {
        let mut out = Vec::new();
        for f in 0..frames {
            for r in 0..h {
                for c in 0..w {
                    out.push(Some(Fhw { f, r, c }));
                }
            }
        }
        out
    }

    fn concentrator(tile_m: usize, vector_len: usize) -> SimilarityConcentrator {
        SimilarityConcentrator {
            gather: GatherConfig {
                threshold: 0.9,
                block: BlockSize::DEFAULT,
            },
            vector_len,
            tile_m,
        }
    }

    #[test]
    fn fully_redundant_matrix_concentrates_hard() {
        // Every token identical → only block-unreachable rows stay.
        let positions = grid_positions(2, 4, 4);
        let acts = Matrix::from_fn(32, 64, |_, c| (c as f32).sin());
        let stats = concentrator(1024, 32).gather_matrix_on(&acts, &positions, backend::active());
        assert!(stats.retained_ratio() < 0.1, "{}", stats.retained_ratio());
        assert!(stats.compression() > 5.0);
        assert_eq!(stats.tile_p.len(), 2); // one m-tile × two col tiles
        assert_eq!(stats.col_tiles, 2);
    }

    #[test]
    fn random_matrix_stays_dense() {
        let positions = grid_positions(2, 4, 4);
        let acts = Matrix::from_fn(32, 64, |r, c| ((r * 97 + c * 31) % 64) as f32 - 31.0);
        let stats = concentrator(1024, 32).gather_matrix_on(&acts, &positions, backend::active());
        assert_eq!(stats.retained_ratio(), 1.0);
        assert_eq!(stats.matches, 0);
    }

    #[test]
    fn smaller_tiles_reduce_match_opportunities() {
        // The Fig. 10(a) mechanism: tile boundaries hide candidates.
        let positions = grid_positions(4, 4, 4);
        let acts = Matrix::from_fn(64, 32, |_, c| (c as f32).cos());
        let big = concentrator(64, 32).gather_matrix_on(&acts, &positions, backend::active());
        let small = concentrator(8, 32).gather_matrix_on(&acts, &positions, backend::active());
        assert!(small.unique_vectors > big.unique_vectors);
    }

    #[test]
    fn finer_vectors_match_at_least_as_much() {
        // Make half of each row's groups identical across tokens and
        // half noisy: token-wise similarity fails, vector-wise succeeds.
        let positions = grid_positions(2, 2, 2);
        let acts = Matrix::from_fn(8, 64, |r, c| {
            if c < 32 {
                (c as f32).sin() // shared half
            } else if c - 32 == r {
                8.0 // exactly orthogonal idiosyncratic half
            } else {
                0.0
            }
        });
        let fine = concentrator(1024, 32).gather_matrix_on(&acts, &positions, backend::active());
        let coarse =
            concentrator(1024, usize::MAX).gather_matrix_on(&acts, &positions, backend::active());
        assert!(fine.matches > 0, "shared half must deduplicate");
        assert_eq!(coarse.matches, 0, "full-token similarity is too coarse");
    }

    #[test]
    fn tile_p_aligns_with_gemm_subtile_layout() {
        let positions = grid_positions(2, 4, 4);
        let acts = Matrix::from_fn(32, 96, |_, c| (c as f32).sin());
        let stats = concentrator(16, 32).gather_matrix_on(&acts, &positions, backend::active());
        // 2 m-tiles × 3 col tiles.
        assert_eq!(stats.tile_p.len(), 6);
        assert_eq!(stats.tile_heights, vec![16, 16]);
    }

    #[test]
    fn fidelity_is_one_for_unique_rows() {
        let positions = grid_positions(1, 2, 2);
        let acts = Matrix::from_fn(4, 4, |r, c| (r == c) as u32 as f32);
        let stats = concentrator(1024, 4).gather_matrix_on(&acts, &positions, backend::active());
        assert!(stats.row_fidelity.iter().all(|&f| (f - 1.0).abs() < 1e-6));
    }

    #[test]
    fn recycled_scratch_stats_are_byte_identical() {
        let layouter = ConvLayouter::new(4, 4);
        let mut scratch = GatherScratch::new(&layouter);
        let conc = concentrator(16, 32);
        // Reuse one scratch across several matrices (as the stage
        // workspace does across layers); every call must match the
        // fresh HashMap-per-tile reference.
        for seed in 0..3 {
            let positions = grid_positions(2, 4, 4);
            let acts = Matrix::from_fn(32, 64, |r, c| ((r * 3 + c + seed) as f32 * 0.7).sin());
            let reference = conc.gather_matrix_on(&acts, &positions, backend::active());
            let reused = conc.gather_matrix_with_on(
                &acts,
                &positions,
                &mut scratch,
                None,
                backend::active(),
            );
            assert_eq!(reused, reference);
        }
    }

    /// The optional temporal probe through the single production call:
    /// a never-signed cache has no carry proof, so the probed gather
    /// returns the probe-less statistics field by field, carries
    /// nothing, and the cache counts one miss per row and column tile.
    #[test]
    fn unsigned_probe_matches_the_probe_less_gather() {
        let (acts, positions, layouter) = redundant_case(5, 40, 50, 2, 0);
        let conc = concentrator(16, 16);
        let col_tiles = 50usize.div_ceil(16);
        let tokens: Vec<usize> = (0..40).collect();
        let cache = TemporalCache::new(TemporalCacheConfig::default(), 1, 1, 64);
        cache.begin_frame();
        let mut scratch = GatherScratch::new(&layouter);
        let be = backend::active();
        let plain = conc.gather_matrix_with_on(&acts, &positions, &mut scratch, None, be);
        let probe = Some((&cache, tokens.as_slice(), 0, 0));
        let probed = conc.gather_matrix_with_on(&acts, &positions, &mut scratch, probe, be);
        assert_eq!(probed, plain);
        assert_eq!(probed.carried, 0);
        let counters = cache.counters().snapshot();
        assert_eq!(counters.misses, (40 * col_tiles) as u64);
        assert_eq!((counters.hits, counters.gathers_skipped), (0, 0));
    }

    /// SplitMix64 finaliser: a deterministic hash for test inputs.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A `rows × width` matrix of rows drawn from `families` base
    /// patterns — some exact copies, some lightly and some heavily
    /// perturbed, some all-zero — laid out on a 3×4 frame grid with a
    /// positionless (text) row every `text_every` rows (never at 0).
    fn redundant_case(
        seed: u64,
        rows: usize,
        width: usize,
        families: u64,
        text_every: usize,
    ) -> (Matrix, Vec<Option<Fhw>>, ConvLayouter) {
        let layouter = ConvLayouter::new(3, 4);
        let row_hash = |r: usize| mix(seed ^ (r as u64) << 16);
        let acts = Matrix::from_fn(rows, width, |r, c| {
            let h = row_hash(r);
            if h % 11 == 0 {
                return 0.0;
            }
            let family = (h >> 8) % families;
            let base = ((family * 31 + c as u64 * 7) % 11) as f32 - 5.0;
            let noise = (mix(h ^ c as u64) % 1000) as f32 / 1000.0 - 0.5;
            base + noise * [0.0, 0.4, 4.0][(h >> 20) as usize % 3]
        });
        let positions = (0..rows)
            .map(|r| {
                let text = text_every > 0 && r % text_every == text_every - 1;
                (!text).then(|| layouter.position_of(r))
            })
            .collect();
        (acts, positions, layouter)
    }

    /// A settle hook installing a pseudo-random carry mask per m-tile
    /// (`level` in 0..=4 quarters of the segments carried).
    fn random_masks(
        seed: u64,
        col_tiles: usize,
        level: u64,
    ) -> impl FnMut(usize, usize, &mut CarryMask) -> bool {
        move |row_start, row_count, mask| {
            *mask = CarryMask::from_fn(row_count, col_tiles, |r, ct| {
                mix(seed ^ ((row_start + r) as u64) << 24 ^ ct as u64) % 4 < level
            });
            true
        }
    }

    proptest! {
        /// The row-major production sweep takes exactly the decisions of
        /// the tile-by-tile reference loop, field by field, on both
        /// numeric backends — with and without carry masks, over f32
        /// and FP16 stores, for ragged and token-wise column tiles,
        /// text rows, partial m-tiles and thresholds across [0, 1].
        #[test]
        fn row_major_sweep_matches_the_tile_reference(
            seed in 0u64..10_000,
            rows in 0usize..70,
            width in 1usize..70,
            tile_m in 1usize..40,
            vector_len in prop_oneof![Just(usize::MAX), 1usize..24],
            threshold in prop_oneof![Just(0.0f32), Just(1.0f32), 0.0f32..1.0],
            families in 1u64..4,
            text_every in 0usize..6,
            level in 1u64..5,
        ) {
            let (acts, positions, layouter) = redundant_case(seed, rows, width, families, text_every);
            let conc = SimilarityConcentrator {
                gather: GatherConfig { threshold, block: BlockSize::DEFAULT },
                vector_len,
                tile_m,
            };
            let col_tiles = width.div_ceil(conc.v_len(width));
            let mut scratch = GatherScratch::new(&layouter);
            for be in [backend::simd(), backend::scalar_ref()] {
                let reference = conc.reference(&acts, &positions, |_, _, _| false, be);
                let swept = conc.sweep(&acts, &positions, &mut scratch, |_, _, _| false, be);
                prop_assert_eq!(&swept, &reference);

                let reference =
                    conc.reference(&acts, &positions, random_masks(seed, col_tiles, level), be);
                let swept = conc.sweep(
                    &acts,
                    &positions,
                    &mut scratch,
                    random_masks(seed, col_tiles, level),
                    be,
                );
                prop_assert_eq!(swept.0.carried, reference.0.carried);
                prop_assert_eq!(swept.1, reference.1);
                prop_assert_eq!(swept.0.matcher_cycles, reference.0.matcher_cycles);
                prop_assert_eq!(swept.0.dot_ops, reference.0.dot_ops);
                prop_assert_eq!(&swept, &reference);

                // An FP16 store: the sweep over the encoded rows takes
                // the reference's decisions over the f32 rows rounded
                // through FP16 in place.
                let mut rounded = acts.clone();
                be.f16_round(&mut rounded);
                let mut stored: Matrix<f16> = Matrix::default();
                stored.resize(rows, width);
                for r in 0..rows {
                    f16::store(acts.row(r), stored.row_mut(r), be);
                }
                let reference =
                    conc.reference(&rounded, &positions, random_masks(seed, col_tiles, level), be);
                let swept = conc.sweep(
                    &stored,
                    &positions,
                    &mut scratch,
                    random_masks(seed, col_tiles, level),
                    be,
                );
                prop_assert_eq!(&swept, &reference);
            }
        }
    }

    /// Delegates to [`backend::simd`] and counts the segments the gather
    /// hands to the norm, scoring and match kernels.
    #[derive(Debug, Default)]
    struct Counting {
        norm_segs: AtomicUsize,
        scored_segs: AtomicUsize,
        match_launches: AtomicUsize,
        /// Live probe segments of the match launches (normed).
        match_normed: AtomicUsize,
        /// Live (candidate, segment) pairs of the match launches (scored).
        match_scored: AtomicUsize,
    }

    fn count(counter: &AtomicUsize) -> usize {
        counter.load(Ordering::Relaxed)
    }

    impl Backend for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn segment_norms(&self, row: RowRef<'_>, seg: usize, segs: &[usize], out: &mut [f32]) {
            self.norm_segs.fetch_add(segs.len(), Ordering::Relaxed);
            backend::simd().segment_norms(row, seg, segs, out)
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
            self.scored_segs.fetch_add(segs.len(), Ordering::Relaxed);
            backend::simd().segment_scores(a, b, seg, segs, a_norms, b_norms, out)
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
            let carried = |r: usize, s: usize| tile.carried_row(r).get(s) == Some(&true);
            let live: Vec<usize> = (0..tile.segments())
                .filter(|&s| !carried(probe, s))
                .collect();
            let scored: usize = cands
                .iter()
                .map(|&c| live.iter().filter(|&&s| !carried(c as usize, s)).count())
                .sum();
            self.match_launches.fetch_add(1, Ordering::Relaxed);
            self.match_normed.fetch_add(live.len(), Ordering::Relaxed);
            self.match_scored.fetch_add(scored, Ordering::Relaxed);
            backend::simd().segment_match(tile, probe, cands, norms, best, best_cand)
        }
        fn fake_quantize(&self, m: &mut Matrix) {
            backend::simd().fake_quantize(m)
        }
        fn f16_round(&self, m: &mut Matrix) {
            backend::simd().f16_round(m)
        }
        fn f16_encode(&self, src: &[f32], dst: &mut [f16]) {
            backend::simd().f16_encode(src, dst)
        }
        fn normal_fill(&self, seed: u64, out: &mut [f32]) {
            backend::simd().normal_fill(seed, out)
        }
    }

    #[test]
    fn carried_segments_launch_no_kernel_work() {
        let counting: &'static Counting = Box::leak(Box::default());
        let (acts, positions, layouter) = redundant_case(7, 40, 50, 2, 0);
        let conc = concentrator(16, 16);
        let col_tiles = 50usize.div_ceil(16);
        let mut scratch = GatherScratch::new(&layouter);
        let (stats, avoided) = conc.sweep(
            &acts,
            &positions,
            &mut scratch,
            random_masks(0, col_tiles, 4),
            counting,
        );
        // One match launch per row, which norms and scores nothing.
        assert_eq!(count(&counting.match_launches), 40);
        assert_eq!(count(&counting.match_normed), 0);
        assert_eq!(count(&counting.match_scored), 0);
        assert_eq!(count(&counting.norm_segs), 0);
        assert_eq!(count(&counting.scored_segs), 0);
        assert_eq!(stats.carried, (40 * col_tiles) as u64);
        assert_eq!((stats.comparisons, stats.unique_vectors), (0, 0));
        // Every planned probe was avoided, exactly as the reference counts.
        let reference = conc.reference(
            &acts,
            &positions,
            random_masks(0, col_tiles, 4),
            backend::simd(),
        );
        assert!(avoided > 0);
        assert_eq!(avoided, reference.1);
        assert_eq!(stats, reference.0);

        // Without a carry every segment is normed once, and every
        // planned comparison is scored once, all through the match
        // family.
        let clean = conc
            .sweep(&acts, &positions, &mut scratch, |_, _, _| false, counting)
            .0;
        assert_eq!(count(&counting.match_launches), 80);
        assert_eq!(
            count(&counting.match_normed),
            40 * col_tiles,
            "one norm per live segment"
        );
        assert_eq!(count(&counting.match_scored) as u64, clean.comparisons);
        assert!(clean.comparisons > 0);
        assert_eq!(
            count(&counting.norm_segs),
            0,
            "the sweep norms only through the match family"
        );

        // The reference gather runs on the one-segment norm and score
        // launches: nothing on a fully carried tile, one norm segment
        // per live row and column tile without a carry.
        counting.scored_segs.store(0, Ordering::Relaxed);
        let reference = conc.reference(&acts, &positions, random_masks(0, col_tiles, 4), counting);
        assert_eq!(reference.0.carried, (40 * col_tiles) as u64);
        assert_eq!(count(&counting.norm_segs), 0);
        assert_eq!(count(&counting.scored_segs), 0);
        conc.reference(&acts, &positions, |_, _, _| false, counting);
        assert_eq!(
            count(&counting.norm_segs),
            40 * col_tiles,
            "one reference norm per live segment"
        );
        assert!(count(&counting.scored_segs) > 0);
        assert_eq!(
            count(&counting.match_launches),
            80,
            "the reference makes no match launch"
        );
    }

    /// A traced sweep — its backend wrapped in the timing layer, as
    /// under `FOCUS_TRACE` — makes exactly one match launch per gathered
    /// row, counted under the `match` kernel family, with or without a
    /// carry mask and over several m-tiles.
    #[test]
    fn traced_sweep_makes_one_match_launch_per_row() {
        use crate::obs::kernels::{kernel_launches, timed};
        use crate::obs::KernelFamily;
        let counting: &'static Counting = Box::leak(Box::default());
        let traced = timed(counting);
        let (acts, positions, layouter) = redundant_case(3, 45, 70, 3, 4);
        let conc = concentrator(16, 32);
        let col_tiles = 70usize.div_ceil(32);
        let mut scratch = GatherScratch::new(&layouter);
        let family_before = kernel_launches(KernelFamily::Match);
        let reference = conc.reference(&acts, &positions, |_, _, _| false, backend::simd());
        let swept = conc.sweep(&acts, &positions, &mut scratch, |_, _, _| false, traced);
        assert_eq!(swept, reference, "tracing is bit-invisible");
        assert_eq!(count(&counting.match_launches), 45);
        conc.sweep(
            &acts,
            &positions,
            &mut scratch,
            random_masks(3, col_tiles, 2),
            traced,
        );
        assert_eq!(count(&counting.match_launches), 90);
        // Other tests may trace concurrently: the process-wide family
        // count grows by at least this test's launches.
        assert!(kernel_launches(KernelFamily::Match) >= family_before + 90);
    }

    #[test]
    fn overlap_ratio_flags_shallow_gemms() {
        // K = 3584: ratio 14 ≫ 1 (paper: matcher far off critical path).
        assert!(matcher_overlap_ratio(3584, 32, 8) > 10.0);
        // K = 128 < 256: ratio 0.5 → parallel matchers needed.
        assert!(matcher_overlap_ratio(128, 32, 8) < 1.0);
    }
}
