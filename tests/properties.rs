//! Cross-crate property tests (proptest): cross-crate invariants of the
//! concentration units, exercised over randomised inputs.

use focus::core::sec::{OffsetEncoding, TopKSorter};
use focus::core::sic::{gather_tile, scatter, ConvLayouter, Fhw, GatherConfig};
use focus::core::BlockSize;
use focus::tensor::ops::top_k_indices;
use focus::tensor::{backend, half::round_to_f16, Matrix};
use proptest::prelude::*;

proptest! {
    /// Offset encoding is lossless for any strictly increasing index set.
    #[test]
    fn offset_encoding_round_trips(raw in proptest::collection::btree_set(0usize..20_000, 0..200)) {
        let indices: Vec<usize> = raw.into_iter().collect();
        let enc = OffsetEncoding::encode(&indices);
        prop_assert_eq!(enc.decode(), indices);
    }

    /// The streaming bubble sorter equals the sort-based top-k spec for
    /// any scores, k and chain width.
    #[test]
    fn topk_sorter_matches_specification(
        scores in proptest::collection::vec(-1000.0f32..1000.0, 0..120),
        k in 0usize..140,
        ways in 1usize..40,
    ) {
        let got = TopKSorter::new(ways).select(&scores, k);
        prop_assert_eq!(got.indices, top_k_indices(&scores, k));
    }

    /// The conflict-free layout puts the 8 cells of every 2×2×2 window
    /// into 8 distinct banks, on any grid.
    #[test]
    fn bank_mapping_is_conflict_free(
        grid_h in 2usize..24,
        grid_w in 2usize..24,
        f0 in 0usize..6,
        r0 in 0usize..22,
        c0 in 0usize..22,
    ) {
        prop_assume!(r0 + 1 < grid_h && c0 + 1 < grid_w);
        let l = ConvLayouter::new(grid_h, grid_w);
        let mut seen = [false; 8];
        for df in 0..2 {
            for dr in 0..2 {
                for dc in 0..2 {
                    let a = l.address_of(Fhw { f: f0 + df, r: r0 + dr, c: c0 + dc });
                    prop_assert!(a.bank < 8);
                    prop_assert!(!seen[a.bank], "conflict in window");
                    seen[a.bank] = true;
                }
            }
        }
    }

    /// Position ↔ token index conversion round-trips on any grid.
    #[test]
    fn layouter_position_round_trips(
        grid_h in 1usize..30,
        grid_w in 1usize..30,
        token in 0usize..50_000,
    ) {
        let l = ConvLayouter::new(grid_h, grid_w);
        prop_assert_eq!(l.token_of(l.position_of(token)), token);
    }

    /// Gather then scatter reconstructs every row within the cosine
    /// threshold, and exactly for unique rows.
    #[test]
    fn gather_scatter_reconstruction_bound(
        seed in 0u64..1000,
        rows in 4usize..40,
        duplicate_every in 2usize..5,
    ) {
        let grid = 8usize;
        let width = 16usize;
        // Rows: a base pattern repeated every `duplicate_every` rows,
        // unique otherwise.
        let acts = Matrix::from_fn(rows, width, |r, c| {
            let group = if r % duplicate_every == 0 { 0 } else { r };
            (((group * 131 + c * 17) as u64 ^ seed) % 97) as f32 - 48.0
        });
        let positions: Vec<Option<Fhw>> = (0..rows)
            .map(|t| Some(Fhw { f: t / (grid * grid), r: (t / grid) % grid, c: t % grid }))
            .collect();
        let cfg = GatherConfig { threshold: 0.9, block: BlockSize::DEFAULT };
        let g = gather_tile(&acts, 0..rows, 0..width, &positions, &cfg, None, backend::active());
        // Map validity: every representative exists in the compact buffer.
        for i in 0..rows {
            prop_assert!((g.map.representative(i) as usize) < g.p());
        }
        let rebuilt = scatter(&g.compact, &g.map);
        prop_assert_eq!(rebuilt.rows(), rows);
        for i in 0..rows {
            let cos = backend::row_cosine(backend::active(), rebuilt.row(i), acts.row(i));
            prop_assert!(cos >= cfg.threshold - 1e-4, "row {} at cos {}", i, cos);
        }
        // Fidelity reporting agrees with the reconstruction.
        for (i, &f) in g.fidelity.iter().enumerate() {
            let cos = backend::row_cosine(backend::active(), rebuilt.row(i), acts.row(i));
            prop_assert!((f - cos).abs() < 1e-4, "row {}", i);
        }
    }

    /// Lowering the similarity threshold never reduces the match count
    /// (sparsity is monotone in the threshold).
    #[test]
    fn matches_are_monotone_in_threshold(seed in 0u64..500) {
        let rows = 32usize;
        let width = 8usize;
        let acts = Matrix::from_fn(rows, width, |r, c| {
            ((((r / 3) * 31 + c * 7) as u64 ^ seed.wrapping_mul(2654435761)) % 101) as f32 / 10.0
        });
        let positions: Vec<Option<Fhw>> = (0..rows)
            .map(|t| Some(Fhw { f: t / 16, r: (t / 4) % 4, c: t % 4 }))
            .collect();
        let mut prev_matches = 0;
        for &threshold in &[0.99f32, 0.95, 0.9, 0.8, 0.6] {
            let cfg = GatherConfig { threshold, block: BlockSize::DEFAULT };
            let g = gather_tile(&acts, 0..rows, 0..width, &positions, &cfg, None, backend::active());
            prop_assert!(g.matches >= prev_matches, "threshold {}", threshold);
            prev_matches = g.matches;
        }
    }

    /// FP16 round-trip error is within half an ULP of the magnitude.
    #[test]
    fn fp16_rounding_is_bounded(x in -60000.0f32..60000.0) {
        let r = round_to_f16(x);
        let bound = (x.abs() * 2.0f32.powi(-11)).max(2.0f32.powi(-25));
        prop_assert!((r - x).abs() <= bound + 1e-12, "{} -> {}", x, r);
    }
}
