//! Property tests for the Focus core: SEC/SIC invariants beyond the
//! unit suites.

use focus_core::config::RetentionSchedule;
use focus_core::sec::{ImportanceAnalyzer, OffsetEncoding, SelectionPolicy};
use focus_core::sic::block::candidate_positions;
use focus_core::sic::{gather_tile, ConvLayouter, Fhw, GatherConfig};
use focus_core::BlockSize;
use focus_tensor::{backend, Matrix};
use proptest::prelude::*;

proptest! {
    /// Importance is the exact element-wise max over heads and rows.
    #[test]
    fn importance_is_elementwise_max(
        heads_n in 1usize..4,
        t in 1usize..6,
        m in 1usize..40,
        seed in 0u64..100,
    ) {
        let heads: Vec<Matrix> = (0..heads_n)
            .map(|h| {
                Matrix::from_fn(t, m, |i, j| {
                    (((h * 131 + i * 31 + j * 7) as u64 ^ seed) % 1000) as f32 / 1000.0
                })
            })
            .collect();
        let (imp, stats) = ImportanceAnalyzer::new(8).analyze(&heads);
        for j in 0..m {
            let mut expect = 0.0f32;
            for head in &heads {
                for i in 0..t {
                    expect = expect.max(head[(i, j)]);
                }
            }
            prop_assert_eq!(imp[j], expect);
        }
        prop_assert_eq!(stats.compare_ops, (heads_n * t * m) as u64);
    }

    /// Offset encoding storage is minimal for dense runs: exactly one
    /// byte per token when gaps stay under the continuation limit.
    #[test]
    fn offset_encoding_is_compact(start in 0usize..100, len in 0usize..300) {
        let indices: Vec<usize> = (start..start + len).collect();
        let enc = OffsetEncoding::encode(&indices);
        let expected = len + if len > 0 { start / 255 } else { 0 };
        prop_assert!(enc.storage_bytes() <= expected + 1);
        prop_assert_eq!(enc.decode(), indices);
    }

    /// Block candidates always precede the key in token order, for any
    /// block size — the streaming guarantee.
    #[test]
    fn candidates_precede_key(
        f in 0usize..5, r in 0usize..14, c in 0usize..14,
        bf in 1usize..4, bh in 1usize..4, bw in 1usize..4,
    ) {
        let block = BlockSize { f: bf, h: bh, w: bw };
        let key = Fhw { f, r, c };
        let cands: Vec<Fhw> = candidate_positions(key, block).collect();
        prop_assert!(cands.len() < block.cells());
        for cand in cands {
            prop_assert!((cand.f, cand.r, cand.c) < (key.f, key.r, key.c));
        }
    }

    /// Gather output structure: p + matches = rows, compact width is
    /// the tile width, map entries point into the compact buffer.
    #[test]
    fn gather_structure_invariants(rows in 1usize..64, seed in 0u64..200, dup in 1usize..6) {
        let width = 8usize;
        let acts = Matrix::from_fn(rows, width, |r, c| {
            let family = if r % dup == 0 { 0 } else { r };
            (((family * 101 + c * 13) as u64 ^ seed) % 53) as f32 - 26.0
        });
        let grid = 8;
        let positions: Vec<Option<Fhw>> = (0..rows)
            .map(|t| Some(Fhw { f: t / (grid * grid), r: (t / grid) % grid, c: t % grid }))
            .collect();
        let cfg = GatherConfig { threshold: 0.9, block: BlockSize::DEFAULT };
        let g = gather_tile(&acts, 0..rows, 0..width, &positions, &cfg, None, backend::active());
        prop_assert_eq!(g.p() + g.matches as usize, rows);
        prop_assert_eq!(g.compact.cols(), width);
        prop_assert_eq!(g.map.len(), rows);
        prop_assert_eq!(g.fidelity.len(), rows);
        prop_assert!(g.cycles >= rows as u64);
    }

    /// The retention schedule is non-increasing over layers.
    #[test]
    fn schedule_retention_non_increasing(layers in 1usize..40) {
        let s = RetentionSchedule::paper();
        let mut prev = 1.0;
        for l in 0..layers {
            let r = s.retention_at(l);
            prop_assert!(r <= prev + 1e-12);
            prop_assert!(r > 0.0 && r <= 1.0);
            prev = r;
        }
    }

    /// TopP keeps a superset of what a smaller p keeps.
    #[test]
    fn top_p_is_monotone_in_p(scores in proptest::collection::vec(0.0f32..1.0, 4..64)) {
        let small = SelectionPolicy::TopP { p: 0.4 }.select(&scores, scores.len(), 8);
        let large = SelectionPolicy::TopP { p: 0.9 }.select(&scores, scores.len(), 8);
        prop_assert!(large.kept.len() >= small.kept.len());
        // Both are sorted ascending and within range.
        for w in small.kept.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert!(small.kept.iter().all(|&i| i < scores.len()));
    }

    /// Bank addressing is injective over any two-frame window of any
    /// grid (no silent overwrites in the layouter buffer).
    #[test]
    fn bank_addresses_injective(grid_h in 1usize..16, grid_w in 1usize..16) {
        let l = ConvLayouter::new(grid_h, grid_w);
        let mut seen = std::collections::HashSet::new();
        for f in 0..2 {
            for r in 0..grid_h {
                for c in 0..grid_w {
                    let a = l.address_of(Fhw { f, r, c });
                    prop_assert!(a.bank < 8);
                    prop_assert!(a.offset < l.bank_depth());
                    prop_assert!(seen.insert((a.bank, a.offset)));
                }
            }
        }
    }
}
