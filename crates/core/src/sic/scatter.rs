//! Similarity Scatter (paper §VI-C, Fig. 8).
//!
//! The GEMM consuming concentrated input computes only `p` partial-sum
//! rows per sub-tile; Scatter replays each partial row to every
//! original row that maps to it, reconstructing the full `m×n` tile for
//! accumulation. A bank of `2a` accumulators (Table I: 64) absorbs the
//! reconstructed stream; Fig. 10(d) sweeps that width.

use focus_tensor::Matrix;

use crate::sic::map::SimilarityMap;

/// Reconstructs the full `m × n` tile from `p × n` partial sums.
///
/// # Panics
///
/// Panics if the map's compact length differs from `partial.rows()`,
/// or if the map contains temporally **carried** rows — their partial
/// sums live in the previous frame's replay, not in `partial` (the
/// `representative` resolution below enforces this).
pub fn scatter(partial: &Matrix, map: &SimilarityMap) -> Matrix {
    assert_eq!(
        map.compact_len(),
        partial.rows(),
        "map compact length {} != partial rows {}",
        map.compact_len(),
        partial.rows()
    );
    let mut out = Matrix::zeros(map.len(), partial.cols());
    for i in 0..map.len() {
        out.row_mut(i)
            .copy_from_slice(partial.row(map.representative(i) as usize));
    }
    out
}

/// Scatter-accumulator timing for one sub-tile: `m×n` accumulations
/// through `accumulators` lanes.
pub fn scatter_cycles(m: usize, n: usize, accumulators: usize) -> u64 {
    assert!(accumulators > 0, "need at least one accumulator");
    ((m * n) as u64).div_ceil(accumulators as u64)
}

/// Accumulation operations per sub-tile (for the Fig. 10(b) operation
/// split: smaller vectors mean more K-iterations and thus more
/// accumulator work).
pub fn scatter_ops(m: usize, n: usize, k_subtiles: usize) -> u128 {
    m as u128 * n as u128 * k_subtiles as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BlockSize;
    use crate::sic::gather::{gather_tile, GatherConfig};
    use crate::sic::layout::Fhw;
    use focus_tensor::backend;

    #[test]
    fn scatter_replays_partial_rows() {
        let partial = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let map = SimilarityMap::new(vec![0, 0, 1, 0], 2);
        let full = scatter(&partial, &map);
        assert_eq!(full.rows(), 4);
        assert_eq!(full.row(0), &[1.0, 2.0]);
        assert_eq!(full.row(1), &[1.0, 2.0]);
        assert_eq!(full.row(2), &[3.0, 4.0]);
        assert_eq!(full.row(3), &[1.0, 2.0]);
    }

    #[test]
    fn gather_then_scatter_is_exact_for_duplicates() {
        // With exact duplicate rows, scatter(gather(x)) == x.
        let acts = Matrix::from_vec(4, 4, [0.5, -1.0, 2.0, 0.25].repeat(4));
        let positions: Vec<Option<Fhw>> = (0..4)
            .map(|i| {
                Some(Fhw {
                    f: 0,
                    r: i / 2,
                    c: i % 2,
                })
            })
            .collect();
        let cfg = GatherConfig {
            threshold: 0.9,
            block: BlockSize::DEFAULT,
        };
        let g = gather_tile(&acts, 0..4, 0..4, &positions, &cfg, None, backend::active());
        assert_eq!(g.p(), 1);
        let rebuilt = scatter(&g.compact, &g.map);
        assert_eq!(rebuilt, acts);
    }

    #[test]
    fn gather_then_scatter_bounds_error_by_threshold() {
        // Near-duplicates: every reconstructed row must stay within the
        // cosine threshold of its original.
        #[rustfmt::skip]
        let acts = Matrix::from_vec(4, 4, vec![
            1.0, 0.00, 0.0, 0.0,
            1.0, 0.05, 0.0, 0.0,
            1.0, 0.00, 0.06, 0.0,
            0.0, 0.00, 0.0, 9.0,
        ]);
        let positions: Vec<Option<Fhw>> = (0..4)
            .map(|i| {
                Some(Fhw {
                    f: 0,
                    r: i / 2,
                    c: i % 2,
                })
            })
            .collect();
        let cfg = GatherConfig {
            threshold: 0.9,
            block: BlockSize::DEFAULT,
        };
        let g = gather_tile(&acts, 0..4, 0..4, &positions, &cfg, None, backend::active());
        let rebuilt = scatter(&g.compact, &g.map);
        for i in 0..4 {
            let cos = backend::row_cosine(backend::active(), rebuilt.row(i), acts.row(i));
            assert!(cos >= 0.9, "row {i} reconstructed at cos {cos}");
        }
    }

    #[test]
    #[should_panic(expected = "compact length")]
    fn scatter_validates_shapes() {
        let partial = Matrix::zeros(3, 2);
        let map = SimilarityMap::new(vec![0, 1], 2);
        scatter(&partial, &map);
    }

    #[test]
    fn cycle_model_matches_paper_examples() {
        // 1024×32 outputs through 64 accumulators = 512 cycles.
        assert_eq!(scatter_cycles(1024, 32, 64), 512);
        assert_eq!(scatter_cycles(1024, 32, 160), 205);
        assert_eq!(scatter_cycles(1, 1, 64), 1);
    }

    #[test]
    fn ops_grow_with_k_iterations() {
        // Fig. 10(b): halving the vector size doubles K-iterations and
        // accumulator ops.
        let coarse = scatter_ops(1024, 32, 3584 / 64);
        let fine = scatter_ops(1024, 32, 3584 / 32);
        assert_eq!(fine, 2 * coarse);
    }
}
