//! Spatiotemporal block neighbourhoods (paper §VI-A, Fig. 6 ②).
//!
//! The convolution-style sweep treats every token in turn as the **key**
//! of a block whose other cells are its *preceding* neighbours — for
//! the default 2×2×2 block, the seven tokens at relative offsets
//! (−df, −dr, −dc), df/dr/dc ∈ {0,1}, not all zero (the fixed offsets
//! −1, −W, −W−1, −HW, −HW−1, −HW−W, −HW−W−1 of Fig. 6). Comparing only
//! against *earlier* tokens makes the sweep streaming: when a key
//! arrives, all its candidates are already resident in the layouter
//! window.

use crate::config::BlockSize;
use crate::sic::layout::Fhw;

/// Enumerates the candidate positions a key at `p` is compared against
/// under `block`, in scan order. Out-of-range positions (negative
/// coordinates) are skipped; callers additionally filter by tile
/// residency and retention. The iterator is lazy and allocation-free.
pub fn candidate_positions(p: Fhw, block: BlockSize) -> impl Iterator<Item = Fhw> {
    (0..block.f)
        .flat_map(move |df| {
            (0..block.h).flat_map(move |dr| (0..block.w).map(move |dc| (df, dr, dc)))
        })
        .filter(move |&(df, dr, dc)| {
            (df, dr, dc) != (0, 0, 0) && df <= p.f && dr <= p.r && dc <= p.c
        })
        .map(move |(df, dr, dc)| Fhw {
            f: p.f - df,
            r: p.r - dr,
            c: p.c - dc,
        })
}

/// Maximum candidates per key for a block size (7 for 2×2×2).
pub fn max_candidates(block: BlockSize) -> usize {
    block.cells() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_key_has_seven_candidates() {
        let c: Vec<Fhw> =
            candidate_positions(Fhw { f: 3, r: 5, c: 5 }, BlockSize::DEFAULT).collect();
        assert_eq!(c.len(), 7);
        // Contains the immediate spatial and temporal neighbours.
        assert!(c.contains(&Fhw { f: 3, r: 5, c: 4 }));
        assert!(c.contains(&Fhw { f: 2, r: 5, c: 5 }));
        assert!(c.contains(&Fhw { f: 2, r: 4, c: 4 }));
    }

    #[test]
    fn corner_key_has_none() {
        let mut c = candidate_positions(Fhw { f: 0, r: 0, c: 0 }, BlockSize::DEFAULT);
        assert!(c.next().is_none());
    }

    #[test]
    fn edge_keys_clip() {
        // First frame: only spatial candidates.
        let c: Vec<Fhw> =
            candidate_positions(Fhw { f: 0, r: 1, c: 1 }, BlockSize::DEFAULT).collect();
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|p| p.f == 0));
    }

    #[test]
    fn candidates_strictly_precede_the_key() {
        // Every candidate must have a smaller (f, r, c) lexicographic
        // token index, which is what makes the sweep streaming.
        let key = Fhw { f: 2, r: 3, c: 4 };
        for cand in candidate_positions(key, BlockSize { f: 3, h: 2, w: 3 }) {
            assert!(
                (cand.f, cand.r, cand.c) < (key.f, key.r, key.c),
                "{cand:?} does not precede {key:?}"
            );
        }
    }

    #[test]
    fn larger_blocks_enumerate_more_candidates() {
        let small = candidate_positions(Fhw { f: 5, r: 5, c: 5 }, BlockSize::DEFAULT).count();
        let large =
            candidate_positions(Fhw { f: 5, r: 5, c: 5 }, BlockSize { f: 3, h: 3, w: 3 }).count();
        assert_eq!(small, 7);
        assert_eq!(large, 26);
        assert_eq!(max_candidates(BlockSize { f: 3, h: 3, w: 3 }), 26);
    }

    #[test]
    fn temporal_only_block_looks_back_in_time() {
        let c: Vec<Fhw> =
            candidate_positions(Fhw { f: 4, r: 2, c: 2 }, BlockSize { f: 3, h: 1, w: 1 }).collect();
        assert_eq!(c, vec![Fhw { f: 3, r: 2, c: 2 }, Fhw { f: 2, r: 2, c: 2 }]);
    }
}
