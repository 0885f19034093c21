//! Similarity Gather (paper §VI-A, Fig. 6).
//!
//! Operates on one GEMM output tile (`m` rows × one `vector_len`-wide
//! column group): every row is a vector; each vector is compared, via
//! cosine similarity with precomputed L2 norms, against the vectors at
//! its block-candidate positions **within the same tile** (tile-local
//! compression is what keeps the unit streaming — the Fig. 10(a)
//! boundary effect follows directly). Matches reuse their
//! representative's compact index through the [`SimilarityMap`]; unique
//! vectors append to the compact buffer.
//!
//! Two implementations share these semantics:
//!
//! * [`gather_tile`] — the reference: one `(m-tile, column-tile)` pair
//!   at a time, materialising the compact buffer and the map (scatter
//!   consumes both). The matrix-level reference loop
//!   ([`SimilarityConcentrator::gather_matrix_on`](crate::sic::SimilarityConcentrator::gather_matrix_on))
//!   runs it tile by tile.
//! * [`GatherScratch`]'s row-major sweep — the production matrix
//!   gather. It walks each m-tile's rows once, scoring every column
//!   tile of a row while the row is hot, and keeps only the counts the
//!   matrix statistics need.

use core::ops::Range;
use std::collections::HashMap;

use focus_tensor::backend::{self, BackendHandle, MatchTile, RowRef};
use focus_tensor::{Element, Matrix};

use crate::config::BlockSize;
use crate::sic::block::candidate_positions;
use crate::sic::layout::{Fhw, PositionLookup};
use crate::sic::map::SimilarityMap;
use crate::sic::temporal::CarryMask;
use crate::sic::MatrixGatherStats;

/// Gather parameters (a slice of [`FocusConfig`](crate::FocusConfig)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GatherConfig {
    /// Cosine similarity threshold (Table I: 0.9).
    pub threshold: f32,
    /// Spatiotemporal block (Table I: 2×2×2).
    pub block: BlockSize,
}

/// Result of gathering one tile.
#[derive(Clone, Debug, PartialEq)]
pub struct GatherResult {
    /// The deduplicated vectors (`p × vector_len`).
    pub compact: Matrix,
    /// Row → compact index map.
    pub map: SimilarityMap,
    /// Cosine comparisons actually evaluated.
    pub comparisons: u64,
    /// Rows that matched a representative.
    pub matches: u64,
    /// Per-row reconstruction fidelity: cosine between the row and its
    /// representative (1.0 for unique rows).
    pub fidelity: Vec<f32>,
    /// Matcher cycles: one norm slot plus up to `cells−1` comparison
    /// slots per row (the paper's `8·m` bound for 2×2×2); temporally
    /// carried rows cost a single probe slot instead.
    pub cycles: u64,
    /// Multiply ops in the matcher datapath (dots + norms), for energy.
    pub dot_ops: u64,
    /// Rows resolved from the temporal cache (carried): bit-exact
    /// replays of the previous frame, excluded from the compact buffer
    /// and from in-frame candidacy. Always 0 without a carry mask.
    pub carried: u64,
    /// Planned in-frame comparisons avoided through carried rows (the
    /// carried rows' own candidate lists plus probes that would have
    /// targeted a carried candidate). Always 0 without a carry mask;
    /// the matrix-level gather folds it into the cache's
    /// `gathers_skipped` counter.
    pub avoided: u64,
}

impl GatherResult {
    /// Number of unique vectors retained.
    pub fn p(&self) -> usize {
        self.compact.rows()
    }

    /// Compressed payload bytes: compact vectors (FP16) + the map.
    pub fn compressed_bytes(&self) -> usize {
        self.compact.rows() * self.compact.cols() * 2 + self.map.storage_bytes()
    }
}

/// The reference tile gather: rows `rows` × columns `cols` of `acts`.
/// `positions[abs_row]` gives each row's decoded (F,H,W) position;
/// `None` rows (text tokens) are never matched.
///
/// With `carry = Some((mask, col_tile))`, a row the temporal reconcile
/// pass marked carried at `col_tile` (its bytes proven a bit-exact
/// replay of its anchored frame) takes no norm, no candidate scoring
/// and no compact slot, and its planned comparisons count as avoided;
/// the mask is indexed tile-locally.
///
/// Candidate neighbourhoods come from a per-call `HashMap`, independent
/// of the flat [`PositionLookup`] plan the production sweep replays.
/// Each live row's norm is one single-segment [`Backend::segment_norms`]
/// launch (the segment spans the tile's columns), and each live
/// `(row, candidate)` probe one single-segment
/// [`Backend::segment_scores`] launch; the sequential best-match walk
/// then reads the precomputed scores. Matched rows' fidelity is scored
/// the same way against each representative's *source* row
/// (byte-identical to its compact copy). A single segment takes the
/// chunked-scalar dot on every backend, so this reference checks the
/// sweep's eight-segment pass with different code. In a width-0 tile
/// every norm is 0 and every score 1.0.
///
/// # Panics
///
/// Panics if the row/column ranges exceed `acts` or `positions`.
///
/// [`Backend::segment_norms`]: focus_tensor::backend::Backend::segment_norms
/// [`Backend::segment_scores`]: focus_tensor::backend::Backend::segment_scores
pub fn gather_tile(
    acts: &Matrix,
    rows: Range<usize>,
    cols: Range<usize>,
    positions: &[Option<Fhw>],
    cfg: &GatherConfig,
    carry: Option<(&CarryMask, usize)>,
    backend: BackendHandle,
) -> GatherResult {
    assert!(rows.end <= acts.rows(), "row range out of bounds");
    assert!(cols.end <= acts.cols(), "column range out of bounds");
    assert!(positions.len() >= rows.end, "positions too short");
    let (row_start, row_count) = (rows.start, rows.len());
    let width = cols.len();
    let row_of = |local: usize| -> &[f32] { &acts.row(row_start + local)[cols.clone()] };
    let carried_at =
        |local: usize| -> Option<u32> { carry.and_then(|(mask, ct)| mask.carried(local, ct)) };

    // Position → tile-local row index, for candidate lookup.
    let mut pos_to_row: HashMap<Fhw, usize> = HashMap::with_capacity(row_count);
    for local in 0..row_count {
        if let Some(p) = positions[row_start + local] {
            pos_to_row.insert(p, local);
        }
    }
    let cands_of = |local: usize| {
        positions[row_start + local]
            .into_iter()
            .flat_map(move |p| candidate_positions(p, cfg.block))
            .filter_map(|cand| pos_to_row.get(&cand).copied())
            .filter(move |&cand_local| cand_local < local)
    };

    let mut map = SimilarityMap::with_capacity(row_count);
    let mut compact_rows: Vec<f32> = Vec::new();
    let mut fidelity = vec![1.0f32; row_count];
    let mut comparisons: u64 = 0;
    let mut matches: u64 = 0;
    let mut dot_ops: u64 = 0;
    let mut carried: u64 = 0;
    let mut avoided: u64 = 0;

    // Norms of every live (non-carried) row. Carried rows keep a 0.0
    // sentinel (they are never candidates, so it is never read).
    let mut norms = vec![0.0f32; row_count];
    for (local, norm) in norms.iter_mut().enumerate() {
        if carried_at(local).is_none() {
            *norm = backend::row_norm(backend, row_of(local));
        }
    }
    // One probe's cosine from the precomputed norms (1.0 when the tile
    // is 0 wide: both norms are 0).
    let score = |a: usize, b: usize| -> f32 {
        let mut cos = [1.0f32];
        if width > 0 {
            let (ra, rb) = (RowRef::F32(row_of(a)), RowRef::F32(row_of(b)));
            let (na, nb) = (&norms[a..=a], &norms[b..=b]);
            backend.segment_scores(ra, rb, width, &[0], na, nb, &mut cos);
        }
        cos[0]
    };

    // Every row's live candidate probes
    // (`cand_offsets[local]..cand_offsets[local+1]` indexes `cand_idx`,
    // `scores` alike). A probe is live iff neither endpoint is
    // carried; dead probes count as avoided.
    let mut cand_offsets: Vec<usize> = Vec::with_capacity(row_count + 1);
    let mut cand_idx: Vec<usize> = Vec::new();
    let mut scores: Vec<f32> = Vec::new();
    cand_offsets.push(0);
    for local in 0..row_count {
        for cand in cands_of(local) {
            if carried_at(local).is_some() || carried_at(cand).is_some() {
                avoided += 1;
            } else {
                cand_idx.push(cand);
                scores.push(score(local, cand));
            }
        }
        cand_offsets.push(cand_idx.len());
    }

    // The sequential walk: carried replay, best-match selection over
    // the precomputed scores, compact append. `rep_source[slot]` is the
    // source row of compact slot `slot`.
    let mut rep_source: Vec<usize> = Vec::new();
    // Matched rows' deferred fidelity probes `(local, compact slot)`.
    let mut fid_pairs: Vec<(usize, u32)> = Vec::new();
    for local in 0..row_count {
        dot_ops += width as u64; // the norm pass, or the carried probe slot
        if let Some(slot) = carried_at(local) {
            map.push_carried(slot);
            carried += 1;
            continue;
        }

        // Best-match selection in visit order: a strictly better score
        // wins, a tie keeps the earlier candidate — exactly the
        // streaming matcher's behaviour.
        let probes = cand_offsets[local]..cand_offsets[local + 1];
        let mut best: Option<(usize, f32)> = None;
        for (&cand, &cos) in cand_idx[probes.clone()].iter().zip(&scores[probes]) {
            comparisons += 1;
            dot_ops += width as u64;
            if cos >= cfg.threshold && best.is_none_or(|(_, b)| cos > b) {
                best = Some((cand, cos));
            }
        }

        match best {
            Some((cand_local, _)) => {
                let rep = map.representative(cand_local);
                map.push_match(rep);
                matches += 1;
                fid_pairs.push((local, rep));
            }
            None => {
                map.push_unique();
                compact_rows.extend_from_slice(row_of(local));
                rep_source.push(local);
            }
        }
    }

    // Deferred fidelity of the matched rows, against each
    // representative's source row.
    for (l, rep) in fid_pairs {
        fidelity[l] = score(l, rep_source[rep as usize]);
    }

    let p = compact_rows.len() / width.max(1);
    GatherResult {
        compact: Matrix::from_vec(p, width, compact_rows),
        map,
        comparisons,
        matches,
        fidelity,
        // Carried rows occupy a single probe slot; everything else
        // pays the full block scan.
        cycles: carried + (row_count as u64 - carried) * cfg.block.cells() as u64,
        dot_ops,
        carried,
        avoided,
    }
}

/// Recycled state of the production matrix gather: the flat position
/// lookup, a **per-m-tile candidate plan**, the temporal carry mask and
/// the row-major sweep's buffers. The candidate set of every row
/// depends only on positions — not on the column group — so the plan is
/// resolved once per m-tile and every column tile replays it.
#[derive(Clone, Debug)]
pub struct GatherScratch {
    lookup: PositionLookup,
    /// `offsets[local]..offsets[local+1]` indexes `cands`.
    offsets: Vec<u32>,
    cands: Vec<u32>,
    /// The `(row_start, row_count)` the current plan was built for; the
    /// sweep refuses a mismatching tile.
    planned: Option<(usize, usize)>,
    /// Recycled per-m-tile temporal carry decisions (filled by
    /// [`TemporalCache::reconcile`](crate::sic::TemporalCache::reconcile)
    /// on temporal sweeps, untouched otherwise).
    pub carry: CarryMask,
    sweep: Sweep,
}

/// Buffers of the row-major sweep, reused across calls. Per-segment
/// arrays are indexed `local * col_tiles + ct` and only ever grow:
/// every slot a sweep reads was written earlier in the same m-tile.
#[derive(Clone, Debug, Default)]
struct Sweep {
    /// Segment norms (carried segments are never written or read).
    norms: Vec<f32>,
    /// Source row of each segment's representative in its column
    /// tile's walk (the row itself when the segment is unique).
    rep: Vec<u32>,
    /// Unique count `p` per column tile.
    p: Vec<u32>,
    /// The current row's fidelity per column tile.
    fid: Vec<f32>,
    /// The current row's best score per column tile and its candidate
    /// row, as the match launch leaves them. `NEG_INFINITY` marks no
    /// match: every score is a clamped cosine or NaN, so any accepted
    /// score exceeds it.
    best_cos: Vec<f32>,
    best_cand: Vec<u32>,
    /// The column tiles of one fidelity launch.
    live: Vec<usize>,
    /// The current row's deferred fidelity probes
    /// `(representative source row, column tile)`.
    fid_queue: Vec<(usize, usize)>,
}

/// Grows `v` to at least `len` elements, leaving existing values.
fn grow<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

impl GatherScratch {
    /// Scratch for tiles positioned on `layouter`'s grid.
    pub fn new(layouter: &crate::sic::ConvLayouter) -> Self {
        GatherScratch {
            lookup: PositionLookup::new(layouter),
            offsets: Vec::new(),
            cands: Vec::new(),
            planned: None,
            carry: CarryMask::new(),
            sweep: Sweep::default(),
        }
    }

    /// Plans one m-tile: registers its rows and resolves every row's
    /// in-tile candidate list, in exactly the order the reference
    /// enumerates (block scan order, earlier rows only).
    pub fn plan_tile(
        &mut self,
        positions: &[Option<Fhw>],
        row_start: usize,
        row_count: usize,
        block: BlockSize,
    ) {
        assert!(
            positions.len() >= row_start + row_count,
            "positions too short"
        );
        self.lookup.begin_tile();
        for local in 0..row_count {
            if let Some(p) = positions[row_start + local] {
                self.lookup.insert(p, local);
            }
        }
        self.offsets.clear();
        self.cands.clear();
        self.offsets.push(0);
        for local in 0..row_count {
            if let Some(p) = positions[row_start + local] {
                for cand in candidate_positions(p, block) {
                    if let Some(cand_local) = self.lookup.get(cand) {
                        if cand_local < local {
                            self.cands.push(cand_local as u32);
                        }
                    }
                }
            }
            self.offsets.push(self.cands.len() as u32);
        }
        self.planned = Some((row_start, row_count));
    }

    /// The planned candidate rows of tile-local row `local`.
    #[inline]
    pub fn row_candidates(&self, local: usize) -> &[u32] {
        let lo = self.offsets[local] as usize;
        let hi = self.offsets[local + 1] as usize;
        &self.cands[lo..hi]
    }

    /// Gathers the planned m-tile (rows `row_start .. row_start +
    /// row_count`) across every column tile of `col_ranges` in **one
    /// row-major pass**, folding the tile's counts into `stats` and
    /// returning its avoided probes. With `temporal`, the current
    /// [`GatherScratch::carry`] mask applies.
    ///
    /// Each column tile keeps its own best-match walk state: the
    /// current row's best match, every row's representative (as its
    /// source row) and the unique count `p`. The walks are sequential
    /// over rows and candidates, so running all column tiles inside the
    /// row loop takes exactly the decisions the tile-by-tile
    /// [`gather_tile`] reference takes. The column tiles are the rows'
    /// `vector_len`-wide segments, and each row makes exactly one
    /// [`Backend::segment_match`] launch: it norms the row's live
    /// segments into the sweep's per-segment norm buffer and folds every
    /// planned candidate's cosines, in plan order, into each column
    /// tile's best match. Carried segments (from the per-row slices of
    /// the carry mask) take no kernel work. Matches whose representative
    /// is not the matched candidate itself take one
    /// [`Backend::segment_scores`] launch per distinct representative.
    /// No compact copy or map is built: `p` and the row count give
    /// `compressed_bytes` directly.
    ///
    /// # Panics
    ///
    /// Panics if the current plan is not for exactly this tile.
    ///
    /// [`Backend::segment_match`]: focus_tensor::backend::Backend::segment_match
    /// [`Backend::segment_scores`]: focus_tensor::backend::Backend::segment_scores
    #[allow(clippy::too_many_arguments)] // the tile tuple + config, carry switch, backend, sink
    pub(crate) fn sweep_tile<E: Element>(
        &mut self,
        acts: &Matrix<E>,
        row_start: usize,
        row_count: usize,
        col_ranges: &[Range<usize>],
        cfg: &GatherConfig,
        temporal: bool,
        backend: BackendHandle,
        stats: &mut MatrixGatherStats,
    ) -> u64 {
        assert_eq!(
            self.planned,
            Some((row_start, row_count)),
            "scratch plan is for a different tile"
        );
        assert!(
            row_start + row_count <= acts.rows(),
            "row range out of bounds"
        );
        let cols = col_ranges.len();
        // Column tiles are `vector_ranges`: equal segments from column
        // 0, the last one possibly ragged.
        let seg = col_ranges.first().map_or(1, |range| range.len());
        let GatherScratch {
            offsets,
            cands,
            carry,
            sweep: sw,
            ..
        } = self;

        grow(&mut sw.norms, row_count * cols);
        grow(&mut sw.rep, row_count * cols);
        sw.p.clear();
        sw.p.resize(cols, 0);
        sw.fid.clear();
        sw.fid.resize(cols, 1.0);
        sw.best_cos.resize(cols, f32::NEG_INFINITY);
        sw.best_cand.resize(cols, 0);
        let segments_of = |r: usize| r * cols..(r + 1) * cols;
        let width = acts.cols();
        let rows = &acts.as_slice()[row_start * width..(row_start + row_count) * width];
        let tile = MatchTile {
            rows: E::row_ref(rows),
            width,
            seg,
            carried: if temporal { carry.flags() } else { &[] },
            threshold: cfg.threshold,
        };
        let norms = &mut sw.norms[..row_count * cols];

        let (mut comparisons, mut matches, mut carried, mut avoided, mut dot_ops) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for local in 0..row_count {
            let row = &rows[local * width..(local + 1) * width];
            let row_cands = &cands[offsets[local] as usize..offsets[local + 1] as usize];
            let base = local * cols;
            // One launch: the row's live segment norms, and every
            // planned candidate's scores folded in candidate order into
            // each column tile's best match.
            backend.segment_match(
                &tile,
                local,
                row_cands,
                norms,
                &mut sw.best_cos,
                &mut sw.best_cand,
            );
            dot_ops += width as u64; // per segment: the norm pass, or the carried probe slot
            let probe_carried = tile.carried_row(local);
            if probe_carried.is_empty() {
                comparisons += (row_cands.len() * cols) as u64;
                dot_ops += (row_cands.len() * width) as u64;
            } else {
                for &cand in row_cands {
                    let cand_carried = tile.carried_row(cand as usize);
                    let pairs = probe_carried.iter().zip(cand_carried);
                    let live = pairs.filter(|&(&p, &c)| !(p | c)).count();
                    // Every live segment is `seg` wide but a ragged last one.
                    let last = cols - 1;
                    let last_live = !(probe_carried[last] | cand_carried[last]);
                    comparisons += live as u64;
                    avoided += (cols - live) as u64;
                    dot_ops +=
                        (live * seg - last_live as usize * (seg - col_ranges[last].len())) as u64;
                }
            }

            // Each column tile's outcome; matches against a
            // representative other than the candidate queue a fidelity
            // probe.
            sw.fid_queue.clear();
            // Candidates are earlier rows, so their representatives sit
            // before this row's in `rep`.
            let (earlier, reps) = sw.rep.split_at_mut(base);
            let best = sw.best_cos.iter().zip(&sw.best_cand);
            let outcomes = reps[..cols]
                .iter_mut()
                .zip(&mut sw.p)
                .zip(&mut sw.fid)
                .zip(best);
            for (ct, (((rep, p), fid), (&cos, &cand))) in outcomes.enumerate() {
                if cos == f32::NEG_INFINITY {
                    // No match: the segment is carried, or unique. (A
                    // carried segment's `rep` is never read: no probe
                    // scores a carried candidate segment.)
                    let is_carried = probe_carried.get(ct) == Some(&true);
                    carried += is_carried as u64;
                    *p += !is_carried as u32;
                    *rep = local as u32;
                    *fid = 1.0;
                    continue;
                }
                let cand = cand as usize;
                *rep = earlier[cand * cols + ct];
                matches += 1;
                if *rep as usize == cand {
                    // The probe already scored this exact pair.
                    *fid = cos;
                } else {
                    sw.fid_queue.push((*rep as usize, ct));
                }
            }
            // Deferred fidelity: one launch per distinct representative,
            // over the column tiles it represents, straight into `fid`.
            sw.fid_queue.sort_unstable();
            for run in sw.fid_queue.chunk_by(|x, y| x.0 == y.0) {
                let src = run[0].0;
                sw.live.clear();
                sw.live.extend(run.iter().map(|&(_, ct)| ct));
                backend.segment_scores(
                    E::row_ref(row),
                    E::row_ref(&rows[src * width..(src + 1) * width]),
                    seg,
                    &sw.live,
                    &norms[segments_of(local)],
                    &norms[segments_of(src)],
                    &mut sw.fid,
                );
            }
            // Column-tile order, as the tile-by-tile reference adds.
            let fidelity = &mut stats.row_fidelity[row_start + local];
            for &f in &sw.fid {
                *fidelity += f / cols as f32;
            }
        }

        for (range, &p) in col_ranges.iter().zip(&sw.p) {
            stats.tile_p.push(p as usize);
            stats.unique_vectors += p as u64;
            stats.dense_bytes += (row_count * range.len() * 2) as u64;
            // Compact vectors (FP16) + a 2-byte map entry per row.
            stats.compressed_bytes += (p as usize * range.len() * 2 + row_count * 2) as u64;
        }
        let segments = (row_count * cols) as u64;
        stats.total_vectors += segments;
        stats.comparisons += comparisons;
        stats.matches += matches;
        stats.carried += carried;
        stats.dot_ops += dot_ops;
        stats.matcher_cycles += carried + (segments - carried) * cfg.block.cells() as u64;
        avoided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_tensor::backend;

    fn cfg() -> GatherConfig {
        GatherConfig {
            threshold: 0.9,
            block: BlockSize::DEFAULT,
        }
    }

    /// The reference gather over the default backend, no carry.
    fn tile(
        acts: &Matrix,
        rows: Range<usize>,
        cols: Range<usize>,
        positions: &[Option<Fhw>],
        cfg: &GatherConfig,
    ) -> GatherResult {
        gather_tile(acts, rows, cols, positions, cfg, None, backend::active())
    }

    /// Tokens laid out on a 1-frame 2×2 grid; rows 0..4 in scan order.
    fn positions_2x2() -> Vec<Option<Fhw>> {
        vec![
            Some(Fhw { f: 0, r: 0, c: 0 }),
            Some(Fhw { f: 0, r: 0, c: 1 }),
            Some(Fhw { f: 0, r: 1, c: 0 }),
            Some(Fhw { f: 0, r: 1, c: 1 }),
        ]
    }

    #[test]
    fn identical_neighbours_deduplicate() {
        #[rustfmt::skip]
        let acts = Matrix::from_vec(4, 4, vec![
            1.0, 0.0, 0.0, 0.0,
            1.0, 0.0, 0.0, 0.0,
            0.0, 1.0, 0.0, 0.0,
            1.0, 0.0, 0.0, 0.0,
        ]);
        let r = tile(&acts, 0..4, 0..4, &positions_2x2(), &cfg());
        assert_eq!(r.p(), 2);
        assert_eq!(r.matches, 2);
        // Rows 1 and 3 map to row 0's compact slot.
        assert_eq!(r.map.representative(1), r.map.representative(0));
        assert_eq!(r.map.representative(3), r.map.representative(0));
        assert!(r.fidelity.iter().all(|&f| f > 0.999));
    }

    #[test]
    fn dissimilar_rows_stay_unique() {
        let acts = Matrix::from_fn(4, 4, |r, c| (r == c) as u32 as f32);
        let r = tile(&acts, 0..4, 0..4, &positions_2x2(), &cfg());
        assert_eq!(r.p(), 4);
        assert_eq!(r.matches, 0);
        assert!(r.comparisons > 0);
    }

    #[test]
    fn text_rows_never_match() {
        let acts = Matrix::from_vec(2, 2, vec![1.0, 0.0, 1.0, 0.0]);
        let positions = vec![Some(Fhw { f: 0, r: 0, c: 0 }), None];
        let r = tile(
            &acts,
            0..2,
            0..2,
            &positions,
            &GatherConfig {
                threshold: 0.5,
                block: BlockSize::DEFAULT,
            },
        );
        assert_eq!(r.p(), 2, "the positionless row must stay unique");
    }

    #[test]
    fn representative_chains_resolve_to_roots() {
        // Row 1 matches row 0; row 3 matches row 1 → must map to row 0's
        // compact slot (chained reuse, Fig. 6 ④).
        let v = [1.0, 1.0, 0.0, 0.0];
        let acts = Matrix::from_vec(4, 4, [v, v, [0.0, 0.0, 5.0, 0.0], v].concat());
        let r = tile(&acts, 0..4, 0..4, &positions_2x2(), &cfg());
        assert_eq!(r.p(), 2);
        assert_eq!(r.map.representative(3), 0);
    }

    #[test]
    fn tile_locality_blocks_cross_tile_matches() {
        // Rows 2,3 form their own tile: row 2's spatial neighbours are
        // in tile 0, so nothing matches even though values repeat.
        let acts = Matrix::from_vec(4, 2, [2.0, 0.0].repeat(4));
        let r = tile(&acts, 2..4, 0..2, &positions_2x2(), &cfg());
        // Row 2's only block candidate (0,0) lives in tile 0 → unique;
        // row 3 matches row 2 inside the tile → one compact vector.
        assert_eq!(r.matches, 1);
        assert_eq!(r.p(), 1);
    }

    #[test]
    fn threshold_is_respected() {
        // cos(a,b) ≈ 0.894 < 0.9 → no match; at 0.85 → match.
        let acts = Matrix::from_vec(2, 2, vec![1.0, 0.0, 2.0, 1.0]);
        let positions = vec![
            Some(Fhw { f: 0, r: 0, c: 0 }),
            Some(Fhw { f: 0, r: 0, c: 1 }),
        ];
        let strict = tile(&acts, 0..2, 0..2, &positions, &cfg());
        assert_eq!(strict.matches, 0);
        let loose = tile(
            &acts,
            0..2,
            0..2,
            &positions,
            &GatherConfig {
                threshold: 0.85,
                block: BlockSize::DEFAULT,
            },
        );
        assert_eq!(loose.matches, 1);
        assert!((loose.fidelity[1] - 0.894).abs() < 0.01);
    }

    #[test]
    fn cycle_bound_is_eight_m_for_default_block() {
        let acts = Matrix::zeros(16, 8);
        let positions: Vec<Option<Fhw>> = (0..16)
            .map(|i| {
                Some(Fhw {
                    f: 0,
                    r: i / 4,
                    c: i % 4,
                })
            })
            .collect();
        let r = tile(&acts, 0..16, 0..8, &positions, &cfg());
        assert_eq!(r.cycles, 8 * 16);
    }

    #[test]
    fn indexed_lookup_path_is_bit_identical() {
        // The flat-lookup plan the production sweep replays resolves
        // exactly the reference's HashMap candidates, in the same order.
        use crate::sic::layout::ConvLayouter;
        let layouter = ConvLayouter::new(4, 4);
        let positions: Vec<Option<Fhw>> = (0..32)
            .map(|t| {
                // Sprinkle in positionless (text) rows.
                if t % 7 == 3 {
                    None
                } else {
                    Some(layouter.position_of(t))
                }
            })
            .collect();
        let mut scratch = GatherScratch::new(&layouter);
        for (row_start, row_count) in [(0usize, 16usize), (16, 16), (8, 8)] {
            scratch.plan_tile(&positions, row_start, row_count, BlockSize::DEFAULT);
            let mut pos_to_row = HashMap::new();
            for local in 0..row_count {
                if let Some(p) = positions[row_start + local] {
                    pos_to_row.insert(p, local);
                }
            }
            for local in 0..row_count {
                let expect: Vec<u32> = positions[row_start + local]
                    .into_iter()
                    .flat_map(|p| candidate_positions(p, BlockSize::DEFAULT))
                    .filter_map(|cand| pos_to_row.get(&cand).copied())
                    .filter(|&cand_local| cand_local < local)
                    .map(|cand_local| cand_local as u32)
                    .collect();
                assert_eq!(scratch.row_candidates(local), &expect[..], "row {local}");
            }
        }
    }

    #[test]
    fn compressed_bytes_account_vectors_and_map() {
        let acts = Matrix::from_vec(2, 2, vec![1.0, 0.0, 1.0, 0.0]);
        let positions = vec![
            Some(Fhw { f: 0, r: 0, c: 0 }),
            Some(Fhw { f: 0, r: 0, c: 1 }),
        ];
        let r = tile(&acts, 0..2, 0..2, &positions, &cfg());
        // 1 unique vector × 2 elems × 2 B + 2 map entries × 2 B.
        assert_eq!(r.compressed_bytes(), 4 + 4);
    }
}
