//! Weight-stationary systolic-array timing model (SCALE-sim-v2 style).
//!
//! A GEMM `M×K×N` is tiled into output tiles of `tile_m × pe_cols`
//! columns and `pe_rows`-deep contraction sub-tiles (paper Fig. 8):
//!
//! * the **outer loop** is output-stationary: an `m×n` output tile stays
//!   in the accumulation buffer across the `⌈K/k⌉` sub-tiles;
//! * the **inner loop** is weight-stationary: one `k×n` weight sub-tile
//!   is pinned in the array while `p` input rows stream through
//!   (`p = m` dense; `p < m` after similarity concentration).
//!
//! Per sub-tile the array needs `p` streaming cycles plus the
//! `rows + cols − 2` pipeline fill/drain; weight loads are double
//! buffered and hidden. When similarity scatter is active, each sub-tile
//! additionally reconstructs `m×n` accumulations through `A` scatter
//! accumulators (`⌈m·n/A⌉` cycles) that run concurrently with the next
//! stream — the sub-tile's effective latency is the max of the two
//! (paper Fig. 10(d)).

/// Work description of one (possibly batched) GEMM on the array.
#[derive(Clone, Debug, PartialEq)]
pub struct GemmWork {
    /// Report label.
    pub label: String,
    /// Output rows of the dense GEMM.
    pub m: usize,
    /// Contraction depth.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Independent instances (attention heads).
    pub batch: usize,
    /// Output-tile height (Table I: 1024).
    pub tile_m: usize,
    /// Retained input-row counts per (m-tile, k-sub-tile), flattened as
    /// `mt * k_subtiles + ks`, shared across n-tiles and batches. `None`
    /// means dense. Counts above the tile height are clamped.
    pub subtile_rows: Option<Vec<usize>>,
    /// Number of scatter accumulators, when similarity scatter must
    /// reconstruct `m×n` outputs per sub-tile. `None` = no scatter.
    pub scatter_accumulators: Option<usize>,
}

impl GemmWork {
    /// Dense work with no concentration.
    pub fn dense(
        label: impl Into<String>,
        m: usize,
        k: usize,
        n: usize,
        batch: usize,
        tile_m: usize,
    ) -> Self {
        GemmWork {
            label: label.into(),
            m,
            k,
            n,
            batch,
            tile_m,
            subtile_rows: None,
            scatter_accumulators: None,
        }
    }

    /// Number of m-tiles.
    pub fn m_tiles(&self) -> usize {
        self.m.div_ceil(self.tile_m).max(1)
    }

    /// Number of k-sub-tiles for an array with `pe_rows` rows.
    pub fn k_subtiles(&self, pe_rows: usize) -> usize {
        self.k.div_ceil(pe_rows).max(1)
    }

    /// Retained rows for `(m_tile, k_subtile)`; falls back to the dense
    /// tile height.
    pub fn rows_for(&self, m_tile: usize, k_subtile: usize, pe_rows: usize) -> usize {
        let tile_height = self.tile_height(m_tile);
        match &self.subtile_rows {
            Some(rows) => {
                let idx = m_tile * self.k_subtiles(pe_rows) + k_subtile;
                rows.get(idx)
                    .copied()
                    .unwrap_or(tile_height)
                    .min(tile_height)
            }
            None => tile_height,
        }
    }

    /// Height of m-tile `m_tile` (short on the ragged edge).
    pub fn tile_height(&self, m_tile: usize) -> usize {
        let start = m_tile * self.tile_m;
        self.tile_m.min(self.m.saturating_sub(start))
    }

    /// MACs actually executed (dense MACs scaled by retained rows).
    pub fn effective_macs(&self, pe_rows: usize) -> u128 {
        let k_subs = self.k_subtiles(pe_rows);
        let mut macs: u128 = 0;
        for mt in 0..self.m_tiles() {
            for ks in 0..k_subs {
                let p = self.rows_for(mt, ks, pe_rows);
                let k_depth = pe_rows.min(self.k - ks * pe_rows);
                macs += p as u128 * k_depth as u128 * self.n as u128;
            }
        }
        macs * self.batch as u128
    }

    /// MACs of the dense GEMM.
    pub fn dense_macs(&self) -> u128 {
        self.m as u128 * self.k as u128 * self.n as u128 * self.batch as u128
    }
}

/// Timing result of one GEMM.
#[derive(Clone, Debug, PartialEq)]
pub struct GemmTiming {
    /// Total cycles including fill/drain and scatter stalls.
    pub cycles: u64,
    /// MACs executed.
    pub macs: u128,
    /// MACs / (cycles × PEs): the Fig. 13 utilisation metric.
    pub utilization: f64,
    /// Per-sub-tile `(retained_rows, utilization)` samples from the
    /// first batch instance, for the Fig. 13 histogram.
    pub subtile_samples: Vec<(usize, f64)>,
    /// Scatter accumulator operations performed.
    pub scatter_ops: u128,
}

/// The array's timing model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystolicModel {
    /// PE rows (contraction dimension).
    pub pe_rows: usize,
    /// PE columns (output dimension).
    pub pe_cols: usize,
}

impl SystolicModel {
    /// Creates a model for a `rows × cols` array.
    pub fn new(pe_rows: usize, pe_cols: usize) -> Self {
        assert!(
            pe_rows > 0 && pe_cols > 0,
            "array dimensions must be positive"
        );
        SystolicModel { pe_rows, pe_cols }
    }

    /// Pipeline fill + drain cycles of one sub-tile pass.
    pub fn fill_drain(&self) -> u64 {
        (self.pe_rows + self.pe_cols - 2) as u64
    }

    /// Times one GEMM.
    ///
    /// Every full-width n-tile of a given `(m-tile, k-sub-tile)` costs
    /// exactly the same cycles and scatter ops, so the model evaluates
    /// one representative and multiplies — collapsing the
    /// `m_tiles × n_tiles × k_subtiles` sweep (hundreds of thousands of
    /// iterations for paper-scale FFN GEMMs) to
    /// `m_tiles × k_subtiles × {full, ragged}`. Integer sums of equal
    /// terms are exact, so cycle counts, MACs, utilisation and the
    /// Fig. 13 sub-tile samples are identical to the naive triple loop
    /// (asserted in `naive_and_collapsed_sweeps_agree`).
    pub fn time(&self, work: &GemmWork) -> GemmTiming {
        let k_subs = work.k_subtiles(self.pe_rows);
        let fill = self.fill_drain();
        // Column tiles as (count, width) groups: the full-width tiles
        // plus at most one ragged remainder (a degenerate GEMM with
        // n = 0 still sweeps one zero-width tile, like the naive loop).
        let full_n_tiles = (work.n / self.pe_cols) as u64;
        let ragged_n = work.n % self.pe_cols;
        let mut col_groups: [(u64, usize); 2] = [(full_n_tiles, self.pe_cols), (0, 0)];
        if ragged_n > 0 || full_n_tiles == 0 {
            col_groups[1] = (1, ragged_n);
        }
        let first_n_width = if full_n_tiles > 0 {
            self.pe_cols
        } else {
            ragged_n
        };
        let mut cycles: u64 = 0;
        let mut scatter_ops: u128 = 0;
        let mut subtile_samples = Vec::new();

        for mt in 0..work.m_tiles() {
            let tile_height = work.tile_height(mt);
            if tile_height == 0 {
                continue;
            }
            for ks in 0..k_subs {
                let p = work.rows_for(mt, ks, self.pe_rows);
                let k_depth = self.pe_rows.min(work.k - ks * self.pe_rows);
                let stream = p as u64 + fill;
                // Sub-tile cycles of one column tile of `n_width`.
                let tile_cycles = |n_width: usize| match work.scatter_accumulators {
                    Some(acc) if acc > 0 => {
                        // Scatter reconstructs the full tile_height×n
                        // outputs; it overlaps the stream and binds
                        // when slower.
                        let ops = tile_height as u64 * n_width as u64;
                        stream.max(ops.div_ceil(acc as u64))
                    }
                    _ => stream,
                };
                for &(count, n_width) in &col_groups {
                    if count == 0 {
                        continue;
                    }
                    cycles += count * tile_cycles(n_width);
                    if work.scatter_accumulators.is_some_and(|acc| acc > 0) {
                        scatter_ops += count as u128 * tile_height as u128 * n_width as u128;
                    }
                }
                // Samples cover the first column tile only, as before.
                let macs = p as u64 * k_depth as u64 * first_n_width as u64;
                let util = macs as f64
                    / (tile_cycles(first_n_width) as f64 * (self.pe_rows * self.pe_cols) as f64);
                subtile_samples.push((p, util));
            }
        }

        cycles *= work.batch as u64;
        let macs = work.effective_macs(self.pe_rows);
        let utilization = if cycles == 0 {
            0.0
        } else {
            macs as f64 / (cycles as f64 * (self.pe_rows * self.pe_cols) as f64)
        };
        GemmTiming {
            cycles,
            macs,
            utilization,
            subtile_samples,
            scatter_ops: scatter_ops * work.batch as u128,
        }
    }

    /// On-chip SRAM traffic (bytes) of one GEMM pass with the standard
    /// weight-stationary reuse pattern:
    /// * inputs are re-read once per n-tile column pass,
    /// * weights are re-loaded once per m-tile,
    /// * FP32 partial sums are read-modify-written in the output buffer
    ///   once per k-sub-tile (the dominant term — this is the
    ///   accumulation path of Fig. 8, whether it runs through the plain
    ///   accumulator or the similarity scatter),
    /// * final FP16 outputs are written once.
    pub fn sram_traffic_bytes(&self, work: &GemmWork, bytes_per_elem: usize) -> u64 {
        let n_tiles = work.n.div_ceil(self.pe_cols).max(1) as u128;
        let k_subs = work.k_subtiles(self.pe_rows);
        let mut input_elems: u128 = 0;
        for mt in 0..work.m_tiles() {
            for ks in 0..k_subs {
                let p = work.rows_for(mt, ks, self.pe_rows);
                let k_depth = self.pe_rows.min(work.k - ks * self.pe_rows);
                input_elems += p as u128 * k_depth as u128;
            }
        }
        input_elems *= n_tiles;
        let weight_elems = work.k as u128 * work.n as u128 * work.m_tiles() as u128;
        let output_elems = work.m as u128 * work.n as u128;
        // Partial sums: FP32 (4 B), read + write per k-sub-tile beyond
        // the first (the first sub-tile initialises, write only).
        let psum_accesses = output_elems * (2 * k_subs as u128 - 1);
        let operand_bytes = (input_elems + weight_elems + output_elems) * bytes_per_elem as u128;
        ((operand_bytes + psum_accesses * 4) * work.batch as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SystolicModel {
        SystolicModel::new(32, 32)
    }

    #[test]
    fn dense_square_tile_utilization_matches_paper_ballpark() {
        // One full 1024×3584×32 tile: K/k = 112 sub-tiles of 1024 rows.
        let work = GemmWork::dense("t", 1024, 3584, 32, 1, 1024);
        let t = model().time(&work);
        // util = p/(p+fill) = 1024/1086 ≈ 0.943
        assert!(
            (t.utilization - 1024.0 / 1086.0).abs() < 1e-6,
            "{}",
            t.utilization
        );
        assert_eq!(t.macs, 1024 * 3584 * 32);
    }

    #[test]
    fn cycles_scale_linearly_with_batch() {
        let one = GemmWork::dense("t", 256, 128, 64, 1, 1024);
        let four = GemmWork::dense("t", 256, 128, 64, 4, 1024);
        assert_eq!(model().time(&four).cycles, 4 * model().time(&one).cycles);
    }

    #[test]
    fn concentration_reduces_cycles_and_macs() {
        let dense = GemmWork::dense("t", 1024, 128, 32, 1, 1024);
        let mut sparse = dense.clone();
        sparse.subtile_rows = Some(vec![512; 4]);
        let td = model().time(&dense);
        let ts = model().time(&sparse);
        assert!(ts.cycles < td.cycles);
        assert_eq!(ts.macs, td.macs / 2);
    }

    #[test]
    fn scatter_binds_when_accumulators_are_few() {
        // p = 200 retained rows, but scatter must write 1024×32 outputs.
        let mut work = GemmWork::dense("t", 1024, 32, 32, 1, 1024);
        work.subtile_rows = Some(vec![200]);
        work.scatter_accumulators = Some(64);
        let t64 = model().time(&work);
        // Scatter: 1024×32/64 = 512 > 200+62 stream cycles.
        assert_eq!(t64.cycles, 512);
        work.scatter_accumulators = Some(160);
        let t160 = model().time(&work);
        // 1024×32/160 = 205 < 262 → stream-bound.
        assert_eq!(t160.cycles, 262);
        work.scatter_accumulators = None;
        assert_eq!(model().time(&work).cycles, 262);
    }

    #[test]
    fn ragged_edges_are_covered() {
        // m=1500 (tile 1024 + 476), k=100 (32·3+4), n=50 (32+18).
        let work = GemmWork::dense("t", 1500, 100, 50, 1, 1024);
        let t = model().time(&work);
        assert_eq!(t.macs, 1500 * 100 * 50);
        assert!(t.cycles > 0);
        assert!(t.utilization < 1.0);
    }

    #[test]
    fn subtile_samples_report_first_ntile_only() {
        let work = GemmWork::dense("t", 2048, 64, 64, 1, 1024);
        let t = model().time(&work);
        // 2 m-tiles × 2 k-sub-tiles = 4 samples (n-tiles excluded).
        assert_eq!(t.subtile_samples.len(), 4);
        assert!(t.subtile_samples.iter().all(|&(p, _)| p == 1024));
    }

    #[test]
    fn utilization_converges_to_one_for_tall_tiles() {
        let work = GemmWork::dense("t", 100_000, 32, 32, 1, 100_000);
        let t = model().time(&work);
        assert!(t.utilization > 0.999);
    }

    #[test]
    fn sram_traffic_counts_reuse_pattern() {
        let work = GemmWork::dense("t", 64, 32, 64, 1, 1024);
        // inputs: 64×32 × 2 n-tiles; weights: 32×64 × 1 m-tile; outputs
        // 64×64 — all FP16; plus FP32 partial sums: one k-sub-tile, so a
        // single write pass (2·1−1 = 1 access) of 64×64 × 4 B.
        let expect = (64 * 32 * 2 + 32 * 64 + 64 * 64) * 2 + 64 * 64 * 4;
        assert_eq!(model().sram_traffic_bytes(&work, 2), expect as u64);
    }

    #[test]
    fn psum_traffic_dominates_deep_gemms() {
        // K = 3584 → 112 sub-tiles → 223 psum accesses per output.
        let work = GemmWork::dense("t", 1024, 3584, 32, 1, 1024);
        let bytes = model().sram_traffic_bytes(&work, 2);
        let psum = 1024 * 32 * (2 * 112 - 1) * 4;
        assert!(bytes as f64 > psum as f64 * 0.5);
        assert!(bytes > psum as u64);
    }

    /// The original `m_tiles × n_tiles × k_subtiles` sweep, kept as the
    /// specification the collapsed model must match bit-for-bit.
    fn naive_time(model: &SystolicModel, work: &GemmWork) -> GemmTiming {
        let n_tiles = work.n.div_ceil(model.pe_cols).max(1);
        let k_subs = work.k_subtiles(model.pe_rows);
        let fill = model.fill_drain();
        let mut cycles: u64 = 0;
        let mut scatter_ops: u128 = 0;
        let mut subtile_samples = Vec::new();
        for mt in 0..work.m_tiles() {
            let tile_height = work.tile_height(mt);
            if tile_height == 0 {
                continue;
            }
            for nt in 0..n_tiles {
                let n_width = model.pe_cols.min(work.n - nt * model.pe_cols);
                for ks in 0..k_subs {
                    let p = work.rows_for(mt, ks, model.pe_rows);
                    let k_depth = model.pe_rows.min(work.k - ks * model.pe_rows);
                    let stream = p as u64 + fill;
                    let subtile_cycles = match work.scatter_accumulators {
                        Some(acc) if acc > 0 => {
                            let ops = tile_height as u64 * n_width as u64;
                            scatter_ops += ops as u128;
                            stream.max(ops.div_ceil(acc as u64))
                        }
                        _ => stream,
                    };
                    cycles += subtile_cycles;
                    if nt == 0 {
                        let macs = p as u64 * k_depth as u64 * n_width as u64;
                        let util = macs as f64
                            / (subtile_cycles as f64 * (model.pe_rows * model.pe_cols) as f64);
                        subtile_samples.push((p, util));
                    }
                }
            }
        }
        cycles *= work.batch as u64;
        let macs = work.effective_macs(model.pe_rows);
        let utilization = if cycles == 0 {
            0.0
        } else {
            macs as f64 / (cycles as f64 * (model.pe_rows * model.pe_cols) as f64)
        };
        GemmTiming {
            cycles,
            macs,
            utilization,
            subtile_samples,
            scatter_ops: scatter_ops * work.batch as u128,
        }
    }

    #[test]
    fn naive_and_collapsed_sweeps_agree() {
        let m = model();
        let shapes = [
            (1024usize, 3584usize, 18944usize, 1usize), // paper FFN: 592 n-tiles
            (1500, 100, 50, 2),                         // ragged everywhere
            (6381, 128, 6381, 28),                      // attention logits
            (64, 32, 32, 1),                            // single full tile
            (64, 32, 7, 1),                             // ragged-only n
            (100, 32, 0, 1),                            // degenerate n = 0
        ];
        for (mm, kk, nn, batch) in shapes {
            for (sparse, scatter) in [(false, None), (true, Some(64)), (true, None)] {
                let mut work = GemmWork::dense("t", mm, kk, nn, batch, 1024);
                if sparse {
                    let slots = work.m_tiles() * work.k_subtiles(m.pe_rows);
                    work.subtile_rows = Some((0..slots).map(|i| 37 + 91 * (i % 11)).collect());
                }
                work.scatter_accumulators = scatter;
                let collapsed = m.time(&work);
                let naive = naive_time(&m, &work);
                assert_eq!(collapsed.cycles, naive.cycles, "{mm}x{kk}x{nn}");
                assert_eq!(collapsed.macs, naive.macs);
                assert_eq!(collapsed.scatter_ops, naive.scatter_ops);
                assert_eq!(collapsed.utilization.to_bits(), naive.utilization.to_bits());
                assert_eq!(collapsed.subtile_samples.len(), naive.subtile_samples.len());
                for (a, b) in collapsed.subtile_samples.iter().zip(&naive.subtile_samples) {
                    assert_eq!(a.0, b.0);
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
        }
    }

    #[test]
    fn effective_macs_respects_clamping() {
        let mut work = GemmWork::dense("t", 100, 32, 32, 1, 1024);
        work.subtile_rows = Some(vec![5000]); // clamped to tile height 100
        assert_eq!(work.effective_macs(32), 100 * 32 * 32);
    }
}
