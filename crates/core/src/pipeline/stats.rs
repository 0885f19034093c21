//! Measurement records: per-layer SEC/SIC statistics and the final
//! [`PipelineResult`].

use focus_sim::WorkItem;
use focus_vlm::accuracy::TokenOutcome;

/// SEC statistics of one pruning layer (measured scale).
#[derive(Clone, Debug, PartialEq)]
pub struct SecLayerStats {
    /// The layer at which pruning ran.
    pub layer: usize,
    /// Tokens entering the pruning step.
    pub candidates: usize,
    /// Tokens retained.
    pub kept: usize,
    /// Analyzer cycles (overlapped).
    pub analyzer_cycles: u64,
    /// Sorter cycles (overlapped).
    pub sorter_cycles: u64,
    /// Offset-encoding bytes shipped with the stream.
    pub offset_bytes: usize,
}

/// Per-layer measurement record.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerStats {
    /// Layer index.
    pub layer: usize,
    /// Retained image tokens entering the layer (measured scale).
    pub retained_in: usize,
    /// Retained image tokens after this layer's (possible) pruning.
    pub retained_out: usize,
    /// Whether the SIC gather was actually measured at this layer.
    pub measured: bool,
    /// Mean retained-vector ratio per gather stage.
    pub stage_ratio: [f64; 4],
    /// Per-(m-tile, col-tile) retained ratios per stage.
    pub stage_samples: [Vec<f64>; 4],
    /// Column-tile count per stage (for sample indexing).
    pub stage_col_tiles: [usize; 4],
    /// Matcher comparisons up to and including this layer.
    pub sic_comparisons: u64,
    /// Matcher hits up to and including this layer.
    pub sic_matches: u64,
}

/// Result of a full pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Per-layer measurements.
    pub layers: Vec<LayerStats>,
    /// Per-pruning-layer SEC statistics.
    pub sec_layers: Vec<SecLayerStats>,
    /// Paper-scale work items for the simulation engine.
    pub work_items: Vec<WorkItem>,
    /// Effective MACs of the lowered trace.
    pub focus_macs: u128,
    /// Dense MACs of the same workload.
    pub dense_macs: u128,
    /// Per-token outcomes (measured scale) for the accuracy model.
    pub outcomes: Vec<TokenOutcome>,
    /// Proxy benchmark score.
    pub accuracy: f64,
    /// Dense anchor score.
    pub dense_accuracy: f64,
    /// Paper-scale activation bytes read from DRAM (compressed).
    pub activation_read_bytes: u64,
    /// Paper-scale activation bytes written to DRAM (compressed).
    pub activation_write_bytes: u64,
    /// Paper-scale weight bytes read from DRAM (with m-tile re-reads).
    pub weight_bytes: u64,
    /// Total matcher comparisons (measured scale).
    pub sic_comparisons: u64,
    /// Total matcher hits (measured scale).
    pub sic_matches: u64,
    /// Always 0: neither schedule speculates, so no work is ever
    /// discarded. Kept only because the repository benchmark's
    /// correctness gate destructures `PipelineResult` field by field;
    /// a change to the benchmark can drop it.
    pub prefetch_discards: u64,
}

impl PipelineResult {
    /// Computation sparsity: `1 − effective/dense` MACs (the Table II
    /// metric).
    pub fn sparsity(&self) -> f64 {
        if self.dense_macs == 0 {
            0.0
        } else {
            1.0 - self.focus_macs as f64 / self.dense_macs as f64
        }
    }

    /// Total DRAM traffic of the lowered trace.
    pub fn dram_bytes(&self) -> u64 {
        self.work_items
            .iter()
            .map(|w| w.dram_read_bytes + w.dram_write_bytes)
            .sum()
    }
}

/// Internal carrier between the measured and lowering phases.
pub(crate) struct MeasuredRun {
    pub layer_stats: Vec<LayerStats>,
    pub sec_layers: Vec<SecLayerStats>,
    pub outcomes: Vec<TokenOutcome>,
    pub sic_comparisons: u64,
    pub sic_matches: u64,
    pub m_img_scaled: usize,
}
