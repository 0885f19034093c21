//! [`LayerExecutor`]: the single-threaded reference walk over one
//! run's stage graph.

use focus_vlm::embedding::Stage;
use focus_vlm::Workload;

use crate::exec::stage::{GatherStage, LayerCtx, SemanticStage};
use crate::pipeline::{FocusPipeline, SecLayerStats};
use crate::session::RetentionPlan;
use crate::sic::MatrixGatherStats;

/// How the measured phase is scheduled. Results are bit-identical
/// across schedules; only throughput differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// The reference oracle: a single-threaded layer loop on the
    /// calling thread. Each layer runs SEC, then the four gather
    /// stages in fixed stage order, every gather through
    /// [`GatherStage::run_fresh`] (fresh synthesiser, fresh activation
    /// allocation, the tile-by-tile `gather_matrix_on` reference).
    Serial,
    /// The production schedule: every layer decomposes into `Sec`,
    /// per-stage `Synth` and `Gather`, `FoldStats`, `Absorb` and
    /// `Lower` task nodes
    /// with explicit data dependencies, run on the persistent
    /// [`crate::exec::FocusService`] pool. `depth` is the number of
    /// layers whose synthesis/gather work may be in flight at once
    /// (each in-flight layer holds one stage scratch per gather stage);
    /// the SEC chain and the fold/lowering tail stream ahead and
    /// behind without further barriers, and stages of different
    /// requests interleave on the same workers.
    Graph {
        /// Cross-layer synthesis window (≥ 1); 2 matches the hardware's
        /// double-buffered activation stream.
        depth: usize,
    },
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::Graph {
            depth: ExecMode::DEFAULT_GRAPH_DEPTH,
        }
    }
}

impl ExecMode {
    /// Pipeline depth of the default [`ExecMode::Graph`] schedule.
    pub const DEFAULT_GRAPH_DEPTH: usize = 2;

    /// The depth a job of this mode runs at on the service: its own
    /// graph depth (≥ 1), or [`ExecMode::DEFAULT_GRAPH_DEPTH`] for a
    /// [`ExecMode::Serial`] job — the results are the same.
    pub(crate) fn graph_depth(self) -> usize {
        match self {
            ExecMode::Graph { depth } => depth.max(1),
            ExecMode::Serial => ExecMode::DEFAULT_GRAPH_DEPTH,
        }
    }
}

/// What one layer's pass through the stage graph produced. Counters
/// are per-layer deltas; the measure phase accumulates them.
pub struct LayerRecord {
    /// Retained image tokens entering the layer.
    pub retained_in: usize,
    /// Whether the gather stages actually ran at this layer.
    pub measured: bool,
    /// Mean retained-vector ratio per gather stage.
    pub stage_ratio: [f64; 4],
    /// Per-(m-tile, col-tile) retained ratios per stage.
    pub stage_samples: [Vec<f64>; 4],
    /// Column-tile count per stage.
    pub stage_col_tiles: [usize; 4],
    /// Matcher comparisons at this layer.
    pub comparisons: u64,
    /// Matcher hits at this layer.
    pub matches: u64,
    /// SEC statistics, when this layer pruned.
    pub sec: Option<SecLayerStats>,
    /// Mean reconstruction fidelity per retained row (post-prune
    /// order), when measured.
    pub fidelity: Option<Vec<f64>>,
}

impl LayerRecord {
    /// A record with no gather measurements yet.
    pub(crate) fn empty(retained_in: usize, measured: bool, sec: Option<SecLayerStats>) -> Self {
        LayerRecord {
            retained_in,
            measured,
            stage_ratio: [1.0; 4],
            stage_samples: Default::default(),
            stage_col_tiles: [1; 4],
            comparisons: 0,
            matches: 0,
            sec,
            fidelity: None,
        }
    }
}

/// Folds the four gather stages' statistics into `record` in fixed
/// stage order — identical arithmetic order to a serial stage sweep,
/// so both schedules (reference loop, task graph) produce
/// bit-identical records. `retained_len` is the post-prune retained
/// count of the layer (the fidelity vector's length).
pub(crate) fn fold_gathers(
    record: &mut LayerRecord,
    outputs: impl IntoIterator<Item = MatrixGatherStats>,
    retained_len: usize,
) {
    let stages_n = Stage::GATHER_POINTS.len();
    let mut fidelity = vec![0.0f64; retained_len];
    for (si, stats) in outputs.into_iter().enumerate() {
        record.stage_ratio[si] = stats.retained_ratio();
        record.stage_col_tiles[si] = stats.col_tiles;
        record.stage_samples[si] = stats
            .tile_p
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let h = stats.tile_heights[i / stats.col_tiles.max(1)].max(1);
                p as f64 / h as f64
            })
            .collect();
        record.comparisons += stats.comparisons;
        record.matches += stats.matches;
        for (row, &f) in stats.row_fidelity.iter().enumerate() {
            fidelity[row] += f as f64 / stages_n as f64;
        }
    }
    record.fidelity = Some(fidelity);
}

/// The four gather stages of `pipeline`, in fold order
/// ([`Stage::GATHER_POINTS`]) — the same nodes for the reference walk
/// and the task graph.
pub(crate) fn gather_stages(pipeline: &FocusPipeline) -> Vec<GatherStage> {
    Stage::GATHER_POINTS
        .iter()
        .map(|&s| GatherStage::new_on(&pipeline.focus, s, pipeline.dtype, pipeline.backend))
        .collect()
}

/// The reference walk over one workload's stage graph
/// ([`ExecMode::Serial`]): the semantic stage first (it decides which
/// token rows even exist downstream), then the four gather stages —
/// mutually independent, each reading its own FC output — in fixed
/// stage order on the calling thread, every gather built fresh per
/// call. `tests/batch_determinism.rs` proves the task graph
/// bit-identical to this walk, property-style.
pub struct LayerExecutor<'w> {
    workload: &'w Workload,
    /// The measurement plan: prune layers, measured-layer predicate,
    /// full-set positions.
    plan: RetentionPlan,
    semantic: SemanticStage<'w>,
    gathers: Vec<GatherStage>,
}

impl<'w> LayerExecutor<'w> {
    /// The reference executor for one (pipeline, workload) pair.
    pub fn new(pipeline: &FocusPipeline, workload: &'w Workload) -> Self {
        LayerExecutor {
            workload,
            plan: RetentionPlan::derive(&pipeline.focus, workload),
            semantic: SemanticStage::new_on(&pipeline.focus, workload, pipeline.backend),
            gathers: gather_stages(pipeline),
        }
    }

    /// Layer count at measured scale.
    pub fn layers(&self) -> usize {
        self.plan.geometry().layers
    }

    /// Runs one layer of the reference walk, updating `retained` in
    /// place. Layers may come in any order; the measured phase walks
    /// them sequentially (`0..layers`).
    pub fn run_layer(&self, layer: usize, retained: &mut Vec<usize>) -> LayerRecord {
        let retained_in = retained.len();

        // --- Semantic concentration (attention stage). ---
        let sec_ctx = LayerCtx {
            workload: self.workload,
            layer,
            retained,
            positions: &[],
        };
        let mut sec = None;
        if let Some((kept, stats)) = self.semantic.prune_layer(&sec_ctx) {
            *retained = kept;
            sec = Some(stats);
        }

        // --- Similarity concentration (FC stages). ---
        let measured = self.plan.measures_at(layer);
        let mut record = LayerRecord::empty(retained_in, measured, sec);
        if !measured {
            return record;
        }
        let positions = self.plan.positions(retained);
        let ctx = LayerCtx {
            workload: self.workload,
            layer,
            retained,
            positions: &positions,
        };
        let stats = self.gathers.iter().map(|g| g.run_fresh(&ctx));
        fold_gathers(&mut record, stats, retained.len());
        record
    }
}
