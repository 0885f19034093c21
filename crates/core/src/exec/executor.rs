//! [`LayerExecutor`]: the node inventory of one run's stage graph, and
//! the single-threaded reference walk over it.

use std::sync::{Arc, Mutex};

use focus_vlm::embedding::Stage;
use focus_vlm::Workload;

use crate::exec::graph::lock_clean;
use crate::exec::stage::{
    ConcentrationStage, GatherStage, LayerCtx, SemanticStage, StageOutput, StageScratch,
    StageWorkspace,
};
use crate::pipeline::{FocusPipeline, SecLayerStats};
use crate::session::{RetentionPlan, SessionGeometry};
use crate::sic::{ConvLayouter, Fhw, MatrixGatherStats};

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
    /// per-stage `Synth` and `Gather`, `Fold` and `Lower` task nodes
    /// with explicit data dependencies, run on the persistent
    /// [`crate::exec::FocusService`] pool. `depth` is the number of
    /// layers whose synthesis/gather work may be in flight at once
    /// (each in-flight layer holds one workspace per gather stage);
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

    /// Workspace ring length per gather stage: how many layers' worth
    /// of synthesis may be in flight under this schedule. The
    /// reference walk builds its state fresh per call and needs none.
    pub(crate) fn ring(self) -> usize {
        match self {
            ExecMode::Serial => 0,
            ExecMode::Graph { depth } => depth.max(1),
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

/// The concentration stage graph of one workload: the semantic stage,
/// the four gather stages, the measurement plan and the workspace ring.
///
/// The task-graph schedule ([`crate::exec::graph`]) borrows it as the
/// node inventory of each run's graph — stages, workspaces,
/// measurement predicate — and schedules the nodes itself.
/// [`LayerExecutor::run_layer`] is the reference walk over the same
/// nodes ([`ExecMode::Serial`]): the semantic stage first (it decides
/// which token rows even exist downstream), then the four gather
/// stages — mutually independent, each reading its own FC output — in
/// fixed stage order on the calling thread. `tests/batch_determinism.rs` proves the task graph
/// bit-identical to this walk, property-style.
pub struct LayerExecutor<'w> {
    workload: &'w Workload,
    layers: usize,
    /// The measurement plan: prune layers, measured-layer predicate,
    /// full-set positions. Derived fresh per run — or shared across
    /// every frame of a [`crate::exec::StreamSession`].
    plan: Arc<RetentionPlan>,
    layouter: ConvLayouter,
    semantic: SemanticStage<'w>,
    gathers: Vec<GatherStage>,
    /// Workspace ring length per gather stage ([`ExecMode::ring`]).
    ring: usize,
    /// Workspace ring: `ring` slots per gather stage (flattened
    /// `stage * ring + slot`), lock-per-slot so concurrent stage nodes
    /// never share mutable state; `depth` slots let `depth` layers'
    /// synthesis be in flight. Empty for the reference walk. (The
    /// semantic stage needs no workspace and runs through its inherent
    /// `prune_layer`.)
    gather_ws: Vec<Mutex<StageWorkspace<'w>>>,
}

impl<'w> LayerExecutor<'w> {
    /// The reference executor for one (pipeline, workload) pair: no
    /// workspace ring, every gather built fresh per call.
    pub fn new(pipeline: &FocusPipeline, workload: &'w Workload) -> Self {
        LayerExecutor::with_parts(pipeline, workload, ExecMode::Serial, None, None)
    }

    /// Builds the executor for `mode` from session-donated parts: a
    /// shared [`RetentionPlan`] (derived fresh when `None`) and
    /// recycled [`StageScratch`] sets (`stages × ring`, stage-major,
    /// matching the workspace indexing; fresh allocations when
    /// `None`). The warm path of [`crate::exec::StreamSession`];
    /// behaviour is bit-identical either way.
    pub(crate) fn with_parts(
        pipeline: &FocusPipeline,
        workload: &'w Workload,
        mode: ExecMode,
        plan: Option<Arc<RetentionPlan>>,
        scratch: Option<Vec<StageScratch>>,
    ) -> Self {
        let scaled = workload.scaled_model();
        let config = &pipeline.focus;
        let plan = plan.unwrap_or_else(|| Arc::new(RetentionPlan::derive(config, workload)));
        assert_eq!(
            plan.geometry(),
            SessionGeometry::of(workload),
            "retention plan geometry must match the workload"
        );
        let gathers: Vec<GatherStage> = Stage::GATHER_POINTS
            .iter()
            .map(|&s| GatherStage::new_on(config, s, pipeline.dtype, pipeline.backend))
            .collect();
        let ring = mode.ring();
        let gather_ws: Vec<Mutex<StageWorkspace<'w>>> = match scratch {
            Some(sets) => {
                assert_eq!(
                    sets.len(),
                    gathers.len() * ring,
                    "donated scratch must cover stages x ring"
                );
                sets.into_iter()
                    .map(|s| {
                        Mutex::new(StageWorkspace::with_scratch_on(
                            workload,
                            s,
                            pipeline.backend,
                        ))
                    })
                    .collect()
            }
            None => gathers
                .iter()
                .flat_map(|_| {
                    (0..ring)
                        .map(|_| Mutex::new(StageWorkspace::new_on(workload, pipeline.backend)))
                })
                .collect(),
        };
        LayerExecutor {
            workload,
            layers: scaled.layers,
            plan,
            layouter: ConvLayouter::new(scaled.grid_h, scaled.grid_w),
            semantic: SemanticStage::new(config, workload),
            gathers,
            ring,
            gather_ws,
        }
    }

    /// Layer count at measured scale.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// The stage-graph nodes, semantic first, in fold order.
    pub fn stages(&self) -> Vec<&dyn ConcentrationStage> {
        let mut v: Vec<&dyn ConcentrationStage> = vec![&self.semantic];
        v.extend(self.gathers.iter().map(|g| g as &dyn ConcentrationStage));
        v
    }

    /// The semantic stage node.
    pub(crate) fn semantic(&self) -> &SemanticStage<'w> {
        &self.semantic
    }

    /// The gather stage nodes, in fold order.
    pub(crate) fn gather_stages(&self) -> &[GatherStage] {
        &self.gathers
    }

    /// The layouter mapping retained tokens to (frame, row, col).
    pub(crate) fn layouter(&self) -> &ConvLayouter {
        &self.layouter
    }

    /// The workspace of `stage` at ring slot `slot` (`slot < ring`);
    /// exclusive access is the caller's contract (the task graph's
    /// dependency edges).
    pub(crate) fn workspace(&self, stage: usize, slot: usize) -> &Mutex<StageWorkspace<'w>> {
        &self.gather_ws[stage * self.ring + slot]
    }

    /// Whether the gather stages measure at `layer` (every stride-th
    /// layer, the final layer, and every pruning layer — per the
    /// retention plan).
    pub(crate) fn measures_at(&self, layer: usize) -> bool {
        self.plan.measures_at(layer)
    }

    /// The measurement plan in effect (shared across a session's
    /// frames, or private to this run).
    pub(crate) fn plan(&self) -> &Arc<RetentionPlan> {
        &self.plan
    }

    /// Takes the workload-independent scratch out of every workspace
    /// (stage-major, ring-minor — the [`LayerExecutor::with_parts`]
    /// donation order), leaving placeholders. Only valid once no stage
    /// node will run again; recovers from workspace mutexes poisoned
    /// by a panicked frame.
    pub(crate) fn reclaim_scratch(&self) -> Vec<StageScratch> {
        self.gather_ws
            .iter()
            .map(|ws| lock_clean(ws).take_scratch())
            .collect()
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
        let measured = self.measures_at(layer);
        let mut record = LayerRecord::empty(retained_in, measured, sec);
        if !measured {
            return record;
        }

        // Early unpruned layers see the full retained set, whose
        // position table the plan already holds (derived once per run
        // — or once per *session*, shared across every frame of a
        // stream); only genuinely pruned sets decode positions here.
        let owned_positions: Vec<Option<Fhw>>;
        let positions: &[Option<Fhw>] = if retained.len() == self.plan.geometry().m_img
            && retained.iter().copied().eq(0..retained.len())
        {
            self.plan.full_positions()
        } else {
            owned_positions = retained
                .iter()
                .map(|&t| Some(self.layouter.position_of(t)))
                .collect();
            &owned_positions
        };
        let ctx = LayerCtx {
            workload: self.workload,
            layer,
            retained,
            positions,
        };
        let stats = self.gathers.iter().map(|g| {
            let StageOutput::Gathered { stats, .. } = g.run_fresh(&ctx) else {
                unreachable!("gather stages always gather");
            };
            stats
        });
        fold_gathers(&mut record, stats, retained.len());
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_lengths_follow_the_schedule() {
        assert_eq!(ExecMode::Serial.ring(), 0);
        assert_eq!(ExecMode::Graph { depth: 3 }.ring(), 3);
    }
}
