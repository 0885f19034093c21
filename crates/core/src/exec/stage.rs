//! The two concentration stages whose methods are the node bodies of
//! the pipeline DAG: the semantic (token-pruning) stage and the four
//! similarity-gather stages.
//!
//! A stage method is a pure function of its [`LayerCtx`]: it borrows
//! the workload and synthesises whatever activations it needs. Purity
//! is what lets the graph run the four gather stages of a layer
//! concurrently with results bit-identical to a serial sweep — there
//! is no shared mutable state to race on.
//!
//! Stages do not *own* scratch state; they borrow a [`StageWorkspace`]
//! per call. The workspace is pure memo + recycled buffers (activation
//! synthesiser, activation matrix, position lookup): rows are pure
//! functions of `(scene, seed, layer, stage)`, so a stage run against a
//! workspace that has served any number of previous layers returns
//! byte-identical output to one run against a fresh workspace
//! ([`GatherStage::run_fresh`] keeps that reference path alive, and
//! `tests/batch_determinism.rs` asserts the equivalence).

use focus_tensor::backend::BackendHandle;
use focus_tensor::quant::DataType;
use focus_tensor::{f16, Element, Matrix};
use focus_vlm::attention::AttentionSynthesizer;
use focus_vlm::embedding::{ActivationSynthesizer, Stage};
use focus_vlm::Workload;

use crate::config::FocusConfig;
use crate::pipeline::SecLayerStats;
use crate::sec::SemanticConcentrator;
use crate::sic::{
    ConvLayouter, Fhw, GatherScratch, MatrixGatherStats, SimilarityConcentrator, TemporalCache,
};

/// Everything a concentration stage may read while processing one
/// layer.
pub struct LayerCtx<'a> {
    /// The workload under measurement.
    pub workload: &'a Workload,
    /// Layer index.
    pub layer: usize,
    /// Retained image tokens entering the stage (scene-global indices).
    pub retained: &'a [usize],
    /// `(frame, row, col)` positions of `retained`, parallel to it.
    /// Empty for stages that do not need spatial structure (SEC).
    pub positions: &'a [Option<Fhw>],
}

/// A gather stage's recycled activation buffer, stored at the stage's
/// datapath precision: FP16 bits under [`DataType::Fp16`] — half the
/// bytes of f32, rounded as synthesis stores each row — and f32 under
/// [`DataType::Int8`], because INT8 fake-quantised values are not
/// FP16-exact. Both are one element-generic [`Matrix`], read by one
/// generic gather sweep.
#[derive(Debug)]
pub enum StageActs {
    /// Full-precision values (INT8 stages fake-quantise them in place).
    F32(Matrix),
    /// FP16 bits.
    F16(Matrix<f16>),
}

impl Default for StageActs {
    fn default() -> Self {
        StageActs::F16(Matrix::default())
    }
}

impl StageActs {
    /// The buffer of the element type `dtype` stores, retyped (its old
    /// allocation dropped) if it held the other one. A scratch serves
    /// one stage, so it retypes at most once.
    fn for_dtype(&mut self, dtype: DataType) -> &mut StageActs {
        match (dtype, &*self) {
            (DataType::Fp16, StageActs::F32(_)) => *self = StageActs::F16(Matrix::default()),
            (DataType::Int8, StageActs::F16(_)) => *self = StageActs::F32(Matrix::default()),
            _ => {}
        }
        self
    }

    /// Bytes of activation storage held: the allocation's capacity,
    /// which recycling keeps at the largest shape the buffer served.
    pub fn held_bytes(&self) -> usize {
        match self {
            StageActs::F32(m) => m.held_bytes(),
            StageActs::F16(m) => m.held_bytes(),
        }
    }
}

/// The **workload-independent** half of a [`StageWorkspace`]: the
/// recycled activation buffer and the flat gather lookup + per-m-tile
/// candidate plan. Unlike the activation synthesiser (which borrows
/// one workload's scene), this scratch carries no per-scene state —
/// the lookup is epoch-stamped and the buffer fully overwritten per
/// call — so a [`crate::exec::StreamSession`] keeps it resident
/// *across frames* of a feed (same grid geometry), byte-identical to
/// building it fresh.
pub struct StageScratch {
    /// Recycled activation buffer (`retained × stage width`) at the
    /// stage's datapath precision.
    pub acts: StageActs,
    /// Recycled gather scratch: flat position lookup + per-m-tile
    /// candidate plan. Sized by the frame grid; reusable across any
    /// workloads sharing that grid.
    pub gather: GatherScratch,
}

impl StageScratch {
    /// Fresh scratch for stages gathering on `layouter`'s frame grid.
    pub fn new(layouter: &ConvLayouter) -> Self {
        StageScratch {
            acts: StageActs::default(),
            gather: GatherScratch::new(layouter),
        }
    }

    /// Fresh scratch for one stage of `workload`'s stage graph.
    pub fn for_workload(workload: &Workload) -> Self {
        let scaled = workload.scaled_model();
        StageScratch::new(&ConvLayouter::new(scaled.grid_h, scaled.grid_w))
    }
}

/// Thread-reusable scratch state for one stage-graph node: the
/// activation synthesiser (with its content-appearance memo) plus the
/// workload-independent [`StageScratch`] (recycled activation buffer,
/// flat gather position lookup).
///
/// A workspace can serve one stage across every layer of a run. The
/// task graph keeps only the [`StageScratch`] half resident — one per
/// gather stage and ring slot, so the four gather stages run
/// concurrently without sharing mutable state — and pairs it with a
/// fresh synthesiser per *Synth* node (a *Gather* node takes the
/// scratch alone); streaming sessions additionally recycle that half
/// across frames.
pub struct StageWorkspace<'w> {
    /// The resident activation synthesiser.
    pub syn: ActivationSynthesizer<'w>,
    /// The workload-independent recycled buffers.
    pub scratch: StageScratch,
}

impl<'w> StageWorkspace<'w> {
    /// A workspace for one stage of `workload`'s stage graph, on the
    /// process-wide active kernel backend.
    pub fn new(workload: &'w Workload) -> Self {
        StageWorkspace::new_on(workload, crate::obs::kernel_backend())
    }

    /// [`StageWorkspace::new`] on an explicit kernel backend.
    pub fn new_on(workload: &'w Workload, backend: BackendHandle) -> Self {
        StageWorkspace::with_scratch_on(workload, StageScratch::for_workload(workload), backend)
    }

    /// A workspace pairing `workload`'s synthesiser with donated
    /// `scratch` — the warm-reuse path of streaming sessions — on an
    /// explicit kernel backend: the synthesiser's noise-fill kernel
    /// dispatches through `backend`. The scratch must have been built
    /// for the same frame grid (the session enforces geometry
    /// compatibility at `push_frame`).
    pub fn with_scratch_on(
        workload: &'w Workload,
        scratch: StageScratch,
        backend: BackendHandle,
    ) -> Self {
        StageWorkspace {
            syn: workload.activation_synthesizer_on(backend),
            scratch,
        }
    }
}

/// The semantic concentration stage: prompt-aware token pruning at the
/// Table I schedule points.
pub struct SemanticStage<'w> {
    config: FocusConfig,
    sec: SemanticConcentrator,
    att: AttentionSynthesizer<'w>,
    /// Image tokens at measured scale (the schedule's 100 % anchor).
    m_img: usize,
}

impl<'w> SemanticStage<'w> {
    /// Builds the stage for one workload, on the process-wide active
    /// kernel backend.
    pub fn new(config: &FocusConfig, workload: &'w Workload) -> Self {
        SemanticStage::new_on(config, workload, crate::obs::kernel_backend())
    }

    /// [`SemanticStage::new`] on an explicit kernel backend: the
    /// attention synthesiser's logit-noise fills dispatch through
    /// `backend`.
    pub fn new_on(config: &FocusConfig, workload: &'w Workload, backend: BackendHandle) -> Self {
        SemanticStage {
            config: config.clone(),
            sec: SemanticConcentrator::new(config.analyzer_ways),
            att: workload.attention_synthesizer_on(backend),
            m_img: workload.image_tokens_scaled(),
        }
    }

    /// The token budget this stage would prune down to at `layer` for
    /// a retained set of `retained_len` tokens, or `None` when the
    /// schedule (or an ablation switch, or an already-small set)
    /// leaves the layer alone.
    fn prune_k(&self, layer: usize, retained_len: usize) -> Option<usize> {
        if !self.config.enable_sec {
            return None;
        }
        let ratio = self.config.schedule.prune_at(layer)?;
        let k = ((ratio * self.m_img as f64).round() as usize).min(retained_len);
        (k < retained_len).then_some(k)
    }

    /// Prunes one layer's retained set, returning the surviving tokens
    /// and the pass statistics, or `None` when the schedule leaves this
    /// layer alone. The semantic stage needs no scratch workspace, so
    /// the reference walk and the graph's `Sec` nodes call this
    /// directly.
    pub fn prune_layer(&self, ctx: &LayerCtx<'_>) -> Option<(Vec<usize>, SecLayerStats)> {
        let k = self.prune_k(ctx.layer, ctx.retained.len())?;
        let heads = self.att.all_heads(ctx.layer, ctx.retained);
        let outcome = self.sec.prune(&heads, ctx.retained, k);
        let kept: Vec<usize> = outcome
            .kept_local
            .iter()
            .map(|&i| ctx.retained[i])
            .collect();
        let stats = SecLayerStats {
            layer: ctx.layer,
            candidates: ctx.retained.len(),
            kept: kept.len(),
            analyzer_cycles: outcome.analyzer.cycles,
            sorter_cycles: outcome.sorter_cycles,
            offset_bytes: outcome.offsets.storage_bytes(),
        };
        Some((kept, stats))
    }
}

/// One similarity concentration stage: gathers a single FC output
/// (PV, O-proj, FFN activation or FFN down) over synthesised
/// activations.
pub struct GatherStage {
    /// The gather point this stage measures.
    pub stage: Stage,
    concentrator: SimilarityConcentrator,
    dtype: DataType,
    backend: BackendHandle,
    synth_backend: BackendHandle,
}

impl GatherStage {
    /// Builds the stage for one gather point, on the process-wide
    /// active kernel backend.
    ///
    /// The tile height is NOT scaled down with the frame count: what
    /// governs boundary statistics is the tile span measured in frames
    /// (`tile_m` / retained-tokens-per-frame), and tokens per frame are
    /// identical at both scales. A scaled-down tile would hide the
    /// temporal twin (one frame-stride away in the packed stream) from
    /// most keys and destroy the match rate.
    pub fn new(config: &FocusConfig, stage: Stage, dtype: DataType) -> Self {
        GatherStage::new_on(config, stage, dtype, crate::obs::kernel_backend())
    }

    /// [`GatherStage::new`] on an explicit kernel backend: every hot
    /// kernel the stage launches (gather scoring, dtype conversion,
    /// synthesis fill) dispatches through `backend`, except that
    /// synthesis runs on the backend a launch-timing wrapper forwards
    /// to (see [`crate::obs::kernels`] for why synthesis runs untimed).
    pub fn new_on(
        config: &FocusConfig,
        stage: Stage,
        dtype: DataType,
        backend: BackendHandle,
    ) -> Self {
        GatherStage {
            stage,
            concentrator: SimilarityConcentrator {
                gather: crate::sic::GatherConfig {
                    threshold: config.threshold,
                    block: config.block,
                },
                vector_len: config.vector_len,
                tile_m: config.tile_m,
            },
            dtype,
            backend,
            synth_backend: crate::obs::kernels::untimed(backend),
        }
    }

    /// The kernel backend this stage dispatches through.
    pub fn backend(&self) -> BackendHandle {
        self.backend
    }

    /// The kernel backend this stage's activation synthesiser runs on:
    /// [`GatherStage::backend`] with any launch-timing wrapper removed.
    pub(crate) fn synth_backend(&self) -> BackendHandle {
        self.synth_backend
    }

    /// The pre-workspace reference path: a fresh synthesiser, a fresh
    /// full-precision activation allocation rounded in place (FP16) or
    /// fake-quantised (INT8), and the per-tile `HashMap` gather. What
    /// the [`crate::exec::ExecMode::Serial`] reference walk runs, and
    /// what the workspace-reuse regression test compares against — an
    /// oracle independent of the FP16 store the production path
    /// writes.
    pub fn run_fresh(&self, ctx: &LayerCtx<'_>) -> MatrixGatherStats {
        let width = self.stage.width(ctx.workload.scaled_model());
        let mut syn = ctx.workload.activation_synthesizer_on(self.synth_backend);
        let mut acts = syn.activations(ctx.retained, ctx.layer, self.stage, width);
        match self.dtype {
            DataType::Fp16 => self.backend.f16_round(&mut acts),
            DataType::Int8 => self.backend.fake_quantize(&mut acts),
        }
        self.concentrator
            .gather_matrix_on(&acts, ctx.positions, self.backend)
    }

    /// The *Synth* node of the task graph: synthesises this stage's
    /// activations for the layer into the workspace's recycled buffer
    /// at the stage's datapath precision. The synthesiser's memo cache
    /// stays warm across calls, bit-identical to a fresh build: rows
    /// are pure functions of (scene, seed, layer, stage) and every row
    /// is fully overwritten. Value generation runs through the batched
    /// fixed-polynomial Box–Muller kernel (`focus_tensor::math`),
    /// whose SIMD and scalar paths are bit-identical — so the node's
    /// output does not depend on which machine or dispatch path ran
    /// it, only on the workload.
    pub fn synth(&self, ctx: &LayerCtx<'_>, ws: &mut StageWorkspace<'_>) {
        self.synth_raw(ctx, ws);
        self.convert(ws);
    }

    /// The synthesis half of [`GatherStage::synth`]: fills the
    /// workspace's recycled buffer with this stage's activations at
    /// the buffer's element type. An FP16 stage stores FP16 bits,
    /// encoding each row as it is produced (one
    /// [`Backend::f16_encode`] launch per row), so its rounding happens
    /// here; an INT8 stage stores full-precision f32 for
    /// [`GatherStage::convert`] to fake-quantise. Split out so the
    /// bench can time synthesis and conversion separately.
    ///
    /// [`Backend::f16_encode`]: focus_tensor::backend::Backend::f16_encode
    pub fn synth_raw(&self, ctx: &LayerCtx<'_>, ws: &mut StageWorkspace<'_>) {
        let width = self.stage.width(ctx.workload.scaled_model());
        let (tokens, layer, stage) = (ctx.retained, ctx.layer, self.stage);
        match ws.scratch.acts.for_dtype(self.dtype) {
            StageActs::F32(acts) => ws.syn.activations_into(tokens, layer, stage, width, acts),
            StageActs::F16(acts) => ws.syn.activations_into(tokens, layer, stage, width, acts),
        }
    }

    /// The dtype half of [`GatherStage::synth`]: an INT8 stage
    /// fake-quantises the synthesised buffer in place through the
    /// backend's whole-matrix kernel. An FP16 stage does **no work**
    /// here: its FP16 store already rounded every row as
    /// [`GatherStage::synth_raw`] wrote it, so the rounding cost is
    /// part of synthesis and a timing of this call alone reads ≈ 0.
    pub fn convert(&self, ws: &mut StageWorkspace<'_>) {
        match ws.scratch.acts.for_dtype(self.dtype) {
            StageActs::F32(acts) => self.backend.fake_quantize(acts),
            StageActs::F16(_) => {}
        }
    }

    /// The *Gather* node of the task graph: runs the similarity gather
    /// over the activations a prior [`GatherStage::synth`] call left in
    /// `ws.scratch.acts`, reading FP16 rows directly (the kernels
    /// widen them exactly on load). Split from synthesis so the graph
    /// scheduler can overlap one layer's gathers with another layer's
    /// synthesis at any pipeline depth.
    pub fn gather(&self, ctx: &LayerCtx<'_>, ws: &mut StageWorkspace<'_>) -> MatrixGatherStats {
        self.sweep(ctx, &mut ws.scratch, None)
    }

    /// [`GatherStage::gather`] with a cross-frame temporal probe:
    /// streaming sessions pass their [`TemporalCache`] so rows proven
    /// to replay the anchored frame bit-for-bit (unchanged signature,
    /// fresh anchor, stability-model-stable tile) are carried instead
    /// of re-gathered. `stage_index` selects the cache plane
    /// (the executor's gather-stage ordinal); `ctx.retained` keys rows
    /// to absolute token indices.
    pub fn gather_temporal(
        &self,
        ctx: &LayerCtx<'_>,
        ws: &mut StageWorkspace<'_>,
        cache: &TemporalCache,
        stage_index: usize,
    ) -> MatrixGatherStats {
        self.sweep(ctx, &mut ws.scratch, Some((cache, stage_index)))
    }

    /// The production gather over the element type of `scratch`'s
    /// activation buffer, with the temporal probe when `temporal` names
    /// a cache and its plane. It needs no synthesiser, so the graph's
    /// *Gather* nodes call it on their ring slot's scratch alone.
    pub(crate) fn sweep(
        &self,
        ctx: &LayerCtx<'_>,
        scratch: &mut StageScratch,
        temporal: Option<(&TemporalCache, usize)>,
    ) -> MatrixGatherStats {
        match &scratch.acts {
            StageActs::F32(acts) => self.sweep_on(acts, ctx, &mut scratch.gather, temporal),
            StageActs::F16(acts) => self.sweep_on(acts, ctx, &mut scratch.gather, temporal),
        }
    }

    fn sweep_on<E: Element>(
        &self,
        acts: &Matrix<E>,
        ctx: &LayerCtx<'_>,
        scratch: &mut GatherScratch,
        temporal: Option<(&TemporalCache, usize)>,
    ) -> MatrixGatherStats {
        let conc = &self.concentrator;
        match temporal {
            Some((cache, stage_index)) => conc.gather_matrix_temporal_on(
                acts,
                ctx.positions,
                ctx.retained,
                scratch,
                cache,
                ctx.layer,
                stage_index,
                self.backend,
            ),
            None => conc.gather_matrix_with_on(acts, ctx.positions, scratch, self.backend),
        }
    }
}
