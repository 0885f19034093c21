//! End-to-end Focus pipeline (paper Fig. 4).
//!
//! One [`FocusPipeline::run`] call reproduces a full prefill pass over
//! a [`Workload`]:
//!
//! 1. **Measured phase** (at
//!    [`WorkloadScale`](focus_vlm::WorkloadScale) resolution): layer
//!    by layer, the SEC prunes tokens at the Table I schedule points
//!    using synthesised cross-modal attention, and the four SIC gather
//!    stages gather the FC outputs of the retained tokens' synthesised
//!    activations, recording per-tile retained-vector ratios and
//!    per-token reconstruction fidelity. The default
//!    [`ExecMode::Graph`] schedule runs it as task nodes on the shared
//!    [`FocusService`] pool; [`ExecMode::Serial`] is the reference
//!    loop over the [`crate::exec::LayerExecutor`] (`measure`
//!    module).
//! 2. **Lowering phase** (`lower` module, at paper scale): the
//!    measured ratios are applied to the shared
//!    [`focus_vlm::trace::layer_lowering`] GEMM table, producing
//!    [`focus_sim::WorkItem`]s — with weights re-read per m-tile,
//!    compressed activation traffic, similarity-map bytes, scatter
//!    accumulators, and SEC/SIC/SFU ops — ready for the cycle-accurate
//!    engine.
//!
//! Sparsity is therefore *measured* (it comes out of the real gather
//! code running on synthesised activations), while cycles and energy
//! are *computed* at paper scale from those measurements (DESIGN.md
//! §2). Batch many runs with [`crate::exec::BatchRunner::run`]; stream
//! an unbounded feed frame by frame — warm per-session state, bounded
//! in-flight window — with [`crate::exec::StreamSession`]. Every
//! admission path returns results bit-identical to a serial run.

pub(crate) mod lower;
pub(crate) mod measure;
pub(crate) mod stats;

pub use stats::{LayerStats, PipelineResult, SecLayerStats};

use focus_sim::ArchConfig;
use focus_tensor::backend::BackendHandle;
use focus_tensor::quant::DataType;
use focus_vlm::accuracy::AccuracyModel;
use focus_vlm::Workload;

use crate::config::FocusConfig;
use crate::exec::{BatchJob, ExecMode, FocusService, Priority};

/// The configured pipeline.
#[derive(Clone, Debug)]
pub struct FocusPipeline {
    /// Focus-unit configuration.
    pub focus: FocusConfig,
    /// Proxy accuracy calibration.
    pub accuracy: AccuracyModel,
    /// Operand precision (Table IV runs INT8).
    pub dtype: DataType,
    /// Measured-phase schedule (results are bit-identical across
    /// modes; only throughput differs). Defaults to
    /// [`ExecMode::Graph`] at [`ExecMode::DEFAULT_GRAPH_DEPTH`].
    pub exec_mode: ExecMode,
    /// Kernel backend for the hot stage kernels (gather scoring, dtype
    /// conversion, synthesis fill). Results are bit-identical across
    /// the numeric backends; only throughput differs. Defaults to the
    /// process-wide active backend
    /// ([`focus_tensor::backend::BACKEND_ENV`] override honoured).
    pub backend: BackendHandle,
}

impl FocusPipeline {
    /// A pipeline with the Table I configuration on the default
    /// graph schedule.
    pub fn paper() -> Self {
        FocusPipeline::with_config(FocusConfig::paper())
    }

    /// A pipeline with a custom Focus configuration on the default
    /// graph schedule.
    pub fn with_config(focus: FocusConfig) -> Self {
        FocusPipeline {
            focus,
            accuracy: AccuracyModel::default(),
            dtype: DataType::Fp16,
            exec_mode: ExecMode::default(),
            backend: crate::obs::kernel_backend(),
        }
    }

    /// The same pipeline under a different measured-phase schedule.
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// The same pipeline on a different kernel backend (the numeric
    /// backends are bit-identical; see [`focus_tensor::backend`]).
    pub fn with_backend(mut self, backend: BackendHandle) -> Self {
        self.backend = backend;
        self
    }

    /// Runs the measured phase and lowers to paper scale.
    ///
    /// Under [`ExecMode::Graph`] the run is submitted to the
    /// process-wide [`FocusService`] — one long-lived worker pool
    /// serves every graph-mode run, batch and streaming session in
    /// the process, so concurrent callers interleave at stage
    /// granularity (arbitrated by the weighted fair queue) instead of
    /// each spinning up a scheduler. Under [`ExecMode::Serial`] it
    /// runs the reference layer loop on the calling thread; results
    /// are bit-identical either way. For an unbounded per-frame feed, use
    /// [`crate::exec::StreamSession`] instead of calling this in a
    /// loop — same results, plus windowed backpressure and warm
    /// cross-frame state.
    pub fn run(&self, workload: &Workload, arch: &ArchConfig) -> PipelineResult {
        match self.exec_mode {
            ExecMode::Graph { .. } => {
                let job = BatchJob {
                    pipeline: self.clone(),
                    workload: workload.clone(),
                    arch: arch.clone(),
                };
                FocusService::global().submit(job, Priority::Normal).wait()
            }
            ExecMode::Serial => {
                let measured = self.measure(workload);
                self.lower(workload, arch, measured)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_vlm::{DatasetKind, ModelKind, WorkloadScale};

    fn tiny_workload() -> Workload {
        Workload::new(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            42,
        )
    }

    #[test]
    fn paper_pipeline_produces_high_sparsity() {
        let wl = tiny_workload();
        let result = FocusPipeline::paper().run(&wl, &ArchConfig::focus());
        let s = result.sparsity();
        assert!(s > 0.55, "sparsity {s} too low");
        assert!(s < 0.97, "sparsity {s} implausibly high");
        assert_eq!(result.layers.len(), 28);
        assert_eq!(result.sec_layers.len(), 5);
        assert_eq!(result.work_items.len(), 28 * 7);
    }

    #[test]
    fn schedule_shrinks_tokens_monotonically() {
        let wl = tiny_workload();
        let result = FocusPipeline::paper().run(&wl, &ArchConfig::focus());
        let mut prev = usize::MAX;
        for l in &result.layers {
            assert!(l.retained_out <= l.retained_in);
            assert!(l.retained_in <= prev.max(l.retained_in));
            prev = l.retained_out;
        }
        // Final retention = 10 % of image tokens.
        let final_tokens = result.layers.last().unwrap().retained_out;
        let expect = (0.10 * wl.image_tokens_scaled() as f64).round() as usize;
        assert_eq!(final_tokens, expect);
    }

    #[test]
    fn dense_config_is_a_noop() {
        let wl = tiny_workload();
        let mut cfg = FocusConfig::paper();
        cfg.enable_sec = false;
        cfg.enable_sic = false;
        cfg.schedule = crate::config::RetentionSchedule::dense();
        let result = FocusPipeline::with_config(cfg).run(&wl, &ArchConfig::vanilla());
        assert!(result.sparsity().abs() < 1e-9, "{}", result.sparsity());
        assert!((result.accuracy - result.dense_accuracy).abs() < 1e-9);
        assert!(result
            .outcomes
            .iter()
            .all(|o| (o.fidelity - 1.0).abs() < 1e-9));
    }

    #[test]
    fn sec_only_beats_dense_and_loses_to_full() {
        let wl = tiny_workload();
        let full = FocusPipeline::paper().run(&wl, &ArchConfig::focus());
        let sec_only =
            FocusPipeline::with_config(FocusConfig::sec_only()).run(&wl, &ArchConfig::focus());
        assert!(sec_only.sparsity() > 0.5);
        assert!(full.sparsity() > sec_only.sparsity());
    }

    #[test]
    fn accuracy_stays_near_dense_anchor() {
        let wl = tiny_workload();
        let result = FocusPipeline::paper().run(&wl, &ArchConfig::focus());
        let drop = result.dense_accuracy - result.accuracy;
        assert!(drop < 4.0, "accuracy drop {drop} too large");
        assert!(drop > -1.5, "accuracy gain {drop} implausible");
    }

    #[test]
    fn int8_changes_little() {
        let wl = tiny_workload();
        let fp16 = FocusPipeline::paper().run(&wl, &ArchConfig::focus());
        let mut p = FocusPipeline::paper();
        p.dtype = DataType::Int8;
        let int8 = p.run(&wl, &ArchConfig::focus());
        assert!((fp16.sparsity() - int8.sparsity()).abs() < 0.03);
        assert!(int8.accuracy < fp16.accuracy);
        assert!(fp16.accuracy - int8.accuracy < 2.0);
    }

    #[test]
    fn compressed_traffic_is_below_dense() {
        let wl = tiny_workload();
        let focus = FocusPipeline::paper().run(&wl, &ArchConfig::focus());
        let mut dense_cfg = FocusConfig::paper();
        dense_cfg.enable_sec = false;
        dense_cfg.enable_sic = false;
        dense_cfg.schedule = crate::config::RetentionSchedule::dense();
        let dense = FocusPipeline::with_config(dense_cfg).run(&wl, &ArchConfig::vanilla());
        assert!(focus.dram_bytes() < dense.dram_bytes() / 2);
        assert!(focus.weight_bytes < dense.weight_bytes);
    }

    #[test]
    fn paper_pipeline_defaults_to_the_graph_schedule() {
        let graph = ExecMode::Graph {
            depth: ExecMode::DEFAULT_GRAPH_DEPTH,
        };
        assert_eq!(FocusPipeline::paper().exec_mode, graph);
        assert_eq!(
            FocusPipeline::with_config(FocusConfig::sec_only()).exec_mode,
            graph
        );
    }
}
