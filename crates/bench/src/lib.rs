//! Experiment harness for the Focus reproduction.
//!
//! One binary per paper table/figure regenerates the corresponding
//! rows/series (README "Reproducing paper artefacts" shows how to run
//! them):
//!
//! | target | artefact |
//! |---|---|
//! | `table1_setup` | Table I (architecture setup) |
//! | `table2_accuracy_sparsity` | Table II (accuracy & sparsity) |
//! | `table3_config` | Table III (configuration, area, power) |
//! | `table4_quantization` | Table IV (INT8 synergy) |
//! | `table5_image_vlm` | Table V (image VLMs) |
//! | `fig02_motivation` | Fig. 2 (similarity CDF, sparsity comparison) |
//! | `fig09_speedup_energy` | Fig. 9 (speedup, energy, area/power pies) |
//! | `fig10_dse` | Fig. 10 (design space exploration) |
//! | `fig11_ablation` | Fig. 11 (SEC/SIC ablation) |
//! | `fig12_memory` | Fig. 12 (DRAM access, activation size) |
//! | `fig13_utilization` | Fig. 13 (tile-length histogram, utilisation) |
//! | `calibrate` | development probe (sparsity/accuracy per cell) |
//!
//! This library holds the shared plumbing: the standard evaluation
//! grid, a uniform [`MethodOutcome`] record for every design, plain
//! text table rendering, and the batched entry points
//! ([`run_focus_many`], [`run_focus_jobs`]) that submit pipeline runs
//! to the shared serving pool via [`focus_core::exec::BatchRunner`].

use std::sync::OnceLock;

use focus_baselines::{
    AdaptivBaseline, CmcBaseline, Concentrator, DenseBaseline, FrameFusionBaseline,
};
use focus_core::exec::{BatchJob, BatchRunner};
use focus_core::pipeline::{FocusPipeline, PipelineResult};
use focus_sim::{ArchConfig, Engine, GpuModel, SimReport};
use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};

/// The seed every shipped experiment uses (reports are deterministic).
pub const EVAL_SEED: u64 = 42;

/// The shared cycle engine for the Focus architecture. Engines are
/// immutable during [`Engine::run`], so every runner in the process —
/// including the parallel batch regions — borrows one instance instead
/// of rebuilding `Engine::new(arch)` per outcome.
pub fn focus_engine() -> &'static Engine {
    static E: OnceLock<Engine> = OnceLock::new();
    E.get_or_init(|| Engine::new(ArchConfig::focus()))
}

/// The shared engine for the vanilla systolic array.
pub fn vanilla_engine() -> &'static Engine {
    static E: OnceLock<Engine> = OnceLock::new();
    E.get_or_init(|| Engine::new(ArchConfig::vanilla()))
}

/// The shared engine for the AdapTiV architecture.
pub fn adaptiv_engine() -> &'static Engine {
    static E: OnceLock<Engine> = OnceLock::new();
    E.get_or_init(|| Engine::new(ArchConfig::adaptiv()))
}

/// The shared engine for the CMC architecture.
pub fn cmc_engine() -> &'static Engine {
    static E: OnceLock<Engine> = OnceLock::new();
    E.get_or_init(|| Engine::new(ArchConfig::cmc()))
}

/// The measured scale every shipped experiment uses.
pub fn eval_scale() -> WorkloadScale {
    WorkloadScale::default_eval()
}

/// The nine (model × video benchmark) cells of Tables II/IV and Fig. 9.
pub fn video_grid() -> Vec<(ModelKind, DatasetKind)> {
    let mut grid = Vec::new();
    for model in ModelKind::VIDEO_MODELS {
        for dataset in DatasetKind::VIDEO {
            grid.push((model, dataset));
        }
    }
    grid
}

/// The six (model × image benchmark) cells of Table V.
pub fn image_grid() -> Vec<(ModelKind, DatasetKind)> {
    let mut grid = Vec::new();
    for model in ModelKind::IMAGE_MODELS {
        for dataset in DatasetKind::IMAGE {
            grid.push((model, dataset));
        }
    }
    grid
}

/// Builds the standard workload for one grid cell.
pub fn workload(model: ModelKind, dataset: DatasetKind) -> Workload {
    Workload::new(model, dataset, eval_scale(), EVAL_SEED)
}

/// Uniform record of one method's result on one workload.
#[derive(Clone, Debug)]
pub struct MethodOutcome {
    /// Method name as the paper labels it.
    pub name: &'static str,
    /// End-to-end runtime in seconds.
    pub seconds: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Computation sparsity.
    pub sparsity: f64,
    /// Proxy benchmark score.
    pub accuracy: f64,
    /// Full simulator report (accelerator methods only).
    pub report: Option<SimReport>,
}

/// Runs the vanilla systolic array.
pub fn run_dense(wl: &Workload) -> MethodOutcome {
    let r = DenseBaseline.run(wl, &ArchConfig::vanilla());
    let rep = vanilla_engine().run(&r.work_items);
    MethodOutcome {
        name: "SA",
        seconds: rep.seconds,
        energy_j: rep.energy.total_j(),
        sparsity: r.sparsity(),
        accuracy: r.accuracy,
        report: Some(rep),
    }
}

/// Runs AdapTiV on its own architecture.
pub fn run_adaptiv(wl: &Workload) -> MethodOutcome {
    let r = AdaptivBaseline::default().run(wl, &ArchConfig::adaptiv());
    let rep = adaptiv_engine().run(&r.work_items);
    MethodOutcome {
        name: "Adaptiv",
        seconds: rep.seconds,
        energy_j: rep.energy.total_j(),
        sparsity: r.sparsity(),
        accuracy: r.accuracy,
        report: Some(rep),
    }
}

/// Runs CMC on its own architecture.
pub fn run_cmc(wl: &Workload) -> MethodOutcome {
    let r = CmcBaseline::default().run(wl, &ArchConfig::cmc());
    let rep = cmc_engine().run(&r.work_items);
    MethodOutcome {
        name: "CMC",
        seconds: rep.seconds,
        energy_j: rep.energy.total_j(),
        sparsity: r.sparsity(),
        accuracy: r.accuracy,
        report: Some(rep),
    }
}

/// Runs the Focus pipeline (Table I configuration).
pub fn run_focus(wl: &Workload) -> MethodOutcome {
    run_focus_with(wl, FocusPipeline::paper())
}

/// Runs a custom Focus pipeline configuration.
pub fn run_focus_with(wl: &Workload, pipeline: FocusPipeline) -> MethodOutcome {
    let r = pipeline.run(wl, &ArchConfig::focus());
    focus_outcome(r, focus_engine())
}

/// Runs the Table I Focus pipeline over many workloads **in
/// parallel**, simulation included in the parallel region (results in
/// input order, identical to calling [`run_focus`] per workload).
pub fn run_focus_many(workloads: &[Workload]) -> Vec<MethodOutcome> {
    run_focus_jobs(
        workloads
            .iter()
            .map(|wl| BatchJob {
                pipeline: FocusPipeline::paper(),
                workload: wl.clone(),
                arch: ArchConfig::focus(),
            })
            .collect(),
    )
}

/// Runs heterogeneous `(pipeline, workload, arch)` jobs **in
/// parallel** (results in input order), with one engine per distinct
/// architecture shared across the batch. Config sweeps — many
/// pipeline variants over one workload — batch through here.
pub fn run_focus_jobs(jobs: Vec<BatchJob>) -> Vec<MethodOutcome> {
    BatchRunner::run_sim(&jobs)
        .into_iter()
        .map(outcome_from_sim)
        .collect()
}

/// Lowers one Focus pipeline result into the uniform outcome record
/// using a caller-provided engine.
fn focus_outcome(r: PipelineResult, engine: &Engine) -> MethodOutcome {
    let rep = engine.run(&r.work_items);
    outcome_from_sim((r, rep))
}

fn outcome_from_sim((r, rep): (PipelineResult, SimReport)) -> MethodOutcome {
    MethodOutcome {
        name: "Ours",
        seconds: rep.seconds,
        energy_j: rep.energy.total_j(),
        sparsity: r.sparsity(),
        accuracy: r.accuracy,
        report: Some(rep),
    }
}

/// Runs the dense model on the edge GPU.
pub fn run_gpu(wl: &Workload) -> MethodOutcome {
    let dense = DenseBaseline.run(wl, &ArchConfig::vanilla());
    // The GPU does not re-read weights per m-tile: charge single-pass
    // traffic (weights + activations once).
    let bytes = gpu_bytes(&dense);
    let rep = GpuModel::orin_nano().run_dense(dense.macs, bytes);
    MethodOutcome {
        name: "GPU",
        seconds: rep.seconds,
        energy_j: rep.energy_j,
        sparsity: 0.0,
        accuracy: dense.accuracy,
        report: None,
    }
}

/// Runs FrameFusion on the edge GPU.
pub fn run_gpu_framefusion(wl: &Workload) -> MethodOutcome {
    let ff = FrameFusionBaseline::default().run(wl, &ArchConfig::vanilla());
    let bytes = gpu_bytes(&ff);
    let rep = GpuModel::orin_nano().run_pruned(ff.macs, bytes);
    MethodOutcome {
        name: "GPU + FF",
        seconds: rep.seconds,
        energy_j: rep.energy_j,
        sparsity: ff.sparsity(),
        accuracy: ff.accuracy,
        report: None,
    }
}

fn gpu_bytes(r: &focus_baselines::BaselineResult) -> u64 {
    // Weights once (no tiling re-reads on a cached GPU) + activations.
    r.dram_bytes() / 4
}

/// Geometric mean helper re-exported for the binaries.
pub fn geomean(values: &[f64]) -> f64 {
    focus_tensor::ops::geometric_mean(values)
}

/// Renders a plain-text table: a header row and aligned columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a ratio as `x.xx×`.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.2}", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_paper_shapes() {
        assert_eq!(video_grid().len(), 9);
        assert_eq!(image_grid().len(), 6);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_x(2.345), "2.35x");
        assert_eq!(fmt_pct(0.8123), "81.23");
    }

    #[test]
    fn batched_sim_outcomes_match_serial_runner() {
        let workloads: Vec<Workload> = (0..2)
            .map(|seed| {
                Workload::new(
                    ModelKind::LlavaVideo7B,
                    DatasetKind::VideoMme,
                    WorkloadScale::tiny(),
                    seed,
                )
            })
            .collect();
        let batched = run_focus_many(&workloads);
        for (wl, b) in workloads.iter().zip(&batched) {
            let serial = run_focus(wl);
            assert_eq!(b.seconds, serial.seconds);
            assert_eq!(b.energy_j, serial.energy_j);
            assert_eq!(b.sparsity, serial.sparsity);
            assert_eq!(b.accuracy, serial.accuracy);
            assert_eq!(b.report, serial.report);
        }
    }
}
