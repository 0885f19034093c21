//! Development probe: prints measured sparsity/accuracy per workload
//! cell for calibration against the paper's Table II. The nine cells
//! run through [`BatchRunner::run`] in parallel; output order (and
//! every number) is identical to a serial loop.
use focus_core::exec::{BatchJob, BatchRunner};
use focus_core::pipeline::FocusPipeline;
use focus_sim::ArchConfig;
use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};

fn main() {
    let mut cells = Vec::new();
    for model in ModelKind::VIDEO_MODELS {
        for dataset in DatasetKind::VIDEO {
            cells.push((model, dataset));
        }
    }
    let jobs: Vec<BatchJob> = cells
        .iter()
        .map(|&(m, d)| BatchJob {
            pipeline: FocusPipeline::paper(),
            workload: Workload::new(m, d, WorkloadScale::default_eval(), 42),
            arch: ArchConfig::focus(),
        })
        .collect();
    let results = BatchRunner::run(&jobs);
    for ((model, dataset), (r, _)) in cells.iter().zip(results) {
        println!(
            "{:10} {:6}  sparsity {:5.2}%  acc {:6.2} (dense {:6.2})  sic_match_rate {:.3}",
            model.to_string(),
            dataset.to_string(),
            r.sparsity() * 100.0,
            r.accuracy,
            r.dense_accuracy,
            r.sic_matches as f64 / r.sic_comparisons.max(1) as f64,
        );
    }
}
