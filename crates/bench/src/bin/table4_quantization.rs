//! Regenerates **Table IV: influence of INT8 quantization on accuracy
//! and sparsity** — the Focus pipeline re-run with INT8 activations
//! (per-row absmax fake quantisation), reporting the degradation of the
//! dense score, the Focus score and the Focus sparsity relative to FP16.

use focus_bench::{print_table, video_grid, workload};
use focus_core::exec::{BatchJob, BatchRunner};
use focus_core::pipeline::FocusPipeline;
use focus_core::{FocusConfig, RetentionSchedule};
use focus_sim::ArchConfig;
use focus_tensor::DataType;

fn main() {
    println!("Table IV — influence of INT8 quantization (degradation vs FP16)\n");
    let mut rows = Vec::new();
    // Three pipeline variants per grid cell, all independent: batch
    // the 27 (pipeline, workload, arch) jobs through one submission.
    let mut int8_pipeline = FocusPipeline::paper();
    int8_pipeline.dtype = DataType::Int8;
    // Dense model under INT8: concentration off, quantisation on.
    let mut dense_cfg = FocusConfig::paper();
    dense_cfg.enable_sec = false;
    dense_cfg.enable_sic = false;
    dense_cfg.schedule = RetentionSchedule::dense();
    let mut dense_int8 = FocusPipeline::with_config(dense_cfg);
    dense_int8.dtype = DataType::Int8;

    let grid = video_grid();
    let jobs: Vec<BatchJob> = grid
        .iter()
        .flat_map(|&(model, dataset)| {
            let wl = workload(model, dataset);
            [
                (FocusPipeline::paper(), ArchConfig::focus()),
                (int8_pipeline.clone(), ArchConfig::focus()),
                (dense_int8.clone(), ArchConfig::vanilla()),
            ]
            .map(|(pipeline, arch)| BatchJob {
                pipeline,
                workload: wl.clone(),
                arch,
            })
        })
        .collect();
    let results: Vec<_> = BatchRunner::run(&jobs)
        .into_iter()
        .map(|(r, _)| r)
        .collect();

    for (i, (model, dataset)) in grid.iter().enumerate() {
        let (fp16, int8, dense8) = (&results[3 * i], &results[3 * i + 1], &results[3 * i + 2]);

        rows.push(vec![
            model.to_string(),
            dataset.to_string(),
            format!("{:.2}", dense8.accuracy),
            format!("{:+.2}", fp16.dense_accuracy - dense8.accuracy),
            format!("{:.2}", int8.accuracy),
            format!("{:+.2}", fp16.accuracy - int8.accuracy),
            format!("{:.2}", int8.sparsity() * 100.0),
            format!("{:+.2}", (fp16.sparsity() - int8.sparsity()) * 100.0),
        ]);
    }
    print_table(
        &[
            "Model",
            "Dataset",
            "Dense INT8",
            "Degrade",
            "Ours INT8",
            "Degrade",
            "Sparsity",
            "Degrade",
        ],
        &rows,
    );
    println!(
        "\npaper: INT8 costs Focus ~0.5 points of accuracy and ~0.13 points of sparsity on average"
    );
}
