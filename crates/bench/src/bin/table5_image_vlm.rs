//! Regenerates **Table V: accuracy and speedup on image VLMs** —
//! single-image workloads (VQAv2, MME, MMBench) on LLaVA-OneVision and
//! Qwen2.5-VL, comparing dense, AdapTiV and Focus.
//!
//! Focus generalises to images by treating them as one-frame videos
//! (§VIII-A): temporal matching disappears but semantic pruning and
//! spatial similarity remain. Like the paper (which tunes baseline
//! hyper-parameters per model), Qwen2.5-VL runs a milder retention
//! schedule — its window-attention ViT produces less redundant tokens,
//! so aggressive pruning would collapse accuracy.

use focus_bench::{
    fmt_x, image_grid, print_table, run_adaptiv, run_dense, run_focus_with, workload,
};
use focus_core::exec::par_map;
use focus_core::pipeline::FocusPipeline;
use focus_core::{FocusConfig, RetentionSchedule};
use focus_vlm::ModelKind;

fn focus_config_for(model: ModelKind) -> FocusConfig {
    let mut cfg = FocusConfig::paper();
    if model == ModelKind::Qwen25Vl7B {
        cfg.schedule = RetentionSchedule::new(vec![(3, 0.65), (9, 0.50), (18, 0.40), (26, 0.35)]);
    }
    cfg
}

fn main() {
    println!("Table V — accuracy and speedup on image VLMs\n");
    let mut rows = Vec::new();
    // One parallel map over the six grid cells; each cell runs its
    // three methods against the process-wide shared engines.
    let grid = image_grid();
    let cells = par_map(&grid, |&(model, dataset)| {
        let wl = workload(model, dataset);
        let dense = run_dense(&wl);
        let ada = run_adaptiv(&wl);
        let ours = run_focus_with(&wl, FocusPipeline::with_config(focus_config_for(model)));
        (dense, ada, ours)
    });
    for ((model, dataset), (dense, ada, ours)) in grid.iter().zip(cells) {
        rows.push(vec![
            model.to_string(),
            dataset.to_string(),
            "Speedup".to_string(),
            fmt_x(1.0),
            fmt_x(dense.seconds / ada.seconds),
            fmt_x(dense.seconds / ours.seconds),
        ]);
        rows.push(vec![
            String::new(),
            String::new(),
            "Accuracy".to_string(),
            format!("{:.2}", dense.accuracy),
            format!("{:.2}", ada.accuracy),
            format!("{:.2}", ours.accuracy),
        ]);
    }
    print_table(
        &["Model", "Dataset", "Metric", "Dense", "AdapTiV", "Ours"],
        &rows,
    );
    println!("\npaper: Llava-OV Ours ~4.2-4.4x with <2-point drops; Qwen2.5-VL Ours ~1.8-2.0x");
}
