//! Regenerates **Table II: accuracy and computation sparsity of Focus
//! and baselines** over the 3 video models × 3 video benchmarks grid.
//!
//! Columns follow the paper: original (dense) score, FrameFusion,
//! AdapTiV, CMC, and Focus ("Ours"), each with its accuracy and
//! computation sparsity.

use focus_baselines::{
    AdaptivBaseline, CmcBaseline, Concentrator, DenseBaseline, FrameFusionBaseline,
};
use focus_bench::{fmt_pct, print_table, video_grid, workload};
use focus_core::exec::par_map;
use focus_core::pipeline::FocusPipeline;
use focus_sim::ArchConfig;

fn main() {
    println!("Table II — accuracy and computation sparsity (video VLMs)\n");
    let mut rows = Vec::new();
    let mut focus_sparsities = Vec::new();
    // All five methods of all nine cells are independent: run the grid
    // through one deterministic parallel map (results in grid order).
    let grid = video_grid();
    let cells = par_map(&grid, |&(model, dataset)| {
        let wl = workload(model, dataset);
        let dense = DenseBaseline.run(&wl, &ArchConfig::vanilla());
        let ff = FrameFusionBaseline::default().run(&wl, &ArchConfig::vanilla());
        let ada = AdaptivBaseline::default().run(&wl, &ArchConfig::adaptiv());
        let cmc = CmcBaseline::default().run(&wl, &ArchConfig::cmc());
        let ours = FocusPipeline::paper().run(&wl, &ArchConfig::focus());
        (dense, ff, ada, cmc, ours)
    });
    for ((model, dataset), (dense, ff, ada, cmc, ours)) in grid.iter().zip(cells) {
        focus_sparsities.push(ours.sparsity());

        rows.push(vec![
            model.to_string(),
            dataset.to_string(),
            "Acc.".to_string(),
            format!("{:.2}", dense.accuracy),
            format!("{:.2}", ff.accuracy),
            format!("{:.2}", ada.accuracy),
            format!("{:.2}", cmc.accuracy),
            format!("{:.2}", ours.accuracy),
        ]);
        rows.push(vec![
            String::new(),
            String::new(),
            "Sparsity".to_string(),
            "0.00".to_string(),
            fmt_pct(ff.sparsity()),
            fmt_pct(ada.sparsity()),
            fmt_pct(cmc.sparsity()),
            fmt_pct(ours.sparsity()),
        ]);
    }
    print_table(
        &[
            "Model", "Dataset", "Metric", "Ori.", "FF", "Ada.", "CMC", "Ours",
        ],
        &rows,
    );
    let avg = focus_sparsities.iter().sum::<f64>() / focus_sparsities.len() as f64;
    println!(
        "\nFocus average sparsity: {:.2}%  (paper: 80.19%)",
        avg * 100.0
    );
}
