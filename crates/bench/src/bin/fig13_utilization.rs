//! Regenerates **Fig. 13: histogram and compute utilisation of
//! concentrated tile length** (paper §VIII-B, worst/best-case
//! analysis).
//!
//! For every sub-tile the simulator records `(retained rows p,
//! utilisation)`; this binary prints the probability density of `p`
//! in bins plus the mean utilisation — the paper reports 92.2 %.

use focus_bench::{focus_engine, workload};
use focus_core::exec::par_map;
use focus_core::pipeline::FocusPipeline;
use focus_sim::ArchConfig;
use focus_vlm::{DatasetKind, ModelKind};

fn main() {
    println!("Fig. 13 — concentrated tile length histogram and utilisation\n");
    let wl = workload(ModelKind::LlavaVideo7B, DatasetKind::VideoMme);
    // The histogram covers the *concentrated* tiles (GEMMs consuming
    // gathered inputs); dense attention GEMMs would flood the top bin.
    // One pipeline run feeds both simulations (the old code re-ran the
    // whole measured phase for the whole-run number), and the two
    // engine passes share the process-wide Focus engine in parallel.
    let result = FocusPipeline::paper().run(&wl, &ArchConfig::focus());
    let concentrated: Vec<_> = result
        .work_items
        .iter()
        .filter(|w| w.gemm.subtile_rows.is_some())
        .cloned()
        .collect();
    let item_sets = [concentrated, result.work_items];
    let mut reports = par_map(&item_sets, |items| focus_engine().run(items));
    let overall_rep = reports.pop().expect("whole-run report");
    let rep = reports.pop().expect("concentrated report");

    const BINS: usize = 16;
    const MAX_P: usize = 1024;
    let mut counts = [0usize; BINS];
    let mut util_sum = [0.0f64; BINS];
    for &(p, util) in &rep.subtile_samples {
        let bin = (p * BINS / (MAX_P + 1)).min(BINS - 1);
        counts[bin] += 1;
        util_sum[bin] += util;
    }
    let total: usize = counts.iter().sum();

    println!(
        "{:>12}  {:>8}  {:>8}  {:>12}",
        "p range", "density", "util", "histogram"
    );
    for b in 0..BINS {
        let lo = b * (MAX_P + 1) / BINS;
        let hi = (b + 1) * (MAX_P + 1) / BINS - 1;
        let density = counts[b] as f64 / total.max(1) as f64;
        let util = if counts[b] > 0 {
            util_sum[b] / counts[b] as f64
        } else {
            0.0
        };
        let bar = "#".repeat((density * 120.0).round() as usize);
        println!("{lo:>5}-{hi:<5}  {density:>8.3}  {util:>8.3}  {bar}");
    }
    println!(
        "\nmean utilisation over concentrated tiles: {:.3}   (paper: 0.922)",
        rep.avg_utilization
    );
    // Whole-run utilisation including the dense attention GEMMs.
    println!(
        "mean utilisation over the whole run: {:.3}",
        overall_rep.avg_utilization
    );
    println!("sub-tiles sampled: {total}");
}
