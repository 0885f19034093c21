//! Regenerates **Fig. 9: speedup, energy and area/power breakdowns**.
//!
//! (a) Speedup of GPU, AdapTiV, CMC, GPU+FrameFusion and Focus over the
//!     vanilla systolic array, per workload plus the geometric mean.
//! (b) Energy normalised to the systolic array, split core/buffer/DRAM.
//! (c) Area and power breakdown of the Focus design.

use focus_bench::{
    fmt_x, geomean, print_table, run_adaptiv, run_cmc, run_dense, run_focus, run_gpu,
    run_gpu_framefusion, video_grid, workload, MethodOutcome,
};
use focus_core::exec::par_map;
use focus_core::{unit::chip_area_report, FocusConfig};
use focus_sim::ArchConfig;

fn main() {
    println!("Fig. 9(a) — speedup over the vanilla systolic array\n");
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let mut energy_ratios: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let mut rows = Vec::new();
    let mut focus_for_breakdown = None;

    // Build the nine grid cells up front, then fan *all* independent
    // (method × cell) runs out in one parallel map — a single barrier
    // that saturates the machine. Results come back in submission
    // order, identical to the old serial per-cell loop.
    let grid = video_grid();
    let workloads: Vec<_> = grid.iter().map(|&(m, d)| workload(m, d)).collect();
    type MethodFn = fn(&focus_vlm::Workload) -> MethodOutcome;
    let method_fns: [MethodFn; 6] = [
        run_dense,
        run_gpu,
        run_adaptiv,
        run_cmc,
        run_gpu_framefusion,
        run_focus,
    ];
    let cells = workloads.len();
    let pairs: Vec<(usize, usize)> = (0..method_fns.len())
        .flat_map(|m| (0..cells).map(move |c| (m, c)))
        .collect();
    let flat = par_map(&pairs, |&(m, c)| method_fns[m](&workloads[c]));
    let outcome = |m: usize, c: usize| -> &MethodOutcome { &flat[m * cells + c] };

    for (c, (model, dataset)) in grid.into_iter().enumerate() {
        let dense = outcome(0, c);
        let methods: Vec<&MethodOutcome> = vec![
            outcome(1, c),
            outcome(2, c),
            outcome(3, c),
            outcome(4, c),
            outcome(5, c),
        ];
        let mut row = vec![model.to_string(), dataset.to_string()];
        for (i, m) in methods.iter().enumerate() {
            let s = dense.seconds / m.seconds;
            let e = dense.energy_j / m.energy_j;
            speedups[i].push(s);
            energy_ratios[i].push(e);
            row.push(fmt_x(s));
        }
        if focus_for_breakdown.is_none() {
            focus_for_breakdown = Some(outcome(5, c).clone());
        }
        rows.push(row);
    }
    let mut mean_row = vec!["Geometric".to_string(), "Mean".to_string()];
    for s in &speedups {
        mean_row.push(fmt_x(geomean(s)));
    }
    rows.push(mean_row);
    print_table(
        &[
            "Model", "Dataset", "GPU", "Adaptiv", "CMC", "GPU+FF", "Ours",
        ],
        &rows,
    );
    println!("\npaper geomeans (Ours over each): GPU 7.90x, Adaptiv 2.60x, CMC 2.35x, GPU+FF 2.37x, SA 4.47x");

    println!("\nFig. 9(b) — energy efficiency over the systolic array (geomean)\n");
    let labels = ["GPU", "Adaptiv", "CMC", "GPU+FF", "Ours"];
    let rows: Vec<Vec<String>> = labels
        .iter()
        .zip(&energy_ratios)
        .map(|(l, e)| vec![l.to_string(), fmt_x(geomean(e))])
        .collect();
    print_table(&["Method", "SA energy / method energy"], &rows);
    println!("\npaper: Ours saves 4.67x vs SA, 2.98x vs Adaptiv, 3.29x vs CMC, 17.09x vs GPU, 5.13x vs GPU+FF");

    // (c) Area and power breakdown of the Focus chip.
    println!("\nFig. 9(c) — area breakdown (Focus design)\n");
    let area = chip_area_report(&ArchConfig::focus(), &FocusConfig::paper(), 6272);
    let total = area.total_mm2();
    let rows: Vec<Vec<String>> = area
        .iter()
        .map(|(name, mm2)| {
            vec![
                name.to_string(),
                format!("{mm2:.3} mm2"),
                format!("{:.1}%", 100.0 * mm2 / total),
            ]
        })
        .collect();
    print_table(&["Component", "Area", "Share"], &rows);
    println!("total: {total:.2} mm2   (paper: 3.21 mm2; SA 44%, Buffer 43%, SFU 10%, SEC 1.9%, SIC 0.8%)");

    println!("\nFig. 9(c) — power breakdown (Focus on Llava-Video / VideoMME)\n");
    let focus = focus_for_breakdown.expect("focus outcome");
    let rep = focus.report.expect("sim report");
    let e = rep.energy;
    let total = e.total_j();
    let rows = vec![
        vec![
            "DRAM".to_string(),
            format!("{:.1}%", 100.0 * e.dram_j / total),
        ],
        vec![
            "Systolic Array".to_string(),
            format!("{:.1}%", 100.0 * e.core_j / total),
        ],
        vec![
            "Buffer".to_string(),
            format!("{:.1}%", 100.0 * e.buffer_j / total),
        ],
        vec![
            "SFU + static".to_string(),
            format!("{:.1}%", 100.0 * (e.sfu_j + e.static_j) / total),
        ],
        vec![
            "SEC".to_string(),
            format!("{:.1}%", 100.0 * e.sec_j / total),
        ],
        vec![
            "SIC".to_string(),
            format!("{:.1}%", 100.0 * e.sic_j / total),
        ],
    ];
    print_table(&["Component", "Power share"], &rows);
    println!(
        "total power: {:.2} W, on-chip {:.0} mW   (paper: 1.79 W total, DRAM 59%, SA 18%, Buffer 13%, SFU 9%, SEC 0.3%, SIC 0.5%)",
        rep.avg_power_w(),
        rep.on_chip_power_w() * 1e3
    );
}
