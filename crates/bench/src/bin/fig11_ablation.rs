//! Regenerates **Fig. 11: ablation study** — speedups of the dense
//! systolic array, CMC, Focus with only the Semantic Concentrator, and
//! full Focus (SEC + SIC), on LLaVA-Video-7B.
//!
//! Paper shape: SEC alone ≈ 3.15× over dense (1.58× over CMC); adding
//! SIC multiplies a further ≈1.44×, totalling ≈4.53× (2.26× over CMC).

use focus_bench::{
    fmt_x, print_table, run_cmc, run_dense, run_focus_with, workload, MethodOutcome,
};
use focus_core::exec::par_map;
use focus_core::pipeline::FocusPipeline;
use focus_core::FocusConfig;
use focus_vlm::{DatasetKind, ModelKind};

fn main() {
    println!("Fig. 11 — ablation study (Llava-Video-7B, VideoMME)\n");
    let wl = workload(ModelKind::LlavaVideo7B, DatasetKind::VideoMme);

    // The four ablation points are independent runs over one workload;
    // fan them out in one deterministic parallel map.
    type MethodFn = fn(&focus_vlm::Workload) -> MethodOutcome;
    let methods: [MethodFn; 4] = [
        run_dense,
        run_cmc,
        |wl| run_focus_with(wl, FocusPipeline::with_config(FocusConfig::sec_only())),
        |wl| run_focus_with(wl, FocusPipeline::paper()),
    ];
    let outcomes = par_map(&methods, |m| m(&wl));
    let (dense, cmc, sec_only, full) = (&outcomes[0], &outcomes[1], &outcomes[2], &outcomes[3]);

    let rows = vec![
        vec![
            "Systolic Array (Dense)".to_string(),
            fmt_x(1.0),
            String::new(),
        ],
        vec![
            "CMC (Token-wise Pruning)".to_string(),
            fmt_x(dense.seconds / cmc.seconds),
            String::new(),
        ],
        vec![
            "Ours (SEC only)".to_string(),
            fmt_x(dense.seconds / sec_only.seconds),
            format!(
                "{} over CMC (semantic concentration)",
                fmt_x(cmc.seconds / sec_only.seconds)
            ),
        ],
        vec![
            "Ours (SEC + SIC)".to_string(),
            fmt_x(dense.seconds / full.seconds),
            format!(
                "{} additional from similarity concentration",
                fmt_x(sec_only.seconds / full.seconds)
            ),
        ],
    ];
    print_table(&["Configuration", "Speedup", "Note"], &rows);
    println!("\npaper: dense 1.00x, CMC 2.00x, +SEC 3.15x, +SEC+SIC 4.53x (1.58x / 1.44x steps)");
}
