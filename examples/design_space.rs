//! Explore one Focus design axis interactively: how the similarity
//! threshold trades sparsity against reconstruction fidelity — the knob
//! a deployment would actually tune (Table I ships 0.9).
//!
//! The six threshold variants are independent pipeline runs, so they
//! batch through [`BatchRunner::run_sim`] — cycle simulation included,
//! one engine shared by every job — and sweep at machine width;
//! results come back in sweep order, identical to a serial loop.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use focus::core::exec::{BatchJob, BatchRunner};
use focus::core::pipeline::FocusPipeline;
use focus::core::FocusConfig;
use focus::sim::ArchConfig;
use focus::vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};

fn main() {
    let wl = Workload::new(
        ModelKind::LlavaVideo7B,
        DatasetKind::VideoMme,
        WorkloadScale::default_eval(),
        42,
    );

    println!("similarity threshold sweep (Llava-Video-7B, VideoMME)\n");
    println!(
        "{:>9} {:>10} {:>12} {:>10} {:>9}",
        "threshold", "sparsity", "match rate", "accuracy", "latency"
    );
    let thresholds = [0.999f32, 0.95, 0.9, 0.85, 0.8, 0.7];
    let jobs: Vec<BatchJob> = thresholds
        .iter()
        .map(|&threshold| {
            let mut cfg = FocusConfig::paper();
            cfg.threshold = threshold;
            BatchJob {
                pipeline: FocusPipeline::with_config(cfg),
                workload: wl.clone(),
                arch: ArchConfig::focus(),
            }
        })
        .collect();
    let results = BatchRunner::run_sim(&jobs);

    let mut base_seconds = None;
    for (&threshold, (result, rep)) in thresholds.iter().zip(&results) {
        let base = *base_seconds.get_or_insert(rep.seconds);
        println!(
            "{threshold:>9.3} {:>9.1}% {:>11.1}% {:>10.2} {:>8.2}x",
            result.sparsity() * 100.0,
            100.0 * result.sic_matches as f64 / result.sic_comparisons.max(1) as f64,
            result.accuracy,
            base / rep.seconds,
        );
    }
    println!(
        "\nlower thresholds merge more vectors (higher sparsity, faster) but the \
         reconstruction error grows — 0.9 is the paper's operating point."
    );
}
