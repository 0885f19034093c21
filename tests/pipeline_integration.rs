//! End-to-end integration: the full stack (workload synthesis → SEC +
//! SIC → lowering → cycle simulation) must reproduce the paper's
//! headline *shapes*. Run at `tiny` scale so debug-mode
//! CI stays fast; the shipped experiment binaries use the larger
//! default scale.

use focus::baselines::{CmcBaseline, Concentrator, DenseBaseline};
use focus::core::pipeline::FocusPipeline;
use focus::core::{FocusConfig, RetentionSchedule};
use focus::sim::{ArchConfig, Engine};
use focus::vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};

fn wl(model: ModelKind, dataset: DatasetKind) -> Workload {
    Workload::new(model, dataset, WorkloadScale::tiny(), 42)
}

#[test]
fn focus_beats_every_accelerator_baseline_on_video() {
    let workload = wl(ModelKind::LlavaVideo7B, DatasetKind::VideoMme);
    let dense = DenseBaseline.run(&workload, &ArchConfig::vanilla());
    let dense_rep = Engine::new(ArchConfig::vanilla()).run(&dense.work_items);
    let cmc = CmcBaseline::default().run(&workload, &ArchConfig::cmc());
    let cmc_rep = Engine::new(ArchConfig::cmc()).run(&cmc.work_items);
    let focus = FocusPipeline::paper().run(&workload, &ArchConfig::focus());
    let focus_rep = Engine::new(ArchConfig::focus()).run(&focus.work_items);

    let speedup_sa = dense_rep.seconds / focus_rep.seconds;
    let speedup_cmc = cmc_rep.seconds / focus_rep.seconds;
    // Paper: 4.47x over SA, 2.35x over CMC.
    assert!(speedup_sa > 3.0 && speedup_sa < 7.0, "vs SA: {speedup_sa}");
    assert!(
        speedup_cmc > 1.5 && speedup_cmc < 4.0,
        "vs CMC: {speedup_cmc}"
    );

    let energy_sa = dense_rep.energy.total_j() / focus_rep.energy.total_j();
    // Paper: 4.67x energy over SA.
    assert!(
        energy_sa > 3.0 && energy_sa < 7.5,
        "energy vs SA: {energy_sa}"
    );
}

#[test]
fn focus_dram_traffic_is_a_small_fraction_of_dense() {
    let workload = wl(ModelKind::LlavaVideo7B, DatasetKind::VideoMme);
    let dense = DenseBaseline.run(&workload, &ArchConfig::vanilla());
    let focus = FocusPipeline::paper().run(&workload, &ArchConfig::focus());
    let ratio = focus.dram_bytes() as f64 / dense.dram_bytes() as f64;
    // Paper: 0.21× (we measure ~0.3 at tiny scale); must stay well
    // under half of dense and far under CMC.
    assert!(ratio < 0.5, "traffic ratio {ratio}");
    let cmc = CmcBaseline::default().run(&workload, &ArchConfig::cmc());
    let cmc_ratio = cmc.dram_bytes() as f64 / dense.dram_bytes() as f64;
    assert!(cmc_ratio > ratio * 1.5, "CMC {cmc_ratio} vs Focus {ratio}");
}

#[test]
fn sparsity_band_holds_across_the_video_grid() {
    for model in ModelKind::VIDEO_MODELS {
        for dataset in DatasetKind::VIDEO {
            let workload = wl(model, dataset);
            let r = FocusPipeline::paper().run(&workload, &ArchConfig::focus());
            let s = r.sparsity();
            // Paper band: 75.99–85.49 %; tiny-scale tolerance ±8.
            assert!((0.63..0.93).contains(&s), "{model} {dataset}: sparsity {s}");
            // Accuracy stays near the dense anchor.
            let drop = r.dense_accuracy - r.accuracy;
            assert!(drop < 4.0, "{model} {dataset}: drop {drop}");
        }
    }
}

#[test]
fn retention_schedule_drives_token_counts_exactly() {
    let workload = wl(ModelKind::LlavaVideo7B, DatasetKind::VideoMme);
    let m = workload.image_tokens_scaled();
    let r = FocusPipeline::paper().run(&workload, &ArchConfig::focus());
    for (layer, ratio) in RetentionSchedule::paper().entries() {
        let stats = &r.layers[*layer];
        let expect = (ratio * m as f64).round() as usize;
        assert_eq!(stats.retained_out, expect, "layer {layer}");
    }
}

#[test]
fn ablation_ordering_dense_sec_full() {
    let workload = wl(ModelKind::LlavaVideo7B, DatasetKind::VideoMme);
    let engine = Engine::new(ArchConfig::focus());

    let mut dense_cfg = FocusConfig::paper();
    dense_cfg.enable_sec = false;
    dense_cfg.enable_sic = false;
    dense_cfg.schedule = RetentionSchedule::dense();
    let dense = FocusPipeline::with_config(dense_cfg).run(&workload, &ArchConfig::focus());
    let sec =
        FocusPipeline::with_config(FocusConfig::sec_only()).run(&workload, &ArchConfig::focus());
    let full = FocusPipeline::paper().run(&workload, &ArchConfig::focus());

    let t_dense = engine.run(&dense.work_items).seconds;
    let t_sec = engine.run(&sec.work_items).seconds;
    let t_full = engine.run(&full.work_items).seconds;
    // Fig. 11: each added level strictly helps.
    assert!(t_sec < t_dense * 0.55, "SEC: {t_sec} vs {t_dense}");
    assert!(
        t_full < t_sec * 0.95,
        "SIC adds on top: {t_full} vs {t_sec}"
    );
}

#[test]
fn utilization_stays_high_under_concentration() {
    // Paper §VIII-B: average utilisation 92.2 % despite variable tile
    // lengths.
    let workload = wl(ModelKind::LlavaVideo7B, DatasetKind::VideoMme);
    let focus = FocusPipeline::paper().run(&workload, &ArchConfig::focus());
    let rep = Engine::new(ArchConfig::focus()).run(&focus.work_items);
    assert!(rep.avg_utilization > 0.80, "util {}", rep.avg_utilization);
    assert!(rep.avg_utilization < 1.0);
}

#[test]
fn image_workloads_run_the_full_stack_too() {
    // §VIII-A generalisation: a one-frame (or few-crop) workload must
    // flow through SEC + SIC without panicking and still concentrate.
    let workload = wl(ModelKind::LlavaOneVision7B, DatasetKind::Vqav2);
    let r = FocusPipeline::paper().run(&workload, &ArchConfig::focus());
    assert!(r.sparsity() > 0.5, "{}", r.sparsity());
    let workload = wl(ModelKind::MiniCpmV26, DatasetKind::Mme);
    let r = FocusPipeline::paper().run(&workload, &ArchConfig::focus());
    assert!(r.sparsity() > 0.3, "{}", r.sparsity());
}

#[test]
fn worst_case_no_similarity_still_correct() {
    // §VIII-B worst case: a cut-every-frame, high-noise profile gives
    // the matcher almost nothing; the pipeline must degrade gracefully
    // to SEC-only sparsity, never exceed buffers, and keep accuracy
    // semantics.
    let workload = Workload::new(
        ModelKind::LlavaVideo7B,
        DatasetKind::Mlvu,
        WorkloadScale {
            hidden: 128,
            frames: 4,
            measured_layer_stride: 7,
        },
        1234,
    );
    let mut cfg = FocusConfig::paper();
    cfg.threshold = 1.1; // unreachable: zero matches by construction
    let r = FocusPipeline::with_config(cfg).run(&workload, &ArchConfig::focus());
    assert_eq!(r.sic_matches, 0);
    let sec_only =
        FocusPipeline::with_config(FocusConfig::sec_only()).run(&workload, &ArchConfig::focus());
    let diff = (r.sparsity() - sec_only.sparsity()).abs();
    assert!(diff < 0.02, "no-match run ≈ SEC-only ({diff})");
}
