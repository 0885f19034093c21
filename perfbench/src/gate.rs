//! The correctness gate: a fixed sample of each run's items is re-run
//! under the reference schedule, outside the timed window, and compared
//! bit for bit with what the measured system returned.
//!
//! Fields are compared through their `Debug` text. Rust prints floats
//! in the shortest form that parses back to the same bits, so two
//! values print alike exactly when they are bit-identical (NaN payloads
//! aside, which no result holds).

use focus_core::pipeline::PipelineResult;
use focus_sim::SimReport;

/// Runs taken into the gate: every `GATE_STRIDE`-th item of a run,
/// starting with the first.
pub const GATE_STRIDE: usize = 32;

/// Whether item `index` of a run is in the gate sample.
pub fn sampled(index: usize) -> bool {
    index.is_multiple_of(GATE_STRIDE)
}

/// The first field in which `got` differs from `reference`, if any.
pub fn result_mismatch(got: &PipelineResult, reference: &PipelineResult) -> Option<&'static str> {
    macro_rules! fields {
        ($($field:ident),* $(,)?) => {
            $(
                if format!("{:?}", got.$field) != format!("{:?}", reference.$field) {
                    return Some(stringify!($field));
                }
            )*
        };
    }
    // Every field of `PipelineResult`, so a new field fails to compile
    // here until it is compared.
    let PipelineResult {
        layers: _,
        sec_layers: _,
        work_items: _,
        focus_macs: _,
        dense_macs: _,
        outcomes: _,
        accuracy: _,
        dense_accuracy: _,
        activation_read_bytes: _,
        activation_write_bytes: _,
        weight_bytes: _,
        sic_comparisons: _,
        sic_matches: _,
        prefetch_discards: _,
    } = got;
    fields!(
        layers,
        sec_layers,
        work_items,
        focus_macs,
        dense_macs,
        outcomes,
        accuracy,
        dense_accuracy,
        activation_read_bytes,
        activation_write_bytes,
        weight_bytes,
        sic_comparisons,
        sic_matches,
        prefetch_discards,
    );
    None
}

/// Whether two cycle reports are bit-identical.
pub fn report_matches(got: &SimReport, reference: &SimReport) -> bool {
    format!("{got:?}") == format!("{reference:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_core::exec::ExecMode;
    use focus_core::pipeline::FocusPipeline;
    use focus_sim::{ArchConfig, Engine};
    use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};

    fn tiny() -> (PipelineResult, Workload) {
        let wl = Workload::new(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            3,
        );
        let result = FocusPipeline::paper()
            .with_exec_mode(ExecMode::Serial)
            .run(&wl, &ArchConfig::focus());
        (result, wl)
    }

    #[test]
    fn identical_results_pass_and_a_flipped_bit_is_named() {
        let (result, _) = tiny();
        assert_eq!(result_mismatch(&result, &result.clone()), None);
        let mut bent = result.clone();
        bent.accuracy = f64::from_bits(bent.accuracy.to_bits() ^ 1);
        assert_eq!(result_mismatch(&bent, &result), Some("accuracy"));
        let mut bent = result.clone();
        bent.layers[3].stage_ratio[1] = f64::from_bits(bent.layers[3].stage_ratio[1].to_bits() ^ 1);
        assert_eq!(result_mismatch(&bent, &result), Some("layers"));
        let mut bent = result.clone();
        bent.sic_matches += 1;
        assert_eq!(result_mismatch(&bent, &result), Some("sic_matches"));
    }

    #[test]
    fn reports_compare_bit_exactly() {
        let (result, _) = tiny();
        let engine = Engine::new(ArchConfig::focus());
        let a = engine.run(&result.work_items);
        let b = Engine::new(ArchConfig::focus()).run(&result.work_items);
        assert!(report_matches(&a, &b));
        let mut c = b.clone();
        c.cycles += 1;
        assert!(!report_matches(&a, &c));
    }

    #[test]
    fn sample_is_every_stride_th_item() {
        let picked: Vec<usize> = (0..100).filter(|&i| sampled(i)).collect();
        assert_eq!(picked, vec![0, 32, 64, 96]);
    }
}
