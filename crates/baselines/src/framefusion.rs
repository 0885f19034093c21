//! FrameFusion (2024): similarity + importance token reduction for
//! video LLMs, the paper's software (GPU) baseline.
//!
//! FrameFusion merges temporally-adjacent similar tokens and then prunes
//! by importance until a configured token budget is met — the paper runs
//! it at a fixed 70 % reduction (Table II reports exactly 70.00
//! "sparsity", i.e. token sparsity, for every cell). Merging happens in
//! the first LLM layers; afterwards the reduced set flows through the
//! rest of the network. As a GPU algorithm it has no dedicated hardware:
//! its work items are only used to derive MAC/byte totals for the
//! roofline model.

use focus_sim::ArchConfig;
use focus_tensor::backend::{self, row_cosine};
use focus_tensor::BackendHandle;
use focus_vlm::accuracy::TokenOutcome;
use focus_vlm::embedding::Stage;
use focus_vlm::Workload;

use crate::common::{
    dense_macs, lower_token_trace, score_outcomes, total_macs, BaselineResult, Concentrator,
    MemoryStyle,
};

/// The FrameFusion baseline.
#[derive(Clone, Copy, Debug)]
pub struct FrameFusionBaseline {
    /// Fraction of image tokens removed (the paper fixes 0.70).
    pub reduction: f64,
    /// Layer at which the reduced set takes effect (FrameFusion merges
    /// within the first layers).
    pub effective_layer: usize,
    /// Kernel backend the activation synthesis and every cosine run
    /// on (default: the process-wide [`backend::active`]).
    pub backend: BackendHandle,
}

impl Default for FrameFusionBaseline {
    fn default() -> Self {
        FrameFusionBaseline {
            reduction: 0.70,
            effective_layer: 2,
            backend: backend::active(),
        }
    }
}

impl Concentrator for FrameFusionBaseline {
    fn name(&self) -> &'static str {
        "FrameFusion"
    }

    fn run(&self, workload: &Workload, arch: &ArchConfig) -> BaselineResult {
        let scaled = workload.scaled_model();
        let m_img = workload.image_tokens_scaled();
        let per_frame = scaled.tokens_per_frame();
        let relevance = workload.relevance();
        let mut act_syn = workload.activation_synthesizer_on(self.backend);
        let att_syn = workload.attention_synthesizer_on(self.backend);

        // Rank tokens: merge candidates are those most similar to their
        // previous-frame neighbour; importance protects the rest.
        let tokens_all: Vec<usize> = (0..m_img).collect();
        let acts = act_syn.activations(&tokens_all, 2, Stage::Embedding, scaled.hidden);
        let importance = att_syn.reference_importance(2, &tokens_all);
        let imp_max = importance.iter().cloned().fold(f32::EPSILON, f32::max) as f64;
        let mut order: Vec<(usize, f64)> = (0..m_img)
            .map(|t| {
                let sim = if t >= per_frame {
                    row_cosine(self.backend, acts.row(t), acts.row(t - per_frame)) as f64
                } else {
                    -1.0
                };
                // Merge score: high similarity and low (normalised)
                // importance first.
                (t, sim - 2.0 * importance[t] as f64 / imp_max)
            })
            .collect();
        order.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let k_remove = (self.reduction * m_img as f64).round() as usize;

        let mut fidelity = vec![1.0f64; m_img];
        for &(t, _) in order.iter().take(k_remove) {
            let fid = if t >= per_frame {
                row_cosine(self.backend, acts.row(t), acts.row(t - per_frame)).clamp(0.0, 1.0)
                    as f64
            } else {
                0.0
            };
            // Pre-merge layers run dense; afterwards the merged proxy
            // carries `fid` of the token's signal.
            let pre = self.effective_layer as f64 / scaled.layers as f64;
            fidelity[t] = pre + (1.0 - pre) * fid * 0.6;
        }

        let outcomes: Vec<TokenOutcome> = (0..m_img)
            .map(|t| TokenOutcome {
                relevance: relevance[t],
                fidelity: fidelity[t],
            })
            .collect();
        let (accuracy, dense_accuracy) = score_outcomes(workload, &outcomes);

        let kept_ratio = 1.0 - self.reduction;
        let token_ratio: Vec<f64> = (0..scaled.layers)
            .map(|l| {
                if l < self.effective_layer {
                    1.0
                } else {
                    kept_ratio
                }
            })
            .collect();
        let items = lower_token_trace(workload, arch, &token_ratio, MemoryStyle::Compact, 0);
        let macs = total_macs(&items, arch.pe_rows);
        BaselineResult {
            name: self.name(),
            macs,
            dense_macs: dense_macs(workload),
            work_items: items,
            outcomes,
            accuracy,
            dense_accuracy,
            token_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_vlm::{DatasetKind, ModelKind, WorkloadScale};

    fn workload() -> Workload {
        Workload::new(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            9,
        )
    }

    #[test]
    fn seventy_percent_token_reduction_exceeds_70_compute_sparsity() {
        // Attention scales quadratically, so compute sparsity lands at
        // or above the 70 % token sparsity the paper reports.
        let r = FrameFusionBaseline::default().run(&workload(), &ArchConfig::vanilla());
        let s = r.sparsity();
        assert!((0.63..0.80).contains(&s), "sparsity {s}");
        assert_eq!(r.token_ratio[0], 1.0);
        assert!((r.token_ratio[27] - 0.3).abs() < 1e-9);
    }

    #[test]
    fn importance_protects_relevant_tokens() {
        let wl = workload();
        let r = FrameFusionBaseline::default().run(&wl, &ArchConfig::vanilla());
        // Mean fidelity of high-relevance tokens must exceed that of
        // low-relevance tokens.
        let mut hi = (0.0, 0);
        let mut lo = (0.0, 0);
        for o in &r.outcomes {
            if o.relevance >= 0.9 {
                hi = (hi.0 + o.fidelity, hi.1 + 1);
            } else if o.relevance < 0.1 {
                lo = (lo.0 + o.fidelity, lo.1 + 1);
            }
        }
        assert!(hi.1 > 0 && lo.1 > 0);
        assert!(hi.0 / hi.1 as f64 > lo.0 / lo.1 as f64);
    }

    #[test]
    fn accuracy_sits_between_dense_and_catastrophic() {
        let r = FrameFusionBaseline::default().run(&workload(), &ArchConfig::vanilla());
        let drop = r.dense_accuracy - r.accuracy;
        assert!(drop > 0.3 && drop < 9.0, "drop {drop}");
    }
}
