//! CMC (ASPLOS'24): codec-assisted matrix condensing, extended to VLMs
//! as in the paper's baseline section.
//!
//! CMC offloads redundancy detection to a video-codec block: tokens of
//! frame `f` are motion-searched against frame `f−1` **in pixel space**,
//! and matched tokens are dropped from the matrix (the codec keeps the
//! reference). Two structural properties drive its Table II behaviour:
//!
//! * the decision signal is *pixel* similarity, not *embedding*
//!   similarity — a token whose pixels barely changed can still carry a
//!   diverged embedding (lighting, context mixing), so removal fidelity
//!   is mediocre and collapses on cut-heavy content (the MiniCPM/MLVU
//!   outlier);
//! * condensing runs off-chip after the full uncompressed output is
//!   staged in DRAM (Fig. 3(a)), so at 46 % sparsity it still moves
//!   ~79 % of the dense traffic.

use focus_sim::ArchConfig;
use focus_tensor::backend::{self, row_cosine};
use focus_tensor::BackendHandle;
use focus_vlm::accuracy::TokenOutcome;
use focus_vlm::embedding::Stage;
use focus_vlm::scene::hash_words;
use focus_vlm::Workload;

use crate::common::{
    dense_macs, lower_token_trace, score_outcomes, total_macs, BaselineResult, Concentrator,
    MemoryStyle,
};

/// The CMC baseline.
#[derive(Clone, Copy, Debug)]
pub struct CmcBaseline {
    /// Probability that the codec certifies a *static-content* token as
    /// a skip block (pixel-space match). Static background almost
    /// always matches; residual-coded motion matches less often.
    pub static_match_rate: f64,
    /// Match probability for moving-object tokens (motion search finds
    /// the displaced block but the residual often exceeds the skip
    /// threshold).
    pub motion_match_rate: f64,
    /// Codec scan throughput in bytes per cycle (hardware H.264-class
    /// encoders process a few pixels per cycle).
    pub codec_bytes_per_cycle: u64,
    /// Base probability that a certified match is *spurious* — the
    /// motion search locked onto the wrong block. Grows with motion,
    /// scene cuts and token coarseness (computed per workload); the
    /// mechanism behind CMC's Table II collapse on MiniCPM/MLVU.
    pub base_mismatch_rate: f64,
    /// Kernel backend the activation synthesis and every cosine run
    /// on (default: the process-wide [`backend::active`]).
    pub backend: BackendHandle,
}

impl Default for CmcBaseline {
    fn default() -> Self {
        CmcBaseline {
            static_match_rate: 0.78,
            motion_match_rate: 0.38,
            // A hardware encoder pipeline sustains a few bytes per
            // cycle through motion estimation; the codec cannot start
            // until the full output is staged — the serialisation the
            // paper's §VII-C attributes CMC's modest speedup to.
            codec_bytes_per_cycle: 4,
            base_mismatch_rate: 0.06,
            backend: backend::active(),
        }
    }
}

impl Concentrator for CmcBaseline {
    fn name(&self) -> &'static str {
        "CMC"
    }

    fn run(&self, workload: &Workload, arch: &ArchConfig) -> BaselineResult {
        let scaled = workload.scaled_model();
        let m_img = workload.image_tokens_scaled();
        let per_frame = scaled.tokens_per_frame();
        let scene = workload.scene();
        let relevance = workload.relevance();
        let mut act_syn = workload.activation_synthesizer_on(self.backend);
        let seed = hash_words(workload.seed(), &[0xC3C]);
        // Spurious-match probability: pixel-space block matching fails
        // more often with fast motion, frequent cuts, and coarse token
        // grids (MiniCPM's 64-token frames make each token a large
        // macroblock the search cannot localise).
        let red = workload.profile().redundancy;
        let coarse = if per_frame <= 64 { 0.30 } else { 0.0 };
        let mismatch_rate =
            (self.base_mismatch_rate + 0.18 * red.motion_speed + 1.4 * red.scene_cut_prob + coarse)
                .clamp(0.0, 0.75);

        // Codec decision: per token of frame ≥ 1, match against the
        // same-position token of the previous frame (plus motion
        // search for objects).
        let mut removed = vec![false; m_img];
        let mut fidelity = vec![1.0f64; m_img];
        // Embedding fidelity of removed tokens is measured on real
        // synthesised activations at a representative mid layer.
        let tokens_all: Vec<usize> = (0..m_img).collect();
        let acts = act_syn.activations(&tokens_all, 12, Stage::FfnDownOut, scaled.hidden);
        for t in per_frame..m_img {
            let patch = scene.patch_by_index(t);
            let prev = t - per_frame;
            let frame = t / per_frame;
            // A scene cut invalidates the reference frame.
            if scene.epoch_of_frame(frame) != scene.epoch_of_frame(frame - 1) {
                continue;
            }
            let same_content = scene.patch_by_index(prev).primary == patch.primary;
            let p_match = if patch.object.is_none() && same_content {
                self.static_match_rate
            } else {
                self.motion_match_rate
            };
            let u = (hash_words(seed, &[t as u64]) >> 11) as f64 / (1u64 << 53) as f64;
            if u < p_match {
                removed[t] = true;
                let u2 = (hash_words(seed, &[0x3B5, t as u64]) >> 11) as f64 / (1u64 << 53) as f64;
                if u2 < mismatch_rate {
                    // Spurious motion vector: the reference carries
                    // unrelated content — active misinformation, worse
                    // than deleting the token.
                    fidelity[t] = -0.6;
                } else {
                    // The model sees the reference token instead; the
                    // information kept is their *embedding* similarity —
                    // which the pixel-space codec never checked — and it
                    // compounds over the layers the token is absent
                    // (cos^1.8 ≈ per-layer drift accumulated).
                    let cos = row_cosine(self.backend, acts.row(t), acts.row(prev));
                    // focus-lint: allow(D1-libm) — the paper's CMC fidelity model, an f64
                    // accuracy-reporting path; baselines are never bit-compared to Focus.
                    fidelity[t] = (cos.max(0.0) as f64).powf(1.8);
                }
            }
        }

        let kept = removed.iter().filter(|&&r| !r).count();
        let ratio = kept as f64 / m_img as f64;
        let layers = scaled.layers;
        let token_ratio = vec![ratio; layers];

        let outcomes: Vec<TokenOutcome> = (0..m_img)
            .map(|t| TokenOutcome {
                relevance: relevance[t],
                fidelity: fidelity[t],
            })
            .collect();
        let (accuracy, dense_accuracy) = score_outcomes(workload, &outcomes);

        // Codec block: ~16 search ops per token row per condensed layer.
        let items = lower_token_trace(
            workload,
            arch,
            &token_ratio,
            MemoryStyle::StageThenCondense {
                codec_bytes_per_cycle: self.codec_bytes_per_cycle,
            },
            16,
        );
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

    fn workload(dataset: DatasetKind) -> Workload {
        // Enough frames that scene-cut probabilities are actually
        // sampled (tiny() has only 3 frame boundaries).
        let scale = WorkloadScale {
            hidden: 128,
            frames: 16,
            measured_layer_stride: 7,
        };
        Workload::new(ModelKind::LlavaVideo7B, dataset, scale, 5)
    }

    #[test]
    fn cmc_lands_in_its_sparsity_band() {
        let r = CmcBaseline::default().run(&workload(DatasetKind::VideoMme), &ArchConfig::cmc());
        let s = r.sparsity();
        assert!((0.3..0.7).contains(&s), "sparsity {s}");
    }

    #[test]
    fn traffic_reduction_lags_sparsity() {
        // The paper's §VII-F point: CMC's DRAM traffic stays near dense
        // even at ~50 % sparsity.
        let wl = workload(DatasetKind::VideoMme);
        let cmc = CmcBaseline::default().run(&wl, &ArchConfig::cmc());
        let dense = crate::dense::DenseBaseline.run(&wl, &ArchConfig::vanilla());
        let traffic_ratio = cmc.dram_bytes() as f64 / dense.dram_bytes() as f64;
        // Staging must cost visibly more than ideal compact pruning at
        // the same sparsity would (1 − s).
        assert!(
            traffic_ratio > (1.0 - cmc.sparsity()) + 0.04,
            "traffic ratio {traffic_ratio} vs sparsity {}",
            cmc.sparsity()
        );
    }

    #[test]
    fn accuracy_degrades_more_on_cut_heavy_content() {
        // MLVU's scene cuts + motion give CMC fewer matches and worse
        // fidelity per match — its Table II weak spot.
        let vm = CmcBaseline::default().run(&workload(DatasetKind::VideoMme), &ArchConfig::cmc());
        let ml = CmcBaseline::default().run(&workload(DatasetKind::Mlvu), &ArchConfig::cmc());
        assert!(ml.sparsity() < vm.sparsity());
    }

    #[test]
    fn first_frame_is_never_removed() {
        let wl = workload(DatasetKind::VideoMme);
        let r = CmcBaseline::default().run(&wl, &ArchConfig::cmc());
        let per_frame = wl.scaled_model().tokens_per_frame();
        for t in 0..per_frame {
            assert!((r.outcomes[t].fidelity - 1.0).abs() < 1e-12, "token {t}");
        }
    }

    #[test]
    fn single_view_image_workloads_get_no_temporal_matches() {
        // MiniCPM tokenises an image into one 64-token view, so the
        // codec has no reference frame at all. (LLaVA-OV's anyres crops
        // are pseudo-frames and *do* match — see Table V.)
        let wl = Workload::new(
            ModelKind::MiniCpmV26,
            DatasetKind::Vqav2,
            WorkloadScale::tiny(),
            5,
        );
        let r = CmcBaseline::default().run(&wl, &ArchConfig::cmc());
        assert!(r.sparsity().abs() < 0.05, "single view → ~no codec gain");
    }
}
