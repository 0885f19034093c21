//! Dataset profiles: the benchmark-specific statistics the synthetic
//! workload generator is driven by.
//!
//! The paper evaluates on three video benchmarks (VideoMME, MLVU,
//! MVBench) and three image benchmarks (VQAv2, MME, MMBench). The
//! reproduction cannot ship those datasets, so each benchmark is
//! described by a [`DatasetProfile`]: how many frames a sample carries,
//! how long the text prompt is, the dense-model accuracy the paper
//! reports (our proxy accuracy is anchored to it), and a
//! [`RedundancyProfile`] describing the *visual statistics* that drive
//! every concentration method — background stability, object motion,
//! scene cuts and sub-token noise. The redundancy numbers are calibrated
//! so the measured sparsity of each method lands in the paper's band
//! (`table2_accuracy_sparsity` prints paper and measured side by side).

use crate::config::ModelKind;

/// Identifies one of the evaluated benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Video-MME: long, diverse videos with expert-labelled QA.
    VideoMme,
    /// MLVU: multi-task long video understanding.
    Mlvu,
    /// MVBench: short clips with temporal reasoning questions.
    MvBench,
    /// VQAv2: single-image visual question answering.
    Vqav2,
    /// MME: single-image perception/cognition score (0–2000 scale).
    Mme,
    /// MMBench: single-image multiple-choice benchmark.
    MmBench,
}

impl DatasetKind {
    /// The video benchmarks of Table II.
    pub const VIDEO: [DatasetKind; 3] = [
        DatasetKind::VideoMme,
        DatasetKind::Mlvu,
        DatasetKind::MvBench,
    ];

    /// The image benchmarks of Table V.
    pub const IMAGE: [DatasetKind; 3] =
        [DatasetKind::Vqav2, DatasetKind::Mme, DatasetKind::MmBench];

    /// Short name used in table output.
    pub fn short_name(self) -> &'static str {
        match self {
            DatasetKind::VideoMme => "VMME",
            DatasetKind::Mlvu => "MLVU",
            DatasetKind::MvBench => "MVB",
            DatasetKind::Vqav2 => "VQAv2",
            DatasetKind::Mme => "MME",
            DatasetKind::MmBench => "MMBench",
        }
    }

    /// Returns `true` for the video benchmarks.
    pub fn is_video(self) -> bool {
        matches!(
            self,
            DatasetKind::VideoMme | DatasetKind::Mlvu | DatasetKind::MvBench
        )
    }
}

impl core::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Visual statistics of a benchmark's content, as seen by the token
/// stream. These are the knobs of the scene/embedding synthesiser.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RedundancyProfile {
    /// Probability that an 8-element embedding group of a token is
    /// "stable": bit-identical across frames for unchanged content.
    /// Drives the Fig. 2(b) CDF: at granularity 8 the >0.9-similarity
    /// fraction approaches this value for static content.
    pub stable_fraction: f64,
    /// Relative noise magnitude on unstable groups (σ as a fraction of
    /// the group norm). Larger values push full-token similarity down.
    pub noise_sigma: f64,
    /// Mean object drift in patch units per frame. Above ~1 the 2×2×2
    /// block window can no longer catch the shifted twin.
    pub motion_speed: f64,
    /// Probability of a hard scene cut between consecutive frames
    /// (resets all temporal similarity).
    pub scene_cut_prob: f64,
    /// Number of foreground objects in the scene.
    pub object_count: usize,
    /// Object radius in patch units.
    pub object_radius: f64,
    /// Spatial appearance variation of the background: 0 = flat colour
    /// (neighbouring patches identical), 1 = fully textured.
    pub bg_texture_var: f64,
    /// How concentrated prompt relevance is: fraction of the scene that
    /// actually matters for the answer. Small values let semantic
    /// pruning go deep without accuracy loss.
    pub relevance_concentration: f64,
}

/// Everything the workload generator needs to know about one
/// (benchmark) column of the paper's tables.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetProfile {
    /// Which benchmark this profile describes.
    pub kind: DatasetKind,
    /// Frames per sample at paper scale (32 for video models' samplers,
    /// 16 for MVBench's short clips, 1 for images).
    pub frames: usize,
    /// Text prompt length in tokens (VideoMME averages 109 in the
    /// paper; the others are shorter).
    pub text_tokens: usize,
    /// Visual statistics.
    pub redundancy: RedundancyProfile,
}

impl DatasetProfile {
    /// The profile of `kind` as experienced by `model` (models sample
    /// different frame counts and resolutions, so redundancy is a
    /// property of the pair).
    pub fn for_model(kind: DatasetKind, model: ModelKind) -> Self {
        let frames = match kind {
            DatasetKind::VideoMme | DatasetKind::Mlvu => 32,
            DatasetKind::MvBench => 16,
            // Image benchmarks: the view count depends on the model's
            // tokeniser. LLaVA-OneVision's anyres scheme emits a base
            // view plus 3×3 crops (~10 × 196 tokens) whose contents
            // overlap heavily — modelled as pseudo-frames of the same
            // static scene, which is structurally what overlapping
            // crops are. Qwen2.5-VL's native-resolution ViT emits ~4
            // merged tiles; MiniCPM slices to a single 64-token view.
            _ => match model {
                ModelKind::LlavaOneVision7B => 10,
                ModelKind::Qwen25Vl7B => 4,
                _ => 1,
            },
        };
        let text_tokens = match kind {
            DatasetKind::VideoMme => 109,
            DatasetKind::Mlvu => 72,
            DatasetKind::MvBench => 64,
            DatasetKind::Vqav2 => 24,
            DatasetKind::Mme => 32,
            DatasetKind::MmBench => 48,
        };
        let redundancy = redundancy_profile(kind, model);
        DatasetProfile {
            kind,
            frames,
            text_tokens,
            redundancy,
        }
    }

    /// The dense (uncompressed) model score the paper reports, used to
    /// anchor the proxy accuracy model. Table II for video, Table V for
    /// image benchmarks. MME is a 0–2000 score; everything else is
    /// percentage accuracy.
    pub fn base_accuracy(&self, model: ModelKind) -> f64 {
        use DatasetKind::*;
        use ModelKind::*;
        match (model, self.kind) {
            (LlavaVideo7B, VideoMme) => 64.15,
            (LlavaVideo7B, Mlvu) => 67.74,
            (LlavaVideo7B, MvBench) => 60.33,
            (LlavaOneVision7B, VideoMme) => 58.41,
            (LlavaOneVision7B, Mlvu) => 63.32,
            (LlavaOneVision7B, MvBench) => 58.38,
            (MiniCpmV26, VideoMme) => 58.81,
            (MiniCpmV26, Mlvu) => 55.89,
            (MiniCpmV26, MvBench) => 55.63,
            (LlavaOneVision7B, Vqav2) => 84.32,
            (LlavaOneVision7B, Mme) => 1067.27,
            (LlavaOneVision7B, MmBench) => 84.99,
            (Qwen25Vl7B, Vqav2) => 84.48,
            (Qwen25Vl7B, Mme) => 1337.66,
            (Qwen25Vl7B, MmBench) => 85.69,
            // Pairs the paper does not evaluate default to a mid-band
            // score so exploratory use still works.
            _ => 60.0,
        }
    }

    /// The metric scale: accuracy penalties are expressed as a fraction
    /// of this (1 point of accuracy ≙ 1/100; 1 point of MME ≙ 1/2000 ×
    /// the model's own base, handled by using the base itself).
    pub fn metric_scale(&self) -> f64 {
        match self.kind {
            DatasetKind::Mme => 20.0, // MME points per "percent"
            _ => 1.0,
        }
    }
}

/// Calibration table: visual statistics per (benchmark, model) pair.
///
/// The *shape* rationale, from the paper:
/// * VideoMME videos are long and often static-camera → highest temporal
///   redundancy → Focus reaches its highest sparsity (~82–83 %).
/// * MLVU long-video tasks move more and cut scenes → lowest Focus
///   sparsity (~78 %) and the worst CMC behaviour (codec mismatches).
/// * MVBench short clips are motion-heavy (temporal reasoning) but
///   low-resolution → intermediate.
/// * MiniCPM's 64-token frames average larger image regions per token,
///   lowering fine-grained similarity slightly.
/// * Image benchmarks have no temporal axis: redundancy is spatial only
///   and relevance is concentrated (VQA asks about one region).
fn redundancy_profile(kind: DatasetKind, model: ModelKind) -> RedundancyProfile {
    use DatasetKind::*;
    // Benchmark baseline.
    let mut p = match kind {
        VideoMme => RedundancyProfile {
            stable_fraction: 0.86,
            noise_sigma: 1.30,
            motion_speed: 0.45,
            scene_cut_prob: 0.05,
            object_count: 3,
            object_radius: 2.6,
            bg_texture_var: 0.55,
            relevance_concentration: 0.12,
        },
        Mlvu => RedundancyProfile {
            stable_fraction: 0.73,
            noise_sigma: 1.45,
            motion_speed: 0.65,
            scene_cut_prob: 0.12,
            object_count: 4,
            object_radius: 2.4,
            bg_texture_var: 0.65,
            relevance_concentration: 0.16,
        },
        MvBench => RedundancyProfile {
            stable_fraction: 0.72,
            noise_sigma: 1.35,
            motion_speed: 0.85,
            scene_cut_prob: 0.04,
            object_count: 3,
            object_radius: 2.2,
            bg_texture_var: 0.60,
            relevance_concentration: 0.15,
        },
        Vqav2 | Mme | MmBench => RedundancyProfile {
            stable_fraction: 0.74,
            noise_sigma: 1.30,
            motion_speed: 0.0,
            scene_cut_prob: 0.0,
            object_count: 3,
            object_radius: 2.8,
            bg_texture_var: 0.45,
            relevance_concentration: 0.10,
        },
    };
    // Model adjustments.
    match model {
        ModelKind::MiniCpmV26 => {
            // 8×8 grids: objects shrink in token units, but each token
            // averages a larger image region, which *stabilises* its
            // features — Table II shows MiniCPM sparsity on par with
            // LLaVA-Video.
            p.stable_fraction += 0.02;
            p.object_radius *= 0.6;
            if kind == DatasetKind::VideoMme {
                // MiniCPM's VideoMME cell matches LLaVA-Video's ~83 %
                // despite its compact frames (Table II).
                p.stable_fraction += 0.045;
            }
            if kind == DatasetKind::MvBench {
                // MiniCPM's low-token MVBench samples are its least
                // redundant cell in Table II (75.99 %).
                p.stable_fraction -= 0.07;
            }
        }
        ModelKind::LlavaOneVision7B if kind == DatasetKind::MvBench => {
            // OneVision's MVBench cell is the paper's sparsest
            // (85.49 %): short clips + OneVision's frame sampler
            // yield near-static token streams.
            p.stable_fraction += 0.135;
        }
        ModelKind::Qwen25Vl7B => {
            // Window-attention ViT yields less redundant embeddings
            // (the paper measures markedly lower speedups on Qwen).
            p.stable_fraction -= 0.22;
            p.bg_texture_var += 0.25;
            p.relevance_concentration += 0.25;
        }
        _ => {}
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_profiles_have_motion_and_frames() {
        for kind in DatasetKind::VIDEO {
            let p = DatasetProfile::for_model(kind, ModelKind::LlavaVideo7B);
            assert!(kind.is_video());
            assert!(p.frames > 1);
            assert!(p.redundancy.motion_speed > 0.0);
        }
    }

    #[test]
    fn image_profiles_are_static_with_model_specific_views() {
        for kind in DatasetKind::IMAGE {
            let p = DatasetProfile::for_model(kind, ModelKind::Qwen25Vl7B);
            assert!(!kind.is_video());
            assert_eq!(p.frames, 4, "Qwen native-res tiles");
            assert_eq!(p.redundancy.motion_speed, 0.0);
            assert_eq!(p.redundancy.scene_cut_prob, 0.0);
            let ov = DatasetProfile::for_model(kind, ModelKind::LlavaOneVision7B);
            assert_eq!(ov.frames, 10, "OneVision anyres crops");
            let cpm = DatasetProfile::for_model(kind, ModelKind::MiniCpmV26);
            assert_eq!(cpm.frames, 1, "MiniCPM single view");
        }
    }

    #[test]
    fn base_accuracy_matches_paper_table2() {
        let p = DatasetProfile::for_model(DatasetKind::VideoMme, ModelKind::LlavaVideo7B);
        assert_eq!(p.base_accuracy(ModelKind::LlavaVideo7B), 64.15);
        let p = DatasetProfile::for_model(DatasetKind::Mlvu, ModelKind::MiniCpmV26);
        assert_eq!(p.base_accuracy(ModelKind::MiniCpmV26), 55.89);
    }

    #[test]
    fn mme_uses_score_scale() {
        let p = DatasetProfile::for_model(DatasetKind::Mme, ModelKind::Qwen25Vl7B);
        assert!(p.base_accuracy(ModelKind::Qwen25Vl7B) > 1000.0);
        assert_eq!(p.metric_scale(), 20.0);
    }

    #[test]
    fn videomme_is_most_redundant_video_benchmark() {
        let vm = DatasetProfile::for_model(DatasetKind::VideoMme, ModelKind::LlavaVideo7B);
        let ml = DatasetProfile::for_model(DatasetKind::Mlvu, ModelKind::LlavaVideo7B);
        assert!(vm.redundancy.stable_fraction > ml.redundancy.stable_fraction);
        assert!(vm.redundancy.scene_cut_prob < ml.redundancy.scene_cut_prob);
    }

    #[test]
    fn qwen_profile_is_less_redundant() {
        let ov = DatasetProfile::for_model(DatasetKind::Vqav2, ModelKind::LlavaOneVision7B);
        let qw = DatasetProfile::for_model(DatasetKind::Vqav2, ModelKind::Qwen25Vl7B);
        assert!(qw.redundancy.stable_fraction < ov.redundancy.stable_fraction);
    }

    #[test]
    fn videomme_text_length_matches_paper() {
        let p = DatasetProfile::for_model(DatasetKind::VideoMme, ModelKind::LlavaVideo7B);
        assert_eq!(p.text_tokens, 109);
    }
}
