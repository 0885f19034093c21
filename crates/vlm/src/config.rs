//! Model configurations for the VLMs evaluated in the paper.
//!
//! All three video models (LLaVA-Video-7B, LLaVA-OneVision-7B,
//! MiniCPM-V 2.6) and Qwen2.5-VL-7B share a Qwen2-7B language backbone:
//! hidden size 3584, 28 layers, 28 query heads of dimension 128 with
//! 4-way grouped-query KV heads, and an 18944-wide SiLU-gated FFN. They
//! differ in how the vision tower tokenises a frame, which sets the
//! image-token count `M` the concentrator operates on.
//!
//! The reproduction cannot run 7 B-parameter models, so [`ModelConfig`]
//! carries both the **paper-scale** dimensions (used analytically by the
//! cycle model) and a [`WorkloadScale`] that shrinks the *measured* part
//! of the pipeline (activation synthesis + concentration) while keeping
//! every ratio that drives sparsity — tokens per frame, schedule
//! fractions, vector length, tile geometry — identical.

/// Identifies one of the evaluated VLMs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// LLaVA-Video-7B-Qwen2 (`lmms-lab/LLaVA-Video-7B-Qwen2`).
    LlavaVideo7B,
    /// LLaVA-OneVision-Qwen2-7B (`lmms-lab/llava-onevision-qwen2-7b-ov`).
    LlavaOneVision7B,
    /// MiniCPM-V 2.6 (`openbmb/MiniCPM-V-2_6`).
    MiniCpmV26,
    /// Qwen2.5-VL-7B-Instruct (`Qwen/Qwen2.5-VL-7B-Instruct`).
    Qwen25Vl7B,
}

impl ModelKind {
    /// The three video-capable models of Table II.
    pub const VIDEO_MODELS: [ModelKind; 3] = [
        ModelKind::LlavaVideo7B,
        ModelKind::LlavaOneVision7B,
        ModelKind::MiniCpmV26,
    ];

    /// The two image models of Table V.
    pub const IMAGE_MODELS: [ModelKind; 2] = [ModelKind::LlavaOneVision7B, ModelKind::Qwen25Vl7B];

    /// Human-readable short name used in table output.
    pub fn short_name(self) -> &'static str {
        match self {
            ModelKind::LlavaVideo7B => "Llava-Vid",
            ModelKind::LlavaOneVision7B => "Llava-OV",
            ModelKind::MiniCpmV26 => "MiniCPM",
            ModelKind::Qwen25Vl7B => "Qwen2.5-VL",
        }
    }
}

impl core::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Transformer and vision-tower dimensions of a VLM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelConfig {
    /// Which model this is.
    pub kind: ModelKind,
    /// LLM hidden size (3584 for the Qwen2-7B backbone).
    pub hidden: usize,
    /// Number of transformer layers.
    pub layers: usize,
    /// Number of query heads.
    pub heads: usize,
    /// Per-head dimension (`hidden / heads`).
    pub head_dim: usize,
    /// Number of KV heads (grouped-query attention).
    pub kv_heads: usize,
    /// FFN intermediate size.
    pub ffn_hidden: usize,
    /// Image-token grid height per frame (after the projector's pooling).
    pub grid_h: usize,
    /// Image-token grid width per frame.
    pub grid_w: usize,
}

impl ModelConfig {
    /// Paper-scale configuration for `kind`.
    pub fn paper(kind: ModelKind) -> Self {
        // Qwen2-7B backbone shared by all four models.
        let base = ModelConfig {
            kind,
            hidden: 3584,
            layers: 28,
            heads: 28,
            head_dim: 128,
            kv_heads: 4,
            ffn_hidden: 18944,
            grid_h: 14,
            grid_w: 14,
        };
        match kind {
            // LLaVA-Video / OneVision pool SigLIP patches to 14×14 = 196
            // tokens per frame; 32 sampled frames × 196 = 6272 tokens,
            // matching the paper's VideoMME average.
            ModelKind::LlavaVideo7B | ModelKind::LlavaOneVision7B => base,
            // MiniCPM-V 2.6 compresses each frame/slice to 64 tokens.
            ModelKind::MiniCpmV26 => ModelConfig {
                grid_h: 8,
                grid_w: 8,
                ..base
            },
            // Qwen2.5-VL uses native-resolution ViT with 2×2 merging;
            // a 448×448 image yields a 16×16 token grid.
            ModelKind::Qwen25Vl7B => ModelConfig {
                grid_h: 16,
                grid_w: 16,
                ..base
            },
        }
    }

    /// Image tokens produced per frame.
    pub fn tokens_per_frame(&self) -> usize {
        self.grid_h * self.grid_w
    }

    /// Combined QKV projection output width (`q + 2·kv`).
    pub fn qkv_out(&self) -> usize {
        self.heads * self.head_dim + 2 * self.kv_heads * self.head_dim
    }

    /// Applies a [`WorkloadScale`], producing the configuration the
    /// measured pipeline runs at.
    pub fn scaled(&self, scale: &WorkloadScale) -> ModelConfig {
        let hidden = scale.hidden.min(self.hidden);
        let heads = (self.heads * hidden / self.hidden).max(1);
        // Keep widths 32-aligned: the similarity concentrator's vector
        // length and the embedding group size both divide 32.
        let ffn = ((self.ffn_hidden * hidden / self.hidden).max(hidden) / 32).max(1) * 32;
        ModelConfig {
            kind: self.kind,
            hidden,
            layers: self.layers,
            heads,
            head_dim: hidden / heads,
            kv_heads: self.kv_heads.min(heads),
            ffn_hidden: ffn,
            grid_h: self.grid_h,
            grid_w: self.grid_w,
        }
    }
}

/// Downscaling knobs for the measured part of the pipeline.
///
/// Sparsity is a *ratio* driven by the redundancy profile and the
/// concentrator configuration, so it survives downscaling; cycle counts
/// are computed analytically at paper scale from the measured ratios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadScale {
    /// Hidden size the synthesiser materialises (multiple of 32).
    pub hidden: usize,
    /// Video frames materialised (the paper samples 32).
    pub frames: usize,
    /// Subset of layers whose activations are actually synthesised and
    /// gathered; the remaining layers interpolate their neighbours'
    /// measured ratios. `usize::MAX` means every layer.
    pub measured_layer_stride: usize,
}

impl WorkloadScale {
    /// Full paper scale (hidden 3584, 32 frames, every layer measured).
    pub fn full() -> Self {
        WorkloadScale {
            hidden: 3584,
            frames: 32,
            measured_layer_stride: 1,
        }
    }

    /// The default evaluation scale: hidden 512 (16 vectors of 32),
    /// 8 frames, every second layer measured. Keeps every experiment
    /// under a few seconds while preserving the ratios.
    pub fn default_eval() -> Self {
        WorkloadScale {
            hidden: 512,
            frames: 8,
            measured_layer_stride: 2,
        }
    }

    /// A minimal scale for unit tests.
    pub fn tiny() -> Self {
        WorkloadScale {
            hidden: 128,
            frames: 4,
            measured_layer_stride: 7,
        }
    }
}

impl Default for WorkloadScale {
    fn default() -> Self {
        WorkloadScale::default_eval()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_qwen2_backbone() {
        for kind in ModelKind::VIDEO_MODELS {
            let cfg = ModelConfig::paper(kind);
            assert_eq!(cfg.hidden, 3584);
            assert_eq!(cfg.layers, 28);
            assert_eq!(cfg.heads * cfg.head_dim, cfg.hidden);
            assert_eq!(cfg.qkv_out(), 3584 + 2 * 4 * 128);
        }
    }

    #[test]
    fn llava_tokens_per_frame_reproduce_videomme_average() {
        // 32 frames × 196 tokens = 6272 visual tokens (paper §II-A).
        let cfg = ModelConfig::paper(ModelKind::LlavaOneVision7B);
        assert_eq!(cfg.tokens_per_frame() * 32, 6272);
    }

    #[test]
    fn minicpm_uses_compact_frames() {
        let cfg = ModelConfig::paper(ModelKind::MiniCpmV26);
        assert_eq!(cfg.tokens_per_frame(), 64);
    }

    #[test]
    fn scaling_preserves_grid_and_layer_count() {
        let full = ModelConfig::paper(ModelKind::LlavaVideo7B);
        let scaled = full.scaled(&WorkloadScale::default_eval());
        assert_eq!(scaled.layers, full.layers);
        assert_eq!(scaled.grid_h, full.grid_h);
        assert_eq!(scaled.hidden, 512);
        assert_eq!(scaled.heads * scaled.head_dim, scaled.hidden);
        assert!(scaled.ffn_hidden >= scaled.hidden);
        // FFN expansion ratio is preserved within rounding.
        let full_ratio = full.ffn_hidden as f64 / full.hidden as f64;
        let scaled_ratio = scaled.ffn_hidden as f64 / scaled.hidden as f64;
        assert!((full_ratio - scaled_ratio).abs() < 0.2);
    }

    #[test]
    fn full_scale_is_identity() {
        let full = ModelConfig::paper(ModelKind::LlavaVideo7B);
        assert_eq!(full.scaled(&WorkloadScale::full()), full);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(ModelKind::LlavaVideo7B.to_string(), "Llava-Vid");
        assert_eq!(ModelKind::Qwen25Vl7B.to_string(), "Qwen2.5-VL");
    }
}
