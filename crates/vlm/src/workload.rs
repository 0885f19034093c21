//! The top-level workload object: one (model, benchmark, prompt, seed)
//! cell of the paper's evaluation grid.
//!
//! A [`Workload`] owns the synthesised scene and exposes everything the
//! concentration pipelines consume: paper-scale and measured-scale model
//! configurations, token counts, the activation and attention
//! synthesisers, and ground-truth relevance. The *measured* pipeline
//! runs at [`WorkloadScale`] resolution; cycle/energy numbers are then
//! computed analytically at paper scale from the measured ratios.

use crate::attention::{relevance, AttentionSynthesizer, Prompt};
use crate::config::{ModelConfig, ModelKind, WorkloadScale};
use crate::dataset::{DatasetKind, DatasetProfile};
use crate::embedding::{ActivationSynthesizer, StabilityModel};
use crate::scene::{hash_words, Scene, SceneConfig, SceneStream, TokenSig};

/// One evaluation cell: a model running a benchmark sample.
#[derive(Clone, Debug)]
pub struct Workload {
    model: ModelConfig,
    scaled: ModelConfig,
    profile: DatasetProfile,
    scale: WorkloadScale,
    prompt: Prompt,
    seed: u64,
    scene: Scene,
}

impl Workload {
    /// Builds the workload for `(model, dataset)` at `scale` with a
    /// deterministic `seed`.
    pub fn new(model: ModelKind, dataset: DatasetKind, scale: WorkloadScale, seed: u64) -> Self {
        Workload::with_prompt(model, dataset, scale, seed, Prompt::default())
    }

    /// Like [`Workload::new`] but with an explicit prompt.
    pub fn with_prompt(
        model: ModelKind,
        dataset: DatasetKind,
        scale: WorkloadScale,
        seed: u64,
        prompt: Prompt,
    ) -> Self {
        Workload::build(model, dataset, scale, seed, 0, prompt)
    }

    /// Stream frame `index` of a correlated scene stream: the workload
    /// whose clip is the next window of the stream's running scene
    /// segment (see [`SceneStream`]). All frames of one segment share a
    /// seed and tile one scene timeline, so static content repeats
    /// bit-for-bit across consecutive stream frames; a cut re-seeds
    /// everything. At `correlation = 0` every frame cuts, and the
    /// result is indistinguishable from independent
    /// [`Workload::new`] calls with per-frame seeds.
    pub fn stream_frame(
        model: ModelKind,
        dataset: DatasetKind,
        scale: WorkloadScale,
        stream: SceneStream,
        index: u64,
    ) -> Self {
        let (_, offset) = stream.segment_of(index);
        let seed = stream.segment_seed(index);
        let profile = DatasetProfile::for_model(dataset, model);
        let frames = scale.frames.min(profile.frames);
        let origin = offset as usize * frames;
        Workload::build(model, dataset, scale, seed, origin, Prompt::default())
    }

    fn build(
        model: ModelKind,
        dataset: DatasetKind,
        scale: WorkloadScale,
        seed: u64,
        origin: usize,
        prompt: Prompt,
    ) -> Self {
        let model_cfg = ModelConfig::paper(model);
        let scaled = model_cfg.scaled(&scale);
        let profile = DatasetProfile::for_model(dataset, model);
        let frames = scale.frames.min(profile.frames);
        let scene = Scene::synthesize_at(
            SceneConfig {
                frames,
                grid_h: model_cfg.grid_h,
                grid_w: model_cfg.grid_w,
                redundancy: profile.redundancy,
                seed: hash_words(seed, &[model as u64 + 1, dataset as u64 + 1]),
            },
            origin,
        );
        Workload {
            model: model_cfg,
            scaled,
            profile,
            scale,
            prompt,
            seed,
            scene,
        }
    }

    /// Paper-scale model configuration (used by the cycle model).
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Measured-scale model configuration (used by the synthesisers).
    pub fn scaled_model(&self) -> &ModelConfig {
        &self.scaled
    }

    /// The benchmark profile.
    pub fn profile(&self) -> &DatasetProfile {
        &self.profile
    }

    /// The workload scale in effect.
    pub fn scale(&self) -> &WorkloadScale {
        &self.scale
    }

    /// The prompt driving semantic concentration.
    pub fn prompt(&self) -> &Prompt {
        &self.prompt
    }

    /// The synthesised scene.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Image tokens at measured scale (`frames_scaled × grid`).
    pub fn image_tokens_scaled(&self) -> usize {
        self.scene.token_count()
    }

    /// Per-image-token temporal signatures of this frame's window, plus
    /// the scene identity key they are valid under (derived from the
    /// workload seed, model and dataset — everything that feeds the
    /// activation synthesiser besides the patch content itself). Two
    /// stream frames agreeing on the key *and* a token's [`TokenSig`]
    /// synthesise identical deterministic rows for that token; see the
    /// temporal cache's signature pre-filter.
    pub fn temporal_signatures(&self) -> (u64, Vec<TokenSig>) {
        let key = self.scene.config().seed;
        let sigs = (0..self.scene.token_count())
            .map(|t| self.scene.token_signature(t))
            .collect();
        (key, sigs)
    }

    /// The group-stability law governing this workload's activation
    /// synthesis — the proof side of temporal carry. Identical to
    /// [`Workload::activation_synthesizer`]`().stability_model()`
    /// without borrowing the scene.
    pub fn stability_model(&self) -> StabilityModel {
        StabilityModel::new(
            self.profile.redundancy,
            self.model.layers,
            hash_words(self.seed, &[0xAC7]),
        )
    }

    /// Image tokens at paper scale (`frames_full × grid`).
    pub fn image_tokens_full(&self) -> usize {
        self.profile.frames * self.model.tokens_per_frame()
    }

    /// Text prompt tokens (same at both scales; text is cheap).
    pub fn text_tokens(&self) -> usize {
        self.profile.text_tokens
    }

    /// Total sequence length at paper scale.
    pub fn sequence_full(&self) -> usize {
        self.image_tokens_full() + self.text_tokens()
    }

    /// An activation synthesiser borrowing this workload's scene.
    pub fn activation_synthesizer(&self) -> ActivationSynthesizer<'_> {
        ActivationSynthesizer::new(
            &self.scene,
            self.profile.redundancy,
            self.model.layers,
            hash_words(self.seed, &[0xAC7]),
        )
    }

    /// [`Workload::activation_synthesizer`] with an explicit kernel
    /// backend instead of the process-wide default.
    pub fn activation_synthesizer_on(
        &self,
        backend: focus_tensor::BackendHandle,
    ) -> ActivationSynthesizer<'_> {
        self.activation_synthesizer().with_backend(backend)
    }

    /// An attention synthesiser borrowing this workload's scene, with
    /// the measured-scale head count.
    pub fn attention_synthesizer(&self) -> AttentionSynthesizer<'_> {
        AttentionSynthesizer::new(
            &self.scene,
            self.prompt.clone(),
            self.profile.text_tokens,
            self.scaled.heads,
            hash_words(self.seed, &[0xA77]),
        )
    }

    /// [`Workload::attention_synthesizer`] with an explicit kernel
    /// backend instead of the process-wide default.
    pub fn attention_synthesizer_on(
        &self,
        backend: focus_tensor::BackendHandle,
    ) -> AttentionSynthesizer<'_> {
        self.attention_synthesizer().with_backend(backend)
    }

    /// Ground-truth prompt relevance per image token (measured scale).
    pub fn relevance(&self) -> Vec<f64> {
        relevance(&self.scene, &self.prompt)
    }

    /// The (frame, row, col) position of a scene-global token index.
    pub fn token_position(&self, token: usize) -> (usize, usize, usize) {
        let per_frame = self.model.grid_h * self.model.grid_w;
        let f = token / per_frame;
        let rem = token % per_frame;
        (f, rem / self.model.grid_w, rem % self.model.grid_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llava_videomme_token_counts_match_paper() {
        let w = Workload::new(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::default_eval(),
            1,
        );
        assert_eq!(w.image_tokens_full(), 6272);
        assert_eq!(w.text_tokens(), 109);
        assert_eq!(w.sequence_full(), 6381);
        assert_eq!(w.image_tokens_scaled(), 8 * 196);
    }

    #[test]
    fn image_workloads_use_model_specific_view_counts() {
        // Qwen2.5-VL: 4 native-resolution tiles of 16×16 tokens.
        let w = Workload::new(
            ModelKind::Qwen25Vl7B,
            DatasetKind::Vqav2,
            WorkloadScale::default_eval(),
            1,
        );
        assert_eq!(w.scene().frames(), 4);
        assert_eq!(w.image_tokens_full(), 4 * 256);
        // MiniCPM: one 64-token view.
        let w = Workload::new(
            ModelKind::MiniCpmV26,
            DatasetKind::Vqav2,
            WorkloadScale::default_eval(),
            1,
        );
        assert_eq!(w.scene().frames(), 1);
        assert_eq!(w.image_tokens_full(), 64);
    }

    #[test]
    fn token_position_round_trips() {
        let w = Workload::new(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            3,
        );
        let per_frame = 14 * 14;
        let (f, r, c) = w.token_position(2 * per_frame + 3 * 14 + 5);
        assert_eq!((f, r, c), (2, 3, 5));
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let a = Workload::new(
            ModelKind::MiniCpmV26,
            DatasetKind::Mlvu,
            WorkloadScale::tiny(),
            5,
        );
        let b = Workload::new(
            ModelKind::MiniCpmV26,
            DatasetKind::Mlvu,
            WorkloadScale::tiny(),
            5,
        );
        assert_eq!(a.relevance(), b.relevance());
        let c = Workload::new(
            ModelKind::MiniCpmV26,
            DatasetKind::Mlvu,
            WorkloadScale::tiny(),
            6,
        );
        assert_ne!(a.relevance(), c.relevance());
    }

    #[test]
    fn stream_frames_continue_one_timeline_when_correlated() {
        let stream = SceneStream {
            seed: 77,
            correlation: 1.0,
        };
        let a = Workload::stream_frame(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            stream,
            0,
        );
        let b = Workload::stream_frame(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            stream,
            1,
        );
        assert_eq!(a.seed(), b.seed(), "one segment, one seed");
        let frames = a.scene().frames();
        assert_eq!(a.scene().origin(), 0);
        assert_eq!(b.scene().origin(), frames);
        // Frame 1's window starts where frame 0's would continue: both
        // describe the same global scene, so a static patch of the same
        // epoch shows the same content key.
        let wide = Scene::synthesize_at(
            SceneConfig {
                frames: 2 * frames,
                ..*a.scene().config()
            },
            0,
        );
        for f in 0..frames {
            for r in 0..a.model().grid_h {
                for c in 0..a.model().grid_w {
                    assert_eq!(b.scene().patch(f, r, c), wide.patch(frames + f, r, c));
                }
            }
        }
    }

    #[test]
    fn stable_tiles_of_sig_stable_tokens_replay_bitwise_across_stream_frames() {
        // The temporal carry theorem, end to end: between consecutive
        // windows of one stream segment, any token whose signature held
        // re-synthesises every model-stable column tile bit-identically
        // — the proof the temporal cache substitutes for byte compares.
        use crate::embedding::Stage;
        let stream = SceneStream {
            seed: 11,
            correlation: 1.0,
        };
        let mk = |index| {
            Workload::stream_frame(
                ModelKind::LlavaVideo7B,
                DatasetKind::VideoMme,
                WorkloadScale::tiny(),
                stream,
                index,
            )
        };
        let (a, b) = (mk(0), mk(1));
        let (key_a, sigs_a) = a.temporal_signatures();
        let (key_b, sigs_b) = b.temporal_signatures();
        assert_eq!(key_a, key_b, "one segment, one identity key");
        let model = b.stability_model();
        let mut syn_a = a.activation_synthesizer();
        let mut syn_b = b.activation_synthesizer();
        let (width, v_len) = (64, 32);
        let mut ra = vec![0.0; width];
        let mut rb = vec![0.0; width];
        let mut proved = 0;
        for (layer, stage) in [(0, Stage::PvOut), (2, Stage::FfnAct)] {
            for t in 0..a.image_tokens_scaled() {
                if sigs_a[t] != sigs_b[t] {
                    continue;
                }
                syn_a.token_row(t, layer, stage, &mut ra);
                syn_b.token_row(t, layer, stage, &mut rb);
                let tiles = model.tile_pattern(sigs_a[t].primary, layer, stage, width, v_len);
                for (ct, &stable) in tiles.iter().enumerate() {
                    if !stable {
                        continue;
                    }
                    let c0 = ct * v_len;
                    let c1 = (c0 + v_len).min(width);
                    assert!(
                        ra[c0..c1]
                            .iter()
                            .zip(&rb[c0..c1])
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "proved-stable tile moved (token {t} layer {layer} tile {ct})"
                    );
                    proved += 1;
                }
            }
        }
        assert!(proved > 20, "theorem exercised on {proved} tiles only");
    }

    #[test]
    fn int8_fake_quantize_breaks_the_carry_proof_on_a_stable_tile() {
        // The carry theorem covers synthesised bytes only. INT8
        // fake-quantisation scales each row by its absmax, which the
        // row's unstable (noisy) groups take part in, so a proved-stable
        // tile of a signature-stable token can still change bytes from
        // one frame to the next once quantised. Probe for such a tile
        // instead of naming one: INT8 sessions must not carry.
        use crate::embedding::Stage;
        use focus_tensor::{quant, Matrix};
        let stream = SceneStream {
            seed: 11,
            correlation: 1.0,
        };
        let mk = |index| {
            Workload::stream_frame(
                ModelKind::LlavaVideo7B,
                DatasetKind::VideoMme,
                WorkloadScale::tiny(),
                stream,
                index,
            )
        };
        let (a, b) = (mk(0), mk(1));
        let (_, sigs_a) = a.temporal_signatures();
        let (_, sigs_b) = b.temporal_signatures();
        let model = b.stability_model();
        let mut syn_a = a.activation_synthesizer();
        let mut syn_b = b.activation_synthesizer();
        let (width, v_len) = (64, 32);
        let (mut ra, mut rb) = (vec![0.0; width], vec![0.0; width]);
        let same = |x: &[f32], y: &[f32]| x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits());
        let mut broken = None;
        'probe: for (layer, stage) in [(0, Stage::PvOut), (2, Stage::FfnAct)] {
            for t in 0..a.image_tokens_scaled() {
                if sigs_a[t] != sigs_b[t] {
                    continue;
                }
                syn_a.token_row(t, layer, stage, &mut ra);
                syn_b.token_row(t, layer, stage, &mut rb);
                let qa = quant::fake_quantize(&Matrix::from_vec(1, width, ra.clone()));
                let qb = quant::fake_quantize(&Matrix::from_vec(1, width, rb.clone()));
                let tiles = model.tile_pattern(sigs_a[t].primary, layer, stage, width, v_len);
                for (ct, &stable) in tiles.iter().enumerate() {
                    let cols = ct * v_len..((ct + 1) * v_len).min(width);
                    if stable && !same(&qa.row(0)[cols.clone()], &qb.row(0)[cols.clone()]) {
                        assert!(same(&ra[cols.clone()], &rb[cols]), "raw bytes held");
                        broken = Some((t, layer, ct));
                        break 'probe;
                    }
                }
            }
        }
        assert!(
            broken.is_some(),
            "no proved-stable tile changed under INT8; the carry stand-aside may be lifted"
        );
    }

    #[test]
    fn uncorrelated_stream_frames_are_independent_clips() {
        let stream = SceneStream {
            seed: 77,
            correlation: 0.0,
        };
        let a = Workload::stream_frame(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            stream,
            0,
        );
        let b = Workload::stream_frame(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            stream,
            1,
        );
        assert_ne!(a.seed(), b.seed());
        assert_eq!(a.scene().origin(), 0);
        assert_eq!(b.scene().origin(), 0);
    }

    #[test]
    fn synthesizers_share_the_scene() {
        let w = Workload::new(
            ModelKind::LlavaOneVision7B,
            DatasetKind::MvBench,
            WorkloadScale::tiny(),
            2,
        );
        let mut syn = w.activation_synthesizer();
        let m = syn.activations(&[0, 1, 2], 0, crate::embedding::Stage::Embedding, 128);
        assert_eq!(m.rows(), 3);
        let att = w.attention_synthesizer();
        assert_eq!(att.text_tokens(), w.text_tokens());
    }
}
