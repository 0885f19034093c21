//! Synthetic cross-modal attention and the prompt model.
//!
//! The Semantic Concentrator consumes the text→image block of
//! `softmax(QKᵀ)` (paper §V-A). Running a real 7 B attention stack is out
//! of scope, so this module synthesises those probability rows from the
//! quantity that actually determines them: **prompt-conditioned
//! relevance**. A [`Prompt`] targets one scene object; text "query"
//! tokens give the target's patches a large logit boost, other objects a
//! small one, and background patches only their saliency — reproducing
//! the Fig. 2(a) behaviour where attention mass moves with the question
//! (dog → flower) rather than with any static metric.

use focus_tensor::backend::{self, BackendHandle};
use focus_tensor::Matrix;

use crate::embedding::SplitMix64;
use crate::scene::{hash_words, Scene};

/// A question about the scene, reduced to what attention cares about:
/// which object it asks about and how sharply.
#[derive(Clone, Debug, PartialEq)]
pub struct Prompt {
    /// Index of the queried object.
    pub target_object: usize,
    /// Logit boost received by the target's patches (≈4 gives the
    /// near-one-hot heatmaps of Fig. 2(a)).
    pub strength: f32,
    /// Human-readable label for table output.
    pub label: String,
}

impl Prompt {
    /// A prompt asking about object `target_object` with the default
    /// strength.
    pub fn about_object(target_object: usize) -> Self {
        Prompt {
            target_object,
            strength: 4.0,
            label: format!("object-{target_object}"),
        }
    }

    /// Sets the label (builder-style).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl Default for Prompt {
    fn default() -> Self {
        Prompt::about_object(0)
    }
}

/// Ground-truth relevance of every scene token under `prompt`: 1.0 for
/// the queried object, 0.25 for other objects (context still matters a
/// little), ~0.03 for background. Used by the proxy accuracy model.
pub fn relevance(scene: &Scene, prompt: &Prompt) -> Vec<f64> {
    (0..scene.token_count())
        .map(|t| {
            let patch = scene.patch_by_index(t);
            match patch.object {
                Some(o) if o == prompt.target_object => 1.0,
                Some(_) => 0.25,
                None => 0.03 * (1.0 + 0.3 * patch.saliency as f64).max(0.2),
            }
        })
        .collect()
}

/// Synthesises per-head text→image attention probability blocks.
#[derive(Debug)]
pub struct AttentionSynthesizer<'a> {
    scene: &'a Scene,
    prompt: Prompt,
    text_tokens: usize,
    heads: usize,
    seed: u64,
    /// Kernel backend the per-row logit noise fills dispatch through.
    backend: BackendHandle,
}

impl<'a> AttentionSynthesizer<'a> {
    /// Creates a synthesiser for `scene` under `prompt`, with `text_tokens`
    /// prompt tokens and `heads` attention heads.
    pub fn new(
        scene: &'a Scene,
        prompt: Prompt,
        text_tokens: usize,
        heads: usize,
        seed: u64,
    ) -> Self {
        AttentionSynthesizer {
            scene,
            prompt,
            text_tokens,
            heads,
            seed,
            backend: backend::active(),
        }
    }

    /// Replaces the kernel backend (the process-wide
    /// [`backend::active`] by default).
    pub fn with_backend(mut self, backend: BackendHandle) -> Self {
        self.backend = backend;
        self
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Number of text tokens.
    pub fn text_tokens(&self) -> usize {
        self.text_tokens
    }

    /// The prompt being modelled.
    pub fn prompt(&self) -> &Prompt {
        &self.prompt
    }

    /// The text→image probability block of one head at one layer,
    /// restricted to the `retained` image tokens: a `T × retained.len()`
    /// matrix whose rows sum to the image share of that text token's
    /// attention (< 1: the remainder goes to text-to-text columns, which
    /// the importance analyzer never reads).
    pub fn text_to_image_head(&self, layer: usize, head: usize, retained: &[usize]) -> Matrix {
        let t_cnt = self.text_tokens;
        let mut out = Matrix::zeros(t_cnt, retained.len());
        // The per-column logit terms are the same for every text row.
        let columns: Vec<(f32, f32)> = retained
            .iter()
            .map(|&tok| {
                let patch = self.scene.patch_by_index(tok);
                let rel_boost = match patch.object {
                    Some(o) if o == self.prompt.target_object => self.prompt.strength,
                    Some(_) => 1.2,
                    None => 0.0,
                };
                (rel_boost, 0.8 * patch.saliency)
            })
            .collect();
        // One batched draw per row through the backend's fill kernel:
        // it yields exactly the values (and leaves the generator where)
        // one `next_normal` per column would.
        let mut noise = vec![0.0f32; retained.len()];
        for i in 0..t_cnt {
            // Is this text token a content word that binds to the target?
            let h_tok = hash_words(self.seed, &[0x7E, i as u64]);
            let is_query = unit(h_tok) < 0.25;
            let mut rng = SplitMix64(hash_words(
                self.seed,
                &[0xA77, layer as u64, head as u64, i as u64],
            ));
            let affinity: f32 = if is_query {
                0.7 + 0.6 * rng.next_unit() as f32
            } else {
                0.05 + 0.25 * rng.next_unit() as f32
            };
            // Image share of this row's attention mass.
            let image_share: f32 = if is_query {
                0.55 + 0.25 * rng.next_unit() as f32
            } else {
                0.15 + 0.25 * rng.next_unit() as f32
            };
            rng.fill_normals_with(self.backend, &mut noise);
            let row = out.row_mut(i);
            for ((v, &(rel_boost, saliency)), &n) in row.iter_mut().zip(&columns).zip(&noise) {
                *v = rel_boost * affinity + saliency + n * 0.6;
            }
            focus_tensor::ops::softmax_in_place(row);
            for v in row.iter_mut() {
                *v *= image_share;
            }
        }
        out
    }

    /// All heads' text→image blocks at one layer.
    pub fn all_heads(&self, layer: usize, retained: &[usize]) -> Vec<Matrix> {
        (0..self.heads)
            .map(|h| self.text_to_image_head(layer, h, retained))
            .collect()
    }

    /// Reference importance of each retained token: the maximum
    /// attention it receives from any text token over all heads — the
    /// functional specification of the streaming importance analyzer
    /// (paper §V-A: `s_j = max over heads and text tokens`).
    pub fn reference_importance(&self, layer: usize, retained: &[usize]) -> Vec<f32> {
        let mut imp = vec![0.0f32; retained.len()];
        for h in 0..self.heads {
            let block = self.text_to_image_head(layer, h, retained);
            for i in 0..block.rows() {
                for (j, v) in block.row(i).iter().enumerate() {
                    if *v > imp[j] {
                        imp[j] = *v;
                    }
                }
            }
        }
        imp
    }
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;
    use crate::dataset::{DatasetKind, DatasetProfile};
    use crate::scene::SceneConfig;

    fn make_scene(seed: u64) -> Scene {
        let profile = DatasetProfile::for_model(DatasetKind::VideoMme, ModelKind::LlavaVideo7B);
        Scene::synthesize(SceneConfig {
            frames: 4,
            grid_h: 14,
            grid_w: 14,
            redundancy: profile.redundancy,
            seed,
        })
    }

    #[test]
    fn attention_rows_are_subnormalised() {
        let scene = make_scene(5);
        let syn = AttentionSynthesizer::new(&scene, Prompt::default(), 24, 4, 5);
        let retained: Vec<usize> = (0..scene.token_count()).collect();
        let block = syn.text_to_image_head(3, 1, &retained);
        for i in 0..block.rows() {
            let sum: f32 = block.row(i).iter().sum();
            assert!(sum > 0.0 && sum <= 1.0 + 1e-4, "row {i} sums to {sum}");
            assert!(block.row(i).iter().all(|v| *v >= 0.0));
        }
    }

    #[test]
    fn target_object_tokens_win_the_importance_ranking() {
        let scene = make_scene(6);
        let prompt = Prompt::about_object(0);
        let syn = AttentionSynthesizer::new(&scene, prompt, 24, 4, 6);
        let retained: Vec<usize> = (0..scene.token_count()).collect();
        let imp = syn.reference_importance(2, &retained);
        // Mean importance of target-object tokens must clearly exceed
        // the background mean.
        let mut target_sum = 0.0f64;
        let mut target_n = 0usize;
        let mut bg_sum = 0.0f64;
        let mut bg_n = 0usize;
        for (j, &tok) in retained.iter().enumerate() {
            match scene.patch_by_index(tok).object {
                Some(0) => {
                    target_sum += imp[j] as f64;
                    target_n += 1;
                }
                None => {
                    bg_sum += imp[j] as f64;
                    bg_n += 1;
                }
                _ => {}
            }
        }
        assert!(target_n > 0 && bg_n > 0);
        let target_mean = target_sum / target_n as f64;
        let bg_mean = bg_sum / bg_n as f64;
        assert!(
            target_mean > 2.0 * bg_mean,
            "target {target_mean:.4} vs background {bg_mean:.4}"
        );
    }

    #[test]
    fn attention_shifts_with_the_prompt() {
        // Fig. 2(a): asking about a different object moves importance.
        let scene = make_scene(7);
        let retained: Vec<usize> = (0..scene.token_count()).collect();
        let imp0 = AttentionSynthesizer::new(&scene, Prompt::about_object(0), 24, 4, 7)
            .reference_importance(2, &retained);
        let imp1 = AttentionSynthesizer::new(&scene, Prompt::about_object(1), 24, 4, 7)
            .reference_importance(2, &retained);
        let top = |imp: &[f32]| {
            let mut idx: Vec<usize> = (0..imp.len()).collect();
            idx.sort_by(|&a, &b| imp[b].partial_cmp(&imp[a]).unwrap());
            idx.truncate(imp.len() / 10);
            idx
        };
        let t0 = top(&imp0);
        let t1 = top(&imp1);
        let overlap = t0.iter().filter(|i| t1.contains(i)).count() as f64 / t0.len() as f64;
        assert!(
            overlap < 0.8,
            "top sets must shift with the prompt ({overlap})"
        );
    }

    #[test]
    fn relevance_marks_the_target() {
        let scene = make_scene(8);
        let rel = relevance(&scene, &Prompt::about_object(0));
        assert_eq!(rel.len(), scene.token_count());
        let has_target = (0..scene.token_count())
            .any(|t| scene.patch_by_index(t).object == Some(0) && rel[t] == 1.0);
        assert!(has_target);
        assert!(rel.iter().all(|&r| r > 0.0 && r <= 1.0));
    }

    /// `text_to_image_head` drawn the one-value-at-a-time way: a
    /// `next_normal` per column, per-column terms recomputed per row.
    fn one_draw_reference(
        syn: &AttentionSynthesizer<'_>,
        layer: usize,
        head: usize,
        retained: &[usize],
    ) -> Matrix {
        let mut out = Matrix::zeros(syn.text_tokens, retained.len());
        for i in 0..syn.text_tokens {
            let is_query = unit(hash_words(syn.seed, &[0x7E, i as u64])) < 0.25;
            let mut rng = SplitMix64(hash_words(
                syn.seed,
                &[0xA77, layer as u64, head as u64, i as u64],
            ));
            let (affinity, image_share) = if is_query {
                let a = 0.7 + 0.6 * rng.next_unit() as f32;
                (a, 0.55 + 0.25 * rng.next_unit() as f32)
            } else {
                let a = 0.05 + 0.25 * rng.next_unit() as f32;
                (a, 0.15 + 0.25 * rng.next_unit() as f32)
            };
            let row = out.row_mut(i);
            for (jj, &tok) in retained.iter().enumerate() {
                let patch = syn.scene.patch_by_index(tok);
                let rel_boost = match patch.object {
                    Some(o) if o == syn.prompt.target_object => syn.prompt.strength,
                    Some(_) => 1.2,
                    None => 0.0,
                };
                let noise = rng.next_normal() * 0.6;
                row[jj] = rel_boost * affinity + 0.8 * patch.saliency + noise;
            }
            focus_tensor::ops::softmax_in_place(row);
            for v in row.iter_mut() {
                *v *= image_share;
            }
        }
        out
    }

    #[test]
    fn batched_draws_match_one_draw_reference() {
        let scene = make_scene(10);
        let syn = AttentionSynthesizer::new(&scene, Prompt::about_object(1), 21, 3, 10);
        // Odd lengths and a strided subset exercise the SIMD fill's
        // tail lanes and non-contiguous retained sets.
        let strided: Vec<usize> = (0..scene.token_count()).step_by(3).collect();
        for retained in [strided, (0..scene.token_count()).collect(), vec![4, 9]] {
            for (layer, head) in [(0, 0), (3, 2), (17, 1)] {
                let got = syn.text_to_image_head(layer, head, &retained);
                let want = one_draw_reference(&syn, layer, head, &retained);
                for i in 0..got.rows() {
                    let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got.row(i)), bits(want.row(i)), "layer {layer} row {i}");
                }
            }
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let scene = make_scene(9);
        let retained: Vec<usize> = (0..60).collect();
        let a = AttentionSynthesizer::new(&scene, Prompt::default(), 16, 2, 9)
            .text_to_image_head(1, 0, &retained);
        let b = AttentionSynthesizer::new(&scene, Prompt::default(), 16, 2, 9)
            .text_to_image_head(1, 0, &retained);
        assert_eq!(a, b);
    }
}
