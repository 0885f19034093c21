//! Token embedding and activation synthesis.
//!
//! Expands the [`crate::scene::Scene`]'s content keys into
//! layer/stage-specific activation rows with a **controlled sub-vector
//! redundancy structure**:
//!
//! * every [`ContentKey`] owns a deterministic latent appearance vector;
//! * each 8-element *group* of a token's row is either **stable**
//!   (bit-identical whenever the same content appears, in any frame) or
//!   **unstable** (fresh Gaussian noise of magnitude `noise_sigma` every
//!   frame);
//! * the per-content stable-group fraction is drawn around the dataset's
//!   [`stable_fraction`](crate::dataset::RedundancyProfile::stable_fraction).
//!
//! This reproduces the paper's Fig. 2(b) mechanism exactly: at a
//! granularity of 8 the fraction of >0.9-cosine vectors approaches the
//! stable fraction, while full-token cosine is dragged below the 0.9
//! threshold by the noisy groups (`cos ≈ sf + (1-sf)/(1+σ²)`), so finer
//! granularity reveals substantially more redundancy.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use focus_tensor::backend::{self, BackendHandle, RowRef};
use focus_tensor::{Element, Matrix};

use crate::dataset::RedundancyProfile;
use crate::scene::{
    fnv1a_fold, fnv1a_fold_le, fnv1a_fold_word, hash_words, ContentKey, Scene, FNV_OFFSET_BASIS,
};

/// FNV-1a for the synthesiser's memo-cache keys. The caches sit on the
/// row-synthesis hot path and are probed a few times per token row;
/// SipHash's per-lookup cost is pure overhead there (a memo's hash
/// function cannot affect synthesised values, only lookup speed; `Eq`
/// still guards exactness). The fold itself is
/// [`crate::scene::fnv1a_fold`] — one definition of the constants —
/// with integer writes taking the word-at-a-time
/// `scene::fnv1a_fold_le` (same hash as folding their
/// little-endian bytes).
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET_BASIS)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_fold(self.0, bytes);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.0 = fnv1a_fold_le(self.0, v as u64, 2);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = fnv1a_fold_le(self.0, v as u64, 4);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = fnv1a_fold_word(self.0, v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.0 = fnv1a_fold_le(self.0, v as u64, std::mem::size_of::<usize>());
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type FnvBuild = BuildHasherDefault<FnvHasher>;

/// Elements per stability group: the finest granularity at which
/// redundancy exists (the paper's Fig. 2(b) sweeps down to size 8).
pub const GROUP: usize = 8;

/// The network stages whose outputs the similarity concentrator gathers
/// (paper §VI-A footnote: FFN, O-projection and PV outputs) plus the
/// initial embeddings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Projector output / LLM input embeddings.
    Embedding,
    /// Output of the attention PV GEMM (input of the O projection).
    PvOut,
    /// Output of the O projection (input, through the residual/norm, of
    /// the FFN gate/up GEMMs).
    OProjOut,
    /// The gated FFN activation (input of the FFN down GEMM); its width
    /// is `ffn_hidden`, not `hidden`.
    FfnAct,
    /// Output of the FFN down GEMM (input of the next layer's QKV).
    FfnDownOut,
}

impl Stage {
    /// All gather points in execution order within a layer.
    pub const GATHER_POINTS: [Stage; 4] = [
        Stage::PvOut,
        Stage::OProjOut,
        Stage::FfnAct,
        Stage::FfnDownOut,
    ];

    /// Index of this stage within [`Stage::GATHER_POINTS`], or `None`
    /// for [`Stage::Embedding`]. Pipelines use this to address
    /// per-layer gather-stage arrays.
    pub fn gather_index(self) -> Option<usize> {
        Stage::GATHER_POINTS.iter().position(|&s| s == self)
    }

    /// Activation width of this stage's output rows under `model`
    /// (`ffn_hidden` for the gated FFN activation, `hidden` otherwise).
    pub fn width(self, model: &crate::config::ModelConfig) -> usize {
        match self {
            Stage::FfnAct => model.ffn_hidden,
            _ => model.hidden,
        }
    }

    fn salt(self) -> u64 {
        match self {
            Stage::Embedding => 0x10,
            Stage::PvOut => 0x20,
            Stage::OProjOut => 0x30,
            Stage::FfnAct => 0x40,
            Stage::FfnDownOut => 0x50,
        }
    }
}

/// SplitMix64: a tiny, fast, high-quality deterministic generator used
/// to expand hash seeds into value streams.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal sample (Box–Muller over the fixed-polynomial
    /// kernel, one value per call). Bit-identical to the corresponding
    /// position of a [`SplitMix64::fill_normals_with`] batch.
    #[inline]
    pub fn next_normal(&mut self) -> f32 {
        let r1 = self.next_u64();
        let r2 = self.next_u64();
        focus_tensor::math::normal_from_raw(r1, r2)
    }

    /// Fills `out` with standard normal samples through the
    /// synthesis-fill kernel of an explicit [`Backend`] handle,
    /// consuming exactly two raw words per value — the batched form of
    /// [`SplitMix64::next_normal`]. The generator advances as if each
    /// value had been drawn one call at a time, so batched and
    /// sequential draws produce interchangeable streams, and the
    /// backends fill bit-identical values.
    ///
    /// [`Backend`]: focus_tensor::backend::Backend
    #[inline]
    pub fn fill_normals_with(&mut self, backend: BackendHandle, out: &mut [f32]) {
        backend.normal_fill(self.0, out);
        self.0 = self
            .0
            .wrapping_add(focus_tensor::math::GAMMA.wrapping_mul(2 * out.len() as u64));
    }
}

/// The deterministic group-stability law of activation synthesis:
/// which [`GROUP`]-wide slices of a content key's rows are bit-stable
/// across frames, as a pure function of `(key, layer, stage, width)`
/// under a synthesiser seed.
///
/// [`ActivationSynthesizer::token_row`] draws its stability pattern
/// from this model, and the temporal concentrator consults the *same*
/// model to prove — before a single byte is synthesised — that a
/// column tile of a signature-stable token will re-synthesise
/// bit-identically next frame. One definition, two consumers: the
/// carry proof cannot drift from the synthesis it predicts.
#[derive(Clone, Copy, Debug)]
pub struct StabilityModel {
    redundancy: RedundancyProfile,
    layers: usize,
    seed: u64,
}

impl StabilityModel {
    /// A model under the given dataset profile, total layer count and
    /// synthesiser seed — the same triple fed to
    /// [`ActivationSynthesizer::new`].
    pub fn new(redundancy: RedundancyProfile, layers: usize, seed: u64) -> Self {
        StabilityModel {
            redundancy,
            layers,
            seed,
        }
    }

    /// Context salt for a (layer, stage) pair.
    fn context_salt(&self, layer: usize, stage: Stage) -> u64 {
        hash_words(self.seed, &[0xCC, layer as u64, stage.salt()])
    }

    /// Per-content stable-group fraction: the dataset mean plus a
    /// per-content offset and a mild depth decay.
    fn stable_fraction_for(&self, key: ContentKey, layer: usize) -> f64 {
        let z = centered_unit(key.stable_hash(self.seed ^ 0x5F5F));
        let depth = layer as f64 / self.layers.max(1) as f64;
        (self.redundancy.stable_fraction + 0.24 * z - 0.05 * depth).clamp(0.02, 0.995)
    }

    /// Hierarchical per-[`GROUP`] stability flags of `key`'s rows at
    /// `(layer, stage, width)`.
    ///
    /// Channel stability in real activations is spatially *clustered*:
    /// whole 32-wide feature blocks freeze for static content, and
    /// inside a volatile block some 8-wide sub-groups still repeat.
    /// Two tiers reproduce the Fig. 2(b) CDF at both ends — the
    /// 8-dim `>0.9` fraction equals `sf`, while the 32-dim fraction
    /// equals the block-tier stability `s32 = α·sf` — without the
    /// `sf⁴` collapse a flat i.i.d. model would force on vector-level
    /// matching.
    pub fn group_pattern(
        &self,
        key: ContentKey,
        layer: usize,
        stage: Stage,
        width: usize,
    ) -> Vec<bool> {
        self.group_pattern_salted(key, layer, self.context_salt(layer, stage), width)
    }

    fn group_pattern_salted(
        &self,
        key: ContentKey,
        layer: usize,
        salt: u64,
        width: usize,
    ) -> Vec<bool> {
        let sf = self.stable_fraction_for(key, layer);
        const BLOCK_TIER: f64 = 0.72;
        let s32 = BLOCK_TIER * sf;
        let s8 = ((sf - s32) / (1.0 - s32)).clamp(0.0, 1.0);
        let stability_seed = key.stable_hash(salt ^ 0xABCD);
        // Block `b` is stable iff `hash_words(seed, [0x32, b])` draws
        // below `s32`, group `g` (of an unstable block) iff
        // `hash_words(seed, [0x8, g])` draws below `s8`; the shared
        // `(seed, tag)` prefixes fold once, and each block hash once.
        let block_prefix = hash_words(stability_seed, &[0x32]);
        let group_prefix = hash_words(stability_seed, &[0x8]);
        let groups = width / GROUP;
        let groups_per_block = 32 / GROUP;
        let mut pattern = Vec::with_capacity(groups);
        for block in 0..groups.div_ceil(groups_per_block) {
            let block_stable = unit_from(fnv1a_fold_word(block_prefix, block as u64)) < s32;
            for g in block * groups_per_block..((block + 1) * groups_per_block).min(groups) {
                pattern
                    .push(block_stable || unit_from(fnv1a_fold_word(group_prefix, g as u64)) < s8);
            }
        }
        pattern
    }

    /// Column-tile stability at SIC vector granularity `v_len`: a tile
    /// is provably bit-stable iff every [`GROUP`] inside it is. Returns
    /// one flag per tile (the tiling of `width` used by the gather
    /// sweeps); all-false — nothing provable — when the tiling does not
    /// align to whole groups.
    pub fn tile_pattern(
        &self,
        key: ContentKey,
        layer: usize,
        stage: Stage,
        width: usize,
        v_len: usize,
    ) -> Vec<bool> {
        let tiles = width.div_ceil(v_len.max(1)).max(1);
        if width == 0 || v_len == 0 || !width.is_multiple_of(GROUP) || !v_len.is_multiple_of(GROUP)
        {
            return vec![false; tiles];
        }
        let groups = self.group_pattern(key, layer, stage, width);
        let per_tile = v_len / GROUP;
        (0..tiles)
            .map(|t| {
                groups[t * per_tile..((t + 1) * per_tile).min(groups.len())]
                    .iter()
                    .all(|&s| s)
            })
            .collect()
    }
}

/// Synthesises per-layer, per-stage activation matrices for a scene.
///
/// Holds an appearance cache keyed by content; the cache is flushed when
/// the (layer, stage) context changes, which matches the layer-by-layer
/// traversal of the pipeline.
#[derive(Debug)]
pub struct ActivationSynthesizer<'a> {
    scene: &'a Scene,
    redundancy: RedundancyProfile,
    seed: u64,
    layers: usize,
    /// Kernel backend every normal fill routes through (and the sink
    /// for synthesis-launch records).
    backend: BackendHandle,
    cache_salt: u64,
    appearance_cache: HashMap<(ContentKey, usize), Vec<f32>, FnvBuild>,
    /// Per-(content, width) group-stability flags — a pure function of
    /// the content key within one (layer, stage) context, shared by
    /// every token showing that content (flushed with the context,
    /// like the appearance memo).
    stability_cache: HashMap<(ContentKey, usize), Vec<bool>, FnvBuild>,
    /// The full-precision row a matrix fill synthesises before storing
    /// it at the buffer's precision (recycled across rows and calls).
    row: Vec<f32>,
}

impl<'a> ActivationSynthesizer<'a> {
    /// Creates a synthesiser for `scene` with the dataset's redundancy
    /// profile. `layers` is the total layer count (used for the mild
    /// depth trend in stability).
    pub fn new(scene: &'a Scene, redundancy: RedundancyProfile, layers: usize, seed: u64) -> Self {
        ActivationSynthesizer {
            scene,
            redundancy,
            seed,
            layers,
            backend: backend::active(),
            cache_salt: u64::MAX,
            appearance_cache: HashMap::default(),
            stability_cache: HashMap::default(),
            row: Vec::new(),
        }
    }

    /// Replaces the kernel backend (the process-wide
    /// [`backend::active`] by default).
    pub fn with_backend(mut self, backend: BackendHandle) -> Self {
        self.backend = backend;
        self
    }

    /// The scene this synthesiser reads.
    pub fn scene(&self) -> &Scene {
        self.scene
    }

    /// The stability law this synthesiser's rows obey (the proof side
    /// of temporal carry).
    pub fn stability_model(&self) -> StabilityModel {
        StabilityModel::new(self.redundancy, self.layers, self.seed)
    }

    /// Deterministic appearance vector of a content key at the current
    /// context, memoised.
    fn appearance(&mut self, key: ContentKey, width: usize, salt: u64) -> &[f32] {
        let backend = self.backend;
        self.appearance_cache
            .entry((key, width))
            .or_insert_with(|| {
                let mut rng = SplitMix64(key.stable_hash(salt));
                let mut v = vec![0.0f32; width];
                rng.fill_normals_with(backend, &mut v);
                v
            })
    }

    /// Synthesises the deterministic (noise-free) part of one token row.
    ///
    /// The blends accumulate straight into `out` between `appearance`
    /// calls (each borrows the memo mutably, so only one component
    /// slice is live at a time) — no per-row temporaries. The two-term
    /// mixes sum in the opposite operand order from the formulae in
    /// the comments; IEEE-754 addition is commutative, so the rows are
    /// bit-identical either way.
    fn deterministic_row(&mut self, token: usize, width: usize, salt: u64, out: &mut [f32]) {
        // Copy the `&'a Scene` reference out of `self` so the patch
        // borrow outlives the `&mut self` appearance calls below — no
        // per-row clone of the patch.
        let scene: &'a Scene = self.scene;
        let patch = scene.patch_by_index(token);
        match patch.primary {
            ContentKey::Background { epoch, .. } => {
                // sqrt-weighted mix keeps unit variance; the expected
                // cosine between two background patches is 1 - texture.
                let texture = self.redundancy.bg_texture_var.clamp(0.0, 1.0);
                // focus-lint: allow(D1-libm) — IEEE 754 sqrt is correctly rounded:
                // bit-deterministic on every conforming platform.
                let w_scene = ((1.0 - texture) as f32).sqrt();
                // focus-lint: allow(D1-libm) — same correctly-rounded sqrt as above.
                let w_pos = (texture as f32).sqrt();
                let pos_app = self.appearance(patch.primary, width, salt);
                for (o, &a) in out.iter_mut().zip(pos_app) {
                    *o = w_pos * a;
                }
                let scene_app = self.appearance(ContentKey::Scene { epoch }, width, salt);
                for (o, &a) in out.iter_mut().zip(scene_app) {
                    *o += w_scene * a;
                }
            }
            ContentKey::Object { epoch, object, .. } => {
                // Objects mix a core identity with per-cell texture.
                const OBJECT_TEXTURE: f32 = 0.7;
                // focus-lint: allow(D1-libm) — IEEE 754 sqrt is correctly rounded:
                // bit-deterministic on every conforming platform.
                let w_core = (1.0 - OBJECT_TEXTURE).sqrt();
                // focus-lint: allow(D1-libm) — same correctly-rounded sqrt as above.
                let w_cell = OBJECT_TEXTURE.sqrt();
                let core_key = ContentKey::Object {
                    epoch,
                    object,
                    lr: i16::MAX,
                    lc: i16::MAX,
                };
                let cell = self.appearance(patch.primary, width, salt);
                for (o, &a) in out.iter_mut().zip(cell) {
                    *o = w_cell * a;
                }
                let core = self.appearance(core_key, width, salt);
                for (o, &a) in out.iter_mut().zip(core) {
                    *o += w_core * a;
                }
            }
            ContentKey::Scene { .. } => {
                let app = self.appearance(patch.primary, width, salt);
                out.copy_from_slice(app);
            }
        }
        // Sub-patch motion blends the neighbouring content. The blend
        // weight is damped below the raw area overlap: vision-encoder
        // features are translation-tolerant, so a patch whose content
        // shifted by φ of a cell moves much less than φ in feature
        // space (this is precisely the sub-token redundancy Fig. 1(c)
        // exploits).
        const MOTION_DAMPING: f32 = 0.5;
        if let Some((secondary, phi)) = patch.secondary {
            let phi = MOTION_DAMPING * phi;
            let sec = self.appearance(secondary, width, salt);
            for (o, &s) in out.iter_mut().zip(sec) {
                *o = (1.0 - phi) * *o + phi * s;
            }
        }
    }

    /// Synthesises one activation row for `token` at `(layer, stage)`
    /// into `out` (whose length sets the width).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a positive multiple of [`GROUP`].
    pub fn token_row(&mut self, token: usize, layer: usize, stage: Stage, out: &mut [f32]) {
        let salt = self.stability_model().context_salt(layer, stage);
        self.salted_row(token, layer, salt, out);
    }

    /// [`ActivationSynthesizer::token_row`] under a precomputed context
    /// salt, so a matrix fill hashes its (layer, stage) context once.
    fn salted_row(&mut self, token: usize, layer: usize, salt: u64, out: &mut [f32]) {
        let width = out.len();
        assert!(
            width > 0 && width.is_multiple_of(GROUP),
            "width must be a multiple of {GROUP}"
        );
        if salt != self.cache_salt {
            self.appearance_cache.clear();
            self.stability_cache.clear();
            self.cache_salt = salt;
        }
        self.deterministic_row(token, width, salt, out);

        // Group stability comes from the shared [`StabilityModel`] law
        // (see its docs for the two-tier structure). The flags are a
        // pure function of (content, width) within the current context,
        // so tokens repeating a content key — the scene's redundancy
        // itself — share one memoised pattern. The additive noise below
        // stays strictly per (token, group).
        let key = self.scene.patch_by_index(token).primary;
        let model = self.stability_model();
        let pattern = self
            .stability_cache
            .entry((key, width))
            .or_insert_with(|| model.group_pattern_salted(key, layer, salt, width));
        let sigma = self.redundancy.noise_sigma as f32;
        let mut noise = [0.0f32; GROUP];
        // Noise keys off the *global-time* token index: at origin 0 this
        // is the local index (bit-identical to every pinned value), and
        // in a scene stream it advances with the window, so unstable
        // groups redraw each wall-clock frame while stable groups stay
        // bit-identical — exactly the cross-window redundancy the
        // temporal concentrator harvests. Group `g`'s seed is
        // `hash_words(salt ^ 0x0115E, [noise_token, g])`, its prefix
        // folded once per row.
        let noise_token = self.scene.global_token(token) as u64;
        let noise_prefix = hash_words(salt ^ 0x0115E, &[noise_token]);
        for (g, _) in pattern.iter().enumerate().filter(|(_, &stable)| !stable) {
            let mut rng = SplitMix64(fnv1a_fold_word(noise_prefix, g as u64));
            rng.fill_normals_with(self.backend, &mut noise);
            for (v, &n) in out[g * GROUP..(g + 1) * GROUP].iter_mut().zip(&noise) {
                *v += sigma * n;
            }
        }
    }

    /// Synthesises the activation matrix of the given tokens at
    /// `(layer, stage)`. Rows follow the order of `tokens`; image-token
    /// indices are scene-global (frame-major).
    pub fn activations(
        &mut self,
        tokens: &[usize],
        layer: usize,
        stage: Stage,
        width: usize,
    ) -> Matrix {
        let mut m = Matrix::zeros(tokens.len(), width);
        self.activations_into(tokens, layer, stage, width, &mut m);
        m
    }

    /// Like [`ActivationSynthesizer::activations`], but synthesises
    /// into `out`, resizing it in place. Rows are fully overwritten, so
    /// a recycled buffer yields values bit-identical to a fresh
    /// allocation; together with the memo cache this makes the
    /// synthesiser safe to keep resident across layers and stages.
    ///
    /// `out` stores at its element's precision: each row is produced
    /// in f32 and stored as it is produced ([`Element::store`]), so an
    /// FP16 buffer receives one encode launch per row and never holds
    /// a full-precision copy of the matrix.
    pub fn activations_into<E: Element>(
        &mut self,
        tokens: &[usize],
        layer: usize,
        stage: Stage,
        width: usize,
        out: &mut Matrix<E>,
    ) {
        out.resize(tokens.len(), width);
        let salt = self.stability_model().context_salt(layer, stage);
        let mut row = std::mem::take(&mut self.row);
        row.resize(width, 0.0);
        // Rows are in `tokens` order.
        for (i, &t) in tokens.iter().enumerate() {
            self.salted_row(t, layer, salt, &mut row);
            E::store(&row, out.row_mut(i), self.backend);
        }
        self.row = row;
    }

    /// Cosine-similarity samples between temporally adjacent tokens at
    /// the given vector granularity — the measurement behind Fig. 2(b).
    ///
    /// For every token of frames `1..F`, its row is compared with the
    /// same grid position in the previous frame, slice by slice of
    /// `granularity` elements; all slice similarities are returned,
    /// frame by frame in grid order. Every row is synthesised once and
    /// takes one [`Backend::segment_norms`] launch; the previous frame's
    /// rows and norms are kept for the next frame's one
    /// [`Backend::segment_scores`] launch per row, on the synthesiser's
    /// backend.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is 0.
    ///
    /// [`Backend::segment_norms`]: focus_tensor::backend::Backend::segment_norms
    /// [`Backend::segment_scores`]: focus_tensor::backend::Backend::segment_scores
    pub fn temporal_similarity_samples(
        &mut self,
        layer: usize,
        stage: Stage,
        width: usize,
        granularity: usize,
    ) -> Vec<f32> {
        assert!(granularity > 0, "granularity must be positive");
        let cfg = *self.scene.config();
        let per_frame = cfg.grid_h * cfg.grid_w;
        let (be, g) = (self.backend, granularity);
        let slices: Vec<usize> = (0..width.div_ceil(g)).collect();
        let n = slices.len();
        // One frame of rows and slice norms each for the previous and
        // the current frame, swapped after every frame.
        let (mut prev, mut cur) = (
            vec![0.0f32; per_frame * width],
            vec![0.0f32; per_frame * width],
        );
        let (mut prev_norms, mut cur_norms) =
            (vec![0.0f32; per_frame * n], vec![0.0f32; per_frame * n]);
        let mut cosines = vec![0.0f32; n];
        let mut samples = Vec::new();
        for f in 0..cfg.frames {
            for p in 0..per_frame {
                let row = &mut cur[p * width..(p + 1) * width];
                self.token_row(f * per_frame + p, layer, stage, row);
                let (row, norms) = (RowRef::F32(row), &mut cur_norms[p * n..(p + 1) * n]);
                be.segment_norms(row, g, &slices, norms);
                if f > 0 {
                    let prev_row = RowRef::F32(&prev[p * width..(p + 1) * width]);
                    let pn = &prev_norms[p * n..(p + 1) * n];
                    be.segment_scores(row, prev_row, g, &slices, norms, pn, &mut cosines);
                    samples.extend_from_slice(&cosines);
                }
            }
            std::mem::swap(&mut prev, &mut cur);
            std::mem::swap(&mut prev_norms, &mut cur_norms);
        }
        samples
    }
}

/// Uniform in `[0,1)` from a hash.
fn unit_from(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform in `[-1, 1)` from a hash.
fn centered_unit(h: u64) -> f64 {
    unit_from(h) * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;
    use crate::dataset::{DatasetKind, DatasetProfile};
    use crate::scene::SceneConfig;

    fn make_scene() -> Scene {
        let profile = DatasetProfile::for_model(DatasetKind::VideoMme, ModelKind::LlavaVideo7B);
        Scene::synthesize(SceneConfig {
            frames: 4,
            grid_h: 14,
            grid_w: 14,
            redundancy: profile.redundancy,
            seed: 99,
        })
    }

    fn profile() -> RedundancyProfile {
        DatasetProfile::for_model(DatasetKind::VideoMme, ModelKind::LlavaVideo7B).redundancy
    }

    /// Byte-serial FNV-1a over `salt` then `words` — the definition of
    /// [`hash_words`], with no word fold and no hoisted prefix.
    fn byte_fold_hash(salt: u64, words: &[u64]) -> u64 {
        let bytes: Vec<u8> = std::iter::once(salt)
            .chain(words.iter().copied())
            .flat_map(u64::to_le_bytes)
            .collect();
        crate::scene::fnv1a(&bytes)
    }

    /// [`ContentKey::stable_hash`] through [`byte_fold_hash`].
    fn byte_fold_key_hash(key: ContentKey, salt: u64) -> u64 {
        match key {
            ContentKey::Scene { epoch } => byte_fold_hash(salt, &[1, epoch as u64]),
            ContentKey::Background { epoch, r, c } => {
                byte_fold_hash(salt, &[2, epoch as u64, r as u64, c as u64])
            }
            ContentKey::Object {
                epoch,
                object,
                lr,
                lc,
            } => byte_fold_hash(
                salt,
                &[
                    3,
                    epoch as u64,
                    object as u64,
                    lr as i64 as u64,
                    lc as i64 as u64,
                ],
            ),
        }
    }

    fn byte_fold_context_salt(seed: u64, layer: usize, stage: Stage) -> u64 {
        byte_fold_hash(seed, &[0xCC, layer as u64, stage.salt()])
    }

    /// The two-tier stability law group by group, every hash folded
    /// byte-serially from its full word list.
    fn reference_group_pattern(
        seed: u64,
        layers: usize,
        key: ContentKey,
        layer: usize,
        stage: Stage,
        width: usize,
    ) -> Vec<bool> {
        let salt = byte_fold_context_salt(seed, layer, stage);
        let z = centered_unit(byte_fold_key_hash(key, seed ^ 0x5F5F));
        let depth = layer as f64 / layers as f64;
        let sf = (profile().stable_fraction + 0.24 * z - 0.05 * depth).clamp(0.02, 0.995);
        let s32 = 0.72 * sf;
        let s8 = ((sf - s32) / (1.0 - s32)).clamp(0.0, 1.0);
        let stability_seed = byte_fold_key_hash(key, salt ^ 0xABCD);
        (0..width / GROUP)
            .map(|g| {
                unit_from(byte_fold_hash(stability_seed, &[0x32, (g / 4) as u64])) < s32
                    || unit_from(byte_fold_hash(stability_seed, &[0x8, g as u64])) < s8
            })
            .collect()
    }

    #[test]
    fn group_pattern_matches_byte_fold_reference() {
        let scene = make_scene();
        let model = StabilityModel::new(profile(), 28, 7);
        // 72 = 9 groups: a partial last 32-wide block.
        for (layer, stage, width) in [
            (0, Stage::Embedding, 256),
            (5, Stage::OProjOut, 72),
            (27, Stage::FfnAct, 8),
        ] {
            for t in 0..scene.token_count() {
                let key = scene.patch_by_index(t).primary;
                assert_eq!(
                    model.group_pattern(key, layer, stage, width),
                    reference_group_pattern(7, 28, key, layer, stage, width),
                    "token {t} at ({layer}, {stage:?}, {width})"
                );
            }
        }
    }

    #[test]
    fn token_row_matches_byte_fold_reference() {
        let base = make_scene();
        // A window at a non-zero origin keys noise off global tokens.
        let window = Scene::synthesize_at(*base.config(), 5);
        let sigma = profile().noise_sigma as f32;
        for scene in [&base, &window] {
            for (layer, stage, width) in [(3, Stage::PvOut, 128), (9, Stage::FfnDownOut, 72)] {
                let mut syn = ActivationSynthesizer::new(scene, profile(), 28, 7);
                let mut noise_free = ActivationSynthesizer::new(scene, profile(), 28, 7);
                let salt = byte_fold_context_salt(7, layer, stage);
                let mut row = vec![0.0f32; width];
                let mut expect = vec![0.0f32; width];
                for t in (0..scene.token_count()).step_by(5) {
                    syn.token_row(t, layer, stage, &mut row);
                    noise_free.deterministic_row(t, width, salt, &mut expect);
                    let key = scene.patch_by_index(t).primary;
                    let pattern = reference_group_pattern(7, 28, key, layer, stage, width);
                    let noise_token = scene.global_token(t) as u64;
                    for (g, _) in pattern.iter().enumerate().filter(|(_, &s)| !s) {
                        let seed = byte_fold_hash(salt ^ 0x0115E, &[noise_token, g as u64]);
                        let mut rng = SplitMix64(seed);
                        for v in &mut expect[g * GROUP..(g + 1) * GROUP] {
                            *v += sigma * rng.next_normal();
                        }
                    }
                    let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&row), bits(&expect), "token {t} at layer {layer}");
                }
            }
        }
    }

    #[test]
    fn rows_are_deterministic() {
        let scene = make_scene();
        let mut a = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let mut b = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let mut ra = vec![0.0; 128];
        let mut rb = vec![0.0; 128];
        a.token_row(17, 3, Stage::PvOut, &mut ra);
        b.token_row(17, 3, Stage::PvOut, &mut rb);
        assert_eq!(ra, rb);
    }

    #[test]
    fn different_layers_decorrelate() {
        let scene = make_scene();
        let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let mut r3 = vec![0.0; 128];
        let mut r9 = vec![0.0; 128];
        syn.token_row(17, 3, Stage::PvOut, &mut r3);
        syn.token_row(17, 9, Stage::PvOut, &mut r9);
        let cos = backend::row_cosine(backend::simd(), &r3, &r9);
        assert!(cos.abs() < 0.5, "layers must have distinct latents ({cos})");
    }

    #[test]
    fn static_background_has_stable_groups_across_frames() {
        let scene = make_scene();
        let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        // Find a static-background position in frames 0 and 1.
        let per_frame = 14 * 14;
        let (mut t0, mut t1) = (usize::MAX, 0);
        for p in 0..per_frame {
            if scene.patch_by_index(p).object.is_none()
                && scene.patch_by_index(per_frame + p).object.is_none()
                && scene.epoch_of_frame(0) == scene.epoch_of_frame(1)
            {
                t0 = p;
                t1 = per_frame + p;
                break;
            }
        }
        assert_ne!(t0, usize::MAX, "scene must contain static background");
        let mut a = vec![0.0; 256];
        let mut b = vec![0.0; 256];
        syn.token_row(t0, 5, Stage::OProjOut, &mut a);
        syn.token_row(t1, 5, Stage::OProjOut, &mut b);
        // Some groups identical (stable), some not (noisy).
        let mut identical = 0;
        let mut different = 0;
        for g in 0..256 / GROUP {
            if a[g * GROUP..(g + 1) * GROUP] == b[g * GROUP..(g + 1) * GROUP] {
                identical += 1;
            } else {
                different += 1;
            }
        }
        assert!(
            identical >= 256 / GROUP / 3,
            "stable groups must repeat ({identical})"
        );
        assert!(different > 0, "unstable groups must differ");
    }

    #[test]
    fn stability_model_predicts_byte_repeats_exactly() {
        // The carry proof: for any two tokens showing the same content
        // signature, a group flagged stable by the model is
        // bit-identical between their rows, and a group flagged
        // unstable differs (noise keys off the distinct token indices).
        let scene = make_scene();
        let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let model = syn.stability_model();
        let per_frame = 14 * 14;
        let width = 256;
        let (layer, stage) = (5, Stage::OProjOut);
        let mut a = vec![0.0; width];
        let mut b = vec![0.0; width];
        let (mut stable_checked, mut unstable_checked) = (0, 0);
        for p in 0..per_frame {
            let (t0, t1) = (p, per_frame + p);
            if scene.token_signature(t0) != scene.token_signature(t1) {
                continue;
            }
            syn.token_row(t0, layer, stage, &mut a);
            syn.token_row(t1, layer, stage, &mut b);
            let key = scene.patch_by_index(t0).primary;
            for (g, &stable) in model
                .group_pattern(key, layer, stage, width)
                .iter()
                .enumerate()
            {
                let ga = &a[g * GROUP..(g + 1) * GROUP];
                let gb = &b[g * GROUP..(g + 1) * GROUP];
                let same = ga.iter().zip(gb).all(|(x, y)| x.to_bits() == y.to_bits());
                if stable {
                    assert!(same, "model says stable, bytes moved (token {p} group {g})");
                    stable_checked += 1;
                } else {
                    assert!(
                        !same,
                        "model says unstable, bytes repeated (token {p} group {g})"
                    );
                    unstable_checked += 1;
                }
            }
        }
        assert!(
            stable_checked > 100,
            "stable groups checked: {stable_checked}"
        );
        assert!(
            unstable_checked > 100,
            "unstable groups checked: {unstable_checked}"
        );
    }

    #[test]
    fn tile_pattern_requires_every_group_and_aligned_tiling() {
        let scene = make_scene();
        let model = ActivationSynthesizer::new(&scene, profile(), 28, 7).stability_model();
        let key = scene.patch_by_index(0).primary;
        let (layer, stage, width) = (3, Stage::PvOut, 256);
        let groups = model.group_pattern(key, layer, stage, width);
        let tiles = model.tile_pattern(key, layer, stage, width, 32);
        assert_eq!(tiles.len(), width / 32);
        for (t, &stable) in tiles.iter().enumerate() {
            let per_tile = 32 / GROUP;
            let expect = groups[t * per_tile..(t + 1) * per_tile].iter().all(|&s| s);
            assert_eq!(stable, expect, "tile {t}");
        }
        // Misaligned tilings prove nothing.
        assert!(model
            .tile_pattern(key, layer, stage, width, 12)
            .iter()
            .all(|&s| !s));
    }

    #[test]
    fn fine_granularity_reveals_more_redundancy() {
        // The Fig. 2(b) ordering: P(sim > 0.9) at granularity 8 must
        // exceed P(sim > 0.9) at full width.
        let scene = make_scene();
        let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let width = 256;
        let fine = syn.temporal_similarity_samples(4, Stage::FfnDownOut, width, 8);
        let coarse = syn.temporal_similarity_samples(4, Stage::FfnDownOut, width, width);
        let frac = |v: &[f32]| v.iter().filter(|&&s| s > 0.9).count() as f64 / v.len() as f64;
        assert!(
            frac(&fine) > frac(&coarse) + 0.1,
            "fine {:.3} vs coarse {:.3}",
            frac(&fine),
            frac(&coarse)
        );
    }

    /// The frame-buffered sampling returns exactly the samples of a
    /// loop that synthesises both rows of every pair, bit for bit, on
    /// both backends, at sub-row and whole-row granularity.
    #[test]
    fn temporal_samples_match_the_two_row_loop() {
        let scene = Scene::synthesize(SceneConfig {
            frames: 3,
            grid_h: 3,
            grid_w: 4,
            redundancy: profile(),
            seed: 5,
        });
        let (layer, stage, width) = (4, Stage::FfnDownOut, 48);
        for be in [backend::scalar_ref(), backend::simd()] {
            for granularity in [8, 20, width] {
                let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7).with_backend(be);
                let got = syn.temporal_similarity_samples(layer, stage, width, granularity);
                // The two-row loop: both rows of every pair synthesised.
                let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7).with_backend(be);
                let (mut prev, mut cur) = (vec![0.0f32; width], vec![0.0f32; width]);
                let slices: Vec<usize> = (0..width.div_ceil(granularity)).collect();
                let (mut pn, mut cn, mut cos) = (
                    vec![0.0f32; slices.len()],
                    vec![0.0; slices.len()],
                    vec![0.0; slices.len()],
                );
                let mut want = Vec::new();
                for f in 1..3 {
                    for p in 0..12 {
                        syn.token_row((f - 1) * 12 + p, layer, stage, &mut prev);
                        syn.token_row(f * 12 + p, layer, stage, &mut cur);
                        be.segment_norms(RowRef::F32(&prev), granularity, &slices, &mut pn);
                        be.segment_norms(RowRef::F32(&cur), granularity, &slices, &mut cn);
                        let (c, p) = (RowRef::F32(&cur), RowRef::F32(&prev));
                        be.segment_scores(c, p, granularity, &slices, &cn, &pn, &mut cos);
                        want.extend_from_slice(&cos);
                    }
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} at granularity {granularity}",
                    be.name()
                );
            }
        }
    }

    #[test]
    fn activations_matrix_matches_row_synthesis() {
        let scene = make_scene();
        let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let tokens = [3usize, 200, 77];
        let m = syn.activations(&tokens, 2, Stage::FfnAct, 64);
        let mut row = vec![0.0; 64];
        syn.token_row(200, 2, Stage::FfnAct, &mut row);
        assert_eq!(m.row(1), &row[..]);
    }

    #[test]
    fn recycled_buffer_synthesis_is_bit_identical() {
        let scene = make_scene();
        let mut fresh = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let mut reused = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let mut buf = Matrix::zeros(0, 0);
        // Drive the reused synthesiser through several (layer, stage,
        // shape) contexts; every call must match a fresh allocation.
        let calls = [
            (vec![0usize, 5, 9, 300], 2, Stage::PvOut, 64),
            (vec![1usize, 2], 2, Stage::FfnAct, 128),
            (vec![7usize, 8, 9], 4, Stage::OProjOut, 64),
            (vec![0usize], 4, Stage::PvOut, 32),
        ];
        for (tokens, layer, stage, width) in calls {
            reused.activations_into(&tokens, layer, stage, width, &mut buf);
            let expect = fresh.activations(&tokens, layer, stage, width);
            assert_eq!(buf, expect);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn width_must_be_group_aligned() {
        let scene = make_scene();
        let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let mut row = vec![0.0; 13];
        syn.token_row(0, 0, Stage::Embedding, &mut row);
    }

    #[test]
    fn fill_normals_matches_sequential_draws() {
        let mut batched = SplitMix64(123);
        let mut buf = vec![0.0f32; 19];
        batched.fill_normals_with(backend::active(), &mut buf);
        let mut sequential = SplitMix64(123);
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                sequential.next_normal().to_bits(),
                "value {i} diverged"
            );
        }
        // Both generators sit at the same stream position afterwards.
        assert_eq!(batched.next_u64(), sequential.next_u64());
    }

    #[test]
    fn splitmix_is_reproducible_and_normalish() {
        let mut rng = SplitMix64(42);
        let first = rng.next_u64();
        assert_eq!(SplitMix64(42).next_u64(), first);
        let mut rng = SplitMix64(7);
        let n = 4000;
        let mean: f64 = (0..n).map(|_| rng.next_normal() as f64).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.08, "mean {mean}");
    }
}
