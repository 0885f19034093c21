//! Cross-frame temporal concentration: the per-session carry cache.
//!
//! Streaming VLM frames are highly correlated — static content
//! re-synthesises to *bit-identical* activation vectors at the same
//! grid position frame after frame. The [`TemporalCache`] exploits
//! that: per `(layer, gather-stage)` plane it resolves a column tile
//! whose bytes provably replay the previous frame to a **carried**
//! representative (a third entry class next to unique/matched, see
//! [`SimilarityMap::push_carried`](crate::sic::SimilarityMap::push_carried))
//! instead of re-scoring its in-frame candidates.
//!
//! ## Carry by proof, not by compare
//!
//! Carried tiles are bit-exact replays (fidelity 1.0), but the cache
//! never stores or compares row bytes. A tile carries iff three
//! deterministic facts hold:
//!
//! 1. the token's content signature ([`TokenSig`]) is unchanged since
//!    the row last took the full gather path (tracked per token by
//!    [`TemporalCache::begin_frame_with`]);
//! 2. that full gather — the row's *anchor* — is less than
//!    `refresh_after` frames old;
//! 3. the [`StabilityModel`] marks every embedding group of the tile
//!    stable for the signature's content key.
//!
//! Together these *prove* byte equality with the anchored frame: the
//! deterministic part of a row is a pure function of the signature,
//! and stable groups carry no per-frame noise (the theorem is
//! exercised bit-for-bit in `focus-vlm`'s
//! `stable_tiles_of_sig_stable_tokens_replay_bitwise_across_stream_frames`).
//! A stream with zero inter-frame correlation re-keys every frame, so
//! nothing ever carries and the pipeline stays bit-identical to the
//! per-frame loop (property-tested in `tests/stream_sessions.rs`).
//! Dropping the byte plane removes the cache's memory footprint
//! (per-slot metadata only) and all commit/compare traffic from the
//! hot path.
//!
//! ## Lifecycle
//!
//! * [`TemporalCache::begin_frame_with`] advances the frame clock,
//!   age-sweeps entries not seen for `max_age` frames, and diffs the
//!   frame's signatures against the last signed frame (a key change —
//!   a stream cut — invalidates every token and the pattern memos).
//! * A carried frame refreshes an entry's `last_seen` but **not** its
//!   anchor; once the anchor is `refresh_after` frames old the row
//!   takes one full gather pass and re-anchors (staleness refresh).
//! * Capacity overflow evicts the least-recently-seen token.
//!
//! ## Hot path
//!
//! The cache is consulted through one [`TemporalCache::reconcile`]
//! pass per `(layer, stage, m-tile)`: the plane is locked once, every
//! row resolves its slot once, and tile decisions read a per-plane
//! memo of [`StabilityModel::tile_pattern`] keyed by content (steady
//! state: one hash-map probe per row, no allocation). The pass fills a
//! [`CarryMask`] that the per-column-tile gather sweeps read without
//! touching the cache at all — no per-row locking, slot lookups or
//! atomics inside the gather inner loop.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use focus_tensor::{Element, Matrix};
use focus_vlm::embedding::{StabilityModel, Stage};
use focus_vlm::scene::{ContentKey, TokenSig};

/// Marker for an empty `slot_of` / `tokens` / `CarryMask::slots` entry.
const NONE: u32 = u32::MAX;

/// Upper bound on memoised tile patterns per plane; epoch churn in
/// long streams retires content keys, so the memo is flushed rather
/// than grown without bound.
const TILE_MEMO_CAP: usize = 8192;

/// Temporal-cache policy knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemporalCacheConfig {
    /// Maximum cached tokens per `(layer, stage)` plane.
    pub capacity: usize,
    /// Entries not probed for this many frames age out at the next
    /// [`TemporalCache::begin_frame`].
    pub max_age: u32,
    /// A row whose anchor (last full gather under the current
    /// signature) is this many frames old takes one full gather pass
    /// and re-anchors, bounding how long a tile can be carried.
    pub refresh_after: u32,
}

impl Default for TemporalCacheConfig {
    fn default() -> Self {
        TemporalCacheConfig {
            capacity: 4096,
            max_age: 4,
            refresh_after: 8,
        }
    }
}

/// Cumulative cache event counters, read by the owning session through
/// the cache itself.
#[derive(Debug, Default)]
pub struct TemporalCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    gathers_skipped: AtomicU64,
}

/// A point-in-time copy of [`TemporalCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TemporalSnapshot {
    /// Column tiles resolved from the cache (carried).
    pub hits: u64,
    /// Column tiles probed but re-gathered (no signature, unanchored,
    /// stale, or not provably stable).
    pub misses: u64,
    /// Entries dropped by age-out or capacity pressure.
    pub evictions: u64,
    /// In-frame candidate comparisons avoided by carried rows.
    pub gathers_skipped: u64,
}

impl TemporalSnapshot {
    /// Element-wise sum (folding a dropped cache's totals into a
    /// session accumulator).
    pub fn plus(&self, other: &TemporalSnapshot) -> TemporalSnapshot {
        TemporalSnapshot {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            gathers_skipped: self.gathers_skipped + other.gathers_skipped,
        }
    }

    /// Fraction of probes that hit (0.0 when nothing was probed).
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

impl TemporalCounters {
    /// Reads all four counters.
    pub fn snapshot(&self) -> TemporalSnapshot {
        TemporalSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            gathers_skipped: self.gathers_skipped.load(Ordering::Relaxed),
        }
    }
}

/// Per-m-tile carry decisions, filled by [`TemporalCache::reconcile`]
/// and read by the column-tile gather sweeps. Owned by the recycled
/// [`GatherScratch`](crate::sic::GatherScratch) so steady-state frames
/// reuse its buffers.
#[derive(Clone, Debug, Default)]
pub struct CarryMask {
    col_tiles: usize,
    /// Tile-local row → plane slot (`NONE` when the row has no cached
    /// entry this frame).
    slots: Vec<u32>,
    /// `local * col_tiles + col_tile` → carried?
    carried: Vec<bool>,
}

impl CarryMask {
    /// An empty mask; [`TemporalCache::reconcile`] sizes it.
    pub fn new() -> Self {
        CarryMask::default()
    }

    fn reset(&mut self, rows: usize, col_tiles: usize) {
        self.col_tiles = col_tiles;
        self.slots.clear();
        self.slots.resize(rows, NONE);
        self.carried.clear();
        self.carried.resize(rows * col_tiles, false);
    }

    /// A mask over `rows × col_tiles` carrying exactly the `(row,
    /// col_tile)` pairs `carried` selects; every row's cache slot is its
    /// row index.
    #[cfg(test)]
    pub(crate) fn from_fn(
        rows: usize,
        col_tiles: usize,
        mut carried: impl FnMut(usize, usize) -> bool,
    ) -> Self {
        let mut mask = CarryMask::new();
        mask.reset(rows, col_tiles);
        for row in 0..rows {
            mask.slots[row] = row as u32;
            for ct in 0..col_tiles {
                mask.carried[row * col_tiles + ct] = carried(row, ct);
            }
        }
        mask
    }

    /// Every carry flag, row-major: `flags()[row * col_tiles + col_tile]`.
    #[inline]
    pub(crate) fn flags(&self) -> &[bool] {
        &self.carried
    }

    /// The carried slot of tile-local `row` at `col_tile`, or `None`
    /// when the row must take the normal gather path there.
    #[inline]
    pub fn carried(&self, row: usize, col_tile: usize) -> Option<u32> {
        if self.carried[row * self.col_tiles + col_tile] {
            Some(self.slots[row])
        } else {
            None
        }
    }
}

/// One `(layer, stage)` cache plane. `width == 0` means the plane has
/// not been touched yet; it sizes itself on first
/// [`TemporalCache::reconcile`]. Per-slot state is metadata only —
/// carried bytes live in the previous frame's replay, never here.
#[derive(Debug, Default)]
struct Plane {
    width: usize,
    col_tiles: usize,
    /// token → slot (`NONE` = absent). Indexed by absolute token.
    slot_of: Vec<u32>,
    /// slot → token (`NONE` = free).
    tokens: Vec<u32>,
    /// slot → frame the token was last probed.
    last_seen: Vec<u32>,
    /// slot → frame the row last took the full gather path (0 =
    /// never). The carry proof requires the anchor to post-date the
    /// token's last signature change and to be under `refresh_after`
    /// frames old.
    anchor: Vec<u32>,
    /// Content key → per-column-tile provable stability under the
    /// current signature key's [`StabilityModel`] (flushed on key
    /// change).
    stable_tiles: HashMap<ContentKey, Vec<bool>>,
    free: Vec<u32>,
    live: usize,
}

impl Plane {
    fn init(&mut self, capacity: usize, tokens: usize, width: usize, col_tiles: usize) {
        self.width = width;
        self.col_tiles = col_tiles;
        self.slot_of = vec![NONE; tokens];
        self.tokens = vec![NONE; capacity];
        self.last_seen = vec![0; capacity];
        self.anchor = vec![0; capacity];
        self.free = (0..capacity as u32).rev().collect();
        self.live = 0;
    }

    fn evict_slot(&mut self, slot: usize) {
        let token = self.tokens[slot];
        debug_assert_ne!(token, NONE);
        self.slot_of[token as usize] = NONE;
        self.tokens[slot] = NONE;
        self.anchor[slot] = 0;
        self.free.push(slot as u32);
        self.live -= 1;
    }

    /// Allocates a slot for `token`, evicting the least-recently-seen
    /// entry (ties broken toward the lowest token) when full. Returns
    /// `(slot, evicted)`.
    fn alloc(&mut self, token: usize) -> (usize, bool) {
        let mut evicted = false;
        if self.free.is_empty() {
            let victim = (0..self.tokens.len())
                .filter(|&s| self.tokens[s] != NONE)
                .min_by_key(|&s| (self.last_seen[s], self.tokens[s]))
                .expect("capacity > 0 and no free slot implies a live entry");
            self.evict_slot(victim);
            evicted = true;
        }
        let slot = self.free.pop().expect("slot freed above") as usize;
        self.slot_of[token] = slot as u32;
        self.tokens[slot] = token as u32;
        self.anchor[slot] = 0;
        (slot, evicted)
    }
}

/// The per-session cross-frame cache: one plane per
/// `(layer, gather-stage)`, a frame clock, the signature record and
/// shared counters.
#[derive(Debug)]
pub struct TemporalCache {
    cfg: TemporalCacheConfig,
    stages: usize,
    tokens: usize,
    planes: Vec<Mutex<Plane>>,
    frame: AtomicU32,
    counters: TemporalCounters,
    /// Signature record (written only between frames, read by
    /// concurrent reconciles).
    sigs: RwLock<SigState>,
    /// token → frame its signature last moved (0 = no signature
    /// information; such tokens never carry). Read lock-free by
    /// concurrent [`TemporalCache::reconcile`] passes.
    sig_changed_at: Vec<AtomicU32>,
}

/// The last signatures seen, updated by
/// [`TemporalCache::begin_frame_with`].
#[derive(Debug, Default)]
struct SigState {
    /// The scene identity key the signatures are valid under (`None`
    /// until the first signed frame). A key change invalidates every
    /// token at once (a stream cut re-seeds the whole scene).
    key: Option<u64>,
    /// The stability law of the current key's synthesis universe.
    model: Option<StabilityModel>,
    sigs: Vec<TokenSig>,
}

impl TemporalCache {
    /// A cache for `layers × stages` gather points over at most
    /// `tokens` distinct token indices.
    pub fn new(cfg: TemporalCacheConfig, layers: usize, stages: usize, tokens: usize) -> Self {
        assert!(cfg.capacity > 0, "temporal cache capacity must be > 0");
        assert!(cfg.refresh_after > 0, "refresh_after must be > 0");
        TemporalCache {
            cfg,
            stages,
            tokens,
            planes: (0..layers * stages).map(|_| Mutex::default()).collect(),
            frame: AtomicU32::new(0),
            counters: TemporalCounters::default(),
            sigs: RwLock::default(),
            sig_changed_at: (0..tokens).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// The policy in effect.
    pub fn config(&self) -> &TemporalCacheConfig {
        &self.cfg
    }

    /// The shared event counters.
    pub fn counters(&self) -> &TemporalCounters {
        &self.counters
    }

    /// Advances the frame clock and age-sweeps every plane: entries
    /// not seen for more than `max_age` frames are evicted. Called by
    /// the owning session before each frame is admitted (temporal
    /// sessions run one frame at a time, so this never races a
    /// gather). Without the signature update of
    /// [`TemporalCache::begin_frame_with`] nothing ever carries.
    pub fn begin_frame(&self) {
        let frame = self.frame.fetch_add(1, Ordering::SeqCst) + 1;
        if frame == 1 {
            return;
        }
        for plane in &self.planes {
            let mut p = plane.lock().unwrap();
            if p.width == 0 {
                continue;
            }
            for slot in 0..p.tokens.len() {
                if p.tokens[slot] != NONE && frame - p.last_seen[slot] > self.cfg.max_age {
                    p.evict_slot(slot);
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// [`TemporalCache::begin_frame`] plus the signature update:
    /// records which tokens' synthesis-visible content ([`TokenSig`])
    /// moved between the previous signed frame and this one, and the
    /// [`StabilityModel`] governing the new frame's synthesis. `key`
    /// identifies the scene universe the signatures and the model were
    /// drawn from (workload seed + model + dataset); a key change — a
    /// stream cut — marks every token changed at once and flushes the
    /// per-plane stability memos (patterns are seeded per segment).
    ///
    /// [`TemporalCache::reconcile`] carries a tile only when the
    /// signature record proves its bytes replay the anchored frame;
    /// see the module docs for the three-fact proof.
    pub fn begin_frame_with(&self, key: u64, sigs: &[TokenSig], model: StabilityModel) {
        self.begin_frame();
        assert_eq!(
            sigs.len(),
            self.tokens,
            "one signature per cached token index"
        );
        let frame = self.frame.load(Ordering::SeqCst);
        let mut state = self.sigs.write().unwrap();
        let key_moved = state.key != Some(key);
        state.key = Some(key);
        state.model = Some(model);
        if key_moved {
            state.sigs.clear();
            for plane in &self.planes {
                plane.lock().unwrap().stable_tiles.clear();
            }
        }
        if state.sigs.is_empty() {
            state.sigs.extend_from_slice(sigs);
            for changed in &self.sig_changed_at {
                changed.store(frame, Ordering::Relaxed);
            }
            return;
        }
        for (t, sig) in sigs.iter().enumerate() {
            if state.sigs[t] != *sig {
                state.sigs[t] = *sig;
                self.sig_changed_at[t].store(frame, Ordering::Relaxed);
            }
        }
    }

    /// Frames admitted so far.
    pub fn frames(&self) -> u32 {
        self.frame.load(Ordering::SeqCst)
    }

    /// The effective per-plane capacity.
    pub fn capacity(&self) -> usize {
        self.cfg.capacity.min(self.tokens)
    }

    /// The largest live-entry count across planes (bounded-memory
    /// assertions in tests).
    pub fn max_live(&self) -> usize {
        self.planes
            .iter()
            .map(|p| p.lock().unwrap().live)
            .max()
            .unwrap_or(0)
    }

    /// Settles one m-tile of `acts` (rows `row_start ..
    /// row_start + row_count`, column tiles of `v_len`) against the
    /// `(layer, stage)` plane in a single locked pass and fills `mask`
    /// with the carry decisions. The activation bytes are never read —
    /// `acts` only shapes the plane.
    ///
    /// Per row: the slot is resolved **once** (allocating, and possibly
    /// evicting the LRU entry, on first sight of the token). A row
    /// whose signature moved this frame — or whose anchor is missing,
    /// pre-signature or `refresh_after` frames old — takes the full
    /// gather path and re-anchors. Otherwise each column tile carries
    /// iff the stability memo proves it bit-stable for the row's
    /// content key. Rows whose token lies outside the plane (text
    /// rows) and rows without signature information never carry.
    ///
    /// Counters are batched locally and folded into the shared atomics
    /// once per call.
    #[allow(clippy::too_many_arguments)]
    pub fn reconcile<E: Element>(
        &self,
        layer: usize,
        stage: usize,
        acts: &Matrix<E>,
        row_start: usize,
        row_count: usize,
        v_len: usize,
        tokens: &[usize],
        mask: &mut CarryMask,
    ) {
        let width = acts.cols();
        let col_tiles = width.div_ceil(v_len.max(1)).max(1);
        assert!(
            row_start + row_count <= acts.rows(),
            "row range out of bounds"
        );
        assert!(tokens.len() >= row_start + row_count, "tokens too short");
        mask.reset(row_count, col_tiles);

        let stage_kind = Stage::GATHER_POINTS[stage];
        let mut plane = self.planes[layer * self.stages + stage].lock().unwrap();
        if plane.width == 0 {
            plane.init(self.capacity(), self.tokens, width, col_tiles);
        }
        assert_eq!(plane.width, width, "stage width changed between frames");
        assert_eq!(plane.col_tiles, col_tiles, "column tiling changed");
        let p = &mut *plane;
        let frame = self.frame.load(Ordering::SeqCst);
        let sig_state = self.sigs.read().unwrap();
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);

        for local in 0..row_count {
            let token = tokens[row_start + local];
            if token >= p.slot_of.len() {
                // Out-of-range token (text rows): plain gather.
                misses += col_tiles as u64;
                continue;
            }
            let changed = self.sig_changed_at[token].load(Ordering::Relaxed);
            if changed == 0 {
                // No signature record: the carry proof is unavailable,
                // so the row always takes the plain gather path.
                misses += col_tiles as u64;
                continue;
            }
            let slot = match p.slot_of[token] {
                NONE => {
                    let (slot, evicted) = p.alloc(token);
                    if evicted {
                        evictions += 1;
                    }
                    p.live += 1;
                    slot
                }
                s => s as usize,
            };
            let anchor = p.anchor[slot];
            let anchored =
                changed != frame && anchor >= changed && frame - anchor < self.cfg.refresh_after;
            if !anchored {
                // Signature moved this frame, or the anchor is missing,
                // pre-signature (eviction, retention gap) or stale: one
                // full gather pass, which anchors the row for carries
                // from the very next frame.
                p.anchor[slot] = frame;
                p.last_seen[slot] = frame;
                misses += col_tiles as u64;
                continue;
            }
            let key = sig_state.sigs[token].primary;
            if !p.stable_tiles.contains_key(&key) {
                if p.stable_tiles.len() >= TILE_MEMO_CAP {
                    p.stable_tiles.clear();
                }
                let model = sig_state.model.expect("signed tokens imply a model");
                let pattern = model.tile_pattern(key, layer, stage_kind, width, v_len);
                p.stable_tiles.insert(key, pattern);
            }
            let tiles = &p.stable_tiles[&key];
            mask.slots[local] = slot as u32;
            for (ct, &stable) in tiles.iter().enumerate() {
                if stable {
                    mask.carried[local * col_tiles + ct] = true;
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            p.last_seen[slot] = frame;
        }
        drop(sig_state);
        drop(plane);

        for (atomic, local) in [
            (&self.counters.hits, hits),
            (&self.counters.misses, misses),
            (&self.counters.evictions, evictions),
        ] {
            if local > 0 {
                atomic.fetch_add(local, Ordering::Relaxed);
            }
        }
    }

    /// Records `n` planned in-frame comparisons avoided by carried rows
    /// (batched by the matrix-level gather, once per matrix).
    pub fn add_skipped(&self, n: u64) {
        if n > 0 {
            self.counters
                .gathers_skipped
                .fetch_add(n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_vlm::dataset::RedundancyProfile;
    use focus_vlm::embedding::GROUP;

    fn model() -> StabilityModel {
        StabilityModel::new(
            RedundancyProfile {
                stable_fraction: 0.6,
                noise_sigma: 0.3,
                motion_speed: 0.2,
                scene_cut_prob: 0.0,
                object_count: 2,
                object_radius: 1.5,
                bg_texture_var: 0.4,
                relevance_concentration: 0.3,
            },
            4,
            42,
        )
    }

    /// A `Scene{epoch}` key whose single-GROUP tile at plane (0,
    /// [`Stage::GATHER_POINTS`][0], width 8) is provably stable
    /// (resp. unstable), found by probing the model — tests never
    /// hardcode hash outcomes.
    fn epoch_with(stable: bool, skip: u32) -> u32 {
        let m = model();
        (0..100_000)
            .filter(|&e| {
                m.tile_pattern(
                    ContentKey::Scene { epoch: e },
                    0,
                    Stage::GATHER_POINTS[0],
                    GROUP,
                    GROUP,
                )[0] == stable
            })
            .nth(skip as usize)
            .expect("both tile classes occur")
    }

    fn sig(epoch: u32) -> TokenSig {
        TokenSig {
            primary: ContentKey::Scene { epoch },
            secondary: None,
        }
    }

    fn cache(capacity: usize, max_age: u32, refresh_after: u32) -> TemporalCache {
        TemporalCache::new(
            TemporalCacheConfig {
                capacity,
                max_age,
                refresh_after,
            },
            1,
            1,
            64,
        )
    }

    /// Reconciles one width-[`GROUP`] row per token at plane (0, 0)
    /// and returns the mask.
    fn settle(c: &TemporalCache, tokens: &[usize]) -> CarryMask {
        let m = Matrix::zeros(tokens.len(), GROUP);
        let mut mask = CarryMask::new();
        c.reconcile(0, 0, &m, 0, tokens.len(), GROUP, tokens, &mut mask);
        mask
    }

    #[test]
    fn stable_tiles_carry_one_frame_after_anchoring() {
        let c = cache(16, 4, 8);
        let sigs = vec![sig(epoch_with(true, 0)); 64];
        // Frame 1: every signature is new → full gather, which anchors.
        c.begin_frame_with(1, &sigs, model());
        assert_eq!(settle(&c, &[7]).carried(0, 0), None, "nothing to replay");
        assert_eq!(c.max_live(), 1, "the full gather anchors the row");
        // Frame 2: signature held and the anchor is fresh → carry.
        c.begin_frame_with(1, &sigs, model());
        assert!(settle(&c, &[7]).carried(0, 0).is_some());
        let s = c.counters().snapshot();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn unstable_tiles_never_carry() {
        let c = cache(16, 4, 8);
        let sigs = vec![sig(epoch_with(false, 0)); 64];
        for _ in 0..3 {
            c.begin_frame_with(1, &sigs, model());
            assert_eq!(settle(&c, &[7]).carried(0, 0), None);
        }
        let s = c.counters().snapshot();
        assert_eq!((s.hits, s.misses), (0, 3));
    }

    #[test]
    fn column_tiles_carry_independently() {
        // Find a key whose width-16 row splits into one stable and one
        // unstable GROUP-wide tile, in either order.
        let m = model();
        let pattern = |e: u32| {
            m.tile_pattern(
                ContentKey::Scene { epoch: e },
                0,
                Stage::GATHER_POINTS[0],
                2 * GROUP,
                GROUP,
            )
        };
        let epoch = (0..100_000)
            .find(|&e| {
                let p = pattern(e);
                p[0] != p[1]
            })
            .expect("mixed tiles occur");
        let expect = pattern(epoch);
        let c = cache(16, 4, 8);
        let sigs = vec![sig(epoch); 64];
        c.begin_frame_with(1, &sigs, model());
        let settle2 = |c: &TemporalCache| {
            let acts = Matrix::zeros(1, 2 * GROUP);
            let mut mask = CarryMask::new();
            c.reconcile(0, 0, &acts, 0, 1, GROUP, &[3], &mut mask);
            mask
        };
        settle2(&c);
        c.begin_frame_with(1, &sigs, model());
        let mask = settle2(&c);
        assert_eq!(mask.carried(0, 0).is_some(), expect[0]);
        assert_eq!(mask.carried(0, 1).is_some(), expect[1]);
    }

    #[test]
    fn stale_anchors_refresh_and_re_anchor() {
        let c = cache(16, 100, 3);
        let sigs = vec![sig(epoch_with(true, 0)); 64];
        c.begin_frame_with(1, &sigs, model()); // frame 1: anchor
        settle(&c, &[9]);
        for _ in 0..2 {
            c.begin_frame_with(1, &sigs, model());
            assert!(settle(&c, &[9]).carried(0, 0).is_some());
        }
        // Frame 4: the anchor (1) is refresh_after (3) frames old →
        // full gather + re-anchor.
        c.begin_frame_with(1, &sigs, model());
        assert_eq!(
            settle(&c, &[9]).carried(0, 0),
            None,
            "stale anchor must refresh"
        );
        c.begin_frame_with(1, &sigs, model());
        assert!(settle(&c, &[9]).carried(0, 0).is_some());
    }

    #[test]
    fn unseen_entries_age_out() {
        let c = cache(16, 2, 100);
        let sigs = vec![sig(epoch_with(true, 0)); 64];
        c.begin_frame_with(1, &sigs, model());
        settle(&c, &[3]);
        assert_eq!(c.max_live(), 1);
        for _ in 0..2 {
            c.begin_frame_with(1, &sigs, model()); // token 3 not reconciled
        }
        assert_eq!(c.max_live(), 1, "within max_age it survives");
        c.begin_frame_with(1, &sigs, model());
        assert_eq!(c.max_live(), 0, "past max_age it is swept");
        assert_eq!(c.counters().snapshot().evictions, 1);
    }

    #[test]
    fn capacity_evicts_least_recently_seen() {
        let c = cache(2, 100, 100);
        let sigs = vec![sig(epoch_with(true, 0)); 64];
        c.begin_frame_with(1, &sigs, model());
        settle(&c, &[0, 1]);
        c.begin_frame_with(1, &sigs, model());
        // Touch token 1 (carry) and insert token 2 → token 0 is LRU.
        let mask = settle(&c, &[1, 2]);
        assert!(mask.carried(0, 0).is_some());
        assert_eq!(c.max_live(), 2);
        assert_eq!(c.counters().snapshot().evictions, 1);
        c.begin_frame_with(1, &sigs, model());
        let mask = settle(&c, &[0, 2]);
        assert_eq!(mask.carried(0, 0), None, "token 0 was evicted");
        assert!(mask.carried(1, 0).is_some());
    }

    #[test]
    fn planes_are_independent() {
        // A key provably stable at plane (0, stage 1), width 8.
        let m = model();
        let epoch = (0..100_000)
            .find(|&e| {
                m.tile_pattern(
                    ContentKey::Scene { epoch: e },
                    0,
                    Stage::GATHER_POINTS[1],
                    GROUP,
                    GROUP,
                )[0]
            })
            .expect("stable tiles occur");
        let c = TemporalCache::new(TemporalCacheConfig::default(), 2, 2, 8);
        let sigs = vec![sig(epoch); 8];
        let settle_at = |layer: usize, stage: usize| {
            let acts = Matrix::zeros(1, GROUP);
            let mut mask = CarryMask::new();
            c.reconcile(layer, stage, &acts, 0, 1, GROUP, &[0], &mut mask);
            mask.carried(0, 0).is_some()
        };
        c.begin_frame_with(1, &sigs, model());
        settle_at(0, 1);
        c.begin_frame_with(1, &sigs, model());
        assert!(settle_at(0, 1), "anchored plane carries");
        assert!(!settle_at(1, 1), "other planes are unanchored");
        assert!(!settle_at(0, 0));
    }

    #[test]
    fn text_tokens_never_enter_the_cache() {
        let c = cache(16, 4, 8);
        let sigs = vec![sig(epoch_with(true, 0)); 64];
        c.begin_frame_with(1, &sigs, model());
        // Token 999 is outside the 64-token plane: plain miss, no slot.
        settle(&c, &[999]);
        assert_eq!(c.max_live(), 0);
        c.begin_frame_with(1, &sigs, model());
        assert_eq!(settle(&c, &[999]).carried(0, 0), None);
        assert_eq!(c.counters().snapshot().hits, 0);
    }

    #[test]
    fn unsigned_frames_never_carry() {
        // Without begin_frame_with there is no signature record and no
        // proof — the cache stands aside entirely.
        let c = cache(16, 4, 8);
        for _ in 0..3 {
            c.begin_frame();
            assert_eq!(settle(&c, &[7]).carried(0, 0), None);
        }
        assert_eq!(c.max_live(), 0, "unsigned rows never allocate slots");
        assert_eq!(c.counters().snapshot().hits, 0);
    }

    #[test]
    fn changed_signatures_invalidate_the_anchor() {
        let c = cache(16, 4, 8);
        let mut sigs = vec![sig(epoch_with(true, 0)); 64];
        c.begin_frame_with(1, &sigs, model());
        settle(&c, &[5]);
        c.begin_frame_with(1, &sigs, model());
        assert!(settle(&c, &[5]).carried(0, 0).is_some());
        // Frame 3: the signature moves (to another provably stable
        // key) → the anchor is stale, one full gather re-anchors.
        sigs[5] = sig(epoch_with(true, 1));
        c.begin_frame_with(1, &sigs, model());
        assert_eq!(settle(&c, &[5]).carried(0, 0), None);
        // Frame 4: the new signature held → carry again.
        c.begin_frame_with(1, &sigs, model());
        assert!(settle(&c, &[5]).carried(0, 0).is_some());
        let s = c.counters().snapshot();
        assert_eq!((s.hits, s.misses), (2, 2));
    }

    #[test]
    fn key_change_invalidates_every_signature() {
        let c = cache(16, 4, 8);
        let sigs = vec![sig(epoch_with(true, 0)); 64];
        c.begin_frame_with(1, &sigs, model());
        settle(&c, &[3]);
        // Same signatures under a new key (a stream cut): anchors must
        // not carry across universes.
        c.begin_frame_with(2, &sigs, model());
        assert_eq!(settle(&c, &[3]).carried(0, 0), None);
        assert_eq!(c.counters().snapshot().hits, 0);
    }

    #[test]
    fn snapshot_sum_and_hit_rate() {
        let a = TemporalSnapshot {
            hits: 3,
            misses: 1,
            evictions: 0,
            gathers_skipped: 10,
        };
        let b = TemporalSnapshot {
            hits: 9,
            misses: 3,
            evictions: 2,
            gathers_skipped: 30,
        };
        let sum = a.plus(&b);
        assert_eq!(sum.hits, 12);
        assert_eq!(sum.gathers_skipped, 40);
        assert!((b.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(TemporalSnapshot::default().hit_rate(), 0.0);
    }
}
