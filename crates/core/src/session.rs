//! Per-session state for streaming video feeds: what a
//! [`crate::exec::StreamSession`] keeps **warm across frames** so
//! frame *t+1* skips re-deriving (and re-allocating) what frame *t*
//! already established.
//!
//! The paper's headline regime is *streaming* concentration — frames
//! of a video feed arriving indefinitely. The serving layer admits one
//! pipeline graph per frame ([`crate::exec::StreamSession::push_frame`]);
//! this module holds the session-lifetime state those per-frame graphs
//! share:
//!
//! * [`SessionGeometry`] — the feed's fixed shape (layers, frame grid,
//!   scaled token count). Every frame of a session must match it; the
//!   session derives it from the first frame and rejects strays.
//! * [`RetentionPlan`] — the measurement plan: which layers prune
//!   (retention schedule), which layers the gather stages measure, and
//!   the full-retained-set position table. Pure functions of
//!   `(config, geometry)`, identical for every frame, derived once per
//!   session and shared by `Arc`.
//! * [`FrameWarm`] — the recycled allocations handed to the next
//!   admitted frame: the workload-independent halves of the stage
//!   workspaces ([`StageScratch`]: activation matrices + gather
//!   lookups/plans) and the measure-phase accumulator buffers.
//!
//! **Determinism contract:** warm state is allocation + plan reuse
//! only — every value is reset or re-derived per frame — so a frame
//! run through a warm session is bit-identical to the same workload
//! run cold under [`crate::exec::ExecMode::Serial`]
//! (`tests/stream_sessions.rs` proves it property-style).

use std::borrow::Cow;
use std::sync::Arc;

use focus_vlm::Workload;

use crate::config::FocusConfig;
use crate::exec::StageScratch;
use crate::pipeline::measure::MeasureBuffers;
use crate::sic::{ConvLayouter, Fhw, TemporalCache};

/// The fixed shape of one streaming feed: what must agree across every
/// frame of a session for warm state to be reusable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionGeometry {
    /// Transformer layers at measured scale.
    pub layers: usize,
    /// Patch rows per frame.
    pub grid_h: usize,
    /// Patch columns per frame.
    pub grid_w: usize,
    /// Image tokens at measured scale (`frames_scaled × grid`).
    pub m_img: usize,
    /// Measured-layer stride of the workload scale (≥ 1). Part of the
    /// geometry because the shared [`RetentionPlan`] bakes it into the
    /// measured-layer schedule: a frame with the same dimensions but a
    /// different stride must be rejected, not silently measured on the
    /// first frame's schedule.
    pub measured_layer_stride: usize,
}

impl SessionGeometry {
    /// The geometry of `workload`'s feed.
    pub fn of(workload: &Workload) -> Self {
        let scaled = workload.scaled_model();
        SessionGeometry {
            layers: scaled.layers,
            grid_h: scaled.grid_h,
            grid_w: scaled.grid_w,
            m_img: workload.image_tokens_scaled(),
            measured_layer_stride: workload.scale().measured_layer_stride.max(1),
        }
    }
}

/// The session-lifetime measurement plan: which layers prune, which
/// layers measure, and the positions of the full retained set — all
/// pure functions of the pipeline configuration and the feed geometry,
/// so one derivation serves every frame (and, outside sessions, one
/// derivation per run, exactly as before).
pub(crate) struct RetentionPlan {
    geometry: SessionGeometry,
    /// Per-layer: do the gather stages measure here? (Every stride-th
    /// layer, the final layer, and every pruning layer — when SIC is
    /// enabled at all.)
    measured: Vec<bool>,
    /// `(frame, row, col)` of every token in the full retained set
    /// `0..m_img`, in token order: the positions every frame's
    /// unpruned early layers would otherwise re-derive token by token.
    full_positions: Vec<Option<Fhw>>,
    /// Maps pruned retained sets to positions.
    layouter: ConvLayouter,
}

impl RetentionPlan {
    /// Derives the plan for `config` over `workload`'s geometry.
    pub(crate) fn derive(config: &FocusConfig, workload: &Workload) -> Self {
        let geometry = SessionGeometry::of(workload);
        let stride = geometry.measured_layer_stride;
        let prune_layers: Vec<usize> = (0..geometry.layers)
            .filter(|&l| config.schedule.prune_at(l).is_some())
            .collect();
        let measured: Vec<bool> = (0..geometry.layers)
            .map(|l| {
                config.enable_sic
                    && (l.is_multiple_of(stride)
                        || l + 1 == geometry.layers
                        || prune_layers.contains(&l))
            })
            .collect();
        let layouter = ConvLayouter::new(geometry.grid_h, geometry.grid_w);
        let full_positions: Vec<Option<Fhw>> = (0..geometry.m_img)
            .map(|t| Some(layouter.position_of(t)))
            .collect();
        RetentionPlan {
            geometry,
            measured,
            full_positions,
            layouter,
        }
    }

    /// The feed geometry this plan was derived for.
    pub(crate) fn geometry(&self) -> SessionGeometry {
        self.geometry
    }

    /// Whether the gather stages measure at `layer`.
    pub(crate) fn measures_at(&self, layer: usize) -> bool {
        self.measured[layer]
    }

    /// The `(frame, row, col)` positions of `retained`. The full
    /// retained set borrows the plan's table (derived once per run — or
    /// once per session); only genuinely pruned sets decode here.
    pub(crate) fn positions(&self, retained: &[usize]) -> Cow<'_, [Option<Fhw>]> {
        if retained.len() == self.geometry.m_img && retained.iter().copied().eq(0..retained.len()) {
            Cow::Borrowed(&self.full_positions)
        } else {
            retained
                .iter()
                .map(|&t| Some(self.layouter.position_of(t)))
                .collect()
        }
    }
}

/// Warm state donated to one admitted frame: the shared plan plus
/// whatever recycled allocations the session has reclaimed from
/// completed frames (absent for the first `window` frames, which
/// allocate fresh and seed the pool).
pub(crate) struct FrameWarm {
    /// The session's shared measurement plan.
    pub(crate) plan: Arc<RetentionPlan>,
    /// Recycled workload-independent stage scratch, one entry per
    /// `(gather stage, ring slot)` — or `None` to allocate fresh.
    pub(crate) scratch: Option<Vec<StageScratch>>,
    /// Recycled measure-accumulator buffers, or `None` for fresh.
    pub(crate) measure: Option<MeasureBuffers>,
    /// The session's cross-frame temporal cache, when temporal
    /// concentration is enabled. The session keeps its own `Arc`
    /// clone; the graph only borrows it for the frame's gathers.
    pub(crate) temporal: Option<Arc<TemporalCache>>,
}
