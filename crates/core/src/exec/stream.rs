//! [`StreamSession`]: per-frame admission of an unbounded video feed
//! into the [`FocusService`].
//!
//! The paper's headline regime is *streaming* concentration — frames
//! arriving indefinitely — but a service that only accepts whole
//! pipeline runs forces the caller to chop an unbounded feed into
//! unrelated jobs: no state carries across frames, and nothing bounds
//! how far a fast producer runs ahead of the pool. A `StreamSession`
//! makes the **frame within a session** the unit of admission:
//!
//! * [`StreamSession::push_frame`] admits one pipeline graph per frame
//!   and returns a [`FrameHandle`] immediately; frames of the same
//!   session execute concurrently on the shared pool, interleaved with
//!   batch jobs and other sessions under the scheduler's weighted fair
//!   queue ([`Priority`] is the session's weight).
//! * A bounded **in-flight window** (`StreamConfig::window`) applies
//!   blocking backpressure: `push_frame` for frame `t + window` blocks
//!   until frame `t` has completed — a fast producer can never queue
//!   an unbounded feed ahead of the workers.
//! * **Warm per-session state** rides across frames: the retention
//!   plan (prune layers, measured-layer schedule, full-set position
//!   table) and the node topology over it are built once per feed
//!   geometry (once per session on a well-formed single-shape feed)
//!   and shared by every frame of that geometry, and each retired
//!   frame's scratch ring — the stage workspaces' workload-independent
//!   [`StageScratch`] — is reclaimed into a pool the next admitted
//!   frame draws from, so frame *t+1* skips re-deriving and
//!   re-allocating what frame *t* already established.
//!
//! **Determinism:** every frame's result is bit-identical to running
//! that frame's workload alone under
//! [`ExecMode::Serial`](crate::exec::ExecMode::Serial) — warm state is
//! plan + allocation reuse only, never value carry-over
//! (`tests/stream_sessions.rs` proves it property-style across
//! interleaved sessions, window sizes and worker counts).

use std::collections::VecDeque;
use std::sync::Arc;

use focus_sim::ArchConfig;
use focus_tensor::DataType;
use focus_vlm::Workload;

use focus_vlm::embedding::Stage;

use crate::exec::batch::BatchJob;
use crate::exec::graph::PipelineGraph;
use crate::exec::scheduler::{JobRun, Priority};
use crate::exec::service::{FocusService, JobHandle};
use crate::exec::stage::StageScratch;
use crate::pipeline::{FocusPipeline, PipelineResult};
use crate::session::{FrameWarm, SessionGeometry, SharedPlan};
use crate::sic::{TemporalCache, TemporalCacheConfig, TemporalSnapshot};

/// Shape of one streaming session.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Maximum frames in flight (≥ 1): `push_frame` blocks while the
    /// window is full, until the oldest frame completes.
    pub window: usize,
    /// The session's fair-queue weight class: every frame is admitted
    /// at this [`Priority`], so one saturating session and batch
    /// traffic share the pool at the weight ratio instead of starving
    /// each other.
    pub priority: Priority,
    /// Cross-frame temporal concentration: when set, the session keeps
    /// a [`TemporalCache`] of per-token metadata across frames — content
    /// signatures, anchor frames and stability memos, never activation
    /// bytes — and the gather stages resolve column tiles that provably
    /// replay their anchored frame to **carried** representatives
    /// instead of re-gathering them. Temporal frames chain cache state
    /// (frame *t+1* probes what frame *t* anchored), so the session
    /// runs them one at a time — the in-flight window effectively
    /// becomes 1. `None` (the default) keeps the stateless per-frame
    /// loop.
    ///
    /// **INT8 pipelines never carry.** The carry proof covers the
    /// synthesised bytes of a stable tile, but INT8 fake-quantisation
    /// scales each row by its absmax, and the absmax includes the
    /// row's noisy groups: a provably stable tile still changes bytes
    /// from frame to frame. An INT8 session therefore advances the
    /// cache's frame clock without signatures
    /// ([`TemporalCache::begin_frame`]), which carries nothing, and
    /// every frame is bit-identical to the per-frame loop.
    pub temporal: Option<TemporalCacheConfig>,
}

impl Default for StreamConfig {
    /// A two-frame window (mirroring the hardware's double-buffered
    /// activation stream) at [`Priority::Normal`] weight, without
    /// temporal concentration.
    fn default() -> Self {
        StreamConfig {
            window: 2,
            priority: Priority::Normal,
            temporal: None,
        }
    }
}

/// Point-in-time statistics of one [`StreamSession`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Frames admitted so far.
    pub frames_pushed: u64,
    /// Frames completed *and* reclaimed into the warm pool.
    pub frames_retired: u64,
    /// Frames currently in flight (admitted, not yet retired).
    pub frames_inflight: usize,
    /// The in-flight window bound.
    pub window: usize,
    /// Frames admitted with a recycled scratch ring (everything after
    /// the pool warms up — the first `window` frames allocate fresh
    /// and seed it).
    pub warm_reuses: u64,
    /// Times the feed's geometry diverged mid-session to a shape the
    /// session had **not** seen before, forcing a fresh retention-plan
    /// derivation. Zero on a well-formed single-shape feed; a steadily
    /// climbing value means the caller is funnelling unrelated feeds
    /// through one session and paying a cold start per frame.
    pub warm_rederives: u64,
    /// Mid-session geometry divergences resolved from the session's
    /// plan cache (a previously seen shape returned): the allocation
    /// pool still drops, but the plan derivation is skipped.
    pub plan_cache_hits: u64,
    /// Temporal-cache probes resolved from the previous frame (rows
    /// carried bit-exactly). Zero unless [`StreamConfig::temporal`].
    pub temporal_hits: u64,
    /// Temporal-cache probes that fell through to the per-frame gather
    /// path (unsigned token, changed signature, stale anchor, or an
    /// unstable column tile).
    pub temporal_misses: u64,
    /// Temporal-cache entries dropped by age-out or capacity pressure.
    pub temporal_evictions: u64,
    /// In-frame candidate comparisons the temporal cache made
    /// unnecessary (skipped gather work).
    pub gathers_skipped: u64,
}

/// A frame admitted but not yet retired: the session's own references
/// for window tracking and warm-state reclamation (independent of the
/// caller's [`FrameHandle`], which may be waited or dropped freely).
struct InflightFrame {
    graph: Arc<PipelineGraph>,
    run: Arc<JobRun>,
}

/// Completion handle of one admitted frame. Wait on it, poll it with
/// [`FrameHandle::try_wait`], or drop it — the frame runs to
/// completion on the pool either way, and the session's window and
/// warm-state reclamation never depend on the caller waiting.
pub struct FrameHandle {
    handle: JobHandle,
    frame: u64,
}

impl std::fmt::Debug for FrameHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameHandle")
            .field("frame", &self.frame)
            .field("job", &self.handle)
            .finish()
    }
}

impl FrameHandle {
    /// The session-local frame index (0-based admission order).
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// Whether the frame has finished (without blocking).
    pub fn is_done(&self) -> bool {
        self.handle.is_done()
    }

    /// Non-blocking completion probe: the frame's result if finished,
    /// the handle back otherwise (see [`JobHandle::try_wait`]).
    pub fn try_wait(self) -> Result<PipelineResult, FrameHandle> {
        let frame = self.frame;
        self.handle
            .try_wait()
            .map_err(|handle| FrameHandle { handle, frame })
    }

    /// Blocks until the frame completes and returns its result —
    /// bit-identical to running the frame's workload alone under
    /// [`ExecMode::Serial`](crate::exec::ExecMode::Serial). Re-raises
    /// the original payload if this frame's graph panicked (the
    /// session and the pool keep serving).
    pub fn wait(self) -> PipelineResult {
        self.handle.wait()
    }
}

/// A streaming session over a [`FocusService`]: per-frame admission
/// with a bounded in-flight window and warm cross-frame state. See the
/// module docs for the model; open one with [`StreamSession::open`].
pub struct StreamSession<'s> {
    service: &'s FocusService,
    pipeline: FocusPipeline,
    arch: ArchConfig,
    config: StreamConfig,
    /// The current feed shape's plan and topology: built for the
    /// first frame and shared by every frame of the same geometry;
    /// swapped (window drained, pool dropped) when the feed's geometry
    /// diverges mid-session.
    plan: Option<SharedPlan>,
    /// Every plan this session has built, one per geometry: a feed that
    /// alternates between a few shapes derives each plan and topology
    /// **once** (subsequent returns are
    /// [`SessionStats::plan_cache_hits`]). Linear scan — sessions see
    /// a handful of shapes at most.
    plans: Vec<SharedPlan>,
    /// The cross-frame temporal cache (geometry-bound; dropped with
    /// the plan on divergence). The session holds its own `Arc`; each
    /// admitted frame's graph gets a clone via [`FrameWarm`].
    temporal: Option<Arc<TemporalCache>>,
    /// Totals folded out of dropped temporal caches.
    temporal_acc: TemporalSnapshot,
    inflight: VecDeque<InflightFrame>,
    /// Retired frames' scratch rings, one entry per frame.
    pool: Vec<Vec<StageScratch>>,
    frames_pushed: u64,
    frames_retired: u64,
    warm_reuses: u64,
    warm_rederives: u64,
    plan_cache_hits: u64,
}

impl<'s> StreamSession<'s> {
    /// Opens a session: frames will run `pipeline` against `arch` on
    /// `service` (pass [`FocusService::global`] for the process-wide
    /// pool). Loop-schedule pipelines are admitted at the service's
    /// default graph depth, like any other submission.
    pub fn open(
        service: &'s FocusService,
        pipeline: FocusPipeline,
        arch: ArchConfig,
        config: StreamConfig,
    ) -> Self {
        let config = StreamConfig {
            window: config.window.max(1),
            ..config
        };
        service.session_opened();
        StreamSession {
            service,
            pipeline,
            arch,
            config,
            plan: None,
            plans: Vec::new(),
            temporal: None,
            temporal_acc: TemporalSnapshot::default(),
            inflight: VecDeque::new(),
            pool: Vec::new(),
            frames_pushed: 0,
            frames_retired: 0,
            warm_reuses: 0,
            warm_rederives: 0,
            plan_cache_hits: 0,
        }
    }

    /// The session's window/weight configuration.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// The feed geometry of the current retention plan (set by the
    /// first frame, updated if the feed diverges), if any frame
    /// arrived yet.
    pub fn geometry(&self) -> Option<SessionGeometry> {
        self.plan.as_ref().map(|shared| shared.plan.geometry())
    }

    /// The unified metrics snapshot of this session: every
    /// [`SessionStats`] field under `session.*`, plus the
    /// `session.scratch_bytes` gauge, through the same registry seam as
    /// [`FocusService::snapshot`].
    pub fn snapshot(&self) -> crate::obs::Snapshot {
        let stats = self.stats();
        let mut snap = crate::obs::Snapshot::new();
        snap.set_u64("session.frames_pushed", stats.frames_pushed);
        snap.set_u64("session.frames_retired", stats.frames_retired);
        snap.set_u64("session.frames_inflight", stats.frames_inflight as u64);
        snap.set_u64("session.window", stats.window as u64);
        snap.set_u64("session.warm_reuses", stats.warm_reuses);
        snap.set_u64("session.warm_rederives", stats.warm_rederives);
        snap.set_u64("session.plan_cache_hits", stats.plan_cache_hits);
        snap.set_u64("session.temporal.hits", stats.temporal_hits);
        snap.set_u64("session.temporal.misses", stats.temporal_misses);
        snap.set_u64("session.temporal.evictions", stats.temporal_evictions);
        snap.set_u64("session.temporal.gathers_skipped", stats.gathers_skipped);
        snap.set_u64("session.scratch_bytes", self.scratch_bytes() as u64);
        snap
    }

    /// Activation bytes held by the session's stage-scratch rings: the
    /// warm pool plus the in-flight frames' ring slots (a slot a
    /// running node has taken out is not counted, so the figure is
    /// exact once the session is flushed).
    fn scratch_bytes(&self) -> usize {
        let pooled: usize = self
            .pool
            .iter()
            .flatten()
            .map(|scratch| scratch.acts.held_bytes())
            .sum();
        let inflight: usize = self
            .inflight
            .iter()
            .map(|frame| frame.graph.scratch_bytes())
            .sum();
        pooled + inflight
    }

    /// Session statistics (window occupancy, warm-reuse and temporal
    /// counters), read straight from the session's counters and its
    /// temporal caches. Locks no in-flight frame's scratch ring.
    pub fn stats(&self) -> SessionStats {
        let t = self.temporal_totals();
        SessionStats {
            frames_pushed: self.frames_pushed,
            frames_retired: self.frames_retired,
            frames_inflight: self.inflight.len(),
            window: self.config.window,
            warm_reuses: self.warm_reuses,
            warm_rederives: self.warm_rederives,
            plan_cache_hits: self.plan_cache_hits,
            temporal_hits: t.hits,
            temporal_misses: t.misses,
            temporal_evictions: t.evictions,
            gathers_skipped: t.gathers_skipped,
        }
    }

    /// The live temporal cache, if temporal concentration is enabled
    /// and at least one frame has been admitted since the last
    /// geometry divergence (bounded-memory assertions in tests).
    pub fn temporal_cache(&self) -> Option<&TemporalCache> {
        self.temporal.as_deref()
    }

    /// Session-lifetime temporal totals: dropped caches' counters plus
    /// the live cache's.
    fn temporal_totals(&self) -> TemporalSnapshot {
        match &self.temporal {
            Some(cache) => self.temporal_acc.plus(&cache.counters().snapshot()),
            None => self.temporal_acc,
        }
    }

    /// Folds the live cache's totals into the accumulator and drops it
    /// (geometry divergence: the plane shapes no longer fit).
    fn drop_temporal(&mut self) {
        if let Some(cache) = self.temporal.take() {
            self.temporal_acc = self.temporal_acc.plus(&cache.counters().snapshot());
        }
    }

    /// Admits the next frame of the feed and returns its handle.
    ///
    /// Blocks only for backpressure: when `window` frames are already
    /// in flight, the call waits for the oldest to complete (then
    /// reclaims its scratch ring for this admission). The frame's
    /// result — through the returned handle — is bit-identical to
    /// running `workload` alone under
    /// [`ExecMode::Serial`](crate::exec::ExecMode::Serial).
    ///
    /// A frame whose geometry (layers, frame grid, scaled token count,
    /// measured-layer stride) differs from the session's current feed
    /// is **re-derived**, not rejected: the window drains, the warm
    /// pool is dropped (its shapes no longer fit) and the retention
    /// plan for this frame's shape is fetched from the session's plan
    /// cache — or freshly derived on a never-seen shape, counted in
    /// [`SessionStats::warm_rederives`] (cache returns count as
    /// [`SessionStats::plan_cache_hits`] instead). Results stay
    /// bit-identical to the serial loop either way; a climbing
    /// re-derive counter is the signal that the caller should open one
    /// session per feed.
    pub fn push_frame(&mut self, workload: Workload) -> FrameHandle {
        let geometry = SessionGeometry::of(&workload);
        let matches = self
            .plan
            .as_ref()
            .is_some_and(|shared| shared.plan.geometry() == geometry);
        let shared = if matches {
            self.plan.clone().expect("geometry just matched")
        } else {
            let diverged = self.plan.is_some();
            if diverged {
                // Mid-feed divergence: retire everything shaped like
                // the old feed before the new shape takes over. The
                // temporal cache is geometry-bound too.
                self.flush();
                self.pool.clear();
                self.drop_temporal();
            }
            let cached = self
                .plans
                .iter()
                .find(|shared| shared.plan.geometry() == geometry);
            let shared = match cached {
                Some(cached) => {
                    if diverged {
                        self.plan_cache_hits += 1;
                    }
                    cached.clone()
                }
                None => {
                    if diverged {
                        self.warm_rederives += 1;
                    }
                    let shared = SharedPlan::derive(&self.pipeline, &workload);
                    self.plans.push(shared.clone());
                    shared
                }
            };
            self.plan = Some(shared.clone());
            shared
        };

        let temporal = match self.config.temporal {
            Some(cfg) => {
                // Temporal frames chain value state — frame t+1 probes
                // what frame t committed — so drain the window before
                // admitting (the frame clock and age sweep must not
                // race an in-flight gather).
                self.flush();
                let cache = match &self.temporal {
                    Some(cache) => Arc::clone(cache),
                    None => {
                        let cache = Arc::new(TemporalCache::new(
                            cfg,
                            geometry.layers,
                            Stage::GATHER_POINTS.len(),
                            geometry.m_img,
                        ));
                        self.temporal = Some(Arc::clone(&cache));
                        cache
                    }
                };
                // Frame clock + age sweep + the proof inputs: the
                // scene key, per-token content signatures and the
                // workload's stability model are everything reconcile
                // needs to *prove* which column tiles replay the
                // anchored frame bit-for-bit (no bytes are compared).
                // The proof does not survive INT8's per-row scaling,
                // so INT8 frames run unsigned: nothing carries.
                match self.pipeline.dtype {
                    DataType::Fp16 => {
                        let (key, sigs) = workload.temporal_signatures();
                        cache.begin_frame_with(key, &sigs, workload.stability_model());
                    }
                    DataType::Int8 => cache.begin_frame(),
                }
                Some(cache)
            }
            None => None,
        };

        // Blocking backpressure: frame t + window waits for frame t.
        while self.inflight.len() >= self.config.window {
            let oldest = self.inflight.pop_front().expect("window is non-empty");
            self.retire(oldest);
        }

        let scratch = self.pool.pop();
        if scratch.is_some() {
            self.warm_reuses += 1;
        }
        let warm = FrameWarm {
            shared,
            scratch,
            temporal,
        };
        let job = BatchJob {
            pipeline: self.pipeline.clone(),
            workload,
            arch: self.arch.clone(),
        };
        let handle = self
            .service
            .submit_with(job, self.config.priority, None, Some(warm));
        let (graph, run) = handle.parts();
        self.inflight.push_back(InflightFrame { graph, run });
        let frame = self.frames_pushed;
        self.frames_pushed += 1;
        FrameHandle { handle, frame }
    }

    /// Blocks until every in-flight frame has completed, reclaiming
    /// their scratch rings. (Results are untouched — the caller's
    /// [`FrameHandle`]s still deliver them.)
    pub fn flush(&mut self) {
        while let Some(oldest) = self.inflight.pop_front() {
            self.retire(oldest);
        }
    }

    /// Waits for one frame and pulls its scratch ring into the warm
    /// pool. Completion includes skip-drained (panicked)
    /// frames: their scratch is reclaimed too — a slot the panicking
    /// node held is refilled fresh, and the rest is re-planned from
    /// zero by the next frame — so one bad frame never cools the
    /// session down.
    fn retire(&mut self, frame: InflightFrame) {
        frame.run.wait_done();
        self.pool.push(frame.graph.reclaim_scratch());
        self.frames_retired += 1;
    }
}

impl Drop for StreamSession<'_> {
    /// Closing a session drains its window (frames already admitted
    /// run to completion) and releases its service registration.
    fn drop(&mut self) {
        self.flush();
        self.service.session_closed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ServiceConfig, Topology};
    use focus_vlm::{DatasetKind, ModelKind, WorkloadScale};

    fn frame(stride: usize, seed: u64) -> Workload {
        let scale = WorkloadScale {
            measured_layer_stride: stride,
            ..WorkloadScale::tiny()
        };
        Workload::new(ModelKind::LlavaVideo7B, DatasetKind::VideoMme, scale, seed)
    }

    /// The topology of the newest admitted frame.
    fn newest_topology(session: &StreamSession<'_>) -> Arc<Topology> {
        let newest = session.inflight.back().expect("a frame in flight");
        Arc::clone(newest.graph.topology())
    }

    /// Frames of one geometry share one topology, and a geometry that
    /// returns from the plan cache reuses its cached topology.
    #[test]
    fn frames_share_their_geometry_topology() {
        let service = FocusService::new(ServiceConfig::with_threads(2));
        let config = StreamConfig {
            window: 2,
            ..StreamConfig::default()
        };
        let mut session = StreamSession::open(
            &service,
            FocusPipeline::paper(),
            ArchConfig::focus(),
            config,
        );
        let mut handles = vec![session.push_frame(frame(7, 0))];
        let first = newest_topology(&session);
        handles.push(session.push_frame(frame(7, 1)));
        assert!(Arc::ptr_eq(&first, &newest_topology(&session)));

        // A different stride is a different geometry: its own topology.
        handles.push(session.push_frame(frame(3, 2)));
        let other = newest_topology(&session);
        assert!(!Arc::ptr_eq(&first, &other));

        // The first shape returns: plan cache hit, same topology.
        handles.push(session.push_frame(frame(7, 3)));
        assert!(Arc::ptr_eq(&first, &newest_topology(&session)));
        let stats = session.stats();
        assert_eq!((stats.plan_cache_hits, stats.warm_rederives), (1, 1));
        for handle in handles {
            handle.wait();
        }
    }

    /// The typed stats and the registry agree: after a temporal stream
    /// with a geometry switch and a return, every [`SessionStats`]
    /// field equals its `session.*` key.
    #[test]
    fn typed_stats_equal_their_registry_keys() {
        let service = FocusService::new(ServiceConfig::with_threads(2));
        let config = StreamConfig {
            temporal: Some(TemporalCacheConfig::default()),
            ..StreamConfig::default()
        };
        let mut session = StreamSession::open(
            &service,
            FocusPipeline::paper(),
            ArchConfig::focus(),
            config,
        );
        for (stride, seed) in [(7, 0), (7, 0), (3, 1), (7, 0)] {
            session.push_frame(frame(stride, seed));
        }
        session.flush();
        let stats = session.stats();
        let snap = session.snapshot();
        let key = |name: &str| snap.u64(&format!("session.{name}"));
        assert_eq!(stats.frames_pushed, key("frames_pushed"));
        assert_eq!(stats.frames_retired, key("frames_retired"));
        assert_eq!(stats.frames_inflight as u64, key("frames_inflight"));
        assert_eq!(stats.window as u64, key("window"));
        assert_eq!(stats.warm_reuses, key("warm_reuses"));
        assert_eq!(stats.warm_rederives, key("warm_rederives"));
        assert_eq!(stats.plan_cache_hits, key("plan_cache_hits"));
        assert_eq!(stats.temporal_hits, key("temporal.hits"));
        assert_eq!(stats.temporal_misses, key("temporal.misses"));
        assert_eq!(stats.temporal_evictions, key("temporal.evictions"));
        assert_eq!(stats.gathers_skipped, key("temporal.gathers_skipped"));
        // Real work: every frame retired, one fresh derivation and one
        // plan-cache return, and temporal probes on both geometries.
        assert_eq!((stats.frames_pushed, stats.frames_retired), (4, 4));
        assert_eq!((stats.warm_rederives, stats.plan_cache_hits), (1, 1));
        assert!(stats.temporal_hits > 0 && stats.temporal_misses > 0);
        assert!(key("scratch_bytes") > 0);
    }
}
