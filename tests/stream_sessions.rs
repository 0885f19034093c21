//! The streaming session subsystem, end to end:
//!
//! * **Determinism** — interleaved `push_frame` across concurrent
//!   sessions is bit-identical to the serial per-frame loop, over
//!   frame counts × window sizes × worker counts (proptest).
//! * **Warm state** — after the window fills, every admitted frame
//!   reuses a retired frame's allocations, with results unchanged.
//! * **Failure isolation** — a panicking frame fails only its own
//!   handle; the session keeps admitting on reclaimed scratch and the
//!   service keeps serving bit-identical results.
//! * **Fairness** — a saturating stream of High-priority jobs must not
//!   stall a Low job beyond the fair queue's aging bound (regression
//!   for the strict-priority starvation ROADMAP item (k)).
//!
//! Every test sizes its own service (`ServiceConfig`), so a 1-CPU box
//! still exercises real concurrency.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use focus::core::exec::{
    BatchJob, ExecMode, FocusService, FrameHandle, JobHandle, Priority, ServiceConfig,
    StreamConfig, StreamSession,
};
use focus::core::pipeline::{FocusPipeline, PipelineResult};
use focus::core::sic::TemporalCacheConfig;
use focus::core::FocusConfig;
use focus::sim::ArchConfig;
use focus::tensor::DataType;
use focus::vlm::embedding::Stage;
use focus::vlm::scene::SceneStream;
use focus::vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};
use proptest::prelude::*;

fn frame_workload(session: u64, frame: u64) -> Workload {
    Workload::new(
        ModelKind::LlavaVideo7B,
        DatasetKind::VideoMme,
        WorkloadScale::tiny(),
        1000 * (session + 1) + 7 * frame,
    )
}

fn graph_pipeline() -> FocusPipeline {
    FocusPipeline::paper().with_exec_mode(ExecMode::Graph { depth: 2 })
}

fn serial_reference(workload: &Workload) -> PipelineResult {
    FocusPipeline::paper()
        .with_exec_mode(ExecMode::Serial)
        .run(workload, &ArchConfig::focus())
}

fn assert_identical(streamed: &PipelineResult, serial: &PipelineResult, what: &str) {
    // Bitwise equality on purpose: streaming admission promises the
    // *same* results as the serial per-frame loop, not similar ones.
    assert_eq!(streamed.sparsity(), serial.sparsity(), "{what}: sparsity");
    assert_eq!(streamed.accuracy, serial.accuracy, "{what}: accuracy");
    assert_eq!(streamed.work_items, serial.work_items, "{what}: work items");
    assert_eq!(streamed.layers, serial.layers, "{what}: layer stats");
    assert_eq!(streamed.sec_layers, serial.sec_layers, "{what}: SEC stats");
    assert_eq!(streamed.outcomes, serial.outcomes, "{what}: token outcomes");
    assert_eq!(
        (streamed.sic_comparisons, streamed.sic_matches),
        (serial.sic_comparisons, serial.sic_matches),
        "{what}: matcher counters"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline determinism claim of the subsystem: 2–3 sessions
    /// pushing interleaved frames through ONE shared service — warm
    /// scratch recycling, shared retention plans, windows applying
    /// backpressure mid-push — produce, frame by frame, exactly what
    /// the serial per-frame loop produces, at any worker count.
    #[test]
    fn interleaved_sessions_match_the_serial_per_frame_loop(
        frame_counts in proptest::collection::vec(1usize..4, 2..4),
        window in 1usize..4,
        threads in 1usize..4,
        priority_pick in 0usize..3,
    ) {
            let service = FocusService::new(ServiceConfig {
            threads,
            max_inflight_nodes: 4096,
        });
        let mut sessions: Vec<StreamSession<'_>> = (0..frame_counts.len())
            .map(|_| {
                StreamSession::open(
                    &service,
                    graph_pipeline(),
                    ArchConfig::focus(),
                    StreamConfig {
                        window,
                        priority: Priority::ALL[priority_pick],
                        temporal: None,
                    },
                )
            })
            .collect();

        // Round-robin interleaving: session 0 frame 0, session 1
        // frame 0, ..., session 0 frame 1, ... — pushes block on their
        // own session's window while other sessions' frames run.
        let mut handles: Vec<Vec<FrameHandle>> =
            (0..frame_counts.len()).map(|_| Vec::new()).collect();
        let max_frames = *frame_counts.iter().max().unwrap();
        for frame in 0..max_frames as u64 {
            for (sid, session) in sessions.iter_mut().enumerate() {
                if (frame as usize) < frame_counts[sid] {
                    handles[sid].push(session.push_frame(frame_workload(sid as u64, frame)));
                }
            }
        }

        for (sid, session_handles) in handles.into_iter().enumerate() {
            for (fid, handle) in session_handles.into_iter().enumerate() {
                prop_assert_eq!(handle.frame(), fid as u64);
                let streamed = handle.wait();
                let serial = serial_reference(&frame_workload(sid as u64, fid as u64));
                assert_identical(
                    &streamed,
                    &serial,
                    &format!(
                        "session {sid} frame {fid}, window {window}, {threads} workers"
                    ),
                );
            }
        }
        drop(sessions);
        assert_eq!(service.stats().sessions_open, 0);
    }
}

/// Warm-state bookkeeping: with a window of 2, the first two frames
/// allocate fresh and every later admission draws a retired frame's
/// allocations from the pool — and the recycled frames are still
/// bit-identical to the serial loop.
#[test]
fn warm_scratch_recycles_across_frames() {
    let service = FocusService::new(ServiceConfig {
        threads: 2,
        max_inflight_nodes: 4096,
    });
    let mut session = StreamSession::open(
        &service,
        graph_pipeline(),
        ArchConfig::focus(),
        StreamConfig {
            window: 2,
            priority: Priority::Normal,
            temporal: None,
        },
    );
    assert_eq!(service.stats().sessions_open, 1);

    const FRAMES: u64 = 5;
    let mut handles = VecDeque::new();
    for frame in 0..FRAMES {
        handles.push_back(session.push_frame(frame_workload(0, frame)));
        assert!(
            session.stats().frames_inflight <= 2,
            "window must bound in-flight frames: {:?}",
            session.stats()
        );
    }
    // Drain via the non-blocking probe, as a stream poller would.
    let mut results = Vec::new();
    while let Some(handle) = handles.pop_front() {
        match handle.try_wait() {
            Ok(result) => results.push(result),
            Err(handle) => {
                handles.push_front(handle);
                std::thread::yield_now();
            }
        }
    }
    for (frame, streamed) in results.iter().enumerate() {
        let serial = serial_reference(&frame_workload(0, frame as u64));
        assert_identical(streamed, &serial, &format!("warm frame {frame}"));
    }

    session.flush();
    let stats = session.stats();
    assert_eq!(stats.frames_pushed, FRAMES);
    assert_eq!(stats.frames_retired, FRAMES);
    assert_eq!(stats.frames_inflight, 0);
    // Window 2: frames 0 and 1 allocate fresh; frames 2.. reuse the
    // scratch of the frame their admission retired.
    assert_eq!(
        stats.warm_reuses,
        FRAMES - 2,
        "every post-window admission must draw from the warm pool: {stats:?}"
    );
    let geometry = session.geometry().expect("frames arrived");
    assert_eq!(geometry.m_img, frame_workload(0, 0).image_tokens_scaled());

    drop(session);
    assert_eq!(service.stats().sessions_open, 0);
}

/// One bad frame never cools the session down: frames whose graph
/// panics (a zero `tile_m` divides by zero in the first `Gather`
/// node's m-tile sweep) re-raise the payload through their own
/// handles, the session keeps admitting on scratch reclaimed from the
/// failed frames — the right count per frame, or admission would
/// assert — and a healthy job served afterwards is bit-identical to
/// the serial reference.
#[test]
fn panicking_frames_keep_the_session_warm() {
    let service = FocusService::new(ServiceConfig::with_threads(2));
    let mut broken = FocusConfig::paper();
    broken.tile_m = 0;
    let mut session = StreamSession::open(
        &service,
        FocusPipeline::with_config(broken).with_exec_mode(ExecMode::Graph { depth: 2 }),
        ArchConfig::focus(),
        StreamConfig::default(),
    );
    const FRAMES: u64 = 5;
    let mut warm_reuses = Vec::new();
    for frame in 0..FRAMES {
        let handle = session.push_frame(frame_workload(0, frame));
        warm_reuses.push(session.stats().warm_reuses);
        let payload = catch_unwind(AssertUnwindSafe(|| handle.wait()))
            .expect_err("a zero tile height must fail the frame");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("divide by zero"),
            "frame {frame}: {message:?}"
        );
    }
    // Window 2: frames 0 and 1 allocate fresh; every later admission
    // draws the scratch a failed frame gave back.
    assert_eq!(warm_reuses, vec![0, 0, 1, 2, 3]);
    session.flush();
    let stats = session.stats();
    assert_eq!(
        (stats.frames_pushed, stats.frames_retired),
        (FRAMES, FRAMES)
    );
    drop(session);

    let workload = frame_workload(1, 0);
    let job = BatchJob {
        pipeline: graph_pipeline(),
        workload: workload.clone(),
        arch: ArchConfig::focus(),
    };
    let healthy = service.submit(job, Priority::Normal).wait();
    assert_identical(
        &healthy,
        &serial_reference(&workload),
        "healthy job after panicking frames",
    );
}

/// A frame whose geometry (model grid/layer count) diverges from the
/// session's feed re-derives the warm state — window drained, pool
/// dropped, fresh retention plan — instead of panicking, and the
/// divergent frame's result is still bit-identical to the serial loop.
#[test]
fn geometry_divergence_rederives_warm_state() {
    let service = FocusService::new(ServiceConfig {
        threads: 2,
        max_inflight_nodes: 4096,
    });
    let mut session = StreamSession::open(
        &service,
        graph_pipeline(),
        ArchConfig::focus(),
        StreamConfig::default(),
    );
    let first = session.push_frame(frame_workload(0, 0));
    // A different model: different grid and layer count.
    let stray = Workload::new(
        ModelKind::MiniCpmV26,
        DatasetKind::VideoMme,
        WorkloadScale::tiny(),
        1,
    );
    let stray_serial = serial_reference(&stray);
    let second = session.push_frame(stray.clone());
    assert_eq!(
        session.geometry().expect("frames arrived").m_img,
        stray.image_tokens_scaled(),
        "the plan must now describe the divergent feed"
    );

    assert_identical(
        &first.wait(),
        &serial_reference(&frame_workload(0, 0)),
        "pre-divergence frame",
    );
    assert_identical(&second.wait(), &stray_serial, "divergent frame");

    // And the session keeps streaming on the new shape, warm again.
    let third = session.push_frame(stray.clone());
    assert_identical(&third.wait(), &stray_serial, "post-divergence frame");

    session.flush();
    let stats = session.stats();
    assert_eq!(
        stats.warm_rederives, 1,
        "one divergence, one re-derive: {stats:?}"
    );
    assert_eq!(stats.frames_pushed, 3);
    assert_eq!(stats.frames_retired, 3);
}

/// The stride is geometry too: a frame with identical dimensions but a
/// different `measured_layer_stride` cannot run the *first* frame's
/// measurement schedule (the shared plan bakes the stride in), so it
/// re-derives like any other shape divergence — and the old shape's
/// pooled allocations must not leak into the new shape's frames
/// (`warm_reuses` restarts from a cold pool).
#[test]
fn stride_divergence_rederives_and_drops_the_pool() {
    let service = FocusService::new(ServiceConfig {
        threads: 2,
        max_inflight_nodes: 4096,
    });
    let mut session = StreamSession::open(
        &service,
        graph_pipeline(),
        ArchConfig::focus(),
        StreamConfig {
            window: 1,
            priority: Priority::Normal,
            temporal: None,
        },
    );
    // Two same-shape frames: with window 1 the second reuses the
    // first's allocations.
    session.push_frame(frame_workload(0, 0)).wait();
    session.push_frame(frame_workload(0, 1)).wait();
    assert_eq!(session.stats().warm_reuses, 1);

    // Same model, same dimensions — only the measured-layer stride
    // differs from WorkloadScale::tiny()'s.
    let mut dense_scale = WorkloadScale::tiny();
    dense_scale.measured_layer_stride = 1;
    let stray = Workload::new(
        ModelKind::LlavaVideo7B,
        DatasetKind::VideoMme,
        dense_scale,
        1,
    );
    let streamed = session.push_frame(stray.clone()).wait();
    assert_identical(
        &streamed,
        &serial_reference(&stray),
        "re-derived stride frame",
    );

    session.flush();
    let stats = session.stats();
    assert_eq!(
        stats.warm_rederives, 1,
        "stride divergence must re-derive: {stats:?}"
    );
    assert_eq!(
        stats.warm_reuses, 1,
        "the old shape's pool must be dropped, not reused: {stats:?}"
    );
}

/// Frame `index` of a correlated scene stream over the session's
/// fixed feed shape.
fn stream_workload(stream: SceneStream, index: u64) -> Workload {
    Workload::stream_frame(
        ModelKind::LlavaVideo7B,
        DatasetKind::VideoMme,
        WorkloadScale::tiny(),
        stream,
        index,
    )
}

fn temporal_config(window: usize, temporal: Option<TemporalCacheConfig>) -> StreamConfig {
    StreamConfig {
        window,
        priority: Priority::Normal,
        temporal,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The temporal-correctness contract, both directions:
    ///
    /// 1. Temporal concentration **enabled** on an *uncorrelated*
    ///    stream (`correlation = 0`): every frame is an independent
    ///    clip, so every cache probe misses on byte inequality and
    ///    each frame stays bit-identical to the serial per-frame loop
    ///    — the cache can only ever carry perfect replays.
    /// 2. Temporal concentration **disabled** on a *correlated*
    ///    stream: the stateless loop must not care how correlated the
    ///    feed is.
    #[test]
    fn temporal_off_or_uncorrelated_matches_the_serial_loop(
        frames in 2u64..4,
        seed in 1u64..1_000,
        corr_pick in 0usize..3,
    ) {
            let service = FocusService::new(ServiceConfig {
            threads: 2,
            max_inflight_nodes: 4096,
        });

        // Leg 1: cache on, correlation 0.
        let stream = SceneStream { seed, correlation: 0.0 };
        let mut session = StreamSession::open(
            &service,
            graph_pipeline(),
            ArchConfig::focus(),
            temporal_config(2, Some(TemporalCacheConfig::default())),
        );
        for f in 0..frames {
            let streamed = session.push_frame(stream_workload(stream, f)).wait();
            let serial = serial_reference(&stream_workload(stream, f));
            assert_identical(&streamed, &serial, &format!("temporal corr-0 frame {f}"));
        }
        session.flush();
        let stats = session.stats();
        prop_assert!(stats.temporal_hits == 0, "independent clips must never carry: {stats:?}");
        prop_assert!(stats.temporal_misses > 0, "the cache was probed: {stats:?}");
        prop_assert_eq!(stats.gathers_skipped, 0);
        drop(session);

        // Leg 2: cache off, correlated stream.
        let correlation = [0.5, 0.9, 1.0][corr_pick];
        let stream = SceneStream { seed, correlation };
        let mut session = StreamSession::open(
            &service,
            graph_pipeline(),
            ArchConfig::focus(),
            temporal_config(2, None),
        );
        for f in 0..frames {
            let streamed = session.push_frame(stream_workload(stream, f)).wait();
            let serial = serial_reference(&stream_workload(stream, f));
            assert_identical(
                &streamed,
                &serial,
                &format!("cache-off corr-{correlation} frame {f}"),
            );
        }
        session.flush();
        let stats = session.stats();
        prop_assert!(
            stats.temporal_hits + stats.temporal_misses == 0,
            "no cache, no probes: {stats:?}"
        );
    }
}

/// The payoff path: on a fully correlated stream (one scene timeline,
/// static content re-synthesising bit-identically) the cache carries
/// rows from frame 2 on and skips their in-frame candidate comparisons.
#[test]
fn correlated_stream_carries_rows_and_skips_gathers() {
    let service = FocusService::new(ServiceConfig {
        threads: 2,
        max_inflight_nodes: 4096,
    });
    let stream = SceneStream {
        seed: 42,
        correlation: 1.0,
    };
    let mut session = StreamSession::open(
        &service,
        graph_pipeline(),
        ArchConfig::focus(),
        temporal_config(2, Some(TemporalCacheConfig::default())),
    );
    // Frame 0 fills a cold cache: still bit-identical to the serial
    // loop (nothing to carry yet).
    let first = session.push_frame(stream_workload(stream, 0)).wait();
    assert_identical(
        &first,
        &serial_reference(&stream_workload(stream, 0)),
        "cold temporal frame",
    );
    for f in 1..4 {
        session.push_frame(stream_workload(stream, f)).wait();
    }
    session.flush();
    let stats = session.stats();
    assert!(
        stats.temporal_hits > 0,
        "a correlated stream must carry rows: {stats:?}"
    );
    assert!(
        stats.gathers_skipped > 0,
        "carried rows must skip in-frame comparisons: {stats:?}"
    );
}

/// A geometry divergence drops the session's temporal cache, and the
/// session's totals must keep what that cache counted: across a
/// mid-feed stride switch on a correlated FP16 stream the reported
/// hits and misses never decrease, and after the switch they equal the
/// dropped cache's counters plus the new cache's.
#[test]
fn temporal_totals_survive_a_geometry_divergence() {
    let service = FocusService::new(ServiceConfig::with_threads(2));
    let stream = SceneStream {
        seed: 42,
        correlation: 0.9,
    };
    let mut session = StreamSession::open(
        &service,
        graph_pipeline(),
        ArchConfig::focus(),
        temporal_config(1, Some(TemporalCacheConfig::default())),
    );
    let mut dense_scale = WorkloadScale::tiny();
    dense_scale.measured_layer_stride = 1;
    let frame_at = |scale: WorkloadScale, index: u64| {
        Workload::stream_frame(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            scale,
            stream,
            index,
        )
    };

    let mut last = (0, 0);
    let mut push = |session: &mut StreamSession<'_>, workload: Workload| {
        session.push_frame(workload).wait();
        session.flush();
        let stats = session.stats();
        let now = (stats.temporal_hits, stats.temporal_misses);
        assert!(
            now.0 >= last.0 && now.1 >= last.1,
            "temporal totals went backwards: {last:?} -> {now:?}"
        );
        last = now;
    };

    for f in 0..4 {
        push(&mut session, frame_at(WorkloadScale::tiny(), f));
    }
    let dropped = session
        .temporal_cache()
        .expect("temporal session")
        .counters()
        .snapshot();
    assert!(dropped.hits > 0, "the first geometry carried: {dropped:?}");

    for f in 4..8 {
        push(&mut session, frame_at(dense_scale, f));
    }
    let stats = session.stats();
    assert_eq!(stats.warm_rederives, 1, "one divergence: {stats:?}");
    let live = session
        .temporal_cache()
        .expect("temporal session")
        .counters()
        .snapshot();
    assert!(live.hits > 0, "the second geometry carried: {live:?}");
    assert_eq!(
        (stats.temporal_hits, stats.temporal_misses),
        (dropped.hits + live.hits, dropped.misses + live.misses),
        "session totals = dropped cache + live cache"
    );
}

/// The carry hit rate orders with scene correlation: on 12-frame
/// streams of one feed (seed 42, window 1), correlated streams carry,
/// and more so as correlation rises (0.1194 at 0.5 and 0.2090 at 0.9
/// when first pinned). The correlation-0 case, which carries nothing,
/// is `temporal_off_or_uncorrelated_matches_the_serial_loop`'s.
#[test]
fn temporal_hit_rate_grows_with_scene_correlation() {
    let service = FocusService::new(ServiceConfig::with_threads(2));
    let hit_rate = |correlation: f64| {
        let stream = SceneStream {
            seed: 42,
            correlation,
        };
        let mut session = StreamSession::open(
            &service,
            graph_pipeline(),
            ArchConfig::focus(),
            temporal_config(1, Some(TemporalCacheConfig::default())),
        );
        let handles: Vec<FrameHandle> = (0..12)
            .map(|f| session.push_frame(stream_workload(stream, f)))
            .collect();
        for handle in handles {
            handle.wait();
        }
        session.flush();
        let stats = session.stats();
        let probes = stats.temporal_hits + stats.temporal_misses;
        assert!(probes > 0, "the cache was probed: {stats:?}");
        stats.temporal_hits as f64 / probes as f64
    };
    let [h05, h09] = [0.5, 0.9].map(hit_rate);
    assert!(
        0.0 < h05 && h05 <= h09,
        "hit rate must be positive and grow with correlation: c05={h05} c09={h09}"
    );
}

/// INT8 sessions stand aside from temporal carry: INT8
/// fake-quantisation scales each row by an absmax its noisy groups take
/// part in, so the synthesis-level carry proof does not cover INT8
/// bytes. A temporal INT8 session on a fully correlated stream —
/// where an FP16 session carries from frame 1 on — carries nothing
/// and stays bit-identical to the serial per-frame loop.
#[test]
fn int8_temporal_sessions_carry_nothing_and_match_the_serial_loop() {
    let service = FocusService::new(ServiceConfig::with_threads(2));
    let stream = SceneStream {
        seed: 11,
        correlation: 1.0,
    };
    let mut pipeline = graph_pipeline();
    pipeline.dtype = DataType::Int8;
    let mut session = StreamSession::open(
        &service,
        pipeline.clone(),
        ArchConfig::focus(),
        temporal_config(2, Some(TemporalCacheConfig::default())),
    );
    let serial = pipeline.with_exec_mode(ExecMode::Serial);
    for f in 0..3 {
        let streamed = session.push_frame(stream_workload(stream, f)).wait();
        let reference = serial.run(&stream_workload(stream, f), &ArchConfig::focus());
        assert_identical(&streamed, &reference, &format!("INT8 temporal frame {f}"));
    }
    session.flush();
    let stats = session.stats();
    assert_eq!(stats.temporal_hits, 0, "INT8 must never carry: {stats:?}");
    assert_eq!(stats.gathers_skipped, 0);
    assert!(stats.temporal_misses > 0, "the cache was probed: {stats:?}");
}

/// The `session.scratch_bytes` gauge: the activation bytes a session's
/// stage-scratch ring holds. Every slot is sized by the largest layer
/// it served: ring slot `k` of a gather stage serves the measured
/// layers whose ordinal is `k` mod depth, at `retained × stage width`
/// elements. An FP16 stream stores 2-byte elements; the gauge equals
/// that sum exactly, stays flat from frame 10 on, and is exactly half
/// of the same feed's INT8 (f32) ring.
#[test]
fn scratch_gauge_counts_the_fp16_ring_and_stays_flat() {
    const DEPTH: usize = 2;
    const FRAMES: u64 = 30;
    let service = FocusService::new(ServiceConfig::with_threads(2));
    let stream = SceneStream {
        seed: 5,
        correlation: 0.9,
    };
    let frame = |f| {
        Workload::stream_frame(
            ModelKind::MiniCpmV26,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            stream,
            f,
        )
    };
    let gauge = |session: &StreamSession<'_>| session.snapshot().u64("session.scratch_bytes");
    let pipeline = FocusPipeline::paper().with_exec_mode(ExecMode::Graph { depth: DEPTH });
    let mut session = StreamSession::open(
        &service,
        pipeline.clone(),
        ArchConfig::focus(),
        temporal_config(1, Some(TemporalCacheConfig::default())),
    );
    let mut slot_rows = [0usize; DEPTH];
    let mut at_frame_10 = 0;
    for f in 0..FRAMES {
        let result = session.push_frame(frame(f)).wait();
        let measured = result.layers.iter().filter(|l| l.measured);
        for (ordinal, layer) in measured.enumerate() {
            let rows = &mut slot_rows[ordinal % DEPTH];
            *rows = (*rows).max(layer.retained_out);
        }
        if f == 10 {
            session.flush();
            at_frame_10 = gauge(&session);
        }
    }
    session.flush();
    let fp16 = gauge(&session);
    let scaled = frame(0).scaled_model().clone();
    let expected: usize = Stage::GATHER_POINTS
        .iter()
        .flat_map(|stage| slot_rows.map(|rows| rows * stage.width(&scaled) * 2))
        .sum();
    assert_eq!(fp16, expected as u64, "Σ slots rows × width × 2 B");
    assert_eq!(at_frame_10, fp16, "the gauge stays flat after warm-up");

    let mut int8 = pipeline;
    int8.dtype = DataType::Int8;
    let mut session = StreamSession::open(
        &service,
        int8,
        ArchConfig::focus(),
        temporal_config(1, None),
    );
    for f in 0..3 {
        session.push_frame(frame(f)).wait();
    }
    session.flush();
    assert_eq!(
        gauge(&session),
        2 * fp16,
        "the f32 ring holds twice the bytes"
    );
}

/// Bounded memory: a cache capped far below the token count never
/// grows past its configured capacity, no matter how many correlated
/// frames stream through — overflow shows up as evictions, not growth.
#[test]
fn temporal_cache_memory_stays_bounded() {
    let service = FocusService::new(ServiceConfig {
        threads: 2,
        max_inflight_nodes: 4096,
    });
    let cfg = TemporalCacheConfig {
        capacity: 16,
        max_age: 4,
        refresh_after: 8,
    };
    let stream = SceneStream {
        seed: 9,
        correlation: 1.0,
    };
    let mut session = StreamSession::open(
        &service,
        graph_pipeline(),
        ArchConfig::focus(),
        temporal_config(1, Some(cfg)),
    );
    // MiniCPM's 64-token single view keeps each frame cheap enough to
    // stream hundreds of them; 64 tokens >> 16 slots keeps the cache
    // under constant capacity pressure.
    const FRAMES: u64 = 200;
    for f in 0..FRAMES {
        let wl = Workload::stream_frame(
            ModelKind::MiniCpmV26,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            stream,
            f,
        );
        session.push_frame(wl).wait();
        let cache = session.temporal_cache().expect("temporal is enabled");
        assert!(
            cache.max_live() <= cache.capacity(),
            "frame {f}: live {} > capacity {}",
            cache.max_live(),
            cache.capacity()
        );
    }
    let cache = session.temporal_cache().expect("temporal is enabled");
    assert_eq!(cache.frames(), FRAMES as u32);
    assert_eq!(cache.capacity(), 16, "capped below the 64-token feed");
    let stats = session.stats();
    assert!(
        stats.temporal_evictions > 0,
        "capacity pressure must evict: {stats:?}"
    );
}

/// The plan cache (satellite): a feed that alternates between two
/// shapes derives each plan **once** — returning to a seen shape is a
/// `plan_cache_hits`, not another `warm_rederives`.
#[test]
fn returning_to_a_seen_geometry_hits_the_plan_cache() {
    let service = FocusService::new(ServiceConfig {
        threads: 2,
        max_inflight_nodes: 4096,
    });
    let mut session = StreamSession::open(
        &service,
        graph_pipeline(),
        ArchConfig::focus(),
        temporal_config(1, None),
    );
    let shape_a = || frame_workload(0, 0);
    let shape_b = || {
        Workload::new(
            ModelKind::MiniCpmV26,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            1,
        )
    };
    let a1 = session.push_frame(shape_a()).wait();
    session.push_frame(shape_b()).wait();
    let a2 = session.push_frame(shape_a()).wait();
    session.flush();
    let stats = session.stats();
    assert_eq!(
        stats.warm_rederives, 1,
        "only the never-seen shape B derives: {stats:?}"
    );
    assert_eq!(
        stats.plan_cache_hits, 1,
        "returning to shape A is a cache hit: {stats:?}"
    );
    // Same workload, cached vs freshly derived plan: same bits.
    assert_identical(&a2, &a1, "replanned shape-A frame");
}

/// Starvation regression (ROADMAP (k)): a **saturating** stream of
/// High jobs — a producer keeps several in flight, topping up as they
/// complete, for as long as the Low job lives — must not stall a Low
/// job beyond the fair queue's aging bound. Under the old
/// strict-priority admission lanes the Low job ran only once the
/// entire stream stopped (here: the producer's 60-job cap), which
/// trips the bound assertion.
#[test]
fn high_flood_does_not_starve_a_low_job() {
    let service = FocusService::new(ServiceConfig {
        threads: 2,
        max_inflight_nodes: 4096,
    });
    let job = |seed: u64| BatchJob {
        pipeline: graph_pipeline(),
        workload: Workload::new(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            seed,
        ),
        arch: ArchConfig::focus(),
    };
    // The bound: while the Low job's ~hundreds of nodes age through
    // the queue, High work passes at the weight ratio (4:1) plus the
    // concurrently admitted backlog — a dozen-ish High jobs, never the
    // whole stream. 30 is that with generous scheduling slack, and far
    // below the 60-job cap a starved Low would wait out.
    const HIGH_CAP: u64 = 60;
    const BOUND: u64 = 30;
    let stop = AtomicBool::new(false);
    let high_completed = AtomicU64::new(0);

    std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let mut inflight: VecDeque<JobHandle> = VecDeque::new();
            let mut submitted = 0u64;
            while !stop.load(Ordering::SeqCst) && submitted < HIGH_CAP {
                while inflight.len() >= 3 {
                    inflight.pop_front().unwrap().wait();
                    high_completed.fetch_add(1, Ordering::SeqCst);
                }
                inflight.push_back(service.submit(job(submitted), Priority::High));
                submitted += 1;
            }
            for handle in inflight {
                handle.wait();
                high_completed.fetch_add(1, Ordering::SeqCst);
            }
            submitted
        });

        // Let the flood establish, then submit the Low job into it.
        while high_completed.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        let low_workload = job(10_000).workload;
        let before = high_completed.load(Ordering::SeqCst);
        let low = service.submit(job(10_000), Priority::Low);
        let low_result = low.wait();
        let during = high_completed.load(Ordering::SeqCst) - before;
        stop.store(true, Ordering::SeqCst);
        let submitted = producer.join().unwrap();

        assert!(
            during <= BOUND,
            "Low job waited through {during} High jobs (bound {BOUND}, stream of {submitted})"
        );
        // Fairness must not cost correctness: the aged-through result
        // is still bit-identical to the serial loop.
        let serial = serial_reference(&low_workload);
        assert_identical(&low_result, &serial, "aged Low job");
    });
}
