//! The observability layer's headline guarantee, end to end:
//! **tracing is bit-invisible**. A run with span recording on must
//! produce exactly the results of the same run with recording off —
//! across exec modes (serial, graph), worker counts and
//! pipeline depths (proptest) — because spans are pure metadata: the
//! recorder observes timestamps around node bodies and the `Timed`
//! kernel wrapper forwards every launch verbatim.
//!
//! Also covered here, at integration level (ring-level unit tests live
//! in `focus_core::obs::spans`): a traced streaming session's spans
//! satisfy the structural invariants the Chrome trace relies on —
//! non-negative durations, worker ids inside the pool, per-kind node
//! counts exactly matching the pipeline graph inventory.
//!
//! Span recording is process-global state (`spans::set_enabled`), so
//! every test in this binary serialises on one lock.

use std::sync::Mutex;

use focus::core::exec::{
    node_inventory, BatchJob, ExecMode, FocusService, FrameHandle, Priority, ServiceConfig,
    StreamConfig, StreamSession,
};
use focus::core::obs::{clock, spans, SpanKind, TraceConfig};
use focus::core::pipeline::{FocusPipeline, PipelineResult};
use focus::sim::ArchConfig;
use focus::vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};
use proptest::prelude::*;

/// Tracing on/off is process-global: tests (and proptest cases) must
/// not interleave their toggles.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn lock_trace() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn workload(seed: u64) -> Workload {
    Workload::new(
        ModelKind::LlavaVideo7B,
        DatasetKind::VideoMme,
        WorkloadScale::tiny(),
        seed,
    )
}

/// One full pipeline run under `mode`. Graph mode runs on an owned
/// service at an explicit worker count so the proptest sweep controls
/// real concurrency; the reference schedule runs inline.
fn run_once(mode: ExecMode, threads: usize, seed: u64) -> PipelineResult {
    let pipeline = FocusPipeline::paper().with_exec_mode(mode);
    let arch = ArchConfig::focus();
    match mode {
        ExecMode::Graph { .. } => {
            let service = FocusService::new(ServiceConfig::with_threads(threads));
            let job = BatchJob {
                pipeline,
                workload: workload(seed),
                arch,
            };
            service.submit(job, Priority::Normal).wait()
        }
        ExecMode::Serial => pipeline.run(&workload(seed), &arch),
    }
}

fn assert_identical(traced: &PipelineResult, untraced: &PipelineResult, what: &str) {
    // Bitwise equality on purpose: tracing promises to be invisible,
    // not approximately harmless.
    assert_eq!(traced.sparsity(), untraced.sparsity(), "{what}: sparsity");
    assert_eq!(traced.accuracy, untraced.accuracy, "{what}: accuracy");
    assert_eq!(traced.work_items, untraced.work_items, "{what}: work items");
    assert_eq!(traced.layers, untraced.layers, "{what}: layer stats");
    assert_eq!(traced.sec_layers, untraced.sec_layers, "{what}: SEC stats");
    assert_eq!(traced.outcomes, untraced.outcomes, "{what}: token outcomes");
    assert_eq!(
        (traced.sic_comparisons, traced.sic_matches),
        (untraced.sic_comparisons, untraced.sic_matches),
        "{what}: matcher counters"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The bit-invisibility claim, property-style: for any exec mode,
    /// worker count, graph depth and workload seed, running with span
    /// recording ON produces exactly the results of running with it
    /// OFF.
    #[test]
    fn traced_runs_are_bit_identical_to_untraced(
        seed in 0u64..1_000,
        threads in 1usize..4,
        depth in 1usize..4,
        mode_pick in 0usize..2,
    ) {
        let mode = [ExecMode::Serial, ExecMode::Graph { depth }][mode_pick];
        let _guard = lock_trace();

        spans::set_enabled(false);
        let untraced = run_once(mode, threads, seed);

        spans::set_enabled(true);
        let traced = run_once(mode, threads, seed);
        spans::set_enabled(false);

        assert_identical(
            &traced,
            &untraced,
            &format!("{mode:?}, {threads} workers, seed {seed}"),
        );
    }
}

/// A traced streaming session is bit-identical to an untraced one —
/// results *and* session counters — and its spans satisfy the
/// structural invariants: non-negative durations, worker ids inside
/// the pool, per-kind counts exactly matching the graph inventory.
#[test]
fn traced_session_matches_untraced_and_spans_satisfy_invariants() {
    const FRAMES: u64 = 3;
    const THREADS: usize = 2;
    const DEPTH: usize = 2;
    let _guard = lock_trace();

    let pipeline = || FocusPipeline::paper().with_exec_mode(ExecMode::Graph { depth: DEPTH });
    let run_session = || {
        let service = FocusService::new(ServiceConfig::with_threads(THREADS));
        let mut session = StreamSession::open(
            &service,
            pipeline(),
            ArchConfig::focus(),
            StreamConfig {
                window: 2,
                priority: Priority::Normal,
                temporal: None,
            },
        );
        let handles: Vec<FrameHandle> = (0..FRAMES)
            .map(|f| session.push_frame(workload(f)))
            .collect();
        let results: Vec<PipelineResult> = handles.into_iter().map(FrameHandle::wait).collect();
        session.flush();
        let stats = session.stats();
        (results, stats)
    };

    spans::set_enabled(false);
    let (untraced, untraced_stats) = run_session();

    // Everything recorded from here on belongs to the traced session
    // (the ring drain below filters by this timestamp — rings
    // accumulate process-wide).
    let t0 = clock::now_micros();
    spans::activate(TraceConfig::default());
    let (traced, traced_stats) = run_session();
    spans::set_enabled(false);

    for (f, (t, u)) in traced.iter().zip(&untraced).enumerate() {
        assert_identical(t, u, &format!("frame {f}"));
    }
    assert_eq!(traced_stats, untraced_stats, "session counters");

    let recorder = spans::recorder().expect("tracing was activated");
    let spans: Vec<_> = recorder
        .drain_ordered()
        .into_iter()
        .filter(|s| s.t_start_us >= t0)
        .collect();
    assert_eq!(recorder.dropped(), 0, "no contention drops expected");
    let mut counts = [0usize; SpanKind::ALL.len()];
    for span in &spans {
        assert!(
            span.t_end_us >= span.t_start_us,
            "negative duration: {span:?}"
        );
        assert!(span.worker < THREADS, "worker out of range: {span:?}");
        assert_eq!(span.priority, 1, "all frames were Normal: {span:?}");
        counts[span.kind.index()] += 1;
    }
    let inventory = node_inventory(&pipeline(), &workload(0), DEPTH);
    for (kind, per_frame) in inventory {
        assert_eq!(
            counts[kind.index()],
            per_frame * FRAMES as usize,
            "{} span count vs graph inventory",
            kind.name()
        );
    }
}

/// Toggling recording off really stops the rings moving (the disabled
/// path is one relaxed load — and no spans).
#[test]
fn disabled_tracing_records_nothing() {
    let _guard = lock_trace();

    // Ensure the recorder exists, then switch recording off.
    spans::set_enabled(true);
    spans::set_enabled(false);
    let recorder = spans::recorder().expect("activated above");
    let before = recorder.offered();
    let result = run_once(ExecMode::Graph { depth: 2 }, 2, 7);
    assert!(result.sparsity() > 0.0, "the run did real work");
    assert_eq!(
        recorder.offered(),
        before,
        "disabled tracing must not record spans"
    );
}
