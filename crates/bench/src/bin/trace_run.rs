//! Trace smoke run: a 12-frame streaming session with span tracing on,
//! span-invariant assertions, and Chrome-trace export.
//!
//! This is the CI `trace-smoke` entry point and the by-hand Perfetto
//! workflow:
//!
//! ```text
//! FOCUS_TRACE=spans FOCUS_TRACE_OUT=trace.json \
//!     cargo run -p focus-bench --release --bin trace_run
//! ```
//!
//! then load `trace.json` in <https://ui.perfetto.dev> (or
//! `chrome://tracing`) — workers are the threads, every scheduler node
//! is a slice, and each frame's job is an async arrow. The run asserts
//! the invariants the trace must satisfy before any human looks at it:
//! span durations are well-formed, worker ids stay inside the pool,
//! recorded node counts match the pipeline graph inventory exactly
//! (12 frames × the per-frame plan), and the cross-worker overlap the
//! paper's pipelining story promises actually happened.

use focus_core::exec::{
    node_inventory, ExecMode, FocusService, FrameHandle, Priority, ServiceConfig, StreamConfig,
    StreamSession,
};
use focus_core::obs::{self, spans, SpanKind, TraceConfig};
use focus_core::pipeline::FocusPipeline;
use focus_sim::ArchConfig;
use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};

const FRAMES: u64 = 12;
const THREADS: usize = 2;
const DEPTH: usize = 2;

fn frame(seed: u64) -> Workload {
    Workload::new(
        ModelKind::LlavaVideo7B,
        DatasetKind::VideoMme,
        WorkloadScale::tiny(),
        seed,
    )
}

fn main() {
    // Honour `FOCUS_TRACE=spans[:capacity]` when set; trace by default
    // otherwise — this bin exists to produce a trace.
    spans::activate(TraceConfig::from_env().unwrap_or_default());
    let service = FocusService::new(ServiceConfig::with_threads(THREADS));
    let pipeline = FocusPipeline::paper().with_exec_mode(ExecMode::Graph { depth: DEPTH });
    let arch = ArchConfig::focus();
    let inventory = node_inventory(&pipeline, &frame(0), DEPTH);

    let mut session = StreamSession::open(
        &service,
        pipeline,
        arch,
        StreamConfig {
            window: 2,
            priority: Priority::Normal,
            temporal: None,
        },
    );
    let handles: Vec<FrameHandle> = (0..FRAMES).map(|f| session.push_frame(frame(f))).collect();
    for handle in handles {
        handle.wait();
    }
    session.flush();
    let session_snap = session.snapshot();
    drop(session);

    // ---- span invariants -------------------------------------------
    let recorder = spans::recorder().expect("tracing active");
    let spans = recorder.drain_ordered();
    assert_eq!(recorder.dropped(), 0, "no contention drops expected");
    let expected: usize = inventory.iter().map(|&(_, n)| n).sum::<usize>() * FRAMES as usize;
    assert_eq!(
        spans.len(),
        expected,
        "every scheduler node of {FRAMES} frames records exactly one span"
    );
    let mut counts = [0usize; SpanKind::ALL.len()];
    for span in &spans {
        assert!(
            span.t_end_us >= span.t_start_us,
            "negative duration: {span:?}"
        );
        assert!(span.worker < THREADS, "worker out of range: {span:?}");
        assert!(span.priority < 3, "priority index out of range: {span:?}");
        counts[span.kind.index()] += 1;
    }
    for (kind, per_frame) in inventory {
        assert_eq!(
            counts[kind.index()],
            per_frame * FRAMES as usize,
            "{} node count must match the graph inventory",
            kind.name()
        );
    }

    // ---- pipelining evidence ---------------------------------------
    // The schedule's whole point: layer l's gather overlapping layer
    // l+1's synthesis on another worker, and cross-worker concurrency
    // at all.
    let overlapping = |a: &obs::Span, b: &obs::Span| {
        a.worker != b.worker && a.t_start_us < b.t_end_us && b.t_start_us < a.t_end_us
    };
    let mut cross_worker = 0u64;
    let mut gather_synth = 0u64;
    for a in &spans {
        for b in &spans {
            if !overlapping(a, b) {
                continue;
            }
            cross_worker += 1;
            if a.kind == SpanKind::Gather
                && b.kind == SpanKind::Synth
                && a.layer.zip(b.layer).is_some_and(|(la, lb)| lb == la + 1)
            {
                gather_synth += 1;
            }
        }
    }
    assert!(
        cross_worker > 0,
        "a {THREADS}-worker window-2 stream must show concurrent spans"
    );

    println!("trace_run: {} spans over {FRAMES} frames", spans.len());
    println!("  per kind:");
    for kind in SpanKind::ALL {
        println!("    {:<12} {}", kind.name(), counts[kind.index()]);
    }
    println!("  cross-worker overlapping span pairs: {cross_worker}");
    println!("  gather(l) ↔ synth(l+1) overlaps:     {gather_synth}");

    // ---- registry snapshot -----------------------------------------
    println!("service snapshot:\n{}", service.snapshot().to_json());
    println!("session snapshot:\n{}", session_snap.to_json());

    // ---- export ----------------------------------------------------
    match obs::chrome_trace::export_if_configured() {
        Some(path) => println!("chrome trace written to {}", path.display()),
        None => println!("set FOCUS_TRACE_OUT=path to write the chrome trace"),
    }
}
