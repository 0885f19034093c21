//! The three workloads: how each builds its inputs from the seed, sets
//! its system up, and drives it through one or two measured phases.
//!
//! * `stream_eval_w2` — closed loop through one [`StreamSession`] with a
//!   two-frame window, temporal carry off: the steady-state serving
//!   path, two frames overlapping on the pool.
//! * `stream_corr09_temporal` — closed loop on the same feed at scene
//!   correlation 0.9 with the temporal carry on: the only workload with
//!   carry hits, frames admitted one at a time.
//! * `serve_grid_open` — open loop: the nine Fig. 9 cells round-robin
//!   through [`FocusService::submit_sim`] at a fixed rate, priorities
//!   cycling: the only workload with cycle simulation and queueing
//!   across priorities.
//!
//! Every workload uses the evaluation scale, the graph schedule at
//! depth 2 and the SIMD kernel backend, pinned here so that no
//! environment override changes what is measured.

use std::sync::Arc;

use focus_core::exec::{
    BatchJob, ExecMode, FocusService, FrameHandle, JobHandle, Priority, ServiceConfig,
    SessionStats, StreamConfig, StreamSession,
};
use focus_core::obs::{spans, Span};
use focus_core::pipeline::{FocusPipeline, PipelineResult};
use focus_core::sic::TemporalCacheConfig;
use focus_core::FocusConfig;
use focus_sim::{ArchConfig, Engine, SimReport};
use focus_tensor::backend::simd;
use focus_tensor::DataType;
use focus_vlm::accuracy::AccuracyModel;
use focus_vlm::scene::SceneStream;
use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};

use crate::gate;
use crate::loadgen::{drive, Drive, Schedule};
use crate::stats::process_cpu_ms;

/// Cross-layer depth of the graph schedule.
pub const DEPTH: usize = 2;
/// In-flight window of `stream_eval_w2`.
const STREAM_WINDOW: usize = 2;
/// Frames (or jobs) each set-up runs before it counts as done: the
/// session's warm pool and the pool's threads are live after these.
const WARMUP_ITEMS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Open-loop arrival rate of `serve_grid_open`, in jobs/s: about 60% of
/// the grid's burst capacity on a 2-core x86-64 host (6.4 jobs/s), so
/// queues form and drain without growing.
pub const SERVE_RATE_PER_S: f64 = 3.2;
/// Inputs generated per second of a closed-loop run: above the ~6
/// frames/s the streams reach on a 2-core host. (A faster host that
/// runs out of frames ends the phase early, still with every item
/// measured.)
const STREAM_INPUTS_PER_S: f64 = 10.0;
/// Items a phase must complete: 100 support a p90 (10 beyond it), 20 a
/// median.
pub const MIN_ITEMS_P90: usize = 100;
pub const MIN_ITEMS_P50: usize = 20;
/// Per-worker span ring capacity of traced runs: holds every node of
/// the traced phase (about 200 nodes per item) without overwriting.
pub const RING_CAPACITY: usize = 1 << 16;
/// Items of the first phase replayed by the staged per-layer calls
/// (`serve_grid_open` replays one job per grid cell).
const STAGED_FRAMES: usize = 4;
const STAGED_JOBS: usize = 9;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    StreamEvalW2,
    StreamCorr09Temporal,
    ServeGridOpen,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::StreamEvalW2,
        Kind::StreamCorr09Temporal,
        Kind::ServeGridOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::StreamEvalW2 => "stream_eval_w2",
            Kind::StreamCorr09Temporal => "stream_corr09_temporal",
            Kind::ServeGridOpen => "serve_grid_open",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn is_stream(self) -> bool {
        self != Kind::ServeGridOpen
    }

    /// The temporal-carry configuration of a stream workload.
    pub fn temporal(self) -> Option<TemporalCacheConfig> {
        (self == Kind::StreamCorr09Temporal).then(TemporalCacheConfig::default)
    }
}

/// The production pipeline every workload serves through, or the
/// reference schedule the correctness gate re-runs items under.
pub fn pipeline(exec_mode: ExecMode) -> FocusPipeline {
    FocusPipeline {
        focus: FocusConfig::paper(),
        accuracy: AccuracyModel::default(),
        dtype: DataType::Fp16,
        exec_mode,
        backend: simd(),
    }
}

fn served_pipeline() -> FocusPipeline {
    pipeline(ExecMode::Graph { depth: DEPTH })
}

/// Worker threads of the benchmark's own service: one per core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn new_service() -> FocusService {
    FocusService::new(ServiceConfig::with_threads(workers()))
}

/// What the benchmark keeps of one served item.
pub struct ItemOut {
    pub sparsity: f64,
    pub comparisons: u64,
    pub matches: u64,
    pub sec_candidates: u64,
    pub sec_kept: u64,
    /// Scheduler job id (`serve_grid_open`; stream jobs are matched to
    /// their spans by admission order instead).
    pub job: Option<u64>,
    /// The served result, kept for items the gate or the replay needs.
    pub kept: Option<(PipelineResult, Option<SimReport>)>,
}

impl ItemOut {
    fn of(result: PipelineResult, report: Option<SimReport>, job: Option<u64>, keep: bool) -> Self {
        ItemOut {
            sparsity: result.sparsity(),
            comparisons: result.sic_comparisons,
            matches: result.sic_matches,
            sec_candidates: result.sec_layers.iter().map(|s| s.candidates as u64).sum(),
            sec_kept: result.sec_layers.iter().map(|s| s.kept as u64).sum(),
            job,
            kept: keep.then_some((result, report)),
        }
    }
}

/// One measured phase.
pub struct Phase {
    pub drive: Drive<ItemOut>,
    /// Index of the phase's first item in the run's input list.
    pub first_input: usize,
    /// Process CPU time spent during the phase, in ms.
    pub cpu_ms: f64,
    /// Session counter movement over the phase (streams).
    pub session: SessionStats,
    /// Span records of the phase, when it ran traced.
    pub spans: Option<Vec<Span>>,
}

/// A whole run of one workload.
pub struct Run {
    pub kind: Kind,
    pub setup_s: Vec<f64>,
    /// One untraced phase, or an untraced and a traced phase.
    pub phases: Vec<Phase>,
    /// The run's inputs, by input index.
    pub inputs: Vec<Workload>,
    /// A stream's warm-up frames and their results: they precede the
    /// measured frames in the feed.
    pub warmup: Vec<(Workload, PipelineResult)>,
    /// The scene stream a stream workload's feed follows.
    pub stream: Option<SceneStream>,
}

impl Run {
    /// Items of phase 0 the staged replay uses.
    pub fn staged_items(&self) -> usize {
        if self.kind.is_stream() {
            STAGED_FRAMES
        } else {
            STAGED_JOBS
        }
    }
}

/// Whether phase `phase`'s item `index` keeps its full result.
fn keep(phase: usize, index: usize, staged: usize) -> bool {
    gate::sampled(index) || (phase == 0 && index < staged)
}

/// The measured phases of a run: `seconds` untraced, or two halves,
/// untraced then traced.
fn phase_plan(seconds: f64, traced: bool) -> Vec<(f64, bool)> {
    if traced {
        vec![(seconds / 2.0, false), (seconds / 2.0, true)]
    } else {
        vec![(seconds, false)]
    }
}

fn delta(after: SessionStats, before: SessionStats) -> SessionStats {
    SessionStats {
        frames_pushed: after.frames_pushed - before.frames_pushed,
        frames_retired: after.frames_retired - before.frames_retired,
        warm_reuses: after.warm_reuses - before.warm_reuses,
        warm_rederives: after.warm_rederives - before.warm_rederives,
        plan_cache_hits: after.plan_cache_hits - before.plan_cache_hits,
        temporal_hits: after.temporal_hits - before.temporal_hits,
        temporal_misses: after.temporal_misses - before.temporal_misses,
        temporal_evictions: after.temporal_evictions - before.temporal_evictions,
        gathers_skipped: after.gathers_skipped - before.gathers_skipped,
        ..after
    }
}

/// Runs `body` as the measured phase starting at input `first_input`:
/// process CPU time around it and, when `trace` is set, span recording
/// on for its duration. The rings are read after the phase and never
/// cleared: nothing is recorded before the traced phase, so every span
/// in them belongs to it.
fn measure_phase(
    first_input: usize,
    trace: bool,
    body: impl FnOnce() -> (Drive<ItemOut>, SessionStats),
) -> Phase {
    let cpu0 = process_cpu_ms().expect("/proc/self/stat readable");
    spans::set_enabled(trace);
    let (drive, session) = body();
    spans::set_enabled(false);
    let cpu_ms = process_cpu_ms().expect("/proc/self/stat readable") - cpu0;
    let spans = trace.then(|| {
        spans::recorder()
            .expect("tracing was activated at start-up")
            .drain_ordered()
    });
    Phase {
        drive,
        first_input,
        cpu_ms,
        session,
        spans,
    }
}

// ---- streams ---------------------------------------------------------

fn scene_stream(kind: Kind, seed: u64) -> SceneStream {
    let correlation = if kind == Kind::StreamCorr09Temporal {
        0.9
    } else {
        0.0
    };
    SceneStream { seed, correlation }
}

fn stream_feed(stream: SceneStream, frames: usize) -> Vec<Workload> {
    (0..frames as u64)
        .map(|i| {
            Workload::stream_frame(
                ModelKind::LlavaVideo7B,
                DatasetKind::VideoMme,
                WorkloadScale::default_eval(),
                stream,
                i,
            )
        })
        .collect()
}

fn open_session(kind: Kind, service: &FocusService) -> StreamSession<'_> {
    StreamSession::open(
        service,
        served_pipeline(),
        ArchConfig::focus(),
        StreamConfig {
            window: STREAM_WINDOW,
            priority: Priority::Normal,
            temporal: kind.temporal(),
        },
    )
}

/// Pushes the warm-up frames and waits for them.
fn warm_stream(session: &mut StreamSession<'_>, feed: &[Workload]) -> Vec<PipelineResult> {
    let handles: Vec<FrameHandle> = feed[..WARMUP_ITEMS]
        .iter()
        .map(|wl| session.push_frame(wl.clone()))
        .collect();
    let results = handles.into_iter().map(FrameHandle::wait).collect();
    session.flush();
    results
}

pub fn run_stream(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Run {
    let inputs_n = WARMUP_ITEMS + (seconds * STREAM_INPUTS_PER_S).ceil() as usize + MIN_ITEMS_P90;
    let stream = scene_stream(kind, seed);
    let feed = stream_feed(stream, inputs_n);

    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let t = std::time::Instant::now();
        let service = new_service();
        let mut session = open_session(kind, &service);
        warm_stream(&mut session, &feed);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let t = std::time::Instant::now();
    let service = new_service();
    let mut session = open_session(kind, &service);
    let warm = warm_stream(&mut session, &feed);
    setup_s.push(t.elapsed().as_secs_f64());

    let mut phases = Vec::new();
    let mut next = WARMUP_ITEMS;
    for (p, (phase_s, trace_phase)) in phase_plan(seconds, trace).into_iter().enumerate() {
        let first_input = next;
        let min_items = if trace { MIN_ITEMS_P50 } else { MIN_ITEMS_P90 };
        let schedule = Schedule::Closed {
            run_us: (phase_s * 1e6) as u64,
            min_items,
            max_items: feed.len() - first_input,
        };
        let staged = STAGED_FRAMES;
        let session = &mut session;
        let feed = &feed;
        let phase = measure_phase(first_input, trace_phase, move || {
            let before = session.stats();
            let drive = drive(
                schedule,
                |i| session.push_frame(feed[first_input + i].clone()),
                |i, handle: FrameHandle| ItemOut::of(handle.wait(), None, None, keep(p, i, staged)),
            );
            // Retire every frame so the counters cover the phase.
            session.flush();
            (drive, delta(session.stats(), before))
        });
        next += phase.drive.len();
        phases.push(phase);
    }
    drop(session);
    drop(service);
    Run {
        kind,
        setup_s,
        phases,
        warmup: feed[..WARMUP_ITEMS].iter().cloned().zip(warm).collect(),
        inputs: feed,
        stream: Some(stream),
    }
}

// ---- open-loop serving -----------------------------------------------

/// Job `j`'s grid cell: the nine Fig. 9 cells (three video models by
/// three video datasets) round-robin, model fastest. Two models run
/// 1568-token frames and one 512; model-fastest order puts a small job
/// every third arrival instead of six large jobs back to back, which
/// would pile up queueing delay.
fn cell(j: usize) -> (ModelKind, DatasetKind) {
    let models = ModelKind::VIDEO_MODELS;
    let datasets = DatasetKind::VIDEO;
    (
        models[j % models.len()],
        datasets[(j / models.len()) % datasets.len()],
    )
}

/// Job `j`'s priority: the cycle High, Normal, Low, shifted by one per
/// model round so that over nine jobs every model is served once at
/// every priority.
fn priority(j: usize) -> Priority {
    const CYCLE: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
    CYCLE[(j + j / 3) % 3]
}

/// A distinct, reproducible scene seed per job.
fn job_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (j as u64 + 1)
}

fn grid_jobs(seed: u64, from: usize, n: usize) -> Vec<Workload> {
    (from..from + n)
        .map(|j| {
            let (model, dataset) = cell(j);
            Workload::new(
                model,
                dataset,
                WorkloadScale::default_eval(),
                job_seed(seed, j),
            )
        })
        .collect()
}

fn job(wl: &Workload) -> BatchJob {
    BatchJob {
        pipeline: served_pipeline(),
        workload: wl.clone(),
        arch: ArchConfig::focus(),
    }
}

/// Jobs of one open-loop phase lasting `seconds`.
fn serve_items(seconds: f64, min_items: usize) -> usize {
    ((seconds * SERVE_RATE_PER_S).ceil() as usize).max(min_items)
}

pub fn run_serve(seed: u64, seconds: f64, trace: bool) -> Run {
    let plan = phase_plan(seconds, trace);
    let min_items = if trace { MIN_ITEMS_P50 } else { MIN_ITEMS_P90 };
    let total: usize = plan.iter().map(|&(s, _)| serve_items(s, min_items)).sum();
    let inputs = grid_jobs(seed, 0, total);
    // Warm-up jobs: one per video model, from a seed range the
    // measured jobs never use.
    let warm_inputs = grid_jobs(seed, 1 << 20, ModelKind::VIDEO_MODELS.len());

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut system = None;
    for _ in 0..SETUPS {
        drop(system.take());
        let t = std::time::Instant::now();
        let service = new_service();
        let engine = Arc::new(Engine::new(ArchConfig::focus()));
        let warm: Vec<JobHandle> = warm_inputs
            .iter()
            .map(|wl| service.submit_sim(job(wl), Arc::clone(&engine), Priority::Normal))
            .collect();
        for handle in warm {
            handle.wait_sim();
        }
        setup_s.push(t.elapsed().as_secs_f64());
        system = Some((service, engine));
    }
    let (service, engine) = system.expect("at least one set-up");

    let gap_us = (1e6 / SERVE_RATE_PER_S) as u64;
    let mut phases = Vec::new();
    let mut next = 0;
    for (p, (phase_s, trace_phase)) in plan.into_iter().enumerate() {
        let first_input = next;
        let items = serve_items(phase_s, min_items);
        let (service, engine, inputs) = (&service, &engine, &inputs);
        let phase = measure_phase(first_input, trace_phase, move || {
            let drive = drive(
                Schedule::Open { items, gap_us },
                |i| {
                    let j = first_input + i;
                    service.submit_sim(job(&inputs[j]), Arc::clone(engine), priority(j))
                },
                |i, handle: JobHandle| {
                    let id = handle.id();
                    let (result, report) = handle.wait_sim();
                    ItemOut::of(result, report, Some(id), keep(p, i, STAGED_JOBS))
                },
            );
            (drive, SessionStats::default())
        });
        next += phase.drive.len();
        phases.push(phase);
    }
    drop(service);
    Run {
        kind: Kind::ServeGridOpen,
        setup_s,
        phases,
        inputs,
        warmup: Vec::new(),
        stream: None,
    }
}

/// The outcome of the correctness gate.
#[derive(Debug, Default)]
pub struct GateOutcome {
    pub checked: usize,
    pub failed: usize,
}

/// The reference result of stream frame `frame` under temporal carry.
///
/// A frame that opens a scene segment carries nothing (the scene key
/// changed), so its reference is the serial schedule. A later frame's
/// carried rows change its gather statistics, so no single-frame
/// schedule reproduces it; its reference replays the segment up to the
/// frame through a fresh temporal session on a fresh service: the same
/// carry rules from a start that has seen nothing before the cut.
fn temporal_reference(run: &Run, stream: SceneStream, frame: usize) -> PipelineResult {
    let (_, offset) = stream.segment_of(frame as u64);
    let first = frame - offset as usize;
    let service = new_service();
    let mut session = open_session(run.kind, &service);
    let mut last = None;
    for wl in &run.inputs[first..=frame] {
        last = Some(session.push_frame(wl.clone()).wait());
    }
    last.expect("a segment holds at least its own frame")
}

/// Re-runs every gate-sampled item of `run` under the reference
/// schedule and compares it bit for bit with the served result (and,
/// for served jobs, the cycle report).
pub fn correctness_gate(run: &Run) -> GateOutcome {
    let serial = pipeline(ExecMode::Serial);
    let arch = ArchConfig::focus();
    let carried = run.kind.temporal().and(run.stream);
    let mut outcome = GateOutcome::default();
    for phase in &run.phases {
        for (i, out) in phase.drive.outcomes.iter().enumerate() {
            if !gate::sampled(i) {
                continue;
            }
            outcome.checked += 1;
            let Ok(ItemOut {
                kept: Some((served, report)),
                ..
            }) = out
            else {
                // A failed item is already counted as an error.
                continue;
            };
            let input = phase.first_input + i;
            let reference = match carried {
                Some(stream) if stream.segment_of(input as u64).1 > 0 => {
                    temporal_reference(run, stream, input)
                }
                _ => serial.run(&run.inputs[input], &arch),
            };
            let mut bad = gate::result_mismatch(served, &reference).map(String::from);
            if let Some(report) = report {
                let fresh = Engine::new(arch.clone()).run(&reference.work_items);
                if !gate::report_matches(report, &fresh) {
                    bad.get_or_insert_with(|| "sim report".to_string());
                }
            } else if run.kind == Kind::ServeGridOpen {
                bad.get_or_insert_with(|| "missing sim report".to_string());
            }
            if let Some(field) = bad {
                eprintln!(
                    "perfbench: {} item {i} (input {input}) differs from its reference in `{field}`",
                    run.kind.name(),
                );
                outcome.failed += 1;
            }
        }
    }
    outcome
}

/// Per-item job ids of a traced phase: the service's ids for served
/// jobs; for a stream, the session's jobs in admission order (the only
/// jobs on the benchmark's own service, and ids rise with admission).
pub fn job_ids(run: &Run, phase: &Phase, spans: &[Span]) -> Option<Vec<u64>> {
    if run.kind.is_stream() {
        let ids: Vec<u64> = crate::stats::job_extents(spans).into_keys().collect();
        (ids.len() == phase.drive.len()).then_some(ids)
    } else {
        phase
            .drive
            .outcomes
            .iter()
            .map(|o| o.as_ref().ok().and_then(|o| o.job))
            .collect()
    }
}
