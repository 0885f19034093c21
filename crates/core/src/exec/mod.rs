//! Streaming stage-graph execution engine.
//!
//! The Focus pipeline is a *stage graph*: per transformer layer, one
//! semantic concentration stage (SEC) feeds four mutually independent
//! similarity gather stages (SIC at the PV, O-projection, FFN
//! activation and FFN-down outputs). This module makes that structure
//! executable:
//!
//! * [`SemanticStage`] / [`GatherStage`] — the stage bodies the DAG's
//!   nodes call (`prune_layer`; `synth` and `gather`), each a pure
//!   function of its [`LayerCtx`];
//! * [`StageWorkspace`] — thread-reusable scratch per node (resident
//!   activation synthesiser, recycled activation matrix, flat gather
//!   lookup) so the measured phase never re-allocates or re-hashes on
//!   its hot path;
//! * [`ExecMode`] — the two schedules: [`ExecMode::Graph`], the
//!   production default, and [`ExecMode::Serial`], the
//!   single-threaded reference oracle every test compares against;
//! * [`LayerExecutor`] — the reference layer walk behind
//!   [`ExecMode::Serial`];
//! * the pipeline DAG (`graph` module) — the schedule behind
//!   [`ExecMode::Graph`]: one `Topology` per `(plan, depth)` lists
//!   each layer's `Sec`/`Synth`/`Gather`/`FoldStats`/`Absorb`/`Lower`
//!   nodes and their dependencies, built once and shared by every run
//!   over the plan; a pipeline graph owns one run's inputs and
//!   dispatches a node by its kind;
//! * the scheduler core (`scheduler` module) — admits a job as a
//!   shared topology plus one dispatch `run(node)` and runs it on
//!   workers that pop one weighted fair ready queue, overlapping layer *l*'s fold/lowering with
//!   layer *l+1*'s synthesis and SEC at any pipeline depth — across
//!   workload boundaries when several jobs are in flight;
//! * [`BatchRunner`] — the one batch entry point: [`BatchRunner::run`]
//!   (and [`BatchRunner::run_sim`], which carries the cycle
//!   simulation) submits every job into the shared service, results
//!   in submission order and bit-identical to running each alone;
//! * [`par_map`] — an order-preserving parallel map over scoped
//!   threads, for sweeps that batch something other than whole
//!   pipeline runs;
//! * [`FocusService`] (`service` module) — the scheduler's one front
//!   end: a persistent worker pool that outlives any batch,
//!   accepting jobs as they arrive (`submit(job) → JobHandle`) with
//!   per-request [`Priority`] (a *weight* in the scheduler's fair
//!   queue — no class can starve another), bounded in-flight nodes
//!   (admission backpressure), and workers that park — not exit —
//!   between requests;
//! * [`StreamSession`] (`stream` module) — per-frame admission of an
//!   unbounded video feed: `push_frame(workload) → FrameHandle` admits
//!   one run per frame, a bounded in-flight window applies blocking
//!   backpressure, and warm per-session state (shared retention plan
//!   and topology, recycled stage scratch — see [`crate::session`])
//!   rides across frames with results bit-identical to the serial
//!   per-frame loop.
//!
//! Every level of parallelism preserves determinism the same way: the
//! parallel units are pure, and reductions happen in submission order
//! (or along an explicitly sequential dependency chain).

mod batch;
mod executor;
mod graph;
mod scheduler;
mod service;
mod stage;
mod stream;

pub use batch::{par_map, BatchJob, BatchRunner};
pub use executor::{ExecMode, LayerExecutor, LayerRecord};
pub(crate) use graph::Topology;
pub use scheduler::Priority;
pub use service::{FocusService, JobHandle, ServiceConfig, ServiceStats};
pub use stage::{GatherStage, LayerCtx, SemanticStage, StageActs, StageScratch, StageWorkspace};
pub use stream::{FrameHandle, SessionStats, StreamConfig, StreamSession};

/// Per-[`crate::obs::SpanKind`] node counts of one pipeline run's
/// topology at pipeline depth `depth` — the inventory a traced frame
/// is expected to contribute to the span rings. The trace-smoke CI job
/// asserts recorded span counts against this.
pub fn node_inventory(
    pipeline: &crate::pipeline::FocusPipeline,
    workload: &focus_vlm::Workload,
    depth: usize,
) -> [(crate::obs::SpanKind, usize); crate::obs::SpanKind::ALL.len()] {
    let plan = crate::session::RetentionPlan::derive(&pipeline.focus, workload);
    let mut counts = crate::obs::SpanKind::ALL.map(|kind| (kind, 0usize));
    for kind in graph::Topology::of(&plan, depth).kinds() {
        counts[kind.span_label().kind.index()].1 += 1;
    }
    counts
}
