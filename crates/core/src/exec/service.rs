//! [`FocusService`]: the one front end of the task scheduler — a
//! long-lived worker pool that accepts pipeline runs as they arrive.
//!
//! The pool outlives any one request: [`FocusService::submit`] moves a
//! [`BatchJob`] into an owned pipeline graph, admits it into the
//! scheduler core — its shared topology plus one dispatch holding an
//! `Arc` of the graph — at a caller-chosen [`Priority`] and returns a
//! [`JobHandle`] immediately; workers park (not exit) between
//! requests and wake on admission. Because the graph owns its inputs,
//! a request needs no borrow of the submitting stack frame. Tests
//! that need a particular width start an owned pool with
//! [`ServiceConfig::with_threads`].
//! Admission control bounds the in-flight node count — a submission
//! past the bound blocks until running requests retire nodes
//! (backpressure), so a burst of large requests cannot queue
//! unboundedly ahead of the workers.
//!
//! [`JobHandle::wait`] returns the same bit-identical
//! [`PipelineResult`] as
//! [`ExecMode::Serial`](crate::exec::ExecMode::Serial)
//! (`tests/batch_determinism.rs` proves it property-style across
//! submission orders and priorities), and a panic inside one request
//! fails only that request — its handle re-raises the original
//! payload while the pool keeps serving.
//!
//! [`crate::exec::BatchRunner`] and graph-mode
//! [`FocusPipeline::run`](crate::pipeline::FocusPipeline::run) both
//! submit into the process-wide [`FocusService::global`] instance, so
//! a batch and a stream of single requests share one pool and
//! interleave at stage granularity.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use focus_sim::{Engine, SimReport};

use crate::exec::batch::BatchJob;
use crate::exec::graph::PipelineGraph;
use crate::exec::scheduler::{lock_clean, Core, JobRun, Priority};
use crate::pipeline::PipelineResult;
use crate::session::FrameWarm;

/// Sizing of a [`FocusService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool (≥ 1).
    pub threads: usize,
    /// In-flight node bound for admission control (≥ 1): submissions
    /// that would push the queued+running node count past this block
    /// until space frees. A request larger than the bound is still
    /// admitted when the service is idle.
    pub max_inflight_nodes: usize,
}

impl ServiceConfig {
    /// Node budget per worker when none is given: deep enough to keep
    /// cross-request interleaving alive, small enough that a burst of
    /// requests feels backpressure instead of queueing unboundedly.
    pub const DEFAULT_NODES_PER_WORKER: usize = 512;

    /// A config with an explicit worker count and the default
    /// admission bound.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        ServiceConfig {
            threads,
            max_inflight_nodes: threads * ServiceConfig::DEFAULT_NODES_PER_WORKER,
        }
    }
}

impl Default for ServiceConfig {
    /// As wide as the machine
    /// ([`std::thread::available_parallelism`]).
    fn default() -> Self {
        ServiceConfig::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// Observability snapshot of a [`FocusService`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Workers currently parked (blocked on the wakeup condvar, not
    /// spinning) waiting for work.
    pub parked: usize,
    /// Cumulative park entries; stable while the pool idles (a
    /// spinning worker would keep re-entering).
    pub parks: u64,
    /// Every worker parked since the last publish of new work: none has
    /// a wakeup pending, so `parks` holds still until the next request.
    /// `parked == workers` alone can still count a worker that a
    /// publish has released and that will re-park. Wait on this flag
    /// to quiesce the pool.
    pub idle: bool,
    /// Jobs accepted so far.
    pub jobs_submitted: u64,
    /// Jobs fully completed (including failed ones).
    pub jobs_completed: u64,
    /// Task nodes admitted but not yet retired.
    pub inflight_nodes: usize,
    /// The admission bound.
    pub max_inflight_nodes: usize,
    /// Ready tasks currently waiting in the fair queue, per priority
    /// class, indexed High, Normal, Low (`Priority::ALL` reversed).
    pub queued_by_priority: [usize; Priority::LEVELS],
    /// Nodes executed (or skip-drained) per priority class, cumulative
    /// (High, Normal, Low). The weighted-fair shares show up here:
    /// under sustained mixed load the per-class rates track the
    /// [`Priority::weight`] ratios.
    pub served_by_priority: [u64; Priority::LEVELS],
    /// Streaming sessions currently open against this service.
    pub sessions_open: usize,
}

/// Completion handle of a submitted request.
///
/// Dropping the handle without waiting is fine — the request still
/// runs to completion on the pool; only the result is discarded.
pub struct JobHandle {
    graph: Arc<PipelineGraph>,
    run: Arc<JobRun>,
    priority: Priority,
}

impl std::fmt::Debug for JobHandle {
    /// Identity + liveness only (the graph state is not printable) —
    /// enough for `try_wait().expect(...)`-style call sites.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id())
            .field("priority", &self.priority)
            .field("done", &self.is_done())
            .finish()
    }
}

impl JobHandle {
    /// The service-wide admission id of this request.
    pub fn id(&self) -> u64 {
        self.run.id
    }

    /// The priority the request was admitted at.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Whether the request has finished (without blocking). `true`
    /// means [`JobHandle::wait`]/[`JobHandle::try_wait`] will not
    /// block (they may still re-raise the request's panic).
    pub fn is_done(&self) -> bool {
        self.run.is_done()
    }

    /// Non-blocking completion probe: the result if the request has
    /// finished, the handle back otherwise. Stream pollers drive many
    /// in-flight frames without parking on any single one —
    /// `while let Err(h) = handle.try_wait() { handle = h; do other
    /// work }`. Like [`JobHandle::wait`], re-raises the request's
    /// panic payload on a completed-but-failed request.
    pub fn try_wait(self) -> Result<PipelineResult, JobHandle> {
        self.try_wait_sim().map(|(result, _)| result)
    }

    /// [`JobHandle::try_wait`] for simulation-carrying submissions.
    pub fn try_wait_sim(self) -> Result<(PipelineResult, Option<SimReport>), JobHandle> {
        if self.is_done() {
            Ok(self.wait_sim())
        } else {
            Err(self)
        }
    }

    /// Blocks until the request completes and returns its result —
    /// bit-identical to running the same job under
    /// [`ExecMode::Serial`](crate::exec::ExecMode::Serial). Re-raises
    /// the original payload if a node of **this** request panicked
    /// (the pool itself keeps serving).
    pub fn wait(self) -> PipelineResult {
        self.wait_sim().0
    }

    /// Like [`JobHandle::wait`], also returning the cycle report when
    /// the request was submitted with an engine
    /// ([`FocusService::submit_sim`]).
    pub fn wait_sim(self) -> (PipelineResult, Option<SimReport>) {
        self.run.wait_done();
        if let Some(payload) = self.run.take_panic() {
            std::panic::resume_unwind(payload);
        }
        self.graph.take_result()
    }

    /// The request's graph state and run record, for the session
    /// layer's window tracking and warm-state reclamation.
    pub(crate) fn parts(&self) -> (Arc<PipelineGraph>, Arc<JobRun>) {
        (Arc::clone(&self.graph), Arc::clone(&self.run))
    }
}

/// A long-lived scheduler service: one worker pool, many requests.
/// See the module docs for the serving model; construct one with
/// [`FocusService::new`] for an owned pool or use the process-wide
/// [`FocusService::global`].
pub struct FocusService {
    core: Arc<Core>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    jobs_submitted: AtomicU64,
    /// Streaming sessions currently open ([`crate::exec::StreamSession`]
    /// increments on open, decrements on drop).
    sessions_open: AtomicUsize,
}

impl FocusService {
    /// Starts a service: spawns `config.threads` workers, which park
    /// immediately and live until the service is dropped.
    pub fn new(config: ServiceConfig) -> Self {
        let core = Arc::new(Core::new(config.threads, config.max_inflight_nodes));
        let workers = (0..core.threads())
            .map(|w| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("focus-service-{w}"))
                    .spawn(move || core.worker(w))
                    .expect("spawn service worker")
            })
            .collect();
        FocusService {
            core,
            workers: Mutex::new(workers),
            jobs_submitted: AtomicU64::new(0),
            sessions_open: AtomicUsize::new(0),
        }
    }

    /// The process-wide service, sized by [`ServiceConfig::default`]
    /// on first use. Every graph-mode batch and pipeline run submits
    /// here, so concurrent callers share one pool.
    pub fn global() -> &'static FocusService {
        static GLOBAL: OnceLock<FocusService> = OnceLock::new();
        GLOBAL.get_or_init(|| FocusService::new(ServiceConfig::default()))
    }

    /// Submits one pipeline run at `priority` and returns its handle
    /// immediately (unless admission control applies backpressure —
    /// then the call blocks until the pool has drained enough nodes).
    /// The cross-layer pipeline depth is taken from the job pipeline's
    /// [`crate::exec::ExecMode::Graph`] depth, or
    /// [`crate::exec::ExecMode::DEFAULT_GRAPH_DEPTH`] for jobs
    /// configured with the serial schedule.
    ///
    /// The request takes the job by value: it must own its inputs for
    /// as long as it runs, which is independent of the submitting
    /// stack frame. Callers holding borrows clone — a scene-descriptor
    /// copy, negligible against the job's measured-phase work.
    pub fn submit(&self, job: BatchJob, priority: Priority) -> JobHandle {
        self.submit_with(job, priority, None, None)
    }

    /// Like [`FocusService::submit`], additionally running the cycle
    /// simulation in the request's `Finish` node against `engine`
    /// (shareable across requests — it is immutable during runs).
    pub fn submit_sim(&self, job: BatchJob, engine: Arc<Engine>, priority: Priority) -> JobHandle {
        self.submit_with(job, priority, Some(engine), None)
    }

    /// Like [`FocusService::submit`], additionally threading a
    /// session's warm frame state (shared retention plan, recycled
    /// scratch) into the request's graph — the admission path of
    /// [`crate::exec::StreamSession::push_frame`].
    pub(crate) fn submit_warm(
        &self,
        job: BatchJob,
        priority: Priority,
        engine: Option<Arc<Engine>>,
        warm: FrameWarm,
    ) -> JobHandle {
        self.submit_with(job, priority, engine, Some(warm))
    }

    fn submit_with(
        &self,
        job: BatchJob,
        priority: Priority,
        engine: Option<Arc<Engine>>,
        warm: Option<FrameWarm>,
    ) -> JobHandle {
        let graph = Arc::new(PipelineGraph::new(job, engine, warm));
        self.jobs_submitted.fetch_add(1, Ordering::SeqCst);
        let body = Arc::clone(&graph);
        let run = self.core.inject(
            Arc::clone(graph.topology()),
            Box::new(move |node| body.run_node(node)),
            priority,
        );
        JobHandle {
            graph,
            run,
            priority,
        }
    }

    /// The unified metrics snapshot of this service: every counter
    /// under `service.*` (the per-priority arrays fanned out as
    /// `.high`/`.normal`/`.low`), plus the observability layer's own
    /// `obs.*` entries (span totals, per-node-kind and
    /// per-kernel-family latency summaries). [`FocusService::stats`]
    /// and the bench serializer both read it.
    pub fn snapshot(&self) -> crate::obs::Snapshot {
        const CLASS: [&str; Priority::LEVELS] = ["high", "normal", "low"];
        let mut snap = crate::obs::Snapshot::new();
        snap.set_u64("service.workers", self.core.threads() as u64);
        snap.set_u64("service.parked", self.core.parked() as u64);
        snap.set_u64("service.parks", self.core.parks());
        snap.set_u64("service.idle", self.core.idle() as u64);
        snap.set_u64(
            "service.jobs_submitted",
            self.jobs_submitted.load(Ordering::SeqCst),
        );
        snap.set_u64("service.jobs_completed", self.core.jobs_done());
        snap.set_u64("service.inflight_nodes", self.core.inflight() as u64);
        snap.set_u64(
            "service.max_inflight_nodes",
            self.core.max_inflight() as u64,
        );
        let queued = self.core.queued_by_priority();
        let served = self.core.served_by_priority();
        for (i, class) in CLASS.iter().enumerate() {
            snap.set_u64(format!("service.queued.{class}"), queued[i] as u64);
            snap.set_u64(format!("service.served.{class}"), served[i]);
        }
        snap.set_u64(
            "service.sessions_open",
            self.sessions_open.load(Ordering::SeqCst) as u64,
        );
        crate::obs::publish_obs(&mut snap);
        snap
    }

    /// A point-in-time observability snapshot, read through the
    /// unified registry ([`FocusService::snapshot`]) — the typed view
    /// and the registry can never disagree.
    pub fn stats(&self) -> ServiceStats {
        let snap = self.snapshot();
        let per_class = |prefix: &str| {
            ["high", "normal", "low"].map(|class| snap.u64(&format!("{prefix}.{class}")))
        };
        let queued = per_class("service.queued");
        ServiceStats {
            workers: snap.u64("service.workers") as usize,
            parked: snap.u64("service.parked") as usize,
            parks: snap.u64("service.parks"),
            idle: snap.u64("service.idle") != 0,
            jobs_submitted: snap.u64("service.jobs_submitted"),
            jobs_completed: snap.u64("service.jobs_completed"),
            inflight_nodes: snap.u64("service.inflight_nodes") as usize,
            max_inflight_nodes: snap.u64("service.max_inflight_nodes") as usize,
            queued_by_priority: queued.map(|q| q as usize),
            served_by_priority: per_class("service.served"),
            sessions_open: snap.u64("service.sessions_open") as usize,
        }
    }

    /// Session open/close accounting (called by
    /// [`crate::exec::StreamSession`]).
    pub(crate) fn session_opened(&self) {
        self.sessions_open.fetch_add(1, Ordering::SeqCst);
    }

    /// See [`FocusService::session_opened`].
    pub(crate) fn session_closed(&self) {
        self.sessions_open.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Drop for FocusService {
    /// Graceful shutdown: workers finish the admitted backlog, then
    /// exit; the drop joins them all.
    fn drop(&mut self) {
        self.core.shutdown();
        for handle in lock_clean(&self.workers).drain(..) {
            let _ = handle.join();
        }
        // With every worker joined, the rings are quiescent: flush the
        // Chrome trace if `FOCUS_TRACE_OUT` asks for one. (A process
        // with several services exports on each teardown; the last
        // write wins with a superset of the earlier spans, since
        // draining is non-destructive.)
        crate::obs::chrome_trace::export_if_configured();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecMode;
    use crate::pipeline::FocusPipeline;
    use focus_sim::ArchConfig;
    use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};

    fn tiny_job(seed: u64, arch: ArchConfig) -> BatchJob {
        BatchJob {
            pipeline: FocusPipeline::paper().with_exec_mode(ExecMode::Graph { depth: 2 }),
            workload: Workload::new(
                ModelKind::LlavaVideo7B,
                DatasetKind::VideoMme,
                WorkloadScale::tiny(),
                seed,
            ),
            arch,
        }
    }

    #[test]
    fn owned_service_serves_and_parks_between_jobs() {
        let service = FocusService::new(ServiceConfig {
            threads: 2,
            max_inflight_nodes: 4096,
        });
        // Mixed priorities, three distinct architectures, one pool.
        let jobs = [
            (tiny_job(1, ArchConfig::focus()), Priority::Low),
            (tiny_job(2, ArchConfig::vanilla()), Priority::High),
            (tiny_job(3, ArchConfig::adaptiv()), Priority::Normal),
        ];
        let handles: Vec<JobHandle> = jobs
            .iter()
            .map(|(job, priority)| service.submit(job.clone(), *priority))
            .collect();
        assert_eq!(handles[1].priority(), Priority::High);
        let results: Vec<PipelineResult> = handles.into_iter().map(JobHandle::wait).collect();
        for ((job, _), result) in jobs.iter().zip(&results) {
            let serial = job
                .pipeline
                .clone()
                .with_exec_mode(ExecMode::Serial)
                .run(&job.workload, &job.arch);
            assert_eq!(result.work_items, serial.work_items);
            assert_eq!(result.accuracy, serial.accuracy);
        }

        // Between jobs the pool parks: both workers end up blocked on
        // the condvar, and the park counter stops moving.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !service.stats().idle {
            assert!(
                std::time::Instant::now() < deadline,
                "workers failed to park: {:?}",
                service.stats()
            );
            std::thread::yield_now();
        }
        let stats = service.stats();
        assert_eq!(stats.jobs_submitted, 3);
        assert_eq!(stats.jobs_completed, 3);
        assert_eq!(stats.inflight_nodes, 0);

        // Parked, not exited: the same pool serves a follow-up.
        let again = service
            .submit(tiny_job(1, ArchConfig::focus()), Priority::Normal)
            .wait();
        assert_eq!(again.work_items, results[0].work_items);
        // Dropping the service joins the (still-alive) workers.
        drop(service);
    }

    /// Satellite: the non-blocking probes. `try_wait` hands the handle
    /// back while the request runs, yields the bit-identical result
    /// once done, and `is_done() == true` guarantees the next
    /// `try_wait` succeeds — a stream poller can drive many frames
    /// without parking on any one of them.
    #[test]
    fn try_wait_probes_without_blocking() {
        let service = FocusService::new(ServiceConfig::with_threads(2));
        let job = tiny_job(5, ArchConfig::focus());
        let serial = job
            .pipeline
            .clone()
            .with_exec_mode(ExecMode::Serial)
            .run(&job.workload, &job.arch);
        let mut handle = service.submit(job, Priority::Normal);
        let mut polls = 0u64;
        let result = loop {
            if handle.is_done() {
                // Done means the probe must now succeed, not bounce.
                break handle.try_wait().expect("done handle must resolve");
            }
            match handle.try_wait() {
                Ok(result) => break result,
                Err(back) => {
                    handle = back;
                    polls += 1;
                    std::thread::yield_now();
                }
            }
        };
        assert_eq!(result.work_items, serial.work_items);
        assert_eq!(result.accuracy, serial.accuracy);
        // Not a timing assertion — just visibility that polling
        // happened at all on slow machines (0 is fine on fast ones).
        let _ = polls;
    }

    #[test]
    fn submission_with_engine_carries_the_report() {
        let service = FocusService::new(ServiceConfig::with_threads(2));
        let job = tiny_job(7, ArchConfig::focus());
        let engine = Arc::new(Engine::new(job.arch.clone()));
        let (result, report) = service
            .submit_sim(job.clone(), engine, Priority::Normal)
            .wait_sim();
        let fresh = Engine::new(job.arch.clone()).run(&result.work_items);
        assert_eq!(report.expect("engine attached"), fresh);
        // The sim-less submission has no report.
        let (_, none) = service.submit(job, Priority::Normal).wait_sim();
        assert!(none.is_none());
    }
}
