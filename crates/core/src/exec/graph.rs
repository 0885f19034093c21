//! The task-graph schedule: the measured + lowering phases of a
//! pipeline run decomposed into explicit task nodes with data
//! dependencies, driven by a small work-stealing scheduler core that
//! admits graphs **dynamically**. Its one front end is the persistent
//! [`crate::exec::FocusService`], whose workers park between requests
//! instead of tearing the pool down. A [`PipelineGraph`] owns its
//! inputs (job, engine, plan, stage scratch), and every node closure
//! holds an `Arc` to it, so an admitted graph outlives the submitting
//! stack frame without borrowing from it.
//!
//! # Node inventory (per transformer layer `l`)
//!
//! | node | work | depends on |
//! |---|---|---|
//! | `Sec(l)` | semantic pruning → retained set + positions | `Sec(l-1)` |
//! | `Synth(l,s)` | activation synthesis (Box–Muller) for gather stage `s` | `Sec(l)`, `Gather(l',s)` of the layer `depth` measured-layers back (scratch ring) |
//! | `Gather(l,s)` | similarity gather over the synthesised activations | `Synth(l,s)` |
//! | `FoldStats(l)` | pure statistics fold of the four gathers (parallel-safe) | `Gather(l,0..4)` |
//! | `Absorb(l)` | in-order absorption into the measured run | `FoldStats(l)`, `Sec(l)`, `Absorb(l-1)` |
//! | `Lower(l)` | the layer's 7-GEMM lowering to paper-scale work items | `Absorb(l)` |
//! | `Finish` | result assembly (+ optional cycle simulation) | every `Lower(l)` |
//!
//! Only the `Sec` chain and the `Absorb` chain are sequential — they
//! carry the retained-token walk and the in-order statistics fold that
//! make results bit-identical to [`ExecMode::Serial`]. The expensive
//! per-layer statistics reduction (`FoldStats`) floats **outside** the
//! ordered chain (ROADMAP item (j)): layer *l*'s fold and lowering
//! overlap layer *l+1*'s synthesis and SEC at any depth, and since
//! every job shares the one [`crate::exec::FocusService`] pool — a
//! batch, a stream's frames, single requests — stages of *different
//! requests* interleave on the same workers, the streaming-serving
//! shape of the paper's architecture.
//!
//! Determinism does not rest on the schedule: every node is a pure
//! function of its input slots (write-once [`OnceLock`]s guarded by
//! the dependency edges), and the two sequential chains pin every
//! order-sensitive reduction. The scheduler therefore never discards
//! or recomputes work.
//!
//! # Scheduler core
//!
//! [`Core`] is the engine behind the service: per-worker LIFO deques
//! with FIFO stealing, a **weighted fair** global ready queue, and a
//! version-counter park/unpark protocol whose sleep decision happens
//! **under the state lock** (no lost-wakeup window — every producer
//! publishes its push by bumping the version under the same lock a
//! parking worker re-checks before it waits). All internal
//! locking recovers from poisoning, so the first panic payload of a
//! task body is always what propagates — never an opaque
//! `PoisonError`. A panicked job is *skip-drained*: its remaining
//! nodes release their dependents without running, so sibling jobs
//! keep executing and the failed job's waiter gets the original
//! payload.
//!
//! # Fair queueing (no starvation)
//!
//! The global ready queue is a deficit-weighted fair queue over
//! **per-job virtual finish times**, replacing the three strict-FIFO
//! priority lanes that let a saturating stream of High jobs starve
//! everything else (ROADMAP (k)). Each [`Priority`] is a *weight*;
//! every task carries a tag
//! `tag = max(virtual_time, job.finish_tag) + quantum(priority)` where
//! the quantum is inversely proportional to the weight, and the global
//! queue pops the **lowest tag first**. Executing any task advances
//! the core's virtual time to that task's tag, so:
//!
//! * a high-weight arrival gets a tag barely above the current virtual
//!   time and still jumps ahead of lower-weight backlogs within about
//!   one node — the old head-of-line bound survives;
//! * a queued low-weight task's tag is **fixed** while virtual time
//!   only moves forward, so it *ages* to the front no matter how fast
//!   higher-weight work keeps arriving. Its wait is bounded by the
//!   weight ratio times the admitted backlog (the in-flight node
//!   bound), independent of the arrival rate — the
//!   `low_job_ages_past_a_saturating_high_flood` test pins the bound.
//!
//! Worker locality survives fairness: released dependents go to the
//! executing worker's LIFO deque, and the deque is preferred whenever
//! its newest task's tag does not trail the global minimum (one atomic
//! load on the fast path).

use std::any::Any;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use focus_sim::{Engine, SimReport};
use focus_vlm::embedding::Stage;

use crate::exec::batch::BatchJob;
use crate::exec::executor::{fold_gathers, gather_stages, ExecMode, LayerRecord};
use crate::exec::stage::{GatherStage, LayerCtx, SemanticStage, StageScratch, StageWorkspace};
use crate::obs::spans::{Span, SpanKind, SpanLabel};
use crate::pipeline::lower::LayerLowered;
use crate::pipeline::measure::{MeasureAccum, MeasureBuffers};
use crate::pipeline::{PipelineResult, SecLayerStats};
use crate::session::{FrameWarm, RetentionPlan, SessionGeometry};
use crate::sic::{Fhw, MatrixGatherStats};

/// Locks `m`, recovering the guard when the mutex was poisoned by a
/// panicking holder. Scheduler-internal state stays valid across
/// panics (queues of plain task references, a monotone counter), so
/// recovering is always sound — and it guarantees the *original*
/// panic payload is what a waiter sees, not a `PoisonError` unwrap.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_clean`].
fn wait_clean<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Per-request service class of a job submitted to the scheduler core
/// (and to [`crate::exec::FocusService`]). A priority is a **weight**
/// in the deficit-weighted fair queue, not an absolute rank: a
/// [`Priority::High`] job receives [`Priority::weight`] times the node
/// throughput of a [`Priority::Low`] one while both are backlogged,
/// and a latency-sensitive High arrival still runs within about one
/// node (its virtual-finish tag lands just past the current virtual
/// time) — but Low work keeps flowing under any High load, with a wait
/// bounded by the weight ratio times the admitted backlog.
/// Already-running nodes are never preempted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work: sweeps, prefetch, speculative requests.
    Low,
    /// The default service class.
    #[default]
    Normal,
    /// Latency-sensitive interactive requests.
    High,
}

impl Priority {
    /// Number of priority levels.
    pub const LEVELS: usize = 3;

    /// Every priority, lowest to highest.
    pub const ALL: [Priority; Priority::LEVELS] = [Priority::Low, Priority::Normal, Priority::High];

    /// Virtual time one node of the **lowest** weight costs; the
    /// quantum of weight `w` is `BASE_QUANTUM / w`. Sized so every
    /// weight divides it exactly — tags stay integral.
    const BASE_QUANTUM: u64 = 4;

    /// Fair-share weight of this class: the node-throughput ratio two
    /// backlogged jobs of different classes receive.
    pub fn weight(self) -> u64 {
        match self {
            Priority::High => 4,
            Priority::Normal => 2,
            Priority::Low => 1,
        }
    }

    /// Virtual-time cost of one node at this weight (lower = served
    /// more often while backlogged).
    pub(crate) fn quantum(self) -> u64 {
        Priority::BASE_QUANTUM / self.weight()
    }

    /// Stable index for per-priority counters (High first).
    pub(crate) fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Handle to a node added to a [`TaskGraph`], used to declare
/// dependencies of later nodes. Only valid within the graph that
/// returned it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TaskId(usize);

struct TaskNode<'s> {
    run: Box<dyn Fn() + Send + Sync + 's>,
    deps: Vec<usize>,
    /// Observability identity, when the caller knows the node's role
    /// ([`crate::obs::spans`] records labelled nodes only).
    label: Option<SpanLabel>,
}

/// A directed acyclic graph of tasks. Nodes are closures over shared
/// state (a [`PipelineGraph`] behind an `Arc`, in the service); edges
/// declare data dependencies. Build one per unit of work (e.g. one
/// pipeline run) and inject it into a live [`Core`] — the scheduler
/// interleaves nodes across graphs freely.
#[derive(Default)]
pub(crate) struct TaskGraph<'s> {
    nodes: Vec<TaskNode<'s>>,
}

impl<'s> TaskGraph<'s> {
    /// An empty graph.
    pub(crate) fn new() -> Self {
        TaskGraph::default()
    }

    /// Adds a node that runs `run` once every task in `deps` has
    /// completed. Dependencies must be handles from **this** graph
    /// (later nodes may only depend on earlier ones, so graphs are
    /// acyclic by construction). When tracing is on, every execution
    /// of a labelled node records a [`crate::obs::Span`] carrying the
    /// label's kind/layer/stage; unlabelled nodes run untraced.
    pub(crate) fn add(
        &mut self,
        deps: &[TaskId],
        label: Option<SpanLabel>,
        run: impl Fn() + Send + Sync + 's,
    ) -> TaskId {
        for d in deps {
            assert!(d.0 < self.nodes.len(), "dependency from another graph");
        }
        self.nodes.push(TaskNode {
            run: Box::new(run),
            deps: deps.iter().map(|d| d.0).collect(),
            label,
        });
        TaskId(self.nodes.len() - 1)
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// Flattened node of one admitted job.
struct FlatNode<'s> {
    run: Box<dyn Fn() + Send + Sync + 's>,
    dependents: Vec<usize>,
    /// Observability identity (see [`TaskGraph::add`]).
    label: Option<SpanLabel>,
}

/// One admitted graph: the job-tagged unit the core tracks from
/// injection to completion. Task references are `(Arc<JobRun>, node)`
/// pairs, so every queued task carries its job identity — the epoch
/// tag that lets graphs come and go while workers stay up.
pub(crate) struct JobRun<'s> {
    /// Monotone admission id (unique per core).
    pub(crate) id: u64,
    /// The fair-queue weight class the job was admitted at.
    priority: Priority,
    /// Virtual-time cost of one node ([`Priority::quantum`], cached).
    quantum: u64,
    /// The job's last issued virtual finish tag: each new task of the
    /// job is tagged `max(virtual_time, finish_tag) + quantum`, so a
    /// backlogged job's tasks march forward in virtual time at a rate
    /// inverse to its weight.
    finish_tag: AtomicU64,
    nodes: Vec<FlatNode<'s>>,
    /// Unmet-dependency counters, one per node.
    pending: Vec<AtomicUsize>,
    /// Nodes not yet executed (or skip-drained).
    remaining: AtomicUsize,
    /// Set by the first panicking node; the rest of the job
    /// skip-drains (dependents released, bodies not run).
    panicked: AtomicBool,
    /// The first panic's payload, re-raised to the job's waiter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl JobRun<'_> {
    /// Blocks until every node has executed or skip-drained.
    pub(crate) fn wait_done(&self) {
        let mut done = lock_clean(&self.done);
        while !*done {
            done = wait_clean(&self.done_cv, done);
        }
    }

    /// Whether the job has completed (all nodes executed or drained).
    pub(crate) fn is_done(&self) -> bool {
        *lock_clean(&self.done)
    }

    /// Takes the first panic payload, if a node panicked.
    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        lock_clean(&self.panic).take()
    }
}

/// One runnable node, tagged with its job identity and its virtual
/// finish time in the fair queue.
struct Task<'s> {
    job: Arc<JobRun<'s>>,
    node: usize,
    /// Virtual finish tag: the fair queue pops the lowest tag first,
    /// and executing the task advances the core's virtual time to it.
    tag: u64,
}

/// A task in the global fair queue, ordered ascending by
/// `(tag, seq)` — `seq` is a monotone tiebreak so equal tags stay
/// FIFO. (`Ord` is inverted because [`BinaryHeap`] is a max-heap.)
struct QueuedTask<'s> {
    seq: u64,
    task: Task<'s>,
}

impl PartialEq for QueuedTask<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.task.tag == other.task.tag && self.seq == other.seq
    }
}
impl Eq for QueuedTask<'_> {}
impl PartialOrd for QueuedTask<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedTask<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inverted: the max-heap then yields the minimum (tag, seq).
        other
            .task
            .tag
            .cmp(&self.task.tag)
            .then(other.seq.cmp(&self.seq))
    }
}

/// State every producer and every parking worker agrees on under one
/// lock: the global fair queue and the wakeup version counter.
struct CoreState<'s> {
    /// Bumped (under this lock) whenever a task is made visible in
    /// *any* queue — global or a worker's local deque — or the core
    /// shuts down. A worker about to park re-reads it under the same
    /// lock, so a push between its queue scan and its wait cannot be
    /// lost: either the version moved (rescan) or the wait starts
    /// before the bump and the accompanying `notify_all` lands on it.
    version: u64,
    /// The weighted fair ready queue, one heap per priority class:
    /// the pop takes the lowest `(tag, seq)` across the (≤ 3) lane
    /// heads, which is exactly the order a single merged heap would
    /// yield — but keeps each class's oldest tag readable at its head,
    /// so the per-class min-tag mirrors (and with them the stats-path
    /// deficit readout) stay O(1). Roots of newly injected jobs land
    /// here.
    ready: [BinaryHeap<QueuedTask<'s>>; Priority::LEVELS],
    /// Monotone enqueue counter, the FIFO tiebreak for equal tags.
    seq: u64,
    /// Graceful shutdown: workers exit when they would otherwise park.
    shutdown: bool,
}

/// Arrival-ordered admission: `serving` is the ticket currently
/// allowed to admit; holders of later tickets wait their turn even
/// when their (smaller) request would fit.
#[derive(Default)]
struct AdmissionTickets {
    next: u64,
    serving: u64,
}

/// The scheduler core behind [`crate::exec::FocusService`]: job-tagged
/// tasks, dynamic graph injection, weighted-fair ready ordering (see
/// the module docs), bounded in-flight nodes, and workers that park
/// (not exit) when idle.
pub(crate) struct Core<'s> {
    state: Mutex<CoreState<'s>>,
    /// Parked workers wait here; producers notify after bumping
    /// `CoreState::version`.
    work_cv: Condvar,
    /// Per-worker deques: own pops are LIFO (data-hot), steals FIFO.
    locals: Vec<Mutex<VecDeque<Task<'s>>>>,
    /// Nodes admitted but not yet executed/drained, across all jobs.
    inflight: AtomicUsize,
    /// Admission bound: [`Core::inject`] blocks while the batch would
    /// push `inflight` past this (backpressure), unless the core is
    /// empty — an oversized single job is always admitted rather than
    /// deadlocking.
    max_inflight: usize,
    /// FIFO admission tickets: submitters admit strictly in arrival
    /// order, so a large request blocked on space cannot be starved by
    /// a stream of small ones slipping past it.
    admission: Mutex<AdmissionTickets>,
    space_cv: Condvar,
    admission_waiters: AtomicUsize,
    /// The fair queue's virtual clock: advanced to every executed
    /// task's tag. A queued task's tag is fixed, so advancing virtual
    /// time is what ages it to the front.
    virtual_time: AtomicU64,
    /// Lowest tag currently in the global fair queue (`u64::MAX` when
    /// empty) — the lock-free fast path a worker probes to decide
    /// whether its own deque may run ahead of the global queue.
    /// Maintained under the state lock on every push/pop.
    global_min_tag: AtomicU64,
    /// Lowest tag queued per priority class (`u64::MAX` for an empty
    /// lane), mirroring the lane heap heads. Maintained under the
    /// state lock on every push/pop so `deficit_by_priority` is a
    /// plain atomic read — a kHz-polling stats consumer never touches
    /// the state lock, let alone scans the queue under it.
    class_min_tag: [AtomicU64; Priority::LEVELS],
    /// Tasks currently in the global fair queue, per priority class.
    queued: [AtomicUsize; Priority::LEVELS],
    /// Nodes executed (or skip-drained), per priority class.
    served: [AtomicU64; Priority::LEVELS],
    /// Workers currently blocked in the park wait.
    parked: AtomicUsize,
    /// Cumulative park entries (a parked worker does not re-enter; a
    /// spinning one would).
    parks: AtomicU64,
    /// Jobs fully completed (executed or skip-drained).
    jobs_done: AtomicU64,
    next_job: AtomicU64,
}

impl<'s> Core<'s> {
    /// A core with `threads` worker slots and an in-flight node bound.
    pub(crate) fn new(threads: usize, max_inflight: usize) -> Self {
        let threads = threads.max(1);
        Core {
            state: Mutex::new(CoreState {
                version: 0,
                ready: std::array::from_fn(|_| BinaryHeap::new()),
                seq: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            inflight: AtomicUsize::new(0),
            max_inflight: max_inflight.max(1),
            admission: Mutex::new(AdmissionTickets::default()),
            space_cv: Condvar::new(),
            admission_waiters: AtomicUsize::new(0),
            virtual_time: AtomicU64::new(0),
            global_min_tag: AtomicU64::new(u64::MAX),
            class_min_tag: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
            queued: Default::default(),
            served: Default::default(),
            parked: AtomicUsize::new(0),
            parks: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            next_job: AtomicU64::new(0),
        }
    }

    /// Worker slots.
    pub(crate) fn threads(&self) -> usize {
        self.locals.len()
    }

    /// Workers currently parked on the wakeup condvar.
    pub(crate) fn parked(&self) -> usize {
        self.parked.load(Ordering::SeqCst)
    }

    /// Cumulative number of times a worker entered the parked state.
    pub(crate) fn parks(&self) -> u64 {
        self.parks.load(Ordering::SeqCst)
    }

    /// Nodes admitted but not yet executed or drained.
    pub(crate) fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// In-flight node bound.
    pub(crate) fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Jobs completed since the core started.
    pub(crate) fn jobs_done(&self) -> u64 {
        self.jobs_done.load(Ordering::SeqCst)
    }

    /// Nodes executed (or skip-drained) per priority class.
    pub(crate) fn served_by_priority(&self) -> [u64; Priority::LEVELS] {
        std::array::from_fn(|i| self.served[i].load(Ordering::SeqCst))
    }

    /// Tasks currently in the global fair queue per priority class.
    pub(crate) fn queued_by_priority(&self) -> [usize; Priority::LEVELS] {
        std::array::from_fn(|i| self.queued[i].load(Ordering::SeqCst))
    }

    /// Per-priority *deficit*: how far (in virtual time) each class's
    /// oldest queued task trails the virtual clock — the live aging
    /// debt the fair queue owes that class. Zero for classes with
    /// nothing queued or whose head is not yet due. O(1): reads the
    /// per-class min-tag mirrors maintained by every push/pop, so even
    /// a kHz-polling stats consumer never contends with workers for
    /// the state lock.
    pub(crate) fn deficit_by_priority(&self) -> [u64; Priority::LEVELS] {
        let vt = self.virtual_time.load(Ordering::SeqCst);
        std::array::from_fn(|i| {
            let oldest = self.class_min_tag[i].load(Ordering::SeqCst);
            if oldest == u64::MAX {
                0
            } else {
                vt.saturating_sub(oldest)
            }
        })
    }

    /// Issues the next virtual finish tag for a task of `job`:
    /// `max(virtual_time, job.finish_tag) + quantum`. Lock-free (CAS
    /// on the job's finish tag) so dependent release on the execution
    /// hot path never takes the state lock just to tag.
    fn next_tag(&self, job: &JobRun<'_>) -> u64 {
        let vt = self.virtual_time.load(Ordering::SeqCst);
        let mut cur = job.finish_tag.load(Ordering::SeqCst);
        loop {
            let proposed = cur.max(vt) + job.quantum;
            match job
                .finish_tag
                .compare_exchange(cur, proposed, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return proposed,
                Err(now) => cur = now,
            }
        }
    }

    /// Re-publishes the min-tag mirrors of lane `lane` and the global
    /// fast path from the lane heap heads (state lock held).
    fn refresh_min_tags(&self, st: &CoreState<'s>, lane: usize) {
        let lane_min = st.ready[lane].peek().map_or(u64::MAX, |e| e.task.tag);
        self.class_min_tag[lane].store(lane_min, Ordering::SeqCst);
        let global = st
            .ready
            .iter()
            .filter_map(|heap| heap.peek())
            .map(|e| e.task.tag)
            .min()
            .unwrap_or(u64::MAX);
        self.global_min_tag.store(global, Ordering::SeqCst);
    }

    /// Pushes a task into the global fair queue (state lock held),
    /// keeping the min-tag fast paths and the per-priority depth in
    /// sync.
    fn push_global(&self, st: &mut CoreState<'s>, task: Task<'s>) {
        let lane = task.job.priority.index();
        self.queued[lane].fetch_add(1, Ordering::SeqCst);
        let seq = st.seq;
        st.seq += 1;
        st.ready[lane].push(QueuedTask { seq, task });
        self.refresh_min_tags(st, lane);
    }

    /// Pops the lowest-`(tag, seq)` task across the lane heaps (state
    /// lock held) — the exact order one merged heap would yield, since
    /// `seq` is globally unique — maintaining the same bookkeeping.
    fn pop_global(&self, st: &mut CoreState<'s>) -> Option<Task<'s>> {
        let mut best: Option<(u64, u64, usize)> = None;
        for (lane, heap) in st.ready.iter().enumerate() {
            if let Some(head) = heap.peek() {
                let key = (head.task.tag, head.seq);
                if best.is_none_or(|(tag, seq, _)| key < (tag, seq)) {
                    best = Some((key.0, key.1, lane));
                }
            }
        }
        let (_, _, lane) = best?;
        let entry = st.ready[lane].pop().expect("lane head just peeked");
        self.queued[lane].fetch_sub(1, Ordering::SeqCst);
        self.refresh_min_tags(st, lane);
        Some(entry.task)
    }

    /// Makes `new_tasks` queued tasks visible to parked workers: the
    /// version bump happens under the state lock **after** the tasks
    /// are already in queues, so a worker that re-checks the version
    /// before sleeping either sees the bump (and rescans) or is
    /// already inside the wait when a notification lands. Wakes at
    /// most `new_tasks` sleepers instead of the whole pool — a worker
    /// counted in `parked` is committed to the wait (the counter is
    /// incremented under the same lock), so the readout after the
    /// bump is exact and nobody sleeps through work.
    fn publish(&self, new_tasks: usize) {
        let mut st = lock_clean(&self.state);
        st.version += 1;
        drop(st);
        let sleepers = self.parked.load(Ordering::SeqCst);
        for _ in 0..new_tasks.min(sleepers) {
            self.work_cv.notify_one();
        }
    }

    /// Blocks until `n` more nodes fit under the in-flight bound (or
    /// the core is empty). Admission is strictly FIFO (ticketed): a
    /// large request waiting for the core to drain holds its place,
    /// so later small submissions queue behind it instead of starving
    /// it. Node completions notify `space_cv`.
    fn admit(&self, n: usize) {
        let mut tickets = lock_clean(&self.admission);
        let ticket = tickets.next;
        tickets.next += 1;
        self.admission_waiters.fetch_add(1, Ordering::SeqCst);
        loop {
            let cur = self.inflight.load(Ordering::SeqCst);
            if tickets.serving == ticket && (cur == 0 || cur + n <= self.max_inflight) {
                // Reserve under the admission lock: `inflight` can only
                // shrink concurrently, so the check stays conservative.
                self.inflight.fetch_add(n, Ordering::SeqCst);
                tickets.serving += 1;
                break;
            }
            tickets = wait_clean(&self.space_cv, tickets);
        }
        self.admission_waiters.fetch_sub(1, Ordering::SeqCst);
        drop(tickets);
        // Hand the turn to the next ticket holder (it may already fit).
        self.space_cv.notify_all();
    }

    /// Admits `graph` at `priority` — at any time, including while
    /// workers are mid-batch — and returns its job handle. Blocks for
    /// admission space (see [`Core::admit`]). An empty graph completes
    /// immediately.
    pub(crate) fn inject(&self, graph: TaskGraph<'s>, priority: Priority) -> Arc<JobRun<'s>> {
        let total = graph.len();
        let mut nodes: Vec<FlatNode<'s>> = Vec::with_capacity(total);
        let mut pending: Vec<AtomicUsize> = Vec::with_capacity(total);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (id, node) in graph.nodes.into_iter().enumerate() {
            pending.push(AtomicUsize::new(node.deps.len()));
            edges.extend(node.deps.iter().map(|&d| (d, id)));
            nodes.push(FlatNode {
                run: node.run,
                dependents: Vec::new(),
                label: node.label,
            });
        }
        for (from, to) in edges {
            nodes[from].dependents.push(to);
        }
        let job = Arc::new(JobRun {
            id: self.next_job.fetch_add(1, Ordering::SeqCst),
            priority,
            quantum: priority.quantum(),
            finish_tag: AtomicU64::new(0),
            nodes,
            pending,
            remaining: AtomicUsize::new(total),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        if total == 0 {
            *lock_clean(&job.done) = true;
            self.jobs_done.fetch_add(1, Ordering::SeqCst);
            return job;
        }
        self.admit(total);
        let roots: Vec<usize> = job
            .pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.load(Ordering::SeqCst) == 0)
            .map(|(id, _)| id)
            .collect();
        debug_assert!(!roots.is_empty(), "a non-empty DAG has a root");
        let n_roots = roots.len();
        {
            let mut st = lock_clean(&self.state);
            for r in roots {
                let tag = self.next_tag(&job);
                self.push_global(
                    &mut st,
                    Task {
                        job: job.clone(),
                        node: r,
                        tag,
                    },
                );
            }
        }
        self.publish(n_roots);
        job
    }

    /// Asks workers to exit once the backlog drains: busy workers
    /// finish queued work; parked workers wake and leave.
    pub(crate) fn shutdown(&self) {
        let mut st = lock_clean(&self.state);
        st.shutdown = true;
        st.version += 1;
        drop(st);
        self.work_cv.notify_all();
    }

    fn pop_local(&self, worker: usize) -> Option<Task<'s>> {
        lock_clean(&self.locals[worker]).pop_back()
    }

    /// The fairness-ordered fast path: the worker's own LIFO deque
    /// when its newest task is at least as due as the global minimum
    /// tag (one atomic load — locality wins whenever fairness permits),
    /// the global fair queue otherwise.
    fn next_ready(&self, worker: usize) -> Option<Task<'s>> {
        let global_min = self.global_min_tag.load(Ordering::SeqCst);
        {
            let mut dq = lock_clean(&self.locals[worker]);
            if let Some(task) = dq.back() {
                if task.tag <= global_min {
                    return dq.pop_back();
                }
            }
        }
        if global_min != u64::MAX {
            let mut st = lock_clean(&self.state);
            if let Some(task) = self.pop_global(&mut st) {
                return Some(task);
            }
        }
        // The global pop raced empty (or the min-tag read was stale):
        // fall back to whatever the local deque holds.
        self.pop_local(worker)
    }

    /// Steals FIFO from peers' deques (their oldest — and roughly
    /// lowest-tagged — task).
    fn steal(&self, worker: usize) -> Option<Task<'s>> {
        let n = self.locals.len();
        (1..n).find_map(|i| lock_clean(&self.locals[(worker + i) % n]).pop_front())
    }

    /// Runs (or skip-drains) one node, releases its dependents, and
    /// retires it against the job and the admission bound. Service of
    /// any node advances the fair queue's virtual clock to the node's
    /// tag — what ages every still-queued task toward the front.
    fn exec(&self, worker: usize, task: Task<'s>) {
        let Task { job, node, tag } = task;
        self.virtual_time.fetch_max(tag, Ordering::SeqCst);
        self.served[job.priority.index()].fetch_add(1, Ordering::SeqCst);
        let flat = &job.nodes[node];
        if job.panicked.load(Ordering::SeqCst) {
            // Skip-drain: the job already failed — release structure,
            // run nothing, so siblings proceed and waiters unblock.
        } else {
            // Span recording is observation only — timestamps around
            // the body, ring write after it — so a traced run stays
            // bit-identical to an untraced one. The untraced cost is
            // the one relaxed load in `spans::enabled()`.
            let span_at = match flat.label {
                Some(_) if crate::obs::spans::enabled() => Some(crate::obs::clock::now_micros()),
                _ => None,
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| (flat.run)()));
            if let (Some(t_start_us), Some(label)) = (span_at, flat.label) {
                crate::obs::spans::record(&Span {
                    job: job.id,
                    kind: label.kind,
                    layer: label.layer,
                    stage: label.stage,
                    worker,
                    priority: job.priority.index(),
                    tag,
                    t_start_us,
                    t_end_us: crate::obs::clock::now_micros(),
                });
            }
            if let Err(payload) = outcome {
                let mut slot = lock_clean(&job.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
                drop(slot);
                job.panicked.store(true, Ordering::SeqCst);
            }
        }

        let mut released = 0;
        for &d in &flat.dependents {
            if job.pending[d].fetch_sub(1, Ordering::SeqCst) == 1 {
                let tag = self.next_tag(&job);
                lock_clean(&self.locals[worker]).push_back(Task {
                    job: job.clone(),
                    node: d,
                    tag,
                });
                released += 1;
            }
        }
        if released > 0 {
            self.publish(released);
        }

        self.inflight.fetch_sub(1, Ordering::SeqCst);
        if self.admission_waiters.load(Ordering::SeqCst) > 0 {
            let _guard = lock_clean(&self.admission);
            self.space_cv.notify_all();
        }

        if job.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Count the job complete *before* waking its waiter, so a
            // returned `wait()` always sees itself in `jobs_done`.
            self.jobs_done.fetch_add(1, Ordering::SeqCst);
            let mut done = lock_clean(&job.done);
            *done = true;
            drop(done);
            job.done_cv.notify_all();
        }
    }

    /// The worker loop: the fairness-ordered fast path first (own
    /// deque LIFO while its newest tag does not trail the global
    /// minimum — so a latency-sensitive high-weight arrival, whose tag
    /// lands just past the virtual clock, is picked up within about
    /// one node), then an authoritative global pop, then the own deque
    /// again, then FIFO steals — and when all run dry, park on the
    /// condvar until a producer publishes. The park decision re-checks
    /// the version **under the state lock**, closing the
    /// scan-then-sleep race. Exits only on [`Core::shutdown`] (and
    /// only once there is nothing left to do).
    pub(crate) fn worker(&self, worker: usize) {
        loop {
            if let Some(task) = self.next_ready(worker) {
                self.exec(worker, task);
                continue;
            }
            let (global, seen) = {
                let mut st = lock_clean(&self.state);
                (self.pop_global(&mut st), st.version)
            };
            if let Some(task) = global {
                self.exec(worker, task);
                continue;
            }
            if let Some(task) = self.pop_local(worker) {
                self.exec(worker, task);
                continue;
            }
            if let Some(task) = self.steal(worker) {
                self.exec(worker, task);
                continue;
            }
            let mut st = lock_clean(&self.state);
            if st.version != seen {
                continue; // work appeared since the scan — rescan
            }
            if st.shutdown {
                return;
            }
            self.parks.fetch_add(1, Ordering::SeqCst);
            self.parked.fetch_add(1, Ordering::SeqCst);
            while st.version == seen && !st.shutdown {
                st = wait_clean(&self.work_cv, st);
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The `Sec(l)` node's output slot: everything downstream nodes of the
/// layer read.
struct LayerInput {
    /// Retained tokens entering the layer.
    retained_in: usize,
    /// Post-prune retained set (what the gathers and the next layer's
    /// SEC see).
    retained: Vec<usize>,
    /// `(frame, row, col)` positions of `retained` (empty when the
    /// layer does not measure).
    positions: Vec<Option<Fhw>>,
    /// SEC statistics when this layer pruned.
    sec: Option<SecLayerStats>,
    /// Whether the gather stages run at this layer.
    measured: bool,
}

/// One node of a [`PipelineGraph`], identified by role: the unit
/// [`topology`] emits and [`PipelineGraph::run_node`] dispatches on.
/// The topology depends only on the retention plan and the depth, so
/// [`crate::exec::node_inventory`] counts nodes without building a
/// graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NodeKind {
    /// Semantic pruning of one layer (sequential chain).
    Sec(usize),
    /// Activation synthesis for (layer, stage) into ring `slot`.
    Synth {
        /// Layer index.
        layer: usize,
        /// Gather-stage index.
        stage: usize,
        /// Scratch ring slot.
        slot: usize,
    },
    /// Similarity gather over the synthesised activations.
    Gather {
        /// Layer index.
        layer: usize,
        /// Gather-stage index.
        stage: usize,
        /// Scratch ring slot.
        slot: usize,
    },
    /// Pure statistics fold of the layer's four gathers — parallel
    /// across layers (ROADMAP (j): off the ordered chain).
    FoldStats(usize),
    /// In-order absorption into the measured run (sequential chain).
    Absorb(usize),
    /// The layer's 7-GEMM lowering at paper scale.
    Lower(usize),
    /// Result assembly + optional cycle simulation.
    Finish,
}

impl NodeKind {
    /// The observability identity of this node: its public
    /// [`SpanKind`] plus layer/stage coordinates (ring slots are a
    /// scratch detail and stay out of spans).
    pub(crate) fn span_label(self) -> SpanLabel {
        match self {
            NodeKind::Sec(layer) => SpanLabel {
                kind: SpanKind::Sec,
                layer: Some(layer),
                stage: None,
            },
            NodeKind::Synth { layer, stage, .. } => SpanLabel {
                kind: SpanKind::Synth,
                layer: Some(layer),
                stage: Some(stage),
            },
            NodeKind::Gather { layer, stage, .. } => SpanLabel {
                kind: SpanKind::Gather,
                layer: Some(layer),
                stage: Some(stage),
            },
            NodeKind::FoldStats(layer) => SpanLabel {
                kind: SpanKind::FoldStats,
                layer: Some(layer),
                stage: None,
            },
            NodeKind::Absorb(layer) => SpanLabel {
                kind: SpanKind::Absorb,
                layer: Some(layer),
                stage: None,
            },
            NodeKind::Lower(layer) => SpanLabel {
                kind: SpanKind::Lower,
                layer: Some(layer),
                stage: None,
            },
            NodeKind::Finish => SpanLabel::bare(SpanKind::Finish),
        }
    }
}

/// The node topology of one run over `plan` at pipeline depth `depth`
/// (≥ 1 in-flight measured layers per gather stage): `(dependencies,
/// kind)` per node, in insertion order — a dependency index always
/// precedes its dependent, mirroring [`TaskGraph::add`]'s contract.
pub(crate) fn topology(plan: &RetentionPlan, depth: usize) -> Vec<(Vec<usize>, NodeKind)> {
    let depth = depth.max(1);
    let stages_n = Stage::GATHER_POINTS.len();
    let mut nodes: Vec<(Vec<usize>, NodeKind)> = Vec::new();
    let mut prev_sec: Option<usize> = None;
    let mut prev_absorb: Option<usize> = None;
    // Gather nodes of earlier measured layers, for the scratch ring
    // edges.
    let mut measured_gathers: Vec<Vec<usize>> = Vec::new();
    let mut lower_ids: Vec<usize> = Vec::new();
    for layer in 0..plan.geometry().layers {
        let sec = nodes.len();
        nodes.push((prev_sec.into_iter().collect(), NodeKind::Sec(layer)));
        let mut absorb_deps: Vec<usize> = vec![sec];
        if plan.measures_at(layer) {
            let ord = measured_gathers.len();
            let slot = ord % depth;
            // A ring slot frees once the gather `depth` measured
            // layers back has consumed it.
            let ring_frees: Vec<Option<usize>> = match ord.checked_sub(depth) {
                Some(prior) => measured_gathers[prior].iter().map(|&g| Some(g)).collect(),
                None => vec![None; stages_n],
            };
            let mut gathers = Vec::with_capacity(stages_n);
            for (stage, ring_free) in ring_frees.into_iter().enumerate() {
                let mut synth_deps = vec![sec];
                synth_deps.extend(ring_free);
                let synth = nodes.len();
                nodes.push((synth_deps, NodeKind::Synth { layer, stage, slot }));
                let gather = nodes.len();
                nodes.push((vec![synth], NodeKind::Gather { layer, stage, slot }));
                gathers.push(gather);
            }
            let fold = nodes.len();
            nodes.push((gathers.clone(), NodeKind::FoldStats(layer)));
            absorb_deps.push(fold);
            measured_gathers.push(gathers);
        }
        absorb_deps.extend(prev_absorb);
        let absorb = nodes.len();
        nodes.push((absorb_deps, NodeKind::Absorb(layer)));
        let lower = nodes.len();
        nodes.push((vec![absorb], NodeKind::Lower(layer)));
        lower_ids.push(lower);
        prev_sec = Some(sec);
        prev_absorb = Some(absorb);
    }
    nodes.push((lower_ids, NodeKind::Finish));
    nodes
}

/// One pipeline run expressed as a task graph: the owned inputs and
/// the shared state every node reads and writes. The service wraps it
/// in an `Arc` that every node closure, the [`crate::exec::JobHandle`]
/// and a stream session's in-flight record share, so no node borrows
/// from the submitting stack frame.
pub(crate) struct PipelineGraph {
    job: BatchJob,
    /// When present, `Finish` also runs the cycle simulation.
    engine: Option<Arc<Engine>>,
    /// Cross-layer synthesis window (≥ 1): the scratch ring's length
    /// per gather stage.
    depth: usize,
    /// The measurement plan: measured-layer predicate, full-set
    /// positions. Derived fresh per run — or shared across every frame
    /// of a [`crate::exec::StreamSession`].
    plan: Arc<RetentionPlan>,
    gathers: Vec<GatherStage>,
    /// Scratch ring: `depth` slots per gather stage (flattened
    /// `stage * depth + slot`). A `Synth`/`Gather` node takes its
    /// slot's scratch for the call and puts it back; the ring edges of
    /// [`topology`] give each slot one user at a time. A slot a
    /// panicking node left empty is refilled on reclaim.
    ring: Vec<Mutex<Option<StageScratch>>>,
    /// The initial retained set (`0..m_img`), `Sec(0)`'s input.
    initial: Vec<usize>,
    m_img: usize,
    inputs: Vec<OnceLock<LayerInput>>,
    /// Per-(layer, stage) gather statistics, consumed by `FoldStats`.
    gathered: Vec<Mutex<Option<MatrixGatherStats>>>,
    /// Per-layer folded records (`FoldStats` output, `Absorb` input).
    records: Vec<Mutex<Option<LayerRecord>>>,
    accum: Mutex<Option<MeasureAccum>>,
    lowered: Vec<Mutex<Option<LayerLowered>>>,
    result: Mutex<Option<(PipelineResult, Option<SimReport>)>>,
    /// Measure-accumulator buffers deposited by `Finish`, for the
    /// owning session to reclaim into the next frame.
    recycled: Mutex<Option<MeasureBuffers>>,
    /// The owning session's cross-frame temporal cache, when temporal
    /// concentration is enabled: gather nodes probe/commit through it.
    /// The session retains its own `Arc` (no reclaim needed).
    temporal: Option<Arc<crate::sic::TemporalCache>>,
}

impl PipelineGraph {
    /// Prepares the state of one run of `job` at its pipeline's graph
    /// depth ([`ExecMode::DEFAULT_GRAPH_DEPTH`] for a
    /// [`ExecMode::Serial`] job — the results are the same), over
    /// session-donated warm state when given: the shared retention
    /// plan plus recycled stage scratch and measure buffers.
    /// Bit-identical to a cold build — warm state is allocation/plan
    /// reuse only.
    pub(crate) fn new(job: BatchJob, engine: Option<Arc<Engine>>, warm: Option<FrameWarm>) -> Self {
        let depth = match job.pipeline.exec_mode {
            ExecMode::Graph { depth } => depth.max(1),
            ExecMode::Serial => ExecMode::DEFAULT_GRAPH_DEPTH,
        };
        let (plan, scratch, measure, temporal) = match warm {
            Some(warm) => (Some(warm.plan), warm.scratch, warm.measure, warm.temporal),
            None => (None, None, None, None),
        };
        let plan = plan
            .unwrap_or_else(|| Arc::new(RetentionPlan::derive(&job.pipeline.focus, &job.workload)));
        assert_eq!(
            plan.geometry(),
            SessionGeometry::of(&job.workload),
            "retention plan geometry must match the workload"
        );
        let gathers = gather_stages(&job.pipeline);
        let stages_n = gathers.len();
        let slots = stages_n * depth;
        let scratch = scratch.unwrap_or_else(|| {
            (0..slots)
                .map(|_| StageScratch::for_workload(&job.workload))
                .collect()
        });
        assert_eq!(
            scratch.len(),
            slots,
            "donated scratch must cover stages x depth"
        );
        let layers_n = plan.geometry().layers;
        let m_img = plan.geometry().m_img;
        let accum = MeasureAccum::with_buffers(m_img, layers_n, measure.unwrap_or_default());
        PipelineGraph {
            engine,
            depth,
            ring: scratch.into_iter().map(|s| Mutex::new(Some(s))).collect(),
            initial: (0..m_img).collect(),
            m_img,
            inputs: (0..layers_n).map(|_| OnceLock::new()).collect(),
            gathered: (0..layers_n * stages_n).map(|_| Mutex::new(None)).collect(),
            records: (0..layers_n).map(|_| Mutex::new(None)).collect(),
            accum: Mutex::new(Some(accum)),
            lowered: (0..layers_n).map(|_| Mutex::new(None)).collect(),
            result: Mutex::new(None),
            recycled: Mutex::new(None),
            temporal,
            plan,
            gathers,
            job,
        }
    }

    /// Wires this run's [`topology`] into a task graph whose node
    /// closures each hold an `Arc` of the run state.
    pub(crate) fn tasks(self: &Arc<Self>) -> TaskGraph<'static> {
        let mut graph = TaskGraph::new();
        let mut ids: Vec<TaskId> = Vec::new();
        for (deps, kind) in topology(&self.plan, self.depth) {
            let deps: Vec<TaskId> = deps.iter().map(|&d| ids[d]).collect();
            let state = Arc::clone(self);
            ids.push(graph.add(&deps, Some(kind.span_label()), move || state.run_node(kind)));
        }
        graph
    }

    /// Runs one node body.
    fn run_node(&self, kind: NodeKind) {
        match kind {
            NodeKind::Sec(layer) => self.sec_task(layer),
            NodeKind::Synth { layer, stage, slot } => self.synth_task(layer, stage, slot),
            NodeKind::Gather { layer, stage, slot } => self.gather_task(layer, stage, slot),
            NodeKind::FoldStats(layer) => self.fold_stats_task(layer),
            NodeKind::Absorb(layer) => self.absorb_task(layer),
            NodeKind::Lower(layer) => self.lower_task(layer),
            NodeKind::Finish => self.finish_task(),
        }
    }

    /// The layer's finished [`LayerInput`] (its `Sec` node ran).
    fn input(&self, layer: usize) -> &LayerInput {
        self.inputs[layer].get().expect("Sec node ran first")
    }

    fn sec_task(&self, layer: usize) {
        let prev: &[usize] = if layer == 0 {
            &self.initial
        } else {
            &self.input(layer - 1).retained
        };
        let ctx = LayerCtx {
            workload: &self.job.workload,
            layer,
            retained: prev,
            positions: &[],
        };
        let semantic = SemanticStage::new(&self.job.pipeline.focus, &self.job.workload);
        let (retained, sec) = match semantic.prune_layer(&ctx) {
            Some((kept, stats)) => (kept, Some(stats)),
            None => (prev.to_vec(), None),
        };
        let measured = self.plan.measures_at(layer);
        let positions: Vec<Option<Fhw>> = if measured {
            self.plan.positions(&retained).into_owned()
        } else {
            Vec::new()
        };
        let set = self.inputs[layer].set(LayerInput {
            retained_in: prev.len(),
            retained,
            positions,
            sec,
            measured,
        });
        assert!(set.is_ok(), "Sec({layer}) ran twice");
    }

    /// Context of a measured layer, borrowing the `Sec` node's output.
    fn ctx(&self, layer: usize) -> LayerCtx<'_> {
        let input = self.input(layer);
        LayerCtx {
            workload: &self.job.workload,
            layer,
            retained: &input.retained,
            positions: &input.positions,
        }
    }

    /// Runs `f` on a workspace pairing the workload's synthesiser with
    /// the scratch of ring slot (`stage`, `slot`), then returns the
    /// scratch to its slot. Only the scratch carries over between
    /// calls: a fresh synthesiser is bit-identical, because each call
    /// is a new (layer, stage) context, which flushes its memo anyway.
    fn with_workspace<R>(
        &self,
        stage: usize,
        slot: usize,
        f: impl FnOnce(&mut StageWorkspace<'_>) -> R,
    ) -> R {
        let cell = &self.ring[stage * self.depth + slot];
        let scratch = lock_clean(cell)
            .take()
            .expect("ring slot holds its scratch");
        let mut ws =
            StageWorkspace::with_scratch_on(&self.job.workload, scratch, self.job.pipeline.backend);
        let out = f(&mut ws);
        *lock_clean(cell) = Some(ws.scratch);
        out
    }

    fn synth_task(&self, layer: usize, stage: usize, slot: usize) {
        let ctx = self.ctx(layer);
        self.with_workspace(stage, slot, |ws| self.gathers[stage].synth(&ctx, ws));
    }

    fn gather_task(&self, layer: usize, stage: usize, slot: usize) {
        let ctx = self.ctx(layer);
        let gather = &self.gathers[stage];
        let stats = self.with_workspace(stage, slot, |ws| match &self.temporal {
            Some(cache) => gather.gather_temporal(&ctx, ws, cache, stage),
            None => gather.gather(&ctx, ws),
        });
        *lock_clean(&self.gathered[layer * self.gathers.len() + stage]) = Some(stats);
    }

    /// The pure half of the old `Fold` node: reduces the four gathers'
    /// statistics into the layer's [`LayerRecord`]. No cross-layer
    /// state — layers fold concurrently, off the ordered chain
    /// (ROADMAP (j)), in the same fixed stage order as every other
    /// schedule, so the arithmetic is bit-identical.
    fn fold_stats_task(&self, layer: usize) {
        let input = self.input(layer);
        let mut record = LayerRecord::empty(input.retained_in, true, input.sec.clone());
        let stages_n = self.gathers.len();
        let outputs: Vec<MatrixGatherStats> = (0..stages_n)
            .map(|s| {
                lock_clean(&self.gathered[layer * stages_n + s])
                    .take()
                    .expect("gather node ran")
            })
            .collect();
        fold_gathers(&mut record, outputs, input.retained.len());
        *lock_clean(&self.records[layer]) = Some(record);
    }

    /// The order-sensitive half: absorbs the layer's record into the
    /// accumulator. Chained on `Absorb(l-1)` — the only sequential
    /// work left per layer is this cheap accumulation, so the critical
    /// path no longer carries the statistics reduction.
    fn absorb_task(&self, layer: usize) {
        let input = self.input(layer);
        let record = if input.measured {
            lock_clean(&self.records[layer])
                .take()
                .expect("FoldStats node ran")
        } else {
            LayerRecord::empty(input.retained_in, false, input.sec.clone())
        };
        let mut accum = lock_clean(&self.accum);
        accum
            .as_mut()
            .expect("accum taken only at finish")
            .absorb(layer, record, &input.retained);
    }

    fn lower_task(&self, layer: usize) {
        // Clone the two finalised layer stats out of the accumulator so
        // the (expensive) lowering runs outside its lock — `Lower`
        // nodes of different layers stay concurrent.
        let (stats, prev) = {
            let accum = lock_clean(&self.accum);
            let layer_stats = accum.as_ref().expect("accum live").layer_stats();
            (
                layer_stats[layer].clone(),
                (layer > 0).then(|| layer_stats[layer - 1].clone()),
            )
        };
        let BatchJob {
            pipeline,
            workload,
            arch,
        } = &self.job;
        let lowered =
            pipeline.lower_layer(workload, arch, self.m_img, layer, &stats, prev.as_ref());
        *lock_clean(&self.lowered[layer]) = Some(lowered);
    }

    fn finish_task(&self) {
        let BatchJob {
            pipeline,
            workload,
            arch,
        } = &self.job;
        let accum = lock_clean(&self.accum).take().expect("finish runs once");
        let (run, buffers) = accum.finish_recycling(workload);
        *lock_clean(&self.recycled) = Some(buffers);
        let per_layer: Vec<LayerLowered> = self
            .lowered
            .iter()
            .map(|slot| lock_clean(slot).take().expect("lower node ran"))
            .collect();
        let result = pipeline.assemble(workload, arch, run, per_layer);
        let report = self
            .engine
            .as_ref()
            .map(|engine| engine.run(&result.work_items));
        *lock_clean(&self.result) = Some((result, report));
    }

    /// Extracts the run's result once the graph has completed: the
    /// assembled result and the cycle report if an engine was
    /// attached.
    pub(crate) fn take_result(&self) -> (PipelineResult, Option<SimReport>) {
        lock_clean(&self.result)
            .take()
            .expect("scheduler completed the graph")
    }

    /// Reclaims the frame's recyclable warm state once the job has
    /// completed (executed **or** skip-drained): the stage scratch of
    /// every ring slot (stage-major, slot-minor — the donation order
    /// [`PipelineGraph::new`] expects) and — when `Finish` actually
    /// ran — the measure buffers. A slot a panicking node left empty
    /// is refilled fresh, so a failed frame still donates a full set;
    /// scratch is re-planned from zero by its next frame, so
    /// mid-write contents are harmless.
    pub(crate) fn reclaim_warm(&self) -> (Vec<StageScratch>, Option<MeasureBuffers>) {
        let scratch = self
            .ring
            .iter()
            .map(|cell| {
                lock_clean(cell)
                    .take()
                    .unwrap_or_else(|| StageScratch::for_workload(&self.job.workload))
            })
            .collect();
        (scratch, lock_clean(&self.recycled).take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::resume_unwind;
    use std::sync::atomic::AtomicU32;

    /// Shuts the core down when dropped: a failing assertion inside a
    /// `thread::scope` then fails its test instead of leaving the
    /// scope waiting forever on parked workers.
    struct ShutdownOnDrop<'a, 's>(&'a Core<'s>);

    impl Drop for ShutdownOnDrop<'_, '_> {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    /// Runs `body` with one scoped thread per worker slot of `core`,
    /// shutting the core down afterwards (also when `body` panics).
    fn with_workers<R>(core: &Core<'_>, body: impl FnOnce() -> R) -> R {
        std::thread::scope(|s| {
            let _shutdown = ShutdownOnDrop(core);
            for w in 0..core.threads() {
                s.spawn(move || core.worker(w));
            }
            body()
        })
    }

    #[test]
    fn scheduler_respects_dependencies() {
        // A diamond: root fans out to two middles joined by a sink that
        // runs last.
        let order = Mutex::new(Vec::<u32>::new());
        let mut graph = TaskGraph::new();
        let root = graph.add(&[], None, || order.lock().unwrap().push(0));
        let a = graph.add(&[root], None, || order.lock().unwrap().push(1));
        let b = graph.add(&[root], None, || order.lock().unwrap().push(2));
        graph.add(&[a, b], None, || order.lock().unwrap().push(3));
        let core = Core::new(4, usize::MAX);
        with_workers(&core, || core.inject(graph, Priority::Normal).wait_done());
        assert_eq!(core.jobs_done(), 1);
        let order = order.lock().unwrap().clone();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
    }

    #[test]
    fn scheduler_interleaves_many_graphs() {
        let counters: Vec<AtomicU32> = (0..5).map(|_| AtomicU32::new(0)).collect();
        let core = Core::new(3, usize::MAX);
        with_workers(&core, || {
            let jobs: Vec<_> = counters
                .iter()
                .map(|counter| {
                    let mut g = TaskGraph::new();
                    let mut prev = None;
                    for _ in 0..10 {
                        let deps: Vec<TaskId> = prev.into_iter().collect();
                        prev = Some(g.add(&deps, None, || {
                            counter.fetch_add(1, Ordering::Relaxed);
                        }));
                    }
                    core.inject(g, Priority::Normal)
                })
                .collect();
            for job in &jobs {
                job.wait_done();
            }
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 10));
    }

    #[test]
    fn empty_batch_is_fine() {
        let core = Core::new(1, usize::MAX);
        let job = core.inject(TaskGraph::new(), Priority::Normal);
        assert!(job.is_done(), "an empty graph completes on admission");
        assert_eq!(core.jobs_done(), 1);
        assert_eq!(core.inflight(), 0);
    }

    #[test]
    #[should_panic(expected = "task boom")]
    fn task_panics_propagate() {
        let mut graph = TaskGraph::new();
        let root = graph.add(&[], None, || {});
        graph.add(&[root], None, || panic!("task boom"));
        // A sibling chain that must not deadlock while the panic
        // skip-drains the graph.
        let mut prev = root;
        for _ in 0..4 {
            prev = graph.add(&[prev], None, || {});
        }
        let core = Core::new(2, usize::MAX);
        let job = with_workers(&core, || {
            let job = core.inject(graph, Priority::Normal);
            job.wait_done();
            job
        });
        if let Some(payload) = job.take_panic() {
            resume_unwind(payload);
        }
    }

    /// A panicking job must not take sibling jobs down with it: the
    /// failed graph skip-drains (its waiter gets the payload), while
    /// the other graph executes every node. The pre-service scheduler
    /// aborted the whole batch on any panic.
    #[test]
    fn sibling_job_completes_when_another_panics() {
        let healthy_ran = AtomicU32::new(0);
        let sick_ran = AtomicU32::new(0);
        let core = Core::new(2, usize::MAX);

        let mut sick = TaskGraph::new();
        let root = sick.add(&[], None, || {
            sick_ran.fetch_add(1, Ordering::SeqCst);
        });
        let boom = sick.add(&[root], None, || panic!("sick job"));
        sick.add(&[boom], None, || {
            sick_ran.fetch_add(1, Ordering::SeqCst);
        });

        let mut healthy = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for _ in 0..20 {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(healthy.add(&deps, None, || {
                healthy_ran.fetch_add(1, Ordering::SeqCst);
            }));
        }

        std::thread::scope(|s| {
            let _shutdown = ShutdownOnDrop(&core);
            for w in 0..2 {
                let core = &core;
                s.spawn(move || core.worker(w));
            }
            let sick_job = core.inject(sick, Priority::High);
            let healthy_job = core.inject(healthy, Priority::Low);
            sick_job.wait_done();
            healthy_job.wait_done();
            // The sick job carries its own payload; the healthy one
            // carries none and executed everything.
            let payload = sick_job.take_panic().expect("sick job panicked");
            assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "sick job");
            assert!(healthy_job.take_panic().is_none());
        });
        assert_eq!(sick_ran.load(Ordering::SeqCst), 1, "only the root ran");
        assert_eq!(healthy_ran.load(Ordering::SeqCst), 20);
    }

    /// Regression (poisoned-lock satellite): internal scheduler
    /// mutexes poisoned by a panicking holder must not surface as an
    /// opaque `PoisonError` unwrap — work keeps flowing through the
    /// poisoned queues and a task panic still re-raises the *original*
    /// payload. The pre-fix scheduler `unwrap()`ed every lock and blew
    /// up on first contact with a poisoned deque.
    #[test]
    fn poisoned_queue_mutexes_do_not_mask_the_panic_payload() {
        let ran = AtomicU32::new(0);
        let core = Core::new(2, usize::MAX);
        // Poison a worker deque and the state mutex the way a panicking
        // holder would.
        for poison in [
            catch_unwind(AssertUnwindSafe(|| {
                let _guard = core.locals[0].lock().unwrap();
                panic!("poison the deque");
            })),
            catch_unwind(AssertUnwindSafe(|| {
                let _guard = core.state.lock().unwrap();
                panic!("poison the state");
            })),
        ] {
            assert!(poison.is_err());
        }
        assert!(core.locals[0].lock().is_err(), "deque must be poisoned");
        assert!(core.state.lock().is_err(), "state must be poisoned");

        // A healthy graph still runs to completion through the
        // poisoned locks…
        let mut graph = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for _ in 0..8 {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(graph.add(&deps, None, || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        // …and a panicking graph re-raises its own payload, not the
        // poison.
        let mut sick = TaskGraph::new();
        sick.add(&[], None, || panic!("genuine payload"));

        std::thread::scope(|s| {
            let _shutdown = ShutdownOnDrop(&core);
            for w in 0..2 {
                let core = &core;
                s.spawn(move || core.worker(w));
            }
            let healthy = core.inject(graph, Priority::Normal);
            let sick = core.inject(sick, Priority::Normal);
            healthy.wait_done();
            sick.wait_done();
            let payload = sick.take_panic().expect("sick graph panicked");
            assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "genuine payload");
        });
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    /// Regression (lost-wakeup satellite): hammer concurrent injection
    /// against parking workers at every worker count. A task enqueued
    /// between a worker's queue scan and its condvar wait must wake it
    /// — under the old two-phase version read a stalled wakeup showed
    /// up here as a hang (the job never completed until an unrelated
    /// submission happened to bump the version).
    #[test]
    fn submit_vs_park_stress() {
        for threads in 1..=4 {
            let executed = AtomicU32::new(0);
            let core = Core::new(threads, usize::MAX);
            const SUBMITTERS: usize = 4;
            const JOBS_EACH: usize = 32;
            std::thread::scope(|s| {
                let _shutdown = ShutdownOnDrop(&core);
                for w in 0..threads {
                    let core = &core;
                    s.spawn(move || core.worker(w));
                }
                let handles: Vec<_> = (0..SUBMITTERS)
                    .map(|i| {
                        let core = &core;
                        let executed = &executed;
                        s.spawn(move || {
                            let mut jobs = Vec::new();
                            for j in 0..JOBS_EACH {
                                // Tiny graphs (1–3 chained nodes) so the
                                // workers park between most injections.
                                let mut g = TaskGraph::new();
                                let mut prev: Option<TaskId> = None;
                                for _ in 0..(1 + (i + j) % 3) {
                                    let deps: Vec<TaskId> = prev.into_iter().collect();
                                    prev = Some(g.add(&deps, None, || {
                                        executed.fetch_add(1, Ordering::SeqCst);
                                    }));
                                }
                                let priority = Priority::ALL[(i + j) % Priority::LEVELS];
                                jobs.push(core.inject(g, priority));
                                if j % 8 == 0 {
                                    // Give workers a chance to drain and
                                    // park, so later injections hit
                                    // sleeping workers.
                                    std::thread::yield_now();
                                }
                            }
                            for job in &jobs {
                                job.wait_done();
                            }
                        })
                    })
                    .collect();
                for handle in handles {
                    handle.join().unwrap();
                }
                let expect: u64 = (0..SUBMITTERS)
                    .flat_map(|i| (0..JOBS_EACH).map(move |j| (1 + (i + j) % 3) as u64))
                    .sum();
                assert_eq!(
                    executed.load(Ordering::SeqCst) as u64,
                    expect,
                    "{threads} workers"
                );
            });
        }
    }

    /// Workers park between jobs instead of spinning or exiting: after
    /// the backlog drains every worker is blocked on the condvar, the
    /// cumulative park count stops moving, and a later injection still
    /// executes (nobody exited).
    #[test]
    fn idle_workers_park_and_resume() {
        let ran = AtomicU32::new(0);
        let core = Core::new(3, usize::MAX);
        std::thread::scope(|s| {
            let _shutdown = ShutdownOnDrop(&core);
            for w in 0..3 {
                let core = &core;
                s.spawn(move || core.worker(w));
            }
            // Quiesce: all three workers must end up parked.
            let quiesce = || {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while core.parked() != 3 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "workers failed to park; parked = {}",
                        core.parked()
                    );
                    std::thread::yield_now();
                }
            };
            // Start from a parked pool, so the job's wakeup goes to the
            // worker that runs it: no notification is still in flight
            // when the park counter is read below.
            quiesce();
            let mut g = TaskGraph::new();
            g.add(&[], None, || {});
            core.inject(g, Priority::Normal).wait_done();
            quiesce();
            // A parked worker stays parked — no spin (a spinning worker
            // re-enters the park and bumps the counter).
            let parks = core.parks();
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert_eq!(core.parks(), parks, "parked workers must not spin");

            // And parked ≠ exited: new work still runs.
            let mut g = TaskGraph::new();
            g.add(&[], None, || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
            core.inject(g, Priority::High).wait_done();
            assert_eq!(ran.load(Ordering::SeqCst), 1);
        });
    }

    /// The one-node head-of-line bound of [`Priority::High`]: a
    /// high-priority arrival runs as soon as the (single) worker
    /// finishes its current node, not after the in-flight
    /// low-priority chain drains.
    #[test]
    fn high_priority_jumps_ahead_of_a_running_request() {
        use std::sync::atomic::AtomicBool;
        let seq = Mutex::new(Vec::<&'static str>::new());
        let gate = AtomicBool::new(false);
        let core = Core::new(1, usize::MAX);

        let mut low = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for i in 0..10 {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            let (seq, gate) = (&seq, &gate);
            prev = Some(low.add(&deps, None, move || {
                if i == 0 {
                    // Hold the worker inside the first node until the
                    // high-priority job has been injected.
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                seq.lock().unwrap().push("low");
            }));
        }
        let mut high = TaskGraph::new();
        high.add(&[], None, || seq.lock().unwrap().push("HIGH"));

        std::thread::scope(|s| {
            let _shutdown = ShutdownOnDrop(&core);
            let core = &core;
            s.spawn(move || core.worker(0));
            let low_job = core.inject(low, Priority::Low);
            let high_job = core.inject(high, Priority::High);
            gate.store(true, Ordering::SeqCst);
            high_job.wait_done();
            low_job.wait_done();
        });
        let seq = seq.lock().unwrap().clone();
        let pos = seq.iter().position(|s| *s == "HIGH").unwrap();
        assert!(
            pos <= 1,
            "high-priority node must wait for at most one in-flight node, ran at {pos}: {seq:?}"
        );
    }

    /// The anti-starvation half of the fair queue: under a saturating
    /// flood of High jobs (a producer keeps the global queue stocked
    /// for as long as the Low job lives), a Low job still completes,
    /// and the number of High nodes served while it waited stays
    /// within the weight-ratio aging bound. Under the old strict-
    /// priority lanes the Low job ran only after the *entire* flood
    /// drained — the High-node count here was the whole flood.
    #[test]
    fn low_job_ages_past_a_saturating_high_flood() {
        use std::sync::atomic::AtomicBool;
        let low_nodes = 6u64;
        let high_done = AtomicU32::new(0);
        // High nodes served by the time the Low job's last node runs.
        let high_at_low_finish = AtomicU32::new(0);
        let low_done = AtomicBool::new(false);
        let low_ran = AtomicU32::new(0);
        let core = Core::new(1, usize::MAX);
        std::thread::scope(|s| {
            let _shutdown = ShutdownOnDrop(&core);
            let core = &core;
            s.spawn(move || core.worker(0));

            // Prime the flood before the Low job arrives, then keep it
            // saturated: never fewer than 4 High jobs queued until the
            // Low job finishes (bounded at 600 so a starvation bug
            // fails the assertion instead of hanging the suite).
            let producer = s.spawn(|| {
                let mut injected = 0u64;
                let mut handles = Vec::new();
                while !low_done.load(Ordering::SeqCst) && injected < 600 {
                    // Keep 4–8 High jobs outstanding (jobs_done also
                    // counts the Low job once it lands — harmless).
                    while injected.saturating_sub(core.jobs_done()) > 8 {
                        if low_done.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    let mut g = TaskGraph::new();
                    let a = g.add(&[], None, || {});
                    g.add(&[a], None, || {
                        high_done.fetch_add(1, Ordering::SeqCst);
                    });
                    handles.push(core.inject(g, Priority::High));
                    injected += 1;
                }
                handles
            });

            // Let the flood establish itself, then submit the Low job.
            while core.jobs_done() < 8 {
                std::thread::yield_now();
            }
            let mut low = TaskGraph::new();
            let mut prev: Option<TaskId> = None;
            for i in 0..low_nodes {
                let deps: Vec<TaskId> = prev.into_iter().collect();
                let (high_done, high_at_low_finish) = (&high_done, &high_at_low_finish);
                let low_ran = &low_ran;
                prev = Some(low.add(&deps, None, move || {
                    low_ran.fetch_add(1, Ordering::SeqCst);
                    if i + 1 == low_nodes {
                        let served = high_done.load(Ordering::SeqCst);
                        high_at_low_finish.store(served, Ordering::SeqCst);
                    }
                }));
            }
            let high_before = high_done.load(Ordering::SeqCst) as u64;
            let low_job = core.inject(low, Priority::Low);
            low_job.wait_done();
            // Counted where the Low job finishes, not where this thread
            // wakes up: under CPU load the waiter can lag the worker by
            // many High nodes that were not served while Low waited.
            let high_during = high_at_low_finish.load(Ordering::SeqCst) as u64 - high_before;
            low_done.store(true, Ordering::SeqCst);
            let handles = producer.join().unwrap();
            for h in &handles {
                h.wait_done();
            }
            assert_eq!(low_ran.load(Ordering::SeqCst) as u64, low_nodes);
            // Aging bound: each Low node (quantum 4) lets roughly
            // weight-ratio High nodes (quantum 1) pass, plus the
            // already-admitted backlog. Generous 4x slack keeps the
            // bound scheduling-jitter-proof while still catching
            // strict-priority starvation (which serves the full
            // 600-job flood first).
            let ratio = Priority::Low.quantum() / Priority::High.quantum();
            let bound = 4 * (ratio * (low_nodes + 2) + 16);
            assert!(
                high_during <= bound,
                "Low job waited through {high_during} High nodes (bound {bound})"
            );
        });
    }

    /// The in-flight node bound is live: submissions past the bound
    /// block until space frees, an oversized job is still admitted
    /// when the core is idle, and everything completes.
    #[test]
    fn admission_control_bounds_inflight_nodes() {
        let executed = AtomicU32::new(0);
        let core = Core::new(2, 4);
        assert_eq!(core.max_inflight(), 4);
        std::thread::scope(|s| {
            let _shutdown = ShutdownOnDrop(&core);
            for w in 0..2 {
                let core = &core;
                s.spawn(move || core.worker(w));
            }
            // An oversized job (6 nodes > bound 4) admits while idle.
            let mut big = TaskGraph::new();
            let mut prev: Option<TaskId> = None;
            for _ in 0..6 {
                let deps: Vec<TaskId> = prev.into_iter().collect();
                prev = Some(big.add(&deps, None, || {
                    executed.fetch_add(1, Ordering::SeqCst);
                }));
            }
            core.inject(big, Priority::Normal).wait_done();
            assert_eq!(executed.load(Ordering::SeqCst), 6);

            // A burst of small jobs flows through the bound with
            // backpressure; everything still completes.
            let jobs: Vec<_> = (0..16)
                .map(|_| {
                    let mut g = TaskGraph::new();
                    let a = g.add(&[], None, || {
                        executed.fetch_add(1, Ordering::SeqCst);
                    });
                    g.add(&[a], None, || {
                        executed.fetch_add(1, Ordering::SeqCst);
                    });
                    core.inject(g, Priority::Normal)
                })
                .collect();
            for job in &jobs {
                job.wait_done();
            }
            assert_eq!(executed.load(Ordering::SeqCst), 6 + 32);
            assert_eq!(core.inflight(), 0, "all admissions retired");
        });
    }

    /// Admission is FIFO: an oversized request waiting for the core to
    /// drain holds its ticket, so a stream of small submissions lands
    /// *behind* it instead of keeping `inflight` non-zero forever and
    /// starving it. The test terminates only if the big job admits.
    #[test]
    fn oversized_admission_is_not_starved_by_small_jobs() {
        let executed = AtomicU32::new(0);
        let core = Core::new(2, 4);
        let chain = |len: usize| {
            let mut g = TaskGraph::new();
            let mut prev: Option<TaskId> = None;
            for _ in 0..len {
                let deps: Vec<TaskId> = prev.into_iter().collect();
                let executed = &executed;
                prev = Some(g.add(&deps, None, move || {
                    executed.fetch_add(1, Ordering::SeqCst);
                    std::thread::yield_now();
                }));
            }
            g
        };
        std::thread::scope(|s| {
            let _shutdown = ShutdownOnDrop(&core);
            for w in 0..2 {
                let core = &core;
                s.spawn(move || core.worker(w));
            }
            // Occupy the core, then race an oversized submission (8 >
            // bound 4, admits only at inflight == 0) against a stream
            // of small ones submitted after it took its ticket.
            let head = core.inject(chain(3), Priority::Normal);
            let big = s.spawn(|| {
                let big = core.inject(chain(8), Priority::Normal);
                big.wait_done();
                big.is_done()
            });
            // Give the big submission time to take its admission
            // ticket before the small stream arrives behind it (bounded
            // spin: if the core drained first, big admitted already and
            // the stream is simply ordinary traffic).
            for _ in 0..10_000 {
                if core.admission_waiters.load(Ordering::SeqCst) > 0 {
                    break;
                }
                std::thread::yield_now();
            }
            let trailing: Vec<_> = (0..6)
                .map(|_| core.inject(chain(2), Priority::Normal))
                .collect();
            assert!(big.join().unwrap(), "the oversized job completed");
            head.wait_done();
            for job in &trailing {
                job.wait_done();
            }
            assert_eq!(executed.load(Ordering::SeqCst), 3 + 8 + 12);
        });
    }
}
