//! The scheduler core behind [`crate::exec::FocusService`]: it runs
//! admitted jobs — each a shared [`Topology`] plus one dispatch
//! `run(node)` — on a pool of workers that park between requests.
//!
//! A job's DAG is the topology itself: it carries the dependency and
//! dependent lists and the roots, built once per `(plan, depth)` and
//! shared by every job over it. [`JobRun`] holds only what one run
//! owns: its pending counters, the remaining-node count, the panic
//! slot and the done flag. Admission inverts no edges and boxes no
//! per-node closure.
//!
//! Workers keep per-worker LIFO deques with FIFO stealing, a
//! **weighted fair** global ready queue, and a version-counter
//! park/unpark protocol whose sleep decision happens **under the
//! state lock** (no lost-wakeup window — every producer publishes its
//! push by bumping the version under the same lock a parking worker
//! re-checks before it waits). All internal locking recovers from
//! poisoning, so the first panic payload of a node body is always
//! what propagates — never an opaque `PoisonError`. A panicked job is
//! *skip-drained*: its remaining nodes release their dependents
//! without running, so sibling jobs keep executing and the failed
//! job's waiter gets the original payload.
//!
//! # Fair queueing (no starvation)
//!
//! The global ready queue is a deficit-weighted fair queue over
//! **per-job virtual finish times**. Each [`Priority`] is a *weight*;
//! every task carries a tag
//! `tag = max(virtual_time, job.finish_tag) + quantum(priority)` where
//! the quantum is inversely proportional to the weight, and the global
//! queue pops the **lowest tag first**. Executing any task advances
//! the core's virtual time to that task's tag, so:
//!
//! * a high-weight arrival gets a tag barely above the current virtual
//!   time and still jumps ahead of lower-weight backlogs within about
//!   one node;
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::exec::graph::Topology;
use crate::obs::spans::Span;

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

/// The body of one admitted job: `run(node)` executes node `node` of
/// the job's topology.
pub(crate) type Dispatch = Box<dyn Fn(usize) + Send + Sync>;

/// One admitted job: the per-run state the core tracks from injection
/// to completion over a shared [`Topology`]. Task references are
/// `(Arc<JobRun>, node)` pairs, so every queued task carries its job
/// identity — the epoch tag that lets jobs come and go while workers
/// stay up.
pub(crate) struct JobRun {
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
    /// The job's DAG, shared with every other job over the same plan.
    topology: Arc<Topology>,
    /// The job's node body.
    run: Dispatch,
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

impl JobRun {
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
struct Task {
    job: Arc<JobRun>,
    node: usize,
    /// Virtual finish tag: the fair queue pops the lowest tag first,
    /// and executing the task advances the core's virtual time to it.
    tag: u64,
}

/// A task in the global fair queue, ordered ascending by
/// `(tag, seq)` — `seq` is a monotone tiebreak so equal tags stay
/// FIFO. (`Ord` is inverted because [`BinaryHeap`] is a max-heap.)
struct QueuedTask {
    seq: u64,
    task: Task,
}

impl PartialEq for QueuedTask {
    fn eq(&self, other: &Self) -> bool {
        self.task.tag == other.task.tag && self.seq == other.seq
    }
}
impl Eq for QueuedTask {}
impl PartialOrd for QueuedTask {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedTask {
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
struct CoreState {
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
    ready: [BinaryHeap<QueuedTask>; Priority::LEVELS],
    /// Monotone enqueue counter, the FIFO tiebreak for equal tags.
    seq: u64,
    /// Graceful shutdown: workers exit when they would otherwise park.
    shutdown: bool,
    /// Workers parked at the current `version`: no bump since they
    /// went to sleep, so a wakeup sends them straight back to the
    /// wait. A bump zeroes it — every sleeper then has a pending
    /// rescan (it re-parks once notified).
    settled: usize,
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
/// tasks, dynamic job injection, weighted-fair ready ordering (see
/// the module docs), bounded in-flight nodes, and workers that park
/// (not exit) when idle.
pub(crate) struct Core {
    state: Mutex<CoreState>,
    /// Parked workers wait here; producers notify after bumping
    /// `CoreState::version`.
    work_cv: Condvar,
    /// Per-worker deques: own pops are LIFO (data-hot), steals FIFO.
    locals: Vec<Mutex<VecDeque<Task>>>,
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
    /// Workers currently blocked in the park wait (settled or not).
    parked: AtomicUsize,
    /// Mirror of `settled == threads`, written under the state lock:
    /// every worker parked with nothing queued and no pending rescan,
    /// so the pool stays parked until the next publish.
    idle: AtomicBool,
    /// Cumulative park entries (a parked worker does not re-enter; a
    /// spinning one would).
    parks: AtomicU64,
    /// Jobs fully completed (executed or skip-drained).
    jobs_done: AtomicU64,
    next_job: AtomicU64,
}

impl Core {
    /// A core with `threads` worker slots and an in-flight node bound.
    pub(crate) fn new(threads: usize, max_inflight: usize) -> Self {
        let threads = threads.max(1);
        Core {
            state: Mutex::new(CoreState {
                version: 0,
                ready: std::array::from_fn(|_| BinaryHeap::new()),
                seq: 0,
                shutdown: false,
                settled: 0,
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
            idle: AtomicBool::new(false),
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

    /// Whether the pool is quiescent: every worker parked since the
    /// last publish, so none has a wakeup pending and none re-parks
    /// until new work arrives. `parked() == threads()` is weaker: a
    /// worker a publish has released still counts as parked until it
    /// takes the state lock again, and then re-parks.
    pub(crate) fn idle(&self) -> bool {
        self.idle.load(Ordering::SeqCst)
    }

    /// Moves the wakeup version (under the state lock): every parked
    /// worker now has a pending rescan, so the pool is not idle.
    fn bump(&self, st: &mut CoreState) {
        st.version += 1;
        st.settled = 0;
        self.idle.store(false, Ordering::SeqCst);
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
    fn next_tag(&self, job: &JobRun) -> u64 {
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
    fn refresh_min_tags(&self, st: &CoreState, lane: usize) {
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
    fn push_global(&self, st: &mut CoreState, task: Task) {
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
    fn pop_global(&self, st: &mut CoreState) -> Option<Task> {
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
        self.bump(&mut st);
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

    /// Admits one run of `topology` at `priority` — at any time,
    /// including while workers are mid-batch — and returns its job
    /// handle. `run(node)` executes a node once its dependencies have.
    /// Blocks for admission space (see [`Core::admit`]).
    pub(crate) fn inject(
        &self,
        topology: Arc<Topology>,
        run: Dispatch,
        priority: Priority,
    ) -> Arc<JobRun> {
        let total = topology.len();
        let job = Arc::new(JobRun {
            id: self.next_job.fetch_add(1, Ordering::SeqCst),
            priority,
            quantum: priority.quantum(),
            finish_tag: AtomicU64::new(0),
            pending: (0..total)
                .map(|node| AtomicUsize::new(topology.deps(node).len()))
                .collect(),
            remaining: AtomicUsize::new(total),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            topology,
            run,
        });
        self.admit(total);
        let roots = job.topology.roots();
        debug_assert!(!roots.is_empty(), "a topology has a root");
        {
            let mut st = lock_clean(&self.state);
            for &r in roots {
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
        self.publish(roots.len());
        job
    }

    /// Asks workers to exit once the backlog drains: busy workers
    /// finish queued work; parked workers wake and leave.
    pub(crate) fn shutdown(&self) {
        let mut st = lock_clean(&self.state);
        st.shutdown = true;
        self.bump(&mut st);
        drop(st);
        self.work_cv.notify_all();
    }

    fn pop_local(&self, worker: usize) -> Option<Task> {
        lock_clean(&self.locals[worker]).pop_back()
    }

    /// The fairness-ordered fast path: the worker's own LIFO deque
    /// when its newest task is at least as due as the global minimum
    /// tag (one atomic load — locality wins whenever fairness permits),
    /// the global fair queue otherwise.
    fn next_ready(&self, worker: usize) -> Option<Task> {
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
    fn steal(&self, worker: usize) -> Option<Task> {
        let n = self.locals.len();
        (1..n).find_map(|i| lock_clean(&self.locals[(worker + i) % n]).pop_front())
    }

    /// Runs (or skip-drains) one node, releases its dependents, and
    /// retires it against the job and the admission bound. Service of
    /// any node advances the fair queue's virtual clock to the node's
    /// tag — what ages every still-queued task toward the front.
    fn exec(&self, worker: usize, task: Task) {
        let Task { job, node, tag } = task;
        self.virtual_time.fetch_max(tag, Ordering::SeqCst);
        self.served[job.priority.index()].fetch_add(1, Ordering::SeqCst);
        if job.panicked.load(Ordering::SeqCst) {
            // Skip-drain: the job already failed — release structure,
            // run nothing, so siblings proceed and waiters unblock.
        } else {
            // Span recording is observation only — timestamps around
            // the body, ring write after it — so a traced run stays
            // bit-identical to an untraced one. The untraced cost is
            // the one relaxed load in `spans::enabled()`.
            let span_at = crate::obs::spans::enabled().then(crate::obs::clock::now_micros);
            let outcome = catch_unwind(AssertUnwindSafe(|| (job.run)(node)));
            if let Some(t_start_us) = span_at {
                let label = job.topology.kind(node).span_label();
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
        for &d in job.topology.dependents(node) {
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
            let parked = self.parked.fetch_add(1, Ordering::SeqCst) + 1;
            st.settled += 1;
            self.idle
                .store(st.settled == self.threads(), Ordering::SeqCst);
            if parked == self.threads() && st.settled < parked {
                // The last worker to park: sleepers a publish released
                // without a notification would otherwise hold a stale
                // version until the next wakeup and re-park then. Wake
                // them now, so the pool settles and reports idle.
                self.work_cv.notify_all();
            }
            while st.version == seen && !st.shutdown {
                st = wait_clean(&self.work_cv, st);
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Test hooks into the core's private state, for the scheduler unit
/// tests (which run jobs over the shared `Topology` type and live with
/// it in the `graph` module).
#[cfg(test)]
impl Core {
    /// Poisons a worker deque and the state mutex the way a panicking
    /// holder would.
    pub(crate) fn poison_internal_locks(&self) {
        for poison in [
            catch_unwind(AssertUnwindSafe(|| {
                let _guard = self.locals[0].lock().unwrap();
                panic!("poison the deque");
            })),
            catch_unwind(AssertUnwindSafe(|| {
                let _guard = self.state.lock().unwrap();
                panic!("poison the state");
            })),
        ] {
            assert!(poison.is_err());
        }
        assert!(self.locals[0].lock().is_err(), "deque must be poisoned");
        assert!(self.state.lock().is_err(), "state must be poisoned");
    }

    /// Submitters currently blocked in admission.
    pub(crate) fn admission_waiters(&self) -> usize {
        self.admission_waiters.load(Ordering::SeqCst)
    }
}
