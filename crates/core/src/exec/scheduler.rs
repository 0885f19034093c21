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
//! Every ready node — a new job's roots and every released dependent
//! — goes through one **weighted fair** ready queue under the state
//! lock. A worker pops and, when the pop comes back empty, parks
//! within the same hold of that lock, so no push can slip between the
//! scan and the sleep: every producer pushes and bumps a version
//! counter under that lock, and a parked worker waits for the version
//! to move. All internal locking recovers from poisoning, so the
//! first panic payload of a node body is always what propagates —
//! never an opaque `PoisonError`. A panicked job is *skip-drained*:
//! its remaining nodes release their dependents without running, so
//! sibling jobs keep executing and the failed job's waiter gets the
//! original payload.
//!
//! # Fair queueing (no starvation)
//!
//! The ready queue is a deficit-weighted fair queue over
//! **per-job virtual finish times**, held in one binary heap for every
//! class. Each [`Priority`] is a *weight*; every task carries a tag
//! `tag = max(virtual_time, job.finish_tag) + quantum(priority)` where
//! the quantum is inversely proportional to the weight, and the heap
//! pops the **lowest `(tag, seq)` first** (`seq` is the enqueue
//! order, so equal tags stay FIFO); a task's class enters the order
//! only through its tag. Executing any task advances the core's
//! virtual time to that task's tag, so:
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
//! Tags within a job are issued in release order, so the dependents
//! one node releases start in the order the topology lists them —
//! the `single_worker_runs_released_dependents_in_tag_order` test pins
//! it.

use std::any::Any;
use std::collections::BinaryHeap;
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

/// A task in the fair queue, ordered ascending by
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
/// lock: the fair ready queue and the wakeup version counter.
struct CoreState {
    /// Bumped (under this lock) whenever tasks are pushed or the core
    /// shuts down. A worker whose pop came back empty parks at the
    /// version it read in the same hold, and sleeps until it moves.
    version: u64,
    /// The weighted fair ready queue: one heap over every class,
    /// popped lowest `(tag, seq)` first.
    ready: BinaryHeap<QueuedTask>,
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
    /// Worker slots.
    threads: usize,
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
    /// Tasks currently in the fair queue, per priority class.
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
        Core {
            state: Mutex::new(CoreState {
                version: 0,
                ready: BinaryHeap::new(),
                seq: 0,
                shutdown: false,
                settled: 0,
            }),
            work_cv: Condvar::new(),
            threads: threads.max(1),
            inflight: AtomicUsize::new(0),
            max_inflight: max_inflight.max(1),
            admission: Mutex::new(AdmissionTickets::default()),
            space_cv: Condvar::new(),
            admission_waiters: AtomicUsize::new(0),
            virtual_time: AtomicU64::new(0),
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
        self.threads
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

    /// Tasks currently in the fair queue per priority class.
    pub(crate) fn queued_by_priority(&self) -> [usize; Priority::LEVELS] {
        std::array::from_fn(|i| self.queued[i].load(Ordering::SeqCst))
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

    /// Pushes a task into the fair queue (state lock held), counting
    /// it in its class's queue depth.
    fn push_global(&self, st: &mut CoreState, task: Task) {
        self.queued[task.job.priority.index()].fetch_add(1, Ordering::SeqCst);
        let seq = st.seq;
        st.seq += 1;
        st.ready.push(QueuedTask { seq, task });
    }

    /// Pops the lowest-`(tag, seq)` task (state lock held).
    fn pop_global(&self, st: &mut CoreState) -> Option<Task> {
        let task = st.ready.pop()?.task;
        self.queued[task.job.priority.index()].fetch_sub(1, Ordering::SeqCst);
        Some(task)
    }

    /// Makes the tasks just pushed under `st` visible to parked
    /// workers and wakes at most `wake` of them, not the whole pool.
    /// The version bump happens in the same hold of the state lock as
    /// the pushes, so a worker is either still to pop (and finds them)
    /// or already parked at the old version (and wakes). A worker
    /// counted in `parked` is committed to the wait (the counter is
    /// incremented under the same lock), so the readout after the bump
    /// is exact and nobody sleeps through work.
    fn publish(&self, mut st: MutexGuard<'_, CoreState>, wake: usize) {
        self.bump(&mut st);
        drop(st);
        let sleepers = self.parked.load(Ordering::SeqCst);
        for _ in 0..wake.min(sleepers) {
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
        self.publish(st, roots.len());
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

        // The released dependents join the fair queue in one hold of
        // the state lock and are published together.
        let mut batch: Option<(MutexGuard<'_, CoreState>, usize)> = None;
        for &d in job.topology.dependents(node) {
            if job.pending[d].fetch_sub(1, Ordering::SeqCst) == 1 {
                let tag = self.next_tag(&job);
                let (st, released) = batch.get_or_insert_with(|| (lock_clean(&self.state), 0));
                self.push_global(
                    st,
                    Task {
                        job: job.clone(),
                        node: d,
                        tag,
                    },
                );
                *released += 1;
            }
        }
        if let Some((st, released)) = batch {
            self.publish(st, released);
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

    /// The worker loop: pop the lowest-tagged task and run it; when the
    /// pop comes back empty, park on the condvar — in the same hold of
    /// the state lock, so a push cannot slip between the empty pop and
    /// the wait — until a producer publishes. Exits only on
    /// [`Core::shutdown`], and only once the queue is empty.
    pub(crate) fn worker(&self, worker: usize) {
        let mut st = lock_clean(&self.state);
        loop {
            if let Some(task) = self.pop_global(&mut st) {
                drop(st);
                self.exec(worker, task);
                st = lock_clean(&self.state);
                continue;
            }
            if st.shutdown {
                return;
            }
            let seen = st.version;
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
    /// Poisons the state mutex the way a panicking holder would.
    pub(crate) fn poison_internal_locks(&self) {
        let poison = catch_unwind(AssertUnwindSafe(|| {
            let _guard = self.state.lock().unwrap();
            panic!("poison the state");
        }));
        assert!(poison.is_err());
        assert!(self.state.lock().is_err(), "state must be poisoned");
    }

    /// Submitters currently blocked in admission.
    pub(crate) fn admission_waiters(&self) -> usize {
        self.admission_waiters.load(Ordering::SeqCst)
    }
}
