//! The load generator: one thread submits on schedule, one waits on
//! handles. Both loops stamp every item on
//! [`focus_core::obs::clock::now_micros`], the clock the span rings use,
//! so bench-side stamps and spans share one time base.
//!
//! * **Closed loop** ([`Schedule::Closed`]): the next item is submitted
//!   as soon as the previous submission returns (a stream session's
//!   `push_frame` blocks on its in-flight window), until the deadline.
//!   An item is *due* when its submission starts.
//! * **Open loop** ([`Schedule::Open`]): item `i` is due at
//!   `start + i × gap` whatever the system does. A submission that
//!   blocks makes later ones start late; their latency is measured from
//!   the due time, so a stall is charged to every item it delays, and
//!   the generator's own lateness is reported as
//!   [`Drive::gen_lag_max_us`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::time::Duration;

use focus_core::exec::{FrameHandle, JobHandle};
use focus_core::obs::clock::now_micros;

/// How long the waiter sleeps when no pending item has finished.
const POLL: Duration = Duration::from_millis(1);

/// A submitted item the waiter can probe without blocking.
pub trait Pending: Send {
    /// Whether the item has finished (its result is ready).
    fn is_done(&self) -> bool;
}

impl Pending for FrameHandle {
    fn is_done(&self) -> bool {
        FrameHandle::is_done(self)
    }
}

impl Pending for JobHandle {
    fn is_done(&self) -> bool {
        JobHandle::is_done(self)
    }
}

/// When items are submitted.
#[derive(Clone, Copy, Debug)]
pub enum Schedule {
    /// Submit back to back until `run_us` has passed and at least
    /// `min_items` were submitted, or `max_items` are exhausted.
    Closed {
        run_us: u64,
        min_items: usize,
        max_items: usize,
    },
    /// Submit `items` items, item `i` due at `start + i × gap_us`.
    Open { items: usize, gap_us: u64 },
}

/// The timeline of one item, in µs on the span clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stamp {
    /// Submission index (0-based).
    pub index: usize,
    /// When the item was due to be submitted.
    pub due_us: u64,
    /// When the submission call started.
    pub call_us: u64,
    /// When the submission call returned (the item was admitted).
    pub ret_us: u64,
    /// When the waiter saw the item finished.
    pub done_us: u64,
}

impl Stamp {
    /// Latency from the due time to the result.
    pub fn latency_from_due_us(&self) -> u64 {
        self.done_us.saturating_sub(self.due_us)
    }

    /// Latency from admission (the submission's return) to the result.
    pub fn latency_from_admit_us(&self) -> u64 {
        self.done_us.saturating_sub(self.ret_us)
    }

    /// How long the submission call blocked.
    pub fn admit_wait_us(&self) -> u64 {
        self.ret_us.saturating_sub(self.call_us)
    }
}

/// One driven run: every item's stamps and outcome, in submission
/// order, plus the generator's health.
pub struct Drive<O> {
    /// Stamps, indexed by submission order.
    pub stamps: Vec<Stamp>,
    /// Outcomes, parallel to `stamps`: `Err` holds the panic message of
    /// an item whose result re-raised a panic.
    pub outcomes: Vec<Result<O, String>>,
    /// When the first item was due.
    pub start_us: u64,
    /// When the last item was seen finished.
    pub end_us: u64,
    /// Largest lateness of a submission call behind its due time.
    pub gen_lag_max_us: u64,
    /// Largest count of submitted but unfinished items at a submission.
    pub backlog_max: usize,
}

impl<O> Drive<O> {
    /// Items driven.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }
}

/// Drives `submit` on `schedule` from the calling thread while one
/// waiter thread polls the pending items and hands each finished one to
/// `finish` (with its submission index). A panic raised by `finish`
/// becomes that item's `Err` outcome. Returns once every submitted item
/// has finished; the waiter thread is joined.
pub fn drive<P, O, S, F>(schedule: Schedule, mut submit: S, finish: F) -> Drive<O>
where
    P: Pending,
    O: Send,
    S: FnMut(usize) -> P,
    F: Fn(usize, P) -> O + Sync,
{
    let finished = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(Stamp, P)>();
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| wait_all(rx, &finish, &finished));
        let start_us = now_micros();
        let mut gen_lag_max_us = 0;
        let mut backlog_max = 0;
        let mut index = 0;
        loop {
            // `None`: due when the submission starts (closed loop).
            let due_us = match schedule {
                Schedule::Closed {
                    run_us,
                    min_items,
                    max_items,
                } => {
                    let elapsed = now_micros().saturating_sub(start_us);
                    if index >= max_items || (elapsed >= run_us && index >= min_items) {
                        break;
                    }
                    None
                }
                Schedule::Open { items, gap_us } => {
                    if index >= items {
                        break;
                    }
                    let due = start_us + index as u64 * gap_us;
                    let now = now_micros();
                    if due > now {
                        std::thread::sleep(Duration::from_micros(due - now));
                    }
                    Some(due)
                }
            };
            let call_us = now_micros();
            let due_us = due_us.unwrap_or(call_us);
            backlog_max = backlog_max.max(index - finished.load(Ordering::SeqCst));
            let pending = submit(index);
            let ret_us = now_micros();
            gen_lag_max_us = gen_lag_max_us.max(call_us.saturating_sub(due_us));
            let stamp = Stamp {
                index,
                due_us,
                call_us,
                ret_us,
                done_us: 0,
            };
            tx.send((stamp, pending))
                .expect("waiter outlives the submitter");
            index += 1;
        }
        drop(tx);
        let mut done = match waiter.join() {
            Ok(done) => done,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        done.sort_by_key(|(stamp, _)| stamp.index);
        let end_us = done
            .iter()
            .map(|(s, _)| s.done_us)
            .max()
            .unwrap_or(start_us);
        let (stamps, outcomes) = done.into_iter().unzip();
        Drive {
            stamps,
            outcomes,
            start_us,
            end_us,
            gen_lag_max_us,
            backlog_max,
        }
    })
}

/// The waiter loop: takes submitted items off the channel, probes them
/// without blocking, stamps each when seen finished and runs `finish`
/// on it. Ends when the channel is closed and nothing is pending.
fn wait_all<P, O, F>(
    rx: mpsc::Receiver<(Stamp, P)>,
    finish: &F,
    finished: &AtomicUsize,
) -> Vec<(Stamp, Result<O, String>)>
where
    P: Pending,
    F: Fn(usize, P) -> O,
{
    let mut pending: Vec<(Stamp, P)> = Vec::new();
    let mut done = Vec::new();
    let mut open = true;
    loop {
        while open {
            match rx.try_recv() {
                Ok(item) => pending.push(item),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        if pending.is_empty() {
            if !open {
                return done;
            }
            // Nothing to probe: block for the next submission.
            match rx.recv() {
                Ok(item) => pending.push(item),
                Err(_) => open = false,
            }
            continue;
        }
        let now = now_micros();
        let before = done.len();
        let mut k = 0;
        while k < pending.len() {
            if !pending[k].1.is_done() {
                k += 1;
                continue;
            }
            let (mut stamp, item) = pending.swap_remove(k);
            stamp.done_us = now;
            let outcome =
                catch_unwind(AssertUnwindSafe(|| finish(stamp.index, item))).map_err(panic_text);
            finished.fetch_add(1, Ordering::SeqCst);
            done.push((stamp, outcome));
        }
        if done.len() == before {
            std::thread::sleep(POLL);
        }
    }
}

/// The message of a panic payload, for error reports.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake service item that finishes at a fixed clock time.
    struct FakeJob {
        ready_at_us: u64,
        fail: bool,
    }

    impl Pending for FakeJob {
        fn is_done(&self) -> bool {
            now_micros() >= self.ready_at_us
        }
    }

    const MS: u64 = 1000;

    /// An open loop against a fake service whose submission stalls
    /// once: every item due during the stall is submitted late, the
    /// lateness shows in the generator lag, and latency from the due
    /// time charges the stall to each delayed item — while latency
    /// from admission does not see it.
    #[test]
    fn due_time_latency_charges_a_stalled_submission() {
        const STALL: u64 = 80 * MS;
        const SERVICE: u64 = 2 * MS;
        const GAP: u64 = 10 * MS;
        let run = drive(
            Schedule::Open {
                items: 8,
                gap_us: GAP,
            },
            |i| {
                if i == 2 {
                    std::thread::sleep(Duration::from_micros(STALL));
                }
                FakeJob {
                    ready_at_us: now_micros() + SERVICE,
                    fail: false,
                }
            },
            |i, _job| i,
        );
        assert_eq!(run.len(), 8);
        let outputs: Vec<usize> = run.outcomes.iter().map(|o| *o.as_ref().unwrap()).collect();
        assert_eq!(outputs, (0..8).collect::<Vec<_>>());
        for (i, s) in run.stamps.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(
                s.due_us,
                run.start_us + i as u64 * GAP,
                "due times follow the schedule"
            );
            assert!(s.done_us >= s.call_us + SERVICE, "{s:?}");
        }
        // Item 2's own submission blocked for the stall.
        assert!(run.stamps[2].admit_wait_us() >= STALL);
        assert!(run.stamps[2].latency_from_due_us() >= STALL);
        // Item 3 was due 10 ms into the stall: it started ≥ 70 ms late,
        // and its latency from the due time carries that.
        let late3 = run.stamps[3].call_us - run.stamps[3].due_us;
        assert!(late3 >= STALL - GAP, "lateness {late3}");
        assert!(run.stamps[3].latency_from_due_us() >= STALL - GAP + SERVICE);
        assert!(run.gen_lag_max_us >= STALL - GAP);
        // Seen from admission, item 3 looks fast: that is why an open
        // loop times from the due time.
        assert!(run.stamps[3].latency_from_admit_us() < run.stamps[3].latency_from_due_us());
        assert!(run.end_us >= run.stamps[7].done_us);
    }

    #[test]
    fn a_panicking_result_is_an_error_outcome_not_a_crash() {
        let run = drive(
            Schedule::Open {
                items: 3,
                gap_us: MS,
            },
            |i| FakeJob {
                ready_at_us: now_micros(),
                fail: i == 1,
            },
            |i, job| {
                if job.fail {
                    panic!("item {i} failed");
                }
                i
            },
        );
        assert!(run.outcomes[0].is_ok());
        assert_eq!(run.outcomes[1].as_ref().unwrap_err(), "item 1 failed");
        assert!(run.outcomes[2].is_ok());
    }

    /// A closed loop whose submission blocks (as a full stream window
    /// does): lateness is zero by definition, and the loop runs until
    /// the deadline with at least `min_items`.
    #[test]
    fn closed_loop_runs_to_deadline_and_minimum() {
        let run = drive(
            Schedule::Closed {
                run_us: 5 * MS,
                min_items: 4,
                max_items: 1000,
            },
            |_| {
                std::thread::sleep(Duration::from_micros(MS));
                FakeJob {
                    ready_at_us: now_micros(),
                    fail: false,
                }
            },
            |i, _| i,
        );
        assert!(run.len() >= 4);
        assert!(run.len() < 1000);
        assert_eq!(run.gen_lag_max_us, 0);
        assert!(run.end_us - run.start_us >= 5 * MS);
        let capped = drive(
            Schedule::Closed {
                run_us: 60_000 * MS,
                min_items: 0,
                max_items: 3,
            },
            |_| FakeJob {
                ready_at_us: 0,
                fail: false,
            },
            |i, _| i,
        );
        assert_eq!(capped.len(), 3, "inputs exhausted ends the loop");
    }
}
