//! [`BatchRunner`]: runs a batch of independent pipeline runs through
//! the shared serving pool.
//!
//! Design-space sweeps and evaluation grids run dozens to hundreds of
//! *independent* `FocusPipeline::run` calls. [`BatchRunner::run`]
//! submits every job into the process-wide [`FocusService`] — the same
//! persistent pool that serves streaming requests — so a batch is just
//! a burst of admissions whose stages interleave with whatever else
//! the service is running. Results come back in submission order,
//! bit-identical to running each job on its own (see
//! `tests/batch_determinism.rs`): each run is a pure function of
//! `(pipeline, workload, arch)`.

use std::sync::Arc;

use focus_sim::{ArchConfig, Engine, SimReport};
use focus_vlm::Workload;

use crate::exec::service::{FocusService, JobHandle};
use crate::exec::Priority;
use crate::pipeline::{FocusPipeline, PipelineResult};

/// One self-contained unit of batched work: a pipeline configuration
/// applied to a workload on an architecture.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// The pipeline configuration to run.
    pub pipeline: FocusPipeline,
    /// The workload to run it on.
    pub workload: Workload,
    /// The architecture to lower against.
    pub arch: ArchConfig,
}

impl BatchJob {
    /// Runs this job to completion.
    pub fn run(&self) -> PipelineResult {
        self.pipeline.run(&self.workload, &self.arch)
    }
}

/// The batch entry point: every job of a batch goes through
/// [`FocusService::global`] as its own task graph, at its pipeline's
/// graph depth (a [`crate::exec::ExecMode::Serial`] job runs at the
/// default depth — the results are the same).
///
/// Each submission clones its job out of the caller's borrow: an
/// admitted request must own its inputs, because the service (and the
/// request) outlives this call's stack frame. The copy is O(scene
/// descriptor) — microseconds against the seconds of measured-phase
/// work a job represents.
pub struct BatchRunner;

impl BatchRunner {
    /// Runs every job with its cycle simulation, returning
    /// `(result, report)` pairs in input order — element `i`'s result
    /// is exactly what `jobs[i].run()` returns. One [`Engine`] is built
    /// per *distinct* [`ArchConfig`] in the job list (config sweeps
    /// share one arch across hundreds of jobs), and each job's `Finish`
    /// node runs its engine. Callers that only need results take `.0`.
    pub fn run(jobs: &[BatchJob]) -> Vec<(PipelineResult, SimReport)> {
        let service = FocusService::global();
        let mut engines: Vec<Arc<Engine>> = Vec::new();
        let handles: Vec<JobHandle> = jobs
            .iter()
            .map(|job| {
                let engine = match engines.iter().find(|e| *e.arch() == job.arch) {
                    Some(e) => Arc::clone(e),
                    None => {
                        let e = Arc::new(Engine::new(job.arch.clone()));
                        engines.push(Arc::clone(&e));
                        e
                    }
                };
                service.submit_sim(job.clone(), engine, Priority::Normal)
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (result, report) = h.wait_sim();
                (result, report.expect("engine attached"))
            })
            .collect()
    }
}

/// Deterministic parallel map over a slice: `f` applied to every item,
/// results in input order. For ad-hoc sweeps (ablations, calibration
/// probes) that batch something other than whole pipeline runs.
///
/// Splits `items` into at most `available_parallelism()` contiguous
/// chunks, one scoped thread each. A panic in `f` is re-raised on the
/// calling thread with its original payload.
pub fn par_map<I, R, F>(items: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk_len = items.len().div_ceil(threads).max(1);
    if items.len() <= chunk_len {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| s.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_vlm::{DatasetKind, ModelKind, WorkloadScale};

    fn tiny(seed: u64) -> Workload {
        Workload::new(
            ModelKind::LlavaVideo7B,
            DatasetKind::VideoMme,
            WorkloadScale::tiny(),
            seed,
        )
    }

    #[test]
    fn run_many_sim_matches_per_result_engines() {
        let jobs: Vec<BatchJob> = [tiny(1), tiny(2)]
            .into_iter()
            .map(|workload| BatchJob {
                pipeline: FocusPipeline::paper(),
                workload,
                arch: ArchConfig::focus(),
            })
            .collect();
        let batched = BatchRunner::run(&jobs);
        for ((r, rep), job) in batched.iter().zip(&jobs) {
            let serial = job.run();
            let serial_rep = Engine::new(ArchConfig::focus()).run(&serial.work_items);
            assert_eq!(r.work_items, serial.work_items);
            assert_eq!(*rep, serial_rep, "shared engine must match a fresh one");
        }
    }

    #[test]
    fn run_jobs_sim_builds_one_engine_per_distinct_arch() {
        // Jobs across two architectures: every report must match what a
        // per-job engine produces, proving the dedup maps jobs to the
        // right engine.
        let wl = tiny(3);
        let jobs: Vec<BatchJob> = [
            ArchConfig::focus(),
            ArchConfig::vanilla(),
            ArchConfig::focus(),
        ]
        .into_iter()
        .map(|arch| BatchJob {
            pipeline: FocusPipeline::paper(),
            workload: wl.clone(),
            arch,
        })
        .collect();
        let batched = BatchRunner::run(&jobs);
        assert_eq!(batched.len(), jobs.len());
        for (job, (r, rep)) in jobs.iter().zip(&batched) {
            let serial = job.run();
            let serial_rep = Engine::new(job.arch.clone()).run(&serial.work_items);
            assert_eq!(r.work_items, serial.work_items);
            assert_eq!(*rep, serial_rep);
        }
    }
}
