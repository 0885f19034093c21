//! Determinism of the parallel execution engine: `BatchRunner` and
//! graph-schedule results must be **identical** — sparsity, accuracy,
//! the full work-item list, DRAM traffic, and every per-layer record —
//! to the single-threaded `ExecMode::Serial` reference, for any worker
//! count. Tests that need real concurrency pin it explicitly on an
//! owned service (`ServiceConfig::with_threads`), so a 1-CPU box still
//! exercises it.

use focus::core::exec::{
    BatchJob, BatchRunner, ExecMode, FocusService, GatherStage, JobHandle, LayerCtx, Priority,
    ServiceConfig, StageWorkspace,
};
use focus::core::pipeline::{FocusPipeline, PipelineResult};
use focus::core::sic::{ConvLayouter, Fhw};
use focus::core::{FocusConfig, RetentionSchedule};
use focus::sim::ArchConfig;
use focus::tensor::backend::{scalar_ref, simd};
use focus::tensor::DataType;
use focus::vlm::embedding::Stage;
use focus::vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};
use proptest::prelude::*;

fn assert_identical(parallel: &PipelineResult, serial: &PipelineResult, what: &str) {
    // Bitwise float equality is intentional: the engine promises
    // *identical* results, not merely close ones.
    assert_eq!(parallel.sparsity(), serial.sparsity(), "{what}: sparsity");
    assert_eq!(parallel.accuracy, serial.accuracy, "{what}: accuracy");
    assert_eq!(
        parallel.dense_accuracy, serial.dense_accuracy,
        "{what}: dense accuracy"
    );
    assert_eq!(parallel.work_items, serial.work_items, "{what}: work items");
    assert_eq!(
        parallel.dram_bytes(),
        serial.dram_bytes(),
        "{what}: DRAM bytes"
    );
    assert_eq!(parallel.layers, serial.layers, "{what}: layer stats");
    assert_eq!(parallel.sec_layers, serial.sec_layers, "{what}: SEC stats");
    assert_eq!(
        parallel.focus_macs, serial.focus_macs,
        "{what}: effective MACs"
    );
    assert_eq!(
        parallel.weight_bytes, serial.weight_bytes,
        "{what}: weight bytes"
    );
    assert_eq!(
        (parallel.sic_comparisons, parallel.sic_matches),
        (serial.sic_comparisons, serial.sic_matches),
        "{what}: matcher counters"
    );
}

/// The reference result of `job`: the same pipeline on the
/// single-threaded [`ExecMode::Serial`] schedule.
fn serial_reference(job: &BatchJob) -> PipelineResult {
    job.pipeline
        .clone()
        .with_exec_mode(ExecMode::Serial)
        .run(&job.workload, &job.arch)
}

/// One graph-default Table I job per workload on the Focus arch.
fn paper_jobs(workloads: &[Workload]) -> Vec<BatchJob> {
    workloads
        .iter()
        .map(|wl| BatchJob {
            pipeline: FocusPipeline::paper(),
            workload: wl.clone(),
            arch: ArchConfig::focus(),
        })
        .collect()
}

#[test]
fn run_many_matches_sequential_over_seeds_and_models() {
    let cells = [
        (ModelKind::LlavaVideo7B, DatasetKind::VideoMme, 1u64),
        (ModelKind::LlavaVideo7B, DatasetKind::Mlvu, 7),
        (ModelKind::LlavaOneVision7B, DatasetKind::MvBench, 13),
        (ModelKind::MiniCpmV26, DatasetKind::VideoMme, 42),
    ];
    let workloads: Vec<Workload> = cells
        .iter()
        .map(|&(m, d, seed)| Workload::new(m, d, WorkloadScale::tiny(), seed))
        .collect();
    let jobs = paper_jobs(&workloads);

    let batched = BatchRunner::run(&jobs);
    assert_eq!(batched.len(), jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        assert_identical(
            &batched[i].0,
            &serial_reference(job),
            &format!("cell {i} (seed {})", job.workload.seed()),
        );
    }
}

/// `Serial`-mode jobs go through the batch path too (the service runs
/// them at the default graph depth): each result is bit-identical to
/// that job's own `pipeline.run`, which for a `Serial` pipeline is the
/// reference loop on the calling thread.
#[test]
fn serial_mode_jobs_batch_like_their_own_runs() {
    let jobs: Vec<BatchJob> = [(ModelKind::LlavaVideo7B, 3u64), (ModelKind::MiniCpmV26, 11)]
        .into_iter()
        .map(|(model, seed)| BatchJob {
            pipeline: FocusPipeline::paper().with_exec_mode(ExecMode::Serial),
            workload: Workload::new(model, DatasetKind::VideoMme, WorkloadScale::tiny(), seed),
            arch: ArchConfig::focus(),
        })
        .collect();
    let batched = BatchRunner::run(&jobs);
    for (i, job) in jobs.iter().enumerate() {
        let own = job.pipeline.run(&job.workload, &job.arch);
        assert_identical(&batched[i].0, &own, &format!("serial-mode job {i}"));
        let own_rep = focus::sim::Engine::new(job.arch.clone()).run(&own.work_items);
        assert_eq!(batched[i].1, own_rep, "serial-mode job report {i}");
    }
}

#[test]
fn run_jobs_matches_sequential_over_configs() {
    let wl = Workload::new(
        ModelKind::LlavaVideo7B,
        DatasetKind::VideoMme,
        WorkloadScale::tiny(),
        42,
    );
    let mut low_threshold = FocusConfig::paper();
    low_threshold.threshold = 0.8;
    let mut small_tiles = FocusConfig::paper();
    small_tiles.tile_m = 256;
    let configs = [
        FocusConfig::paper(),
        FocusConfig::sec_only(),
        low_threshold,
        small_tiles,
    ];
    let jobs: Vec<BatchJob> = configs
        .iter()
        .map(|cfg| BatchJob {
            pipeline: FocusPipeline::with_config(cfg.clone()),
            workload: wl.clone(),
            arch: ArchConfig::focus(),
        })
        .collect();

    let batched = BatchRunner::run(&jobs);
    assert_eq!(batched.len(), jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        assert_identical(
            &batched[i].0,
            &serial_reference(job),
            &format!("config {i}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The task-graph schedule at pipeline depths 1..=4 on an owned
    /// service of 1..=4 workers is **bit-identical** to the
    /// single-threaded reference schedule, for arbitrary retention
    /// schedules, precisions and models.
    #[test]
    fn all_exec_modes_match_serial_over_schedules(
        prune_layers in proptest::collection::btree_set(1usize..28, 0..6),
        ratios in proptest::collection::vec(0.08f64..0.95, 0..6),
        model_pick in 0usize..3,
        int8 in 0usize..2,
        seed in 0u64..1000,
        depth in 1usize..=4,
        threads in 1usize..=4,
    ) {
            // Assemble a valid schedule: strictly increasing layers with
        // non-increasing retention ratios.
        let layers: Vec<usize> = prune_layers.into_iter().collect();
        let mut ratios = ratios;
        ratios.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let entries: Vec<(usize, f64)> = layers.into_iter().zip(ratios).collect();
        let mut cfg = FocusConfig::paper();
        cfg.schedule = RetentionSchedule::new(entries);

        let model = ModelKind::VIDEO_MODELS[model_pick];
        let wl = Workload::new(model, DatasetKind::VideoMme, WorkloadScale::tiny(), seed);
        let mut pipeline = FocusPipeline::with_config(cfg);
        if int8 == 1 {
            pipeline.dtype = DataType::Int8;
        }
        let arch = ArchConfig::focus();
        let serial = pipeline.clone().with_exec_mode(ExecMode::Serial).run(&wl, &arch);
        let service = FocusService::new(ServiceConfig::with_threads(threads));
        let job = BatchJob {
            pipeline: pipeline.with_exec_mode(ExecMode::Graph { depth }),
            workload: wl,
            arch,
        };
        let graph = service.submit(job, Priority::Normal).wait();
        assert_identical(
            &graph,
            &serial,
            &format!("graph depth {depth} x{threads}, schedule seed {seed}, int8 {int8}"),
        );
    }

    /// Serving-path determinism: jobs with distinct configurations and
    /// architectures, submitted **out of order** at **mixed
    /// priorities** through the one shared [`FocusService`], come back
    /// bit-identical to [`ExecMode::Serial`].
    #[test]
    fn service_submissions_match_serial_for_any_order_and_priority(
        perm in 0usize..24,
        prios in proptest::collection::vec(0usize..3, 4..5),
        depth in 1usize..=4,
        seed in 0u64..1000,
    ) {
            let archs = [
            ArchConfig::focus(),
            ArchConfig::vanilla(),
            ArchConfig::adaptiv(),
            ArchConfig::cmc(),
        ];
        let mut low_threshold = FocusConfig::paper();
        low_threshold.threshold = 0.8;
        let mut small_tiles = FocusConfig::paper();
        small_tiles.tile_m = 256;
        let configs = [
            FocusConfig::paper(),
            FocusConfig::sec_only(),
            low_threshold,
            small_tiles,
        ];
        let jobs: Vec<BatchJob> = configs
            .into_iter()
            .zip(&archs)
            .map(|(cfg, arch)| BatchJob {
                pipeline: FocusPipeline::with_config(cfg)
                    .with_exec_mode(ExecMode::Graph { depth }),
                workload: Workload::new(
                    ModelKind::LlavaVideo7B,
                    DatasetKind::VideoMme,
                    WorkloadScale::tiny(),
                    seed,
                ),
                arch: arch.clone(),
            })
            .collect();
        // Decode `perm` (mixed-radix Lehmer code) into the submission
        // order, so the proptest sweep covers all 4! interleavings.
        let mut remaining: Vec<usize> = (0..jobs.len()).collect();
        let mut order = Vec::new();
        let mut code = perm;
        for radix in (1..=jobs.len()).rev() {
            order.push(remaining.remove(code % radix));
            code /= radix;
        }
        let service = FocusService::global();
        let mut handles: Vec<Option<JobHandle>> = (0..jobs.len()).map(|_| None).collect();
        for &i in &order {
            handles[i] = Some(service.submit(jobs[i].clone(), Priority::ALL[prios[i]]));
        }
        for (i, handle) in handles.into_iter().enumerate() {
            let result = handle.expect("every job submitted").wait();
            let serial = jobs[i]
                .pipeline
                .clone()
                .with_exec_mode(ExecMode::Serial)
                .run(&jobs[i].workload, &jobs[i].arch);
            assert_identical(
                &result,
                &serial,
                &format!("service job {i}, order {order:?}, priorities {prios:?}"),
            );
        }
    }
}

/// The serving acceptance shape: one shared [`FocusService`] takes
/// staggered, mixed-priority submissions of three distinct
/// architectures; every result is bit-identical to
/// [`ExecMode::Serial`], and between requests the workers are
/// *parked* — not spinning, not exited.
#[test]
fn shared_service_serves_staggered_mixed_priority_requests() {
    // An owned service so the parked/completion counters are not
    // shared with concurrently running tests.
    let service = FocusService::new(ServiceConfig::with_threads(3));
    let cells = [
        (ArchConfig::focus(), Priority::Normal, 1u64),
        (ArchConfig::vanilla(), Priority::High, 2),
        (ArchConfig::adaptiv(), Priority::Low, 3),
        (ArchConfig::focus(), Priority::High, 4),
        (ArchConfig::vanilla(), Priority::Low, 5),
    ];
    let jobs: Vec<BatchJob> = cells
        .iter()
        .map(|(arch, _, seed)| BatchJob {
            pipeline: FocusPipeline::paper().with_exec_mode(ExecMode::Graph { depth: 2 }),
            workload: Workload::new(
                ModelKind::LlavaVideo7B,
                DatasetKind::VideoMme,
                WorkloadScale::tiny(),
                *seed,
            ),
            arch: arch.clone(),
        })
        .collect();

    // Staggered arrivals: each request lands while earlier ones are
    // (possibly) still in flight — the streaming regime, not a fused
    // batch.
    let handles: Vec<JobHandle> = jobs
        .iter()
        .zip(&cells)
        .map(|(job, (_, priority, _))| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            service.submit(job.clone(), *priority)
        })
        .collect();
    for (job, handle) in jobs.iter().zip(handles) {
        let result = handle.wait();
        let serial = job
            .pipeline
            .clone()
            .with_exec_mode(ExecMode::Serial)
            .run(&job.workload, &job.arch);
        assert_identical(&result, &serial, "staggered service request");
    }

    let serial0 = jobs[0]
        .pipeline
        .clone()
        .with_exec_mode(ExecMode::Serial)
        .run(&jobs[0].workload, &jobs[0].arch);
    // Quiesce: all workers park (blocked on the condvar) with no wakeup
    // pending.
    let quiesce = || {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !service.stats().idle {
            assert!(
                std::time::Instant::now() < deadline,
                "workers failed to park between jobs: {:?}",
                service.stats()
            );
            std::thread::yield_now();
        }
    };
    quiesce();
    let stats = service.stats();
    assert_eq!(stats.jobs_completed, cells.len() as u64);
    // The requests cycle High, Normal and Low: the weighted fair queue
    // must have served every class.
    assert!(
        stats.served_by_priority.iter().all(|&served| served > 0),
        "every priority class must be served: {:?}",
        stats.served_by_priority
    );
    // Start the park-counter check from a parked pool: one tiny request
    // whose wakeups go to the workers that run it, then quiesce again,
    // so no notification from the staggered burst is still in flight
    // when the counter is sampled.
    let tiny = service.submit(jobs[0].clone(), Priority::Normal).wait();
    assert_identical(&tiny, &serial0, "quiescing service request");
    quiesce();
    // Parked means parked: the cumulative park counter stops moving (a
    // spinning worker would keep re-entering the park).
    let stats = service.stats();
    assert_eq!(stats.jobs_completed, cells.len() as u64 + 1);
    assert_eq!(stats.inflight_nodes, 0);
    std::thread::sleep(std::time::Duration::from_millis(30));
    assert_eq!(service.stats().parks, stats.parks, "workers must not spin");

    // And parked ≠ exited: the same pool serves a follow-up request.
    let again = service.submit(jobs[0].clone(), Priority::Normal).wait();
    assert_identical(&again, &serial0, "post-idle service request");
}

/// The batch path — every workload's task graph on the **one** shared
/// service, simulation in the `Finish` nodes — returns exactly what
/// per-workload serial runs plus fresh engines produce, at any mix of
/// graph depths.
#[test]
fn graph_batch_matches_sequential_runs() {
    let workloads: Vec<Workload> = [(1u64), 7, 13]
        .into_iter()
        .map(|seed| {
            Workload::new(
                ModelKind::LlavaVideo7B,
                DatasetKind::VideoMme,
                WorkloadScale::tiny(),
                seed,
            )
        })
        .collect();
    let jobs = paper_jobs(&workloads);

    let batched = BatchRunner::run(&jobs);
    assert_eq!(batched.len(), jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let serial = serial_reference(job);
        let serial_rep = focus::sim::Engine::new(ArchConfig::focus()).run(&serial.work_items);
        assert_identical(&batched[i].0, &serial, &format!("graph batch cell {i}"));
        assert_eq!(batched[i].1, serial_rep, "graph batch report {i}");
    }

    // And jobs at different graph depths share the one service.
    let jobs: Vec<BatchJob> = workloads
        .iter()
        .zip([1usize, 2, 4])
        .map(|(wl, depth)| BatchJob {
            pipeline: FocusPipeline::paper().with_exec_mode(ExecMode::Graph { depth }),
            workload: wl.clone(),
            arch: ArchConfig::focus(),
        })
        .collect();
    let job_results = BatchRunner::run(&jobs);
    for (i, (job, (r, rep))) in jobs.iter().zip(&job_results).enumerate() {
        let serial = serial_reference(job);
        let serial_rep = focus::sim::Engine::new(job.arch.clone()).run(&serial.work_items);
        assert_identical(r, &serial, &format!("graph job {i}"));
        assert_eq!(*rep, serial_rep, "graph job report {i}");
    }
}

/// Workspace reuse (resident synthesiser, recycled activation matrix,
/// flat position lookup) produces `MatrixGatherStats` byte-identical
/// to the fresh-synthesizer reference path, across layers, shrinking
/// retained sets and both precisions.
#[test]
fn workspace_reuse_matches_fresh_synthesizer_stats() {
    let wl = Workload::new(
        ModelKind::LlavaVideo7B,
        DatasetKind::VideoMme,
        WorkloadScale::tiny(),
        42,
    );
    let scaled = wl.scaled_model();
    let layouter = ConvLayouter::new(scaled.grid_h, scaled.grid_w);
    let m_img = wl.image_tokens_scaled();
    for dtype in [DataType::Fp16, DataType::Int8] {
        for stage in Stage::GATHER_POINTS {
            let backend = focus::core::obs::kernel_backend();
            let gather = GatherStage::new_on(&FocusConfig::paper(), stage, dtype, backend);
            // ONE workspace serves every layer; the reference path
            // builds everything fresh per call.
            let mut ws = StageWorkspace::new_on(&wl, backend);
            for (layer, keep_every) in [(0usize, 1usize), (3, 2), (7, 3), (14, 5), (27, 2)] {
                let retained: Vec<usize> = (0..m_img).step_by(keep_every).collect();
                let positions: Vec<Option<Fhw>> = retained
                    .iter()
                    .map(|&t| Some(layouter.position_of(t)))
                    .collect();
                let ctx = LayerCtx {
                    workload: &wl,
                    layer,
                    retained: &retained,
                    positions: &positions,
                };
                let fresh = gather.run_fresh(&ctx);
                gather.synth(&ctx, &mut ws);
                let reused = gather.gather(&ctx, &mut ws);
                assert_eq!(
                    reused, fresh,
                    "stats diverged at layer {layer}, stage {stage:?}, {dtype}"
                );
            }
        }
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    let workloads: Vec<Workload> = (0..3)
        .map(|seed| {
            Workload::new(
                ModelKind::LlavaVideo7B,
                DatasetKind::VideoMme,
                WorkloadScale::tiny(),
                seed,
            )
        })
        .collect();
    let jobs = paper_jobs(&workloads);
    let first = BatchRunner::run(&jobs);
    let second = BatchRunner::run(&jobs);
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_identical(&a.0, &b.0, &format!("repeat {i}"));
        assert_eq!(a.1, b.1, "repeat {i} report");
    }
}

/// The kernel dispatch paths, swept end to end: a full pipeline run on
/// the scalar reference backend is identical — every counter, every
/// float — to the SIMD backend, for several (model, dataset) cells,
/// both serial and graph modes, and both precisions. This is the
/// whole-pipeline corollary of the per-kernel bit-identity proptests in
/// `tests/backend_kernels.rs`.
#[test]
fn kernel_dispatch_paths_agree_end_to_end() {
    let cells = [
        (ModelKind::LlavaVideo7B, DatasetKind::VideoMme, 1u64),
        (ModelKind::MiniCpmV26, DatasetKind::Mlvu, 13),
    ];
    let arch = ArchConfig::focus();
    for (model, dataset, seed) in cells {
        let wl = Workload::new(model, dataset, WorkloadScale::tiny(), seed);
        for mode in [ExecMode::Serial, ExecMode::Graph { depth: 2 }] {
            for dtype in [DataType::Fp16, DataType::Int8] {
                let mut pipeline = FocusPipeline::paper().with_exec_mode(mode);
                pipeline.dtype = dtype;
                let dispatched = pipeline.clone().with_backend(simd()).run(&wl, &arch);
                let scalar = pipeline.with_backend(scalar_ref()).run(&wl, &arch);
                assert_identical(
                    &scalar,
                    &dispatched,
                    &format!("scalar vs SIMD, {model:?}/{dataset:?} {mode:?} {dtype}"),
                );
            }
        }
    }
}
