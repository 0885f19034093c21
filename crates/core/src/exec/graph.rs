//! The pipeline DAG: the measured + lowering phases of one run
//! decomposed into task nodes with data dependencies. [`Topology`] is
//! the DAG's only representation — node kinds, dependency and
//! dependent lists, roots — built once per `(plan, depth)` and
//! shared by every run over it (a [`crate::exec::StreamSession`]
//! shares one across all frames of a geometry). A [`PipelineGraph`]
//! owns one run's inputs (job, engine, plan, stage scratch) and
//! dispatches a node by its kind; the scheduler core
//! (`crate::exec::scheduler`) admits the pair and holds an `Arc` of
//! the graph, so an admitted run outlives the submitting stack frame
//! without borrowing from it.
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
//! make results bit-identical to
//! [`ExecMode::Serial`](crate::exec::ExecMode::Serial). The expensive
//! per-layer statistics reduction (`FoldStats`) floats **outside** the
//! ordered chain: layer *l*'s fold and lowering overlap layer *l+1*'s
//! synthesis and SEC at any depth, and since every job shares the one
//! [`crate::exec::FocusService`] pool — a batch, a stream's frames,
//! single requests — stages of *different requests* interleave on the
//! same workers, the streaming-serving shape of the paper's
//! architecture.
//!
//! Determinism does not rest on the schedule: every node is a pure
//! function of its input slots (write-once [`OnceLock`]s guarded by
//! the dependency edges), and the two sequential chains pin every
//! order-sensitive reduction. The scheduler therefore never discards
//! or recomputes work.

use std::sync::{Arc, Mutex, OnceLock};

use focus_sim::{Engine, SimReport};
use focus_vlm::embedding::Stage;

use crate::exec::batch::BatchJob;
use crate::exec::executor::{fold_gathers, gather_stages, LayerRecord};
use crate::exec::scheduler::lock_clean;
use crate::exec::stage::{GatherStage, LayerCtx, SemanticStage, StageScratch, StageWorkspace};
use crate::obs::spans::{SpanKind, SpanLabel};
use crate::pipeline::lower::LayerLowered;
use crate::pipeline::measure::MeasureAccum;
use crate::pipeline::{PipelineResult, SecLayerStats};
use crate::session::{FrameWarm, RetentionPlan, SessionGeometry, SharedPlan};
use crate::sic::{Fhw, MatrixGatherStats};

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

/// One node of a [`PipelineGraph`], identified by role: what a
/// [`Topology`] records per node and [`PipelineGraph::run_node`]
/// dispatches on.
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
    /// across layers, off the ordered chain.
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

/// The node topology of one run over a retention plan at a pipeline
/// depth: per node its [`NodeKind`], its dependencies and its
/// dependents, plus the roots. It depends only on `(plan, depth)`, so
/// one `Arc<Topology>` serves every run over the same plan, and
/// [`crate::exec::node_inventory`] counts nodes without preparing a
/// run. Node ids are insertion order; a dependency always precedes its
/// dependent.
#[derive(Default)]
pub(crate) struct Topology {
    kinds: Vec<NodeKind>,
    deps: Vec<Vec<usize>>,
    dependents: Vec<Vec<usize>>,
    roots: Vec<usize>,
}

impl Topology {
    /// The topology of one run over `plan` at pipeline depth `depth`
    /// (≥ 1 in-flight measured layers per gather stage).
    pub(crate) fn of(plan: &RetentionPlan, depth: usize) -> Self {
        let depth = depth.max(1);
        let stages_n = Stage::GATHER_POINTS.len();
        let mut topo = Topology::default();
        let mut prev_sec: Option<usize> = None;
        let mut prev_absorb: Option<usize> = None;
        // Gather nodes of earlier measured layers, for the scratch ring
        // edges.
        let mut measured_gathers: Vec<Vec<usize>> = Vec::new();
        let mut lower_ids: Vec<usize> = Vec::new();
        for layer in 0..plan.geometry().layers {
            let sec = topo.push(prev_sec.into_iter().collect(), NodeKind::Sec(layer));
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
                    let synth = topo.push(synth_deps, NodeKind::Synth { layer, stage, slot });
                    gathers.push(topo.push(vec![synth], NodeKind::Gather { layer, stage, slot }));
                }
                absorb_deps.push(topo.push(gathers.clone(), NodeKind::FoldStats(layer)));
                measured_gathers.push(gathers);
            }
            absorb_deps.extend(prev_absorb);
            let absorb = topo.push(absorb_deps, NodeKind::Absorb(layer));
            lower_ids.push(topo.push(vec![absorb], NodeKind::Lower(layer)));
            prev_sec = Some(sec);
            prev_absorb = Some(absorb);
        }
        topo.push(lower_ids, NodeKind::Finish);
        topo
    }

    /// Appends a node of `kind` that runs once every node in `deps`
    /// has, and returns its id. Dependencies must already exist, so a
    /// topology is acyclic by construction.
    pub(crate) fn push(&mut self, deps: Vec<usize>, kind: NodeKind) -> usize {
        let id = self.kinds.len();
        for &d in &deps {
            assert!(d < id, "dependency {d} of node {id} does not exist yet");
            self.dependents[d].push(id);
        }
        if deps.is_empty() {
            self.roots.push(id);
        }
        self.kinds.push(kind);
        self.deps.push(deps);
        self.dependents.push(Vec::new());
        id
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Every node's kind, in id order.
    pub(crate) fn kinds(&self) -> &[NodeKind] {
        &self.kinds
    }

    /// The kind of `node`.
    pub(crate) fn kind(&self, node: usize) -> NodeKind {
        self.kinds[node]
    }

    /// The nodes `node` waits for.
    pub(crate) fn deps(&self, node: usize) -> &[usize] {
        &self.deps[node]
    }

    /// The nodes waiting for `node`.
    pub(crate) fn dependents(&self, node: usize) -> &[usize] {
        &self.dependents[node]
    }

    /// The nodes without dependencies, in id order.
    pub(crate) fn roots(&self) -> &[usize] {
        &self.roots
    }
}

/// One pipeline run over a shared [`Topology`]: the owned inputs and
/// the state every node reads and writes. The service wraps it in an
/// `Arc` that the job's dispatch, the [`crate::exec::JobHandle`] and a
/// stream session's in-flight record share, so no node borrows from
/// the submitting stack frame.
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
    /// The run's DAG over `plan`, shared like the plan.
    topology: Arc<Topology>,
    gathers: Vec<GatherStage>,
    /// Scratch ring: `depth` slots per gather stage (flattened
    /// `stage * depth + slot`). A `Synth`/`Gather` node takes its
    /// slot's scratch for the call and puts it back; the ring edges of
    /// the [`Topology`] give each slot one user at a time. A slot a
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
    /// The owning session's cross-frame temporal cache, when temporal
    /// concentration is enabled: gather nodes probe/commit through it.
    /// The session retains its own `Arc` (no reclaim needed).
    temporal: Option<Arc<crate::sic::TemporalCache>>,
}

impl PipelineGraph {
    /// Prepares the state of one run of `job` at its pipeline's graph
    /// depth (`ExecMode::graph_depth`), over session-donated warm state
    /// when given: the shared retention plan and topology plus recycled
    /// stage scratch. Bit-identical to a cold build — warm state is
    /// allocation/plan reuse only.
    pub(crate) fn new(job: BatchJob, engine: Option<Arc<Engine>>, warm: Option<FrameWarm>) -> Self {
        let depth = job.pipeline.exec_mode.graph_depth();
        let (shared, scratch, temporal) = match warm {
            Some(warm) => (warm.shared, warm.scratch, warm.temporal),
            None => (SharedPlan::derive(&job.pipeline, &job.workload), None, None),
        };
        let SharedPlan { plan, topology } = shared;
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
        let accum = MeasureAccum::new(m_img, layers_n);
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
            temporal,
            plan,
            topology,
            gathers,
            job,
        }
    }

    /// The run's shared DAG.
    pub(crate) fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// Runs the body of `node`, dispatched on its kind.
    pub(crate) fn run_node(&self, node: usize) {
        match self.topology.kind(node) {
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
        let pipeline = &self.job.pipeline;
        let semantic = SemanticStage::new_on(&pipeline.focus, &self.job.workload, pipeline.backend);
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

    /// Takes the scratch out of ring slot (`stage`, `slot`); the node
    /// puts it back into the returned cell when it is done with it.
    fn take_scratch(
        &self,
        stage: usize,
        slot: usize,
    ) -> (&Mutex<Option<StageScratch>>, StageScratch) {
        let cell = &self.ring[stage * self.depth + slot];
        let scratch = lock_clean(cell)
            .take()
            .expect("ring slot holds its scratch");
        (cell, scratch)
    }

    /// Synthesises into the slot's scratch through a fresh synthesiser.
    /// Only the scratch carries over between calls: a fresh synthesiser
    /// is bit-identical, because each call is a new (layer, stage)
    /// context, which flushes its memo anyway.
    fn synth_task(&self, layer: usize, stage: usize, slot: usize) {
        let ctx = self.ctx(layer);
        let (cell, scratch) = self.take_scratch(stage, slot);
        let gather = &self.gathers[stage];
        let mut ws =
            StageWorkspace::with_scratch_on(&self.job.workload, scratch, gather.synth_backend());
        gather.synth(&ctx, &mut ws);
        *lock_clean(cell) = Some(ws.scratch);
    }

    fn gather_task(&self, layer: usize, stage: usize, slot: usize) {
        let ctx = self.ctx(layer);
        let (cell, mut scratch) = self.take_scratch(stage, slot);
        let temporal = self.temporal.as_deref().map(|cache| (cache, stage));
        let stats = self.gathers[stage].sweep(&ctx, &mut scratch, temporal);
        *lock_clean(cell) = Some(scratch);
        *lock_clean(&self.gathered[layer * self.gathers.len() + stage]) = Some(stats);
    }

    /// Reduces the four gathers' statistics into the layer's
    /// [`LayerRecord`]. No cross-layer state — layers fold
    /// concurrently, off the ordered chain, in the same fixed stage
    /// order as every other schedule, so the arithmetic is
    /// bit-identical.
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
    /// work per layer is this cheap accumulation, so the critical path
    /// does not carry the statistics reduction.
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
        let run = accum.finish(workload);
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

    /// Activation bytes held by the scratch ring slots that are in
    /// place (a running node's taken slot is skipped).
    pub(crate) fn scratch_bytes(&self) -> usize {
        self.ring
            .iter()
            .filter_map(|cell| lock_clean(cell).as_ref().map(|s| s.acts.held_bytes()))
            .sum()
    }

    /// Reclaims the frame's stage scratch once the job has completed
    /// (executed **or** skip-drained): every ring slot, stage-major,
    /// slot-minor — the donation order [`PipelineGraph::new`] expects.
    /// A slot a panicking node left empty is refilled fresh, so a
    /// failed frame still donates a full set; scratch is re-planned
    /// from zero by its next frame, so mid-write contents are harmless.
    pub(crate) fn reclaim_scratch(&self) -> Vec<StageScratch> {
        self.ring
            .iter()
            .map(|cell| {
                lock_clean(cell)
                    .take()
                    .unwrap_or_else(|| StageScratch::for_workload(&self.job.workload))
            })
            .collect()
    }
}

/// The scheduler core's unit tests run jobs over closures on the same
/// [`Topology`] type the pipeline uses; the topology tests check the
/// pipeline DAG's structure.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::scheduler::{Core, Dispatch, JobRun, Priority};
    use crate::exec::ExecMode;
    use crate::pipeline::FocusPipeline;
    use crate::FocusConfig;
    use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};
    use std::panic::resume_unwind;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

    /// A test job over closures: a topology built from dependency
    /// lists (every node labelled `Finish` — the kind only names its
    /// spans) plus a dispatch that indexes a vector of bodies.
    #[derive(Default)]
    struct ClosureJob {
        topology: Topology,
        bodies: Vec<Box<dyn Fn() + Send + Sync>>,
    }

    impl ClosureJob {
        /// Adds a node running `body` once every node in `deps` has.
        fn add(&mut self, deps: &[usize], body: impl Fn() + Send + Sync + 'static) -> usize {
            self.bodies.push(Box::new(body));
            self.topology.push(deps.to_vec(), NodeKind::Finish)
        }

        /// A chain of `len` nodes, each running `body`.
        fn chain(len: usize, body: impl Fn() + Clone + Send + Sync + 'static) -> Self {
            let mut job = ClosureJob::default();
            let mut prev: Option<usize> = None;
            for _ in 0..len {
                prev = Some(job.add(prev.as_slice(), body.clone()));
            }
            job
        }

        fn inject(self, core: &Core, priority: Priority) -> Arc<JobRun> {
            let bodies = self.bodies;
            let run: Dispatch = Box::new(move |node| bodies[node]());
            core.inject(Arc::new(self.topology), run, priority)
        }
    }

    /// A body that bumps `counter`.
    fn bump(counter: &Arc<AtomicU32>) -> impl Fn() + Clone + Send + Sync + 'static {
        let counter = Arc::clone(counter);
        move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Shuts the core down when dropped: a failing assertion inside a
    /// `thread::scope` then fails its test instead of leaving the
    /// scope waiting forever on parked workers.
    struct ShutdownOnDrop<'a>(&'a Core);

    impl Drop for ShutdownOnDrop<'_> {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    /// Runs `body` with one scoped thread per worker slot of `core`,
    /// shutting the core down afterwards (also when `body` panics).
    fn with_workers<R>(core: &Core, body: impl FnOnce() -> R) -> R {
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
        let order = Arc::new(Mutex::new(Vec::<u32>::new()));
        let push = |v: u32| {
            let order = Arc::clone(&order);
            move || order.lock().unwrap().push(v)
        };
        let mut job = ClosureJob::default();
        let root = job.add(&[], push(0));
        let a = job.add(&[root], push(1));
        let b = job.add(&[root], push(2));
        job.add(&[a, b], push(3));
        let core = Core::new(4, usize::MAX);
        with_workers(&core, || job.inject(&core, Priority::Normal).wait_done());
        assert_eq!(core.jobs_done(), 1);
        let order = order.lock().unwrap().clone();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
    }

    /// Released dependents go through the fair queue like every other
    /// ready node: one worker runs a root's fan-out in the order the
    /// dependents were added, since their tags are issued in that
    /// order.
    #[test]
    fn single_worker_runs_released_dependents_in_tag_order() {
        let order = Arc::new(Mutex::new(Vec::<u32>::new()));
        let push = |v: u32| {
            let order = Arc::clone(&order);
            move || order.lock().unwrap().push(v)
        };
        let mut job = ClosureJob::default();
        let root = job.add(&[], push(0));
        job.add(&[root], push(1));
        job.add(&[root], push(2));
        job.add(&[root], push(3));
        let core = Core::new(1, usize::MAX);
        with_workers(&core, || job.inject(&core, Priority::Normal).wait_done());
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3]);
    }

    #[test]
    fn scheduler_interleaves_many_graphs() {
        let counters: Vec<Arc<AtomicU32>> = (0..5).map(|_| Arc::new(AtomicU32::new(0))).collect();
        let core = Core::new(3, usize::MAX);
        with_workers(&core, || {
            let jobs: Vec<_> = counters
                .iter()
                .map(|counter| ClosureJob::chain(10, bump(counter)).inject(&core, Priority::Normal))
                .collect();
            for job in &jobs {
                job.wait_done();
            }
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 10));
    }

    #[test]
    #[should_panic(expected = "task boom")]
    fn task_panics_propagate() {
        let mut job = ClosureJob::default();
        let root = job.add(&[], || {});
        job.add(&[root], || panic!("task boom"));
        // A sibling chain that must not deadlock while the panic
        // skip-drains the graph.
        let mut prev = root;
        for _ in 0..4 {
            prev = job.add(&[prev], || {});
        }
        let core = Core::new(2, usize::MAX);
        let job = with_workers(&core, || {
            let job = job.inject(&core, Priority::Normal);
            job.wait_done();
            job
        });
        if let Some(payload) = job.take_panic() {
            resume_unwind(payload);
        }
    }

    /// A panicking job must not take sibling jobs down with it: the
    /// failed job skip-drains (its waiter gets the payload), while the
    /// other job executes every node.
    #[test]
    fn sibling_job_completes_when_another_panics() {
        let healthy_ran = Arc::new(AtomicU32::new(0));
        let sick_ran = Arc::new(AtomicU32::new(0));
        let core = Core::new(2, usize::MAX);

        let mut sick = ClosureJob::default();
        let root = sick.add(&[], bump(&sick_ran));
        let boom = sick.add(&[root], || panic!("sick job"));
        sick.add(&[boom], bump(&sick_ran));
        let healthy = ClosureJob::chain(20, bump(&healthy_ran));

        with_workers(&core, || {
            let sick_job = sick.inject(&core, Priority::High);
            let healthy_job = healthy.inject(&core, Priority::Low);
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

    /// Internal scheduler mutexes poisoned by a panicking holder must
    /// not surface as an opaque `PoisonError` unwrap — work keeps
    /// flowing through the poisoned queues and a node panic still
    /// re-raises the *original* payload.
    #[test]
    fn poisoned_queue_mutexes_do_not_mask_the_panic_payload() {
        let ran = Arc::new(AtomicU32::new(0));
        let core = Core::new(2, usize::MAX);
        // Poison the state mutex the way a panicking holder would.
        core.poison_internal_locks();

        // A healthy job still runs to completion through the poisoned
        // locks…
        let healthy = ClosureJob::chain(8, bump(&ran));
        // …and a panicking job re-raises its own payload, not the
        // poison.
        let mut sick = ClosureJob::default();
        sick.add(&[], || panic!("genuine payload"));

        with_workers(&core, || {
            let healthy = healthy.inject(&core, Priority::Normal);
            let sick = sick.inject(&core, Priority::Normal);
            healthy.wait_done();
            sick.wait_done();
            let payload = sick.take_panic().expect("sick graph panicked");
            assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "genuine payload");
        });
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    /// Hammers concurrent injection against parking workers at every
    /// worker count. A task enqueued between a worker's queue scan and
    /// its condvar wait must wake it; a lost wakeup shows up here as a
    /// hang (the job never completes until an unrelated submission
    /// happens to bump the version).
    #[test]
    fn submit_vs_park_stress() {
        for threads in 1..=4 {
            let executed = Arc::new(AtomicU32::new(0));
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
                                // Tiny jobs (1–3 chained nodes) so the
                                // workers park between most injections.
                                let job = ClosureJob::chain(1 + (i + j) % 3, bump(executed));
                                let priority = Priority::ALL[(i + j) % Priority::LEVELS];
                                jobs.push(job.inject(core, priority));
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
        let ran = Arc::new(AtomicU32::new(0));
        let core = Core::new(3, usize::MAX);
        with_workers(&core, || {
            // Quiesce: all three workers must end up parked, none with
            // a wakeup pending.
            let quiesce = || {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while !core.idle() {
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
            ClosureJob::chain(1, || {})
                .inject(&core, Priority::Normal)
                .wait_done();
            quiesce();
            // A parked worker stays parked — no spin (a spinning worker
            // re-enters the park and bumps the counter).
            let parks = core.parks();
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert_eq!(core.parks(), parks, "parked workers must not spin");

            // And parked ≠ exited: new work still runs.
            ClosureJob::chain(1, bump(&ran))
                .inject(&core, Priority::High)
                .wait_done();
            assert_eq!(ran.load(Ordering::SeqCst), 1);
        });
    }

    /// The one-node head-of-line bound of [`Priority::High`]: a
    /// high-priority arrival runs as soon as the (single) worker
    /// finishes its current node, not after the in-flight
    /// low-priority chain drains.
    #[test]
    fn high_priority_jumps_ahead_of_a_running_request() {
        let seq = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let gate = Arc::new(AtomicBool::new(false));
        let core = Core::new(1, usize::MAX);

        let mut low = ClosureJob::default();
        let mut prev: Option<usize> = None;
        for i in 0..10 {
            let (seq, gate) = (Arc::clone(&seq), Arc::clone(&gate));
            prev = Some(low.add(prev.as_slice(), move || {
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
        let mut high = ClosureJob::default();
        let high_seq = Arc::clone(&seq);
        high.add(&[], move || high_seq.lock().unwrap().push("HIGH"));

        with_workers(&core, || {
            let low_job = low.inject(&core, Priority::Low);
            let high_job = high.inject(&core, Priority::High);
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

    /// A closed-loop flood of two-node High jobs on one core: each
    /// job's first node submits its successor before it finishes, so
    /// High work is queued whenever the worker pops, until `stop` is
    /// set or `LIMIT` High nodes were served while a Low node was
    /// queued (a starvation bug then fails the bound instead of
    /// hanging the suite).
    struct HighFlood {
        core: Arc<Core>,
        stop: AtomicBool,
        /// Second nodes served while a Low node sat in the queue.
        served_while_low_queued: AtomicU64,
    }

    impl HighFlood {
        const LIMIT: u64 = 600;

        fn submit(self: &Arc<Self>) {
            if self.stop.load(Ordering::SeqCst)
                || self.served_while_low_queued.load(Ordering::SeqCst) >= HighFlood::LIMIT
            {
                return;
            }
            let mut job = ClosureJob::default();
            let flood = Arc::clone(self);
            let root = job.add(&[], move || flood.submit());
            let flood = Arc::clone(self);
            job.add(&[root], move || {
                // The one worker runs a body only between pops, and the
                // Low root and each released Low node are pushed under
                // the state lock, so this window opens when the Low job
                // is queued and closes when its last node is popped.
                if flood.core.queued_by_priority()[Priority::Low.index()] > 0 {
                    flood.served_while_low_queued.fetch_add(1, Ordering::SeqCst);
                }
            });
            job.inject(&self.core, Priority::High);
        }
    }

    /// The anti-starvation half of the fair queue: under a saturating
    /// flood of High jobs, a Low job still completes, and the number
    /// of High nodes served while it was queued stays within the
    /// weight-ratio aging bound. A strict-priority pop would run the
    /// Low job only after the *entire* flood drained.
    #[test]
    fn low_job_ages_past_a_saturating_high_flood() {
        let low_nodes = 6u64;
        let low_ran = Arc::new(AtomicU32::new(0));
        let core = Arc::new(Core::new(1, usize::MAX));
        let flood = Arc::new(HighFlood {
            core: Arc::clone(&core),
            stop: AtomicBool::new(false),
            served_while_low_queued: AtomicU64::new(0),
        });
        with_workers(&core, || {
            // Two High jobs in flight, each replacing itself as it
            // starts; let the flood establish itself, then submit the
            // Low job.
            for _ in 0..2 {
                flood.submit();
            }
            while core.jobs_done() < 8 {
                std::thread::yield_now();
            }
            ClosureJob::chain(low_nodes as usize, bump(&low_ran))
                .inject(&core, Priority::Low)
                .wait_done();
            flood.stop.store(true, Ordering::SeqCst);
        });
        assert_eq!(low_ran.load(Ordering::SeqCst) as u64, low_nodes);
        // Aging bound: each Low node (quantum 4) lets roughly
        // weight-ratio High nodes (quantum 1) pass, plus the
        // already-admitted backlog. Generous 4x slack keeps the bound
        // scheduling-jitter-proof while still catching strict-priority
        // starvation (which serves the flood up to its limit first).
        let ratio = Priority::Low.quantum() / Priority::High.quantum();
        let bound = 4 * (ratio * (low_nodes + 2) + 16);
        let high_during = flood.served_while_low_queued.load(Ordering::SeqCst);
        assert!(
            high_during <= bound,
            "Low job waited through {high_during} High nodes (bound {bound})"
        );
    }

    /// The in-flight node bound is live: submissions past the bound
    /// block until space frees, an oversized job is still admitted
    /// when the core is idle, and everything completes.
    #[test]
    fn admission_control_bounds_inflight_nodes() {
        let executed = Arc::new(AtomicU32::new(0));
        let core = Core::new(2, 4);
        assert_eq!(core.max_inflight(), 4);
        with_workers(&core, || {
            // An oversized job (6 nodes > bound 4) admits while idle.
            ClosureJob::chain(6, bump(&executed))
                .inject(&core, Priority::Normal)
                .wait_done();
            assert_eq!(executed.load(Ordering::SeqCst), 6);

            // A burst of small jobs flows through the bound with
            // backpressure; everything still completes.
            let jobs: Vec<_> = (0..16)
                .map(|_| ClosureJob::chain(2, bump(&executed)).inject(&core, Priority::Normal))
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
        let executed = Arc::new(AtomicU32::new(0));
        let core = Core::new(2, 4);
        let chain = |len: usize| {
            let executed = Arc::clone(&executed);
            ClosureJob::chain(len, move || {
                executed.fetch_add(1, Ordering::SeqCst);
                std::thread::yield_now();
            })
        };
        with_workers(&core, || {
            std::thread::scope(|s| {
                let core = &core;
                // Occupy the core, then race an oversized submission (8
                // > bound 4, admits only at inflight == 0) against a
                // stream of small ones submitted after it took its
                // ticket.
                let head = chain(3).inject(core, Priority::Normal);
                let big = chain(8);
                let big = s.spawn(move || {
                    let big = big.inject(core, Priority::Normal);
                    big.wait_done();
                    big.is_done()
                });
                // Give the big submission time to take its admission
                // ticket before the small stream arrives behind it
                // (bounded spin: if the core drained first, big admitted
                // already and the stream is simply ordinary traffic).
                for _ in 0..10_000 {
                    if core.admission_waiters() > 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
                let trailing: Vec<_> = (0..6)
                    .map(|_| chain(2).inject(core, Priority::Normal))
                    .collect();
                assert!(big.join().unwrap(), "the oversized job completed");
                head.wait_done();
                for job in &trailing {
                    job.wait_done();
                }
                assert_eq!(executed.load(Ordering::SeqCst), 3 + 8 + 12);
            });
        });
    }

    /// The three plan shapes the topology tests cover, as
    /// `(pipeline, workload)`: SIC off (no measured layers), every
    /// layer measured (stride 1), and the tiny scale's stride 7 plus
    /// the paper schedule's prune layers.
    fn plan_cases() -> Vec<(FocusPipeline, Workload)> {
        let workload = |stride: usize| {
            let scale = WorkloadScale {
                measured_layer_stride: stride,
                ..WorkloadScale::tiny()
            };
            Workload::new(ModelKind::LlavaVideo7B, DatasetKind::VideoMme, scale, 3)
        };
        let mut sic_off = FocusConfig::paper();
        sic_off.enable_sic = false;
        vec![
            (FocusPipeline::with_config(sic_off), workload(7)),
            (FocusPipeline::paper(), workload(1)),
            (FocusPipeline::paper(), workload(7)),
        ]
    }

    #[test]
    fn topology_is_a_well_formed_dag() {
        for (pipeline, workload) in plan_cases() {
            let plan = RetentionPlan::derive(&pipeline.focus, &workload);
            let measured: Vec<usize> = (0..plan.geometry().layers)
                .filter(|&l| plan.measures_at(l))
                .collect();
            for depth in 1..=4 {
                let topo = Topology::of(&plan, depth);
                let n = topo.len();
                // Every dependency precedes its dependent, and the
                // dependents lists are exactly the inverse edges.
                let mut forward: Vec<(usize, usize)> = Vec::new();
                let mut inverse: Vec<(usize, usize)> = Vec::new();
                for node in 0..n {
                    for &d in topo.deps(node) {
                        assert!(d < node, "dep {d} of node {node} does not precede it");
                        forward.push((d, node));
                    }
                    inverse.extend(topo.dependents(node).iter().map(|&t| (node, t)));
                }
                forward.sort_unstable();
                inverse.sort_unstable();
                assert_eq!(forward, inverse, "depth {depth}");
                // `Sec(0)` is the only root, `Finish` the only sink.
                assert_eq!(topo.roots(), [0]);
                assert_eq!(topo.kind(0), NodeKind::Sec(0));
                let sinks: Vec<usize> = (0..n).filter(|&v| topo.dependents(v).is_empty()).collect();
                assert_eq!(sinks, [n - 1]);
                assert_eq!(topo.kind(n - 1), NodeKind::Finish);
                // Each (stage, slot) ring cell has one user at a time:
                // the Synth at measured ordinal k ≥ depth waits for the
                // same stage's Gather at ordinal k − depth, and a
                // Gather reads only its own Synth.
                let id_of = |kind: NodeKind| topo.kinds().iter().position(|&k| k == kind).unwrap();
                let mut synths = 0;
                for node in 0..n {
                    match topo.kind(node) {
                        NodeKind::Synth { layer, stage, slot } => {
                            synths += 1;
                            let k = measured.iter().position(|&l| l == layer).unwrap();
                            assert_eq!(slot, k % depth);
                            if k >= depth {
                                let prior = id_of(NodeKind::Gather {
                                    layer: measured[k - depth],
                                    stage,
                                    slot,
                                });
                                assert!(topo.deps(node).contains(&prior));
                            }
                        }
                        NodeKind::Gather { layer, stage, slot } => {
                            let synth = id_of(NodeKind::Synth { layer, stage, slot });
                            assert_eq!(topo.deps(node), [synth]);
                        }
                        _ => {}
                    }
                }
                assert_eq!(synths, measured.len() * Stage::GATHER_POINTS.len());
                // The node inventory counts the same nodes.
                let inventory = crate::exec::node_inventory(&pipeline, &workload, depth);
                assert_eq!(inventory.iter().map(|&(_, c)| c).sum::<usize>(), n);
            }
        }
    }

    /// Two frames in flight on one shared topology: each admitted job
    /// keeps its own pending counters, so both run every node exactly
    /// once, each node after its own job's dependencies.
    #[test]
    fn jobs_sharing_a_topology_run_independently() {
        let (pipeline, workload) = plan_cases().swap_remove(2);
        let plan = RetentionPlan::derive(&pipeline.focus, &workload);
        let depth = ExecMode::default().graph_depth();
        let topology = Arc::new(Topology::of(&plan, depth));
        let n = topology.len();
        let core = Core::new(2, usize::MAX);
        let runs: Vec<Arc<Vec<AtomicU32>>> = (0..2)
            .map(|_| Arc::new((0..n).map(|_| AtomicU32::new(0)).collect()))
            .collect();
        with_workers(&core, || {
            let jobs: Vec<Arc<JobRun>> = runs
                .iter()
                .map(|ran| {
                    let (ran, topo) = (Arc::clone(ran), Arc::clone(&topology));
                    let run: Dispatch = Box::new(move |node| {
                        for &d in topo.deps(node) {
                            assert_eq!(ran[d].load(Ordering::SeqCst), 1, "dep {d} of {node}");
                        }
                        ran[node].fetch_add(1, Ordering::SeqCst);
                    });
                    core.inject(Arc::clone(&topology), run, Priority::Normal)
                })
                .collect();
            for job in &jobs {
                job.wait_done();
                assert!(job.take_panic().is_none());
            }
        });
        assert_eq!(core.jobs_done(), 2);
        for ran in &runs {
            assert!(ran.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        }
    }
}
