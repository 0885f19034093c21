//! The two measurements the repo benchmark (`perfbench`) does not
//! take, on the nine Fig. 9 grid cells at tiny scale:
//!
//! * **Kernel ratios** — the grid's measured-layer walk on gather
//!   stages pinned to the dispatched `simd()` backend against the same
//!   walk on the `scalar_ref()` oracle: the synthesis fill and the
//!   gather scoring of FP16 stages, and the fake-quantise of INT8
//!   stages. Values are bit-identical across each pair
//!   (proptest-enforced), so a ratio measures exactly the SIMD
//!   dispatch win.
//! * **Tracing overhead** — the graph leg (`BatchRunner::run` over
//!   the grid on the global service) with span tracing on (per-node
//!   span records plus the `Timed` kernel wrapper) against off.
//!
//! Every figure is the median of per-pair ratios over order-alternating
//! pairs: the two runs of a pair are adjacent, so they share machine
//! conditions and their ratio cancels drift that single runs (±5–15%
//! here) cannot; the order flips every pair, so a monotone drift inside
//! a pair biases half the ratios up and half down and cancels in the
//! median.
//!
//! `cargo bench -p focus-bench --bench batch` measures and writes the
//! `BENCH_batch.json` snapshot at the repo root (schema and gates in
//! `tests/bench_snapshot_schema.rs`). With `-- --test` every leg runs
//! once, unmeasured, and nothing is written.

use std::hint::black_box;
use std::time::{Duration, Instant};

use focus_bench::{video_grid, EVAL_SEED};
use focus_core::exec::{
    BatchJob, BatchRunner, GatherStage, LayerCtx, LayerExecutor, StageWorkspace,
};
use focus_core::obs::spans;
use focus_core::pipeline::FocusPipeline;
use focus_core::sic::{ConvLayouter, Fhw};
use focus_core::FocusConfig;
use focus_sim::ArchConfig;
use focus_tensor::backend::{scalar_ref, simd, BackendHandle};
use focus_tensor::DataType;
use focus_vlm::embedding::Stage;
use focus_vlm::{Workload, WorkloadScale};

/// Order-alternating pairs per kernel ratio. The ratios sit well above
/// 1 against a pair's spread, so a few pairs settle them.
const KERNEL_PAIRS: usize = 11;

/// Order-alternating pairs for the tracing overhead: the tax under test
/// (about 1%) is well below the spread of one pair's ratio (its
/// quartiles sit about ±5% apart here), so the median needs a large
/// pool of pairs. Repeated runs of one build spread from −1.8% to 4.2%
/// at 81 pairs and from 0.1% to 2.1% at 161, both across the 2% gate.
const OBS_PAIRS: usize = 321;

/// The nine Fig. 9 grid cells at test scale.
fn fig09_grid_workloads() -> Vec<Workload> {
    video_grid()
        .into_iter()
        .map(|(m, d)| Workload::new(m, d, WorkloadScale::tiny(), EVAL_SEED))
        .collect()
}

/// One graph-schedule job per workload on the Focus architecture. The
/// pipeline keeps the kernel backend current when this is called: the
/// `Timed` wrapper while span recording is on.
fn grid_jobs(wls: &[Workload]) -> Vec<BatchJob> {
    wls.iter()
        .map(|wl| BatchJob {
            pipeline: FocusPipeline::paper(),
            workload: wl.clone(),
            arch: ArchConfig::focus(),
        })
        .collect()
}

/// One workload's measured-layer walk: every `(layer, retained,
/// positions)` whose gathers run, with gather positions precomputed so
/// the staged passes time kernels, not position decoding.
type StagedWalk = Vec<(usize, Vec<usize>, Vec<Option<Fhw>>)>;

fn measured_walk(wl: &Workload) -> StagedWalk {
    let pipeline = FocusPipeline::paper();
    let exec = LayerExecutor::new(&pipeline, wl);
    let scaled = wl.scaled_model();
    let layouter = ConvLayouter::new(scaled.grid_h, scaled.grid_w);
    let mut retained: Vec<usize> = (0..wl.image_tokens_scaled()).collect();
    let mut walk = Vec::new();
    for layer in 0..exec.layers() {
        if exec.run_layer(layer, &mut retained).measured {
            let positions = retained
                .iter()
                .map(|&t| Some(layouter.position_of(t)))
                .collect();
            walk.push((layer, retained.clone(), positions));
        }
    }
    walk
}

/// The grid's measured walks replayed on the four gather stages, with
/// one workspace set per workload, all pinned to an explicit kernel
/// backend (so a `FOCUS_BACKEND` override cannot relabel what a leg
/// measures) and dtype.
struct Staged<'w> {
    wls: &'w [Workload],
    walks: Vec<StagedWalk>,
    stages: Vec<GatherStage>,
    ws: Vec<Vec<StageWorkspace<'w>>>,
}

impl<'w> Staged<'w> {
    fn new(wls: &'w [Workload], dtype: DataType, backend: BackendHandle) -> Self {
        let stages: Vec<GatherStage> = Stage::GATHER_POINTS
            .iter()
            .map(|&s| GatherStage::new_on(&FocusConfig::paper(), s, dtype, backend))
            .collect();
        let ws = wls
            .iter()
            .map(|wl| {
                stages
                    .iter()
                    .map(|_| StageWorkspace::new_on(wl, backend))
                    .collect()
            })
            .collect();
        Staged {
            wls,
            walks: wls.iter().map(measured_walk).collect(),
            stages,
            ws,
        }
    }

    /// Runs every walk once, stage by stage, and returns the time spent
    /// in each kernel phase: `[synthesis, conversion, gather]`.
    fn pass(&mut self) -> [Duration; 3] {
        let mut phases = [Duration::ZERO; 3];
        for ((wl, walk), ws) in self.wls.iter().zip(&self.walks).zip(&mut self.ws) {
            for (layer, retained, positions) in walk {
                let ctx = LayerCtx {
                    workload: wl,
                    layer: *layer,
                    retained,
                    positions,
                };
                for (stage, ws) in self.stages.iter().zip(ws.iter_mut()) {
                    let t = Instant::now();
                    stage.synth_raw(&ctx, ws);
                    phases[0] += t.elapsed();
                    let t = Instant::now();
                    stage.convert(ws);
                    phases[1] += t.elapsed();
                    let t = Instant::now();
                    black_box(stage.gather(&ctx, ws));
                    phases[2] += t.elapsed();
                }
            }
        }
        phases
    }
}

/// Runs `pairs` pairs of `a` and `b`, `a` first in even pairs and `b`
/// first in odd ones, and returns each pair's `(a, b)` results.
fn alternating<T>(pairs: usize, mut a: impl FnMut() -> T, mut b: impl FnMut() -> T) -> Vec<(T, T)> {
    (0..pairs)
        .map(|i| {
            if i % 2 == 0 {
                let ra = a();
                (ra, b())
            } else {
                let rb = b();
                (a(), rb)
            }
        })
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The median of `ratio` over the pairs.
fn median_ratio<T>(pairs: &[(T, T)], ratio: impl Fn(&T, &T) -> f64) -> f64 {
    median(pairs.iter().map(|(a, b)| ratio(a, b)).collect())
}

/// Wall time of one call of `run`.
fn timed_run<T>(run: impl FnOnce() -> T) -> Duration {
    let t = Instant::now();
    black_box(run());
    t.elapsed()
}

/// The dispatched-vs-oracle kernel ratios, each `scalar / simd` over
/// one phase: `[synthesis, gather, fake-quantise]`. A pair runs both
/// precisions of one backend back to back.
fn kernel_speedups(wls: &[Workload], pairs: usize) -> [f64; 3] {
    let mut fast = [DataType::Fp16, DataType::Int8].map(|dt| Staged::new(wls, dt, simd()));
    let mut oracle = [DataType::Fp16, DataType::Int8].map(|dt| Staged::new(wls, dt, scalar_ref()));
    let both = |legs: &mut [Staged<'_>; 2]| [legs[0].pass(), legs[1].pass()];
    let runs = alternating(pairs, || both(&mut fast), || both(&mut oracle));
    // (dtype leg, phase) of each ratio: FP16 synthesis, FP16 gather,
    // INT8 conversion (an FP16 stage's conversion is a no-op).
    [(0, 0), (0, 2), (1, 1)].map(|(leg, phase)| {
        median_ratio(&runs, |simd, scalar| {
            scalar[leg][phase].as_secs_f64() / simd[leg][phase].as_secs_f64()
        })
    })
}

/// The traced and untraced graph legs over `pairs` order-alternating
/// pairs: `(median untraced s, median traced s, median overhead %)`.
fn obs_overhead(wls: &[Workload], pairs: usize) -> (f64, f64, f64) {
    // The traced twin is built while span recording is on, so its
    // pipelines hold the `Timed` wrapper, exactly what a
    // `FOCUS_TRACE=spans` run sees. Recording stays off outside the
    // traced runs.
    spans::set_enabled(true);
    let traced_jobs = grid_jobs(wls);
    spans::set_enabled(false);
    let jobs = grid_jobs(wls);
    let runs = alternating(
        pairs,
        || timed_run(|| BatchRunner::run(&jobs)),
        || {
            spans::set_enabled(true);
            let d = timed_run(|| BatchRunner::run(&traced_jobs));
            spans::set_enabled(false);
            d
        },
    );
    let secs = |pick: fn(&(Duration, Duration)) -> Duration| {
        median(runs.iter().map(|r| pick(r).as_secs_f64()).collect())
    };
    let overhead = median_ratio(&runs, |untraced, traced| {
        traced.as_secs_f64() / untraced.as_secs_f64()
    });
    (secs(|r| r.0), secs(|r| r.1), 100.0 * (overhead - 1.0))
}

fn main() {
    // `cargo bench` passes `--bench`; `cargo test` runs harness-less
    // bench targets without it, so skip the measurement there.
    if !std::env::args().any(|a| a == "--bench") {
        println!("(skipping benchmarks outside `cargo bench`)");
        return;
    }
    let smoke = std::env::args().any(|a| a == "--test");
    let (kernel_pairs, obs_pairs) = if smoke {
        (1, 1)
    } else {
        (KERNEL_PAIRS, OBS_PAIRS)
    };
    let wls = fig09_grid_workloads();
    let [synthesis, gather, quantize] = kernel_speedups(&wls, kernel_pairs);
    let (graph_s, traced_s, obs_pct) = obs_overhead(&wls, obs_pairs);
    println!(
        "kernel speedups over {kernel_pairs} pairs: synthesis {synthesis:.3}x, \
         gather {gather:.3}x, quantize {quantize:.3}x; tracing overhead over \
         {obs_pairs} pairs: {obs_pct:.3}% ({graph_s:.6} s untraced, {traced_s:.6} s traced)"
    );
    if smoke {
        return;
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"fig09_grid_tiny\",\n  \"version\": 5,\n  \"cells\": {},\n  \
         \"threads\": {threads},\n  \"kernel_pairs\": {kernel_pairs},\n  \
         \"synthesis_kernel_speedup\": {synthesis:.3},\n  \
         \"gather_kernel_speedup\": {gather:.3},\n  \
         \"quantize_kernel_speedup\": {quantize:.3},\n  \"obs_pairs\": {obs_pairs},\n  \
         \"graph_batched_s\": {graph_s:.6},\n  \"graph_traced_s\": {traced_s:.6},\n  \
         \"obs_overhead_pct\": {obs_pct:.3}\n}}\n",
        wls.len(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("BENCH_batch.json:\n{json}"),
        Err(e) => eprintln!("could not write BENCH_batch.json: {e}"),
    }
}
