//! Temporal-dedup head-to-head: Focus streaming sessions (with and
//! without the cross-frame temporal cache) against the stateless
//! token-level baselines (FrameFusion, CMC) on **identical** correlated
//! scene streams.
//!
//! For each inter-frame correlation level the same `SceneStream` feed
//! is replayed four ways:
//!
//! * **Focus temporal** — one `StreamSession` with the compact-vector
//!   cache on: bit-identical rows carry across frames, their in-frame
//!   candidate comparisons are skipped, and carried rows leave the
//!   compact buffers entirely.
//! * **Focus isolated** — the same session machinery with the cache
//!   off: every frame concentrates from scratch (the pre-temporal
//!   serving path; bit-identical to the serial loop).
//! * **FrameFusion / CMC** — per-frame replays through the baseline
//!   harness; token-level methods have no cross-frame state to use.
//!
//! At correlation 0 the temporal column must match the isolated one
//! (zero hits: every frame re-keys its signatures, so no row has the
//! carry proof); as correlation rises the hit rate and the
//! skipped-gather share climb while the baselines stay flat — the
//! temporal-concentration figure of merit.

use std::time::Instant;

use focus_baselines::{run_stream, CmcBaseline, Concentrator, FrameFusionBaseline, StreamSpec};
use focus_bench::{eval_scale, fmt_pct, print_table, EVAL_SEED};
use focus_core::exec::{
    ExecMode, FocusService, FrameHandle, Priority, StreamConfig, StreamSession,
};
use focus_core::pipeline::{FocusPipeline, PipelineResult};
use focus_core::sic::TemporalCacheConfig;
use focus_sim::ArchConfig;
use focus_vlm::scene::SceneStream;
use focus_vlm::{DatasetKind, ModelKind};

const FRAMES: u64 = 12;
const CORRELATIONS: [f64; 3] = [0.0, 0.5, 0.9];

fn spec(correlation: f64) -> StreamSpec {
    StreamSpec {
        model: ModelKind::LlavaVideo7B,
        dataset: DatasetKind::VideoMme,
        scale: eval_scale(),
        stream: SceneStream {
            seed: EVAL_SEED,
            correlation,
        },
    }
}

struct FocusRun {
    frames_per_s: f64,
    sparsity: f64,
    hit_rate: f64,
    skipped_share: f64,
}

/// One Focus session over the stream: `temporal` toggles the cache,
/// everything else identical.
fn focus_stream(spec: &StreamSpec, temporal: Option<TemporalCacheConfig>) -> FocusRun {
    let mut session = StreamSession::open(
        FocusService::global(),
        FocusPipeline::paper().with_exec_mode(ExecMode::Graph {
            depth: ExecMode::DEFAULT_GRAPH_DEPTH,
        }),
        ArchConfig::focus(),
        StreamConfig {
            // Temporal frames chain value state and serialise anyway;
            // window 1 keeps the isolated leg an apples-to-apples
            // latency comparison.
            window: 1,
            priority: Priority::Normal,
            temporal,
        },
    );
    let start = Instant::now();
    let handles: Vec<FrameHandle> = (0..FRAMES)
        .map(|f| session.push_frame(spec.frame(f)))
        .collect();
    let results: Vec<PipelineResult> = handles.into_iter().map(FrameHandle::wait).collect();
    session.flush();
    let elapsed = start.elapsed().as_secs_f64();
    let stats = session.stats();
    let comparisons: u64 = results.iter().map(|r| r.sic_comparisons).sum();
    let probes = stats.temporal_hits + stats.temporal_misses;
    FocusRun {
        frames_per_s: FRAMES as f64 / elapsed,
        sparsity: results.iter().map(PipelineResult::sparsity).sum::<f64>() / FRAMES as f64,
        hit_rate: if probes == 0 {
            0.0
        } else {
            stats.temporal_hits as f64 / probes as f64
        },
        skipped_share: if stats.gathers_skipped + comparisons == 0 {
            0.0
        } else {
            stats.gathers_skipped as f64 / (stats.gathers_skipped + comparisons) as f64
        },
    }
}

fn baseline_stream(method: &dyn Concentrator, arch: &ArchConfig, spec: &StreamSpec) -> (f64, f64) {
    let start = Instant::now();
    let run = run_stream(method, arch, spec, FRAMES);
    (
        FRAMES as f64 / start.elapsed().as_secs_f64(),
        run.sparsity(),
    )
}

fn main() {
    println!("Temporal concentration head-to-head — {FRAMES} frames per stream\n");
    let mut rows = Vec::new();
    for correlation in CORRELATIONS {
        let spec = spec(correlation);
        let temporal = focus_stream(&spec, Some(TemporalCacheConfig::default()));
        let isolated = focus_stream(&spec, None);
        let ff = baseline_stream(
            &FrameFusionBaseline::default(),
            &ArchConfig::vanilla(),
            &spec,
        );
        let cmc = baseline_stream(&CmcBaseline::default(), &ArchConfig::cmc(), &spec);
        for (name, fps, sparsity, hit, skipped) in [
            (
                "Focus temporal",
                temporal.frames_per_s,
                temporal.sparsity,
                Some(temporal.hit_rate),
                Some(temporal.skipped_share),
            ),
            (
                "Focus isolated",
                isolated.frames_per_s,
                isolated.sparsity,
                None,
                None,
            ),
            ("FrameFusion", ff.0, ff.1, None, None),
            ("CMC", cmc.0, cmc.1, None, None),
        ] {
            rows.push(vec![
                format!("{correlation:.1}"),
                name.to_string(),
                format!("{fps:.2}"),
                fmt_pct(sparsity),
                hit.map_or_else(|| "-".to_string(), fmt_pct),
                skipped.map_or_else(|| "-".to_string(), fmt_pct),
            ]);
        }
    }
    print_table(
        &[
            "Corr.", "Method", "Frames/s", "Sparsity", "Hit rate", "Skipped",
        ],
        &rows,
    );
    println!(
        "\nHit rate and skipped-gather share rise with correlation; the \
         stateless baselines cannot use it."
    );
}
