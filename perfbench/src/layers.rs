//! Staged self time: single-threaded calls into each layer's public
//! functions, replaying items the measured run already served.
//!
//! The scheduler's spans time whole nodes; these calls split a node
//! into the layer functions it is made of — activation synthesis
//! (`focus_vlm`, through [`GatherStage::synth_raw`]), dtype conversion
//! (`focus_tensor`, [`GatherStage::convert`]), similarity gather
//! (`focus_core::sic`, [`GatherStage::gather`] or
//! [`GatherStage::gather_temporal`]), semantic pruning
//! ([`SemanticStage::prune_layer`]) and cycle simulation
//! ([`Engine::run`]). Kernel-family time comes from here rather than
//! from the program's sampled kernel histograms, which time one launch
//! in 64 and can miss a family entirely.
//!
//! The replay walks each item's layers the way the pipeline graph does:
//! SEC on the incoming retained set, then the four gather stages on the
//! pruned set at every layer the served result marks as measured. Its
//! SEC output and gather comparison counts are checked against the
//! served result, so a replay that drifts from the pipeline shows.

use std::hint::black_box;
use std::time::Instant;

use focus_core::exec::{GatherStage, LayerCtx, SemanticStage, StageWorkspace};
use focus_core::pipeline::PipelineResult;
use focus_core::session::SessionGeometry;
use focus_core::sic::{ConvLayouter, Fhw, TemporalCache, TemporalCacheConfig};
use focus_core::FocusConfig;
use focus_sim::Engine;
use focus_tensor::backend::simd;
use focus_tensor::DataType;
use focus_vlm::embedding::Stage;
use focus_vlm::Workload;

/// Staged self time summed over the timed items of a replay, in ms.
#[derive(Clone, Debug, Default)]
pub struct Staged {
    /// Items whose calls were timed.
    pub items: usize,
    pub synth_ms: f64,
    pub convert_ms: f64,
    pub gather_ms: f64,
    pub prune_ms: f64,
    pub engine_ms: f64,
    /// Items whose replayed SEC output or gather comparison count
    /// differed from the served result (a replay bug, reported).
    pub drifted: usize,
}

impl Staged {
    /// `ms` (one of the totals above) per timed item.
    pub fn per_item(&self, ms: f64) -> f64 {
        ms / self.items.max(1) as f64
    }
}

/// One item to replay: its input, the result the system served for it,
/// and whether its calls count toward the totals (leading untimed items
/// rebuild a temporal cache's state).
pub struct ReplayItem<'a> {
    pub workload: &'a Workload,
    pub served: &'a PipelineResult,
    pub timed: bool,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replays `items` in order on the calling thread. With `temporal`, the
/// items are consecutive frames of one feed and gathers probe a cache
/// carried across them, as a temporal stream session does. With
/// `engine`, each timed item's served work items are also simulated.
pub fn replay(
    items: &[ReplayItem<'_>],
    temporal: Option<TemporalCacheConfig>,
    engine: Option<&Engine>,
) -> Staged {
    let config = FocusConfig::paper();
    let backend = simd();
    let stages: Vec<GatherStage> = Stage::GATHER_POINTS
        .iter()
        .map(|&s| GatherStage::new_on(&config, s, DataType::Fp16, backend))
        .collect();
    let mut cache: Option<TemporalCache> = None;
    let mut staged = Staged::default();
    for item in items {
        let wl = item.workload;
        let served = item.served;
        if let Some(cfg) = temporal {
            let geometry = SessionGeometry::of(wl);
            let cache = cache.get_or_insert_with(|| {
                TemporalCache::new(cfg, geometry.layers, stages.len(), geometry.m_img)
            });
            let (key, sigs) = wl.temporal_signatures();
            cache.begin_frame_with(key, &sigs, wl.stability_model());
        }
        let semantic = SemanticStage::new(&config, wl);
        let mut ws: Vec<StageWorkspace<'_>> = stages
            .iter()
            .map(|_| StageWorkspace::new_on(wl, backend))
            .collect();
        let scaled = wl.scaled_model();
        let layouter = ConvLayouter::new(scaled.grid_h, scaled.grid_w);
        let (mut synth, mut convert, mut gather, mut prune) = (0.0, 0.0, 0.0, 0.0);
        let mut comparisons = 0u64;
        let mut drifted = false;
        let mut retained: Vec<usize> = (0..wl.image_tokens_scaled()).collect();
        for (layer, record) in served.layers.iter().enumerate() {
            let ctx = LayerCtx {
                workload: wl,
                layer,
                retained: &retained,
                positions: &[],
            };
            let t = Instant::now();
            let pruned = black_box(semantic.prune_layer(&ctx));
            prune += ms_since(t);
            if let Some((kept, _)) = pruned {
                retained = kept;
            }
            drifted |= retained.len() != record.retained_out;
            if !record.measured {
                continue;
            }
            let positions: Vec<Option<Fhw>> = retained
                .iter()
                .map(|&t| Some(layouter.position_of(t)))
                .collect();
            let ctx = LayerCtx {
                workload: wl,
                layer,
                retained: &retained,
                positions: &positions,
            };
            for (si, (stage, ws)) in stages.iter().zip(ws.iter_mut()).enumerate() {
                let t = Instant::now();
                stage.synth_raw(&ctx, ws);
                synth += ms_since(t);
                let t = Instant::now();
                stage.convert(ws);
                convert += ms_since(t);
                let t = Instant::now();
                let stats = match &cache {
                    Some(cache) => stage.gather_temporal(&ctx, ws, cache, si),
                    None => stage.gather(&ctx, ws),
                };
                gather += ms_since(t);
                comparisons += black_box(stats).comparisons;
            }
        }
        drifted |= comparisons != served.sic_comparisons;
        if !item.timed {
            continue;
        }
        staged.items += 1;
        staged.synth_ms += synth;
        staged.convert_ms += convert;
        staged.gather_ms += gather;
        staged.prune_ms += prune;
        staged.drifted += usize::from(drifted);
        if let Some(engine) = engine {
            let t = Instant::now();
            black_box(engine.run(&served.work_items));
            staged.engine_ms += ms_since(t);
        }
    }
    staged
}
