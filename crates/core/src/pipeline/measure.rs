//! The measured phase: the [`LayerExecutor`] stage graph run over
//! synthesised activations at [`focus_vlm::WorkloadScale`] resolution.
//!
//! The per-layer bookkeeping lives in [`MeasureAccum`] so the
//! reference loop and the task-graph schedule's `Absorb` nodes share
//! one absorption routine — identical arithmetic order, hence
//! bit-identical results across both [`crate::exec::ExecMode`]s.
//! The *pure* half of the per-layer fold (reducing the four gather
//! stages' statistics into a [`LayerRecord`]) is `fold_gathers` in the
//! executor; the graph schedule runs it in parallel-safe `FoldStats`
//! nodes off the ordered chain, so only this accumulator's cheap
//! `absorb` is sequential.

use focus_vlm::accuracy::TokenOutcome;
use focus_vlm::Workload;

use crate::exec::{LayerExecutor, LayerRecord};
use crate::pipeline::stats::{LayerStats, MeasuredRun};
use crate::pipeline::FocusPipeline;

/// Ordered accumulator of per-layer [`LayerRecord`]s into the
/// [`MeasuredRun`] the lowering phase consumes.
///
/// [`MeasureAccum::absorb`] must be called once per layer in layer
/// order (the reference loop calls it inline; the task graph chains its
/// `Absorb(l)` nodes on `Absorb(l-1)` to guarantee the same order).
/// Measurement propagation onto unmeasured layers happens streamingly
/// at absorption: an unmeasured layer copies the stage statistics of
/// the nearest measured layer below it. (Layer 0 measures whenever SIC
/// is enabled — the stride anchor — so "nearest below" always exists
/// when anything measures at all.)
pub(crate) struct MeasureAccum {
    m_img: usize,
    layers_n: usize,
    fid_accum: Vec<f64>,
    last_fid: Vec<f64>,
    layer_stats: Vec<LayerStats>,
    sec_layers: Vec<crate::pipeline::SecLayerStats>,
    sic_comparisons: u64,
    sic_matches: u64,
    /// Index of the most recent measured layer, the streaming
    /// propagation source.
    last_measured: Option<usize>,
}

impl MeasureAccum {
    /// An empty accumulator for a run of `layers_n` layers over
    /// `m_img` scaled image tokens.
    pub(crate) fn new(m_img: usize, layers_n: usize) -> Self {
        MeasureAccum {
            m_img,
            layers_n,
            fid_accum: vec![0.0f64; m_img],
            last_fid: vec![1.0f64; m_img],
            layer_stats: Vec::with_capacity(layers_n),
            sec_layers: Vec::new(),
            sic_comparisons: 0,
            sic_matches: 0,
            last_measured: None,
        }
    }

    /// Folds one layer's record in. `retained` is the post-prune
    /// retained set of that layer (the set its gathers saw).
    pub(crate) fn absorb(&mut self, layer: usize, record: LayerRecord, retained: &[usize]) {
        debug_assert_eq!(layer, self.layer_stats.len(), "layers absorb in order");
        self.sic_comparisons += record.comparisons;
        self.sic_matches += record.matches;
        if let Some(fid) = &record.fidelity {
            for (row, &tok) in retained.iter().enumerate() {
                self.last_fid[tok] = fid[row];
            }
        }
        // Fidelity accrues for retained tokens only.
        for &tok in retained {
            self.fid_accum[tok] += self.last_fid[tok];
        }
        if let Some(sec) = record.sec {
            self.sec_layers.push(sec);
        }
        let mut stats = LayerStats {
            layer,
            retained_in: record.retained_in,
            retained_out: retained.len(),
            measured: record.measured,
            stage_ratio: record.stage_ratio,
            stage_samples: record.stage_samples,
            stage_col_tiles: record.stage_col_tiles,
            sic_comparisons: self.sic_comparisons,
            sic_matches: self.sic_matches,
        };
        if record.measured {
            self.last_measured = Some(self.layer_stats.len());
        } else if let Some(src) = self.last_measured {
            let src = &self.layer_stats[src];
            stats.stage_ratio = src.stage_ratio;
            stats.stage_samples = src.stage_samples.clone();
            stats.stage_col_tiles = src.stage_col_tiles;
        }
        self.layer_stats.push(stats);
    }

    /// Layers absorbed so far (final — propagation already applied).
    pub(crate) fn layer_stats(&self) -> &[LayerStats] {
        &self.layer_stats
    }

    /// Closes the run: token outcomes from accrued fidelity.
    pub(crate) fn finish(self, workload: &Workload) -> MeasuredRun {
        let relevance = workload.relevance();
        let outcomes: Vec<TokenOutcome> = (0..self.m_img)
            .map(|t| TokenOutcome {
                relevance: relevance[t],
                fidelity: self.fid_accum[t] / self.layers_n as f64,
            })
            .collect();
        MeasuredRun {
            layer_stats: self.layer_stats,
            sec_layers: self.sec_layers,
            outcomes,
            sic_comparisons: self.sic_comparisons,
            sic_matches: self.sic_matches,
            m_img_scaled: self.m_img,
        }
    }
}

impl FocusPipeline {
    /// The measured phase of the reference schedule
    /// ([`crate::exec::ExecMode::Serial`]): SEC + SIC over synthesised
    /// activations, one layer at a time on the calling thread.
    /// ([`crate::exec::ExecMode::Graph`] runs never come through here —
    /// [`FocusPipeline::run`] routes them to the task scheduler.)
    pub(crate) fn measure(&self, workload: &Workload) -> MeasuredRun {
        let exec = LayerExecutor::new(self, workload);
        let layers_n = exec.layers();
        let m_img = workload.image_tokens_scaled();

        let mut retained: Vec<usize> = (0..m_img).collect();
        let mut accum = MeasureAccum::new(m_img, layers_n);
        for layer in 0..layers_n {
            let record = exec.run_layer(layer, &mut retained);
            accum.absorb(layer, record, &retained);
        }
        accum.finish(workload)
    }
}
