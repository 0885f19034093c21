//! The lowering phase: measured concentration ratios applied to the
//! paper-scale GEMM trace, producing [`focus_sim::WorkItem`]s.
//!
//! The per-layer seven-GEMM structure comes from the shared
//! [`focus_vlm::trace::layer_lowering`] table — the same description
//! the dense enumeration uses — so the pipeline no longer hand-rolls
//! the stage wiring inline.
//!
//! Lowering one layer only reads that layer's (and its predecessor's)
//! finalised [`LayerStats`], so [`FocusPipeline::lower_layer`] is a
//! standalone task: the loop schedules run it phase-wise after the
//! whole measured phase, while the task-graph schedule streams it —
//! `Lower(l)` overlaps later layers' synthesis and SEC. Both orders
//! produce bit-identical results ([`FocusPipeline::assemble`]
//! concatenates in layer order).

use focus_sim::{ArchConfig, GemmWork, WorkItem};
use focus_tensor::quant::DataType;
use focus_vlm::scene::hash_words;
use focus_vlm::trace::{layer_lowering, GemmInput, GemmKind};
use focus_vlm::Workload;

use crate::pipeline::stats::{LayerStats, MeasuredRun, PipelineResult};
use crate::pipeline::FocusPipeline;

/// One layer's lowered work: the seven GEMM work items plus the DRAM
/// traffic they were charged.
pub(crate) struct LayerLowered {
    pub items: Vec<WorkItem>,
    pub weight_bytes: u64,
    pub act_read_bytes: u64,
    pub act_write_bytes: u64,
}

impl FocusPipeline {
    /// Lowers measured statistics to paper-scale work items, layer by
    /// layer in order.
    pub(crate) fn lower(
        &self,
        workload: &Workload,
        arch: &ArchConfig,
        run: MeasuredRun,
    ) -> PipelineResult {
        let per_layer: Vec<LayerLowered> = (0..workload.model().layers)
            .map(|l| {
                let prev = (l > 0).then(|| &run.layer_stats[l - 1]);
                self.lower_layer(
                    workload,
                    arch,
                    run.m_img_scaled,
                    l,
                    &run.layer_stats[l],
                    prev,
                )
            })
            .collect();
        self.assemble(workload, arch, run, per_layer)
    }

    /// Lowers one layer: the measured ratios of `stats` (and the
    /// producing layer's `prev`) applied to the layer's seven-GEMM
    /// trace. Pure in its inputs — the task graph fans these out.
    pub(crate) fn lower_layer(
        &self,
        workload: &Workload,
        arch: &ArchConfig,
        m_img_scaled: usize,
        l: usize,
        stats: &LayerStats,
        prev: Option<&LayerStats>,
    ) -> LayerLowered {
        let model = workload.model();
        let text = workload.text_tokens();
        let m_img_full = workload.image_tokens_full();
        let bytes = arch.bytes_per_elem as u64;
        let acc = self.focus.scatter_accumulators;

        let mut lowered = LayerLowered {
            items: Vec::new(),
            weight_bytes: 0,
            act_read_bytes: 0,
            act_write_bytes: 0,
        };

        // Full-scale retained token counts at the layer boundary.
        let token_ratio = |end: bool| -> f64 {
            let r = if end {
                stats.retained_out
            } else {
                stats.retained_in
            };
            r as f64 / m_img_scaled as f64
        };
        let seq_in = (token_ratio(false) * m_img_full as f64).round() as usize + text;
        let seq_out = (token_ratio(true) * m_img_full as f64).round() as usize + text;

        for desc in layer_lowering(model, seq_in, seq_out) {
            let (kind, m, k, n, batch) = (desc.kind, desc.m, desc.k, desc.n, desc.batch);
            // Resolve the shared-trace producer reference to the
            // measured statistics of the producing (layer, stage).
            let producer: Option<(&LayerStats, usize)> = match desc.input {
                GemmInput::Dense => None,
                GemmInput::PrevLayer(stage) => {
                    prev.map(|p| (p, stage.gather_index().expect("gather stage")))
                }
                GemmInput::SameLayer(stage) => {
                    Some((stats, stage.gather_index().expect("gather stage")))
                }
            };

            let mut work = GemmWork::dense(
                format!("L{l}:{}", kind.label()),
                m,
                k,
                n,
                batch,
                self.focus.tile_m,
            );
            let k_subs = work.k_subtiles(arch.pe_rows);
            let m_tiles = work.m_tiles();

            // Input concentration from the producing stage.
            let mut in_ratio = 1.0f64;
            let mut map_read = 0u64;
            if let Some((p_stats, ps)) = producer {
                let samples = &p_stats.stage_samples[ps];
                if !samples.is_empty() {
                    in_ratio = p_stats.stage_ratio[ps];
                    let col_tiles = p_stats.stage_col_tiles[ps].max(1);
                    let meas_m_tiles = (samples.len() / col_tiles).max(1);
                    let mut rows = Vec::with_capacity(m_tiles * k_subs);
                    for mt in 0..m_tiles {
                        let height = work.tile_height(mt);
                        for ks in 0..k_subs {
                            let sample =
                                samples[(mt % meas_m_tiles) * col_tiles + (ks % col_tiles)];
                            rows.push(((sample * height as f64).round() as usize).max(1));
                        }
                    }
                    work.subtile_rows = Some(rows);
                    work.scatter_accumulators = Some(acc);
                    map_read = (m as u64) * 2 * k_subs as u64;
                }
            }

            // Output concentration, if this GEMM produces a gathered
            // stage.
            let out_stage = desc
                .kind
                .gathered_output()
                .map(|s| s.gather_index().expect("gather stage"));
            let (out_ratio, map_write) = match out_stage {
                Some(si) if !stats.stage_samples[si].is_empty() => {
                    let n_col_tiles = (n * batch).div_ceil(self.focus.vector_len.min(n)) as u64;
                    (
                        stats.stage_ratio[si],
                        (m as u64) * 2 * n_col_tiles.min(k_subs.max(1) as u64 * 8),
                    )
                }
                _ => (1.0, 0),
            };

            // DRAM traffic. For attention GEMMs the "weight" stream
            // is itself an activation (K/V), but it is still re-read
            // per m-tile like a weight, so the charge is uniform.
            let weight_rd = (k as u64) * (n as u64) * (batch as u64) * bytes * m_tiles as u64;
            let (input_rd, output_wr) = match kind {
                // QKᵀ reads Q and K; its output (scores) stays
                // on-chip through softmax into PV.
                GemmKind::QkT => (2 * (m as u64) * (k as u64) * bytes * batch as u64, 0),
                // PV's P input is on-chip; V arrives as the weight
                // stream (already counted).
                GemmKind::Pv => (
                    0,
                    (out_ratio * (m * n * batch) as f64) as u64 * bytes + map_write,
                ),
                // The gate output is consumed on-chip by the SiLU ×
                // up product; only the product (FfnAct) is written,
                // charged to FfnUp.
                GemmKind::FfnGate => (((in_ratio * (m * k) as f64) as u64) * bytes + map_read, 0),
                _ => (
                    ((in_ratio * (m * k) as f64) as u64) * bytes + map_read,
                    (out_ratio * (m * n) as f64) as u64 * bytes + map_write,
                ),
            };

            // Concurrent unit work (energy accounting).
            let mut item = WorkItem::gemm_only(work, weight_rd + input_rd, output_wr);
            match kind {
                GemmKind::QkT => {
                    item.sfu_ops = 2 * (m as u64) * (n as u64) * batch as u64; // softmax
                    if self.focus.enable_sec && self.focus.schedule.prune_at(l).is_some() {
                        let m_img_in = seq_in - text;
                        item.sec_ops = (model.heads * text * m_img_in) as u64 // analyzer
                            + (m_img_in as u64)
                                * ((seq_out - text) as u64)
                                    .div_ceil(self.focus.analyzer_ways as u64);
                    }
                }
                GemmKind::Qkv | GemmKind::FfnGate => {
                    item.sfu_ops = 2 * (m as u64) * (k as u64); // rmsnorm
                }
                GemmKind::FfnUp => {
                    item.sfu_ops = 2 * (m as u64) * (n as u64); // silu + product
                }
                _ => {}
            }
            if out_stage.is_some() && self.focus.enable_sic {
                // Matcher: norm + up to cells−1 dots per produced row.
                item.sic_ops = (m as u64) * self.focus.block.cells() as u64 * (n * batch) as u64;
            }

            lowered.weight_bytes += weight_rd;
            lowered.act_read_bytes += input_rd;
            lowered.act_write_bytes += output_wr;
            lowered.items.push(item);
        }
        lowered
    }

    /// Assembles the final [`PipelineResult`] from the measured run and
    /// the per-layer lowered work, concatenating in layer order.
    pub(crate) fn assemble(
        &self,
        workload: &Workload,
        arch: &ArchConfig,
        run: MeasuredRun,
        per_layer: Vec<LayerLowered>,
    ) -> PipelineResult {
        let model = workload.model();
        let m_img_full = workload.image_tokens_full();
        let text = workload.text_tokens();

        let mut items: Vec<WorkItem> = Vec::new();
        let mut weight_bytes_total = 0u64;
        let mut act_read_total = 0u64;
        let mut act_write_total = 0u64;
        for lowered in per_layer {
            weight_bytes_total += lowered.weight_bytes;
            act_read_total += lowered.act_read_bytes;
            act_write_total += lowered.act_write_bytes;
            items.extend(lowered.items);
        }

        let focus_macs: u128 = items
            .iter()
            .map(|i| i.gemm.effective_macs(arch.pe_rows))
            .sum();
        let dense_macs = focus_vlm::trace::dense_prefill_macs(model, m_img_full + text);

        // Accuracy: measured outcomes + a small quantisation penalty
        // under INT8 (bitsandbytes-style absmax noise on logits).
        let dense_accuracy = self.accuracy.dense_score(workload.profile(), model.kind);
        let mut accuracy = self
            .accuracy
            .score(workload.profile(), model.kind, &run.outcomes);
        if self.dtype == DataType::Int8 {
            let cell_seed = workload.scene().config().seed;
            let z = (hash_words(cell_seed, &[0x1A7]) >> 11) as f64 / (1u64 << 53) as f64;
            let concentrated = self.focus.enable_sec || self.focus.enable_sic;
            let penalty = if concentrated {
                // Quantisation noise compounds with concentration
                // decisions (paper: ~0.5-point average extra drop).
                0.15 + 0.6 * z
            } else {
                // Plain INT8 inference is near accuracy-neutral and can
                // even help slightly (Table IV's negative "degrade"
                // entries).
                (z - 0.45) * 0.9
            };
            accuracy -= workload.profile().metric_scale() * penalty;
        }

        PipelineResult {
            layers: run.layer_stats,
            sec_layers: run.sec_layers,
            work_items: items,
            focus_macs,
            dense_macs,
            outcomes: run.outcomes,
            accuracy,
            dense_accuracy,
            activation_read_bytes: act_read_total,
            activation_write_bytes: act_write_total,
            weight_bytes: weight_bytes_total,
            sic_comparisons: run.sic_comparisons,
            sic_matches: run.sic_matches,
            prefetch_discards: 0,
        }
    }
}
