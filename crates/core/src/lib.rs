//! **Focus** — a streaming concentration architecture for efficient
//! vision-language models (HPCA 2026), reproduced in Rust.
//!
//! Focus removes redundancy from VLM inference at three granularities,
//! entirely on-chip and aligned with GEMM tiling:
//!
//! * **Semantic (token) level** — the [`sec`] module prunes visual
//!   tokens whose cross-modal attention says they are irrelevant to the
//!   prompt (streaming importance analyzer → top-k bubble sorter →
//!   offset encoder);
//! * **Block level** — the [`sic::layout`] convolution-style layouter
//!   restores pruned tokens' (Frame, Height, Width) positions and maps
//!   2×2×2 spatiotemporal windows onto 8 SRAM banks conflict-free;
//! * **Vector level** — the [`sic`] similarity concentrator
//!   deduplicates 32-element vectors inside each output tile (gather)
//!   and reconstructs full tiles from concentrated partial sums in the
//!   next GEMM (scatter).
//!
//! # Module tree
//!
//! The crate is organised as a streaming **stage graph** over those
//! mechanisms:
//!
//! * [`config`] — the Table I configuration ([`FocusConfig`],
//!   [`RetentionSchedule`], [`BlockSize`]);
//! * [`sec`] / [`sic`] — the two concentration mechanisms;
//! * [`exec`] — the execution engine: the [`exec::FocusService`] pool
//!   behind the default [`exec::ExecMode::Graph`] schedule (every layer
//!   decomposed into `Sec`/`Synth`/`Gather`/`FoldStats`/`Absorb`/`Lower`
//!   nodes of one shared topology, built once per retention plan; each
//!   run is that topology plus a pipeline graph owning the run's state,
//!   on a work-stealing scheduler with cross-layer and cross-workload
//!   overlap at any depth), the [`exec::LayerExecutor`] (the
//!   single-threaded reference loop behind [`exec::ExecMode::Serial`]),
//!   and [`exec::BatchRunner::run`] (submits a batch of jobs into the
//!   shared serving pool, results bit-identical to serial execution);
//! * [`session`] — per-session warm state for streaming feeds: the
//!   shared retention plan and topology and the recycled frame
//!   allocations behind [`exec::StreamSession`]'s per-frame admission;
//! * [`pipeline`] — the pipeline phases split by concern:
//!   `measure` (per-layer absorption shared by every schedule),
//!   `lower` (the shared [`focus_vlm::trace::layer_lowering`] GEMM
//!   table applied at paper scale, one layer at a time so the graph
//!   schedule streams it), `stats` (the per-layer records and
//!   [`pipeline::PipelineResult`]);
//! * [`obs`] — the observability layer: per-node span tracing into
//!   lock-free rings (`FOCUS_TRACE=spans`), Chrome-trace export
//!   (`FOCUS_TRACE_OUT=path`), per-phase and per-kernel latency
//!   histograms, and the unified metrics registry every `stats()`
//!   surface reads through;
//! * [`unit`](mod@unit) — the hardware inventory (area shares, overlap
//!   guarantees).
//!
//! [`pipeline::FocusPipeline`] runs the whole stack over a synthetic
//! [`focus_vlm::Workload`] and lowers the measured concentration ratios
//! into [`focus_sim`] work items for cycle-accurate evaluation.
//!
//! # Examples
//!
//! ```
//! use focus_core::pipeline::FocusPipeline;
//! use focus_sim::ArchConfig;
//! use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};
//!
//! let workload = Workload::new(
//!     ModelKind::LlavaVideo7B,
//!     DatasetKind::VideoMme,
//!     WorkloadScale::tiny(),
//!     7,
//! );
//! let result = FocusPipeline::paper().run(&workload, &ArchConfig::focus());
//! assert!(result.sparsity() > 0.5);
//! ```
//!
//! Batched, parallel execution over many workloads:
//!
//! ```
//! use focus_core::exec::{BatchJob, BatchRunner};
//! use focus_core::pipeline::FocusPipeline;
//! use focus_sim::ArchConfig;
//! use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};
//!
//! let jobs: Vec<BatchJob> = (0..4)
//!     .map(|seed| BatchJob {
//!         pipeline: FocusPipeline::paper(),
//!         workload: Workload::new(
//!             ModelKind::LlavaVideo7B,
//!             DatasetKind::VideoMme,
//!             WorkloadScale::tiny(),
//!             seed,
//!         ),
//!         arch: ArchConfig::focus(),
//!     })
//!     .collect();
//! let results = BatchRunner::run(&jobs);
//! assert_eq!(results.len(), 4);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod exec;
pub mod obs;
pub mod pipeline;
pub mod sec;
pub mod session;
pub mod sic;
pub mod unit;

pub use crate::config::{BlockSize, FocusConfig, RetentionSchedule};
pub use crate::exec::{BatchJob, BatchRunner};
pub use crate::pipeline::{FocusPipeline, PipelineResult};
pub use crate::sec::SemanticConcentrator;
pub use crate::sic::SimilarityConcentrator;

/// The guarantees of [`exec::par_map`] that the experiment binaries'
/// bit-identical output rests on.
#[cfg(test)]
mod tests {
    use crate::exec::par_map;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled = par_map(&v, |&x| x * 2);
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        // Fewer items than threads, and a single item.
        assert_eq!(par_map(&[3u8, 1], |&x| x + 1), vec![4, 2]);
        assert_eq!(par_map(&[7u8], |&x| x), vec![7]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    /// The caller sees the worker's own payload, not a generic
    /// join error.
    #[test]
    #[should_panic(expected = "item 63 failed")]
    fn panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        par_map(&items, |&x| {
            assert!(x != 63, "item {x} failed");
            x
        });
    }
}
