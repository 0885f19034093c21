//! Synthetic vision-language-model workload substrate for the Focus
//! reproduction.
//!
//! The paper evaluates Focus on 7 B-parameter VLMs (LLaVA-Video,
//! LLaVA-OneVision, MiniCPM-V 2.6, Qwen2.5-VL) over six benchmarks.
//! Neither the models nor the datasets can run in this environment, so
//! this crate synthesises the *statistics* every concentration method
//! actually consumes:
//!
//! * [`config`] — exact transformer shapes of the evaluated models and
//!   the [`config::WorkloadScale`] downscaling scheme;
//! * [`dataset`] — per-benchmark redundancy profiles and the dense
//!   accuracy anchors of Tables II and V;
//! * [`scene`] — parametric video scenes: static backgrounds, moving
//!   objects, scene cuts;
//! * [`embedding`] — activation synthesis with controlled sub-vector
//!   stability (the Fig. 2(b) mechanism);
//! * [`attention`] — prompt-conditioned cross-modal attention (the
//!   Fig. 2(a) mechanism) and ground-truth relevance;
//! * [`accuracy`] — the proxy accuracy model;
//! * [`trace`] — layer-wise GEMM enumeration shared with the simulator;
//! * [`workload`] — the top-level [`workload::Workload`]
//!   object tying one evaluation cell together.
//!
//! # Examples
//!
//! ```
//! use focus_vlm::config::{ModelKind, WorkloadScale};
//! use focus_vlm::dataset::DatasetKind;
//! use focus_vlm::workload::Workload;
//!
//! let w = Workload::new(
//!     ModelKind::LlavaVideo7B,
//!     DatasetKind::VideoMme,
//!     WorkloadScale::tiny(),
//!     42,
//! );
//! assert_eq!(w.image_tokens_full(), 6272); // paper-scale token count
//! ```

pub mod accuracy;
pub mod attention;
pub mod config;
pub mod dataset;
pub mod embedding;
pub mod scene;
pub mod trace;
pub mod workload;

pub use crate::attention::Prompt;
pub use crate::config::{ModelConfig, ModelKind, WorkloadScale};
pub use crate::dataset::{DatasetKind, DatasetProfile};
pub use crate::workload::Workload;
