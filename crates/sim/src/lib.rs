//! Cycle-accurate accelerator substrate for the Focus reproduction.
//!
//! The paper evaluates Focus with a SCALE-sim-v2-based cycle-accurate
//! simulator, DRAMsim3 device energy, and post-synthesis 28 nm
//! area/power. This crate rebuilds that stack analytically; each
//! module's docs name the substitution it makes:
//!
//! * [`config`] — the Table I / Table III architecture configurations;
//! * [`systolic`] — weight-stationary tiled-GEMM timing with
//!   fill/drain, per-sub-tile retained-row counts and scatter
//!   accumulator stalls;
//! * [`dram`] — DDR4-2133 ×4 bandwidth/energy;
//! * [`energy`] — calibrated 28 nm per-event energies and the
//!   core/buffer/DRAM breakdown of Fig. 9;
//! * [`area`] — calibrated 28 nm component densities (Table III);
//! * [`gpu`] — the Jetson Orin Nano roofline baseline;
//! * [`engine`] — the work-list scheduler with compute/memory overlap.
//!
//! The crate is deliberately independent of the workload layer: callers
//! (the Focus pipeline, the baselines) lower their layer traces into
//! [`WorkItem`]s.
//!
//! # Examples
//!
//! ```
//! use focus_sim::{ArchConfig, Engine, GemmWork, WorkItem};
//!
//! let engine = Engine::new(ArchConfig::focus());
//! let gemm = GemmWork::dense("ffn", 1024, 3584, 18944, 1, 1024);
//! let report = engine.run(&[WorkItem::gemm_only(gemm, 1 << 20, 1 << 20)]);
//! assert!(report.avg_utilization > 0.9);
//! ```

pub mod area;
pub mod config;
pub mod dram;
pub mod energy;
pub mod engine;
pub mod gpu;
pub mod systolic;

pub use crate::area::{AreaModel, AreaReport};
pub use crate::config::ArchConfig;
pub use crate::dram::DramModel;
pub use crate::energy::{EnergyBreakdown, EnergyModel};
pub use crate::engine::{Engine, SimReport, WorkItem};
pub use crate::gpu::{GpuModel, GpuReport};
pub use crate::systolic::{GemmTiming, GemmWork, SystolicModel};
