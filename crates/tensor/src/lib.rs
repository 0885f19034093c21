//! Numeric substrate for the Focus reproduction.
//!
//! The Focus accelerator ([HPCA 2026]) processes FP16 activations on a
//! 32×32 systolic array with FP32 accumulation, and is evaluated both in
//! FP16 and under INT8 quantisation. This crate provides the numeric
//! building blocks the rest of the workspace is written against:
//!
//! * [`f16`](struct@f16) — a software-emulated IEEE 754 binary16 value, so that the
//!   pipeline rounds activations exactly where the hardware would;
//! * [`quant`] — symmetric INT8 quantisation used by the Table IV
//!   ("synergy with quantization") experiment;
//! * [`Matrix`] — a dense row-major `f32` matrix with the blocked GEMM,
//!   tiling helpers and transformer kernels (softmax, RMSNorm) the
//!   workload generator and the reference pipeline need;
//! * [`ops`] — vector kernels (dot, L2 norm, cosine similarity) that the
//!   similarity concentrator models reuse;
//! * [`math`] — the batched, bit-deterministic transcendental kernel
//!   (fixed-polynomial `ln`/`cos`, `box_muller_fill`) behind all
//!   activation synthesis, with a runtime-dispatched SIMD path that is
//!   bit-identical to its scalar fallback;
//! * [`backend`] — the pluggable [`Backend`] trait putting the hot
//!   stage kernels (gather scoring, compact norms, fake-quantise, FP16
//!   rounding, scatter, synthesis fill) behind one dispatch surface,
//!   with bit-identical `scalar`/`simd` implementations and a
//!   launch-recording `trace` backend (`FOCUS_BACKEND`).
//!
//! Everything is deterministic: no global RNG, no time sources. Workload
//! synthesis seeds `rand::rngs::StdRng` explicitly.
//!
//! # Examples
//!
//! ```
//! use focus_tensor::{Matrix, ops};
//!
//! let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! let b = Matrix::identity(3);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! assert!((ops::cosine_similarity(c.row(0), a.row(0)) - 1.0).abs() < 1e-6);
//! ```
//!
//! [HPCA 2026]: https://arxiv.org/abs/2512.14661

// Every unsafe operation must sit in an explicit `unsafe {}` block even
// inside `unsafe fn`, so the `focus-lint` S1 pass (SAFETY comments on
// every unsafe span) audits the true unsafe surface, not whole fn
// bodies.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backend;
pub mod half;
pub mod math;
pub mod matrix;
pub mod ops;
pub mod quant;

pub use crate::backend::{Backend, BackendHandle, BackendKind, KernelLaunch};
pub use crate::half::f16;
pub use crate::matrix::{Matrix, TileIter, TileSpec};
pub use crate::quant::{DataType, QuantParams, QuantizedTensor};
