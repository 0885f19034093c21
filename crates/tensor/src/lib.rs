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
//! * [`Matrix`] — the dense row-major activation buffer the workload
//!   generator fills and the pipeline stages read, storing `f32` or
//!   FP16 bits ([`Element`]);
//! * [`ops`] — vector specifications and helpers (softmax, top-k,
//!   vector ranges, geometric mean) that the concentrator models reuse;
//! * [`math`] — the batched, bit-deterministic transcendental kernel
//!   (fixed-polynomial `ln`/`cos`, `box_muller_fill`) behind all
//!   activation synthesis, with a runtime-dispatched SIMD path that is
//!   bit-identical to its scalar fallback;
//! * [`backend`] — the pluggable [`Backend`] trait putting the hot
//!   stage kernels (the gather matcher, segment norms and scoring,
//!   fake-quantise, FP16 rounding and encode, synthesis fill)
//!   behind one dispatch surface,
//!   with bit-identical `scalar`/`simd` implementations chosen by a
//!   [`BackendHandle`] (`FOCUS_BACKEND` picks the process default).
//!   Every cosine and norm is a segment launch; whole rows go through
//!   [`backend::row_cosine`] and [`backend::row_norm`].
//!
//! Everything is deterministic: no global RNG, no time sources. Workload
//! synthesis seeds `rand::rngs::StdRng` explicitly.
//!
//! # Examples
//!
//! ```
//! use focus_tensor::{backend, Matrix};
//!
//! let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! let mut b = a.clone();
//! let simd = backend::simd();
//! simd.f16_round(&mut b); // small integers are exact in FP16
//! assert_eq!(b, a);
//! assert!((backend::row_cosine(simd, b.row(0), a.row(0)) - 1.0).abs() < 1e-6);
//! assert_eq!(backend::row_cosine(simd, &[0.0; 3], &[0.0; 3]), 1.0);
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

pub use crate::backend::{Backend, BackendHandle, BackendKind, RowRef};
pub use crate::half::f16;
pub use crate::matrix::{Element, Matrix};
pub use crate::quant::{DataType, QuantParams, QuantizedTensor};
