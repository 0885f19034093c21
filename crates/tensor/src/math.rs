//! Batched, bit-deterministic transcendental synthesis kernel.
//!
//! The measured phase of the pipeline is RNG-bound: every synthesised
//! activation value costs one Box–Muller round-trip, and the libm
//! `ln`/`cos` calls behind it were 83 % of the measured phase
//! (`BENCH_batch.json`, ROADMAP direction 2). This module replaces
//! libm with **fixed-polynomial** evaluations whose operation order is
//! frozen, so the same value stream can be produced one value at a
//! time (scalar), eight lanes at a time (AVX2), or chunked through any
//! future width — **bit-identically**.
//!
//! # Determinism contract
//!
//! Every path — [`box_muller_fill`]'s runtime-dispatched SIMD, its
//! chunked-scalar fallback, and the one-value [`normal_from_raw`]
//! reference — executes the *same* IEEE-754 single-precision
//! operations in the *same* order on every input:
//!
//! * argument reduction happens in **integer space** (exponent and
//!   mantissa bits for `ln`, quadrant/octant bits for `cos`), which is
//!   exact everywhere;
//! * the float pipeline uses only exactly-rounded IEEE ops (`+`, `-`,
//!   `*`, `/`, `sqrt`), exact `u32 → f32` conversions (all integer
//!   inputs are below 2²⁴), exact negation/doubling, and Horner
//!   polynomials with a frozen evaluation order;
//! * **no FMA**: scalar Rust never contracts `a * b + c`, and the SIMD
//!   kernels deliberately use separate multiply/add intrinsics, so
//!   lane-wise results equal the scalar ones bit for bit.
//!
//! Because of that, `scalar(out[i]) == simd(out[i])` for every index,
//! every seed and every chunk offset — property-tested in
//! `crates/tensor/tests/math_kernel.rs`. The kernel (not libm) is
//! therefore *the* reference the determinism suite pins
//! (re-baseline v2; see README "Synthesis kernel").
//!
//! # Value stream
//!
//! [`box_muller_fill`] expands a SplitMix64 counter stream: value `i`
//! of a fill seeded with `s` consumes the raw words
//! `mix(s + (2i+1)·γ)` and `mix(s + (2i+2)·γ)` — exactly the words the
//! sequential generator would produce, so filling N values and then
//! drawing one-by-one continues the same stream.

#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

use crate::half::f16;
use crate::matrix::Element;

/// SplitMix64's additive constant (γ).
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 output mix of one raw counter state (the xor-shift
/// multiply chain of `SplitMix64::next_u64`, applied to the
/// post-increment state).
#[inline]
pub fn splitmix_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether the dispatched kernels take a SIMD path: AVX2 detected at
/// runtime, checked once and cached. Callers that want the scalar path
/// regardless of the CPU pass the scalar backend
/// ([`crate::backend::scalar_ref`]) instead.
#[cfg(target_arch = "x86_64")]
pub fn simd_active() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
}

/// Whether the dispatched kernels take a SIMD path: never, off x86-64.
#[cfg(not(target_arch = "x86_64"))]
pub fn simd_active() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn f16c_available() -> bool {
    static F16C: OnceLock<bool> = OnceLock::new();
    *F16C.get_or_init(|| std::is_x86_feature_detected!("f16c"))
}

/// Whether the kernels that convert FP16 on the fly (the FP16 encode
/// and the segment kernels, which load FP16 rows through `vcvtph2ps`)
/// take their SIMD path: AVX2 and F16C both detected.
#[cfg(target_arch = "x86_64")]
fn f16c_active() -> bool {
    simd_active() && f16c_available()
}

// ---------------------------------------------------------------------
// Shared constants: one definition serves the scalar reference and
// every SIMD lane, so the paths cannot drift.
// ---------------------------------------------------------------------

/// `2·ln 2` rounded to f32.
const TWO_LN2: f32 = 2.0 * core::f32::consts::LN_2;
/// `ln 2` rounded to f32.
const LN2: f32 = core::f32::consts::LN_2;
/// Mantissa-field threshold for the `m ≥ 4/3` range narrowing
/// (the 23 mantissa bits of `4/3_f32`).
const NARROW_MANT: u32 = 0x002A_AAAB;
/// Octant phase scale: `(π/4) / 2²¹`.
const PHI_SCALE: f32 = core::f32::consts::FRAC_PI_4 / (1u32 << 21) as f32;

// atanh-series coefficients for ln(1+z) = 2s·(1 + w/3 + w²/5 + w³/7),
// s = z/(2+z), w = s² (|z| ≤ 1/3 ⇒ |s| ≤ 1/7, truncation ≪ f32 ulp).
const LOG_C1: f32 = 1.0 / 3.0;
const LOG_C2: f32 = 1.0 / 5.0;
const LOG_C3: f32 = 1.0 / 7.0;

// Taylor coefficients on the reduced octant [0, π/4]; the truncation
// error is below one f32 ulp of the result at the interval edge.
const COS_C2: f32 = -1.0 / 2.0;
const COS_C4: f32 = 1.0 / 24.0;
const COS_C6: f32 = -1.0 / 720.0;
const COS_C8: f32 = 1.0 / 40320.0;
const SIN_C3: f32 = -1.0 / 6.0;
const SIN_C5: f32 = 1.0 / 120.0;
const SIN_C7: f32 = -1.0 / 5040.0;
const SIN_C9: f32 = 1.0 / 362880.0;

// ---------------------------------------------------------------------
// Scalar reference pipeline
// ---------------------------------------------------------------------

/// `ln(1+z)` for `|z| ≤ 1/3` — the shared polynomial core, frozen
/// operation order (one division, one Horner chain, one exact
/// doubling).
#[inline]
fn ln1p_core(z: f32) -> f32 {
    let s = z / (2.0 + z);
    let w = s * s;
    let mut t = LOG_C3;
    t = t * w + LOG_C2;
    t = t * w + LOG_C1;
    t = t * w + 1.0;
    (s + s) * t
}

/// `cos φ` on the reduced octant `φ ∈ [0, π/4]`, from `w = φ²`.
#[inline]
fn cos_poly(w: f32) -> f32 {
    let mut c = COS_C8;
    c = c * w + COS_C6;
    c = c * w + COS_C4;
    c = c * w + COS_C2;
    c * w + 1.0
}

/// `sin φ / φ` on the reduced octant, from `w = φ²`.
#[inline]
fn sin_poly(w: f32) -> f32 {
    let mut s = SIN_C9;
    s = s * w + SIN_C7;
    s = s * w + SIN_C5;
    s = s * w + SIN_C3;
    s * w + 1.0
}

/// Fixed-polynomial natural log of a positive normal `f32`.
///
/// Exponent extraction and the `m ≥ 4/3` range narrowing happen in
/// integer space; the mantissa path is the shared `ln1p_core`. The
/// absolute error stays within a few f32 ulps over the normal range.
/// Non-positive, subnormal or non-finite inputs produce unspecified
/// (but still deterministic, path-identical) values.
#[inline]
pub fn fixed_ln(x: f32) -> f32 {
    let bits = x.to_bits();
    let mant = bits & 0x007F_FFFF;
    let mut e = ((bits >> 23) & 0xFF) as i32 - 127;
    let narrow = mant >= NARROW_MANT;
    // Exponent field 126 halves the mantissa value exactly: after the
    // narrowing, m ∈ [2/3, 4/3) and z = m − 1 is exact (Sterbenz).
    let m = f32::from_bits(mant | if narrow { 0x3F00_0000 } else { 0x3F80_0000 });
    e += narrow as i32;
    let z = m - 1.0;
    let ef = e as f32;
    LN2 * ef + ln1p_core(z)
}

/// The Box–Muller radius `sqrt(−2·ln(k/2²⁴))` from raw word `r1`,
/// with `k = (r1 >> 40) + 1 ∈ [1, 2²⁴]` (so `u1 ∈ (0, 1]`; the radius
/// is bounded by `sqrt(48·ln 2) ≈ 5.77`).
#[inline]
fn radius_from_raw(r1: u64) -> f32 {
    let k = ((r1 >> 40) as u32) + 1;
    let x = k as f32; // exact: k ≤ 2²⁴
    let bits = x.to_bits();
    let mant = bits & 0x007F_FFFF;
    let mut e = ((bits >> 23) & 0xFF) as i32 - 127;
    let narrow = mant >= NARROW_MANT;
    let m = f32::from_bits(mant | if narrow { 0x3F00_0000 } else { 0x3F80_0000 });
    e += narrow as i32;
    let z = m - 1.0;
    // −2·ln(k/2²⁴) = 2·(24 − e)·ln2 − 2·ln(1+z), in frozen order.
    let ln1p = ln1p_core(z);
    let nf = (24 - e) as f32; // integer in [0, 24], exact
    let a = TWO_LN2 * nf;
    let b = ln1p + ln1p;
    (a - b).sqrt()
}

/// `cos(2π · p/2²⁴)` for a 24-bit phase `p`, by octant reduction.
///
/// Bits `[23:21]` select the octant `o`, the remaining 21 bits the
/// in-octant fraction; odd octants are reflected to `φ = π/4 − θ`, so
/// the reduced angle `φ ∈ [0, π/4]` feeds one of two fixed Taylor
/// polynomials. Per octant the value is
/// `+cos, +sin, −sin, −cos, −cos, −sin, +sin, +cos` of `φ` — the
/// sin/cos selection is `((o+1) >> 1) & 1` and the sign is
/// `(o+2) & 4`, all in integer space. Bits above 23 are ignored.
#[inline]
pub fn fixed_cos_phase24(p: u32) -> f32 {
    let p = p & 0x00FF_FFFF;
    let o = p >> 21;
    let h = o & 1;
    let f21 = p & 0x001F_FFFF;
    // Half-quadrant reflection: q·90° + 45° + θ = (q+1)·90° − (45° − θ).
    let fi = if h == 0 { f21 } else { (1 << 21) - f21 };
    let phi = fi as f32 * PHI_SCALE; // fi ≤ 2²¹: conversion exact
    let w = phi * phi;
    // Both polynomials are evaluated and one selected, mirroring the
    // SIMD blend, so scalar and lane-wise op sequences agree exactly.
    let c = cos_poly(w);
    let s = phi * sin_poly(w);
    let v = if ((o + 1) >> 1) & 1 == 0 { c } else { s };
    if (o + 2) & 4 != 0 {
        -v
    } else {
        v
    }
}

/// One standard-normal sample from two raw 64-bit words — the scalar
/// Box–Muller reference every batched path is bit-identical to.
#[inline]
pub fn normal_from_raw(r1: u64, r2: u64) -> f32 {
    radius_from_raw(r1) * fixed_cos_phase24((r2 >> 40) as u32)
}

// ---------------------------------------------------------------------
// Batched fills
// ---------------------------------------------------------------------

/// Fills `out` with standard-normal samples from the SplitMix64
/// counter stream seeded at `seed`: value `i` consumes raw words
/// `2i+1` and `2i+2` of the stream (see the module docs), so the fill
/// is **position-addressable** — splitting a fill at any offset `n`
/// and continuing with seed `seed + 2n·γ` reproduces the same values.
///
/// Runtime-dispatched: AVX2 eight lanes at a time where detected,
/// chunked scalar otherwise — bit-identical either way.
pub fn box_muller_fill(seed: u64, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { box_muller_fill_avx2_raw(seed, out) };
        return;
    }
    box_muller_fill_scalar(seed, out);
}

/// The portable chunked-scalar path of [`box_muller_fill`].
pub fn box_muller_fill_scalar(seed: u64, out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate() {
        let n = (2 * i + 1) as u64;
        let r1 = splitmix_mix(seed.wrapping_add(GAMMA.wrapping_mul(n)));
        let r2 = splitmix_mix(seed.wrapping_add(GAMMA.wrapping_mul(n + 1)));
        *o = normal_from_raw(r1, r2);
    }
}

/// The explicit AVX2 path of [`box_muller_fill`], for the bit-identity
/// property tests. Returns `false` (leaving `out` untouched) when the
/// host lacks AVX2.
#[cfg(target_arch = "x86_64")]
pub fn box_muller_fill_avx2(seed: u64, out: &mut [f32]) -> bool {
    if !simd_active() {
        return false;
    }
    // SAFETY: AVX2 detected above.
    unsafe { box_muller_fill_avx2_raw(seed, out) };
    true
}

/// Fills `out[i] = fixed_ln(xs[i])`, runtime-dispatched like
/// [`box_muller_fill`]. Lengths must match.
pub fn ln_fill(xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len(), "ln_fill length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2 detected.
        unsafe { ln_fill_avx2_raw(xs, out) };
        return;
    }
    ln_fill_scalar(xs, out);
}

/// Scalar path of [`ln_fill`].
pub fn ln_fill_scalar(xs: &[f32], out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = fixed_ln(x);
    }
}

/// Explicit AVX2 path of [`ln_fill`]; `false` when unavailable.
#[cfg(target_arch = "x86_64")]
pub fn ln_fill_avx2(xs: &[f32], out: &mut [f32]) -> bool {
    assert_eq!(xs.len(), out.len(), "ln_fill length mismatch");
    if !simd_active() {
        return false;
    }
    // SAFETY: AVX2 detected.
    unsafe { ln_fill_avx2_raw(xs, out) };
    true
}

/// Fills `out[i] = fixed_cos_phase24(ps[i])`, runtime-dispatched.
pub fn cos_phase24_fill(ps: &[u32], out: &mut [f32]) {
    assert_eq!(ps.len(), out.len(), "cos_phase24_fill length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2 detected.
        unsafe { cos_fill_avx2_raw(ps, out) };
        return;
    }
    cos_phase24_fill_scalar(ps, out);
}

/// Scalar path of [`cos_phase24_fill`].
pub fn cos_phase24_fill_scalar(ps: &[u32], out: &mut [f32]) {
    for (o, &p) in out.iter_mut().zip(ps) {
        *o = fixed_cos_phase24(p);
    }
}

/// Explicit AVX2 path of [`cos_phase24_fill`]; `false` when
/// unavailable.
#[cfg(target_arch = "x86_64")]
pub fn cos_phase24_fill_avx2(ps: &[u32], out: &mut [f32]) -> bool {
    assert_eq!(ps.len(), out.len(), "cos_phase24_fill length mismatch");
    if !simd_active() {
        return false;
    }
    // SAFETY: AVX2 detected.
    unsafe { cos_fill_avx2_raw(ps, out) };
    true
}

/// Rounds every element of `values` through IEEE binary16 and back in
/// place — the batched form of [`crate::half::round_to_f16`],
/// runtime-dispatched like [`box_muller_fill`].
///
/// The SIMD path uses the hardware F16C converters (`vcvtps2ph` with
/// an explicit round-to-nearest-even immediate, `vcvtph2ps`), which
/// implement exactly the IEEE conversion the software reference in
/// [`crate::half`] implements: same rounding at every finite input,
/// same overflow-to-infinity, same subnormal grid (the converters
/// ignore MXCSR's FTZ/DAZ). The one place hardware and software
/// disagree — NaN payload propagation — is papered over by
/// canonicalising NaN lanes to the software path's quiet-NaN pattern,
/// so the two paths are bit-identical on *every* input, not just the
/// finite ones.
pub fn f16_round_fill(values: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if f16c_active() {
        // SAFETY: AVX2 and F16C detected at runtime.
        unsafe { f16_round_fill_f16c_raw(values) };
        return;
    }
    f16_round_fill_scalar(values);
}

/// Portable scalar path of [`f16_round_fill`].
pub fn f16_round_fill_scalar(values: &mut [f32]) {
    for v in values.iter_mut() {
        *v = crate::half::round_to_f16(*v);
    }
}

/// Explicit F16C path of [`f16_round_fill`]; `false` (leaving `values`
/// untouched) when the host lacks AVX2 or F16C.
#[cfg(target_arch = "x86_64")]
pub fn f16_round_fill_f16c(values: &mut [f32]) -> bool {
    if !f16c_active() {
        return false;
    }
    // SAFETY: AVX2 and F16C detected above.
    unsafe { f16_round_fill_f16c_raw(values) };
    true
}

/// Encodes `src` to IEEE binary16 bits, `dst[i] = f16::from_f32(src[i])`
/// — the FP16 store's write kernel. Widening the result gives exactly
/// the bits [`f16_round_fill`] leaves in place, so a stage that stores
/// FP16 reads the values an f32 buffer rounded in place would hold.
///
/// Runtime-dispatched: `vcvtps2ph` with an explicit round-to-nearest-even
/// immediate where AVX2 and F16C are detected, the software conversion
/// otherwise. NaN lanes are canonicalised to `sign | 0x7FC0_0000`
/// before the hardware conversion, which then yields the software
/// path's `sign | 0x7E00` for every NaN payload, so the two paths are
/// bit-identical on every input.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn f16_encode_fill(src: &[f32], dst: &mut [f16]) {
    assert_eq!(src.len(), dst.len(), "encode of mismatched lengths");
    #[cfg(target_arch = "x86_64")]
    if f16c_active() {
        // SAFETY: AVX2 and F16C detected at runtime; lengths match.
        unsafe { f16_encode_f16c_raw(src, dst) };
        return;
    }
    f16_encode_fill_scalar(src, dst);
}

/// Portable scalar path of [`f16_encode_fill`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn f16_encode_fill_scalar(src: &[f32], dst: &mut [f16]) {
    assert_eq!(src.len(), dst.len(), "encode of mismatched lengths");
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = f16::from_f32(v);
    }
}

// ---------------------------------------------------------------------
// Lane-chunked dot-product scoring kernel
//
// The similarity matcher's hot loop is row-norm + candidate-cosine
// scoring — all dot products. A sequential `iter().sum()` dot cannot
// vectorise without changing the accumulation order, so the chunked
// kernel *defines* a new frozen order: eight independent lane
// accumulators (lane `j` sums the products at indices `≡ j (mod 8)`),
// a shared scalar tail, and one fixed pairwise reduction tree. The
// AVX2 path and the chunked-scalar fallback execute that order
// operation for operation, so they are bit-identical on every input —
// the same contract as the synthesis fills above (this re-ordering vs.
// the old sequential dot is what re-baseline v3 pins).
// ---------------------------------------------------------------------

/// Full-chunk lane accumulation of the chunked-scalar path: lane `j`
/// gathers products `a[8k+j]·b[8k+j]` of the widened elements, exactly
/// like one AVX2 register.
#[inline]
fn dot_lanes_scalar<E: Element>(a: &[E], b: &[E], lanes: &mut [f32; 8]) {
    for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        for j in 0..8 {
            lanes[j] += ca[j].widen() * cb[j].widen();
        }
    }
}

/// The frozen reduction tree of the eight lane accumulators, shared by
/// both paths (the SIMD path stores its register back and reduces in
/// scalar, so there is exactly one definition of the order).
#[inline]
fn reduce_lanes(l: [f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Below this width the explicitly-dispatched AVX2 single-dot path
/// loses to the auto-vectorised chunked-scalar loop: the per-call
/// dispatch and ymm spill/`vzeroupper` overhead dominates a handful of
/// 8-wide passes (measured crossover ≈ 256 lanes on an AVX2 host).
/// Both paths are bit-identical, so the cutoff is pure scheduling;
/// batched kernels ([`segment_dots`], [`dot_pairs_chunked`],
/// [`l2_norms_chunked`]) amortise that overhead over eight rows or
/// segments and win at every width.
const DOT_SIMD_MIN_LEN: usize = 256;

/// Lane-chunked dot product, runtime-dispatched like
/// [`box_muller_fill`]: AVX2 where detected and the row is wide
/// enough to pay for the dispatch (`DOT_SIMD_MIN_LEN`), chunked scalar
/// otherwise, bit-identical either way.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot_chunked(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    let full = a.len() / 8 * 8;
    let mut lanes = [0.0f32; 8];
    #[cfg(target_arch = "x86_64")]
    let vectorised = a.len() >= DOT_SIMD_MIN_LEN && simd_active() && {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { dot_lanes_avx2_raw(&a[..full], &b[..full], &mut lanes) };
        true
    };
    #[cfg(not(target_arch = "x86_64"))]
    let vectorised = false;
    if !vectorised {
        dot_lanes_scalar(&a[..full], &b[..full], &mut lanes);
    }
    // Shared scalar tail: element `full + j` lands in lane `j`.
    for (j, i) in (full..a.len()).enumerate() {
        lanes[j] += a[i] * b[i];
    }
    reduce_lanes(lanes)
}

/// The portable chunked-scalar path of [`dot_chunked`], for the
/// bit-identity property tests. Over [`f16`](struct@f16) rows it widens each
/// element on load, so it equals the f32 dot of the widened rows.
pub fn dot_chunked_scalar<E: Element>(a: &[E], b: &[E]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    let full = a.len() / 8 * 8;
    let mut lanes = [0.0f32; 8];
    dot_lanes_scalar(&a[..full], &b[..full], &mut lanes);
    for (j, i) in (full..a.len()).enumerate() {
        lanes[j] += a[i].widen() * b[i].widen();
    }
    reduce_lanes(lanes)
}

/// The explicit AVX2 path of [`dot_chunked`]; `None` when the host
/// lacks AVX2.
#[cfg(target_arch = "x86_64")]
pub fn dot_chunked_avx2(a: &[f32], b: &[f32]) -> Option<f32> {
    assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    if !simd_active() {
        return None;
    }
    let full = a.len() / 8 * 8;
    let mut lanes = [0.0f32; 8];
    // SAFETY: AVX2 detected above.
    unsafe { dot_lanes_avx2_raw(&a[..full], &b[..full], &mut lanes) };
    for (j, i) in (full..a.len()).enumerate() {
        lanes[j] += a[i] * b[i];
    }
    Some(reduce_lanes(lanes))
}

/// Lane-chunked L2 norm: `sqrt(dot_chunked(a, a))`.
pub fn l2_norm_chunked(a: &[f32]) -> f32 {
    dot_chunked(a, a).sqrt()
}

/// The cosine of two vectors from their dot product and caller-supplied
/// norms, with the degenerate-input conventions of
/// [`crate::ops::cosine_similarity`]: two zero norms
/// are perfectly similar, one zero norm is orthogonal, and the result
/// is clamped into `[-1, 1]` (a NaN quotient stays NaN). Every scoring
/// kernel finishes through this one function.
#[inline]
pub fn cosine_from_dot(dot: f32, na: f32, nb: f32) -> f32 {
    if na == 0.0 && nb == 0.0 {
        1.0
    } else if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// Lane-chunked cosine similarity with caller-supplied norms:
/// [`cosine_from_dot`] of [`dot_chunked`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn cosine_with_norms_chunked(a: &[f32], na: f32, b: &[f32], nb: f32) -> f32 {
    cosine_from_dot(dot_chunked(a, b), na, nb)
}

/// The explicitly chunked-scalar path of [`cosine_with_norms_chunked`]
/// (same conventions, [`dot_chunked_scalar`] underneath) — the scalar
/// backend's candidate-scoring reference.
pub fn cosine_with_norms_chunked_scalar(a: &[f32], na: f32, b: &[f32], nb: f32) -> f32 {
    cosine_from_dot(dot_chunked_scalar(a, b), na, nb)
}

/// A last group of fewer full-width segments than this takes
/// single chunked-scalar dots instead of a padded eight-segment pass:
/// one pass of 32-wide segments costs about as much as four to five
/// single dots (measured on an AVX2 Xeon at 2.1 GHz). Both paths are
/// bit-identical, so the cutoff is pure scheduling.
const SEGMENT_GROUP_MIN: usize = 4;

/// The segment kernels' shared body: checks the shape contract, then
/// writes `out[s] = finish(s, dot of segment s)` for every listed `s`,
/// on the dispatched path when `dispatch` and the chunked-scalar one
/// otherwise. Finishing at the write keeps a repeated index idempotent.
fn segment_map<E: Element>(
    a: &[E],
    b: &[E],
    seg: usize,
    segs: &[usize],
    out: &mut [f32],
    dispatch: bool,
    finish: impl Fn(usize, f32) -> f32,
) {
    assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    assert!(seg > 0, "segment width must be positive");
    let n = a.len();
    let count = n.div_ceil(seg);
    assert_eq!(out.len(), count, "one output slot per segment");
    let checked = |s: usize| {
        assert!(s < count, "segment {s} out of range ({count} segments)");
        s
    };
    let range = |s: usize| s * seg..((s + 1) * seg).min(n);
    let single = |s: usize| dot_chunked_scalar(&a[range(s)], &b[range(s)]);
    #[cfg(target_arch = "x86_64")]
    if dispatch && seg.is_multiple_of(8) && f16c_active() {
        let pass = |group: &[usize; 8], out: &mut [f32]| {
            // SAFETY: `f16c_active` implies AVX2 and F16C; `seg` is a
            // multiple of 8 and every grouped segment is in range and
            // full width (checked above and below).
            let dots = unsafe { segment_dots8_avx2_raw(a, b, seg, group) };
            for (&s, &d) in group.iter().zip(&dots) {
                out[s] = finish(s, d);
            }
        };
        let mut group = [0usize; 8];
        let mut k = 0;
        for s in segs.iter().map(|&s| checked(s)) {
            if (s + 1) * seg > n {
                out[s] = finish(s, single(s));
                continue;
            }
            group[k] = s;
            k += 1;
            if k == 8 {
                pass(&group, out);
                k = 0;
            }
        }
        if k >= SEGMENT_GROUP_MIN {
            // Pad the short last group by repeating its last index.
            let last = group[k - 1];
            group[k..].fill(last);
            pass(&group, out);
        } else {
            for &s in &group[..k] {
                out[s] = finish(s, single(s));
            }
        }
        return;
    }
    let _ = dispatch; // read by the x86-64 path only
    for s in segs.iter().map(|&s| checked(s)) {
        out[s] = finish(s, single(s));
    }
}

/// Segment-addressed dot kernel. `a` and `b` are cut into `seg`-wide
/// segments (the last one ragged when `seg` does not divide the width)
/// and, for every listed segment index `s`,
/// `out[s] = dot_chunked(&a[r], &b[r])` with
/// `r = s·seg .. min((s+1)·seg, len)`. Slots of unlisted segments are
/// left untouched, and an index may be listed more than once.
///
/// The rows may be `f32` or [`f16`](struct@f16) bits. FP16 elements are widened
/// exactly on load (`vcvtph2ps`, or the software widening), so a dot
/// over FP16 rows equals the dot over their widened f32 copies bit for
/// bit.
///
/// With AVX2 and F16C and `seg` a multiple of 8, the full-width
/// segments run eight to a pass: eight independent accumulator
/// registers over their chunks, then one reduction of all eight with
/// two `hadd` levels and one 128-bit lane add. That adds the same
/// operand pairs in the same tree as `reduce_lanes`, so every result
/// equals its own [`dot_chunked_scalar`] bit for bit (addition is
/// commutative; NaNs produced from non-NaN inputs are the one default
/// NaN on either path). A ragged segment, a last group of fewer than
/// four, and every segment of a width that is not a multiple of 8 take
/// the chunked-scalar dot.
///
/// # Panics
///
/// Panics if `a` and `b` differ in length, `seg` is 0, `out` does not
/// hold exactly one slot per segment, or an index is out of range.
pub fn segment_dots<E: Element>(a: &[E], b: &[E], seg: usize, segs: &[usize], out: &mut [f32]) {
    segment_map(a, b, seg, segs, out, true, |_, dot| dot);
}

/// Segment-addressed L2 norms: `out[s]` is the square root of segment
/// `s`'s self-dot, for every listed `s` ([`segment_dots`] with `row` as
/// both operands).
pub fn segment_norms<E: Element>(row: &[E], seg: usize, segs: &[usize], out: &mut [f32]) {
    segment_map(row, row, seg, segs, out, true, |_, dot| dot.sqrt());
}

/// The chunked-scalar path of [`segment_norms`], for the scalar backend.
pub fn segment_norms_scalar<E: Element>(row: &[E], seg: usize, segs: &[usize], out: &mut [f32]) {
    segment_map(row, row, seg, segs, out, false, |_, dot| dot.sqrt());
}

/// Segment-addressed cosines: `out[s] = cosine_from_dot(dot of segment
/// s, a_norms[s], b_norms[s])` for every listed `s`, through
/// [`segment_dots`].
///
/// # Panics
///
/// As [`segment_dots`], and if a norm slice does not hold exactly one
/// norm per segment.
pub fn segment_cosines<E: Element>(
    a: &[E],
    b: &[E],
    seg: usize,
    segs: &[usize],
    a_norms: &[f32],
    b_norms: &[f32],
    out: &mut [f32],
) {
    let finish = cosine_finish(a_norms, b_norms, out.len());
    segment_map(a, b, seg, segs, out, true, finish);
}

/// The chunked-scalar path of [`segment_cosines`], for the scalar
/// backend.
pub fn segment_cosines_scalar<E: Element>(
    a: &[E],
    b: &[E],
    seg: usize,
    segs: &[usize],
    a_norms: &[f32],
    b_norms: &[f32],
    out: &mut [f32],
) {
    let finish = cosine_finish(a_norms, b_norms, out.len());
    segment_map(a, b, seg, segs, out, false, finish);
}

fn cosine_finish<'a>(
    a_norms: &'a [f32],
    b_norms: &'a [f32],
    count: usize,
) -> impl Fn(usize, f32) -> f32 + 'a {
    assert_eq!(a_norms.len(), count, "one left norm per segment");
    assert_eq!(b_norms.len(), count, "one right norm per segment");
    move |s, dot| cosine_from_dot(dot, a_norms[s], b_norms[s])
}

fn assert_pair_widths(pa: &[&[f32]], pb: &[&[f32]], out: &[f32]) -> usize {
    assert_eq!(pa.len(), pb.len(), "one left slice per right slice");
    assert_eq!(pa.len(), out.len(), "one output slot per pair");
    let n = pa.first().map_or(0, |s| s.len());
    for (a, b) in pa.iter().zip(pb) {
        assert_eq!(a.len(), n, "pair width mismatch");
        assert_eq!(b.len(), n, "pair width mismatch");
    }
    n
}

/// Independent-pair dot kernel: `out[i] = dot_chunked(pa[i], pb[i])`
/// for equally-wide pairs, eight pairs per SIMD pass. The
/// batching amortises the per-call dispatch overhead that makes the
/// single-dot path a loss below `DOT_SIMD_MIN_LEN`, and keeps eight
/// independent accumulator chains in flight. Every pair executes the
/// frozen [`dot_chunked`] order (lane `j` sums indices `≡ j (mod 8)`,
/// shared scalar tail, fixed reduction tree), so the batching is
/// bit-invisible per pair.
///
/// # Panics
///
/// Panics if `pa`, `pb` and `out` differ in length or any slice
/// differs in width from the first.
pub fn dot_pairs_chunked(pa: &[&[f32]], pb: &[&[f32]], out: &mut [f32]) {
    let n = assert_pair_widths(pa, pb, out);
    let full = n / 8 * 8;
    let mut idx = 0;
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        while idx + 8 <= pa.len() {
            let ga: &[&[f32]; 8] = pa[idx..idx + 8].try_into().unwrap();
            let gb: &[&[f32]; 8] = pb[idx..idx + 8].try_into().unwrap();
            let mut lanes = [[0.0f32; 8]; 8];
            // SAFETY: `simd_active` implies AVX2 was detected at
            // runtime; widths were asserted above.
            unsafe { dot8_pairs_avx2_raw(ga, gb, full, &mut lanes) };
            for (p, l) in lanes.iter_mut().enumerate() {
                let (a, b) = (ga[p], gb[p]);
                for (j, i) in (full..n).enumerate() {
                    l[j] += a[i] * b[i];
                }
                out[idx + p] = reduce_lanes(*l);
            }
            idx += 8;
        }
    }
    for p in idx..pa.len() {
        out[p] = dot_chunked(pa[p], pb[p]);
    }
}

/// The chunked-scalar path of [`dot_pairs_chunked`], for the
/// bit-identity property tests and the scalar backend. Same shape
/// contract as the dispatched kernel.
pub fn dot_pairs_chunked_scalar(pa: &[&[f32]], pb: &[&[f32]], out: &mut [f32]) {
    assert_pair_widths(pa, pb, out);
    for ((a, b), o) in pa.iter().zip(pb).zip(out) {
        *o = dot_chunked_scalar(a, b);
    }
}

/// Batched L2 norms of equally-wide rows: `out[i]` is the square root
/// of `rows[i]`'s self-dot, through [`dot_pairs_chunked`] (eight rows
/// per SIMD pass), so bit for bit `l2_norm_chunked(rows[i])`.
///
/// # Panics
///
/// Panics if `rows` and `out` differ in length or any row differs in
/// width from the first.
pub fn l2_norms_chunked(rows: &[&[f32]], out: &mut [f32]) {
    dot_pairs_chunked(rows, rows, out);
    out.iter_mut().for_each(|o| *o = o.sqrt());
}

/// The chunked-scalar path of [`l2_norms_chunked`], for the
/// bit-identity property tests and the scalar backend.
pub fn l2_norms_chunked_scalar(rows: &[&[f32]], out: &mut [f32]) {
    dot_pairs_chunked_scalar(rows, rows, out);
    out.iter_mut().for_each(|o| *o = o.sqrt());
}

// ---------------------------------------------------------------------
// Batched INT8 fake-quantise kernel
//
// The per-row round trip `dequantize(quantize(v))` is two pure
// per-element maps plus one absmax reduction — nothing accumulates
// across elements except the max, and max over absolute values is
// order-independent (ties are identical bits, NaN inputs are ignored by
// both `f32::max` and the `maxps` orientation used below). The SIMD
// path therefore needs no re-baseline: it reproduces the sequential
// reference bit for bit, including Rust's round-half-away-from-zero
// (`f32::round`) semantics, which `roundps` lacks — ties are detected
// exactly (|x − rne(x)| = 0.5 ⇔ x is a half-integer, and that
// subtraction is exact by Sterbenz) and pulled away from zero.
// ---------------------------------------------------------------------

/// Absmax reduction of the per-row INT8 scale, runtime-dispatched like
/// [`dot_chunked`]. Bit-identical to the sequential
/// `fold(0.0, |m, v| m.max(v.abs()))` reference on every input.
pub fn quant_absmax(values: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        return unsafe { absmax_avx2_raw(values) };
    }
    quant_absmax_scalar(values)
}

/// The sequential-fold reference of [`quant_absmax`].
pub fn quant_absmax_scalar(values: &[f32]) -> f32 {
    values.iter().fold(0.0f32, |m, v| m.max(v.abs()))
}

/// In-place INT8 fake-quantise of one row at a known `scale`:
/// `v ← (round(v/scale).clamp(−127, 127) as i8) as f32 · scale`,
/// runtime-dispatched. The SIMD path runs the whole row batched and is
/// bit-identical to the scalar round trip on every input (the integer
/// conversion collapses `−0.0` and NaN exactly like the `as i8` cast).
pub fn int8_round_fill(values: &mut [f32], scale: f32) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { int8_round_fill_avx2_raw(values, scale) };
        return;
    }
    int8_round_fill_scalar(values, scale);
}

/// The per-element scalar reference of [`int8_round_fill`] — verbatim
/// `QuantParams::dequantize(QuantParams::quantize(v))` arithmetic.
pub fn int8_round_fill_scalar(values: &mut [f32], scale: f32) {
    for v in values.iter_mut() {
        let q = (*v / scale).round().clamp(-127.0, 127.0) as i8;
        *v = q as f32 * scale;
    }
}

// ---------------------------------------------------------------------
// AVX2 kernels
//
// Eight f32 lanes per iteration, mirroring the scalar pipeline op for
// op: the raw-word generation and bit extraction are integer (exact by
// nature), and the float stages use only mul/add/sub/div/sqrt/blend —
// never `fmadd` (the crate does not enable the `fma` target feature,
// and LLVM does not contract separate mul+add intrinsics), so each
// lane's result is bit-identical to the scalar reference.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Raw-word extraction for one 8-lane chunk: the 24-bit radius
    /// integers `k` and cosine phases `p` of values `base..base+8` of
    /// the stream seeded at `seed`. Pure u64 integer work — exact, and
    /// shared verbatim with the scalar path's per-value extraction.
    #[inline]
    fn chunk_words(seed: u64, base: usize) -> ([u32; 8], [u32; 8]) {
        let mut k = [0u32; 8];
        let mut p = [0u32; 8];
        for lane in 0..8 {
            let n = (2 * (base + lane) + 1) as u64;
            let r1 = splitmix_mix(seed.wrapping_add(GAMMA.wrapping_mul(n)));
            let r2 = splitmix_mix(seed.wrapping_add(GAMMA.wrapping_mul(n + 1)));
            k[lane] = ((r1 >> 40) as u32) + 1;
            p[lane] = (r2 >> 40) as u32;
        }
        (k, p)
    }

    /// The radius pipeline on 8 lanes of `k ∈ [1, 2²⁴]`.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn radius8(k: &[u32; 8]) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        // SAFETY: `k` is a `[u32; 8]` — exactly 32 readable bytes, and
        // `loadu` has no alignment requirement.
        let kv = unsafe { _mm256_loadu_si256(k.as_ptr() as *const __m256i) };
        let x = _mm256_cvtepi32_ps(kv); // exact: k ≤ 2²⁴ < 2³¹
        let bits = _mm256_castps_si256(x);
        let mant = _mm256_and_si256(bits, _mm256_set1_epi32(0x007F_FFFF));
        let e = _mm256_sub_epi32(_mm256_srli_epi32(bits, 23), _mm256_set1_epi32(127));
        // mant ≥ NARROW_MANT  ⇔  mant > NARROW_MANT − 1 (values < 2²³,
        // so the signed compare is exact).
        let narrow = _mm256_cmpgt_epi32(mant, _mm256_set1_epi32(NARROW_MANT as i32 - 1));
        let expf = _mm256_blendv_epi8(
            _mm256_set1_epi32(0x3F80_0000),
            _mm256_set1_epi32(0x3F00_0000),
            narrow,
        );
        let m = _mm256_castsi256_ps(_mm256_or_si256(mant, expf));
        let e = _mm256_sub_epi32(e, narrow); // narrow mask is −1 ⇒ e+1
        let z = _mm256_sub_ps(m, one);
        // ln1p_core, lane-wise in the scalar order.
        let s = _mm256_div_ps(z, _mm256_add_ps(_mm256_set1_ps(2.0), z));
        let w = _mm256_mul_ps(s, s);
        let mut t = _mm256_set1_ps(LOG_C3);
        t = _mm256_add_ps(_mm256_mul_ps(t, w), _mm256_set1_ps(LOG_C2));
        t = _mm256_add_ps(_mm256_mul_ps(t, w), _mm256_set1_ps(LOG_C1));
        t = _mm256_add_ps(_mm256_mul_ps(t, w), one);
        let ln1p = _mm256_mul_ps(_mm256_add_ps(s, s), t);
        let nf = _mm256_cvtepi32_ps(_mm256_sub_epi32(_mm256_set1_epi32(24), e));
        let a = _mm256_mul_ps(_mm256_set1_ps(TWO_LN2), nf);
        let b = _mm256_add_ps(ln1p, ln1p);
        _mm256_sqrt_ps(_mm256_sub_ps(a, b))
    }

    /// The cosine pipeline on 8 lanes of 24-bit phases.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn cos8(p: &[u32; 8]) -> __m256 {
        let zero = _mm256_setzero_si256();
        // SAFETY: `p` is a `[u32; 8]` — exactly 32 readable bytes, and
        // `loadu` has no alignment requirement.
        let raw = unsafe { _mm256_loadu_si256(p.as_ptr() as *const __m256i) };
        let pv = _mm256_and_si256(raw, _mm256_set1_epi32(0x00FF_FFFF));
        let o = _mm256_srli_epi32(pv, 21);
        let h = _mm256_and_si256(o, _mm256_set1_epi32(1));
        let f21 = _mm256_and_si256(pv, _mm256_set1_epi32(0x001F_FFFF));
        let hmask = _mm256_cmpgt_epi32(h, zero);
        let refl = _mm256_sub_epi32(_mm256_set1_epi32(1 << 21), f21);
        let fi = _mm256_blendv_epi8(f21, refl, hmask);
        let phi = _mm256_mul_ps(_mm256_cvtepi32_ps(fi), _mm256_set1_ps(PHI_SCALE));
        let w = _mm256_mul_ps(phi, phi);
        let mut c = _mm256_set1_ps(COS_C8);
        c = _mm256_add_ps(_mm256_mul_ps(c, w), _mm256_set1_ps(COS_C6));
        c = _mm256_add_ps(_mm256_mul_ps(c, w), _mm256_set1_ps(COS_C4));
        c = _mm256_add_ps(_mm256_mul_ps(c, w), _mm256_set1_ps(COS_C2));
        c = _mm256_add_ps(_mm256_mul_ps(c, w), _mm256_set1_ps(1.0));
        let mut s = _mm256_set1_ps(SIN_C9);
        s = _mm256_add_ps(_mm256_mul_ps(s, w), _mm256_set1_ps(SIN_C7));
        s = _mm256_add_ps(_mm256_mul_ps(s, w), _mm256_set1_ps(SIN_C5));
        s = _mm256_add_ps(_mm256_mul_ps(s, w), _mm256_set1_ps(SIN_C3));
        s = _mm256_add_ps(_mm256_mul_ps(s, w), _mm256_set1_ps(1.0));
        let sinv = _mm256_mul_ps(phi, s);
        // Per-octant fixup, matching the scalar rules exactly:
        // sin when ((o+1) >> 1) & 1, negate when (o+2) & 4.
        let use_sin = _mm256_cmpgt_epi32(
            _mm256_and_si256(
                _mm256_srli_epi32(_mm256_add_epi32(o, _mm256_set1_epi32(1)), 1),
                _mm256_set1_epi32(1),
            ),
            zero,
        );
        let v = _mm256_blendv_ps(c, sinv, _mm256_castsi256_ps(use_sin));
        let neg = _mm256_cmpgt_epi32(
            _mm256_and_si256(
                _mm256_add_epi32(o, _mm256_set1_epi32(2)),
                _mm256_set1_epi32(4),
            ),
            zero,
        );
        let sign = _mm256_and_ps(_mm256_castsi256_ps(neg), _mm256_set1_ps(-0.0));
        _mm256_xor_ps(v, sign)
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn box_muller_fill_avx2_raw(seed: u64, out: &mut [f32]) {
        let chunks = out.len() / 8;
        for ci in 0..chunks {
            let (k, p) = chunk_words(seed, ci * 8);
            // SAFETY: `radius8`/`cos8` require AVX2 — this fn's own
            // contract — and the store hits lanes `ci*8..ci*8+8` with
            // `ci < out.len() / 8`, so all 8 are in bounds.
            unsafe {
                let r = radius8(&k);
                let c = cos8(&p);
                _mm256_storeu_ps(out.as_mut_ptr().add(ci * 8), _mm256_mul_ps(r, c));
            }
        }
        // Scalar tail: bit-identical by construction, so chunk
        // boundaries are invisible in the output.
        for (i, o) in out.iter_mut().enumerate().skip(chunks * 8) {
            let n = (2 * i + 1) as u64;
            let r1 = splitmix_mix(seed.wrapping_add(GAMMA.wrapping_mul(n)));
            let r2 = splitmix_mix(seed.wrapping_add(GAMMA.wrapping_mul(n + 1)));
            *o = normal_from_raw(r1, r2);
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ln_fill_avx2_raw(xs: &[f32], out: &mut [f32]) {
        let one = _mm256_set1_ps(1.0);
        let chunks = xs.len() / 8;
        for ci in 0..chunks {
            // SAFETY: `ci < xs.len() / 8`, so lanes `ci*8..ci*8+8` are
            // in bounds of `xs`.
            let x = unsafe { _mm256_loadu_ps(xs.as_ptr().add(ci * 8)) };
            let bits = _mm256_castps_si256(x);
            let mant = _mm256_and_si256(bits, _mm256_set1_epi32(0x007F_FFFF));
            let e = _mm256_sub_epi32(_mm256_srli_epi32(bits, 23), _mm256_set1_epi32(127));
            let narrow = _mm256_cmpgt_epi32(mant, _mm256_set1_epi32(NARROW_MANT as i32 - 1));
            let expf = _mm256_blendv_epi8(
                _mm256_set1_epi32(0x3F80_0000),
                _mm256_set1_epi32(0x3F00_0000),
                narrow,
            );
            let m = _mm256_castsi256_ps(_mm256_or_si256(mant, expf));
            let e = _mm256_sub_epi32(e, narrow);
            let z = _mm256_sub_ps(m, one);
            let s = _mm256_div_ps(z, _mm256_add_ps(_mm256_set1_ps(2.0), z));
            let w = _mm256_mul_ps(s, s);
            let mut t = _mm256_set1_ps(LOG_C3);
            t = _mm256_add_ps(_mm256_mul_ps(t, w), _mm256_set1_ps(LOG_C2));
            t = _mm256_add_ps(_mm256_mul_ps(t, w), _mm256_set1_ps(LOG_C1));
            t = _mm256_add_ps(_mm256_mul_ps(t, w), one);
            let ln1p = _mm256_mul_ps(_mm256_add_ps(s, s), t);
            let ef = _mm256_cvtepi32_ps(e);
            let r = _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(LN2), ef), ln1p);
            // SAFETY: every dispatch caller passes `out` at least as
            // long as `xs` (the shared tail below indexes it safely to
            // `xs.len()`), so the 8 stored lanes are in bounds.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(ci * 8), r) };
        }
        for i in chunks * 8..xs.len() {
            out[i] = fixed_ln(xs[i]);
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cos_fill_avx2_raw(ps: &[u32], out: &mut [f32]) {
        let chunks = ps.len() / 8;
        for ci in 0..chunks {
            let mut p = [0u32; 8];
            p.copy_from_slice(&ps[ci * 8..ci * 8 + 8]);
            // SAFETY: `cos8` requires AVX2 — this fn's own contract —
            // and every dispatch caller passes `out` at least as long
            // as `ps`, so lanes `ci*8..ci*8+8` are in bounds.
            unsafe {
                let c = cos8(&p);
                _mm256_storeu_ps(out.as_mut_ptr().add(ci * 8), c);
            }
        }
        for i in chunks * 8..ps.len() {
            out[i] = fixed_cos_phase24(ps[i]);
        }
    }

    /// Lane accumulation of [`super::dot_chunked`] over whole 8-lane
    /// chunks: one vertical multiply/add per chunk (separate
    /// intrinsics, no FMA), the register stored back into `lanes` so
    /// the caller's shared tail + reduction tree finish the job.
    /// Slice lengths must be equal multiples of 8.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_lanes_avx2_raw(a: &[f32], b: &[f32], lanes: &mut [f32; 8]) {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len() % 8, 0);
        // SAFETY: `lanes` is a `[f32; 8]` — exactly one register of
        // readable/writable lanes.
        let mut acc = unsafe { _mm256_loadu_ps(lanes.as_ptr()) };
        for ci in 0..a.len() / 8 {
            // SAFETY: the caller passes equal-length slices whose
            // length is a multiple of 8 (asserted above in debug), so
            // lanes `ci*8..ci*8+8` are in bounds of both.
            let (va, vb) = unsafe {
                (
                    _mm256_loadu_ps(a.as_ptr().add(ci * 8)),
                    _mm256_loadu_ps(b.as_ptr().add(ci * 8)),
                )
            };
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        }
        // SAFETY: same `[f32; 8]` as the load above.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    }

    /// # Safety
    /// Requires AVX2 and F16C.
    #[target_feature(enable = "avx2", enable = "f16c")]
    pub(super) unsafe fn f16_round_fill_f16c_raw(values: &mut [f32]) {
        let sign_bit = _mm256_set1_epi32(0x8000_0000u32 as i32);
        // The software reference collapses every NaN to sign | 0x7E00,
        // which widens back to sign | 0x7FC0_0000.
        let canon_nan = _mm256_set1_epi32(0x7FC0_0000);
        let chunks = values.len() / 8;
        let ptr = values.as_mut_ptr();
        for ci in 0..chunks {
            // SAFETY: `ci < values.len() / 8`, so lanes `ci*8..ci*8+8`
            // are in bounds.
            let x = unsafe { _mm256_loadu_ps(ptr.add(ci * 8)) };
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x);
            let r = _mm256_cvtph_ps(h);
            let xi = _mm256_castps_si256(x);
            let canon =
                _mm256_castsi256_ps(_mm256_or_si256(_mm256_and_si256(xi, sign_bit), canon_nan));
            let is_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
            // SAFETY: stores exactly the 8 lanes loaded above.
            unsafe { _mm256_storeu_ps(ptr.add(ci * 8), _mm256_blendv_ps(r, canon, is_nan)) };
        }
        for v in &mut values[chunks * 8..] {
            *v = crate::half::round_to_f16(*v);
        }
    }

    /// # Safety
    /// Requires AVX2 and F16C, and `dst` at least as long as `src`.
    #[target_feature(enable = "avx2", enable = "f16c")]
    pub(super) unsafe fn f16_encode_f16c_raw(src: &[f32], dst: &mut [f16]) {
        debug_assert!(dst.len() >= src.len());
        let sign_bit = _mm256_set1_epi32(0x8000_0000u32 as i32);
        // A quiet NaN with an empty payload converts to sign | 0x7E00,
        // the one NaN the software conversion produces.
        let canon_nan = _mm256_set1_epi32(0x7FC0_0000);
        let chunks = src.len() / 8;
        for ci in 0..chunks {
            // SAFETY: `ci < src.len() / 8`, so lanes `ci*8..ci*8+8` are
            // in bounds of `src`.
            let x = unsafe { _mm256_loadu_ps(src.as_ptr().add(ci * 8)) };
            let xi = _mm256_castps_si256(x);
            let canon =
                _mm256_castsi256_ps(_mm256_or_si256(_mm256_and_si256(xi, sign_bit), canon_nan));
            let is_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
            let h =
                _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_blendv_ps(x, canon, is_nan));
            // SAFETY: `dst` is at least as long as `src` (the caller's
            // contract), so its eight `repr(transparent)` u16 elements
            // at `ci*8` are one in-bounds 128-bit store.
            unsafe { _mm_storeu_si128(dst.as_mut_ptr().add(ci * 8) as *mut __m128i, h) };
        }
        for (d, &v) in dst[chunks * 8..].iter_mut().zip(&src[chunks * 8..]) {
            *d = f16::from_f32(v);
        }
    }

    /// Eight-segment dot batch of `segment_map`: per grouped segment
    /// `s`, the frozen-lane-order dot of `a` and `b` over
    /// `s·seg .. (s+1)·seg`, in group order. The eight accumulator
    /// registers are reduced together: `hadd` pairs lanes (0,1), (2,3),
    /// (4,5), (6,7) of two registers, a second `hadd` adds those pairs
    /// into `(0..4)` and `(4..8)` sums per register, and one 128-bit add
    /// joins the two halves — exactly the operand pairs of
    /// `reduce_lanes`.
    ///
    /// FP16 rows load eight elements (one 128-bit load) and widen
    /// them exactly with `vcvtph2ps`; f32 rows load directly. The
    /// branch is on a constant, so each element type compiles to its
    /// own straight-line loop.
    ///
    /// # Safety
    /// Requires AVX2 and F16C, `seg` a multiple of 8, and `(s+1)·seg`
    /// at most the length of `a` and of `b` for every grouped `s`.
    #[target_feature(enable = "avx2", enable = "f16c")]
    pub(super) unsafe fn segment_dots8_avx2_raw<E: Element>(
        a: &[E],
        b: &[E],
        seg: usize,
        group: &[usize; 8],
    ) -> [f32; 8] {
        debug_assert_eq!(seg % 8, 0);
        for &s in group {
            debug_assert!((s + 1) * seg <= a.len().min(b.len()));
        }
        let mut acc = [_mm256_setzero_ps(); 8];
        for ci in 0..seg / 8 {
            for (v, &s) in acc.iter_mut().zip(group) {
                let at = s * seg + ci * 8;
                // SAFETY: `ci*8 + 8 <= seg` and `(s+1)·seg` is within
                // both slices (the caller's contract), so the eight
                // elements at `at` are in bounds of both; an `f16` is
                // a `repr(transparent)` `u16`, so eight of them are
                // exactly one unaligned 128-bit load.
                let (va, vb) = unsafe {
                    let (pa, pb) = (a.as_ptr().add(at), b.as_ptr().add(at));
                    if E::IS_F16 {
                        (
                            _mm256_cvtph_ps(_mm_loadu_si128(pa as *const __m128i)),
                            _mm256_cvtph_ps(_mm_loadu_si128(pb as *const __m128i)),
                        )
                    } else {
                        (
                            _mm256_loadu_ps(pa as *const f32),
                            _mm256_loadu_ps(pb as *const f32),
                        )
                    }
                };
                *v = _mm256_add_ps(*v, _mm256_mul_ps(va, vb));
            }
        }
        let q0 = _mm256_hadd_ps(
            _mm256_hadd_ps(acc[0], acc[1]),
            _mm256_hadd_ps(acc[2], acc[3]),
        );
        let q1 = _mm256_hadd_ps(
            _mm256_hadd_ps(acc[4], acc[5]),
            _mm256_hadd_ps(acc[6], acc[7]),
        );
        let mut dots = [0.0f32; 8];
        // SAFETY: `dots` is a `[f32; 8]`: two 4-lane stores at 0 and 4.
        unsafe {
            _mm_storeu_ps(
                dots.as_mut_ptr(),
                _mm_add_ps(_mm256_castps256_ps128(q0), _mm256_extractf128_ps::<1>(q0)),
            );
            _mm_storeu_ps(
                dots.as_mut_ptr().add(4),
                _mm_add_ps(_mm256_castps256_ps128(q1), _mm256_extractf128_ps::<1>(q1)),
            );
        }
        dots
    }

    /// Eight-pair dot batch: per pair `i`, the 8-lane partial sums of
    /// `pa[i] · pb[i]` accumulated in the frozen `dot_chunked` lane
    /// order. Nothing is shared between the pairs; the batching keeps eight independent accumulator
    /// registers in flight and amortises the call overhead. The caller
    /// finishes each pair with the shared scalar tail + reduction
    /// tree. `len8` must be a multiple of 8 and no slice shorter.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot8_pairs_avx2_raw(
        pa: &[&[f32]; 8],
        pb: &[&[f32]; 8],
        len8: usize,
        lanes: &mut [[f32; 8]; 8],
    ) {
        debug_assert_eq!(len8 % 8, 0);
        for (a, b) in pa.iter().zip(pb) {
            debug_assert!(a.len() >= len8 && b.len() >= len8);
        }
        let mut acc = [_mm256_setzero_ps(); 8];
        for (v, l) in acc.iter_mut().zip(lanes.iter()) {
            // SAFETY: each `l` is a `[f32; 8]` — one full register.
            *v = unsafe { _mm256_loadu_ps(l.as_ptr()) };
        }
        for ci in 0..len8 / 8 {
            for ((v, a), b) in acc.iter_mut().zip(pa.iter()).zip(pb.iter()) {
                // SAFETY: `len8` is a multiple of 8 and no slice is
                // shorter (debug-asserted), so lanes `ci*8..ci*8+8`
                // are in bounds of both.
                let (va, vb) = unsafe {
                    (
                        _mm256_loadu_ps(a.as_ptr().add(ci * 8)),
                        _mm256_loadu_ps(b.as_ptr().add(ci * 8)),
                    )
                };
                *v = _mm256_add_ps(*v, _mm256_mul_ps(va, vb));
            }
        }
        for (v, l) in acc.iter().zip(lanes.iter_mut()) {
            // SAFETY: each `l` is a `[f32; 8]` — one full register.
            unsafe { _mm256_storeu_ps(l.as_mut_ptr(), *v) };
        }
    }

    /// Absmax reduction matching `fold(0.0, |m, v| m.max(v.abs()))` bit
    /// for bit: max over absolute values is order-independent for
    /// non-NaN inputs (ties carry identical bits, `abs` erases `−0.0`),
    /// and the `maxps` operand orientation below returns the
    /// accumulator when the fresh lane is NaN — the same
    /// NaN-is-ignored behaviour as `f32::max`.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn absmax_avx2_raw(values: &[f32]) -> f32 {
        let sign_mask = _mm256_set1_ps(-0.0);
        let mut acc = _mm256_setzero_ps();
        let chunks = values.len() / 8;
        for ci in 0..chunks {
            // SAFETY: `ci < values.len() / 8`, so lanes `ci*8..ci*8+8`
            // are in bounds.
            let v = unsafe { _mm256_loadu_ps(values.as_ptr().add(ci * 8)) };
            // maxps returns the SECOND operand when the first is NaN.
            acc = _mm256_max_ps(_mm256_andnot_ps(sign_mask, v), acc);
        }
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` is a `[f32; 8]` — one full register.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
        let mut m = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
        for v in &values[chunks * 8..] {
            m = m.max(v.abs());
        }
        m
    }

    /// Whole-row INT8 fake-quantise round trip at a fixed `scale`,
    /// emulating Rust's round-half-away-from-zero: `roundps` rounds to
    /// nearest-even, so exact ties (|x − rne(x)| = 0.5, a subtraction
    /// exact by Sterbenz) are pulled away from zero with
    /// `x + copysign(0.5, x)` — exact because tied x are half-integers
    /// well under 2²³. The `cvtps_epi32`/`cvtepi32_ps` round trip
    /// mirrors the scalar `as i8` cast (collapses `−0.0`, exact for
    /// integral values ≤ 127), and the unordered-compare blend zeroes
    /// NaN inputs just like the saturating NaN→0 cast.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn int8_round_fill_avx2_raw(values: &mut [f32], scale: f32) {
        let vscale = _mm256_set1_ps(scale);
        let half = _mm256_set1_ps(0.5);
        let sign_mask = _mm256_set1_ps(-0.0);
        let hi = _mm256_set1_ps(127.0);
        let lo = _mm256_set1_ps(-127.0);
        let chunks = values.len() / 8;
        let ptr = values.as_mut_ptr();
        for ci in 0..chunks {
            // SAFETY: `ci < values.len() / 8`, so lanes `ci*8..ci*8+8`
            // are in bounds.
            let v = unsafe { _mm256_loadu_ps(ptr.add(ci * 8)) };
            let x = _mm256_div_ps(v, vscale);
            let r = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(x);
            let d = _mm256_sub_ps(x, r);
            let tie = _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_andnot_ps(sign_mask, d), half);
            let away = _mm256_add_ps(x, _mm256_or_ps(half, _mm256_and_ps(x, sign_mask)));
            let rounded = _mm256_blendv_ps(r, away, tie);
            let clamped = _mm256_max_ps(_mm256_min_ps(rounded, hi), lo);
            let q = _mm256_cvtepi32_ps(_mm256_cvtps_epi32(clamped));
            let is_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
            let q = _mm256_andnot_ps(is_nan, q);
            // SAFETY: stores exactly the 8 lanes loaded above.
            unsafe { _mm256_storeu_ps(ptr.add(ci * 8), _mm256_mul_ps(q, vscale)) };
        }
        for v in &mut values[chunks * 8..] {
            let q = (*v / scale).round().clamp(-127.0, 127.0) as i8;
            *v = q as f32 * scale;
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{
    absmax_avx2_raw, box_muller_fill_avx2_raw, cos_fill_avx2_raw, dot8_pairs_avx2_raw,
    dot_lanes_avx2_raw, f16_encode_f16c_raw, f16_round_fill_f16c_raw, int8_round_fill_avx2_raw,
    ln_fill_avx2_raw, segment_dots8_avx2_raw,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_fill_matches_one_value_reference() {
        let seed = 0xDEAD_BEEF_0BAD_F00Du64;
        let mut filled = vec![0.0f32; 37];
        box_muller_fill_scalar(seed, &mut filled);
        for (i, &v) in filled.iter().enumerate() {
            let n = (2 * i + 1) as u64;
            let r1 = splitmix_mix(seed.wrapping_add(GAMMA.wrapping_mul(n)));
            let r2 = splitmix_mix(seed.wrapping_add(GAMMA.wrapping_mul(n + 1)));
            assert_eq!(v.to_bits(), normal_from_raw(r1, r2).to_bits(), "index {i}");
        }
    }

    #[test]
    fn chunked_dot_is_close_to_sequential_and_exact_on_structure() {
        let a: Vec<f32> = (0..67).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..67).map(|i| (i as f32 * 0.11).cos()).collect();
        let seq: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let chunked = dot_chunked_scalar(&a, &b);
        assert!((seq - chunked).abs() < 1e-4, "{seq} vs {chunked}");
        // Exact on a one-hot: order cannot matter.
        let mut e = vec![0.0f32; 19];
        e[13] = 3.0;
        assert_eq!(dot_chunked_scalar(&e, &e), 9.0);
        assert_eq!(l2_norm_chunked(&e), 3.0);
    }

    #[test]
    fn chunked_cosine_keeps_the_degenerate_conventions() {
        let z = [0.0f32; 12];
        let v: Vec<f32> = (0..12).map(|i| i as f32 - 4.0).collect();
        let nv = l2_norm_chunked(&v);
        assert_eq!(cosine_with_norms_chunked(&z, 0.0, &z, 0.0), 1.0);
        assert_eq!(cosine_with_norms_chunked(&z, 0.0, &v, nv), 0.0);
        let c = cosine_with_norms_chunked(&v, nv, &v, nv);
        assert!((0.9999..=1.0).contains(&c), "{c}");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn chunked_dot_avx2_matches_scalar_bitwise() {
        // Odd lengths exercise the shared tail; values span magnitudes
        // so accumulation-order differences would show.
        for len in [0usize, 1, 7, 8, 9, 16, 31, 32, 33, 100] {
            let a: Vec<f32> = (0..len)
                .map(|i| ((i as f32 + 0.5) * 0.7).sin() * (10.0f32).powi((i % 7) as i32 - 3))
                .collect();
            let b: Vec<f32> = (0..len).map(|i| ((i as f32) * 1.3).cos()).collect();
            let Some(simd) = dot_chunked_avx2(&a, &b) else {
                return; // host without AVX2: nothing to compare
            };
            let scalar = dot_chunked_scalar(&a, &b);
            assert_eq!(simd.to_bits(), scalar.to_bits(), "len {len}");
        }
    }

    #[test]
    fn fixed_ln_tracks_libm_on_the_normal_range() {
        for &x in &[
            1e-30f32, 1e-6, 0.1, 0.5, 0.9999, 1.0, 1.0001, 2.0, 3.5, 1e6, 1e30,
        ] {
            let got = fixed_ln(x);
            let want = (x as f64).ln() as f32;
            assert!(
                (got - want).abs() <= 4.0 * want.abs().max(1.0) * f32::EPSILON,
                "ln({x}) = {got}, libm {want}"
            );
        }
    }

    #[test]
    fn fixed_cos_tracks_libm_over_the_turn() {
        for p in (0u32..1 << 24).step_by(4097) {
            let got = fixed_cos_phase24(p);
            let want = (2.0 * std::f64::consts::PI * p as f64 / (1u64 << 24) as f64).cos() as f32;
            assert!(
                (got - want).abs() < 4e-7,
                "cos(2π·{p}/2^24) = {got}, libm {want}"
            );
        }
    }

    #[test]
    fn radius_is_bounded_and_positive() {
        for r1 in [
            0u64,
            1,
            u64::MAX,
            0x8000_0000_0000_0000,
            0x1234_5678_9ABC_DEF0,
        ] {
            let r = radius_from_raw(r1);
            assert!((0.0..=5.78).contains(&r), "radius {r} for r1 {r1:#x}");
        }
    }

    /// Hardware F16C and the software reference agree bit-for-bit on a
    /// dense structured sweep of the f32 space — every exponent (so
    /// every f16 class: underflow-to-zero, subnormal, normal, overflow)
    /// with varied mantissas, both signs, plus the patterns the two
    /// could plausibly disagree on (rounding-boundary midpoints, the
    /// overflow midpoint, NaN payloads).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn f16_round_hardware_matches_software() {
        let mut xs = Vec::new();
        for bits in (0u32..=0x7F80_0000).step_by(0x1FEF) {
            xs.push(f32::from_bits(bits));
            xs.push(f32::from_bits(bits | 0x8000_0000));
        }
        for bits in [
            0x7FC0_0000u32, // canonical quiet NaN
            0xFFC0_0001,    // negative NaN, payload set
            0x7F80_0001,    // signalling NaN
            0x7F80_0000,    // +inf
            0xFF80_0000,    // -inf
            0x4780_0000,    // 65536: above the f16 overflow midpoint
            0x477F_F000,    // 65520: exactly the overflow midpoint
            0x0000_0001,    // smallest f32 subnormal (→ 0 in f16)
            0x3880_0000,    // 2⁻¹⁴: smallest f16 normal
            0x3800_1000,    // inside the f16 subnormal range
        ] {
            xs.push(f32::from_bits(bits));
        }
        let mut hw = xs.clone();
        if !f16_round_fill_f16c(&mut hw) {
            return; // host without F16C: nothing to compare
        }
        let mut sw = xs;
        f16_round_fill_scalar(&mut sw);
        for (i, (a, b)) in hw.iter().zip(&sw).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "index {i}: {a} vs {b}");
        }
    }
}
