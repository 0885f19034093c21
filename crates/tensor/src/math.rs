//! Batched, bit-deterministic transcendental synthesis kernel.
//!
//! The measured phase of the pipeline is RNG-bound: every synthesised
//! activation value costs one Box–Muller round-trip, and the libm
//! `ln`/`cos` calls behind it were 83 % of the measured phase
//! (`BENCH_batch.json`, ROADMAP direction 2). This module replaces
//! libm with **fixed-polynomial** evaluations whose operation order is
//! frozen, so the same value stream can be produced one value at a
//! time (scalar), eight lanes at a time (AVX2), sixteen lanes at a time
//! (AVX-512), or chunked through any future width — **bit-identically**.
//!
//! # Determinism contract
//!
//! Every path — [`box_muller_fill`]'s three runtime-dispatched tiers
//! (AVX-512F+DQ, then AVX2, then the chunked-scalar fallback) and the
//! one-value [`normal_from_raw`] reference — executes the *same*
//! IEEE-754 single-precision operations in the *same* order on every
//! input:
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
//!   lane-wise results equal the scalar ones bit for bit;
//! * every lane is independent: the SplitMix words are pure `u64`
//!   integer work (the AVX-512 tier computes them eight lanes at a time
//!   with `vpmullq`; the AVX2 tier, which has no 64-bit multiply, in
//!   scalar), and no value reads another lane, so the lane count and
//!   the chunk boundaries are invisible in the output.
//!
//! Because of that, `scalar(out[i]) == simd(out[i])` for every tier,
//! every index, every seed and every chunk offset — property-tested in
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

use crate::backend::{MatchTile, RowRef};
use crate::half::f16;
use crate::matrix::Element;

/// SplitMix64's additive constant (γ).
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 output mix of one raw counter state (the xor-shift
/// multiply chain of `SplitMix64::next_u64`, applied to the
/// post-increment state).
#[inline]
pub fn splitmix_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(MIX_M1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX_M2);
    z ^ (z >> 31)
}

/// The two multipliers of [`splitmix_mix`], shared with the eight-lane
/// AVX-512 mix.
const MIX_M1: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX_M2: u64 = 0x94D0_49BB_1331_11EB;

/// Whether every listed CPU feature was detected at runtime, checked
/// once per call site and cached.
#[cfg(target_arch = "x86_64")]
macro_rules! detected {
    ($($feature:tt),+) => {{
        static HAS: OnceLock<bool> = OnceLock::new();
        *HAS.get_or_init(|| true $(&& std::is_x86_feature_detected!($feature))+)
    }};
}

/// Whether the dispatched kernels take a SIMD path: AVX2 detected at
/// runtime. Callers that want the scalar path regardless of the CPU
/// pass the scalar backend ([`crate::backend::scalar_ref`]) instead.
#[cfg(target_arch = "x86_64")]
pub fn simd_active() -> bool {
    detected!("avx2")
}

/// Whether the dispatched kernels take a SIMD path: never, off x86-64.
#[cfg(not(target_arch = "x86_64"))]
pub fn simd_active() -> bool {
    false
}

/// Whether the kernels that convert FP16 on the fly (the FP16 encode
/// and the segment kernels, which load FP16 rows through `vcvtph2ps`)
/// take their SIMD path: AVX2 and F16C both detected.
#[cfg(target_arch = "x86_64")]
fn f16c_active() -> bool {
    detected!("avx2", "f16c")
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

// Polynomial coefficients, highest degree first: every path evaluates
// them as the Horner chain `acc = acc·w + c` in this order.
//
// The atanh series ln(1+z) = 2s·(1 + w/3 + w²/5 + w³/7), s = z/(2+z),
// w = s² (|z| ≤ 1/3 ⇒ |s| ≤ 1/7, truncation ≪ f32 ulp).
const LOG_P: [f32; 4] = [1.0 / 7.0, 1.0 / 5.0, 1.0 / 3.0, 1.0];
// Taylor series of cos φ and sin φ / φ in w = φ² on the reduced octant
// [0, π/4]; the truncation error is below one f32 ulp at the edge.
const COS_P: [f32; 5] = [1.0 / 40320.0, -1.0 / 720.0, 1.0 / 24.0, -1.0 / 2.0, 1.0];
const SIN_P: [f32; 5] = [1.0 / 362880.0, -1.0 / 5040.0, 1.0 / 120.0, -1.0 / 6.0, 1.0];

/// Horner evaluation of the coefficients `$p` at `$w` with the lane-wise
/// `$add`, `$mul` and splat `$set1`: the scalar chain's order on any
/// SIMD width.
#[cfg(target_arch = "x86_64")]
macro_rules! horner_lanes {
    ($p:expr, $w:expr, $add:ident, $mul:ident, $set1:ident) => {
        $p[1..]
            .iter()
            .fold($set1($p[0]), |acc, &c| $add($mul(acc, $w), $set1(c)))
    };
}

// ---------------------------------------------------------------------
// Scalar reference pipeline
// ---------------------------------------------------------------------

/// `ln(1+z)` for `|z| ≤ 1/3` — the shared polynomial core, frozen
/// operation order (one division, one Horner chain, one exact
/// doubling).
#[inline]
fn ln1p_core(z: f32) -> f32 {
    let s = z / (2.0 + z);
    (s + s) * horner(&LOG_P, s * s)
}

/// The frozen Horner chain over `p` (highest degree first) at `w`.
#[inline]
fn horner(p: &[f32], w: f32) -> f32 {
    p[1..].iter().fold(p[0], |acc, &c| acc * w + c)
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
    let c = horner(&COS_P, w);
    let s = phi * horner(&SIN_P, w);
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

/// The two raw words value `i` of the fill seeded at `seed` consumes.
#[inline]
fn raw_words(seed: u64, i: usize) -> (u64, u64) {
    let word = |n: u64| splitmix_mix(seed.wrapping_add(GAMMA.wrapping_mul(n)));
    (word(2 * i as u64 + 1), word(2 * i as u64 + 2))
}

/// Value `i` of the fill seeded at `seed`: the one-value reference
/// every tier's tail (and the chunked-scalar path) computes.
#[inline]
fn normal_at(seed: u64, i: usize) -> f32 {
    let (r1, r2) = raw_words(seed, i);
    normal_from_raw(r1, r2)
}

/// Fills `out` with standard-normal samples from the SplitMix64
/// counter stream seeded at `seed`: value `i` consumes raw words
/// `2i+1` and `2i+2` of the stream (see the module docs), so the fill
/// is **position-addressable** — splitting a fill at any offset `n`
/// and continuing with seed `seed + 2n·γ` reproduces the same values.
///
/// Runtime-dispatched over three tiers, bit-identical on every one:
/// AVX-512F+DQ sixteen lanes at a time (SplitMix words eight `u64`
/// lanes per `vpmullq`), else AVX2 eight lanes at a time, else chunked
/// scalar.
pub fn box_muller_fill(seed: u64, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if box_muller_fill_avx512(seed, out) || box_muller_fill_avx2(seed, out) {
        return;
    }
    box_muller_fill_scalar(seed, out);
}

/// The portable chunked-scalar path of [`box_muller_fill`].
pub fn box_muller_fill_scalar(seed: u64, out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = normal_at(seed, i);
    }
}

/// The AVX2 tier of [`box_muller_fill`], callable directly by the
/// bit-identity property tests. Returns `false` (leaving `out`
/// untouched) when the host lacks AVX2.
#[cfg(target_arch = "x86_64")]
pub fn box_muller_fill_avx2(seed: u64, out: &mut [f32]) -> bool {
    simd_active() && {
        // SAFETY: AVX2 detected (the left operand).
        unsafe { box_muller_fill_avx2_raw(seed, out) };
        true
    }
}

/// The AVX-512 tier of [`box_muller_fill`], callable directly by the
/// bit-identity property tests. Returns `false` (leaving `out`
/// untouched) when the host lacks AVX2, AVX-512F (the f32 pipeline) or
/// AVX-512DQ (`vpmullq`).
#[cfg(target_arch = "x86_64")]
pub fn box_muller_fill_avx512(seed: u64, out: &mut [f32]) -> bool {
    detected!("avx2", "avx512f", "avx512dq") && {
        // SAFETY: AVX2, AVX-512F and AVX-512DQ detected (the left operand).
        unsafe { box_muller_fill_avx512_raw(seed, out) };
        true
    }
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
// segment kernels' eight-segment AVX2 pass, the matcher's fan pass and
// the chunked-scalar dot execute that order operation for operation,
// so they are bit-identical on every input — the same contract as the
// synthesis fills above (this re-ordering vs. the old sequential dot is
// what re-baseline v3 pins). Every cosine and norm in the workspace is
// a segment or matcher launch: a whole row is one segment spanning it.
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

/// Lane-chunked dot product in the frozen order: the one definition
/// every segment kernel result equals bit for bit, and the path a
/// single listed segment takes. Over [`f16`](struct@f16) rows it widens
/// each element on load, so it equals the f32 dot of the widened rows.
///
/// # Panics
///
/// Panics if the slices have different lengths.
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

/// The cosine of two vectors from their dot product and caller-supplied
/// norms, with the concentrator's degenerate-input conventions: two
/// zero norms are perfectly similar (both vectors carry the same null
/// information, so they may merge), one zero norm is orthogonal, and
/// the result is clamped into `[-1, 1]` (a NaN quotient stays NaN).
/// Every scoring kernel finishes through this one function.
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

/// A last group of fewer full-width f32 segments than this takes
/// single chunked-scalar dots instead of a padded eight-segment pass:
/// one pass of 32-wide segments costs about as much as four to five
/// single dots (measured on an AVX2 Xeon at 2.1 GHz). FP16 segments
/// always take the pass: a single dot widens them in software. Both
/// paths are bit-identical, so the cutoff is pure scheduling.
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
        if k >= SEGMENT_GROUP_MIN || (E::IS_F16 && k > 0) {
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
/// `out[s] = dot_chunked_scalar(&a[r], &b[r])` with
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

// ---------------------------------------------------------------------
// Row-granular matcher kernel
//
// One launch does a probe row's whole share of the gather sweep: its
// segment norms, the cosine against every planned candidate at every
// live segment, and the best-match fold. The AVX2 path widens each
// probe chunk once and multiplies it against itself and up to seven
// candidates (eight accumulators, reduced by the `reduce_lanes` tree),
// then finishes and folds eight segments per pass with the conventions
// of `cosine_from_dot` — bit-identical to the chunked-scalar
// composition the scalar backend runs.
// ---------------------------------------------------------------------

/// `best_cand` of a segment that no candidate matched.
pub const NO_MATCH: u32 = u32::MAX;

/// Candidates per AVX2 fan pass: the probe's self-dot takes the eighth
/// accumulator. Longer candidate lists run in passes, in list order.
#[cfg(target_arch = "x86_64")]
const FAN_CANDS: usize = 7;

/// Checks a match launch's shapes and resets its best-match outputs.
/// Returns the segment count (0 for a width-0 tile).
fn match_setup(
    tile: &MatchTile<'_>,
    probe: usize,
    cands: &[u32],
    norms: &[f32],
    best: &mut [f32],
    best_cand: &mut [u32],
) -> usize {
    assert!(tile.seg > 0, "segment width must be positive");
    let segments = tile.segments();
    assert_eq!(best.len(), segments, "one best score per segment");
    assert_eq!(best_cand.len(), segments, "one best candidate per segment");
    if segments == 0 {
        return 0;
    }
    let len = match tile.rows {
        RowRef::F32(r) => r.len(),
        RowRef::F16(r) => r.len(),
    };
    let rows = len / tile.width;
    assert_eq!(len, rows * tile.width, "the tile must hold whole rows");
    let slots = rows * segments;
    assert_eq!(norms.len(), slots, "one norm slot per segment of every row");
    assert!(
        tile.carried.is_empty() || tile.carried.len() == slots,
        "one carry flag per segment of every row"
    );
    assert!(probe < rows, "probe row {probe} out of range ({rows} rows)");
    for &c in cands {
        assert!(
            (c as usize) < rows,
            "candidate row {c} out of range ({rows} rows)"
        );
    }
    best.fill(f32::NEG_INFINITY);
    best_cand.fill(NO_MATCH);
    segments
}

/// The chunked-scalar matcher over the segments `segs`: per live probe
/// segment, its norm, then every live candidate's cosine folded in list
/// order — the composition every path equals bit for bit.
#[allow(clippy::too_many_arguments)] // the launch's operands plus the segment range
fn match_scalar<E: Element>(
    rows: &[E],
    tile: &MatchTile<'_>,
    probe: usize,
    cands: &[u32],
    norms: &mut [f32],
    best: &mut [f32],
    best_cand: &mut [u32],
    segs: core::ops::Range<usize>,
) {
    let (w, seg, segments) = (tile.width, tile.seg, tile.segments());
    let row = |r: usize| &rows[r * w..(r + 1) * w];
    let p = row(probe);
    let probe_carried = tile.carried_row(probe);
    for s in segs.filter(|&s| probe_carried.get(s) != Some(&true)) {
        let range = s * seg..((s + 1) * seg).min(w);
        let ps = &p[range.clone()];
        let pn = dot_chunked_scalar(ps, ps).sqrt();
        norms[probe * segments + s] = pn;
        for &c in cands {
            let c = c as usize;
            if tile.carried_row(c).get(s) == Some(&true) {
                continue;
            }
            let dot = dot_chunked_scalar(ps, &row(c)[range.clone()]);
            let cos = cosine_from_dot(dot, pn, norms[c * segments + s]);
            if cos >= tile.threshold && cos > best[s] {
                (best[s], best_cand[s]) = (cos, c as u32);
            }
        }
    }
}

/// The dispatched body of [`segment_match`]: AVX2 fan passes over the
/// full-width segments when `seg` is a multiple of 8 and the CPU has
/// AVX2 and F16C, the chunked-scalar matcher for a ragged last segment
/// and everywhere else.
fn match_dispatched<E: Element>(
    rows: &[E],
    tile: &MatchTile<'_>,
    probe: usize,
    cands: &[u32],
    norms: &mut [f32],
    best: &mut [f32],
    best_cand: &mut [u32],
) {
    let segments = match_setup(tile, probe, cands, norms, best, best_cand);
    #[cfg(not(target_arch = "x86_64"))]
    let fanned = 0;
    #[cfg(target_arch = "x86_64")]
    let fanned = if tile.seg.is_multiple_of(8) && f16c_active() {
        let fan = avx2::Fan {
            rows,
            tile,
            probe,
            segments,
            full: tile.width / tile.seg,
        };
        // A row without candidates still takes one pass for its norms.
        let passes = cands
            .chunks(FAN_CANDS)
            .chain(cands.is_empty().then_some(cands));
        for batch in passes {
            // SAFETY: `f16c_active` implies AVX2 and F16C; `seg` is a
            // multiple of 8, `full · seg` is at most the width, and
            // `match_setup` checked every row index and slice length.
            unsafe { match_fan_avx2_raw(&fan, batch, norms, best, best_cand) };
        }
        fan.full
    } else {
        0
    };
    match_scalar(
        rows,
        tile,
        probe,
        cands,
        norms,
        best,
        best_cand,
        fanned..segments,
    );
}

/// The row-granular matcher of [`Backend::segment_match`]: writes the
/// probe row's live segment norms into `norms` and folds every live
/// (candidate, segment) cosine into `best` / `best_cand` in `cands`
/// order (`cos >= threshold && cos > best`; a tie keeps the earlier
/// candidate, a NaN never matches). Every output equals the
/// chunked-scalar composition — [`segment_norms`], one
/// [`segment_cosines`] per candidate over the live segments, and the
/// scalar fold — bit for bit.
///
/// With AVX2 and F16C and `seg` a multiple of 8, the full-width
/// segments run as fan passes: each probe chunk is loaded (and widened)
/// once and multiplied against itself and up to seven candidates in
/// eight accumulators, reduced by the `hadd` tree of [`segment_dots`];
/// the reduced dots are transposed so that eight segments of one row
/// share a register, then finished (`div`, `max`/`min` clamp,
/// zero-norm blends) and folded eight segments at a time. More than
/// seven candidates take further passes, in list order. A ragged last
/// segment, and every segment of a width that is not a multiple of 8,
/// take the chunked-scalar path.
///
/// # Panics
///
/// As [`Backend::segment_match`].
///
/// [`Backend::segment_match`]: crate::backend::Backend::segment_match
pub fn segment_match(
    tile: &MatchTile<'_>,
    probe: usize,
    cands: &[u32],
    norms: &mut [f32],
    best: &mut [f32],
    best_cand: &mut [u32],
) {
    match tile.rows {
        RowRef::F32(rows) => match_dispatched(rows, tile, probe, cands, norms, best, best_cand),
        RowRef::F16(rows) => match_dispatched(rows, tile, probe, cands, norms, best, best_cand),
    }
}

/// The chunked-scalar path of [`segment_match`], for the scalar
/// backend: the oracle the dispatched path is tested against.
pub fn segment_match_scalar(
    tile: &MatchTile<'_>,
    probe: usize,
    cands: &[u32],
    norms: &mut [f32],
    best: &mut [f32],
    best_cand: &mut [u32],
) {
    let segments = match_setup(tile, probe, cands, norms, best, best_cand);
    let all = 0..segments;
    match tile.rows {
        RowRef::F32(rows) => match_scalar(rows, tile, probe, cands, norms, best, best_cand, all),
        RowRef::F16(rows) => match_scalar(rows, tile, probe, cands, norms, best, best_cand, all),
    }
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
/// [`box_muller_fill`]. Bit-identical to the sequential
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
        let words: [(u64, u64); 8] = std::array::from_fn(|l| raw_words(seed, base + l));
        (
            words.map(|(r1, _)| ((r1 >> 40) as u32) + 1),
            words.map(|(_, r2)| (r2 >> 40) as u32),
        )
    }

    /// The radius pipeline on 8 lanes of `k ∈ [1, 2²⁴]`.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn radius8(k: __m256i) -> __m256 {
        let bits = _mm256_castps_si256(_mm256_cvtepi32_ps(k)); // exact: k ≤ 2²⁴
        let mant = _mm256_and_si256(bits, _mm256_set1_epi32(0x007F_FFFF));
        let e = _mm256_sub_epi32(_mm256_srli_epi32(bits, 23), _mm256_set1_epi32(127));
        // mant ≥ NARROW_MANT  ⇔  mant > NARROW_MANT − 1 (values < 2²³,
        // so the signed compare is exact).
        let narrow = _mm256_cmpgt_epi32(mant, _mm256_set1_epi32(NARROW_MANT as i32 - 1));
        let expf = _mm256_set1_epi32(0x3F80_0000);
        let expf = _mm256_blendv_epi8(expf, _mm256_set1_epi32(0x3F00_0000), narrow);
        let m = _mm256_castsi256_ps(_mm256_or_si256(mant, expf));
        let e = _mm256_sub_epi32(e, narrow); // narrow mask is −1 ⇒ e+1
        let z = _mm256_sub_ps(m, _mm256_set1_ps(1.0));
        // ln1p_core, lane-wise in the scalar order.
        let s = _mm256_div_ps(z, _mm256_add_ps(_mm256_set1_ps(2.0), z));
        let w = _mm256_mul_ps(s, s);
        let t = horner_lanes!(LOG_P, w, _mm256_add_ps, _mm256_mul_ps, _mm256_set1_ps);
        let ln1p = _mm256_mul_ps(_mm256_add_ps(s, s), t);
        let nf = _mm256_cvtepi32_ps(_mm256_sub_epi32(_mm256_set1_epi32(24), e));
        let a = _mm256_mul_ps(_mm256_set1_ps(TWO_LN2), nf);
        _mm256_sqrt_ps(_mm256_sub_ps(a, _mm256_add_ps(ln1p, ln1p)))
    }

    /// The cosine pipeline on 8 lanes of 24-bit phases.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cos8(p: __m256i) -> __m256 {
        let bit = |b: i32| _mm256_set1_epi32(b);
        // All-ones in the lanes where `x & b` is nonzero (`b` < 2³¹).
        let test = |x: __m256i, b: i32| _mm256_cmpgt_epi32(_mm256_and_si256(x, bit(b)), bit(0));
        let pv = _mm256_and_si256(p, bit(0x00FF_FFFF));
        let o = _mm256_srli_epi32(pv, 21);
        let f21 = _mm256_and_si256(pv, bit(0x001F_FFFF));
        let fi = _mm256_blendv_epi8(f21, _mm256_sub_epi32(bit(1 << 21), f21), test(o, 1));
        let phi = _mm256_mul_ps(_mm256_cvtepi32_ps(fi), _mm256_set1_ps(PHI_SCALE));
        let w = _mm256_mul_ps(phi, phi);
        let c = horner_lanes!(COS_P, w, _mm256_add_ps, _mm256_mul_ps, _mm256_set1_ps);
        let s = horner_lanes!(SIN_P, w, _mm256_add_ps, _mm256_mul_ps, _mm256_set1_ps);
        // Per-octant fixup, matching the scalar rules exactly: sin when
        // ((o+1) >> 1) & 1, that is (o+1) & 2; negate when (o+2) & 4.
        let use_sin = _mm256_castsi256_ps(test(_mm256_add_epi32(o, bit(1)), 2));
        let v = _mm256_blendv_ps(c, _mm256_mul_ps(phi, s), use_sin);
        let neg = _mm256_castsi256_ps(test(_mm256_add_epi32(o, bit(2)), 4));
        _mm256_xor_ps(v, _mm256_and_ps(neg, _mm256_set1_ps(-0.0)))
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn box_muller_fill_avx2_raw(seed: u64, out: &mut [f32]) {
        let chunks = out.len() / 8;
        for ci in 0..chunks {
            let (k, p) = chunk_words(seed, ci * 8);
            // SAFETY: `radius8`/`cos8` require AVX2 — this fn's own
            // contract; `k` and `p` are `[u32; 8]`, exactly 32 readable
            // bytes each (`loadu` has no alignment requirement); and the
            // store hits lanes `ci*8..ci*8+8` with `ci < out.len() / 8`,
            // so all 8 are in bounds.
            unsafe {
                let r = radius8(_mm256_loadu_si256(k.as_ptr() as *const __m256i));
                let c = cos8(_mm256_loadu_si256(p.as_ptr() as *const __m256i));
                _mm256_storeu_ps(out.as_mut_ptr().add(ci * 8), _mm256_mul_ps(r, c));
            }
        }
        // Scalar tail: bit-identical by construction, so chunk
        // boundaries are invisible in the output.
        for (i, o) in out.iter_mut().enumerate().skip(chunks * 8) {
            *o = normal_at(seed, i);
        }
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
        let mut dots = [0.0f32; 8];
        // SAFETY: AVX2 is this fn's own contract; `dots` is a `[f32; 8]`,
        // one full register.
        unsafe { _mm256_storeu_ps(dots.as_mut_ptr(), reduce8(&acc)) };
        dots
    }

    /// Lane `j` of the result is `reduce_lanes` of the lanes of
    /// `acc[j]`: `hadd` pairs lanes (0,1), (2,3), (4,5), (6,7) of two
    /// registers, a second `hadd` adds those pairs into `(0..4)` and
    /// `(4..8)` sums per register, and one 128-bit add joins the halves.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce8(acc: &[__m256; 8]) -> __m256 {
        let q0 = _mm256_hadd_ps(
            _mm256_hadd_ps(acc[0], acc[1]),
            _mm256_hadd_ps(acc[2], acc[3]),
        );
        let q1 = _mm256_hadd_ps(
            _mm256_hadd_ps(acc[4], acc[5]),
            _mm256_hadd_ps(acc[6], acc[7]),
        );
        _mm256_set_m128(
            _mm_add_ps(_mm256_castps256_ps128(q1), _mm256_extractf128_ps::<1>(q1)),
            _mm_add_ps(_mm256_castps256_ps128(q0), _mm256_extractf128_ps::<1>(q0)),
        )
    }

    /// Transposes eight registers as an 8×8 matrix (register `i`, lane
    /// `j` ↦ register `j`, lane `i`). Pure data movement.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8(r: &mut [__m256; 8]) {
        let t = [
            _mm256_unpacklo_ps(r[0], r[1]),
            _mm256_unpackhi_ps(r[0], r[1]),
            _mm256_unpacklo_ps(r[2], r[3]),
            _mm256_unpackhi_ps(r[2], r[3]),
            _mm256_unpacklo_ps(r[4], r[5]),
            _mm256_unpackhi_ps(r[4], r[5]),
            _mm256_unpacklo_ps(r[6], r[7]),
            _mm256_unpackhi_ps(r[6], r[7]),
        ];
        let u = [
            _mm256_shuffle_ps::<0x44>(t[0], t[2]),
            _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
            _mm256_shuffle_ps::<0x44>(t[1], t[3]),
            _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
            _mm256_shuffle_ps::<0x44>(t[4], t[6]),
            _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
            _mm256_shuffle_ps::<0x44>(t[5], t[7]),
            _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
        ];
        for i in 0..4 {
            r[i] = _mm256_permute2f128_ps::<0x20>(u[i], u[i + 4]);
            r[i + 4] = _mm256_permute2f128_ps::<0x31>(u[i], u[i + 4]);
        }
    }

    /// The operands one fan pass of `segment_match` shares with every
    /// other pass of its launch.
    pub(super) struct Fan<'a, E> {
        pub rows: &'a [E],
        pub tile: &'a MatchTile<'a>,
        pub probe: usize,
        pub segments: usize,
        /// Full-width segments: a pass covers `0..full`.
        pub full: usize,
    }

    /// One fan pass of `segment_match`: the probe row against `batch`
    /// (at most seven candidates) over the full-width segments, with a
    /// candidate count fixed at compile time so the accumulators stay
    /// in registers.
    ///
    /// # Safety
    /// Requires AVX2 and F16C, `seg` a multiple of 8, `full · seg` at
    /// most the width, and the shapes `match_setup` checks.
    #[target_feature(enable = "avx2", enable = "f16c")]
    pub(super) unsafe fn match_fan_avx2_raw<E: Element>(
        fan: &Fan<'_, E>,
        batch: &[u32],
        norms: &mut [f32],
        best: &mut [f32],
        best_cand: &mut [u32],
    ) {
        // SAFETY: the callees share this fn's contract, and each arm
        // passes a batch of exactly its compile-time length.
        unsafe {
            match batch.len() {
                0 => fan_pass::<E, 0>(fan, batch, norms, best, best_cand),
                1 => fan_pass::<E, 1>(fan, batch, norms, best, best_cand),
                2 => fan_pass::<E, 2>(fan, batch, norms, best, best_cand),
                3 => fan_pass::<E, 3>(fan, batch, norms, best, best_cand),
                4 => fan_pass::<E, 4>(fan, batch, norms, best, best_cand),
                5 => fan_pass::<E, 5>(fan, batch, norms, best, best_cand),
                6 => fan_pass::<E, 6>(fan, batch, norms, best, best_cand),
                7 => fan_pass::<E, 7>(fan, batch, norms, best, best_cand),
                n => unreachable!("a fan pass takes at most seven candidates, got {n}"),
            }
        }
    }

    /// Eight elements at `ptr`, widened to f32: one 128-bit load and
    /// `vcvtph2ps` for FP16 bits (an `f16` is a `repr(transparent)`
    /// `u16`), one 256-bit load for f32.
    ///
    /// # Safety
    /// Requires AVX2 and F16C, and eight readable elements at `ptr`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "f16c")]
    unsafe fn load8<E: Element>(ptr: *const E) -> __m256 {
        // SAFETY: the caller's contract; `loadu` needs no alignment.
        unsafe {
            if E::IS_F16 {
                _mm256_cvtph_ps(_mm_loadu_si128(ptr as *const __m128i))
            } else {
                _mm256_loadu_ps(ptr as *const f32)
            }
        }
    }

    /// One chunk of a fan pass: the probe's eight elements at `at`
    /// accumulated against themselves into `acc[0]` and against each
    /// candidate's into `acc[1..=K]`, in the `dot_lanes_scalar` order.
    ///
    /// # Safety
    /// Requires AVX2 and F16C, and eight readable elements at `at` of
    /// every row in `base[..=K]`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "f16c")]
    unsafe fn fan_chunk<E: Element, const K: usize>(
        acc: &mut [__m256; 8],
        base: &[*const E; 8],
        at: usize,
    ) {
        // SAFETY: the caller's contract.
        let p = unsafe { load8(base[0].add(at)) };
        acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(p, p));
        for (a, b) in acc[1..=K].iter_mut().zip(&base[1..=K]) {
            // SAFETY: the caller's contract.
            *a = _mm256_add_ps(*a, _mm256_mul_ps(p, unsafe { load8(b.add(at)) }));
        }
    }

    /// Up to eight 4-byte lanes of `src` (`f32` or `u32`; zero past its
    /// end) as one register.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_lanes<T: Copy + Default>(src: &[T]) -> __m256 {
        debug_assert!(size_of::<T>() == 4 && src.len() <= 8);
        let mut lanes = [T::default(); 8];
        let ptr = if src.len() == 8 {
            src.as_ptr()
        } else {
            lanes[..src.len()].copy_from_slice(src);
            lanes.as_ptr()
        };
        // SAFETY: `ptr` points at eight readable 4-byte lanes.
        unsafe { _mm256_loadu_ps(ptr as *const f32) }
    }

    /// Stores the first `dst.len()` (at most eight) lanes of `v`.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_lanes<T: Copy + Default>(dst: &mut [T], v: __m256) {
        debug_assert!(size_of::<T>() == 4 && dst.len() <= 8);
        if dst.len() == 8 {
            // SAFETY: `dst` holds eight writable 4-byte lanes.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr() as *mut f32, v) };
        } else {
            let mut lanes = [T::default(); 8];
            // SAFETY: `lanes` is eight writable 4-byte lanes.
            unsafe { _mm256_storeu_ps(lanes.as_mut_ptr() as *mut f32, v) };
            let n = dst.len();
            dst.copy_from_slice(&lanes[..n]);
        }
    }

    /// All-ones in lane `i < n` where segment `g + i` of the row whose
    /// carry flags are `carried` is live (`carried` non-empty).
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn live_lanes(carried: &[bool], g: usize, n: usize) -> __m256 {
        // One byte per lane, 1 where the segment is dead.
        let mut dead = [1u8; 8];
        if n == 8 {
            let flags: &[bool; 8] = carried[g..g + 8].try_into().expect("eight flags");
            dead = flags.map(u8::from);
        } else {
            for (d, &c) in dead.iter_mut().zip(&carried[g..g + n]) {
                *d = c as u8;
            }
        }
        let v = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(u64::from_le_bytes(dead) as i64));
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, _mm256_setzero_si256()))
    }

    /// `cosine_from_dot` on eight lanes: the quotient clamped by
    /// `max(-1, q)` then `min(1, ·)` (a NaN quotient is the second
    /// operand of both, so it stays NaN, like `f32::clamp`), then 0.0
    /// where either norm is zero and 1.0 where both are.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cosine8(dot: __m256, na: __m256, nb: __m256) -> __m256 {
        let q = _mm256_div_ps(dot, _mm256_mul_ps(na, nb));
        let one = _mm256_set1_ps(1.0);
        let q = _mm256_min_ps(one, _mm256_max_ps(_mm256_set1_ps(-1.0), q));
        let zero = _mm256_setzero_ps();
        let za = _mm256_cmp_ps::<_CMP_EQ_OQ>(na, zero);
        let zb = _mm256_cmp_ps::<_CMP_EQ_OQ>(nb, zero);
        let q = _mm256_blendv_ps(q, zero, _mm256_or_ps(za, zb));
        _mm256_blendv_ps(q, one, _mm256_and_ps(za, zb))
    }

    /// The body of [`match_fan_avx2_raw`] for `K` candidates. Segments
    /// go eight to a group: per live probe segment, the probe chunk is
    /// loaded once and accumulated against itself (register 0) and each
    /// candidate (registers `1..=K`), and the eight registers reduce to
    /// one register of dots; the group's registers are then transposed
    /// so that register `j` holds row `j`'s dots over the group's
    /// segments, finished against the norms and folded in candidate
    /// order.
    ///
    /// # Safety
    /// As [`match_fan_avx2_raw`], and `batch.len() == K`.
    #[target_feature(enable = "avx2", enable = "f16c")]
    unsafe fn fan_pass<E: Element, const K: usize>(
        fan: &Fan<'_, E>,
        batch: &[u32],
        norms: &mut [f32],
        best: &mut [f32],
        best_cand: &mut [u32],
    ) {
        debug_assert_eq!(batch.len(), K);
        let (tile, segments) = (fan.tile, fan.segments);
        let (width, seg) = (tile.width, tile.seg);
        debug_assert!(seg % 8 == 0 && fan.full * seg <= width);
        // Row 0 is the probe, rows 1..=K the batch.
        let row: [usize; 8] = std::array::from_fn(|j| match j {
            0 => fan.probe,
            j if j <= K => batch[j - 1] as usize,
            _ => fan.probe,
        });
        // SAFETY: every row index is below the tile's row count
        // (`match_setup`), so each row start is in bounds of `rows`.
        let base: [*const E; 8] = row.map(|r| unsafe { fan.rows.as_ptr().add(r * width) });
        let carried: [&[bool]; 8] = row.map(|r| tile.carried_row(r));
        let threshold = _mm256_set1_ps(tile.threshold);
        for g in (0..fan.full).step_by(8) {
            let n = (fan.full - g).min(8);
            // Lanes past the group's end are dead on every row.
            let in_group = _mm256_castsi256_ps(_mm256_cmpgt_epi32(
                _mm256_set1_epi32(n as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            ));
            let mut live = [in_group; 8];
            for (l, flags) in live.iter_mut().zip(carried).take(K + 1) {
                if !flags.is_empty() {
                    // SAFETY: AVX2 is this fn's own contract.
                    *l = unsafe { live_lanes(flags, g, n) };
                }
            }
            let probe_live = _mm256_movemask_ps(live[0]);
            let mut dots = [_mm256_setzero_ps(); 8];
            for (i, d) in dots.iter_mut().enumerate().take(n) {
                if probe_live & (1 << i) == 0 {
                    continue;
                }
                let mut acc = [_mm256_setzero_ps(); 8];
                let start = (g + i) * seg;
                for at in (start..start + seg).step_by(8) {
                    // SAFETY: `at + 8 <= start + seg <= full · seg <=
                    // width`, so the chunk lies inside every row; AVX2
                    // and F16C are this fn's contract.
                    unsafe { fan_chunk::<E, K>(&mut acc, &base, at) };
                }
                // SAFETY: AVX2 is this fn's own contract.
                *d = unsafe { reduce8(&acc) };
            }
            // SAFETY: AVX2 is this fn's own contract.
            unsafe { transpose8(&mut dots) };

            let lanes = g..g + n;
            let slot = |r: usize| r * segments + g..r * segments + g + n;
            let probe_norms = _mm256_sqrt_ps(dots[0]);
            // SAFETY: AVX2 is this fn's own contract.
            unsafe {
                let kept = load_lanes(&norms[slot(fan.probe)]);
                let fresh = _mm256_blendv_ps(kept, probe_norms, live[0]);
                store_lanes(&mut norms[slot(fan.probe)], fresh);

                let mut vb = load_lanes(&best[lanes.clone()]);
                let mut vc = load_lanes(&best_cand[lanes.clone()]);
                for j in 1..=K {
                    let cn = load_lanes(&norms[slot(row[j])]);
                    let cos = cosine8(dots[j], probe_norms, cn);
                    let take = _mm256_and_ps(
                        _mm256_and_ps(live[0], live[j]),
                        _mm256_and_ps(
                            _mm256_cmp_ps::<_CMP_GE_OQ>(cos, threshold),
                            _mm256_cmp_ps::<_CMP_GT_OQ>(cos, vb),
                        ),
                    );
                    vb = _mm256_blendv_ps(vb, cos, take);
                    let id = _mm256_castsi256_ps(_mm256_set1_epi32(row[j] as i32));
                    vc = _mm256_blendv_ps(vc, id, take);
                }
                store_lanes(&mut best[lanes.clone()], vb);
                store_lanes(&mut best_cand[lanes], vc);
            }
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

// ---------------------------------------------------------------------
// AVX-512 synthesis tier
//
// SplitMix words eight u64 lanes at a time (`vpmullq`, the 64-bit
// multiply AVX2 lacks), narrowed with `vpmovqd`, then the AVX2 radius
// and cosine pipelines widened to sixteen lanes op for op, with mask
// selects in place of the vector blends: bit-identical lane for lane.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::avx2::{cos8, radius8};
    use super::*;
    use std::arch::x86_64::*;

    /// The radius integers `k` and cosine phases `p` of the eight
    /// values whose first counter states are the lanes of `z1` (value
    /// `i` of a fill: `seed + (2i+1)·γ`; its second word is one γ on).
    ///
    /// # Safety
    /// Requires AVX-512F and AVX-512DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn words8(z1: __m512i) -> (__m256i, __m256i) {
        // `splitmix_mix` on eight lanes, then each word's top 24 bits.
        let top24 = |z: __m512i| {
            let z = _mm512_xor_si512(z, _mm512_srli_epi64::<30>(z));
            let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(MIX_M1 as i64));
            let z = _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z));
            let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(MIX_M2 as i64));
            let z = _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z));
            _mm512_cvtepi64_epi32(_mm512_srli_epi64::<40>(z))
        };
        let k = _mm256_add_epi32(top24(z1), _mm256_set1_epi32(1));
        (
            k,
            top24(_mm512_add_epi64(z1, _mm512_set1_epi64(GAMMA as i64))),
        )
    }

    /// `radius8` on 16 lanes.
    ///
    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn radius16(k: __m512i) -> __m512 {
        let bits = _mm512_castps_si512(_mm512_cvtepi32_ps(k)); // exact: k ≤ 2²⁴
        let mant = _mm512_and_si512(bits, _mm512_set1_epi32(0x007F_FFFF));
        let e = _mm512_sub_epi32(_mm512_srli_epi32::<23>(bits), _mm512_set1_epi32(127));
        let narrow = _mm512_cmpge_epi32_mask(mant, _mm512_set1_epi32(NARROW_MANT as i32));
        let expf = _mm512_set1_epi32(0x3F80_0000);
        let expf = _mm512_mask_blend_epi32(narrow, expf, _mm512_set1_epi32(0x3F00_0000));
        let m = _mm512_castsi512_ps(_mm512_or_si512(mant, expf));
        let e = _mm512_mask_add_epi32(e, narrow, e, _mm512_set1_epi32(1));
        let z = _mm512_sub_ps(m, _mm512_set1_ps(1.0));
        let s = _mm512_div_ps(z, _mm512_add_ps(_mm512_set1_ps(2.0), z));
        let w = _mm512_mul_ps(s, s);
        let t = horner_lanes!(LOG_P, w, _mm512_add_ps, _mm512_mul_ps, _mm512_set1_ps);
        let ln1p = _mm512_mul_ps(_mm512_add_ps(s, s), t);
        let nf = _mm512_cvtepi32_ps(_mm512_sub_epi32(_mm512_set1_epi32(24), e));
        let a = _mm512_mul_ps(_mm512_set1_ps(TWO_LN2), nf);
        _mm512_sqrt_ps(_mm512_sub_ps(a, _mm512_add_ps(ln1p, ln1p)))
    }

    /// `cos8` on 16 lanes.
    ///
    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn cos16(p: __m512i) -> __m512 {
        let bit = |b: i32| _mm512_set1_epi32(b);
        let pv = _mm512_and_si512(p, bit(0x00FF_FFFF));
        let o = _mm512_srli_epi32::<21>(pv);
        let f21 = _mm512_and_si512(pv, bit(0x001F_FFFF));
        let odd = _mm512_test_epi32_mask(o, bit(1));
        let fi = _mm512_mask_blend_epi32(odd, f21, _mm512_sub_epi32(bit(1 << 21), f21));
        let phi = _mm512_mul_ps(_mm512_cvtepi32_ps(fi), _mm512_set1_ps(PHI_SCALE));
        let w = _mm512_mul_ps(phi, phi);
        let c = horner_lanes!(COS_P, w, _mm512_add_ps, _mm512_mul_ps, _mm512_set1_ps);
        let s = horner_lanes!(SIN_P, w, _mm512_add_ps, _mm512_mul_ps, _mm512_set1_ps);
        // sin when (o+1) & 2, negate when (o+2) & 4 (as in `cos8`).
        let use_sin = _mm512_test_epi32_mask(_mm512_add_epi32(o, bit(1)), bit(2));
        let v = _mm512_mask_blend_ps(use_sin, c, _mm512_mul_ps(phi, s));
        let neg = _mm512_test_epi32_mask(_mm512_add_epi32(o, bit(2)), bit(4));
        let v = _mm512_castps_si512(v);
        _mm512_castsi512_ps(_mm512_mask_xor_epi32(v, neg, v, bit(i32::MIN)))
    }

    /// Sixteen-lane passes, one eight-lane pass (zmm words into the
    /// AVX2 `radius8`/`cos8`) when eight or more values remain, then
    /// the scalar tail.
    ///
    /// # Safety
    /// Requires AVX2, AVX-512F and AVX-512DQ.
    #[target_feature(enable = "avx2,avx512f,avx512dq")]
    pub(super) unsafe fn box_muller_fill_avx512_raw(seed: u64, out: &mut [f32]) {
        // Lane `l` of `z` is the first counter state of value `i + l`.
        let odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        let gamma = _mm512_set1_epi64(GAMMA as i64);
        let mut z = _mm512_add_epi64(
            _mm512_set1_epi64(seed as i64),
            _mm512_mullo_epi64(odd, gamma),
        );
        let step = _mm512_set1_epi64(GAMMA.wrapping_mul(16) as i64); // eight values on
        let mut i = 0;
        while i + 16 <= out.len() {
            // SAFETY: the callees need a subset of this fn's features,
            // and lanes `i..i+16` are in bounds of `out`.
            unsafe {
                let ((k0, p0), (k1, p1)) = (words8(z), words8(_mm512_add_epi64(z, step)));
                let k = _mm512_inserti64x4::<1>(_mm512_castsi256_si512(k0), k1);
                let p = _mm512_inserti64x4::<1>(_mm512_castsi256_si512(p0), p1);
                let v = _mm512_mul_ps(radius16(k), cos16(p));
                _mm512_storeu_ps(out.as_mut_ptr().add(i), v);
            }
            z = _mm512_add_epi64(z, _mm512_add_epi64(step, step));
            i += 16;
        }
        if i + 8 <= out.len() {
            // SAFETY: the callees need a subset of this fn's features,
            // and lanes `i..i+8` are in bounds of `out`.
            unsafe {
                let (k, p) = words8(z);
                _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_mul_ps(radius8(k), cos8(p)));
            }
            i += 8;
        }
        for (j, o) in out.iter_mut().enumerate().skip(i) {
            *o = normal_at(seed, j);
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx512::box_muller_fill_avx512_raw;

#[cfg(target_arch = "x86_64")]
use avx2::{
    absmax_avx2_raw, box_muller_fill_avx2_raw, f16_encode_f16c_raw, f16_round_fill_f16c_raw,
    int8_round_fill_avx2_raw, match_fan_avx2_raw, segment_dots8_avx2_raw,
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
        let mut norm = [0.0f32];
        segment_norms(&e, e.len(), &[0], &mut norm);
        assert_eq!(norm, [3.0]);
    }

    /// One segment spanning the row keeps the cosine conventions on the
    /// dispatched and the chunked-scalar kernel alike.
    #[test]
    fn chunked_cosine_keeps_the_degenerate_conventions() {
        let z = [0.0f32; 12];
        let v: Vec<f32> = (0..12).map(|i| i as f32 - 4.0).collect();
        let mut nv = [0.0f32];
        segment_norms(&v, 12, &[0], &mut nv);
        let (nz, mut c) = ([0.0f32], [9.0f32]);
        for cosines in [segment_cosines::<f32>, segment_cosines_scalar::<f32>] {
            cosines(&z, &z, 12, &[0], &nz, &nz, &mut c);
            assert_eq!(c, [1.0]);
            cosines(&z, &v, 12, &[0], &nz, &nv, &mut c);
            assert_eq!(c, [0.0]);
            cosines(&v, &v, 12, &[0], &nv, &nv, &mut c);
            assert!((0.9999..=1.0).contains(&c[0]), "{c:?}");
        }
    }

    /// The eight-segment AVX2 pass (eight full segments of a width that
    /// is a multiple of 8) equals the chunked-scalar dot of each segment
    /// bit for bit.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn chunked_dot_avx2_matches_scalar_bitwise() {
        if !f16c_active() {
            return; // host without AVX2 + F16C: nothing to compare
        }
        // Values span magnitudes so accumulation-order differences
        // would show; eight full segments take one pass.
        for seg in [8usize, 16, 32, 104] {
            let len = 8 * seg;
            let a: Vec<f32> = (0..len)
                .map(|i| ((i as f32 + 0.5) * 0.7).sin() * (10.0f32).powi((i % 7) as i32 - 3))
                .collect();
            let b: Vec<f32> = (0..len).map(|i| ((i as f32) * 1.3).cos()).collect();
            let mut simd = [0.0f32; 8];
            segment_dots(&a, &b, seg, &[0, 1, 2, 3, 4, 5, 6, 7], &mut simd);
            for (s, d) in simd.iter().enumerate() {
                let r = s * seg..(s + 1) * seg;
                let scalar = dot_chunked_scalar(&a[r.clone()], &b[r]);
                assert_eq!(d.to_bits(), scalar.to_bits(), "seg {seg}, segment {s}");
            }
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
