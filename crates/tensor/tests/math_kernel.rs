//! The synthesis kernel's determinism contract, property-tested:
//!
//! * **Bit-identity** — `box_muller_fill` produces the *same bits* on
//!   the chunked-scalar fallback, the runtime-dispatched path and the
//!   explicit AVX2 and AVX-512 tiers, for random seeds × widths
//!   (sweeping the 16-lane body, the 8-lane pass and every scalar tail
//!   length) × chunk offsets (a fill split at any point, continued with
//!   the advanced seed, equals the unsplit fill). The run names the
//!   tiers it could prove once on stderr, since a host without AVX-512
//!   skips that leg.
//! * **Distribution sanity** — the fixed-polynomial Box–Muller still
//!   produces standard normals (mean/variance/symmetry bounds over a
//!   large sample).
//!
//! These tests are what lets the rest of the workspace treat the
//! kernel (not libm) as *the* pinned reference: any drift between
//! paths or across widths fails here first.

use focus_tensor::math::{
    box_muller_fill, box_muller_fill_scalar, cosine_from_dot, dot_chunked_scalar, f16_round_fill,
    f16_round_fill_scalar, fixed_ln, int8_round_fill, int8_round_fill_scalar, normal_from_raw,
    quant_absmax, quant_absmax_scalar, segment_cosines, segment_cosines_scalar, segment_dots,
    segment_norms, segment_norms_scalar, splitmix_mix, GAMMA,
};
use proptest::prelude::*;

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: value {i} diverged ({x} vs {y})"
        );
    }
}

/// Each SIMD tier the host has reproduces `scalar` (the chunked-scalar
/// fill of `scalar.len()` values at `seed`). The first call reports on
/// stderr which tiers this run proved, bypassing the harness's output
/// capture so a green `cargo test` names them.
fn assert_simd_tiers_match(seed: u64, scalar: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        use focus_tensor::math::{box_muller_fill_avx2, box_muller_fill_avx512};
        type Tier = fn(u64, &mut [f32]) -> bool;
        let tiers: [(&str, Tier); 2] = [
            ("avx512", box_muller_fill_avx512),
            ("avx2", box_muller_fill_avx2),
        ];
        let mut proved = Vec::new();
        for (name, fill) in tiers {
            let mut out = vec![0.0f32; scalar.len()];
            if fill(seed, &mut out) {
                assert_bits_eq(&out, scalar, &format!("{name} vs scalar"));
                proved.push(name);
            }
        }
        static REPORT: std::sync::Once = std::sync::Once::new();
        REPORT.call_once(|| {
            use std::io::Write;
            let proved = if proved.is_empty() {
                vec!["none"]
            } else {
                proved
            };
            let _ = writeln!(
                std::io::stderr(),
                "box_muller_fill SIMD tiers proved against scalar: {}",
                proved.join(", ")
            );
        });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (seed, scalar);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SEC noise-group shape: eight values from an arbitrary seed,
    /// one 8-lane pass on either SIMD tier and no scalar tail.
    #[test]
    fn box_muller_noise_group_is_bit_identical(seed in 0u64..u64::MAX) {
        let mut scalar = [0.0f32; 8];
        box_muller_fill_scalar(seed, &mut scalar);
        let mut dispatched = [0.0f32; 8];
        box_muller_fill(seed, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "noise group dispatched vs scalar");
        assert_simd_tiers_match(seed, &scalar);
    }

    /// Scalar ≡ dispatched ≡ AVX2 ≡ AVX-512 for the Box–Muller fill, and a fill
    /// split at any offset (seed advanced by 2·offset·γ) reproduces
    /// the unsplit stream — chunk boundaries are invisible.
    #[test]
    fn box_muller_paths_are_bit_identical(
        seed in 0u64..u64::MAX,
        width in 1usize..70,
        split in 0usize..70,
    ) {
        let mut scalar = vec![0.0f32; width];
        box_muller_fill_scalar(seed, &mut scalar);

        let mut dispatched = vec![0.0f32; width];
        box_muller_fill(seed, &mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "dispatched vs scalar");

        assert_simd_tiers_match(seed, &scalar);

        // Position-addressability: fill [0, split) and [split, width)
        // as two independent calls.
        let split = split.min(width);
        let mut parts = vec![0.0f32; width];
        box_muller_fill(seed, &mut parts[..split]);
        let advanced = seed.wrapping_add(GAMMA.wrapping_mul(2 * split as u64));
        box_muller_fill(advanced, &mut parts[split..]);
        assert_bits_eq(&parts, &scalar, "split fill vs whole fill");

        // And each value matches the one-value reference.
        for (i, &v) in scalar.iter().enumerate() {
            let n = (2 * i + 1) as u64;
            let r1 = splitmix_mix(seed.wrapping_add(GAMMA.wrapping_mul(n)));
            let r2 = splitmix_mix(seed.wrapping_add(GAMMA.wrapping_mul(n + 1)));
            prop_assert_eq!(v.to_bits(), normal_from_raw(r1, r2).to_bits());
        }
    }

    /// Scalar ≡ dispatched ≡ F16C for the batched fp16 round-trip over
    /// raw 32-bit patterns — every float class (normals across the
    /// whole exponent range, subnormals, zeros, infinities, NaNs with
    /// arbitrary payloads) must round identically on every path.
    #[test]
    fn f16_round_paths_are_bit_identical(
        patterns in proptest::collection::vec(0u32..u32::MAX, 1..40),
    ) {
        let xs: Vec<f32> = patterns.iter().map(|&b| f32::from_bits(b)).collect();
        let mut scalar = xs.clone();
        f16_round_fill_scalar(&mut scalar);

        let mut dispatched = xs.clone();
        f16_round_fill(&mut dispatched);
        assert_bits_eq(&dispatched, &scalar, "f16 dispatched vs scalar");

        #[cfg(target_arch = "x86_64")]
        {
            let mut f16c = xs;
            if focus_tensor::math::f16_round_fill_f16c(&mut f16c) {
                assert_bits_eq(&f16c, &scalar, "f16 f16c vs scalar");
            }
        }
    }

    /// The lane-chunked dot the similarity matcher scores with, reached
    /// as one segment spanning the row: the dispatched and the
    /// chunked-scalar one-segment dot, norm and cosine equal the
    /// chunked-scalar kernel bit for bit, across every tail length and
    /// a wide magnitude spread (where a different accumulation order
    /// would change last bits).
    #[test]
    fn dot_chunked_paths_are_bit_identical(
        pairs in proptest::collection::vec((-8.0f32..8.0, -8.0f32..8.0), 1..70),
        exp in -20i32..20,
    ) {
        let scale = (exp as f32).exp2();
        let a: Vec<f32> = pairs.iter().map(|p| p.0 * scale).collect();
        let b: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        let n = a.len();

        let scalar = dot_chunked_scalar(&a, &b);
        let mut one = [0.0f32];
        segment_dots(&a, &b, n, &[0], &mut one);
        prop_assert_eq!(one[0].to_bits(), scalar.to_bits());

        // The norm and cosine built on it inherit the identity; the
        // cosine stays clamped and respects the zero conventions.
        let (na, nb) = ([dot_chunked_scalar(&a, &a).sqrt()], [dot_chunked_scalar(&b, &b).sqrt()]);
        for norms in [segment_norms::<f32>, segment_norms_scalar::<f32>] {
            norms(&a, n, &[0], &mut one);
            prop_assert_eq!(one[0].to_bits(), na[0].to_bits());
        }
        for cosines in [segment_cosines::<f32>, segment_cosines_scalar::<f32>] {
            cosines(&a, &b, n, &[0], &na, &nb, &mut one);
            let cos = one[0];
            prop_assert_eq!(cos.to_bits(), cosine_from_dot(scalar, na[0], nb[0]).to_bits());
            if na[0] == 0.0 && nb[0] == 0.0 {
                prop_assert_eq!(cos, 1.0);
            } else if na[0] == 0.0 || nb[0] == 0.0 {
                prop_assert_eq!(cos, 0.0);
            } else {
                prop_assert!((-1.0..=1.0).contains(&cos));
            }
        }
    }

    /// Scalar ≡ dispatched for the segment-addressed dot the gather
    /// sweep scores with: every listed segment's dot must equal the
    /// single chunked-scalar kernel on that segment bit for bit, across
    /// every width tail, segment widths around the 8-lane chunk (ragged
    /// last segments, segment counts sweeping the 8-segment group
    /// boundary), random index lists, and a wide magnitude spread;
    /// unlisted slots stay untouched.
    #[test]
    fn segment_dot_paths_are_bit_identical(
        row in proptest::collection::vec(-8.0f32..8.0, 0..300),
        seg_pick in 0usize..6,
        seed in 0u32..1000,
        exp in -20i32..20,
        every in 1usize..4,
    ) {
        const UNTOUCHED: f32 = 0.125;
        let seg = [1usize, 5, 8, 16, 32, 33][seg_pick];
        let scale = (exp as f32).exp2();
        let width = row.len();
        let other: Vec<f32> = (0..width)
            .map(|i| {
                let h = (i * 31 + seed as usize) % 97;
                (h as f32 / 48.5 - 1.0) * scale
            })
            .collect();
        let count = width.div_ceil(seg);
        // Every `every`-th segment, last first, so groups mix ragged
        // and full segments in either order.
        let segs: Vec<usize> = (0..count).rev().filter(|s| s % every == 0).collect();

        let mut dispatched = vec![UNTOUCHED; count];
        segment_dots(&row, &other, seg, &segs, &mut dispatched);
        for (s, got) in dispatched.iter().enumerate() {
            let want = if segs.contains(&s) {
                let r = s * seg..((s + 1) * seg).min(width);
                dot_chunked_scalar(&row[r.clone()], &other[r])
            } else {
                UNTOUCHED
            };
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }

        let mut norms = vec![UNTOUCHED; count];
        segment_norms(&row, seg, &segs, &mut norms);
        let mut norms_scalar = vec![UNTOUCHED; count];
        segment_norms_scalar(&row, seg, &segs, &mut norms_scalar);
        assert_bits_eq(&norms, &norms_scalar, "segment norms dispatched vs scalar");
    }

    /// Scalar ≡ dispatched for the quantiser's absmax reduction and the
    /// whole-row int8 round-trip, over raw 32-bit patterns — normals,
    /// subnormals, signed zeros, infinities and NaNs must all reduce
    /// and round identically (`f32::max` drops NaN from the absmax and
    /// the saturating `as i8` cast quantises it to zero).
    #[test]
    fn int8_round_trip_paths_are_bit_identical(
        patterns in proptest::collection::vec(0u32..u32::MAX, 1..70),
        exp in -30i32..30,
    ) {
        let xs: Vec<f32> = patterns.iter().map(|&b| f32::from_bits(b)).collect();

        let absmax = quant_absmax(&xs);
        prop_assert_eq!(absmax.to_bits(), quant_absmax_scalar(&xs).to_bits());

        let scale = (exp as f32).exp2();
        let mut scalar = xs.clone();
        int8_round_fill_scalar(&mut scalar, scale);
        let mut dispatched = xs;
        int8_round_fill(&mut dispatched, scale);
        assert_bits_eq(&dispatched, &scalar, "int8 round dispatched vs scalar");
    }

    /// The int8 rounder's half-integer ties break away from zero on
    /// every path, exactly like `f32::round`.
    #[test]
    fn int8_round_breaks_ties_away_from_zero(
        halves in proptest::collection::vec(-255i32..=255, 1..40),
        exp in -8i32..8,
    ) {
        let scale = (exp as f32).exp2();
        // v/scale lands exactly on k + 0.5 for odd h = 2k+1.
        let xs: Vec<f32> = halves.iter().map(|&h| h as f32 / 2.0 * scale).collect();
        let mut scalar = xs.clone();
        int8_round_fill_scalar(&mut scalar, scale);
        let mut dispatched = xs.clone();
        int8_round_fill(&mut dispatched, scale);
        assert_bits_eq(&dispatched, &scalar, "int8 ties dispatched vs scalar");
        for (&h, got) in halves.iter().zip(&scalar) {
            let code = (h as f32 / 2.0).round().clamp(-127.0, 127.0);
            prop_assert_eq!(got.to_bits(), (code * scale).to_bits());
        }
    }
}

/// Distribution sanity: the kernel's output is still a standard
/// normal. Bounds are generous multiples of the expected sampling
/// error at n = 200_000 (σ_mean ≈ 0.0022, σ_var ≈ 0.0032).
#[test]
fn box_muller_output_is_standard_normal() {
    const N: usize = 200_000;
    let mut samples = vec![0.0f32; N];
    box_muller_fill(0xD15_7A1B_0715, &mut samples);

    let mean = samples.iter().map(|&v| v as f64).sum::<f64>() / N as f64;
    let var = samples
        .iter()
        .map(|&v| (v as f64 - mean).powi(2))
        .sum::<f64>()
        / N as f64;
    let negatives = samples.iter().filter(|&&v| v < 0.0).count() as f64 / N as f64;
    let within_one_sigma = samples.iter().filter(|&&v| v.abs() < 1.0).count() as f64 / N as f64;

    assert!(mean.abs() < 0.01, "mean {mean}");
    assert!((var - 1.0).abs() < 0.02, "variance {var}");
    assert!((negatives - 0.5).abs() < 0.01, "sign balance {negatives}");
    assert!(
        (within_one_sigma - 0.6827).abs() < 0.01,
        "P(|x| < 1) = {within_one_sigma}"
    );
    // The radius construction bounds every sample by sqrt(48·ln 2).
    let max = samples.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    assert!(max <= 5.78, "max |sample| {max}");
}

/// `fixed_ln` tracks libm within a few ulps across the full positive
/// normal range (sanity that the re-baseline did not change the
/// *function*, only its last bits).
#[test]
fn fixed_ln_tracks_libm() {
    let mut worst = 0.0f64;
    for i in 1..20_000u32 {
        let x = f32::from_bits(0x0080_0000 + i * 214_000); // spans normals
        if !x.is_finite() {
            break;
        }
        let got = fixed_ln(x) as f64;
        let want = (x as f64).ln();
        let tol = 4.0 * f64::EPSILON.max(f32::EPSILON as f64 * want.abs().max(1.0));
        let err = (got - want).abs();
        worst = worst.max(err / want.abs().max(1.0));
        assert!(err <= tol, "ln({x}): {got} vs {want}");
    }
    assert!(worst < 1e-6, "relative error {worst}");
}
