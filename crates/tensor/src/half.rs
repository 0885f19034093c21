//! Software emulation of IEEE 754 binary16 ("half precision", FP16).
//!
//! The Focus PE array multiplies FP16 operands and accumulates in FP32
//! (Table I: "FP16 Mul FP32 Acc"). To model that datapath faithfully
//! without an offline `half` crate, this module implements the standard
//! round-to-nearest-even `f32 → f16` conversion and the exact (lossless)
//! `f16 → f32` widening.
//!
//! The type is a thin `u16` wrapper: cheap to copy, hashable, and usable
//! as a storage format. Arithmetic is intentionally *not* implemented —
//! the accelerator never performs FP16 accumulation, so code that wants
//! math converts to `f32` first, mirroring the datapath.

/// An IEEE 754 binary16 value stored in its raw bit pattern.
///
/// The name mirrors the primitive-like role the type plays (akin to the
/// ecosystem-standard `half::f16`), hence the lowercase type name.
///
/// # Examples
///
/// ```
/// use focus_tensor::f16;
///
/// let x = f16::from_f32(1.0 / 3.0);
/// // binary16 has ~3 decimal digits of precision
/// assert!((x.to_f32() - 1.0 / 3.0).abs() < 1e-3);
/// ```
#[allow(non_camel_case_types)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(transparent)] // the SIMD kernels load rows of these as raw `u16` lanes
pub struct f16(u16);

const FRAC_BITS: u32 = 10;
const EXP_BIAS: i32 = 15;
const MAX_FINITE_F32: f32 = 65504.0;

impl f16 {
    /// Positive zero.
    pub const ZERO: f16 = f16(0);
    /// Positive one.
    pub const ONE: f16 = f16(0x3C00);
    /// Largest finite value (65504).
    pub const MAX: f16 = f16(0x7BFF);
    /// Smallest positive normal value (2⁻¹⁴).
    pub const MIN_POSITIVE: f16 = f16(0x0400);
    /// Positive infinity.
    pub const INFINITY: f16 = f16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: f16 = f16(0xFC00);
    /// A quiet NaN.
    pub const NAN: f16 = f16(0x7E00);
    /// Machine epsilon: the gap between 1.0 and the next representable
    /// value (2⁻¹⁰).
    pub const EPSILON: f32 = 9.765_625e-4;

    /// Creates an `f16` from its raw IEEE 754 binary16 bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        f16(bits)
    }

    /// Returns the raw IEEE 754 binary16 bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to `f16` with round-to-nearest-even, the rounding
    /// mode used by hardware FP16 converters (and by the paper's FP16
    /// PyTorch reference).
    ///
    /// Values above the finite range become ±infinity; subnormals are
    /// produced exactly where binary16 has them.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp32 = ((bits >> 23) & 0xFF) as i32;
        let frac32 = bits & 0x007F_FFFF;

        if exp32 == 0xFF {
            // Infinity or NaN. Preserve NaN payload presence.
            return if frac32 == 0 {
                f16(sign | 0x7C00)
            } else {
                f16(sign | 0x7E00)
            };
        }

        // Unbiased exponent of the f32 value.
        let unbiased = exp32 - 127;
        let target_exp = unbiased + EXP_BIAS;

        if target_exp >= 0x1F {
            // Overflows binary16 → infinity.
            return f16(sign | 0x7C00);
        }

        if target_exp <= 0 {
            // Subnormal (or zero) in binary16.
            if target_exp < -10 {
                // Too small even for subnormals: rounds to zero.
                return f16(sign);
            }
            // Implicit leading one joins the fraction, then we shift right
            // by the subnormal deficit with round-to-nearest-even. The
            // 24-bit mantissa carries value `mantissa × 2^(unbiased-23)`
            // and the subnormal grid step is 2⁻²⁴, so the right shift is
            // `-unbiased - 1`, in [14, 24] for unbiased ∈ [-25, -15].
            let mantissa = frac32 | 0x0080_0000;
            let shift = (-unbiased - 1) as u32;
            let halfway = 1u32 << (shift - 1);
            let mut frac16 = (mantissa >> shift) as u16;
            let remainder = mantissa & ((1u32 << shift) - 1);
            if remainder > halfway || (remainder == halfway && (frac16 & 1) == 1) {
                frac16 += 1; // may carry into the exponent: that is correct
            }
            return f16(sign | frac16);
        }

        // Normal number: round the 23-bit fraction to 10 bits.
        let shift = 23 - FRAC_BITS; // 13
        let halfway = 1u32 << (shift - 1);
        let mut frac16 = (frac32 >> shift) as u16;
        let mut exp16 = target_exp as u16;
        let remainder = frac32 & ((1u32 << shift) - 1);
        if remainder > halfway || (remainder == halfway && (frac16 & 1) == 1) {
            frac16 += 1;
            if frac16 == (1 << FRAC_BITS) as u16 {
                // Fraction overflowed into the exponent.
                frac16 = 0;
                exp16 += 1;
                if exp16 >= 0x1F {
                    return f16(sign | 0x7C00);
                }
            }
        }
        f16(sign | (exp16 << FRAC_BITS) | frac16)
    }

    /// Widens to `f32` exactly (every binary16 value is representable).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> FRAC_BITS) & 0x1F) as u32;
        let frac = (self.0 & 0x03FF) as u32;

        let bits = if exp == 0 {
            if frac == 0 {
                sign // signed zero
            } else {
                // Subnormal: value = ±frac × 2⁻²⁴. The product is a normal
                // f32 (≥ 2⁻²⁴), so computing it in f32 arithmetic is exact.
                let magnitude = frac as f32 * 2.0f32.powi(-24);
                return if sign == 0 { magnitude } else { -magnitude };
            }
        } else if exp == 0x1F {
            if frac == 0 {
                sign | 0x7F80_0000 // infinity
            } else {
                sign | 0x7FC0_0000 | (frac << 13) // NaN, payload preserved
            }
        } else {
            let exp32 = exp as i32 - EXP_BIAS + 127;
            sign | ((exp32 as u32) << 23) | (frac << 13)
        };
        f32::from_bits(bits)
    }

    /// Returns `true` if the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` if the value is finite (neither infinite nor NaN).
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }
}

impl From<f16> for f32 {
    fn from(value: f16) -> f32 {
        value.to_f32()
    }
}

impl core::fmt::Display for f16 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Rounds an `f32` through binary16 and back, i.e. the value an FP16
/// datapath would actually carry.
///
/// This is the workhorse used by the pipeline to model FP16 storage of
/// activations without changing the element type of every matrix.
///
/// # Examples
///
/// ```
/// use focus_tensor::half::round_to_f16;
///
/// assert_eq!(round_to_f16(2.0), 2.0); // powers of two are exact
/// assert_ne!(round_to_f16(0.1), 0.1); // 0.1 is not representable
/// ```
#[inline]
pub fn round_to_f16(value: f32) -> f32 {
    f16::from_f32(value).to_f32()
}

/// The largest finite magnitude representable in binary16.
pub const fn max_finite() -> f32 {
    MAX_FINITE_F32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(round_to_f16(x), x, "integer {i} must be exact in fp16");
        }
    }

    #[test]
    fn powers_of_two_round_trip_across_range() {
        let mut p = 1.0f32;
        // 2^-14 .. 2^15 are all normal binary16 values.
        for _ in 0..15 {
            assert_eq!(round_to_f16(p), p);
            assert_eq!(round_to_f16(1.0 / p), 1.0 / p);
            p *= 2.0;
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(f16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(f16::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(f16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(f16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(f16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(f16::from_f32(-0.0).to_bits(), 0x8000);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(f16::from_f32(1e9), f16::INFINITY);
        assert_eq!(f16::from_f32(-1e9), f16::NEG_INFINITY);
        // Just above the halfway point between 65504 and the (unrepresentable)
        // next step rounds to infinity.
        assert_eq!(f16::from_f32(65520.0), f16::INFINITY);
        // At or below the midpoint rounds down to MAX (ties-to-even keeps 65504).
        assert_eq!(f16::from_f32(65504.0), f16::MAX);
    }

    #[test]
    fn nan_propagates() {
        assert!(f16::from_f32(f32::NAN).is_nan());
        assert!(f16::NAN.to_f32().is_nan());
        assert!(!f16::INFINITY.is_nan());
        assert!(!f16::INFINITY.is_finite());
        assert!(f16::MAX.is_finite());
    }

    #[test]
    fn subnormals_are_represented() {
        // 2^-24 is the smallest positive subnormal.
        let tiny = 2.0f32.powi(-24);
        let h = f16::from_f32(tiny);
        assert_eq!(h.to_bits(), 0x0001);
        assert_eq!(h.to_f32(), tiny);
        // Half of it rounds to zero (ties-to-even: 0x0000 vs 0x0001 → even).
        assert_eq!(f16::from_f32(tiny / 2.0).to_bits(), 0x0000);
        // Largest subnormal.
        let largest_sub = 2.0f32.powi(-14) - 2.0f32.powi(-24);
        assert_eq!(f16::from_f32(largest_sub).to_bits(), 0x03FF);
        assert_eq!(f16::from_f32(largest_sub).to_f32(), largest_sub);
    }

    #[test]
    fn round_to_nearest_even_at_ties() {
        // 1.0 + eps/2 is exactly between 1.0 and 1.0+eps → rounds to even (1.0).
        let half_ulp = f16::EPSILON / 2.0;
        assert_eq!(round_to_f16(1.0 + half_ulp), 1.0);
        // 1.0 + 1.5*eps is between 1+eps and 1+2eps → rounds to even (1+2eps).
        assert_eq!(round_to_f16(1.0 + 3.0 * half_ulp), 1.0 + 2.0 * f16::EPSILON);
    }

    #[test]
    fn widening_is_exact_for_every_finite_pattern() {
        // Exhaustive: every one of the 2^16 bit patterns survives a
        // f16 → f32 → f16 round trip (NaNs compare by is_nan).
        for bits in 0u16..=u16::MAX {
            let h = f16::from_bits(bits);
            let back = f16::from_f32(h.to_f32());
            if h.is_nan() {
                assert!(back.is_nan());
            } else {
                assert_eq!(back.to_bits(), bits, "pattern {bits:#06x}");
            }
        }
    }

    #[test]
    fn rounding_error_is_bounded_for_normals() {
        // Relative error of one round trip is at most 2^-11 for normal values.
        let samples = [
            1.5e-3f32,
            0.17,
            1.0,
            std::f32::consts::PI,
            123.456,
            6.5e4 * 0.9,
        ];
        for &x in &samples {
            let r = round_to_f16(x);
            assert!(
                ((r - x) / x).abs() <= 2.0f32.powi(-11),
                "relative error too large for {x}"
            );
        }
    }

    #[test]
    fn display_matches_f32() {
        assert_eq!(format!("{}", f16::from_f32(1.5)), "1.5");
    }
}
