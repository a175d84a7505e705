//! Q-format fixed-point storage types.
//!
//! Each type is a transparent wrapper over an integer with an implied binary
//! point: `value = raw / 2^FRAC`. Conversions from `f32` round to nearest
//! and saturate at the representable range — the behaviour of the
//! quantization hardware in front of SALO's buffers.

/// The integer value of an integer-valued `x` with `|x| <= 2^22`, without a
/// float-to-integer cast: adding `1.5 * 2^23` lands the sum where one ulp
/// is one, so the integer sits in the low mantissa bits, offset by the
/// bias's own bit pattern.
#[inline]
fn small_int_of(x: f32) -> i32 {
    const BIAS: f32 = 12_582_912.0; // 1.5 * 2^23
    ((x + BIAS).to_bits() as i32).wrapping_sub(BIAS.to_bits() as i32)
}

/// Declares a fixed-point wrapper type.
macro_rules! fixed_type {
    (
        $(#[$doc:meta])*
        $name:ident, $raw:ty, $wide:ty, $frac:expr
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        #[repr(transparent)]
        pub struct $name(pub(crate) $raw);

        impl $name {
            /// Number of fraction bits.
            pub const FRAC: u32 = $frac;
            /// Scale factor `2^FRAC`.
            pub const SCALE: f32 = (1u64 << $frac) as f32;
            /// Largest representable value.
            pub const MAX: $name = $name(<$raw>::MAX);
            /// Smallest representable value.
            pub const MIN: $name = $name(<$raw>::MIN);
            /// Zero.
            pub const ZERO: $name = $name(0);
            /// One.
            pub const ONE: $name = $name(1 << $frac);

            /// Creates a value from its raw bit representation.
            #[must_use]
            pub const fn from_raw(raw: $raw) -> Self {
                Self(raw)
            }

            /// The raw bit representation.
            #[must_use]
            pub const fn raw(self) -> $raw {
                self.0
            }

            /// Quantizes an `f32`, rounding to nearest (ties away from
            /// zero) and saturating; NaN quantizes to zero.
            ///
            /// Branch-free, so bulk quantization (`iter().map(from_f32)`)
            /// vectorizes. The range is clamped in `f32` (NaN passes
            /// through the clamp and is zeroed after it); what is left is
            /// an integer-valued float, read straight out of the mantissa
            /// (`small_int_of`) — a float-to-integer `as` cast saturates,
            /// and the saturating form is scalarized element by element.
            #[inline]
            #[must_use]
            pub fn from_f32(value: f32) -> Self {
                let scaled = (value * Self::SCALE).round();
                let clamped = scaled.clamp(<$raw>::MIN as f32, <$raw>::MAX as f32);
                Self(small_int_of(if clamped.is_nan() { 0.0 } else { clamped }) as $raw)
            }

            /// Converts back to `f32` (exact: the mantissa always fits).
            #[must_use]
            pub fn to_f32(self) -> f32 {
                self.0 as f32 / Self::SCALE
            }

            /// Converts to `f64`.
            #[must_use]
            pub fn to_f64(self) -> f64 {
                self.0 as f64 / Self::SCALE as f64
            }

            /// Saturating addition.
            #[must_use]
            pub fn saturating_add(self, rhs: Self) -> Self {
                Self(self.0.saturating_add(rhs.0))
            }

            /// Saturating subtraction.
            #[must_use]
            pub fn saturating_sub(self, rhs: Self) -> Self {
                Self(self.0.saturating_sub(rhs.0))
            }

            /// Saturating fixed-point multiplication (same format).
            #[must_use]
            pub fn saturating_mul(self, rhs: Self) -> Self {
                let wide = (self.0 as $wide * rhs.0 as $wide) >> $frac;
                if wide > <$raw>::MAX as $wide {
                    Self::MAX
                } else if wide < <$raw>::MIN as $wide {
                    Self::MIN
                } else {
                    Self(wide as $raw)
                }
            }

            /// The quantization step (value of one LSB).
            #[must_use]
            pub const fn resolution() -> f32 {
                1.0 / Self::SCALE
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.to_f32())
            }
        }

        impl From<$name> for f32 {
            fn from(v: $name) -> f32 {
                v.to_f32()
            }
        }
    };
}

fixed_type!(
    /// 8-bit fixed point with 4 fraction bits — SALO's input format for
    /// query, key and value elements ("8 bits, 4 bits for fraction", §6.4).
    /// Range: `[-8.0, 7.9375]`, resolution `1/16`.
    Fix8x4,
    i8,
    i32,
    4
);

fixed_type!(
    /// 16-bit fixed point with 8 fraction bits — SALO's output format
    /// ("the output of SALO is in 16 bits", §6.4).
    /// Range: `[-128.0, 127.996]`, resolution `1/256`.
    Fix16x8,
    i16,
    i64,
    8
);

impl Fix16x8 {
    /// Converts a Q.19 stage-5 accumulator value to the 16-bit output
    /// format, rounding to nearest and saturating — the conversion at the
    /// PE row's output port.
    #[inline]
    #[must_use]
    pub fn from_q19_acc(acc: i64) -> Self {
        let shifted = (acc + (1 << 10)) >> 11; // 19 - 8 = 11 bits
        Self::from_raw(shifted.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The branching quantizer every format shipped with — the definition
    /// the branch-free `from_f32` is pinned against, per raw type.
    macro_rules! branching_from_f32 {
        ($raw:ty, $scale:expr, $value:expr) => {{
            let scaled = ($value * $scale).round();
            if scaled >= <$raw>::MAX as f32 {
                <$raw>::MAX
            } else if scaled <= <$raw>::MIN as f32 {
                <$raw>::MIN
            } else {
                scaled as $raw
            }
        }};
    }

    fn assert_matches_branching(value: f32) {
        let bits = value.to_bits();
        assert_eq!(
            Fix8x4::from_f32(value).raw(),
            branching_from_f32!(i8, Fix8x4::SCALE, value),
            "Fix8x4 at {value} ({bits:#010x})"
        );
        assert_eq!(
            Fix16x8::from_f32(value).raw(),
            branching_from_f32!(i16, Fix16x8::SCALE, value),
            "Fix16x8 at {value} ({bits:#010x})"
        );
    }

    #[test]
    fn branch_free_from_f32_matches_branching_form_on_edges() {
        for value in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0] {
            assert_matches_branching(value);
        }
        assert_eq!(Fix8x4::from_f32(f32::NAN).raw(), 0, "NaN quantizes to zero");
        // Every half-LSB tie of the 8-bit format, and one ulp either side.
        for k in i32::from(i8::MIN) - 2..=i32::from(i8::MAX) + 2 {
            let tie = (k as f32 + 0.5) / Fix8x4::SCALE;
            for value in [tie, f32::from_bits(tie.to_bits() + 1), f32::from_bits(tie.to_bits() - 1)]
            {
                assert_matches_branching(value);
            }
        }
        // Saturation edges of every format, one ulp either side.
        for edge in [
            i8::MAX as f32 / Fix8x4::SCALE,
            i8::MIN as f32 / Fix8x4::SCALE,
            i16::MAX as f32 / Fix16x8::SCALE,
            i16::MIN as f32 / Fix16x8::SCALE,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
        ] {
            for value in
                [edge, f32::from_bits(edge.to_bits() + 1), f32::from_bits(edge.to_bits() - 1)]
            {
                assert_matches_branching(value);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any bit pattern at all — subnormals, NaN payloads, huge
        /// magnitudes — quantizes as the branching form did.
        #[test]
        fn branch_free_from_f32_matches_branching_form_on_random_bits(bits in any::<u32>()) {
            assert_matches_branching(f32::from_bits(bits));
        }
    }

    #[test]
    fn constants() {
        assert_eq!(Fix8x4::FRAC, 4);
        assert_eq!(Fix8x4::ONE.raw(), 16);
        assert_eq!(Fix16x8::ONE.raw(), 256);
        assert!((Fix8x4::resolution() - 0.0625).abs() < f32::EPSILON);
    }

    #[test]
    fn f32_round_trip_on_grid() {
        for raw in i8::MIN..=i8::MAX {
            let v = Fix8x4::from_raw(raw);
            assert_eq!(Fix8x4::from_f32(v.to_f32()), v);
        }
    }

    #[test]
    fn rounding_to_nearest() {
        // 0.03 * 16 = 0.48 -> 0; 0.04 * 16 = 0.64 -> 1
        assert_eq!(Fix8x4::from_f32(0.03).raw(), 0);
        assert_eq!(Fix8x4::from_f32(0.04).raw(), 1);
        assert_eq!(Fix8x4::from_f32(-0.04).raw(), -1);
    }

    #[test]
    fn saturation_at_range_edges() {
        assert_eq!(Fix8x4::from_f32(100.0), Fix8x4::MAX);
        assert_eq!(Fix8x4::from_f32(-100.0), Fix8x4::MIN);
        assert_eq!(Fix8x4::MAX.saturating_add(Fix8x4::ONE), Fix8x4::MAX);
        assert_eq!(Fix8x4::MIN.saturating_sub(Fix8x4::ONE), Fix8x4::MIN);
        assert_eq!(Fix16x8::from_f32(1e9), Fix16x8::MAX);
    }

    #[test]
    fn q19_conversion_rounds_and_saturates() {
        assert_eq!(Fix16x8::from_q19_acc(0).raw(), 0);
        // 1.0 in Q.19 -> 256 in Q.8.
        assert_eq!(Fix16x8::from_q19_acc(1 << 19).raw(), 256);
        // Half LSB rounds up: (1 << 10) is exactly the rounding threshold.
        assert_eq!(Fix16x8::from_q19_acc(1 << 10).raw(), 1);
        assert_eq!(Fix16x8::from_q19_acc((1 << 10) - 1).raw(), 0);
        assert_eq!(Fix16x8::from_q19_acc(i64::MAX / 2), Fix16x8::MAX);
        assert_eq!(Fix16x8::from_q19_acc(i64::MIN / 2), Fix16x8::MIN);
    }

    #[test]
    fn range_of_input_format_matches_paper() {
        // Q4.4-style: [-8, 7.9375]
        assert!((Fix8x4::MIN.to_f32() + 8.0).abs() < f32::EPSILON);
        assert!((Fix8x4::MAX.to_f32() - 7.9375).abs() < f32::EPSILON);
    }

    #[test]
    fn multiplication() {
        let a = Fix8x4::from_f32(1.5);
        let b = Fix8x4::from_f32(2.0);
        assert!((a.saturating_mul(b).to_f32() - 3.0).abs() < f32::EPSILON);
        // Saturates instead of wrapping.
        let big = Fix8x4::from_f32(7.9);
        assert_eq!(big.saturating_mul(big), Fix8x4::MAX);
        let neg = Fix8x4::from_f32(-7.9);
        assert_eq!(neg.saturating_mul(big), Fix8x4::MIN);
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(Fix8x4::from_f32(1.5).to_string(), "1.5");
        assert_eq!(format!("{:?}", Fix8x4::ZERO), "Fix8x4(0)");
    }

    #[test]
    fn f32_conversion_trait() {
        let x: f32 = Fix16x8::from_f32(3.25).into();
        assert!((x - 3.25).abs() < f32::EPSILON);
    }
}
