//! Quantization between `f32` tensors and the accelerator's input format.
//!
//! SALO quantizes the query, key and value matrices to 8-bit Q.4 fixed
//! point before loading them into its buffers (§6.4). The attention scale
//! factor `1/sqrt(d)` is folded into the query quantization (the hardware
//! has no separate scaling stage — Fig. 1's "Scale" happens here), so
//! [`quantize_with_scale`] is what the execution pipeline uses for `Q`.

use crate::format::Fix8x4;

/// `values` quantized to Q.4 8-bit fixed point one at a time, each
/// multiplied by `scale` before it is rounded: `1/sqrt(d)` for queries,
/// `1.0` for keys and values (`v * 1.0` is `v` for every `f32`, NaN
/// included as far as [`Fix8x4::from_f32`] can tell). The one rounding of
/// an input: the execution pipeline's loads, a decode token and a decode
/// prompt quantized where it arrives all go through it, so they agree bit
/// for bit.
pub fn quantize_iter(values: &[f32], scale: f32) -> impl Iterator<Item = Fix8x4> + '_ {
    values.iter().map(move |&v| Fix8x4::from_f32(v * scale))
}

/// Quantizes a slice of `f32` values to Q.4 8-bit fixed point.
#[must_use]
pub fn quantize(values: &[f32]) -> Vec<Fix8x4> {
    quantize_iter(values, 1.0).collect()
}

/// Quantizes after multiplying by `scale` (e.g. `1/sqrt(d)` for queries).
#[must_use]
pub fn quantize_with_scale(values: &[f32], scale: f32) -> Vec<Fix8x4> {
    quantize_iter(values, scale).collect()
}

/// Dequantizes back to `f32`.
#[must_use]
pub fn dequantize(values: &[Fix8x4]) -> Vec<f32> {
    values.iter().map(|v| v.to_f32()).collect()
}

/// Quality metrics of a quantization round trip.
///
/// Used by the Table 3 reproduction (`salo-paper`) to show that Q.4 inputs
/// keep attention outputs within a fraction of the decision margin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizationReport {
    /// Mean squared error between original and dequantized values.
    pub mse: f64,
    /// Largest absolute error.
    pub max_abs_error: f64,
    /// Signal-to-quantization-noise ratio in dB (`10 log10(P_sig/P_err)`).
    pub sqnr_db: f64,
    /// Number of inputs that saturated at the format's range.
    pub saturated: usize,
}

impl QuantizationReport {
    /// Measures the round-trip error of quantizing `values` to Q.4.
    ///
    /// Returns a zero-error report for an empty input.
    #[must_use]
    pub fn measure(values: &[f32]) -> Self {
        Self::measure_scaled(values, 1.0)
    }

    /// Measures round-trip error with a pre-scale (the dequantized values
    /// are divided by `scale` before comparison, so the report reflects the
    /// error in the original units).
    #[must_use]
    fn measure_scaled(values: &[f32], scale: f32) -> Self {
        if values.is_empty() {
            return Self { mse: 0.0, max_abs_error: 0.0, sqnr_db: f64::INFINITY, saturated: 0 };
        }
        let mut sq_err = 0.0f64;
        let mut sq_sig = 0.0f64;
        let mut max_abs = 0.0f64;
        let mut saturated = 0usize;
        for &v in values {
            let q = Fix8x4::from_f32(v * scale);
            if q == Fix8x4::MAX || q == Fix8x4::MIN {
                saturated += 1;
            }
            let back = q.to_f32() / scale;
            let err = (back - v) as f64;
            sq_err += err * err;
            sq_sig += (v as f64) * (v as f64);
            max_abs = max_abs.max(err.abs());
        }
        let n = values.len() as f64;
        let mse = sq_err / n;
        let sqnr_db = if sq_err > 0.0 { 10.0 * (sq_sig / sq_err).log10() } else { f64::INFINITY };
        Self { mse, max_abs_error: max_abs, sqnr_db, saturated }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_dequantize_round_trip_on_grid() {
        let values = vec![0.0f32, 0.0625, -0.125, 1.5, -7.9375];
        let back = dequantize(&quantize(&values));
        assert_eq!(values, back);
    }

    #[test]
    fn off_grid_error_bounded_by_half_lsb() {
        let values: Vec<f32> = (0..1000).map(|k| (k as f32) * 0.0071 - 3.5).collect();
        let report = QuantizationReport::measure(&values);
        assert!(report.max_abs_error <= 0.03125 + 1e-6, "max {}", report.max_abs_error);
        assert_eq!(report.saturated, 0);
    }

    #[test]
    fn saturation_counted() {
        let report = QuantizationReport::measure(&[100.0, -100.0, 0.5]);
        assert_eq!(report.saturated, 2);
        assert!(report.max_abs_error > 90.0);
    }

    #[test]
    fn scale_folding() {
        let d: f32 = 64.0;
        let scale = 1.0 / d.sqrt();
        let q = quantize_with_scale(&[8.0], scale);
        assert!((q[0].to_f32() - 1.0).abs() < 0.0625);
    }

    #[test]
    fn scaled_report_in_original_units() {
        // With scale 1/8, values up to 63 stay representable.
        let values = vec![40.0f32, -30.0, 10.0];
        let r = QuantizationReport::measure_scaled(&values, 1.0 / 8.0);
        assert_eq!(r.saturated, 0);
        assert!(r.max_abs_error <= 0.25 + 1e-6); // half LSB / scale
    }

    #[test]
    fn empty_input() {
        let r = QuantizationReport::measure(&[]);
        assert_eq!(r.mse, 0.0);
        assert!(r.sqnr_db.is_infinite());
    }

    #[test]
    fn sqnr_reasonable_for_unit_normal_range() {
        // Values in [-2, 2]: SQNR for a 1/16 step should exceed 30 dB.
        let values: Vec<f32> = (0..4000).map(|k| (k as f32) * 0.001 - 2.0).collect();
        let r = QuantizationReport::measure(&values);
        assert!(r.sqnr_db > 30.0, "sqnr {}", r.sqnr_db);
    }
}
