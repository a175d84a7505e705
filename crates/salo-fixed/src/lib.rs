//! Fixed-point arithmetic for the SALO accelerator datapath.
//!
//! SALO (DAC 2022, §5.1/§6.4) computes attention in low-precision fixed
//! point: query/key/value elements are quantized to 8 bits with 4 fraction
//! bits, products are accumulated in wider registers, the exponential of
//! softmax is a piecewise-linear approximation evaluated from two lookup
//! tables (slope and y-intercept, following Softermax), and the softmax
//! denominator is inverted once per row with a lookup-table reciprocal
//! instead of per-PE dividers. Outputs are 16-bit fixed point.
//!
//! This crate provides that arithmetic as reusable, bit-deterministic
//! building blocks:
//!
//! * [`Fix8x4`], [`Fix16x8`] — storage formats (8-bit/4-frac inputs,
//!   16-bit/8-frac outputs);
//! * [`qk_mac`], [`sv_mac`] — the two MAC flavours of the PE datapath, and
//!   [`qk_dot_rows`], [`sv_rows_mac`] — the same arithmetic swept over all
//!   the keys of one op, specialised by head dimension;
//! * [`ExpLut`] — the piecewise-linear `exp` unit (stage 2);
//! * [`RecipUnit`] and [`Recip`] — the normalized reciprocal unit (stage 3);
//! * [`fixed_softmax`] — the full fixed-point softmax a PE row performs;
//! * [`merge_part_into`] — the weighted-sum module's renormalization
//!   (Eq. 2) of a stage-5 part into its row's accumulator, and
//!   [`merge_partials`] the same for two [`PartialRow`]s;
//! * [`quantize`](fn@quantize) / [`dequantize`] and [`QuantizationReport`]
//!   — conversion between `f32` tensors and the accelerator formats.
//!
//! # Example
//!
//! ```
//! use salo_fixed::{fixed_softmax, ExpLut, Fix8x4, RecipUnit};
//!
//! let exp = ExpLut::new(32);
//! let recip = RecipUnit::new(64);
//! // Scores in Q.8 fixed point (raw = value * 256).
//! let scores = vec![256, 512, 0]; // 1.0, 2.0, 0.0
//! let probs = fixed_softmax(&scores, &exp, &recip)?;
//! let total: f64 = probs.iter().map(|&p| p as f64 / 32768.0).sum();
//! assert!((total - 1.0).abs() < 0.01);
//! # Ok::<(), salo_fixed::FixedError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod exp;
mod format;
mod mac;
mod quantize;
mod recip;
mod renorm;
mod softmax;

pub use error::FixedError;
pub use exp::{ExpLut, EXP_FRAC};
pub use format::{Fix16x8, Fix8x4};
pub use mac::{
    qk_dot, qk_dot_rows, qk_mac, sv_mac, sv_row_mac, sv_row_mac_i32, sv_rows_mac, sv_rows_mac_add,
    MacSaturation, QK_DOT_SAFE_DIM, SV_I32_SAFE_KEYS,
};
pub use quantize::{dequantize, quantize, quantize_iter, quantize_with_scale, QuantizationReport};
pub use recip::{Recip, RecipUnit};
pub use renorm::{merge_part_into, merge_partials, merge_partials_into, merge_weights, PartialRow};
pub use softmax::{
    fixed_softmax, fixed_softmax_f64, fixed_softmax_parts, fixed_softmax_parts_into, softmax_f64,
    PROB_FRAC, PROB_ONE,
};

/// Fraction bits of the Q.8 score/exponential domain used across the
/// datapath (scores after the QK^T stage, exp outputs, row sums).
pub const SCORE_FRAC: u32 = 8;

/// Fraction bits of the stage-5 output accumulator: probability (Q.15)
/// times value (Q.4) products carry 19 fraction bits.
pub const OUT_ACC_FRAC: u32 = 19;
