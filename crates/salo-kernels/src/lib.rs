//! Reference attention kernels for the SALO reproduction.
//!
//! The SALO paper evaluates its accelerator against *software* attention:
//! the vanilla dense computation (Fig. 1) and the hybrid sparse mechanisms
//! of Longformer/ViL. This crate provides those kernels:
//!
//! * [`Matrix`] — a small row-major matrix type with the operations the
//!   kernels need (no external linear-algebra dependency);
//! * [`dense_attention`] — the exact `softmax(Q K^T / sqrt(d)) V` reference;
//! * [`sparse_attention`] — the same computation restricted to a
//!   [`HybridPattern`](salo_patterns::HybridPattern), in exact `f32`, one
//!   head at a time (a layer's heads run through `salo-core`'s
//!   `ReferenceEngine`, which loops this kernel at `1/sqrt(d)`);
//! * [`fixed_sparse_attention`] — the *golden model* of the accelerator's
//!   arithmetic: Q.4 quantized inputs, LUT exponential, LUT reciprocal,
//!   16-bit outputs, with the accelerator's accumulation order. The
//!   simulator in `salo-sim` must match this bit for bit on unsplit rows
//!   and within merge tolerance under window splitting;
//! * [`Qkv`] and [`gaussian_matrix`] — deterministic workload generation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod dense;
mod error;
mod fixed_attn;
mod matrix;
mod qkv;
mod rng;
mod sparse;

pub use dense::dense_attention;
pub use error::KernelError;
pub use fixed_attn::{fixed_sparse_attention, FixedAttention, FixedAttentionOutput};
pub use matrix::Matrix;
pub use qkv::Qkv;
pub use rng::{gaussian_matrix, gaussian_vec, NormalSampler};
pub use sparse::sparse_attention;
