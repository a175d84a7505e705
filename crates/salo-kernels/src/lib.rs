//! The matrices, inputs and exact `f32` reference kernel the SALO stack
//! serves with:
//!
//! * [`Matrix`] — a small row-major matrix type with the operations the
//!   kernels need (no external linear-algebra dependency);
//! * [`sparse_attention`] — `softmax(Q K^T * scale) V` restricted to a
//!   [`HybridPattern`](salo_patterns::HybridPattern), in exact `f32`, one
//!   head at a time (a layer's heads run through `salo-core`'s
//!   `ReferenceEngine`, which loops this kernel at `1/sqrt(d)`);
//! * [`Qkv`] and [`gaussian_matrix`] — deterministic workload generation.
//!
//! The paper's dense baseline and the fixed-point golden model live with
//! the rest of the evaluation, in `salo-paper`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod matrix;
mod qkv;
mod rng;
mod sparse;

pub use error::KernelError;
pub use matrix::Matrix;
pub use qkv::Qkv;
pub use rng::{gaussian_matrix, gaussian_vec, NormalSampler};
pub use sparse::sparse_attention;
