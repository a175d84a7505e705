//! The matrices and inputs the SALO stack serves with:
//!
//! * [`Matrix`] — a small row-major matrix type with the operations the
//!   kernels need (no external linear-algebra dependency);
//! * [`Qkv`] and [`gaussian_matrix`] — deterministic workload generation.
//!
//! The exact `f32` sparse reference, the paper's dense baseline and the
//! fixed-point golden model live with the rest of the evaluation, in
//! `salo-paper`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod matrix;
mod qkv;
mod rng;

pub use error::KernelError;
pub use matrix::Matrix;
pub use qkv::Qkv;
pub use rng::{gaussian_matrix, gaussian_vec, NormalSampler};
