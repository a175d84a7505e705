//! The SALO paper's evaluation, reproduced: everything that measures the
//! accelerator rather than serves with it.
//!
//! | module | contents |
//! |---|---|
//! | [`baselines`] | CPU / GPU / Sanger / SpAtten / A3 performance and energy models, and host-measured dense attention |
//! | [`models`] | Longformer / ViL / BERT workload configurations (Table 2) and the numbers the paper reports |
//! | [`quant`] | the quantization accuracy study (Table 3) |
//! | [`experiment`] | Fig. 7's protocol: SALO against the CPU/GPU baselines per workload |
//! | [`render_table`] and friends | the table formatting the `paper` sections print with |
//!
//! and the two reference kernels the evaluation checks against:
//! [`dense_attention`], the vanilla `softmax(Q K^T * scale) V` of Fig. 1,
//! and [`fixed_sparse_attention`], the *golden model* of the accelerator's
//! arithmetic (Q.4 inputs, LUT exponential and reciprocal, 16-bit outputs,
//! keys accumulated in ascending order). `salo-sim`'s executor matches the
//! golden model bit for bit on unsplit rows and within merge tolerance
//! under window splitting (`tests/scheduler_sim.rs`).
//!
//! Each module of `src/bin/paper/` regenerates one table or figure of the
//! paper from this library. See `EXPERIMENTS.md` at the repository root
//! for the experiment index. Nothing on the serving path depends on this
//! crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
mod dense;
pub mod experiment;
mod fixed_attn;
pub mod models;
pub mod quant;
mod table;

pub use dense::dense_attention;
pub use experiment::{compare_workload, figure7_comparisons, Comparison};
pub use fixed_attn::{fixed_sparse_attention, FixedAttention, FixedAttentionOutput};
pub use table::{banner, fmt_ratio, fmt_time, render_table};
