//! Quantization accuracy experiments — the Table 3 reproduction.
//!
//! **Substitution note.** The paper fine-tunes pretrained Longformer/ViL
//! models with QPyTorch and evaluates on IMDB, Hyperpartisan and
//! ImageNet-1K. Neither the checkpoints nor the datasets are available
//! here, so this module demonstrates the same *claim* — that SALO's Q.4
//! inputs / 16-bit outputs do not meaningfully degrade task accuracy — on
//! controlled substitutes:
//!
//! * [`attention_error`] measures the raw attention-output error between
//!   the exact `f32` kernel and the bit-accurate fixed-point kernel on
//!   normalized (LayerNorm-like) inputs: SQNR, MSE, and how often the
//!   dominant output coordinate is preserved;
//! * [`run_task`] builds an end-to-end synthetic classification task whose
//!   labels depend on attention-pooled features, trains a logistic-
//!   regression head on `f32` features, and evaluates it with `f32` vs
//!   quantized attention (plus a quantization-aware retraining pass,
//!   mirroring the paper's fine-tuning);
//! * [`table3_rows`] packages three such tasks — Longformer-1D window
//!   (IMDB proxy), Longformer-1D with more globals (Hyperpartisan proxy)
//!   and a ViL-2D window (ImageNet proxy) — next to the paper's reported
//!   numbers.
//!
//! The expected outcome, as in the paper: quantized accuracy within a few
//! tenths of a point of the `f32` baseline.

mod bitwidth;
mod error_analysis;
mod logistic;
mod table3;
mod task;

pub use bitwidth::{sweep_fraction_bits, BitwidthPoint};
pub use error_analysis::{attention_error, AttentionErrorReport};
pub use logistic::LogisticHead;
pub use table3::{table3_rows, QuantTableRow};
pub use task::{run_task, TaskConfig, TaskResult};
