//! # SALO — hybrid sparse attention acceleration, reproduced in Rust
//!
//! This crate is the façade of a from-scratch reproduction of
//! *SALO: An Efficient Spatial Accelerator Enabling Hybrid Sparse Attention
//! Mechanisms for Long Sequences* (DAC 2022). It re-exports the workspace
//! sub-crates; [`baselines`], [`models`] and [`quant`] are modules of
//! [`salo_paper`], the paper's evaluation, and the oracles and load
//! generators that [`kernels`], [`core`] and [`serve`] also export are its
//! [`oracle`](salo_paper::oracle) module's:
//!
//! | module | contents |
//! |---|---|
//! | [`patterns`] | hybrid sparse attention patterns (windows + globals) |
//! | [`fixed`] | the accelerator's fixed-point arithmetic |
//! | [`kernels`] | matrices and seeded Q/K/V, plus the exact sparse reference and the paper's dense and fixed-point golden kernels |
//! | [`scheduler`] | the data scheduler (splitting, reordering, Eq. 2 merge) |
//! | [`sim`] | the cycle-level spatial accelerator simulator |
//! | [`baselines`] | CPU / GPU / Sanger performance and energy models |
//! | [`models`] | Longformer / ViL / BERT workload configurations |
//! | [`quant`] | the quantization accuracy study (Table 3) |
//! | [`core`] | the unified engine API (`AttentionRequest` over pluggable `Engine` backends) and the `Salo` façade, plus the `f32` reference engine, direct decode sessions and plan validation |
//! | [`serve`] | concurrent serving runtime: plan cache, one-hop routing, a worker pool of engines consuming typed requests, pinned decode sessions; plus the prefill and decode-session load generators |
//! | [`gateway`] | the network front door: length-prefixed binary wire protocol over TCP, per-tenant admission control and deficit-round-robin fairness, graceful drain |
//! | [`trace`] | zero-dependency observability: spans with Perfetto (Chrome trace JSON) export, mergeable metrics, stage-level kernel profiling |
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```
//! use salo::core::Salo;
//! use salo::patterns::{longformer, AttentionShape};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pattern = longformer(256, 32, 1)?;
//! let shape = AttentionShape::new(256, 16, 1)?;
//! let salo = Salo::default_config();
//! let plan = salo.compile(&pattern, &shape)?;
//! let report = salo.estimate(&plan);
//! assert!(report.cycles.total > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

/// Hybrid sparse attention patterns. See [`salo_patterns`].
pub mod patterns {
    pub use salo_patterns::*;
}

/// Fixed-point arithmetic. See [`salo_fixed`].
pub mod fixed {
    pub use salo_fixed::*;
}

/// Matrices, inputs and the reference attention kernels. See
/// [`salo_kernels`]; the exact sparse reference, the dense baseline and the
/// fixed-point golden model are [`salo_paper`]'s.
pub mod kernels {
    pub use salo_kernels::*;
    pub use salo_paper::oracle::{on_grid_attention, sparse_attention, ON_GRID_BOUND};
    pub use salo_paper::{
        dense_attention, fixed_sparse_attention, FixedAttention, FixedAttentionOutput,
    };
}

/// The data scheduler. See [`salo_scheduler`].
pub mod scheduler {
    pub use salo_scheduler::*;
}

/// The spatial accelerator simulator. See [`salo_sim`].
pub mod sim {
    pub use salo_sim::*;
}

/// Baseline device models. See [`salo_paper::baselines`].
pub mod baselines {
    pub use salo_paper::baselines::*;
}

/// Workload model configurations. See [`salo_paper::models`].
pub mod models {
    pub use salo_paper::models::*;
}

/// Quantization accuracy experiments. See [`salo_paper::quant`].
pub mod quant {
    pub use salo_paper::quant::*;
}

/// The top-level accelerator API. See [`salo_core`]; the reference
/// engine, direct decode sessions and plan validation are
/// [`salo_paper::oracle`]'s.
pub mod core {
    pub use salo_core::*;
    pub use salo_paper::oracle::{
        validate, DecodeSession, ReferenceEngine, ValidationConfig, ValidationReport,
    };
}

/// The concurrent serving runtime. See [`salo_serve`]; the load
/// generators are [`salo_paper::oracle`]'s.
pub mod serve {
    pub use salo_paper::oracle::{GenerationShape, GenerationTraffic, TrafficMix};
    pub use salo_serve::*;
}

/// The network serving front door. See [`salo_gateway`].
pub mod gateway {
    pub use salo_gateway::*;
}

/// Observability: span tracing, metrics, kernel-stage profiling. See
/// [`salo_trace`].
pub mod trace {
    pub use salo_trace::*;
}
