//! The top-level SALO API.
//!
//! The public surface is the unified [`engine`] API: a typed
//! [`AttentionRequest`] (prefill, or the decode-session trio
//! open/step/close) executed by a backend implementing the object-safe
//! [`Engine`] trait. [`LoweredEngine`] (fast fixed point) is the one this
//! crate ships and the one the serving runtime runs; the `f32` accuracy
//! yardstick that implements the same trait lives in `salo-paper`'s
//! `oracle` module. The event-accurate systolic model is the
//! oracle the lowered engine is tested against, called directly through
//! `salo_sim`, not an engine. [`Salo`] is the thin façade over it:
//! configure an accelerator instance, *compile* a hybrid sparse attention
//! pattern into an execution plan (the data scheduler), hand out engines,
//! or *estimate* a plan (cycle/energy model).
//!
//! ```
//! use salo_core::{AttentionRequest, Engine, Salo};
//! use salo_kernels::Qkv;
//! use salo_patterns::{longformer, AttentionShape};
//!
//! # fn main() -> Result<(), salo_core::SaloError> {
//! let salo = Salo::default_config();
//! let pattern = longformer(256, 32, 1)?;
//! let shape = AttentionShape::new(256, 64, 2)?;
//!
//! // Estimate: compile once, ask the timing model.
//! let plan = salo.compile(&pattern, &shape)?;
//! let report = salo.estimate(&plan);
//! assert!(report.cycles.total > 0);
//!
//! // Execute: one typed request through the default engine.
//! let mut engine = salo.engine();
//! let handle = engine.prepare(&pattern, &shape)?;
//! let heads = Qkv::random_heads(&shape, 7);
//! let out = engine
//!     .execute(AttentionRequest::Prefill { pattern: handle, shape, heads })?
//!     .into_prefill()?;
//! assert_eq!(out.heads.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
mod error;
mod salo;

pub use engine::{
    AttentionRequest, AttentionResponse, Engine, FixedToken, HeadOutput, HeadStep, LoweredEngine,
    PatternHandle, PrefillOutput, SessionClosed, SessionId, SessionOpened, StepResult, Telemetry,
    TokenQkv,
};
pub use error::SaloError;
pub use salo::{CompiledPlan, MultiHeadRun, Salo};
pub use salo_sim::FixedQkv;
