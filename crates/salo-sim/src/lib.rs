//! Cycle-level simulator of the SALO spatial accelerator (§5 of the paper).
//!
//! The accelerator is a `32 x 32` PE array with diagonal key/value
//! streaming, one global PE row, one global PE column and a weighted-sum
//! module per PE row (Fig. 5). Every PE owns a fixed-point MAC reused
//! across the five pipeline stages of Fig. 6:
//!
//! 1. `Q x K^T` in an output-stationary systolic flow;
//! 2. piecewise-linear exponential (Softermax-style LUT);
//! 3. left-to-right row accumulation, one LUT reciprocal at the row edge,
//!    broadcast of the inverse;
//! 4. normalization multiply;
//! 5. `S' x V` in a weight-stationary flow, merged across window splits by
//!    the weighted-sum module (Eq. 2).
//!
//! The simulator has two faces over one
//! [`ExecutionPlan`](salo_scheduler::ExecutionPlan):
//!
//! * [`SpatialAccelerator::execute`] — *functional*: computes real outputs
//!   in the accelerator's exact fixed-point arithmetic, validated against
//!   the golden kernel in `salo-kernels`. The hot form is
//!   [`SpatialAccelerator::execute_lowered`], which consumes a
//!   [`LoweredPlan`] (the plan resolved once into flat pass programs) and
//!   a reusable [`ExecScratch`], making steady-state execution
//!   allocation-free;
//! * [`SpatialAccelerator::estimate`] — *timing*: closed-form cycle
//!   accounting per the five-stage schedule, with pipelined pass overlap
//!   (the default; matches the paper's >75 % utilization on Longformer)
//!   or fully serialized passes (ablation), plus the Table 1 power/area
//!   energy model;
//! * [`SpatialAccelerator::execute_step`] — *streaming decode*: one
//!   generated token per call against a session's persistent quantized
//!   K/V arenas ([`DecodeState`]), through a step-indexed re-bucketing of
//!   the lowered program ([`DecodePlan`]) that keeps every row
//!   bit-identical to the causal-prefill oracle.
//!
//! Paper-substitution note: SALO's artifact is Chisel RTL synthesized at
//! 45 nm; its performance numbers come from a cycle-accurate model extended
//! from Sanger's. This simulator *is* that model, re-derived: arithmetic is
//! bit-deterministic, cycles follow the five-stage schedule, and power/area
//! are the paper's synthesis constants.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bandwidth;
mod buffers;
mod config;
mod cycles;
mod decode;
mod energy;
mod error;
mod exec;
mod lower;
mod report;
mod scaling;
mod systolic;
mod timeline;
mod traffic;

pub use bandwidth::{bandwidth_report, BandwidthReport, DEFAULT_PORT_BYTES_PER_CYCLE};
pub use buffers::BufferAnalysis;
pub use config::{AcceleratorConfig, BufferConfig, TimingParams};
pub use cycles::{CycleBreakdown, CycleModel};
pub use decode::{
    BatchStep, DecodePlan, DecodeState, KvPage, KvPagePool, KvPoolStats, StepOutput,
    DEFAULT_PAGE_ROWS,
};
pub use energy::EnergyModel;
pub use error::SimError;
pub use exec::{ExecScratch, ExecutionOutput, SpatialAccelerator};
pub use lower::{KeySpan, LoweredOp, LoweredOpKind, LoweredPlan, OpKeys};
pub use report::{ExecutionReport, TimingReport, UtilizationReport};
pub use salo_trace::StageProfile;
pub use scaling::{AreaPowerEstimate, AreaPowerModel};
pub use systolic::{PassTrace, SystolicArray};
pub use timeline::{PassSlot, Timeline};
pub use traffic::TrafficReport;
