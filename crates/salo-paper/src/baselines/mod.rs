//! Baseline device models for the SALO evaluation (§6).
//!
//! The paper compares SALO against a server CPU (Intel Xeon E5-2630 v3,
//! MKL backend), a server GPU (GTX 1080Ti, cuDNN backend) and the Sanger
//! accelerator. We do not have that 2022 testbed, so this module provides
//! *calibrated analytical models*:
//!
//! * [`Device`] — a roofline-style latency model
//!   (`max(compute, memory) + overhead`) with per-execution-strategy
//!   parameters, anchored to the two latencies the paper reports for
//!   BERT-base attention on the GTX 1080Ti (9.20 ms at `n = 2048`,
//!   145.70 ms at `n = 8192`, §2.1) and to the relative throughputs its
//!   speedup figures imply. Energies use per-FLOP constants derived from
//!   the paper's energy-saving figures (~68 pJ/FLOP CPU, ~115 pJ/FLOP
//!   GPU — consistent with published 28–45 nm measurements);
//! * [`SangerModel`] — the §6.3 comparison: a `64 x 16` systolic array
//!   with a quadratic low-precision score-prediction step and 55–75 %
//!   utilization on irregular sparsity;
//! * [`host`] — *real measured* kernel timings on the machine running
//!   this module, used by the motivation experiment to demonstrate the
//!   quadratic-vs-linear scaling with actual wall-clock numbers.
//!
//! Every calibration constant is documented at its definition and
//! revisited in `EXPERIMENTS.md`.

mod device;
pub mod host;
mod related;
mod sanger;
mod workload;

pub use device::{cpu_xeon_e5_2630_v3, gtx_1080ti, Device};
pub use related::{A3Model, SpAttenModel};
pub use sanger::SangerModel;
pub use workload::{BaselineWorkload, ExecutionFamily};
