//! Deployment validation: prove a compiled plan is trustworthy before
//! committing silicon time to it.
//!
//! Users bringing custom hybrid patterns get three independent checks:
//! structural (every kept position scheduled exactly once), numerical
//! (simulated output tracks the exact `f32` reference within the
//! quantization budget), and physical (the working set against the
//! instance's buffers). [`validate`] runs all three and returns a single
//! report; `examples/custom_pattern.rs` shows the workflow.

use salo_core::{CompiledPlan, Salo, SaloError};
use salo_kernels::Qkv;
use salo_patterns::HybridPattern;
use salo_scheduler::verify_coverage;
use salo_sim::{BufferAnalysis, SpatialAccelerator};

use super::sparse_attention;

/// The outcome of validating a compiled plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Structural check: exactly-once coverage of the pattern.
    pub coverage_exact: bool,
    /// Positions missing/duplicated/spurious (zero when exact).
    pub coverage_defects: usize,
    /// Numerical check: worst absolute deviation from the `f32` reference
    /// on a probe execution.
    pub max_abs_error: f32,
    /// Whether the numerical check passed the tolerance.
    pub numerics_ok: bool,
    /// Fixed-point saturation events during the probe (0 is healthy).
    pub saturation_events: u64,
    /// Physical check: buffer working-set analysis.
    pub buffers: BufferAnalysis,
}

impl ValidationReport {
    /// All checks green.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.coverage_exact && self.numerics_ok && self.saturation_events == 0
    }
}

/// Validation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationConfig {
    /// Seed of the probe inputs.
    pub seed: u64,
    /// Numerical tolerance on `max |fixed - f32|` (default 0.35 — the
    /// Q.4 input budget on unit-normal data).
    pub tolerance: f32,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        Self { seed: 0xC0FFEE, tolerance: 0.35 }
    }
}

/// Runs the three checks on a compiled plan.
///
/// Cost: one `O(n^2)` coverage replay plus one probe execution — meant
/// for deployment-time validation of custom patterns, not inner loops.
///
/// # Errors
///
/// Propagates simulator/kernel errors from the probe execution.
pub fn validate(
    salo: &Salo,
    compiled: &CompiledPlan,
    pattern: &HybridPattern,
    config: ValidationConfig,
) -> Result<ValidationReport, SaloError> {
    // 1. Structural.
    let coverage = verify_coverage(&compiled.plan, pattern);
    let defects = coverage.missing.len() + coverage.duplicated.len() + coverage.spurious.len();

    // 2. Numerical probe (one head).
    let head = Qkv::random(compiled.shape.seq_len, compiled.shape.head_dim, config.seed);
    let scale = SpatialAccelerator::default_scale(compiled.shape.head_dim);
    let out = salo.accelerator().execute_lowered(
        &compiled.lowered,
        &head.q,
        &head.k,
        &head.v,
        scale,
        &mut salo_sim::ExecScratch::new(),
    )?;
    let reference = sparse_attention(pattern, &head.q, &head.k, &head.v, scale)?;
    let max_abs_error = out.output.max_abs_diff(&reference);

    // 3. Physical.
    let buffers = BufferAnalysis::analyze(salo.config(), &compiled.plan, compiled.shape.head_dim);

    Ok(ValidationReport {
        coverage_exact: coverage.is_exact(),
        coverage_defects: defects,
        max_abs_error,
        numerics_ok: max_abs_error < config.tolerance,
        saturation_events: out.report.saturation_events,
        buffers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_patterns::{longformer, AttentionShape, HybridPattern, Window};
    use salo_scheduler::HardwareMeta;
    use salo_sim::AcceleratorConfig;

    fn small_salo() -> Salo {
        let config =
            AcceleratorConfig { hw: HardwareMeta::new(8, 8, 1, 1).unwrap(), ..Default::default() };
        Salo::new(config)
    }

    #[test]
    fn healthy_pattern_validates() {
        let salo = small_salo();
        let pattern = longformer(64, 9, 1).unwrap();
        let shape = AttentionShape::new(64, 8, 1).unwrap();
        let compiled = salo.compile(&pattern, &shape).unwrap();
        let report = validate(&salo, &compiled, &pattern, ValidationConfig::default()).unwrap();
        assert!(report.is_ok(), "{report:?}");
        assert_eq!(report.coverage_defects, 0);
        assert!(report.buffers.fits);
    }

    #[test]
    fn exotic_pattern_validates_too() {
        let salo = small_salo();
        let pattern = HybridPattern::builder(60)
            .window(Window::dilated(-15, 15, 5).unwrap())
            .window(Window::symmetric(3).unwrap())
            .global_tokens([0, 30])
            .build()
            .unwrap();
        let shape = AttentionShape::new(60, 8, 1).unwrap();
        let compiled = salo.compile(&pattern, &shape).unwrap();
        let report = validate(&salo, &compiled, &pattern, ValidationConfig::default()).unwrap();
        assert!(report.is_ok(), "{report:?}");
    }

    #[test]
    fn tolerance_knob_bites() {
        let salo = small_salo();
        let pattern = longformer(48, 7, 1).unwrap();
        let shape = AttentionShape::new(48, 8, 1).unwrap();
        let compiled = salo.compile(&pattern, &shape).unwrap();
        let strict = ValidationConfig { tolerance: 1e-6, ..ValidationConfig::default() };
        let report = validate(&salo, &compiled, &pattern, strict).unwrap();
        assert!(!report.numerics_ok, "quantization error must exceed 1e-6");
        assert!(report.coverage_exact, "coverage is independent of tolerance");
    }

    #[test]
    fn deterministic_per_seed() {
        let salo = small_salo();
        let pattern = longformer(32, 5, 1).unwrap();
        let shape = AttentionShape::new(32, 8, 1).unwrap();
        let compiled = salo.compile(&pattern, &shape).unwrap();
        let a = validate(&salo, &compiled, &pattern, ValidationConfig::default()).unwrap();
        let b = validate(&salo, &compiled, &pattern, ValidationConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
