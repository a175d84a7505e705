//! The `Salo` façade: compile, execute, estimate.

use std::sync::{Arc, OnceLock};

use salo_patterns::{AttentionShape, HybridPattern};
use salo_scheduler::ExecutionPlan;
use salo_sim::{
    AcceleratorConfig, DecodePlan, ExecutionOutput, LoweredPlan, SimError, SpatialAccelerator,
    TimingReport,
};

use crate::engine::check_pattern_len;
use crate::SaloError;

/// A pattern compiled for a specific accelerator instance and shape.
///
/// Produced by [`Salo::compile`]; reusable across executions (the plan
/// depends only on the pattern and the array geometry, not on the data).
/// Compilation also lowers the plan once into its flat execution program
/// ([`LoweredPlan`]), so every later execution — including cache hits in
/// the serving runtime, which stores `CompiledPlan`s whole — skips both
/// the scheduler pass and the lowering pass.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// The scheduler's execution plan (one head).
    pub plan: ExecutionPlan,
    /// The attention shape the plan was compiled for.
    pub shape: AttentionShape,
    /// The plan resolved into flat pass programs for the execution hot
    /// path; [`LoweredPlan::stats`] holds the plan statistics (passes,
    /// occupancy, traffic inputs).
    pub lowered: LoweredPlan,
    /// Lazily built step-indexed decode program (or the reason there is
    /// none), shared by every decode session of this compiled plan (see
    /// [`decode_plan`](Self::decode_plan)).
    decode: OnceLock<Result<Arc<DecodePlan>, SimError>>,
}

impl CompiledPlan {
    /// The plan's step-indexed decode program, lowered on first use and
    /// cached — sessions opened on the same compiled plan (e.g. through
    /// the serving runtime's plan cache, which shares `CompiledPlan`s
    /// behind `Arc`) all reuse one program instead of re-ordering per
    /// session. Single-flight: openers that race (two workers resolving
    /// one cached plan) wait for the one lowering instead of each running
    /// their own; `sim.decode_plans_lowered` in the global registry counts
    /// the lowerings.
    ///
    /// # Errors
    ///
    /// Returns [`SaloError::Sim`] with
    /// [`AnticausalPlan`](salo_sim::SimError::AnticausalPlan) if the plan
    /// was not compiled from a causally clipped pattern.
    pub fn decode_plan(&self) -> Result<Arc<DecodePlan>, SaloError> {
        let lowered = self.decode.get_or_init(|| {
            salo_trace::metrics().counter("sim.decode_plans_lowered").inc();
            DecodePlan::lower(&self.plan, &self.lowered).map(Arc::new)
        });
        Ok(lowered.clone()?)
    }

    /// Heap bytes this compiled plan holds: the scheduler's plan, the
    /// lowered program and — once [`decode_plan`](Self::decode_plan) has
    /// built it — the decode program. Vector lengths times element sizes;
    /// allocator overhead is not in it.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let decode = self.decode.get().and_then(|d| d.as_ref().ok());
        self.plan.resident_bytes()
            + self.lowered.resident_bytes()
            + decode.map_or(0, |d| d.resident_bytes())
    }
}

/// A layer's heads in fixed-point form: every head carries its raw
/// 16-bit rows, Q.16 softmax weights and simulator report, with no
/// `Option` to unwrap. The serving runtime's response type — built from a
/// fixed-point engine's [`PrefillOutput`](crate::PrefillOutput) by
/// [`into_multi_head_run`](crate::PrefillOutput::into_multi_head_run).
#[derive(Debug, Clone)]
pub struct MultiHeadRun {
    /// Per-head execution outputs.
    pub heads: Vec<ExecutionOutput>,
    /// Layer latency: heads run back to back.
    pub total_time_s: f64,
    /// Layer energy (lumped model).
    pub total_energy_j: f64,
}

/// Compiles `pattern` for an array geometry and shape: the scheduler pass
/// plus the one-time lowering into flat pass programs. Shared by
/// [`Salo::compile`] and the engines' handle resolution.
pub(crate) fn compile_with(
    hw: salo_scheduler::HardwareMeta,
    pattern: &HybridPattern,
    shape: &AttentionShape,
) -> Result<CompiledPlan, crate::SaloError> {
    check_pattern_len(pattern.n(), shape)?;
    let plan = ExecutionPlan::build(pattern, hw)?;
    let lowered = LoweredPlan::lower(&plan);
    Ok(CompiledPlan { plan, shape: *shape, lowered, decode: OnceLock::new() })
}

/// The SALO accelerator: data scheduler + spatial array, behind one API.
///
/// `Salo` is a thin façade over the [`Engine`](crate::Engine) API: it
/// owns one simulated accelerator instance, compiles patterns into
/// [`CompiledPlan`]s, and hands out the execution backend
/// ([`engine`](Salo::engine)) that serves typed
/// [`AttentionRequest`](crate::AttentionRequest)s. The
/// [`Engine`](crate::Engine) trait is the only way to run a request.
#[derive(Debug, Clone)]
pub struct Salo {
    accel: SpatialAccelerator,
}

impl Default for Salo {
    /// The paper's synthesized instance (Table 1) — delegates to
    /// [`AcceleratorConfig::default`], the single canonical source of the
    /// Table 1 constants.
    fn default() -> Self {
        Self::new(AcceleratorConfig::default())
    }
}

impl Salo {
    /// Creates an instance with a custom configuration.
    #[must_use]
    pub fn new(config: AcceleratorConfig) -> Self {
        Self { accel: SpatialAccelerator::new(config) }
    }

    /// The paper's synthesized instance (Table 1); equivalent to
    /// [`Salo::default`], which it delegates to.
    #[must_use]
    pub fn default_config() -> Self {
        Self::default()
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &AcceleratorConfig {
        self.accel.config()
    }

    /// The underlying simulated accelerator.
    ///
    /// Clones of a `Salo` share the accelerator's exponential/reciprocal
    /// lookup tables (they live behind `Arc`), so a worker pool built
    /// from clones holds one set of tables.
    #[must_use]
    pub fn accelerator(&self) -> &SpatialAccelerator {
        &self.accel
    }

    /// Runs the data scheduler: splits (and, for dilated windows,
    /// reorders) the pattern into an execution plan for this instance.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern length disagrees with the shape or
    /// the pattern yields no work.
    pub fn compile(
        &self,
        pattern: &HybridPattern,
        shape: &AttentionShape,
    ) -> Result<CompiledPlan, SaloError> {
        compile_with(self.accel.config().hw, pattern, shape)
    }

    /// Timing/energy estimate for the whole layer (all heads).
    #[must_use]
    pub fn estimate(&self, compiled: &CompiledPlan) -> TimingReport {
        self.accel.estimate(&compiled.plan, compiled.shape.head_dim, compiled.shape.num_heads)
    }

    /// Searches the pattern zoo for the cheapest pattern covering `mask`,
    /// priced by this instance's simulated cycle count: each candidate is
    /// compiled onto the configured array geometry and estimated for
    /// `shape`, so the winner reflects window splitting, global duty and
    /// gather-pass costs on *this* hardware, not an abstract nnz count.
    /// Candidates that fail to compile (e.g. global tokens on an instance
    /// without global units) are priced out at infinite cost.
    ///
    /// # Errors
    ///
    /// Returns an error if the mask is empty, disagrees with `shape`'s
    /// sequence length, or no candidate meets `coverage_budget`.
    pub fn autotune_pattern(
        &self,
        mask: &salo_patterns::DenseMask,
        shape: &AttentionShape,
        coverage_budget: f64,
        config: salo_patterns::FitConfig,
    ) -> Result<salo_patterns::AutotuneReport, SaloError> {
        check_pattern_len(mask.n(), shape)?;
        let report = salo_patterns::autotune(mask, coverage_budget, config, |pattern| match self
            .compile(pattern, shape)
        {
            Ok(compiled) => self.estimate(&compiled).cycles.total as f64,
            Err(_) => f64::INFINITY,
        })?;
        if report.cost.is_infinite() {
            return Err(SaloError::InvalidRequest {
                reason: "no covering candidate compiles on this instance".to_string(),
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttentionRequest, Engine, PatternHandle};
    use salo_kernels::Qkv;
    use salo_patterns::longformer;
    use salo_scheduler::HardwareMeta;

    fn small_salo() -> Salo {
        let config =
            AcceleratorConfig { hw: HardwareMeta::new(8, 8, 1, 1).unwrap(), ..Default::default() };
        Salo::new(config)
    }

    #[test]
    fn compile_validates_length() {
        let salo = small_salo();
        let pattern = longformer(64, 8, 1).unwrap();
        let shape = AttentionShape::new(32, 8, 1).unwrap();
        assert!(matches!(salo.compile(&pattern, &shape), Err(SaloError::ShapeMismatch { .. })));
    }

    #[test]
    fn default_delegates_to_the_canonical_config() {
        assert_eq!(Salo::default().config(), &AcceleratorConfig::default());
        assert_eq!(Salo::default_config().config(), Salo::default().config());
    }

    #[test]
    fn execute_checks_head_shape_and_count() {
        let salo = small_salo();
        let pattern = longformer(32, 8, 1).unwrap();
        let shape = AttentionShape::new(32, 8, 2).unwrap();
        let compiled = Arc::new(salo.compile(&pattern, &shape).unwrap());
        let mut engine = salo.engine();
        // Wrong head count.
        let one = Qkv::random_heads(&AttentionShape::new(32, 8, 1).unwrap(), 1);
        assert!(matches!(
            engine.execute(AttentionRequest::Prefill {
                pattern: PatternHandle::from_plan(Arc::clone(&compiled)),
                shape,
                heads: one,
            }),
            Err(SaloError::HeadCountMismatch { expected: 2, got: 1 })
        ));
        // Wrong head dimension.
        let bad_shape = AttentionShape::new(32, 4, 1).unwrap();
        let bad = Qkv::random_heads(&bad_shape, 1);
        assert!(matches!(
            engine.execute(AttentionRequest::Prefill {
                pattern: PatternHandle::from_plan(Arc::clone(&compiled)),
                shape: bad_shape,
                heads: bad,
            }),
            Err(SaloError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn clones_share_lookup_tables() {
        // The serving worker pool clones one Salo per worker; the clones
        // must share the exp/recip tables rather than rebuild them.
        let salo = small_salo();
        let clone = salo.clone();
        let (ea, ra) = salo.accelerator().shared_tables();
        let (eb, rb) = clone.accelerator().shared_tables();
        assert!(std::sync::Arc::ptr_eq(ea, eb));
        assert!(std::sync::Arc::ptr_eq(ra, rb));
    }

    #[test]
    fn estimate_scales_with_heads() {
        let salo = small_salo();
        let pattern = longformer(64, 8, 1).unwrap();
        let s1 = AttentionShape::new(64, 16, 1).unwrap();
        let s4 = AttentionShape::new(64, 16, 4).unwrap();
        let t1 = salo.estimate(&salo.compile(&pattern, &s1).unwrap());
        let t4 = salo.estimate(&salo.compile(&pattern, &s4).unwrap());
        assert_eq!(t4.cycles.total, 4 * t1.cycles.total);
    }

    #[test]
    fn autotune_prices_candidates_by_simulated_cycles() {
        use salo_patterns::{DenseMask, FitConfig};
        let salo = small_salo();
        let n = 64;
        let pattern = longformer(n, 8, 1).unwrap();
        let mask = DenseMask::from_pattern(&pattern);
        let shape = AttentionShape::new(n, 8, 1).unwrap();
        let report = salo.autotune_pattern(&mask, &shape, 1.0, FitConfig::default()).unwrap();
        assert!(report.coverage >= 1.0 - 1e-12, "full budget means full coverage");
        assert!(report.candidates > 1, "the sweep must price several candidates");
        // The winner's cost is the real estimate of its own compiled plan.
        let compiled = salo.compile(&report.pattern, &shape).unwrap();
        let estimate = salo.estimate(&compiled).cycles.total as f64;
        assert!((report.cost - estimate).abs() < 1e-9);
        // And it is no worse than recompiling the preset the mask came from.
        let baseline = salo.estimate(&salo.compile(&pattern, &shape).unwrap()).cycles.total as f64;
        assert!(report.cost <= baseline, "winner {} vs preset {baseline}", report.cost);
    }

    #[test]
    fn autotune_rejects_mismatched_mask_and_shape() {
        use salo_patterns::{DenseMask, FitConfig};
        let salo = small_salo();
        let mask = DenseMask::from_pattern(&longformer(32, 4, 0).unwrap());
        let shape = AttentionShape::new(64, 8, 1).unwrap();
        assert!(matches!(
            salo.autotune_pattern(&mask, &shape, 1.0, FitConfig::default()),
            Err(SaloError::ShapeMismatch { .. })
        ));
    }
}
