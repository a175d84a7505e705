//! Property tests: on random patterns, data and array geometries the
//! lowered fast path is bit-identical to the event-accurate systolic
//! oracle, and estimates are monotone in work. The comparison against the
//! exact `f32` reference is the root `scheduler_sim` suite's.

use proptest::prelude::*;
use salo_kernels::Qkv;
use salo_patterns::{HybridPattern, Window};
use salo_scheduler::{ExecutionPlan, HardwareMeta};
use salo_sim::{AcceleratorConfig, ExecScratch, LoweredPlan, SpatialAccelerator};

fn arb_pattern() -> impl Strategy<Value = HybridPattern> {
    (12usize..40, -6i64..0, 1usize..8, 1usize..4, prop::collection::vec(0usize..12, 0..3))
        .prop_filter_map("valid pattern", |(n, lo, width, dil, globals)| {
            let hi = lo + (width as i64) * dil as i64;
            let w = Window::dilated(lo, hi, dil).ok()?;
            HybridPattern::builder(n)
                .window(w)
                .global_tokens(globals.into_iter().filter(move |&g| g < n))
                .build()
                .ok()
        })
}

fn arb_hw() -> impl Strategy<Value = HardwareMeta> {
    (2usize..9, 2usize..9).prop_map(|(r, c)| HardwareMeta::new(r, c, 1, 1).expect("hw"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event-accurate systolic path is bit-identical to the lowered
    /// fast path on random inputs — outputs, weights and saturation
    /// counts.
    #[test]
    fn systolic_always_bit_matches(pattern in arb_pattern(), seed in 0u64..1000) {
        let d = 4usize;
        let hw = HardwareMeta::new(4, 4, 1, 1).expect("hw");
        let plan = match ExecutionPlan::build(&pattern, hw) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let config = AcceleratorConfig { hw, ..Default::default() };
        let sim = SpatialAccelerator::new(config);
        let qkv = Qkv::random(pattern.n(), d, seed);
        let scale = SpatialAccelerator::default_scale(d);
        let fast = sim.execute(&plan, &qkv.q, &qkv.k, &qkv.v, scale).expect("lowered");
        let slow = sim.execute_systolic(&plan, &qkv.q, &qkv.k, &qkv.v, scale).expect("systolic");
        prop_assert_eq!(fast.raw, slow.raw);
        prop_assert_eq!(fast.weights_q16, slow.weights_q16);
        prop_assert_eq!(fast.report.saturation_events, slow.report.saturation_events);
    }

    /// The lowered fast path — pre-lowered plan, one scratch reused
    /// across two different patterns, shapes and head dimensions — stays
    /// bit-identical to the systolic oracle: outputs, `weights_q16` and
    /// saturation counts.
    #[test]
    fn lowered_fast_path_bit_matches_systolic(
        first in arb_pattern(),
        second in arb_pattern(),
        hw in arb_hw(),
        d1 in 2usize..10,
        d2 in 2usize..10,
        seed in 0u64..1000,
    ) {
        let config = AcceleratorConfig { hw, ..Default::default() };
        let sim = SpatialAccelerator::new(config);
        let mut scratch = ExecScratch::new();
        for (pattern, d) in [(&first, d1), (&second, d2)] {
            let plan = match ExecutionPlan::build(pattern, hw) {
                Ok(p) => p,
                Err(_) => continue, // degenerate (empty) pattern
            };
            let lowered = LoweredPlan::lower(&plan);
            let qkv = Qkv::random(pattern.n(), d, seed);
            let scale = SpatialAccelerator::default_scale(d);
            let fast = sim
                .execute_lowered(&lowered, &qkv.q, &qkv.k, &qkv.v, scale, &mut scratch)
                .expect("lowered");
            let slow =
                sim.execute_systolic(&plan, &qkv.q, &qkv.k, &qkv.v, scale).expect("systolic");
            prop_assert_eq!(fast.raw, slow.raw);
            prop_assert_eq!(fast.weights_q16, slow.weights_q16);
            prop_assert_eq!(fast.report.saturation_events, slow.report.saturation_events);
        }
    }

    /// Estimates are monotone in work: more heads, more cycles; and the
    /// utilization stays in (0, 1].
    #[test]
    fn estimates_well_behaved(pattern in arb_pattern(), d in 4usize..64) {
        let hw = HardwareMeta::new(8, 8, 1, 1).expect("hw");
        let plan = match ExecutionPlan::build(&pattern, hw) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let config = AcceleratorConfig { hw, ..Default::default() };
        let sim = SpatialAccelerator::new(config);
        let one = sim.estimate(&plan, d, 1);
        let four = sim.estimate(&plan, d, 4);
        prop_assert_eq!(four.cycles.total, 4 * one.cycles.per_head);
        prop_assert!(one.utilization.mac_utilization > 0.0);
        prop_assert!(one.utilization.mac_utilization <= 1.0);
        prop_assert!(one.energy_j >= 0.0);
    }
}
