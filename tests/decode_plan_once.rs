//! A decode program is lowered once per compiled plan, however many
//! openers race for it.
//!
//! Alone in its binary: `sim.decode_plans_lowered` is a process-wide
//! counter, and any other test that opened a session would move it.

use std::sync::{Arc, Barrier};

use salo::core::{Salo, SaloError};
use salo::patterns::{AttentionShape, HybridPattern, Window};
use salo::sim::SimError;

#[test]
fn racing_openers_share_one_lowering() {
    let lowerings = salo::trace::metrics().counter("sim.decode_plans_lowered");
    let salo = Salo::default();
    let compile = |window: Window| {
        let pattern = HybridPattern::builder(4096).window(window).global_token(0).build();
        let shape = AttentionShape::new(4096, 1, 1).expect("shape");
        Arc::new(salo.compile(&pattern.expect("pattern"), &shape).expect("compile"))
    };

    // Two workers resolving one cached plan: both ask at once, one lowers,
    // the other waits for it, and both hold the same program.
    let causal = compile(Window::causal(512).expect("window"));
    let gate = Barrier::new(2);
    let (a, b) = std::thread::scope(|scope| {
        let open = || {
            gate.wait();
            causal.decode_plan()
        };
        let other = scope.spawn(open);
        (open(), other.join().expect("opener thread"))
    });
    let (a, b) = (a.expect("causal plan"), b.expect("causal plan"));
    assert!(Arc::ptr_eq(&a, &b), "both openers hold one program");
    assert_eq!(lowerings.get(), 1, "lowered once");
    assert!(Arc::ptr_eq(&a, &causal.decode_plan().expect("cached")));
    assert_eq!(lowerings.get(), 1, "later openers reuse it");

    // A plan that cannot be decoded says so to every caller, and the
    // attempt is not repeated either.
    let anticausal = compile(Window::symmetric(64).expect("window"));
    for _ in 0..2 {
        let refused = anticausal.decode_plan();
        assert!(matches!(refused, Err(SaloError::Sim(SimError::AnticausalPlan { .. }))));
    }
    assert_eq!(lowerings.get(), 2);
}
