//! Backend-equivalence suite for the unified engine API: the same typed
//! [`AttentionRequest`]s driven through both engines. `LoweredEngine`'s
//! prefill must agree **bit for bit** (raw outputs, Q.16 weights,
//! saturation counts) with the event-accurate systolic oracle, called
//! directly (`SpatialAccelerator::execute_systolic`) on the plan the
//! engine's `prepare` attached; two independent lowered engines must
//! decode bit-identically; and `ReferenceEngine` (exact `f32` softmax
//! attention) must agree within the documented fixed-point error bound —
//! on prefill and decode alike.
//!
//! The bound: inputs are unit-normal, quantized to Q.4 activations with a
//! Q.16 softmax; across the whole repo's test matrix the observed error
//! stays under 0.4 (see `EXPERIMENTS.md`, "Reference-vs-fixed error").

use proptest::prelude::*;
use salo::core::{
    AttentionRequest, Engine, FixedToken, HeadStep, LoweredEngine, PatternHandle, PrefillOutput,
    ReferenceEngine, Salo, SaloError, StepResult, TokenQkv,
};
use salo::kernels::{on_grid_attention, Matrix, Qkv, ON_GRID_BOUND};
use salo::patterns::{AttentionShape, HybridPattern, Window};
use salo::scheduler::HardwareMeta;
use salo::sim::{AcceleratorConfig, ExecutionOutput, SimError, SpatialAccelerator, StepOutput};

/// The documented fixed-point-vs-float bound for unit-normal inputs.
const FIXED_POINT_BOUND: f32 = 0.4;

fn small_salo() -> Salo {
    let config =
        AcceleratorConfig { hw: HardwareMeta::new(8, 8, 1, 1).unwrap(), ..Default::default() };
    Salo::new(config)
}

/// Runs one prefill request through an engine; returns the handle its
/// `prepare` built alongside the output.
fn prefill_on(
    engine: &mut dyn Engine,
    pattern: &HybridPattern,
    shape: AttentionShape,
    heads: &[Qkv],
) -> (PatternHandle, PrefillOutput) {
    let handle = engine.prepare(pattern, &shape).expect("prepare");
    let request =
        AttentionRequest::Prefill { pattern: handle.clone(), shape, heads: heads.to_vec() };
    let out = engine.execute(request).expect("prefill").into_prefill().expect("prefill response");
    (handle, out)
}

/// [`on_grid_attention`] of one head at the engine's scale: the datapath's
/// own error, the input format's taken out, is held to [`ON_GRID_BOUND`].
fn on_grid(pattern: &HybridPattern, head: &Qkv) -> Matrix<f32> {
    let scale = SpatialAccelerator::default_scale(head.head_dim());
    on_grid_attention(pattern, &head.q, &head.k, &head.v, scale).expect("on grid")
}

/// The largest distance between a decode step's row and row `t` of
/// `expected`.
fn row_diff(step: &[f32], expected: &Matrix<f32>, t: usize) -> f32 {
    step.iter().zip(expected.row(t)).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
}

/// The systolic oracle's prefill of every head, run on the plan the
/// lowered engine's handle carries, at the scale the engine uses.
fn systolic_on(salo: &Salo, handle: &PatternHandle, heads: &[Qkv]) -> Vec<ExecutionOutput> {
    let plan = handle.plan().expect("the lowered engine attaches its plan");
    let scale = SpatialAccelerator::default_scale(plan.shape.head_dim);
    heads
        .iter()
        .map(|h| {
            let oracle = salo.accelerator().execute_systolic(&plan.plan, &h.q, &h.k, &h.v, scale);
            oracle.expect("systolic prefill")
        })
        .collect()
}

/// The decode comparison's engines: two independent lowered engines,
/// then the reference.
fn decode_engines(salo: &Salo) -> [Box<dyn Engine>; 3] {
    [Box::new(salo.engine()), Box::new(salo.engine()), Box::new(ReferenceEngine::new())]
}

/// The first `rows` rows of a full-sequence head.
fn prompt_of(full: &Qkv, rows: usize) -> Qkv {
    let d = full.head_dim();
    Qkv::new(
        Matrix::from_fn(rows, d, |i, j| full.q.get(i, j)),
        Matrix::from_fn(rows, d, |i, j| full.k.get(i, j)),
        Matrix::from_fn(rows, d, |i, j| full.v.get(i, j)),
    )
    .expect("prompt rows")
}

/// Opens a decode session on an engine and steps it to capacity,
/// returning each step's per-head outputs.
fn decode_on(
    engine: &mut dyn Engine,
    pattern: &HybridPattern,
    d: usize,
    num_heads: usize,
    full: &[Qkv],
) -> Vec<Vec<HeadStep>> {
    let n = pattern.n();
    let shape = AttentionShape::new(n, d, num_heads).expect("shape");
    let handle = engine.prepare(pattern, &shape).expect("prepare");
    let min_step = pattern.decode_view().expect("decode view").min_step();
    let prompt: Vec<Qkv> = full.iter().map(|h| prompt_of(h, min_step)).collect();
    let opened = engine
        .execute(AttentionRequest::DecodeOpen {
            session: 1,
            pattern: handle,
            head_dim: d,
            num_heads,
            prompt,
        })
        .expect("open")
        .into_opened()
        .expect("opened response");
    assert_eq!(opened.capacity, n);
    assert_eq!(opened.position, min_step);

    let mut steps = Vec::new();
    for t in min_step..n {
        let token: Vec<TokenQkv> = full.iter().map(|h| TokenQkv::from_row(h, t)).collect();
        let step = engine
            .execute(AttentionRequest::DecodeStep { session: 1, token })
            .expect("step")
            .into_step()
            .expect("step response");
        assert_eq!(step.position, t);
        steps.push(step.heads);
    }
    let closed = engine
        .execute(AttentionRequest::DecodeClose { session: 1 })
        .expect("close")
        .into_closed()
        .expect("closed response");
    assert_eq!(closed.position, n);
    assert!(!engine.has_session(1));
    steps
}

/// The acceptance test: one random hybrid pattern through the lowered
/// engine, the systolic oracle and the reference engine, prefill and
/// decode, asserting lowered≡systolic prefill bit-identity, bit-identical
/// decode on two lowered engines, and reference agreement within the
/// documented bound.
#[test]
fn all_three_engines_agree_on_one_random_hybrid_pattern() {
    let salo = small_salo();
    // A dilated window plus a global token — the hybrid shape SALO is
    // built for.
    let pattern = HybridPattern::builder(36)
        .window(Window::dilated(-8, 0, 2).unwrap())
        .global_token(0)
        .build()
        .unwrap();
    let d = 8;
    let num_heads = 2;
    let shape = AttentionShape::new(36, d, num_heads).unwrap();
    let heads = Qkv::random_heads(&shape, 4242);

    // --- Prefill. ---
    let mut engines: Vec<Box<dyn Engine>> =
        vec![Box::new(salo.engine()), Box::new(ReferenceEngine::new())];
    assert_eq!(engines.len(), 2);
    let outs: Vec<(PatternHandle, PrefillOutput)> =
        engines.iter_mut().map(|e| prefill_on(e.as_mut(), &pattern, shape, &heads)).collect();
    let ((handle, lowered), (_, reference)) = (&outs[0], &outs[1]);
    let systolic = systolic_on(&salo, handle, &heads);
    assert_eq!(lowered.telemetry.engine, "lowered");
    assert_eq!(reference.telemetry.engine, "reference");
    // The stage-level kernel profile follows the tracer switch (the CI
    // variants with `SALO_TRACE=1` see it present) and costs no bits: the
    // systolic oracle below is never profiled.
    assert_eq!(lowered.telemetry.stages.is_some(), salo::trace::enabled());
    assert_eq!(systolic.len(), num_heads);
    for (h, oracle) in systolic.iter().enumerate() {
        // Bit-identity between the lowered engine and the oracle.
        assert_eq!(lowered.heads[h].raw.as_ref(), Some(&oracle.raw), "head {h} raw bits");
        assert_eq!(
            lowered.heads[h].weights_q16.as_ref(),
            Some(&oracle.weights_q16),
            "head {h} weights"
        );
        // The reference is float: no fixed-point artifacts, bounded error.
        assert!(reference.heads[h].raw.is_none());
        let diff = lowered.heads[h].output.max_abs_diff(&reference.heads[h].output);
        assert!(diff < FIXED_POINT_BOUND, "head {h} prefill diff {diff}");
        let diff = lowered.heads[h].output.max_abs_diff(&on_grid(&pattern, &heads[h]));
        assert!(diff < ON_GRID_BOUND, "head {h} prefill diff vs on-grid {diff}");
    }
    assert_eq!(
        lowered.telemetry.saturation_events,
        systolic.iter().map(|o| o.report.saturation_events).sum::<u64>(),
        "saturation counts"
    );

    // --- Decode: same pattern, token by token. ---
    let dec: Vec<Vec<Vec<HeadStep>>> = decode_engines(&salo)
        .iter_mut()
        .map(|e| decode_on(e.as_mut(), &pattern, d, num_heads, &heads))
        .collect();
    assert_eq!(dec[0], dec[1], "two lowered engines decode bit-identically");
    let view = pattern.decode_view().unwrap();
    let min_step = view.min_step();
    let causal = view.into_causal_pattern();
    let on_grid: Vec<Matrix<f32>> = heads.iter().map(|h| on_grid(&causal, h)).collect();
    for (s, (fixed, float)) in dec[0].iter().zip(&dec[2]).enumerate() {
        for h in 0..num_heads {
            assert!(fixed[h].raw.is_some() && float[h].raw.is_none());
            let diff = fixed[h]
                .output
                .iter()
                .zip(&float[h].output)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(diff < FIXED_POINT_BOUND, "step {s} head {h} decode diff {diff}");
            let diff = row_diff(&fixed[h].output, &on_grid[h], min_step + s);
            assert!(diff < ON_GRID_BOUND, "step {s} head {h} decode diff vs on-grid {diff}");
        }
    }
}

#[test]
fn engine_sessions_validate_and_retire_like_the_serving_runtime() {
    let salo = small_salo();
    // One row per page, five pages: the session opens on two (one prompt
    // row per head), its first good step takes two more, and the step
    // after that finds a single page left — head 0 gets it, head 1 is
    // refused. `twin` runs the same session without ever seeing a bad
    // token.
    let mut engine = salo.engine();
    let mut twin = salo.engine();
    engine.configure_kv_pool(1, Some(5));
    twin.configure_kv_pool(1, Some(5));
    let pattern = HybridPattern::builder(16)
        .window(Window::causal(4).unwrap())
        .global_token(0)
        .build()
        .unwrap();
    let shape = AttentionShape::new(16, 4, 2).unwrap();
    let handle = engine.prepare(&pattern, &shape).unwrap();
    let heads = Qkv::random_heads(&shape, 9);
    let prompt: Vec<Qkv> = heads.iter().map(|h| prompt_of(h, 1)).collect();
    let in_use = |e: &LoweredEngine| e.kv_pool_stats().in_use;

    // Unknown session: steps and closes report it.
    let tok = |d: usize| TokenQkv { q: vec![0.1; d], k: vec![0.1; d], v: vec![0.1; d] };
    assert!(matches!(
        engine.execute(AttentionRequest::DecodeStep { session: 7, token: vec![tok(4); 2] }),
        Err(SaloError::UnknownSession { session: 7 })
    ));
    assert!(matches!(
        engine.execute(AttentionRequest::DecodeClose { session: 7 }),
        Err(SaloError::UnknownSession { session: 7 })
    ));

    for e in [&mut engine, &mut twin] {
        e.execute(AttentionRequest::DecodeOpen {
            session: 7,
            pattern: handle.clone(),
            head_dim: 4,
            num_heads: 2,
            prompt: prompt.clone(),
        })
        .unwrap();
    }
    assert!(engine.has_session(7));
    assert_eq!(engine.session_position(7), Some(1));

    // Reusing a live id is rejected.
    assert!(matches!(
        engine.execute(AttentionRequest::DecodeOpen {
            session: 7,
            pattern: handle,
            head_dim: 4,
            num_heads: 2,
            prompt,
        }),
        Err(SaloError::SessionInUse { session: 7 })
    ));

    // Wrong token head count: pre-mutation, the session stays live.
    assert!(matches!(
        engine.execute(AttentionRequest::DecodeStep { session: 7, token: vec![tok(4)] }),
        Err(SaloError::HeadCountMismatch { expected: 2, got: 1 })
    ));
    assert!(engine.has_session(7), "validation failures do not retire the session");
    assert_eq!(engine.session_position(7), Some(1));

    // A short row on head 1: every head's rows are checked before any
    // head moves, so this too is a recoverable error — head 0 did not
    // advance, nothing was allocated, the session keeps its position.
    assert!(matches!(
        engine.execute(AttentionRequest::DecodeStep { session: 7, token: vec![tok(4), tok(2)] }),
        Err(SaloError::ShapeMismatch { expected: (1, 4), got: (1, 2) })
    ));
    assert!(engine.has_session(7), "a malformed token does not retire the session");
    assert_eq!(engine.session_position(7), Some(1));
    assert_eq!(in_use(&engine), 2, "the rejected token drew no page");

    // ... and the next good step is exactly the twin's, which never saw
    // the bad tokens: bits, weights, saturation counts, telemetry.
    let good = |t: usize| heads.iter().map(|h| TokenQkv::from_row(h, t)).collect::<Vec<_>>();
    let step_on = |e: &mut dyn Engine, t: usize| {
        e.execute(AttentionRequest::DecodeStep { session: 7, token: good(t) })
            .and_then(|r| r.into_step())
    };
    let ours = untimed(step_on(&mut engine, 1)).unwrap();
    assert_eq!(ours.position, 1);
    assert_eq!(ours, untimed(step_on(&mut twin, 1)).unwrap());
    assert_eq!((in_use(&engine), in_use(&twin)), (4, 4));

    // The bounded pool's last page goes to head 0 and head 1 is refused:
    // head 0 advanced, head 1 did not — the desync retires the session
    // and hands every page back.
    assert!(matches!(
        step_on(&mut engine, 2),
        Err(SaloError::Sim(SimError::PagePoolExhausted { in_use: 5, capacity: 5 }))
    ));
    assert!(!engine.has_session(7), "a desyncing failure retires the session");
    assert_eq!(in_use(&engine), 0, "retirement releases the session's pages");
    assert!(matches!(
        engine.execute(AttentionRequest::DecodeStep { session: 7, token: vec![tok(4); 2] }),
        Err(SaloError::UnknownSession { .. })
    ));
}

/// A step's result without its host-measured stage timings — the one
/// part of a `StepResult` that is wall-clock rather than arithmetic.
fn untimed<H>(result: Result<StepResult<H>, SaloError>) -> Result<StepResult<H>, SaloError> {
    result.map(|mut step| {
        step.telemetry.stages = None;
        step
    })
}

/// A `DecodeStep` answer as the datapath's rows, the form
/// [`LoweredEngine::step`] answers in: each head's raw row, Q.16 weight
/// and saturation count (its `f32` output is the raw row dequantized).
fn as_rows(step: StepResult) -> StepResult<StepOutput> {
    let StepResult { session, position, heads, telemetry } = step;
    let heads = heads.into_iter().map(|head| StepOutput {
        position,
        raw: head.raw.expect("a lowered step carries its raw row"),
        weight_q16: head.weight_q16.expect("a lowered step carries its weight"),
        saturation_events: head.saturation_events,
    });
    StepResult { session, position, heads: heads.collect(), telemetry }
}

/// A `DecodeStep` request is [`LoweredEngine::step`] on the quantized
/// token: the same rows, weights and telemetry, the session left at the
/// same position, and a stage profile exactly when the tracer is on. (That
/// a step's outcome does not depend on who shares its tick is the serve
/// worker's `a_tick_of_steps_equals_one_job_per_tick`.)
#[test]
fn a_decode_step_request_is_one_step_call() {
    let salo = small_salo();
    let mut engines = [salo.engine(), salo.engine()];
    let pattern = HybridPattern::builder(16).window(Window::causal(4).unwrap()).build().unwrap();
    let shape = AttentionShape::new(16, 4, 2).unwrap();
    let heads = Qkv::random_heads(&shape, 3);
    for engine in &mut engines {
        let handle = engine.prepare(&pattern, &shape).unwrap();
        let prompt = heads.iter().map(|h| prompt_of(h, 1)).collect();
        engine
            .execute(AttentionRequest::DecodeOpen {
                session: 1,
                pattern: handle,
                head_dim: 4,
                num_heads: 2,
                prompt,
            })
            .unwrap();
    }
    let token: Vec<TokenQkv> = heads.iter().map(|h| TokenQkv::from_row(h, 1)).collect();
    let request = engines[0]
        .execute(AttentionRequest::DecodeStep { session: 1, token: token.clone() })
        .and_then(|r| r.into_step())
        .map(as_rows);
    let quantized: Vec<FixedToken> = token.iter().map(FixedToken::quantize).collect();
    let call = engines[1].step(1, &quantized);
    let profiled = |r: &Result<StepResult<StepOutput>, SaloError>| {
        r.as_ref().unwrap().telemetry.stages.is_some()
    };
    assert_eq!(profiled(&request), salo::trace::enabled());
    assert_eq!(profiled(&call), salo::trace::enabled());
    assert_eq!(untimed(call), untimed(request));
    assert_eq!(engines[0].session_position(1), engines[1].session_position(1));
}

fn arb_pattern() -> impl Strategy<Value = HybridPattern> {
    (14usize..36, -6i64..0, 1usize..6, 1usize..4, prop::collection::vec(0usize..10, 0..3))
        .prop_filter_map("valid decodable pattern", |(n, lo, width, dil, globals)| {
            let hi = lo + (width as i64) * dil as i64;
            let w = Window::dilated(lo, hi, dil).ok()?;
            let p = HybridPattern::builder(n)
                .window(w)
                .global_tokens(globals.into_iter().filter(move |&g| g < n))
                .build()
                .ok()?;
            p.decode_view().ok()?; // decodable after causal clipping
            Some(p)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Prefill: the lowered engine and the systolic oracle are
    /// bit-identical; the reference stays within the fixed-point bound —
    /// on random hybrid patterns.
    #[test]
    fn prefill_backends_are_equivalent(pattern in arb_pattern(), seed in 0u64..1000) {
        let salo = small_salo();
        let d = 8usize;
        let shape = AttentionShape::new(pattern.n(), d, 1).unwrap();
        let heads = Qkv::random_heads(&shape, seed);
        let mut engines: Vec<Box<dyn Engine>> =
        vec![Box::new(salo.engine()), Box::new(ReferenceEngine::new())];
        let outs: Vec<(PatternHandle, PrefillOutput)> = engines
            .iter_mut()
            .map(|e| prefill_on(e.as_mut(), &pattern, shape, &heads))
            .collect();
        let ((handle, lowered), (_, reference)) = (&outs[0], &outs[1]);
        let systolic = systolic_on(&salo, handle, &heads);
        prop_assert_eq!(lowered.heads[0].raw.as_ref(), Some(&systolic[0].raw));
        prop_assert_eq!(lowered.heads[0].weights_q16.as_ref(), Some(&systolic[0].weights_q16));
        prop_assert_eq!(
            lowered.telemetry.saturation_events,
            systolic.iter().map(|o| o.report.saturation_events).sum::<u64>()
        );
        let diff = lowered.heads[0].output.max_abs_diff(&reference.heads[0].output);
        prop_assert!(diff < FIXED_POINT_BOUND, "diff {}", diff);
        let diff = lowered.heads[0].output.max_abs_diff(&on_grid(&pattern, &heads[0]));
        prop_assert!(diff < ON_GRID_BOUND, "diff vs on-grid {}", diff);
    }

    /// Decode: two independent lowered engines are bit-identical step for
    /// step; the reference stays within the fixed-point bound.
    #[test]
    fn decode_backends_are_equivalent(pattern in arb_pattern(), seed in 0u64..1000) {
        let salo = small_salo();
        let d = 4usize;
        let shape = AttentionShape::new(pattern.n(), d, 1).unwrap();
        let heads = Qkv::random_heads(&shape, seed);
        let dec: Vec<_> = decode_engines(&salo)
            .iter_mut()
            .map(|e| decode_on(e.as_mut(), &pattern, d, 1, &heads))
            .collect();
        prop_assert_eq!(&dec[0], &dec[1], "two lowered engines decode bit-identically");
        let view = pattern.decode_view().unwrap();
        let min_step = view.min_step();
        let on_grid = on_grid(&view.into_causal_pattern(), &heads[0]);
        for (s, (fixed, float)) in dec[0].iter().zip(&dec[2]).enumerate() {
            let diff = fixed[0]
                .output
                .iter()
                .zip(&float[0].output)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            prop_assert!(diff < FIXED_POINT_BOUND, "decode diff {}", diff);
            let diff = row_diff(&fixed[0].output, &on_grid, min_step + s);
            prop_assert!(diff < ON_GRID_BOUND, "step {} decode diff vs on-grid {}", s, diff);
        }
    }
}
