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
    AttentionRequest, Engine, HeadStep, LoweredEngine, PatternHandle, PrefillOutput,
    ReferenceEngine, Salo, SaloError, StepResult, TokenQkv,
};
use salo::kernels::{Matrix, Qkv};
use salo::patterns::{AttentionShape, HybridPattern, Window};
use salo::scheduler::HardwareMeta;
use salo::sim::{AcceleratorConfig, ExecutionOutput, KvPoolStats, SimError, SpatialAccelerator};

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

/// What an engine looks like after a script of decode steps: every
/// step's outcome in order (raw bits, Q.16 weights, saturation counts and
/// telemetry inside `StepResult`; typed errors otherwise), where each
/// session stands afterwards (`None` = not live), and the page pool.
#[derive(Debug, PartialEq)]
struct StepTrace {
    results: Vec<(u64, Result<StepResult, SaloError>)>,
    positions: Vec<Option<usize>>,
    pool: KvPoolStats,
}

/// A step's result without its host-measured stage timings — the one
/// part of a `StepResult` that is wall-clock rather than arithmetic.
fn untimed(result: Result<StepResult, SaloError>) -> Result<StepResult, SaloError> {
    result.map(|mut step| {
        step.telemetry.stages = None;
        step
    })
}

/// Runs the differential's script on a fresh engine whose pool holds
/// `capacity` one-row pages: three rounds of five good steps, then one
/// round with every irregularity at once. `fused` issues each round as
/// one `DecodeStepBatch`; otherwise every entry is its own `DecodeStep`.
fn run_step_script(salo: &Salo, capacity: Option<usize>, fused: bool) -> StepTrace {
    let d = 4;
    let plans = [
        HybridPattern::builder(24)
            .window(Window::causal(12).unwrap())
            .global_token(0)
            .build()
            .unwrap(),
        HybridPattern::builder(24).window(Window::dilated(-12, 0, 2).unwrap()).build().unwrap(),
    ];
    // (id, plan, heads): 1, 2, 4 and 5 share one plan, 3 runs the other;
    // 5 has one head, the rest two.
    let sessions = [(1u64, 0usize, 2usize), (2, 0, 2), (3, 1, 2), (4, 0, 2), (5, 0, 1)];
    let mut engine = salo.engine();
    engine.configure_kv_pool(1, capacity);
    let data: Vec<Vec<Qkv>> = sessions
        .iter()
        .map(|&(sid, _, heads)| {
            Qkv::random_heads(&AttentionShape::new(24, d, heads).unwrap(), 100 + sid)
        })
        .collect();
    for (&(session, plan, num_heads), full) in sessions.iter().zip(&data) {
        let shape = AttentionShape::new(24, d, num_heads).unwrap();
        let pattern = engine.prepare(&plans[plan], &shape).unwrap();
        let prompt = full.iter().map(|h| prompt_of(h, 2)).collect();
        engine
            .execute(AttentionRequest::DecodeOpen {
                session,
                pattern,
                head_dim: d,
                num_heads,
                prompt,
            })
            .expect("every capacity tried has room for the opens");
    }
    let token = |s: usize, t: usize| -> Vec<TokenQkv> {
        data[s].iter().map(|h| TokenQkv::from_row(h, t)).collect()
    };

    let mut rounds: Vec<Vec<(u64, Vec<TokenQkv>)>> =
        (2..5).map(|t| (0..5).map(|s| (sessions[s].0, token(s, t))).collect()).collect();
    // The irregular round, at t = 5: sessions 5 and 1 step; session 2's
    // token has a short row on head 1 (its own entry fails, the group
    // goes on); session 4 steps — the one a bounded pool refuses; 99 was
    // never opened; session 3 runs another plan (a new group); session 1
    // again (a duplicate id splits the group, and must see its first
    // step); session 2 again, well-formed this time.
    let mut malformed = token(1, 5);
    malformed[1].k.truncate(2);
    rounds.push(vec![
        (5, token(4, 5)),
        (1, token(0, 5)),
        (2, malformed),
        (4, token(3, 5)),
        (99, token(3, 5)),
        (3, token(2, 5)),
        (1, token(0, 6)),
        (2, token(1, 5)),
    ]);

    let mut results = Vec::new();
    for round in rounds {
        if fused {
            let batch = engine
                .execute(AttentionRequest::DecodeStepBatch { steps: round })
                .and_then(|r| r.into_step_batch())
                .unwrap();
            results.extend(batch.into_iter().map(|(session, result)| (session, untimed(result))));
        } else {
            for (session, token) in round {
                let result = engine
                    .execute(AttentionRequest::DecodeStep { session, token })
                    .and_then(|r| r.into_step());
                results.push((session, untimed(result)));
            }
        }
    }
    StepTrace {
        results,
        positions: sessions.iter().map(|&(s, ..)| engine.session_position(s)).collect(),
        pool: engine.kv_pool_stats(),
    }
}

/// The fused pass is the only way a step runs, so a `DecodeStepBatch`
/// over many sessions must equal the same steps issued one `DecodeStep`
/// at a time — including everything that can go wrong inside a group.
#[test]
fn fused_steps_equal_the_same_steps_issued_one_at_a_time() {
    let salo = small_salo();
    let failed = |trace: &StepTrace| -> Vec<usize> {
        (0..trace.results.len()).filter(|&i| trace.results[i].1.is_err()).collect()
    };

    // Unbounded pool: of the irregular round (entries 15..) only the
    // malformed entry and the unknown id fail; every session is live, at
    // the position its good steps took it to.
    let alone = run_step_script(&salo, None, false);
    assert_eq!(failed(&alone), [17, 19]);
    assert!(matches!(alone.results[17].1, Err(SaloError::ShapeMismatch { .. })));
    assert!(matches!(alone.results[19].1, Err(SaloError::UnknownSession { session: 99 })));
    assert_eq!(alone.positions, [Some(7), Some(6), Some(6), Some(6), Some(6)]);
    assert_eq!(run_step_script(&salo, None, true), alone);

    // Bounded pool, sized so that the allocation refused is session 4's
    // *second head* in the irregular round: head 0 took the last page,
    // the heads desync, the session is retired at the end of its group
    // and its pages return to the pool for the groups after it. The
    // capacity is searched for (downwards from the unbounded peak) rather
    // than derived, so the test does not restate the reclamation horizon.
    let (capacity, alone) = (1..alone.pool.high_water)
        .rev()
        .map(|capacity| (capacity, run_step_script(&salo, Some(capacity), false)))
        .find(|(_, trace)| failed(trace) == [17, 18, 19] && trace.positions[3].is_none())
        .expect("some capacity hands the last page to head 0 of a two-head step");
    assert!(matches!(alone.results[18].1, Err(SaloError::Sim(SimError::PagePoolExhausted { .. }))));
    assert_eq!(alone.positions, [Some(7), Some(6), Some(6), None, Some(6)]);
    assert_eq!(alone.pool.exhausted, 1);
    assert_eq!(run_step_script(&salo, Some(capacity), true), alone);

    // A step alone and the same step as a batch of one are one request.
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
    let single = engines[0]
        .execute(AttentionRequest::DecodeStep { session: 1, token: token.clone() })
        .and_then(|r| r.into_step());
    let batch_of_one = engines[1]
        .execute(AttentionRequest::DecodeStepBatch { steps: vec![(1, token)] })
        .and_then(|r| r.into_step_batch())
        .unwrap();
    // Stage profiling follows the tracer switch at every width.
    let profiled =
        |r: &Result<StepResult, SaloError>| r.as_ref().unwrap().telemetry.stages.is_some();
    assert_eq!(profiled(&single), salo::trace::enabled());
    assert_eq!(profiled(&batch_of_one[0].1), salo::trace::enabled());
    let batch_of_one: Vec<_> = batch_of_one.into_iter().map(|(s, r)| (s, untimed(r))).collect();
    assert_eq!(batch_of_one, [(1, untimed(single))]);
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
        for (fixed, float) in dec[0].iter().zip(&dec[2]) {
            let diff = fixed[0]
                .output
                .iter()
                .zip(&float[0].output)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            prop_assert!(diff < FIXED_POINT_BOUND, "decode diff {}", diff);
        }
    }
}
