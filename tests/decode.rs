//! Streaming-decode integration suite: token-by-token decode is
//! bit-identical to the causal-prefill oracle, session state survives
//! worker reuse without leakage, and the serving runtime's pinned decode
//! sessions reproduce the core session byte for byte.

use salo::core::{DecodeSession, Salo};
use salo::kernels::Qkv;
use salo::patterns::{HybridPattern, Window};
use salo::scheduler::HardwareMeta;
use salo::serve::{GenerationTraffic, SaloServer, ServeError, ServeEvent, ServeOptions, TokenQkv};
use salo::sim::AcceleratorConfig;

fn small_salo() -> Salo {
    let config =
        AcceleratorConfig { hw: HardwareMeta::new(8, 8, 1, 1).unwrap(), ..Default::default() };
    Salo::new(config)
}

/// Causal-prefill oracle through the engine API: executes a compiled
/// causal plan on one head, returning the simulator-shaped output the
/// bit-identity assertions compare against. The prefill path streams K/V
/// from contiguous arenas, so this is also the *contiguous* baseline the
/// paged decode states are pinned against below.
fn prefill_oracle(
    salo: &Salo,
    compiled: std::sync::Arc<salo::core::CompiledPlan>,
    qkv: &Qkv,
) -> salo::sim::ExecutionOutput {
    use salo::core::{AttentionRequest, Engine, PatternHandle};
    let shape = compiled.shape;
    let mut engine = salo.engine();
    let out = engine
        .execute(AttentionRequest::Prefill {
            pattern: PatternHandle::from_plan(compiled),
            shape,
            heads: vec![qkv.clone()],
        })
        .unwrap()
        .into_prefill()
        .unwrap();
    let h = out.heads.into_iter().next().unwrap();
    salo::sim::ExecutionOutput {
        raw: h.raw.unwrap(),
        output: h.output,
        weights_q16: h.weights_q16.unwrap(),
        report: h.report.unwrap(),
    }
}

/// Deterministic pattern-parameter stream (tiny xorshift; no external
/// RNG in integration tests).
struct ParamRng(u64);

impl ParamRng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// A random hybrid pattern: one or two windows (possibly dilated),
/// globals in a prefix so every non-global row is decodable.
fn random_pattern(rng: &mut ParamRng) -> HybridPattern {
    let n = rng.pick(20, 48) as usize;
    let mut builder = HybridPattern::builder(n);
    let windows = rng.pick(1, 3);
    for w in 0..windows {
        let dilation = rng.pick(1, 4) as usize;
        let width = rng.pick(1, 6) as i64;
        let span = width * dilation as i64;
        // The first window always reaches the past; later ones may poke
        // into the future (exercising the causal clip) or be entirely
        // future (dropped by it).
        let lo = if w == 0 { -(rng.pick(1, 8) as i64) - span } else { rng.pick(0, 12) as i64 - 8 };
        builder = builder.window(Window::dilated(lo, lo + span, dilation).unwrap());
    }
    let globals = rng.pick(0, 3) as usize;
    for g in 0..globals {
        builder = builder.global_token(g);
    }
    builder.build().unwrap()
}

/// Runs one full decode generation and asserts bit-identity against the
/// causal-prefill rows: raw outputs, weights, global rows, saturation.
fn assert_decode_matches_prefill(salo: &Salo, pattern: &HybridPattern, d: usize, seed: u64) {
    let mut session = DecodeSession::new(salo, pattern, d).unwrap();
    let n = session.capacity();
    let qkv = Qkv::random(n, d, seed);
    let prefill = prefill_oracle(salo, session.shared_plan(), &qkv);

    session.prime_rows(&qkv, 0..session.min_step()).unwrap();
    for t in session.min_step()..n {
        let step = session.step(qkv.q.row(t), qkv.k.row(t), qkv.v.row(t)).unwrap();
        assert_eq!(step.position, t);
        let prefill_row: Vec<_> = (0..d).map(|c| prefill.raw.get(t, c)).collect();
        assert_eq!(step.raw, prefill_row, "step {t} raw output");
        assert_eq!(step.weight_q16, prefill.weights_q16[t], "step {t} weight");
    }
    for (g, raw, weight) in session.global_rows() {
        let prefill_row: Vec<_> = (0..d).map(|c| prefill.raw.get(g, c)).collect();
        assert_eq!(raw, prefill_row, "global row {g}");
        assert_eq!(weight, prefill.weights_q16[g], "global row {g} weight");
    }
    assert_eq!(
        session.saturation_events(),
        prefill.report.saturation_events,
        "decode and prefill perform the same MAC chains"
    );
}

#[test]
fn decode_matches_causal_prefill_on_random_hybrid_patterns() {
    let salo = small_salo();
    let mut rng = ParamRng(0x5a10_dec0_de01);
    for case in 0..12 {
        let pattern = random_pattern(&mut rng);
        let d = [4, 8][case % 2];
        assert_decode_matches_prefill(&salo, &pattern, d, 1000 + case as u64);
    }
}

#[test]
fn decode_matches_causal_prefill_on_pattern_zoo_families() {
    // The IR term families (random blocks, strided, explicit block-sparse)
    // lower to gather components; streaming decode must reproduce the
    // causal-prefill oracle bit for bit on each of them.
    use salo::patterns::{bigbird, strided_fixed, BlockLayout, PatternTerm};
    let salo = small_salo();
    let block_sparse = HybridPattern::from_terms(
        32,
        vec![
            PatternTerm::Window(Window::causal(4).unwrap()),
            PatternTerm::BlockSparse {
                block_rows: 8,
                layout: BlockLayout::Explicit(vec![(3, 0), (2, 1)]),
            },
        ],
    )
    .unwrap();
    let zoo = [bigbird(40, 6, 2, 2, 9).unwrap(), strided_fixed(36, 6).unwrap(), block_sparse];
    for (case, pattern) in zoo.into_iter().enumerate() {
        assert_decode_matches_prefill(&salo, &pattern, 8, 4000 + case as u64);
    }
}

#[test]
fn residual_support_pins_pages_past_the_window_horizon() {
    // A block-sparse residual referencing keys far older than the sliding
    // window's horizon: the reclamation watermark must hold those pages
    // (and everything above them) resident until the referencing rows
    // decode, while a window-only control reclaims freely — and both stay
    // bit-identical to contiguous prefill throughout.
    use salo::patterns::{AttentionShape, BlockLayout, PatternTerm};
    use salo::sim::{DecodeState, ExecScratch, KvPagePool, SpatialAccelerator};

    let salo = small_salo();
    let n = 48;
    let d = 8;
    let page_rows = 4;
    // Rows 40..48 attend keys 0..8 through the explicit block — far
    // outside the causal(4) window horizon by the time they decode.
    let residual_pattern = HybridPattern::from_terms(
        n,
        vec![
            PatternTerm::Window(Window::causal(4).unwrap()),
            PatternTerm::BlockSparse { block_rows: 8, layout: BlockLayout::Explicit(vec![(5, 0)]) },
        ],
    )
    .unwrap();
    let control_pattern =
        HybridPattern::from_terms(n, vec![PatternTerm::Window(Window::causal(4).unwrap())])
            .unwrap();

    // Runs a full paged generation, asserting bit-identity per step, and
    // returns resident page counts indexed by position.
    let run = |pattern: &HybridPattern| -> Vec<usize> {
        let causal = pattern.decode_view().unwrap().into_causal_pattern();
        let shape = AttentionShape::new(causal.n(), d, 1).unwrap();
        let compiled = std::sync::Arc::new(salo.compile(&causal, &shape).unwrap());
        let decode = compiled.decode_plan().unwrap();
        let qkv = Qkv::random(causal.n(), d, 321);
        let prefill = prefill_oracle(&salo, std::sync::Arc::clone(&compiled), &qkv);

        let accel = salo.accelerator();
        let scale = SpatialAccelerator::default_scale(d);
        let mut state = DecodeState::new(&decode, d);
        let mut pool = KvPagePool::new(page_rows);
        let mut scratch = ExecScratch::new();
        for t in 0..decode.min_step() {
            accel
                .prime_token(
                    &decode,
                    &mut state,
                    qkv.q.row(t),
                    qkv.k.row(t),
                    qkv.v.row(t),
                    scale,
                    &mut pool,
                    &mut scratch,
                )
                .unwrap();
        }
        let mut resident = Vec::with_capacity(causal.n());
        resident.resize(decode.min_step(), 0usize);
        for t in decode.min_step()..causal.n() {
            let step = accel
                .execute_step(
                    &decode,
                    &mut state,
                    qkv.q.row(t),
                    qkv.k.row(t),
                    qkv.v.row(t),
                    scale,
                    &mut pool,
                    &mut scratch,
                )
                .unwrap();
            let row: Vec<_> = (0..d).map(|c| prefill.raw.get(t, c)).collect();
            assert_eq!(step.raw, row, "step {t} raw output");
            assert_eq!(step.weight_q16, prefill.weights_q16[t], "step {t} weight");
            resident.push(state.resident_pages());
        }
        assert_eq!(state.saturation_events(), prefill.report.saturation_events);
        resident
    };

    let with_residual = run(&residual_pattern);
    let control = run(&control_pattern);

    // Just before the block rows decode, the pending residual reference to
    // key 0 holds the whole history resident; the control has long since
    // reclaimed down to its window.
    let t = 39usize;
    let allocated = (t + 1).div_ceil(page_rows);
    assert_eq!(with_residual[t], allocated, "pending residual keys at row 0 pin the full history");
    assert!(
        control[t] < allocated / 2,
        "window-only control reclaims dead pages (resident {} of {allocated})",
        control[t]
    );
    // Once the final block row has decoded, nothing references old keys
    // and the residual session reclaims too.
    assert!(
        with_residual[n - 1] < allocated,
        "residual pages are released after their referencing rows decode"
    );
}

#[test]
fn decode_matches_prefill_under_saturation() {
    // Oversized inputs overflow the stage-1 accumulator chain; the decode
    // path must saturate in exactly the same places (equal event counts)
    // and still produce bit-identical rows.
    let salo = small_salo();
    let pattern = HybridPattern::builder(24)
        .window(Window::causal(6).unwrap())
        .global_token(0)
        .build()
        .unwrap();
    let mut session = DecodeSession::new(&salo, &pattern, 8).unwrap();
    let qkv = Qkv::random(24, 8, 77);
    // Blow up the magnitudes far past the Q.4 grid.
    let boom = |m: &salo::kernels::Matrix<f32>| m.map(|x| x * 1e6);
    let qkv = Qkv::new(boom(&qkv.q), boom(&qkv.k), boom(&qkv.v)).unwrap();
    let prefill = prefill_oracle(&salo, session.shared_plan(), &qkv);

    session.prime_rows(&qkv, 0..1).unwrap();
    let mut decoded_events = 0;
    for t in 1..24 {
        let step = session.step(qkv.q.row(t), qkv.k.row(t), qkv.v.row(t)).unwrap();
        decoded_events += step.saturation_events;
        let row: Vec<_> = (0..8).map(|c| prefill.raw.get(t, c)).collect();
        assert_eq!(step.raw, row, "saturating step {t}");
    }
    // Note: with d = 8 the stage-1 fast path cannot overflow; saturation
    // counting is still exercised end to end and must agree exactly.
    assert_eq!(
        session.saturation_events(),
        prefill.report.saturation_events,
        "cumulative saturation (decoded {decoded_events} during steps)"
    );
}

#[test]
fn longer_prompts_skip_rows_but_keep_later_steps_identical() {
    // Priming past min_step is allowed (a real prompt); the skipped rows
    // get no decode output, and every later step still matches prefill.
    let salo = small_salo();
    let pattern = HybridPattern::builder(32)
        .window(Window::symmetric(7).unwrap())
        .global_token(0)
        .build()
        .unwrap();
    let mut session = DecodeSession::new(&salo, &pattern, 8).unwrap();
    let qkv = Qkv::random(32, 8, 11);
    let prefill = prefill_oracle(&salo, session.shared_plan(), &qkv);

    let prompt_len = 10;
    session.prime_rows(&qkv, 0..prompt_len).unwrap();
    assert_eq!(session.position(), prompt_len);
    for t in prompt_len..32 {
        let step = session.step(qkv.q.row(t), qkv.k.row(t), qkv.v.row(t)).unwrap();
        let row: Vec<_> = (0..8).map(|c| prefill.raw.get(t, c)).collect();
        assert_eq!(step.raw, row, "post-prompt step {t}");
        assert_eq!(step.weight_q16, prefill.weights_q16[t]);
    }
    // The global row still catches up completely.
    let (g, raw, weight) = session.global_rows().remove(0);
    assert_eq!(g, 0);
    assert_eq!(raw, (0..8).map(|c| prefill.raw.get(0, c)).collect::<Vec<_>>());
    assert_eq!(weight, prefill.weights_q16[0]);
}

#[test]
fn interleaved_sessions_do_not_leak_state() {
    // Two sessions of different shapes decoded in lockstep, then the same
    // two decoded in isolation: all four must agree step for step. This
    // is the no-stale-arena property a worker switching sessions relies
    // on.
    let salo = small_salo();
    let pat_a = HybridPattern::builder(30)
        .window(Window::causal(7).unwrap())
        .global_token(0)
        .build()
        .unwrap();
    let pat_b =
        HybridPattern::builder(22).window(Window::dilated(-9, -1, 2).unwrap()).build().unwrap();
    let qkv_a = Qkv::random(30, 8, 1);
    let qkv_b = Qkv::random(22, 4, 2);

    let run_isolated = |pattern: &HybridPattern, qkv: &Qkv, d: usize| {
        let mut s = DecodeSession::new(&salo, pattern, d).unwrap();
        s.prime_rows(qkv, 0..s.min_step()).unwrap();
        (s.min_step()..s.capacity())
            .map(|t| s.step(qkv.q.row(t), qkv.k.row(t), qkv.v.row(t)).unwrap())
            .collect::<Vec<_>>()
    };
    let solo_a = run_isolated(&pat_a, &qkv_a, 8);
    let solo_b = run_isolated(&pat_b, &qkv_b, 4);

    let mut sa = DecodeSession::new(&salo, &pat_a, 8).unwrap();
    let mut sb = DecodeSession::new(&salo, &pat_b, 4).unwrap();
    sa.prime_rows(&qkv_a, 0..sa.min_step()).unwrap();
    sb.prime_rows(&qkv_b, 0..sb.min_step()).unwrap();
    let mut ia = 0;
    let mut ib = 0;
    for round in 0.. {
        let mut progressed = false;
        let ta = sa.min_step() + ia;
        if ta < sa.capacity() && round % 3 != 2 {
            let step = sa.step(qkv_a.q.row(ta), qkv_a.k.row(ta), qkv_a.v.row(ta)).unwrap();
            assert_eq!(step, solo_a[ia], "interleaved A step {ta}");
            ia += 1;
            progressed = true;
        }
        let tb = sb.min_step() + ib;
        if tb < sb.capacity() {
            let step = sb.step(qkv_b.q.row(tb), qkv_b.k.row(tb), qkv_b.v.row(tb)).unwrap();
            assert_eq!(step, solo_b[ib], "interleaved B step {tb}");
            ib += 1;
            progressed = true;
        }
        if !progressed && ta >= sa.capacity() {
            break;
        }
    }
    assert_eq!(ia, solo_a.len());
    assert_eq!(ib, solo_b.len());
}

/// Drives one serve session to completion in lockstep, returning every
/// step's per-head outputs.
fn drive_serve_session(
    server: &SaloServer,
    request: salo::serve::SessionRequest,
    steps: &[Vec<TokenQkv>],
) -> (salo::serve::SessionInfo, Vec<salo::serve::DecodeStep>) {
    let handle = server.open_session(request).unwrap();
    let info = handle.wait_open().unwrap();
    let mut outputs = Vec::with_capacity(steps.len());
    for token in steps {
        server.step_session(handle.id(), token.clone()).unwrap();
        outputs.push(handle.next_step().unwrap());
    }
    server.close_session(handle.id()).unwrap();
    match handle.recv().unwrap() {
        ServeEvent::Closed { position, .. } => {
            assert_eq!(position, Some(info.capacity), "session ran to capacity");
        }
        other => panic!("expected Closed, got {other:?}"),
    }
    (info, outputs)
}

#[test]
fn serve_sessions_match_core_sessions_and_amortize_plans() {
    let config = AcceleratorConfig::default();
    let server =
        SaloServer::start(config.clone(), ServeOptions { workers: 2, ..Default::default() });
    let traffic = GenerationTraffic::demo_mix();
    let salo = Salo::new(config);

    for i in 0..4u64 {
        let (request, steps) = traffic.session(i);
        let shape = &traffic.shapes()[(i % traffic.len() as u64) as usize];
        let (info, outputs) = drive_serve_session(&server, request.clone(), &steps);
        assert_eq!(info.capacity, shape.pattern.n());
        assert_eq!(info.position, shape.prompt_len);
        if i >= traffic.len() as u64 {
            assert!(info.cache_hit, "session {i} should reuse a cached plan");
        }

        // The oracle: one core decode session per head over the same
        // inputs.
        for h in 0..shape.num_heads {
            let mut core = DecodeSession::new(&salo, &shape.pattern, shape.head_dim).unwrap();
            core.prime_rows(&request.prompt[h], 0..shape.prompt_len).unwrap();
            for (s, token) in steps.iter().enumerate() {
                let expect = core.step(&token[h].q, &token[h].k, &token[h].v).unwrap();
                let got = &outputs[s].heads[h];
                assert_eq!(got.raw.as_ref(), Some(&expect.raw), "session {i} head {h} step {s}");
                assert_eq!(got.weight_q16, Some(expect.weight_q16));
            }
        }
    }
    assert_eq!(server.active_sessions(), 0);
    let report = server.shutdown();
    assert_eq!(report.decode_sessions, 4);
    assert_eq!(report.decode_session_errors, 0);
    let expected_steps: u64 = (0..4u64)
        .map(|i| traffic.shapes()[(i % traffic.len() as u64) as usize].steps() as u64)
        .sum();
    assert_eq!(report.decode_steps, expected_steps);
    assert_eq!(report.decode_step_errors, 0);
    assert_eq!(report.decode_step_latency_hist.count, expected_steps);
}

#[test]
fn serve_session_errors_are_reported_not_hung() {
    // One K/V row per page and eleven pages per worker: the two-head
    // session below opens on six (three prompt rows a head), its two good
    // steps take two each, and the third finds one page left — head 0
    // gets it, head 1 is refused. Nothing is reclaimed on the way: the
    // window is wider than the session ever gets.
    let server = SaloServer::start(
        AcceleratorConfig::default(),
        ServeOptions {
            decode_page_rows: Some(1),
            decode_pool_pages: Some(11),
            ..Default::default()
        },
    );

    // Unknown ids are rejected synchronously.
    let token = vec![TokenQkv { q: vec![0.0; 4], k: vec![0.0; 4], v: vec![0.0; 4] }];
    assert!(matches!(
        server.step_session(999, token.clone()),
        Err(ServeError::UnknownSession { session: 999 })
    ));
    assert!(matches!(server.close_session(999), Err(ServeError::UnknownSession { .. })));

    // A prompt that does not cover the globals is rejected up front.
    let pattern = HybridPattern::builder(16)
        .window(Window::causal(8).unwrap())
        .global_token(2)
        .build()
        .unwrap();
    let bad = salo::serve::SessionRequest {
        pattern: pattern.clone(),
        head_dim: 4,
        num_heads: 1,
        prompt: vec![Qkv::random(1, 4, 0)], // needs >= 3 rows
    };
    assert!(matches!(server.open_session(bad), Err(ServeError::InvalidRequest { .. })));

    // A malformed step fails via the event channel and nothing else
    // happens: head count and every head's row lengths are checked before
    // any head moves, so the session stays live at the same position and
    // keeps decoding — here against a twin (pinned to another worker,
    // with its own pool) that never saw a bad token. What does kill a
    // session is a failure that lands after one head has moved: the
    // bounded pool refusing head 1 its page once head 0 took the last
    // one. The heads are desynced, the runtime drops the session
    // everywhere, so once the client has observed the error the id is
    // gone — further steps and closes report UnknownSession instead of
    // being silently swallowed.
    let good = salo::serve::SessionRequest {
        pattern,
        head_dim: 4,
        num_heads: 2,
        prompt: vec![Qkv::random(3, 4, 0), Qkv::random(3, 4, 1)],
    };
    let handle = server.open_session(good.clone()).unwrap();
    let info = handle.wait_open().unwrap();
    assert_eq!(info.min_step, 3);
    let twin = server.open_session(good).unwrap();
    assert_ne!(twin.wait_open().unwrap().worker, info.worker);
    let tok = |x: f32| TokenQkv { q: vec![x; 4], k: vec![x; 4], v: vec![x; 4] };
    let short = || TokenQkv { q: vec![0.1; 2], k: vec![0.1; 2], v: vec![0.1; 2] };
    let step_both = |x: f32| {
        server.step_session(handle.id(), vec![tok(x), tok(-x)]).unwrap();
        server.step_session(twin.id(), vec![tok(x), tok(-x)]).unwrap();
        let (ours, theirs) = (handle.next_step().unwrap(), twin.next_step().unwrap());
        assert_eq!(ours.position, theirs.position);
        assert_eq!(ours.heads, theirs.heads, "bit-identical to the twin that saw no bad token");
        ours.position
    };

    // Wrong head count: recoverable, the session keeps serving.
    server.step_session(handle.id(), vec![tok(0.1)]).unwrap();
    assert!(
        matches!(handle.next_step(), Err(ServeError::InvalidRequest { .. })),
        "head-count mismatch surfaces as a step error"
    );
    assert_eq!(step_both(0.1), 3, "an intact session keeps decoding after the error");

    // Mixed dimensions — head 0 well-formed, head 1 short: recoverable
    // too, because head 0 was never allowed to advance on its own.
    server.step_session(handle.id(), vec![tok(0.2), short()]).unwrap();
    assert!(
        matches!(handle.next_step(), Err(ServeError::InvalidRequest { .. })),
        "dimension mismatch surfaces as a step error"
    );
    assert_eq!(server.active_sessions(), 2, "a malformed token retires nobody");
    assert_eq!(step_both(0.3), 4, "same position as the twin: the bad token left no trace");
    server.close_session(twin.id()).unwrap();

    // Pool refusal on head 1: head 0 advanced, head 1 did not — desync.
    server.step_session(handle.id(), vec![tok(0.4), tok(-0.4)]).unwrap();
    assert!(handle.next_step().is_err(), "the refused allocation surfaces as a step error");
    assert!(
        matches!(handle.recv().unwrap(), ServeEvent::Closed { position: Some(5), .. }),
        "poison closes, at the position the failing step began"
    );
    assert_eq!(server.active_sessions(), 0, "the poisoned session is deregistered");
    assert!(matches!(
        server.step_session(handle.id(), token),
        Err(ServeError::UnknownSession { .. })
    ));
    assert!(matches!(server.close_session(handle.id()), Err(ServeError::UnknownSession { .. })));
    let report = server.shutdown();
    assert_eq!(report.decode_step_errors, 3, "two recoverable failures and the poisoning one");
    assert_eq!(report.decode_pool_exhausted, 1);
}

/// Session A's view of one malformed step (head 0 well-formed, head 1
/// short) followed by a good step and a close, on a fresh one-worker
/// server: A's events in order (`None` = the terminal `Closed`), the live
/// session count right after the malformed step's error was observed, and
/// how many fused ticks the worker ran. With `beside_another` the worker
/// is first given a layer to chew on, so the malformed step and a step of
/// session B are both queued when it next looks and share one tick.
fn malformed_step_as_seen_by_its_session(
    beside_another: bool,
) -> (Vec<Option<Result<salo::serve::DecodeStep, ServeError>>>, usize, u64) {
    let server = SaloServer::start(
        AcceleratorConfig::default(),
        ServeOptions { workers: 1, ..Default::default() },
    );
    let traffic = GenerationTraffic::demo_mix();
    let (request, steps) = traffic.session(0);
    let a = server.open_session(request.clone()).unwrap();
    let b = server.open_session(request).unwrap();
    a.wait_open().unwrap();
    b.wait_open().unwrap();
    let mut malformed = steps[0].clone();
    malformed[1].k.truncate(1);
    let event = |handle: &salo::serve::DecodeSessionHandle| match handle.recv().unwrap() {
        ServeEvent::Step { result, .. } => Some(result),
        ServeEvent::Closed { .. } => None,
        other => panic!("not a session's step or close: {other:?}"),
    };

    if beside_another {
        server.submit(salo::serve::TrafficMix::demo_mix().request(0)).unwrap();
        server.step_session(b.id(), steps[0].clone()).unwrap();
    }
    server.step_session(a.id(), malformed).unwrap();
    let mut events = vec![event(&a)];
    let live = server.active_sessions();
    if beside_another {
        b.next_step().expect("the neighbour's step is untouched by the malformed one");
        server.recv().unwrap().output().unwrap();
    }
    match server.step_session(a.id(), steps[0].clone()) {
        Ok(()) => events.push(event(&a)),
        Err(e) => events.push(Some(Err(e))),
    }
    if server.close_session(a.id()).is_ok() {
        events.push(event(&a));
    }
    let ticks = server.metrics().counter("serve.decode.ticks").get();
    let _ = server.shutdown();
    (events, live, ticks)
}

#[test]
fn a_malformed_step_gets_the_same_outcome_alone_and_fused() {
    // Which of the two a wire peer gets depends on nothing it controls:
    // whether another session's step sat in the worker's queue that tick.
    let (alone, live_alone, ticks) = malformed_step_as_seen_by_its_session(false);
    assert_eq!(ticks, 0, "one step in flight never fuses");
    // Fusing needs both steps queued while the worker is busy; the tick
    // counter says whether a run got there, so only such a run is used.
    let (fused, live_fused) = (0..20)
        .map(|_| malformed_step_as_seen_by_its_session(true))
        .find_map(|(events, live, ticks)| (ticks == 1).then_some((events, live)))
        .expect("two steps queued behind a busy worker share a tick");

    assert_eq!(alone, fused, "same event sequence whether or not the step fused");
    assert_eq!((live_alone, live_fused), (2, 2), "a malformed token retires nobody");
    assert!(
        matches!(alone[0], Some(Err(ServeError::InvalidRequest { .. }))),
        "the malformed step fails"
    );
    assert!(matches!(alone[1], Some(Ok(_))), "its session decodes on, the token left no trace");
    assert_eq!(alone[2], None, "and closes normally");
}

#[test]
fn steps_racing_a_poisoning_failure_error_instead_of_hanging() {
    // A step already accepted when its session is poisoned must still
    // produce an event (the client may be blocking on it); it must never
    // be silently swallowed.
    // The open takes four of the pool's five one-row pages (two prompt
    // rows a head), so the first step's head 0 gets the last one and
    // head 1 is refused: the desync poisons.
    let server = SaloServer::start(
        AcceleratorConfig::default(),
        ServeOptions {
            workers: 1,
            decode_page_rows: Some(1),
            decode_pool_pages: Some(5),
            ..Default::default()
        },
    );
    let pattern = HybridPattern::builder(16).window(Window::causal(4).unwrap()).build().unwrap();
    let request = salo::serve::SessionRequest {
        pattern,
        head_dim: 4,
        num_heads: 2,
        prompt: vec![Qkv::random(2, 4, 7), Qkv::random(2, 4, 8)],
    };
    let handle = server.open_session(request).unwrap();
    handle.wait_open().unwrap();

    let full = || TokenQkv { q: vec![0.1; 4], k: vec![0.1; 4], v: vec![0.1; 4] };
    let good = vec![full(), full()];
    server.step_session(handle.id(), good.clone()).unwrap();
    // Submitted before the poison propagates, the second step is either
    // rejected up front (the worker already deregistered the session) or
    // accepted — and an accepted step always reaches the pinned worker,
    // which answers it with the engine's `UnknownSession`: never dropped
    // without an event or a count.
    let second_accepted = match server.step_session(handle.id(), good) {
        Ok(()) => true,
        Err(ServeError::UnknownSession { .. }) => false,
        Err(other) => panic!("unexpected rejection: {other}"),
    };
    // Drain to the terminal Closed event — every recv here must complete
    // (a hang is the bug), and Closed is the point past which a client
    // owes no more waiting; the racing step's own event follows it.
    let mut step_errors = 0;
    loop {
        match handle.recv().unwrap() {
            ServeEvent::Step { result, .. } => {
                assert!(result.is_err(), "both steps fail");
                step_errors += 1;
            }
            ServeEvent::Closed { .. } => break,
            other => panic!("not a session's step or close: {other:?}"),
        }
    }
    assert_eq!(step_errors, 1, "the poisoning step reports, then the session closes");
    if second_accepted {
        assert!(
            matches!(
                handle.recv().unwrap(),
                ServeEvent::Step { result: Err(ServeError::UnknownSession { .. }), .. }
            ),
            "an accepted step gets its one event, even after the terminal Closed"
        );
    }
    // One error for the poisoning step, one for every step accepted
    // behind it: exactly, not at most.
    let report = server.shutdown();
    assert_eq!(report.decode_step_errors, 1 + u64::from(second_accepted));
    assert_eq!(report.decode_steps, 1 + u64::from(second_accepted));
}

#[test]
fn decode_plan_cache_is_head_count_independent() {
    // The compiled causal plan does not depend on the head count (state
    // is per head, the program is not), so sessions differing only in
    // num_heads must share one cache entry.
    let server = SaloServer::with_defaults(AcceleratorConfig::default());
    let pattern = HybridPattern::builder(16)
        .window(Window::causal(4).unwrap())
        .global_token(0)
        .build()
        .unwrap();
    let one = salo::serve::SessionRequest {
        pattern: pattern.clone(),
        head_dim: 4,
        num_heads: 1,
        prompt: vec![Qkv::random(3, 4, 0)],
    };
    let two = salo::serve::SessionRequest {
        pattern,
        head_dim: 4,
        num_heads: 2,
        prompt: vec![Qkv::random(3, 4, 1), Qkv::random(3, 4, 2)],
    };
    let wide = salo::serve::SessionRequest {
        pattern: two.pattern.clone(),
        head_dim: 8,
        num_heads: 1,
        prompt: vec![Qkv::random(3, 8, 3)],
    };
    let h1 = server.open_session(one).unwrap();
    assert!(!h1.wait_open().unwrap().cache_hit);
    let h2 = server.open_session(two).unwrap();
    assert!(h2.wait_open().unwrap().cache_hit, "head count must not change the plan key");
    let h3 = server.open_session(wide).unwrap();
    assert!(h3.wait_open().unwrap().cache_hit, "head dimension must not change the plan key");
    for h in [&h1, &h2, &h3] {
        server.close_session(h.id()).unwrap();
    }
    let _ = server.shutdown();
}

#[test]
fn steps_accepted_before_close_still_execute() {
    // Queue order is authoritative: a step accepted before close_session
    // executes and delivers its output, even though the close's removal
    // from the session table (on the caller thread) lands before the
    // worker sees the queued step.
    let server = SaloServer::start(
        AcceleratorConfig::default(),
        ServeOptions { workers: 1, ..Default::default() },
    );
    let traffic = GenerationTraffic::demo_mix();
    let (request, steps) = traffic.session(0);
    let prompt_len = traffic.shapes()[0].prompt_len;
    let handle = server.open_session(request).unwrap();
    handle.wait_open().unwrap();

    server.step_session(handle.id(), steps[0].clone()).unwrap();
    server.close_session(handle.id()).unwrap(); // before draining events
    let step = handle.next_step().expect("the accepted step must execute");
    assert_eq!(step.position, prompt_len);
    assert!(matches!(handle.recv().unwrap(), ServeEvent::Closed { .. }));

    let report = server.shutdown();
    assert_eq!(report.decode_steps, 1);
    assert_eq!(report.decode_step_errors, 0, "no retroactive failure");
}

#[test]
fn sessions_spread_across_workers() {
    // Pinning weighs live sessions, not just transient queue depth:
    // sessions opened back to back on an idle pool must not all land on
    // worker 0.
    let server = SaloServer::start(
        AcceleratorConfig::default(),
        ServeOptions { workers: 2, ..Default::default() },
    );
    let traffic = GenerationTraffic::demo_mix();
    let mut handles = Vec::new();
    let mut workers = Vec::new();
    for i in 0..4u64 {
        let (request, _) = traffic.session(i);
        let handle = server.open_session(request).unwrap();
        workers.push(handle.wait_open().unwrap().worker);
        handles.push(handle); // keep the session open so it stays pinned
    }
    assert_eq!(workers, vec![0, 1, 0, 1], "round-robin under equal pinned load");
    for handle in &handles {
        server.close_session(handle.id()).unwrap();
    }
    let _ = server.shutdown();
}

#[test]
fn retired_sessions_free_their_placement_slot() {
    // A poisoned session leaves the session table with its failure, so it
    // neither leaks nor counts against its worker when later sessions are
    // placed.
    // Demo shape 0 opens on 2 heads x 16 prompt rows; at one row per page
    // that is 32 of each worker's 33 pages, so the first step's head 0
    // advances on the last page and head 1 is refused: the desync
    // poisons the session.
    let server = SaloServer::start(
        AcceleratorConfig::default(),
        ServeOptions {
            workers: 2,
            decode_page_rows: Some(1),
            decode_pool_pages: Some(33),
            ..Default::default()
        },
    );
    let traffic = GenerationTraffic::demo_mix();
    let (request, steps) = traffic.session(0);
    let poisoned = server.open_session(request.clone()).unwrap();
    assert_eq!(poisoned.wait_open().unwrap().worker, 0);
    server.step_session(poisoned.id(), steps[0].clone()).unwrap();
    assert!(poisoned.next_step().is_err());
    assert!(matches!(poisoned.recv().unwrap(), ServeEvent::Closed { .. }));

    // The dead session must not occupy worker 0's slot.
    let a = server.open_session(request.clone()).unwrap();
    let b = server.open_session(request).unwrap();
    assert_eq!(a.wait_open().unwrap().worker, 0, "the poisoned session's slot was freed");
    assert_eq!(b.wait_open().unwrap().worker, 1);
    server.close_session(a.id()).unwrap();
    server.close_session(b.id()).unwrap();
    let _ = server.shutdown();
}

#[test]
fn failed_opens_deregister_the_session() {
    // An open that passes front-end validation but fails asynchronously
    // (here: the pattern needs global units the configured instance does
    // not have) must not leak its id: once the failed handshake is
    // observed, the session does not count as active and steps to it are
    // rejected rather than silently dropped.
    let mut config = AcceleratorConfig::default();
    config.hw.global_rows = 0;
    config.hw.global_cols = 0;
    let server = SaloServer::with_defaults(config);
    let pattern = HybridPattern::builder(16)
        .window(Window::causal(4).unwrap())
        .global_token(1)
        .build()
        .unwrap();
    let request = salo::serve::SessionRequest {
        pattern,
        head_dim: 4,
        num_heads: 1,
        prompt: vec![Qkv::random(3, 4, 0)],
    };
    let handle = server.open_session(request).unwrap();
    assert!(handle.wait_open().is_err(), "no global units: the open must fail");
    assert_eq!(server.active_sessions(), 0, "failed opens must not leak");
    let token = vec![TokenQkv { q: vec![0.0; 4], k: vec![0.0; 4], v: vec![0.0; 4] }];
    assert!(matches!(
        server.step_session(handle.id(), token),
        Err(ServeError::UnknownSession { .. })
    ));
    assert!(matches!(server.close_session(handle.id()), Err(ServeError::UnknownSession { .. })));
    let report = server.shutdown();
    assert_eq!(report.decode_sessions, 1);
    assert_eq!(report.decode_session_errors, 1);
    assert_eq!(report.decode_steps, 0, "no step ever reached the runtime");
}

#[test]
fn an_open_with_an_empty_causal_view_is_refused_on_its_worker() {
    // A window over future keys only and no globals: nothing to decode.
    // The front door does not build the causal clip, so the open passes
    // it; the pinned worker clips, finds the view empty, and refuses the
    // open in its `Opened` event as the client's malformed request —
    // deregistered before the event is sent.
    let server = SaloServer::with_defaults(AcceleratorConfig::default());
    let pattern =
        HybridPattern::builder(16).window(Window::sliding(1, 3).unwrap()).build().unwrap();
    let request = salo::serve::SessionRequest {
        pattern,
        head_dim: 4,
        num_heads: 1,
        prompt: vec![Qkv::random(2, 4, 0)],
    };
    assert!(request.validate().is_ok(), "the front door's rules never look at the clip");
    let handle = server.open_session(request).unwrap();
    match handle.recv().unwrap() {
        ServeEvent::Opened { session, result: Err(ServeError::InvalidRequest { reason }) } => {
            assert_eq!(session, handle.id());
            assert!(reason.starts_with("pattern: "), "{reason}");
        }
        other => panic!("expected an InvalidRequest open, got {other:?}"),
    }
    assert_eq!(server.active_sessions(), 0, "the refused open leaves no session");
    let report = server.shutdown();
    assert_eq!((report.decode_sessions, report.decode_session_errors), (1, 1));
}

#[test]
fn a_cold_compile_stalls_its_own_worker_and_nobody_else() {
    // Session A decodes on worker 0 while a cold open at the `decode_long`
    // shape — a scheduler pass that dwarfs a step even in a debug build —
    // is placed on worker 1. The worker that will execute a plan is the
    // one that compiles it, so A's step, submitted right behind the open,
    // waits for none of it.
    let server = SaloServer::start(
        AcceleratorConfig::default(),
        ServeOptions { workers: 2, ..Default::default() },
    );
    let (request, steps) = GenerationTraffic::demo_mix().session(0);
    let a = server.open_session(request).unwrap();
    assert_eq!(a.wait_open().unwrap().worker, 0);

    let pattern = HybridPattern::builder(8192)
        .window(Window::causal(1024).unwrap())
        .global_token(0)
        .build()
        .unwrap();
    let cold = salo::serve::SessionRequest {
        pattern,
        head_dim: 8,
        num_heads: 1,
        prompt: vec![Qkv::random(1, 8, 0)],
    };
    let began = std::time::Instant::now();
    let b = server.open_session(cold).unwrap();
    server.step_session(a.id(), steps[0].clone()).unwrap();
    let info = b.wait_open().unwrap();
    let open_s = began.elapsed().as_secs_f64();
    assert_eq!((info.worker, info.cache_hit), (1, false), "a cold open, beside A");

    let ServeEvent::Step { result, latency_s, .. } = a.recv().unwrap() else {
        panic!("A's step is its next event");
    };
    result.unwrap();
    assert!(
        latency_s < open_s / 10.0,
        "a step of {latency_s:.4} s waited on a stranger's {open_s:.4} s open"
    );
    let _ = server.shutdown();
}

#[test]
fn mixed_layer_and_decode_traffic_share_the_runtime() {
    // Layer requests and decode sessions interleave on the same pool;
    // ordered layer delivery and per-session step order both hold.
    let server = SaloServer::start(
        AcceleratorConfig::default(),
        ServeOptions { workers: 2, ..Default::default() },
    );
    let layers = salo::serve::TrafficMix::demo_mix();
    let generation = GenerationTraffic::demo_mix();
    let (request, steps) = generation.session(0);

    let handle = server.open_session(request).unwrap();
    for i in 0..6 {
        server.submit(layers.request(i)).unwrap();
    }
    handle.wait_open().unwrap();
    for (s, token) in steps.iter().enumerate() {
        server.step_session(handle.id(), token.clone()).unwrap();
        let step = handle.next_step().unwrap();
        assert_eq!(step.position, generation.shapes()[0].prompt_len + s);
    }
    for i in 0..6 {
        let response = server.recv().unwrap();
        assert_eq!(response.id, i, "layer responses stay ordered");
        assert!(response.result.is_ok());
    }
    server.close_session(handle.id()).unwrap();
    let report = server.shutdown();
    assert_eq!(report.requests, 6);
    assert_eq!(report.decode_sessions, 1);
    assert_eq!(report.decode_steps, generation.shapes()[0].steps() as u64);
}

#[test]
fn pinned_worker_switches_sessions_without_stale_state() {
    // A single-worker pool forces every session through one thread (one
    // scratch, session map churn); outputs must equal the multi-session
    // core oracle exactly.
    let config = AcceleratorConfig::default();
    let server =
        SaloServer::start(config.clone(), ServeOptions { workers: 1, ..Default::default() });
    let traffic = GenerationTraffic::demo_mix();
    let salo = Salo::new(config);

    // Open both shapes at once so the worker holds two live sessions and
    // alternates between them.
    let (req_a, steps_a) = traffic.session(0);
    let (req_b, steps_b) = traffic.session(1);
    let ha = server.open_session(req_a.clone()).unwrap();
    let hb = server.open_session(req_b.clone()).unwrap();
    let ia = ha.wait_open().unwrap();
    let ib = hb.wait_open().unwrap();
    assert_eq!((ia.worker, ib.worker), (0, 0), "single worker hosts both sessions");

    let mut core_a: Vec<DecodeSession> = (0..req_a.num_heads)
        .map(|h| {
            let shape = &traffic.shapes()[0];
            let mut s = DecodeSession::new(&salo, &shape.pattern, shape.head_dim).unwrap();
            s.prime_rows(&req_a.prompt[h], 0..traffic.shapes()[0].prompt_len).unwrap();
            s
        })
        .collect();
    let mut core_b: Vec<DecodeSession> = (0..req_b.num_heads)
        .map(|h| {
            let shape = &traffic.shapes()[1];
            let mut s = DecodeSession::new(&salo, &shape.pattern, shape.head_dim).unwrap();
            s.prime_rows(&req_b.prompt[h], 0..traffic.shapes()[1].prompt_len).unwrap();
            s
        })
        .collect();

    let rounds = steps_a.len().max(steps_b.len());
    for s in 0..rounds {
        if let Some(token) = steps_a.get(s) {
            server.step_session(ha.id(), token.clone()).unwrap();
            let got = ha.next_step().unwrap();
            for (h, core) in core_a.iter_mut().enumerate() {
                let expect = core.step(&token[h].q, &token[h].k, &token[h].v).unwrap();
                assert_eq!(got.heads[h].raw.as_ref(), Some(&expect.raw), "A step {s} head {h}");
            }
        }
        if let Some(token) = steps_b.get(s) {
            server.step_session(hb.id(), token.clone()).unwrap();
            let got = hb.next_step().unwrap();
            for (h, core) in core_b.iter_mut().enumerate() {
                let expect = core.step(&token[h].q, &token[h].k, &token[h].v).unwrap();
                assert_eq!(got.heads[h].raw.as_ref(), Some(&expect.raw), "B step {s} head {h}");
            }
        }
    }
    server.close_session(ha.id()).unwrap();
    server.close_session(hb.id()).unwrap();
    let report = server.shutdown();
    assert_eq!(report.decode_sessions, 2);
    assert_eq!(report.decode_step_errors, 0);
}

// --- paged K/V property suite ------------------------------------------

use proptest::prelude::*;
use salo::patterns::AttentionShape;
use salo::sim::{DecodeState, ExecScratch, KvPagePool, SpatialAccelerator};

/// Random decodable hybrid pattern for the paged-decode property: one
/// dilated causal-reaching window plus an optional prefix of globals.
fn arb_paged_pattern() -> impl Strategy<Value = HybridPattern> {
    (16usize..44, -8i64..0, 1usize..6, 1usize..4, prop::collection::vec(0usize..8, 0..3))
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

    /// The tentpole invariant of the paged K/V arena: a decode generation
    /// through the block pool — at *any* page size, including degenerate
    /// single-row pages and pages larger than the sequence — is
    /// bit-identical to the contiguous causal prefill in raw outputs,
    /// softmax weights and saturation counts, on random hybrid patterns.
    /// Page translation and horizon reclamation are pure memory-layout
    /// concerns: they must never touch a single arithmetic bit.
    #[test]
    fn paged_decode_is_bit_identical_to_contiguous_prefill(
        pattern in arb_paged_pattern(),
        page_rows in 1usize..33,
        seed in 0u64..1000,
    ) {
        let salo = small_salo();
        let d = 8usize;
        let causal = pattern.decode_view().unwrap().into_causal_pattern();
        let n = causal.n();
        let shape = AttentionShape::new(n, d, 1).unwrap();
        let compiled = std::sync::Arc::new(salo.compile(&causal, &shape).unwrap());
        let decode = compiled.decode_plan().unwrap();
        let qkv = Qkv::random(n, d, seed);
        let prefill = prefill_oracle(&salo, std::sync::Arc::clone(&compiled), &qkv);

        let accel = salo.accelerator();
        let scale = SpatialAccelerator::default_scale(d);
        let mut state = DecodeState::new(&decode, d);
        let mut pool = KvPagePool::new(page_rows);
        let mut scratch = ExecScratch::new();
        for t in 0..decode.min_step() {
            accel
                .prime_token(
                    &decode, &mut state,
                    qkv.q.row(t), qkv.k.row(t), qkv.v.row(t),
                    scale, &mut pool, &mut scratch,
                )
                .unwrap();
        }
        for t in decode.min_step()..n {
            let step = accel
                .execute_step(
                    &decode, &mut state,
                    qkv.q.row(t), qkv.k.row(t), qkv.v.row(t),
                    scale, &mut pool, &mut scratch,
                )
                .unwrap();
            prop_assert_eq!(step.position, t);
            let row: Vec<_> = (0..d).map(|c| prefill.raw.get(t, c)).collect();
            prop_assert_eq!(&step.raw, &row, "step {} raw output (page_rows {})", t, page_rows);
            prop_assert_eq!(step.weight_q16, prefill.weights_q16[t], "step {} weight", t);
        }
        for i in 0..state.num_globals() {
            let (raw, weight) = state.global_row_output(i);
            let g = decode.globals()[i] as usize;
            let row: Vec<_> = (0..d).map(|c| prefill.raw.get(g, c)).collect();
            prop_assert_eq!(&raw, &row, "global row {}", g);
            prop_assert_eq!(weight, prefill.weights_q16[g], "global row {} weight", g);
        }
        prop_assert_eq!(
            state.saturation_events(),
            prefill.report.saturation_events,
            "identical MAC chains"
        );
        // Residency sanity: the state accounts for exactly the pool's
        // outstanding pages, and never more than the whole sequence.
        prop_assert_eq!(state.resident_pages(), pool.pages_in_use());
        prop_assert!(state.resident_pages() <= n.div_ceil(page_rows));
    }
}
