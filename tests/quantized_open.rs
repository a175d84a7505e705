//! A request's q, k and v rows are quantized by the sender and travel as
//! the 8-bit rows the gateway's door decodes them into. A session opened
//! and stepped that way is bit-identical, step for step, to one opened and
//! stepped in-process from the same `f32` rows through
//! `AttentionRequest::DecodeOpen` and `DecodeStep`, and a prefill sent
//! that way to one run in-process through `AttentionRequest::Prefill` —
//! also where the quantizer is at its edges: saturating inputs
//! (|x| >= 8), NaN, infinities and inputs on a half-step tie, at a head
//! dimension whose attention scale is not a power of two (48) and at one
//! whose is (64). (A prompt's queries reach a step
//! only through its global rows' duties, which a step reports as
//! saturation events and not as rows; `wire`'s own tests hold the door's
//! query rows to `Fix8x4::from_f32(x * scale)` element by element.) A
//! malformed `Open` is held to the engines' own open rules: each is
//! answered `Invalid` under its own request id, with the wording the
//! engines give the `f32` prompt, and the connection keeps serving.

use salo::core::engine::check_open_prompt;
use salo::core::{AttentionRequest, Engine, PatternHandle, Salo, TokenQkv};
use salo::gateway::wire::{ErrorCode, Request, Response};
use salo::gateway::{Gateway, GatewayClient, GatewayOptions};
use salo::kernels::{Matrix, Qkv};
use salo::patterns::{AttentionShape, HybridPattern, Window};
use salo::serve::{ServeError, ServeOptions};
use salo::sim::{AcceleratorConfig, SpatialAccelerator};

fn gateway() -> Gateway {
    let options = GatewayOptions {
        serve: ServeOptions { workers: 1, ..Default::default() },
        ..Default::default()
    };
    Gateway::bind("127.0.0.1:0", AcceleratorConfig::default(), options).expect("bind gateway")
}

/// A causal window with two sink tokens: the prompt must cover row 3.
fn sink_window(n: usize) -> HybridPattern {
    HybridPattern::builder(n)
        .window(Window::causal(12).expect("window"))
        .global_token(0)
        .global_token(3)
        .build()
        .expect("pattern")
}

/// The value element `i` of a matrix takes: one in eight is an ordinary
/// input, the rest sit where the quantizer decides something — past
/// either end of the `Fix8x4` range, NaN, an infinity, on a half-step tie
/// of either sign (for a query, a tie *after* the scale is folded in), or
/// between the first two steps.
fn edge_value(i: usize, ordinary: f32, scale: f32) -> f32 {
    let step = (i % 251) as f32 - 125.0; // a raw value inside -128..=127
    match i % 8 {
        0 => ordinary,
        1 => 8.0 + (i % 5) as f32 * 50.0,
        2 => -8.0 - (i % 7) as f32 * 1.0e4,
        3 => f32::NAN,
        4 => {
            if i % 16 == 4 {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            }
        }
        5 => (step + 0.5) / 16.0 / scale,
        6 => -(step + 0.5) / 16.0 / scale,
        _ => (i % 3) as f32 / 64.0 / scale,
    }
}

/// `rows x dim` inputs of head `h` with every edge spread over them; the
/// query's ties are placed for `scale`, the keys' and values' for none.
fn edge_head(rows: usize, dim: usize, h: u64) -> Qkv {
    let scale = SpatialAccelerator::default_scale(dim);
    let ordinary = Qkv::random(rows, dim, h);
    let at = |m: &Matrix<f32>, scale: f32, shift: usize| {
        Matrix::from_fn(rows, dim, |t, j| edge_value(t * dim + j + shift, m.get(t, j), scale))
    };
    Qkv::new(at(&ordinary.q, scale, 0), at(&ordinary.k, 1.0, 3), at(&ordinary.v, 1.0, 5))
        .expect("one shape")
}

#[test]
fn an_open_quantized_at_the_door_decodes_as_one_opened_in_process() {
    let (n, prompt_rows, num_heads) = (64, 20, 2);
    let gateway = gateway();
    let mut client = GatewayClient::connect(gateway.local_addr(), 1).expect("connect");
    for dim in [48, 64] {
        let pattern = sink_window(n);
        let prompt: Vec<Qkv> =
            (0..num_heads as u64).map(|h| edge_head(prompt_rows, dim, h)).collect();
        let generated: Vec<Qkv> =
            (0..num_heads as u64).map(|h| edge_head(n, dim, 10 + h)).collect();

        let opened = client
            .open_session(pattern.clone(), dim, num_heads, prompt.clone())
            .expect("open over the wire");
        let mut engine = Salo::new(AcceleratorConfig::default()).engine();
        let in_process = engine
            .execute(AttentionRequest::DecodeOpen {
                session: 0,
                pattern: PatternHandle::from_pattern(pattern),
                head_dim: dim,
                num_heads,
                prompt,
            })
            .and_then(|r| r.into_opened())
            .expect("open in-process");
        assert_eq!(opened.position, in_process.position as u64);

        for t in prompt_rows..n {
            let token: Vec<TokenQkv> = generated.iter().map(|h| TokenQkv::from_row(h, t)).collect();
            let (position, wire) = client.step(opened.session, token.clone()).expect("wire step");
            let reference = engine
                .execute(AttentionRequest::DecodeStep { session: 0, token })
                .and_then(|r| r.into_step())
                .expect("in-process step");
            assert_eq!(position, reference.position as u64, "d = {dim}: position");
            for (h, (wire, reference)) in wire.iter().zip(&reference.heads).enumerate() {
                let raw: Vec<i16> =
                    reference.raw.as_ref().expect("raw").iter().map(|x| x.raw()).collect();
                assert_eq!(
                    wire.raw.as_deref(),
                    Some(raw.as_slice()),
                    "d = {dim}, t = {t}, head {h}: raw"
                );
                assert_eq!(
                    wire.weight_q16, reference.weight_q16,
                    "d = {dim}, t = {t}, head {h}: weight"
                );
                let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&wire.output),
                    bits(&reference.output),
                    "d = {dim}, t = {t}, head {h}: f32 bits"
                );
                assert_eq!(
                    wire.saturation_events, reference.saturation_events,
                    "d = {dim}, t = {t}, head {h}: saturation"
                );
            }
        }
        client.close(opened.session).expect("close");
    }
    drop(client);
    let report = gateway.shutdown();
    assert_eq!(report.serve.decode_session_errors, 0);
}

#[test]
fn a_prefill_quantized_by_its_sender_runs_as_one_run_in_process() {
    let n = 64;
    let gateway = gateway();
    let mut client = GatewayClient::connect(gateway.local_addr(), 1).expect("connect");
    let mut engine = Salo::new(AcceleratorConfig::default()).engine();
    for dim in [48, 64] {
        let pattern = sink_window(n);
        let shape = AttentionShape::new(n, dim, 2).expect("shape");
        let heads: Vec<Qkv> = (0..2).map(|h| edge_head(n, dim, 20 + h)).collect();
        let (wire, _, _) =
            client.prefill(pattern.clone(), shape, heads.clone()).expect("prefill over the wire");
        let reference = engine
            .execute(AttentionRequest::Prefill {
                pattern: PatternHandle::from_pattern(pattern),
                shape,
                heads,
            })
            .and_then(|r| r.into_prefill())
            .expect("prefill in-process");
        assert_eq!(wire.len(), reference.heads.len());
        for (h, (wire, reference)) in wire.iter().zip(&reference.heads).enumerate() {
            let raw = reference.raw.as_ref().expect("raw").map(|x| x.raw());
            assert_eq!(wire.raw, raw, "d = {dim}, head {h}: raw");
            assert_eq!(
                Some(&wire.weights_q16),
                reference.weights_q16.as_ref(),
                "d = {dim}: weights"
            );
            let bits =
                |m: &Matrix<f32>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&wire.output),
                bits(&reference.output),
                "d = {dim}, head {h}: f32 bits"
            );
        }
    }
    drop(client);
    let report = gateway.shutdown();
    assert_eq!(report.serve.errors, 0);
}

#[test]
fn a_malformed_open_is_invalid_under_its_own_id_and_the_connection_keeps_serving() {
    let (n, dim) = (32, 8);
    let pattern = sink_window(n);
    let open = |num_heads: usize, head_dim: usize, prompt: Vec<Qkv>| Request::Open {
        pattern: pattern.clone(),
        head_dim,
        num_heads,
        prompt,
    };
    let head = |rows: usize, dim: usize| Qkv::random(rows, dim, rows as u64);
    let malformed = [
        ("wrong head count", open(2, dim, vec![head(8, dim)])),
        ("ragged heads", open(2, dim, vec![head(8, dim), head(9, dim)])),
        ("wrong dimension", open(1, dim, vec![head(8, dim + 4)])),
        ("short of the last global", open(1, dim, vec![head(3, dim)])),
        ("no room to decode", open(1, dim, vec![head(n, dim)])),
    ];

    let gateway = gateway();
    let mut client = GatewayClient::connect(gateway.local_addr(), 1).expect("connect");
    let ids: Vec<u64> = malformed.iter().map(|(_, r)| client.send(r).expect("send")).collect();
    let mut replies: Vec<_> = (0..ids.len()).map(|_| client.recv().expect("reply")).collect();
    replies.sort_by_key(|(header, _)| header.request_id);
    for (((case, request), id), (header, reply)) in malformed.iter().zip(&ids).zip(&replies) {
        assert_eq!(header.request_id, *id, "{case}: answered under another id");
        let Response::Error(error) = reply else {
            panic!("{case}: expected Invalid, got {reply:?}")
        };
        assert_eq!(error.code, ErrorCode::Invalid, "{case}: {}", error.message);
        // The engines' rule, stated on the `f32` prompt, words it the same.
        let Request::Open { pattern, head_dim, num_heads, prompt } = request else {
            unreachable!()
        };
        let min_step = pattern.globals().last().map_or(0, |&g| g + 1);
        let rule = check_open_prompt(n, min_step, *head_dim, *num_heads, prompt).unwrap_err();
        assert_eq!(error.message, ServeError::from(rule).to_string(), "{case}");
    }

    let opened = client.open_session(pattern.clone(), dim, 1, vec![head(8, dim)]).expect("open");
    let token = vec![TokenQkv::from_row(&head(n, dim), 8)];
    client.step(opened.session, token).expect("a step after the refusals");
    client.close(opened.session).expect("close");
    drop(client);
    let report = gateway.shutdown();
    assert_eq!(report.serve.decode_sessions, 1, "a refused open reached no worker");
}
