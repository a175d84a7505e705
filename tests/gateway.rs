//! Gateway integration suite, over real loopback sockets: wire-driven
//! decode sessions are bit-identical to the in-process core session,
//! malformed frames get typed error
//! replies without killing well-framed neighbours (a frame corrupt behind
//! its header is refused under its own request id, a pattern past `u32`
//! coordinates before anything is allocated for it), a peer that stalls
//! mid-frame is timed out and leaves no trace, a graceful drain
//! closes live sessions with terminal `Closed` frames (one session, and
//! forty-eight over three connections), pipelined sessions
//! fuse behind the socket and stay bit-identical, and a dying connection's
//! sessions are closed without stalling anyone. A malformed decode step
//! and an open with nothing causal to decode are answered `Invalid` under
//! their own request ids, and the connection keeps serving.
//!
//! The socket tests whose ordering needs the server to be slower than a
//! client — the flood, the service deadline, a small prefill overtaking a
//! large one — are `salo-gateway`'s unit tests: their backend holds a
//! result back until the client has seen what it must see first.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use salo::core::{DecodeSession, Salo};
use salo::gateway::wire::{
    self, encode_request, ErrorCode, Header, PrefillHead, Request, Response, WireError,
    WireHeadStep,
};
use salo::gateway::{Gateway, GatewayClient, GatewayError, GatewayOptions};
use salo::kernels::Qkv;
use salo::models::{longformer_layer, Workload};
use salo::patterns::{HybridPattern, Window};
use salo::serve::{GenerationTraffic, ServeOptions};
use salo::sim::{AcceleratorConfig, StepOutput};

fn unit_gateway(options: GatewayOptions) -> Gateway {
    Gateway::bind("127.0.0.1:0", AcceleratorConfig::default(), options).expect("bind gateway")
}

/// A wire prefill's heads against a direct engine run on the same
/// configuration, bit for bit: raw `i16` rows, Q.16 weights, `f32` bits.
fn assert_matches_engine(wire: &[PrefillHead], workload: &Workload, heads: Vec<Qkv>) {
    use salo::core::{AttentionRequest, Engine, PatternHandle};
    let mut engine = Salo::new(AcceleratorConfig::default()).engine();
    let oracle = engine
        .execute(AttentionRequest::Prefill {
            pattern: PatternHandle::from_pattern(workload.pattern.clone()),
            shape: workload.shape,
            heads,
        })
        .expect("oracle prefill")
        .into_prefill()
        .expect("prefill response");
    assert_eq!(wire.len(), oracle.heads.len());
    for (head, oracle_head) in wire.iter().zip(&oracle.heads) {
        let oracle_raw = oracle_head.raw.as_ref().expect("oracle raw");
        assert_eq!(head.raw.rows(), oracle_raw.rows());
        let reference_raw: Vec<i16> = oracle_raw.as_slice().iter().map(|x| x.raw()).collect();
        assert_eq!(head.raw.as_slice(), reference_raw.as_slice(), "prefill raw rows diverged");
        assert_eq!(
            &head.weights_q16,
            oracle_head.weights_q16.as_ref().expect("oracle weights"),
            "prefill weights diverged"
        );
        let bits = |m: &salo::kernels::Matrix<f32>| -> Vec<u32> {
            m.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&head.output), bits(&oracle_head.output), "prefill f32 bits diverged");
    }
}

/// A single-head wire step against the in-process core session's step,
/// bit for bit: position, raw `i16` row, Q.16 weight, `f32` output bits.
fn assert_wire_step_is(position: u64, heads: &[WireHeadStep], reference: &StepOutput) {
    assert_eq!(position, reference.position as u64, "position diverged");
    let head = &heads[0];
    let raw: Vec<i16> = reference.raw.iter().map(|x| x.raw()).collect();
    assert_eq!(head.raw.as_deref(), Some(raw.as_slice()), "raw row diverged");
    assert_eq!(head.weight_q16, Some(reference.weight_q16), "weight diverged");
    let wire_bits: Vec<u32> = head.output.iter().map(|x| x.to_bits()).collect();
    let reference_bits: Vec<u32> = reference.output.iter().map(|x| x.to_bits()).collect();
    assert_eq!(wire_bits, reference_bits, "f32 output bits diverged");
}

/// Sends `request` and returns the error frame it must draw, checking it
/// is answered under its own request id.
fn refused(client: &mut GatewayClient, request: &Request) -> wire::ErrorFrame {
    let id = client.send(request).expect("send");
    match client.recv().expect("reply") {
        (header, Response::Error(error)) => {
            assert_eq!(header.request_id, id, "answered under another id: {}", error.message);
            error
        }
        (_, other) => panic!("expected an error frame, got {other:?}"),
    }
}

fn one_worker() -> GatewayOptions {
    GatewayOptions {
        serve: ServeOptions { workers: 1, ..Default::default() },
        ..Default::default()
    }
}

/// A session driven over TCP — open, step-by-step decode, close — must
/// reproduce a [`DecodeSession`] on the same pattern byte for byte:
/// raw `i16` rows, Q.16 softmax weights, `f32` output bits, positions.
/// A wire prefill must likewise reproduce the engine's prefill output.
#[test]
fn socket_decode_is_bit_identical_to_in_process_session() {
    let gateway = unit_gateway(one_worker());
    let mut client = GatewayClient::connect(gateway.local_addr(), 1).expect("connect");

    // Prefill: wire vs the engine API on the same configuration.
    let workload = longformer_layer(64, 8, 16, 1).expect("workload");
    let qkv = Qkv::random(workload.shape.seq_len, workload.shape.head_dim, 7);
    let (heads, _, _) = client
        .prefill(workload.pattern.clone(), workload.shape, vec![qkv.clone()])
        .expect("wire prefill");
    assert_eq!(heads.len(), 1);
    assert_matches_engine(&heads, &workload, vec![qkv]);

    // Decode: open -> step xN -> close against the core session. Shape 1
    // of the demo mix is single-head, matching `DecodeSession`.
    let steps = 12;
    let (request, tokens) = GenerationTraffic::demo_mix().session_bounded(1, steps);
    let salo = Salo::new(AcceleratorConfig::default());
    let mut oracle = DecodeSession::new(&salo, &request.pattern, request.head_dim).expect("oracle");
    oracle.prime_rows(&request.prompt[0], 0..request.prompt[0].seq_len()).expect("oracle prime");

    let opened = client
        .open_session(request.pattern, request.head_dim, request.num_heads, request.prompt)
        .expect("wire open");
    assert_eq!(opened.min_step, oracle.min_step() as u64);
    assert_eq!(opened.position, oracle.position() as u64);
    assert_eq!(opened.capacity, oracle.capacity() as u64);
    for token in &tokens {
        let (position, heads) = client.step(opened.session, token.clone()).expect("wire step");
        let reference = oracle.step(&token[0].q, &token[0].k, &token[0].v).expect("oracle step");
        assert_wire_step_is(position, &heads, &reference);
    }
    let closed_at = client.close(opened.session).expect("wire close");
    assert_eq!(closed_at, Some(oracle.position() as u64), "final position diverged");

    let report = gateway.shutdown();
    assert_eq!(report.serve.decode_step_errors, 0);
    assert_eq!(report.rejected_overloaded, 0);
}

/// A decode step whose token has a short row is the client's malformed
/// request: it is answered `Invalid` under its own request id — as a
/// wrong head count is — the session stays where it was, and its next
/// good steps are bit-identical to an in-process twin's that never saw
/// the bad token.
#[test]
fn a_short_row_step_is_invalid_and_the_session_decodes_on() {
    let gateway = unit_gateway(one_worker());
    let mut client = GatewayClient::connect(gateway.local_addr(), 1).expect("connect");
    let (request, tokens) = GenerationTraffic::demo_mix().session_bounded(1, 3);
    let salo = Salo::new(AcceleratorConfig::default());
    let mut twin = DecodeSession::new(&salo, &request.pattern, request.head_dim).expect("twin");
    twin.prime_rows(&request.prompt[0], 0..request.prompt[0].seq_len()).expect("twin prime");
    let opened = client
        .open_session(request.pattern, request.head_dim, request.num_heads, request.prompt)
        .expect("wire open");

    let mut short = tokens[0].clone();
    short[0].k.truncate(1);
    let two_heads = vec![tokens[0][0].clone(), tokens[0][0].clone()];
    for token in [short, two_heads] {
        let error = refused(&mut client, &Request::Step { session: opened.session, token });
        assert_eq!(error.code, ErrorCode::Invalid, "{}", error.message);
    }
    for token in &tokens {
        let (position, heads) = client.step(opened.session, token.clone()).expect("wire step");
        let reference = twin.step(&token[0].q, &token[0].k, &token[0].v).expect("twin step");
        assert_wire_step_is(position, &heads, &reference);
    }
    let report = gateway.shutdown();
    assert_eq!(report.serve.decode_step_errors, 2);
    assert_eq!(report.serve.decode_steps, 2 + tokens.len() as u64);
}

/// A pattern with nothing causal in it — a window reaching only future
/// keys, no globals — cannot be decoded. The pinned worker finds that
/// out when it clips the pattern: the open is answered `Invalid` under
/// its own request id, no session is left behind, and the connection
/// keeps serving.
#[test]
fn an_open_with_an_empty_causal_view_is_invalid_and_the_connection_keeps_serving() {
    let gateway = unit_gateway(one_worker());
    let mut client = GatewayClient::connect(gateway.local_addr(), 1).expect("connect");
    let future_only =
        HybridPattern::builder(16).window(Window::sliding(1, 3).expect("window")).build();
    let open = Request::Open {
        pattern: future_only.expect("pattern"),
        head_dim: 4,
        num_heads: 1,
        prompt: vec![Qkv::random(2, 4, 1)],
    };
    let error = refused(&mut client, &open);
    assert_eq!(error.code, ErrorCode::Invalid, "{}", error.message);

    let (request, tokens) = GenerationTraffic::demo_mix().session_bounded(1, 1);
    let opened = client
        .open_session(request.pattern, request.head_dim, request.num_heads, request.prompt)
        .expect("an open after the refusal");
    client.step(opened.session, tokens[0].clone()).expect("a step after the refusal");
    client.close(opened.session).expect("close");
    let report = gateway.shutdown();
    assert_eq!((report.serve.decode_sessions, report.serve.decode_session_errors), (2, 1));
}

/// Malformed input over a raw socket: a well-framed but undecodable
/// payload draws a typed `BadFrame` reply and the connection keeps
/// serving; an oversized length prefix draws a typed reply and a clean
/// close — never a hang or a panic.
#[test]
fn malformed_frames_get_typed_errors_without_killing_the_connection() {
    let gateway = unit_gateway(one_worker());
    let mut stream = TcpStream::connect(gateway.local_addr()).expect("connect raw");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("deadline");

    // Writes `bytes` and returns the message of the typed `BadFrame`
    // reply they must draw.
    let bad_frame = |stream: &mut TcpStream, bytes: &[u8]| -> String {
        stream.write_all(bytes).expect("write malformed input");
        let payload = wire::read_frame(stream).expect("error reply");
        match wire::decode_response(&payload).expect("decodable reply") {
            (_, Response::Error(frame)) if frame.code == ErrorCode::BadFrame => frame.message,
            (_, other) => panic!("expected BadFrame, got {other:?}"),
        }
    };

    // Well-framed garbage (bad version byte): typed error, frame
    // boundary intact.
    let mut garbage = (24u32).to_le_bytes().to_vec();
    garbage.extend_from_slice(&[0xAB; 24]);
    bad_frame(&mut stream, &garbage);

    // Opcode 0x06 once stopped the gateway. It is retired: a peer that
    // sends it is told so, like any other opcode nobody defines.
    let mut retired = (wire::HEADER_LEN as u32).to_le_bytes().to_vec();
    retired.extend_from_slice(&[wire::PROTOCOL_VERSION, 0x06]);
    retired.extend_from_slice(&[0; 16]);
    let message = bad_frame(&mut stream, &retired);
    assert!(message.contains("unknown opcode 0x06"), "{message}");

    // The same connection still serves well-formed requests.
    let stats = encode_request(Header { tenant: 1, request_id: 42 }, &Request::Stats);
    wire::write_frame(&mut stream, &stats).expect("write stats");
    let payload = wire::read_frame(&mut stream).expect("stats reply");
    let (header, response) = wire::decode_response(&payload).expect("decodable stats");
    assert_eq!(header.request_id, 42);
    assert!(matches!(response, Response::Stats { .. }), "stats after garbage: {response:?}");

    // A hostile length prefix: typed error, then the gateway hangs up.
    bad_frame(&mut stream, &u32::MAX.to_le_bytes());
    match wire::read_frame(&mut stream) {
        Err(WireError::Truncated { .. } | WireError::Io(_)) => {}
        other => panic!("expected a closed connection, got {other:?}"),
    }

    let report = gateway.shutdown();
    assert_eq!(report.admitted, 0, "no malformed frame may reach the runtime");
    assert!(report.drained_in_deadline, "the retired opcode left the drain to its owner");
    assert_eq!((report.frames_read, report.frames_written), (3, 4));
}

/// A pattern a few dozen bytes long that addresses more than `u32`
/// coordinates hold — a sequence of 2^40 tokens, or 2^40 random draws a
/// row — is refused at decode with a typed `BadFrame`, before anything is
/// allocated for it (each once aborted the process from the reader
/// thread), and the connection keeps serving.
#[test]
fn a_pattern_past_u32_coordinates_is_refused_and_the_connection_keeps_serving() {
    use salo::patterns::{bigbird, longformer, AttentionShape};
    let gateway = unit_gateway(one_worker());
    let mut stream = TcpStream::connect(gateway.local_addr()).expect("connect raw");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("deadline");
    let prefill = |pattern, request_id| {
        let shape = AttentionShape::new(64, 8, 1).expect("shape");
        let heads = vec![Qkv::random(64, 8, request_id)];
        encode_request(
            Header { tenant: 5, request_id },
            &Request::Prefill { pattern, shape, heads },
        )
    };
    let patch = |frame: &mut Vec<u8>, at: usize, value: u64| {
        frame[at..at + 8].copy_from_slice(&value.to_le_bytes());
    };

    // prefix (4) | header | n: u64 | ...
    let mut long = prefill(longformer(64, 8, 1).expect("pattern"), 1);
    patch(&mut long, 4 + wire::HEADER_LEN, 1 << 40);
    // ... | RandomBlocks { count: u64, seed: u64 } | ...
    let seed = 0x5EED_0FC0_FFEE;
    let mut draws = prefill(bigbird(64, 8, 3, 1, seed).expect("pattern"), 2);
    let count_at = draws
        .windows(16)
        .position(|w| w[..8] == 3u64.to_le_bytes() && w[8..] == seed.to_le_bytes())
        .expect("the random term's count and seed");
    patch(&mut draws, count_at, 1 << 40);

    for (request_id, frame, why) in [(1, &long, "fit u32"), (2, &draws, "u32 coordinates")] {
        stream.write_all(frame).expect("write hostile frame");
        let payload = wire::read_frame(&mut stream).expect("a reply");
        match wire::decode_response(&payload).expect("decodable reply") {
            (header, Response::Error(error)) => {
                assert_eq!((header.request_id, error.code), (request_id, ErrorCode::BadFrame));
                assert!(error.message.contains(why), "{}", error.message);
            }
            (_, other) => panic!("expected BadFrame for request {request_id}, got {other:?}"),
        }
    }

    // The same connection still serves a well-formed prefill.
    stream.write_all(&prefill(bigbird(64, 8, 3, 1, seed).expect("pattern"), 3)).expect("write");
    let payload = wire::read_frame(&mut stream).expect("prefill reply");
    let (header, response) = wire::decode_response(&payload).expect("decodable");
    assert_eq!(header.request_id, 3);
    assert!(matches!(response, Response::PrefillDone { .. }), "after the refusals: {response:?}");
    let report = gateway.shutdown();
    assert_eq!((report.frames_read, report.admitted), (3, 1), "the refused frames were framed");
}

/// Three prefills pipelined in one write, the middle one corrupt *behind*
/// its header (a pattern term tag nobody defines): the streaming decoder
/// had the header before it met the bad byte, so the `BadFrame` carries the
/// middle request's id — a pipelining client can tell which request it
/// lost — and the neighbours' replies are, byte for byte, the ones a
/// connection that never sent the bad frame gets.
#[test]
fn a_corrupt_body_is_refused_under_its_own_request_id() {
    let gateway = unit_gateway(one_worker());
    let workload = longformer_layer(64, 8, 16, 1).expect("workload");
    let frame = |request_id: u64| {
        let heads = vec![Qkv::random(workload.shape.seq_len, workload.shape.head_dim, request_id)];
        let request =
            Request::Prefill { pattern: workload.pattern.clone(), shape: workload.shape, heads };
        encode_request(Header { tenant: 4, request_id }, &request)
    };
    // Writes `frames` in one go; returns the reply payloads by request id.
    let replies = |frames: &[Vec<u8>]| {
        let mut stream = TcpStream::connect(gateway.local_addr()).expect("connect raw");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("deadline");
        stream.write_all(&frames.concat()).expect("write pipelined frames");
        let mut replies = std::collections::BTreeMap::new();
        for _ in frames {
            let payload = wire::read_frame(&mut stream).expect("one reply per frame");
            let (header, _) = wire::decode_response(&payload).expect("decodable reply");
            assert_eq!(header.tenant, 4);
            assert!(replies.insert(header.request_id, payload).is_none(), "an id answered twice");
        }
        replies
    };

    let mut corrupt = frame(2);
    // prefix (4) | header (18) | n: u64 | term count: u32 | first term's tag
    let tag_at = 4 + wire::HEADER_LEN + 8 + 4;
    corrupt[tag_at] = 9;
    let damaged = replies(&[frame(1), corrupt, frame(3)]);
    let clean = replies(&[frame(1), frame(3)]);

    match wire::decode_response(&damaged[&2]).expect("decodable") {
        (_, Response::Error(error)) => {
            assert_eq!(error.code, ErrorCode::BadFrame);
            assert!(error.message.contains("pattern term tag 9"), "{}", error.message);
        }
        (_, other) => panic!("expected BadFrame for request 2, got {other:?}"),
    }
    for id in [1, 3] {
        assert!(matches!(
            wire::decode_response(&clean[&id]).expect("decodable"),
            (_, Response::PrefillDone { .. })
        ));
        assert_eq!(damaged[&id], clean[&id], "request {id}'s reply differs from the clean run's");
    }
    let report = gateway.shutdown();
    assert_eq!((report.frames_read, report.admitted), (5, 4), "the corrupt frame was framed");
}

/// What streaming adds: a frame can stall *half-decoded*. A peer sends a
/// sound prefix and header, half an `Open`'s body, and nothing more. The
/// read deadline answers it `TimedOut` and closes the connection; the
/// half-built request is dropped on the reader's stack, and nothing that
/// counts requests, sessions or bytes ever heard of it.
#[test]
fn a_peer_that_stalls_mid_frame_is_timed_out_and_leaves_no_trace() {
    let options = GatewayOptions { read_timeout: Duration::from_millis(200), ..one_worker() };
    let gateway = unit_gateway(options);
    let (open, _) = GenerationTraffic::demo_mix().session_bounded(1, 1);
    let open = encode_request(
        Header { tenant: 6, request_id: 1 },
        &Request::Open {
            pattern: open.pattern,
            head_dim: open.head_dim,
            num_heads: open.num_heads,
            prompt: open.prompt,
        },
    );
    let mut stream = TcpStream::connect(gateway.local_addr()).expect("connect raw");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("deadline");
    stream.write_all(&open[..open.len() / 2]).expect("half a frame");

    let payload = wire::read_frame(&mut stream).expect("the deadline's reply");
    match wire::decode_response(&payload).expect("decodable") {
        (_, Response::Error(error)) => assert_eq!(error.code, ErrorCode::TimedOut),
        (_, other) => panic!("expected TimedOut, got {other:?}"),
    }
    match wire::read_frame(&mut stream) {
        Err(WireError::Io(_)) => {}
        other => panic!("expected a closed connection, got {other:?}"),
    }

    // The gauge is the registry's, so a live `Stats` frame carries it.
    let mut observer = GatewayClient::connect(gateway.local_addr(), 7).expect("connect");
    assert!(observer.stats_json().expect("stats").contains("\"gateway.request_bytes\""));
    let metrics = gateway.metrics();
    let request_bytes = metrics.gauge("gateway.request_bytes");
    assert_eq!((request_bytes.get(), request_bytes.high_water()), (0, 0), "never entered");
    assert_eq!(metrics.counter("gateway.admitted").get(), 0);
    assert_eq!(metrics.counter("serve.decode.sessions").get(), 0);
    let report = gateway.shutdown();
    // One frame was ever read whole: the observer's `Stats`.
    assert_eq!((report.frames_read, report.admitted, report.timed_out), (1, 0, 0));
    assert_eq!((report.serve.decode_sessions, report.serve.requests), (0, 0));
}

/// Graceful drain: a live decode session is closed with a terminal
/// `Closed` frame, the runtime finishes clean within the deadline, and
/// any late frames surface as typed `Draining` errors.
#[test]
fn drain_closes_live_sessions_with_terminal_closed_frames() {
    let gateway = unit_gateway(one_worker());
    let mut client = GatewayClient::connect(gateway.local_addr(), 4).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("deadline");

    let (request, tokens) = GenerationTraffic::demo_mix().session_bounded(1, 4);
    let opened = client
        .open_session(request.pattern, request.head_dim, request.num_heads, request.prompt)
        .expect("open");
    let (_, heads) = client.step(opened.session, tokens[0].clone()).expect("step");
    assert_eq!(heads.len(), 1);

    let report = gateway.shutdown();
    assert!(report.drained_in_deadline, "drain exceeded its deadline");
    assert_eq!(report.serve.decode_sessions, 1);
    assert_eq!(report.serve.decode_session_errors, 0);

    // The drain must have delivered a terminal Closed for the live
    // session before the connection went away.
    let mut saw_terminal_close = false;
    loop {
        match client.recv() {
            Ok((_, Response::Closed { session, .. })) if session == opened.session => {
                saw_terminal_close = true;
            }
            Ok((_, Response::Error(frame))) => {
                assert_eq!(frame.code, ErrorCode::Draining, "unexpected error: {frame:?}");
            }
            Ok(_) => {}
            Err(GatewayError::Wire(_)) => break, // connection closed
            Err(other) => panic!("unexpected client error: {other}"),
        }
    }
    assert!(saw_terminal_close, "no terminal Closed frame for the live session");
}

/// The drain with much to close: three connections holding sixteen
/// sessions each, every session with a step admitted just before the
/// drain begins. The terminal `Closed` frames come from the completion
/// path after the readers have been shut and joined, so every one of
/// them — and every step reply before it — must still reach its
/// connection.
#[test]
fn drain_with_many_live_sessions_delivers_every_reply_and_terminal_closed_frame() {
    const CONNECTIONS: u64 = 3;
    const SESSIONS: u64 = 16;
    let gateway = unit_gateway(one_worker());
    let mut clients: Vec<(GatewayClient, Vec<u64>, Vec<u64>)> = (0..CONNECTIONS)
        .map(|c| {
            let mut client = GatewayClient::connect(gateway.local_addr(), c + 1).expect("connect");
            client.set_read_timeout(Some(Duration::from_secs(60))).expect("deadline");
            let mut sessions = Vec::new();
            let mut steps = Vec::new();
            for s in 0..SESSIONS {
                let (request, tokens) =
                    GenerationTraffic::demo_mix().session_bounded(c * SESSIONS + s, 1);
                let opened = client
                    .open_session(
                        request.pattern,
                        request.head_dim,
                        request.num_heads,
                        request.prompt,
                    )
                    .expect("open");
                let step = Request::Step { session: opened.session, token: tokens[0].clone() };
                steps.push(client.send(&step).expect("send step"));
                sessions.push(opened.session);
            }
            // The reader answers stats itself, in frame order: once the
            // reply is here, every step before it has been admitted.
            client.stats_json().expect("stats");
            (client, sessions, steps)
        })
        .collect();

    let report = gateway.shutdown();
    assert!(report.drained_in_deadline, "drain exceeded its deadline");
    assert_eq!(report.serve.decode_sessions, CONNECTIONS * SESSIONS);
    assert_eq!(report.serve.decode_steps, CONNECTIONS * SESSIONS);
    assert_eq!(report.rejected_draining + report.timed_out, 0);

    for (c, (client, sessions, steps)) in clients.iter_mut().enumerate() {
        let mut closed = Vec::new();
        let mut stepped = Vec::new();
        loop {
            match client.recv() {
                Ok((_, Response::Closed { session, .. })) => closed.push(session),
                Ok((header, Response::Stepped { .. })) => stepped.push(header.request_id),
                Ok((_, other)) => panic!("connection {c}: unexpected frame {other:?}"),
                Err(GatewayError::Wire(_)) => break, // connection closed
                Err(other) => panic!("connection {c}: unexpected client error: {other}"),
            }
        }
        closed.sort_unstable();
        stepped.sort_unstable();
        assert_eq!(&stepped, steps, "connection {c}: a step reply went missing");
        assert_eq!(&closed, sessions, "connection {c}: a terminal Closed went missing");
    }
}

/// One wire session next to its in-process oracle.
struct Mirrored {
    wire: u64,
    tokens: Vec<Vec<salo::serve::TokenQkv>>,
    oracle: DecodeSession,
    /// Steps answered so far; the next reply must be for `tokens[done]`.
    done: usize,
}

/// One connection, one worker, eight sessions stepped in pipelined rounds
/// (every step of a round is sent before any reply is read): each reply
/// is bit-identical to the session's own in-process oracle, a session's
/// replies arrive in step order even with two of its steps in flight,
/// and the worker's tick fuses steps of different wire requests — which
/// it cannot when the gateway waits for each request before submitting
/// the next.
#[test]
fn pipelined_sessions_fuse_behind_the_socket_and_stay_bit_identical() {
    const SESSIONS: u64 = 8;
    const ROUNDS: usize = 6;
    let gateway = unit_gateway(one_worker());
    let mut client = GatewayClient::connect(gateway.local_addr(), 1).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(60))).expect("deadline");
    let salo = Salo::new(AcceleratorConfig::default());

    let mut sessions: Vec<Mirrored> = (0..SESSIONS)
        .map(|i| {
            // Odd indices are the single-head shape `DecodeSession` mirrors.
            let (request, tokens) =
                GenerationTraffic::demo_mix().session_bounded(2 * i + 1, ROUNDS + 2);
            let mut oracle =
                DecodeSession::new(&salo, &request.pattern, request.head_dim).expect("oracle");
            oracle.prime_rows(&request.prompt[0], 0..request.prompt[0].seq_len()).expect("prime");
            let opened = client
                .open_session(request.pattern, request.head_dim, request.num_heads, request.prompt)
                .expect("wire open");
            Mirrored { wire: opened.session, tokens, oracle, done: 0 }
        })
        .collect();

    // `per_session` steps of every session go out back to back; each
    // reply is checked against the next oracle step of its session.
    let mut round = |sessions: &mut Vec<Mirrored>, per_session: usize| {
        let mut sent = Vec::new();
        for step in 0..per_session {
            for (index, s) in sessions.iter().enumerate() {
                let token = s.tokens[s.done + step].clone();
                let id = client.send(&Request::Step { session: s.wire, token }).expect("send");
                sent.push((id, index));
            }
        }
        let mut last_id = vec![0u64; sessions.len()];
        for _ in 0..sent.len() {
            let (header, response) = client.recv().expect("step reply");
            let &(id, index) =
                sent.iter().find(|(id, _)| *id == header.request_id).expect("a reply to a step");
            assert!(id > last_id[index], "session {index}: replies out of step order");
            last_id[index] = id;
            let s = &mut sessions[index];
            let Response::Stepped { session, position, heads } = response else {
                panic!("session {index}: expected Stepped, got {response:?}");
            };
            let token = &s.tokens[s.done][0];
            let reference = s.oracle.step(&token.q, &token.k, &token.v).expect("oracle step");
            s.done += 1;
            assert_eq!(session, s.wire);
            assert_eq!(position, reference.position as u64, "session {index}: position");
            let raw: Vec<i16> = reference.raw.iter().map(|x| x.raw()).collect();
            assert_eq!(heads[0].raw.as_deref(), Some(raw.as_slice()), "session {index}: raw row");
            assert_eq!(heads[0].weight_q16, Some(reference.weight_q16), "session {index}: weight");
            let wire_bits: Vec<u32> = heads[0].output.iter().map(|x| x.to_bits()).collect();
            let reference_bits: Vec<u32> = reference.output.iter().map(|x| x.to_bits()).collect();
            assert_eq!(wire_bits, reference_bits, "session {index}: f32 output bits");
        }
    };
    for _ in 0..ROUNDS {
        round(&mut sessions, 1);
    }
    round(&mut sessions, 2);

    let fused = gateway.metrics().counter("serve.decode.fused_steps").get();
    let ticks = gateway.metrics().counter("serve.decode.ticks").get();
    assert!(fused > 0 && ticks > 0, "no decode tick fused over the wire ({fused} in {ticks})");

    for s in &sessions {
        assert_eq!(client.close(s.wire).expect("close"), Some(s.oracle.position() as u64));
    }
    let report = gateway.shutdown();
    assert_eq!(report.serve.decode_steps, SESSIONS * (ROUNDS as u64 + 2));
    assert_eq!(report.serve.decode_step_errors, 0);
    assert_eq!(report.rejected_overloaded + report.timed_out, 0);
}

/// A connection that dies holding open sessions: the sessions are closed
/// behind it (their K/V pages go back to the pool while the gateway is
/// still serving, not at shutdown) and a second tenant's closed loop
/// never sees a failure.
#[test]
fn a_dying_connection_with_open_sessions_does_not_stall_other_tenants() {
    const ORPHANS: u64 = 6;
    let gateway = unit_gateway(one_worker());
    let resident_pages = gateway.metrics().gauge("serve.decode.resident_pages");

    let mut doomed = GatewayClient::connect(gateway.local_addr(), 5).expect("connect");
    for i in 0..ORPHANS {
        let (request, tokens) = GenerationTraffic::demo_mix().session_bounded(i, 1);
        let opened = doomed
            .open_session(request.pattern, request.head_dim, request.num_heads, request.prompt)
            .expect("open");
        doomed.step(opened.session, tokens[0].clone()).expect("step");
    }
    assert!(resident_pages.get() > 0, "open sessions hold K/V pages");

    let workload = longformer_layer(64, 8, 16, 1).expect("workload");
    let mut good = GatewayClient::connect(gateway.local_addr(), 2).expect("connect");
    good.set_read_timeout(Some(Duration::from_secs(60))).expect("deadline");
    let mut call = |seed: u64| {
        let heads = vec![Qkv::random(workload.shape.seq_len, workload.shape.head_dim, seed)];
        good.prefill(workload.pattern.clone(), workload.shape, heads).expect("good tenant call");
    };
    call(0);
    drop(doomed);
    // The closed loop runs on; within it the orphans' pages are freed.
    let mut calls = 1;
    while resident_pages.get() > 0 {
        assert!(calls < 10_000, "orphaned sessions were never closed");
        call(calls);
        calls += 1;
    }

    let tenant =
        |field: &str| gateway.metrics().counter(&format!("gateway.tenant.2.{field}")).get();
    assert_eq!((tenant("admitted"), tenant("rejected.overloaded")), (calls, 0));

    let report = gateway.shutdown();
    assert_eq!(resident_pages.get(), 0, "no resident pages left");
    assert_eq!(report.serve.decode_sessions, ORPHANS);
    assert_eq!(report.serve.decode_session_errors + report.serve.decode_step_errors, 0);
}
