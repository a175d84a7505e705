//! Golden wire frames: the bytes `encode_request` / `encode_response`
//! produce for a fixed corpus — every opcode, every pattern-term and
//! block-layout tag the encoder can emit, both arms of every `Option`
//! (a reply's output rows included: sent, or rebuilt from the raw rows) —
//! pinned as FNV-1a digests. The table was re-recorded once, for protocol
//! version 2 (8-bit request rows, 16-bit reply rows); the version-1 frames
//! of the same corpus are kept as bytes (`v1_frames.hex`), each held to
//! the digest version 1 recorded for it and refused by this decoder. A
//! digest that moves means the protocol moved: re-record it only together
//! with the protocol change that moved it, and say which.
//!
//! Each entry pins a second digest over what the *decoder* answers to
//! damaged input: every strict prefix of the payload and, for messages
//! without a pattern, every single-byte corruption — the `Debug` form of
//! each result, so a `WireError` that changes variant or payload
//! (`needed`, `have`, the reason string) moves it. (Pattern-carrying
//! requests are swept by truncation only: a corrupted term parameter
//! reaches `HybridPattern::from_terms`, whose cost on absurd parameters is
//! the hostile-peers roadmap item's business, not this file's.)

mod common;

use common::on_grid;
use salo_fixed::Fix16x8;
use salo_gateway::wire::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, ErrorFrame,
    Header, PrefillHead, Request, Response, WireError, WireHeadStep,
};
use salo_kernels::{Matrix, Qkv};
use salo_patterns::{AttentionShape, BlockLayout, HybridPattern, PatternTerm, SupportRuns, Window};
use salo_serve::TokenQkv;

const HEADER: Header = Header { tenant: 0x0102_0304_0506_0708, request_id: 0x1112_1314_1516_1718 };

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Content is a pure function of `(salt, index)`: no RNG crate, nothing a
/// dependency bump can move.
fn value(salt: u64, i: usize) -> u64 {
    let mut z = salt.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn float(salt: u64, i: usize) -> f32 {
    let raw = value(salt, i);
    ((raw as i32 % 100_000) as f32) * 2.0f32.powi((raw >> 32) as i32 % 10 - 5)
}

fn floats(salt: u64, len: usize) -> Vec<f32> {
    (0..len).map(|i| float(salt, i)).collect()
}

fn matrix(salt: u64, rows: usize, cols: usize) -> Matrix<f32> {
    Matrix::from_fn(rows, cols, |i, j| float(salt, i * cols + j))
}

fn qkv(salt: u64, rows: usize, dim: usize) -> Qkv {
    Qkv::new(matrix(salt, rows, dim), matrix(salt + 1, rows, dim), matrix(salt + 2, rows, dim))
        .expect("consistent shapes")
}

/// One pattern carrying every term the encoder can emit. `Strided`
/// normalises into its two windows inside `from_terms`, so it reaches the
/// wire as window terms; its own tag is decode-only and has a test of its
/// own below.
fn every_term_pattern() -> HybridPattern {
    let n = 16;
    let support: Vec<Vec<(u32, u32)>> = (0..n as u32)
        .map(|i| if i % 3 == 0 { vec![(0, 1), (i / 2 + 2, i / 2 + 4)] } else { vec![] })
        .collect();
    let pattern = HybridPattern::from_terms(
        n,
        vec![
            PatternTerm::Window(Window::dilated(-4, 2, 2).expect("valid window")),
            PatternTerm::Global { token: 5 },
            PatternTerm::Strided { stride: 4, local: 2 },
            PatternTerm::BlockSparse { block_rows: 4, layout: BlockLayout::Diagonal },
            PatternTerm::BlockSparse { block_rows: 2, layout: BlockLayout::Banded { radius: 1 } },
            PatternTerm::BlockSparse {
                block_rows: 4,
                layout: BlockLayout::Explicit(vec![(0, 3), (2, 1), (3, 0)]),
            },
            PatternTerm::RandomBlocks { count: 2, seed: 0xfeed },
            PatternTerm::Support(SupportRuns::from_row_ranges(n, &support).expect("valid runs")),
        ],
    )
    .expect("valid pattern");
    // Seven tags on the wire: 3 windows (1 + the strided pair), 1 global,
    // 3 block-sparse, 1 random-blocks, 1 support.
    assert_eq!(pattern.terms().len(), 9, "a term was normalised away; the corpus lost an arm");
    pattern
}

enum Message {
    Request(Request),
    Response(Response),
}

fn corpus() -> Vec<(&'static str, Message)> {
    use Message::{Request as Req, Response as Resp};
    let pattern = every_term_pattern();
    let (n, dim) = (pattern.n(), 4);
    vec![
        (
            "prefill",
            Req(Request::Prefill {
                pattern: pattern.clone(),
                shape: AttentionShape::new(n, dim, 2).expect("valid shape"),
                heads: vec![qkv(1, n, dim), qkv(4, n, dim)],
            }),
        ),
        (
            "open",
            Req(Request::Open {
                pattern,
                head_dim: dim,
                num_heads: 2,
                prompt: vec![qkv(7, 6, dim), qkv(10, 6, dim)],
            }),
        ),
        (
            "step",
            Req(Request::Step {
                session: 0xaabb,
                token: (0..2u64)
                    .map(|h| TokenQkv {
                        q: floats(13 + h, dim),
                        k: floats(15 + h, dim),
                        v: floats(17 + h, dim),
                    })
                    .collect(),
            }),
        ),
        ("close", Req(Request::Close { session: 0xaabb })),
        ("stats", Req(Request::Stats)),
        (
            "prefill_done",
            Resp(Response::PrefillDone {
                heads: (0..2u64)
                    .map(|h| PrefillHead {
                        output: matrix(30 + h, 5, dim),
                        raw: Matrix::from_fn(5, dim, |i, j| value(32 + h, i * dim + j) as i16),
                        weights_q16: (0..5).map(|i| value(34 + h, i) as i64 % (1 << 40)).collect(),
                    })
                    .collect(),
                sim_time_s: 1.25e-4,
                sim_energy_j: 3.5e-7,
            }),
        ),
        ("opened", Resp(Response::Opened { session: 9, min_step: 6, position: 6, capacity: 16 })),
        (
            "stepped",
            Resp(Response::Stepped {
                session: 9,
                position: 7,
                heads: vec![
                    WireHeadStep {
                        output: floats(40, dim),
                        raw: Some(vec![128, -7, i16::MIN, i16::MAX]),
                        weight_q16: Some(-(1 << 40)),
                        saturation_events: 3,
                    },
                    WireHeadStep {
                        output: floats(41, dim),
                        raw: None,
                        weight_q16: None,
                        saturation_events: 0,
                    },
                    WireHeadStep {
                        output: floats(42, dim),
                        raw: Some(vec![]),
                        weight_q16: None,
                        saturation_events: u64::MAX,
                    },
                ],
            }),
        ),
        ("closed_none", Resp(Response::Closed { session: 9, position: None })),
        ("closed_some", Resp(Response::Closed { session: 9, position: Some(16) })),
        (
            "stats_reply",
            Resp(Response::Stats { json: "{\"counters\":{\"serve.requests\":7}}".into() }),
        ),
        (
            "error_plain",
            Resp(Response::Error(ErrorFrame {
                code: ErrorCode::UnknownSession,
                message: "session 9 is not open on this connection".into(),
                retry_after_ms: None,
            })),
        ),
        (
            "error_retry",
            Resp(Response::Error(ErrorFrame {
                code: ErrorCode::Overloaded,
                message: "tenant queue full".into(),
                retry_after_ms: Some(12),
            })),
        ),
        // The fixed-point engine's replies: every output is its raw rows
        // dequantized, so the output rows stay off the wire.
        (
            "prefill_done_derived",
            Resp(Response::PrefillDone {
                heads: (0..2u64)
                    .map(|h| {
                        let raw = Matrix::from_fn(5, dim, |i, j| value(50 + h, i * dim + j) as i16);
                        PrefillHead {
                            output: raw.map(|r| Fix16x8::from_raw(r).to_f32()),
                            raw,
                            weights_q16: (0..5)
                                .map(|i| value(52 + h, i) as i64 % (1 << 40))
                                .collect(),
                        }
                    })
                    .collect(),
                sim_time_s: 1.25e-4,
                sim_energy_j: 3.5e-7,
            }),
        ),
        (
            "stepped_derived",
            Resp(Response::Stepped {
                session: 9,
                position: 7,
                heads: vec![WireHeadStep {
                    output: [128, -7, i16::MIN, i16::MAX]
                        .map(|r| Fix16x8::from_raw(r).to_f32())
                        .to_vec(),
                    raw: Some(vec![128, -7, i16::MIN, i16::MAX]),
                    weight_q16: Some(1 << 16),
                    saturation_events: 2,
                }],
            }),
        ),
    ]
}

/// `(name, frame digest, damaged-input digest)` of protocol version 2.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("prefill", 0x7b71bb822fbebdef, 0x00898b4d769f436f),
    ("open", 0xcf475cc52cf8cd45, 0x9d2cb1f6a617ce31),
    ("step", 0xfccc23ff58d8875b, 0xaec9971db06e1433),
    ("close", 0x592a3091b94311d4, 0xe69c9acfc56304e0),
    ("stats", 0x160c6572ce81d2ee, 0x36120ae2845dae10),
    ("prefill_done", 0x2a750c3a86dd4903, 0xcba6db7978a2d1dc),
    ("opened", 0x7496468f6149a93e, 0xd98dd8f03e29b661),
    ("stepped", 0x403a9e12c30b84e6, 0x360fd2ad5b0d5168),
    ("closed_none", 0x7b1aadb594256a1b, 0x1305e260e598e06d),
    ("closed_some", 0x859b97becbd239c0, 0x7ef56aed08949810),
    ("stats_reply", 0x1ec1d5e4bb2f87e5, 0x8303ff038a3524d1),
    ("error_plain", 0x08c91da777a45c31, 0xe65c5be5ed65f2b6),
    ("error_retry", 0x494e6fda62dcc73a, 0x40e8db401e3c2b10),
    ("prefill_done_derived", 0x9278d16c8a67057f, 0xd90e5cccd05a752a),
    ("stepped_derived", 0xf2fc195c6803632d, 0x7ab61689600f2267),
];

/// `(name, frame digest)` of protocol version 1, recorded at the commit
/// before the codecs became one definition per type (hand-written
/// `put_*` / `get_*` codecs). The frames are kept as bytes in
/// `v1_frames.hex`.
const GOLDEN_V1: &[(&str, u64)] = &[
    ("prefill", 0xbd9143f4ab1f10df),
    ("open", 0xd59da4408c0a3c8d),
    ("step", 0x0befa89e03f495b1),
    ("close", 0x9e24e16b09b29493),
    ("stats", 0xd354ea53cd946855),
    ("prefill_done", 0xd7ff9151878d16f2),
    ("opened", 0x7701a98370bce2e9),
    ("stepped", 0x8bd56fad423193a7),
    ("closed_none", 0x7951fcafe45d00e6),
    ("closed_some", 0x00cc16b44500d691),
    ("stats_reply", 0x95de03b1a41b5968),
    ("error_plain", 0xc67d26158e76096a),
    ("error_retry", 0xe7857820eb311e57),
];

/// Encodes `message`, checks the exact round trip, and returns the frame
/// digest and the damaged-input digest.
fn digests(message: &Message) -> (u64, u64) {
    let frame = match message {
        Message::Request(req) => encode_request(HEADER, req),
        Message::Response(resp) => encode_response(HEADER, resp),
    };
    let payload = &frame[4..];
    assert_eq!(u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize, payload.len());
    let decode = |bytes: &[u8]| match message {
        Message::Request(_) => format!("{:?}", decode_request(bytes)),
        Message::Response(_) => format!("{:?}", decode_response(bytes)),
    };
    let has_pattern = match message {
        Message::Request(req) => {
            // A request decodes to its on-grid value, which re-encodes to
            // the same bytes.
            let decoded = decode_request(payload);
            assert_eq!(decoded, Ok((HEADER, on_grid(req))), "the on-grid request");
            let (_, decoded) = decoded.expect("decodes");
            assert_eq!(encode_request(HEADER, &decoded), frame, "re-encodes byte for byte");
            matches!(req, Request::Prefill { .. } | Request::Open { .. })
        }
        Message::Response(resp) => {
            assert_eq!(decode_response(payload), Ok((HEADER, resp.clone())), "exact round trip");
            false
        }
    };
    let mut frame_digest = FNV_OFFSET;
    fnv1a(&mut frame_digest, &frame);
    let mut damaged = FNV_OFFSET;
    for cut in 0..payload.len() {
        fnv1a(&mut damaged, decode(&payload[..cut]).as_bytes());
    }
    if !has_pattern {
        let mut corrupt = payload.to_vec();
        for at in 0..corrupt.len() {
            corrupt[at] ^= 0xa5;
            fnv1a(&mut damaged, decode(&corrupt).as_bytes());
            corrupt[at] ^= 0xa5;
        }
    }
    (frame_digest, damaged)
}

#[test]
fn every_corpus_frame_matches_its_parent_commit_digest() {
    let corpus = corpus();
    let actual: Vec<(&str, u64, u64)> = corpus
        .iter()
        .map(|(name, message)| {
            let (frame, damaged) = digests(message);
            (*name, frame, damaged)
        })
        .collect();
    let listing: String = actual
        .iter()
        .map(|(name, frame, damaged)| format!("    ({name:?}, {frame:#018x}, {damaged:#018x}),\n"))
        .collect();
    assert_eq!(actual, GOLDEN, "wire bytes or decode errors moved; actual digests:\n{listing}");
}

/// Every version-1 frame of the corpus, as the version-1 encoder wrote it,
/// still hashes to the digest recorded for it — and this decoder refuses
/// it by its version byte, before reading anything else.
#[test]
fn version_1_frames_are_refused_by_their_version() {
    let fixture: Vec<(&str, Vec<u8>)> = include_str!("v1_frames.hex")
        .lines()
        .map(|line| {
            let (name, hex) = line.split_once(' ').expect("name and hex");
            let byte = |i: usize| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex");
            (name, (0..hex.len()).step_by(2).map(byte).collect())
        })
        .collect();
    assert_eq!(fixture.len(), GOLDEN_V1.len());
    for ((name, frame), &(golden_name, golden_frame)) in fixture.iter().zip(GOLDEN_V1) {
        assert_eq!(*name, golden_name);
        let mut digest = FNV_OFFSET;
        fnv1a(&mut digest, frame);
        assert_eq!(digest, golden_frame, "{name}: the fixture is not the recorded version-1 frame");
        assert_eq!(frame[4], 1, "{name}: version byte");
        assert_eq!(decode_request(&frame[4..]), Err(WireError::BadVersion(1)), "{name}");
        assert_eq!(decode_response(&frame[4..]), Err(WireError::BadVersion(1)), "{name}");
    }
}

#[test]
fn strided_tag_decodes_though_the_encoder_never_emits_it() {
    // Tag 2 is reachable only from a peer's bytes: splice a strided term
    // into an otherwise encoder-made single-term prefill frame.
    let n = 16;
    let shape = AttentionShape::new(n, 4, 1).expect("valid shape");
    let heads = vec![qkv(50, n, 4)];
    let window = HybridPattern::from_terms(
        n,
        vec![PatternTerm::Window(Window::dilated(-1, 1, 1).expect("valid window"))],
    )
    .expect("valid pattern");
    let frame =
        encode_request(HEADER, &Request::Prefill { pattern: window, shape, heads: heads.clone() });
    // payload = header (18) | n: u64 | term count: u32 | tag 0 | lo, hi: i64 | dilation: u64 | ...
    let term_at = 4 + 18 + 8 + 4;
    assert_eq!(frame[term_at], 0, "window tag");
    let mut spliced = frame[4..term_at].to_vec();
    spliced.push(2);
    spliced.extend_from_slice(&4u64.to_le_bytes()); // stride
    spliced.extend_from_slice(&2u64.to_le_bytes()); // local
    spliced.extend_from_slice(&frame[term_at + 1 + 24..]);
    let strided = HybridPattern::from_terms(n, vec![PatternTerm::Strided { stride: 4, local: 2 }])
        .expect("valid pattern");
    let prefill = Request::Prefill { pattern: strided, shape, heads };
    assert_eq!(decode_request(&spliced), Ok((HEADER, on_grid(&prefill))));
    // And an unknown tag in the same place is a typed error.
    spliced[term_at - 4] = 9;
    assert_eq!(decode_request(&spliced), Err(WireError::BadValue("pattern term tag 9".into())));
}
