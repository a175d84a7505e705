//! Property tests for the wire protocol: encode/decode is an exact
//! round trip over arbitrary messages, and the decoder treats arbitrary
//! bytes — truncations, corruptions, garbage — as typed errors, never
//! panics or runaway allocations.

use proptest::prelude::*;
use salo_gateway::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, ErrorCode,
    ErrorFrame, Header, PrefillHead, Request, Response, WireHeadStep,
};
use salo_kernels::{Matrix, Qkv};
use salo_patterns::{
    longformer, sliding_only, AttentionShape, BlockLayout, HybridPattern, PatternTerm, SupportRuns,
};
use salo_serve::TokenQkv;

/// Splitmix-style generator so message content is a pure function of the
/// proptest-supplied seed.
fn mix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn f32_of(seed: &mut u64) -> f32 {
    // Finite, sign-varied, wide-exponent values (bit-exactness is the
    // point, so cover more than round numbers).
    let raw = mix(seed);
    ((raw as i32 % 100_000) as f32) * 2.0f32.powi((raw >> 32) as i32 % 10 - 5)
}

fn floats(seed: &mut u64, len: usize) -> Vec<f32> {
    (0..len).map(|_| f32_of(seed)).collect()
}

/// A valid pattern family per seed, covering every term codec: window,
/// global, strided, block-sparse (all three layouts via presets/terms),
/// random blocks, and explicit support runs.
fn arb_pattern(seed: u64) -> HybridPattern {
    let n = 16 + (seed % 3) as usize * 8;
    match seed % 6 {
        0 => sliding_only(n, 3 + (seed % 2) as usize * 2).expect("valid window"),
        1 => longformer(n, 4, 2).expect("valid longformer"),
        2 => HybridPattern::from_terms(n, vec![PatternTerm::Strided { stride: 4, local: 4 }])
            .expect("valid strided"),
        3 => HybridPattern::from_terms(
            n,
            vec![
                PatternTerm::BlockSparse {
                    block_rows: 4,
                    layout: BlockLayout::Banded { radius: 1 + (seed % 2) as usize },
                },
                PatternTerm::Global { token: (seed as usize) % n },
            ],
        )
        .expect("valid block-sparse"),
        4 => HybridPattern::from_terms(
            n,
            vec![
                PatternTerm::BlockSparse {
                    block_rows: 8,
                    layout: BlockLayout::Explicit(vec![(0, 0), (1, 0), (n / 8 - 1, 1)]),
                },
                PatternTerm::RandomBlocks { count: 2, seed },
            ],
        )
        .expect("valid explicit blocks"),
        _ => {
            let rows: Vec<Vec<(u32, u32)>> =
                (0..n).map(|i| vec![(0, i as u32 % n as u32 + 1)]).collect();
            HybridPattern::from_terms(
                n,
                vec![PatternTerm::Support(
                    SupportRuns::from_row_ranges(n, &rows).expect("valid runs"),
                )],
            )
            .expect("valid support")
        }
    }
}

fn arb_qkv(seed: &mut u64, rows: usize, dim: usize) -> Qkv {
    Qkv::random(rows, dim, mix(seed))
}

fn arb_token(seed: &mut u64, dim: usize) -> TokenQkv {
    TokenQkv { q: floats(seed, dim), k: floats(seed, dim), v: floats(seed, dim) }
}

fn arb_request(variant: u8, mut seed: u64) -> Request {
    let dim = 4 + (seed % 2) as usize * 4;
    match variant % 5 {
        0 => {
            let pattern = arb_pattern(seed);
            let n = pattern.n();
            let heads = 1 + (seed % 2) as usize;
            let shape = AttentionShape::new(n, dim, heads).expect("valid shape");
            let heads = (0..heads).map(|_| arb_qkv(&mut seed, n, dim)).collect();
            Request::Prefill { pattern, shape, heads }
        }
        1 => {
            let pattern = arb_pattern(seed);
            let rows = pattern.n() / 2;
            let num_heads = 1 + (seed % 3) as usize;
            let prompt = (0..num_heads).map(|_| arb_qkv(&mut seed, rows, dim)).collect();
            Request::Open { pattern, head_dim: dim, num_heads, prompt }
        }
        2 => {
            let heads = 1 + (seed % 3) as usize;
            let token = (0..heads).map(|_| arb_token(&mut seed, dim)).collect();
            Request::Step { session: mix(&mut seed), token }
        }
        3 => Request::Close { session: mix(&mut seed) },
        _ => Request::Stats,
    }
}

fn arb_response(variant: u8, mut seed: u64) -> Response {
    let dim = 4 + (seed % 2) as usize * 4;
    match variant % 6 {
        0 => {
            let rows = 4 + (seed % 8) as usize;
            let heads = (0..1 + (seed % 2))
                .map(|_| PrefillHead {
                    output: Matrix::from_vec(rows, dim, floats(&mut seed, rows * dim))
                        .expect("consistent shape"),
                    raw: Matrix::from_vec(
                        rows,
                        dim,
                        (0..rows * dim).map(|_| mix(&mut seed) as i16).collect(),
                    )
                    .expect("consistent shape"),
                    weights_q16: (0..rows).map(|_| mix(&mut seed) as i64 % (1 << 40)).collect(),
                })
                .collect();
            Response::PrefillDone {
                heads,
                sim_time_s: (mix(&mut seed) % 1_000_000) as f64 * 1e-8,
                sim_energy_j: (mix(&mut seed) % 1_000_000) as f64 * 1e-10,
            }
        }
        1 => Response::Opened {
            session: mix(&mut seed),
            min_step: mix(&mut seed) % 64,
            position: mix(&mut seed) % 64,
            capacity: 64 + mix(&mut seed) % 64,
        },
        2 => {
            let heads = (0..1 + (seed % 3))
                .map(|_| WireHeadStep {
                    output: floats(&mut seed, dim),
                    raw: if seed.is_multiple_of(2) {
                        Some((0..dim).map(|_| mix(&mut seed) as i16).collect())
                    } else {
                        None
                    },
                    weight_q16: (seed % 3 != 1).then(|| mix(&mut seed) as i64 % (1 << 30)),
                    saturation_events: mix(&mut seed) % 16,
                })
                .collect();
            Response::Stepped { session: mix(&mut seed), position: mix(&mut seed) % 4096, heads }
        }
        3 => Response::Closed {
            session: mix(&mut seed),
            position: (seed.is_multiple_of(2)).then(|| mix(&mut seed) % 4096),
        },
        4 => Response::Stats {
            json: format!("{{\"counters\":{{\"x\":{}}}}}", mix(&mut seed) % 100_000),
        },
        _ => Response::Error(ErrorFrame {
            code: match seed % 7 {
                0 => ErrorCode::BadFrame,
                1 => ErrorCode::Overloaded,
                2 => ErrorCode::Draining,
                3 => ErrorCode::TimedOut,
                4 => ErrorCode::UnknownSession,
                5 => ErrorCode::Invalid,
                _ => ErrorCode::Internal,
            },
            message: format!("error {}", mix(&mut seed) % 1000),
            retry_after_ms: (seed.is_multiple_of(2)).then(|| mix(&mut seed) % 10_000),
        }),
    }
}

proptest! {
    #[test]
    fn requests_roundtrip_exactly(
        variant in 0u8..5,
        seed in any::<u64>(),
        tenant in any::<u64>(),
        request_id in any::<u64>(),
    ) {
        let request = arb_request(variant, seed);
        let header = Header { tenant, request_id };
        let frame = encode_request(header, &request);
        let (decoded_header, decoded) = decode_request(&frame[4..]).expect("valid encoding");
        prop_assert_eq!(decoded_header, header);
        prop_assert_eq!(decoded, request);
    }

    #[test]
    fn responses_roundtrip_exactly(
        variant in 0u8..6,
        seed in any::<u64>(),
        tenant in any::<u64>(),
        request_id in any::<u64>(),
    ) {
        let response = arb_response(variant, seed);
        let header = Header { tenant, request_id };
        let frame = encode_response(header, &response);
        let (decoded_header, decoded) = decode_response(&frame[4..]).expect("valid encoding");
        prop_assert_eq!(decoded_header, header);
        prop_assert_eq!(decoded, response);
    }

    #[test]
    fn every_strict_prefix_is_a_typed_error(
        variant in 0u8..5,
        seed in any::<u64>(),
    ) {
        let request = arb_request(variant, seed);
        let frame = encode_request(Header::default(), &request);
        let payload = &frame[4..];
        // Every strict prefix must decode to Err — a message can never
        // be mistaken for a truncation of itself.
        let stride = (payload.len() / 97).max(1);
        let mut cuts: Vec<usize> = (0..payload.len()).step_by(stride).collect();
        // Always include the boundary-adjacent cuts.
        cuts.extend([payload.len().saturating_sub(1), payload.len().saturating_sub(2)]);
        for cut in cuts {
            if cut >= payload.len() {
                continue;
            }
            prop_assert!(
                decode_request(&payload[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded successfully",
                payload.len()
            );
        }
    }

    #[test]
    fn corrupted_bytes_never_panic(
        variant in 0u8..6,
        seed in any::<u64>(),
        flip_at in any::<u64>(),
        flip_mask in 1u8..255,
    ) {
        let response = arb_response(variant, seed);
        let frame = encode_response(Header::default(), &response);
        let mut payload = frame[4..].to_vec();
        let at = (flip_at as usize) % payload.len();
        payload[at] ^= flip_mask;
        // Any outcome but a panic is acceptable; errors must be typed.
        let _ = decode_response(&payload);
        let _ = decode_request(&payload);
    }

    #[test]
    fn garbage_streams_never_panic_or_overallocate(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Framing layer: a hostile length prefix must be refused before
        // allocation; short streams must surface as typed errors.
        let _ = read_frame(&mut bytes.as_slice());
        // Codec layer: arbitrary payloads decode to Ok or typed Err.
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }
}
