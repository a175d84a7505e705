//! Property tests for the wire protocol: a response round-trips exactly
//! and a request to its on-grid value, which encodes to the same bytes
//! again, over arbitrary messages; and the decoder treats arbitrary
//! bytes — truncations, corruptions, garbage — as typed errors, never
//! panics or runaway allocations. The streaming entry points
//! (`read_request` / `read_response`) are held to the slice decoder as
//! their oracle: the same values from a reader that dribbles bytes, the
//! same typed errors from damaged frames, and the stream left in sync.

mod common;

use std::io::{BufRead, ErrorKind, Read};

use common::on_grid;
use proptest::prelude::*;
use salo_gateway::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, read_request,
    read_response, ErrorCode, ErrorFrame, Frame, Header, PrefillHead, Request, Response, WireError,
    WireHeadStep, HEADER_LEN, PROTOCOL_VERSION,
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

/// A stream that hands the decoder 1..=`most` bytes per `fill_buf`,
/// however many it asked for: every scalar can straddle a refill.
struct Dribble<'a> {
    bytes: &'a [u8],
    most: usize,
    seed: u64,
    /// The size of the bufferful `fill_buf` is currently showing.
    showing: usize,
}

impl<'a> Dribble<'a> {
    fn new(bytes: &'a [u8], most: usize, seed: u64) -> Self {
        Dribble { bytes, most, seed, showing: 0 }
    }
}

impl BufRead for Dribble<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.showing == 0 {
            self.showing = (1 + mix(&mut self.seed) as usize % self.most).min(self.bytes.len());
        }
        Ok(&self.bytes[..self.showing])
    }

    fn consume(&mut self, n: usize) {
        self.bytes = &self.bytes[n..];
        self.showing -= n;
    }
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.fill_buf()?.len().min(buf.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// What the slice decoder answers.
type Decoded<T> = Result<(Header, T), WireError>;

/// What a streaming read of `payload`, framed, must answer, by the slice
/// decoder: the same message or the same typed error, under the header
/// the payload carries if that much of it is sound.
fn expected<T>(payload: &[u8], decoded: Decoded<T>) -> (Header, Result<T, WireError>) {
    match decoded {
        Ok((header, message)) => (header, Ok(message)),
        Err(error) => {
            let u64_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
            let header = if payload[0] == PROTOCOL_VERSION {
                Header { tenant: u64_at(2), request_id: u64_at(10) }
            } else {
                Header::default()
            };
            (header, Err(error))
        }
    }
}

/// `golden_frames.rs`'s damaged-input sweep over `payload` — strict
/// prefixes and, where `corruptible`, single-byte corruptions — sampled
/// at a stride, each damaged payload long enough to be framed.
fn damaged(payload: &[u8], corruptible: bool) -> Vec<Vec<u8>> {
    let stride = (payload.len() / 61).max(1);
    let mut cases: Vec<Vec<u8>> =
        (HEADER_LEN..payload.len()).step_by(stride).map(|cut| payload[..cut].to_vec()).collect();
    if corruptible {
        for at in (0..payload.len()).step_by(stride) {
            let mut corrupt = payload.to_vec();
            corrupt[at] ^= 0xa5;
            cases.push(corrupt);
        }
    }
    cases
}

/// `[damaged frame][valid frame]` on one stream: the first read answers
/// what the slice decoder answers to the damaged payload, the second the
/// valid message — the damage cost one typed error, not the stream.
fn assert_stays_in_sync<T: Clone + PartialEq + std::fmt::Debug>(
    payload: &[u8],
    corruptible: bool,
    most: usize,
    decode: fn(&[u8]) -> Decoded<T>,
    read: impl Fn(&mut Dribble<'_>) -> Result<Frame<T>, WireError>,
) {
    let (valid_header, valid) = decode(payload).expect("the valid frame");
    for bad in damaged(payload, corruptible) {
        let mut stream = (bad.len() as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&bad);
        stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        stream.extend_from_slice(payload);
        let mut reader = Dribble::new(&stream, most, bad.len() as u64);
        let first = read(&mut reader).expect("a sound frame boundary");
        assert_eq!((first.header, first.message), expected(&bad, decode(&bad)));
        assert_eq!(first.len, 4 + bad.len());
        let second = read(&mut reader).expect("the stream is still in sync");
        assert_eq!((second.header, second.message), (valid_header, Ok(valid.clone())));
        assert!(reader.bytes.is_empty());
    }
}

proptest! {
    /// A request's q, k and v travel as 8-bit rows: decoded, it is the
    /// on-grid request — every element quantized with its scale folded in
    /// and dequantized with it divided back out — and that re-encodes to
    /// the same frame, byte for byte.
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
        prop_assert_eq!(&decoded, &on_grid(&request));
        prop_assert_eq!(encode_request(header, &decoded), frame);
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

    /// The streaming decoder against the slice decoder: the same frame
    /// through a reader that yields 1..=`most` bytes at a time decodes to
    /// the same value, and consumes exactly the frame.
    #[test]
    fn a_dribbled_frame_decodes_to_what_its_slice_does(
        variant in 0u8..11,
        seed in any::<u64>(),
        most in 1usize..40,
    ) {
        let header = Header { tenant: seed ^ 0x55, request_id: seed };
        if variant < 5 {
            let frame = encode_request(header, &arb_request(variant, seed));
            let (oracle_header, oracle) = decode_request(&frame[4..]).expect("valid encoding");
            let mut reader = Dribble::new(&frame, most, seed);
            let read = read_request(&mut reader).expect("sound frame");
            prop_assert_eq!((read.len, read.header, read.message), (frame.len(), oracle_header, Ok(oracle)));
            prop_assert!(reader.bytes.is_empty());
        } else {
            let frame = encode_response(header, &arb_response(variant - 5, seed));
            let (oracle_header, oracle) = decode_response(&frame[4..]).expect("valid encoding");
            let mut reader = Dribble::new(&frame, most, seed);
            let read = read_response(&mut reader).expect("sound frame");
            prop_assert_eq!((read.len, read.header, read.message), (frame.len(), oracle_header, Ok(oracle)));
            prop_assert!(reader.bytes.is_empty());
        }
    }

    /// A stream that ends inside a frame — anywhere, the prefix included —
    /// is the stream's failure, `Io(UnexpectedEof)`: never a short value,
    /// never a payload error, never a panic.
    #[test]
    fn a_stream_that_ends_mid_frame_is_unexpected_eof(
        variant in 0u8..5,
        seed in any::<u64>(),
        most in 1usize..40,
    ) {
        let frame = encode_request(Header::default(), &arb_request(variant, seed));
        let stride = (frame.len() / 97).max(1);
        let cuts = (0..frame.len()).step_by(stride).chain([frame.len() - 1, frame.len() - 2]);
        for cut in cuts {
            let eof = Err(WireError::Io(ErrorKind::UnexpectedEof));
            prop_assert_eq!(read_request(&mut &frame[..cut]), eof.clone(), "slice cut at {}", cut);
            let mut reader = Dribble::new(&frame[..cut], most, seed);
            prop_assert_eq!(read_request(&mut reader), eof, "dribbled, cut at {}", cut);
        }
    }

    /// `golden_frames.rs`'s damaged-input sweep, on a stream: a damaged
    /// frame followed by a valid one yields the typed error (or the
    /// value) the slice decoder gives for the damaged payload, then the
    /// valid message. Requests that carry a pattern are swept by
    /// truncation only, as there.
    #[test]
    fn a_damaged_frame_costs_one_typed_error_and_not_the_stream(
        variant in 0u8..11,
        seed in any::<u64>(),
        most in 1usize..40,
    ) {
        if variant < 5 {
            let frame = encode_request(Header { tenant: 3, request_id: seed }, &arb_request(variant, seed));
            assert_stays_in_sync(&frame[4..], variant >= 2, most, decode_request, |r| read_request(r));
        } else {
            let frame = encode_response(Header { tenant: 3, request_id: seed }, &arb_response(variant - 5, seed));
            assert_stays_in_sync(&frame[4..], true, most, decode_response, |r| read_response(r));
        }
    }

    /// A payload too short to hold a header is refused at the framing
    /// tier, as `read_frame` refuses it.
    #[test]
    fn a_frame_shorter_than_a_header_is_a_framing_error(len in 0usize..HEADER_LEN) {
        let mut stream = (len as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&vec![PROTOCOL_VERSION; len]);
        let refused = WireError::Truncated { needed: HEADER_LEN, have: len };
        prop_assert_eq!(read_request(&mut stream.as_slice()), Err(refused.clone()));
        prop_assert_eq!(read_frame(&mut stream.as_slice()), Err(refused));
    }
}
