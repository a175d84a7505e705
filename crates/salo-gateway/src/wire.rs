//! The gateway's length-prefixed binary wire protocol.
//!
//! A frame is `u32` little-endian payload length followed by the payload:
//!
//! ```text
//! +----------+---------+--------+------------+--------------+------
//! | len: u32 | ver: u8 | op: u8 | tenant:u64 | request:u64  | body
//! +----------+---------+--------+------------+--------------+------
//! ```
//!
//! Everything is hand-rolled little-endian primitives — no serde, no
//! bincode — because the decode side faces the network: every malformed
//! input maps to a typed [`WireError`], never a panic. Each type's wire
//! form is written once — a private `Wire` impl, or a field list handed to
//! `wire!` — and that one definition both encodes and decodes.
//!
//! **The wire carries the datapath's numbers (version 2).** The PE array
//! reads q, k and v only as 8-bit `Fix8x4` rows and writes 16-bit `Fix16x8`
//! ones, so that is what travels. A request's rows are one byte an element:
//! the client's encoder quantizes them through the datapath's one rounding
//! (`quantize_iter`, q with the head's attention scale folded in) — the
//! rounding an in-process run's load applies, so a socket run and an
//! in-process run from the same `f32` rows agree bit for bit.
//! [`decode_request`] hands back the on-grid
//! `f32` request the bytes stand for (`Fix8x4::to_f32`, q divided by the
//! scale), which encodes to the same bytes again. A reply's rows are two
//! bytes an element: a head whose `f32` output is bit for bit its raw
//! `Fix16x8` rows dequantized — every head the fixed-point engine answers
//! — sends only the raw rows and the Q.16 weights, and the decoder rebuilds
//! the output from them; any other head sends its `f32` output behind a
//! tag, as IEEE-754 bit patterns. So every [`Response`] round-trips
//! exactly, and a request round-trips to its on-grid value.
//!
//! **A frame is consumed as a stream.** The one decoder reads from a
//! `BufRead` bounded by the length prefix — [`read_request`] /
//! [`read_response`] hand it the socket's reader, [`decode_request`] /
//! [`decode_response`] a slice, which is just another reader — so no
//! message is resident both as bytes and as values: scalars are read in
//! place from the reader's buffer, and a run of them (every matrix) is
//! converted a bufferful at a time straight into the vector it ends up in.
//! *Validated before allocation* therefore means: every length a frame
//! declares is checked against the bytes the frame **still owes** — its
//! prefix, itself bounded by [`MAX_FRAME_LEN`], less what has been
//! consumed — before anything is allocated for it, so a frame can make the
//! decoder hold at most a small multiple of its own length in values (four
//! `f32` bytes for each row byte, in [`Request`]; one, in [`Incoming`]),
//! and only a peer that goes on to send those bytes gets them kept.
//!
//! **The server reads rows as the datapath holds them.** The gateway's
//! reader decodes with [`read_incoming`] into [`Incoming`], [`Request`]'s
//! twin from the same `wire!` list: a prefill's heads and an `Open`'s
//! prompt arrive as [`FixedQkv`], a step's token as [`FixedToken`], each
//! read straight from the frame's bytes. No `f32` row of a request is ever
//! resident at the server, and nothing is quantized there.
//!
//! **A frame is encoded once, at its size.** A counting pass over the same
//! `Wire` impls sizes the buffer exactly, then the writing pass fills it:
//! no frame is built by doubling, and a run of replies to one connection
//! is appended to one buffer.
//!
//! Patterns ride as their [`PatternTerm`] IR (PR 9): `from_terms` is
//! idempotent on `terms()`, so decoding reproduces the sender's pattern
//! exactly, fingerprint included. Nothing on the wire stops a gateway or
//! carries its report: a `ServeReport` leaves only through
//! `Gateway::shutdown`, in the process that owns the gateway, and what an
//! operator reads over the socket is the live registry (`Stats`).

use std::io::{BufRead, ErrorKind, Read, Write};

use salo_core::{FixedQkv, FixedToken, HeadStep, TokenQkv};
use salo_fixed::{quantize_iter, Fix16x8, Fix8x4};
use salo_kernels::{Matrix, Qkv};
use salo_patterns::{AttentionShape, BlockLayout, HybridPattern, PatternTerm, SupportRuns, Window};
use salo_sim::SpatialAccelerator;

/// Protocol version carried in every frame header. Version 2 carries q, k
/// and v as 8-bit rows and replies as 16-bit rows; a version-1 frame is
/// refused with [`WireError::BadVersion`].
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on a frame's payload length. Frames claiming more are
/// refused before any allocation happens.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Fixed header bytes after the length prefix: version, opcode, tenant,
/// request id.
pub const HEADER_LEN: usize = 1 + 1 + 8 + 8;

/// Frame header: who sent it and which request it belongs to. Responses
/// echo the request's header, so a pipelining client can match replies
/// by `request_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Tenant the request is accounted (and queued) under.
    pub tenant: u64,
    /// Client-chosen correlation id, echoed on the response.
    pub request_id: u64,
}

/// Decode failures. Every malformed, truncated or oversized input maps
/// here — the protocol surface never panics and never over-allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field it declared.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually left.
        have: usize,
    },
    /// The payload decoded fully but bytes remain.
    TrailingBytes {
        /// Bytes left over after the message.
        remaining: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    OversizedFrame {
        /// Claimed payload length.
        len: usize,
        /// The protocol bound.
        max: usize,
    },
    /// The opcode byte is not one this protocol version defines.
    UnknownOpcode(u8),
    /// The version byte does not match [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// A field decoded but fails domain validation (bad window bounds,
    /// inconsistent matrix, invalid UTF-8, ...).
    BadValue(String),
    /// The underlying socket/stream failed (EOF, deadline, reset).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: field needs {needed} bytes, {have} left")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
            WireError::OversizedFrame { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadVersion(v) => {
                write!(f, "protocol version {v}, expected {PROTOCOL_VERSION}")
            }
            WireError::BadValue(reason) => write!(f, "invalid field: {reason}"),
            WireError::Io(kind) => write!(f, "i/o error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.kind())
    }
}

/// Typed error codes an [`ErrorFrame`] can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame could not be decoded; the connection closes after this.
    BadFrame,
    /// Admission refused the request: a tenant or global queue bound was
    /// hit. Carries a retry hint.
    Overloaded,
    /// The gateway is draining and accepts no new work.
    Draining,
    /// The request's service deadline expired (in queue or waiting on a
    /// session event).
    TimedOut,
    /// The referenced wire session is unknown to this connection.
    UnknownSession,
    /// The request is internally inconsistent (serve-side validation).
    Invalid,
    /// Execution failed inside the runtime.
    Internal,
}

/// A typed error response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFrame {
    /// What went wrong, as a machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// For [`ErrorCode::Overloaded`]: how long the client should back
    /// off before retrying, in milliseconds. A hint, not a promise.
    pub retry_after_ms: Option<u64>,
}

/// A client-to-gateway request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// One-shot prefill of a full attention layer.
    Prefill {
        /// The hybrid sparsity pattern.
        pattern: HybridPattern,
        /// Sequence/head dimensions.
        shape: AttentionShape,
        /// Per-head inputs.
        heads: Vec<Qkv>,
    },
    /// Open a streaming decode session.
    Open {
        /// Pattern over the session's full capacity.
        pattern: HybridPattern,
        /// Head dimension.
        head_dim: usize,
        /// Number of heads.
        num_heads: usize,
        /// Per-head prompt rows.
        prompt: Vec<Qkv>,
    },
    /// Decode one token of an open session.
    Step {
        /// The wire session id from [`Response::Opened`].
        session: u64,
        /// The new position's per-head `(q, k, v)` rows.
        token: Vec<TokenQkv>,
    },
    /// Close a session; the reply is its terminal [`Response::Closed`].
    Close {
        /// The wire session id.
        session: u64,
    },
    /// Ask for the JSON export of the server's live metrics registry.
    Stats,
}

/// A [`Request`] as the gateway's reader takes it off the socket
/// ([`read_incoming`]): the same frames, one `wire!` list for both, but
/// every q, k and v row is decoded into the quantized rows the datapath
/// ingests, straight from the frame's bytes. No `f32` row is ever
/// resident.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// As [`Request::Prefill`], the heads quantized.
    Prefill {
        /// The hybrid sparsity pattern.
        pattern: HybridPattern,
        /// Sequence/head dimensions.
        shape: AttentionShape,
        /// Per-head inputs, quantized.
        heads: Vec<FixedQkv>,
    },
    /// As [`Request::Open`], the prompt quantized.
    Open {
        /// Pattern over the session's full capacity.
        pattern: HybridPattern,
        /// Head dimension.
        head_dim: usize,
        /// Number of heads.
        num_heads: usize,
        /// Per-head prompt rows, quantized.
        prompt: Vec<FixedQkv>,
    },
    /// As [`Request::Step`], the token quantized.
    Step {
        /// The wire session id from [`Response::Opened`].
        session: u64,
        /// The new position's per-head `(q, k, v)` rows, quantized.
        token: Vec<FixedToken>,
    },
    /// As [`Request::Close`].
    Close {
        /// The wire session id.
        session: u64,
    },
    /// As [`Request::Stats`].
    Stats,
}

/// One head of a [`Response::PrefillDone`], in accelerator-exact form:
/// the dequantized output plus the 16-bit raw rows and Q.16 softmax
/// weights, so a client can assert bit-identity against an in-process
/// run. The output travels only when it is not the raw rows dequantized.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefillHead {
    /// The attention output, dequantized to `f32`.
    pub output: Matrix<f32>,
    /// The 16-bit accelerator-format output (raw bit patterns).
    pub raw: Matrix<i16>,
    /// Final per-row softmax weights (Q.16).
    pub weights_q16: Vec<i64>,
}

/// One head of a [`Response::Stepped`], mirroring
/// [`salo_core::HeadStep`] with the raw row as bit patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct WireHeadStep {
    /// The position's output row, in `f32`.
    pub output: Vec<f32>,
    /// The 16-bit accelerator-format row (present on fixed-point
    /// backends).
    pub raw: Option<Vec<i16>>,
    /// The row's softmax weight `W = Σ exp` (Q.16).
    pub weight_q16: Option<i64>,
    /// MAC saturation events this token caused.
    pub saturation_events: u64,
}

impl From<&HeadStep> for WireHeadStep {
    fn from(h: &HeadStep) -> Self {
        WireHeadStep {
            output: h.output.clone(),
            raw: h.raw.as_ref().map(|r| r.iter().map(|x| x.raw()).collect()),
            weight_q16: h.weight_q16,
            saturation_events: h.saturation_events,
        }
    }
}

/// A gateway-to-client response. The header's `request_id` echoes the
/// request it answers; a terminal [`Response::Closed`] sent during drain
/// carries the id of the session's original open.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A [`Request::Prefill`] completed.
    PrefillDone {
        /// Per-head outputs.
        heads: Vec<PrefillHead>,
        /// Simulated layer latency (seconds).
        sim_time_s: f64,
        /// Simulated layer energy (joules).
        sim_energy_j: f64,
    },
    /// A [`Request::Open`] completed.
    Opened {
        /// Wire session id for subsequent [`Request::Step`]s — the same id
        /// the serving runtime and the engine know the session by.
        session: u64,
        /// First decodable position.
        min_step: u64,
        /// Position the next step will produce.
        position: u64,
        /// Sequence capacity.
        capacity: u64,
    },
    /// A [`Request::Step`] completed.
    Stepped {
        /// The wire session id.
        session: u64,
        /// The position this step produced.
        position: u64,
        /// Per-head output rows.
        heads: Vec<WireHeadStep>,
    },
    /// The session is closed — in reply to [`Request::Close`], or
    /// terminally during a drain.
    Closed {
        /// The wire session id.
        session: u64,
        /// Tokens the session had ingested; `None` if the count died
        /// with its worker.
        position: Option<u64>,
    },
    /// The metrics-registry JSON export.
    Stats {
        /// Output of [`MetricsRegistry::export_json`](salo_trace::MetricsRegistry::export_json).
        json: String,
    },
    /// The request failed with a typed error.
    Error(ErrorFrame),
}

/// One head of an [`Outgoing::PrefillDone`]: a [`PrefillHead`] whose raw
/// rows are still the engine's [`Fix16x8`] — on the wire the same two
/// bytes as the `i16` a client decodes them into. Its output is those
/// rows dequantized, so it carries none and writes output tag 0.
#[derive(Debug)]
pub(crate) struct EngineHead {
    pub raw: Matrix<Fix16x8>,
    pub weights_q16: Vec<i64>,
}

/// One head of an [`Outgoing::Stepped`]: a [`WireHeadStep`] whose raw row is
/// still the engine's [`Fix16x8`] and whose weight is always present. Its
/// output is that row dequantized, so it carries none and writes tag 0.
#[derive(Debug)]
pub(crate) struct EngineStep {
    pub raw: Vec<Fix16x8>,
    pub weight_q16: i64,
    pub saturation_events: u64,
}

/// A [`Response`] as the gateway holds it on the way out: the same six
/// replies, the same bytes, but the rows of `PrefillDone` and `Stepped`
/// are the engine's own vectors, moved in and written from where they lie
/// — nothing is converted to the client-side types first. One `wire!`
/// list defines both enums' frames.
#[derive(Debug)]
pub(crate) enum Outgoing {
    PrefillDone { heads: Vec<EngineHead>, sim_time_s: f64, sim_energy_j: f64 },
    Opened { session: u64, min_step: u64, position: u64, capacity: u64 },
    Stepped { session: u64, position: u64, heads: Vec<EngineStep> },
    Closed { session: u64, position: Option<u64> },
    Stats { json: String },
    Error(ErrorFrame),
}

// ---------------------------------------------------------------------
// primitive encoder / decoder
// ---------------------------------------------------------------------

/// The one encoder, run twice per frame: a counting pass (`out` is
/// `None`) that only adds up `len`, so the buffer can be reserved at the
/// frame's exact size, then the pass that writes into it.
struct Enc<'a> {
    out: Option<&'a mut Vec<u8>>,
    /// Bytes counted or written so far.
    len: usize,
}

impl Enc<'_> {
    fn bytes(&mut self, bytes: &[u8]) {
        self.len += bytes.len();
        if let Some(out) = &mut self.out {
            out.extend_from_slice(bytes);
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// `v`'s elements back to back, little-endian — the bulk form: one
    /// addition when counting, one sweep into reserved space when
    /// writing, where a push per element re-checks capacity megabytes of
    /// times over.
    fn slice<T: Le>(&mut self, v: &[T]) {
        self.len += v.len() * T::WIDTH;
        if let Some(out) = &mut self.out {
            let start = out.len();
            out.resize(start + v.len() * T::WIDTH, 0);
            for (dst, &x) in out[start..].chunks_exact_mut(T::WIDTH).zip(v) {
                x.put(dst);
            }
        }
    }

    /// `values` as the datapath loads them, a byte each: quantized through
    /// its one rounding ([`quantize_iter`], `scale` folded in). The
    /// counting pass only adds up the length.
    fn quantized(&mut self, values: &[f32], scale: f32) {
        self.len += values.len();
        if let Some(out) = &mut self.out {
            out.extend(quantize_iter(values, scale).map(|x| x.raw() as u8));
        }
    }

    /// A counted sequence: `u32` length, then the elements.
    fn seq<T: Wire>(&mut self, v: &[T]) {
        self.u32(v.len() as u32);
        T::encode_all(v, self);
    }
}

/// A scalar with a fixed-width little-endian wire form, for the bulk
/// codecs ([`Enc::slice`], [`Dec::vec`]). Every `Le` scalar is [`Wire`],
/// and a run of them is one sweep.
trait Le: Copy {
    /// At most 8: [`Dec::next`] reads a straddling scalar through a
    /// scratch of that size.
    const WIDTH: usize;
    /// Writes `self` into `dst`, which is `WIDTH` bytes.
    fn put(self, dst: &mut [u8]);
    /// Reads a value from `src`, which is `WIDTH` bytes.
    fn get(src: &[u8]) -> Self;
}

macro_rules! le_scalar {
    ($($t:ty),*) => {$(
        impl Le for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn put(self, dst: &mut [u8]) {
                dst.copy_from_slice(&self.to_le_bytes());
            }
            fn get(src: &[u8]) -> Self {
                <$t>::from_le_bytes(src.try_into().expect("WIDTH bytes"))
            }
        }
    )*};
}
le_scalar!(u8, u32, u64, i16, i64, f32, f64);

/// `Fix16x8` is `repr(transparent)` over its raw `i16` and travels as it:
/// the engine's rows are written from where they lie.
impl Le for Fix16x8 {
    const WIDTH: usize = i16::WIDTH;
    fn put(self, dst: &mut [u8]) {
        self.raw().put(dst);
    }
    fn get(src: &[u8]) -> Self {
        Fix16x8::from_raw(i16::get(src))
    }
}

/// `Fix8x4` is `repr(transparent)` over its raw `i8`: a q, k or v element
/// is one byte on the wire.
impl Le for Fix8x4 {
    const WIDTH: usize = 1;
    fn put(self, dst: &mut [u8]) {
        dst[0] = self.raw() as u8;
    }
    fn get(src: &[u8]) -> Self {
        Fix8x4::from_raw(src[0] as i8)
    }
}

/// An element of a 16-bit output row — the client's `i16`, the engine's
/// [`Fix16x8`], the same two bytes either way — and the `f32` it stands for.
trait Raw16: Le {
    fn dequantized(self) -> f32;
}

impl Raw16 for i16 {
    fn dequantized(self) -> f32 {
        Fix16x8::from_raw(self).to_f32()
    }
}

impl Raw16 for Fix16x8 {
    fn dequantized(self) -> f32 {
        self.to_f32()
    }
}

impl<T: Le> Wire for T {
    const MIN: usize = T::WIDTH;

    fn encode(&self, e: &mut Enc<'_>) {
        e.slice(std::slice::from_ref(self));
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        d.owe(T::WIDTH)?;
        d.next()
    }

    fn encode_all(items: &[Self], e: &mut Enc<'_>) {
        e.slice(items);
    }

    fn decode_all<R: BufRead>(n: usize, d: &mut Dec<R>) -> Result<Vec<Self>, WireError> {
        d.vec(n)
    }
}

/// The one decoder: a reader and the bytes the frame it is in still owes.
/// The reader is the socket's `BufReader` or a slice; either way every
/// field is first taken off `owed` — a field the frame cannot cover is
/// [`WireError::Truncated`] before a byte of it is read or allocated for —
/// and only then read, so a stream that ends inside a frame is the
/// reader's `UnexpectedEof`, never a short value.
struct Dec<R> {
    r: R,
    owed: usize,
}

impl<R: BufRead> Dec<R> {
    /// Takes a field of `n` bytes off what the frame owes.
    fn owe(&mut self, n: usize) -> Result<(), WireError> {
        if n > self.owed {
            return Err(WireError::Truncated { needed: n, have: self.owed });
        }
        self.owed -= n;
        Ok(())
    }

    /// How many bytes the reader has buffered, after refilling an empty
    /// buffer: zero only at the end of the stream.
    fn fill(&mut self) -> Result<usize, WireError> {
        loop {
            match self.r.fill_buf() {
                Ok(buffered) => return Ok(buffered.len()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// One scalar the caller has taken off `owed`: read in place from the
    /// reader's buffer — no call through the reader, no copy — or, when it
    /// straddles the buffer's end, through a scratch.
    fn next<T: Le>(&mut self) -> Result<T, WireError> {
        if self.fill()? >= T::WIDTH {
            let v = T::get(&self.r.fill_buf()?[..T::WIDTH]);
            self.r.consume(T::WIDTH);
            return Ok(v);
        }
        let mut scratch = [0u8; 8];
        let scratch = &mut scratch[..T::WIDTH];
        self.r.read_exact(scratch)?;
        Ok(T::get(scratch))
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Wire::decode(self)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Wire::decode(self)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Wire::decode(self)
    }

    /// An element count that promises `count * width` payload bytes:
    /// checked against the bytes the frame still owes *before* any
    /// allocation, so a hostile length cannot balloon memory.
    fn count(&mut self, width: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let needed = n.saturating_mul(width.max(1));
        if needed > self.owed {
            return Err(WireError::Truncated { needed, have: self.owed });
        }
        Ok(n)
    }

    /// `n` little-endian elements back to back — the bulk form: taken off
    /// `owed` as one field, so the allocation is bounded by the frame,
    /// then converted a bufferful at a time straight into the vector they
    /// stay in. The bytes are never resident beside the values.
    fn vec<T: Le>(&mut self, n: usize) -> Result<Vec<T>, WireError> {
        self.vec_map(n, |x| x)
    }

    /// [`vec`](Self::vec), each element passed through `f` on its way
    /// into the vector.
    fn vec_map<T: Le, U>(&mut self, n: usize, f: impl Fn(T) -> U) -> Result<Vec<U>, WireError> {
        self.owe(n.saturating_mul(T::WIDTH))?;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let buffered = self.fill()?.min((n - out.len()) * T::WIDTH);
            let whole = buffered - buffered % T::WIDTH;
            if whole == 0 {
                // An element straddles the buffer's end, or the stream is over.
                out.push(f(self.next()?));
                continue;
            }
            out.extend(self.r.fill_buf()?[..whole].chunks_exact(T::WIDTH).map(T::get).map(&f));
            self.r.consume(whole);
        }
        Ok(out)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.owed > 0 {
            return Err(WireError::TrailingBytes { remaining: self.owed });
        }
        Ok(())
    }

    /// Reads past whatever the frame still owes, so that the stream
    /// stands at the next frame's prefix.
    fn skip(&mut self) -> Result<(), WireError> {
        while self.owed > 0 {
            let n = self.fill()?.min(self.owed);
            if n == 0 {
                return Err(WireError::Io(ErrorKind::UnexpectedEof));
            }
            self.r.consume(n);
            self.owed -= n;
        }
        Ok(())
    }
}

fn bad(reason: impl std::fmt::Display) -> WireError {
    WireError::BadValue(reason.to_string())
}

// ---------------------------------------------------------------------
// the codec: one definition per type, both directions
// ---------------------------------------------------------------------

/// A type with one wire form. `encode` and `decode` of a type sit side by
/// side in one impl — or, for plain field lists, are both generated from
/// one list by the `wire!` macro — so the two directions cannot drift apart.
trait Wire: Sized {
    /// The fewest bytes an encoding of `Self` can occupy: what a counted
    /// sequence multiplies its claimed length by, and checks against the
    /// bytes the frame still owes, before it allocates.
    const MIN: usize = 1;

    fn encode(&self, e: &mut Enc<'_>);

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError>;

    /// `items` back to back, uncounted. Scalars answer with one sweep.
    fn encode_all(items: &[Self], e: &mut Enc<'_>) {
        for item in items {
            item.encode(e);
        }
    }

    /// `n` values back to back; the caller has bounded `n` by the frame.
    fn decode_all<R: BufRead>(n: usize, d: &mut Dec<R>) -> Result<Vec<Self>, WireError> {
        (0..n).map(|_| Self::decode(d)).collect()
    }
}

/// A type only the gateway writes and nobody reads back: the engine's
/// rows inside an [`Outgoing`], whose bytes a client decodes as the
/// [`Response`] they equal. One direction, so one method.
trait Emit {
    fn encode(&self, e: &mut Enc<'_>);
}

/// A counted sequence, as [`Enc::seq`] writes one.
impl<T: Emit> Emit for Vec<T> {
    fn encode(&self, e: &mut Enc<'_>) {
        e.u32(self.len() as u32);
        self.iter().for_each(|item| item.encode(e));
    }
}

/// An enum on the wire: a tag byte, and behind it the fields of the
/// variant the tag names. Where the tag sits is the caller's business —
/// the frame header for a message, the byte before the fields otherwise.
/// This is the writing half; [`FromTagged`] is the reading one.
trait Tagged {
    fn tag(&self) -> u8;

    fn encode_fields(&self, e: &mut Enc<'_>);
}

/// The reading half of [`Tagged`]: the variant a tag names, its fields
/// decoded.
trait FromTagged: Sized {
    fn decode_fields<R: BufRead>(tag: u8, d: &mut Dec<R>) -> Result<Self, WireError>;
}

/// Sizes and indices travel as `u64`.
impl Wire for usize {
    const MIN: usize = 8;

    fn encode(&self, e: &mut Enc<'_>) {
        e.u64(*self as u64);
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        Ok(d.u64()? as usize)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN: usize = A::MIN + B::MIN;

    fn encode(&self, e: &mut Enc<'_>) {
        self.0.encode(e);
        self.1.encode(e);
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

/// A tag byte (`0` = `None`, `1` = `Some`, anything else refused), then
/// the value.
impl<T: Wire> Wire for Option<T> {
    fn encode(&self, e: &mut Enc<'_>) {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                v.encode(e);
            }
        }
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => None,
            1 => Some(T::decode(d)?),
            tag => return Err(bad(format_args!("option tag {tag}"))),
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 4;

    fn encode(&self, e: &mut Enc<'_>) {
        e.seq(self);
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        let n = d.count(T::MIN)?;
        T::decode_all(n, d)
    }
}

impl Wire for String {
    fn encode(&self, e: &mut Enc<'_>) {
        e.seq(self.as_bytes());
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        String::from_utf8(Wire::decode(d)?).map_err(|_| bad("utf-8"))
    }
}

/// Writes a type's wire form once; the list drives both directions, in
/// the order written.
///
/// * `wire!(Type { a, b, c })`, optionally `wire!(Type, min { … })` — a
///   struct is its fields back to back. The encoder destructures without
///   `..`, so a field added to the struct and not to the wire does not
///   compile.
/// * `wire!(Type, unknown; tag => Variant { a, b }, tag => Variant(x), …)`
///   — an enum is [`Tagged`] and [`FromTagged`]; a tag outside the list
///   decodes to `unknown(tag)`. `wire!(Type as Wire, …)` also makes the
///   type [`Wire`], as the tag byte and then the fields.
/// * `wire!(Type | decode Twin, …)`, `wire!(Type | encode Twin, …)` — two
///   enums of the same shape whose fields differ only in representation
///   (the client's `f32` rows, the server's [`FixedQkv`] and
///   [`FixedToken`]; the client's `i16` rows, the engine's `Fix16x8`)
///   share the list, and therefore the frame. `Type` travels both ways;
///   the twin only the way it is named for — the gateway reads its
///   requests and writes its replies, and never the reverse.
macro_rules! wire {
    ($ty:ident | $way:ident $twin:ident, $unknown:expr; $($list:tt)+) => {
        wire!($ty, $unknown; $($list)+);
        wire!(@$way $twin, $unknown; $($list)+);
    };
    ($ty:ident $(, $min:literal)? { $($f:ident),* $(,)? }) => {
        impl Wire for $ty {
            $(const MIN: usize = $min;)?

            fn encode(&self, e: &mut Enc<'_>) {
                let $ty { $($f),* } = self;
                $($f.encode(e);)*
            }

            fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
                Ok($ty { $($f: Wire::decode(d)?),* })
            }
        }
    };
    ($ty:ident $(as $wire:ident)?, $unknown:expr; $($list:tt)+) => {
        wire!(@encode $ty, $unknown; $($list)+);
        wire!(@decode $ty, $unknown; $($list)+);

        $(impl $wire for $ty {
            fn encode(&self, e: &mut Enc<'_>) {
                e.u8(self.tag());
                self.encode_fields(e);
            }

            fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
                let tag = d.u8()?;
                Self::decode_fields(tag, d)
            }
        })?
    };
    (@encode $ty:ident, $unknown:expr;
     $($tag:tt => $v:ident $(($t:ident))? $({ $($f:ident),* })?),+ $(,)?) => {
        impl Tagged for $ty {
            fn tag(&self) -> u8 {
                match self {
                    $($ty::$v { .. } => $tag),+
                }
            }

            #[allow(unused_variables)] // an enum of unit variants writes nothing
            fn encode_fields(&self, e: &mut Enc<'_>) {
                match self {
                    $($ty::$v $(($t))? $({ $($f),* })? => {
                        $($t.encode(e);)?
                        $($($f.encode(e);)*)?
                    })+
                }
            }
        }
    };
    (@decode $ty:ident, $unknown:expr;
     $($tag:tt => $v:ident $(($t:ident))? $({ $($f:ident),* })?),+ $(,)?) => {
        impl FromTagged for $ty {
            #[allow(unused_variables)]
            fn decode_fields<R: BufRead>(tag: u8, d: &mut Dec<R>) -> Result<Self, WireError> {
                Ok(match tag {
                    $($tag => $ty::$v $(({
                        let $t = Wire::decode(d)?;
                        $t
                    }))? $({ $($f: Wire::decode(d)?),* })?,)+
                    other => return Err(($unknown)(other)),
                })
            }
        }
    };
}

// ---------------------------------------------------------------------
// domain codecs
// ---------------------------------------------------------------------

impl<T: Le> Wire for Matrix<T> {
    const MIN: usize = 8;

    fn encode(&self, e: &mut Enc<'_>) {
        e.u32(self.rows() as u32);
        e.u32(self.cols() as u32);
        e.slice(self.as_slice());
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        decode_matrix(d, |_| |x| x)
    }
}

/// A matrix's wire form — `u32` rows, `u32` cols, the elements — each
/// element read as a `T` and passed through the function `f` makes of the
/// column count.
fn decode_matrix<R: BufRead, T: Le, U: Copy, F: Fn(T) -> U>(
    d: &mut Dec<R>,
    f: impl FnOnce(usize) -> F,
) -> Result<Matrix<U>, WireError> {
    let rows = d.u32()? as usize;
    let cols = d.u32()? as usize;
    let needed = rows.saturating_mul(cols).saturating_mul(T::WIDTH);
    if needed > d.owed {
        return Err(WireError::Truncated { needed, have: d.owed });
    }
    Matrix::from_vec(rows, cols, d.vec_map(rows * cols, f(cols))?).map_err(bad)
}

/// What a quantized element stands for at the client: the `f32` it
/// dequantizes to, divided by the scale folded into it — an on-grid input
/// that quantizes to the same element again (`Fix8x4` is exact in `f32`,
/// and dividing the scale out and multiplying it back in lands within a
/// rounding of where it was, far inside the half step `Fix8x4::from_f32`
/// rounds over).
fn on_grid(scale: f32) -> impl Fn(Fix8x4) -> f32 {
    move |x| x.to_f32() / scale
}

/// A head travels as the 8-bit rows the datapath loads: three matrices,
/// q quantized with the attention scale of its dimension folded in, k and
/// v as they are (the datapath's one rounding, [`quantize_iter`], applied
/// at the sender: what the rows a server holds are made with). Decoded, it
/// is the on-grid head that encodes to the same bytes.
impl Wire for Qkv {
    const MIN: usize = 24; // three empty matrix headers

    fn encode(&self, e: &mut Enc<'_>) {
        let scale = SpatialAccelerator::default_scale(self.head_dim());
        for (m, scale) in [(&self.q, scale), (&self.k, 1.0), (&self.v, 1.0)] {
            e.u32(m.rows() as u32);
            e.u32(m.cols() as u32);
            e.quantized(m.as_slice(), scale);
        }
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        let q = decode_matrix(d, |dim| on_grid(SpatialAccelerator::default_scale(dim)))?;
        let (k, v) = (decode_matrix(d, |_| on_grid(1.0))?, decode_matrix(d, |_| on_grid(1.0))?);
        Qkv::new(q, k, v).map_err(bad)
    }
}

/// [`Qkv`]'s wire form, read into the rows a session or a prefill ingests
/// as they are.
impl Wire for FixedQkv {
    const MIN: usize = Qkv::MIN;

    fn encode(&self, e: &mut Enc<'_>) {
        self.q().encode(e);
        self.k().encode(e);
        self.v().encode(e);
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        let (q, k, v) = (Wire::decode(d)?, Wire::decode(d)?, Wire::decode(d)?);
        FixedQkv::from_rows(q, k, v).map_err(bad)
    }
}

/// A token travels as [`Qkv`] does, a row at a time: three counted rows of
/// one byte an element, q with the attention scale of its length folded in
/// ([`quantize_iter`] at the sender, as for a head).
impl Wire for TokenQkv {
    const MIN: usize = 12;

    fn encode(&self, e: &mut Enc<'_>) {
        let scale = SpatialAccelerator::default_scale(self.q.len());
        for (row, scale) in [(&self.q, scale), (&self.k, 1.0), (&self.v, 1.0)] {
            e.u32(row.len() as u32);
            e.quantized(row, scale);
        }
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        let mut row = |scale_of: fn(usize) -> f32| {
            let n = d.count(Fix8x4::WIDTH)?;
            d.vec_map(n, on_grid(scale_of(n)))
        };
        let q = row(SpatialAccelerator::default_scale)?;
        Ok(TokenQkv { q, k: row(|_| 1.0)?, v: row(|_| 1.0)? })
    }
}

impl Wire for Window {
    fn encode(&self, e: &mut Enc<'_>) {
        self.lo().encode(e);
        self.hi().encode(e);
        self.dilation().encode(e);
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        let (lo, hi, dilation) = (Wire::decode(d)?, Wire::decode(d)?, Wire::decode(d)?);
        Window::dilated(lo, hi, dilation).map_err(bad)
    }
}

impl Wire for SupportRuns {
    fn encode(&self, e: &mut Enc<'_>) {
        e.u32(self.n() as u32);
        for i in 0..self.n() {
            e.seq(self.row_runs(i));
        }
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        let rows: Vec<Vec<(u32, u32)>> = Wire::decode(d)?;
        SupportRuns::from_row_ranges(rows.len(), &rows).map_err(bad)
    }
}

wire!(BlockLayout as Wire, |t| bad(format_args!("block layout {t}"));
    0 => Diagonal,
    1 => Banded { radius },
    2 => Explicit(pairs),
);

wire!(PatternTerm as Wire, |t| bad(format_args!("pattern term tag {t}"));
    0 => Window(window),
    1 => Global { token },
    2 => Strided { stride, local },
    3 => BlockSparse { block_rows, layout },
    4 => RandomBlocks { count, seed },
    5 => Support(runs),
);

impl Wire for HybridPattern {
    fn encode(&self, e: &mut Enc<'_>) {
        self.n().encode(e);
        self.terms().encode(e);
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        let (n, terms) = Wire::decode(d)?;
        // `from_terms` normalization is idempotent on `terms()`, so this
        // reconstruction is exact: same pattern, same fingerprint.
        HybridPattern::from_terms(n, terms).map_err(bad)
    }
}

impl Wire for AttentionShape {
    fn encode(&self, e: &mut Enc<'_>) {
        self.seq_len.encode(e);
        self.head_dim.encode(e);
        self.num_heads.encode(e);
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        let (n, dim, heads) = (Wire::decode(d)?, Wire::decode(d)?, Wire::decode(d)?);
        AttentionShape::new(n, dim, heads).map_err(bad)
    }
}

wire!(FixedToken, 12 { q, k, v });

/// `output`, unless it is `raw` dequantized bit for bit — as a step's row
/// from the fixed-point engine is — in which case the wire leaves it out
/// and the decoder rebuilds it. On the wire it is an `Option`: `None` is
/// "the raw rows, dequantized". Engine heads and steps have no output.
fn explicit_output<'a, T: Raw16>(output: &'a [f32], raw: Option<&[T]>) -> Option<&'a [f32]> {
    let derived = raw.is_some_and(|raw| {
        raw.len() == output.len()
            && raw
                .iter()
                .zip(output)
                .fold(true, |same, (&r, o)| same & (r.dequantized().to_bits() == o.to_bits()))
    });
    (!derived).then_some(output)
}

/// A prefill head: raw rows, weights, then its output as an `Option` —
/// `None` when it is the raw rows dequantized ([`explicit_output`]).
fn encode_head<T: Raw16>(output: &Matrix<f32>, raw: &Matrix<T>, weights: &[i64], e: &mut Enc<'_>) {
    raw.encode(e);
    e.seq(weights);
    let same_shape = raw.shape() == output.shape();
    match explicit_output(output.as_slice(), same_shape.then_some(raw.as_slice())) {
        None => e.u8(0),
        Some(_) => {
            e.u8(1);
            output.encode(e);
        }
    }
}

type Head<T> = (Matrix<f32>, Matrix<T>, Vec<i64>);

fn decode_head<R: BufRead, T: Raw16>(d: &mut Dec<R>) -> Result<Head<T>, WireError> {
    let raw: Matrix<T> = Wire::decode(d)?;
    let weights = Wire::decode(d)?;
    let output = match Wire::decode(d)? {
        Some(output) => output,
        None => raw.map(Raw16::dequantized),
    };
    Ok((output, raw, weights))
}

type Step<T> = (Vec<f32>, Option<Vec<T>>, Option<i64>, u64);

fn decode_step<R: BufRead, T: Raw16>(d: &mut Dec<R>) -> Result<Step<T>, WireError> {
    let raw: Option<Vec<T>> = Wire::decode(d)?;
    let (weight_q16, saturation_events) = (Wire::decode(d)?, Wire::decode(d)?);
    let output = match (Wire::decode(d)?, &raw) {
        (Some(output), _) => output,
        (None, Some(raw)) => raw.iter().map(|&r| r.dequantized()).collect(),
        (None, None) => return Err(bad("output rows derived from absent raw rows")),
    };
    Ok((output, raw, weight_q16, saturation_events))
}

impl Wire for PrefillHead {
    // A matrix header, a weight count and an output tag.
    const MIN: usize = 13;

    fn encode(&self, e: &mut Enc<'_>) {
        encode_head(&self.output, &self.raw, &self.weights_q16, e);
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        let (output, raw, weights_q16) = decode_head(d)?;
        Ok(PrefillHead { output, raw, weights_q16 })
    }
}

/// A [`PrefillHead`]'s form, with the output tag always 0.
impl Emit for EngineHead {
    fn encode(&self, e: &mut Enc<'_>) {
        self.raw.encode(e);
        e.seq(&self.weights_q16);
        e.u8(0);
    }
}

/// A step's head: raw row, weight, saturation count, then its output as
/// an `Option` — `None` when it is the raw row dequantized.
impl Wire for WireHeadStep {
    // Two option tags, the saturation count and an output tag.
    const MIN: usize = 11;

    fn encode(&self, e: &mut Enc<'_>) {
        self.raw.encode(e);
        self.weight_q16.encode(e);
        self.saturation_events.encode(e);
        match explicit_output(&self.output, self.raw.as_deref()) {
            None => e.u8(0),
            Some(output) => {
                e.u8(1);
                e.seq(output);
            }
        }
    }

    fn decode<R: BufRead>(d: &mut Dec<R>) -> Result<Self, WireError> {
        let (output, raw, weight_q16, saturation_events) = decode_step(d)?;
        Ok(WireHeadStep { output, raw, weight_q16, saturation_events })
    }
}

/// A [`WireHeadStep`]'s form, raw row and weight always present, output
/// tag always 0.
impl Emit for EngineStep {
    fn encode(&self, e: &mut Enc<'_>) {
        e.u8(1);
        self.raw.encode(e);
        e.u8(1);
        self.weight_q16.encode(e);
        self.saturation_events.encode(e);
        e.u8(0);
    }
}

wire!(ErrorFrame { code, message, retry_after_ms });

wire!(ErrorCode as Wire, |t| bad(format_args!("error code {t}"));
    1 => BadFrame,
    2 => Overloaded,
    3 => Draining,
    4 => TimedOut,
    5 => UnknownSession,
    6 => Invalid,
    7 => Internal,
);

// ---------------------------------------------------------------------
// message framing
// ---------------------------------------------------------------------

const OP_PREFILL: u8 = 0x01;
const OP_OPEN: u8 = 0x02;
const OP_STEP: u8 = 0x03;
const OP_CLOSE: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_PREFILL_DONE: u8 = 0x81;
const OP_OPENED: u8 = 0x82;
const OP_STEPPED: u8 = 0x83;
const OP_CLOSED: u8 = 0x84;
const OP_STATS_REPLY: u8 = 0x85;
const OP_ERROR: u8 = 0xC0;

// The tag of a request or a response is the header's opcode byte.
wire!(Request | decode Incoming, WireError::UnknownOpcode;
    OP_PREFILL => Prefill { pattern, shape, heads },
    OP_OPEN => Open { pattern, head_dim, num_heads, prompt },
    OP_STEP => Step { session, token },
    OP_CLOSE => Close { session },
    OP_STATS => Stats,
);

wire!(Response | encode Outgoing, WireError::UnknownOpcode;
    OP_PREFILL_DONE => PrefillDone { heads, sim_time_s, sim_energy_j },
    OP_OPENED => Opened { session, min_step, position, capacity },
    OP_STEPPED => Stepped { session, position, heads },
    OP_CLOSED => Closed { session, position },
    OP_STATS_REPLY => Stats { json },
    OP_ERROR => Error(frame),
);

/// Appends `message`'s complete frame (length prefix included) to `out`,
/// which grows once, by the frame's exact length: a counting pass over the
/// fields sizes it before the writing pass fills it.
fn frame_into<T: Tagged>(out: &mut Vec<u8>, header: Header, message: &T) {
    frame_of_len_into(out, header, message, payload_len(message));
}

/// `message`'s payload length, header included: the counting pass.
fn payload_len<T: Tagged>(message: &T) -> usize {
    let mut counted = Enc { out: None, len: 0 };
    message.encode_fields(&mut counted);
    HEADER_LEN + counted.len
}

/// As [`frame_into`], the payload length `len` already counted.
fn frame_of_len_into<T: Tagged>(out: &mut Vec<u8>, header: Header, message: &T, len: usize) {
    out.reserve(4 + len);
    let mut e = Enc { out: Some(out), len: 0 };
    e.u32(len as u32);
    e.u8(PROTOCOL_VERSION);
    e.u8(message.tag());
    e.u64(header.tenant);
    e.u64(header.request_id);
    message.encode_fields(&mut e);
    debug_assert_eq!(e.len, 4 + len, "the two passes walk the same fields");
}

/// Encodes a request into a complete frame (length prefix included),
/// allocated once at the frame's length.
#[must_use]
pub fn encode_request(header: Header, req: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    frame_into(&mut frame, header, req);
    frame
}

/// Encodes a response into a complete frame (length prefix included),
/// allocated once at the frame's length.
#[must_use]
pub fn encode_response(header: Header, resp: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    frame_into(&mut frame, header, resp);
    frame
}

/// Appends a reply's complete frame, still in the engine's types, to
/// `out`: a run of replies to one connection is gathered in one buffer,
/// with no `Vec` per reply.
///
/// A reply longer than [`MAX_FRAME_LEN`] — which a client's reader would
/// refuse as [`WireError::OversizedFrame`] — is answered with an
/// [`ErrorCode::Invalid`] frame instead. A reply row can outgrow its
/// request row: `2d + 8` bytes against `3d`, more for small `d`.
pub(crate) fn encode_outgoing_into(out: &mut Vec<u8>, header: Header, resp: &Outgoing) {
    let len = payload_len(resp);
    if len > MAX_FRAME_LEN {
        let refusal = Outgoing::Error(ErrorFrame {
            code: ErrorCode::Invalid,
            message: format!("the {len}-byte reply exceeds the {MAX_FRAME_LEN}-byte frame bound"),
            retry_after_ms: None,
        });
        return frame_into(out, header, &refusal);
    }
    frame_of_len_into(out, header, resp, len);
}

/// Decodes the frame `d` is bounded by. The header lands in `header` as
/// soon as it has decoded, whatever becomes of the body.
fn decode_message<R: BufRead, T: FromTagged>(
    d: &mut Dec<R>,
    header: &mut Header,
) -> Result<T, WireError> {
    let version = d.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let op = d.u8()?;
    *header = Header { tenant: d.u64()?, request_id: d.u64()? };
    let message = T::decode_fields(op, d)?;
    d.finish()?;
    Ok(message)
}

fn decode_payload<T: FromTagged>(payload: &[u8]) -> Result<(Header, T), WireError> {
    let mut header = Header::default();
    let message = decode_message(&mut Dec { r: payload, owed: payload.len() }, &mut header)?;
    Ok((header, message))
}

/// Decodes a request payload (the frame minus its length prefix).
///
/// # Errors
///
/// Any [`WireError`]: truncation, trailing bytes, unknown opcode, bad
/// version, or domain-invalid fields. Never panics on arbitrary input.
pub fn decode_request(payload: &[u8]) -> Result<(Header, Request), WireError> {
    decode_payload(payload)
}

/// Decodes a response payload (the frame minus its length prefix).
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<(Header, Response), WireError> {
    decode_payload(payload)
}

/// One frame taken off a stream by [`read_request`] / [`read_response`]:
/// its boundary was sound — the stream stands at the next frame — whether
/// or not its payload was.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame<T> {
    /// The frame's length on the wire, prefix included.
    pub len: usize,
    /// The frame's header: decoded before the body, so a malformed body
    /// still says whose it was. [`Header::default`] when the header itself
    /// was unreadable.
    pub header: Header,
    /// The message, or why the payload is not one — any [`WireError`] but
    /// `Io`. The rest of a malformed frame has been skipped.
    pub message: Result<T, WireError>,
}

/// A frame's length prefix, refused before anything is allocated for the
/// frame when it exceeds [`MAX_FRAME_LEN`] or cannot hold a header.
fn read_len<R: Read>(r: &mut R) -> Result<usize, WireError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::OversizedFrame { len, max: MAX_FRAME_LEN });
    }
    if len < HEADER_LEN {
        return Err(WireError::Truncated { needed: HEADER_LEN, have: len });
    }
    Ok(len)
}

fn read_message<R: BufRead, T: FromTagged>(r: &mut R) -> Result<Frame<T>, WireError> {
    let len = read_len(r)?;
    let mut d = Dec { r, owed: len };
    let mut header = Header::default();
    let message = match decode_message(&mut d, &mut header) {
        Err(WireError::Io(kind)) => return Err(WireError::Io(kind)),
        Err(malformed) => {
            d.skip()?;
            Err(malformed)
        }
        Ok(message) => Ok(message),
    };
    Ok(Frame { len: 4 + len, header, message })
}

/// Reads one request frame from `r`, decoding it as it arrives: nothing
/// is allocated for the frame but the request itself.
///
/// Failure has two tiers. A malformed *payload* in a sound frame is the
/// inner error, [`Frame::message`]: the rest of the frame is skipped, so
/// the stream stays in sync and the connection can answer and go on.
///
/// # Errors
///
/// The outer error is the stream's or the framing's, after which the
/// stream's offset means nothing: [`WireError::Io`] (EOF surfaces as
/// `UnexpectedEof`, a read deadline — between frames or inside one — as
/// `WouldBlock`/`TimedOut`), [`WireError::OversizedFrame`] past the bound,
/// or [`WireError::Truncated`] when the payload cannot even hold a header.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Frame<Request>, WireError> {
    read_message(r)
}

/// Reads one request frame from `r` as [`read_request`] does, every q, k
/// and v row read as the quantized rows the datapath ingests
/// ([`Incoming`]): what the gateway's reader calls.
///
/// # Errors
///
/// As [`read_request`].
pub fn read_incoming<R: BufRead>(r: &mut R) -> Result<Frame<Incoming>, WireError> {
    read_message(r)
}

/// Reads one response frame from `r`, as [`read_request`] reads a request.
///
/// # Errors
///
/// As [`read_request`].
pub fn read_response<R: BufRead>(r: &mut R) -> Result<Frame<Response>, WireError> {
    read_message(r)
}

/// Reads one frame from `r`, returning the payload (length prefix
/// stripped). The length is validated against [`MAX_FRAME_LEN`] before
/// any allocation.
///
/// # Errors
///
/// [`WireError::Io`] on stream failure (EOF surfaces as
/// `UnexpectedEof`, a read deadline as `WouldBlock`/`TimedOut`),
/// [`WireError::OversizedFrame`] past the bound, or
/// [`WireError::Truncated`] when the payload cannot even hold a header.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, WireError> {
    let mut payload = vec![0u8; read_len(r)?];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Writes a complete pre-encoded frame to `w` and flushes it.
///
/// # Errors
///
/// [`WireError::Io`] on stream failure or a write deadline.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), WireError> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `req` and decodes the frame: what comes back is a request
    /// that encodes to the same frame, byte for byte.
    fn roundtrip_request(req: &Request) -> Request {
        let header = Header { tenant: 7, request_id: 42 };
        let frame = encode_request(header, req);
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4, "length prefix covers the payload");
        let (h, decoded) = decode_request(&frame[4..]).expect("decodes");
        assert_eq!(h, header);
        assert_eq!(encode_request(header, &decoded), frame, "re-encodes byte for byte");
        decoded
    }

    /// `x` as the wire hands it back with `scale` folded in on the way.
    fn grid(x: f32, scale: f32) -> f32 {
        Fix8x4::from_f32(x * scale).to_f32() / scale
    }

    #[test]
    fn simple_requests_roundtrip() {
        for req in [Request::Close { session: 9 }, Request::Stats] {
            assert_eq!(roundtrip_request(&req), req);
        }
        // Decoded, a step is its on-grid token: q with the scale of its
        // length divided back out, k and v on the `Fix8x4` grid.
        let token =
            TokenQkv { q: vec![1.0, -2.5], k: vec![0.0, f32::MIN_POSITIVE], v: vec![3.25, 4.0] };
        let step = Request::Step { session: 3, token: vec![token.clone()] };
        let scale = SpatialAccelerator::default_scale(2);
        let grid = TokenQkv {
            q: token.q.iter().map(|&x| grid(x, scale)).collect(),
            k: vec![0.0, 0.0],
            v: vec![3.25, 4.0],
        };
        assert_ne!(grid.q, token.q, "the query's scale does not round-trip off the grid");
        assert_eq!(roundtrip_request(&step), Request::Step { session: 3, token: vec![grid] });
    }

    #[test]
    fn prefill_roundtrips_with_pattern_fingerprint_intact() {
        // The second pattern carries the largest band radius a peer can
        // put in a frame: the full block grid, on both sides of the wire.
        let layout = BlockLayout::Banded { radius: usize::MAX };
        let banded = PatternTerm::BlockSparse { block_rows: 16, layout };
        let banded = HybridPattern::from_terms(64, vec![banded]).unwrap();
        assert_eq!(banded.nnz(), 64 * 64, "the radius wrapped");
        for pattern in [salo_patterns::longformer(64, 8, 2).unwrap(), banded] {
            let shape = AttentionShape::new(64, 8, 1).unwrap();
            let head = Qkv::random(64, 8, 1);
            let req =
                Request::Prefill { pattern: pattern.clone(), shape, heads: vec![head.clone()] };
            let decoded = roundtrip_request(&req);
            let Request::Prefill { pattern: p2, .. } = &decoded else { panic!("wrong variant") };
            assert_eq!(p2.fingerprint(), pattern.fingerprint());
            let scale = SpatialAccelerator::default_scale(8);
            let rows = |m: &Matrix<f32>, scale| m.map(|x| grid(x, scale));
            let head =
                Qkv::new(rows(&head.q, scale), rows(&head.k, 1.0), rows(&head.v, 1.0)).unwrap();
            assert_eq!(decoded, Request::Prefill { pattern, shape, heads: vec![head] });
        }
    }

    /// Whatever the head dimension, every one of the 256 elements decodes
    /// to an `f32` that quantizes back to it with the scale folded in: a
    /// decoded request re-encodes to its own bytes.
    #[test]
    fn every_element_decodes_to_a_value_that_quantizes_back_to_it() {
        for dim in 1..=4096 {
            let scale = SpatialAccelerator::default_scale(dim);
            for raw in i8::MIN..=i8::MAX {
                let x = Fix8x4::from_raw(raw);
                assert_eq!(Fix8x4::from_f32(on_grid(scale)(x) * scale), x, "d = {dim}");
            }
        }
    }

    /// The datapath's numbers are what travels: a request element is one
    /// byte for each of q, k and v, a reply element two bytes, and a reply
    /// row one 8-byte weight besides — once the output rows are the raw
    /// rows dequantized, as the fixed-point engine's always are.
    #[test]
    fn an_element_costs_three_bytes_in_and_two_out() {
        let header = Header::default();
        let pattern = salo_patterns::longformer(64, 8, 2).unwrap();
        let prefill = |n: usize, d: usize| {
            let shape = AttentionShape::new(n, d, 1).unwrap();
            let heads = vec![Qkv::random(n, d, 1)];
            encode_request(header, &Request::Prefill { pattern: pattern.clone(), shape, heads })
                .len()
        };
        assert_eq!(prefill(64, 128) - prefill(64, 64), 3 * 64 * 64);
        let step = |d: usize| {
            let token = vec![TokenQkv { q: vec![0.5; d], k: vec![0.5; d], v: vec![0.5; d] }; 2];
            encode_request(header, &Request::Step { session: 1, token }).len()
        };
        assert_eq!(step(128) - step(64), 2 * 3 * 64);

        let done = |n: usize, d: usize| {
            let raw = Matrix::from_fn(n, d, |i, j| (i * d + j) as i16);
            let output = raw.map(|r| Fix16x8::from_raw(r).to_f32());
            let heads = vec![PrefillHead { output, raw, weights_q16: vec![1 << 16; n] }];
            let reply = Response::PrefillDone { heads, sim_time_s: 1.0, sim_energy_j: 1.0 };
            encode_response(header, &reply).len()
        };
        assert_eq!(done(64, 128) - done(64, 64), 2 * 64 * 64, "two bytes an output element");
        assert_eq!(done(128, 64) - done(64, 64), 64 * (2 * 64 + 8), "and a weight a row");
        let stepped = |d: usize| {
            let raw: Vec<i16> = (0..d as i16).collect();
            let output = raw.iter().map(|&r| Fix16x8::from_raw(r).to_f32()).collect();
            let heads = vec![WireHeadStep {
                output,
                raw: Some(raw),
                weight_q16: Some(1 << 16),
                saturation_events: 0,
            }];
            encode_response(header, &Response::Stepped { session: 1, position: 9, heads }).len()
        };
        assert_eq!(stepped(128) - stepped(64), 2 * 64);
    }

    /// An `Option`'s tag is `0` or `1`; any other byte is refused, not
    /// read as `Some`.
    #[test]
    fn an_option_tag_other_than_0_or_1_is_refused() {
        let closed = Response::Closed { session: 9, position: Some(16) };
        let frame = encode_response(Header::default(), &closed);
        // payload = header (18) | session: u64 | position tag | position
        let tag_at = HEADER_LEN + 8;
        assert_eq!(frame[4 + tag_at], 1);
        for tag in [2, 0x80, 0xff] {
            let mut payload = frame[4..].to_vec();
            payload[tag_at] = tag;
            let refused = WireError::BadValue(format!("option tag {tag}"));
            assert_eq!(decode_response(&payload), Err(refused));
        }
    }

    #[test]
    fn responses_roundtrip() {
        let header = Header { tenant: 1, request_id: 2 };
        for resp in [
            Response::Opened { session: 1, min_step: 4, position: 4, capacity: 96 },
            Response::Closed { session: 1, position: Some(96) },
            Response::Closed { session: 2, position: None },
            Response::Stats { json: "{\"counters\":{}}".into() },
            Response::Error(ErrorFrame {
                code: ErrorCode::Overloaded,
                message: "tenant queue full".into(),
                retry_after_ms: Some(12),
            }),
            Response::Stepped {
                session: 5,
                position: 17,
                heads: vec![WireHeadStep {
                    output: vec![0.5, -0.5],
                    raw: Some(vec![128, -7]),
                    weight_q16: Some(1 << 16),
                    saturation_events: 3,
                }],
            },
        ] {
            let frame = encode_response(header, &resp);
            let (h, decoded) = decode_response(&frame[4..]).expect("decodes");
            assert_eq!(h, header);
            assert_eq!(decoded, resp);
        }
    }

    /// The gateway's replies are written from the engine's own rows; the
    /// frame is the one the client-side `Response` of the same values
    /// encodes to, appended where the caller is gathering. An engine head
    /// or step is its raw rows: its output is their dequantized values,
    /// sent as output tag 0.
    #[test]
    fn engine_rows_encode_to_the_frame_their_response_does() {
        let header = Header { tenant: 1, request_id: 2 };
        let raw = [128, -7, i16::MIN, i16::MAX];
        let fixed = raw.map(Fix16x8::from_raw).to_vec();
        let dequantized: Vec<f32> = fixed.iter().map(|r| r.to_f32()).collect();
        let output = Matrix::from_vec(2, 2, dequantized.clone()).unwrap();
        let step = EngineStep { raw: fixed.clone(), weight_q16: 1 << 16, saturation_events: 3 };
        let wire_step = WireHeadStep {
            output: dequantized,
            raw: Some(raw.to_vec()),
            weight_q16: Some(1 << 16),
            saturation_events: 3,
        };
        let pairs = [
            (
                Outgoing::PrefillDone {
                    heads: vec![EngineHead {
                        raw: Matrix::from_vec(2, 2, fixed).unwrap(),
                        weights_q16: vec![1 << 16, 3],
                    }],
                    sim_time_s: 1.5,
                    sim_energy_j: 2.5,
                },
                Response::PrefillDone {
                    heads: vec![PrefillHead {
                        output,
                        raw: Matrix::from_vec(2, 2, raw.to_vec()).unwrap(),
                        weights_q16: vec![1 << 16, 3],
                    }],
                    sim_time_s: 1.5,
                    sim_energy_j: 2.5,
                },
            ),
            (
                Outgoing::Stepped { session: 5, position: 17, heads: vec![step] },
                Response::Stepped { session: 5, position: 17, heads: vec![wire_step] },
            ),
        ];
        let mut gathered = Vec::new();
        let mut expected = Vec::new();
        for (outgoing, response) in &pairs {
            encode_outgoing_into(&mut gathered, header, outgoing);
            expected.extend_from_slice(&encode_response(header, response));
        }
        assert_eq!(gathered, expected);
        // The prefill frame's last head ends in its output tag, then the
        // two `f64` totals; the step frame ends in its last head's.
        let mut prefill = Vec::new();
        encode_outgoing_into(&mut prefill, header, &pairs[0].0);
        assert_eq!(prefill[prefill.len() - 17], 0, "the engine head's output tag");
        let mut stepped = Vec::new();
        encode_outgoing_into(&mut stepped, header, &pairs[1].0);
        assert_eq!(stepped.last(), Some(&0), "the engine step's output tag");
    }

    /// At `d = 2` a reply row costs 12 bytes against its request row's 6:
    /// a prefill whose request fits the frame bound can be owed a reply
    /// that does not. It is answered with a typed error a client can read.
    #[test]
    fn a_reply_past_the_frame_bound_is_answered_with_an_error() {
        let (rows, dim) = (MAX_FRAME_LEN / 12 + 1, 2);
        assert!(3 * dim * rows < MAX_FRAME_LEN, "the request's rows fit");
        let head = EngineHead {
            raw: Matrix::from_vec(rows, dim, vec![Fix16x8::from_raw(0); rows * dim]).unwrap(),
            weights_q16: vec![1 << 16; rows],
        };
        let reply = Outgoing::PrefillDone { heads: vec![head], sim_time_s: 0.0, sim_energy_j: 0.0 };
        let header = Header { tenant: 3, request_id: 4 };
        let mut frame = Vec::new();
        encode_outgoing_into(&mut frame, header, &reply);
        let read = read_response(&mut frame.as_slice()).expect("a frame within the bound");
        assert_eq!(read.header, header);
        let Ok(Response::Error(refusal)) = read.message else { panic!("{:?}", read.message) };
        assert_eq!(refusal.code, ErrorCode::Invalid);
        assert!(refusal.message.contains("frame bound"), "{}", refusal.message);
    }

    /// An `Open`'s `f32` prompt, quantized by the sender, decodes at the
    /// door into the rows a session ingests — `Fix8x4::from_f32(x * scale)`
    /// for q, `from_f32(x)` for k and v, element for element, saturating,
    /// NaN and half-step inputs included — and the client's reader of the
    /// same frame gets the on-grid rows that quantize to them: one field
    /// list, both readers.
    #[test]
    fn an_open_decodes_at_the_door_into_the_rows_a_session_ingests() {
        let header = Header { tenant: 1, request_id: 9 };
        for dim in [1, 48, 64] {
            let scale = SpatialAccelerator::default_scale(dim);
            let edges = [
                0.3,
                7.96875,
                8.0,
                -8.03125,
                1.0e6,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                0.03125,
                -0.09375,
                0.03125 / scale,
                -0.09375 / scale,
                f32::MIN_POSITIVE,
            ];
            let rows = |shift: usize| {
                Matrix::from_fn(5, dim, |t, j| edges[(t * dim + j + shift) % edges.len()])
            };
            let head = Qkv::new(rows(0), rows(1), rows(2)).unwrap();
            let open = Request::Open {
                pattern: salo_patterns::longformer(16, 4, 1).unwrap(),
                head_dim: dim,
                num_heads: 1,
                prompt: vec![head.clone()],
            };
            let frame = encode_request(header, &open);
            let read = read_incoming(&mut frame.as_slice()).unwrap();
            let Ok(Incoming::Open { prompt, .. }) = &read.message else { panic!("{read:?}") };
            let fixed = |m: &Matrix<f32>, f: &dyn Fn(f32) -> Fix8x4| -> Vec<Fix8x4> {
                m.as_slice().iter().map(|&x| f(x)).collect()
            };
            let q = fixed(&head.q, &|x| Fix8x4::from_f32(x * scale));
            assert_eq!(prompt[0].q().as_slice(), q, "d = {dim}: q");
            assert_eq!(prompt[0].k().as_slice(), fixed(&head.k, &Fix8x4::from_f32), "d = {dim}: k");
            assert_eq!(prompt[0].v().as_slice(), fixed(&head.v, &Fix8x4::from_f32), "d = {dim}: v");

            let client = read_request(&mut frame.as_slice()).unwrap().message;
            let Ok(Request::Open { prompt: on_grid, .. }) = &client else { panic!("{client:?}") };
            assert_eq!(prompt[0], FixedQkv::quantize(&on_grid[0]), "d = {dim}: the two readers");
        }
    }

    /// `0x06` stopped a gateway and `0x86` carried its report until both
    /// were retired: a peer that still sends either gets the answer any
    /// undefined opcode gets.
    #[test]
    fn retired_opcodes_are_unknown() {
        for op in [0x06, 0x86] {
            let mut payload = vec![PROTOCOL_VERSION, op];
            payload.extend_from_slice(&[0; 16]);
            assert_eq!(decode_request(&payload), Err(WireError::UnknownOpcode(op)));
            assert_eq!(decode_response(&payload), Err(WireError::UnknownOpcode(op)));
        }
    }

    #[test]
    fn oversized_and_undersized_frames_are_typed_errors() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let err = read_frame(&mut oversized.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::OversizedFrame { .. }), "{err:?}");

        let mut undersized = Vec::new();
        undersized.extend_from_slice(&3u32.to_le_bytes());
        undersized.extend_from_slice(&[0, 0, 0]);
        let err = read_frame(&mut undersized.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn hostile_length_cannot_force_allocation() {
        // A step frame claiming 4 billion tokens in a 30-byte payload
        // must fail on the count check, not attempt the allocation.
        let mut payload = vec![PROTOCOL_VERSION, OP_STEP];
        payload.extend_from_slice(&[0; 16]);
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_request(&payload).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
    }
}
