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
//! bincode — because the decode side faces the network: every length is
//! validated against the bytes actually present *before* allocation, and
//! every malformed input maps to a typed [`WireError`], never a panic.
//! `f32`/`f64` travel as their IEEE-754 bit patterns, so a round trip is
//! bit-exact — the property the socket-vs-in-process decode identity
//! tests rely on.
//!
//! Patterns ride as their [`PatternTerm`] IR (PR 9): `from_terms` is
//! idempotent on `terms()`, so decoding reproduces the sender's pattern
//! exactly, fingerprint included. [`ServeReport`]s ride in full —
//! log-bucket histograms as sparse `(index, count)` pairs — so a
//! multi-process bench can merge shard reports bucket-exactly with
//! [`ServeReport::merged_with`].

use std::collections::BTreeMap;
use std::io::{Read, Write};

use salo_core::{HeadStep, TokenQkv};
use salo_kernels::{Matrix, Qkv};
use salo_patterns::{AttentionShape, BlockLayout, HybridPattern, PatternTerm, SupportRuns, Window};
use salo_serve::{CacheStats, HistogramSnapshot, LatencyStats, ServeReport, TenantCounters};
use salo_trace::NUM_BUCKETS;

/// Protocol version carried in every frame header.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a frame's payload length. Frames claiming more are
/// refused before any allocation happens.
pub const MAX_FRAME_LEN: usize = 64 << 20;

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

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::Overloaded => 2,
            ErrorCode::Draining => 3,
            ErrorCode::TimedOut => 4,
            ErrorCode::UnknownSession => 5,
            ErrorCode::Invalid => 6,
            ErrorCode::Internal => 7,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::Overloaded,
            3 => ErrorCode::Draining,
            4 => ErrorCode::TimedOut,
            5 => ErrorCode::UnknownSession,
            6 => ErrorCode::Invalid,
            7 => ErrorCode::Internal,
            other => return Err(WireError::BadValue(format!("error code {other}"))),
        })
    }
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
    /// Drain the gateway and reply with the final wire-encoded
    /// [`ServeReport`] — the multi-process bench's collection opcode.
    Shutdown,
}

/// One head of a [`Response::PrefillDone`], in accelerator-exact form:
/// the dequantized output plus the 16-bit raw rows and Q.16 softmax
/// weights, so a client can assert bit-identity against an in-process
/// run.
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
        /// Wire session id for subsequent [`Request::Step`]s.
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
    /// The drained server's final report, in reply to
    /// [`Request::Shutdown`].
    Report {
        /// The full serve report, histograms included (boxed: a report
        /// is ~10x the size of any other reply variant).
        report: Box<ServeReport>,
    },
    /// The request failed with a typed error.
    Error(ErrorFrame),
}

// ---------------------------------------------------------------------
// primitive encoder / decoder
// ---------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(op: u8, header: Header) -> Self {
        // Reserve the length prefix; finish() patches it.
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.push(PROTOCOL_VERSION);
        buf.push(op);
        buf.extend_from_slice(&header.tenant.to_le_bytes());
        buf.extend_from_slice(&header.request_id.to_le_bytes());
        Enc { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// `v`'s elements back to back, little-endian — the bulk form: the
    /// buffer grows once and is filled in one sweep, where a push per
    /// element re-checks capacity megabytes of times over.
    fn slice<T: Le>(&mut self, v: &[T]) {
        let start = self.buf.len();
        self.buf.resize(start + v.len() * T::WIDTH, 0);
        for (dst, &x) in self.buf[start..].chunks_exact_mut(T::WIDTH).zip(v) {
            x.put(dst);
        }
    }

    fn f32s(&mut self, v: &[f32]) {
        self.u32(v.len() as u32);
        self.slice(v);
    }

    fn finish(mut self) -> Vec<u8> {
        let len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        self.buf
    }
}

/// A scalar with a fixed-width little-endian wire form, for the bulk
/// codecs ([`Enc::slice`], [`Dec::vec`]).
trait Le: Copy {
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
le_scalar!(f32, i16, i64);

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { needed: n, have: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// An element count that promises `count * width` payload bytes:
    /// checked against the bytes actually left *before* any allocation,
    /// so a hostile length cannot balloon memory.
    fn count(&mut self, width: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let needed = n.saturating_mul(width.max(1));
        if needed > self.remaining() {
            return Err(WireError::Truncated { needed, have: self.remaining() });
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadValue("utf-8".into()))
    }

    /// `n` little-endian elements back to back — the bulk form: one
    /// bounds check for the run, then a pre-sized conversion sweep.
    /// Callers have already checked `n` against the bytes left, so the
    /// allocation is bounded by the frame.
    fn vec<T: Le>(&mut self, n: usize) -> Result<Vec<T>, WireError> {
        let bytes = self.take(n.saturating_mul(T::WIDTH))?;
        Ok(bytes.chunks_exact(T::WIDTH).map(T::get).collect())
    }

    fn f32s(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.count(4)?;
        self.vec(n)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            return Err(WireError::TrailingBytes { remaining: self.remaining() });
        }
        Ok(())
    }
}

fn bad(reason: impl std::fmt::Display) -> WireError {
    WireError::BadValue(reason.to_string())
}

// ---------------------------------------------------------------------
// domain codecs
// ---------------------------------------------------------------------

fn put_matrix_f32(e: &mut Enc, m: &Matrix<f32>) {
    e.u32(m.rows() as u32);
    e.u32(m.cols() as u32);
    e.slice(m.as_slice());
}

fn get_matrix_f32(d: &mut Dec<'_>) -> Result<Matrix<f32>, WireError> {
    let rows = d.u32()? as usize;
    let cols = d.u32()? as usize;
    let needed = rows.saturating_mul(cols).saturating_mul(4);
    if needed > d.remaining() {
        return Err(WireError::Truncated { needed, have: d.remaining() });
    }
    Matrix::from_vec(rows, cols, d.vec(rows * cols)?).map_err(bad)
}

fn put_matrix_i16(e: &mut Enc, m: &Matrix<i16>) {
    e.u32(m.rows() as u32);
    e.u32(m.cols() as u32);
    e.slice(m.as_slice());
}

fn get_matrix_i16(d: &mut Dec<'_>) -> Result<Matrix<i16>, WireError> {
    let rows = d.u32()? as usize;
    let cols = d.u32()? as usize;
    let needed = rows.saturating_mul(cols).saturating_mul(2);
    if needed > d.remaining() {
        return Err(WireError::Truncated { needed, have: d.remaining() });
    }
    Matrix::from_vec(rows, cols, d.vec(rows * cols)?).map_err(bad)
}

fn put_qkv(e: &mut Enc, q: &Qkv) {
    put_matrix_f32(e, &q.q);
    put_matrix_f32(e, &q.k);
    put_matrix_f32(e, &q.v);
}

fn get_qkv(d: &mut Dec<'_>) -> Result<Qkv, WireError> {
    let q = get_matrix_f32(d)?;
    let k = get_matrix_f32(d)?;
    let v = get_matrix_f32(d)?;
    Qkv::new(q, k, v).map_err(bad)
}

fn put_qkvs(e: &mut Enc, qs: &[Qkv]) {
    e.u32(qs.len() as u32);
    for q in qs {
        put_qkv(e, q);
    }
}

fn get_qkvs(d: &mut Dec<'_>) -> Result<Vec<Qkv>, WireError> {
    // Each Qkv is at least 3 empty matrix headers (24 bytes).
    let n = d.count(24)?;
    (0..n).map(|_| get_qkv(d)).collect()
}

fn put_token(e: &mut Enc, t: &TokenQkv) {
    e.f32s(&t.q);
    e.f32s(&t.k);
    e.f32s(&t.v);
}

fn get_token(d: &mut Dec<'_>) -> Result<TokenQkv, WireError> {
    Ok(TokenQkv { q: d.f32s()?, k: d.f32s()?, v: d.f32s()? })
}

fn put_window(e: &mut Enc, w: &Window) {
    e.i64(w.lo());
    e.i64(w.hi());
    e.u64(w.dilation() as u64);
}

fn get_window(d: &mut Dec<'_>) -> Result<Window, WireError> {
    let lo = d.i64()?;
    let hi = d.i64()?;
    let dilation = d.u64()? as usize;
    Window::dilated(lo, hi, dilation).map_err(bad)
}

fn put_term(e: &mut Enc, term: &PatternTerm) {
    match term {
        PatternTerm::Window(w) => {
            e.u8(0);
            put_window(e, w);
        }
        PatternTerm::Global { token } => {
            e.u8(1);
            e.u64(*token as u64);
        }
        PatternTerm::Strided { stride, local } => {
            e.u8(2);
            e.u64(*stride as u64);
            e.u64(*local as u64);
        }
        PatternTerm::BlockSparse { block_rows, layout } => {
            e.u8(3);
            e.u64(*block_rows as u64);
            match layout {
                BlockLayout::Diagonal => e.u8(0),
                BlockLayout::Banded { radius } => {
                    e.u8(1);
                    e.u64(*radius as u64);
                }
                BlockLayout::Explicit(pairs) => {
                    e.u8(2);
                    e.u32(pairs.len() as u32);
                    for &(bi, bj) in pairs {
                        e.u64(bi as u64);
                        e.u64(bj as u64);
                    }
                }
            }
        }
        PatternTerm::RandomBlocks { count, seed } => {
            e.u8(4);
            e.u64(*count as u64);
            e.u64(*seed);
        }
        PatternTerm::Support(runs) => {
            e.u8(5);
            e.u32(runs.n() as u32);
            for i in 0..runs.n() {
                let row = runs.row_runs(i);
                e.u32(row.len() as u32);
                for &(lo, hi) in row {
                    e.u32(lo);
                    e.u32(hi);
                }
            }
        }
    }
}

fn get_term(d: &mut Dec<'_>) -> Result<PatternTerm, WireError> {
    Ok(match d.u8()? {
        0 => PatternTerm::Window(get_window(d)?),
        1 => PatternTerm::Global { token: d.u64()? as usize },
        2 => PatternTerm::Strided { stride: d.u64()? as usize, local: d.u64()? as usize },
        3 => {
            let block_rows = d.u64()? as usize;
            let layout = match d.u8()? {
                0 => BlockLayout::Diagonal,
                1 => BlockLayout::Banded { radius: d.u64()? as usize },
                2 => {
                    let n = d.count(16)?;
                    let pairs = (0..n)
                        .map(|_| Ok((d.u64()? as usize, d.u64()? as usize)))
                        .collect::<Result<Vec<_>, WireError>>()?;
                    BlockLayout::Explicit(pairs)
                }
                other => return Err(WireError::BadValue(format!("block layout {other}"))),
            };
            PatternTerm::BlockSparse { block_rows, layout }
        }
        4 => PatternTerm::RandomBlocks { count: d.u64()? as usize, seed: d.u64()? },
        5 => {
            let n = d.count(4)?;
            let rows = (0..n)
                .map(|_| {
                    let runs = d.count(8)?;
                    (0..runs).map(|_| Ok((d.u32()?, d.u32()?))).collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<Vec<Vec<(u32, u32)>>, WireError>>()?;
            PatternTerm::Support(SupportRuns::from_row_ranges(n, &rows).map_err(bad)?)
        }
        other => return Err(WireError::BadValue(format!("pattern term tag {other}"))),
    })
}

fn put_pattern(e: &mut Enc, p: &HybridPattern) {
    e.u64(p.n() as u64);
    let terms = p.terms();
    e.u32(terms.len() as u32);
    for term in &terms {
        put_term(e, term);
    }
}

fn get_pattern(d: &mut Dec<'_>) -> Result<HybridPattern, WireError> {
    let n = d.u64()? as usize;
    let count = d.count(1)?;
    let terms = (0..count).map(|_| get_term(d)).collect::<Result<Vec<_>, _>>()?;
    // `from_terms` normalization is idempotent on `terms()`, so this
    // reconstruction is exact: same pattern, same fingerprint.
    HybridPattern::from_terms(n, terms).map_err(bad)
}

fn put_shape(e: &mut Enc, s: &AttentionShape) {
    e.u64(s.seq_len as u64);
    e.u64(s.head_dim as u64);
    e.u64(s.num_heads as u64);
}

fn get_shape(d: &mut Dec<'_>) -> Result<AttentionShape, WireError> {
    let n = d.u64()? as usize;
    let dim = d.u64()? as usize;
    let heads = d.u64()? as usize;
    AttentionShape::new(n, dim, heads).map_err(bad)
}

fn put_latency(e: &mut Enc, l: &LatencyStats) {
    e.u64(l.count);
    e.f64(l.mean_s);
    e.f64(l.p50_s);
    e.f64(l.p99_s);
    e.f64(l.max_s);
}

fn get_latency(d: &mut Dec<'_>) -> Result<LatencyStats, WireError> {
    Ok(LatencyStats {
        count: d.u64()?,
        mean_s: d.f64()?,
        p50_s: d.f64()?,
        p99_s: d.f64()?,
        max_s: d.f64()?,
    })
}

fn put_hist(e: &mut Enc, h: &HistogramSnapshot) {
    e.u64(h.count);
    e.u64(h.sum);
    e.u64(h.min);
    e.u64(h.max);
    let nonzero: Vec<(usize, u64)> =
        h.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c)).collect();
    e.u32(nonzero.len() as u32);
    for (i, c) in nonzero {
        e.u32(i as u32);
        e.u64(c);
    }
}

fn get_hist(d: &mut Dec<'_>) -> Result<HistogramSnapshot, WireError> {
    let mut h = HistogramSnapshot {
        count: d.u64()?,
        sum: d.u64()?,
        min: d.u64()?,
        max: d.u64()?,
        ..Default::default()
    };
    let n = d.count(12)?;
    for _ in 0..n {
        let idx = d.u32()? as usize;
        let cnt = d.u64()?;
        if idx >= NUM_BUCKETS {
            return Err(WireError::BadValue(format!("histogram bucket {idx}")));
        }
        h.buckets[idx] = cnt;
    }
    Ok(h)
}

fn put_u64s(e: &mut Enc, v: &[u64]) {
    e.u32(v.len() as u32);
    for &x in v {
        e.u64(x);
    }
}

fn get_u64s(d: &mut Dec<'_>) -> Result<Vec<u64>, WireError> {
    let n = d.count(8)?;
    (0..n).map(|_| d.u64()).collect()
}

/// Encodes a full [`ServeReport`] — public so the bench can frame shard
/// reports without a gateway in the loop.
fn put_report(e: &mut Enc, r: &ServeReport) {
    e.u64(r.requests);
    e.u64(r.errors);
    e.f64(r.wall_s);
    e.f64(r.throughput_rps);
    put_latency(e, &r.latency);
    put_hist(e, &r.latency_hist);
    e.u64(r.cache.hits);
    e.u64(r.cache.misses);
    e.u64(r.cache.evictions);
    e.u64(r.cache.entries as u64);
    e.u64(r.batches);
    e.f64(r.mean_batch_size);
    e.u64(r.max_queue_depth as u64);
    e.u64(r.sim_cycles);
    e.f64(r.sim_energy_j);
    put_u64s(e, &r.per_worker_requests);
    e.u64(r.decode_sessions);
    e.u64(r.decode_session_errors);
    e.u64(r.decode_steps);
    e.u64(r.decode_step_errors);
    put_latency(e, &r.decode_step_latency);
    put_hist(e, &r.decode_step_latency_hist);
    e.u64(r.decode_resident_kv_byte_steps);
    e.u64(r.decode_peak_resident_pages);
    e.u64(r.decode_peak_pool_pages);
    e.u64(r.decode_page_reclaims);
    e.u64(r.decode_pool_exhausted);
    e.u32(r.tenants.len() as u32);
    for (&tenant, t) in &r.tenants {
        e.u64(tenant);
        e.u64(t.requests);
        e.u64(t.rejections);
        e.u64(t.decode_steps);
    }
}

fn get_report(d: &mut Dec<'_>) -> Result<ServeReport, WireError> {
    let requests = d.u64()?;
    let errors = d.u64()?;
    let wall_s = d.f64()?;
    let throughput_rps = d.f64()?;
    let latency = get_latency(d)?;
    let latency_hist = get_hist(d)?;
    let cache = CacheStats {
        hits: d.u64()?,
        misses: d.u64()?,
        evictions: d.u64()?,
        entries: d.u64()? as usize,
    };
    let batches = d.u64()?;
    let mean_batch_size = d.f64()?;
    let max_queue_depth = d.u64()? as usize;
    let sim_cycles = d.u64()?;
    let sim_energy_j = d.f64()?;
    let per_worker_requests = get_u64s(d)?;
    let decode_sessions = d.u64()?;
    let decode_session_errors = d.u64()?;
    let decode_steps = d.u64()?;
    let decode_step_errors = d.u64()?;
    let decode_step_latency = get_latency(d)?;
    let decode_step_latency_hist = get_hist(d)?;
    let decode_resident_kv_byte_steps = d.u64()?;
    let decode_peak_resident_pages = d.u64()?;
    let decode_peak_pool_pages = d.u64()?;
    let decode_page_reclaims = d.u64()?;
    let decode_pool_exhausted = d.u64()?;
    let n_tenants = d.count(32)?;
    let mut tenants = BTreeMap::new();
    for _ in 0..n_tenants {
        let tenant = d.u64()?;
        let t = TenantCounters { requests: d.u64()?, rejections: d.u64()?, decode_steps: d.u64()? };
        tenants.insert(tenant, t);
    }
    Ok(ServeReport {
        requests,
        errors,
        wall_s,
        throughput_rps,
        latency,
        latency_hist,
        cache,
        batches,
        mean_batch_size,
        max_queue_depth,
        sim_cycles,
        sim_energy_j,
        per_worker_requests,
        decode_sessions,
        decode_session_errors,
        decode_steps,
        decode_step_errors,
        decode_step_latency,
        decode_step_latency_hist,
        decode_resident_kv_byte_steps,
        decode_peak_resident_pages,
        decode_peak_pool_pages,
        decode_page_reclaims,
        decode_pool_exhausted,
        tenants,
    })
}

// ---------------------------------------------------------------------
// message framing
// ---------------------------------------------------------------------

const OP_PREFILL: u8 = 0x01;
const OP_OPEN: u8 = 0x02;
const OP_STEP: u8 = 0x03;
const OP_CLOSE: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;
const OP_PREFILL_DONE: u8 = 0x81;
const OP_OPENED: u8 = 0x82;
const OP_STEPPED: u8 = 0x83;
const OP_CLOSED: u8 = 0x84;
const OP_STATS_REPLY: u8 = 0x85;
const OP_REPORT: u8 = 0x86;
const OP_ERROR: u8 = 0xC0;

/// Encodes a request into a complete frame (length prefix included).
#[must_use]
pub fn encode_request(header: Header, req: &Request) -> Vec<u8> {
    let op = match req {
        Request::Prefill { .. } => OP_PREFILL,
        Request::Open { .. } => OP_OPEN,
        Request::Step { .. } => OP_STEP,
        Request::Close { .. } => OP_CLOSE,
        Request::Stats => OP_STATS,
        Request::Shutdown => OP_SHUTDOWN,
    };
    let mut e = Enc::new(op, header);
    match req {
        Request::Prefill { pattern, shape, heads } => {
            put_pattern(&mut e, pattern);
            put_shape(&mut e, shape);
            put_qkvs(&mut e, heads);
        }
        Request::Open { pattern, head_dim, num_heads, prompt } => {
            put_pattern(&mut e, pattern);
            e.u64(*head_dim as u64);
            e.u64(*num_heads as u64);
            put_qkvs(&mut e, prompt);
        }
        Request::Step { session, token } => {
            e.u64(*session);
            e.u32(token.len() as u32);
            for t in token {
                put_token(&mut e, t);
            }
        }
        Request::Close { session } => e.u64(*session),
        Request::Stats | Request::Shutdown => {}
    }
    e.finish()
}

/// Encodes a response into a complete frame (length prefix included).
#[must_use]
pub fn encode_response(header: Header, resp: &Response) -> Vec<u8> {
    let op = match resp {
        Response::PrefillDone { .. } => OP_PREFILL_DONE,
        Response::Opened { .. } => OP_OPENED,
        Response::Stepped { .. } => OP_STEPPED,
        Response::Closed { .. } => OP_CLOSED,
        Response::Stats { .. } => OP_STATS_REPLY,
        Response::Report { .. } => OP_REPORT,
        Response::Error(_) => OP_ERROR,
    };
    let mut e = Enc::new(op, header);
    match resp {
        Response::PrefillDone { heads, sim_time_s, sim_energy_j } => {
            e.u32(heads.len() as u32);
            for h in heads {
                put_matrix_f32(&mut e, &h.output);
                put_matrix_i16(&mut e, &h.raw);
                e.u32(h.weights_q16.len() as u32);
                e.slice(&h.weights_q16);
            }
            e.f64(*sim_time_s);
            e.f64(*sim_energy_j);
        }
        Response::Opened { session, min_step, position, capacity } => {
            e.u64(*session);
            e.u64(*min_step);
            e.u64(*position);
            e.u64(*capacity);
        }
        Response::Stepped { session, position, heads } => {
            e.u64(*session);
            e.u64(*position);
            e.u32(heads.len() as u32);
            for h in heads {
                e.f32s(&h.output);
                match &h.raw {
                    None => e.u8(0),
                    Some(raw) => {
                        e.u8(1);
                        e.u32(raw.len() as u32);
                        e.slice(raw);
                    }
                }
                match h.weight_q16 {
                    None => e.u8(0),
                    Some(w) => {
                        e.u8(1);
                        e.i64(w);
                    }
                }
                e.u64(h.saturation_events);
            }
        }
        Response::Closed { session, position } => {
            e.u64(*session);
            match position {
                None => e.u8(0),
                Some(p) => {
                    e.u8(1);
                    e.u64(*p);
                }
            }
        }
        Response::Stats { json } => e.str(json),
        Response::Report { report } => put_report(&mut e, report),
        Response::Error(err) => {
            e.u8(err.code.to_u8());
            e.str(&err.message);
            match err.retry_after_ms {
                None => e.u8(0),
                Some(ms) => {
                    e.u8(1);
                    e.u64(ms);
                }
            }
        }
    }
    e.finish()
}

fn decode_header(d: &mut Dec<'_>) -> Result<(u8, Header), WireError> {
    let version = d.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let op = d.u8()?;
    let tenant = d.u64()?;
    let request_id = d.u64()?;
    Ok((op, Header { tenant, request_id }))
}

/// Decodes a request payload (the frame minus its length prefix).
///
/// # Errors
///
/// Any [`WireError`]: truncation, trailing bytes, unknown opcode, bad
/// version, or domain-invalid fields. Never panics on arbitrary input.
pub fn decode_request(payload: &[u8]) -> Result<(Header, Request), WireError> {
    let mut d = Dec::new(payload);
    let (op, header) = decode_header(&mut d)?;
    let req = match op {
        OP_PREFILL => {
            let pattern = get_pattern(&mut d)?;
            let shape = get_shape(&mut d)?;
            let heads = get_qkvs(&mut d)?;
            Request::Prefill { pattern, shape, heads }
        }
        OP_OPEN => {
            let pattern = get_pattern(&mut d)?;
            let head_dim = d.u64()? as usize;
            let num_heads = d.u64()? as usize;
            let prompt = get_qkvs(&mut d)?;
            Request::Open { pattern, head_dim, num_heads, prompt }
        }
        OP_STEP => {
            let session = d.u64()?;
            let n = d.count(12)?;
            let token = (0..n).map(|_| get_token(&mut d)).collect::<Result<Vec<_>, _>>()?;
            Request::Step { session, token }
        }
        OP_CLOSE => Request::Close { session: d.u64()? },
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        other => return Err(WireError::UnknownOpcode(other)),
    };
    d.finish()?;
    Ok((header, req))
}

/// Decodes a response payload (the frame minus its length prefix).
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<(Header, Response), WireError> {
    let mut d = Dec::new(payload);
    let (op, header) = decode_header(&mut d)?;
    let resp = match op {
        OP_PREFILL_DONE => {
            // Each head is at least two matrix headers + a weight count.
            let n = d.count(20)?;
            let heads = (0..n)
                .map(|_| {
                    let output = get_matrix_f32(&mut d)?;
                    let raw = get_matrix_i16(&mut d)?;
                    let wn = d.count(8)?;
                    let weights_q16 = d.vec(wn)?;
                    Ok(PrefillHead { output, raw, weights_q16 })
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            let sim_time_s = d.f64()?;
            let sim_energy_j = d.f64()?;
            Response::PrefillDone { heads, sim_time_s, sim_energy_j }
        }
        OP_OPENED => Response::Opened {
            session: d.u64()?,
            min_step: d.u64()?,
            position: d.u64()?,
            capacity: d.u64()?,
        },
        OP_STEPPED => {
            let session = d.u64()?;
            let position = d.u64()?;
            let n = d.count(10)?;
            let heads = (0..n)
                .map(|_| {
                    let output = d.f32s()?;
                    let raw = match d.u8()? {
                        0 => None,
                        _ => {
                            let rn = d.count(2)?;
                            Some(d.vec(rn)?)
                        }
                    };
                    let weight_q16 = match d.u8()? {
                        0 => None,
                        _ => Some(d.i64()?),
                    };
                    let saturation_events = d.u64()?;
                    Ok(WireHeadStep { output, raw, weight_q16, saturation_events })
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            Response::Stepped { session, position, heads }
        }
        OP_CLOSED => {
            let session = d.u64()?;
            let position = match d.u8()? {
                0 => None,
                _ => Some(d.u64()?),
            };
            Response::Closed { session, position }
        }
        OP_STATS_REPLY => Response::Stats { json: d.str()? },
        OP_REPORT => Response::Report { report: Box::new(get_report(&mut d)?) },
        OP_ERROR => {
            let code = ErrorCode::from_u8(d.u8()?)?;
            let message = d.str()?;
            let retry_after_ms = match d.u8()? {
                0 => None,
                _ => Some(d.u64()?),
            };
            Response::Error(ErrorFrame { code, message, retry_after_ms })
        }
        other => return Err(WireError::UnknownOpcode(other)),
    };
    d.finish()?;
    Ok((header, resp))
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
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::OversizedFrame { len, max: MAX_FRAME_LEN });
    }
    if len < HEADER_LEN {
        return Err(WireError::Truncated { needed: HEADER_LEN, have: len });
    }
    let mut payload = vec![0u8; len];
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

    fn roundtrip_request(req: Request) {
        let header = Header { tenant: 7, request_id: 42 };
        let frame = encode_request(header, &req);
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4, "length prefix covers the payload");
        let (h, decoded) = decode_request(&frame[4..]).expect("decodes");
        assert_eq!(h, header);
        assert_eq!(decoded, req);
    }

    #[test]
    fn simple_requests_roundtrip() {
        roundtrip_request(Request::Close { session: 9 });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Step {
            session: 3,
            token: vec![TokenQkv {
                q: vec![1.0, -2.5],
                k: vec![0.0, f32::MIN_POSITIVE],
                v: vec![3.25, 4.0],
            }],
        });
    }

    #[test]
    fn prefill_roundtrips_with_pattern_fingerprint_intact() {
        let pattern = salo_patterns::longformer(64, 8, 2).unwrap();
        let shape = AttentionShape::new(64, 8, 1).unwrap();
        let heads = vec![Qkv::random(64, 8, 1)];
        let req = Request::Prefill { pattern: pattern.clone(), shape, heads };
        let frame = encode_request(Header::default(), &req);
        let (_, decoded) = decode_request(&frame[4..]).unwrap();
        let Request::Prefill { pattern: p2, .. } = &decoded else { panic!("wrong variant") };
        assert_eq!(p2.fingerprint(), pattern.fingerprint());
        assert_eq!(decoded, req);
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

    #[test]
    fn report_roundtrips_with_histograms() {
        let mut hist = HistogramSnapshot::default();
        for v in [100u64, 1000, 1_000_000, 12] {
            hist.record(v);
        }
        let report = ServeReport {
            requests: 10,
            errors: 1,
            wall_s: 1.5,
            throughput_rps: 6.6667,
            latency: LatencyStats { count: 10, mean_s: 0.1, p50_s: 0.09, p99_s: 0.2, max_s: 0.3 },
            latency_hist: hist.clone(),
            cache: CacheStats { hits: 3, misses: 2, evictions: 1, entries: 2 },
            batches: 4,
            mean_batch_size: 2.5,
            max_queue_depth: 7,
            sim_cycles: 1234,
            sim_energy_j: 5.5e-6,
            per_worker_requests: vec![6, 4],
            decode_steps: 20,
            decode_step_latency_hist: hist,
            tenants: BTreeMap::from([
                (0, TenantCounters { requests: 4, rejections: 0, decode_steps: 20 }),
                (3, TenantCounters { requests: 6, rejections: 2, decode_steps: 0 }),
            ]),
            ..Default::default()
        };
        let frame = encode_response(
            Header::default(),
            &Response::Report { report: Box::new(report.clone()) },
        );
        let (_, decoded) = decode_response(&frame[4..]).unwrap();
        let Response::Report { report: r2 } = decoded else { panic!("wrong variant") };
        let r2 = *r2;
        assert_eq!(r2, report);
        // The decoded report still merges bucket-exactly.
        let merged = r2.merged_with(&report);
        assert_eq!(merged.latency_hist.count, 8);
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
        let mut e = Enc::new(OP_STEP, Header::default());
        e.u64(1);
        e.u32(u32::MAX);
        let frame = e.finish();
        let err = decode_request(&frame[4..]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
    }
}
