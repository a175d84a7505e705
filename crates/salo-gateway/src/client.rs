//! A blocking, pipelining gateway client.
//!
//! One [`GatewayClient`] owns one TCP connection and one tenant
//! identity. Requests can be fired without waiting
//! ([`send`](GatewayClient::send)) — the flooding half of the fairness
//! tests — or driven call/response ([`call`](GatewayClient::call) and
//! the typed helpers), which match replies by `request_id` and buffer
//! any interleaved frames (e.g. a drain's terminal `Closed`) for later
//! [`recv`](GatewayClient::recv) calls.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use salo_kernels::Qkv;
use salo_patterns::{AttentionShape, HybridPattern};
use salo_serve::TokenQkv;

use crate::wire::{
    self, encode_request, ErrorFrame, Header, PrefillHead, Request, Response, WireError,
    WireHeadStep,
};

/// Client-side failures.
#[derive(Debug)]
pub enum GatewayError {
    /// The wire layer failed (socket error, malformed response).
    Wire(WireError),
    /// The gateway answered with a typed error frame.
    Remote(ErrorFrame),
    /// The gateway answered with a frame the request cannot accept
    /// (wrong variant for the opcode we sent).
    Protocol(String),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Wire(e) => write!(f, "wire error: {e}"),
            GatewayError::Remote(e) => {
                write!(f, "gateway error {:?}: {}", e.code, e.message)
            }
            GatewayError::Protocol(reason) => write!(f, "protocol violation: {reason}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<WireError> for GatewayError {
    fn from(e: WireError) -> Self {
        GatewayError::Wire(e)
    }
}

/// A session opened over the wire: the gateway's session id plus the
/// open handshake's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenedSession {
    /// Wire session id for [`GatewayClient::step`] /
    /// [`GatewayClient::close`].
    pub session: u64,
    /// First decodable position.
    pub min_step: u64,
    /// Position the next step will produce.
    pub position: u64,
    /// Sequence capacity.
    pub capacity: u64,
}

/// One connection to a gateway, bound to a tenant id.
#[derive(Debug)]
pub struct GatewayClient {
    /// Replies are decoded out of the reader's buffer as they arrive;
    /// requests are written to the stream inside it.
    stream: BufReader<TcpStream>,
    tenant: u64,
    next_id: u64,
    /// Replies read while waiting for a different request_id.
    unmatched: VecDeque<(Header, Response)>,
}

impl GatewayClient {
    /// Connects to a gateway, tagging all requests with `tenant`.
    ///
    /// # Errors
    ///
    /// Returns the connect error as [`GatewayError::Wire`].
    pub fn connect<A: ToSocketAddrs>(addr: A, tenant: u64) -> Result<Self, GatewayError> {
        let stream = TcpStream::connect(addr).map_err(WireError::from)?;
        let _ = stream.set_nodelay(true);
        let stream = BufReader::new(stream);
        Ok(GatewayClient { stream, tenant, next_id: 1, unmatched: VecDeque::new() })
    }

    /// Sets a socket read deadline for subsequent receives — keeps the
    /// overload tests hang-free even if a reply never comes.
    ///
    /// # Errors
    ///
    /// Returns the setsockopt failure as [`GatewayError::Wire`].
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), GatewayError> {
        self.stream.get_ref().set_read_timeout(timeout).map_err(WireError::from)?;
        Ok(())
    }

    /// Fires a request without waiting for its reply; returns the
    /// assigned `request_id`. Pipelining: a flooding client calls this
    /// in a tight loop and harvests replies (acceptances and
    /// `Overloaded` rejections alike) afterwards with
    /// [`recv`](Self::recv).
    ///
    /// # Errors
    ///
    /// Returns the socket write failure.
    pub fn send(&mut self, request: &Request) -> Result<u64, GatewayError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_request(Header { tenant: self.tenant, request_id: id }, request);
        wire::write_frame(self.stream.get_mut(), &frame)?;
        Ok(id)
    }

    /// Blocks for the next response frame — buffered leftovers first,
    /// then the socket.
    ///
    /// # Errors
    ///
    /// Returns read/decode failures (a read deadline surfaces as
    /// [`WireError::Io`]).
    pub fn recv(&mut self) -> Result<(Header, Response), GatewayError> {
        if let Some(buffered) = self.unmatched.pop_front() {
            return Ok(buffered);
        }
        self.read()
    }

    /// The next reply off the socket, decoded as it arrives.
    fn read(&mut self) -> Result<(Header, Response), GatewayError> {
        let frame = wire::read_response(&mut self.stream)?;
        Ok((frame.header, frame.message?))
    }

    /// Sends `request` and blocks for *its* response, buffering any
    /// interleaved frames for later [`recv`](Self::recv) calls. An
    /// error frame with the matching id returns as
    /// [`GatewayError::Remote`].
    ///
    /// # Errors
    ///
    /// Wire failures, remote error frames, or mismatched reply variants.
    pub fn call(&mut self, request: &Request) -> Result<Response, GatewayError> {
        let id = self.send(request)?;
        loop {
            if let Some(at) = self.unmatched.iter().position(|(h, _)| h.request_id == id) {
                let (_, response) = self.unmatched.remove(at).expect("position just found");
                return finish(response);
            }
            let (header, response) = self.read()?;
            if header.request_id == id {
                return finish(response);
            }
            self.unmatched.push_back((header, response));
        }
    }

    /// One-shot prefill. Returns the per-head outputs and the simulated
    /// layer cost.
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call).
    pub fn prefill(
        &mut self,
        pattern: HybridPattern,
        shape: AttentionShape,
        heads: Vec<Qkv>,
    ) -> Result<(Vec<PrefillHead>, f64, f64), GatewayError> {
        match self.call(&Request::Prefill { pattern, shape, heads })? {
            Response::PrefillDone { heads, sim_time_s, sim_energy_j } => {
                Ok((heads, sim_time_s, sim_energy_j))
            }
            other => Err(unexpected("PrefillDone", &other)),
        }
    }

    /// Opens a decode session.
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call).
    pub fn open_session(
        &mut self,
        pattern: HybridPattern,
        head_dim: usize,
        num_heads: usize,
        prompt: Vec<Qkv>,
    ) -> Result<OpenedSession, GatewayError> {
        match self.call(&Request::Open { pattern, head_dim, num_heads, prompt })? {
            Response::Opened { session, min_step, position, capacity } => {
                Ok(OpenedSession { session, min_step, position, capacity })
            }
            other => Err(unexpected("Opened", &other)),
        }
    }

    /// Decodes one token; returns the produced position and per-head
    /// outputs.
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call); a concurrent close surfaces as
    /// [`GatewayError::Protocol`] carrying the `Closed` frame's variant
    /// name.
    pub fn step(
        &mut self,
        session: u64,
        token: Vec<TokenQkv>,
    ) -> Result<(u64, Vec<WireHeadStep>), GatewayError> {
        match self.call(&Request::Step { session, token })? {
            Response::Stepped { position, heads, .. } => Ok((position, heads)),
            other => Err(unexpected("Stepped", &other)),
        }
    }

    /// Closes a session; returns its final position if the runtime
    /// still knew it.
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call).
    pub fn close(&mut self, session: u64) -> Result<Option<u64>, GatewayError> {
        match self.call(&Request::Close { session })? {
            Response::Closed { position, .. } => Ok(position),
            other => Err(unexpected("Closed", &other)),
        }
    }

    /// Fetches the gateway's live metrics registry as JSON.
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call).
    pub fn stats_json(&mut self) -> Result<String, GatewayError> {
        match self.call(&Request::Stats)? {
            Response::Stats { json } => Ok(json),
            other => Err(unexpected("Stats", &other)),
        }
    }
}

fn finish(response: Response) -> Result<Response, GatewayError> {
    match response {
        Response::Error(err) => Err(GatewayError::Remote(err)),
        other => Ok(other),
    }
}

fn unexpected(wanted: &str, got: &Response) -> GatewayError {
    let variant = match got {
        Response::PrefillDone { .. } => "PrefillDone",
        Response::Opened { .. } => "Opened",
        Response::Stepped { .. } => "Stepped",
        Response::Closed { .. } => "Closed",
        Response::Stats { .. } => "Stats",
        Response::Error(_) => "Error",
    };
    GatewayError::Protocol(format!("expected {wanted}, got {variant}"))
}
