//! A thin wire client that times and sizes each stage of a request.
//!
//! `salo::gateway::GatewayClient` hides the frame; the benchmark needs
//! it — the byte counts behind `wire_bytes_per_token`, and the
//! `client.encode` → `client.write` → `client.wait` → `client.decode`
//! spans of the traced run — so this client calls the public `wire::`
//! functions directly.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use salo::gateway::wire::{self, Header, Request, Response, WireError};

pub struct Client {
    stream: TcpStream,
    tenant: u64,
    next_id: u64,
}

/// A request on the wire: its id, when sending began, its frame size.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub id: u64,
    pub started: Instant,
    pub bytes: usize,
}

/// A decoded reply: its frame size and when decoding finished.
pub struct Reply {
    pub header: Header,
    pub response: Response,
    pub bytes: usize,
    pub finished: Instant,
}

/// Records `[start, end)` as a bench-side span carrying the wire
/// `request_id`; a single relaxed load when the tracer is off.
fn span(name: &'static str, start: Instant, end: Instant, request_id: u64) {
    let tracer = salo::trace::Tracer::global();
    if tracer.enabled() {
        let ns = |t: Instant| t.saturating_duration_since(salo::trace::epoch()).as_nanos() as u64;
        tracer.record_interval(name, "bench", ns(start), ns(end), request_id);
    }
}

/// Bytes of the `u32` length prefix `read_frame` strips.
const LENGTH_PREFIX: usize = 4;

impl Client {
    pub fn connect(addr: SocketAddr, tenant: u64) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that never comes is a failed request, not a hung run.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Client { stream, tenant, next_id: 1 })
    }

    pub fn send(&mut self, request: &Request) -> Result<Sent, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        let started = Instant::now();
        let frame = wire::encode_request(Header { tenant: self.tenant, request_id: id }, request);
        let encoded = Instant::now();
        wire::write_frame(&mut self.stream, &frame)?;
        span("client.encode", started, encoded, id);
        span("client.write", encoded, Instant::now(), id);
        Ok(Sent { id, started, bytes: frame.len() })
    }

    pub fn recv(&mut self) -> Result<Reply, WireError> {
        let waiting = Instant::now();
        let payload = wire::read_frame(&mut self.stream)?;
        let arrived = Instant::now();
        let (header, response) = wire::decode_response(&payload)?;
        let finished = Instant::now();
        span("client.wait", waiting, arrived, header.request_id);
        span("client.decode", arrived, finished, header.request_id);
        Ok(Reply { header, response, bytes: payload.len() + LENGTH_PREFIX, finished })
    }

    /// Sends `request` and reads its reply (one request in flight).
    pub fn call(&mut self, request: &Request) -> Result<(Sent, Reply), WireError> {
        let sent = self.send(request)?;
        let reply = self.recv()?;
        if reply.header.request_id != sent.id {
            return Err(WireError::BadValue(format!(
                "reply for request {} while waiting for {}",
                reply.header.request_id, sent.id
            )));
        }
        Ok((sent, reply))
    }
}
