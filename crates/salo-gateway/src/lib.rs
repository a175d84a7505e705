//! A network front door for the [`salo-serve`](salo_serve) runtime.
//!
//! [`SaloServer`](salo_serve::SaloServer) is an in-process library: every
//! client shares the server's address space, admission is a function
//! call, and overload shows up as unbounded queue growth in the caller.
//! Serving for real means a socket between untrusted clients and the
//! accelerator pool — and a socket changes the problem: requests arrive
//! malformed, tenants misbehave, connections die mid-session, and the
//! process must drain without corrupting in-flight generations. This
//! crate supplies that front end, std-only (threads + `TcpListener`, no
//! async runtime, no serde):
//!
//! * **[`wire`]** — a length-prefixed binary protocol (`u32` length,
//!   version/opcode/tenant/request-id header) covering prefill, decode
//!   sessions and stats. A frame is a stream in both directions:
//!   [`wire::read_request`] decodes it as it arrives, so a request is
//!   never resident beside its bytes, and a frame is encoded once, at its
//!   exact size. The gateway's reader decodes with
//!   [`wire::read_incoming`], which quantizes an `Open`'s prompt head by
//!   head as it goes: a prompt is fixed-point from the door. Every decode path is
//!   allocation-guarded and returns typed [`wire::WireError`]s — never
//!   panics — under proptest-driven malformed-input tests.
//! * **[`Gateway`]** — accepts connections, decodes frames, and maps
//!   them onto a [`SaloServer`](salo_serve::SaloServer) it owns.
//!   Admission control bounds what each tenant has *outstanding* —
//!   queued or in flight, released when the reply is decided
//!   ([`GatewayOptions::tenant_quota`]) — and the gateway-wide total;
//!   rejected work gets a typed `Overloaded` frame with a
//!   `retry_after_ms` hint instead of silent queue growth. Dispatch is
//!   pipelined: a *submit half* — run by whichever thread just admitted a
//!   request or freed a slot — pops the tenant queues in deficit round
//!   robin and hands requests to the server without waiting, a
//!   *completion half* — one thread on the one channel the serve workers
//!   report into — routes each result to its connection by serve request
//!   id / session id, in step order per session and completion order
//!   across layers. The gateway's
//!   queues are the single owner of admission and fairness: at most a
//!   window of slots (`4 × workers × 8`, from the worker count alone; a
//!   session request holds one, a prefill four) is in flight,
//!   so the workers' queues are a staging hop, a flooding tenant is
//!   rejected at its own quota, and a well-behaved one waits for at most
//!   a window of foreign work.
//!   [`GatewayOptions::service_timeout`] answers a request that
//!   outlives it — queued or in flight — with one typed `TimedOut`
//!   frame. [`Gateway::shutdown`] drains gracefully — stop accepting,
//!   reject new work as `Draining`, finish what's admitted, close every
//!   live decode session with a terminal `Closed` frame — under a
//!   bounded deadline. Every one of these decisions is made by one
//!   socket-free state machine under one lock, which reaches the server
//!   through a private four-call backend seam; the gateway's own code is
//!   the transport around it.
//! * **[`GatewayClient`]** — a blocking, pipelining client used by the
//!   integration tests and the `gateway` example.
//!
//! The protocol is carried bit-exactly (floats travel as IEEE-754 bit
//! patterns, fixed-point rows as raw `i16`), so a decode session driven
//! over localhost TCP produces byte-identical outputs to a single-head
//! decode session driven directly on the same pattern — the integration
//! tests assert it. No opcode stops the gateway or asks for
//! its report: [`Gateway::shutdown`] is a call in the owning process, and
//! what a peer can read is the live metrics registry (`Stats`), the
//! front door's own `gateway.*` counters included.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod client;
mod gateway;
mod state;
pub mod wire;

pub use client::{GatewayClient, GatewayError, OpenedSession};
pub use gateway::{Gateway, GatewayOptions, GatewayReport};
