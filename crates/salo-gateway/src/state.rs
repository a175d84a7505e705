//! The front door's decisions, socket-free: a connection is an id, a
//! liveness flag and a writer ([`ConnShared`]). Nobody's job is to submit:
//! [`State::dispatch`] runs on the two threads that can make work or room,
//! at the moment they do — a reader that has just admitted, the completion
//! thread that has just freed a slot. It
//! pops the admitted queues in deficit round robin across tenants and
//! hands each request to the backend (`submit_into` / `open_session_into`
//! / `step_session` / `close_session`) without waiting for it, recording
//! who is owed the reply in the in-flight table, while what is in flight
//! holds less than a *window* of slots ([`in_flight_window`], [`slots`]):
//! `workers × 8 × 4`, four rounds of eight requests per worker, set by
//! the worker count alone. The workers' queues never hold more than a
//! window, and a tenant arriving late waits for at most that much foreign
//! work — four rounds of decode steps, or one round of layers.
//!
//! Every table — admission queues, outstanding counters, in-flight
//! waiters, sessions — lives under one lock, and [`State::dispatch`] calls
//! the backend *while its caller holds it*, so a completion can never
//! outrun the registration of the request it answers. The calls are
//! non-blocking: validation plus a channel send, a few microseconds. An
//! `Open` is validated from its shape and its last global alone; its
//! causal clip, linear in the sequence length (at `n = 100 000`, 0.3 ms
//! for a window/global pattern and 1.5 ms for one with block-sparse
//! terms, EXPERIMENTS.md), is built on the pinned worker, off the lock.
//! Socket writes always happen outside the lock.
//!
//! Admission, fairness and per-tenant accounting live in the gateway
//! alone: the quota bounds what a tenant may have outstanding, DRR
//! interleaves what is admitted a quantum at a time, the window keeps the
//! workers' queues — the one hop behind `submit_into` — staging, not a
//! second place to wait, and a tenant's admissions are counted on its
//! entry here, under the lock that admits them. The server below holds
//! no tenant state.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use salo_serve::{
    EventSink, ServeError, ServeEvent, ServeOptions, ServeRequest, SessionRequest, TokenQkv,
};
use salo_trace::{Counter, Gauge, LogHistogram};

use crate::wire::{ErrorCode, ErrorFrame, Header, Incoming, Outgoing};
use crate::GatewayOptions;

/// An `Open` as it reaches the backend: its prompt quantized at the door.
pub(crate) type Open = SessionRequest<salo_core::FixedQkv>;

/// The four calls [`State`] makes on the server, none of which waits for
/// the work: its results arrive on the channel the completion thread reads.
/// A submission names its tenant, which the server does not read: the
/// test backends hold and record work by it.
pub(crate) trait Backend: Send {
    fn submit_into(&self, tenant: u64, request: ServeRequest) -> Result<u64, ServeError>;
    fn open_session_into(&self, tenant: u64, request: Open) -> Result<u64, ServeError>;
    fn step_session(&self, session: u64, token: Vec<TokenQkv>) -> Result<(), ServeError>;
    fn close_session(&self, session: u64) -> Result<(), ServeError>;
}

/// The server, and the sink the completion thread reads: every submission
/// gets a clone of it, so a worker can tell its steps share a channel.
pub(crate) struct Served {
    pub(crate) server: Arc<salo_serve::SaloServer>,
    pub(crate) events: EventSink,
}

impl Backend for Served {
    fn submit_into(&self, _: u64, request: ServeRequest) -> Result<u64, ServeError> {
        self.server.submit_into(request, self.events.clone())
    }

    fn open_session_into(&self, _: u64, request: Open) -> Result<u64, ServeError> {
        self.server.open_session_into(request, self.events.clone())
    }

    fn step_session(&self, session: u64, token: Vec<TokenQkv>) -> Result<(), ServeError> {
        self.server.step_session(session, token)
    }

    fn close_session(&self, session: u64) -> Result<(), ServeError> {
        self.server.close_session(session)
    }
}

/// Requests per worker in one round of the in-flight window.
const ROUND_PER_WORKER: usize = 8;

/// Rounds of `workers × ROUND_PER_WORKER` requests the in-flight window
/// covers. Swept on the socket benchmark with decode steps
/// (EXPERIMENTS.md, "In-flight window"): a worker's tick fuses the steps
/// of several rounds.
pub(crate) const WINDOW_ROUNDS: usize = 4;

/// How many slots of work [`State::dispatch`] keeps submitted and unanswered
/// at once: enough that every worker's queue and its fused decode tick
/// see several wire requests together, small enough
/// that a tenant arriving late waits for at most this much foreign work.
pub(crate) fn in_flight_window(serve: &ServeOptions) -> usize {
    serve.workers.max(1) * ROUND_PER_WORKER * WINDOW_ROUNDS
}

/// Window slots `request` holds while in flight. A layer request holds a
/// whole round's share: nothing fuses layers, a worker runs them one
/// after another, so more than one round of them
/// (`workers × ROUND_PER_WORKER`) would only sit in the workers' queues —
/// milliseconds each — ahead of whoever arrives next. Session requests
/// hold one.
fn slots(request: &Incoming) -> usize {
    if matches!(request, Incoming::Prefill { .. }) {
        WINDOW_ROUNDS
    } else {
        1
    }
}

/// A connection as the state sees it: its replies are written through
/// `writer`, whose mutex serializes whoever answers them.
pub(crate) struct ConnShared {
    pub(crate) id: u64,
    pub(crate) writer: Mutex<Box<dyn Write + Send>>,
    /// The write half works. Cleared by a failed write and by nothing
    /// else: a reader that has left (EOF, or the drain's read-shutdown)
    /// says nothing about whether replies can still be delivered.
    pub(crate) alive: AtomicBool,
}

impl ConnShared {
    pub(crate) fn new(id: u64, writer: Box<dyn Write + Send>) -> Arc<Self> {
        Arc::new(ConnShared { id, writer: Mutex::new(writer), alive: AtomicBool::new(true) })
    }
}

/// One admitted, not-yet-dispatched request.
pub(crate) struct Pending {
    pub(crate) header: Header,
    pub(crate) request: Incoming,
    pub(crate) conn: Arc<ConnShared>,
    /// The request's frame length: its share of `gateway.request_bytes`
    /// from admission until its reply is decided.
    pub(crate) bytes: usize,
    pub(crate) enqueued: Instant,
    /// `enqueued + service_timeout`. Stamped under the state lock, so
    /// deadlines never decrease in admission order.
    pub(crate) deadline: Instant,
}

/// One tenant's admission state.
struct Tenant {
    queue: VecDeque<Pending>,
    /// Admitted and not yet answered — queued plus in flight. This, not
    /// the queue's length, is what `tenant_quota` bounds.
    outstanding: usize,
    /// Unspent deficit of the current dispatch visit; nonzero between
    /// visits only when the in-flight window cut the visit short.
    deficit: usize,
    /// `gateway.tenant.{id}.queue_wait_ns`, resolved once per tenant.
    queue_wait: Arc<LogHistogram>,
    /// `gateway.tenant.{id}.admitted`, resolved with `queue_wait`.
    admitted: Arc<Counter>,
}

/// Who is owed the reply to a request the server is working on.
struct Waiter {
    conn: Arc<ConnShared>,
    header: Header,
    /// The request's frame length ([`Pending::bytes`]).
    bytes: usize,
    deadline: Instant,
    /// Window slots held until the completion arrives ([`slots`]).
    slots: usize,
    /// The deadline passed and the `TimedOut` frame went out; the waiter
    /// stays (and keeps its window slot) until the completion arrives,
    /// so completions and waiters stay paired, then is dropped silently.
    answered: bool,
}

/// A decode session the gateway opened, keyed by its serve session id.
struct SessionEntry {
    conn: Arc<ConnShared>,
    opened_by: Header,
    /// The `Opened` event arrived and answered the open with the id.
    opened: bool,
    /// A close has been submitted: the session takes no further requests
    /// and disappears with its `Closed` event.
    closing: bool,
    /// The open, then every step (and at most one close) submitted and
    /// not yet completed, oldest first — the order their events arrive.
    waiters: VecDeque<Waiter>,
}

/// A reply decided under the lock, written after it is released.
pub(crate) struct Reply {
    pub(crate) conn: Arc<ConnShared>,
    pub(crate) header: Header,
    pub(crate) response: Outgoing,
}

/// Everything the gateway's threads share, under one lock: admission
/// queues and counters, the dispatch round, and the in-flight table.
/// Readers hold it to admit, completions to find who is owed a reply, and
/// either then pops quanta and submits them ([`State::dispatch`]) before letting
/// go; nobody writes to a socket while holding it.
#[derive(Default)]
pub(crate) struct State {
    tenants: BTreeMap<u64, Tenant>,
    /// Admitted and not yet answered across all tenants (the global
    /// bound's counter).
    pub(crate) outstanding_total: usize,
    /// `gateway.request_bytes`: the frame lengths of what
    /// `outstanding_total` counts — entered at admission, exited where the
    /// admission slot is released. Observed, not yet bounded.
    request_bytes: Arc<Gauge>,
    /// Tenants with queued work, in round-robin visit order — the record
    /// of what is queued: a tenant whose queue a deadline emptied is
    /// dropped when its turn comes.
    round: VecDeque<u64>,
    /// Slots held by the waiters in `layers` and `sessions`: what the
    /// window bounds.
    in_flight: usize,
    /// Layer requests in flight, by serve request id.
    layers: HashMap<u64, Waiter>,
    /// Sessions opened (or opening), by session id.
    sessions: HashMap<u64, SessionEntry>,
    /// A lower bound on the earliest deadline among unanswered requests;
    /// `None` when the last scan found none. Deadlines never decrease in
    /// admission order, so a new admission can only leave it unchanged.
    pub(crate) next_expiry: Option<Instant>,
    /// Where requests are submitted. The drain takes it out to close the
    /// live sessions and drops it: shutting the server down needs every
    /// reference to it gone, and the completion thread ends when the last
    /// clone of the served sink is.
    backend: Option<Box<dyn Backend>>,
}

fn earliest(current: Option<Instant>, deadline: Instant) -> Option<Instant> {
    Some(current.map_or(deadline, |at| at.min(deadline)))
}

pub(crate) fn error(code: ErrorCode, message: &str) -> Outgoing {
    Outgoing::Error(ErrorFrame { code, message: message.to_owned(), retry_after_ms: None })
}

pub(crate) fn serve_error(e: &ServeError) -> Outgoing {
    let code = match e {
        ServeError::InvalidRequest { .. } => ErrorCode::Invalid,
        ServeError::UnknownSession { .. } => ErrorCode::UnknownSession,
        _ => ErrorCode::Internal,
    };
    error(code, &e.to_string())
}

impl State {
    pub(crate) fn new(request_bytes: Arc<Gauge>, backend: Box<dyn Backend>) -> Self {
        State { request_bytes, backend: Some(backend), ..State::default() }
    }

    /// Admits `pending` unless its tenant or the gateway already has its
    /// quota outstanding, and counts it on its tenant; a refusal returns
    /// the depth it ran into, and is counted by the caller. `metrics`
    /// resolves a new tenant's queue-wait histogram and admission counter.
    pub(crate) fn admit(
        &mut self,
        pending: Pending,
        options: &GatewayOptions,
        metrics: impl FnOnce() -> (Arc<LogHistogram>, Arc<Counter>),
    ) -> Result<(), usize> {
        let id = pending.header.tenant;
        let outstanding = self.tenants.get(&id).map_or(0, |t| t.outstanding);
        if outstanding >= options.tenant_quota || self.outstanding_total >= options.global_queue {
            return Err(self.outstanding_total.max(outstanding));
        }
        let tenant = self.tenants.entry(id).or_insert_with(|| {
            let (queue_wait, admitted) = metrics();
            Tenant { queue: VecDeque::new(), outstanding: 0, deficit: 0, queue_wait, admitted }
        });
        if tenant.queue.is_empty() && !self.round.contains(&id) {
            self.round.push_back(id);
        }
        self.next_expiry = self.next_expiry.or(Some(pending.deadline));
        self.request_bytes.add(pending.bytes as i64);
        tenant.queue.push_back(pending);
        tenant.outstanding += 1;
        tenant.admitted.inc();
        self.outstanding_total += 1;
        Ok(())
    }

    /// One of `tenant`'s admitted requests, of `bytes` on the wire, is
    /// answered: its admission slot is free again.
    fn release(&mut self, tenant: u64, bytes: usize) {
        if let Some(tenant) = self.tenants.get_mut(&tenant) {
            tenant.outstanding -= 1;
        }
        self.outstanding_total -= 1;
        self.request_bytes.add(-(bytes as i64));
    }

    /// Pops requests from the tenant at the head of the round while
    /// `room` window slots are left, within its deficit: a visit starts
    /// with `quantum`, and a tenant that spends it with work left rotates
    /// to the back. A visit the window cuts short (`room` ran out first)
    /// resumes with what is left of its deficit, so the window never
    /// costs a tenant its turn. The last request popped may need more
    /// slots than were left: the window is overshot by less than one
    /// request's slots rather than blocking on the head of a queue.
    /// Tenants whose queues empty leave the round and forfeit their
    /// deficit. Each popped request records its queue wait.
    fn pop_quantum(&mut self, quantum: usize, room: usize) -> Vec<Pending> {
        let mut batch = Vec::new();
        let mut taken = 0;
        while let Some(&id) = self.round.front() {
            let Some(tenant) = self.tenants.get_mut(&id).filter(|t| !t.queue.is_empty()) else {
                self.round.pop_front();
                continue;
            };
            if tenant.deficit == 0 {
                tenant.deficit = quantum.max(1);
            }
            while tenant.deficit > 0 && taken < room {
                let Some(pending) = tenant.queue.pop_front() else { break };
                tenant.deficit -= 1;
                taken += slots(&pending.request);
                salo_trace::record_since(
                    "gateway.tenant_queue_wait",
                    "gateway",
                    pending.enqueued,
                    id,
                );
                let waited = pending.enqueued.elapsed().as_nanos();
                tenant.queue_wait.record(waited.min(u128::from(u64::MAX)) as u64);
                batch.push(pending);
            }
            if tenant.queue.is_empty() {
                tenant.deficit = 0;
                self.round.pop_front();
            } else if tenant.deficit == 0 {
                self.round.rotate_left(1);
            }
            break;
        }
        batch
    }

    /// Submits queued requests, a DRR quantum at a time, while the window
    /// has room. Each pass pops at least one request or empties the round.
    /// What is refused is left in `out`, for the calling thread to write
    /// once it has released the lock.
    pub(crate) fn dispatch(&mut self, options: &GatewayOptions, out: &mut Vec<Reply>) {
        let window = in_flight_window(&options.serve);
        // Out while `submit` has the state; gone after the drain.
        let Some(backend) = self.backend.take() else { return };
        while !self.round.is_empty() && self.in_flight < window {
            for pending in self.pop_quantum(options.tenant_quantum, window - self.in_flight) {
                self.submit(&*backend, pending, out);
            }
        }
        self.backend = Some(backend);
    }

    /// The submit half: hands one request to the backend and records who
    /// is owed its reply. Runs under the state lock, so the completion of
    /// what it submits cannot be looked up before it is registered. A
    /// request the backend (or the session table) refuses is answered
    /// through `out`.
    fn submit(&mut self, backend: &dyn Backend, pending: Pending, out: &mut Vec<Reply>) {
        let Pending { header, request, conn, bytes, deadline, .. } = pending;
        if !conn.alive.load(Ordering::Acquire) {
            return self.release(header.tenant, bytes); // a write failed: nobody to answer
        }
        let unknown_session = |session: u64| {
            let message = format!("wire session {session} is not open on this connection");
            error(ErrorCode::UnknownSession, &message)
        };
        let slots = slots(&request);
        let waiter = Waiter { conn, header, bytes, deadline, slots, answered: false };
        let refusal = match request {
            Incoming::Prefill { pattern, shape, heads } => {
                let request = ServeRequest { pattern, shape, heads };
                match backend.submit_into(header.tenant, request) {
                    Ok(id) => {
                        self.in_flight += waiter.slots;
                        self.layers.insert(id, waiter);
                        return;
                    }
                    Err(e) => serve_error(&e),
                }
            }
            Incoming::Open { pattern, head_dim, num_heads, prompt } => {
                let request = SessionRequest { pattern, head_dim, num_heads, prompt };
                match backend.open_session_into(header.tenant, request) {
                    Ok(id) => {
                        let entry = SessionEntry {
                            conn: Arc::clone(&waiter.conn),
                            opened_by: header,
                            opened: false,
                            closing: false,
                            waiters: VecDeque::from([waiter]),
                        };
                        self.sessions.insert(id, entry);
                        self.in_flight += 1;
                        return;
                    }
                    Err(e) => serve_error(&e),
                }
            }
            Incoming::Step { session, token } => match self.live_session(session, &waiter.conn) {
                Some(entry) => match backend.step_session(session, token) {
                    Ok(()) => {
                        entry.waiters.push_back(waiter);
                        self.in_flight += 1;
                        return;
                    }
                    Err(e) => serve_error(&e),
                },
                None => unknown_session(session),
            },
            Incoming::Close { session } => match self.live_session(session, &waiter.conn) {
                Some(entry) => match backend.close_session(session) {
                    Ok(()) => {
                        // Answered by the session's `Closed` event.
                        entry.closing = true;
                        entry.waiters.push_back(waiter);
                        self.in_flight += 1;
                        return;
                    }
                    Err(e) => serve_error(&e),
                },
                None => unknown_session(session),
            },
            // Handled inline by the reader; unreachable through the queue.
            Incoming::Stats => return self.release(header.tenant, bytes),
        };
        self.release(header.tenant, bytes);
        out.push(Reply { conn: waiter.conn, header, response: refusal });
    }

    /// Session `session`, if its open was answered on `conn` and it is
    /// still taking requests.
    fn live_session(&mut self, session: u64, conn: &ConnShared) -> Option<&mut SessionEntry> {
        let entry = self.sessions.get_mut(&session)?;
        (entry.opened && entry.conn.id == conn.id && !entry.closing).then_some(entry)
    }

    /// A completion arrived for `waiter`: its window slot is free — and
    /// goes to queued work before the lock does — and so is its admission
    /// slot unless the deadline already answered it. Returns who to answer.
    fn settle(
        &mut self,
        waiter: Waiter,
        options: &GatewayOptions,
        out: &mut Vec<Reply>,
    ) -> Option<(Arc<ConnShared>, Header)> {
        self.in_flight -= waiter.slots;
        self.dispatch(options, out);
        if waiter.answered {
            return None;
        }
        self.release(waiter.header.tenant, waiter.bytes);
        Some((waiter.conn, waiter.header))
    }

    /// Settles the layer request the server knows as `id`, if it is known.
    pub(crate) fn settle_layer(
        &mut self,
        id: u64,
        options: &GatewayOptions,
        out: &mut Vec<Reply>,
    ) -> Option<(Arc<ConnShared>, Header)> {
        let waiter = self.layers.remove(&id)?;
        self.settle(waiter, options, out)
    }

    /// Answers the waiter at the head of a session's FIFO with a session
    /// event, settling it; the reply is left in `out`.
    pub(crate) fn route_session_event(
        &mut self,
        event: ServeEvent,
        options: &GatewayOptions,
        out: &mut Vec<Reply>,
    ) {
        match event {
            ServeEvent::Opened { session, result } => {
                let Some(entry) = self.sessions.get_mut(&session) else { return };
                let Some(waiter) = entry.waiters.pop_front() else { return };
                let response = match result {
                    Ok(_) if entry.closing => {
                        error(ErrorCode::Draining, "gateway drained before the open completed")
                    }
                    Ok(info) => {
                        entry.opened = true;
                        Outgoing::Opened {
                            session,
                            min_step: info.min_step as u64,
                            position: info.position as u64,
                            capacity: info.capacity as u64,
                        }
                    }
                    Err(e) => {
                        // The server deregistered it; no `Closed` follows.
                        self.sessions.remove(&session);
                        serve_error(&e)
                    }
                };
                if let Some((conn, header)) = self.settle(waiter, options, out) {
                    out.push(Reply { conn, header, response });
                }
            }
            ServeEvent::Step { session, result, .. } => {
                let Some(entry) = self.sessions.get_mut(&session) else { return };
                let Some(waiter) = entry.waiters.pop_front() else { return };
                let Some((conn, header)) = self.settle(waiter, options, out) else { return };
                let response = match result {
                    Ok(step) => Outgoing::Stepped {
                        session,
                        position: step.position as u64,
                        heads: step.heads,
                    },
                    Err(e) => serve_error(&e),
                };
                out.push(Reply { conn, header, response });
            }
            ServeEvent::Closed { session, position } => {
                // Terminal, whoever asked: the client, the drain, a dead
                // connection's reader, or a failure that retired the
                // session. Whatever still waits on it is answered with the
                // close.
                let Some(entry) = self.sessions.remove(&session) else { return };
                let position = position.map(|p| p as u64);
                for waiter in entry.waiters {
                    if let Some((conn, header)) = self.settle(waiter, options, out) {
                        let response = Outgoing::Closed { session, position };
                        out.push(Reply { conn, header, response });
                    }
                }
            }
            // A layer is a message of its own, and a `Steps` holds only
            // session events: neither reaches here.
            ServeEvent::Layer(_) | ServeEvent::Steps(_) => {}
        }
    }

    /// Answers every request past its deadline with a `TimedOut` reply in
    /// `out` and returns how many there were. A queued request leaves its
    /// queue; one in flight stays as an answered waiter until its
    /// completion arrives. A timed-out open also closes its session: the
    /// client never learns the id it would need to do so itself.
    pub(crate) fn expire(&mut self, now: Instant, out: &mut Vec<Reply>) -> u64 {
        if self.next_expiry.is_none_or(|at| at > now) {
            return 0;
        }
        let before = out.len();
        let mut next = None;
        // The admission slots answered here: `(tenant, bytes)`, released
        // once the tables have been walked.
        let mut answered = Vec::new();
        let State { tenants, layers, sessions, backend, .. } = &mut *self;
        for tenant in tenants.values_mut() {
            while let Some(front) = tenant.queue.front() {
                if front.deadline > now {
                    next = earliest(next, front.deadline);
                    break;
                }
                let Pending { conn, header, bytes, .. } =
                    tenant.queue.pop_front().expect("front exists");
                answered.push((header.tenant, bytes));
                let response = error(
                    ErrorCode::TimedOut,
                    "request spent its service deadline in the dispatch queue",
                );
                out.push(Reply { conn, header, response });
            }
        }
        let mut overdue = |waiter: &mut Waiter| {
            if waiter.answered {
                return false;
            }
            if waiter.deadline > now {
                next = earliest(next, waiter.deadline);
                return false;
            }
            waiter.answered = true;
            answered.push((waiter.header.tenant, waiter.bytes));
            let response = error(ErrorCode::TimedOut, "request outlived its service deadline");
            out.push(Reply { conn: Arc::clone(&waiter.conn), header: waiter.header, response });
            true
        };
        layers.values_mut().for_each(|waiter| {
            overdue(waiter);
        });
        for (&session, entry) in sessions.iter_mut() {
            // Not opened and not closing: the open's waiter is in front.
            let opening = !entry.opened && !entry.closing;
            for (at, waiter) in entry.waiters.iter_mut().enumerate() {
                if overdue(waiter) && at == 0 && opening {
                    entry.closing = true;
                    // Gone only after the drain closed every session.
                    if let Some(backend) = backend {
                        let _ = backend.close_session(session);
                    }
                }
            }
        }
        for (tenant, bytes) in answered {
            self.release(tenant, bytes);
        }
        self.next_expiry = next;
        (out.len() - before) as u64
    }

    /// `conn` is gone: submits a close for each of its sessions, without
    /// waiting. Each disappears with its `Closed` event, which has nobody
    /// left to be written to.
    pub(crate) fn close_sessions_of(&mut self, conn: &ConnShared) {
        // After the drain every session is closing already.
        let Some(backend) = self.backend.as_deref() else { return };
        let orphans = self.sessions.iter_mut().filter(|(_, e)| e.conn.id == conn.id && !e.closing);
        for (&session, entry) in orphans {
            entry.closing = true;
            let _ = backend.close_session(session);
        }
    }

    /// The drain's last act under the lock: takes every queued request
    /// out, its admission slot released, for the caller to refuse; then
    /// submits a close for every session still taking requests and gives
    /// the backend up. An opened session's terminal `Closed` frame answers
    /// its open request, so it waits in the session's FIFO like a close the
    /// client had asked for, under a service deadline of its own; a session
    /// still opening has its open answered instead.
    pub(crate) fn drain(&mut self, deadline: Instant) -> Vec<Pending> {
        self.round.clear();
        let queued: Vec<Pending> =
            self.tenants.values_mut().flat_map(|t| t.queue.drain(..)).collect();
        queued.iter().for_each(|pending| self.release(pending.header.tenant, pending.bytes));
        let Some(backend) = self.backend.take() else { return queued };
        let State { tenants, outstanding_total, in_flight, sessions, next_expiry, .. } = self;
        for (&session, entry) in sessions.iter_mut().filter(|(_, entry)| !entry.closing) {
            entry.closing = true;
            if backend.close_session(session).is_err() || !entry.opened {
                continue;
            }
            entry.waiters.push_back(Waiter {
                conn: Arc::clone(&entry.conn),
                header: entry.opened_by,
                bytes: 0,
                deadline,
                slots: 1,
                answered: false,
            });
            *next_expiry = next_expiry.or(Some(deadline));
            *in_flight += 1;
            if let Some(tenant) = tenants.get_mut(&entry.opened_by.tenant) {
                tenant.outstanding += 1;
            }
            *outstanding_total += 1;
        }
        queued
    }
}

#[cfg(test)]
impl State {
    /// `(queued, outstanding, in flight, (layers, sessions))`.
    pub(crate) fn tables(&self) -> (usize, usize, usize, (usize, usize)) {
        let queued = self.tenants.values().map(|tenant| tenant.queue.len()).sum();
        let sizes = (self.layers.len(), self.sessions.len());
        (queued, self.outstanding_total, self.in_flight, sizes)
    }

    pub(crate) fn request_bytes(&self) -> i64 {
        self.request_bytes.get()
    }

    /// Whether the drain has given the backend up.
    pub(crate) fn drained(&self) -> bool {
        self.backend.is_none()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    use salo_serve::SessionInfo;

    /// A backend that answers from a script: layers and sessions draw ids
    /// from one counter in call order, and the call a test arms is refused
    /// once.
    #[derive(Default)]
    pub(crate) struct Script {
        next: AtomicU64,
        /// The tenant or session each call made so far named.
        calls: Mutex<Vec<u64>>,
        refusal: Mutex<Option<(&'static str, ServeError)>>,
    }

    impl Script {
        fn refuse(&self, call: &'static str, error: ServeError) {
            *self.refusal.lock().expect("script") = Some((call, error));
        }

        fn call(&self, name: &'static str, named: u64) -> Result<(), ServeError> {
            let mut refusal = self.refusal.lock().expect("script");
            if let Some((_, error)) = refusal.take_if(|(call, _)| *call == name) {
                return Err(error);
            }
            self.calls.lock().expect("script").push(named);
            Ok(())
        }

        /// What the calls since the last look named.
        fn named(&self) -> Vec<u64> {
            self.calls.lock().expect("script").drain(..).collect()
        }
    }

    impl Backend for Arc<Script> {
        fn submit_into(&self, tenant: u64, _: ServeRequest) -> Result<u64, ServeError> {
            self.call("submit_into", tenant)?;
            Ok(self.next.fetch_add(1, Ordering::Relaxed))
        }

        fn open_session_into(&self, tenant: u64, _: Open) -> Result<u64, ServeError> {
            self.call("open_session_into", tenant)?;
            Ok(self.next.fetch_add(1, Ordering::Relaxed))
        }

        fn step_session(&self, session: u64, _: Vec<TokenQkv>) -> Result<(), ServeError> {
            self.call("step_session", session)
        }

        fn close_session(&self, session: u64) -> Result<(), ServeError> {
            self.call("close_session", session)
        }
    }

    pub(crate) const TIMEOUT: Duration = Duration::from_secs(30);

    /// The frame length every test request claims.
    pub(crate) const BYTES: usize = 1000;

    /// A connection whose replies go nowhere.
    pub(crate) fn sink_conn(id: u64) -> Arc<ConnShared> {
        ConnShared::new(id, Box::new(std::io::sink()))
    }

    pub(crate) fn pending(conn: &Arc<ConnShared>, header: Header, request: Incoming) -> Pending {
        let enqueued = Instant::now();
        let deadline = enqueued + TIMEOUT;
        Pending { header, request, conn: Arc::clone(conn), bytes: BYTES, enqueued, deadline }
    }

    /// A prefill; the scripted backend never looks inside a request.
    pub(crate) fn layer() -> Incoming {
        Incoming::Prefill {
            pattern: salo_patterns::longformer(8, 2, 1).expect("pattern"),
            shape: salo_patterns::AttentionShape::new(8, 4, 1).expect("shape"),
            heads: Vec::new(),
        }
    }

    pub(crate) fn open() -> Incoming {
        let pattern = salo_patterns::longformer(8, 2, 1).expect("pattern");
        Incoming::Open { pattern, head_dim: 4, num_heads: 1, prompt: Vec::new() }
    }

    pub(crate) fn opened(session: u64) -> ServeEvent {
        let info =
            SessionInfo { worker: 0, min_step: 1, position: 1, capacity: 8, cache_hit: false };
        ServeEvent::Opened { session, result: Ok(info) }
    }

    /// Admits `pending` and dispatches, as a reader does.
    pub(crate) fn admit(
        state: &mut State,
        options: &GatewayOptions,
        pending: Pending,
        out: &mut Vec<Reply>,
    ) -> Result<(), usize> {
        let admitted = state.admit(pending, options, Default::default);
        if admitted.is_ok() {
            state.dispatch(options, out);
        }
        admitted
    }

    /// A state on a scripted backend, and one connection to admit on.
    struct Front {
        state: State,
        script: Arc<Script>,
        options: GatewayOptions,
        conn: Arc<ConnShared>,
        out: Vec<Reply>,
    }

    impl Front {
        fn new(options: GatewayOptions) -> Self {
            let script = Arc::new(Script::default());
            let state = State::new(Arc::default(), Box::new(Arc::clone(&script)));
            Front { state, script, options, conn: sink_conn(1), out: Vec::new() }
        }

        /// Admits `request` for `tenant` and dispatches.
        fn send(&mut self, tenant: u64, request_id: u64, request: Incoming) -> Result<(), usize> {
            let pending = pending(&self.conn, Header { tenant, request_id }, request);
            admit(&mut self.state, &self.options, pending, &mut self.out)
        }

        /// Admits `request` for `tenant`, its dispatch still to come.
        fn queue(&mut self, tenant: u64, request_id: u64, request: Incoming) {
            let pending = pending(&self.conn, Header { tenant, request_id }, request);
            self.state.admit(pending, &self.options, Default::default).expect("admitted");
        }

        /// Settles the layer the server knows as `id`.
        fn settle_layer(&mut self, id: u64) -> Option<(Arc<ConnShared>, Header)> {
            self.state.settle_layer(id, &self.options, &mut self.out)
        }
    }

    #[test]
    fn drr_interleaves_tenants_and_the_window_keeps_a_cut_visit_in_place() {
        let conn = sink_conn(1);
        let options = GatewayOptions::default();
        let mut state = State::default();
        // Tenant 1 floods 6 requests; tenant 2 queues 2.
        for (tenant, n) in [(1u64, 6u64), (2, 2)] {
            for request_id in 0..n {
                let pending = pending(&conn, Header { tenant, request_id }, Incoming::Stats);
                state.admit(pending, &options, Default::default).expect("admitted");
            }
        }
        let mut order = Vec::new();
        // One slot of room: tenant 1's first visit is cut after one
        // request and resumes with the rest of its quantum, not a new one.
        order.extend(state.pop_quantum(2, 1).iter().map(|p| p.header.tenant));
        assert_eq!(state.tenants[&1].deficit, 1);
        while !state.round.is_empty() {
            order.extend(state.pop_quantum(2, usize::MAX).iter().map(|p| p.header.tenant));
        }
        // Visits alternate a quantum at a time until tenant 2 drains:
        // 1,1 then 2,2 then the rest of tenant 1's backlog.
        assert_eq!(order, vec![1, 1, 2, 2, 1, 1, 1, 1]);
        assert!(state.round.is_empty());
        assert_eq!(state.outstanding_total, 8, "popping is not answering");
    }

    /// The window is set by the worker count alone: two options that
    /// differ only in `max_batch`, which the runtime never reads, get the
    /// same window.
    #[test]
    fn the_window_is_the_same_whatever_max_batch_says() {
        let one = ServeOptions { workers: 2, max_batch: 1, ..Default::default() };
        let eight = ServeOptions { max_batch: 8, ..one };
        assert_eq!(in_flight_window(&one), in_flight_window(&eight));
        assert_eq!(in_flight_window(&eight), 64, "two workers, four rounds of eight");
    }

    /// A flood of layer requests fills the window with one round of them
    /// (`workers × ROUND_PER_WORKER`), not `WINDOW_ROUNDS`: a tenant
    /// arriving behind it waits for those and the flooder's unspent
    /// deficit, then takes its turn. Session-sized requests fill all the
    /// slots.
    #[test]
    fn layer_requests_hold_a_round_of_the_window_each() {
        let serve = ServeOptions { workers: 1, ..Default::default() };
        let window = in_flight_window(&serve);
        let round = window / WINDOW_ROUNDS;
        // Two past a round: the window cuts the flooder's first visit with
        // two requests of its deficit left.
        let options = GatewayOptions { serve, tenant_quantum: round + 2, ..Default::default() };
        let mut front = Front::new(options.clone());
        // A backlog, dispatched in one visit: the first dispatch after
        // admissions the window kept queued.
        for request_id in 0..round as u64 + 4 {
            front.queue(1, request_id, layer());
        }
        front.state.dispatch(&front.options, &mut front.out);
        assert_eq!(front.script.named(), vec![1; round]);
        assert_eq!(front.state.tables(), (4, round + 4, window, (round, 0)), "one round of layers");
        front.state.dispatch(&front.options, &mut front.out);
        assert!(front.script.named().is_empty(), "the window is full");

        front.send(2, 0, layer()).expect("late");
        assert!(front.script.named().is_empty(), "queued behind the window");
        let mut ahead = 0;
        let late = (0..).find_map(|oldest| {
            front.settle_layer(oldest).expect("owed a reply");
            match front.script.named().as_slice() {
                [1] => {
                    ahead += 1;
                    None
                }
                other => Some(other.to_vec()),
            }
        });
        assert_eq!((ahead, late), (2, Some(vec![2])), "the rest of tenant 1's quantum, then 2");

        // One-slot requests: the window takes `WINDOW_ROUNDS` rounds of them.
        let mut front = Front::new(options);
        for request_id in 0..2 * window as u64 {
            front.send(1, request_id, open()).expect("admitted");
        }
        assert_eq!(front.state.tables(), (window, 2 * window, window, (0, window)));
    }

    /// Quota `q` bounds what is outstanding, not what is queued: with `q`
    /// requests in flight (and every queue empty) the next is refused,
    /// and one reply makes room for exactly one more.
    #[test]
    fn admission_counts_in_flight_requests_and_releases_on_reply() {
        let mut front = Front::new(GatewayOptions { tenant_quota: 3, ..Default::default() });
        let header = |request_id| Header { tenant: 7, request_id };
        for request_id in 0..3 {
            front.send(7, request_id, layer()).expect("under quota");
        }
        let layers = |n: usize| n * WINDOW_ROUNDS;
        assert_eq!(front.state.tables(), (0, 3, layers(3), (3, 0)), "all three in flight");
        assert_eq!(front.send(7, 3, layer()), Err(3), "q in flight");
        assert_eq!(front.state.request_bytes(), 3 * BYTES as i64, "a refusal never entered");
        // Another tenant is not affected by tenant 7's quota.
        front.send(8, 0, layer()).expect("other");

        let (_, answered) = front.settle_layer(0).expect("owed a reply");
        assert_eq!(answered, header(0));
        assert_eq!((front.state.in_flight, front.state.tenants[&7].outstanding), (layers(3), 2));
        assert_eq!(front.state.request_bytes(), 3 * BYTES as i64, "tenant 7's two and tenant 8's");
        front.send(7, 3, layer()).expect("one reply, one slot");
        assert_eq!(front.send(7, 4, layer()), Err(4), "and only one");
    }

    /// A deadline answers a request once: a queued one leaves its queue,
    /// one in flight keeps its window slot until the completion arrives,
    /// and that completion is dropped. Afterwards every counter is back
    /// where it started.
    #[test]
    fn expired_requests_are_answered_once_and_leave_the_tables_clean() {
        let mut front = Front::new(GatewayOptions::default());
        front.send(1, 0, layer()).expect("admitted: in flight as layer 0");
        front.queue(1, 1, layer());

        let mut out = Vec::new();
        assert_eq!(front.state.expire(Instant::now(), &mut out), 0, "nothing is due yet");
        assert!(front.state.next_expiry.is_some());
        assert_eq!(front.state.request_bytes(), 2 * BYTES as i64, "queued and in flight");
        let late = Instant::now() + TIMEOUT + Duration::from_secs(1);
        assert_eq!(front.state.expire(late, &mut out), 2);
        let answered: Vec<u64> = out.iter().map(|reply| reply.header.request_id).collect();
        assert_eq!(answered, vec![1, 0], "the queued request, then the one in flight");
        for reply in &out {
            assert!(
                matches!(&reply.response, Outgoing::Error(frame) if frame.code == ErrorCode::TimedOut)
            );
        }
        assert_eq!(front.state.tables(), (0, 0, WINDOW_ROUNDS, (1, 0)));
        assert_eq!(front.state.request_bytes(), 0, "the bytes leave with the admission slots");
        assert_eq!(front.state.next_expiry, None);
        assert_eq!(front.state.expire(late, &mut out), 0, "answered once");

        // The late completion frees the window slot and answers nobody.
        assert!(front.settle_layer(0).is_none(), "still paired with its completion");
        assert_eq!((front.state.in_flight, front.state.tenants[&1].outstanding), (0, 0));
        assert_eq!(front.state.request_bytes(), 0, "and are not given back twice");
    }

    /// Each of the four backend calls refuses in turn — `step_session` and
    /// `close_session` for a session the gateway still holds live, as when
    /// the serve side retired it first. Each refusal is answered once, with
    /// the refusal's own code, and leaves every table and count as it was
    /// before the request; the session serves on.
    #[test]
    fn each_backend_refusal_is_answered_once_and_leaves_the_tables_clean() {
        let mut front = Front::new(GatewayOptions::default());
        front.send(1, 0, open()).expect("admitted");
        front.state.route_session_event(opened(0), &front.options, &mut front.out);
        let reply = front.out.pop().expect("the open's reply");
        assert!(matches!(reply.response, Outgoing::Opened { session: 0, .. }));
        let snapshot = |state: &State| {
            let sessions: Vec<_> =
                state.sessions.values().map(|e| (e.opened, e.closing, e.waiters.len())).collect();
            let outstanding = state.tenants[&1].outstanding;
            (state.tables(), state.request_bytes(), outstanding, sessions)
        };
        let before = snapshot(&front.state);
        assert_eq!(before, ((0, 0, 0, (0, 1)), 0, 0, vec![(true, false, 0)]));

        let retired = || ServeError::UnknownSession { session: 0 };
        let refusals = [
            ("submit_into", layer(), ServeError::InvalidRequest { reason: "refused".into() }),
            ("open_session_into", open(), ServeError::WorkerLost),
            ("step_session", Incoming::Step { session: 0, token: Vec::new() }, retired()),
            ("close_session", Incoming::Close { session: 0 }, retired()),
        ];
        for (request_id, (call, request, refusal)) in (1..).zip(refusals) {
            let Outgoing::Error(owed) = serve_error(&refusal) else { unreachable!() };
            front.script.refuse(call, refusal);
            front.send(1, request_id, request).expect("admitted");
            assert!(front.script.refusal.lock().expect("script").is_none(), "{call} was made");
            assert_eq!(front.out.len(), 1, "{call}: one reply");
            let reply = front.out.pop().expect("a reply");
            assert_eq!(reply.header, Header { tenant: 1, request_id }, "{call}");
            assert!(
                matches!(&reply.response, Outgoing::Error(frame) if frame.code == owed.code),
                "{call}: answered {:?}, owed {:?}",
                reply.response,
                owed.code
            );
            assert_eq!(snapshot(&front.state), before, "{call}");
        }

        front.send(1, 9, Incoming::Step { session: 0, token: Vec::new() }).expect("admitted");
        assert_eq!(front.state.tables(), (0, 1, 1, (0, 1)), "the session serves on");
    }
}
