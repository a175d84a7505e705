//! The gateway runtime: an acceptor, per-connection readers and one
//! completion thread in front of a [`SaloServer`]; whichever of them makes
//! room or work submits, in deficit round robin, without waiting.
//!
//! Threading model (std-only, no async runtime):
//!
//! * one **acceptor** polls a non-blocking `TcpListener`, spawns a
//!   reader per connection and joins the readers that have finished;
//! * each **reader** owns its socket's read half: it decodes each frame
//!   *as it arrives* ([`wire::read_request`]) — out of the connection's
//!   one 64 KiB read buffer straight into the request, so a request's
//!   bytes are never resident beside the request, and the frame's length
//!   is known before anything is allocated for it — and *admits* the
//!   request. The `gateway.read_frame` span therefore covers the wait for
//!   a frame, its read and its decode, which interleave. A malformed
//!   payload costs one typed `BadFrame` reply, under the request id its
//!   header named; a framing violation, EOF or a read deadline — also one
//!   that strikes mid-frame, dropping the half-decoded request — costs
//!   the connection. The only unbounded thing a client controls
//!   is how fast it sends, and admission turns that into typed
//!   `Overloaded` rejections the moment its tenant (or the gateway as a
//!   whole) has its quota of requests *outstanding*: queued or in
//!   flight, released when the reply is decided. A request submitted the
//!   moment it is admitted therefore still counts against its tenant.
//!   What is outstanding is also counted in bytes
//!   (`gateway.request_bytes`, frame lengths), observed and not bounded;
//! * one **completion** thread blocks on the one `Receiver<ServeEvent>`
//!   behind the [`EventSink`] every request the gateway submits reports
//!   into — the serve workers send there directly — and routes a layer
//!   response by its serve request id, a session event by its session id:
//!   a session's replies leave in step order because its waiters form a
//!   FIFO, and a `Close` is answered by the `Closed` event. The steps one
//!   worker pass completed arrive as one `ServeEvent::Steps` message and
//!   are routed under one acquisition of the state lock; their replies
//!   queue in run order, and each run of them to one connection leaves in
//!   one write. A decode tick wakes this thread once, not once per token.
//!   A session has one id at every layer: the serve session id — the
//!   engine's too — is what `Opened` carries to the client and what its
//!   `Step` and `Close` name. Layer replies leave in completion order, not
//!   submission order: clients correlate by `request_id`, and a small
//!   prefill never waits behind a stranger's large one. It is
//!   also the timer: it never waits longer than the earliest outstanding
//!   deadline and answers whatever outlived `service_timeout` with a
//!   typed `TimedOut` frame; the completion of a waiter that already
//!   timed out is dropped without a second frame. A reply is encoded
//!   from the engine's own rows ([`wire::Outgoing`]), once, into a buffer
//!   of its exact size — or appended to the buffer a run of session
//!   replies is being gathered in.
//!
//! Nobody's job is to submit: [`State::dispatch`] runs on the two threads
//! that can make work or room, at the moment they do — a reader that has
//! just admitted, the completion thread that has just freed a slot. It
//! pops the admitted queues in deficit round robin across tenants and
//! hands each request to the server (`submit_into` / `open_session_into`
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
//! into the server *while its caller holds it*, so a completion can never
//! outrun the registration of the request it answers. The calls are
//! non-blocking: validation plus a channel send, a few microseconds. An
//! `Open` is validated from its shape and its last global alone; its
//! causal clip, linear in the sequence length (at `n = 100 000`, 0.3 ms
//! for a window/global pattern and 1.5 ms for one with block-sparse
//! terms, EXPERIMENTS.md), is built on the pinned worker, off the lock.
//! Socket writes always happen outside the lock.
//!
//! Admission and fairness live in the gateway alone: the quota bounds
//! what a tenant may have outstanding, DRR interleaves what is admitted
//! a quantum at a time, and the window keeps the workers' queues — the
//! one hop behind `submit_into` — staging, not a second place to wait.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use salo_serve::{
    EventSink, SaloServer, ServeError, ServeEvent, ServeOptions, ServeReport, ServeRequest,
    ServeResponse, SessionRequest,
};
use salo_sim::AcceleratorConfig;
use salo_trace::{Counter, Gauge, LogHistogram, MetricsRegistry};

use crate::wire::{self, EngineHead, ErrorCode, ErrorFrame, Header, Outgoing, Request, WireError};

/// Gateway configuration: the wrapped server's options plus the knobs of
/// the network front door.
#[derive(Debug, Clone)]
pub struct GatewayOptions {
    /// Options for the [`SaloServer`] the gateway runs in front of.
    pub serve: ServeOptions,
    /// Per-tenant admission bound: a tenant with this many requests
    /// outstanding — queued or in flight, not yet answered — sees
    /// `Overloaded` instead of deeper queues.
    pub tenant_quota: usize,
    /// Global admission bound on outstanding requests across all tenants.
    pub global_queue: usize,
    /// Deficit-round-robin quantum: requests a tenant may submit per
    /// dispatch visit before the visit moves to the next tenant.
    pub tenant_quantum: usize,
    /// Per-connection socket read deadline. A connection idle past it is
    /// told so (typed `TimedOut` frame) and closed.
    pub read_timeout: Duration,
    /// Per-connection socket write deadline.
    pub write_timeout: Duration,
    /// Per-request service deadline: time from admission to completion
    /// (queue wait included) before the request fails with a typed
    /// `TimedOut` frame instead of hanging its connection.
    pub service_timeout: Duration,
    /// How long [`Gateway::shutdown`] waits for admitted work to finish
    /// before failing the remainder with `Draining` frames.
    pub drain_deadline: Duration,
}

impl Default for GatewayOptions {
    fn default() -> Self {
        GatewayOptions {
            serve: ServeOptions::default(),
            tenant_quota: 64,
            global_queue: 1024,
            tenant_quantum: 4,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            service_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// Final accounting from [`Gateway::shutdown`]: the drained server's
/// [`ServeReport`] plus the front door's own counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GatewayReport {
    /// The wrapped server's report (tenant counters included).
    pub serve: ServeReport,
    /// Connections accepted over the gateway's lifetime.
    pub connections: u64,
    /// Frames successfully read and framed.
    pub frames_read: u64,
    /// Frames successfully written.
    pub frames_written: u64,
    /// Requests that passed admission.
    pub admitted: u64,
    /// Requests refused with `Overloaded`.
    pub rejected_overloaded: u64,
    /// Requests refused (or abandoned at the deadline) with `Draining`.
    pub rejected_draining: u64,
    /// Requests failed with `TimedOut` (queued or in flight past the
    /// service deadline).
    pub timed_out: u64,
    /// Whether the drain completed inside
    /// [`GatewayOptions::drain_deadline`].
    pub drained_in_deadline: bool,
}

/// Requests per worker in one round of the in-flight window.
const ROUND_PER_WORKER: usize = 8;

/// Rounds of `workers × ROUND_PER_WORKER` requests the in-flight window
/// covers. Swept on the socket benchmark with decode steps
/// (EXPERIMENTS.md, "In-flight window"): a worker's tick fuses the steps
/// of several rounds.
const WINDOW_ROUNDS: usize = 4;

/// How many slots of work [`State::dispatch`] keeps submitted and unanswered
/// at once: enough that every worker's queue and its fused decode tick
/// see several wire requests together, small enough
/// that a tenant arriving late waits for at most this much foreign work.
fn in_flight_window(serve: &ServeOptions) -> usize {
    serve.workers.max(1) * ROUND_PER_WORKER * WINDOW_ROUNDS
}

/// Window slots `request` holds while in flight. A layer request holds a
/// whole round's share: nothing fuses layers, a worker runs them one
/// after another, so more than one round of them
/// (`workers × ROUND_PER_WORKER`) would only sit in the workers' queues —
/// milliseconds each — ahead of whoever arrives next. Session requests
/// hold one.
fn slots(request: &Request) -> usize {
    if matches!(request, Request::Prefill { .. }) {
        WINDOW_ROUNDS
    } else {
        1
    }
}

/// Capacity of a connection's read buffer: a pipelined burst of small
/// frames arrives in one `read`, and a large frame is decoded out of it
/// this much at a time — it is the only place a request's bytes ever are.
const READ_BUFFER: usize = 64 * 1024;

/// Bytes of consecutive replies to one connection the completion thread
/// gathers into a single write.
const WRITE_GATHER: usize = 64 * 1024;

/// One admitted, not-yet-dispatched request.
struct Pending {
    header: Header,
    request: Request,
    conn: Arc<ConnShared>,
    /// The request's frame length: its share of `gateway.request_bytes`
    /// from admission until its reply is decided.
    bytes: usize,
    enqueued: Instant,
    /// `enqueued + service_timeout`. Stamped under the state lock, so
    /// deadlines never decrease in admission order.
    deadline: Instant,
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
struct Reply {
    conn: Arc<ConnShared>,
    header: Header,
    response: Outgoing,
}

/// Everything the gateway's threads share, under one lock: admission
/// queues and counters, the dispatch round, and the in-flight table.
/// Readers hold it to admit, completions to find who is owed a reply, and
/// either then pops quanta and submits them ([`State::dispatch`]) before letting
/// go; nobody writes to a socket while holding it.
#[derive(Default)]
struct State {
    tenants: BTreeMap<u64, Tenant>,
    /// Admitted and not yet answered across all tenants (the global
    /// bound's counter).
    outstanding_total: usize,
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
    next_expiry: Option<Instant>,
    /// The submit side: the server, and the one sink whose receiver the
    /// completion thread blocks on — every submission gets a clone of it,
    /// so a worker can tell its steps share a channel. The drain takes it
    /// out to close the live sessions and drops it — shutting the server
    /// down needs every reference to it gone, and the completion thread
    /// ends when the last clone of the sink is.
    server: Option<(Arc<SaloServer>, EventSink)>,
}

fn earliest(current: Option<Instant>, deadline: Instant) -> Option<Instant> {
    Some(current.map_or(deadline, |at| at.min(deadline)))
}

fn error(code: ErrorCode, message: &str) -> Outgoing {
    Outgoing::Error(ErrorFrame { code, message: message.to_owned(), retry_after_ms: None })
}

fn serve_error(e: &ServeError) -> Outgoing {
    let code = match e {
        ServeError::InvalidRequest { .. } => ErrorCode::Invalid,
        ServeError::UnknownSession { .. } => ErrorCode::UnknownSession,
        _ => ErrorCode::Internal,
    };
    error(code, &e.to_string())
}

impl State {
    /// Admits `pending` unless its tenant or the gateway already has its
    /// quota outstanding; a refusal returns the depth it ran into.
    /// `queue_wait` resolves a new tenant's histogram.
    fn admit(
        &mut self,
        pending: Pending,
        options: &GatewayOptions,
        queue_wait: impl FnOnce() -> Arc<LogHistogram>,
    ) -> Result<(), usize> {
        let id = pending.header.tenant;
        let outstanding = self.tenants.get(&id).map_or(0, |t| t.outstanding);
        if outstanding >= options.tenant_quota || self.outstanding_total >= options.global_queue {
            return Err(self.outstanding_total.max(outstanding));
        }
        let tenant = self.tenants.entry(id).or_insert_with(|| Tenant {
            queue: VecDeque::new(),
            outstanding: 0,
            deficit: 0,
            queue_wait: queue_wait(),
        });
        if tenant.queue.is_empty() && !self.round.contains(&id) {
            self.round.push_back(id);
        }
        self.next_expiry = self.next_expiry.or(Some(pending.deadline));
        self.request_bytes.add(pending.bytes as i64);
        tenant.queue.push_back(pending);
        tenant.outstanding += 1;
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
    fn dispatch(&mut self, options: &GatewayOptions, out: &mut Vec<Reply>) {
        let window = in_flight_window(&options.serve);
        while !self.round.is_empty() && self.in_flight < window {
            // Cloned so that `submit` can have the whole state, and dropped
            // before the lock is: the drain, which takes the original out
            // under it, never finds a copy alive.
            let Some((server, events)) = self.server.clone() else { return };
            for pending in self.pop_quantum(options.tenant_quantum, window - self.in_flight) {
                submit(&server, self, pending, &events, out);
            }
        }
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

    /// Answers the waiter at the head of a session's FIFO with a session
    /// event, settling it; the reply is left in `out`.
    fn route_session_event(
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
    fn expire(&mut self, now: Instant, out: &mut Vec<Reply>) -> u64 {
        if self.next_expiry.is_none_or(|at| at > now) {
            return 0;
        }
        let before = out.len();
        let mut next = None;
        // The admission slots answered here: `(tenant, bytes)`, released
        // once the tables have been walked.
        let mut answered = Vec::new();
        let State { tenants, layers, sessions, server, .. } = &mut *self;
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
                    if let Some((server, _)) = server {
                        let _ = server.close_session(session);
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
    fn close_sessions_of(&mut self, conn: &ConnShared, server: &SaloServer) {
        let orphans = self.sessions.iter_mut().filter(|(_, e)| e.conn.id == conn.id && !e.closing);
        for (&session, entry) in orphans {
            entry.closing = true;
            let _ = server.close_session(session);
        }
    }

    /// The drain's last submissions: a close for every session still
    /// taking requests, after which the submit side is given up. An opened
    /// session's terminal `Closed` frame answers its open request, so it
    /// waits in the session's FIFO like a close the client had asked for,
    /// under a service deadline of its own; a session still opening has
    /// its open answered instead.
    fn close_all_sessions(&mut self, inner: &Inner) {
        let Some((server, _)) = self.server.take() else { return };
        let deadline = inner.deadline(Instant::now());
        let State { tenants, outstanding_total, in_flight, sessions, next_expiry, .. } = self;
        for (&session, entry) in sessions.iter_mut().filter(|(_, entry)| !entry.closing) {
            entry.closing = true;
            if server.close_session(session).is_err() || !entry.opened {
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
    }
}

/// The per-connection state shared between its reader (framing, inline
/// replies) and whoever answers its requests. The stream mutex serializes
/// writers; the read half is the reader's own clone and is never locked.
struct ConnShared {
    id: u64,
    stream: Mutex<TcpStream>,
    /// The write half works. Cleared by a failed write and by nothing
    /// else: a reader that has left (EOF, or the drain's read-shutdown)
    /// says nothing about whether replies can still be delivered.
    alive: AtomicBool,
}

/// The front door's own counts: the `gateway.*` counters of the server's
/// registry, resolved once at `bind`. A `Stats` frame shows them live, and
/// [`Gateway::shutdown`] reads the [`GatewayReport`] back from these same
/// handles — the completion thread still counts frames after the server,
/// and the registry with it, is gone.
struct Counts {
    connections: Arc<Counter>,
    frames_read: Arc<Counter>,
    frames_written: Arc<Counter>,
    admitted: Arc<Counter>,
    rejected_overloaded: Arc<Counter>,
    rejected_draining: Arc<Counter>,
    timed_out: Arc<Counter>,
}

impl Counts {
    fn new(registry: &MetricsRegistry) -> Self {
        Counts {
            connections: registry.counter("gateway.connections"),
            frames_read: registry.counter("gateway.frames_read"),
            frames_written: registry.counter("gateway.frames_written"),
            admitted: registry.counter("gateway.admitted"),
            rejected_overloaded: registry.counter("gateway.rejected.overloaded"),
            rejected_draining: registry.counter("gateway.rejected.draining"),
            timed_out: registry.counter("gateway.timed_out"),
        }
    }
}

/// The gateway's own shared state. It holds the server only inside
/// [`State`], until the drain: the completion thread has to outlive the
/// server's shutdown, which needs every other reference to the server gone.
struct Inner {
    options: GatewayOptions,
    state: Mutex<State>,
    /// Set by shutdown: readers reject new work as `Draining`, the
    /// acceptor stops accepting.
    draining: AtomicBool,
    next_conn_id: AtomicU64,
    /// Every connection whose reader has not been joined yet: the acceptor
    /// adds and reaps, the drain takes what is left.
    connections: Mutex<Vec<(Arc<ConnShared>, JoinHandle<()>)>>,
    counts: Counts,
}

impl Inner {
    fn new(options: GatewayOptions, registry: &MetricsRegistry) -> Self {
        Inner {
            options,
            state: Mutex::new(State {
                request_bytes: registry.gauge("gateway.request_bytes"),
                ..State::default()
            }),
            draining: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(1),
            connections: Mutex::new(Vec::new()),
            counts: Counts::new(registry),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("gateway state poisoned")
    }

    /// `enqueued + service_timeout`; a timeout too large to add means no
    /// deadline in practice.
    fn deadline(&self, enqueued: Instant) -> Instant {
        const NEVER: Duration = Duration::from_secs(100 * 365 * 24 * 60 * 60);
        enqueued.checked_add(self.options.service_timeout).unwrap_or_else(|| enqueued + NEVER)
    }
}

/// The network front door: a TCP listener mapping wire frames onto a
/// [`SaloServer`] it owns. See the [crate docs](crate) for the protocol
/// and fairness model.
pub struct Gateway {
    inner: Arc<Inner>,
    server: Arc<SaloServer>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    completion: Option<JoinHandle<()>>,
}

fn spawn(name: &str, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new().name(name.into()).spawn(body).expect("spawn gateway thread")
}

/// Returns the free pages of the allocator's arenas to the operating
/// system.
///
/// A compiled plan at decode capacities is tens of MiB, and glibc keeps
/// all of it once it is freed: the first large block to be released
/// raises the allocator's trim threshold to twice its size, and the
/// server's threads each free into an arena of their own, none of which
/// ever has that much free at its top. `smaps` before and after a
/// shutdown were equal (EXPERIMENTS.md, "What the fixed-time RSS metric
/// sees"); whatever the process allocated next landed on top of the dead
/// gateway's footprint. `malloc_trim` walks every arena and gives back
/// the whole pages inside free chunks. On other allocators this is a
/// no-op and their own policy applies.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointer and may be called from any
    // thread at any time; it touches only memory the allocator holds as
    // free. Its result (whether anything was released) is of no use here.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_memory() {}

impl Gateway {
    /// Starts a server with `options.serve` and binds the gateway to
    /// `addr` (use port 0 for an ephemeral port, then
    /// [`local_addr`](Self::local_addr)).
    ///
    /// # Errors
    ///
    /// Returns the bind error, if any.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: AcceleratorConfig,
        options: GatewayOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let server = Arc::new(SaloServer::start(config, options.serve));
        let inner = Arc::new(Inner::new(options, server.metrics()));
        // Everything the gateway submits reports into this one channel.
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        inner.lock().server = Some((Arc::clone(&server), events_tx.into()));
        let acceptor = {
            let (inner, server) = (Arc::clone(&inner), Arc::clone(&server));
            spawn("gateway-accept", move || accept_loop(&inner, &server, listener))
        };
        let completion = {
            let inner = Arc::clone(&inner);
            spawn("gateway-complete", move || completion_loop(&inner, &events_rx))
        };
        Ok(Gateway {
            inner,
            server,
            addr: local,
            acceptor: Some(acceptor),
            completion: Some(completion),
        })
    }

    /// The bound listen address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped server's metrics registry (serve counters, per-tenant
    /// counters, and the gateway's `gateway.*` family).
    #[must_use]
    pub fn metrics(&self) -> &salo_serve::MetricsRegistry {
        self.server.metrics()
    }

    /// Gracefully drains and shuts the gateway down:
    ///
    /// 1. stop accepting connections; readers reject new work with
    ///    typed `Draining` frames;
    /// 2. wait — up to [`GatewayOptions::drain_deadline`] — for admitted
    ///    work to be answered; whatever is still queued past the
    ///    deadline is failed with `Draining` frames instead of executed
    ///    (what is already in flight completes);
    /// 3. a close is submitted for every live session, and nothing is
    ///    submitted after that; the completion path sends each
    ///    connection a terminal `Closed` frame as the sessions end;
    /// 4. reader sockets are read-shutdown (write halves stay open for
    ///    the final frames), the server is shut down — its workers run
    ///    every queued close before they exit — and all threads are
    ///    joined;
    /// 5. the pages behind everything that freed — plan cache, sessions,
    ///    K/V pools — are handed back to the operating system, so a
    ///    process that outlives its gateway does not stay at the
    ///    gateway's high-water mark (`release_freed_memory`).
    pub fn shutdown(mut self) -> GatewayReport {
        let drained_in_deadline = self.drain();
        let server = Arc::into_inner(self.server).expect("server users joined");
        let serve = server.shutdown();
        // The drain dropped the gateway's sender of the event channel and
        // the server's threads held the rest: with them gone, the
        // completion thread answers what is left and runs out of events.
        if let Some(handle) = self.completion.take() {
            handle.join().expect("completion thread panicked");
        }
        let inner = self.inner;
        let counts = &inner.counts;
        let report = GatewayReport {
            serve,
            connections: counts.connections.get(),
            frames_read: counts.frames_read.get(),
            frames_written: counts.frames_written.get(),
            admitted: counts.admitted.get(),
            rejected_overloaded: counts.rejected_overloaded.get(),
            rejected_draining: counts.rejected_draining.get(),
            timed_out: counts.timed_out.get(),
            drained_in_deadline,
        };
        // Everything the gateway and its server held is freed by now;
        // what the process keeps resident for it should go too.
        drop(inner);
        release_freed_memory();
        report
    }

    /// Steps 1–3 of [`shutdown`](Self::shutdown) and the readers of
    /// step 4: afterwards only the server's workers and the completion
    /// thread are left. Returns whether the admitted work finished in the
    /// deadline.
    fn drain(&mut self) -> bool {
        let inner = &self.inner;
        let deadline = inner.options.drain_deadline;
        let start = Instant::now();
        inner.draining.store(true, Ordering::Release);

        // Let admitted work finish under the deadline.
        let drained_in_deadline = loop {
            if inner.lock().outstanding_total == 0 {
                break true;
            }
            if start.elapsed() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(2));
        };

        // Fail whatever is still queued, then end every live session with
        // a terminal `Closed` frame on its connection, correlated to its
        // open; nothing is submitted after that.
        let leftovers: Vec<Pending> = {
            let mut state = inner.lock();
            let state = &mut *state;
            let leftovers: Vec<Pending> =
                state.tenants.values_mut().flat_map(|t| t.queue.drain(..)).collect();
            leftovers
                .iter()
                .for_each(|pending| state.release(pending.header.tenant, pending.bytes));
            state.round.clear();
            state.close_all_sessions(inner);
            leftovers
        };
        for pending in leftovers {
            inner.counts.rejected_draining.inc();
            let response = error(
                ErrorCode::Draining,
                "gateway drain deadline expired before this request ran",
            );
            send_response(inner, &pending.conn, pending.header, &response);
        }

        if let Some(handle) = self.acceptor.take() {
            handle.join().expect("acceptor panicked");
        }

        // Unblock the readers: read halves close, write halves stay usable
        // for terminal `Closed` frames.
        let connections =
            std::mem::take(&mut *inner.connections.lock().expect("connections poisoned"));
        for (conn, handle) in connections {
            if let Ok(stream) = conn.stream.lock() {
                let _ = stream.shutdown(Shutdown::Read);
            }
            handle.join().expect("reader panicked");
        }
        drained_in_deadline
    }
}

// ---------------------------------------------------------------------
// acceptor
// ---------------------------------------------------------------------

fn accept_loop(inner: &Arc<Inner>, server: &Arc<SaloServer>, listener: TcpListener) {
    while !inner.draining.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
                let _span = salo_trace::span_with("gateway.accept", "gateway", conn_id);
                inner.counts.connections.inc();
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(inner.options.read_timeout));
                let _ = stream.set_write_timeout(Some(inner.options.write_timeout));
                let Ok(write_half) = stream.try_clone() else { continue };
                let conn = Arc::new(ConnShared {
                    id: conn_id,
                    stream: Mutex::new(write_half),
                    alive: AtomicBool::new(true),
                });
                let (reader_inner, reader_server) = (Arc::clone(inner), Arc::clone(server));
                let reader_conn = Arc::clone(&conn);
                let handle = spawn(&format!("gateway-conn-{conn_id}"), move || {
                    reader_loop(&reader_inner, &reader_server, stream, &reader_conn);
                });
                inner.connections.lock().expect("connections poisoned").push((conn, handle));
            }
            Err(_) => {
                // Nobody is connecting (`WouldBlock`) or accepting failed:
                // join the readers that have finished, so connections that
                // come and go leave neither an entry nor a thread's stack.
                let mut connections = inner.connections.lock().expect("connections poisoned");
                for (_, handle) in connections.extract_if(.., |(_, handle)| handle.is_finished()) {
                    handle.join().expect("reader panicked");
                }
                drop(connections);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

// ---------------------------------------------------------------------
// reader: frame, decoded as it arrives → admit
// ---------------------------------------------------------------------

fn reader_loop(inner: &Inner, server: &SaloServer, stream: TcpStream, conn: &Arc<ConnShared>) {
    let mut stream = BufReader::with_capacity(READ_BUFFER, stream);
    loop {
        let started = Instant::now();
        let frame = match wire::read_request(&mut stream) {
            Ok(frame) => frame,
            Err(WireError::Io(kind)) => {
                use std::io::ErrorKind;
                if matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    // Read deadline, between frames or inside one: tell
                    // the client why before closing. A request the
                    // deadline caught half-decoded is dropped here,
                    // before anything knew of it.
                    let response =
                        error(ErrorCode::TimedOut, "connection idle past the read deadline");
                    send_response(inner, conn, Header::default(), &response);
                }
                break; // EOF, reset, or deadline — connection is done
            }
            Err(err) => {
                // Framing violation (oversized / short frame): typed
                // reply, then close — the stream offset is unreliable.
                let response = error(ErrorCode::BadFrame, &err.to_string());
                send_response(inner, conn, Header::default(), &response);
                break;
            }
        };
        inner.counts.frames_read.inc();
        // The wait for the frame, its read and — interleaved with the
        // read — its decode.
        salo_trace::record_since("gateway.read_frame", "gateway", started, conn.id);

        let header = frame.header;
        match frame.message {
            Err(err) => {
                // The frame boundary was sound and the rest of the frame
                // has been skipped, so the stream is in sync: reply typed,
                // to the request the header named if it got that far, and
                // keep the connection.
                let response = error(ErrorCode::BadFrame, &err.to_string());
                send_response(inner, conn, header, &response);
                continue;
            }
            Ok(Request::Stats) => {
                // Served inline off the live registry — stats must work
                // even when the dispatch queue is saturated.
                let json = server.metrics().export_json();
                send_response(inner, conn, header, &Outgoing::Stats { json });
            }
            Ok(request) => admit(inner, server, header, request, frame.len, conn),
        }

        if !conn.alive.load(Ordering::Acquire) {
            break; // the write half failed; reading further is pointless
        }
    }

    // The read half is done — the peer hung up, or the drain shut it —
    // but `alive` stays as it is: replies still owed to this connection
    // (in-flight work, the drain's terminal `Closed` frames) are written
    // until a write fails.
    inner.lock().close_sessions_of(conn, server);
}

fn admit(
    inner: &Inner,
    server: &SaloServer,
    header: Header,
    request: Request,
    bytes: usize,
    conn: &Arc<ConnShared>,
) {
    let _span = salo_trace::span_with("gateway.admission", "gateway", header.tenant);
    let tenant = header.tenant;
    let mut out = Vec::new();
    let refused = {
        let mut state = inner.lock();
        // Checked under the lock: an admission that gets in before the
        // drain's sweep of the queues is swept with them, one after it
        // sees the flag.
        if inner.draining.load(Ordering::Acquire) {
            drop(state);
            inner.counts.rejected_draining.inc();
            let response = error(ErrorCode::Draining, "gateway is draining");
            return send_response(inner, conn, header, &response);
        }
        let enqueued = Instant::now();
        let deadline = inner.deadline(enqueued);
        let conn = Arc::clone(conn);
        let pending = Pending { header, request, conn, bytes, enqueued, deadline };
        let admitted = state.admit(pending, &inner.options, || {
            server.metrics().histogram(&format!("gateway.tenant.{tenant}.queue_wait_ns"))
        });
        if admitted.is_ok() {
            // Counted before it is submitted: whoever has the reply finds
            // the request in `gateway.admitted`.
            inner.counts.admitted.inc();
            state.dispatch(&inner.options, &mut out);
        }
        admitted.err()
    };
    write_replies(inner, &mut out);
    if let Some(depth) = refused {
        inner.counts.rejected_overloaded.inc();
        server.record_tenant_rejection(tenant);
        // Rough service-rate hint: two milliseconds per outstanding
        // request ahead of a retry.
        let response = Outgoing::Error(ErrorFrame {
            code: ErrorCode::Overloaded,
            message: "tenant or global admission quota is full".to_owned(),
            retry_after_ms: Some(2 * (depth as u64 + 1)),
        });
        send_response(inner, conn, header, &response);
    }
}

// ---------------------------------------------------------------------
// submit
// ---------------------------------------------------------------------

/// The submit half: hands one request to the server and records who is
/// owed its reply. Runs under the state lock, so the completion of what
/// it submits cannot be looked up before it is registered. A request the
/// server (or the session table) refuses is answered through `out`.
fn submit(
    server: &SaloServer,
    state: &mut State,
    pending: Pending,
    events: &EventSink,
    out: &mut Vec<Reply>,
) {
    let Pending { header, request, conn, bytes, deadline, .. } = pending;
    if !conn.alive.load(Ordering::Acquire) {
        return state.release(header.tenant, bytes); // a write failed: nobody to answer
    }
    let unknown_session = |session: u64| {
        let message = format!("wire session {session} is not open on this connection");
        error(ErrorCode::UnknownSession, &message)
    };
    let slots = slots(&request);
    let waiter = Waiter { conn, header, bytes, deadline, slots, answered: false };
    let refusal = match request {
        Request::Prefill { pattern, shape, heads } => {
            let request = ServeRequest { pattern, shape, heads };
            match server.submit_into(header.tenant, request, events.clone()) {
                Ok(id) => {
                    state.in_flight += waiter.slots;
                    state.layers.insert(id, waiter);
                    return;
                }
                Err(e) => serve_error(&e),
            }
        }
        Request::Open { pattern, head_dim, num_heads, prompt } => {
            let request = SessionRequest { pattern, head_dim, num_heads, prompt };
            match server.open_session_into(header.tenant, request, events.clone()) {
                Ok(id) => {
                    let entry = SessionEntry {
                        conn: Arc::clone(&waiter.conn),
                        opened_by: header,
                        opened: false,
                        closing: false,
                        waiters: VecDeque::from([waiter]),
                    };
                    state.sessions.insert(id, entry);
                    state.in_flight += 1;
                    return;
                }
                Err(e) => serve_error(&e),
            }
        }
        Request::Step { session, token } => match state.live_session(session, &waiter.conn) {
            Some(entry) => match server.step_session(session, token) {
                Ok(()) => {
                    entry.waiters.push_back(waiter);
                    state.in_flight += 1;
                    return;
                }
                Err(e) => serve_error(&e),
            },
            None => unknown_session(session),
        },
        Request::Close { session } => match state.live_session(session, &waiter.conn) {
            Some(entry) => match server.close_session(session) {
                Ok(()) => {
                    // Answered by the session's `Closed` event.
                    entry.closing = true;
                    entry.waiters.push_back(waiter);
                    state.in_flight += 1;
                    return;
                }
                Err(e) => serve_error(&e),
            },
            None => unknown_session(session),
        },
        // Handled inline by the reader; unreachable through the queue.
        Request::Stats => return state.release(header.tenant, bytes),
    };
    state.release(header.tenant, bytes);
    out.push(Reply { conn: waiter.conn, header, response: refusal });
}

// ---------------------------------------------------------------------
// completion: route each result to the connection that is owed it
// ---------------------------------------------------------------------

/// Blocks on the one channel everything the gateway submits reports into,
/// until the earliest deadline. Messages that are already waiting are
/// routed in one pass, and the session replies among them written
/// together.
///
/// Nothing wakes it for an admission: a deadline is at least
/// `service_timeout` after its admission and the wait is never longer than
/// that, so none comes due unseen.
fn completion_loop(inner: &Inner, events: &Receiver<ServeEvent>) {
    // One window of messages per pass: each settle refills the window,
    // and the replies must not wait on that. A message is one event or
    // the steps of one worker pass — at most a tick's run.
    let burst = in_flight_window(&inner.options.serve);
    let mut out = Vec::new();
    let timeout = inner.options.service_timeout;
    loop {
        let mut state = inner.lock();
        let now = Instant::now();
        inner.counts.timed_out.add(state.expire(now, &mut out));
        let due = state.next_expiry.map_or(timeout, |at| at.saturating_duration_since(now));
        drop(state);
        write_replies(inner, &mut out);
        match events.recv_timeout(due.min(timeout)) {
            Ok(first) => {
                let rest = std::iter::from_fn(|| events.try_recv().ok());
                for event in std::iter::once(first).chain(rest).take(burst) {
                    on_event(inner, event, &mut out);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Routes one message to whoever is owed its replies, under one
/// acquisition of the state lock: a layer response to the waiter under its
/// serve request id, a session event — or each of a worker pass's
/// `Steps`, in order — to the waiter at the head of its session's FIFO.
/// Events of requests and sessions the tables no longer know are
/// dropped. Session replies are gathered in `out`; a layer reply —
/// megabytes — is written here, as soon as it is routed, so the thread
/// never holds more than one.
fn on_event(inner: &Inner, event: ServeEvent, out: &mut Vec<Reply>) {
    let mut guard = inner.lock();
    let state = &mut *guard;
    match event {
        ServeEvent::Layer(ServeResponse { id, result, .. }) => {
            let Some(waiter) = state.layers.remove(&id) else { return };
            let Some((conn, header)) = state.settle(waiter, &inner.options, out) else { return };
            // Encoding walks megabytes: not under the lock.
            drop(guard);
            // The engine's rows move into the reply and are encoded from
            // where they lie.
            let response = match result {
                Ok(run) => Outgoing::PrefillDone {
                    sim_time_s: run.total_time_s,
                    sim_energy_j: run.total_energy_j,
                    heads: run
                        .heads
                        .into_iter()
                        .map(|h| EngineHead {
                            output: h.output,
                            raw: h.raw,
                            weights_q16: h.weights_q16,
                        })
                        .collect(),
                },
                Err(e) => serve_error(&e),
            };
            send_response(inner, &conn, header, &response);
        }
        ServeEvent::Steps(events) => {
            for event in events {
                state.route_session_event(event, &inner.options, out);
            }
        }
        event => state.route_session_event(event, &inner.options, out),
    }
}

// ---------------------------------------------------------------------
// replies
// ---------------------------------------------------------------------

/// Writes `frames` encoded frames to the connection in one `write_all`;
/// a failed write marks the connection dead.
fn write_frames(inner: &Inner, conn: &ConnShared, bytes: &[u8], frames: u64, started: Instant) {
    let ok = match conn.stream.lock() {
        Ok(mut stream) => wire::write_frame(&mut *stream, bytes).is_ok(),
        Err(_) => return,
    };
    salo_trace::record_since("gateway.write_frame", "gateway", started, conn.id);
    if ok {
        inner.counts.frames_written.add(frames);
    } else {
        conn.alive.store(false, Ordering::Release);
    }
}

fn send_response(inner: &Inner, conn: &ConnShared, header: Header, response: &Outgoing) {
    if !conn.alive.load(Ordering::Acquire) {
        return;
    }
    let started = Instant::now();
    let mut bytes = Vec::new();
    wire::encode_outgoing_into(&mut bytes, header, response);
    write_frames(inner, conn, &bytes, 1, started);
}

/// Writes the replies in order, gathering each run of consecutive replies
/// to one connection (up to [`WRITE_GATHER`] bytes) into a single write.
fn write_replies(inner: &Inner, out: &mut Vec<Reply>) {
    let mut replies = out.drain(..).peekable();
    while let Some(first) = replies.next() {
        let conn = first.conn;
        if !conn.alive.load(Ordering::Acquire) {
            continue;
        }
        let started = Instant::now();
        let mut bytes = Vec::new();
        wire::encode_outgoing_into(&mut bytes, first.header, &first.response);
        let mut frames = 1;
        while bytes.len() < WRITE_GATHER {
            let Some(next) = replies.next_if(|next| next.conn.id == conn.id) else { break };
            wire::encode_outgoing_into(&mut bytes, next.header, &next.response);
            frames += 1;
        }
        write_frames(inner, &conn, &bytes, frames, started);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any_listener() -> SocketAddr {
        // A throwaway loopback listener so the tests can build a
        // TcpStream without a live gateway.
        static LISTENER: std::sync::OnceLock<(TcpListener, SocketAddr)> =
            std::sync::OnceLock::new();
        let (_, addr) = LISTENER.get_or_init(|| {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = l.local_addr().expect("local addr");
            (l, addr)
        });
        *addr
    }

    fn test_conn() -> Arc<ConnShared> {
        conn_with_id(1)
    }

    fn conn_with_id(id: u64) -> Arc<ConnShared> {
        Arc::new(ConnShared {
            id,
            stream: Mutex::new(TcpStream::connect(any_listener()).expect("loopback")),
            alive: AtomicBool::new(true),
        })
    }

    const TIMEOUT: Duration = Duration::from_secs(30);

    /// The frame length every test request claims.
    const BYTES: usize = 1000;

    fn pending(conn: &Arc<ConnShared>, header: Header, request: Request) -> Pending {
        let enqueued = Instant::now();
        let deadline = enqueued + TIMEOUT;
        Pending { header, request, conn: Arc::clone(conn), bytes: BYTES, enqueued, deadline }
    }

    fn admit(
        state: &mut State,
        options: &GatewayOptions,
        conn: &Arc<ConnShared>,
        header: Header,
    ) -> Result<(), usize> {
        let pending = pending(conn, header, Request::Stats);
        state.admit(pending, options, || Arc::new(LogHistogram::new()))
    }

    /// Requests waiting in tenant queues.
    fn queued(state: &State) -> usize {
        state.tenants.values().map(|tenant| tenant.queue.len()).sum()
    }

    /// What `submit` does to the table for a layer request.
    fn put_in_flight(state: &mut State, serve_id: u64, pending: Pending) {
        let Pending { conn, header, request, bytes, deadline, .. } = pending;
        let slots = slots(&request);
        let waiter = Waiter { conn, header, bytes, deadline, slots, answered: false };
        state.in_flight += waiter.slots;
        state.layers.insert(serve_id, waiter);
    }

    #[test]
    fn drr_interleaves_tenants_and_the_window_keeps_a_cut_visit_in_place() {
        let conn = test_conn();
        let options = GatewayOptions::default();
        let mut state = State::default();
        // Tenant 1 floods 6 requests; tenant 2 queues 2.
        for (tenant, n) in [(1u64, 6u64), (2, 2)] {
            for request_id in 0..n {
                admit(&mut state, &options, &conn, Header { tenant, request_id })
                    .expect("admitted");
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
        let conn = test_conn();
        let options = GatewayOptions::default();
        let serve = ServeOptions { workers: 1, ..Default::default() };
        let window = in_flight_window(&serve);
        let round = window / WINDOW_ROUNDS;
        // Two past a round: the window cuts the flooder's first visit with
        // two requests of its deficit left.
        let quantum = round + 2;
        let layer = || Request::Prefill {
            pattern: salo_patterns::longformer(8, 2, 1).expect("pattern"),
            shape: salo_patterns::AttentionShape::new(8, 4, 1).expect("shape"),
            heads: Vec::new(),
        };
        let mut state = State::default();
        let mut serve_id = 0;
        // What `State::dispatch` does with the room the window leaves.
        let mut dispatch = |state: &mut State| {
            let room = window.saturating_sub(state.in_flight);
            let batch = state.pop_quantum(quantum, room);
            let tenants: Vec<u64> = batch.iter().map(|p| p.header.tenant).collect();
            for pending in batch {
                serve_id += 1;
                put_in_flight(state, serve_id, pending);
            }
            tenants
        };
        for request_id in 0..round as u64 + 4 {
            let pending = pending(&conn, Header { tenant: 1, request_id }, layer());
            state.admit(pending, &options, || Arc::new(LogHistogram::new())).expect("admitted");
        }
        assert_eq!(dispatch(&mut state), vec![1; round]);
        assert_eq!((state.layers.len(), state.in_flight), (round, window), "one round of layers");
        assert!(dispatch(&mut state).is_empty(), "the window is full");

        admit(&mut state, &options, &conn, Header { tenant: 2, request_id: 0 }).expect("late");
        let mut ahead = 0;
        let late = loop {
            let oldest = *state.layers.keys().min().expect("a layer in flight");
            let waiter = state.layers.remove(&oldest).expect("in flight");
            state.settle(waiter, &options, &mut Vec::new());
            match dispatch(&mut state).as_slice() {
                [1] => ahead += 1,
                other => break other.to_vec(),
            }
        };
        assert_eq!((ahead, late), (2, vec![2]), "the rest of tenant 1's quantum, then tenant 2");

        // One-slot requests: the window takes `WINDOW_ROUNDS` rounds of them.
        let mut state = State::default();
        for request_id in 0..2 * window as u64 {
            admit(&mut state, &options, &conn, Header { tenant: 1, request_id }).expect("admitted");
        }
        while !dispatch(&mut state).is_empty() {}
        assert_eq!((state.layers.len(), state.in_flight), (window, window));
    }

    /// Quota `q` bounds what is outstanding, not what is queued: with `q`
    /// requests in flight (and every queue empty) the next is refused,
    /// and one reply makes room for exactly one more.
    #[test]
    fn admission_counts_in_flight_requests_and_releases_on_reply() {
        let conn = test_conn();
        let options = GatewayOptions { tenant_quota: 3, ..Default::default() };
        let mut state = State::default();
        let header = |request_id| Header { tenant: 7, request_id };
        for request_id in 0..3 {
            admit(&mut state, &options, &conn, header(request_id)).expect("under quota");
        }
        for (serve_id, pending) in state.pop_quantum(8, usize::MAX).into_iter().enumerate() {
            put_in_flight(&mut state, serve_id as u64, pending);
        }
        assert_eq!((queued(&state), state.in_flight), (0, 3));
        assert_eq!(admit(&mut state, &options, &conn, header(3)), Err(3), "q in flight");
        assert_eq!(state.request_bytes.get(), 3 * BYTES as i64, "a refusal never entered");
        // Another tenant is not affected by tenant 7's quota.
        admit(&mut state, &options, &conn, Header { tenant: 8, request_id: 0 }).expect("other");

        let waiter = state.layers.remove(&0).expect("in flight");
        let (_, answered) = state.settle(waiter, &options, &mut Vec::new()).expect("owed a reply");
        assert_eq!(answered, header(0));
        assert_eq!((state.in_flight, state.tenants[&7].outstanding), (2, 2));
        assert_eq!(state.request_bytes.get(), 3 * BYTES as i64, "tenant 7's two and tenant 8's");
        admit(&mut state, &options, &conn, header(3)).expect("one reply, one slot");
        assert_eq!(admit(&mut state, &options, &conn, header(4)), Err(4), "and only one");
    }

    /// A deadline answers a request once: a queued one leaves its queue,
    /// one in flight keeps its window slot until the completion arrives,
    /// and that completion is dropped. Afterwards every counter is back
    /// where it started.
    #[test]
    fn expired_requests_are_answered_once_and_leave_the_tables_clean() {
        let conn = test_conn();
        let options = GatewayOptions::default();
        let mut state = State::default();
        for request_id in 0..2 {
            admit(&mut state, &options, &conn, Header { tenant: 1, request_id }).expect("admitted");
        }
        let first = state.pop_quantum(1, usize::MAX).pop().expect("one popped");
        put_in_flight(&mut state, 40, first);

        let mut out = Vec::new();
        assert_eq!(state.expire(Instant::now(), &mut out), 0, "nothing is due yet");
        assert!(state.next_expiry.is_some());
        assert_eq!(state.request_bytes.get(), 2 * BYTES as i64, "queued and in flight");
        let late = Instant::now() + TIMEOUT + Duration::from_secs(1);
        assert_eq!(state.expire(late, &mut out), 2);
        let answered: Vec<u64> = out.iter().map(|reply| reply.header.request_id).collect();
        assert_eq!(answered, vec![1, 0], "the queued request, then the one in flight");
        for reply in &out {
            assert!(
                matches!(&reply.response, Outgoing::Error(frame) if frame.code == ErrorCode::TimedOut)
            );
        }
        assert_eq!((queued(&state), state.outstanding_total, state.in_flight), (0, 0, 1));
        assert_eq!(state.request_bytes.get(), 0, "the bytes leave with the admission slots");
        assert_eq!(state.next_expiry, None);
        assert_eq!(state.expire(late, &mut out), 0, "answered once");

        // The late completion frees the window slot and answers nobody.
        let waiter = state.layers.remove(&40).expect("still paired with its completion");
        assert!(state.settle(waiter, &options, &mut out).is_none());
        assert_eq!((state.in_flight, state.tenants[&1].outstanding), (0, 0));
        assert_eq!(state.request_bytes.get(), 0, "and are not given back twice");
    }

    /// Drives admission, dispatch and the completion half against a real
    /// server, without sockets or a second thread: a refused request, a
    /// failed step, a dead connection and an orphaned session each cost
    /// exactly their own reply and leave every table and counter as they
    /// found it, and a settle hands the slot it frees to queued work.
    #[test]
    fn faults_fail_one_request_and_leave_the_tables_clean() {
        // One worker: a round of layers fills the window.
        let serve = ServeOptions { workers: 1, ..Default::default() };
        let round = in_flight_window(&serve) / WINDOW_ROUNDS;
        let server = Arc::new(SaloServer::start(AcceleratorConfig::default(), serve));
        let inner = Inner::new(GatewayOptions { serve, ..Default::default() }, server.metrics());
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        inner.lock().server = Some((Arc::clone(&server), events_tx.into()));
        let conn = test_conn();
        let mut out = Vec::new();
        let mut request_id = 0;
        // Admits `request` and dispatches, as a reader does.
        let mut submit_one = |request: Request, conn: &Arc<ConnShared>, out: &mut Vec<Reply>| {
            request_id += 1;
            let mut state = inner.lock();
            let pending = pending(conn, Header { tenant: 3, request_id }, request);
            state
                .admit(pending, &inner.options, || Arc::new(LogHistogram::new()))
                .expect("admitted");
            state.dispatch(&inner.options, out);
        };
        // (queued, outstanding, in flight, (layers, sessions)).
        // `gateway.request_bytes` is `BYTES` per outstanding request the
        // client sent — the drain's own terminal close has no frame.
        let tables = || {
            let s = inner.lock();
            let drain_closes = if s.server.is_none() { s.sessions.len() } else { 0 };
            let from_clients = s.outstanding_total - drain_closes;
            assert_eq!(s.request_bytes.get(), (from_clients * BYTES) as i64);
            let sizes = (s.layers.len(), s.sessions.len());
            (queued(&s), s.outstanding_total, s.in_flight, sizes)
        };
        let code_of = |reply: &Reply| match &reply.response {
            Outgoing::Error(frame) => Some(frame.code),
            _ => None,
        };
        let (open, tokens) = salo_serve::GenerationTraffic::demo_mix().session_bounded(1, 2);
        let open = |num_heads| Request::Open {
            pattern: open.pattern.clone(),
            head_dim: open.head_dim,
            num_heads,
            prompt: open.prompt.clone(),
        };

        // Refused by the session table, then by the server's validation.
        submit_one(Request::Step { session: 99, token: tokens[0].clone() }, &conn, &mut out);
        assert_eq!(out.last().and_then(code_of), Some(ErrorCode::UnknownSession));
        submit_one(open(2), &conn, &mut out);
        assert_eq!(out.last().and_then(code_of), Some(ErrorCode::Invalid));
        assert_eq!((out.len(), tables()), (2, (0, 0, 0, (0, 0))));

        // A layer holds a round's share of the window until its event
        // arrives, so once a round of them is in flight the next one waits
        // in its queue; the first one's settle submits it, on this thread.
        // The replies are written, not gathered.
        let shape = salo_patterns::AttentionShape::new(8, 4, 1).expect("shape");
        let layer = || Request::Prefill {
            pattern: salo_patterns::longformer(8, 2, 1).expect("pattern"),
            shape,
            heads: salo_kernels::Qkv::random_heads(&shape, 1),
        };
        let full = round * WINDOW_ROUNDS;
        for _ in 0..round {
            submit_one(layer(), &conn, &mut out);
        }
        assert_eq!(tables(), (0, round, full, (round, 0)));
        submit_one(layer(), &conn, &mut out);
        assert_eq!(tables(), (1, round + 1, full, (round, 0)), "the window is full");
        let written = inner.counts.frames_written.get();
        on_event(&inner, events_rx.recv().expect("layer done"), &mut out);
        assert_eq!(tables(), (0, round, full, (round, 0)), "the settle submitted it");
        for _ in 0..round {
            on_event(&inner, events_rx.recv().expect("layer done"), &mut out);
        }
        assert_eq!((out.len(), tables()), (2, (0, 0, 0, (0, 0))));
        assert_eq!(inner.counts.frames_written.get(), written + round as u64 + 1);

        // A good open is in flight until its event arrives.
        submit_one(open(1), &conn, &mut out);
        assert_eq!(tables(), (0, 1, 1, (0, 1)));
        on_event(&inner, events_rx.recv().expect("opened"), &mut out);
        assert!(matches!(out.last().expect("reply").response, Outgoing::Opened { session: 0, .. }));
        let opened = (0, 0, 0, (0, 1));
        assert_eq!((out.len(), tables()), (3, opened));

        // A step the engine refuses (no heads) fails alone.
        submit_one(Request::Step { session: 0, token: Vec::new() }, &conn, &mut out);
        assert_eq!(tables(), (0, 1, 1, (0, 1)));
        on_event(&inner, events_rx.recv().expect("step failed"), &mut out);
        assert_eq!(out.last().and_then(code_of), Some(ErrorCode::Invalid));
        assert_eq!((out.len(), tables()), (4, opened));
        submit_one(Request::Step { session: 0, token: tokens[0].clone() }, &conn, &mut out);
        on_event(&inner, events_rx.recv().expect("stepped"), &mut out);
        assert!(matches!(
            out.last().expect("reply").response,
            Outgoing::Stepped { session: 0, .. }
        ));
        assert_eq!((out.len(), tables()), (5, opened));

        // A dead connection's queued request is dropped, not submitted;
        // another connection cannot reach the session.
        let dead = conn_with_id(2);
        dead.alive.store(false, Ordering::Release);
        submit_one(Request::Step { session: 0, token: tokens[1].clone() }, &dead, &mut out);
        assert_eq!((out.len(), tables()), (5, opened));
        let stranger = conn_with_id(3);
        submit_one(Request::Close { session: 0 }, &stranger, &mut out);
        assert_eq!(out.last().and_then(code_of), Some(ErrorCode::UnknownSession));
        assert_eq!((out.len(), tables()), (6, opened));

        // The owner dies: its session is closed without anyone waiting,
        // and the `Closed` event is dropped.
        inner.lock().close_sessions_of(&conn, &server);
        on_event(&inner, events_rx.recv().expect("closed"), &mut out);
        assert_eq!((out.len(), tables()), (6, (0, 0, 0, (0, 0))));

        // The drain closes what is still open and gives up the submit
        // side. The terminal `Closed` answers the open under a deadline of
        // its own: a timer that runs before the event leaves it alone.
        submit_one(open(1), &conn, &mut out);
        on_event(&inner, events_rx.recv().expect("opened"), &mut out);
        // As after an idle `service_timeout`: a scan that found nothing.
        assert_eq!(inner.lock().expire(Instant::now() + 2 * TIMEOUT, &mut out), 0);
        inner.lock().close_all_sessions(&inner);
        assert_eq!((out.len(), tables()), (7, (0, 1, 1, (0, 1))));
        assert_eq!(
            inner.lock().expire(Instant::now(), &mut out),
            0,
            "not due the moment it is set"
        );
        on_event(&inner, events_rx.recv().expect("closed by the drain"), &mut out);
        assert!(matches!(out.last().expect("reply").response, Outgoing::Closed { session: 1, .. }));
        assert_eq!((out.len(), tables()), (8, (0, 0, 0, (0, 0))));
        assert_eq!(server.active_sessions(), 0);
        let report = Arc::into_inner(server).expect("the drain dropped the state's").shutdown();
        assert_eq!((report.decode_sessions, report.decode_steps), (2, 2));
    }

    /// The steps of one worker pass arrive as one message. It covers
    /// sessions 0 and 1 on one connection and session 2 on another, plus
    /// session 3, whose step the deadline already answered. Every live
    /// waiter gets one reply, the answered one is dropped silently, the
    /// tables and the request bytes empty, and the replies are written.
    #[test]
    fn a_pass_of_steps_is_routed_as_one_message_and_answered_once() {
        let inner = Inner::new(GatewayOptions::default(), &MetricsRegistry::new());
        let (a, b) = (conn_with_id(1), conn_with_id(2));
        let mut out = Vec::new();
        {
            let mut state = inner.lock();
            // Session 3 first: deadlines never decrease in admission order.
            for session in [3, 0, 1, 2] {
                let conn = if session == 2 { &b } else { &a };
                let header = Header { tenant: 1, request_id: session };
                let mut pending =
                    pending(conn, header, Request::Step { session, token: Vec::new() });
                if session == 3 {
                    pending.deadline = pending.enqueued;
                }
                state
                    .admit(pending, &inner.options, || Arc::new(LogHistogram::new()))
                    .expect("admitted");
            }
            // What `submit` leaves for a step of an opened session.
            for Pending { conn, header, bytes, deadline, .. } in state.pop_quantum(4, usize::MAX) {
                let answered = false;
                let waiter =
                    Waiter { conn: Arc::clone(&conn), header, bytes, deadline, slots: 1, answered };
                let waiters = VecDeque::from([waiter]);
                let entry =
                    SessionEntry { conn, opened_by: header, opened: true, closing: false, waiters };
                state.sessions.insert(header.request_id, entry);
                state.in_flight += 1;
            }
            assert_eq!(state.expire(Instant::now(), &mut out), 1, "session 3's deadline passed");
        }
        write_replies(&inner, &mut out);
        let written = inner.counts.frames_written.get();

        let step = |session| ServeEvent::Step {
            session,
            result: Ok(salo_serve::DecodeStep { position: 2, heads: Vec::new(), worker: 0 }),
            latency_s: 0.0,
        };
        on_event(&inner, ServeEvent::Steps([0, 1, 3, 2].map(step).into()), &mut out);
        let answered: Vec<(u64, u64)> = out
            .iter()
            .map(|reply| match reply.response {
                Outgoing::Stepped { session, .. } => {
                    assert_eq!(session, reply.header.request_id, "a reply to its own request");
                    (reply.conn.id, session)
                }
                _ => panic!("not a step reply"),
            })
            .collect();
        assert_eq!(answered, [(1, 0), (1, 1), (2, 2)], "run order, session 3's dropped");
        write_replies(&inner, &mut out);
        assert_eq!(inner.counts.frames_written.get(), written + 3);

        let s = inner.lock();
        assert_eq!((s.in_flight, s.outstanding_total, s.request_bytes.get()), (0, 0, 0));
        assert!(s.sessions.values().all(|entry| entry.waiters.is_empty()));
    }

    /// The timer has no wake-up of its own: it is the completion thread,
    /// which never waits longer than `service_timeout`. After sitting idle
    /// for several of them it still answers a request that outlives its
    /// deadline on time — within `SLACK` of it — and once: the completion
    /// that arrives later writes no second frame.
    #[test]
    fn an_idle_completion_thread_still_answers_a_deadline_on_time() {
        const SERVICE_TIMEOUT: Duration = Duration::from_millis(100);
        /// Scheduling noise on a busy host; a timer that only looked once
        /// per `SERVICE_TIMEOUT` would be later than this every other run.
        const SLACK: Duration = Duration::from_millis(50);
        let options = GatewayOptions { service_timeout: SERVICE_TIMEOUT, ..Default::default() };
        let inner = Inner::new(options, &MetricsRegistry::new());
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        // A connection whose peer reads what the gateway writes.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let stream = TcpStream::connect(listener.local_addr().expect("local addr"));
        let stream = Mutex::new(stream.expect("loopback"));
        let conn = Arc::new(ConnShared { id: 1, stream, alive: AtomicBool::new(true) });
        let (mut peer, _) = listener.accept().expect("accept");
        peer.set_read_timeout(Some(Duration::from_secs(10))).expect("deadline");

        std::thread::scope(|scope| {
            let inner = &inner;
            scope.spawn(move || completion_loop(inner, &events_rx));
            std::thread::sleep(3 * SERVICE_TIMEOUT);
            // What a reader's admission and `submit` leave behind.
            let enqueued = Instant::now();
            let header = Header { tenant: 1, request_id: 7 };
            let deadline = inner.deadline(enqueued);
            let conn = Arc::clone(&conn);
            let request = Request::Stats;
            let pending = Pending { header, request, conn, bytes: BYTES, enqueued, deadline };
            let mut state = inner.lock();
            state
                .admit(pending, &inner.options, || Arc::new(LogHistogram::new()))
                .expect("admitted");
            let pending = state.pop_quantum(1, 1).pop().expect("queued");
            put_in_flight(&mut state, 40, pending);
            drop(state);

            let payload = wire::read_frame(&mut peer).expect("a frame before the read deadline");
            let waited = enqueued.elapsed();
            match wire::decode_response(&payload).expect("decodable") {
                (answered, wire::Response::Error(frame)) => {
                    assert_eq!((answered, frame.code), (header, ErrorCode::TimedOut));
                }
                (_, other) => panic!("expected a TimedOut frame, got {other:?}"),
            }
            assert!(waited >= SERVICE_TIMEOUT, "answered {waited:?} after admission: early");
            assert!(waited < SERVICE_TIMEOUT + SLACK, "answered {waited:?} after admission: late");

            let late = ServeResponse {
                id: 40,
                result: Err(ServeError::WorkerLost),
                cache_hit: false,
                worker: None,
                latency_s: 0.0,
            };
            events_tx.send(ServeEvent::Layer(late)).expect("the loop is listening");
            // The last sender: the loop routes what is left and ends.
            drop(events_tx);
        });
        let state = inner.lock();
        assert_eq!((state.layers.len(), state.in_flight, state.outstanding_total), (0, 0, 0));
        assert_eq!((inner.counts.timed_out.get(), inner.counts.frames_written.get()), (1, 1));
    }

    /// Connections that come and go leave nothing behind: the acceptor
    /// joins every finished reader and drops its entry. No other unit test
    /// binds a gateway, so any `gateway-conn-*` thread is this one's.
    #[test]
    fn connection_churn_leaves_no_entry_and_no_reader_thread() {
        let serve = ServeOptions { workers: 1, ..Default::default() };
        let options = GatewayOptions { serve, ..Default::default() };
        let gateway =
            Gateway::bind("127.0.0.1:0", AcceleratorConfig::default(), options).expect("bind");
        // Fifty at a time, well inside the listener's backlog.
        for _ in 0..4 {
            let batch: Vec<TcpStream> = (0..50)
                .map(|_| TcpStream::connect(gateway.local_addr()).expect("connect"))
                .collect();
            drop(batch);
        }
        let inner = &gateway.inner;
        let started = Instant::now();
        loop {
            let left = inner.connections.lock().expect("connections poisoned").len();
            if inner.counts.connections.get() == 200 && left == 0 {
                break;
            }
            assert!(started.elapsed() < Duration::from_secs(30), "{left} readers never joined");
            std::thread::sleep(Duration::from_millis(5));
        }
        #[cfg(target_os = "linux")]
        for task in std::fs::read_dir("/proc/self/task").expect("task list") {
            let name = std::fs::read_to_string(task.expect("task").path().join("comm"));
            assert!(!name.is_ok_and(|name| name.starts_with("gateway-conn-")), "a reader lives on");
        }
        assert_eq!(gateway.shutdown().connections, 200);
    }
}
