//! The gateway runtime: an acceptor, per-connection readers and one
//! completion thread in front of a [`SaloServer`]; whichever of them makes
//! room or work submits, in deficit round robin, without waiting.
//!
//! Threading model (std-only, no async runtime):
//!
//! * one **acceptor** polls a non-blocking `TcpListener`, spawns a
//!   reader per connection and joins the readers that have finished;
//! * each **reader** owns its socket's read half: it decodes each frame
//!   *as it arrives* ([`wire::read_incoming`]) — out of the connection's
//!   one 64 KiB read buffer straight into the request, so a request's
//!   bytes are never resident beside the request, and the frame's length
//!   is known before anything is allocated for it; an `Open`'s prompt is
//!   quantized head by head as it is decoded, so it is never resident as
//!   `f32` — and *admits* the request. The `gateway.read_frame` span therefore covers the wait for
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
//!   behind the `EventSink` every request the gateway submits reports
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
//! What the gateway decides is one [`State`] under one lock (`state.rs`),
//! reaching the server through a [`Backend`]; this file is the transport
//! around it. Socket writes always happen outside the lock.

use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use salo_serve::{SaloServer, ServeEvent, ServeOptions, ServeReport, ServeResponse};
use salo_sim::AcceleratorConfig;
use salo_trace::{Counter, MetricsRegistry};

use crate::state::{
    error, in_flight_window, serve_error, Backend, ConnShared, Pending, Reply, Served, State,
};
use crate::wire::{self, EngineHead, ErrorCode, ErrorFrame, Header, Incoming, Outgoing, WireError};

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
    /// The wrapped server's report. It holds no per-tenant figures: those
    /// are the gateway's own `gateway.tenant.{id}.*` registry entries.
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

/// Capacity of a connection's read buffer: a pipelined burst of small
/// frames arrives in one `read`, and a large frame is decoded out of it
/// this much at a time — it is the only place a request's bytes ever are.
const READ_BUFFER: usize = 64 * 1024;

/// Bytes of consecutive replies to one connection the completion thread
/// gathers into a single write.
const WRITE_GATHER: usize = 64 * 1024;

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
    /// Every connection whose reader has not been joined yet, with the
    /// handle the drain read-shuts: the acceptor adds and reaps, the drain
    /// takes what is left.
    connections: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
    counts: Counts,
}

impl Inner {
    fn new(options: GatewayOptions, registry: &MetricsRegistry, backend: Box<dyn Backend>) -> Self {
        Inner {
            options,
            state: Mutex::new(State::new(registry.gauge("gateway.request_bytes"), backend)),
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
        Self::start(addr, config, options, |server, events| {
            Box::new(Served { server, events: events.into() })
        })
    }

    /// [`bind`](Self::bind) with the backend `backend` makes of the server
    /// and the sender of the one channel the completion thread reads.
    fn start<A: ToSocketAddrs>(
        addr: A,
        config: AcceleratorConfig,
        options: GatewayOptions,
        backend: impl FnOnce(Arc<SaloServer>, Sender<ServeEvent>) -> Box<dyn Backend>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let server = Arc::new(SaloServer::start(config, options.serve));
        // Everything the gateway submits reports into this one channel.
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        let backend = backend(Arc::clone(&server), events_tx);
        let inner = Arc::new(Inner::new(options, server.metrics(), backend));
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

    /// The wrapped server's metrics registry: the serve counters and the
    /// gateway's `gateway.*` family, each tenant's
    /// `gateway.tenant.{id}.*` entries included.
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
        let leftovers = inner.lock().drain(inner.deadline(Instant::now()));
        for pending in leftovers {
            inner.counts.rejected_draining.inc();
            let response = error(
                ErrorCode::Draining,
                "gateway drain deadline expired before this request ran",
            );
            send_response(inner, &pending.conn, pending.header, response);
        }

        if let Some(handle) = self.acceptor.take() {
            handle.join().expect("acceptor panicked");
        }

        // Unblock the readers: read halves close, write halves stay usable
        // for terminal `Closed` frames.
        let connections =
            std::mem::take(&mut *inner.connections.lock().expect("connections poisoned"));
        for (stream, handle) in connections {
            let _ = stream.shutdown(Shutdown::Read);
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
                let Ok(read_shut) = stream.try_clone() else { continue };
                let conn = ConnShared::new(conn_id, Box::new(write_half));
                let (reader_inner, reader_server) = (Arc::clone(inner), Arc::clone(server));
                let handle = spawn(&format!("gateway-conn-{conn_id}"), move || {
                    reader_loop(&reader_inner, &reader_server, stream, &conn);
                });
                inner.connections.lock().expect("connections poisoned").push((read_shut, handle));
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
        let frame = match wire::read_incoming(&mut stream) {
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
                    send_response(inner, conn, Header::default(), response);
                }
                break; // EOF, reset, or deadline — connection is done
            }
            Err(err) => {
                // Framing violation (oversized / short frame): typed
                // reply, then close — the stream offset is unreliable.
                let response = error(ErrorCode::BadFrame, &err.to_string());
                send_response(inner, conn, Header::default(), response);
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
                send_response(inner, conn, header, response);
                continue;
            }
            Ok(Incoming::Stats) => {
                // Served inline off the live registry — stats must work
                // even when the dispatch queue is saturated.
                let json = server.metrics().export_json();
                send_response(inner, conn, header, Outgoing::Stats { json });
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
    inner.lock().close_sessions_of(conn);
}

/// The name of `tenant`'s registry entry `field`. Every name a peer's
/// tenant id can add to the registry is made here:
/// `gateway.tenant.{id}.queue_wait_ns` and `.admitted`, resolved once per
/// tenant entry of the state, and `.rejected.overloaded`, counted per
/// refusal.
fn tenant_entry(tenant: u64, field: &str) -> String {
    format!("gateway.tenant.{tenant}.{field}")
}

fn admit(
    inner: &Inner,
    server: &SaloServer,
    header: Header,
    request: Incoming,
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
            return send_response(inner, conn, header, response);
        }
        let enqueued = Instant::now();
        let deadline = inner.deadline(enqueued);
        let conn = Arc::clone(conn);
        let pending = Pending { header, request, conn, bytes, enqueued, deadline };
        let admitted = state.admit(pending, &inner.options, || {
            let metrics = server.metrics();
            let queue_wait = metrics.histogram(&tenant_entry(tenant, "queue_wait_ns"));
            (queue_wait, metrics.counter(&tenant_entry(tenant, "admitted")))
        });
        if admitted.is_ok() {
            // Counted before it is submitted: whoever has the reply finds
            // the request in `gateway.admitted`.
            inner.counts.admitted.inc();
            state.dispatch(&inner.options, &mut out);
        }
        admitted.err()
    };
    write_replies(inner, out);
    if let Some(depth) = refused {
        inner.counts.rejected_overloaded.inc();
        server.metrics().counter(&tenant_entry(tenant, "rejected.overloaded")).inc();
        // Rough service-rate hint: two milliseconds per outstanding
        // request ahead of a retry.
        let response = Outgoing::Error(ErrorFrame {
            code: ErrorCode::Overloaded,
            message: "tenant or global admission quota is full".to_owned(),
            retry_after_ms: Some(2 * (depth as u64 + 1)),
        });
        send_response(inner, conn, header, response);
    }
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
        write_replies(inner, out.drain(..));
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
            let Some((conn, header)) = state.settle_layer(id, &inner.options, out) else { return };
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
            send_response(inner, &conn, header, response);
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

fn send_response(inner: &Inner, conn: &Arc<ConnShared>, header: Header, response: Outgoing) {
    write_replies(inner, [Reply { conn: Arc::clone(conn), header, response }]);
}

/// Writes the replies in order, gathering each run of consecutive replies
/// to one connection (up to [`WRITE_GATHER`] bytes) into a single
/// `write_all`; a failed write marks the connection dead.
fn write_replies(inner: &Inner, replies: impl IntoIterator<Item = Reply>) {
    let mut replies = replies.into_iter().peekable();
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
        let Ok(mut writer) = conn.writer.lock() else { continue };
        let written = wire::write_frame(&mut *writer, &bytes).is_ok();
        drop(writer);
        salo_trace::record_since("gateway.write_frame", "gateway", started, conn.id);
        if written {
            inner.counts.frames_written.add(frames);
        } else {
            conn.alive.store(false, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::HashSet;
    use std::io::Write;
    use std::sync::Condvar;

    use salo_core::FixedQkv;
    use salo_kernels::Qkv;
    use salo_patterns::{AttentionShape, HybridPattern};
    use salo_serve::{ServeError, ServeRequest, TokenQkv};

    use crate::client::{GatewayClient, GatewayError};
    use crate::state::tests::{admit, layer, open, opened, pending, sink_conn, Script, BYTES};
    use crate::state::{Open, WINDOW_ROUNDS};
    use crate::wire::{PrefillHead, Request, Response};

    /// Gateways bound by these tests run one at a time: the churn test
    /// counts every `gateway-conn-*` thread in the process as its own.
    fn one_gateway_at_a_time() -> MutexGuard<'static, ()> {
        static GATEWAYS: Mutex<()> = Mutex::new(());
        GATEWAYS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn one_worker() -> GatewayOptions {
        GatewayOptions {
            serve: ServeOptions { workers: 1, ..Default::default() },
            ..Default::default()
        }
    }

    /// A Longformer layer with one global token and heads of 64.
    fn longformer_layer(n: usize, window: usize, heads: usize) -> (HybridPattern, AttentionShape) {
        let pattern = salo_patterns::longformer(n, window, 1).expect("pattern");
        (pattern, AttentionShape::new(n, 64, heads).expect("shape"))
    }

    /// Layer results a test holds back. The served backend reports into a
    /// channel of its own, and a forwarding thread passes every message on
    /// to the gateway's, except the results of the held tenant's layers:
    /// those wait for [`Hold::release`]. The work runs on the server as it
    /// would; only its result is late. So an ordering that needs the
    /// server to be slower than a client holds by construction.
    struct Hold {
        tenant: u64,
        held: Mutex<Held>,
        submitted: Condvar,
    }

    #[derive(Default)]
    struct Held {
        /// The held tenant's layers, recorded under this lock as they are
        /// submitted, so that none of their results slips past.
        ids: HashSet<u64>,
        /// Until the release: the results held so far, and a sender on the
        /// gateway's channel to release them into.
        parked: Option<(Vec<ServeEvent>, Sender<ServeEvent>)>,
    }

    impl Hold {
        fn lock(&self) -> MutexGuard<'_, Held> {
            self.held.lock().expect("hold poisoned")
        }

        /// Blocks until the server has taken one of the held tenant's layers.
        fn wait_submitted(&self) {
            let held = self.submitted.wait_while(self.lock(), |held| held.ids.is_empty());
            drop(held.expect("hold poisoned"));
        }

        /// Sends on what was held, and holds nothing after.
        fn release(&self) {
            let Some((parked, events)) = self.lock().parked.take() else { return };
            for event in parked {
                let _ = events.send(event);
            }
        }

        /// Passes `results` on to `events` until the server and the backend
        /// have both let go of their end.
        fn forward(&self, results: &Receiver<ServeEvent>, events: &Sender<ServeEvent>) {
            for event in results {
                let mut held = self.lock();
                let Held { ids, parked } = &mut *held;
                if let (Some((parked, _)), ServeEvent::Layer(response)) = (parked, &event) {
                    if ids.contains(&response.id) {
                        parked.push(event);
                        continue;
                    }
                }
                drop(held);
                let _ = events.send(event);
            }
            self.release();
        }
    }

    /// The backend of a [`Hold`]: the served one, recording the held
    /// tenant's layers as it submits them.
    struct Holding {
        served: Served,
        hold: Arc<Hold>,
    }

    impl Backend for Holding {
        fn submit_into(&self, tenant: u64, request: ServeRequest) -> Result<u64, ServeError> {
            let mut held = self.hold.lock();
            let id = self.served.submit_into(tenant, request)?;
            if tenant == self.hold.tenant {
                held.ids.insert(id);
                self.hold.submitted.notify_all();
            }
            Ok(id)
        }

        fn open_session_into(&self, tenant: u64, request: Open) -> Result<u64, ServeError> {
            self.served.open_session_into(tenant, request)
        }

        fn step_session(&self, session: u64, token: Vec<TokenQkv>) -> Result<(), ServeError> {
            self.served.step_session(session, token)
        }

        fn close_session(&self, session: u64) -> Result<(), ServeError> {
            self.served.close_session(session)
        }
    }

    /// A gateway on a real server whose `tenant`'s layer results wait for
    /// the returned hold's release. Every reply is still the engine's own.
    fn holding_gateway(options: GatewayOptions, tenant: u64) -> (Gateway, Arc<Hold>) {
        let hold = Arc::new(Hold { tenant, held: Mutex::default(), submitted: Condvar::new() });
        let config = AcceleratorConfig::default();
        let gateway = Gateway::start("127.0.0.1:0", config, options, |server, events| {
            let (private, results) = std::sync::mpsc::channel();
            hold.lock().parked = Some((Vec::new(), events.clone()));
            let forwarder = Arc::clone(&hold);
            std::thread::spawn(move || forwarder.forward(&results, &events));
            let served = Served { server, events: private.into() };
            Box::new(Holding { served, hold: Arc::clone(&hold) })
        });
        (gateway.expect("bind gateway"), hold)
    }

    /// A wire prefill's heads against a direct engine run on the same
    /// configuration, bit for bit: raw `i16` rows, Q.16 weights, `f32` bits.
    fn assert_matches_engine(
        wire: &[PrefillHead],
        pattern: &HybridPattern,
        shape: AttentionShape,
        heads: Vec<Qkv>,
    ) {
        use salo_core::{AttentionRequest, Engine, PatternHandle, Salo};
        let mut engine = Salo::new(AcceleratorConfig::default()).engine();
        let pattern = PatternHandle::from_pattern(pattern.clone());
        let oracle = engine
            .execute(AttentionRequest::Prefill { pattern, shape, heads })
            .expect("oracle prefill")
            .into_prefill()
            .expect("prefill response");
        assert_eq!(wire.len(), oracle.heads.len());
        let bits = |m: &salo_kernels::Matrix<f32>| -> Vec<u32> {
            m.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        for (head, oracle_head) in wire.iter().zip(&oracle.heads) {
            let oracle_raw = oracle_head.raw.as_ref().expect("oracle raw");
            assert_eq!(head.raw.rows(), oracle_raw.rows());
            let reference_raw: Vec<i16> = oracle_raw.as_slice().iter().map(|x| x.raw()).collect();
            assert_eq!(head.raw.as_slice(), reference_raw.as_slice(), "prefill raw rows diverged");
            assert_eq!(
                &head.weights_q16,
                oracle_head.weights_q16.as_ref().expect("oracle weights"),
                "prefill weights diverged"
            );
            assert_eq!(bits(&head.output), bits(&oracle_head.output), "prefill f32 bits diverged");
        }
    }

    /// A writer that hands each frame to the test; `wire::write_frame`
    /// writes a frame in one `write_all`.
    struct Frames(Sender<Vec<u8>>);

    impl Write for Frames {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            let _ = self.0.send(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
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
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        let served = Served { server: Arc::clone(&server), events: events_tx.into() };
        let options = GatewayOptions { serve, ..Default::default() };
        let inner = Inner::new(options, server.metrics(), Box::new(served));
        let conn = sink_conn(1);
        let mut out = Vec::new();
        let mut request_id = 0;
        // Admits `request` and dispatches, as a reader does.
        let mut submit_one = |request: Incoming, conn: &Arc<ConnShared>, out: &mut Vec<Reply>| {
            request_id += 1;
            let pending = pending(conn, Header { tenant: 3, request_id }, request);
            admit(&mut inner.lock(), &inner.options, pending, out).expect("admitted");
        };
        // (queued, outstanding, in flight, (layers, sessions)).
        // `gateway.request_bytes` is `BYTES` per outstanding request the
        // client sent — the drain's own terminal close has no frame.
        let tables = || {
            let s = inner.lock();
            let tables = s.tables();
            let drain_closes = if s.drained() { tables.3 .1 } else { 0 };
            assert_eq!(s.request_bytes(), ((tables.1 - drain_closes) * BYTES) as i64);
            tables
        };
        let code_of = |reply: &Reply| match &reply.response {
            Outgoing::Error(frame) => Some(frame.code),
            _ => None,
        };
        // One 16-wide head over a sink window: an 8-row prompt, two tokens.
        let pattern = HybridPattern::builder(64)
            .window(salo_patterns::Window::causal(16).expect("window"))
            .global_token(0)
            .build()
            .expect("pattern");
        let sequence = Qkv::random(10, 16, 131);
        let tokens: Vec<_> = (8..10).map(|t| vec![TokenQkv::from_row(&sequence, t)]).collect();
        let open = |num_heads| Incoming::Open {
            pattern: pattern.clone(),
            head_dim: 16,
            num_heads,
            prompt: vec![FixedQkv::quantize(&Qkv::random(8, 16, 131))],
        };

        // Refused by the session table, then by the server's validation.
        submit_one(Incoming::Step { session: 99, token: tokens[0].clone() }, &conn, &mut out);
        assert_eq!(out.last().and_then(code_of), Some(ErrorCode::UnknownSession));
        submit_one(open(2), &conn, &mut out);
        assert_eq!(out.last().and_then(code_of), Some(ErrorCode::Invalid));
        assert_eq!((out.len(), tables()), (2, (0, 0, 0, (0, 0))));

        // A layer holds a round's share of the window until its event
        // arrives, so once a round of them is in flight the next one waits
        // in its queue; the first one's settle submits it, on this thread.
        // The replies are written, not gathered.
        let shape = AttentionShape::new(8, 4, 1).expect("shape");
        let layer = || Incoming::Prefill {
            pattern: salo_patterns::longformer(8, 2, 1).expect("pattern"),
            shape,
            heads: Qkv::random_heads(&shape, 1),
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
        submit_one(Incoming::Step { session: 0, token: Vec::new() }, &conn, &mut out);
        assert_eq!(tables(), (0, 1, 1, (0, 1)));
        on_event(&inner, events_rx.recv().expect("step failed"), &mut out);
        assert_eq!(out.last().and_then(code_of), Some(ErrorCode::Invalid));
        assert_eq!((out.len(), tables()), (4, opened));
        submit_one(Incoming::Step { session: 0, token: tokens[0].clone() }, &conn, &mut out);
        on_event(&inner, events_rx.recv().expect("stepped"), &mut out);
        assert!(matches!(
            out.last().expect("reply").response,
            Outgoing::Stepped { session: 0, .. }
        ));
        assert_eq!((out.len(), tables()), (5, opened));

        // A dead connection's queued request is dropped, not submitted;
        // another connection cannot reach the session.
        let dead = sink_conn(2);
        dead.alive.store(false, Ordering::Release);
        submit_one(Incoming::Step { session: 0, token: tokens[1].clone() }, &dead, &mut out);
        assert_eq!((out.len(), tables()), (5, opened));
        let stranger = sink_conn(3);
        submit_one(Incoming::Close { session: 0 }, &stranger, &mut out);
        assert_eq!(out.last().and_then(code_of), Some(ErrorCode::UnknownSession));
        assert_eq!((out.len(), tables()), (6, opened));

        // The owner dies: its session is closed without anyone waiting,
        // and the `Closed` event is dropped.
        inner.lock().close_sessions_of(&conn);
        on_event(&inner, events_rx.recv().expect("closed"), &mut out);
        assert_eq!((out.len(), tables()), (6, (0, 0, 0, (0, 0))));

        // The drain closes what is still open and gives up the submit
        // side. The terminal `Closed` answers the open under a deadline of
        // its own: a timer that runs before the event leaves it alone.
        submit_one(open(1), &conn, &mut out);
        on_event(&inner, events_rx.recv().expect("opened"), &mut out);
        // As after an idle `service_timeout`: a scan that found nothing.
        assert_eq!(
            inner.lock().expire(Instant::now() + 2 * inner.options.service_timeout, &mut out),
            0
        );
        assert!(inner.lock().drain(inner.deadline(Instant::now())).is_empty(), "none queued");
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
        let script = Box::new(Arc::new(Script::default()));
        let inner = Inner::new(GatewayOptions::default(), &MetricsRegistry::new(), script);
        let (a, b) = (sink_conn(1), sink_conn(2));
        let conn_of = |session| if session == 2 { &b } else { &a };
        let mut out = Vec::new();
        {
            let mut state = inner.lock();
            // The backend numbers the sessions in the order they open.
            for session in 0..4 {
                let header = Header { tenant: 1, request_id: 10 + session };
                let pending = pending(conn_of(session), header, open());
                admit(&mut state, &inner.options, pending, &mut out).expect("admitted");
                state.route_session_event(opened(session), &inner.options, &mut out);
            }
            out.clear();
            // Session 3's step first: deadlines never decrease in admission
            // order, and only its own is due.
            let mut due = None;
            for session in [3, 0, 1, 2] {
                let header = Header { tenant: 1, request_id: session };
                let step = Incoming::Step { session, token: Vec::new() };
                let mut pending = pending(conn_of(session), header, step);
                match due {
                    None => due = Some(pending.deadline),
                    Some(_) => pending.deadline += Duration::from_secs(1),
                }
                admit(&mut state, &inner.options, pending, &mut out).expect("admitted");
            }
            let due = due.expect("session 3's deadline");
            assert_eq!(state.expire(due, &mut out), 1, "session 3's deadline passed");
        }
        write_replies(&inner, out.drain(..));
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
        write_replies(&inner, out.drain(..));
        assert_eq!(inner.counts.frames_written.get(), written + 3);

        let s = inner.lock();
        assert_eq!((s.tables(), s.request_bytes()), ((0, 0, 0, (0, 4)), 0), "no waiter is left");
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
        let script = Box::new(Arc::new(Script::default()));
        let inner = Inner::new(options, &MetricsRegistry::new(), script);
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        // A connection whose peer reads what the gateway writes.
        let (frames_tx, frames) = std::sync::mpsc::channel();
        let conn = ConnShared::new(1, Box::new(Frames(frames_tx)));

        std::thread::scope(|scope| {
            let inner = &inner;
            scope.spawn(move || completion_loop(inner, &events_rx));
            std::thread::sleep(3 * SERVICE_TIMEOUT);
            // A reader's admission, dispatched to the backend as layer 0.
            let enqueued = Instant::now();
            let header = Header { tenant: 1, request_id: 7 };
            let deadline = inner.deadline(enqueued);
            let conn = Arc::clone(&conn);
            let pending =
                Pending { header, request: layer(), conn, bytes: BYTES, enqueued, deadline };
            admit(&mut inner.lock(), &inner.options, pending, &mut Vec::new()).expect("admitted");

            let frame = frames.recv_timeout(Duration::from_secs(10));
            let frame = frame.expect("a frame before the read deadline");
            let waited = enqueued.elapsed();
            let payload = wire::read_frame(&mut frame.as_slice()).expect("one whole frame");
            match wire::decode_response(&payload).expect("decodable") {
                (answered, Response::Error(frame)) => {
                    assert_eq!((answered, frame.code), (header, ErrorCode::TimedOut));
                }
                (_, other) => panic!("expected a TimedOut frame, got {other:?}"),
            }
            assert!(waited >= SERVICE_TIMEOUT, "answered {waited:?} after admission: early");
            assert!(waited < SERVICE_TIMEOUT + SLACK, "answered {waited:?} after admission: late");

            let late = ServeResponse {
                id: 0,
                result: Err(ServeError::WorkerLost),
                cache_hit: false,
                worker: None,
                latency_s: 0.0,
            };
            events_tx.send(ServeEvent::Layer(late)).expect("the loop is listening");
            // The last sender: the loop routes what is left and ends.
            drop(events_tx);
        });
        assert_eq!(inner.lock().tables(), (0, 0, 0, (0, 0)));
        assert_eq!((inner.counts.timed_out.get(), inner.counts.frames_written.get()), (1, 1));
    }

    /// Connections that come and go leave nothing behind: the acceptor
    /// joins every finished reader and drops its entry. Gateways bind one
    /// at a time, so any `gateway-conn-*` thread is this one's.
    #[test]
    fn connection_churn_leaves_no_entry_and_no_reader_thread() {
        let _gateways = one_gateway_at_a_time();
        let gateway =
            Gateway::bind("127.0.0.1:0", AcceleratorConfig::default(), one_worker()).expect("bind");
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

    /// The service deadline answers a request exactly once, with a typed
    /// `TimedOut` frame: the report counts it, the connection keeps serving,
    /// and whenever the work finishes, its completion writes no second frame.
    #[test]
    fn service_timeout_answers_once_and_the_connection_keeps_serving() {
        let _gateways = one_gateway_at_a_time();
        let options = GatewayOptions { service_timeout: Duration::from_millis(2), ..one_worker() };
        // The prefill's result is held until the client has read the
        // `TimedOut` frame: the deadline passes while the work is in flight.
        let (gateway, hold) = holding_gateway(options, 3);
        let mut client = GatewayClient::connect(gateway.local_addr(), 3).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(60))).expect("deadline");

        let (pattern, shape) = longformer_layer(1024, 128, 1);
        let heads = vec![Qkv::random(shape.seq_len, shape.head_dim, 1)];
        match client.prefill(pattern, shape, heads) {
            Err(GatewayError::Remote(frame)) => assert_eq!(frame.code, ErrorCode::TimedOut),
            Err(other) => panic!("expected a TimedOut frame, got {other}"),
            Ok(_) => panic!("expected a TimedOut frame, got the finished prefill"),
        }
        hold.release();
        // Stats are served by the reader, outside the deadline's reach.
        assert!(client.stats_json().expect("connection still serves").contains("serve."));

        // The server's shutdown waits for the work itself, so its
        // completion has arrived (and been dropped) by the time the report
        // is final.
        let report = gateway.shutdown();
        assert_eq!((report.admitted, report.timed_out), (1, 1));
        assert_eq!(report.frames_written, 2, "the TimedOut frame and the stats, nothing else");
        match client.recv() {
            Err(GatewayError::Wire(_)) => {} // connection closed, nothing buffered
            Err(other) => panic!("unexpected error after the timeout: {other}"),
            Ok((header, _)) => panic!("a second frame for request {}", header.request_id),
        }
    }

    /// Two tenants, one flooding: the flooder is clamped at its own quota
    /// with typed `Overloaded` rejections (retry hint included) while the
    /// well-behaved tenant's requests all succeed with bounded queue wait.
    #[test]
    fn flooding_tenant_is_rejected_while_good_tenant_is_served() {
        let _gateways = one_gateway_at_a_time();
        let options = GatewayOptions { tenant_quota: 3, ..one_worker() };
        // The flooder's results are held until one of its refusals has
        // arrived: its quota stays full while the rest of its flood is read.
        let (gateway, hold) = holding_gateway(options, 9);
        let addr = gateway.local_addr();

        let (pattern, shape) = longformer_layer(64, 8, 1);
        let make_request = |seed: u64| Request::Prefill {
            pattern: pattern.clone(),
            shape,
            heads: vec![Qkv::random(shape.seq_len, shape.head_dim, seed)],
        };

        // Tenant 9 floods: 32 pipelined sends, no reads until the harvest.
        let flood_total = 32u64;
        let mut flooder = GatewayClient::connect(addr, 9).expect("connect flooder");
        flooder.set_read_timeout(Some(Duration::from_secs(60))).expect("deadline");
        for i in 0..flood_total {
            flooder.send(&make_request(i)).expect("pipelined send");
        }

        // Tenant 2 runs a sequential closed loop against the backlog.
        let good_total = 8u64;
        let mut good = GatewayClient::connect(addr, 2).expect("connect good tenant");
        good.set_read_timeout(Some(Duration::from_secs(60))).expect("deadline");
        for i in 0..good_total {
            match good.call(&make_request(100 + i)) {
                Ok(Response::PrefillDone { .. }) => {}
                other => panic!("good tenant request {i} failed: {other:?}"),
            }
        }

        // Harvest the flood: every pipelined request gets a reply — either
        // completed work or a typed rejection — never a hang.
        let (mut admitted, mut rejected) = (0u64, 0u64);
        for _ in 0..flood_total {
            match flooder.recv().expect("flood reply") {
                (_, Response::PrefillDone { .. }) => admitted += 1,
                (_, Response::Error(frame)) => {
                    assert_eq!(frame.code, ErrorCode::Overloaded, "unexpected error: {frame:?}");
                    assert!(frame.retry_after_ms.is_some(), "Overloaded needs a retry hint");
                    rejected += 1;
                    hold.release();
                }
                (_, other) => panic!("unexpected flood reply: {other:?}"),
            }
        }
        assert!(rejected >= 1, "the flood never tripped admission control");
        assert_eq!(admitted + rejected, flood_total);

        // The starved tenant's queue wait stays bounded: DRR gives it a
        // quantum every round, so its p99 cannot absorb the whole backlog.
        let wait_p99_ns =
            gateway.metrics().histogram("gateway.tenant.2.queue_wait_ns").snapshot().quantile(0.99);
        assert!(
            wait_p99_ns < 10_000_000_000,
            "good tenant p99 queue wait unbounded: {wait_p99_ns} ns"
        );

        // The front door's counts are live in the registry: a `Stats` frame
        // read while the gateway still serves says what the final report
        // will, per tenant too. Every reply has been read, so they are final.
        let stats = good.stats_json().expect("stats");
        // A tenant is counted in one place: the gateway's three entries.
        let mut flooder_names: Vec<&str> =
            stats.split('"').filter(|token| token.contains(".tenant.9.")).collect();
        flooder_names.sort_unstable();
        assert_eq!(
            flooder_names,
            [
                "gateway.tenant.9.admitted",
                "gateway.tenant.9.queue_wait_ns",
                "gateway.tenant.9.rejected.overloaded"
            ]
        );
        let live = |name: &str, count: u64| {
            let entry = format!("\"{name}\":{count}");
            [',', '}'].iter().any(|end| stats.contains(&format!("{entry}{end}")))
        };
        for (name, count) in [
            ("gateway.tenant.9.rejected.overloaded", rejected),
            ("gateway.tenant.2.admitted", good_total),
        ] {
            assert!(live(name, count), "no {name} = {count} in the live stats: {stats}");
        }
        let tenant =
            |id: u64, field: &str| gateway.metrics().counter(&tenant_entry(id, field)).get();
        assert_eq!(tenant(2, "admitted"), good_total);
        assert_eq!(tenant(2, "rejected.overloaded"), 0, "good tenant must see no rejections");
        assert_eq!(tenant(9, "admitted"), admitted);
        assert_eq!(tenant(9, "rejected.overloaded"), rejected);

        let report = gateway.shutdown();
        assert_eq!(
            (report.admitted, report.rejected_overloaded),
            (good_total + admitted, rejected)
        );
        for (name, count) in
            [("admitted", report.admitted), ("rejected.overloaded", report.rejected_overloaded)]
        {
            let live = format!("\"gateway.{name}\":{count},");
            assert!(stats.contains(&live), "no {live} in the live stats: {stats}");
        }
    }

    /// Two tenants, two workers, one large prefill in flight: a tiny prefill
    /// another tenant sends behind it is answered first. Layer replies leave
    /// in completion order — wire clients correlate by `request_id` — so
    /// nobody waits behind a stranger's request for the sake of an order
    /// nobody asked for. Both replies are bit-identical to a direct engine
    /// run.
    #[test]
    fn a_small_prefill_is_answered_ahead_of_a_strangers_large_one() {
        let _gateways = one_gateway_at_a_time();
        let serve = ServeOptions { workers: 2, ..Default::default() };
        // Tenant 1's large result is held until the small reply and its
        // stats have been read: a gateway that kept layer replies in
        // submission order would never send the small one.
        let (gateway, hold) = holding_gateway(GatewayOptions { serve, ..Default::default() }, 1);
        let (large_pattern, large_shape) = longformer_layer(2048, 256, 4);
        let small_pattern = salo_patterns::vil_stage(8, 8, 3, 3, 1).expect("pattern");
        let small_shape = AttentionShape::new(64, 64, 1).expect("shape");
        let large_heads = Qkv::random_heads(&large_shape, 11);
        let small_heads = Qkv::random_heads(&small_shape, 12);

        let mut a = GatewayClient::connect(gateway.local_addr(), 1).expect("connect a");
        let mut b = GatewayClient::connect(gateway.local_addr(), 2).expect("connect b");
        b.set_read_timeout(Some(Duration::from_secs(60))).expect("deadline");
        let large_id = a
            .send(&Request::Prefill {
                pattern: large_pattern.clone(),
                shape: large_shape,
                heads: large_heads.clone(),
            })
            .expect("send large");
        // In flight: the server has taken it.
        hold.wait_submitted();
        let (heads, _, _) = b
            .prefill(small_pattern.clone(), small_shape, small_heads.clone())
            .expect("small prefill");
        // Results are counted as they finish, before they are sent: the
        // large one, tens of milliseconds of work, is still running on the
        // other worker.
        let stats = b.stats_json().expect("stats");
        assert!(stats.contains("\"serve.requests\":1,"), "the small reply waited: {stats}");
        assert_matches_engine(&heads, &small_pattern, small_shape, small_heads);

        hold.release();
        match a.recv().expect("large reply") {
            (header, Response::PrefillDone { heads, .. }) => {
                assert_eq!(header.request_id, large_id);
                assert_matches_engine(&heads, &large_pattern, large_shape, large_heads);
            }
            (_, other) => panic!("expected the large PrefillDone, got {other:?}"),
        }
        let report = gateway.shutdown();
        assert_eq!((report.serve.requests, report.serve.errors), (2, 0));
        assert_eq!(report.serve.per_worker_requests, vec![1, 1]);
    }
}
