//! Decode sessions in the serving runtime.
//!
//! A *session* is a whole generation: one compiled causal plan (shared
//! through the [`PlanCache`](crate::PlanCache), so repeated generations of
//! the same pattern/shape skip the scheduler and lowering passes), plus
//! per-head persistent K/V state that lives **inside one worker's engine**
//! (`salo_core::LoweredEngine`) for the session's lifetime. Pinning the
//! state to a worker keeps it unsynchronized and cache-warm; the one
//! session table (`SessionRegistry`) maps session ids to their pinned
//! worker so every step is sent straight to the same accelerator
//! instance.
//!
//! A session's handshake, steps and close leave the runtime as
//! [`ServeEvent`]s on the [`EventSink`] its open came in with, sent by the
//! pinned worker — the same way a layer response leaves. A generation is
//! ordered by construction (each step ingests the previous one's
//! context), which is why the runtime has no thread that reorders
//! results: it would hold step events behind the slowest layer in flight.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};

use salo_core::engine::{check_open_prompt, PromptHead};
use salo_core::{FixedQkv, HeadStep};
use salo_kernels::Qkv;
use salo_patterns::HybridPattern;

use crate::{ServeError, ServeResponse};

pub use salo_core::TokenQkv;

/// A request to open a decode session: its prompt as `f32` rows ([`Qkv`],
/// the default), or already quantized where it arrived ([`FixedQkv`] — how
/// the gateway hands an `Open` over, and the only form that reaches a
/// worker: [`SaloServer`](crate::SaloServer) quantizes an `f32` prompt on
/// the caller's thread).
#[derive(Debug, Clone)]
pub struct SessionRequest<P = Qkv> {
    /// The hybrid pattern over the session's full capacity (prompt plus
    /// generated tokens). The pinned worker clips it to its causal view;
    /// passing an already-causal pattern is fine. A pattern with nothing
    /// causal in it (no globals, and no window or residual reaching the
    /// diagonal or below) is refused there, in the session's
    /// [`ServeEvent::Opened`].
    pub pattern: HybridPattern,
    /// Head dimension.
    pub head_dim: usize,
    /// Number of heads (one persistent K/V state each).
    pub num_heads: usize,
    /// Per-head prompt rows; every head must provide the same number of
    /// rows, and the prompt must cover every global token
    /// (`rows >= min_step`).
    pub prompt: Vec<P>,
}

impl<P: PromptHead> SessionRequest<P> {
    /// Validates the request by the engines' own open rule
    /// ([`check_open_prompt`]). The causal clip keeps every global, so
    /// the first decodable step is the one after the last global, known
    /// without building the clip.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] on any inconsistency of the
    /// prompt with the pattern and shape. An empty causal clip is not
    /// caught here; the worker refuses it in the `Opened` event.
    pub fn validate(&self) -> Result<(), ServeError> {
        let min_step = self.pattern.globals().last().map_or(0, |&g| g + 1);
        check_open_prompt(self.pattern.n(), min_step, self.head_dim, self.num_heads, &self.prompt)?;
        Ok(())
    }
}

impl From<SessionRequest> for SessionRequest<FixedQkv> {
    /// Quantizes the prompt head by head ([`FixedQkv::quantize`]), each
    /// `f32` head dropped as soon as it is converted.
    fn from(request: SessionRequest) -> Self {
        let SessionRequest { pattern, head_dim, num_heads, prompt } = request;
        let prompt = prompt.into_iter().map(|head| FixedQkv::quantize(&head)).collect();
        SessionRequest { pattern, head_dim, num_heads, prompt }
    }
}

/// What the runtime reports once a session is open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// The worker the session is pinned to.
    pub worker: usize,
    /// First decodable position (the prompt already covers up to here).
    pub min_step: usize,
    /// Position the next step will produce.
    pub position: usize,
    /// Sequence capacity.
    pub capacity: usize,
    /// Whether the compiled plan came from the cache.
    pub cache_hit: bool,
}

/// One completed decode step, all heads.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeStep {
    /// The position this step produced.
    pub position: usize,
    /// Per-head output rows, in the engine API's backend-neutral
    /// [`HeadStep`] form (the serving workers run the fixed-point
    /// [`LoweredEngine`](salo_core::LoweredEngine), so `raw` and
    /// `weight_q16` are always present).
    pub heads: Vec<HeadStep>,
    /// The worker that executed it.
    pub worker: usize,
}

/// Where a request's events go: a `Sender<ServeEvent>` behind an `Arc`, so
/// that clones of one sink are known to be one channel.
///
/// Every `Sender` a caller passes is made into a sink of its own. A front
/// end that reads many sessions from one receiver (the gateway) makes one
/// sink and hands clones of it to every
/// [`submit_into`](crate::SaloServer::submit_into) and
/// [`open_session_into`](crate::SaloServer::open_session_into): the steps
/// one worker pass completes for its sessions then arrive as one
/// [`ServeEvent::Steps`], one wake of the receiver per pass instead of
/// one per step.
#[derive(Debug, Clone)]
pub struct EventSink(Arc<Sender<ServeEvent>>);

impl EventSink {
    /// Sends one message. A receiver that has gone is no error: the
    /// client stopped reading, and the work is counted all the same.
    pub(crate) fn send(&self, event: ServeEvent) {
        let _ = self.0.send(event);
    }

    /// Whether `other` is a clone of this sink.
    pub(crate) fn is(&self, other: &EventSink) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl From<Sender<ServeEvent>> for EventSink {
    fn from(sender: Sender<ServeEvent>) -> Self {
        Self(Arc::new(sender))
    }
}

/// What the runtime sends on the channel a request came in with: a layer
/// request's response, or a session's events in execution order.
#[derive(Debug, Clone)]
pub enum ServeEvent {
    /// A layer request submitted with
    /// [`submit_into`](crate::SaloServer::submit_into) completed or
    /// failed. Layers complete in whatever order their workers finish
    /// them; the response carries its request id.
    Layer(ServeResponse),
    /// The session finished opening (plan resolved, prompt ingested) — or
    /// failed to.
    Opened {
        /// The session id.
        session: u64,
        /// Session parameters on success, the failure otherwise.
        result: Result<SessionInfo, ServeError>,
    },
    /// One decode step completed or failed. A malformed token — wrong
    /// head count, or a wrong row length on *any* head — is rejected
    /// before any head moves: the session stays live at the same
    /// position and decodes on, whether the step ran alone or shared its
    /// tick with other sessions. A failure that lands after a head has
    /// moved (a bounded pool refusing a later head its page, a numeric
    /// failure inside the datapath) leaves the heads desynced and retires
    /// the session: the runtime drops it, a final
    /// [`Closed`](Self::Closed) follows, and further steps report
    /// [`ServeError::UnknownSession`].
    ///
    /// One rule for every step
    /// [`step_session`](crate::SaloServer::step_session) accepted: it
    /// reaches the session's pinned worker and is answered by exactly one
    /// `Step` event. If the session died first — retired by an earlier
    /// step's failure, or closed from another thread — that event carries
    /// the engine's `UnknownSession` and may arrive after the session's
    /// terminal [`Closed`](Self::Closed).
    Step {
        /// The session id.
        session: u64,
        /// The step outputs, or the failure.
        result: Result<DecodeStep, ServeError>,
        /// Submission-to-completion latency of the step, in seconds.
        latency_s: f64,
    },
    /// The session was closed (explicitly, by a poisoning failure, or
    /// because its pinned worker died).
    Closed {
        /// The session id.
        session: u64,
        /// Tokens the session had ingested (prompt + steps); `None` when
        /// the pinned worker died and took the count with it.
        position: Option<usize>,
    },
    /// The steps one worker pass completed for sessions sharing one
    /// [`EventSink`], in the order the pass ran them: each step's
    /// [`Step`](Self::Step), followed by its session's
    /// [`Closed`](Self::Closed) when the step retired it. Sent only when
    /// the pass ran two or more steps owed to the sink; a step alone on its
    /// sink — always so on a session's own channel — arrives as its plain
    /// events. Holds nothing else, and never another `Steps`.
    Steps(Vec<ServeEvent>),
}

/// The client's end of a decode session: its id plus the event channel
/// the pinned worker reports into.
#[derive(Debug)]
pub struct DecodeSessionHandle {
    pub(crate) id: u64,
    pub(crate) events: Receiver<ServeEvent>,
}

impl DecodeSessionHandle {
    /// The session id, as used by
    /// [`step_session`](crate::SaloServer::step_session) and
    /// [`close_session`](crate::SaloServer::close_session).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks for the next session event.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] once the runtime has shut down and
    /// every event has been delivered.
    pub fn recv(&self) -> Result<ServeEvent, ServeError> {
        self.events.recv().map_err(|_| ServeError::Closed)
    }

    /// Blocks until the open handshake completes, returning the session
    /// parameters.
    ///
    /// # Errors
    ///
    /// Propagates the open failure, or [`ServeError::Closed`].
    pub fn wait_open(&self) -> Result<SessionInfo, ServeError> {
        match self.recv()? {
            ServeEvent::Opened { result, .. } => result,
            _ => Err(ServeError::Closed), // protocol violation: channel is dead to us
        }
    }

    /// Blocks for the next completed step, skipping non-step events.
    ///
    /// # Errors
    ///
    /// Propagates step failures, or [`ServeError::Closed`] after shutdown
    /// or once the session is closed.
    pub fn next_step(&self) -> Result<DecodeStep, ServeError> {
        loop {
            match self.recv()? {
                ServeEvent::Step { result, .. } => return result,
                ServeEvent::Closed { .. } => return Err(ServeError::Closed),
                ServeEvent::Opened { result, .. } => {
                    result?; // surface an open failure instead of looping
                }
                // Never sent on a session's own channel.
                ServeEvent::Layer(_) | ServeEvent::Steps(_) => {}
            }
        }
    }
}

/// The one table of live sessions, shared by the front end and the
/// workers.
///
/// Two parties keep it honest: the server front end admits a session at
/// [`open_session`](crate::SaloServer::open_session) — pinning it to a
/// worker — and routes `step_session` / `close_session` from its entry;
/// the pinned worker removes a session the moment it is retired by a
/// failure (a poisoning step, a failed open) — *before* emitting the
/// failure event, so a client that has observed the error is guaranteed
/// further `step_session` calls report
/// [`ServeError::UnknownSession`](crate::ServeError::UnknownSession), and
/// the next placement no longer counts it against its worker.
#[derive(Debug)]
pub(crate) struct SessionRegistry {
    table: Mutex<Sessions>,
}

/// A live session's entry: where its steps go and where its events are
/// owed.
#[derive(Debug)]
pub(crate) struct LiveSession {
    /// The worker whose engine holds the session's K/V state.
    pub worker: usize,
    /// The sink the session's open came in with.
    pub events: EventSink,
}

/// The table behind [`SessionRegistry::lock`]. `pinned` is kept in step
/// with `live` by the only two methods that change either.
#[derive(Debug)]
pub(crate) struct Sessions {
    live: HashMap<u64, LiveSession>,
    /// Live sessions pinned to each worker.
    pinned: Vec<usize>,
}

impl SessionRegistry {
    pub fn new(workers: usize) -> Self {
        Self { table: Mutex::new(Sessions { live: HashMap::new(), pinned: vec![0; workers] }) }
    }

    pub fn lock(&self) -> MutexGuard<'_, Sessions> {
        self.table.lock().expect("session table poisoned")
    }
}

impl Sessions {
    /// Picks the worker a new session is pinned to. Sessions are
    /// long-lived, so the primary signal is how many live sessions each
    /// worker already hosts; `load_of` — a worker's transient queue depth
    /// — only breaks ties (alone it would be 0 everywhere whenever the
    /// queues are idle and pin every session to worker 0).
    pub fn place(&self, load_of: impl Fn(usize) -> usize) -> usize {
        (0..self.pinned.len()).min_by_key(|&w| (self.pinned[w], load_of(w), w)).unwrap_or(0)
    }

    pub fn insert(&mut self, session: u64, entry: LiveSession) {
        self.pinned[entry.worker] += 1;
        self.live.insert(session, entry);
    }

    /// Removes the session and frees its placement slot; `None` if it was
    /// not live.
    pub fn remove(&mut self, session: u64) -> Option<LiveSession> {
        let entry = self.live.remove(&session)?;
        self.pinned[entry.worker] -= 1;
        Some(entry)
    }

    pub fn get(&self, session: u64) -> Option<&LiveSession> {
        self.live.get(&session)
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }
}
