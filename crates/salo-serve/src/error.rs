use std::error::Error;
use std::fmt;

use salo_core::SaloError;

/// Errors surfaced by the serving runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request is internally inconsistent (heads disagree with the
    /// declared shape, or the pattern disagrees with the sequence length).
    InvalidRequest {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// Compilation or execution failed inside the runtime.
    Salo(SaloError),
    /// The server has shut down: the response channel is closed and no
    /// further results will arrive.
    Closed,
    /// The worker a request was sent to is gone (its thread exited); the
    /// affected requests fail instead of being silently dropped.
    WorkerLost,
    /// A decode step or close referenced a session id the server does not
    /// know (never opened, already closed, or failed to open).
    UnknownSession {
        /// The offending session id.
        session: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            ServeError::Salo(e) => write!(f, "execution error: {e}"),
            ServeError::Closed => write!(f, "server is shut down"),
            ServeError::WorkerLost => write!(f, "worker thread is gone"),
            ServeError::UnknownSession { session } => {
                write!(f, "unknown decode session {session}")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Salo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SaloError> for ServeError {
    /// Folds engine-level errors into the serving surface. The engine's
    /// request-shaped variants map onto their serving twins — so a
    /// worker's engine error reaches the client as the same
    /// `UnknownSession`/`InvalidRequest` it would have gotten from the
    /// front-end — and everything else wraps as [`ServeError::Salo`].
    fn from(e: SaloError) -> Self {
        match e {
            SaloError::UnknownSession { session } => ServeError::UnknownSession { session },
            SaloError::InvalidRequest { reason } => ServeError::InvalidRequest { reason },
            // A head count or a row length that disagrees with the shape
            // is the client's malformed request, not an internal
            // execution failure.
            e @ (SaloError::HeadCountMismatch { .. } | SaloError::ShapeMismatch { .. }) => {
                ServeError::InvalidRequest { reason: e.to_string() }
            }
            other => ServeError::Salo(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_patterns::PatternError;

    #[test]
    fn display_and_source() {
        let e = ServeError::InvalidRequest { reason: "nope".into() };
        assert!(e.to_string().contains("nope"));
        assert!(e.source().is_none());

        let e: ServeError = SaloError::from(PatternError::EmptySequence).into();
        assert!(e.to_string().contains("execution error"));
        assert!(e.source().is_some());

        assert_eq!(ServeError::Closed.to_string(), "server is shut down");
        assert_eq!(ServeError::WorkerLost.to_string(), "worker thread is gone");
    }
}
