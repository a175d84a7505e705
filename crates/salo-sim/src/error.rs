use std::error::Error;
use std::fmt;

use salo_fixed::FixedError;
use salo_kernels::KernelError;
use salo_scheduler::SchedulerError;

/// Errors from the accelerator simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// Input matrices do not match the plan's sequence length.
    ShapeMismatch {
        /// Plan sequence length.
        plan_n: usize,
        /// Matrix shape provided.
        got: (usize, usize),
    },
    /// A plan offered for decoding contains a window operation that
    /// reaches a key in the future of its query — the pattern was not
    /// causally clipped, so it cannot be executed token by token.
    AnticausalPlan {
        /// The query position of the offending operation.
        dest: usize,
        /// The future key it attends.
        key: usize,
    },
    /// A decode session has produced every position its plan covers.
    DecodeCapacity {
        /// The plan's sequence capacity.
        n: usize,
    },
    /// A decode step was requested before the prompt covered every global
    /// token: position `position` is not decodable until `min_step`.
    DecodeNotPrimed {
        /// The position the step would produce.
        position: usize,
        /// The first decodable position.
        min_step: usize,
    },
    /// A decode token row has the wrong dimension for its session.
    TokenDim {
        /// The session's head dimension.
        expected: usize,
        /// The row length provided.
        got: usize,
    },
    /// A decode state was built for a different plan than the one it is
    /// being executed against (stale state from an earlier session).
    StaleDecodeState {
        /// Sequence capacity the state was initialized for.
        state_n: usize,
        /// Sequence capacity of the plan being executed.
        plan_n: usize,
    },
    /// A previous step failed after it had already appended the token to
    /// the session history, leaving the state inconsistent; it must be
    /// [`reset`](crate::DecodeState::reset) before further use.
    PoisonedDecodeState,
    /// The shared K/V page pool has no free page and is at its configured
    /// capacity. The failing session is left clean (the token was not
    /// ingested); the step may be retried once other sessions release
    /// pages.
    PagePoolExhausted {
        /// Pages currently handed out to sessions.
        in_use: usize,
        /// The pool's configured capacity.
        capacity: usize,
    },
    /// Error from the fixed-point layer.
    Fixed(FixedError),
    /// Error from the kernel layer.
    Kernel(KernelError),
    /// Error from the scheduler layer.
    Scheduler(SchedulerError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ShapeMismatch { plan_n, got } => {
                write!(f, "plan expects {plan_n} rows, got {}x{}", got.0, got.1)
            }
            SimError::AnticausalPlan { dest, key } => {
                write!(f, "plan is not causal: query {dest} attends future key {key}")
            }
            SimError::DecodeCapacity { n } => {
                write!(f, "decode session exhausted its capacity of {n} positions")
            }
            SimError::DecodeNotPrimed { position, min_step } => {
                write!(
                    f,
                    "position {position} is not decodable before {min_step}: \
                     prime the prompt (it must cover every global token) first"
                )
            }
            SimError::TokenDim { expected, got } => {
                write!(f, "token row has dimension {got}, session expects {expected}")
            }
            SimError::StaleDecodeState { state_n, plan_n } => {
                write!(
                    f,
                    "decode state belongs to a different plan (state capacity {state_n}, \
                     plan capacity {plan_n}): reset the state for this plan"
                )
            }
            SimError::PoisonedDecodeState => {
                write!(
                    f,
                    "decode state is poisoned by an earlier failed step: \
                     reset it before decoding again"
                )
            }
            SimError::PagePoolExhausted { in_use, capacity } => {
                write!(
                    f,
                    "K/V page pool exhausted: {in_use} of {capacity} pages in use, \
                     none free for a new allocation"
                )
            }
            SimError::Fixed(e) => write!(f, "fixed-point error: {e}"),
            SimError::Kernel(e) => write!(f, "kernel error: {e}"),
            SimError::Scheduler(e) => write!(f, "scheduler error: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Fixed(e) => Some(e),
            SimError::Kernel(e) => Some(e),
            SimError::Scheduler(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FixedError> for SimError {
    fn from(e: FixedError) -> Self {
        SimError::Fixed(e)
    }
}

impl From<KernelError> for SimError {
    fn from(e: KernelError) -> Self {
        SimError::Kernel(e)
    }
}

impl From<SchedulerError> for SimError {
    fn from(e: SchedulerError) -> Self {
        SimError::Scheduler(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = SimError::ShapeMismatch { plan_n: 8, got: (4, 2) };
        assert!(e.to_string().contains("8"));
        assert!(e.source().is_none());
        let e: SimError = FixedError::EmptySoftmaxRow.into();
        assert!(e.source().is_some());
        let e: SimError = SchedulerError::EmptyPlan.into();
        assert!(!e.to_string().is_empty());
    }
}
