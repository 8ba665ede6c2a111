//! Request-lifecycle resilience: deadlines, cooperative cancellation and
//! the transient-fault retry backoff.
//!
//! ACROBAT's lazy-DFG runtime interleaves many requests' tensor work into
//! shared flushes, so one faulty or slow request can poison its neighbours
//! unless the runtime carries explicit per-request lifecycle state.  This
//! module provides the three primitives the serving layer threads through
//! an [`crate::ExecutionContext`]:
//!
//! * [`CancelToken`] — cooperative cancellation, checked at flush
//!   boundaries and between batched launches;
//! * [`Deadline`] — a latency budget in *virtual* time (compared against
//!   the device model's accumulated time, deterministic and reproducible);
//! * `backoff_us` — the exponential backoff before each retry of a flush
//!   that hit a *transient* device fault
//!   ([`acrobat_tensor::FaultClass::Transient`]; the retry budget is
//!   [`crate::RuntimeOptions::max_retries`]).  A retry reuses the
//!   aborted-flush replan machinery: a failed flush leaves the unexecuted
//!   suffix of the plan pending, so a retry simply replans and reruns it,
//!   bit-for-bit.  Backoff is charged as virtual time to the device cost
//!   model rather than slept.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use acrobat_tensor::TensorError;

/// Cooperative cancellation flag shared between a request's submitter and
/// its execution context.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same flag.
/// Cancellation is *cooperative*: the runtime polls the token at flush
/// boundaries and between batched kernel launches, so an in-flight batch
/// always completes before the request observes [`TensorError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation.  Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A per-request latency budget.
///
/// The default is [`Deadline::Unlimited`].  Virtual deadlines compare
/// against the *modeled* time a context has accumulated
/// ([`crate::RuntimeStats::total_us`]), which makes deadline behaviour
/// deterministic — the chaos harness relies on this to predict exactly
/// which requests miss their budget.  There is deliberately no wall-clock
/// variant: it would make a request's outcome depend on the machine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Deadline {
    /// No deadline.
    #[default]
    Unlimited,
    /// Budget in modeled microseconds; a check trips once the context's
    /// accumulated modeled time reaches the budget (so a zero budget trips
    /// on the first check, deterministically).
    Virtual {
        /// Modeled-microsecond budget.
        budget_us: f64,
    },
}

impl Deadline {
    /// A virtual deadline of `budget_us` modeled microseconds.
    pub fn virtual_us(budget_us: f64) -> Deadline {
        Deadline::Virtual { budget_us }
    }

    /// Checks the budget against `spent_us` modeled microseconds.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DeadlineExceeded`] when the budget is spent.
    pub fn check(&self, spent_us: f64) -> Result<(), TensorError> {
        match *self {
            Deadline::Unlimited => Ok(()),
            Deadline::Virtual { budget_us } => {
                if spent_us >= budget_us {
                    Err(TensorError::DeadlineExceeded { spent_us, budget_us })
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Backoff before the first retry of a flush, modeled µs.
pub(crate) const BACKOFF_BASE_US: f64 = 50.0;

/// Backoff charged before the `attempt`-th retry (1-based) of a flush:
/// `BACKOFF_BASE_US * 2^(attempt-1)` modeled µs, charged to the context's
/// statistics (and thus counted against any virtual deadline) rather than
/// slept.
pub(crate) fn backoff_us(attempt: u32) -> f64 {
    BACKOFF_BASE_US * f64::from(2u32.saturating_pow(attempt.saturating_sub(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        b.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn virtual_deadline_trips_deterministically() {
        assert!(Deadline::Unlimited.check(1e12).is_ok());
        let d = Deadline::virtual_us(100.0);
        assert!(d.check(99.9).is_ok());
        let err = d.check(100.0).unwrap_err();
        assert_eq!(err, TensorError::DeadlineExceeded { spent_us: 100.0, budget_us: 100.0 });
        // A zero budget trips on the very first check.
        assert!(Deadline::virtual_us(0.0).check(0.0).is_err());
    }

    #[test]
    fn backoff_is_exponential() {
        assert_eq!(backoff_us(1), BACKOFF_BASE_US);
        assert_eq!(backoff_us(2), 2.0 * BACKOFF_BASE_US);
        assert_eq!(backoff_us(3), 4.0 * BACKOFF_BASE_US);
        assert_eq!(crate::RuntimeOptions::default().max_retries, 0, "retry is opt-in");
    }
}
