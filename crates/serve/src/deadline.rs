//! Request deadlines and shedding priorities.
//!
//! Every request may carry an *absolute* [`Deadline`] (client-supplied
//! relative milliseconds, or the server's `--default-deadline-ms`). The
//! deadline is checked four times, so expired work is shed at the
//! earliest possible point instead of wasting a forward pass:
//!
//! 1. **admission** — an already-expired request is rejected without
//!    ever entering the queue;
//! 2. **batch assembly** — the assembler answers expired queued requests
//!    with [`DeadlineExceeded`](crate::ServeError::DeadlineExceeded) and
//!    leaves them out of the batch;
//! 3. **pre-forward** — an inference worker re-checks right before the
//!    forward pass (the batch may have waited in the in-flight channel);
//! 4. **post-inference** — a response computed after its deadline is
//!    reported as `DeadlineExceeded`, because the client has already
//!    given up on it.
//!
//! [`Priority`] orders admission shedding: under load the server rejects
//! low-priority work first (watermark on queue depth), then normal
//! priority (admission timeout), and only sheds high-priority requests
//! when the queue is hard-full.

use std::time::{Duration, Instant};

/// Absolute per-request deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline(Instant);

impl Deadline {
    /// A deadline `ms` milliseconds from now.
    #[expect(
        clippy::disallowed_methods,
        reason = "deadlines are wall-clock by definition; serving is not deterministic-replay code"
    )]
    pub fn in_ms(ms: u64) -> Deadline {
        Deadline(Instant::now() + Duration::from_millis(ms))
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Deadline {
        Deadline(instant)
    }

    /// The absolute instant this deadline expires.
    pub fn instant(&self) -> Instant {
        self.0
    }

    /// Whether the deadline has expired as of `now`.
    pub fn expired(&self, now: Instant) -> bool {
        now >= self.0
    }
}

/// Shedding priority: under overload the server rejects `Low` work
/// first, `Normal` after the admission timeout, and `High` only when the
/// queue is hard-full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Shed last (still bounded by queue capacity).
    High,
    /// The default class: blocks up to the admission timeout when full.
    #[default]
    Normal,
    /// Shed first: rejected immediately once the queue passes the low
    /// watermark (3/4 of capacity), and never blocks on admission.
    Low,
}

impl Priority {
    /// Parse a priority name (`high` | `normal` | `low`).
    pub fn parse(s: &str) -> Result<Priority, String> {
        match s {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!("unknown priority `{other}` (use high|normal|low)")),
        }
    }

    /// Canonical lower-case name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Per-request submission options (see [`Server::submit_with`]).
///
/// [`Server::submit_with`]: crate::Server::submit_with
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Absolute deadline; `None` falls back to the server's default
    /// deadline (which may itself be "no deadline").
    pub deadline: Option<Deadline>,
    /// Shedding priority class.
    pub priority: Priority,
    /// Target model slot; `None` routes to [`DEFAULT_MODEL`].
    ///
    /// [`DEFAULT_MODEL`]: crate::registry::DEFAULT_MODEL
    pub model: Option<String>,
}

impl SubmitOptions {
    /// Options with a deadline `ms` milliseconds out.
    pub fn with_deadline_ms(ms: u64) -> SubmitOptions {
        SubmitOptions {
            deadline: Some(Deadline::in_ms(ms)),
            ..SubmitOptions::default()
        }
    }

    /// Options targeting a named model slot.
    pub fn for_model(name: &str) -> SubmitOptions {
        SubmitOptions {
            model: Some(name.to_string()),
            ..SubmitOptions::default()
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests check deadlines against the real clock they are defined on"
)]
mod tests {
    use super::*;

    #[test]
    fn deadline_expiry_is_monotone() {
        let now = Instant::now();
        let d = Deadline::at(now + Duration::from_millis(5));
        assert!(!d.expired(now));
        assert!(d.expired(now + Duration::from_millis(5)));
        assert!(d.expired(now + Duration::from_millis(50)));
        assert!(Deadline::in_ms(0).expired(Instant::now()));
    }

    #[test]
    fn priority_parses_and_orders() {
        assert_eq!(Priority::parse("high").unwrap(), Priority::High);
        assert_eq!(Priority::parse("normal").unwrap(), Priority::Normal);
        assert_eq!(Priority::parse("low").unwrap(), Priority::Low);
        assert!(Priority::parse("urgent").is_err());
        assert!(Priority::High < Priority::Normal);
        assert!(Priority::Normal < Priority::Low);
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::Low.as_str(), "low");
    }

    #[test]
    fn submit_options_builders() {
        let o = SubmitOptions::with_deadline_ms(10);
        assert!(o.deadline.is_some());
        assert_eq!(o.priority, Priority::Normal);
        let m = SubmitOptions::for_model("ecg");
        assert_eq!(m.model.as_deref(), Some("ecg"));
        assert!(m.deadline.is_none());
    }
}
