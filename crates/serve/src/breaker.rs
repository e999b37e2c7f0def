//! Circuit breaker: trip after K consecutive panicking flushes, recover
//! through a half-open probe.
//!
//! The breaker watches *flush outcomes* (one per assembled batch). A
//! clean flush resets the failure streak; a flush whose guarded forward
//! panicked — even if bisection then salvaged every batch-mate — counts
//! one failure. After `threshold` consecutive failures the breaker
//! **opens**: admission rejects every request with a typed
//! [`CircuitOpen`](crate::ServeError::CircuitOpen) carrying the remaining
//! cooldown. Once the cooldown elapses the next admission moves it to
//! **half-open**: requests flow again, and the very next flush outcome
//! decides — success closes the breaker, another panic re-opens it and
//! restarts the cooldown.
//!
//! State transitions are mirrored into [`Metrics`] (`breaker_state`,
//! `breaker_trips`) so operators can see trips without scraping logs.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::Metrics;

/// Breaker state machine: `Closed → Open → HalfOpen → {Closed, Open}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: admission flows, failures are being counted.
    Closed,
    /// Tripped: admission is rejected until the cooldown elapses.
    Open,
    /// Probing: admission flows; the next flush outcome decides.
    HalfOpen,
}

impl BreakerState {
    /// Stable numeric encoding (metrics gauge): 0 closed, 1 open, 2 half-open.
    pub fn as_u8(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    fn from_u8(v: u8) -> BreakerState {
        match v {
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }
}

/// The breaker itself; shared between the admission path (checks) and
/// the inference workers (outcome reports).
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    state: AtomicU8,
    consecutive: AtomicU32,
    opened_at: Mutex<Option<Instant>>,
    metrics: Arc<Metrics>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl CircuitBreaker {
    /// A closed breaker that trips after `threshold` consecutive
    /// panicking flushes and stays open for `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration, metrics: Arc<Metrics>) -> CircuitBreaker {
        assert!(threshold >= 1, "breaker threshold must be >= 1");
        CircuitBreaker {
            threshold,
            cooldown,
            state: AtomicU8::new(BreakerState::Closed.as_u8()),
            consecutive: AtomicU32::new(0),
            opened_at: Mutex::new(None),
            metrics,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        BreakerState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Admission check: `Ok` when closed or half-open. When open, moves
    /// to half-open once the cooldown has elapsed (admitting this
    /// request as the probe); otherwise returns the remaining cooldown.
    pub fn admit(&self, now: Instant) -> Result<(), u64> {
        if self.state() != BreakerState::Open {
            return Ok(());
        }
        let opened = *lock(&self.opened_at);
        let Some(opened) = opened else {
            // Open with no timestamp cannot happen in practice; fail safe
            // by probing.
            self.set_state(BreakerState::HalfOpen);
            return Ok(());
        };
        let elapsed = now.saturating_duration_since(opened);
        if elapsed >= self.cooldown {
            self.set_state(BreakerState::HalfOpen);
            Ok(())
        } else {
            Err((self.cooldown - elapsed).as_millis().max(1) as u64)
        }
    }

    /// A flush completed without panicking: reset the streak and close.
    pub fn record_success(&self) {
        self.consecutive.store(0, Ordering::Release);
        if self.state() != BreakerState::Closed {
            self.set_state(BreakerState::Closed);
        }
    }

    /// A flush panicked (whole batch or any bisected fragment): extend
    /// the streak; trip when it reaches the threshold, and re-open
    /// immediately when probing half-open.
    pub fn record_failure(&self, now: Instant) {
        let streak = self.consecutive.fetch_add(1, Ordering::AcqRel) + 1;
        let probing = self.state() == BreakerState::HalfOpen;
        if probing || streak >= self.threshold {
            *lock(&self.opened_at) = Some(now);
            if self.state() != BreakerState::Open {
                self.metrics.record_breaker_trip();
            }
            self.set_state(BreakerState::Open);
        }
    }

    fn set_state(&self, s: BreakerState) {
        self.state.store(s.as_u8(), Ordering::Release);
        self.metrics.set_breaker_state(s.as_u8());
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the breaker takes `Instant`s; tests offset them from one real base instant"
)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(
            threshold,
            Duration::from_millis(cooldown_ms),
            Arc::new(Metrics::default()),
        )
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let b = breaker(3, 100);
        let now = Instant::now();
        b.record_failure(now);
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.metrics.snapshot().breaker_trips, 1);
        // Within the cooldown: rejected with a positive hint.
        let retry = b.admit(now + Duration::from_millis(10)).unwrap_err();
        assert!((1..=100).contains(&retry), "retry hint {retry}");
    }

    #[test]
    fn success_resets_the_streak() {
        let b = breaker(2, 100);
        let now = Instant::now();
        b.record_failure(now);
        b.record_success();
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Closed, "streak must have reset");
    }

    #[test]
    fn half_open_probe_closes_on_success_and_reopens_on_failure() {
        let b = breaker(1, 50);
        let t0 = Instant::now();
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown elapsed: the next admission probes.
        assert!(b.admit(t0 + Duration::from_millis(60)).is_ok());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);

        // Probe that fails re-opens immediately and restarts the cooldown.
        b.record_failure(t0);
        assert!(b.admit(t0 + Duration::from_millis(60)).is_ok());
        let t1 = t0 + Duration::from_millis(61);
        b.record_failure(t1);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.admit(t1 + Duration::from_millis(10)).is_err());
        // Three Open transitions: boot failure, post-reset failure,
        // failed probe.
        assert_eq!(b.metrics.snapshot().breaker_trips, 3);
    }
}
