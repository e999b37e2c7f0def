//! Serving metrics: latency percentiles per outcome, throughput, queue
//! depth, and overload/failure counters.
//!
//! Counters are lock-free atomics updated from the admission and batcher
//! paths; per-request latencies append to mutex-guarded buffers (one push
//! per answered request, far off the model-execution hot path). Latency
//! accounting splits each request into *queue* time (submit → batch
//! dequeue) and *total* time (submit → response ready); percentiles are
//! nearest-rank over the per-outcome population — completions, deadline
//! expiries, and inference failures are summarized separately so overload
//! behavior is measurable, not just asserted.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

/// Live counters for one server instance.
pub struct Metrics {
    received: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    model_not_found: AtomicU64,
    inference_failures: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_state: AtomicU8,
    inflight_batches: AtomicU64,
    queue_depth: AtomicU64,
    batches: AtomicU64,
    swaps: AtomicU64,
    swap_failures: AtomicU64,
    total_us: Mutex<Vec<u64>>,
    queue_us: Mutex<Vec<u64>>,
    deadline_us: Mutex<Vec<u64>>,
    failure_us: Mutex<Vec<u64>>,
    started: Instant,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            received: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            model_not_found: AtomicU64::new(0),
            inference_failures: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            breaker_state: AtomicU8::new(0),
            inflight_batches: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            swap_failures: AtomicU64::new(0),
            total_us: Mutex::new(Vec::new()),
            queue_us: Mutex::new(Vec::new()),
            deadline_us: Mutex::new(Vec::new()),
            failure_us: Mutex::new(Vec::new()),
            #[expect(
                clippy::disallowed_methods,
                reason = "uptime/throughput metrics measure real elapsed time and affect no model state"
            )]
            started: Instant::now(),
        }
    }
}

impl Metrics {
    /// A request passed admission and entered the queue.
    pub fn record_received(&self) {
        self.received.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A structurally invalid request was rejected at submit.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission control shed a request (queue full / watermark /
    /// breaker open); it never entered the queue.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A request's deadline expired (at admission, assembly, pre-forward,
    /// or post-inference); `total_us` is submit → expiry-detection when
    /// the request had been admitted, 0 when rejected at admission.
    pub fn record_deadline_exceeded(&self, total_us: u64) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        lock(&self.deadline_us).push(total_us);
    }

    /// A request named a model with no registry slot.
    pub fn record_model_not_found(&self) {
        self.model_not_found.fetch_add(1, Ordering::Relaxed);
    }

    /// Inference panicked on this request even in isolation (poison).
    pub fn record_inference_failure(&self, total_us: u64) {
        self.inference_failures.fetch_add(1, Ordering::Relaxed);
        lock(&self.failure_us).push(total_us);
    }

    /// The circuit breaker tripped open.
    pub fn record_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Mirror of the breaker state (0 closed, 1 open, 2 half-open).
    pub fn set_breaker_state(&self, state: u8) {
        self.breaker_state.store(state, Ordering::Relaxed);
    }

    /// A batch was handed to the inference pool.
    pub fn inflight_inc(&self) {
        self.inflight_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// A batch finished (every request answered).
    pub fn inflight_dec(&self) {
        self.inflight_batches.fetch_sub(1, Ordering::Relaxed);
    }

    /// A request left the queue for a batch.
    pub fn record_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A request was answered successfully.
    pub fn record_completion(&self, queue_us: u64, total_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        lock(&self.total_us).push(total_us);
        lock(&self.queue_us).push(queue_us);
    }

    pub fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_swap(&self, ok: bool) {
        if ok {
            self.swaps.fetch_add(1, Ordering::Relaxed);
        } else {
            self.swap_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Requests currently queued (submitted, not yet picked into a batch).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Consistent point-in-time summary.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let total = lock(&self.total_us).clone();
        let queue = lock(&self.queue_us).clone();
        let deadline = lock(&self.deadline_us).clone();
        let failure = lock(&self.failure_us).clone();
        let elapsed = self.started.elapsed().as_secs_f64();
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        MetricsSnapshot {
            received: self.received.load(Ordering::Relaxed),
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            model_not_found: self.model_not_found.load(Ordering::Relaxed),
            inference_failures: self.inference_failures.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_state: self.breaker_state.load(Ordering::Relaxed),
            inflight_batches: self.inflight_batches.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                completed as f64 / batches as f64
            },
            swaps: self.swaps.load(Ordering::Relaxed),
            swap_failures: self.swap_failures.load(Ordering::Relaxed),
            uptime_s: elapsed,
            throughput_rps: if elapsed > 0.0 {
                completed as f64 / elapsed
            } else {
                0.0
            },
            latency: LatencySummary::of(total),
            queue_wait: LatencySummary::of(queue),
            deadline_latency: LatencySummary::of(deadline),
            failure_latency: LatencySummary::of(failure),
        }
    }
}

/// Nearest-rank percentile summary over a latency population (µs).
#[derive(Debug, Clone, Serialize)]
pub struct LatencySummary {
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    pub mean_us: f64,
}

impl LatencySummary {
    fn of(mut xs: Vec<u64>) -> LatencySummary {
        if xs.is_empty() {
            return LatencySummary {
                p50_us: 0,
                p95_us: 0,
                p99_us: 0,
                max_us: 0,
                mean_us: 0.0,
            };
        }
        xs.sort_unstable();
        let sum: u64 = xs.iter().sum();
        LatencySummary {
            p50_us: percentile(&xs, 50.0),
            p95_us: percentile(&xs, 95.0),
            p99_us: percentile(&xs, 99.0),
            max_us: xs[xs.len() - 1],
            mean_us: sum as f64 / xs.len() as f64,
        }
    }
}

/// Nearest-rank percentile of a sorted, non-empty slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Serializable point-in-time metrics (the `metrics` TCP command and the
/// load-generator report both emit this).
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSnapshot {
    pub received: u64,
    pub completed: u64,
    pub rejected: u64,
    pub shed: u64,
    pub deadline_exceeded: u64,
    pub model_not_found: u64,
    pub inference_failures: u64,
    pub breaker_trips: u64,
    pub breaker_state: u8,
    pub inflight_batches: u64,
    pub queue_depth: u64,
    pub batches: u64,
    pub mean_batch: f64,
    pub swaps: u64,
    pub swap_failures: u64,
    pub uptime_s: f64,
    pub throughput_rps: f64,
    pub latency: LatencySummary,
    pub queue_wait: LatencySummary,
    pub deadline_latency: LatencySummary,
    pub failure_latency: LatencySummary,
}

impl MetricsSnapshot {
    /// Every admitted request must be answered exactly once: `received`
    /// equals the sum of completed, deadline-expired-after-admission,
    /// inference failures, and still-queued/in-flight requests.
    /// Admission-time deadline rejections are not "received", so callers
    /// pass that count as `admission_deadline_rejects` to exclude it.
    pub fn accounted_for(&self, admission_deadline_rejects: u64) -> bool {
        let answered = self.completed
            + (self.deadline_exceeded - admission_deadline_rejects)
            + self.inference_failures;
        self.received == answered + self.queue_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 95.0), 95);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn snapshot_counts_and_throughput() {
        let m = Metrics::default();
        for i in 0..10 {
            m.record_received();
            m.record_dequeued();
            m.record_completion(i, 10 * i + 1);
        }
        m.record_batch();
        let s = m.snapshot();
        assert_eq!(s.received, 10);
        assert_eq!(s.completed, 10);
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.batches, 1);
        assert_eq!(s.latency.max_us, 91);
        assert!(s.throughput_rps > 0.0);
        assert!(s.accounted_for(0));
        // Snapshot is serializable (the TCP frontend ships it as JSON).
        let json = serde_json::to_string(&s).expect("serialize snapshot");
        assert!(json.contains("\"p99_us\""));
        assert!(json.contains("\"shed\""));
        assert!(json.contains("\"breaker_state\""));
    }

    #[test]
    fn overload_counters_and_outcome_latencies() {
        let m = Metrics::default();
        m.record_shed();
        m.record_shed();
        m.record_received();
        m.record_dequeued();
        m.record_deadline_exceeded(1_000);
        m.record_received();
        m.record_dequeued();
        m.record_inference_failure(2_000);
        m.record_model_not_found();
        m.record_breaker_trip();
        m.set_breaker_state(1);
        m.inflight_inc();
        let s = m.snapshot();
        assert_eq!(s.shed, 2);
        assert_eq!(s.deadline_exceeded, 1);
        assert_eq!(s.inference_failures, 1);
        assert_eq!(s.model_not_found, 1);
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.breaker_state, 1);
        assert_eq!(s.inflight_batches, 1);
        assert_eq!(s.deadline_latency.max_us, 1_000);
        assert_eq!(s.failure_latency.max_us, 2_000);
        assert!(s.accounted_for(0), "2 received, 2 answered, 0 queued");
        m.inflight_dec();
        assert_eq!(m.snapshot().inflight_batches, 0);
    }
}
