//! The micro-batcher: an admission-controlled bounded queue drained into
//! adaptive batches executed on an inference worker pool.
//!
//! Requests enter through [`AdmissionQueue`], a condvar-backed bounded
//! queue that — unlike the old `sync_channel` — supports *try-admit*
//! semantics: a full queue rejects with a typed
//! [`Overloaded`](crate::ServeError::Overloaded) instead of blocking the
//! producer forever, and the queue depth is observable for watermark
//! shedding. One assembler thread blocks on the first request, then
//! keeps collecting until either `max_batch` requests are in hand or
//! `max_delay` has elapsed since the batch opened — the classic
//! latency/throughput trade: a lone request waits at most `max_delay`, a
//! burst fills batches to `max_batch` with no added wait.
//!
//! Each assembled batch is grouped by model name, resolves its registry
//! slot **once** (so every request in a group is answered by one model
//! generation; a hot swap mid-flush only affects later batches), and is
//! handed to a small pool of inference workers over a bounded channel —
//! `max_inflight_batches` caps the pipeline depth, so a slow model backs
//! pressure up into the queue and from there into admission shedding
//! rather than unbounded memory.
//!
//! The forward pass runs under `catch_unwind` behind the circuit
//! breaker: a panicking batch is **bisected** to isolate the poison
//! request(s) — batch-mates of a NaN-bomb payload are answered normally,
//! only the poison request gets a typed
//! [`InferenceFailed`](crate::ServeError::InferenceFailed). Deadlines
//! are enforced at assembly, before the forward pass, and after it (see
//! [`deadline`](crate::deadline)). Responses travel over per-request
//! channels: exactly one response per accepted request, in whatever
//! order the client awaits them — the batcher cannot drop, duplicate, or
//! cross-wire a response (`tests/batch_props.rs`), even across drain.

#![allow(
    clippy::vec_box,
    reason = "requests stay boxed end to end (queue → batch → model group → bisection split): the box is allocated once at admission and every later stage moves a pointer, not the ~100-byte request"
)]

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::{Duration, Instant};

use aimts::infer::InferenceModel;
use aimts_data::MultiSeries;

use crate::breaker::CircuitBreaker;
use crate::chaos::ChaosPlan;
use crate::metrics::Metrics;
use crate::registry::{ModelRegistry, ModelVersion};
use crate::ServeError;

/// Flush, admission, and fault-tolerance policy for the micro-batcher.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Flush as soon as a batch holds this many requests.
    pub max_batch: usize,
    /// Flush an incomplete batch this long after it opened.
    pub max_delay: Duration,
    /// Bounded queue capacity; admission sheds (typed `Overloaded`)
    /// when full.
    pub queue_cap: usize,
    /// How long a `Normal`/`High` priority submit may block waiting for
    /// queue space before it is shed. `Low` priority never blocks.
    pub admission_timeout: Duration,
    /// Deadline applied to requests that do not carry one; `None`
    /// means no deadline.
    pub default_deadline: Option<Duration>,
    /// Assembled batches allowed in the worker pipeline (queued or
    /// executing) before assembly stalls and back-pressure reaches
    /// admission.
    pub max_inflight_batches: usize,
    /// Inference worker threads draining assembled batches.
    pub inference_threads: usize,
    /// Consecutive panicking flushes that trip the circuit breaker.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before a half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 64,
            max_delay: Duration::from_millis(2),
            queue_cap: 4096,
            admission_timeout: Duration::from_secs(1),
            default_deadline: None,
            max_inflight_batches: 2,
            inference_threads: 1,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
        }
    }
}

impl BatchPolicy {
    /// Panic early on nonsensical configurations.
    pub fn validate(&self) {
        assert!(self.max_batch >= 1, "max_batch must be >= 1");
        assert!(self.queue_cap >= 1, "queue_cap must be >= 1");
        assert!(
            self.max_inflight_batches >= 1,
            "max_inflight_batches must be >= 1"
        );
        assert!(
            self.inference_threads >= 1,
            "inference_threads must be >= 1"
        );
        assert!(
            self.breaker_threshold >= 1,
            "breaker_threshold must be >= 1"
        );
    }

    /// Queue depth at which `Low` priority work starts being shed
    /// (3/4 of capacity, at least 1).
    pub fn low_watermark(&self) -> usize {
        (self.queue_cap * 3 / 4).max(1)
    }
}

/// One queued classification request.
pub(crate) struct Request {
    pub id: u64,
    pub series: MultiSeries,
    pub model: Option<String>,
    pub deadline: Option<Instant>,
    pub enqueued: Instant,
    pub reply: Sender<Result<Response, ServeError>>,
}

/// The served answer for one request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Server-assigned request id (echoed to the submitter's [`Pending`]).
    pub id: u64,
    /// Predicted class index.
    pub class: usize,
    /// Generation of the model version that answered.
    pub generation: u64,
    /// How many requests shared this request's batch (model group).
    pub batch_size: usize,
    /// Submit → batch-dequeue wait.
    pub queue_us: u64,
    /// Submit → response-ready latency.
    pub total_us: u64,
}

/// Handle to one in-flight request.
#[derive(Debug)]
pub struct Pending {
    pub(crate) id: u64,
    pub(crate) rx: Receiver<Result<Response, ServeError>>,
}

impl Pending {
    /// The server-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the outcome arrives: `Ok` with the response, or the
    /// typed error that answered this request (`DeadlineExceeded`,
    /// `InferenceFailed`, `ModelNotFound`, ...). [`ServeError::Closed`]
    /// means the server shut down before answering — which the drain
    /// contract makes unreachable for accepted requests.
    pub fn wait(self) -> Result<Response, ServeError> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(ServeError::Closed),
        }
    }
}

// ---------------------------------------------------------------------
// Admission queue
// ---------------------------------------------------------------------

/// Why a push was refused. Both variants hand the rejected request back
/// to the caller, so ownership of the responder handle is explicit: the
/// queue either admitted the request or never touched it (the caller
/// answers synchronously). A010 checks this protocol statically.
pub(crate) enum PushReject {
    /// Queue at capacity for the whole timeout; depth at rejection.
    Full(usize, Box<Request>),
    /// The queue is closed (server draining/shut down).
    Closed(Box<Request>),
}

/// Result of a timed pop.
pub(crate) enum Pop {
    Got(Box<Request>),
    TimedOut,
    Closed,
}

struct QueueInner {
    q: VecDeque<Box<Request>>,
    closed: bool,
}

/// Condvar-backed bounded MPSC queue with try/timed admission and
/// observable depth. Close-then-drain: after [`AdmissionQueue::close`],
/// pushes fail with [`PushReject::Closed`] but pops keep returning
/// queued requests until empty — the drain contract's foundation.
pub(crate) struct AdmissionQueue {
    cap: usize,
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Received/dequeued are recorded under the queue mutex so the
    /// depth gauge can never underflow on a push/pop race.
    metrics: Arc<Metrics>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

fn wait_timeout<'a, T>(
    cv: &Condvar,
    g: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(g, dur)
        .unwrap_or_else(PoisonError::into_inner)
}

impl AdmissionQueue {
    pub fn new(cap: usize, metrics: Arc<Metrics>) -> AdmissionQueue {
        AdmissionQueue {
            cap,
            inner: Mutex::new(QueueInner {
                q: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            metrics,
        }
    }

    /// Current depth (queued, not yet assembled).
    pub fn depth(&self) -> usize {
        lock(&self.inner).q.len()
    }

    /// Push, waiting up to `timeout` for space. `Duration::ZERO` is a
    /// pure try-admit.
    pub fn push_within(&self, req: Box<Request>, timeout: Duration) -> Result<(), PushReject> {
        let mut g = lock(&self.inner);
        #[expect(
            clippy::disallowed_methods,
            reason = "admission timeout is wall-clock by definition; serving is not deterministic-replay code"
        )]
        let deadline = Instant::now() + timeout;
        loop {
            if g.closed {
                return Err(PushReject::Closed(req));
            }
            if g.q.len() < self.cap {
                g.q.push_back(req);
                self.metrics.record_received();
                self.not_empty.notify_one();
                return Ok(());
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "the admission timeout is a real-time SLA, not replayed state; wall clock is the spec"
            )]
            let now = Instant::now();
            if now >= deadline {
                return Err(PushReject::Full(g.q.len(), req));
            }
            let (g2, _) = wait_timeout(&self.not_full, g, deadline - now);
            g = g2;
        }
    }

    /// Block until a request or close-and-empty (`None`).
    pub fn pop_wait(&self) -> Option<Box<Request>> {
        let mut g = lock(&self.inner);
        loop {
            if let Some(r) = g.q.pop_front() {
                self.metrics.record_dequeued();
                self.not_full.notify_one();
                return Some(r);
            }
            if g.closed {
                return None;
            }
            g = wait(&self.not_empty, g);
        }
    }

    /// Pop, waiting at most until `until`.
    pub fn pop_until(&self, until: Instant) -> Pop {
        let mut g = lock(&self.inner);
        loop {
            if let Some(r) = g.q.pop_front() {
                self.metrics.record_dequeued();
                self.not_full.notify_one();
                return Pop::Got(r);
            }
            if g.closed {
                return Pop::Closed;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "the flush deadline is a real-time SLA, not replayed state; wall clock is the spec"
            )]
            let now = Instant::now();
            if now >= until {
                return Pop::TimedOut;
            }
            let (g2, _) = wait_timeout(&self.not_empty, g, until - now);
            g = g2;
        }
    }

    /// Stop admission; queued requests keep draining through pops.
    pub fn close(&self) {
        let mut g = lock(&self.inner);
        g.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

// ---------------------------------------------------------------------
// Assembly
// ---------------------------------------------------------------------

/// One model-homogeneous batch headed for an inference worker.
pub(crate) struct Assembled {
    pub version: Arc<ModelVersion>,
    pub requests: Vec<Box<Request>>,
    /// Global flush index (chaos schedules key off it).
    pub flush: u64,
}

/// Assembler-thread main loop: drain the admission queue into batches
/// per `policy`, group by model, resolve registry slots, and hand the
/// batches to the worker pool — until the queue is closed and empty.
pub(crate) fn run_assembler(
    queue: Arc<AdmissionQueue>,
    batches: SyncSender<Assembled>,
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    policy: BatchPolicy,
) {
    let mut flush_counter = 0u64;
    loop {
        // Block for the batch-opening request.
        let Some(first_req) = queue.pop_wait() else {
            return; // closed and fully drained
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "batching deadlines are wall-clock by definition; serving is not deterministic-replay code"
        )]
        let flush_deadline = Instant::now() + policy.max_delay;
        let mut batch = Vec::with_capacity(policy.max_batch);
        admit_to_batch(first_req, &mut batch, &metrics);
        while batch.len() < policy.max_batch {
            #[expect(
                clippy::disallowed_methods,
                reason = "max_delay bounds real queueing latency; wall clock is the spec, nothing is replayed"
            )]
            let now = Instant::now();
            if now >= flush_deadline {
                break;
            }
            match queue.pop_until(flush_deadline) {
                Pop::Got(req) => admit_to_batch(req, &mut batch, &metrics),
                Pop::TimedOut | Pop::Closed => break,
            }
        }
        if batch.is_empty() {
            continue; // every collected request had already expired
        }
        for (name, requests) in group_by_model(batch) {
            match registry.current_named(name.as_deref()) {
                Ok(version) => {
                    let assembled = Assembled {
                        version,
                        requests,
                        flush: flush_counter,
                    };
                    flush_counter += 1;
                    metrics.inflight_inc();
                    if batches.send(assembled).is_err() {
                        // Workers gone: only reachable if the pool died
                        // unexpectedly; fail every request typed, never hang.
                        return;
                    }
                }
                Err(_) => {
                    // The slot vanished (or never existed) between
                    // admission and assembly: answer typed, never panic.
                    let slot = name.clone().unwrap_or_default();
                    for req in requests {
                        metrics.record_model_not_found();
                        req.reply
                            .send(Err(ServeError::ModelNotFound(slot.clone())))
                            .ok();
                    }
                }
            }
        }
    }
}

/// Assembly-time deadline check: expired requests are answered
/// immediately and never reach a batch.
fn admit_to_batch(req: Box<Request>, batch: &mut Vec<Box<Request>>, metrics: &Metrics) {
    #[expect(
        clippy::disallowed_methods,
        reason = "shedding expired work needs the real clock; inference results never feed training replay"
    )]
    let now = Instant::now();
    if req.deadline.is_some_and(|d| now >= d) {
        let total_us = now.duration_since(req.enqueued).as_micros() as u64;
        metrics.record_deadline_exceeded(total_us);
        req.reply.send(Err(ServeError::DeadlineExceeded)).ok();
        return;
    }
    batch.push(req);
}

/// Partition a batch by target model, preserving first-seen group order
/// and input order within each group.
fn group_by_model(batch: Vec<Box<Request>>) -> Vec<(Option<String>, Vec<Box<Request>>)> {
    let mut groups: Vec<(Option<String>, Vec<Box<Request>>)> = Vec::new();
    for req in batch {
        match groups.iter_mut().find(|(name, _)| *name == req.model) {
            Some((_, members)) => members.push(req),
            None => groups.push((req.model.clone(), vec![req])),
        }
    }
    groups
}

// ---------------------------------------------------------------------
// Inference workers
// ---------------------------------------------------------------------

/// Worker-thread main loop: execute assembled batches until the
/// assembler drops the channel and it drains empty.
pub(crate) fn run_worker(
    batches: Arc<Mutex<Receiver<Assembled>>>,
    metrics: Arc<Metrics>,
    breaker: Arc<CircuitBreaker>,
    chaos: Arc<ChaosPlan>,
) {
    loop {
        // Hold the receiver lock only while waiting; execution runs
        // unlocked so workers overlap on distinct batches.
        let assembled = {
            let rx = lock(&batches);
            // aimts-lint: allow(A008, the receiver mutex only serializes idle workers parked on recv; no other thread ever takes it, so holding it across the wait cannot deadlock)
            rx.recv()
        };
        match assembled {
            Ok(b) => execute(b, &metrics, &breaker, &chaos),
            Err(_) => return,
        }
    }
}

/// Classify one batch and answer every request — with chaos injection,
/// deadline enforcement, panic containment, and poison isolation.
fn execute(b: Assembled, metrics: &Metrics, breaker: &CircuitBreaker, chaos: &ChaosPlan) {
    if chaos.spikes(b.flush) {
        std::thread::sleep(chaos.spike);
    }
    // Pre-forward deadline check: the batch may have waited in the
    // in-flight channel; expired work is shed before the forward pass.
    #[expect(
        clippy::disallowed_methods,
        reason = "shedding expired work needs the real clock; inference results never feed training replay"
    )]
    let now = Instant::now();
    let mut live = Vec::with_capacity(b.requests.len());
    for req in b.requests {
        if req.deadline.is_some_and(|d| now >= d) {
            let total_us = now.duration_since(req.enqueued).as_micros() as u64;
            metrics.record_deadline_exceeded(total_us);
            req.reply.send(Err(ServeError::DeadlineExceeded)).ok();
        } else {
            live.push(req);
        }
    }
    if live.is_empty() {
        metrics.inflight_dec();
        return;
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "latency metrics measure real elapsed time by definition and affect no model state"
    )]
    let dequeued = Instant::now();
    let refs: Vec<&MultiSeries> = live.iter().map(|r| &r.series).collect();
    let outcome = classify_isolated(&b.version.model, &refs, chaos.panics(b.flush));
    #[expect(
        clippy::disallowed_methods,
        reason = "latency metrics measure real elapsed time by definition and affect no model state"
    )]
    let done = Instant::now();
    if outcome.panicked {
        breaker.record_failure(done);
    } else {
        breaker.record_success();
    }

    let batch_size = live.len();
    for (req, verdict) in live.into_iter().zip(outcome.classes) {
        let queue_us = dequeued.duration_since(req.enqueued).as_micros() as u64;
        let total_us = done.duration_since(req.enqueued).as_micros() as u64;
        match verdict {
            // Post-inference deadline check: an answer computed after
            // its deadline is reported as such — the client already
            // gave up on it.
            Ok(_) if req.deadline.is_some_and(|d| done >= d) => {
                metrics.record_deadline_exceeded(total_us);
                req.reply.send(Err(ServeError::DeadlineExceeded)).ok();
            }
            Ok(class) => {
                metrics.record_completion(queue_us, total_us);
                // A submitter that dropped its Pending forfeits the
                // answer; the request itself still counted as completed.
                req.reply
                    .send(Ok(Response {
                        id: req.id,
                        class,
                        generation: b.version.generation,
                        batch_size,
                        queue_us,
                        total_us,
                    }))
                    .ok();
            }
            Err(()) => {
                metrics.record_inference_failure(total_us);
                req.reply
                    .send(Err(ServeError::InferenceFailed(
                        "inference panicked on this request (isolated by bisection)".to_string(),
                    )))
                    .ok();
            }
        }
    }
    metrics.record_batch();
    metrics.inflight_dec();
}

/// Per-request classification verdicts plus whether any forward panicked.
struct IsolatedOutcome {
    classes: Vec<Result<usize, ()>>,
    panicked: bool,
}

/// Run the guarded forward; on panic, bisect to isolate the poison
/// request(s) so batch-mates are still answered. `inject_panic` forces
/// the *top-level* attempt to panic (chaos flush injection) — bisection
/// retries run clean, so a transient whole-batch panic is survivable.
fn classify_isolated(
    model: &InferenceModel,
    refs: &[&MultiSeries],
    inject_panic: bool,
) -> IsolatedOutcome {
    match guarded_classify(model, refs, inject_panic) {
        Ok(classes) => IsolatedOutcome {
            classes: classes.into_iter().map(Ok).collect(),
            panicked: inject_panic,
        },
        Err(()) => {
            if refs.len() == 1 {
                return IsolatedOutcome {
                    classes: vec![Err(())],
                    panicked: true,
                };
            }
            let mid = refs.len() / 2;
            let left = classify_isolated(model, &refs[..mid], false);
            let right = classify_isolated(model, &refs[mid..], false);
            let mut classes = left.classes;
            classes.extend(right.classes);
            IsolatedOutcome {
                classes,
                panicked: true,
            }
        }
    }
}

/// One `catch_unwind`-guarded forward pass. `AssertUnwindSafe` is sound:
/// a forward pass only reads the frozen model, whose parameters nothing
/// writes after `freeze`, and a panicking batch never publishes partial
/// results.
fn guarded_classify(
    model: &InferenceModel,
    refs: &[&MultiSeries],
    inject_panic: bool,
) -> Result<Vec<usize>, ()> {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        assert!(!inject_panic, "chaos: injected flush panic");
        model.classify_mixed(refs)
    }))
    .map_err(|_| ())
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests stamp requests with the real clock the queue and batcher compare against"
)]
mod tests {
    use super::*;

    #[test]
    fn policy_defaults_validate_and_expose_watermark() {
        let p = BatchPolicy::default();
        p.validate();
        assert_eq!(p.low_watermark(), 4096 * 3 / 4);
        assert_eq!(
            BatchPolicy {
                queue_cap: 1,
                ..BatchPolicy::default()
            }
            .low_watermark(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "inference_threads")]
    fn zero_workers_is_rejected() {
        BatchPolicy {
            inference_threads: 0,
            ..BatchPolicy::default()
        }
        .validate();
    }

    #[test]
    fn admission_queue_try_full_closed() {
        fn req(id: u64) -> Box<Request> {
            let (reply, _rx) = std::sync::mpsc::channel();
            Box::new(Request {
                id,
                series: vec![vec![0.0; 4]],
                model: None,
                deadline: None,
                enqueued: Instant::now(),
                reply,
            })
        }
        let q = AdmissionQueue::new(2, Arc::new(Metrics::default()));
        assert!(q.push_within(req(1), Duration::ZERO).is_ok());
        assert!(q.push_within(req(2), Duration::ZERO).is_ok());
        assert_eq!(q.depth(), 2);
        match q.push_within(req(3), Duration::ZERO) {
            Err(PushReject::Full(depth, rejected)) => {
                assert_eq!(depth, 2);
                // The rejected request comes back so the caller still
                // owns the responder handle.
                assert_eq!(rejected.id, 3);
            }
            _ => panic!("full queue must reject"),
        }
        // Draining frees capacity; close-then-drain yields the rest.
        assert_eq!(q.pop_wait().map(|r| r.id), Some(1));
        assert!(q.push_within(req(3), Duration::ZERO).is_ok());
        q.close();
        assert!(matches!(
            q.push_within(req(4), Duration::ZERO),
            Err(PushReject::Closed(_))
        ));
        assert_eq!(q.pop_wait().map(|r| r.id), Some(2));
        assert_eq!(q.pop_wait().map(|r| r.id), Some(3));
        assert!(q.pop_wait().is_none());
        assert!(matches!(
            q.pop_until(Instant::now() + Duration::from_millis(1)),
            Pop::Closed
        ));
    }

    #[test]
    fn group_by_model_preserves_order() {
        fn req(id: u64, model: Option<&str>) -> Box<Request> {
            let (reply, _rx) = std::sync::mpsc::channel();
            Box::new(Request {
                id,
                series: vec![vec![0.0; 4]],
                model: model.map(str::to_string),
                deadline: None,
                enqueued: Instant::now(),
                reply,
            })
        }
        let groups = group_by_model(vec![
            req(1, None),
            req(2, Some("a")),
            req(3, None),
            req(4, Some("a")),
        ]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, None);
        assert_eq!(
            groups[0].1.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(groups[1].0.as_deref(), Some("a"));
        assert_eq!(
            groups[1].1.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![2, 4]
        );
    }
}
