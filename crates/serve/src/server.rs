//! The embeddable server façade: admission-controlled submit, deadline
//! and priority options, model routing, hot swap, metrics, and the
//! graceful drain contract.
//!
//! Admission runs five checks, cheapest first, each with a typed
//! rejection: structural validation (`BadRequest`), shutdown state
//! (`Closed`), circuit breaker (`CircuitOpen`), model existence
//! (`ModelNotFound`), and deadline-already-expired (`DeadlineExceeded`).
//! Only then does the request contend for queue space: `Normal`/`High`
//! priority requests may block up to `admission_timeout` for a slot,
//! `Low` priority requests never block and are additionally shed once
//! the queue passes its 3/4 watermark — under sustained overload,
//! best-effort traffic degrades first, interactive traffic last.
//! Rejections carry a `retry_after_ms` hint sized from the queue depth
//! and flush cadence.
//!
//! **Drain contract**: [`Server::shutdown`] (also run by `Drop`) closes
//! the queue, then joins the assembler and every inference worker.
//! Requests admitted before the close are all answered — with their
//! response or a typed error — never silently dropped. Shutdown is
//! idempotent and concurrency-safe: every caller, including racers, only
//! returns after the drain has fully completed.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aimts_data::MultiSeries;

use crate::batcher::{
    self, AdmissionQueue, Assembled, BatchPolicy, Pending, PushReject, Request, Response,
};
use crate::breaker::CircuitBreaker;
use crate::chaos::ChaosPlan;
use crate::deadline::{Priority, SubmitOptions};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::registry::{ModelRegistry, DEFAULT_MODEL};
use crate::ServeError;

/// A running inference server: registry + admission queue + assembler +
/// inference worker pool + circuit breaker + metrics.
///
/// `Server` is `Sync`; any number of threads may submit concurrently.
pub struct Server {
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    breaker: Arc<CircuitBreaker>,
    policy: BatchPolicy,
    queue: Arc<AdmissionQueue>,
    open: AtomicBool,
    assembler: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Server {
    /// Start serving `registry` under `policy` with no fault injection.
    pub fn start(registry: ModelRegistry, policy: BatchPolicy) -> Server {
        Self::start_with_chaos(registry, policy, ChaosPlan::none())
    }

    /// Start with a deterministic [`ChaosPlan`] wired into the inference
    /// workers (the `serve_chaos` suite's entry point; production callers
    /// use [`Server::start`], which passes an inert plan).
    pub fn start_with_chaos(
        registry: ModelRegistry,
        policy: BatchPolicy,
        chaos: ChaosPlan,
    ) -> Server {
        policy.validate();
        let registry = Arc::new(registry);
        let metrics = Arc::new(Metrics::default());
        let breaker = Arc::new(CircuitBreaker::new(
            policy.breaker_threshold,
            policy.breaker_cooldown,
            Arc::clone(&metrics),
        ));
        let queue = Arc::new(AdmissionQueue::new(policy.queue_cap, Arc::clone(&metrics)));
        let chaos = Arc::new(chaos);
        let (btx, brx) = mpsc::sync_channel::<Assembled>(policy.max_inflight_batches);
        let brx = Arc::new(Mutex::new(brx));
        let workers = (0..policy.inference_threads)
            .map(|i| {
                let brx = Arc::clone(&brx);
                let metrics = Arc::clone(&metrics);
                let breaker = Arc::clone(&breaker);
                let chaos = Arc::clone(&chaos);
                std::thread::Builder::new()
                    .name(format!("aimts-infer-{i}"))
                    .spawn(move || batcher::run_worker(brx, metrics, breaker, chaos))
                    .expect("spawn inference worker thread")
            })
            .collect();
        let assembler = {
            let queue = Arc::clone(&queue);
            let registry = Arc::clone(&registry);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("aimts-assembler".to_string())
                .spawn(move || batcher::run_assembler(queue, btx, registry, metrics, policy))
                .expect("spawn assembler thread")
        };
        Server {
            registry,
            metrics,
            breaker,
            policy,
            queue,
            open: AtomicBool::new(true),
            assembler: Mutex::new(Some(assembler)),
            workers: Mutex::new(workers),
            next_id: AtomicU64::new(1),
        }
    }

    /// Submit with default options (no deadline unless the policy sets
    /// one, `Normal` priority, default model). Blocks at most
    /// `admission_timeout` for queue space; a full queue sheds with a
    /// typed [`ServeError::Overloaded`].
    pub fn submit(&self, series: MultiSeries) -> Result<Pending, ServeError> {
        self.submit_with(series, SubmitOptions::default())
    }

    /// Submit with explicit deadline / priority / model routing.
    pub fn submit_with(
        &self,
        series: MultiSeries,
        opts: SubmitOptions,
    ) -> Result<Pending, ServeError> {
        let timeout = match opts.priority {
            Priority::Low => Duration::ZERO,
            Priority::Normal | Priority::High => self.policy.admission_timeout,
        };
        self.admit(series, opts, timeout)
    }

    /// Non-blocking submit: `Ok(None)` when the queue is full (the shed
    /// is still counted), typed errors otherwise.
    pub fn try_submit(&self, series: MultiSeries) -> Result<Option<Pending>, ServeError> {
        match self.admit(series, SubmitOptions::default(), Duration::ZERO) {
            Ok(p) => Ok(Some(p)),
            Err(ServeError::Overloaded { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn admit(
        &self,
        series: MultiSeries,
        opts: SubmitOptions,
        timeout: Duration,
    ) -> Result<Pending, ServeError> {
        if let Err(why) = validate(&series) {
            self.metrics.record_rejected();
            return Err(ServeError::BadRequest(why));
        }
        if !self.open.load(Ordering::Acquire) {
            return Err(ServeError::Closed);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "admission timestamps are wall-clock by definition"
        )]
        let now = Instant::now();
        if let Err(retry_after_ms) = self.breaker.admit(now) {
            self.metrics.record_shed();
            return Err(ServeError::CircuitOpen { retry_after_ms });
        }
        if !self.registry.contains(opts.model.as_deref()) {
            self.metrics.record_model_not_found();
            let name = opts.model.unwrap_or_else(|| DEFAULT_MODEL.to_string());
            return Err(ServeError::ModelNotFound(name));
        }
        let deadline = opts
            .deadline
            .map(|d| d.instant())
            .or_else(|| self.policy.default_deadline.map(|d| now + d));
        if deadline.is_some_and(|d| now >= d) {
            self.metrics.record_deadline_exceeded(0);
            return Err(ServeError::DeadlineExceeded);
        }
        // Watermark shedding: best-effort traffic yields queue headroom
        // to interactive traffic before the queue is hard-full.
        if opts.priority == Priority::Low {
            let depth = self.queue.depth();
            if depth >= self.policy.low_watermark() {
                self.metrics.record_shed();
                return Err(self.overloaded(depth));
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply, rx) = mpsc::channel::<Result<Response, ServeError>>();
        let req = Box::new(Request {
            id,
            series,
            model: opts.model,
            deadline,
            enqueued: now,
            reply,
        });
        match self.queue.push_within(req, timeout) {
            Ok(()) => Ok(Pending { id, rx }),
            // The rejected request comes back with its reply channel;
            // dropping it here is the synchronous answer — the caller
            // gets the typed error below instead of a Pending.
            Err(PushReject::Full(depth, rejected)) => {
                self.metrics.record_shed();
                drop(rejected);
                Err(self.overloaded(depth))
            }
            Err(PushReject::Closed(rejected)) => {
                drop(rejected);
                Err(ServeError::Closed)
            }
        }
    }

    /// Back-off hint: how long until the queue observed at `depth` has
    /// plausibly drained, given the flush cadence.
    fn overloaded(&self, depth: usize) -> ServeError {
        let per_flush_ms = self.policy.max_delay.as_millis().max(1) as u64;
        let flushes = (depth / self.policy.max_batch) as u64 + 1;
        ServeError::Overloaded {
            queue_depth: depth as u64,
            retry_after_ms: (flushes * per_flush_ms).clamp(1, 10_000),
        }
    }

    /// Submit and block for the answer (the one-shot convenience path).
    pub fn classify(&self, series: MultiSeries) -> Result<Response, ServeError> {
        self.submit(series)?.wait()
    }

    /// [`Server::classify`] with explicit options.
    pub fn classify_with(
        &self,
        series: MultiSeries,
        opts: SubmitOptions,
    ) -> Result<Response, ServeError> {
        self.submit_with(series, opts)?.wait()
    }

    /// Hot-swap the default slot to the bundle at `path`. Typed error on
    /// any bundle defect; the old model keeps serving either way.
    pub fn swap_from_bundle(&self, path: &Path) -> Result<u64, ServeError> {
        self.swap_named_from_bundle(DEFAULT_MODEL, path)
    }

    /// Hot-swap (or create) the named slot from the bundle at `path`.
    pub fn swap_named_from_bundle(&self, name: &str, path: &Path) -> Result<u64, ServeError> {
        let result = self.registry.register_bundle(name, path);
        self.metrics.record_swap(result.is_ok());
        result
    }

    /// The model registry (for generation queries or in-process swaps).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The circuit breaker (state inspection; tests drive it via chaos).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Point-in-time metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The batch policy this server runs.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Close admission, drain every accepted request, and join the
    /// pipeline threads. Idempotent and concurrency-safe: every caller
    /// returns only after the drain has completed (racing callers park on
    /// the join locks). Also invoked by `Drop`.
    pub fn shutdown(&self) {
        self.open.store(false, Ordering::Release);
        self.queue.close();
        // Hold the assembler guard across BOTH joins so a second
        // concurrent shutdown() blocks until the whole drain is done
        // instead of returning while requests are still in flight.
        let mut assembler = lock(&self.assembler);
        if let Some(handle) = assembler.take() {
            handle.join().ok();
        }
        let mut workers = lock(&self.workers);
        for handle in workers.drain(..) {
            handle.join().ok();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Structural request validation: non-empty, rectangular, finite values.
fn validate(series: &MultiSeries) -> Result<(), String> {
    if series.is_empty() {
        return Err("series has no variables".to_string());
    }
    let t = series[0].len();
    if t == 0 {
        return Err("series has zero time steps".to_string());
    }
    for (m, var) in series.iter().enumerate() {
        if var.len() != t {
            return Err(format!(
                "ragged series: variable {m} has {} steps, variable 0 has {t}",
                var.len()
            ));
        }
        if let Some(v) = var.iter().find(|v| !v.is_finite()) {
            return Err(format!("variable {m} contains non-finite value {v}"));
        }
    }
    Ok(())
}
