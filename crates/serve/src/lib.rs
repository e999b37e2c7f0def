//! `aimts-serve` — micro-batched online inference for AimTS classifiers.
//!
//! The serving stack (DESIGN.md §13):
//!
//! - [`registry`]: versioned, immutable models loaded from `.aimts` serving
//!   bundles into *named slots*, swapped atomically under load (`Arc`
//!   pointer flip; in-flight batches finish on the model they grabbed).
//! - [`batcher`]: an admission-controlled bounded queue drained by an
//!   assembler thread into batches executed on an inference worker pool,
//!   guarded by a circuit breaker with poison-request isolation.
//! - [`deadline`]: per-request absolute deadlines and shedding priorities,
//!   checked at admission, at batch assembly, before the forward pass, and
//!   after it — expired work is shed, never silently dropped.
//! - [`breaker`]: the circuit breaker that trips after K consecutive
//!   panicking flushes and recovers through a half-open probe.
//! - [`chaos`]: deterministic fault injection (latency spikes, flush
//!   panics, poison payloads) for the `serve_chaos` suite.
//! - [`server`]: the embeddable façade — submit/classify/swap/metrics,
//!   plus the graceful drain contract.
//! - [`metrics`]: latency percentiles per outcome, throughput, queue
//!   depth, shed/deadline/breaker counters.
//! - [`loadgen`]: a synthetic multi-client load generator recording
//!   `bench_results/serve_load.json`, overload outcomes included.
//! - [`net`]: a hardened JSON-lines TCP frontend (read/write timeouts,
//!   max frame size, typed error replies).
//!
//! Served predictions are bitwise-identical to offline
//! [`aimts::FineTuned::predict`] for any batch split and arrival order —
//! `tests/serve_conformance.rs` (workspace root) pins that contract; the
//! crate-local suites cover batching properties, swap fault injection,
//! overload/chaos behavior, and frontend hardening.
//!
//! Threading is plain `std`: one assembler thread, a small inference
//! worker pool, no async runtime. That keeps the crate dependency-free
//! (the workspace vendors API shims, not tokio) while still overlapping
//! request arrival with model execution.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::let_underscore_must_use
    )
)]

use std::fmt;

use aimts_nn::CheckpointError;

pub mod batcher;
pub mod breaker;
pub mod chaos;
pub mod deadline;
pub mod loadgen;
pub mod metrics;
pub mod net;
pub mod registry;
pub mod server;

pub use batcher::{BatchPolicy, Pending, Response};
pub use breaker::{BreakerState, CircuitBreaker};
pub use chaos::{poison_trap, ChaosPlan, POISON_SENTINEL};
pub use deadline::{Deadline, Priority, SubmitOptions};
pub use loadgen::{default_report_path, run_loadgen, write_report, LoadReport, LoadgenConfig};
pub use metrics::{Metrics, MetricsSnapshot};
pub use net::NetPolicy;
pub use registry::{ModelRegistry, ModelVersion, DEFAULT_MODEL};
pub use server::Server;

/// Typed serving errors. Checkpoint defects keep the full
/// [`CheckpointError`] taxonomy so a rejected hot swap names the exact
/// corruption (bad magic, CRC mismatch, truncation, shape mismatch, ...);
/// overload rejections carry enough context for a client to back off.
#[must_use]
#[derive(Debug)]
pub enum ServeError {
    /// Loading or validating a serving bundle failed; the previously
    /// registered model keeps serving.
    Checkpoint(CheckpointError),
    /// The request is structurally invalid (empty series, ragged
    /// variables); it was never enqueued.
    BadRequest(String),
    /// Admission control shed the request: the queue is at (or, for
    /// low-priority work, near) capacity and the submitter's admission
    /// timeout elapsed. Nothing was enqueued; retry after the hint.
    Overloaded {
        /// Queue depth observed at rejection time.
        queue_depth: u64,
        /// Suggested client back-off before retrying.
        retry_after_ms: u64,
    },
    /// The request's deadline expired — at admission, while queued, or
    /// before its response could be delivered. Expired work is shed
    /// before it wastes a forward pass whenever possible.
    DeadlineExceeded,
    /// The request named a model that has no registry slot.
    ModelNotFound(String),
    /// The circuit breaker is open after consecutive inference panics;
    /// admission resumes after the cooldown (half-open probe).
    CircuitOpen {
        /// Remaining cooldown before a probe is admitted.
        retry_after_ms: u64,
    },
    /// Inference panicked on this specific request even in isolation (a
    /// poison payload); its batch-mates were answered normally.
    InferenceFailed(String),
    /// A frontend frame exceeded the configured maximum size.
    FrameTooLarge {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// The server has shut down; no response will arrive.
    Closed,
}

impl ServeError {
    /// Stable machine-readable error code (the TCP frontend ships it as
    /// the `code` field of error replies).
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Checkpoint(_) => "checkpoint",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::DeadlineExceeded => "deadline_exceeded",
            ServeError::ModelNotFound(_) => "model_not_found",
            ServeError::CircuitOpen { .. } => "circuit_open",
            ServeError::InferenceFailed(_) => "inference_failed",
            ServeError::FrameTooLarge { .. } => "frame_too_large",
            ServeError::Closed => "closed",
        }
    }

    /// Back-off hint for retryable rejections, if any.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ServeError::Overloaded { retry_after_ms, .. }
            | ServeError::CircuitOpen { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Checkpoint(e) => write!(f, "serving bundle rejected: {e}"),
            ServeError::BadRequest(why) => write!(f, "bad request: {why}"),
            ServeError::Overloaded {
                queue_depth,
                retry_after_ms,
            } => write!(
                f,
                "overloaded: queue depth {queue_depth}, retry after {retry_after_ms}ms"
            ),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::ModelNotFound(name) => write!(f, "model `{name}` not found"),
            ServeError::CircuitOpen { retry_after_ms } => {
                write!(f, "circuit breaker open: retry after {retry_after_ms}ms")
            }
            ServeError::InferenceFailed(why) => write!(f, "inference failed: {why}"),
            ServeError::FrameTooLarge { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            ServeError::Closed => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}
