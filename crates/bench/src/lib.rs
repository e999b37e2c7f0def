//! # aimts-bench
//!
//! Benchmark harness regenerating every table and figure of the AimTS
//! paper on the synthetic archives. Each `[[bench]]` target (run via
//! `cargo bench`) prints the paper-style table plus the paper's reported
//! values for shape comparison, and records JSON under `bench_results/`
//! at the repository root for EXPERIMENTS.md.
//!
//! Scale is controlled by `AIMTS_SCALE` (`quick` default, `full` for a
//! longer run).

#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::let_underscore_must_use
    )
)]

pub mod harness;
pub mod memprof;
pub mod runners;

pub use harness::{record_results, Scale};
pub use memprof::{current_bytes, peak_bytes, reset_peak};
