//! # aimts-eval
//!
//! Evaluation machinery for the AimTS experiments: the paper's metrics
//! (accuracy, average accuracy, average rank with ties, Num-Top-1), the
//! Friedman test + Nemenyi critical-difference analysis behind Fig. 6's CD
//! diagrams, an ASCII CD-diagram renderer, result-table formatting, and
//! the Beta/Gamma samplers needed by the geodesic mixup (`λ ~ Beta(γ, γ)`).

#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::let_underscore_must_use
    )
)]

pub mod cd;
pub mod confusion;
pub mod stats;
pub mod table;

mod metrics;

pub use cd::{render_cd_diagram, CdAnalysis};
pub use confusion::ConfusionMatrix;
pub use metrics::{accuracy, avg_accuracy, avg_ranks, num_top1, rank_row};
pub use stats::{sample_beta, sample_gamma, Summary};
pub use table::ResultTable;
