//! Umbrella crate for the AimTS reproduction workspace.
//!
//! This crate re-exports every sub-crate under a single namespace so that
//! examples and downstream users can depend on one crate:
//!
//! ```
//! use aimts_repro::prelude::*;
//! let archive = ucr_like_archive(2, 7);
//! assert_eq!(archive.len(), 2);
//! ```
//!
//! See [`aimts`] for the paper's core framework, [`aimts_data`] for the
//! synthetic archives, and [`aimts_baselines`] for comparison methods.

#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::let_underscore_must_use
    )
)]

pub use aimts;
pub use aimts_augment;
pub use aimts_baselines;
pub use aimts_data;
pub use aimts_eval;
pub use aimts_imaging;
pub use aimts_nn;
pub use aimts_tensor;

/// Commonly used items across the workspace.
pub mod prelude {
    pub use aimts::{
        AimTs, AimTsConfig, FineTuneConfig, FineTuned, PretrainConfig, PretrainReport,
    };
    pub use aimts_data::archives::{monash_like_pool, ucr_like_archive, uea_like_archive};
    pub use aimts_data::{Dataset, Split};
    pub use aimts_eval::accuracy;
    pub use aimts_tensor::Tensor;
}
