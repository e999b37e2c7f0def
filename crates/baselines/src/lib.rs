//! # aimts-baselines
//!
//! Re-implementations of the baselines AimTS is compared against,
//! organized by the paper's three paradigms:
//!
//! * **Case-by-case representation learning** (Table I):
//!   [`ContrastiveBaseline`] with [`Method::Ts2Vec`], [`Method::TsTcc`],
//!   [`Method::Tnc`] and [`Method::TLoss`] — faithful-in-structure,
//!   scaled-down versions sharing the same encoder substrate as AimTS so
//!   comparisons isolate the *learning objective*.
//! * **Case-by-case supervised / classical** (Table II):
//!   [`FcnClassifier`] (stand-in for the TimesNet/OS-CNN class of
//!   supervised deep models), [`RocketClassifier`] (random convolution
//!   kernels + ridge), and [`OneNn`] (1-NN with Euclidean or DTW).
//! * **Multi-source foundation models** (Tables IV/V): [`MomentLike`]
//!   (masked-reconstruction pre-training) and [`UnitsLike`] (supervised
//!   multi-task pre-training).
//!
//! Every baseline exposes the same two-phase API as AimTS where
//! applicable: `pretrain` on a pool, then `fine_tune` on a target
//! [`aimts_data::Dataset`] returning an [`aimts::FineTuned`].

#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::let_underscore_must_use
    )
)]

pub mod contrastive;
pub mod fcn;
pub mod fft;
pub mod foundation;
pub mod nn1;
pub mod ridge;
pub mod rocket;
pub mod tfc;

pub use contrastive::{BaselineConfig, ContrastiveBaseline, Method};
pub use fcn::FcnClassifier;
pub use foundation::{MomentLike, UnitsLike};
pub use nn1::{Metric, OneNn};
pub use ridge::RidgeClassifier;
pub use rocket::{Rocket, RocketClassifier};
pub use tfc::{TfcBaseline, TfcFineTuned};
