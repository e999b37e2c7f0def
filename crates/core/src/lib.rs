//! # aimts
//!
//! Reference Rust implementation of **AimTS — Augmented Series and Image
//! Contrastive Learning for Time Series Classification** (ICDE 2025).
//!
//! AimTS pre-trains a time-series encoder on an *unlabeled, multi-source*
//! pool and fine-tunes it per downstream classification task. Two losses
//! drive pre-training (paper Eq. 1):
//!
//! * **Prototype-based contrastive learning** ([`losses::proto_loss`],
//!   Eq. 3–6): every sample is augmented twice with each augmentation of a
//!   bank; per-augmentation views are contrasted *within* a sample using an
//!   adaptive temperature (intra), and prototype representations (the mean
//!   over augmentations) are contrasted *across* samples (inter).
//! * **Series-image contrastive learning** ([`losses::series_image_loss`],
//!   Eq. 7–12): each sample is rendered as an RGB line chart; the TS and
//!   image encoders are aligned CLIP-style, with extra negatives formed by
//!   **geodesic mixup** ([`mixup::geodesic_mixup`], Eq. 9) of the two
//!   modalities' representations on the unit hypersphere.
//!
//! ## Quickstart
//!
//! ```
//! use aimts::{AimTs, AimTsConfig, FineTuneConfig, PretrainConfig};
//! use aimts_data::archives::{monash_like_pool, ucr_like_archive};
//!
//! // Tiny settings so this doc-test runs in seconds.
//! let cfg = AimTsConfig::tiny();
//! let mut model = AimTs::new(cfg, 3407);
//! let pool = monash_like_pool(2, 0);
//! let report = model
//!     .pretrain(&pool[..24], &PretrainConfig { epochs: 1, batch_size: 4, ..Default::default() })
//!     .expect("pre-training failed");
//! assert!(report.final_loss.is_finite());
//! assert!(report.health.is_clean());
//!
//! let ds = &ucr_like_archive(1, 0)[0];
//! let mut ft_cfg = FineTuneConfig::default();
//! ft_cfg.epochs = 1;
//! let tuned = model.fine_tune(ds, &ft_cfg);
//! let acc = tuned.evaluate(&ds.test);
//! assert!((0.0..=1.0).contains(&acc));
//! ```

// Library code must propagate errors, not panic: the health supervisor must
// survive worker faults. A panic that cannot happen carries an `#[expect]`
// with the reason; tests are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::let_underscore_must_use
    )
)]

pub mod batch;
pub mod checkpoint;
pub mod config;
pub mod encoder;
pub mod finetune;
pub mod health;
pub mod infer;
pub mod losses;
pub mod mixup;
pub mod model;
pub mod parallel;

pub use checkpoint::{
    build_pretrain_checkpoint, checkpoint_path, decode_pretrain_checkpoint, latest_checkpoint,
    list_checkpoints, prune_checkpoints, DecodedPretrain, PretrainState, CKPT_EXT,
};
pub use config::{AimTsConfig, CheckpointPolicy, Executor, FineTuneConfig, PretrainConfig};
pub use encoder::{copy_parameters, ImageEncoder, TsEncoder};
pub use finetune::FineTuned;
pub use health::{
    FaultPlan, GradNormStats, HealthMonitor, HealthPolicy, HealthReport, StepVerdict, TrainError,
};
pub use infer::{InferenceModel, INFER_CHUNK};
pub use model::{AimTs, MicroGrad, PretrainReport};
pub use parallel::{all_reduce_mean_guarded, worker_count, THREADS_ENV};
