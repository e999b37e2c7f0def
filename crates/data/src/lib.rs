//! # aimts-data
//!
//! Datasets for the AimTS reproduction.
//!
//! The paper evaluates on the UCR (128 univariate), UEA (30 multivariate)
//! and Monash (19 unlabeled, multi-domain) archives plus five named
//! transfer datasets. Those archives cannot be redistributed here, so this
//! crate provides **synthetic multi-domain archives** whose datasets are
//! generated from parameterized pattern families with class-defining
//! structure and nuisance variation — preserving exactly the properties the
//! paper's claims rest on (cross-domain diversity, shape-defined labels,
//! small training splits). See DESIGN.md §2 for the substitution argument.
//!
//! A loader for the real UCR tab-separated format is included
//! ([`loader::load_ucr_tsv`]) so users with the archives can plug them in.
//!
//! ```
//! use aimts_data::archives::ucr_like_archive;
//! let archive = ucr_like_archive(4, 7);
//! assert_eq!(archive.len(), 4);
//! for ds in &archive {
//!     assert!(ds.train.len() >= ds.n_classes);
//!     assert_eq!(ds.train.samples[0].vars.len(), 1); // univariate
//! }
//! ```

// Library code must propagate errors, not panic: dataset loaders reject,
// never crash on, bad input. A panic that cannot happen carries an
// `#[expect]` with the reason; tests are exempt.
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

pub mod archives;
pub mod fewshot;
pub mod generator;
pub mod loader;
pub mod preprocess;
pub mod signals;
pub mod special;
pub mod stats;

mod sample;

pub use fewshot::few_shot_subset;
pub use generator::{DatasetSpec, PatternFamily};
pub use preprocess::{repair_missing, repair_missing_dataset, z_normalize, MissingValuePolicy};
pub use sample::{Dataset, MultiSeries, Sample, Split};
