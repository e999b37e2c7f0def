//! Configuration for the AimTS model and its two training stages.

use std::path::PathBuf;

use aimts_augment::{default_bank, Augmentation};
use aimts_imaging::ImageConfig;

use crate::health::HealthPolicy;

/// Architecture + loss hyper-parameters (paper §IV, §V-A.3).
#[derive(Debug, Clone)]
pub struct AimTsConfig {
    /// Hidden width of the TS encoder's convolution stack.
    pub hidden: usize,
    /// Representation dimension `J` produced by both encoders.
    pub repr_dim: usize,
    /// Projection dimension of `P^TS` / `P^I` used in the contrastive space.
    pub proj_dim: usize,
    /// Dilations of the TS encoder's residual blocks.
    pub dilations: Vec<usize>,
    /// Augmentation bank (`G` = `bank.len()`); defaults to the paper's 5.
    pub bank: Vec<Augmentation>,
    /// Base temperature `τ0` of the adaptive intra-prototype temperature
    /// (Eq. 3).
    pub tau0: f32,
    /// Temperature of the inter-prototype loss (Eq. 5).
    pub tau_inter: f32,
    /// Temperature of the series-image losses (Eq. 7/10).
    pub tau_si: f32,
    /// Weight `α` on the inter-prototype term of `L_proto` (Eq. 6).
    pub alpha: f32,
    /// Weight `β` on the naive term of `L_SI` (Eq. 12).
    pub beta: f32,
    /// Beta-distribution parameter `γ` of the mixup coefficient
    /// `λ ~ Beta(γ, γ)` (Eq. 9).
    pub gamma: f32,
    /// Common length every pre-training series is resampled to.
    pub pretrain_len: usize,
    /// Image rendering settings.
    pub image: ImageConfig,
    /// Toggles for the ablation study (Table VI).
    pub ablation: Ablation,
}

/// Which loss components are active (Table VI rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ablation {
    /// Inter-prototype contrastive loss (Eq. 5).
    pub inter: bool,
    /// Intra-prototype adaptive-temperature loss (Eq. 4).
    pub intra: bool,
    /// Naive series-image loss (Eq. 8).
    pub si_naive: bool,
    /// Geodesic-mixup series-image loss (Eq. 11).
    pub si_mixup: bool,
}

impl Default for Ablation {
    fn default() -> Self {
        Ablation {
            inter: true,
            intra: true,
            si_naive: true,
            si_mixup: true,
        }
    }
}

impl Ablation {
    /// Table VI row: inter-prototype contrastive learning only.
    pub fn inter_only() -> Self {
        Ablation {
            inter: true,
            intra: false,
            si_naive: false,
            si_mixup: false,
        }
    }

    /// Table VI row: full prototype-based contrastive learning only.
    pub fn proto_only() -> Self {
        Ablation {
            inter: true,
            intra: true,
            si_naive: false,
            si_mixup: false,
        }
    }

    /// Table VI row: naive series-image contrastive learning only.
    pub fn si_naive_only() -> Self {
        Ablation {
            inter: false,
            intra: false,
            si_naive: true,
            si_mixup: false,
        }
    }

    /// Table VI row: full series-image contrastive learning only.
    pub fn si_only() -> Self {
        Ablation {
            inter: false,
            intra: false,
            si_naive: true,
            si_mixup: true,
        }
    }
}

impl Default for AimTsConfig {
    fn default() -> Self {
        AimTsConfig {
            hidden: 32,
            repr_dim: 64,
            proj_dim: 32,
            dilations: vec![1, 2, 4],
            bank: default_bank(),
            tau0: 0.2,
            tau_inter: 0.2,
            tau_si: 0.2,
            alpha: 0.7,
            beta: 0.9,
            gamma: 0.1,
            pretrain_len: 64,
            image: ImageConfig::default(),
            ablation: Ablation::default(),
        }
    }
}

impl AimTsConfig {
    /// Minimal configuration for fast tests and doc-tests.
    pub fn tiny() -> Self {
        AimTsConfig {
            hidden: 8,
            repr_dim: 16,
            proj_dim: 8,
            dilations: vec![1, 2],
            pretrain_len: 32,
            image: ImageConfig::small(),
            ..Default::default()
        }
    }

    /// Number of augmentations `G`.
    pub fn g(&self) -> usize {
        self.bank.len()
    }
}

/// Fault-tolerant checkpointing policy for pre-training.
///
/// With `dir` set, [`crate::AimTs::pretrain`] writes a full training
/// checkpoint (`ckpt-NNNNNN.aimts`) after every `every` completed epochs
/// (and always after the final one), retaining the newest `keep_last`.
/// With `resume_from` set, training restores that checkpoint — parameters,
/// Adam moments, scheduler state, RNG stream — and continues exactly where
/// the interrupted run left off.
#[derive(Debug, Clone, Default)]
pub struct CheckpointPolicy {
    /// Directory for periodic checkpoints; `None` disables writing.
    pub dir: Option<PathBuf>,
    /// Checkpoint cadence in completed epochs (`0` is treated as `1`).
    pub every: usize,
    /// Retain only the newest K periodic checkpoints (`0` keeps all).
    pub keep_last: usize,
    /// Checkpoint file to restore before the first epoch.
    pub resume_from: Option<PathBuf>,
}

impl CheckpointPolicy {
    /// Effective cadence (guards the `every = 0` footgun).
    pub fn every_epochs(&self) -> usize {
        self.every.max(1)
    }
}

/// The execution engine a step runs on. Eager autograd is the only one,
/// so this type has no effect. It stays only because the repo benchmark
/// (`benchmark/`) still names `Executor::Eager`, and goes once it stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// Interpret the autograd graph every step.
    #[default]
    Eager,
}

/// Pre-training loop settings (paper: Adam, lr 7e-3, StepLR, 2 epochs,
/// batch 16).
#[derive(Debug, Clone)]
pub struct PretrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    /// StepLR period (epochs) and decay factor.
    pub lr_step: usize,
    pub lr_gamma: f32,
    pub seed: u64,
    /// Data-parallel worker threads. `0` (the default) resolves from the
    /// `AIMTS_THREADS` environment variable, falling back to the machine's
    /// available parallelism; `1` forces the serial training path.
    pub workers: usize,
    /// Periodic checkpointing / resume policy (disabled by default).
    pub checkpoint: CheckpointPolicy,
    /// Self-healing supervisor policy: numerical guards, optional
    /// gradient clipping, skip-anomalous-step, automatic rollback. The
    /// defaults guard and skip but never perturb a clean run.
    pub health: HealthPolicy,
    /// Has no effect; see [`Executor`].
    pub executor: Executor,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 7e-3,
            lr_step: 1,
            lr_gamma: 0.5,
            seed: 3407,
            workers: 0,
            checkpoint: CheckpointPolicy::default(),
            health: HealthPolicy::default(),
            executor: Executor::default(),
        }
    }
}

/// Fine-tuning settings (paper: Adam, lr 1e-3, full fine-tuning + MLP
/// classifier).
#[derive(Debug, Clone)]
pub struct FineTuneConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    /// Hidden width of the MLP classifier head.
    pub head_hidden: usize,
    /// If false, freeze the encoder (linear-probe mode; extension).
    pub train_encoder: bool,
    pub seed: u64,
    /// When set, [`crate::FineTuned::fit`] atomically checkpoints the
    /// encoder + head to this path whenever training-split accuracy
    /// reaches a new best.
    pub best_ckpt: Option<PathBuf>,
    /// Numerical guards for fine-tuning: non-finite losses/gradients skip
    /// the step, optional global-norm clipping. Fine-tuning has no full
    /// optimizer checkpoint, so the rollback rungs of the ladder apply to
    /// pre-training only.
    pub health: HealthPolicy,
    /// Has no effect; see [`Executor`].
    pub executor: Executor,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        FineTuneConfig {
            epochs: 20,
            batch_size: 16,
            lr: 1e-3,
            head_hidden: 64,
            train_encoder: true,
            seed: 3407,
            best_ckpt: None,
            health: HealthPolicy::default(),
            executor: Executor::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AimTsConfig::default();
        assert_eq!(c.g(), 5);
        assert_eq!(c.alpha, 0.7);
        assert_eq!(c.beta, 0.9);
        assert_eq!(c.gamma, 0.1);
        let p = PretrainConfig::default();
        assert_eq!((p.epochs, p.batch_size, p.seed), (2, 16, 3407));
        assert!((p.lr - 7e-3).abs() < 1e-9);
        let f = FineTuneConfig::default();
        assert!((f.lr - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn ablation_presets() {
        assert!(!Ablation::inter_only().intra);
        assert!(Ablation::proto_only().intra);
        assert!(!Ablation::si_only().inter);
        assert!(Ablation::si_only().si_mixup);
        assert!(!Ablation::si_naive_only().si_mixup);
    }
}
