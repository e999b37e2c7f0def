//! Downstream fine-tuning (paper Fig. 3b): full fine-tuning of the
//! pre-trained TS encoder plus a task-specific MLP classifier trained with
//! cross-entropy.

use std::path::Path;

use aimts_data::preprocess::z_normalize_sample;
use aimts_data::{Dataset, MultiSeries, Split};
use aimts_nn::{
    apply_named_tensors, decode_named_tensors, encode_named_tensors, sections, Activation, Adam,
    Checkpoint, CheckpointError, Mlp, Module,
};
use aimts_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::{batch_indices, encode_channel_independent, samples_to_tensor};
use crate::config::FineTuneConfig;
use crate::encoder::TsEncoder;
use crate::health::{HealthMonitor, HealthReport, StepOutcome};
use crate::model::AimTs;

/// A fine-tuned task model: encoder copy + classifier head.
pub struct FineTuned {
    pub encoder: TsEncoder,
    pub head: Mlp,
    pub n_classes: usize,
    /// Cross-entropy per epoch on the training split.
    pub train_losses: Vec<f32>,
    /// Best training-split accuracy seen by [`FineTuned::fit`] when
    /// best-checkpointing is enabled (`None` otherwise).
    pub best_train_accuracy: Option<f64>,
    /// Supervisor account of fine-tuning: anomalous (skipped) steps, clip
    /// events, per-epoch gradient-norm stats. Accumulates across repeated
    /// [`FineTuned::fit`] calls. Fine-tuning has no full optimizer
    /// checkpoint, so the ladder stops at skip — the rollback/abort rungs
    /// apply to pre-training only.
    pub health: HealthReport,
}

impl FineTuned {
    /// Run the fine-tuning stage for `ds` starting from `model`'s
    /// pre-trained encoder.
    pub(crate) fn train(model: &AimTs, ds: &Dataset, fcfg: &FineTuneConfig) -> FineTuned {
        FineTuned::from_encoder(model.clone_ts_encoder(), model.cfg.repr_dim, ds, fcfg)
    }

    /// Fine-tune an arbitrary (e.g. baseline-pre-trained) [`TsEncoder`]
    /// plus a fresh classifier head on `ds`. Consumes the encoder copy.
    pub fn from_encoder(
        encoder: TsEncoder,
        repr_dim: usize,
        ds: &Dataset,
        fcfg: &FineTuneConfig,
    ) -> FineTuned {
        let head = Mlp::new(
            &[repr_dim, fcfg.head_hidden, ds.n_classes],
            Activation::Gelu,
            fcfg.seed.wrapping_add(77),
        );
        let mut tuned = FineTuned {
            encoder,
            head,
            n_classes: ds.n_classes,
            train_losses: Vec::new(),
            best_train_accuracy: None,
            health: HealthReport::default(),
        };
        tuned.fit(&ds.train, fcfg);
        tuned
    }

    /// Encoder + head parameters with stable hierarchical names (the layout
    /// [`FineTuned::save_params`] / [`FineTuned::load_params`] use).
    pub fn named_parameters(&self) -> Vec<(String, aimts_tensor::Tensor)> {
        let mut out = Vec::new();
        self.encoder.named_parameters("encoder", &mut out);
        self.head.named_parameters("head", &mut out);
        out
    }

    /// Atomically write encoder + head to a binary checkpoint. `epoch` and
    /// the best accuracy (scaled by 1e6 into the step counter) land in the
    /// header for quick inspection.
    pub fn save_params(&self, path: &Path, epoch: usize) -> Result<(), CheckpointError> {
        let mut ck = Checkpoint::new(
            (self.best_train_accuracy.unwrap_or(0.0) * 1e6) as u64,
            epoch as u64,
        );
        ck.push_section(
            sections::PARAMS,
            encode_named_tensors(&self.named_parameters()),
        );
        ck.save(path)
    }

    /// Restore encoder + head from a [`FineTuned::save_params`] checkpoint.
    /// Validates every checksum and shape; on error the model is untouched.
    pub fn load_params(&mut self, path: &Path) -> Result<(), CheckpointError> {
        let ck = Checkpoint::load(path)?;
        let entries =
            decode_named_tensors(ck.require_section(sections::PARAMS)?, sections::PARAMS)?;
        apply_named_tensors(&entries, &self.named_parameters())
    }

    /// Train on a (possibly subsampled) split.
    pub fn fit(&mut self, train: &Split, fcfg: &FineTuneConfig) {
        assert!(!train.is_empty(), "cannot fine-tune on an empty split");
        let prepared: Vec<MultiSeries> = train
            .samples
            .iter()
            .map(|s| {
                let mut v = s.vars.clone();
                z_normalize_sample(&mut v);
                v
            })
            .collect();
        let labels = train.labels();

        let mut params = self.head.parameters();
        if fcfg.train_encoder {
            params.extend(self.encoder.parameters());
        }
        let mut opt = Adam::new(params.clone(), fcfg.lr);
        let mut rng = StdRng::seed_from_u64(fcfg.seed);
        let mut mon = HealthMonitor::new(fcfg.health.clone());

        for epoch in 0..fcfg.epochs {
            let mut epoch_loss = 0f32;
            let mut stepped = 0usize;
            let mut batches = batch_indices(prepared.len(), fcfg.batch_size, &mut rng);
            // A single-sample dataset yields no (>= 2)-sized batches; fall
            // back to one full-split batch in that pathological case.
            if batches.is_empty() {
                batches.push((0..prepared.len()).collect());
            }
            for batch in batches {
                let samples: Vec<&MultiSeries> = batch.iter().map(|&i| &prepared[i]).collect();
                let targets: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
                let loss = self.fit_loss(&samples, &targets);
                // The ladder without the post-step parameter scan: with no
                // optimizer-state checkpoint there is no rollback rung, so
                // a rollback verdict counts as one more skip.
                let attempt = mon.begin_attempt();
                let grad = mon.guarded_backward(&opt, &loss, attempt);
                if let StepOutcome::Stepped(loss_val) =
                    mon.supervised_step(&mut opt, &params, false, grad)
                {
                    epoch_loss += loss_val;
                    stepped += 1;
                }
            }
            // An epoch whose every step was skipped reports NaN honestly.
            self.train_losses.push(if stepped == 0 {
                f32::NAN
            } else {
                epoch_loss / stepped as f32
            });
            mon.end_epoch();
            // Best-accuracy checkpointing: snapshot encoder + head whenever
            // the training-split accuracy improves, atomically, so the best
            // model survives a crash (or later over-fitting epochs).
            if let Some(path) = &fcfg.best_ckpt {
                let acc = self.evaluate(train);
                if self.best_train_accuracy.is_none_or(|best| acc > best) {
                    self.best_train_accuracy = Some(acc);
                    if let Err(e) = self.save_params(path, epoch) {
                        eprintln!(
                            "warning: best-accuracy checkpoint to {} failed: {e}",
                            path.display()
                        );
                    }
                }
            }
        }
        self.health.absorb(mon.into_report());
    }

    /// One fine-tuning step's loss: cross-entropy of the head's logits over
    /// the encoded batch.
    fn fit_loss(&self, samples: &[&MultiSeries], targets: &[usize]) -> Tensor {
        let x = samples_to_tensor(samples);
        let logits = self
            .head
            .forward(&encode_channel_independent(&self.encoder, &x));
        logits.cross_entropy(targets)
    }

    /// Class predictions for a split (inference mode, no grad).
    ///
    /// Routed through a frozen [`crate::infer::InferenceModel`] copy: the
    /// forward runs on untracked `Storage::Hot` parameters, so beyond the
    /// one-time parameter snapshot it acquires no tensor locks and builds
    /// no autograd state. Results are bitwise-identical to the historical
    /// in-place forward (same values, same op order).
    pub fn predict(&self, split: &Split) -> Vec<usize> {
        assert!(!split.is_empty());
        self.freeze().predict_split(split)
    }

    /// Accuracy on a split.
    pub fn evaluate(&self, split: &Split) -> f64 {
        aimts_eval::accuracy(&self.predict(split), &split.labels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AimTsConfig, FineTuneConfig};
    use aimts_data::generator::{DatasetSpec, PatternFamily};

    fn easy_dataset() -> Dataset {
        DatasetSpec {
            n_classes: 2,
            train_per_class: 10,
            test_per_class: 10,
            noise: 0.05,
            length: 48,
            ..DatasetSpec::new("easy", PatternFamily::SineFreq, 5)
        }
        .generate()
    }

    #[test]
    fn finetune_learns_separable_classes_without_pretraining() {
        let model = AimTs::new(AimTsConfig::tiny(), 3407);
        let ds = easy_dataset();
        let fcfg = FineTuneConfig {
            epochs: 30,
            batch_size: 8,
            ..Default::default()
        };
        let tuned = model.fine_tune(&ds, &fcfg);
        let acc = tuned.evaluate(&ds.test);
        assert!(
            acc >= 0.8,
            "expected separable classes to be learned, acc {acc}"
        );
        // Training loss decreased.
        assert!(tuned.train_losses.last().unwrap() < &tuned.train_losses[0]);
    }

    #[test]
    fn predictions_are_valid_classes() {
        let model = AimTs::new(AimTsConfig::tiny(), 1);
        let ds = easy_dataset();
        let tuned = model.fine_tune(
            &ds,
            &FineTuneConfig {
                epochs: 1,
                ..Default::default()
            },
        );
        let preds = tuned.predict(&ds.test);
        assert_eq!(preds.len(), ds.test.len());
        assert!(preds.iter().all(|&p| p < ds.n_classes));
    }

    #[test]
    fn linear_probe_mode_keeps_encoder_frozen() {
        let model = AimTs::new(AimTsConfig::tiny(), 2);
        let before: Vec<f32> = model.ts_encoder.parameters()[0].to_vec();
        let ds = easy_dataset();
        let fcfg = FineTuneConfig {
            epochs: 2,
            train_encoder: false,
            ..Default::default()
        };
        let tuned = model.fine_tune(&ds, &fcfg);
        // The tuned copy's encoder must equal the original (frozen).
        let after: Vec<f32> = tuned.encoder.parameters()[0].to_vec();
        assert_eq!(before, after);
    }

    #[test]
    fn finetune_does_not_mutate_pretrained_model() {
        let model = AimTs::new(AimTsConfig::tiny(), 3);
        let before: Vec<f32> = model.ts_encoder.parameters()[0].to_vec();
        let ds = easy_dataset();
        let _ = model.fine_tune(
            &ds,
            &FineTuneConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        let after: Vec<f32> = model.ts_encoder.parameters()[0].to_vec();
        assert_eq!(before, after);
    }
}
