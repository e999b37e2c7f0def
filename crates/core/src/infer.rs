//! Lock-free inference: frozen model copies and self-describing serving
//! bundles.
//!
//! [`InferenceModel`] is the serving-side view of a fine-tuned classifier:
//! every parameter lives in an untracked `Storage::Hot` buffer (see
//! [`Replicate::freeze`]), so a forward pass acquires **zero** tensor locks
//! and allocates **zero** autograd graph state — the regression test
//! `infer_lockfree.rs` pins both via the lock-order checker's acquisition
//! counter. The model is immutable after construction, which is what lets
//! `aimts-serve` share one `Arc<InferenceModel>` across request threads and
//! hot-swap it with a pointer flip.
//!
//! Classification is bitwise-identical to [`FineTuned::predict`] for *any*
//! grouping of samples into batches: normalization is per-sample, the
//! encoder is channel-independent, and every kernel accumulates per output
//! element in a fixed order, so a sample's logits do not depend on its
//! batch neighbours. `tests/serve_conformance.rs` pins that contract.

use std::path::Path;
use std::sync::Arc;

use aimts_data::preprocess::z_normalize_sample;
use aimts_data::{MultiSeries, Split};
use aimts_nn::{
    apply_named_tensors, decode_named_tensors, encode_named_tensors, sections, Activation,
    Checkpoint, CheckpointError, Mlp, Module, Replicate, SectionReader, SectionWriter,
};
use aimts_tensor::{no_grad, Tensor};

use crate::batch::{encode_channel_independent, samples_to_tensor};
use crate::encoder::TsEncoder;
use crate::finetune::FineTuned;
use crate::health::HealthReport;

/// Offline evaluation and the online batcher both chunk un-bounded inputs
/// at this size; bounded peak activation memory, no effect on results.
pub const INFER_CHUNK: usize = 64;

/// An observation hook run on every batch before the forward pass (see
/// [`InferenceModel::with_pre_classify_hook`]).
pub type PreClassifyHook = Arc<dyn Fn(&[&MultiSeries]) + Send + Sync>;

/// An immutable, lock-free classifier: frozen encoder + frozen head.
pub struct InferenceModel {
    encoder: TsEncoder,
    head: Mlp,
    n_classes: usize,
    pre_hook: Option<PreClassifyHook>,
}

impl InferenceModel {
    /// Freeze `encoder` + `head` into a serving model (copies parameters
    /// into untracked Hot storage; the originals are untouched).
    pub fn new(encoder: &TsEncoder, head: &Mlp, n_classes: usize) -> Self {
        InferenceModel {
            encoder: encoder.freeze(),
            head: head.freeze(),
            n_classes,
            pre_hook: None,
        }
    }

    /// Install an observation hook invoked with each (shape-homogeneous)
    /// batch at the top of [`InferenceModel::classify`], before any
    /// tensor work. The hook must not mutate the samples; it exists so
    /// fault-injection harnesses can make specific payloads panic inside
    /// the guarded inference path exactly as a model crash would
    /// (`aimts-serve`'s poison-isolation tests). `None` in production.
    pub fn with_pre_classify_hook(mut self, hook: PreClassifyHook) -> Self {
        self.pre_hook = Some(hook);
        self
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Class predictions for raw (un-normalized) samples, all of the same
    /// `(M, T)` shape; use [`InferenceModel::classify_mixed`] for
    /// heterogeneous batches. Input order is preserved.
    pub fn classify(&self, samples: &[&MultiSeries]) -> Vec<usize> {
        assert!(!samples.is_empty(), "classify on an empty batch");
        if let Some(hook) = &self.pre_hook {
            hook(samples);
        }
        no_grad(|| {
            let mut preds = Vec::with_capacity(samples.len());
            for chunk in samples.chunks(INFER_CHUNK) {
                let prepared: Vec<MultiSeries> = chunk
                    .iter()
                    .map(|s| {
                        let mut v = (*s).clone();
                        z_normalize_sample(&mut v);
                        v
                    })
                    .collect();
                let refs: Vec<&MultiSeries> = prepared.iter().collect();
                let x = samples_to_tensor(&refs);
                preds.extend(self.logits_argmax(&x));
            }
            preds
        })
    }

    /// Class predictions for samples of arbitrary (possibly mixed) shapes:
    /// groups by `(M, T)` internally and scatters results back to input
    /// order. Each group classifies exactly as a homogeneous
    /// [`InferenceModel::classify`] call would.
    pub fn classify_mixed(&self, samples: &[&MultiSeries]) -> Vec<usize> {
        assert!(!samples.is_empty(), "classify on an empty batch");
        // Order-preserving grouping: first-seen shape order, input order
        // within each group.
        let mut groups: Vec<((usize, usize), Vec<usize>)> = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            let key = (s.len(), s[0].len());
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, idx)) => idx.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        let mut preds = vec![0usize; samples.len()];
        for (_, idx) in &groups {
            let group: Vec<&MultiSeries> = idx.iter().map(|&i| samples[i]).collect();
            for (&i, p) in idx.iter().zip(self.classify(&group)) {
                preds[i] = p;
            }
        }
        preds
    }

    /// Class predictions for a labeled split (the offline-evaluation entry;
    /// same semantics as [`FineTuned::predict`]).
    pub fn predict_split(&self, split: &Split) -> Vec<usize> {
        assert!(!split.is_empty());
        let refs: Vec<&MultiSeries> = split.samples.iter().map(|s| &s.vars).collect();
        self.classify(&refs)
    }

    /// Forward one prepared `[B, M, T]` batch and arg-max the logits. Runs
    /// under the caller's `no_grad`.
    fn logits_argmax(&self, x: &Tensor) -> Vec<usize> {
        self.head
            .forward(&encode_channel_independent(&self.encoder, x))
            .argmax_axis(1)
    }
}

impl FineTuned {
    /// Freeze this fine-tuned model into an immutable, lock-free
    /// [`InferenceModel`] (see module docs).
    pub fn freeze(&self) -> InferenceModel {
        InferenceModel::new(&self.encoder, &self.head, self.n_classes)
    }

    /// Atomically write a *self-describing* serving bundle: an `.aimts`
    /// checkpoint with an [`sections::ARCH`] section (architecture
    /// hyper-parameters) plus the usual [`sections::PARAMS`] payload, so a
    /// server can reconstruct the model from the file alone.
    pub fn save_bundle(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut arch = SectionWriter::new();
        arch.put_u32(self.encoder.hidden() as u32);
        arch.put_u32(self.encoder.repr_dim() as u32);
        arch.put_u32(self.head_hidden() as u32);
        arch.put_u32(self.n_classes as u32);
        let dilations: Vec<u32> = self.encoder.dilations().iter().map(|&d| d as u32).collect();
        arch.put_u32_slice(&dilations);
        let mut ck = Checkpoint::new(0, 0);
        ck.push_section(sections::ARCH, arch.finish());
        ck.push_section(
            sections::PARAMS,
            encode_named_tensors(&self.named_parameters()),
        );
        ck.save(path)
    }

    /// Reconstruct a fine-tuned model from a [`FineTuned::save_bundle`]
    /// file. Every checksum, the architecture section, and every parameter
    /// name/shape are validated; any defect surfaces as a typed
    /// [`CheckpointError`] without partial state.
    pub fn load_bundle(path: &Path) -> Result<FineTuned, CheckpointError> {
        let ck = Checkpoint::load(path)?;
        let mut arch = SectionReader::new(ck.require_section(sections::ARCH)?, sections::ARCH);
        let hidden = arch.get_u32("hidden")? as usize;
        let repr_dim = arch.get_u32("repr_dim")? as usize;
        let head_hidden = arch.get_u32("head_hidden")? as usize;
        let n_classes = arch.get_u32("n_classes")? as usize;
        let dilations: Vec<usize> = arch
            .get_u32_slice("dilations")?
            .iter()
            .map(|&d| d as usize)
            .collect();
        arch.finish()?;
        if hidden == 0
            || repr_dim == 0
            || head_hidden == 0
            || n_classes == 0
            || dilations.is_empty()
        {
            return Err(CheckpointError::Malformed {
                context: format!("section `{}`", sections::ARCH),
                detail: "architecture dimensions must be non-zero".to_string(),
            });
        }
        let encoder = TsEncoder::new(hidden, repr_dim, &dilations, 0);
        let head = Mlp::new(&[repr_dim, head_hidden, n_classes], Activation::Gelu, 0);
        let tuned = FineTuned {
            encoder,
            head,
            n_classes,
            train_losses: Vec::new(),
            best_train_accuracy: None,
            health: HealthReport::default(),
        };
        let entries =
            decode_named_tensors(ck.require_section(sections::PARAMS)?, sections::PARAMS)?;
        apply_named_tensors(&entries, &tuned.named_parameters())?;
        Ok(tuned)
    }

    /// Hidden width of the classifier head (recovered from the first head
    /// layer's weight shape; the struct does not store the config).
    fn head_hidden(&self) -> usize {
        let mut named = Vec::new();
        self.head.named_parameters("head", &mut named);
        #[expect(
            clippy::expect_used,
            reason = "Mlp::new always registers head.0.weight; absence is unreachable"
        )]
        let (_, w) = named
            .iter()
            .find(|(n, _)| n == "head.0.weight")
            .expect("Mlp head always has a first Linear layer");
        w.shape()[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AimTsConfig, FineTuneConfig};
    use crate::model::AimTs;
    use aimts_data::generator::{DatasetSpec, PatternFamily};
    use aimts_data::Dataset;

    fn easy_dataset() -> Dataset {
        DatasetSpec {
            n_classes: 2,
            train_per_class: 8,
            test_per_class: 8,
            noise: 0.05,
            length: 48,
            ..DatasetSpec::new("easy", PatternFamily::SineFreq, 5)
        }
        .generate()
    }

    fn tuned() -> FineTuned {
        let model = AimTs::new(AimTsConfig::tiny(), 3407);
        model.fine_tune(
            &easy_dataset(),
            &FineTuneConfig {
                epochs: 2,
                batch_size: 8,
                ..Default::default()
            },
        )
    }

    #[test]
    fn frozen_matches_live_forward() {
        let t = tuned();
        let ds = easy_dataset();
        let prepared: Vec<MultiSeries> = ds
            .test
            .samples
            .iter()
            .map(|s| {
                let mut v = s.vars.clone();
                z_normalize_sample(&mut v);
                v
            })
            .collect();
        let refs: Vec<&MultiSeries> = prepared.iter().collect();
        let live = no_grad(|| {
            t.head
                .forward(&encode_channel_independent(
                    &t.encoder,
                    &samples_to_tensor(&refs),
                ))
                .argmax_axis(1)
        });
        assert_eq!(t.freeze().predict_split(&ds.test), live);
    }

    #[test]
    fn singletons_match_full_batch() {
        let t = tuned();
        let ds = easy_dataset();
        let m = t.freeze();
        let full = m.predict_split(&ds.test);
        for (i, s) in ds.test.samples.iter().enumerate() {
            assert_eq!(m.classify(&[&s.vars]), vec![full[i]], "sample {i}");
        }
    }

    #[test]
    fn mixed_shapes_group_and_scatter() {
        let t = tuned();
        let m = t.freeze();
        let a: MultiSeries = vec![(0..48).map(|i| (i as f32).sin()).collect()];
        let b: MultiSeries = vec![(0..32).map(|i| (i as f32).cos()).collect()];
        let mixed = m.classify_mixed(&[&a, &b, &a]);
        assert_eq!(mixed[0], m.classify(&[&a])[0]);
        assert_eq!(mixed[1], m.classify(&[&b])[0]);
        assert_eq!(mixed[2], mixed[0]);
    }

    #[test]
    fn bundle_round_trips() {
        let t = tuned();
        let ds = easy_dataset();
        let dir = std::env::temp_dir().join(format!("aimts-bundle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("model.aimts");
        t.save_bundle(&path).expect("save bundle");
        let back = FineTuned::load_bundle(&path).expect("load bundle");
        assert_eq!(back.n_classes, t.n_classes);
        assert_eq!(back.predict(&ds.test), t.predict(&ds.test));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bundle_without_arch_section_is_rejected() {
        let t = tuned();
        let dir = std::env::temp_dir().join(format!("aimts-bundle-noarch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("params-only.aimts");
        // A plain fine-tune checkpoint (PARAMS only) is not a bundle.
        t.save_params(&path, 0).expect("save params");
        let err = match FineTuned::load_bundle(&path) {
            Ok(_) => panic!("params-only file must be rejected"),
            Err(e) => e,
        };
        assert!(
            matches!(err, CheckpointError::MissingSection { .. }),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
