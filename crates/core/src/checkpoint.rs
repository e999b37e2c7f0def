//! Pre-training checkpoint assembly and restore.
//!
//! Composes the generic binary container from `aimts_nn::checkpoint` into
//! the full snapshot [`AimTs::pretrain`](crate::AimTs::pretrain) needs to
//! resume bit-exactly: model parameters, Adam moments, StepLR state, and
//! the training-loop bookkeeping (RNG stream word, micro-batch counter,
//! worker topology, loss history) in a dedicated `train` section.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use aimts_nn::{
    apply_named_tensors, decode_adam_state, decode_named_tensors, decode_scheduler_state,
    encode_adam_state, encode_named_tensors, encode_scheduler_state, sections, AdamState,
    Checkpoint, CheckpointError, SchedulerState, SectionReader, SectionWriter,
};

use crate::model::AimTs;

/// File extension of binary pre-training checkpoints.
pub const CKPT_EXT: &str = "aimts";

/// Training-loop bookkeeping persisted alongside model/optimizer state.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainState {
    /// Optimizer steps taken.
    pub steps: u64,
    /// Epochs fully completed.
    pub epochs_done: u64,
    /// Base seed the run was launched with (resume must match it for the
    /// derived streams to line up).
    pub base_seed: u64,
    /// Mid-stream state word of the shared RNG (shuffling at every worker
    /// count, augmentation too at `workers == 1`).
    pub rng_state: u64,
    /// Micro-batches drawn so far. At `workers >= 2` it derives each
    /// micro-batch's augmentation seed; at `workers == 1` nothing reads it.
    pub micro_counter: u64,
    /// Worker count `W` the run resolved to: 1 = one micro-batch per step,
    /// augmented from the shared RNG; >= 2 = rounds of up to `W`
    /// micro-batches with derived seeds. Round boundaries and random
    /// streams depend on it, so resume requires an exact match.
    pub workers: u32,
    /// Mean total loss of every completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean `L_proto` of the last completed epoch.
    pub last_proto: f32,
    /// Mean `L_SI` of the last completed epoch.
    pub last_si: f32,
}

fn encode_train_state(st: &PretrainState) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.put_u64(st.steps);
    w.put_u64(st.epochs_done);
    w.put_u64(st.base_seed);
    w.put_u64(st.rng_state);
    w.put_u64(st.micro_counter);
    w.put_u32(st.workers);
    w.put_f32_slice(&st.epoch_losses);
    w.put_f32(st.last_proto);
    w.put_f32(st.last_si);
    w.finish()
}

fn decode_train_state(bytes: &[u8]) -> Result<PretrainState, CheckpointError> {
    let mut r = SectionReader::new(bytes, sections::TRAIN);
    let st = PretrainState {
        steps: r.get_u64("steps")?,
        epochs_done: r.get_u64("epochs_done")?,
        base_seed: r.get_u64("base_seed")?,
        rng_state: r.get_u64("rng_state")?,
        micro_counter: r.get_u64("micro_counter")?,
        workers: r.get_u32("workers")?,
        epoch_losses: r.get_f32_slice("epoch_losses")?,
        last_proto: r.get_f32("last_proto")?,
        last_si: r.get_f32("last_si")?,
    };
    r.finish()?;
    Ok(st)
}

/// Assemble a full pre-training checkpoint for `model` (sections: `params`,
/// `adam`, `scheduler`, `train`).
pub fn build_pretrain_checkpoint(
    model: &AimTs,
    adam: &AdamState,
    sched: &SchedulerState,
    train: &PretrainState,
) -> Checkpoint {
    let mut ck = Checkpoint::new(train.steps, train.epochs_done);
    ck.push_section(
        sections::PARAMS,
        encode_named_tensors(&model.named_parameters()),
    );
    ck.push_section(sections::ADAM, encode_adam_state(adam));
    ck.push_section(sections::SCHEDULER, encode_scheduler_state(sched));
    ck.push_section(sections::TRAIN, encode_train_state(train));
    ck
}

/// Everything decoded out of a pre-training checkpoint, not yet applied.
pub struct DecodedPretrain {
    pub adam: AdamState,
    pub scheduler: SchedulerState,
    pub train: PretrainState,
    entries: Vec<aimts_nn::TensorEntry>,
}

impl DecodedPretrain {
    /// Copy the checkpointed parameters into `model` (validates names and
    /// shapes first; a mismatch leaves the model untouched).
    pub fn apply_params(&self, model: &AimTs) -> Result<(), CheckpointError> {
        apply_named_tensors(&self.entries, &model.named_parameters())
    }
}

/// Validate and decode all four sections of a pre-training checkpoint.
pub fn decode_pretrain_checkpoint(ck: &Checkpoint) -> Result<DecodedPretrain, CheckpointError> {
    let entries = decode_named_tensors(ck.require_section(sections::PARAMS)?, sections::PARAMS)?;
    let adam = decode_adam_state(ck.require_section(sections::ADAM)?, sections::ADAM)?;
    let scheduler = decode_scheduler_state(
        ck.require_section(sections::SCHEDULER)?,
        sections::SCHEDULER,
    )?;
    let train = decode_train_state(ck.require_section(sections::TRAIN)?)?;
    Ok(DecodedPretrain {
        adam,
        scheduler,
        train,
        entries,
    })
}

/// Canonical path of the checkpoint cut after `epochs_done` epochs.
pub fn checkpoint_path(dir: &Path, epochs_done: usize) -> PathBuf {
    dir.join(format!("ckpt-{epochs_done:06}.{CKPT_EXT}"))
}

/// Periodic checkpoints in `dir`, sorted oldest → newest by epoch number.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if let Some(epoch) = name
            .strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(&format!(".{CKPT_EXT}")))
            .and_then(|num| num.parse::<u64>().ok())
        {
            found.push((epoch, path));
        }
    }
    found.sort();
    Ok(found.into_iter().map(|(_, p)| p).collect())
}

/// Newest periodic checkpoint in `dir`, if any.
pub fn latest_checkpoint(dir: &Path) -> io::Result<Option<PathBuf>> {
    Ok(list_checkpoints(dir)?.pop())
}

/// Delete the oldest periodic checkpoints, keeping the newest `keep_last`
/// (0 keeps everything).
pub fn prune_checkpoints(dir: &Path, keep_last: usize) -> io::Result<()> {
    if keep_last == 0 {
        return Ok(());
    }
    let ckpts = list_checkpoints(dir)?;
    if ckpts.len() > keep_last {
        for stale in &ckpts[..ckpts.len() - keep_last] {
            fs::remove_file(stale)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AimTsConfig;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aimts_core_ckpt_{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn dummy_state() -> PretrainState {
        PretrainState {
            steps: 12,
            epochs_done: 3,
            base_seed: 3407,
            rng_state: 0xDEAD_BEEF,
            micro_counter: 9,
            workers: 1,
            epoch_losses: vec![2.0, 1.5, 1.25],
            last_proto: 0.75,
            last_si: 0.5,
        }
    }

    #[test]
    fn pretrain_checkpoint_roundtrip() {
        let model = AimTs::new(AimTsConfig::tiny(), 5);
        let params: Vec<_> = model
            .named_parameters()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let adam = aimts_nn::Adam::new(params, 7e-3).export_state();
        let sched = aimts_nn::StepLr::new(7e-3, 1, 0.5).export_state();
        let train = dummy_state();
        let ck = build_pretrain_checkpoint(&model, &adam, &sched, &train);
        assert_eq!(ck.step, 12);
        assert_eq!(ck.epoch, 3);

        let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        let dec = decode_pretrain_checkpoint(&back).unwrap();
        assert_eq!(dec.train, train);
        assert_eq!(dec.adam.t, adam.t);
        assert_eq!(dec.scheduler, sched);

        // Applying onto a differently-initialized model reproduces weights.
        let other = AimTs::new(AimTsConfig::tiny(), 99);
        dec.apply_params(&other).unwrap();
        assert_eq!(other.flat_parameters(), model.flat_parameters());

        // A different architecture is rejected, untouched.
        let small = AimTs::new(
            AimTsConfig {
                hidden: 4,
                ..AimTsConfig::tiny()
            },
            0,
        );
        let before = small.flat_parameters();
        assert!(dec.apply_params(&small).is_err());
        assert_eq!(small.flat_parameters(), before);
    }

    #[test]
    fn missing_section_is_typed() {
        let mut ck = Checkpoint::new(0, 0);
        ck.push_section(sections::PARAMS, encode_named_tensors(&[]));
        assert!(matches!(
            decode_pretrain_checkpoint(&ck),
            Err(CheckpointError::MissingSection { .. })
        ));
    }

    #[test]
    fn listing_and_retention() {
        let dir = tmp_dir("retention");
        for epoch in [1usize, 2, 3, 4, 5] {
            let mut ck = Checkpoint::new(0, epoch as u64);
            ck.push_section("s", vec![epoch as u8]);
            ck.save(&checkpoint_path(&dir, epoch)).unwrap();
        }
        // Unrelated files are ignored.
        fs::write(dir.join("notes.txt"), "x").unwrap();
        fs::write(dir.join("ckpt-abc.aimts"), "x").unwrap();

        let all = list_checkpoints(&dir).unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(
            latest_checkpoint(&dir).unwrap().unwrap(),
            checkpoint_path(&dir, 5)
        );

        prune_checkpoints(&dir, 2).unwrap();
        let kept = list_checkpoints(&dir).unwrap();
        assert_eq!(
            kept,
            vec![checkpoint_path(&dir, 4), checkpoint_path(&dir, 5)]
        );

        // keep_last = 0 keeps everything.
        prune_checkpoints(&dir, 0).unwrap();
        assert_eq!(list_checkpoints(&dir).unwrap().len(), 2);
    }
}
