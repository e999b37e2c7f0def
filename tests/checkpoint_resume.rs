//! Bit-exact resume integration tests: pre-training N epochs straight must
//! equal pre-training N/2 epochs, "crashing", and resuming from the periodic
//! checkpoint for the remaining N/2 — identical parameters and identical
//! per-epoch loss curves.

use std::path::PathBuf;

use aimts::{checkpoint_path, AimTs, AimTsConfig, CheckpointPolicy, PretrainConfig, TrainError};
use aimts_data::archives::monash_like_pool;
use aimts_data::MultiSeries;
use aimts_nn::CheckpointError;

const EPOCHS: usize = 4;
const HALF: usize = EPOCHS / 2;

fn tiny_pool() -> Vec<MultiSeries> {
    monash_like_pool(2, 0).into_iter().take(12).collect()
}

fn pcfg(workers: usize, checkpoint: CheckpointPolicy) -> PretrainConfig {
    PretrainConfig {
        epochs: EPOCHS,
        batch_size: 4,
        seed: 3407,
        workers,
        checkpoint,
        ..PretrainConfig::default()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aimts_resume_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Straight N-epoch run vs N/2 → kill → resume N/2, compared by `check`.
fn run_interrupted_vs_straight(
    workers: usize,
    tag: &str,
    check: impl Fn(&[f32], &[f32], &[f32], &[f32]),
) {
    let pool = tiny_pool();
    let dir = tmp_dir(tag);

    // Reference: one uninterrupted run, no checkpointing at all.
    let mut straight = AimTs::new(AimTsConfig::tiny(), 1);
    let straight_report = straight
        .pretrain(&pool, &pcfg(workers, CheckpointPolicy::default()))
        .unwrap();

    // Interrupted run: stop ("crash") after HALF epochs...
    let mut victim = AimTs::new(AimTsConfig::tiny(), 1);
    let victim_report = victim
        .pretrain(
            &pool,
            &PretrainConfig {
                epochs: HALF,
                checkpoint: CheckpointPolicy {
                    dir: Some(dir.clone()),
                    every: 1,
                    keep_last: 0,
                    resume_from: None,
                },
                ..pcfg(workers, CheckpointPolicy::default())
            },
        )
        .unwrap();
    let ckpt = checkpoint_path(&dir, HALF);
    assert!(ckpt.exists(), "periodic checkpoint missing at {ckpt:?}");

    // ...then resume in a FRESH process stand-in: a model with a different
    // init seed, whose weights/optimizer/RNG all come from the checkpoint.
    let mut resumed = AimTs::new(AimTsConfig::tiny(), 999);
    let resumed_report = resumed
        .pretrain(
            &pool,
            &pcfg(
                workers,
                CheckpointPolicy {
                    resume_from: Some(ckpt),
                    ..CheckpointPolicy::default()
                },
            ),
        )
        .unwrap();

    // The loss history carries across the crash: first HALF epochs of the
    // resumed curve are the victim's, and the report covers all EPOCHS.
    assert_eq!(victim_report.epoch_losses.len(), HALF);
    assert_eq!(straight_report.epoch_losses.len(), EPOCHS);
    assert_eq!(resumed_report.epoch_losses.len(), EPOCHS);
    assert_eq!(
        resumed_report.epoch_losses[..HALF],
        victim_report.epoch_losses[..],
        "resume must preserve the pre-crash loss history verbatim"
    );

    check(
        &straight.flat_parameters(),
        &resumed.flat_parameters(),
        &straight_report.epoch_losses,
        &resumed_report.epoch_losses,
    );
}

#[test]
fn serial_resume_is_bit_exact() {
    run_interrupted_vs_straight(
        1,
        "serial",
        |p_straight, p_resumed, l_straight, l_resumed| {
            assert_eq!(
                l_straight, l_resumed,
                "serial loss curves must match bit-for-bit"
            );
            assert_eq!(p_straight.len(), p_resumed.len());
            let diverged = p_straight
                .iter()
                .zip(p_resumed)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            assert_eq!(
                diverged,
                0,
                "{diverged}/{} parameters differ after serial resume",
                p_straight.len()
            );
        },
    );
}

/// The persistent worker pool pins micro-batch slot i to worker thread i for
/// the whole run, and the all-reduce sums the gradients in f64 in slot
/// order, so the 4-worker resume is held to the same bit-exactness bar as
/// serial — the resumed process spawns a fresh pool yet must replay the
/// identical trajectory.
#[test]
fn parallel_resume_is_bit_exact() {
    run_interrupted_vs_straight(
        4,
        "parallel",
        |p_straight, p_resumed, l_straight, l_resumed| {
            assert_eq!(
                l_straight, l_resumed,
                "parallel loss curves must match bit-for-bit across resume"
            );
            assert_eq!(p_straight.len(), p_resumed.len());
            let diverged = p_straight
                .iter()
                .zip(p_resumed)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            assert_eq!(
                diverged,
                0,
                "{diverged}/{} parameters differ after parallel resume",
                p_straight.len()
            );
        },
    );
}

#[test]
fn resume_rejects_mismatched_seed_and_topology() {
    let pool = tiny_pool();
    let dir = tmp_dir("mismatch");
    let mut model = AimTs::new(AimTsConfig::tiny(), 1);
    model
        .pretrain(
            &pool,
            &PretrainConfig {
                epochs: 1,
                checkpoint: CheckpointPolicy {
                    dir: Some(dir.clone()),
                    ..CheckpointPolicy::default()
                },
                ..pcfg(1, CheckpointPolicy::default())
            },
        )
        .unwrap();
    let ckpt = checkpoint_path(&dir, 1);
    let resume = |seed: u64, workers: usize| {
        let mut m = AimTs::new(AimTsConfig::tiny(), 1);
        m.pretrain(
            &pool,
            &PretrainConfig {
                seed,
                ..pcfg(
                    workers,
                    CheckpointPolicy {
                        resume_from: Some(ckpt.clone()),
                        ..CheckpointPolicy::default()
                    },
                )
            },
        )
    };
    // Wrong base seed: the RNG streams would not line up.
    assert!(resume(9999, 1).is_err());
    // Wrong worker topology: gradient-round boundaries would differ.
    assert!(resume(3407, 4).is_err());
    // Matching run is accepted.
    assert!(resume(3407, 1).is_ok());
}

/// Asking for two workers on a pool whose epochs yield one micro-batch
/// each still runs the per-micro-batch-seed path at two workers. The report
/// and the checkpoints say so, a one-worker resume (which would continue on
/// the shared RNG stream instead) is refused, and a two-worker resume is
/// bit-exact.
#[test]
fn clamped_two_worker_run_is_never_recorded_as_one_worker() {
    let pool: Vec<MultiSeries> = tiny_pool().into_iter().take(2).collect();
    assert_eq!(pool[0].len(), pool[1].len(), "one variable-count group");
    let dir = tmp_dir("clamped");
    let cfg = |workers: usize, checkpoint: CheckpointPolicy| PretrainConfig {
        epochs: 2,
        ..pcfg(workers, checkpoint)
    };
    let mut straight = AimTs::new(AimTsConfig::tiny(), 1);
    let report = straight
        .pretrain(
            &pool,
            &cfg(
                2,
                CheckpointPolicy {
                    dir: Some(dir.clone()),
                    every: 1,
                    keep_last: 0,
                    resume_from: None,
                },
            ),
        )
        .unwrap();
    assert_eq!(report.workers, 2);

    let resume = |workers: usize| {
        let mut model = AimTs::new(AimTsConfig::tiny(), 999);
        let policy = CheckpointPolicy {
            resume_from: Some(checkpoint_path(&dir, 1)),
            ..CheckpointPolicy::default()
        };
        let report = model.pretrain(&pool, &cfg(workers, policy));
        (model, report)
    };
    let (_, refused) = resume(1);
    assert!(
        matches!(
            refused,
            Err(TrainError::Checkpoint(CheckpointError::Incompatible { .. }))
        ),
        "a one-worker resume of a two-worker checkpoint must be refused, got {refused:?}"
    );
    let (resumed, resumed_report) = resume(2);
    let resumed_report = resumed_report.unwrap();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(
        bits(&resumed_report.epoch_losses),
        bits(&report.epoch_losses)
    );
    assert_eq!(
        bits(&resumed.flat_parameters()),
        bits(&straight.flat_parameters())
    );
}

#[test]
fn retention_keeps_only_last_k_during_training() {
    let pool = tiny_pool();
    let dir = tmp_dir("retention");
    let mut model = AimTs::new(AimTsConfig::tiny(), 1);
    model
        .pretrain(
            &pool,
            &PretrainConfig {
                checkpoint: CheckpointPolicy {
                    dir: Some(dir.clone()),
                    every: 1,
                    keep_last: 2,
                    resume_from: None,
                },
                ..pcfg(1, CheckpointPolicy::default())
            },
        )
        .unwrap();
    let kept = aimts::list_checkpoints(&dir).unwrap();
    assert_eq!(
        kept,
        vec![
            checkpoint_path(&dir, EPOCHS - 1),
            checkpoint_path(&dir, EPOCHS)
        ]
    );
}
