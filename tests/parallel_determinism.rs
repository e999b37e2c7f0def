//! Determinism pins for pre-training across the lock-free/persistent-pool
//! execution model:
//!
//! * the serial path must be **bit-identical to the pre-refactor serial
//!   trajectory** (golden digests captured with `examples/serial_golden.rs`
//!   before the hot-path rework — arena allocation, SIMD kernels, and the
//!   `Storage::Hot` split must all be invisible to the numbers);
//! * the 4-worker path must be bit-identical run-to-run with the same seed
//!   (the persistent pool pins micro-batch slots, so thread scheduling can
//!   never reorder the all-reduce);
//! * both paths are pinned to golden digests so any future drift names the
//!   exact epoch where it appeared.
//!
//! The digests are stable across debug/release and SIMD levels because every
//! kernel is bitwise-equal to its scalar oracle (see
//! `crates/tensor/tests/simd_oracle.rs`) and rustc does not relax IEEE
//! semantics at any opt-level. GELU's tanh is `simd::tanh`, an in-repo port
//! of glibc 2.36's `tanhf`, so it gives the same bits under any libm. The
//! digests are still not portable to every machine: `exp` and `ln` come
//! from the platform libm, which need not round correctly, and the digests
//! were recorded against glibc 2.36 (`expf`/`logf` in the losses). Another
//! libm may move them without any bug in this repository.

use aimts::{AimTs, AimTsConfig, PretrainConfig};
use aimts_data::archives::monash_like_pool;
use aimts_nn::Module;

/// FNV-1a over the bit patterns of every parameter, in traversal order —
/// the same digest `examples/serial_golden.rs` prints.
fn param_fnv(model: &AimTs) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for p in model.parameters() {
        for b in p.data_bits() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

/// The exact workload of `examples/serial_golden.rs`, at a given worker
/// count: tiny config, init seed 3407, 2 epochs over `monash_like_pool(4, 0)`.
fn run(workers: usize) -> (u32, u64, Vec<u32>) {
    let pool = monash_like_pool(4, 0);
    let mut model = AimTs::new(AimTsConfig::tiny(), 3407);
    let report = model
        .pretrain(
            &pool,
            &PretrainConfig {
                epochs: 2,
                batch_size: 4,
                workers,
                ..Default::default()
            },
        )
        .expect("pretrain");
    (
        report.final_loss.to_bits(),
        param_fnv(&model),
        report.epoch_losses.iter().map(|l| l.to_bits()).collect(),
    )
}

/// Golden digests captured on the pre-refactor serial path. Any change here
/// is a numerics regression, not an update to rubber-stamp.
const SERIAL_LOSS_BITS: u32 = 0x4030286b;
const SERIAL_PARAM_FNV: u64 = 0xba400810daf6cf14;
const SERIAL_EPOCH_BITS: [u32; 2] = [0x403b13c6, 0x4030286b];

/// Golden digests for the 4-worker trajectory (one Adam step per round of 4
/// averaged micro-batches — a *different* trajectory from serial by design,
/// but equally pinned).
const PAR4_LOSS_BITS: u32 = 0x40298d7c;
const PAR4_PARAM_FNV: u64 = 0x6f82a5093b8e0b1b;
const PAR4_EPOCH_BITS: [u32; 2] = [0x40431468, 0x40298d7c];

#[test]
fn serial_is_bit_identical_to_pre_refactor_golden() {
    let (loss, fnv, epochs) = run(1);
    assert_eq!(
        loss, SERIAL_LOSS_BITS,
        "serial final loss drifted: got 0x{loss:08x}"
    );
    assert_eq!(
        fnv, SERIAL_PARAM_FNV,
        "serial parameters drifted: got 0x{fnv:016x}"
    );
    assert_eq!(epochs, SERIAL_EPOCH_BITS, "serial epoch losses drifted");
}

#[test]
fn four_worker_run_matches_golden() {
    let (loss, fnv, epochs) = run(4);
    assert_eq!(
        loss, PAR4_LOSS_BITS,
        "4-worker final loss drifted: got 0x{loss:08x}"
    );
    assert_eq!(
        fnv, PAR4_PARAM_FNV,
        "4-worker parameters drifted: got 0x{fnv:016x}"
    );
    assert_eq!(epochs, PAR4_EPOCH_BITS, "4-worker epoch losses drifted");
}

#[test]
fn same_seed_four_worker_runs_are_bit_identical() {
    let a = run(4);
    let b = run(4);
    assert_eq!(
        a, b,
        "same-seed 4-worker pre-training must be bit-identical run-to-run"
    );
}
