//! Data-parallel pre-training throughput: the same fixed workload at 1, 2,
//! 4, and 8 workers, reporting micro-batches per second and speedup over
//! the serial path. The target for the replica-per-worker scheme is >= 2x
//! throughput at 4 workers on a 4+-core machine.
//!
//! Besides throughput, the bench verifies the two correctness properties
//! the parallel path promises:
//!
//! * **Gradient agreement** — with identical weights, a replica computing a
//!   micro-batch on a worker-pool thread must reproduce the master's
//!   gradient for that micro-batch bit for bit: every kernel is
//!   deterministic and none depends on the thread it runs on.
//! * **Bounded loss divergence** — `final_loss` *does* differ across worker
//!   counts, and that is expected, not a bug: the serial path takes one
//!   Adam step per micro-batch, while W workers take one step per round of
//!   W averaged micro-batches (W× fewer, larger steps) and draw different
//!   per-micro-batch augmentation streams. The optimizer trajectories
//!   therefore diverge (e.g. ~2.3 serial vs ~2.8 at 2 workers after 2
//!   epochs) while both still converge. The bench asserts the gap stays
//!   within a loose tolerance instead of pretending it is zero.
//!
//! Set `AIMTS_BENCH_GATE=<floor>` to turn the 4-worker speedup into a hard
//! failure (exit 1) when the machine actually has >= 4 cores; machines with
//! fewer cores record the gate as skipped, since the speedup is physically
//! unobservable there.

use aimts::batch::batch_indices;
use aimts::{AimTs, PretrainConfig};
use aimts_bench::harness::{banner, record_results, time_it, Scale};
use aimts_bench::runners::bench_aimts_config;
use aimts_data::archives::monash_like_pool;
use aimts_data::preprocess::{resample_sample, z_normalize_sample};
use aimts_data::MultiSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::BTreeMap;

/// Permitted replica-vs-master gradient disagreement (same weights): none.
const GRAD_TOLERANCE: f32 = 0.0;
/// Permitted |final_loss(workers) - final_loss(serial)| — a loose bound on
/// the expected optimizer-trajectory divergence documented above.
const LOSS_TOLERANCE: f32 = 1.0;

#[derive(Serialize)]
struct Point {
    workers: usize,
    secs: f64,
    microbatches_per_sec: f64,
    speedup_vs_serial: f64,
    final_loss: f32,
    /// |final_loss - serial final_loss|; expected nonzero (see module doc).
    loss_delta_vs_serial: f32,
}

#[derive(Serialize)]
struct GradAgreement {
    workers: usize,
    /// Worst absolute element difference between a worker-computed and the
    /// master-computed gradient of the same micro-batch, same weights, over
    /// the elements whose bits differ (a NaN or signed-zero mismatch counts
    /// as infinite), so 0 means bit-identical.
    worst_abs_err: f32,
    tolerance: f32,
}

#[derive(Serialize)]
struct Gate {
    floor: Option<f64>,
    speedup_at_4: f64,
    cores: usize,
    /// False when the gate was requested but skipped for lack of cores.
    enforced: bool,
    passed: Option<bool>,
}

#[derive(Serialize)]
struct Payload {
    cores: usize,
    points: Vec<Point>,
    grad_agreement: GradAgreement,
    gate: Gate,
    note: String,
}

/// Mirror of `AimTs::prepare`: resample to the pre-training length and
/// z-normalize, so micro-batches built here match what `pretrain` feeds
/// the model.
fn prepare_pool(pool: &[MultiSeries], len: usize) -> Vec<MultiSeries> {
    pool.iter()
        .map(|s| {
            let mut vars = resample_sample(s, len);
            z_normalize_sample(&mut vars);
            vars
        })
        .collect()
}

/// Micro-batches one pre-training epoch forms, cut as `AimTs::pretrain`
/// cuts them: per variable-count group, the `batch_size` chunks
/// [`batch_indices`] keeps (those holding at least two samples). Neither
/// the shuffle nor the worker count changes the count; W only decides how
/// many of them share an optimizer step.
fn microbatches_per_epoch(pool: &[MultiSeries], batch_size: usize) -> usize {
    let mut group_sizes: BTreeMap<usize, usize> = BTreeMap::new();
    for s in pool {
        *group_sizes.entry(s.len()).or_default() += 1;
    }
    let mut rng = StdRng::seed_from_u64(0);
    group_sizes
        .values()
        .map(|&n| batch_indices(n, batch_size, &mut rng).len())
        .sum()
}

/// Same-weights gradient agreement between the master and threaded
/// replicas: `workers` micro-batches of equal variable count, each computed
/// on the master and, as one worker-pool round, on its own replica.
fn gradient_agreement(pool: &[MultiSeries], workers: usize) -> GradAgreement {
    let cfg = bench_aimts_config();
    let model = AimTs::new(cfg.clone(), 3407);
    let prepared = prepare_pool(pool, cfg.pretrain_len);
    // Micro-batches must share a variable count: take the most common M.
    let mut by_m: BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, s) in prepared.iter().enumerate() {
        by_m.entry(s.len()).or_default().push(i);
    }
    let idxs = by_m
        .values()
        .max_by_key(|g| g.len())
        .expect("non-empty pool");
    assert!(
        idxs.len() >= 2 * workers,
        "need {workers} pairs of equal-M samples, have {}",
        idxs.len()
    );
    let mbs: Vec<(u64, Vec<usize>)> = idxs
        .chunks(2)
        .take(workers)
        .enumerate()
        .map(|(i, pair)| {
            (
                aimts::parallel::microbatch_seed(3407, 0, i as u64),
                pair.to_vec(),
            )
        })
        .collect();
    let gradient = |m: &AimTs, (seed, idx): &(u64, Vec<usize>)| -> Vec<f32> {
        let s: Vec<&MultiSeries> = idx.iter().map(|&i| &prepared[i]).collect();
        m.microbatch_gradient(&s, *seed).gradient
    };
    let serial: Vec<Vec<f32>> = mbs.iter().map(|mb| gradient(&model, mb)).collect();
    let replicas: Vec<AimTs> = (0..workers).map(|_| model.replicate()).collect();
    let master = model.flat_parameters();
    let results = aimts::parallel::with_worker_pool(
        workers,
        |slot, mb: (u64, Vec<usize>)| {
            replicas[slot].load_flat(&master);
            gradient(&replicas[slot], &mb)
        },
        |pool| pool.run_round(mbs.clone()),
    );
    let mut worst = 0f32;
    for (want, got) in serial.iter().zip(results) {
        let got = got.expect("replica gradient task panicked");
        for (a, b) in want.iter().zip(&got) {
            if a.to_bits() != b.to_bits() {
                let d = (a - b).abs();
                worst = worst.max(if d > 0.0 { d } else { f32::INFINITY });
            }
        }
    }
    GradAgreement {
        workers,
        worst_abs_err: worst,
        tolerance: GRAD_TOLERANCE,
    }
}

fn main() {
    banner(
        "micro_parallel",
        "data-parallel pre-training",
        "pretrain throughput vs worker count (replica-per-worker, gradient all-reduce)",
    );
    let scale = Scale::from_env();
    let per_source = match scale {
        Scale::Quick => 8,
        Scale::Full => 24,
    };
    let epochs = match scale {
        Scale::Quick => 2,
        Scale::Full => 4,
    };
    let batch_size = 4;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = monash_like_pool(per_source, 0);
    // Micro-batches processed, not optimizer steps: W workers take one
    // step per round of up to W micro-batches, and an epoch's last round
    // may be partial, so neither steps nor steps × W count the work done.
    let micro = epochs * microbatches_per_epoch(&pool, batch_size);
    println!(
        "pool: {} samples, {epochs} epoch(s), batch {batch_size}, {micro} micro-batches, \
         cores available: {cores}\n",
        pool.len(),
    );

    println!("gradient agreement (same weights, 4 replicas vs the master):");
    let agreement = gradient_agreement(&pool, 4);
    println!(
        "  worst |err| = {:.3e} (tolerance {:.0e})\n",
        agreement.worst_abs_err, agreement.tolerance
    );
    assert!(
        agreement.worst_abs_err <= agreement.tolerance,
        "replica gradients diverged from the master's: {} > {}",
        agreement.worst_abs_err,
        agreement.tolerance
    );

    let mut points = Vec::new();
    let mut serial_secs = f64::NAN;
    let mut serial_loss = f32::NAN;
    for workers in [1usize, 2, 4, 8] {
        let pcfg = PretrainConfig {
            epochs,
            batch_size,
            workers,
            ..Default::default()
        };
        // Untimed warmup: spawns the worker pool once, sizes every
        // per-thread buffer arena, faults in the data, and trains the
        // allocator caches, so the timed run measures the steady state.
        let warm_cfg = PretrainConfig {
            epochs: 1,
            ..pcfg.clone()
        };
        AimTs::new(bench_aimts_config(), 3407)
            .pretrain(&pool, &warm_cfg)
            .expect("bench warmup failed");

        let mut model = AimTs::new(bench_aimts_config(), 3407);
        let (report, secs) = time_it(|| {
            model
                .pretrain(&pool, &pcfg)
                .expect("bench pre-training failed")
        });
        if workers == 1 {
            serial_secs = secs;
            serial_loss = report.final_loss;
        }
        let loss_delta = (report.final_loss - serial_loss).abs();
        assert!(
            loss_delta <= LOSS_TOLERANCE,
            "worker-count loss divergence exceeded the expected band: \
             |{} - {serial_loss}| > {LOSS_TOLERANCE} at {workers} workers",
            report.final_loss
        );
        let point = Point {
            workers: report.workers,
            secs,
            microbatches_per_sec: micro as f64 / secs,
            speedup_vs_serial: serial_secs / secs,
            final_loss: report.final_loss,
            loss_delta_vs_serial: loss_delta,
        };
        println!(
            "workers={:<2} {:6.2}s  {:6.2} micro-batches/s  speedup {:4.2}x  final loss {:.4} (Δ vs serial {:.4})",
            point.workers,
            point.secs,
            point.microbatches_per_sec,
            point.speedup_vs_serial,
            point.final_loss,
            point.loss_delta_vs_serial,
        );
        points.push(point);
    }

    let speedup_at_4 = points
        .iter()
        .find(|p| p.workers == 4)
        .map_or(f64::NAN, |p| p.speedup_vs_serial);
    let floor: Option<f64> = std::env::var("AIMTS_BENCH_GATE")
        .ok()
        .and_then(|v| v.trim().parse().ok());
    let (enforced, passed) = match (floor, cores >= 4) {
        (Some(f), true) => (true, Some(speedup_at_4 >= f)),
        _ => (false, None),
    };
    let gate = Gate {
        floor,
        speedup_at_4,
        cores,
        enforced,
        passed,
    };
    match (&gate.floor, gate.enforced, gate.passed) {
        (Some(f), true, Some(ok)) => println!(
            "\nbench gate: 4-worker speedup {speedup_at_4:.2}x vs floor {f:.2}x — {}",
            if ok { "PASS" } else { "FAIL" }
        ),
        (Some(f), false, _) => {
            println!("\nbench gate: skipped (floor {f:.2}x needs >= 4 cores, have {cores})")
        }
        _ => {}
    }

    let gate_failed = gate.passed == Some(false);
    record_results(
        "micro_parallel",
        &Payload {
            cores,
            points,
            grad_agreement: agreement,
            gate,
            note: "speedup is wall-clock serial/parallel on the same pool after an \
                   untimed warmup run; worker counts above the core count cannot \
                   help; final_loss varies with worker count by design (one Adam \
                   step per round of W averaged micro-batches, distinct \
                   augmentation streams), bounded by loss_delta_vs_serial"
                .into(),
        },
    );

    if gate_failed {
        std::process::exit(1);
    }
}
