//! Hot-swap fault injection: a corrupt or truncated serving bundle must be
//! rejected with a typed [`ServeError::Checkpoint`] while the previously
//! installed model keeps serving — and a swap under concurrent load loses
//! zero requests, with every answer attributable to a generation that was
//! installed while it was in flight.
//!
//! Corruption is generated the same way as the pre-training checkpoint
//! fault suite (`tests/checkpoint_faults.rs` at the workspace root): the
//! bundle's `layout()` names every section span, and we damage each one.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use aimts::{FineTuned, HealthReport, TsEncoder};
use aimts_data::{MultiSeries, Sample, Split};
use aimts_nn::{layout, Activation, Mlp};
use aimts_serve::{BatchPolicy, ModelRegistry, ServeError, Server};

const N_CLASSES: usize = 4;

fn make_model(seed: u64) -> FineTuned {
    let repr = 16;
    FineTuned {
        encoder: TsEncoder::new(8, repr, &[1, 2], seed),
        head: Mlp::new(&[repr, 8, N_CLASSES], Activation::Gelu, seed + 1),
        n_classes: N_CLASSES,
        train_losses: Vec::new(),
        best_train_accuracy: None,
        health: HealthReport::default(),
    }
}

fn sample(t: usize, seed: u64) -> MultiSeries {
    vec![(0..t)
        .map(|i| (seed as f32 * 0.61 + i as f32 * 0.3).sin())
        .collect()]
}

fn offline_classes(model: &FineTuned, samples: &[MultiSeries]) -> Vec<usize> {
    let split = Split {
        samples: samples
            .iter()
            .map(|vars| Sample {
                vars: vars.clone(),
                label: 0,
            })
            .collect(),
    };
    model.predict(&split)
}

/// Two saved bundles (generations to swap between) in a temp dir, plus
/// the raw bytes of the second (the corruption target).
fn fixture() -> &'static (PathBuf, PathBuf, Vec<u8>) {
    static FIX: OnceLock<(PathBuf, PathBuf, Vec<u8>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let dir = std::env::temp_dir().join("aimts_swap_faults");
        std::fs::create_dir_all(&dir).unwrap();
        let v1 = dir.join("v1.aimts");
        let v2 = dir.join("v2.aimts");
        make_model(1).save_bundle(&v1).unwrap();
        make_model(2).save_bundle(&v2).unwrap();
        let bytes = std::fs::read(&v2).unwrap();
        (v1, v2, bytes)
    })
}

/// Swapping to a damaged bundle returns `ServeError::Checkpoint`, leaves
/// the generation untouched, and the old model answers exactly as before.
#[test]
fn corrupt_swap_is_rejected_and_old_model_keeps_serving() {
    let (v1, _, v2_bytes) = fixture();
    let samples: Vec<MultiSeries> = (0..6).map(|i| sample(16, i)).collect();
    let old = offline_classes(&FineTuned::load_bundle(v1).unwrap(), &samples);

    let registry = ModelRegistry::from_bundle(v1).unwrap();
    let server = Server::start(registry, BatchPolicy::default());
    assert_eq!(server.registry().generation(), 1);

    // Every section of the bundle, damaged two ways: a byte flip inside
    // the payload (CRC must catch it) and a truncation mid-payload.
    let (_, spans) = layout(v2_bytes).unwrap();
    assert!(
        spans.iter().any(|s| s.name == "arch") && spans.iter().any(|s| s.name == "params"),
        "bundle sections changed; update this suite"
    );
    let dir = std::env::temp_dir().join("aimts_swap_faults");
    let mut attempts = 0u32;
    for span in &spans {
        let mid = span.payload_start + (span.end - span.payload_start) / 2;

        let mut flipped = v2_bytes.clone();
        flipped[mid] ^= 0x20;
        let truncated = v2_bytes[..mid].to_vec();

        for (tag, bytes) in [("flip", flipped), ("trunc", truncated)] {
            let path = dir.join(format!("bad-{}-{tag}.aimts", span.name));
            std::fs::write(&path, &bytes).unwrap();
            match server.swap_from_bundle(&path) {
                Err(ServeError::Checkpoint(e)) => {
                    // The typed error names a section or a structural
                    // defect; it is never a silent success or a panic.
                    let msg = e.to_string();
                    assert!(!msg.is_empty());
                }
                Ok(g) => panic!("swap to {tag} `{}` succeeded (gen {g})", span.name),
                Err(other) => panic!("swap to {tag} `{}`: wrong error {other}", span.name),
            }
            attempts += 1;
            assert_eq!(
                server.registry().generation(),
                1,
                "failed swap must not advance the generation"
            );
        }
    }

    // Garbage and a missing file are equally typed.
    let garbage = dir.join("garbage.aimts");
    std::fs::write(&garbage, b"not a checkpoint at all").unwrap();
    assert!(matches!(
        server.swap_from_bundle(&garbage),
        Err(ServeError::Checkpoint(_))
    ));
    assert!(matches!(
        server.swap_from_bundle(&dir.join("missing.aimts")),
        Err(ServeError::Checkpoint(_))
    ));
    attempts += 2;

    // The old model is still installed and still bitwise-correct.
    for (i, s) in samples.iter().enumerate() {
        let resp = server.classify(s.clone()).unwrap();
        assert_eq!(resp.class, old[i]);
        assert_eq!(resp.generation, 1);
    }
    server.shutdown();
    let snap = server.metrics();
    assert_eq!(snap.swaps, 0);
    assert_eq!(snap.swap_failures, u64::from(attempts));
}

/// A hot swap under concurrent load: every in-flight and subsequent
/// request is answered (zero lost), each answer matches the offline
/// prediction of the generation that served it, and a failed swap in the
/// middle changes nothing.
#[test]
fn swap_under_load_loses_zero_requests() {
    let (v1, v2, v2_bytes) = fixture();
    let samples: Vec<MultiSeries> = (0..8).map(|i| sample(16, i)).collect();
    let by_gen = [
        offline_classes(&FineTuned::load_bundle(v1).unwrap(), &samples),
        offline_classes(&FineTuned::load_bundle(v2).unwrap(), &samples),
    ];

    let registry = ModelRegistry::from_bundle(v1).unwrap();
    let server = Server::start(
        registry,
        BatchPolicy {
            max_batch: 4,
            ..BatchPolicy::default()
        },
    );

    // A corrupt bundle to fail a swap mid-load.
    let dir = std::env::temp_dir().join("aimts_swap_faults");
    let bad = dir.join("bad-under-load.aimts");
    let (_, spans) = layout(v2_bytes).unwrap();
    let mut corrupt = v2_bytes.clone();
    corrupt[spans.last().unwrap().payload_start + 1] ^= 0x40;
    std::fs::write(&bad, &corrupt).unwrap();

    const PER_CLIENT: usize = 200;
    const CLIENTS: usize = 4;
    let answered = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = &server;
            let samples = &samples;
            let by_gen = &by_gen;
            let answered = &answered;
            scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    let k = (client + i * CLIENTS) % samples.len();
                    let resp = server
                        .classify(samples[k].clone())
                        .expect("no lost requests");
                    assert!(
                        resp.generation == 1 || resp.generation == 2,
                        "unknown generation {}",
                        resp.generation
                    );
                    // Whichever generation answered, the class must be
                    // that generation's offline answer — a swap can move
                    // the boundary but never corrupt a response.
                    let expect = &by_gen[(resp.generation - 1) as usize];
                    assert_eq!(resp.class, expect[k], "gen {} answer", resp.generation);
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Interleave with the load: a failing swap, then the real one.
        assert!(matches!(
            server.swap_from_bundle(&bad),
            Err(ServeError::Checkpoint(_))
        ));
        assert_eq!(server.registry().generation(), 1);
        let g = server.swap_from_bundle(v2).expect("valid swap");
        assert_eq!(g, 2);
    });

    assert_eq!(
        answered.load(Ordering::Relaxed) as usize,
        PER_CLIENT * CLIENTS
    );
    server.shutdown();
    let snap = server.metrics();
    assert_eq!(snap.completed, (PER_CLIENT * CLIENTS) as u64);
    assert_eq!(snap.queue_depth, 0);
    assert_eq!(snap.swaps, 1);
    assert_eq!(snap.swap_failures, 1);

    // After the load the new generation is pinned for fresh requests.
    let resp = {
        let registry = ModelRegistry::from_bundle(v2).unwrap();
        let fresh = Server::start(registry, BatchPolicy::default());
        let r = fresh.classify(samples[0].clone()).unwrap();
        fresh.shutdown();
        r
    };
    assert_eq!(resp.class, by_gen[1][0]);
}

/// Swapping to a bundle with a *different architecture* is legal — the
/// bundle is self-describing, so the registry can replace the whole model,
/// not just its weights.
#[test]
fn swap_to_different_architecture_succeeds() {
    let (v1, _, _) = fixture();
    let dir = std::env::temp_dir().join("aimts_swap_faults");
    let wide = dir.join("wide.aimts");
    FineTuned {
        encoder: TsEncoder::new(12, 24, &[1, 2, 4], 7),
        head: Mlp::new(&[24, 10, N_CLASSES], Activation::Gelu, 8),
        n_classes: N_CLASSES,
        train_losses: Vec::new(),
        best_train_accuracy: None,
        health: HealthReport::default(),
    }
    .save_bundle(&wide)
    .unwrap();

    let registry = ModelRegistry::from_bundle(v1).unwrap();
    let server = Server::start(registry, BatchPolicy::default());
    let before = server.classify(sample(16, 3)).unwrap();
    assert_eq!(before.generation, 1);

    let g = server.swap_from_bundle(&wide).expect("arch swap");
    assert_eq!(g, 2);
    let after = server.classify(sample(16, 3)).unwrap();
    assert_eq!(after.generation, 2);

    let offline = offline_classes(&FineTuned::load_bundle(&wide).unwrap(), &[sample(16, 3)]);
    assert_eq!(after.class, offline[0]);
    server.shutdown();
}
