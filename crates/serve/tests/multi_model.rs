//! Multi-model registry routing: named slots, per-request routing, slot
//! isolation under swap, and typed rejection of unknown models.
//!
//! Correct routing is asserted two ways at once: by *answer* (the served
//! class equals the named model's offline `FineTuned::predict`) and by
//! *provenance* (the response's generation equals the named slot's —
//! slots advance independently, so after swapping one slot the untouched
//! slot still answers at its own generation).

use std::sync::atomic::{AtomicU64, Ordering};

use aimts::{Executor, FineTuned, HealthReport, TsEncoder};
use aimts_data::{MultiSeries, Sample, Split};
use aimts_nn::{Activation, Mlp};
use aimts_serve::{BatchPolicy, ModelRegistry, ServeError, Server, SubmitOptions, DEFAULT_MODEL};

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

/// A registry with two named slots, `alpha` (seed 1) and `beta` (seed 2),
/// and no default slot.
fn two_slot_registry() -> ModelRegistry {
    let registry = ModelRegistry::empty();
    registry.register_tuned("alpha", &make_model(1), "alpha-v1");
    registry.register_tuned("beta", &make_model(2), "beta-v1");
    registry
}

#[test]
fn requests_route_to_the_named_slot_bitwise() {
    let samples: Vec<MultiSeries> = (0..8).map(|i| sample(16, i)).collect();
    let want_alpha = offline_classes(&make_model(1), &samples);
    let want_beta = offline_classes(&make_model(2), &samples);

    let server = Server::start(two_slot_registry(), BatchPolicy::default());
    for (i, s) in samples.iter().enumerate() {
        let a = server
            .classify_with(s.clone(), SubmitOptions::for_model("alpha"))
            .expect("alpha classify");
        let b = server
            .classify_with(s.clone(), SubmitOptions::for_model("beta"))
            .expect("beta classify");
        assert_eq!(a.class, want_alpha[i], "alpha answer diverged at {i}");
        assert_eq!(b.class, want_beta[i], "beta answer diverged at {i}");
        assert_eq!(a.generation, 1);
        assert_eq!(b.generation, 1);
    }
    server.shutdown();
    assert_eq!(server.metrics().completed, 16);
}

#[test]
fn unknown_model_rejects_typed_at_admission() {
    let server = Server::start(two_slot_registry(), BatchPolicy::default());
    match server.submit_with(sample(16, 0), SubmitOptions::for_model("ghost")) {
        Err(ServeError::ModelNotFound(name)) => assert_eq!(name, "ghost"),
        other => panic!("unknown model must reject typed, got {other:?}"),
    }
    // With no `default` slot registered, the unnamed route is equally a
    // typed miss — not a panic.
    match server.submit(sample(16, 0)) {
        Err(ServeError::ModelNotFound(name)) => assert_eq!(name, DEFAULT_MODEL),
        other => panic!("missing default slot must reject typed, got {other:?}"),
    }
    server.shutdown();
    let snap = server.metrics();
    assert_eq!(snap.model_not_found, 2);
    assert_eq!(snap.completed, 0);
}

#[test]
fn swapping_one_slot_leaves_the_other_untouched() {
    let samples: Vec<MultiSeries> = (0..6).map(|i| sample(16, 10 + i)).collect();
    let want_alpha = offline_classes(&make_model(1), &samples);
    let want_beta_v2 = offline_classes(&make_model(7), &samples);

    let server = Server::start(two_slot_registry(), BatchPolicy::default());
    let generation = server
        .registry()
        .register_tuned("beta", &make_model(7), "beta-v2");
    assert_eq!(generation, 2);
    assert_eq!(server.registry().generation_named(Some("beta")), 2);
    assert_eq!(server.registry().generation_named(Some("alpha")), 1);

    for (i, s) in samples.iter().enumerate() {
        let a = server
            .classify_with(s.clone(), SubmitOptions::for_model("alpha"))
            .expect("alpha classify");
        assert_eq!(a.generation, 1, "untouched slot must stay at gen 1");
        assert_eq!(a.class, want_alpha[i]);
        let b = server
            .classify_with(s.clone(), SubmitOptions::for_model("beta"))
            .expect("beta classify");
        assert_eq!(b.generation, 2, "swapped slot must serve gen 2");
        assert_eq!(b.class, want_beta_v2[i]);
    }
    server.shutdown();
}

#[test]
fn swap_named_from_bundle_creates_a_fresh_slot() {
    let dir = std::env::temp_dir().join("aimts_multi_model");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("canary.aimts");
    make_model(5).save_bundle(&path).expect("save bundle");
    let samples: Vec<MultiSeries> = (0..4).map(|i| sample(16, 20 + i)).collect();
    let want = offline_classes(&FineTuned::load_bundle(&path).expect("reload"), &samples);

    let server = Server::start(
        ModelRegistry::from_tuned(&make_model(1), Executor::Eager, "boot"),
        BatchPolicy::default(),
    );
    let generation = server
        .swap_named_from_bundle("canary", &path)
        .expect("bundle swap into a new slot");
    assert_eq!(generation, 1, "a fresh slot boots at generation 1");

    let names: Vec<String> = server
        .registry()
        .models()
        .into_iter()
        .map(|(name, _, _)| name)
        .collect();
    assert_eq!(names, vec!["canary".to_string(), DEFAULT_MODEL.to_string()]);

    for (i, s) in samples.iter().enumerate() {
        let r = server
            .classify_with(s.clone(), SubmitOptions::for_model("canary"))
            .expect("canary classify");
        assert_eq!(r.class, want[i], "canary must serve the bundle's model");
        assert_eq!(r.generation, 1);
    }
    server.shutdown();
    assert_eq!(server.metrics().swaps, 1);
}

/// Interleaved traffic for two slots from concurrent clients: the
/// assembler splits mixed batches by model, and every answer matches the
/// named model bitwise — no cross-slot bleed, no lost requests.
#[test]
fn interleaved_multi_model_load_routes_every_request() {
    let n_each = 60u64;
    let samples: Vec<MultiSeries> = (0..n_each).map(|i| sample(16, i)).collect();
    let want_alpha = offline_classes(&make_model(1), &samples);
    let want_beta = offline_classes(&make_model(2), &samples);

    let server = Server::start(
        two_slot_registry(),
        BatchPolicy {
            max_batch: 16,
            ..BatchPolicy::default()
        },
    );
    let mismatches = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for (name, want) in [("alpha", &want_alpha), ("beta", &want_beta)] {
            let server = &server;
            let samples = &samples;
            let mismatches = &mismatches;
            scope.spawn(move || {
                let pending: Vec<_> = samples
                    .iter()
                    .map(|s| {
                        server
                            .submit_with(s.clone(), SubmitOptions::for_model(name))
                            .expect("submit")
                    })
                    .collect();
                for (i, p) in pending.into_iter().enumerate() {
                    let r = p.wait().expect("answered");
                    if r.class != want[i] {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    server.shutdown();
    assert_eq!(mismatches.load(Ordering::Relaxed), 0, "cross-slot bleed");
    let snap = server.metrics();
    assert_eq!(snap.completed, 2 * n_each);
    assert!(snap.accounted_for(0), "{snap:?}");
}
