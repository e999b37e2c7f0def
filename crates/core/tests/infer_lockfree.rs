//! Regression pin for the serving hot path: frozen-model inference must
//! take **zero** `Storage::Shared` lock acquisitions — the freeze step
//! copies every parameter into lock-free `Storage::Hot` buffers exactly
//! once, and from then on classification never touches an `RwLock`.
//!
//! The probe is the debug-build lock-order checker's cumulative
//! acquisition counter (`aimts_tensor::lockorder::acquired_total`), which
//! counts every tracked `Shared` acquisition on this thread. It compiles
//! to a constant 0 in release builds, so the whole suite is gated on
//! `debug_assertions`.
#![cfg(debug_assertions)]

use aimts::{FineTuned, HealthReport, TsEncoder};
use aimts_data::{MultiSeries, Sample, Split};
use aimts_nn::{Activation, Mlp};
use aimts_tensor::lockorder;

fn make_model() -> FineTuned {
    let repr = 16;
    FineTuned {
        encoder: TsEncoder::new(8, repr, &[1, 2], 21),
        head: Mlp::new(&[repr, 8, 3], Activation::Gelu, 22),
        n_classes: 3,
        train_losses: Vec::new(),
        best_train_accuracy: None,
        health: HealthReport::default(),
    }
}

fn samples(n: usize, t: usize) -> Vec<MultiSeries> {
    (0..n)
        .map(|s| {
            vec![(0..t)
                .map(|i| (s as f32 * 0.7 + i as f32 * 0.2).sin())
                .collect()]
        })
        .collect()
}

#[test]
fn frozen_inference_acquires_zero_shared_locks() {
    let tuned = make_model();

    // Freezing itself reads the Shared training parameters (one final
    // tracked acquisition per tensor). This both builds the fixture and
    // proves the counter is live in this build — guarding against the
    // main assertion passing vacuously.
    let before_freeze = lockorder::acquired_total();
    let model = tuned.freeze();
    let after_freeze = lockorder::acquired_total();
    assert!(
        after_freeze > before_freeze,
        "freeze() reads Shared params; a flat counter means the probe is dead"
    );

    let inputs = samples(12, 20);
    let refs: Vec<&MultiSeries> = inputs.iter().collect();

    let start = lockorder::acquired_total();
    let first = model.classify(&refs);
    let second = model.classify(&refs);
    let taken = lockorder::acquired_total() - start;
    assert_eq!(
        taken, 0,
        "frozen inference acquired {taken} Shared lock(s); the serving hot path regressed"
    );
    assert_eq!(first.len(), refs.len());
    assert_eq!(first, second);
}

#[test]
fn offline_predict_routes_through_the_lock_free_path() {
    // `FineTuned::predict` freezes then classifies: after the one-time
    // freeze cost, the per-sample work is Shared-free. Measure a second
    // predict-sized workload through an explicit frozen model and check
    // it stays at zero while `predict` itself only pays the freeze.
    let tuned = make_model();
    let split = Split {
        samples: samples(6, 16)
            .into_iter()
            .map(|vars| Sample { vars, label: 0 })
            .collect(),
    };

    let frozen = tuned.freeze();
    let start = lockorder::acquired_total();
    let via_frozen = frozen.predict_split(&split);
    assert_eq!(
        lockorder::acquired_total() - start,
        0,
        "predict_split on a frozen model must be lock-free"
    );
    // And the public API agrees bitwise with the lock-free route.
    assert_eq!(tuned.predict(&split), via_frozen);
}
