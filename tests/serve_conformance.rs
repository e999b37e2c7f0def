//! Serving conformance suite: predictions served through `aimts-serve`
//! must be **bitwise-identical** to offline [`FineTuned::predict`] — for
//! any micro-batch split and any arrival order.
//!
//! Why bitwise identity is even possible: inference z-normalizes each
//! sample independently, the encoder/head path has no cross-sample
//! statistics (no BatchNorm), and every reduction uses a fixed
//! accumulation order — so a sample's logits do not depend on which batch
//! it rode in on. The micro-batcher may therefore split the stream
//! anywhere without changing a single answer.
//!
//! The offline predictions themselves are pinned to a golden FNV-1a
//! digest, so drift in training *or* inference names itself here.

use std::sync::OnceLock;

use aimts::{AimTs, AimTsConfig, Executor, FineTuneConfig, FineTuned};
use aimts_data::{special, Dataset};
use aimts_serve::{BatchPolicy, ModelRegistry, Server};

/// FNV-1a over predicted class indices, in test-set order.
fn predictions_fnv(preds: &[usize]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in preds {
        for b in (p as u64).to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

/// Golden digest of the fixture's offline test-set predictions. Captured
/// from the deterministic run below; any change to training or the
/// inference path that moves a single label shows up here first.
const GOLDEN_PREDICTIONS_FNV: u64 = 0xd040_5ae6_853a_08c4;

/// One deterministic tiny model + dataset shared by every test in the
/// file (fine-tuning is the expensive part; do it once).
fn fixture() -> &'static (Dataset, FineTuned, Vec<usize>) {
    static FIX: OnceLock<(Dataset, FineTuned, Vec<usize>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = special::ecg200_like(7);
        let model = AimTs::new(AimTsConfig::tiny(), 3407);
        let tuned = model.fine_tune(
            &ds,
            &FineTuneConfig {
                epochs: 2,
                batch_size: 8,
                ..FineTuneConfig::default()
            },
        );
        let offline = tuned.predict(&ds.test);
        (ds, tuned, offline)
    })
}

/// Deterministic pseudo-shuffle of `0..n` (LCG; no RNG dependency).
fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Serve the whole test split through `server` in `order`, returning
/// predictions re-assembled into test-set order.
fn serve_all(server: &Server, ds: &Dataset, order: &[usize]) -> Vec<usize> {
    let mut pending = Vec::with_capacity(order.len());
    for &i in order {
        let p = server
            .submit(ds.test.samples[i].vars.clone())
            .expect("submit");
        pending.push((i, p));
    }
    let mut served = vec![usize::MAX; order.len()];
    for (i, p) in pending {
        served[i] = p.wait().expect("response").class;
    }
    served
}

#[test]
fn offline_predictions_match_golden_digest() {
    let (ds, _, offline) = fixture();
    assert_eq!(offline.len(), ds.test.len());
    let digest = predictions_fnv(offline);
    assert_eq!(
        digest, GOLDEN_PREDICTIONS_FNV,
        "offline predictions drifted: digest {digest:#018x} (update the golden only for an intended change)"
    );
}

#[test]
fn served_matches_offline_for_any_batch_split_and_order() {
    let (ds, tuned, offline) = fixture();
    for (max_batch, seed) in [(1usize, 11u64), (3, 22), (64, 33)] {
        let registry = ModelRegistry::from_tuned(tuned, Executor::Eager, "fixture");
        let server = Server::start(
            registry,
            BatchPolicy {
                max_batch,
                ..BatchPolicy::default()
            },
        );
        let order = shuffled_indices(ds.test.len(), seed);
        let served = serve_all(&server, ds, &order);
        server.shutdown();
        assert_eq!(
            &served, offline,
            "served != offline for max_batch {max_batch}"
        );
        assert_eq!(predictions_fnv(&served), predictions_fnv(offline));
    }
}

#[test]
fn bundle_round_trip_serves_identical_predictions() {
    let (ds, tuned, offline) = fixture();
    let path = std::env::temp_dir().join("aimts_serve_conformance_bundle.aimts");
    tuned.save_bundle(&path).expect("save bundle");
    let registry = ModelRegistry::from_bundle(&path).expect("load bundle");
    assert_eq!(registry.generation(), 1);
    let server = Server::start(registry, BatchPolicy::default());
    let order = shuffled_indices(ds.test.len(), 44);
    let served = serve_all(&server, ds, &order);
    server.shutdown();
    assert_eq!(&served, offline, "bundle-served != offline");
}

#[test]
fn singleton_requests_match_offline() {
    // One request at a time (the server idles between them): every flush
    // is a batch of one, the opposite extreme from the full-batch path.
    let (ds, tuned, offline) = fixture();
    let registry = ModelRegistry::from_tuned(tuned, Executor::Eager, "fixture");
    let server = Server::start(registry, BatchPolicy::default());
    for (i, sample) in ds.test.samples.iter().take(8).enumerate() {
        let resp = server.classify(sample.vars.clone()).expect("classify");
        assert_eq!(resp.class, offline[i], "sample {i}");
        assert_eq!(resp.batch_size, 1);
    }
    server.shutdown();
}
