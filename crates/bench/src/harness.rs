//! Shared experiment plumbing: scale profiles, timing, result recording.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;

/// Experiment scale, selected by the `AIMTS_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale defaults (minutes for the whole suite).
    Quick,
    /// Larger archives / more epochs (tens of minutes).
    Full,
}

impl Scale {
    pub fn from_env() -> Scale {
        match std::env::var("AIMTS_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Number of UCR-like downstream datasets.
    pub fn n_ucr(&self) -> usize {
        match self {
            Scale::Quick => 6,
            Scale::Full => 24,
        }
    }

    /// Number of UEA-like downstream datasets.
    pub fn n_uea(&self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Full => 10,
        }
    }

    /// Samples per source in the Monash-like pre-training pool.
    pub fn pool_per_source(&self) -> usize {
        match self {
            Scale::Quick => 12,
            Scale::Full => 24,
        }
    }

    /// Pre-training epochs. The paper uses 2 epochs over the much larger
    /// Monash archive; our pool is smaller, so more passes approximate the
    /// same number of optimizer steps.
    pub fn pretrain_epochs(&self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Full => 8,
        }
    }

    /// Fine-tuning epochs.
    pub fn finetune_epochs(&self) -> usize {
        match self {
            Scale::Quick => 40,
            Scale::Full => 60,
        }
    }

    /// Case-by-case pre-training epochs for the contrastive baselines
    /// (their original papers train to convergence on each dataset).
    pub fn baseline_pretrain_epochs(&self) -> usize {
        match self {
            Scale::Quick => 20,
            Scale::Full => 40,
        }
    }

    /// ROCKET kernel count (paper default is 10k; scaled).
    pub fn rocket_kernels(&self) -> usize {
        match self {
            Scale::Quick => 200,
            Scale::Full => 2000,
        }
    }
}

/// Time a closure, returning its result and elapsed seconds.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "a timing harness measures real elapsed time; its readings never feed training state"
    )]
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Directory where experiment JSON results land (`<repo>/bench_results`).
pub fn results_dir() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let dir = manifest.join("../../bench_results");
    fs::create_dir_all(&dir).expect("create bench_results dir");
    dir
}

/// Record an experiment's result payload as pretty JSON.
pub fn record_results<T: Serialize>(experiment: &str, payload: &T) {
    let path = results_dir().join(format!("{experiment}.json"));
    let json = serde_json::to_string_pretty(payload).expect("serialize results");
    fs::write(&path, json).expect("write results file");
    println!("[recorded] {}", path.display());
}

/// Standard experiment banner.
pub fn banner(id: &str, paper_ref: &str, description: &str) {
    println!("\n================================================================");
    println!("{id} — {paper_ref}");
    println!("{description}");
    println!(
        "scale = {:?} (set AIMTS_SCALE=full for the long run)",
        Scale::from_env()
    );
    println!("================================================================\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_default_scale() {
        // Only valid when the env var is unset in the test environment.
        if std::env::var("AIMTS_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Quick);
        }
    }

    #[test]
    fn full_scale_is_bigger() {
        assert!(Scale::Full.n_ucr() > Scale::Quick.n_ucr());
        assert!(Scale::Full.rocket_kernels() > Scale::Quick.rocket_kernels());
    }

    #[test]
    fn time_it_returns_value() {
        let (v, secs) = time_it(|| 42);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
