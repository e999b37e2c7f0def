//! Named synthetic equivalents of the specific datasets the paper uses in
//! its transfer, few-shot, efficiency and case-study experiments
//! (Tables III/V, Figs. 7–9). Each generator preserves the domain
//! characteristic the experiment depends on; see DESIGN.md §2.

use crate::generator::{DatasetSpec, PatternFamily};
use crate::sample::Dataset;

#[allow(
    clippy::too_many_arguments,
    reason = "a private shorthand for the generators below; every argument is a `DatasetSpec` field they set differently"
)]
fn spec(
    name: &str,
    family: PatternFamily,
    n_classes: usize,
    length: usize,
    n_vars: usize,
    train_per_class: usize,
    test_per_class: usize,
    seed: u64,
) -> DatasetSpec {
    DatasetSpec {
        name: name.to_string(),
        family,
        n_classes: n_classes.min(family.max_classes()),
        length,
        n_vars,
        train_per_class,
        test_per_class,
        noise: 0.1,
        seed,
    }
}

/// ECG200 equivalent: healthy vs myocardial-infarction ECG where the class
/// signal is T-wave polarity — the paper's Fig. 2 motivating example.
/// Jitter/slicing can genuinely flip the apparent class.
pub fn ecg200_like(seed: u64) -> Dataset {
    spec(
        "ECG200(sim)",
        PatternFamily::EcgTWave,
        2,
        96,
        1,
        25,
        25,
        seed,
    )
    .generate()
}

/// StarLightCurves equivalent: 3 classes of periodic brightness dips.
/// Used by the Fig. 7c/d efficiency study and the Fig. 9 case study.
pub fn starlight_like(seed: u64) -> Dataset {
    spec(
        "StarLightCurves(sim)",
        PatternFamily::StarDip,
        3,
        128,
        1,
        30,
        60,
        seed,
    )
    .generate()
}

/// Epilepsy equivalent: 2 classes (seizure bursts vs background EEG).
pub fn epilepsy_like(seed: u64) -> Dataset {
    spec(
        "Epilepsy(sim)",
        PatternFamily::BurstCount,
        2,
        128,
        1,
        20,
        40,
        seed,
    )
    .generate()
}

/// FD-B equivalent: bearing-fault impulse trains with 3 fault periods.
pub fn fdb_like(seed: u64) -> Dataset {
    spec(
        "FD-B(sim)",
        PatternFamily::ImpulsePeriod,
        3,
        128,
        1,
        20,
        40,
        seed,
    )
    .generate()
}

/// Gesture equivalent: 6 classes of smooth accelerometer trajectories,
/// 3 variables (x/y/z axes).
pub fn gesture_like(seed: u64) -> Dataset {
    spec(
        "Gesture(sim)",
        PatternFamily::Trajectory,
        6,
        96,
        3,
        12,
        20,
        seed,
    )
    .generate()
}

/// EMG equivalent: 3 classes of muscle-activation burst patterns.
pub fn emg_like(seed: u64) -> Dataset {
    spec(
        "EMG(sim)",
        PatternFamily::BurstCount,
        3,
        128,
        1,
        15,
        30,
        seed,
    )
    .generate()
}

/// SleepEEG equivalent: 5 oscillation-band classes; the single-source
/// pre-training corpus of the paper's Table III baselines, and the
/// workload for the Fig. 8 scalability study (long series supported).
pub fn sleepeeg_like(length: usize, per_class: usize, seed: u64) -> Dataset {
    spec(
        "SleepEEG(sim)",
        PatternFamily::SineFreq,
        5,
        length,
        1,
        per_class,
        per_class,
        seed,
    )
    .generate()
}

/// Handwriting equivalent (few-shot suite): many classes, 3 variables.
pub fn handwriting_like(seed: u64) -> Dataset {
    spec(
        "Handwriting(sim)",
        PatternFamily::Trajectory,
        6,
        96,
        3,
        10,
        20,
        seed,
    )
    .generate()
}

/// RacketSports equivalent (few-shot suite): 4 classes, 6 variables.
pub fn racketsports_like(seed: u64) -> Dataset {
    spec(
        "RacketSports(sim)",
        PatternFamily::BurstCount,
        4,
        64,
        6,
        10,
        20,
        seed,
    )
    .generate()
}

/// SelfRegulationSCP1 equivalent (few-shot suite): 2 classes, 3 variables.
pub fn scp1_like(seed: u64) -> Dataset {
    spec(
        "SelfRegulationSCP1(sim)",
        PatternFamily::SineFreq,
        2,
        128,
        3,
        15,
        30,
        seed,
    )
    .generate()
}

/// AllGestureWiimote{X,Y,Z} equivalents for the Fig. 7a/b parameter study;
/// `axis` ∈ {0,1,2} selects the variable phase like the three UCR datasets.
pub fn allgesture_like(axis: usize, seed: u64) -> Dataset {
    assert!(axis < 3, "axis must be 0 (X), 1 (Y) or 2 (Z)");
    let name = [
        "AllGestureWiimoteX(sim)",
        "AllGestureWiimoteY(sim)",
        "AllGestureWiimoteZ(sim)",
    ][axis];
    spec(
        name,
        PatternFamily::Trajectory,
        6,
        96,
        1,
        10,
        20,
        seed.wrapping_add(axis as u64),
    )
    .generate()
}

/// The 6-dataset few-shot suite of the paper's Table V.
pub fn fewshot_suite(seed: u64) -> Vec<Dataset> {
    vec![
        ecg200_like(seed),
        starlight_like(seed.wrapping_add(1)),
        epilepsy_like(seed.wrapping_add(2)),
        handwriting_like(seed.wrapping_add(3)),
        racketsports_like(seed.wrapping_add(4)),
        scp1_like(seed.wrapping_add(5)),
    ]
}

/// The 4-dataset transfer suite of the paper's Table III.
pub fn transfer_suite(seed: u64) -> Vec<Dataset> {
    vec![
        epilepsy_like(seed),
        fdb_like(seed.wrapping_add(1)),
        gesture_like(seed.wrapping_add(2)),
        emg_like(seed.wrapping_add(3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_datasets_have_expected_shapes() {
        let e = ecg200_like(0);
        assert_eq!((e.n_classes, e.n_vars(), e.series_len()), (2, 1, 96));
        let g = gesture_like(0);
        assert_eq!((g.n_classes, g.n_vars()), (6, 3));
        let r = racketsports_like(0);
        assert_eq!(r.n_vars(), 6);
    }

    #[test]
    fn sleepeeg_scales_with_request() {
        let d = sleepeeg_like(256, 4, 0);
        assert_eq!(d.series_len(), 256);
        assert_eq!(d.train.len(), 20);
    }

    #[test]
    fn suites_complete() {
        assert_eq!(fewshot_suite(0).len(), 6);
        assert_eq!(transfer_suite(0).len(), 4);
        let names: Vec<String> = fewshot_suite(0).iter().map(|d| d.name.clone()).collect();
        assert!(names.iter().any(|n| n.contains("StarLight")));
    }

    #[test]
    fn allgesture_axes_differ() {
        let x = allgesture_like(0, 0);
        let y = allgesture_like(1, 0);
        assert_ne!(x.train.samples[0].vars, y.train.samples[0].vars);
    }

    #[test]
    #[should_panic(expected = "axis must be")]
    fn allgesture_bad_axis() {
        let _ = allgesture_like(3, 0);
    }
}
