//! Golden-diagnostics tests: each fixture file must produce exactly the
//! expected rule firings, and the rendered output must match
//! `tests/fixtures/expected.txt` byte for byte.

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn rules_for(name: &str) -> Vec<String> {
    let diags = aimts_lint::check_paths(&[fixture(name)]).expect("fixture must lint");
    diags.into_iter().map(|d| d.rule).collect()
}

#[test]
fn a002_fixture_fires_per_bad_fn() {
    assert_eq!(rules_for("a002_lock_order.rs"), vec!["A002"; 2]);
}

#[test]
fn a008_fixture_fires_per_held_boundary() {
    // send, recv, and catch_unwind each crossed with a live guard; the
    // drop-first and scope-confined variants stay silent.
    assert_eq!(rules_for("a008_guard_channel.rs"), vec!["A008"; 3]);
}

#[test]
fn a009_fixture_fires_without_reassertion() {
    assert_eq!(rules_for("a009_unwind_mut.rs"), vec!["A009"; 1]);
}

#[test]
fn a010_fixture_fires_on_leak_and_double_answer() {
    assert_eq!(rules_for("a010_responder.rs"), vec!["A010"; 2]);
}

#[test]
fn a012_fixture_fires_per_grad_api() {
    assert_eq!(rules_for("a012_storage_misuse.rs"), vec!["A012"; 2]);
}

#[test]
fn pragma_fixture_fires_meta_and_unsuppressed() {
    // Two valid suppressions absorb their targets. The reasonless pragma
    // and the one naming a rule that moved to clippy each surface as A000
    // *and* leave their line's A012 unsuppressed; the unused pragma
    // surfaces as A000 alone.
    let diags = aimts_lint::check_paths(&[fixture("pragmas.rs")]).expect("fixture must lint");
    let rules: Vec<&str> = diags.iter().map(|d| d.rule.as_str()).collect();
    assert_eq!(rules, vec!["A000", "A012", "A000", "A012", "A000"]);
    // A leftover pragma for a deleted rule is an unknown rule, not a
    // suppression that merely went unused.
    assert_eq!(diags[2].message, "unknown rule `A001` in suppression");
}

#[test]
fn rendered_diagnostics_match_golden() {
    let names = [
        "a002_lock_order.rs",
        "a008_guard_channel.rs",
        "a009_unwind_mut.rs",
        "a010_responder.rs",
        "a012_storage_misuse.rs",
        "pragmas.rs",
    ];
    let mut rendered = String::new();
    for name in names {
        let diags = aimts_lint::check_paths(&[fixture(name)]).expect("fixture must lint");
        for d in diags {
            // Strip the machine-specific path prefix for a stable golden.
            let line = format!("{d}\n");
            let tail = line
                .split_once("tests/fixtures/")
                .map(|(_, t)| t.to_string())
                .unwrap_or(line);
            rendered.push_str(&tail);
        }
    }
    let expected = std::fs::read_to_string(fixture("expected.txt")).expect("golden file");
    assert_eq!(rendered, expected, "diagnostics drifted from golden");
}

#[test]
fn json_output_is_wellformed_per_fixture() {
    let diags =
        aimts_lint::check_paths(&[fixture("a008_guard_channel.rs")]).expect("fixture must lint");
    let j = aimts_lint::to_json(&diags);
    assert!(j.starts_with('[') && j.ends_with(']'));
    assert_eq!(j.matches("\"rule\":\"A008\"").count(), 3);
}
