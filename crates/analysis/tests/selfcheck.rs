//! Self-checks: the live workspace must lint clean, and every rule must
//! be load-bearing against its fixture. These are the same invariants CI
//! enforces via `cargo run -p aimts-lint -- check`; keeping them as
//! tests means `cargo test` alone catches regressions.

use std::path::PathBuf;

/// (rule, fixture that must fire it) — one entry per enforced rule.
const RULE_FIXTURES: &[(&str, &str)] = &[
    ("A002", "a002_lock_order.rs"),
    ("A008", "a008_guard_channel.rs"),
    ("A009", "a009_unwind_mut.rs"),
    ("A010", "a010_responder.rs"),
    ("A012", "a012_storage_misuse.rs"),
];

fn fixture(name: &str) -> Vec<PathBuf> {
    vec![PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)]
}

/// Every rule is load-bearing: its fixture fires it when enabled and
/// goes silent (for that rule) when only that rule is disabled. A rule
/// whose implementation regressed to a no-op fails the first half; a
/// rule whose firings actually come from another rule fails the second.
#[test]
fn each_rule_is_load_bearing_against_its_fixture() {
    for (rule, name) in RULE_FIXTURES {
        let on = aimts_lint::check_paths(&fixture(name)).expect("fixture must lint");
        assert!(
            on.iter().any(|d| d.rule == *rule),
            "{name} no longer fires {rule}; the rule regressed to a no-op"
        );
        let scope = aimts_lint::rules::Scope::all().without(rule);
        let off = aimts_lint::check_paths_scoped(&fixture(name), scope).expect("fixture must lint");
        assert!(
            !off.iter().any(|d| d.rule == *rule),
            "{name} still reports {rule} with the rule disabled"
        );
    }
}

/// Every suppression in the workspace carries a reason — a reasonless
/// pragma surfaces as A000, which the clean-workspace check below treats
/// like any other diagnostic. This test exists to name the policy.
#[test]
fn workspace_suppressions_all_carry_reasons() {
    let manifest_dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = aimts_lint::find_workspace_root(&manifest_dir).expect("workspace root");
    let (diags, _) = aimts_lint::check_workspace(&root).expect("workspace must lint");
    let meta: Vec<String> = diags
        .iter()
        .filter(|d| d.rule == "A000")
        .map(|d| d.to_string())
        .collect();
    assert!(
        meta.is_empty(),
        "suppression hygiene violations:\n{}",
        meta.join("\n")
    );
}

#[test]
fn workspace_is_clean() {
    let manifest_dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = aimts_lint::find_workspace_root(&manifest_dir).expect("workspace root");
    let (diags, inspected) = aimts_lint::check_workspace(&root).expect("workspace must lint");
    assert!(
        inspected > 50,
        "suspiciously few files inspected ({inspected}); walker broken?"
    );
    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    assert!(
        diags.is_empty(),
        "workspace has {} unsuppressed diagnostic(s):\n{}",
        diags.len(),
        rendered.join("\n")
    );
}
