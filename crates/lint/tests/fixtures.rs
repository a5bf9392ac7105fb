//! Fixture-driven rule tests plus the meta-test that the live workspace
//! itself lints clean under `--deny all`.
//!
//! Each fixture under `tests/fixtures/` is lexed and scanned through
//! [`procsim_lint::lint_source`] with a synthetic library path, so the
//! classifier treats it exactly like shipping crate code. The fixtures
//! directory is in the walker's skip list, so the workspace meta-test
//! does not lint the deliberately-dirty files.

use procsim_lint::{lint_source, lint_workspace, Config};

fn fixture(name: &str) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    std::fs::read_to_string(format!("{dir}/{name}"))
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Lint a fixture as if it lived in a shipping library crate.
fn lint(name: &str) -> procsim_lint::Report {
    let cfg = Config::deny_all("/nonexistent");
    lint_source(&cfg, &format!("crates/core/src/{name}"), &fixture(name))
}

fn rules_of(rep: &procsim_lint::Report) -> Vec<&str> {
    rep.findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn d001_triggers_on_hash_iteration() {
    let rep = lint("d001_trigger.rs");
    let rules = rules_of(&rep);
    assert_eq!(rules, ["D001", "D001"], "{:?}", rep.findings);
}

#[test]
fn d001_ignores_keyed_access_and_btreemap() {
    let rep = lint("d001_clean.rs");
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);
}

#[test]
fn d001_suppression_is_recorded_with_reason() {
    let rep = lint("d001_suppressed.rs");
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);
    assert_eq!(rep.suppressions.len(), 1);
    assert!(rep.suppressions[0].reason.contains("order-insensitive"));
}

#[test]
fn d002_triggers_on_wall_clock() {
    let rep = lint("d002_trigger.rs");
    let rules = rules_of(&rep);
    assert_eq!(rules, ["D002", "D002"], "{:?}", rep.findings);
}

#[test]
fn d002_allows_wall_clock_in_binaries() {
    let cfg = Config::deny_all("/nonexistent");
    let rep = lint_source(
        &cfg,
        "crates/core/src/bin/tool.rs",
        &fixture("d002_trigger.rs"),
    );
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);
}

#[test]
fn d002_ignores_seeded_generators() {
    let rep = lint("d002_clean.rs");
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);
}

#[test]
fn d003_triggers_on_float_sum() {
    let rep = lint("d003_trigger.rs");
    assert_eq!(rules_of(&rep), ["D003"], "{:?}", rep.findings);
}

#[test]
fn d003_ignores_integer_sum() {
    let rep = lint("d003_clean.rs");
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);
}

#[test]
fn d004_triggers_on_library_unwrap_and_expect() {
    let rep = lint("d004_trigger.rs");
    assert_eq!(rules_of(&rep), ["D004", "D004"], "{:?}", rep.findings);
}

#[test]
fn d004_ignores_test_code() {
    let rep = lint("d004_clean_test.rs");
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);
}

#[test]
fn d004_ignores_bin_code() {
    let cfg = Config::deny_all("/nonexistent");
    let rep = lint_source(
        &cfg,
        "crates/core/src/bin/tool.rs",
        &fixture("d004_trigger.rs"),
    );
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);
}

#[test]
fn d005_triggers_on_truncating_size_casts() {
    let rep = lint("d005_trigger.rs");
    assert_eq!(rules_of(&rep), ["D005", "D005"], "{:?}", rep.findings);
}

#[test]
fn d005_ignores_widening_and_non_size_casts() {
    let rep = lint("d005_clean.rs");
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);
}

#[test]
fn p001_malformed_pragma_does_not_suppress() {
    let rep = lint("p001_malformed.rs");
    let mut rules = rules_of(&rep);
    rules.sort();
    // the D004 it failed to suppress is still reported
    assert_eq!(rules, ["D004", "P001"], "{:?}", rep.findings);
    assert!(rep.suppressions.is_empty());
}

#[test]
fn p002_stale_pragma_is_reported() {
    let rep = lint("p002_stale.rs");
    assert_eq!(rules_of(&rep), ["P002"], "{:?}", rep.findings);
}

/// The meta-test: the shipping workspace must lint clean under the same
/// `--deny all` configuration CI runs, and every suppression must carry
/// a written reason.
#[test]
fn live_workspace_is_clean_under_deny_all() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let rep = lint_workspace(&Config::deny_all(root)).expect("workspace walk");
    assert!(rep.files > 0, "walker found no files");
    let denied: Vec<_> = rep.denied().collect();
    assert!(denied.is_empty(), "workspace has lint findings: {denied:#?}");
    for s in &rep.suppressions {
        assert!(
            !s.reason.trim().is_empty(),
            "suppression without reason at {}:{}",
            s.path,
            s.line
        );
    }
}

#[test]
fn catalogue_and_json_are_consistent() {
    assert!(procsim_lint::catalogue_is_consistent());
    let rep = lint("d003_trigger.rs");
    let json = procsim_lint::to_json(&rep);
    assert!(json.contains("\"rule\": \"D003\""), "{json}");
}
