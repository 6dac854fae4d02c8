//! Each rule fires on its known-bad fixture tree and stays quiet on
//! the known-clean one, and the waiver syntax round-trips.

use std::path::PathBuf;

use ripple_lint::{run, Workspace};

fn fixture(rel: &str) -> Workspace {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    Workspace::load(&root).expect("fixture tree loads")
}

fn rules_fired(ws: &Workspace) -> Vec<&'static str> {
    let mut ids: Vec<_> = run(ws).into_iter().map(|f| f.rule).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[track_caller]
fn assert_rule_roundtrip(rule: &'static str) {
    let bad = fixture(&format!("{rule}/bad"));
    assert!(
        rules_fired(&bad).contains(&rule),
        "{rule} must fire on its bad fixture"
    );
    let clean = fixture(&format!("{rule}/clean"));
    assert_eq!(
        rules_fired(&clean),
        Vec::<&str>::new(),
        "{rule} clean fixture must produce no findings at all"
    );
}

#[test]
fn no_sleep_poll_roundtrip() {
    assert_rule_roundtrip("no-sleep-poll");
}

#[test]
fn wallclock_roundtrip() {
    assert_rule_roundtrip("no-wallclock-in-deterministic-paths");
}

#[test]
fn unwrap_roundtrip() {
    assert_rule_roundtrip("no-unwrap-in-hot-paths");
}

#[test]
fn opcode_sync_roundtrip() {
    assert_rule_roundtrip("opcode-table-sync");
}

#[test]
fn error_class_roundtrip() {
    assert_rule_roundtrip("error-class-coverage");
}

#[test]
fn wire_inline_roundtrip() {
    assert_rule_roundtrip("wire-inline");
}

#[test]
fn wire_inline_names_only_the_uninlined_item() {
    // The bad fixture also holds generic, lifetime-only, fn-pointer and
    // #[cfg(test)] functions; only the non-generic item is reported.
    let findings = run(&fixture("wire-inline/bad"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!((findings[0].rule, findings[0].line), ("wire-inline", 5));
    assert!(findings[0].message.contains("zigzag"));
}

#[test]
fn opcode_sync_names_both_drift_directions() {
    let findings = run(&fixture("opcode-table-sync/bad"));
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "opcode-table-sync" && f.message.contains("REQ_PUT")),
        "the undispatched declared opcode must be named"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "opcode-table-sync" && f.message.contains("REQ_BOGUS")),
        "the undeclared dispatched opcode must be named"
    );
}

#[test]
fn sleep_in_test_region_does_not_fire() {
    // The bad fixture also holds a #[cfg(test)] sleep; only the runtime
    // one may be reported.
    let findings = run(&fixture("no-sleep-poll/bad"));
    let sleeps: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "no-sleep-poll")
        .collect();
    assert_eq!(sleeps.len(), 1, "exactly the runtime sleep: {sleeps:?}");
    assert_eq!(sleeps[0].line, 5);
}

#[test]
fn well_formed_waiver_suppresses_the_finding() {
    let findings = run(&fixture("waivers/waived"));
    assert_eq!(findings, Vec::new(), "a waiver with a reason suppresses");
}

#[test]
fn malformed_waiver_suppresses_nothing_and_is_itself_denied() {
    let findings = run(&fixture("waivers/malformed"));
    assert!(
        findings.iter().any(|f| f.rule == "no-sleep-poll"),
        "the sleep stays denied"
    );
    assert!(
        findings.iter().any(|f| f.rule == "waiver-syntax"),
        "the broken waiver is reported"
    );
}
