//! The self-gate: the real workspace carries zero findings, so the
//! lint baseline is part of tier-1 `cargo test`, not just CI.

use std::path::PathBuf;

use ripple_lint::{all_rules, run, Workspace};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn the_workspace_lints_clean() {
    let root = workspace_root();
    let ws = Workspace::load(&root).expect("workspace loads");
    assert!(
        ws.files.len() > 100,
        "sanity: the walk found the real tree, not a stub ({} files)",
        ws.files.len()
    );
    let findings = run(&ws);
    let rendered: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(
        findings.is_empty(),
        "ripple-lint must be clean on its own workspace:\n{}",
        rendered.join("\n")
    );
}

/// An allowlist entry for a file that no longer exists exempts nothing
/// today and silently exempts whatever file later takes its name.
#[test]
fn every_allowlisted_path_exists() {
    let root = workspace_root();
    let mut stale = Vec::new();
    for rule in all_rules() {
        for (path, _) in rule.allowlist() {
            if !root.join(path).is_file() {
                stale.push(format!("{}: {path}", rule.id()));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "allowlisted paths missing from the workspace:\n{}",
        stale.join("\n")
    );
}
