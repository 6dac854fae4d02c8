//! Rule registry, findings, and the waiver-aware runner.

use std::fmt;

use crate::source::{SourceFile, Workspace};

/// How a finding gates CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint gate.
    Deny,
    /// Reported; fails only under `--deny-all`.
    Warn,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        })
    }
}

/// One rule violation, locatable and actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: &'static str,
    /// The rule's severity.
    pub severity: Severity,
    /// Root-relative path of the offending file.
    pub path: String,
    /// 1-based line of the offence.
    pub line: usize,
    /// What is wrong, concretely.
    pub message: String,
    /// How to fix it (or how to waive it, when the pattern is intended).
    pub hint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}]: {}\n    hint: {}",
            self.path, self.line, self.severity, self.rule, self.message, self.hint
        )
    }
}

/// A workspace-invariant check.
///
/// Rules see the whole [`Workspace`] so cross-file invariants (opcode
/// tables, error classes) are first-class, not special cases.
pub trait Rule {
    /// Stable kebab-case id, used in reports and waivers.
    fn id(&self) -> &'static str;
    /// Gate severity.
    fn severity(&self) -> Severity;
    /// One-line description for `ripple-lint rules`.
    fn description(&self) -> &'static str;
    /// Files where the pattern is the design, not a bug: `(path,
    /// reason)` pairs, printed by `ripple-lint rules` so the exemptions
    /// are themselves reviewable.
    fn allowlist(&self) -> &'static [(&'static str, &'static str)] {
        &[]
    }
    /// Runs the check over the workspace.
    fn check(&self, ws: &Workspace) -> Vec<Finding>;
}

/// Every registered rule, in report order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(crate::rules::no_sleep_poll::NoSleepPoll),
        Box::new(crate::rules::wallclock::NoWallclockInDeterministicPaths),
        Box::new(crate::rules::unwrap::NoUnwrapInHotPaths),
        Box::new(crate::rules::opcode_sync::OpcodeTableSync),
        Box::new(crate::rules::error_class::ErrorClassCoverage),
        Box::new(crate::rules::wire_inline::WireInline),
    ]
}

/// The pseudo-rule id under which malformed or dangling waivers are
/// reported (a waiver that does not parse must not silently waive
/// nothing).
pub const WAIVER_RULE: &str = "waiver-syntax";

/// A parsed inline waiver, e.g.
/// `// ripple-lint: allow(no-sleep-poll) -- fault injection: the delay is the point`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// 1-based line the waiver comment starts on.
    pub line: usize,
    /// The rule id being waived.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
}

/// Waivers found in a file, plus syntax findings for ones that do not
/// parse or name an unknown rule.
pub fn parse_waivers(
    file: &SourceFile,
    known_rules: &[&'static str],
) -> (Vec<Waiver>, Vec<Finding>) {
    // The marker includes `allow` so prose that merely names the tool
    // (`ripple-lint: a static analyzer`) is not mistaken for a waiver;
    // everything after the marker must then parse exactly.
    const MARKER: &str = "ripple-lint:";
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for (line, text) in &file.comments {
        let Some(pos) = text.find(MARKER) else {
            continue;
        };
        let rest = text[pos + MARKER.len()..].trim_start();
        if !rest.starts_with("allow") {
            continue;
        }
        let malformed = |why: &str| Finding {
            rule: WAIVER_RULE,
            severity: Severity::Deny,
            path: file.path.clone(),
            line: *line,
            message: format!("unusable waiver: {why}"),
            hint: "write `// ripple-lint: allow(<rule-id>) -- <reason>` with a real rule id \
                   and a non-empty reason"
                .to_owned(),
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            findings.push(malformed(
                "expected `allow(<rule-id>)` after `ripple-lint:`",
            ));
            continue;
        };
        let Some(close) = args.find(')') else {
            findings.push(malformed("unclosed `allow(`"));
            continue;
        };
        let rule = args[..close].trim().to_owned();
        let tail = args[close + 1..].trim_start();
        let Some(reason) = tail.strip_prefix("--") else {
            findings.push(malformed("missing ` -- <reason>` after the rule id"));
            continue;
        };
        let reason = reason.trim();
        if reason.is_empty() {
            findings.push(malformed("empty reason"));
            continue;
        }
        if !known_rules.contains(&rule.as_str()) {
            findings.push(malformed(&format!("unknown rule id {rule:?}")));
            continue;
        }
        waivers.push(Waiver {
            line: *line,
            rule,
            reason: reason.to_owned(),
        });
    }
    (waivers, findings)
}

/// Runs every rule over the workspace, applies built-in allowlists and
/// inline waivers, and reports waiver-syntax problems.  The returned
/// findings are what the gate judges.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let rules = all_rules();
    let rule_ids: Vec<&'static str> = rules.iter().map(|r| r.id()).collect();

    let mut findings = Vec::new();
    for rule in &rules {
        let allow = rule.allowlist();
        findings.extend(
            rule.check(ws)
                .into_iter()
                .filter(|f| !allow.iter().any(|(path, _)| *path == f.path)),
        );
    }

    // Inline waivers: a waiver covers findings of its rule on the same
    // line or on the line directly below (a standalone waiver comment
    // sits above the code it excuses).
    let mut waived = vec![false; findings.len()];
    for file in &ws.files {
        let (waivers, syntax_findings) = parse_waivers(file, &rule_ids);
        for w in &waivers {
            for (i, f) in findings.iter().enumerate() {
                if f.path == file.path
                    && f.rule == w.rule
                    && (f.line == w.line || f.line == w.line + 1)
                {
                    waived[i] = true;
                }
            }
        }
        findings.extend(syntax_findings);
        waived.resize(findings.len(), false);
    }

    let mut kept: Vec<Finding> = findings
        .into_iter()
        .zip(waived)
        .filter_map(|(f, w)| (!w).then_some(f))
        .collect();
    kept.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scrub;

    fn file_with(comment_src: &str) -> SourceFile {
        let (scrubbed, comments) = scrub(comment_src);
        SourceFile {
            path: "crates/x/src/lib.rs".into(),
            raw: comment_src.into(),
            scrubbed,
            comments,
            is_test_path: false,
            test_lines: Vec::new(),
        }
    }

    #[test]
    fn well_formed_waiver_parses() {
        let f = file_with("// ripple-lint: allow(no-sleep-poll) -- backoff is the contract\n");
        let (waivers, bad) = parse_waivers(&f, &["no-sleep-poll"]);
        assert!(bad.is_empty());
        assert_eq!(
            waivers,
            vec![Waiver {
                line: 1,
                rule: "no-sleep-poll".into(),
                reason: "backoff is the contract".into(),
            }]
        );
    }

    #[test]
    fn missing_reason_is_flagged() {
        let f = file_with("// ripple-lint: allow(no-sleep-poll)\n");
        let (waivers, bad) = parse_waivers(&f, &["no-sleep-poll"]);
        assert!(waivers.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("missing"));
    }

    #[test]
    fn unknown_rule_is_flagged() {
        let f = file_with("// ripple-lint: allow(no-such-rule) -- whatever\n");
        let (waivers, bad) = parse_waivers(&f, &["no-sleep-poll"]);
        assert!(waivers.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("unknown rule"));
    }
}
