//! The audit's result: findings, the inferred property set, and the plans
//! the declared and suggested properties derive to.

use std::fmt::Write as _;

use ripple_core::{AuditFinding, ExecMode, ExecutionPlan, FindingKind, JobProperties};

/// The outcome of auditing one job: every established finding, plus the
/// strongest property set the audited runs are consistent with and what
/// declaring it would unlock.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The label the caller gave the job.
    pub job: String,
    /// The properties the job declared.
    pub declared: JobProperties,
    /// Every finding, violations first, at most one per property.
    pub findings: Vec<AuditFinding>,
    /// The strongest property set consistent with the audited runs.  For
    /// properties the auditor cannot probe the declaration is kept as-is;
    /// an *inferred* property held in every audited run but is not proven
    /// in general — treat the suggestion as a review prompt, not a proof.
    pub suggested: JobProperties,
    /// The plan the declared properties derive to.
    pub plan_declared: ExecutionPlan,
    /// The plan the suggested properties would derive to.
    pub plan_suggested: ExecutionPlan,
    /// Instrumented runs the audit performed.
    pub runs: u32,
    /// Steps the baseline run took.
    pub steps: u32,
}

impl AuditReport {
    /// True when no declared property was observed to be violated.
    /// Advisories (inference suggestions, unexercised declarations) do not
    /// make a report unclean.
    pub fn clean(&self) -> bool {
        self.findings
            .iter()
            .all(|f| f.kind != FindingKind::Violation)
    }

    /// The violations alone.
    pub fn violations(&self) -> impl Iterator<Item = &AuditFinding> {
        self.findings
            .iter()
            .filter(|f| f.kind == FindingKind::Violation)
    }

    /// The optimizations the suggested properties would unlock over the
    /// declared ones, as human-readable names; empty when declaring the
    /// suggestions changes nothing.
    pub fn unlocked(&self) -> Vec<&'static str> {
        let (now, then) = (&self.plan_declared, &self.plan_suggested);
        let mut unlocked = Vec::new();
        if now.collect && !then.collect {
            unlocked.push("no-collect");
        }
        if !now.run_anywhere && then.run_anywhere {
            unlocked.push("run-anywhere (work stealing)");
        }
        if now.mode == ExecMode::Synchronized && then.mode == ExecMode::Unsynchronized {
            unlocked.push("no-sync (barrier-free execution)");
        }
        if !now.fast_recovery && then.fast_recovery {
            unlocked.push("fast-recovery (single-part replay)");
        }
        if now.sort && !then.sort {
            unlocked.push("no-sort");
        }
        unlocked
    }

    /// Renders the report as a terminal-friendly block.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let verdict = if self.clean() { "CLEAN" } else { "VIOLATIONS" };
        let _ = writeln!(
            s,
            "audit of {}: {verdict} ({} runs, {} steps)",
            self.job, self.runs, self.steps
        );
        let _ = writeln!(s, "  declared:  {}", props_line(&self.declared));
        if self.suggested != self.declared {
            let _ = writeln!(s, "  suggested: {}", props_line(&self.suggested));
        }
        for finding in &self.findings {
            let _ = writeln!(s, "  {finding}");
        }
        let unlocked = self.unlocked();
        if !unlocked.is_empty() {
            let _ = writeln!(
                s,
                "  declaring the suggested set unlocks: {}",
                unlocked.join(", ")
            );
        }
        s
    }
}

/// One-line rendering of a property set, `-` for an empty one.
fn props_line(p: &JobProperties) -> String {
    let names = [
        (p.needs_order, "needs-order"),
        (p.no_continue, "no-continue"),
        (p.one_msg, "one-msg"),
        (p.rare_state, "rare-state"),
        (p.no_ss_order, "no-ss-order"),
        (p.incremental, "incremental"),
        (p.deterministic, "deterministic"),
    ];
    let set: Vec<&str> = names
        .iter()
        .filter_map(|(on, name)| on.then_some(*name))
        .collect();
    if set.is_empty() {
        "-".to_owned()
    } else {
        set.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(findings: Vec<AuditFinding>) -> AuditReport {
        let declared = JobProperties::default();
        let suggested = JobProperties {
            one_msg: true,
            no_continue: true,
            ..JobProperties::default()
        };
        AuditReport {
            job: "t".to_owned(),
            declared,
            findings,
            suggested,
            plan_declared: ExecutionPlan::derive(&declared, true, true),
            plan_suggested: ExecutionPlan::derive(&suggested, true, true),
            runs: 3,
            steps: 4,
        }
    }

    #[test]
    fn clean_distinguishes_violations_from_advisories() {
        let advisory = AuditFinding {
            property: "one-msg",
            kind: FindingKind::Advisory,
            step: 0,
            part: 0,
            key: None,
            evidence: "held".to_owned(),
        };
        assert!(report(vec![advisory.clone()]).clean());
        let violation = AuditFinding {
            kind: FindingKind::Violation,
            ..advisory
        };
        let r = report(vec![violation]);
        assert!(!r.clean());
        assert_eq!(r.violations().count(), 1);
    }

    #[test]
    fn unlocked_names_the_plan_delta() {
        let r = report(Vec::new());
        assert_eq!(r.unlocked(), vec!["no-collect"]);
    }

    #[test]
    fn render_mentions_verdict_and_suggestion() {
        let r = report(Vec::new());
        let text = r.render();
        assert!(text.contains("CLEAN"));
        assert!(text.contains("suggested: no-continue, one-msg"));
        assert!(text.contains("no-collect"));
    }
}
