//! Audit instrumentation: the "detected" half of the paper's "declared or
//! detected" job properties (§II-A).
//!
//! The engines *trust* declared [`JobProperties`](crate::JobProperties) —
//! a job that wrongly declares `one_msg` or `deterministic` silently gets
//! no-collect / fast-recovery semantics and corrupt output.  An
//! [`AuditProbe`] installed through
//! [`RunOptions::audit`](crate::RunOptions::audit) observes every compute
//! invocation, send, state access, continue signal, and post-combine
//! delivery, so a checker (the `ripple-audit` crate) can verify each
//! declared property against observed behaviour and report
//! [`AuditFinding`]s.  The probe is opt-in: without one, the engines take
//! the exact pre-audit code paths, with only an `Option` test per hook
//! site.

use std::fmt;

/// Which state-table operation a compute invocation performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateOp {
    /// [`ComputeContext::read_state`](crate::ComputeContext::read_state).
    Read,
    /// [`ComputeContext::write_state`](crate::ComputeContext::write_state).
    Write,
    /// [`ComputeContext::delete_state`](crate::ComputeContext::delete_state).
    Delete,
}

/// How serious an [`AuditFinding`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A declared property was observed *not* to hold: the job lied and
    /// the derived [`ExecutionPlan`](crate::ExecutionPlan) is unsound.
    Violation,
    /// An undeclared property held across the audited runs; declaring it
    /// would unlock a stronger plan (inference mode), or a declared
    /// property was never exercised.
    Advisory,
}

/// One structured audit result: which property, where, and the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// The property the finding is about (`"one-msg"`, `"no-continue"`,
    /// `"deterministic"`, ...), matching the paper's §II-A names.
    pub property: &'static str,
    /// Violation of a declaration, or an inference/advisory note.
    pub kind: FindingKind,
    /// The step at which the evidence was observed (0 when the finding is
    /// run-level, e.g. a whole-run digest divergence with no known first
    /// step).
    pub step: u32,
    /// The part at which the evidence was observed (0 when run-level).
    pub part: u32,
    /// The component key involved, rendered for humans, if one is.
    pub key: Option<String>,
    /// What was observed, in one sentence.
    pub evidence: String,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            FindingKind::Violation => "violation",
            FindingKind::Advisory => "advisory",
        };
        write!(f, "[{kind}] {}: {}", self.property, self.evidence)?;
        if self.step > 0 {
            write!(f, " (step {}, part {}", self.step, self.part)?;
            if let Some(key) = &self.key {
                write!(f, ", key {key}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Checking instrumentation the engines call when a probe is installed via
/// [`RunOptions::audit`](crate::RunOptions::audit).
///
/// Keys and messages arrive wire-encoded (`&[u8]`), which keeps the trait
/// object-safe and the engines free of extra generic bounds; a checker
/// that needs the typed key decodes it itself.  All methods default to
/// no-ops.  Probes run inside part tasks, concurrently across parts —
/// implementations must be `Send + Sync` and cheap.
pub trait AuditProbe: Send + Sync + 'static {
    /// A compute invocation is about to run for `key` at `part` in `step`.
    fn on_invocation(&self, step: u32, part: u32, key: &[u8]) {
        let _ = (step, part, key);
    }

    /// A compute invocation for `key` returned its continue signal.
    fn on_continue(&self, step: u32, part: u32, key: &[u8], continued: bool) {
        let _ = (step, part, key, continued);
    }

    /// The invocation for `from` sent `msg` to `to` (both wire-encoded).
    fn on_send(&self, step: u32, part: u32, from: &[u8], to: &[u8], msg: &[u8]) {
        let _ = (step, part, from, to, msg);
    }

    /// The running invocation touched state table `table`.
    fn on_state_access(&self, step: u32, part: u32, op: StateOp, table: usize) {
        let _ = (step, part, op, table);
    }

    /// The delivery that opens `step` handed `key` `msgs` messages (counted
    /// *after* the combiner pass — the count the `one-msg` contract is
    /// about).
    fn on_deliver(&self, step: u32, part: u32, key: &[u8], msgs: u32) {
        let _ = (step, part, key, msgs);
    }
}
