//! `no-wallclock-in-deterministic-paths`: no `Instant::now` /
//! `SystemTime::now` in non-test runtime code outside the allowlisted
//! timing sites.
//!
//! The engine's replay/equivalence story (deterministic step audits,
//! loom models, seeded chaos) only holds while step outcomes are pure
//! functions of inputs.  A wall-clock read in a decision path silently
//! couples results to machine speed.  Clock reads that only *measure*
//! (profiling spans, latency metrics, grace deadlines) are allowlisted
//! file by file, with reasons, so a new read in a new file has to
//! justify itself.

use crate::registry::{Finding, Rule, Severity};
use crate::source::Workspace;

/// Crates whose `src/` trees must not read the wall clock unprompted.
const SCOPE: &[&str] = &[
    "wire",
    "kv",
    "mq",
    "graph",
    "summa",
    "mapreduce",
    "store-mem",
    "store-simple",
    "store-disk",
    "core",
    "store-net",
    "server",
];

/// The `no-wallclock-in-deterministic-paths` rule.
pub struct NoWallclockInDeterministicPaths;

impl Rule for NoWallclockInDeterministicPaths {
    fn id(&self) -> &'static str {
        "no-wallclock-in-deterministic-paths"
    }

    fn severity(&self) -> Severity {
        Severity::Deny
    }

    fn description(&self) -> &'static str {
        "no Instant::now/SystemTime::now outside allowlisted measurement sites; \
         step outcomes must not depend on machine speed"
    }

    fn allowlist(&self) -> &'static [(&'static str, &'static str)] {
        &[
            (
                "crates/core/src/engine/sync.rs",
                "profiling spans time phases for StepProfile; they never steer control flow",
            ),
            (
                "crates/core/src/engine/mod.rs",
                "part-task and delivery spans for StepProfile; they never steer control flow",
            ),
            (
                "crates/core/src/engine/anywhere.rs",
                "the deliver round's span for StepProfile; it never steers control flow",
            ),
            (
                "crates/core/src/engine/nosync.rs",
                "profiling spans time phases for StepProfile; they never steer control flow",
            ),
            (
                "crates/core/src/retry.rs",
                "RetryPolicy prices elapsed backoff time; retries are already non-deterministic",
            ),
            (
                "crates/core/src/termination.rs",
                "the quiescence detector's timeout is a liveness bound, not a result input",
            ),
            (
                "crates/mq/src/table_queue.rs",
                "recv_timeout's deadline arithmetic; the timeout is the caller's contract",
            ),
            (
                "crates/graph/src/mutation.rs",
                "wait_drain's grace deadline bounds shutdown, not step results",
            ),
            (
                "crates/store-net/src/pool.rs",
                "times RPCs for the latency histogram; never steers control flow",
            ),
            (
                "crates/store-net/src/server.rs",
                "stop_with_grace's drain deadline bounds shutdown, not request handling",
            ),
            (
                "crates/server/src/sched.rs",
                "queue-wait accounting for SchedAccount; grants are ordered by the cursor, \
                 not the clock",
            ),
        ]
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let mut findings = Vec::new();
        for file in ws.crate_src_files(SCOPE) {
            for (line, text) in file.code_lines() {
                for pat in ["Instant::now", "SystemTime::now"] {
                    if text.contains(pat) {
                        findings.push(Finding {
                            rule: self.id(),
                            severity: self.severity(),
                            path: file.path.clone(),
                            line,
                            message: format!("{pat} in a deterministic path"),
                            hint: "thread time in explicitly, or measure without steering; \
                                   pure-measurement files belong on the rule's allowlist \
                                   with a reason"
                                .to_owned(),
                        });
                    }
                }
            }
        }
        findings
    }
}
