//! `metrics-telescoping`: every scalar `StoreMetrics` counter must
//! telescope all the way up the reporting stack.
//!
//! `StepProfile` embeds `StoreMetrics` wholesale, so a new counter is
//! *collected* for free — but it still has to be *reported*: rendered by
//! the step-profile JSON in the trace module (`core/src/trace.rs`), which
//! every regenerator's `--profile` file embeds.  Counters
//! that stop at the struct are how regressions go unnoticed; this rule
//! makes "add a counter" mean "render it".

use crate::registry::{Finding, Rule, Severity};
use crate::source::{brace_span, ident_tokens, Workspace};

const METRICS: &str = "crates/kv/src/metrics.rs";
const SINKS: &[(&str, &str)] = &[("crates/core/src/trace.rs", "the step-trace renderer")];

/// The `metrics-telescoping` rule.
pub struct MetricsTelescoping;

impl Rule for MetricsTelescoping {
    fn id(&self) -> &'static str {
        "metrics-telescoping"
    }

    fn severity(&self) -> Severity {
        Severity::Deny
    }

    fn description(&self) -> &'static str {
        "every scalar StoreMetrics counter must be rendered by trace.rs, not just collected"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let Some(metrics) = ws.file(METRICS) else {
            return Vec::new();
        };
        let Some(decl) = metrics.scrubbed.find("struct StoreMetrics") else {
            return Vec::new();
        };
        let Some((open, close)) = brace_span(&metrics.scrubbed, decl) else {
            return Vec::new();
        };
        let body = &metrics.scrubbed[open..close];
        let body_start_line = metrics.scrubbed[..open].lines().count();

        // Scalar counters only: `pub <name>: u64`.  Structured fields
        // (latency histograms) have their own reporting shapes.
        let mut fields = Vec::new();
        for (i, line) in body.lines().enumerate() {
            let Some(rest) = line.trim_start().strip_prefix("pub ") else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() && rest[name.len()..].trim_start().starts_with(": u64") {
                fields.push((name, body_start_line + i));
            }
        }

        let mut findings = Vec::new();
        for (sink_path, sink_desc) in SINKS {
            let Some(sink) = ws.file(sink_path) else {
                continue;
            };
            let tokens = ident_tokens(&sink.scrubbed);
            for (name, line) in &fields {
                if !tokens.contains(name) {
                    findings.push(Finding {
                        rule: self.id(),
                        severity: self.severity(),
                        path: metrics.path.clone(),
                        line: *line,
                        message: format!(
                            "StoreMetrics counter `{name}` never reaches {sink_desc} ({sink_path})"
                        ),
                        hint: "a counter that is collected but not reported hides regressions; \
                               render it in trace.rs (step_profiles_json is additive)"
                            .to_owned(),
                    });
                }
            }
        }
        findings
    }
}
