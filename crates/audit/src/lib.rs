//! **ripple-audit** — the property conformance auditor.
//!
//! The engines *trust* a job's declared
//! [`JobProperties`]: a job that wrongly
//! declares `one-msg` gets no-collect semantics and silently drops
//! messages; one that wrongly declares `deterministic` gets fast recovery
//! that replays into a different world.  Where cheap the engines check at
//! run time, but most properties cannot be checked from inside one run.
//!
//! [`audit_job`] checks them from *outside*: it executes the job several
//! times against fresh stores with an [`AuditProbe`](ripple_core::AuditProbe)
//! installed, compares the runs, and reports structured
//! [`AuditFinding`]s —
//!
//! - **`one-msg`** — the probe counts post-combine deliveries per
//!   (key, step); a second message is a violation of a declaration and an
//!   inference blocker otherwise.
//! - **`no-continue`** — the probe sees every continue signal.
//! - **`deterministic`** — the job is re-run on a fresh store and the two
//!   runs' per-step message digests and final state digests are compared;
//!   the first diverging step is the evidence.
//! - **`needs-order` / `no-ss-order` / `incremental`** — further runs
//!   replace the engine's invocation order with seeded random permutations
//!   ([`RunOptions::shuffle_delivery`](ripple_core::RunOptions::shuffle_delivery));
//!   a divergent result means the job depends on an order it waived (or
//!   never declared it needs), an invariant result means a declared
//!   `needs-order` was never exercised.
//! - **`rare-state`** — advisory only, from the ratio of observed state
//!   accesses to messages.
//!
//! Properties that *held* but were not declared come back as the
//! [`AuditReport::suggested`] set together with the stronger
//! [`ExecutionPlan`] declaring them would
//! unlock.  Inference is evidence, not proof: it says the property held in
//! every audited run.

mod digest;
mod recorder;
mod report;

use std::sync::Arc;

use ripple_core::{
    AuditFinding, EbspError, ExecMode, ExecutionPlan, FindingKind, Job, JobProperties, JobRunner,
    Loader, RunOptions,
};
use ripple_kv::KvStore;

pub use digest::state_digest;
pub use recorder::{Recorder, RunObservations};
pub use report::AuditReport;

/// How hard [`audit_job`] probes.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Seed for the shuffled-delivery permutations.
    pub seed: u64,
    /// Extra identical re-runs for the determinism comparison (beyond the
    /// baseline run).
    pub determinism_runs: u32,
    /// Shuffled-delivery runs for the order-dependence probe.
    pub permutation_runs: u32,
    /// Step cap applied to every audited run.
    pub max_steps: u32,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed_0000_0000_0001,
            determinism_runs: 1,
            permutation_runs: 2,
            max_steps: 100_000,
        }
    }
}

/// What one instrumented run produced: the probe's observations plus the
/// final state digest and step count (absent when the engine aborted the
/// run on an enforced property).
struct RunRecord {
    obs: RunObservations,
    digest: Option<u64>,
    steps: u32,
    enforced: Option<(&'static str, String)>,
}

/// Audits one job: runs it (forced synchronized, so every property can be
/// observed under instrumentation) against fresh stores from `mk_store`,
/// with fresh loaders from `mk_loaders`, and checks every declared
/// property against what actually happened.
///
/// `mk_job` is called once per run.  Return the *same* `Arc` each time to
/// audit a job instance with interior state, or a fresh instance for a
/// stateless job — sharing is what lets the auditor see nondeterminism
/// that leaks through instance state.
///
/// # Errors
///
/// Fails on contradictory declarations
/// ([`EbspError::ConfigUnsupported`]) and on store or wire errors from the
/// audited runs themselves.  A *property violation* is not an error: it
/// comes back as a finding in the report.
pub fn audit_job<S, J, MS, MJ, ML>(
    label: &str,
    config: &AuditConfig,
    mk_store: MS,
    mk_job: MJ,
    mk_loaders: ML,
) -> Result<AuditReport, EbspError>
where
    S: KvStore,
    J: Job,
    MS: Fn() -> S,
    MJ: Fn() -> Arc<J>,
    ML: Fn() -> Vec<Box<dyn Loader<J>>>,
{
    let job = mk_job();
    let declared = job.properties();
    declared.validate()?;
    let no_agg = job.aggregators().is_empty();
    let no_client_sync = !job.has_aborter();
    let table_names = job.state_tables();
    let plan_declared = ExecutionPlan::derive(&declared, no_agg, no_client_sync);
    drop(job);

    // Every audited run pins its invocation order with the seeded shuffle,
    // the baseline included.  The engine's default order for jobs without
    // `needs-order` is arrival order, which the backing store does not
    // promise to reproduce (hash-map iteration); pinning the order makes
    // same-seed runs exactly comparable, so the determinism phase measures
    // the *job*, and different-seed runs isolate order-dependence.
    let run_once = |seed: u64| -> Result<RunRecord, EbspError> {
        let store = mk_store();
        let mut runner = JobRunner::new(store.clone());
        runner
            .force_mode(ExecMode::Synchronized)
            .max_steps(config.max_steps);
        let probe = Arc::new(Recorder::new());
        let options = RunOptions::new()
            .loaders(mk_loaders())
            .audit(Arc::clone(&probe) as Arc<dyn ripple_core::AuditProbe>)
            .shuffle_delivery(seed);
        match runner.launch(mk_job(), options) {
            Ok(outcome) => Ok(RunRecord {
                obs: probe.take(),
                digest: Some(state_digest(&store, &table_names)?),
                steps: outcome.steps,
                enforced: None,
            }),
            Err(EbspError::PropertyViolation { property, detail }) => Ok(RunRecord {
                obs: probe.take(),
                digest: None,
                steps: 0,
                enforced: Some((property, detail)),
            }),
            Err(e) => Err(e),
        }
    };

    let mut findings = FindingSet::new();
    let mut runs = 1;
    let baseline = run_once(config.seed)?;
    baseline_findings(&declared, &baseline, &mut findings);

    let mut suggested = declared;
    if !findings.any_violation() {
        let observed_deterministic = determinism_phase(
            &declared,
            &baseline,
            config,
            &run_once,
            &mut runs,
            &mut findings,
        )?;
        // Shuffling only reaches the sorted/arrival-ordered compute path;
        // under a run-anywhere plan the work queue has no per-part order to
        // permute, and without observed determinism a divergence proves
        // nothing.
        if observed_deterministic && !plan_declared.run_anywhere && baseline.obs.invocations > 0 {
            permutation_phase(
                &declared,
                &baseline,
                config,
                &run_once,
                &mut runs,
                &mut findings,
            )?;
        }
        infer(
            &declared,
            &baseline.obs,
            observed_deterministic,
            runs,
            &mut suggested,
            &mut findings,
        );
    }

    Ok(AuditReport {
        job: label.to_owned(),
        declared,
        findings: findings.into_vec(),
        suggested,
        plan_declared,
        plan_suggested: ExecutionPlan::derive(&suggested, no_agg, no_client_sync),
        runs,
        steps: baseline.steps,
    })
}

/// At most one finding per property, violations shadowing advisories.
struct FindingSet {
    findings: Vec<AuditFinding>,
}

impl FindingSet {
    fn new() -> Self {
        Self {
            findings: Vec::new(),
        }
    }

    fn add(&mut self, finding: AuditFinding) {
        match self
            .findings
            .iter_mut()
            .find(|f| f.property == finding.property)
        {
            Some(existing) => {
                if existing.kind == FindingKind::Advisory && finding.kind == FindingKind::Violation
                {
                    *existing = finding;
                }
            }
            None => self.findings.push(finding),
        }
    }

    fn any_violation(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.kind == FindingKind::Violation)
    }

    fn into_vec(mut self) -> Vec<AuditFinding> {
        self.findings
            .sort_by_key(|f| (f.kind != FindingKind::Violation, f.property));
        self.findings
    }
}

/// Findings established by the baseline run alone: enforced aborts plus
/// probe-observed violations of `one-msg` and `no-continue`.
fn baseline_findings(declared: &JobProperties, baseline: &RunRecord, findings: &mut FindingSet) {
    if declared.one_msg {
        if let Some((step, part, key, count)) = &baseline.obs.first_multi_delivery {
            findings.add(AuditFinding {
                property: "one-msg",
                kind: FindingKind::Violation,
                step: *step,
                part: *part,
                key: Some(key.clone()),
                evidence: format!("{count} messages arrived for one key in one step"),
            });
        }
    }
    if declared.no_continue {
        if let Some((step, part, key)) = &baseline.obs.first_continue {
            findings.add(AuditFinding {
                property: "no-continue",
                kind: FindingKind::Violation,
                step: *step,
                part: *part,
                key: Some(key.clone()),
                evidence: "compute returned the positive continue signal".to_owned(),
            });
        }
    }
    // An engine abort the probe did not witness first (both enforced
    // properties are probed above, so this is a safety net).
    if let Some((property, detail)) = &baseline.enforced {
        findings.add(AuditFinding {
            property,
            kind: FindingKind::Violation,
            step: baseline.obs.last_step,
            part: 0,
            key: None,
            evidence: format!("engine aborted the run: {detail}"),
        });
    }
}

/// Re-runs the job identically and compares; returns whether every run
/// matched the baseline.
fn determinism_phase(
    declared: &JobProperties,
    baseline: &RunRecord,
    config: &AuditConfig,
    run_once: &dyn Fn(u64) -> Result<RunRecord, EbspError>,
    runs: &mut u32,
    findings: &mut FindingSet,
) -> Result<bool, EbspError> {
    let mut deterministic = config.determinism_runs > 0;
    for _ in 0..config.determinism_runs {
        let rerun = run_once(config.seed)?;
        *runs += 1;
        let matches = rerun.digest == baseline.digest
            && rerun.steps == baseline.steps
            && rerun.obs.send_digests == baseline.obs.send_digests
            && rerun.obs.deliver_digests == baseline.obs.deliver_digests;
        if matches {
            continue;
        }
        deterministic = false;
        if declared.deterministic {
            let step = baseline
                .obs
                .first_divergence(&rerun.obs)
                .unwrap_or(baseline.steps);
            findings.add(AuditFinding {
                property: "deterministic",
                kind: FindingKind::Violation,
                step,
                part: 0,
                key: None,
                evidence: "two identical runs produced different messages or final state"
                    .to_owned(),
            });
        }
        break;
    }
    Ok(deterministic)
}

/// Runs the job under seeded random invocation orders and interprets a
/// divergence against the declared order properties.
fn permutation_phase(
    declared: &JobProperties,
    baseline: &RunRecord,
    config: &AuditConfig,
    run_once: &dyn Fn(u64) -> Result<RunRecord, EbspError>,
    runs: &mut u32,
    findings: &mut FindingSet,
) -> Result<(), EbspError> {
    let mut diverged_at: Option<u32> = None;
    for i in 0..config.permutation_runs {
        let shuffled = run_once(config.seed.wrapping_add(1 + u64::from(i)))?;
        *runs += 1;
        if shuffled.digest != baseline.digest || shuffled.steps != baseline.steps {
            diverged_at = Some(
                baseline
                    .obs
                    .first_divergence(&shuffled.obs)
                    .unwrap_or(baseline.steps),
            );
            break;
        }
    }
    match diverged_at {
        Some(step) => {
            // One order-related finding, most specific declaration first:
            // waiving step order or declaring incremental delivery while
            // being order-dependent is a lie; being order-dependent while
            // declaring nothing is a missing needs-order.
            let (property, evidence) = if declared.no_ss_order {
                (
                    "no-ss-order",
                    "declared order-free, but a shuffled invocation order changed the result",
                )
            } else if declared.incremental {
                (
                    "incremental",
                    "declared delivery-order-free, but a shuffled invocation order changed the \
                     result",
                )
            } else if declared.needs_order {
                // Order-dependence under a declared needs-order is the
                // declaration working as intended.
                return Ok(());
            } else {
                (
                    "needs-order",
                    "the result depends on invocation order but needs-order is not declared",
                )
            };
            findings.add(AuditFinding {
                property,
                kind: FindingKind::Violation,
                step,
                part: 0,
                key: None,
                evidence: evidence.to_owned(),
            });
        }
        None => {
            if declared.needs_order {
                findings.add(AuditFinding {
                    property: "needs-order",
                    kind: FindingKind::Advisory,
                    step: 0,
                    part: 0,
                    key: None,
                    evidence: format!(
                        "declared, but the result was invariant under {} random invocation \
                         orders; consider dropping it",
                        config.permutation_runs
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Inference mode: properties that held across every audited run but were
/// not declared become suggestions (advisories), building the strongest
/// property set the evidence supports.
fn infer(
    declared: &JobProperties,
    obs: &RunObservations,
    observed_deterministic: bool,
    runs: u32,
    suggested: &mut JobProperties,
    findings: &mut FindingSet,
) {
    if obs.invocations == 0 {
        return;
    }
    if !declared.no_continue && obs.first_continue.is_none() {
        suggested.no_continue = true;
        findings.add(advisory(
            "no-continue",
            format!("no invocation continued across {runs} runs; consider declaring it"),
        ));
    }
    if !declared.one_msg && !obs.deliver_digests.is_empty() && obs.max_delivery <= 1 {
        suggested.one_msg = true;
        findings.add(advisory(
            "one-msg",
            format!("no key received a second message in a step across {runs} runs; consider declaring it"),
        ));
    }
    if !declared.deterministic && observed_deterministic {
        suggested.deterministic = true;
        findings.add(advisory(
            "deterministic",
            format!("{runs} runs produced identical messages and state; consider declaring it"),
        ));
    }
    if !declared.rare_state && obs.sends > 0 && obs.state_ops * 4 <= obs.sends {
        suggested.rare_state = true;
        findings.add(advisory(
            "rare-state",
            format!(
                "{} state accesses vs {} messages; consider declaring it",
                obs.state_ops, obs.sends
            ),
        ));
    }
    if declared.rare_state && obs.state_ops > obs.sends.saturating_mul(4) {
        findings.add(advisory(
            "rare-state",
            format!(
                "declared, but {} state accesses dominate {} messages",
                obs.state_ops, obs.sends
            ),
        ));
    }
}

fn advisory(property: &'static str, evidence: String) -> AuditFinding {
    AuditFinding {
        property,
        kind: FindingKind::Advisory,
        step: 0,
        part: 0,
        key: None,
        evidence,
    }
}
