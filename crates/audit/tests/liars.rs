//! Liar-job regression tests: each job declares a property it does not
//! have, and the auditor must catch it with exactly one violation naming
//! the right property at the right step.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ripple_audit::{audit_job, AuditConfig, AuditReport};
use ripple_core::{
    ComputeContext, EbspError, FindingKind, FnLoader, Job, JobProperties, LoadSink, Loader,
};
use ripple_store_mem::MemStore;

const PARTS: u32 = 3;
const KEYS: u32 = 6;

fn store() -> MemStore {
    MemStore::builder().default_parts(PARTS).build()
}

fn enable_all_loader<J: Job<Key = u32, State = u64>>() -> Vec<Box<dyn Loader<J>>> {
    vec![Box::new(FnLoader::new(|sink: &mut dyn LoadSink<J>| {
        for k in 0..KEYS {
            sink.state(0, k, 0)?;
            sink.enable(k)?;
        }
        Ok(())
    }))]
}

fn audit<J: Job<Key = u32, State = u64>>(job: Arc<J>) -> AuditReport {
    audit_job(
        "liar",
        &AuditConfig::default(),
        store,
        move || Arc::clone(&job),
        enable_all_loader,
    )
    .expect("audit runs")
}

/// The single violation of a report, asserting there is exactly one.
fn the_violation(report: &AuditReport) -> &ripple_core::AuditFinding {
    let violations: Vec<_> = report.violations().collect();
    assert_eq!(
        violations.len(),
        1,
        "expected exactly one violation, got {:?}",
        report.findings
    );
    violations[0]
}

/// Declares `one-msg` but sends two (uncombinable) messages to the same
/// destination in step 1, so step 2 delivers a pair.
struct LiarOneMsg;

impl Job for LiarOneMsg {
    type Key = u32;
    type State = u64;
    type Message = u32;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["liar_one_msg".to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            one_msg: true,
            ..JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        if ctx.step() == 1 {
            let to = (*ctx.key() + 1) % KEYS;
            ctx.send(to, 1);
            ctx.send(to, 2);
        }
        Ok(false)
    }
}

#[test]
fn one_msg_liar_is_caught_at_the_delivering_step() {
    let report = audit(Arc::new(LiarOneMsg));
    assert!(!report.clean());
    let v = the_violation(&report);
    assert_eq!(v.property, "one-msg");
    assert_eq!(v.kind, FindingKind::Violation);
    // Sent in step 1, delivered (and caught) in step 2.
    assert_eq!(v.step, 2);
    assert!(v.key.is_some());
}

/// Declares `no-continue` but returns the positive continue signal in
/// step 1.
struct LiarNoContinue;

impl Job for LiarNoContinue {
    type Key = u32;
    type State = u64;
    type Message = u32;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["liar_no_continue".to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            no_continue: true,
            ..JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        Ok(ctx.step() == 1)
    }
}

#[test]
fn no_continue_liar_is_caught_at_the_continuing_step() {
    let report = audit(Arc::new(LiarNoContinue));
    assert!(!report.clean());
    let v = the_violation(&report);
    assert_eq!(v.property, "no-continue");
    assert_eq!(v.step, 1);
    assert!(v.key.is_some());
}

/// Declares `deterministic` but the message payload comes from a shared
/// counter that keeps incrementing across runs.
struct LiarDeterministic {
    counter: AtomicU64,
}

impl Job for LiarDeterministic {
    type Key = u32;
    type State = u64;
    type Message = u64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["liar_deterministic".to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            deterministic: true,
            ..JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        if ctx.step() == 1 {
            let stamp = self.counter.fetch_add(1, Ordering::Relaxed);
            ctx.write_state(0, &stamp)?;
            ctx.send((*ctx.key() + 1) % KEYS, stamp);
        }
        Ok(false)
    }
}

#[test]
fn deterministic_liar_is_caught_at_the_diverging_step() {
    let report = audit(Arc::new(LiarDeterministic {
        counter: AtomicU64::new(0),
    }));
    assert!(!report.clean());
    let v = the_violation(&report);
    assert_eq!(v.property, "deterministic");
    assert_eq!(v.step, 1);
}

/// An honest quiet job: one message per destination, never continues,
/// fully deterministic — declares nothing.
struct HonestUndeclared;

impl Job for HonestUndeclared {
    type Key = u32;
    type State = u64;
    type Message = u32;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["honest".to_owned()]
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let step = ctx.step();
        if step < 3 {
            ctx.write_state(0, &u64::from(step))?;
            ctx.send((*ctx.key() + 1) % KEYS, step);
        }
        Ok(false)
    }
}

#[test]
fn honest_job_audits_clean_and_gets_inference_suggestions() {
    let report = audit(Arc::new(HonestUndeclared));
    assert!(report.clean(), "findings: {:?}", report.findings);
    assert!(report.suggested.no_continue);
    assert!(report.suggested.one_msg);
    assert!(report.suggested.deterministic);
    // one-msg + no-continue unlock no-collect in the suggested plan.
    assert!(report.plan_declared.collect);
    assert!(!report.plan_suggested.collect);
    assert!(report.unlocked().contains(&"no-collect"));
    // Every suggestion arrives as an advisory finding.
    assert!(report
        .findings
        .iter()
        .all(|f| f.kind == FindingKind::Advisory));
    let text = report.render();
    assert!(text.contains("CLEAN"));
    assert!(text.contains("suggested"));
}

/// A combiner that lies about the combiner law: [`Job::combine_messages`]
/// must be associative + commutative (the platform "may combine some of
/// them by one or more invocations, at arbitrary times and places"), but
/// this one is order-dependent.  The engine's outbox folds
/// same-destination messages as they are sent, in invocation order within
/// each part,
/// so the auditor's shuffled invocation orders reach different folded
/// values — order dependence the job never declared.
struct LiarCombiner;

impl Job for LiarCombiner {
    type Key = u32;
    type State = u64;
    type Message = u64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["liar_combiner".to_owned()]
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        match ctx.step() {
            // Every key funnels a distinct value to key 0, so each part
            // pre-combines its two local messages into one.
            1 => ctx.send(0, u64::from(*ctx.key()) + 1),
            // Key 0 folds whatever arrived into its state; an
            // order-dependent combine upstream makes this diverge.
            _ => {
                let digest = ctx
                    .messages()
                    .iter()
                    .fold(0u64, |acc, m| acc.wrapping_mul(1_000_003).wrapping_add(*m));
                ctx.write_state(0, &digest)?;
            }
        }
        Ok(false)
    }

    fn combine_messages(&self, _key: &u32, into: &mut u64, msg: u64) -> Option<u64> {
        // Not commutative: f(a, b) != f(b, a).  The lie under test.
        *into = *into * 31 + msg;
        None
    }
}

#[test]
fn non_commutative_combiner_is_caught_as_order_dependence() {
    let report = audit(Arc::new(LiarCombiner));
    assert!(!report.clean());
    let v = the_violation(&report);
    assert_eq!(v.property, "needs-order");
    assert_eq!(v.kind, FindingKind::Violation);
}

/// The honest twin of [`LiarCombiner`]: the same funnel shape with a
/// commutative + associative combine (sum) and an order-insensitive fold
/// at the destination.  The shuffled-delivery probes must stay quiet.
struct HonestCombiner;

impl Job for HonestCombiner {
    type Key = u32;
    type State = u64;
    type Message = u64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["honest_combiner".to_owned()]
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        if ctx.step() == 1 {
            ctx.send(0, u64::from(*ctx.key()) + 1);
        } else {
            let sum: u64 = ctx.messages().iter().sum();
            ctx.write_state(0, &sum)?;
        }
        Ok(false)
    }

    fn combine_messages(&self, _key: &u32, into: &mut u64, msg: u64) -> Option<u64> {
        *into += msg;
        None
    }
}

#[test]
fn honest_combiner_audits_clean_under_shuffled_delivery() {
    let report = audit(Arc::new(HonestCombiner));
    assert!(report.clean(), "findings: {:?}", report.findings);
}

/// An order-dependent job that fails to declare `needs-order`: each
/// invocation takes the next value of a per-part sequence and folds it
/// into its state, so a different invocation order within a part gives a
/// different result.  The sequence is per-part (not global) so that
/// cross-part thread interleaving cannot perturb it — only the order the
/// auditor's shuffle controls can.
struct OrderDependentUndeclared {
    seq: std::sync::Mutex<std::collections::HashMap<u32, u64>>,
}

impl Job for OrderDependentUndeclared {
    type Key = u32;
    type State = u64;
    type Message = u64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["order_dep".to_owned()]
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        if ctx.step() == 1 {
            let part = ctx.part().0;
            let order = {
                let mut seq = self.seq.lock().unwrap();
                let slot = seq.entry(part).or_insert(0);
                let v = *slot;
                *slot += 1;
                v
            };
            let key = *ctx.key();
            ctx.write_state(0, &(u64::from(key) * 100 + order))?;
        }
        Ok(false)
    }
}

#[test]
fn order_dependence_without_needs_order_is_a_violation() {
    let report = audit_job(
        "order-dep",
        &AuditConfig::default(),
        store,
        // A fresh job each run: the sequences restart at zero, so
        // same-seed runs match (deterministic) and only shuffled orders
        // diverge.
        || {
            Arc::new(OrderDependentUndeclared {
                seq: std::sync::Mutex::new(std::collections::HashMap::new()),
            })
        },
        enable_all_loader,
    )
    .expect("audit runs");
    assert!(!report.clean());
    let v = the_violation(&report);
    assert_eq!(v.property, "needs-order");
}
