//! One job under the three schedulers.  Pinned, run-anywhere and
//! unsynchronized execution differ only in *when and where* `compute`
//! runs, so the same deterministic, `no-continue`, one-message job must
//! invoke the same components, fire the audit probes the same way, and
//! leave the same state behind under each — and the run-anywhere scheduler
//! must heal transient store faults like the pinned one does.  A second
//! job carries a combiner: its messages fold where they are sent, and the
//! three schedulers must still agree on every table.

use std::sync::{Arc, Mutex};

use ripple::ebsp::{AuditProbe, ExecutionPlan};
use ripple::prelude::*;
use ripple::store::{FaultKind, FaultOp, FaultPlan};
use ripple::store_simple::SimpleStore;

const PARTS: u32 = 4;
const CHAINS: u32 = 12;
const HOPS: u32 = 9;
const TABLE: &str = "relay";

#[derive(Clone, Copy, Debug, PartialEq)]
enum Schedule {
    Pinned,
    Anywhere,
    Nosync,
}

/// `CHAINS` relay chains of `HOPS` components each: a component receives
/// the one message of its life, stores the payload, and forwards
/// `payload + 1` down its chain — the last one by creating the state of a
/// component that never runs, so the last step sends nothing and only
/// creates.  Which scheduler may run it depends only on the further
/// properties it declares.
struct Relay(Schedule);

impl Job for Relay {
    type Key = u32;
    type State = u64;
    type Message = u64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![TABLE.to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            one_msg: true,
            no_continue: true,
            deterministic: true,
            rare_state: self.0 == Schedule::Anywhere,
            no_ss_order: self.0 == Schedule::Nosync,
            ..JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let payload = ctx.messages()[0];
        ctx.write_state(0, &payload)?;
        let next = *ctx.key() + CHAINS;
        if next < CHAINS * HOPS {
            ctx.send(next, payload + 1);
        } else {
            ctx.create_state(0, next, payload + 1)?;
        }
        Ok(false)
    }
}

/// Records the key of every `on_invocation` and `on_continue` call.
#[derive(Default)]
struct Calls {
    invoked: Mutex<Vec<Vec<u8>>>,
    continued: Mutex<Vec<Vec<u8>>>,
}

impl AuditProbe for Calls {
    fn on_invocation(&self, _step: u32, _part: u32, key: &[u8]) {
        self.invoked.lock().unwrap().push(key.to_vec());
    }
    fn on_continue(&self, _step: u32, _part: u32, key: &[u8], continued: bool) {
        assert!(!continued, "the relay never continues");
        self.continued.lock().unwrap().push(key.to_vec());
    }
}

/// Runs the relay under `schedule` on `store`; returns the outcome and the
/// final state table, sorted.
fn run_relay<S: KvStore>(
    store: &S,
    schedule: Schedule,
    probe: Option<Arc<Calls>>,
) -> (RunOutcome, Vec<(u32, u64)>) {
    let mut runner = JobRunner::new(store.clone());
    if schedule == Schedule::Nosync {
        runner.force_mode(ExecMode::Unsynchronized);
    }
    let mut options =
        RunOptions::new().loader(Box::new(FnLoader::new(|sink: &mut dyn LoadSink<Relay>| {
            (0..CHAINS).try_for_each(|k| sink.message(k, 100))
        })));
    if let Some(probe) = probe {
        options = options.audit(probe);
    }
    let outcome = runner.launch(Arc::new(Relay(schedule)), options).unwrap();
    let table = store.lookup_table(TABLE).unwrap();
    let exporter = Arc::new(CollectingExporter::<u32, u64>::new());
    export_state_table(store, &table, Arc::clone(&exporter)).unwrap();
    let mut state = exporter.take();
    state.sort_unstable();
    (outcome, state)
}

#[test]
fn three_schedulers_share_one_invocation_core() {
    let mut expected_keys: Vec<Vec<u8>> = (0..CHAINS * HOPS)
        .map(|k| ripple::wire::to_wire(&k).to_vec())
        .collect();
    expected_keys.sort();
    // The creations of the last step are applied though no step follows.
    let expected_state: Vec<(u32, u64)> = (0..CHAINS * (HOPS + 1))
        .map(|k| (k, 100 + u64::from(k / CHAINS)))
        .collect();

    for schedule in [Schedule::Pinned, Schedule::Anywhere, Schedule::Nosync] {
        // The declared properties put the job on the intended path.
        let plan = ExecutionPlan::derive(&Relay(schedule).properties(), true, true);
        assert_eq!(plan.run_anywhere, schedule == Schedule::Anywhere);
        let mode = match schedule {
            Schedule::Nosync => ExecMode::Unsynchronized,
            _ => ExecMode::Synchronized,
        };
        assert_eq!(plan.mode, mode);

        let store = MemStore::builder().default_parts(PARTS).build();
        let calls = Arc::new(Calls::default());
        let (outcome, state) = run_relay(&store, schedule, Some(Arc::clone(&calls)));
        assert_eq!(outcome.mode, mode, "{schedule:?}");
        assert_eq!(state, expected_state, "{schedule:?}: final state");
        let steps = if schedule == Schedule::Nosync {
            0
        } else {
            HOPS
        };
        assert_eq!(outcome.steps, steps, "{schedule:?}: delivering is no step");
        assert_eq!(outcome.metrics.creates, u64::from(CHAINS), "{schedule:?}");

        let mut invoked = std::mem::take(&mut *calls.invoked.lock().unwrap());
        let mut continued = std::mem::take(&mut *calls.continued.lock().unwrap());
        invoked.sort();
        continued.sort();
        assert_eq!(invoked, expected_keys, "{schedule:?}: invoked keys");
        assert_eq!(
            continued, expected_keys,
            "{schedule:?}: on_continue fires once per invocation"
        );
        assert_eq!(outcome.metrics.invocations, expected_keys.len() as u64);
    }
}

const SOURCES: u32 = 24;
const SINKS: u32 = 5;
const FAN: u32 = 7;

/// A fan-in with a combiner: every source sends `FAN` values round-robin
/// over the `SINKS` sinks — more than one per sink from a single
/// invocation — and every sink adds what arrives to its state.  Messages
/// fold where they are sent (and again where they arrive); sums commute,
/// so however much each scheduler folds, the tables must agree.
struct FanIn(Schedule);

impl Job for FanIn {
    type Key = u32;
    type State = u64;
    type Message = u64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![TABLE.to_owned()]
    }

    fn properties(&self) -> JobProperties {
        // The combiner always folds, so a sink sees one message per step.
        let anywhere = self.0 == Schedule::Anywhere;
        JobProperties {
            one_msg: anywhere,
            rare_state: anywhere,
            // Adding arrivals to a running sum is order- and
            // batching-insensitive: what the unsynchronized engine needs.
            incremental: self.0 == Schedule::Nosync,
            no_continue: true,
            deterministic: true,
            ..JobProperties::default()
        }
    }

    fn combine_messages(&self, _key: &u32, into: &mut u64, msg: u64) -> Option<u64> {
        *into += msg;
        None
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let me = *ctx.key();
        let arrived: u64 = ctx.messages().iter().sum();
        let total = ctx.read_state(0)?.unwrap_or(0) + arrived;
        ctx.write_state(0, &total)?;
        if me < SOURCES {
            for j in 0..FAN {
                ctx.send(SOURCES + (me + j) % SINKS, u64::from(me * FAN + j));
            }
        }
        Ok(false)
    }
}

#[test]
fn a_combiner_bearing_job_leaves_the_same_tables_under_every_scheduler() {
    let mut expected: Vec<(u32, u64)> = (0..SOURCES).map(|k| (k, 1)).collect();
    expected.extend((0..SINKS).map(|sink| {
        let sum = (0..SOURCES)
            .flat_map(|me| (0..FAN).map(move |j| (me, j)))
            .filter(|(me, j)| (me + j) % SINKS == sink)
            .map(|(me, j)| u64::from(me * FAN + j))
            .sum();
        (SOURCES + sink, sum)
    }));

    for schedule in [Schedule::Pinned, Schedule::Anywhere, Schedule::Nosync] {
        let plan = ExecutionPlan::derive(&FanIn(schedule).properties(), true, true);
        assert_eq!(plan.run_anywhere, schedule == Schedule::Anywhere);

        let store = MemStore::builder().default_parts(PARTS).build();
        let mut runner = JobRunner::new(store.clone());
        if schedule == Schedule::Nosync {
            runner.force_mode(ExecMode::Unsynchronized);
        }
        let options =
            RunOptions::new().loader(Box::new(FnLoader::new(|sink: &mut dyn LoadSink<FanIn>| {
                (0..SOURCES).try_for_each(|k| sink.message(k, 1))
            })));
        let outcome = runner.launch(Arc::new(FanIn(schedule)), options).unwrap();
        let table = store.lookup_table(TABLE).unwrap();
        let exporter = Arc::new(CollectingExporter::<u32, u64>::new());
        export_state_table(&store, &table, Arc::clone(&exporter)).unwrap();
        let mut state = exporter.take();
        state.sort_unstable();
        assert_eq!(state, expected, "{schedule:?}: final state");

        // Every send is counted; FAN > SINKS, so each source's outbox folds
        // at least FAN - SINKS of them before anything leaves the task.
        let metrics = outcome.metrics;
        // (Without barriers the loader's seed messages count as sent too.)
        let seeds = if schedule == Schedule::Nosync {
            SOURCES
        } else {
            0
        };
        assert_eq!(
            metrics.messages_sent,
            u64::from(SOURCES * FAN + seeds),
            "{schedule:?}"
        );
        assert!(
            metrics.messages_combined >= u64::from(SOURCES * (FAN - SINKS)),
            "{schedule:?}: {} combined",
            metrics.messages_combined
        );
    }
}

/// Transient faults on the transport drains and on the transport
/// `put_batch` are healed by the default retry policy under run-anywhere exactly as
/// under pinned execution; the output matches the fault-free oracle.
#[test]
fn run_anywhere_heals_transient_drains_and_spills() {
    let (_, expected) = run_relay(&SimpleStore::new(PARTS), Schedule::Anywhere, None);

    let plan = FaultPlan::seeded(14)
        .transient_drains(2)
        .transient_batches(2);
    let store = MemStore::builder()
        .default_parts(PARTS)
        .fault_plan(plan)
        .build();
    let (outcome, state) = run_relay(&store, Schedule::Anywhere, None);
    assert_eq!(state, expected, "faulted run must match the oracle");

    // The part tasks met the faults themselves: every part's drains failed
    // (of either transport table, twice each), and so did the spill write
    // of whichever stealing workers had something to spill.
    let trace = store.fault_trace();
    assert!(trace.iter().all(|r| r.kind == FaultKind::Transient));
    for part in 0..PARTS {
        let drains = trace
            .iter()
            .filter(|r| r.part == part && r.op == FaultOp::Drain);
        assert_eq!(drains.count(), 4, "part {part}: {trace:?}");
    }
    assert!(
        trace
            .iter()
            .any(|r| r.op == FaultOp::Batch && r.part < PARTS),
        "no stealing worker's spill was faulted: {trace:?}"
    );
    assert_eq!(outcome.metrics.retries, trace.len() as u64);
}
