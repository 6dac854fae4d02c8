//! Failure-injection tests of the checkpoint/rollback/replay recovery path
//! (paper §IV-A's shard-transaction discipline).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use ripple_core::{
    export_state_table, CollectingExporter, ComputeContext, EbspError, FnLoader, Job,
    JobProperties, JobRunner, LoadSink, RunOptions, TaskGate,
};
use ripple_kv::{KvStore, PartId};
use ripple_store_mem::MemStore;

/// A deterministic accumulator: every component adds its step number to its
/// state for `steps` steps.  The final state of component k is
/// `1 + 2 + ... + steps`, regardless of recovery.
struct StepSummer {
    steps: u32,
    // Failure injection: at (step, flag-not-yet-used) wipe a part.
    store: MemStore,
    fail_at_step: u32,
    fail_part: u32,
    injected: AtomicBool,
}

impl Job for StepSummer {
    type Key = u32;
    type State = u64;
    type Message = ();
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["sums_rec".to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            deterministic: true,
            ..JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        if ctx.step() == self.fail_at_step
            && *ctx.key() == 0
            && !self.injected.swap(true, Ordering::SeqCst)
        {
            // Simulate a shard loss mid-step: wipe the part and mark it
            // failed; the next state access below will surface PartFailed.
            let reference = self.store.lookup_table("sums_rec").unwrap();
            self.store
                .fail_part(&reference, PartId(self.fail_part))
                .unwrap();
        }
        let s = ctx.read_state(0)?.unwrap_or(0) + u64::from(ctx.step());
        ctx.write_state(0, &s)?;
        Ok(ctx.step() < self.steps)
    }
}

fn run_summer(
    steps: u32,
    fail_at_step: u32,
    checkpoint_interval: u32,
) -> (Vec<(u32, u64)>, ripple_core::RunMetrics) {
    run_summer_with(steps, fail_at_step, checkpoint_interval, true)
}

fn run_summer_with(
    steps: u32,
    fail_at_step: u32,
    checkpoint_interval: u32,
    fast: bool,
) -> (Vec<(u32, u64)>, ripple_core::RunMetrics) {
    let store = MemStore::builder().default_parts(3).build();
    let job = Arc::new(StepSummer {
        steps,
        store: store.clone(),
        fail_at_step,
        fail_part: 0,
        injected: AtomicBool::new(false),
    });
    let outcome = JobRunner::new(store.clone())
        .checkpoint_interval(checkpoint_interval)
        .fast_recovery(fast)
        .launch(
            job,
            RunOptions::new()
                .loaders(vec![Box::new(FnLoader::new(
                    |sink: &mut dyn LoadSink<StepSummer>| {
                        for k in 0..30u32 {
                            sink.enable(k)?;
                        }
                        Ok(())
                    },
                ))])
                .recovery(),
        )
        .unwrap();
    let table = store.lookup_table("sums_rec").unwrap();
    let exporter = Arc::new(CollectingExporter::<u32, u64>::new());
    export_state_table(&store, &table, Arc::clone(&exporter)).unwrap();
    let mut pairs = exporter.take();
    pairs.sort();
    (pairs, outcome.metrics)
}

#[test]
fn clean_run_baseline() {
    let (pairs, metrics) = run_summer(6, u32::MAX, 2);
    assert_eq!(metrics.recoveries, 0);
    assert_eq!(pairs.len(), 30);
    let expect: u64 = (1..=6u64).sum();
    for (_, v) in pairs {
        assert_eq!(v, expect);
    }
}

#[test]
fn failure_mid_run_recovers_to_identical_result() {
    let (pairs, metrics) = run_summer(6, 4, 2);
    assert!(metrics.recoveries >= 1, "a recovery must have happened");
    assert_eq!(pairs.len(), 30);
    let expect: u64 = (1..=6u64).sum();
    for (k, v) in pairs {
        assert_eq!(v, expect, "component {k} diverged after recovery");
    }
}

#[test]
fn failure_with_every_step_checkpointing() {
    let (pairs, metrics) = run_summer(5, 3, 1);
    assert!(metrics.recoveries >= 1);
    let expect: u64 = (1..=5u64).sum();
    for (_, v) in pairs {
        assert_eq!(v, expect);
    }
}

#[test]
fn failure_at_first_step_recovers_from_initial_checkpoint() {
    let (pairs, metrics) = run_summer(4, 1, 3);
    assert!(metrics.recoveries >= 1);
    let expect: u64 = (1..=4u64).sum();
    for (_, v) in pairs {
        assert_eq!(v, expect);
    }
}

/// The ISSUE's fast-recovery acceptance criterion: a single part failure
/// yields the correct output either way, but replaying the failed part
/// *alone* charges strictly fewer part-steps than rolling the whole group
/// back to the checkpoint.
#[test]
fn fast_recovery_replays_strictly_fewer_part_steps() {
    let (fast_pairs, fast_metrics) = run_summer_with(6, 4, 2, true);
    let (full_pairs, full_metrics) = run_summer_with(6, 4, 2, false);
    assert!(fast_metrics.recoveries >= 1, "fast run must have recovered");
    assert!(full_metrics.recoveries >= 1, "full run must have recovered");
    let expect: u64 = (1..=6u64).sum();
    assert_eq!(fast_pairs.len(), 30);
    for (k, v) in &fast_pairs {
        assert_eq!(*v, expect, "component {k} diverged under fast recovery");
    }
    assert_eq!(
        fast_pairs, full_pairs,
        "both modes must converge identically"
    );
    // Failure during step 4 with a checkpoint at step 2: fast recovery
    // replays one part for 2 steps; whole-group rollback re-runs all
    // 3 parts for those 2 steps.
    assert!(
        fast_metrics.replayed_part_steps < full_metrics.replayed_part_steps,
        "fast ({}) must replay strictly fewer part-steps than whole-group ({})",
        fast_metrics.replayed_part_steps,
        full_metrics.replayed_part_steps
    );
}

#[test]
fn unrecoverable_without_checkpointing() {
    let store = MemStore::builder().default_parts(3).build();
    let job = Arc::new(StepSummer {
        steps: 6,
        store: store.clone(),
        fail_at_step: 3,
        fail_part: 0,
        injected: AtomicBool::new(false),
    });
    // Plain run(): no recovery hooks.
    let err = JobRunner::new(store)
        .launch(
            job,
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<StepSummer>| {
                    for k in 0..30u32 {
                        sink.enable(k)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            EbspError::Unrecoverable { .. } | EbspError::Kv(ripple_kv::KvError::PartFailed { .. })
        ),
        "got {err:?}"
    );
}

/// A gate that admits everything and counts the part tasks that finished.
#[derive(Default)]
struct Finished(AtomicU32);

impl TaskGate for Finished {
    fn acquire(&self) {}
    fn release(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

const GOSSIP_PARTS: u32 = 3;
const GOSSIP_KEYS: u32 = 30;

/// Every component adds what it hears to its state and tells two others,
/// on other parts, its new state — so a part's input is what *other* parts
/// spilled.  In step `kill_at` the first invocation at `kill_part` waits
/// until every other part's task of the step has finished, then fails its
/// own part: mid-round, its transport slice already drained.
struct Gossip {
    steps: u32,
    store: MemStore,
    finished: Arc<Finished>,
    kill_at: u32,
    kill_part: u32,
    killed: AtomicBool,
}

impl Job for Gossip {
    type Key = u32;
    type State = u64;
    type Message = u64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["gossip".to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            deterministic: true,
            needs_order: true,
            ..JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let (k, step) = (*ctx.key(), ctx.step());
        if step == self.kill_at
            && ctx.part() == PartId(self.kill_part)
            && !self.killed.swap(true, Ordering::SeqCst)
        {
            // Every earlier step ran one task per part; this one has run
            // all but ours once the count says so.
            let others_done = step * GOSSIP_PARTS - 1;
            while self.finished.0.load(Ordering::SeqCst) < others_done {
                std::thread::yield_now();
            }
            let reference = self.store.lookup_table("gossip").unwrap();
            self.store
                .fail_part(&reference, PartId(self.kill_part))
                .unwrap();
        }
        let heard: u64 = ctx.messages().iter().sum();
        let state = ctx.read_state(0)?.unwrap_or(0) * 3 + heard + u64::from(step);
        ctx.write_state(0, &state)?;
        if step < self.steps {
            ctx.send((k + 1) % GOSSIP_KEYS, state);
            ctx.send((k + 11) % GOSSIP_KEYS, state);
        }
        Ok(false)
    }
}

fn run_gossip(kill_at: u32) -> (Vec<(u32, u64)>, ripple_core::RunMetrics) {
    let store = MemStore::builder().default_parts(GOSSIP_PARTS).build();
    let finished = Arc::new(Finished::default());
    let job = Arc::new(Gossip {
        steps: 6,
        store: store.clone(),
        finished: Arc::clone(&finished),
        kill_at,
        kill_part: 1,
        killed: AtomicBool::new(false),
    });
    let outcome = JobRunner::new(store.clone())
        // One checkpoint, before step 1: everything since is replayed.
        .checkpoint_interval(100)
        .task_gate(finished)
        .launch(
            job,
            RunOptions::new()
                .loader(Box::new(FnLoader::new(
                    |sink: &mut dyn LoadSink<Gossip>| {
                        (0..GOSSIP_KEYS).try_for_each(|k| sink.enable(k))
                    },
                )))
                .recovery(),
        )
        .unwrap();
    assert_eq!(outcome.steps, 6);
    let table = store.lookup_table("gossip").unwrap();
    let exporter = Arc::new(CollectingExporter::<u32, u64>::new());
    export_state_table(&store, &table, Arc::clone(&exporter)).unwrap();
    let mut pairs = exporter.take();
    pairs.sort_unstable();
    (pairs, outcome.metrics)
}

/// A part killed mid-round has already drained the transport slice that
/// fed it; fast recovery replays it alone from what the *senders* wrote,
/// which the controller kept.
#[test]
fn a_part_killed_mid_round_replays_alone_from_the_senders_log() {
    let (clean, clean_metrics) = run_gossip(u32::MAX);
    assert_eq!(clean_metrics.recoveries, 0);
    assert_eq!(clean.len() as u32, GOSSIP_KEYS);

    let (healed, metrics) = run_gossip(4);
    assert_eq!(healed, clean, "the healed run must end byte-identical");
    assert_eq!(metrics.recoveries, 1);
    // Steps 1 through 4, one part: a whole-group rollback would charge 12.
    assert_eq!(metrics.replayed_part_steps, 4);
    assert_counts_replay(&metrics, &clean_metrics, 4);
}

/// A replay of a *past* step runs for its state effects only: its sends are
/// dropped, and so must be everything it left in the part's message-plane
/// buffers, which the part keeps from step to step — a leftover would be
/// spilled by the next step the part runs.  Killed at step `kill_at`, the
/// part replays `kill_at - 1` past steps before the failed one.
#[test]
fn replays_of_past_steps_leave_nothing_for_the_next_step() {
    let (clean, clean_metrics) = run_gossip(u32::MAX);
    for kill_at in [2, 5, 6] {
        let (healed, metrics) = run_gossip(kill_at);
        assert_eq!(healed, clean, "killed at step {kill_at}");
        assert_eq!(metrics.replayed_part_steps, u64::from(kill_at));
        assert_counts_replay(&metrics, &clean_metrics, kill_at);
    }
}

/// A run healed from a kill at step `kill_at` did the clean run's work plus,
/// once more, the killed part's past steps (the failed step's first attempt
/// counts nothing): each invokes every key of the part, and each of those
/// sends twice.  Nothing combines, and the replays spill nothing.
fn assert_counts_replay(
    healed: &ripple_core::RunMetrics,
    clean: &ripple_core::RunMetrics,
    kill_at: u32,
) {
    let on_killed = (0..GOSSIP_KEYS)
        .filter(|k| ripple_core::key_to_routed(k).part_for(GOSSIP_PARTS) == PartId(1))
        .count() as u64;
    let past = u64::from(kill_at - 1);
    let counts = |m: &ripple_core::RunMetrics| {
        [
            m.invocations,
            m.messages_sent,
            m.messages_combined,
            m.spill_batches,
        ]
    };
    let [invocations, sent, combined, spills] = counts(clean);
    assert_eq!(
        counts(healed),
        [
            invocations + past * on_killed,
            sent + 2 * past * on_killed,
            combined,
            spills
        ],
        "killed at step {kill_at}"
    );
}
