//! The synchronized (barrier-per-step) engine.
//!
//! Each step runs in two parallel-per-part phases with a controller join
//! (the BSP barrier) between them:
//!
//! 1. **compute** — every part drains its inbox, invokes its enabled
//!    components, and spills outgoing envelopes to the transport table;
//! 2. **inbox build** — every part drains its transport slice and
//!    constructs the next step's per-component message lists (ordered,
//!    combined, one-msg-checked per the plan) plus state creations.
//!
//! Aggregator partials merge at the barrier; the aborter runs between
//! steps; execution ends when no component is enabled.  With recovery
//! hooks, every part is checkpointed at configured barriers and a part
//! failure rolls the whole group back to the last checkpoint and replays —
//! the shard-transaction discipline of §IV-A at simulation fidelity.
//!
//! # Fast single-part recovery
//!
//! Whole-group rollback re-executes every part for every rewound step.
//! When the job is deterministic (`plan.fast_recovery`) and fast recovery
//! is enabled, the engine instead keeps a controller-side *replay log* —
//! the materialized inbox of every step since the last checkpoint, plus
//! the aggregate snapshot each step observed — and runs its temporary
//! tables replicated.  A single crashed part is then healed alone: its
//! surviving replicas are promoted (bringing the transport and inbox back
//! to their crash-instant contents), only its state tables rewind to the
//! checkpoint, and the part replays the logged steps by itself — past
//! steps for their state effects only, the failed step in full — while
//! every surviving part keeps its state, spills, and aggregator partials.
//! Determinism makes the replay produce byte-identical state and
//! messages, so the group never notices.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ripple_kv::{KvError, KvStore, PartId, RoutedKey, StoreMetrics, Table};

use crate::engine::{
    build_inbox_at_part, compute_at_part, write_spills, EngineLoadSink, JobEnv, LoadBuffer,
    TableGuard,
};
use crate::metrics::PartCounters;
use crate::profile::{PartStepProfile, StepCounters, StepProfile};
use crate::retry::{kv_with_retry, FaultRetry};
use crate::{
    AggValue, AggregateSnapshot, EbspError, ExecMode, Job, Loader, RetryPolicy, RunMetrics,
    RunObserver, RunOutcome,
};

/// Options for a synchronized run.
pub(crate) struct SyncOptions {
    pub(crate) max_steps: u32,
    pub(crate) checkpoint_interval: Option<u32>,
    /// At or above this many aggregators, partials flow through auxiliary
    /// tables plus an enumeration round instead of returning to the
    /// controller (§IV-A).
    pub(crate) agg_table_threshold: usize,
    /// Optional per-step/checkpoint/recovery callbacks.
    pub(crate) observer: Option<std::sync::Arc<dyn crate::RunObserver>>,
    /// How transient store faults are retried before surfacing.
    pub(crate) retry: RetryPolicy,
    /// Replay a single failed part alone instead of rolling the whole
    /// group back, where the plan's determinism allows it.
    pub(crate) fast_recovery: bool,
    /// Collect a [`StepProfile`] per step and emit it through the observer
    /// as each barrier completes.
    pub(crate) profile: bool,
    /// Audit instrumentation called from every compute invocation and
    /// inbox build ([`RunOptions::audit`](crate::RunOptions::audit)).
    pub(crate) probe: Option<Arc<dyn crate::AuditProbe>>,
    /// Replace invocation ordering with a seeded permutation
    /// ([`RunOptions::shuffle_delivery`](crate::RunOptions::shuffle_delivery)).
    pub(crate) shuffle: Option<u64>,
    /// Permit gate bracketing every compute and inbox-build part-task
    /// ([`JobRunner::task_gate`](crate::JobRunner::task_gate)) — the
    /// worker-sharing hook for a resident multi-tenant job service.
    pub(crate) task_gate: Option<Arc<dyn crate::TaskGate>>,
    /// Combiner pushdown ([`JobRunner::pushdown`](crate::JobRunner::pushdown)):
    /// fold same-destination messages at the source part before spilling.
    pub(crate) pushdown: bool,
}

/// A captured, type-erased shard checkpoint.
pub(crate) type AnyCheckpoint = Box<dyn Any + Send>;
/// Captures one part into a checkpoint.
pub(crate) type CheckpointFn = dyn Fn(PartId) -> Result<AnyCheckpoint, KvError> + Send + Sync;
/// Restores one captured part.
pub(crate) type RestoreFn = dyn Fn(&(dyn Any + Send)) -> Result<(), KvError> + Send + Sync;
/// Restores only the named tables of one captured part (fast recovery
/// rewinds state tables while the promoted replicas keep everything else).
pub(crate) type RestoreTablesFn =
    dyn Fn(&(dyn Any + Send), &[String]) -> Result<(), KvError> + Send + Sync;
/// Heals a failed part by promoting surviving replicas; returns how many
/// tables were restored from replicas.
pub(crate) type PromoteFn = dyn Fn(PartId) -> Result<usize, KvError> + Send + Sync;

/// Store-specific checkpoint/restore callbacks, type-erased so the engine
/// does not carry a `RecoverableStore` bound.
pub(crate) struct RecoveryHooks {
    pub(crate) checkpoint: Box<CheckpointFn>,
    pub(crate) restore: Box<RestoreFn>,
    pub(crate) restore_tables: Box<RestoreTablesFn>,
    pub(crate) promote: Box<PromoteFn>,
}

/// The journalled consistent cut a durable run resumes from: the barrier
/// at `step`, with the inbox for `step + 1` already built and durable.
pub(crate) struct ResumePoint {
    pub(crate) step: u32,
    pub(crate) enabled: u64,
    pub(crate) agg: AggregateSnapshot,
}

/// A barrier-epoch durability callback (`commit` / `compact`).
pub(crate) type EpochFn = Box<dyn Fn(u64) -> Result<(), EbspError> + Send + Sync>;
/// Persists the cut descriptor `(step, enabled, aggregates)` durably.
pub(crate) type JournalFn =
    Box<dyn Fn(u32, u64, &AggregateSnapshot) -> Result<(), EbspError> + Send + Sync>;
/// Removes the journal at a successful finish.
pub(crate) type ClearFn = Box<dyn Fn() -> Result<(), EbspError> + Send + Sync>;

/// Store-specific durability callbacks plus resume state, type-erased so
/// the engine does not carry a `DurableStore` bound.
///
/// At every checkpoint barrier the engine runs the commit protocol in
/// order: `commit` (barrier markers into every group shard log, made
/// stable), `journal` (persist the cut descriptor durably), `compact`
/// (fold committed log prefixes into snapshots — safe only now that the
/// journal points at the epoch).  `clear` removes the journal at a
/// successful finish, *before* the temporary tables are dropped, so a
/// crash between the two yields a fresh start rather than a resume into
/// missing tables.
pub(crate) struct DurableOpts {
    pub(crate) commit: EpochFn,
    pub(crate) journal: JournalFn,
    pub(crate) compact: EpochFn,
    pub(crate) clear: ClearFn,
    pub(crate) resume: Option<ResumePoint>,
    /// Restart-stable token for temporary table names: a resumed run must
    /// find the same transport/inbox tables the interrupted run wrote.
    pub(crate) nonce: String,
}

/// A consistent cut the run can rewind to.
struct CheckRecord {
    step: u32,
    enabled: u64,
    agg: AggregateSnapshot,
    parts: Vec<AnyCheckpoint>,
}

/// The controller-side inputs needed to replay one part through one step:
/// its recorded inbox entries per part, per step fed.
type ReplayLog = HashMap<u32, Vec<Vec<(RoutedKey, Bytes)>>>;

pub(crate) fn run_sync<S: KvStore, J: Job>(
    env: &JobEnv<S, J>,
    loaders: Vec<Box<dyn Loader<J>>>,
    opts: &SyncOptions,
    recovery: Option<RecoveryHooks>,
    durable: Option<DurableOpts>,
) -> Result<RunOutcome, EbspError> {
    let started = std::time::Instant::now();
    let store_before = env.store.metrics();
    let parts = env.parts();
    let fault_retry = Arc::new(FaultRetry::new(opts.retry, opts.observer.clone()));
    // Fast recovery needs determinism (the plan), a checkpoint to rewind
    // state tables to, and pinned execution.
    let fast = opts.fast_recovery
        && env.plan.fast_recovery
        && recovery.is_some()
        && opts.checkpoint_interval.is_some()
        && !env.plan.run_anywhere;
    let nonce = match &durable {
        Some(d) => d.nonce.clone(),
        None => run_nonce().to_string(),
    };
    let resuming = durable.as_ref().is_some_and(|d| d.resume.is_some());
    // Temp-table DDL is retried like every other store operation: against
    // a networked store a transient fault here would otherwise kill the
    // run before the first step.
    let make_table = |name: &str| {
        kv_with_retry(Some(&fault_retry), 0, || {
            if resuming {
                // The interrupted run's durable temporaries carry the
                // messages the resume continues from; rewind has already
                // cut them to the journalled barrier.
                if let Ok(t) = env.store.lookup_table(name) {
                    return Ok(t);
                }
            }
            if fast {
                // Replicated, so a crashed part's transport/inbox slices
                // can be promoted back to their crash-instant contents.
                env.store.create_table_like_replicated(name, &env.reference)
            } else {
                env.store.create_table_like(name, &env.reference)
            }
        })
    };
    let transport_name = format!("__ebsp_xport_{nonce}");
    let inbox_name = format!("__ebsp_inbox_{nonce}");
    let transport = make_table(&transport_name)?;
    let _inbox = make_table(&inbox_name)?;
    let large_aggs = env.registry.names().count() >= opts.agg_table_threshold.max(1)
        && !env.registry.is_empty()
        && !env.plan.run_anywhere;
    let agg_tables = if large_aggs {
        let a1 = format!("__ebsp_agg1_{nonce}");
        let a2 = format!("__ebsp_agg2_{nonce}");
        let t1 = make_table(&a1)?;
        let t2 = make_table(&a2)?;
        Some(((a1, t1), (a2, t2)))
    } else {
        None
    };
    let mut guard_names = vec![transport_name.clone(), inbox_name.clone()];
    if let Some(((a1, _), (a2, _))) = &agg_tables {
        guard_names.push(a1.clone());
        guard_names.push(a2.clone());
    }
    // Durable runs keep their temporaries on failure — they *are* the
    // resume state — and clean up manually at a successful finish.
    let temp_names = guard_names.clone();
    let _guard = if durable.is_some() {
        None
    } else {
        Some(TableGuard {
            store: env.store.clone(),
            names: guard_names,
        })
    };

    let mut metrics = RunMetrics::default();

    // ----- Step profiling ---------------------------------------------------
    // Per-step store deltas telescope: each emitted step's interval starts
    // where the previous one ended (the first at the run's own baseline),
    // so the emitted deltas sum to the run-level delta — checkpoint
    // traffic between steps lands in the step that follows it, and a final
    // checkpoint after the last step stays run-level only.
    let profiling = opts.profile;
    let mut profiles: Vec<StepProfile> = Vec::new();
    // Snapshots at each emitted profile, so a rollback can rewind the
    // telescoping baseline in lockstep with `profiles`.
    let mut profile_snaps: Vec<(StoreMetrics, Vec<StoreMetrics>)> = Vec::new();
    let initial_part_base: Vec<StoreMetrics> = if profiling {
        env.store.part_metrics()
    } else {
        Vec::new()
    };
    let mut store_base = store_before;
    let mut part_base = initial_part_base.clone();

    let mut replay_log: ReplayLog = HashMap::new();
    let mut agg_history: HashMap<u32, AggregateSnapshot> = HashMap::new();
    let mut enabled: u64;
    let mut agg_snapshot: AggregateSnapshot;
    let mut step: u32;
    if let Some(rp) = durable.as_ref().and_then(|d| d.resume.as_ref()) {
        // ----- Resume from a journalled barrier -----------------------------
        // The store was rewound to the barrier at `rp.step`: state tables
        // hold that step's committed contents and the inbox for the next
        // step is already built and durable.  Loaders must not run again —
        // their effects are part of the rewound state.
        enabled = rp.enabled;
        agg_snapshot = rp.agg.clone();
        step = rp.step;
    } else {
        // ----- Initial condition --------------------------------------------
        let mut buffer = LoadBuffer::new();
        {
            let mut sink = EngineLoadSink::<S, J>::new(
                &env.tables,
                &env.registry,
                &mut buffer,
                Some(&fault_retry),
            );
            for loader in loaders {
                loader.load(&mut sink)?;
            }
            sink.finish()?;
        }
        let mut initial_counters = PartCounters::default();
        write_spills(
            &*env.job,
            &transport,
            parts,
            0,
            u32::MAX, // the controller as a pseudo-source
            buffer.envelopes,
            &mut initial_counters,
            Some(&fault_retry),
            opts.pushdown,
        )?;
        metrics.absorb(&initial_counters);

        let mut agg_values = env.registry.identities();
        env.registry.merge(&mut agg_values, buffer.agg);
        for (name, value) in env.job.initial_aggregates() {
            env.registry.fold(&mut agg_values, &name, value)?;
        }
        agg_snapshot = AggregateSnapshot::new(agg_values);

        // ----- Inbox for step 1 ---------------------------------------------
        // Nothing to recover to yet if this fails.
        let (n, _, recorded, _) = run_inbox_phase(
            env,
            &transport_name,
            &inbox_name,
            &mut metrics,
            &fault_retry,
            fast,
            opts.probe.clone(),
            opts.task_gate.clone(),
        )?;
        enabled = n;
        if fast {
            replay_log.insert(1, recorded);
            agg_history.insert(1, agg_snapshot.clone());
        }
        step = 0;
    }

    let mut aborted = false;
    let mut checkpoint: Option<CheckRecord> = None;
    if let (Some(hooks), Some(_)) = (&recovery, opts.checkpoint_interval) {
        checkpoint = Some(take_checkpoint(hooks, parts, step, enabled, &agg_snapshot)?);
    }
    if let Some(d) = &durable {
        if d.resume.is_none() {
            // The step-0 commit gives the very first in-flight step a
            // barrier to rewind to; a resume already has one.
            commit_durable(d, step, enabled, &agg_snapshot, &mut metrics)?;
        }
    }

    // ----- Step loop ----------------------------------------------------
    loop {
        if enabled == 0 {
            break;
        }
        if step >= opts.max_steps {
            return Err(EbspError::StepLimitExceeded {
                limit: opts.max_steps,
            });
        }
        let next_step = step + 1;
        if env.job.has_aborter() && env.job.aborter(&agg_snapshot, next_step) {
            aborted = true;
            break;
        }

        // Compute phase: pinned to each component's part, or stealing
        // from a shared queue when the plan allows run-anywhere.
        let compute_begin = Instant::now();
        let mut compute_times: Vec<Option<(Instant, Instant)>> = Vec::new();
        let compute_result = if env.plan.run_anywhere {
            crate::engine::anywhere::run_compute_phase_anywhere(
                env,
                next_step,
                &agg_snapshot,
                &transport,
                &inbox_name,
                opts.probe.clone(),
                opts.pushdown,
            )
        } else {
            let per_part = run_compute_phase(
                env,
                next_step,
                &agg_snapshot,
                &transport,
                &inbox_name,
                agg_tables.as_ref().map(|((_, t), _)| t),
                &fault_retry,
                opts.probe.clone(),
                opts.shuffle,
                opts.task_gate.clone(),
                opts.pushdown,
            );
            let mut aggs = env.registry.identities();
            let mut counters = PartCounters::default();
            let mut failures: Vec<(u32, EbspError)> = Vec::new();
            for (p, (result, timing)) in per_part.into_iter().enumerate() {
                compute_times.push(timing);
                match result {
                    Ok((partial, c)) => {
                        env.registry.merge(&mut aggs, partial);
                        counters.merge(&c);
                    }
                    Err(e) => failures.push((p as u32, e)),
                }
            }
            if failures.is_empty() {
                Ok((aggs, counters))
            } else {
                // Fast path: exactly one part failed, it failed *as
                // itself* (no survivor tripped over it), and the replay
                // inputs are on hand.
                let sole_crash = failures.len() == 1
                    && matches!(
                        &failures[0].1,
                        EbspError::Kv(KvError::PartFailed { part }) if *part == failures[0].0
                    );
                let mut recovered = false;
                if fast && sole_crash {
                    if let (Some(hooks), Some(record)) = (&recovery, &checkpoint) {
                        if let Some((replayed_aggs, replayed_counters)) = fast_recover(
                            env,
                            hooks,
                            record,
                            failures[0].0,
                            next_step,
                            &replay_log,
                            &agg_history,
                            &transport,
                            &inbox_name,
                            agg_tables.as_ref().map(|((_, t), _)| t),
                            &fault_retry,
                            &mut metrics,
                            &opts.observer,
                            opts.shuffle,
                            opts.pushdown,
                        ) {
                            env.registry.merge(&mut aggs, replayed_aggs);
                            counters.merge(&replayed_counters);
                            recovered = true;
                        }
                    }
                }
                if recovered {
                    Ok((aggs, counters))
                } else {
                    Err(failures.swap_remove(0).1)
                }
            }
        };
        let compute_wall = compute_begin.elapsed();
        let (step_aggs, mut step_counters) = match compute_result {
            Ok((aggs, counters)) => {
                metrics.absorb(&counters);
                let aggs = match &agg_tables {
                    None => aggs,
                    Some(((a1, _), (a2, t2))) => {
                        // The extra enumeration round of the large path.
                        let _ = t2.clear();
                        match run_agg_merge_phase(env, a1, a2, &fault_retry) {
                            Ok(merged) => merged,
                            Err(e) => {
                                recover_or_fail(
                                    env,
                                    &recovery,
                                    &checkpoint,
                                    e,
                                    next_step,
                                    &mut step,
                                    &mut enabled,
                                    &mut agg_snapshot,
                                    &mut metrics,
                                )?;
                                if profiling {
                                    rewind_profiles(
                                        step,
                                        &mut profiles,
                                        &mut profile_snaps,
                                        &mut store_base,
                                        &mut part_base,
                                        store_before,
                                        &initial_part_base,
                                    );
                                }
                                if let Some(observer) = &opts.observer {
                                    observer.on_recovery(step);
                                }
                                continue;
                            }
                        }
                    }
                };
                (aggs, counters)
            }
            Err(e) => {
                recover_or_fail(
                    env,
                    &recovery,
                    &checkpoint,
                    e,
                    next_step,
                    &mut step,
                    &mut enabled,
                    &mut agg_snapshot,
                    &mut metrics,
                )?;
                if profiling {
                    rewind_profiles(
                        step,
                        &mut profiles,
                        &mut profile_snaps,
                        &mut store_base,
                        &mut part_base,
                        store_before,
                        &initial_part_base,
                    );
                }
                if let Some(observer) = &opts.observer {
                    observer.on_recovery(step);
                }
                continue;
            }
        };

        // Barrier: merge aggregates.
        let mut merged = env.registry.identities();
        env.registry.merge(&mut merged, step_aggs);
        let next_snapshot = AggregateSnapshot::new(merged);

        // Inbox build phase.
        let inbox_begin = Instant::now();
        match run_inbox_phase(
            env,
            &transport_name,
            &inbox_name,
            &mut metrics,
            &fault_retry,
            fast,
            opts.probe.clone(),
            opts.task_gate.clone(),
        ) {
            Ok((n, inbox_counters, recorded, inbox_times)) => {
                let inbox_wall = inbox_begin.elapsed();
                enabled = n;
                agg_snapshot = next_snapshot;
                step = next_step;
                if fast {
                    replay_log.insert(step + 1, recorded);
                    agg_history.insert(step + 1, agg_snapshot.clone());
                }
                if let Some(observer) = &opts.observer {
                    observer.on_step(step, enabled, &agg_snapshot);
                }
                if profiling {
                    step_counters.merge(&inbox_counters);
                    let profile = build_step_profile(
                        &env.store,
                        started,
                        step,
                        enabled,
                        compute_begin,
                        compute_wall,
                        inbox_wall,
                        &compute_times,
                        &inbox_times,
                        &step_counters,
                        !env.plan.run_anywhere,
                        &mut store_base,
                        &mut part_base,
                    );
                    profile_snaps.push((store_base, part_base.clone()));
                    if let Some(observer) = &opts.observer {
                        observer.on_step_profile(&profile);
                    }
                    profiles.push(profile);
                }
            }
            Err(e) => {
                recover_or_fail(
                    env,
                    &recovery,
                    &checkpoint,
                    e,
                    next_step,
                    &mut step,
                    &mut enabled,
                    &mut agg_snapshot,
                    &mut metrics,
                )?;
                if profiling {
                    rewind_profiles(
                        step,
                        &mut profiles,
                        &mut profile_snaps,
                        &mut store_base,
                        &mut part_base,
                        store_before,
                        &initial_part_base,
                    );
                }
                if let Some(observer) = &opts.observer {
                    observer.on_recovery(step);
                }
                continue;
            }
        }

        if let (Some(hooks), Some(interval)) = (&recovery, opts.checkpoint_interval) {
            if step.is_multiple_of(interval.max(1)) {
                checkpoint = Some(take_checkpoint(hooks, parts, step, enabled, &agg_snapshot)?);
                if fast {
                    // Steps at or before the checkpoint can never be
                    // replayed again.
                    replay_log.retain(|s, _| *s > step);
                    agg_history.retain(|s, _| *s > step);
                }
                if let Some(d) = &durable {
                    commit_durable(d, step, enabled, &agg_snapshot, &mut metrics)?;
                }
                if let Some(observer) = &opts.observer {
                    observer.on_checkpoint(step);
                }
            }
        }
    }

    if let Some(d) = &durable {
        // Clear the journal *before* dropping the temporaries: a crash in
        // between leaves a fresh start (stale temporaries are swept by the
        // next durable run), never a resume pointing at missing tables.
        (d.clear)()?;
        for name in &temp_names {
            let _ = env.store.drop_table(name);
        }
    }

    metrics.steps = step;
    metrics.barriers = step;
    metrics.retries = fault_retry.count();
    metrics.store = env.store.metrics() - store_before;
    metrics.elapsed = started.elapsed();
    Ok(RunOutcome {
        steps: step,
        aborted,
        aggregates: agg_snapshot,
        metrics,
        mode: ExecMode::Synchronized,
        profiles: profiling.then_some(profiles),
        worker_profiles: None,
    })
}

/// Assembles one step's profile from the phase timings, charging each part
/// its store delta since the previous emitted step, and advances the
/// telescoping baselines.
#[allow(clippy::too_many_arguments)]
fn build_step_profile<S: KvStore>(
    store: &S,
    started: Instant,
    step: u32,
    enabled_next: u64,
    compute_begin: Instant,
    compute_wall: Duration,
    inbox_wall: Duration,
    compute_times: &[Option<(Instant, Instant)>],
    inbox_times: &[Option<(Instant, Instant)>],
    counters: &PartCounters,
    per_part_homes: bool,
    store_base: &mut StoreMetrics,
    part_base: &mut Vec<StoreMetrics>,
) -> StepProfile {
    let store_now = store.metrics();
    let part_now = store.part_metrics();
    let finishes: Vec<Instant> = compute_times.iter().flatten().map(|&(_, f)| f).collect();
    let barrier_skew = match (finishes.iter().min(), finishes.iter().max()) {
        (Some(first), Some(last)) => last.duration_since(*first),
        _ => Duration::ZERO,
    };
    let span = |timing: Option<(Instant, Instant)>| match timing {
        Some((from, to)) => (from.duration_since(started), to.duration_since(from)),
        None => (Duration::ZERO, Duration::ZERO),
    };
    let parts = if per_part_homes {
        (0..compute_times.len().max(inbox_times.len()))
            .map(|p| {
                let (compute_start, compute) = span(compute_times.get(p).copied().flatten());
                let (inbox_start, inbox_build) = span(inbox_times.get(p).copied().flatten());
                let now = part_now.get(p).copied().unwrap_or_default();
                let base = part_base.get(p).copied().unwrap_or_default();
                PartStepProfile {
                    part: p as u32,
                    compute_start,
                    compute,
                    inbox_start,
                    inbox_build,
                    store: now - base,
                }
            })
            .collect()
    } else {
        // Work-stealing compute has no per-part home to attribute to.
        Vec::new()
    };
    let profile = StepProfile {
        step,
        start: compute_begin.duration_since(started),
        compute_wall,
        inbox_wall,
        barrier_skew,
        enabled_next,
        parts,
        counters: StepCounters::from_part_counters(counters),
        store: store_now - *store_base,
    };
    *store_base = store_now;
    *part_base = part_now;
    profile
}

/// Discards profiles of steps a rollback undid and rewinds the telescoping
/// store baseline to the last surviving emission, so the rolled-back
/// work's store cost folds into the re-execution's deltas instead of
/// vanishing from the per-step sum.
fn rewind_profiles(
    step: u32,
    profiles: &mut Vec<StepProfile>,
    snaps: &mut Vec<(StoreMetrics, Vec<StoreMetrics>)>,
    store_base: &mut StoreMetrics,
    part_base: &mut Vec<StoreMetrics>,
    store_before: StoreMetrics,
    initial_part_base: &[StoreMetrics],
) {
    while profiles.last().is_some_and(|p| p.step > step) {
        profiles.pop();
        snaps.pop();
    }
    match snaps.last() {
        Some((whole, parts)) => {
            *store_base = *whole;
            *part_base = parts.clone();
        }
        None => {
            *store_base = store_before;
            *part_base = initial_part_base.to_vec();
        }
    }
}

/// Dispatches the compute task to every part and joins (the barrier);
/// returns each part's result — so the caller can recover a single failed
/// part without discarding the survivors' work — alongside the part task's
/// start/finish instants (absent when the dispatch itself failed).
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn run_compute_phase<S: KvStore, J: Job>(
    env: &JobEnv<S, J>,
    step: u32,
    prev_agg: &AggregateSnapshot,
    transport: &S::Table,
    inbox_name: &str,
    agg_table: Option<&S::Table>,
    retry: &Arc<FaultRetry>,
    probe: Option<Arc<dyn crate::AuditProbe>>,
    shuffle: Option<u64>,
    gate: Option<Arc<dyn crate::TaskGate>>,
    pushdown: bool,
) -> Vec<(
    Result<(HashMap<String, AggValue>, PartCounters), EbspError>,
    Option<(Instant, Instant)>,
)> {
    let parts = env.parts();
    let agg_table = agg_table.cloned();
    let handles: Vec<_> = (0..parts)
        .map(|p| {
            let job = Arc::clone(&env.job);
            let plan = env.plan;
            let table_names = Arc::clone(&env.table_names);
            let broadcast = env.broadcast_name.clone();
            let registry = env.registry.clone();
            let prev = prev_agg.clone();
            let transport = transport.clone();
            let inbox = inbox_name.to_owned();
            let direct = env.direct.clone();
            let agg_table = agg_table.clone();
            let retry = Arc::clone(retry);
            let probe = probe.clone();
            let gate = gate.clone();
            env.store.run_at(&env.reference, PartId(p), move |view| {
                // Acquire before the timed span: per-part compute walls then
                // measure actual work, while scheduler queueing shows up in
                // the gate's own accounting (and as barrier skew).
                let _permit = gate.as_ref().map(crate::GatePermit::acquire);
                let begun = Instant::now();
                let result = compute_at_part::<S::Table, J>(
                    &job,
                    &plan,
                    view,
                    step,
                    &transport,
                    &inbox,
                    &table_names,
                    broadcast.as_deref(),
                    &registry,
                    &prev,
                    direct.as_deref(),
                    parts,
                    agg_table.as_ref(),
                    Some(&retry),
                    None,
                    false,
                    probe.as_deref(),
                    shuffle,
                    pushdown,
                );
                (begun, Instant::now(), result)
            })
        })
        .collect();

    handles
        .into_iter()
        .map(|handle| match handle.join() {
            Ok((begun, finished, result)) => (result, Some((begun, finished))),
            Err(e) => (Err(EbspError::Kv(e)), None),
        })
        .collect()
}

/// Dispatches the inbox-build task to every part and joins; returns the
/// total enabled component count for the next step, the phase's merged
/// work counters (also absorbed into `metrics`), the per-part task
/// timings, and — when `record` is set — every part's materialized inbox
/// entries, indexed by part.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn run_inbox_phase<S: KvStore, J: Job>(
    env: &JobEnv<S, J>,
    transport_name: &str,
    inbox_name: &str,
    metrics: &mut RunMetrics,
    retry: &Arc<FaultRetry>,
    record: bool,
    probe: Option<Arc<dyn crate::AuditProbe>>,
    gate: Option<Arc<dyn crate::TaskGate>>,
) -> Result<
    (
        u64,
        PartCounters,
        Vec<Vec<(RoutedKey, Bytes)>>,
        Vec<Option<(Instant, Instant)>>,
    ),
    EbspError,
> {
    let handles: Vec<_> = (0..env.parts())
        .map(|p| {
            let job = Arc::clone(&env.job);
            let plan = env.plan;
            let table_names = Arc::clone(&env.table_names);
            let transport = transport_name.to_owned();
            let inbox = inbox_name.to_owned();
            let retry = Arc::clone(retry);
            let probe = probe.clone();
            let gate = gate.clone();
            env.store.run_at(&env.reference, PartId(p), move |view| {
                let _permit = gate.as_ref().map(crate::GatePermit::acquire);
                let begun = Instant::now();
                let result = build_inbox_at_part::<J>(
                    &job,
                    &plan,
                    view,
                    &transport,
                    &inbox,
                    &table_names,
                    Some(&retry),
                    record,
                    probe.as_deref(),
                );
                (begun, Instant::now(), result)
            })
        })
        .collect();

    let mut enabled = 0u64;
    let mut phase_counters = PartCounters::default();
    let mut recorded = Vec::with_capacity(handles.len());
    let mut timings = Vec::with_capacity(handles.len());
    let mut first_err: Option<EbspError> = None;
    for handle in handles {
        match handle.join() {
            Ok((begun, finished, Ok((n, counters, entries)))) => {
                enabled += n;
                phase_counters.merge(&counters);
                recorded.push(entries);
                timings.push(Some((begun, finished)));
            }
            Ok((_, _, Err(e))) => {
                recorded.push(Vec::new());
                timings.push(None);
                first_err = Some(first_err.unwrap_or(e));
            }
            Err(e) => {
                recorded.push(Vec::new());
                timings.push(None);
                first_err = Some(first_err.unwrap_or(EbspError::Kv(e)));
            }
        }
    }
    metrics.absorb(&phase_counters);
    match first_err {
        None => Ok((enabled, phase_counters, recorded, timings)),
        Some(e) => Err(e),
    }
}

/// The large-aggregator merge round: every part folds the partials routed
/// to it and records them in the second auxiliary table.
fn run_agg_merge_phase<S: KvStore, J: Job>(
    env: &JobEnv<S, J>,
    agg1_name: &str,
    agg2_name: &str,
    retry: &Arc<FaultRetry>,
) -> Result<HashMap<String, AggValue>, EbspError> {
    let results = {
        let registry = env.registry.clone();
        let a1 = agg1_name.to_owned();
        let a2 = agg2_name.to_owned();
        let retry = Arc::clone(retry);
        env.store.run_at_all(&env.reference, move |view| {
            crate::engine::merge_aggregates_at_part(&registry, view, &a1, &a2, Some(&retry))
        })?
    };
    let mut merged = env.registry.identities();
    for part_result in results {
        for (name, value) in part_result? {
            // Each name routes to exactly one part, so this never
            // double-counts; fold is still the right merge.
            merged.insert(name, value);
        }
    }
    Ok(merged)
}

/// Runs the durable commit protocol for the barrier at `step`: markers,
/// journal, compaction — in that order, which is what makes the journalled
/// epoch always rewindable.
fn commit_durable(
    d: &DurableOpts,
    step: u32,
    enabled: u64,
    agg: &AggregateSnapshot,
    metrics: &mut RunMetrics,
) -> Result<(), EbspError> {
    let epoch = u64::from(step);
    (d.commit)(epoch)?;
    (d.journal)(step, enabled, agg)?;
    (d.compact)(epoch)?;
    metrics.durable_barriers += 1;
    Ok(())
}

fn take_checkpoint(
    hooks: &RecoveryHooks,
    parts: u32,
    step: u32,
    enabled: u64,
    agg: &AggregateSnapshot,
) -> Result<CheckRecord, EbspError> {
    let mut captured = Vec::with_capacity(parts as usize);
    for p in 0..parts {
        captured.push((hooks.checkpoint)(PartId(p))?);
    }
    Ok(CheckRecord {
        step,
        enabled,
        agg: agg.clone(),
        parts: captured,
    })
}

/// Restores and replays a single failed part from the last checkpoint
/// while every surviving part keeps its state.  Returns the replayed
/// part's aggregator partials and counters for the failed step, or `None`
/// if anything about the fast path is not satisfiable — the caller then
/// falls back to whole-group rollback, which overwrites any partial work
/// done here.
#[allow(clippy::too_many_arguments)]
fn fast_recover<S: KvStore, J: Job>(
    env: &JobEnv<S, J>,
    hooks: &RecoveryHooks,
    record: &CheckRecord,
    part: u32,
    next_step: u32,
    replay_log: &ReplayLog,
    agg_history: &HashMap<u32, AggregateSnapshot>,
    transport: &S::Table,
    inbox_name: &str,
    agg_table: Option<&S::Table>,
    retry: &Arc<FaultRetry>,
    metrics: &mut RunMetrics,
    observer: &Option<Arc<dyn RunObserver>>,
    shuffle: Option<u64>,
    pushdown: bool,
) -> Option<(HashMap<String, AggValue>, PartCounters)> {
    let from = record.step;
    // Every replayed step needs its recorded inbox and the aggregate
    // snapshot its compute observed.
    for s in (from + 1)..=next_step {
        replay_log.get(&s)?.get(part as usize)?;
        agg_history.get(&s)?;
    }
    let captured = record.parts.get(part as usize)?;

    // Heal: promote surviving replicas (the replicated temporaries come
    // back at their crash-instant contents), then rewind only this part's
    // state tables to the checkpoint.
    (hooks.promote)(PartId(part)).ok()?;
    (hooks.restore_tables)(captured.as_ref(), &env.table_names).ok()?;

    // The promoted inbox replica may hold entries the failed compute was
    // mid-drain over; replay feeds from the controller-side log instead.
    {
        let inbox = inbox_name.to_owned();
        let handle = env.store.run_at(&env.reference, PartId(part), move |view| {
            view.drain(&inbox, &mut |_k, _v| ripple_kv::ScanControl::Continue)
        });
        handle.join().ok()?.ok()?;
    }

    let mut aggs = env.registry.identities();
    let mut counters = PartCounters::default();
    for s in (from + 1)..=next_step {
        let entries = replay_log.get(&s)?.get(part as usize)?.clone();
        let prev = agg_history.get(&s)?.clone();
        // Past steps replay purely for their state effects; the failed
        // step replays in full (its sends and partials never happened).
        let suppress = s < next_step;
        let job = Arc::clone(&env.job);
        let plan = env.plan;
        let table_names = Arc::clone(&env.table_names);
        let broadcast = env.broadcast_name.clone();
        let registry = env.registry.clone();
        let transport = transport.clone();
        let inbox = inbox_name.to_owned();
        let direct = env.direct.clone();
        let agg_table = agg_table.cloned();
        let retry = Arc::clone(retry);
        let parts = env.parts();
        let handle = env.store.run_at(&env.reference, PartId(part), move |view| {
            compute_at_part::<S::Table, J>(
                &job,
                &plan,
                view,
                s,
                &transport,
                &inbox,
                &table_names,
                broadcast.as_deref(),
                &registry,
                &prev,
                direct.as_deref(),
                parts,
                agg_table.as_ref(),
                Some(&retry),
                Some(entries),
                suppress,
                // Replay never re-fires audit probes (it would double-count
                // observations), but must keep the original invocation
                // order, so the shuffle seed (and the pushdown choice, which
                // shapes the replayed spills) carries over.
                None,
                shuffle,
                pushdown,
            )
        });
        match handle.join() {
            Ok(Ok((partial, c))) => {
                env.registry.merge(&mut aggs, partial);
                counters.merge(&c);
            }
            _ => return None,
        }
    }

    let replayed = next_step - from;
    metrics.recoveries += 1;
    metrics.replayed_part_steps += u64::from(replayed);
    if let Some(observer) = observer {
        observer.on_fast_recovery(part, replayed);
    }
    Some((aggs, counters))
}

/// Rolls the whole group back to the last checkpoint if the failure is a
/// recoverable part failure; otherwise propagates.  `failed_step` is the
/// step whose phase failed — every part re-executes from the checkpoint
/// through it, which is what [`RunMetrics::replayed_part_steps`] records.
#[allow(clippy::too_many_arguments)]
fn recover_or_fail<S: KvStore, J: Job>(
    env: &JobEnv<S, J>,
    recovery: &Option<RecoveryHooks>,
    checkpoint: &Option<CheckRecord>,
    error: EbspError,
    failed_step: u32,
    step: &mut u32,
    enabled: &mut u64,
    agg: &mut AggregateSnapshot,
    metrics: &mut RunMetrics,
) -> Result<(), EbspError> {
    let part = match &error {
        EbspError::Kv(KvError::PartFailed { part }) => *part,
        _ => return Err(error),
    };
    let (Some(hooks), Some(record)) = (recovery, checkpoint) else {
        return Err(EbspError::Unrecoverable { part });
    };
    for captured in &record.parts {
        (hooks.restore)(captured.as_ref())?;
    }
    *step = record.step;
    *enabled = record.enabled;
    *agg = record.agg.clone();
    metrics.recoveries += 1;
    metrics.replayed_part_steps +=
        u64::from(env.parts()) * u64::from(failed_step.saturating_sub(record.step));
    Ok(())
}

fn run_nonce() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NONCE: AtomicU64 = AtomicU64::new(1);
    NONCE.fetch_add(1, Ordering::Relaxed)
}
