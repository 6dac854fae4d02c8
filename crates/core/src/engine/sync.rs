//! The synchronized (barrier-per-step) engine.
//!
//! A step is one round of one task per part ([`PartTask::step`]: deliver
//! what the previous step spilled to the part, invoke, flush state, spill)
//! with a controller join — the BSP barrier — after it.  Messages cross
//! the barrier in two transport tables used alternately, so a step's
//! spills never land in a slice another part is still draining.
//!
//! What the part tasks *do* is [`PartTask`]'s; this module is the policy:
//! when they run, what a barrier commits, and what happens when a part
//! fails.  Aggregator partials merge at the barrier; the aborter runs
//! between steps; execution ends when a step spilled no message and no
//! continue signal.  With recovery hooks, every part is checkpointed at
//! configured barriers and a part failure rolls the whole group back to the
//! last checkpoint and replays — the shard-transaction discipline of §IV-A
//! at simulation fidelity.
//!
//! # Fast single-part recovery
//!
//! Whole-group rollback re-executes every part for every rewound step.
//! When the job is deterministic (`plan.fast_recovery`) and fast recovery
//! is enabled, the engine instead keeps a controller-side *replay log* —
//! what every step's senders spilled since the last checkpoint, plus the
//! aggregate snapshot each step observed — and runs its temporary tables
//! replicated.  A single crashed part is then healed alone: its replicas
//! are promoted, only its state tables rewind to the checkpoint, and it
//! replays the logged steps by itself — past steps for their state effects
//! only, the failed step in full — while every surviving part keeps its
//! state, spills and partials.  Determinism makes the replay byte-identical.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ripple_kv::{KvError, KvStore, PartId, ScanControl, StoreMetrics, Table};

use crate::engine::{
    anywhere, run_loaders, run_parts, JobEnv, Lease, PartOutput, PartTask, Records, Replay, Span,
    TempSlot, TempTables, Temps,
};
use crate::profile::{PartStepProfile, StepProfile};
use crate::retry::{kv_with_retry, FaultRetry};
use crate::{
    AggValue, AggregateSnapshot, EbspError, ExecMode, Job, Loader, RetryPolicy, RunEvent,
    RunMetrics, RunOutcome,
};

/// Options for a synchronized run.
pub(crate) struct SyncOptions {
    pub(crate) max_steps: u32,
    pub(crate) checkpoint_interval: Option<u32>,
    /// At or above this many aggregators, partials flow through auxiliary
    /// tables plus an enumeration round instead of returning to the
    /// controller (§IV-A).
    pub(crate) agg_table_threshold: usize,
    /// Receives step, checkpoint, recovery and profile events.
    pub(crate) observer: Option<std::sync::Arc<dyn crate::RunObserver>>,
    /// How transient store faults are retried before surfacing.
    pub(crate) retry: RetryPolicy,
    /// Replay a single failed part alone instead of rolling the whole
    /// group back, where the plan's determinism allows it.
    pub(crate) fast_recovery: bool,
    /// Collect a [`StepProfile`] per step and emit it through the observer
    /// as each barrier completes.
    pub(crate) profile: bool,
    /// Audit instrumentation called from every delivery and compute
    /// invocation ([`RunOptions::audit`](crate::RunOptions::audit)).
    pub(crate) probe: Option<Arc<dyn crate::AuditProbe>>,
    /// Replace invocation ordering with a seeded permutation
    /// ([`RunOptions::shuffle_delivery`](crate::RunOptions::shuffle_delivery)).
    pub(crate) shuffle: Option<u64>,
    /// Permit gate bracketing every part-task
    /// ([`JobRunner::task_gate`](crate::JobRunner::task_gate)) — the
    /// worker-sharing hook for a resident multi-tenant job service.
    pub(crate) task_gate: Option<Arc<dyn crate::TaskGate>>,
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

/// A consistent cut of a run: the barrier at `step` — the state tables as
/// the step left them and what it sent.  A recovery or durable launch keeps
/// all of it in the store, everything sent in the step's transport table;
/// any other launch keeps what each part sent to itself in the part's slot
/// instead ([`PartTask::hand_off`]).  The step loop advances one, a
/// checkpoint captures one, a rollback returns to one, and a durable run
/// journals one and resumes from it.
#[derive(Clone)]
pub(crate) struct Cut {
    pub(crate) step: u32,
    /// The spills hold a message or a continue signal: `step + 1` has
    /// components to invoke.
    pub(crate) live: bool,
    /// The spills hold state creations yet to be applied.
    pub(crate) creates: bool,
    /// The aggregates `step + 1` observes.
    pub(crate) agg: AggregateSnapshot,
}

/// A barrier-epoch durability callback (`commit` / `compact`).
pub(crate) type EpochFn = Box<dyn Fn(u64) -> Result<(), EbspError> + Send + Sync>;
/// Persists the cut descriptor durably.
pub(crate) type JournalFn = Box<dyn Fn(&Cut) -> Result<(), EbspError> + Send + Sync>;
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
    /// The journalled cut to resume from, if an earlier run left one.
    pub(crate) resume: Option<Cut>,
}

/// A cut the run can rewind to, with every part captured at it.
struct CheckRecord {
    cut: Cut,
    parts: Vec<AnyCheckpoint>,
}

/// Each part task's span in one step's round and how much of it was
/// delivery; empty when the step ran work-stealing, where work has no
/// per-part home.
type PartTimes = Vec<Option<(Span, Duration)>>;

/// The step profiles of a run and the store baselines their deltas
/// telescope from: each emitted step's interval starts where the previous
/// one ended (the first at the run's own baseline), so the emitted deltas
/// sum to the run-level delta — checkpoint traffic between steps lands in
/// the step that follows it, and a final checkpoint after the last step
/// stays run-level only.
struct ProfileLog {
    started: Instant,
    profiles: Vec<StepProfile>,
    /// The whole-store and per-part metrics at the run's start, then after
    /// each emitted profile; the last entry is the next step's baseline.
    bases: Vec<(StoreMetrics, Vec<StoreMetrics>)>,
}

impl ProfileLog {
    /// Assembles one step's profile from its round's span and output,
    /// charging each part its store delta since the previous emitted step.
    fn record<S: KvStore>(
        &mut self,
        store: &S,
        step: u32,
        (begin, wall): (Instant, Duration),
        times: &PartTimes,
        output: &PartOutput,
    ) -> &StepProfile {
        let started = self.started;
        let now = (store.metrics(), store.part_metrics());
        let (base, part_base) = self
            .bases
            .last()
            .expect("the run's baseline is never popped");
        let finishes = || times.iter().flatten().map(|((_, f), _)| *f);
        let barrier_skew = match (finishes().min(), finishes().max()) {
            (Some(first), Some(last)) => last.duration_since(first),
            _ => Duration::ZERO,
        };
        let parts = (times.iter().enumerate())
            .map(|(p, timed)| {
                let (inbox_start, inbox_build, compute) = match *timed {
                    Some(((from, to), delivery)) => (
                        from.duration_since(started),
                        delivery,
                        to.duration_since(from).saturating_sub(delivery),
                    ),
                    None => Default::default(),
                };
                let part_now = now.1.get(p).copied().unwrap_or_default();
                let base = part_base.get(p).copied().unwrap_or_default();
                PartStepProfile {
                    part: p as u32,
                    compute_start: inbox_start + inbox_build,
                    compute,
                    inbox_start,
                    inbox_build,
                    store: part_now - base,
                }
            })
            .collect();
        self.profiles.push(StepProfile {
            step,
            start: begin.duration_since(started),
            compute_wall: wall.saturating_sub(output.delivery),
            inbox_wall: output.delivery,
            barrier_skew,
            enabled: output.enabled,
            parts,
            counters: output.counters,
            store: now.0 - *base,
        });
        self.bases.push(now);
        self.profiles.last().expect("just pushed")
    }

    /// Discards profiles of steps a rollback undid and rewinds the
    /// telescoping baseline to the last surviving emission, so the
    /// rolled-back work's store cost folds into the re-execution's deltas
    /// instead of vanishing from the per-step sum.
    fn rewind(&mut self, step: u32) {
        while self.profiles.last().is_some_and(|p| p.step > step) {
            self.profiles.pop();
            self.bases.pop();
        }
    }
}

/// The controller of one synchronized run.
struct SyncRun<'a, S: KvStore, J: Job> {
    env: &'a JobEnv<S, J>,
    opts: &'a SyncOptions,
    task: Arc<PartTask<S::Table, J>>,
    recovery: Option<RecoveryHooks>,
    /// Whether a sole crashed part is healed alone (see the module docs).
    fast: bool,
    metrics: RunMetrics,
    checkpoint: Option<CheckRecord>,
    /// The controller-side inputs needed to replay one part through one
    /// step, per step fed: what the previous step's senders spilled, by
    /// destination part, and the aggregate snapshot the step observed.
    replay_log: HashMap<u32, (Vec<Records>, AggregateSnapshot)>,
    profile: Option<ProfileLog>,
}

pub(crate) fn run_sync<S: KvStore, J: Job>(
    env: &JobEnv<S, J>,
    loaders: Vec<Box<dyn Loader<J>>>,
    opts: &SyncOptions,
    recovery: Option<RecoveryHooks>,
    durable: Option<DurableOpts>,
    slot: &TempSlot<S>,
) -> Result<RunOutcome, EbspError> {
    let started = Instant::now();
    let store_before = env.store.metrics();
    let profile = opts.profile.then(|| ProfileLog {
        started,
        profiles: Vec::new(),
        bases: vec![(store_before, env.store.part_metrics())],
    });
    let parts = env.parts();
    let retry = Arc::new(FaultRetry::new(opts.retry, opts.observer.clone()));
    // Fast recovery needs determinism (the plan), a checkpoint to rewind
    // state tables to, and pinned execution.
    let fast = opts.fast_recovery
        && env.plan.fast_recovery
        && recovery.is_some()
        && opts.checkpoint_interval.is_some()
        && !env.plan.run_anywhere;
    // Checkpoints capture the transport, fast recovery replays from what
    // was spilled, and a resume reads the durable temporaries: only a
    // launch with none of them keeps a part's own envelopes in memory.
    let hand_off = recovery.is_none() && durable.is_none();
    let resuming = durable.as_ref().is_some_and(|d| d.resume.is_some());
    // Temp-table DDL is retried like every other store operation: against
    // a networked store a transient fault here would otherwise kill the
    // run before the first step.
    let create = |name: &str| {
        kv_with_retry(&retry, 0, || {
            if resuming {
                // The interrupted run's durable temporaries carry the
                // messages the resume continues from; rewind has already
                // cut them to the journalled barrier.
                if let Ok(t) = env.store.lookup_table(name) {
                    return Ok(t);
                }
            }
            if fast {
                // Replicated, so a crashed part's transport slices can be
                // promoted back to their crash-instant contents.
                env.store.create_table_like_replicated(name, &env.reference)
            } else {
                env.store.create_table_like(name, &env.reference)
            }
        })
    };
    let large_aggs = env.registry.names().count() >= opts.agg_table_threshold.max(1)
        && !env.registry.is_empty()
        && !env.plan.run_anywhere;
    // A plain run leases its runner's temporaries, named for the reference
    // table with the lowest free index.  A durable run's are its resume
    // state: named for the journal, kept on failure, and dropped at a
    // successful finish.
    let reference = env.reference.name();
    let (temps, mut lease) = if durable.is_some() {
        let make = |kind: &str| create(&format!("__ebsp_{kind}_dur_{reference}"));
        (TempTables::make(large_aggs, make)?, None)
    } else {
        let key = (env.reference.partitioning_id(), fast, large_aggs);
        // A set made for another key is dropped here.
        let kept = slot.lock().take().filter(|temps| temps.key == key);
        let temps = match kept {
            Some(temps) => temps,
            None => {
                let make = |kind: &str| {
                    (0u32..)
                        .map(|n| create(&format!("__ebsp_{kind}_{reference}_{n}")))
                        .find(|made| !matches!(made, Err(KvError::TableExists { .. })))
                        .expect("some index is free")
                };
                let tables = TempTables::make(large_aggs, make)?;
                let store = env.store.clone();
                Temps { store, key, tables }
            }
        };
        let tables = temps.tables.clone();
        let lease = Lease {
            slot,
            temps: Some(temps),
            drained: false,
        };
        (tables, Some(lease))
    };

    let mut run = SyncRun {
        env,
        opts,
        task: Arc::new(PartTask {
            shuffle: opts.shuffle,
            gate: opts.task_gate.clone(),
            temps: Some(temps),
            hand_off,
            ..PartTask::new(env, retry, opts.probe.clone())
        }),
        recovery,
        fast,
        metrics: RunMetrics::default(),
        checkpoint: None,
        replay_log: HashMap::new(),
        profile,
    };
    let mut cut = match durable.as_ref().and_then(|d| d.resume.clone()) {
        // The store was rewound to the journalled barrier: state tables
        // and transport hold that step's committed contents.  Loaders must
        // not run again — their effects are part of the rewound state.
        Some(journalled) => journalled,
        None => run.initial_cut(loaders)?,
    };

    if let (Some(hooks), Some(_)) = (&run.recovery, opts.checkpoint_interval) {
        run.checkpoint = Some(take_checkpoint(hooks, parts, &cut)?);
    }
    if let Some(d) = &durable {
        if d.resume.is_none() {
            // The step-0 commit gives the very first in-flight step a
            // barrier to rewind to; a resume already has one.
            commit_durable(d, &cut, &mut run.metrics)?;
        }
    }

    let mut aborted = false;
    while cut.live || cut.creates {
        if cut.live {
            if cut.step >= opts.max_steps {
                return Err(EbspError::StepLimitExceeded {
                    limit: opts.max_steps,
                });
            }
            aborted = env.job.has_aborter() && env.job.aborter(&cut.agg, cut.step + 1);
        }
        let stepping = cut.live && !aborted;
        let advanced = match (stepping, cut.creates) {
            (true, _) => run.step(&cut),
            (false, true) => run.settle(&cut),
            (false, false) => break,
        };
        match advanced {
            Ok(next) => cut = next,
            Err(error) => {
                run.rollback(error, &mut cut)?;
                continue;
            }
        }
        if let (true, Some(hooks), Some(interval)) =
            (stepping, &run.recovery, opts.checkpoint_interval)
        {
            if cut.step.is_multiple_of(interval.max(1)) {
                run.checkpoint = Some(take_checkpoint(hooks, parts, &cut)?);
                // Steps at or before the checkpoint can never be replayed
                // again.
                run.replay_log.retain(|s, _| *s > cut.step);
                if let Some(d) = &durable {
                    commit_durable(d, &cut, &mut run.metrics)?;
                }
                if let Some(observer) = &opts.observer {
                    observer.on_event(&RunEvent::Checkpoint { step: cut.step });
                }
            }
        }
    }

    if let Some(d) = &durable {
        // Clear the journal *before* dropping the temporaries: a crash in
        // between leaves a fresh start (stale temporaries are swept by the
        // next durable run), never a resume pointing at missing tables.
        (d.clear)()?;
        for table in run.task.temps().iter() {
            let _ = env.store.drop_table(table.name());
        }
    }
    if let Some(lease) = &mut lease {
        // A run that stepped to its end left both transports empty.
        lease.drained = !aborted;
    }

    let mut metrics = run.metrics;
    metrics.steps = cut.step;
    metrics.barriers = cut.step;
    metrics.retries = run.task.retry.count();
    metrics.store = env.store.metrics() - store_before;
    metrics.elapsed = started.elapsed();
    Ok(RunOutcome {
        steps: cut.step,
        aborted,
        aggregates: cut.agg,
        metrics,
        mode: ExecMode::Synchronized,
        profiles: run.profile.map(|log| log.profiles),
        worker_profiles: None,
    })
}

impl<S: KvStore, J: Job> SyncRun<'_, S, J> {
    /// The initial condition: runs the loaders and spills what they sent as
    /// step 0.
    fn initial_cut(&mut self, loaders: Vec<Box<dyn Loader<J>>>) -> Result<Cut, EbspError> {
        let registry = &self.env.registry;
        let mut buffer = run_loaders(self.env, loaders, &self.task.retry)?;
        // The controller spills as a pseudo-source.
        let spilled = self.task.write_spills(0, u32::MAX, &mut buffer, None)?;
        self.metrics.absorb(&buffer.metrics);

        let mut agg_values = registry.identities();
        registry.merge(&mut agg_values, buffer.agg);
        for (name, value) in self.env.job.initial_aggregates() {
            registry.fold(&mut agg_values, &name, value)?;
        }
        let cut = Cut {
            step: 0,
            live: spilled.live,
            creates: spilled.creates,
            agg: AggregateSnapshot::new(agg_values),
        };
        self.log_spills(&cut, spilled.spilled);
        Ok(cut)
    }

    /// Keeps what the step ending at `cut` spilled, by destination part,
    /// with the aggregates the next step observes: its replay input.
    fn log_spills(&mut self, cut: &Cut, spilled: Records) {
        if self.fast {
            let parts = self.task.parts;
            let mut by_dst = vec![Records::new(); parts as usize];
            for spill in spilled {
                by_dst[spill.0.part_for(parts).index()].push(spill);
            }
            let input = (by_dst, cut.agg.clone());
            self.replay_log.insert(cut.step + 1, input);
        }
    }

    /// Runs the step after `cut` — one round, then the barrier — and
    /// returns the cut it ends at.  Any error leaves the step undone for
    /// [`SyncRun::rollback`] to judge.
    fn step(&mut self, cut: &Cut) -> Result<Cut, EbspError> {
        let registry = &self.env.registry;
        let step = cut.step + 1;

        let begin = Instant::now();
        let (output, parts) = if self.env.plan.run_anywhere {
            let output = anywhere::run_step_anywhere(self.env, &self.task, step, &cut.agg);
            (output, Vec::new())
        } else {
            self.pinned_round(step, &cut.agg)
        };
        let wall = begin.elapsed();
        let mut output = output?;
        self.metrics.absorb(&output.counters);
        if let Some((_, results)) = &self.task.temps().agg {
            // The extra enumeration round of the large path.
            self.task.retried(u32::MAX, || results.clear())?;
            output.agg = self.agg_merge_phase()?;
        }

        // Barrier: merge aggregates.
        let mut merged = registry.identities();
        registry.merge(&mut merged, std::mem::take(&mut output.agg));
        let next = Cut {
            step,
            live: output.live,
            creates: output.creates,
            agg: AggregateSnapshot::new(merged),
        };
        self.log_spills(&next, std::mem::take(&mut output.spilled));
        if let Some(observer) = &self.opts.observer {
            observer.on_event(&RunEvent::Step {
                step,
                enabled: output.enabled,
                aggregates: &next.agg,
            });
        }
        if let Some(log) = &mut self.profile {
            let profile = log.record(&self.env.store, step, (begin, wall), &parts, &output);
            if let Some(observer) = &self.opts.observer {
                observer.on_event(&RunEvent::StepProfile(profile));
            }
        }
        Ok(next)
    }

    /// The deliver-only round that applies the state creations the last
    /// step spilled.  Not a step: nothing is invoked, nothing can be sent.
    fn settle(&mut self, cut: &Cut) -> Result<Cut, EbspError> {
        let step = cut.step + 1;
        let delivering = run_parts(self.env, &self.task, move |task, view| {
            task.deliver(view, step, None, &mut task.slot(view.part().0))
        });
        for (counters, _) in delivering {
            self.metrics.absorb(&counters?);
        }
        Ok(Cut {
            live: false,
            creates: false,
            ..cut.clone()
        })
    }

    /// One step's round with every invocation pinned to its component's
    /// part.  A sole crashed part is healed in place when fast recovery
    /// applies.
    fn pinned_round(
        &mut self,
        step: u32,
        prev_agg: &AggregateSnapshot,
    ) -> (Result<PartOutput, EbspError>, PartTimes) {
        let prev = prev_agg.clone();
        let per_part = run_parts(self.env, &self.task, move |task, view| {
            task.step(view, step, &prev, None)
        });
        let mut output = PartOutput::default();
        let mut failures: Vec<(u32, EbspError)> = Vec::new();
        let mut times = Vec::with_capacity(per_part.len());
        for (p, (result, span)) in per_part.into_iter().enumerate() {
            let delivery = result.as_ref().map_or(Duration::ZERO, |part| part.delivery);
            times.push(span.map(|span| (span, delivery)));
            match result {
                Ok(part) => self.task.merge_output(&mut output, part),
                Err(e) => failures.push((p as u32, e)),
            }
        }
        if failures.is_empty() {
            return (Ok(output), times);
        }
        // Fast path: exactly one part failed, it failed *as itself* (no
        // survivor tripped over it), and the replay inputs are on hand.
        let sole_crash = failures.len() == 1
            && matches!(
                &failures[0].1,
                EbspError::Kv(KvError::PartFailed { part }) if *part == failures[0].0
            );
        if self.fast && sole_crash {
            if let Some(replayed) = self.fast_recover(failures[0].0, step) {
                self.task.merge_output(&mut output, replayed);
                return (Ok(output), times);
            }
        }
        (Err(failures.swap_remove(0).1), times)
    }

    /// The large-aggregator merge round: every part folds the partials
    /// routed to it and records them in the second auxiliary table.
    fn agg_merge_phase(&self) -> Result<HashMap<String, AggValue>, EbspError> {
        let task = Arc::clone(&self.task);
        let results = self
            .env
            .store
            .run_at_all(&self.env.reference, move |view| task.merge_aggregates(view))?;
        let mut merged = self.env.registry.identities();
        for part_result in results {
            // Each name routes to exactly one part, so inserting never
            // double-counts.
            merged.extend(part_result?);
        }
        Ok(merged)
    }

    /// Restores and replays a single failed part from the last checkpoint
    /// while every surviving part keeps its state.  Returns the replayed
    /// part's output for the failed step, or `None` if anything about the
    /// fast path is not satisfiable — the caller then falls back to
    /// whole-group rollback, which overwrites any partial work done here.
    fn fast_recover(&mut self, part: u32, failed_step: u32) -> Option<PartOutput> {
        let (hooks, record) = (self.recovery.as_ref()?, self.checkpoint.as_ref()?);
        let from = record.cut.step;
        // Every replayed step needs what its senders spilled to the part
        // and the aggregate snapshot it observed.
        let mut inputs = Vec::new();
        for s in (from + 1)..=failed_step {
            let (entries, prev) = self.replay_log.get(&s)?;
            inputs.push((s, entries.get(part as usize)?.clone(), prev.clone()));
        }
        let captured = record.parts.get(part as usize)?;

        // Heal: promote surviving replicas (the replicated temporaries come
        // back at their crash-instant contents), then rewind only this part's
        // state tables to the checkpoint.
        (hooks.promote)(PartId(part)).ok()?;
        (hooks.restore_tables)(captured.as_ref(), &self.env.table_names).ok()?;

        // The promoted replica of the transport the failed round was
        // draining may hold any part of that input; replay feeds from the
        // controller-side log instead.
        let (store, reference) = (&self.env.store, &self.env.reference);
        let task = Arc::clone(&self.task);
        let drained = store.run_at(reference, PartId(part), move |view| {
            let stale = task.temps().transport(failed_step - 1).name();
            view.drain(stale, &mut |_k, _v| ScanControl::Continue)
        });
        drained.join().ok()?.ok()?;

        let mut output = PartOutput::default();
        for (s, entries, prev) in inputs {
            // Past steps replay purely for their state effects; the failed
            // step replays in full (its sends and partials never happened).
            let suppress = s < failed_step;
            let task = Arc::clone(&self.task);
            let replayed = store.run_at(reference, PartId(part), move |view| {
                task.step(view, s, &prev, Some(Replay { entries, suppress }))
            });
            self.task
                .merge_output(&mut output, replayed.join().ok()?.ok()?);
        }

        let replayed = failed_step - from;
        self.metrics.recoveries += 1;
        self.metrics.replayed_part_steps += u64::from(replayed);
        if let Some(observer) = &self.opts.observer {
            observer.on_event(&RunEvent::FastRecovery {
                part,
                replayed_steps: replayed,
            });
        }
        Some(output)
    }

    /// Rolls the whole group back to the last checkpoint if `error` — what
    /// the step after `cut` failed with — is a part failure; otherwise
    /// propagates it.  Every part re-executes from the checkpoint through
    /// the failed step, which is what
    /// [`RunMetrics::replayed_part_steps`] records.
    fn rollback(&mut self, error: EbspError, cut: &mut Cut) -> Result<(), EbspError> {
        let part = match &error {
            EbspError::Kv(KvError::PartFailed { part }) => *part,
            _ => return Err(error),
        };
        let (Some(hooks), Some(record)) = (&self.recovery, &self.checkpoint) else {
            return Err(EbspError::Unrecoverable { part });
        };
        for captured in &record.parts {
            (hooks.restore)(captured.as_ref())?;
        }
        let undone = (cut.step + 1).saturating_sub(record.cut.step);
        self.metrics.recoveries += 1;
        self.metrics.replayed_part_steps += u64::from(self.task.parts) * u64::from(undone);
        *cut = record.cut.clone();
        if let Some(log) = &mut self.profile {
            log.rewind(cut.step);
        }
        if let Some(observer) = &self.opts.observer {
            observer.on_event(&RunEvent::Recovery {
                rewound_to_step: cut.step,
            });
        }
        Ok(())
    }
}

/// Runs the durable commit protocol for the barrier at `cut`: markers,
/// journal, compaction — in that order, which is what makes the journalled
/// epoch always rewindable.
fn commit_durable(d: &DurableOpts, cut: &Cut, metrics: &mut RunMetrics) -> Result<(), EbspError> {
    let epoch = u64::from(cut.step);
    (d.commit)(epoch)?;
    (d.journal)(cut)?;
    (d.compact)(epoch)?;
    metrics.durable_barriers += 1;
    Ok(())
}

fn take_checkpoint(hooks: &RecoveryHooks, parts: u32, cut: &Cut) -> Result<CheckRecord, EbspError> {
    let mut captured = Vec::with_capacity(parts as usize);
    for p in 0..parts {
        captured.push((hooks.checkpoint)(PartId(p))?);
    }
    Ok(CheckRecord {
        cut: cut.clone(),
        parts: captured,
    })
}
