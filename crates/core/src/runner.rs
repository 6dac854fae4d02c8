use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ripple_kv::{
    DurableStore, HealableStore, KvStore, RecoverableStore, RoutedKey, Table, TableSpec,
};
use ripple_wire::{from_wire, to_wire};

use crate::engine::nosync::{run_nosync, HealFn, NosyncOptions};
use crate::engine::sync::{run_sync, Cut, DurableOpts, RecoveryHooks, SyncOptions};
use crate::engine::{JobEnv, TempSlot};
use crate::options::{AuditOpts, Basic, Durable, Heal, LaunchMode, Recover, RunOptions};
use crate::{
    AggValue, AggregateSnapshot, AggregatorRegistry, EbspError, ExecMode, ExecutionPlan, Job,
    Loader, RetryPolicy, RunMetrics,
};

/// Which message-queuing implementation unsynchronized runs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// In-process FIFO channels (the fast path).
    #[default]
    Channel,
    /// The paper's generic table-backed queue sets.
    Table,
}

/// The results of a completed job run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Steps taken (0 for unsynchronized runs — that is the point).
    pub steps: u32,
    /// Whether the job's aborter stopped execution early.
    pub aborted: bool,
    /// Final aggregator results.
    pub aggregates: AggregateSnapshot,
    /// What the run did and what it cost.
    pub metrics: RunMetrics,
    /// Which engine ran the job.
    pub mode: ExecMode,
    /// One [`StepProfile`](crate::StepProfile) per synchronized step, in
    /// step order, when [`JobRunner::profile`] was enabled; `None` when
    /// profiling was off or the run was unsynchronized.
    pub profiles: Option<Vec<crate::StepProfile>>,
    /// One [`WorkerProfile`](crate::WorkerProfile) per unsynchronized
    /// worker that drained normally, when [`JobRunner::profile`] was
    /// enabled; `None` when profiling was off or the run was synchronized.
    pub worker_profiles: Option<Vec<crate::WorkerProfile>>,
}

/// Configures and runs K/V EBSP jobs against a store.
///
/// `JobRunner` is a non-consuming builder: configure it, then call
/// [`JobRunner::launch`] any number of times.  The launch takes a
/// [`RunOptions`] selecting extra loaders and the run mode — healing,
/// recovery, durability — checked against the store's capabilities at
/// compile time.
///
/// # Examples
///
/// A tiny converging job — each component halves a counter in its state
/// until it reaches zero:
///
/// ```
/// use std::sync::Arc;
/// use ripple_core::{ComputeContext, EbspError, FnLoader, Job, JobRunner, LoadSink};
/// use ripple_store_mem::MemStore;
///
/// struct Halver;
///
/// impl Job for Halver {
///     type Key = u32;
///     type State = u64;
///     type Message = ();
///     type OutKey = ();
///     type OutValue = ();
///
///     fn state_tables(&self) -> Vec<String> {
///         vec!["counters".to_owned()]
///     }
///
///     fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
///         let v = ctx.read_state(0)?.unwrap_or(0) / 2;
///         ctx.write_state(0, &v)?;
///         Ok(v > 0) // stay enabled until the counter hits zero
///     }
/// }
///
/// # fn main() -> Result<(), EbspError> {
/// use ripple_core::RunOptions;
///
/// let store = MemStore::builder().default_parts(4).build();
/// let loader = FnLoader::new(|sink: &mut dyn LoadSink<Halver>| {
///     for k in 0..10u32 {
///         sink.state(0, k, 1 << k)?;
///         sink.enable(k)?;
///     }
///     Ok(())
/// });
/// let outcome = JobRunner::new(store).launch(
///     Arc::new(Halver),
///     RunOptions::new().loader(Box::new(loader)),
/// )?;
/// assert_eq!(outcome.steps, 10); // 1 << 9 reaches zero after 10 halvings
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct JobRunner<S: KvStore> {
    store: S,
    max_steps: u32,
    checkpoint_interval: Option<u32>,
    force_mode: Option<ExecMode>,
    queue_kind: QueueKind,
    quiescence_timeout: Duration,
    agg_table_threshold: usize,
    observer: Option<Arc<dyn crate::RunObserver>>,
    retry: RetryPolicy,
    fast_recovery: bool,
    profile: bool,
    task_gate: Option<Arc<dyn crate::TaskGate>>,
    /// The synchronized runs' temporaries between launches.
    temps: Arc<TempSlot<S>>,
}

impl<S: KvStore> std::fmt::Debug for JobRunner<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRunner")
            .field("max_steps", &self.max_steps)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("force_mode", &self.force_mode)
            .field("queue_kind", &self.queue_kind)
            .field("quiescence_timeout", &self.quiescence_timeout)
            .field("agg_table_threshold", &self.agg_table_threshold)
            .field("observer", &self.observer.is_some())
            .field("retry", &self.retry)
            .field("fast_recovery", &self.fast_recovery)
            .field("profile", &self.profile)
            .field("task_gate", &self.task_gate.is_some())
            .finish_non_exhaustive()
    }
}

impl<S: KvStore> JobRunner<S> {
    /// Creates a runner over `store` with default options.
    pub fn new(store: S) -> Self {
        Self {
            temps: Arc::default(),
            store,
            max_steps: 1_000_000,
            checkpoint_interval: None,
            force_mode: None,
            queue_kind: QueueKind::default(),
            quiescence_timeout: Duration::from_secs(300),
            agg_table_threshold: 16,
            observer: None,
            retry: RetryPolicy::default(),
            fast_recovery: true,
            profile: false,
            task_gate: None,
        }
    }

    /// Throttles this runner's synchronized part-tasks through `gate`: every
    /// part-task of a step acquires a permit before touching its part and
    /// releases it when done.  This is the worker-sharing hook a
    /// resident multi-tenant service uses to interleave part-tasks from
    /// concurrent jobs fairly over a bounded worker pool; a solo runner
    /// (the default, `None`) runs ungated.  The gate does not alter
    /// results — it only schedules *when* each part-task runs within its
    /// step, never reordering work across a barrier.
    pub fn task_gate(&mut self, gate: Arc<dyn crate::TaskGate>) -> &mut Self {
        self.task_gate = Some(gate);
        self
    }

    /// Collects step-level profiles: synchronized runs yield one
    /// [`StepProfile`](crate::StepProfile) per step (per-part delivery and
    /// compute wall times, barrier skew, per-step store deltas),
    /// streamed as [`RunEvent::StepProfile`](crate::RunEvent::StepProfile)
    /// as each barrier completes and collected on
    /// [`RunOutcome::profiles`]; unsynchronized runs yield one
    /// [`WorkerProfile`](crate::WorkerProfile) per worker on
    /// [`RunOutcome::worker_profiles`].  Off by default.
    pub fn profile(&mut self, enabled: bool) -> &mut Self {
        self.profile = enabled;
        self
    }

    /// Sets how the engines retry transient store faults
    /// ([`KvError::Transient`](ripple_kv::KvError)) before surfacing them.
    /// Defaults to [`RetryPolicy::default`]; use [`RetryPolicy::none`] to
    /// fail fast.
    pub fn retry_policy(&mut self, policy: RetryPolicy) -> &mut Self {
        self.retry = policy;
        self
    }

    /// Whether recovery launches ([`RunOptions::recovery`]) may replay a
    /// single failed part alone instead of rolling the whole group back.
    /// Enabled by default; it only takes effect when the job's declared
    /// determinism lets the plan allow it.
    pub fn fast_recovery(&mut self, enabled: bool) -> &mut Self {
        self.fast_recovery = enabled;
        self
    }

    /// Attaches a [`RunObserver`](crate::RunObserver) receiving the run's
    /// [`RunEvent`](crate::RunEvent)s: steps, checkpoints, recoveries,
    /// retries and, when profiling, profiles.  It is
    /// also installed as the store's event sink, so store-level failure
    /// detection (part down, replica promotion) surfaces through
    /// [`RunEvent::PartDown`](crate::RunEvent::PartDown) /
    /// [`RunEvent::Failover`](crate::RunEvent::Failover)
    /// instead of being visible only as latency; in-process stores ignore
    /// the sink.  To write a Chrome trace, attach a
    /// [`TraceRecorder`](crate::TraceRecorder) (with
    /// [`JobRunner::profile`] on) and call its `write_to` after the launch
    /// — which also keeps the trace of a failed run.
    pub fn observer(&mut self, observer: Arc<dyn crate::RunObserver>) -> &mut Self {
        self.observer = Some(observer);
        self
    }

    /// At or above this many declared aggregators, per-part partial
    /// aggregates flow through auxiliary tables plus an extra enumeration
    /// round instead of returning to the controller (§IV-A); below it they
    /// return directly.  Default 16.
    pub fn aggregator_table_threshold(&mut self, n: usize) -> &mut Self {
        self.agg_table_threshold = n;
        self
    }

    /// Caps the number of steps a synchronized run may take.
    pub fn max_steps(&mut self, limit: u32) -> &mut Self {
        self.max_steps = limit;
        self
    }

    /// Enables barrier checkpoints every `steps` steps for recovery and
    /// durable launches ([`RunOptions::recovery`]).  Deterministic jobs can
    /// afford larger intervals (replay is exact); non-deterministic jobs
    /// should checkpoint every barrier.
    pub fn checkpoint_interval(&mut self, steps: u32) -> &mut Self {
        self.checkpoint_interval = Some(steps.max(1));
        self
    }

    /// Overrides the engine choice.  Forcing [`ExecMode::Synchronized`] is
    /// always sound (the SUMMA experiment runs the same job both ways);
    /// forcing [`ExecMode::Unsynchronized`] is checked against the job's
    /// properties.
    pub fn force_mode(&mut self, mode: ExecMode) -> &mut Self {
        self.force_mode = Some(mode);
        self
    }

    /// Selects the queue-set implementation for unsynchronized runs.
    pub fn queue_kind(&mut self, kind: QueueKind) -> &mut Self {
        self.queue_kind = kind;
        self
    }

    /// Safety limit for unsynchronized runs: if the system has not
    /// quiesced within this duration the run fails with
    /// [`EbspError::QuiescenceTimeout`].
    pub fn quiescence_timeout(&mut self, timeout: Duration) -> &mut Self {
        self.quiescence_timeout = timeout;
        self
    }

    /// Runs `job` as configured by `options` — the one entry point for
    /// every run mode.
    ///
    /// `options` carries extra loaders and the mode: [`RunOptions::new`]
    /// for a plain run, upgraded with [`RunOptions::healing`],
    /// [`RunOptions::recovery`] or [`RunOptions::durable`].  Each mode
    /// compiles only against a store with the matching capability traits,
    /// so an impossible combination (say, durability on a memory-only
    /// store) is rejected by the type checker rather than at runtime.
    ///
    /// # Errors
    ///
    /// Fails with [`EbspError::InvalidJob`] for inconsistent job
    /// definitions, [`EbspError::PlanViolation`] for impossible forced
    /// modes, [`EbspError::ConfigUnsupported`] when a
    /// [`JobRunner::checkpoint_interval`] is set on a mode that takes no
    /// checkpoints (it would be silently ignored), and engine/store errors
    /// from the run itself.  Recovery modes add
    /// [`EbspError::Unrecoverable`] when a part cannot be brought back.
    pub fn launch<J: Job, M: LaunchMode<S>>(
        &self,
        job: Arc<J>,
        options: RunOptions<J, M>,
    ) -> Result<RunOutcome, EbspError> {
        M::launch_on(self, job, options)
    }

    /// The launch path of the modes that take no checkpoints: the plan (or
    /// [`JobRunner::force_mode`]) picks the engine.
    fn run_inner<J: Job>(
        &self,
        job: Arc<J>,
        extra_loaders: Vec<Box<dyn Loader<J>>>,
        heal: Option<Arc<HealFn>>,
        audit: AuditOpts,
    ) -> Result<RunOutcome, EbspError> {
        if self.checkpoint_interval.is_some() {
            return Err(EbspError::ConfigUnsupported {
                option: "checkpoint_interval",
                reason: "this entry point takes no checkpoints; launch with \
                         RunOptions::new().recovery() on a store with shard snapshots"
                    .to_owned(),
            });
        }
        let (env, mode) = self.prepare(job)?;
        if mode == ExecMode::Synchronized {
            return self.run_synchronized(&env, extra_loaders, audit, None, None);
        }
        let mut loaders = env.job.loaders();
        loaders.extend(extra_loaders);
        let outcome = run_nosync(
            &env,
            loaders,
            &NosyncOptions {
                quiescence_timeout: self.quiescence_timeout,
                retry: self.retry,
                observer: self.installed_observer(),
                heal,
                profile: self.profile,
                probe: audit.probe,
                ..NosyncOptions::default()
            },
            self.queue_kind,
        )?;
        self.apply_state_exporters(&env)?;
        Ok(outcome)
    }

    /// The one synchronized launch tail, shared by the basic, recovery and
    /// durable modes: they differ only in the hooks they hand the engine.
    /// Checkpointing modes default the cadence to every barrier.
    fn run_synchronized<J: Job>(
        &self,
        env: &JobEnv<S, J>,
        extra_loaders: Vec<Box<dyn Loader<J>>>,
        audit: AuditOpts,
        recovery: Option<RecoveryHooks>,
        durable: Option<DurableOpts>,
    ) -> Result<RunOutcome, EbspError> {
        let mut loaders = env.job.loaders();
        loaders.extend(extra_loaders);
        let options = SyncOptions {
            max_steps: self.max_steps,
            checkpoint_interval: recovery
                .as_ref()
                .map(|_| self.checkpoint_interval.unwrap_or(1)),
            agg_table_threshold: self.agg_table_threshold,
            observer: self.installed_observer(),
            retry: self.retry,
            fast_recovery: self.fast_recovery,
            profile: self.profile,
            probe: audit.probe,
            shuffle: audit.shuffle_seed,
            task_gate: self.task_gate.clone(),
        };
        let outcome = run_sync(env, loaders, &options, recovery, durable, &self.temps)?;
        self.apply_state_exporters(env)?;
        Ok(outcome)
    }

    /// The run's observer, installed on the way as the store's event sink.
    fn installed_observer(&self) -> Option<Arc<dyn crate::RunObserver>> {
        if let Some(observer) = &self.observer {
            self.store
                .set_event_sink(Arc::new(ObserverEventSink(Arc::clone(observer))));
        }
        self.observer.clone()
    }

    /// Runs the job's `state_exporters` over the final table contents.
    fn apply_state_exporters<J: Job>(&self, env: &JobEnv<S, J>) -> Result<(), EbspError> {
        for (tab, exporter) in env.job.state_exporters() {
            let table = env.tables.get(tab).ok_or(EbspError::StateTableIndex {
                index: tab,
                tables: env.tables.len(),
            })?;
            crate::export_state_table::<S, J::Key, J::State, _>(&self.store, table, exporter)?;
        }
        Ok(())
    }

    /// Validates the job, materializes its tables (creating missing ones
    /// co-partitioned with the reference table), and picks the engine.
    fn prepare<J: Job>(&self, job: Arc<J>) -> Result<(JobEnv<S, J>, ExecMode), EbspError> {
        job.properties().validate()?;
        let table_names = job.state_tables();
        if table_names.is_empty() {
            return Err(EbspError::InvalidJob {
                reason: "a job needs at least one state table".to_owned(),
            });
        }
        let reference_name = job.reference_table();
        if reference_name.is_empty() {
            return Err(EbspError::InvalidJob {
                reason: "the reference table name is empty".to_owned(),
            });
        }
        let reference = match self.store.lookup_table(&reference_name) {
            Ok(t) => t,
            Err(_) => self.store.create_table(&TableSpec::new(&reference_name))?,
        };
        let mut tables = Vec::with_capacity(table_names.len());
        for name in &table_names {
            let table = if *name == reference_name {
                reference.clone()
            } else {
                match self.store.lookup_table(name) {
                    Ok(t) => {
                        if t.partitioning_id() != reference.partitioning_id() {
                            return Err(EbspError::InvalidJob {
                                reason: format!(
                                    "state table {name:?} is not co-partitioned with the \
                                     reference table {reference_name:?}"
                                ),
                            });
                        }
                        t
                    }
                    Err(_) => self.store.create_table_like(name, &reference)?,
                }
            };
            tables.push(table);
        }
        let broadcast_name = match job.broadcast_table() {
            None => None,
            Some(name) => {
                let t = self.store.lookup_table(&name)?;
                if !t.is_ubiquitous() {
                    return Err(EbspError::InvalidJob {
                        reason: format!("broadcast table {name:?} is not ubiquitous"),
                    });
                }
                Some(name)
            }
        };
        let registry = AggregatorRegistry::new(job.aggregators())?;
        let plan =
            ExecutionPlan::derive(&job.properties(), registry.is_empty(), !job.has_aborter());
        let mode = match self.force_mode {
            None => plan.mode,
            Some(ExecMode::Synchronized) => ExecMode::Synchronized,
            Some(ExecMode::Unsynchronized) => {
                if plan.mode != ExecMode::Unsynchronized {
                    return Err(EbspError::PlanViolation {
                        reason: "the job's properties do not permit unsynchronized execution"
                            .to_owned(),
                    });
                }
                ExecMode::Unsynchronized
            }
        };
        let direct = job.direct_output();
        Ok((
            JobEnv {
                store: self.store.clone(),
                job,
                registry,
                plan,
                table_names: Arc::new(table_names),
                tables,
                reference,
                broadcast_name,
                direct,
            },
            mode,
        ))
    }
}

/// Adapts a [`crate::RunObserver`] to the store SPI's event sink so
/// store-internal failure detection lands in the same observer stream as
/// engine events.  Calls may arrive from store threads; the observer
/// contract (cheap, non-blocking) already covers that.
struct ObserverEventSink(Arc<dyn crate::RunObserver>);

impl ripple_kv::StoreEventSink for ObserverEventSink {
    fn on_part_down(&self, part: u32, epoch: u64) {
        self.0.on_event(&crate::RunEvent::PartDown { part, epoch });
    }
    fn on_failover(&self, part: u32, epoch: u64) {
        self.0.on_event(&crate::RunEvent::Failover { part, epoch });
    }
}

impl<S: KvStore> LaunchMode<S> for Basic {
    fn launch_on<J: Job>(
        runner: &JobRunner<S>,
        job: Arc<J>,
        options: RunOptions<J, Self>,
    ) -> Result<RunOutcome, EbspError> {
        let (loaders, audit) = options.into_parts();
        runner.run_inner(job, loaders, None, audit)
    }
}

/// Store-side part *healing*: an unsynchronized worker whose part fails
/// underneath it (or whose compute panics) promotes the part's surviving
/// replicas, re-mints termination-detector weight for its in-flight round,
/// redelivers it, and carries on.  Redelivery is at-least-once, so the job
/// must be idempotent — which the incremental jobs this engine serves are.
/// Adds [`EbspError::Unrecoverable`] when the store cannot restore the
/// part or the respawn budget is exhausted.
impl<S: HealableStore> LaunchMode<S> for Heal {
    fn launch_on<J: Job>(
        runner: &JobRunner<S>,
        job: Arc<J>,
        options: RunOptions<J, Self>,
    ) -> Result<RunOutcome, EbspError> {
        let (loaders, audit) = options.into_parts();
        let store = runner.store.clone();
        let reference_name = job.reference_table();
        let heal: Arc<HealFn> = Arc::new(move |part| {
            let reference = store.lookup_table(&reference_name)?;
            store.recover_part(&reference, part)
        });
        runner.run_inner(job, loaders, Some(heal), audit)
    }
}

impl<S: RecoverableStore + HealableStore> JobRunner<S> {
    /// Builds the type-erased checkpoint/restore/promote callbacks the
    /// synchronized engine drives, anchored at `reference`'s partitioning
    /// group.
    fn recovery_hooks(&self, reference: &S::Table) -> RecoveryHooks {
        let store = self.store.clone();
        let reference = reference.clone();
        let restore_store = store.clone();
        let tables_store = store.clone();
        let promote_store = store.clone();
        let promote_reference = reference.clone();
        RecoveryHooks {
            checkpoint: Box::new(move |part| {
                store
                    .checkpoint_part(&reference, part)
                    .map(|cp| Box::new(cp) as Box<dyn std::any::Any + Send>)
            }),
            restore: Box::new(move |any| {
                let cp = any
                    .downcast_ref::<S::Checkpoint>()
                    .expect("checkpoint type is fixed per store");
                restore_store.restore_part(cp)
            }),
            restore_tables: Box::new(move |any, tables| {
                let cp = any
                    .downcast_ref::<S::Checkpoint>()
                    .expect("checkpoint type is fixed per store");
                tables_store.restore_part_tables(cp, tables)
            }),
            promote: Box::new(move |part| promote_store.recover_part(&promote_reference, part)),
        }
    }

    /// Barrier checkpointing and automatic recovery from part failures:
    /// whole-group rollback-replay by default, or — when the job's
    /// determinism allows it and [`JobRunner::fast_recovery`] is left
    /// enabled — restore-and-replay of the failed part *alone* while
    /// surviving parts keep their state.  Requires a store with shard
    /// checkpoints; the cadence comes from
    /// [`JobRunner::checkpoint_interval`] (defaulting to every barrier if
    /// unset).  Only synchronized execution supports recovery; the mode is
    /// forced.  Adds [`EbspError::Unrecoverable`] if a part fails with no
    /// checkpoint to rewind to.
    fn launch_recoverable<J: Job>(
        &self,
        job: Arc<J>,
        extra_loaders: Vec<Box<dyn Loader<J>>>,
        audit: AuditOpts,
    ) -> Result<RunOutcome, EbspError> {
        let (env, _) = self.prepare(job)?;
        let hooks = self.recovery_hooks(&env.reference);
        self.run_synchronized(&env, extra_loaders, audit, Some(hooks), None)
    }
}

impl<S: RecoverableStore + HealableStore> LaunchMode<S> for Recover {
    fn launch_on<J: Job>(
        runner: &JobRunner<S>,
        job: Arc<J>,
        options: RunOptions<J, Self>,
    ) -> Result<RunOutcome, EbspError> {
        let (loaders, audit) = options.into_parts();
        runner.launch_recoverable(job, loaders, audit)
    }
}

impl<S: RecoverableStore + HealableStore + DurableStore> JobRunner<S> {
    /// Durable barrier commits and cross-restart resume.
    ///
    /// On top of everything the recovery mode does, every
    /// checkpoint barrier also runs the durable commit protocol: barrier
    /// markers into the store's logs
    /// ([`DurableStore::commit_barrier`]), a resume *journal* describing
    /// the cut (step, what its spills hold, aggregate snapshot) written and
    /// flushed, then log compaction ([`DurableStore::compact_group`]).
    /// If the process dies mid-run — crash, kill, step-limit abort — a
    /// later durable launch of the same job against a reopened store finds
    /// the journal, rewinds the store to the journalled barrier
    /// ([`DurableStore::rewind_group`]), skips the loaders, and continues
    /// from the step after it.  For deterministic jobs the resumed run's
    /// output is byte-identical to an uninterrupted one.
    ///
    /// The journal lives in an ordinary table named
    /// `__durable_journal_<reference>`, deliberately *not* co-partitioned
    /// with the reference table so rewinds never touch it.  A successful
    /// finish clears the journal and drops the run's temporary tables.
    ///
    /// Additionally fails if the store cannot honour a journalled rewind
    /// (e.g. a memory store that lost the logged bytes with the process).
    fn launch_durable<J: Job>(
        &self,
        job: Arc<J>,
        extra_loaders: Vec<Box<dyn Loader<J>>>,
        audit: AuditOpts,
    ) -> Result<RunOutcome, EbspError> {
        let (env, _) = self.prepare(job)?;
        let reference_name = env.reference.name().to_owned();

        let journal_name = format!("__durable_journal_{reference_name}");
        let journal = match self.store.lookup_table(&journal_name) {
            Ok(t) => t,
            Err(_) => self.store.create_table(&TableSpec::new(&journal_name))?,
        };
        let journal_key = RoutedKey::with_route(0, Bytes::from_static(b"__durable_journal"));

        let resume = match journal.get(&journal_key)? {
            None => None,
            Some(bytes) => {
                let (step, live, creates, entries): (u32, bool, bool, Vec<(String, AggValue)>) =
                    from_wire(&bytes)?;
                Some(Cut {
                    step,
                    live,
                    creates,
                    agg: AggregateSnapshot::new(entries.into_iter().collect()),
                })
            }
        };
        match &resume {
            Some(rp) => {
                // Re-establish the journalled cut: discard every log byte
                // after the barrier markers for the journalled step.
                self.store
                    .rewind_group(&env.reference, u64::from(rp.step))?;
            }
            None => {
                // Fresh start: sweep temporaries a cleared-but-interrupted
                // earlier run may have left behind.
                for kind in ["xport0", "xport1", "agg1", "agg2"] {
                    let _ = self
                        .store
                        .drop_table(&format!("__ebsp_{kind}_dur_{reference_name}"));
                }
            }
        }

        let hooks = self.recovery_hooks(&env.reference);
        let commit_store = self.store.clone();
        let commit_reference = env.reference.clone();
        let compact_store = self.store.clone();
        let compact_reference = env.reference.clone();
        let journal_table = journal.clone();
        let journal_store = self.store.clone();
        let jkey = journal_key.clone();
        let clear_table = journal;
        let clear_store = self.store.clone();
        let clear_key = journal_key;
        let durable = DurableOpts {
            commit: Box::new(move |epoch| {
                commit_store
                    .commit_barrier(&commit_reference, epoch)
                    .map_err(EbspError::from)
            }),
            journal: Box::new(move |cut| {
                let mut entries: Vec<(String, AggValue)> =
                    cut.agg.iter().map(|(n, v)| (n.to_owned(), v)).collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                let cut = (cut.step, cut.live, cut.creates, entries);
                journal_table.put(jkey.clone(), to_wire(&cut))?;
                journal_store.flush()?;
                Ok(())
            }),
            compact: Box::new(move |epoch| {
                compact_store
                    .compact_group(&compact_reference, epoch)
                    .map_err(EbspError::from)
            }),
            clear: Box::new(move || {
                clear_table.delete(&clear_key)?;
                clear_store.flush()?;
                Ok(())
            }),
            resume,
        };

        self.run_synchronized(&env, extra_loaders, audit, Some(hooks), Some(durable))
    }
}

impl<S: RecoverableStore + HealableStore + DurableStore> LaunchMode<S> for Durable {
    fn launch_on<J: Job>(
        runner: &JobRunner<S>,
        job: Arc<J>,
        options: RunOptions<J, Self>,
    ) -> Result<RunOutcome, EbspError> {
        let (loaders, audit) = options.into_parts();
        runner.launch_durable(job, loaders, audit)
    }
}
