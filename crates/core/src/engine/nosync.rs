//! The unsynchronized engine (*no-sync*, §II-A/§IV-A).
//!
//! "When synchronization is not needed, the job is instead executed in one
//! dispatch of EBSP implementation code to a queue set, where its instances
//! invoke components and exchange messages until there is no more work to
//! do" — with distributed termination detected essentially by Huang's
//! algorithm.
//!
//! One worker runs per part, collocated with the part's data.  Messages
//! are delivered as they arrive (batched opportunistically), preserving
//! per-(sender, receiver) order — the guarantee the `incremental` property
//! relies on.  The continue signal is meaningless without steps and is
//! ignored; a component is re-invoked whenever messages arrive for it.
//!
//! # Worker self-recovery
//!
//! There is no barrier to rendezvous recovery at, so each worker
//! supervises itself.  The weighted envelopes of the round in flight stay
//! in a *ledger* outside the panic boundary; when the worker's own part
//! fails (or its compute panics) and a heal hook is available, the worker
//! heals the part (promoting surviving replicas), re-mints fresh detector
//! weight for each ledgered envelope, re-enqueues them, gives the old held
//! weight back — mint-before-give-back, so the detector never observes a
//! spurious quiescence — and re-enters its loop on the same thread and
//! view.  Redelivery is at-least-once: a crash mid-round may have already
//! applied some state writes and forwarded some sends, so jobs recovered
//! this way must be idempotent (the `incremental` jobs this engine serves,
//! such as monotone shortest-paths relaxation, are).  When the store
//! cannot heal the part or the respawn budget is exhausted, the run fails
//! with the typed [`EbspError::Unrecoverable`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use ripple_kv::{KvError, KvStore, PartId, PartView, Table};
use ripple_mq::{ChannelQueueSet, QueueReceiver, QueueSet, TableQueueSet};
use ripple_wire::{from_wire, to_wire, ByteReader, ByteWriter, Decode, Encode, WireError};

use crate::context::Outbox;
use crate::engine::{run_loaders, JobEnv, PartTask};
use crate::retry::FaultRetry;
use crate::{
    AggregateSnapshot, EbspError, Envelope, ExecMode, Job, Loader, QueueKind, RetryPolicy,
    RunEvent, RunMetrics, RunOutcome, StepCounters, WeightThrow, WorkerProfile,
};

/// Heals one failed part (e.g. by promoting surviving replicas); returns
/// how many tables were restored.  Type-erased so the engine does not
/// carry a `HealableStore` bound.
pub(crate) type HealFn = dyn Fn(PartId) -> Result<usize, KvError> + Send + Sync;

/// How many times one worker may heal its part and respawn before the
/// failure is declared unrecoverable.
const MAX_RESPAWNS: u32 = 3;

/// Options for an unsynchronized run.
pub(crate) struct NosyncOptions {
    pub(crate) quiescence_timeout: Duration,
    pub(crate) idle_timeout: Duration,
    pub(crate) batch_limit: usize,
    /// How transient store faults are retried before surfacing.
    pub(crate) retry: RetryPolicy,
    /// Receives retry, fault and worker-profile events.
    pub(crate) observer: Option<Arc<dyn crate::RunObserver>>,
    /// Store-side part healing for worker self-recovery.
    pub(crate) heal: Option<Arc<HealFn>>,
    /// Collect per-worker [`WorkerProfile`]s and emit them through the
    /// observer as the run drains.
    pub(crate) profile: bool,
    /// Audit instrumentation called from every compute invocation
    /// ([`RunOptions::audit`](crate::RunOptions::audit)).
    pub(crate) probe: Option<Arc<dyn crate::AuditProbe>>,
}

impl Default for NosyncOptions {
    fn default() -> Self {
        Self {
            quiescence_timeout: Duration::from_secs(300),
            idle_timeout: Duration::from_millis(2),
            batch_limit: 256,
            retry: RetryPolicy::default(),
            observer: None,
            heal: None,
            profile: false,
            probe: None,
        }
    }
}

/// Traffic on the queue set: weighted envelopes, or the stop signal the
/// controller broadcasts once quiescence is detected.
enum NosyncMsg<J: Job> {
    Env { weight: u64, env: Envelope<J> },
    Stop,
}

impl<J: Job> Encode for NosyncMsg<J> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            NosyncMsg::Env { weight, env } => {
                w.push(0);
                weight.encode(w);
                env.encode(w);
            }
            NosyncMsg::Stop => w.push(1),
        }
    }
}

impl<J: Job> Decode for NosyncMsg<J> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.read_byte()? {
            0 => Ok(NosyncMsg::Env {
                weight: u64::decode(r)?,
                env: Envelope::decode(r)?,
            }),
            1 => Ok(NosyncMsg::Stop),
            tag => Err(WireError::InvalidTag {
                target: "NosyncMsg",
                tag,
            }),
        }
    }
}

pub(crate) fn run_nosync<S: KvStore, J: Job>(
    env: &JobEnv<S, J>,
    loaders: Vec<Box<dyn Loader<J>>>,
    opts: &NosyncOptions,
    kind: QueueKind,
) -> Result<RunOutcome, EbspError> {
    if !env.registry.is_empty() {
        return Err(EbspError::PlanViolation {
            reason: "unsynchronized execution cannot serve individual aggregators".to_owned(),
        });
    }
    if env.job.has_aborter() {
        return Err(EbspError::PlanViolation {
            reason: "unsynchronized execution cannot serve an aborter".to_owned(),
        });
    }

    match kind {
        QueueKind::Channel => {
            let qs = ChannelQueueSet::create(&env.store, &env.reference, &queue_name())?;
            let out = drive(env, loaders, opts, &qs);
            let _ = qs.delete();
            out
        }
        QueueKind::Table => {
            let qs = TableQueueSet::create(&env.store, &env.reference, &queue_name())?;
            let out = drive(env, loaders, opts, &qs);
            let _ = qs.delete();
            out
        }
    }
}

fn queue_name() -> String {
    use std::sync::atomic::AtomicU64;
    static NONCE: AtomicU64 = AtomicU64::new(1);
    format!("__ebsp_nosync_{}", NONCE.fetch_add(1, Ordering::Relaxed))
}

fn drive<S: KvStore, J: Job, Q: QueueSet>(
    env: &JobEnv<S, J>,
    loaders: Vec<Box<dyn Loader<J>>>,
    opts: &NosyncOptions,
    qs: &Q,
) -> Result<RunOutcome, EbspError> {
    let started = Instant::now();
    let store_before = env.store.metrics();
    let detector = Arc::new(WeightThrow::new());
    let failure: Arc<Mutex<Option<EbspError>>> = Arc::new(Mutex::new(None));
    let retry = Arc::new(FaultRetry::new(opts.retry, opts.observer.clone()));

    let worker_env = Arc::new(WorkerEnv {
        task: PartTask::new(env, Arc::clone(&retry), opts.probe.clone()),
        started,
        detector: Arc::clone(&detector),
        failure: Arc::clone(&failure),
        idle: opts.idle_timeout,
        batch_limit: opts.batch_limit,
        heal: opts.heal.clone(),
        recoveries: AtomicU32::new(0),
    });

    // ----- Initial condition ------------------------------------------------
    let mut buffer = run_loaders(env, loaders, &retry)?;
    // Every loader send is a message sent, folded or not.
    let mut seeded = buffer.metrics.messages_combined;
    for (dst, envelope) in buffer.drain() {
        send(&worker_env, qs, dst, envelope)?;
        seeded += 1;
    }

    // ----- Quiescence watcher -----------------------------------------------
    // Event-driven: the watcher sleeps on the detector's condition
    // variable — woken by the `give_back` that drains the outstanding
    // weight, or by `notify()` when a worker records a failure — with the
    // quiescence deadline as its only timed wait.  On timeout it reports
    // how long it actually waited (measured from its own start, not the
    // run's, which also covers loading and seeding).
    let watcher = {
        let detector = Arc::clone(&detector);
        let failure = Arc::clone(&failure);
        let qs = qs.clone();
        let timeout = opts.quiescence_timeout;
        std::thread::Builder::new()
            .name("ripple-nosync-watch".to_owned())
            .spawn(move || -> Option<Duration> {
                let watch_started = Instant::now();
                let deadline = watch_started + timeout;
                let done = detector.wait_until(deadline, &|| {
                    detector.quiescent() || failure.lock().is_some()
                });
                for p in 0..qs.parts() {
                    let _ = qs.put(PartId(p), to_wire(&NosyncMsg::<J>::Stop));
                }
                (!done).then(|| watch_started.elapsed())
            })
            .expect("spawn nosync watcher")
    };

    // ----- Workers ------------------------------------------------------
    let results = {
        let worker_env = Arc::clone(&worker_env);
        let qs_inner = qs.clone();
        qs.run_workers(move |view, rx| worker_loop(&worker_env, &qs_inner, view, rx))?
    };
    let waited = watcher.join().expect("nosync watcher never panics");

    if let Some(e) = failure.lock().take() {
        return Err(e);
    }
    if let Some(waited) = waited {
        return Err(EbspError::QuiescenceTimeout { waited });
    }

    let mut metrics = RunMetrics::default();
    metrics.absorb(&buffer.metrics);
    let mut worker_profiles: Vec<WorkerProfile> = Vec::new();
    for (c, profile) in results.into_iter().flatten() {
        metrics.absorb(&c);
        if opts.profile {
            if let Some(observer) = &opts.observer {
                observer.on_event(&RunEvent::WorkerProfile(&profile));
            }
            worker_profiles.push(profile);
        }
    }
    metrics.steps = 0;
    metrics.barriers = 0;
    metrics.messages_sent += seeded;
    metrics.retries = retry.count();
    metrics.recoveries = worker_env.recoveries.load(Ordering::Relaxed);
    metrics.store = env.store.metrics() - store_before;
    metrics.elapsed = started.elapsed();
    Ok(RunOutcome {
        steps: 0,
        aborted: false,
        aggregates: AggregateSnapshot::default(),
        metrics,
        mode: ExecMode::Unsynchronized,
        profiles: None,
        worker_profiles: opts.profile.then_some(worker_profiles),
    })
}

/// What every worker of a run shares.
struct WorkerEnv<T: Table, J: Job> {
    task: PartTask<T, J>,
    /// When the run started — the shared timeline origin worker profiles
    /// anchor their first-activity offsets to.
    started: Instant,
    detector: Arc<WeightThrow>,
    failure: Arc<Mutex<Option<EbspError>>>,
    idle: Duration,
    batch_limit: usize,
    heal: Option<Arc<HealFn>>,
    recoveries: AtomicU32,
}

impl<T: Table, J: Job> WorkerEnv<T, J> {
    /// Records the run's first fatal error and wakes the watcher so it
    /// broadcasts Stop without waiting out the quiescence deadline.
    fn fail(&self, error: EbspError) {
        self.failure.lock().get_or_insert(error);
        self.detector.notify();
    }
}

/// What one worker keeps *outside* its panic boundary, so it survives a
/// crash of the round in flight.
struct WorkerState<J: Job> {
    /// The weighted envelopes of the round in flight, as received, so they
    /// can be redelivered.
    ledger: Vec<Bytes>,
    counters: StepCounters,
    /// Per-component invocation counter: it feeds `ctx.step`, which must
    /// stay monotone for a component across heal-respawns, not reset to 1.
    invocation_seq: HashMap<J::Key, u32>,
    profile: WorkerProfile,
}

/// Whether a worker failure is worth healing the part and respawning for:
/// the worker's *own* part failed underneath it, or its compute panicked.
fn recoverable_failure(err: &EbspError, own_part: u32) -> bool {
    matches!(
        err,
        EbspError::Kv(KvError::PartFailed { part }) if *part == own_part
    ) || matches!(err, EbspError::Kv(KvError::TaskPanicked { .. }))
}

/// One part's worker: runs [`worker_inner`] under a panic boundary and
/// supervises it — healing the part and redelivering the in-flight ledger
/// on recoverable failures, recording the failure otherwise.
fn worker_loop<T: Table, J: Job, Q: QueueSet>(
    wenv: &WorkerEnv<T, J>,
    qs: &Q,
    view: &dyn PartView,
    rx: &mut dyn QueueReceiver,
) -> Option<(StepCounters, WorkerProfile)> {
    let own_part = view.part().0;
    let mut state = WorkerState::<J> {
        ledger: Vec::new(),
        counters: StepCounters::default(),
        invocation_seq: HashMap::new(),
        profile: WorkerProfile {
            part: own_part,
            ..WorkerProfile::default()
        },
    };
    let mut respawns = 0u32;
    loop {
        // Contain application panics so the watcher learns of the failure
        // immediately instead of waiting out the quiescence timeout.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_inner(wenv, qs, view, rx, &mut state)
        }))
        .unwrap_or_else(|panic| {
            Err(EbspError::Kv(KvError::TaskPanicked {
                part: own_part,
                message: ripple_kv::panic_message(panic.as_ref()),
            }))
        });
        let error = match result {
            Ok(()) => return Some((state.counters, state.profile)),
            Err(e) => e,
        };

        // Self-recovery: heal the part, redeliver the ledger with fresh
        // weight, and re-enter the loop on this same thread and view.
        // Without a heal hook the failure surfaces as-is; with one, an
        // exhausted budget or failed heal is the typed unrecoverable end.
        let recoverable = recoverable_failure(&error, own_part);
        let heal = wenv
            .heal
            .as_ref()
            .filter(|_| recoverable && respawns < MAX_RESPAWNS);
        let healed = match heal {
            None => None,
            Some(heal) => heal(PartId(own_part)).ok(),
        };
        if healed.is_none() {
            wenv.fail(if recoverable && wenv.heal.is_some() {
                EbspError::Unrecoverable { part: own_part }
            } else {
                error
            });
            return None;
        }
        respawns += 1;
        wenv.recoveries.fetch_add(1, Ordering::Relaxed);
        if redeliver_ledger(wenv, qs, std::mem::take(&mut state.ledger)).is_err() {
            wenv.fail(EbspError::Unrecoverable { part: own_part });
            return None;
        }
    }
}

/// Re-enqueues every envelope of the crashed round: fresh weight is minted
/// *before* the old held weight goes home, so the detector's outstanding
/// total never dips to zero mid-recovery (a spurious quiescence would stop
/// the run with work still pending).
fn redeliver_ledger<T: Table, J: Job, Q: QueueSet>(
    wenv: &WorkerEnv<T, J>,
    qs: &Q,
    held: Vec<Bytes>,
) -> Result<(), EbspError> {
    let mut old_weight = 0u64;
    for bytes in held {
        match from_wire::<NosyncMsg<J>>(&bytes)? {
            NosyncMsg::Stop => {}
            NosyncMsg::Env { weight, env } => {
                old_weight += weight;
                let dst = crate::key_to_routed(env.key()).part_for(wenv.task.parts);
                send(wenv, qs, dst.0, env)?;
            }
        }
    }
    wenv.detector.give_back(old_weight);
    Ok(())
}

/// Enqueues `env` at its destination part `dst` under freshly minted weight.
fn send<T: Table, J: Job, Q: QueueSet>(
    wenv: &WorkerEnv<T, J>,
    qs: &Q,
    dst: u32,
    env: Envelope<J>,
) -> Result<(), EbspError> {
    let weight = wenv.detector.mint(1);
    qs.put(PartId(dst), to_wire(&NosyncMsg::Env { weight, env }))?;
    Ok(())
}

fn worker_inner<T: Table, J: Job, Q: QueueSet>(
    wenv: &WorkerEnv<T, J>,
    qs: &Q,
    view: &dyn PartView,
    rx: &mut dyn QueueReceiver,
    state: &mut WorkerState<J>,
) -> Result<(), EbspError> {
    let task = &wenv.task;
    let ops = task.local_ops(view);
    let no_aggregates = AggregateSnapshot::default();
    let profile = &mut state.profile;

    'main: loop {
        let wait_started = Instant::now();
        let Some(first) = rx.recv_timeout(wenv.idle)? else {
            // Idle poll; all weight already returned.
            profile.idle += wait_started.elapsed();
            profile.empty_polls += 1;
            continue;
        };
        profile.idle += wait_started.elapsed();
        let busy_started = Instant::now();
        if profile.batches == 0 && profile.start.is_zero() {
            // First activity: anchor this worker's lane on the run
            // timeline (a heal-respawn re-enters with batches > 0 and
            // keeps the original anchor).
            profile.start = busy_started.duration_since(wenv.started);
        }
        let mut stop_after_batch = false;
        let mut batch: Vec<(u64, Envelope<J>)> = Vec::new();
        match from_wire::<NosyncMsg<J>>(&first)? {
            NosyncMsg::Stop => break 'main,
            NosyncMsg::Env { weight, env } => {
                state.ledger.push(first);
                batch.push((weight, env));
            }
        }
        while batch.len() < wenv.batch_limit {
            match rx.recv_timeout(Duration::ZERO)? {
                None => break,
                Some(bytes) => match from_wire::<NosyncMsg<J>>(&bytes)? {
                    NosyncMsg::Stop => {
                        stop_after_batch = true;
                        break;
                    }
                    NosyncMsg::Env { weight, env } => {
                        state.ledger.push(bytes);
                        batch.push((weight, env));
                    }
                },
            }
        }

        // Group per component, preserving arrival order within each.
        let batch_len = batch.len() as u64;
        let mut order: Vec<J::Key> = Vec::new();
        let mut grouped: HashMap<J::Key, Vec<J::Message>> = HashMap::new();
        let mut creates: Vec<(u16, J::Key, J::State)> = Vec::new();
        let mut hold = 0u64;
        for (weight, envelope) in batch {
            hold += weight;
            let (key, msg) = match envelope {
                Envelope::Message { to, msg } => (to, Some(msg)),
                Envelope::Continue { key } => (key, None),
                Envelope::Create { tab, key, state } => {
                    creates.push((tab, key, state));
                    continue;
                }
            };
            let list = grouped.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                Vec::new()
            });
            list.extend(msg);
        }
        let mut out = Outbox::new(task.parts);
        task.apply_creates(view, creates, &out)?;

        let mode = ExecMode::Unsynchronized;
        let mut invoker = task.invoker(mode, view.part(), &ops, &no_aggregates, &mut out);
        for key in order {
            let messages = grouped.remove(&key).expect("grouped by the same keys");
            let seq = state.invocation_seq.entry(key.clone()).or_insert(0);
            *seq += 1;
            let routed = invoker.out.routed(&key);
            invoker.invoke(*seq, key, routed, messages)?;
            // Forward this invocation's output immediately (pipelining):
            // messages fold within an invocation, never across two.
            for (dst, envelope) in invoker.out.drain() {
                send(wenv, qs, dst, envelope)?;
            }
        }
        state.counters.merge(&invoker.out.metrics);
        // All sends of this round are visible; now the consumed weight may
        // go home, and the round is off the books.
        wenv.detector.give_back(hold);
        state.ledger.clear();
        profile.busy += busy_started.elapsed();
        profile.batches += 1;
        profile.envelopes += batch_len;
        profile.max_batch = profile.max_batch.max(batch_len);
        if stop_after_batch {
            break 'main;
        }
    }
    Ok(())
}
