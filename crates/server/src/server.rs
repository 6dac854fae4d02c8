//! The resident job service: admission, shared workers, per-job
//! accounting.
//!
//! [`JobRunner::launch`](ripple_core::JobRunner::launch) is one-shot — a
//! driver that owns a store, runs a job, and exits.  The paper's runtime
//! is the opposite shape: part servers are *resident*, and many analytics
//! jobs come and go against them (§III).  [`JobServer`] reproduces that
//! shape in-process: it owns one shared store and a worker pool of
//! [`ServerConfig::workers`] compute slots, admits jobs under quota
//! ([`AdmitError`] when it refuses), runs each admitted job on its own
//! controller thread with a [`FairScheduler`] gate interleaving
//! part-tasks across jobs, and folds every run's
//! [`StepProfile`](ripple_core::StepProfile)s into per-job
//! [`JobAccount`]s exportable as JSON.
//!
//! Admitted jobs always run the synchronized engine
//! ([`ExecMode::Synchronized`]): the scheduling gate brackets the
//! engine's part tasks, one per part and step, which is exactly the unit
//! of work a BSP barrier already delimits, so gating is sound there by
//! construction.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ripple_core::{
    CostModel, EbspError, ExecMode, Job, JobRunner, LaunchMode, RunOptions, RunOutcome,
};
use ripple_kv::KvStore;

use crate::quota::{AdmitError, JobSpec, ServerConfig};
use crate::sched::FairScheduler;

/// How far a job got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, controller thread running.
    Running,
    /// Admitted as a resident (serving) job; records waves as they land.
    Resident,
    /// Finished cleanly.
    Done,
    /// Finished with an engine error.
    Failed,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            Self::Running => "running",
            Self::Resident => "resident",
            Self::Done => "done",
            Self::Failed => "failed",
        }
    }
}

/// Cumulative accounting for one admitted job — [`RunMetrics`] totals
/// plus the BSP cost terms derived from its step profiles and the
/// scheduler's per-job grant/wait meters.
///
/// [`RunMetrics`]: ripple_core::RunMetrics
#[derive(Debug, Clone)]
pub struct JobAccount {
    /// The job's admission name.
    pub name: String,
    /// Scheduler id (grant-log entries use it).
    pub sched_id: u64,
    /// Launches recorded (a batch job has 1; a resident job counts its
    /// initial solve and every applied wave).
    pub launches: u64,
    /// Total synchronized steps across launches.
    pub steps: u64,
    /// Total compute invocations.
    pub invocations: u64,
    /// Total messages sent.
    pub messages_sent: u64,
    /// Total run wall-clock (sum of launch elapsed times).
    pub elapsed: Duration,
    /// BSP `Σ wᵢ` — per-step critical-path compute, from profiles.
    pub compute_wall: Duration,
    /// BSP `Σ hᵢ` in bytes — cross-part traffic, from profiles.
    pub h_bytes: u64,
    /// BSP `Σ l`ᵢ lower bound — barrier skew, from profiles.
    pub barrier_skew: Duration,
    /// Compute slots the scheduler granted this job.
    pub sched_granted: u64,
    /// Time this job's tasks spent queued for a slot.
    pub sched_wait: Duration,
    /// Where the job stands.
    pub status: JobStatus,
}

impl JobAccount {
    fn new(name: &str, sched_id: u64, status: JobStatus) -> Self {
        Self {
            name: name.to_owned(),
            sched_id,
            launches: 0,
            steps: 0,
            invocations: 0,
            messages_sent: 0,
            elapsed: Duration::ZERO,
            compute_wall: Duration::ZERO,
            h_bytes: 0,
            barrier_skew: Duration::ZERO,
            sched_granted: 0,
            sched_wait: Duration::ZERO,
            status: JobStatus::Running,
        }
        .with_status(status)
    }

    fn with_status(mut self, status: JobStatus) -> Self {
        self.status = status;
        self
    }

    fn fold_outcome(&mut self, outcome: &RunOutcome) {
        self.launches += 1;
        self.steps += u64::from(outcome.steps);
        self.invocations += outcome.metrics.invocations;
        self.messages_sent += outcome.metrics.messages_sent;
        self.elapsed += outcome.metrics.elapsed;
        if let Some(profiles) = &outcome.profiles {
            let cost = CostModel::derive(profiles);
            self.compute_wall += cost.total_w();
            self.h_bytes += cost.total_h_bytes();
            self.barrier_skew += cost.total_l();
        }
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":{},\"sched_id\":{},\"status\":\"{}\",",
                "\"launches\":{},\"steps\":{},\"invocations\":{},",
                "\"messages_sent\":{},\"elapsed_us\":{},\"w_us\":{},",
                "\"h_bytes\":{},\"l_us\":{},\"sched_granted\":{},",
                "\"sched_wait_us\":{}}}"
            ),
            json_string(&self.name),
            self.sched_id,
            self.status.as_str(),
            self.launches,
            self.steps,
            self.invocations,
            self.messages_sent,
            self.elapsed.as_micros(),
            self.compute_wall.as_micros(),
            self.h_bytes,
            self.barrier_skew.as_micros(),
            self.sched_granted,
            self.sched_wait.as_micros(),
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Debug)]
struct ServerInner {
    shutting_down: bool,
    admitted: HashSet<String>,
    accounts: Vec<JobAccount>,
}

/// A resident multi-tenant job service over one shared store.
///
/// Cheap to clone; clones share the server.
pub struct JobServer<S: KvStore> {
    store: S,
    sched: Arc<FairScheduler>,
    config: ServerConfig,
    inner: Arc<Mutex<ServerInner>>,
}

impl<S: KvStore> Clone for JobServer<S> {
    fn clone(&self) -> Self {
        Self {
            store: self.store.clone(),
            sched: Arc::clone(&self.sched),
            config: self.config.clone(),
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: KvStore> std::fmt::Debug for JobServer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("JobServer")
            .field("workers", &self.config.workers)
            .field("max_jobs", &self.config.max_jobs)
            .field("admitted", &inner.admitted.len())
            .field("accounts", &inner.accounts.len())
            .finish_non_exhaustive()
    }
}

/// A submitted job: join it for the outcome.
#[derive(Debug)]
pub struct JobHandle {
    name: String,
    thread: std::thread::JoinHandle<Result<RunOutcome, EbspError>>,
}

impl JobHandle {
    /// The job's admission name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks until the job's controller thread finishes and returns its
    /// outcome.
    ///
    /// # Errors
    ///
    /// Propagates the launch's engine error.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the job's controller thread.
    pub fn wait(self) -> Result<RunOutcome, EbspError> {
        match self.thread.join() {
            Ok(result) => result,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl<S: KvStore> JobServer<S> {
    /// A server whose every job shares `store`, with `config`.
    #[must_use]
    pub fn single(config: ServerConfig, store: S) -> Self {
        Self {
            sched: Arc::new(FairScheduler::new(config.workers)),
            store,
            config,
            inner: Arc::new(Mutex::new(ServerInner {
                shutting_down: false,
                admitted: HashSet::new(),
                accounts: Vec::new(),
            })),
        }
    }

    /// The server's configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The shared scheduler (grant log and accounts are read off it).
    #[must_use]
    pub fn scheduler(&self) -> &Arc<FairScheduler> {
        &self.sched
    }

    /// The store every job runs on.
    #[must_use]
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Runs the admission checks and, on success, reserves the job's
    /// name, registers a scheduler slot, and opens
    /// its account.
    fn admit(
        &self,
        name: &str,
        spec: &JobSpec,
        status: JobStatus,
    ) -> Result<(u64, usize), AdmitError> {
        let quota = spec.quota.unwrap_or(self.config.default_quota);
        let mut inner = self.lock();
        if inner.shutting_down {
            return Err(AdmitError::ShuttingDown);
        }
        // The most specific refusal first: a duplicate name is a client
        // bug worth reporting even when the server is also full.
        if inner.admitted.contains(name) {
            return Err(AdmitError::NameTaken(name.to_owned()));
        }
        if spec.parts > quota.max_parts {
            return Err(AdmitError::PartsQuota {
                requested: spec.parts,
                max: quota.max_parts,
            });
        }
        if spec.est_state_bytes > quota.max_state_bytes {
            return Err(AdmitError::MemoryQuota {
                declared: spec.est_state_bytes,
                max: quota.max_state_bytes,
            });
        }
        if inner.admitted.len() >= self.config.max_jobs {
            return Err(AdmitError::TooManyJobs {
                admitted: inner.admitted.len(),
                max: self.config.max_jobs,
            });
        }
        inner.admitted.insert(name.to_owned());
        let sched_id = self.sched.register();
        let account_index = inner.accounts.len();
        inner.accounts.push(JobAccount::new(name, sched_id, status));
        Ok((sched_id, account_index))
    }

    /// The gated, step-capped, profiled runner an admitted job executes
    /// on.
    fn build_runner(&self, sched_id: u64, spec: &JobSpec) -> JobRunner<S> {
        let quota = spec.quota.unwrap_or(self.config.default_quota);
        let mut runner = JobRunner::new(self.store.clone());
        runner
            .task_gate(self.sched.gate(sched_id))
            .max_steps(quota.max_supersteps)
            .profile(spec.profile)
            .force_mode(ExecMode::Synchronized);
        runner
    }

    /// Admits and starts `job` under `name`, returning a handle to join.
    /// The job runs on its own controller thread; its part-tasks contend
    /// for the server's shared workers under the fair scheduler.
    ///
    /// # Errors
    ///
    /// Returns the typed [`AdmitError`] when admission refuses the spec.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn the job's controller thread.
    pub fn submit<J, M>(
        &self,
        name: &str,
        spec: &JobSpec,
        job: Arc<J>,
        options: RunOptions<J, M>,
    ) -> Result<JobHandle, AdmitError>
    where
        J: Job,
        M: LaunchMode<S> + Send + 'static,
    {
        let (sched_id, account_index) = self.admit(name, spec, JobStatus::Running)?;
        let runner = self.build_runner(sched_id, spec);
        let server = self.clone();
        let job_name = name.to_owned();
        let thread = std::thread::Builder::new()
            .name(format!("ripple-job-{job_name}"))
            .spawn(move || {
                let result = runner.launch(job, options);
                server.settle(account_index, sched_id, &job_name, result.as_ref().ok());
                result
            })
            .expect("spawn job controller thread");
        Ok(JobHandle {
            name: name.to_owned(),
            thread,
        })
    }

    /// Admits `name` as a *resident* job: no controller thread is spawned
    /// — the caller drives launches itself through the returned handle's
    /// runner (a serving loop applying mutation waves, say) and the
    /// admission slot is held until the handle drops.
    ///
    /// # Errors
    ///
    /// Returns the typed [`AdmitError`] when admission refuses the spec.
    pub fn admit_resident(&self, name: &str, spec: &JobSpec) -> Result<ResidentJob<S>, AdmitError> {
        let (sched_id, account_index) = self.admit(name, spec, JobStatus::Resident)?;
        let runner = self.build_runner(sched_id, spec);
        Ok(ResidentJob {
            server: self.clone(),
            name: name.to_owned(),
            sched_id,
            account_index,
            runner,
            store: self.store.clone(),
        })
    }

    /// Folds a finished launch into the job's account and frees its
    /// admission slot.
    fn settle(
        &self,
        account_index: usize,
        sched_id: u64,
        name: &str,
        outcome: Option<&RunOutcome>,
    ) {
        self.sched.unregister(sched_id);
        let sched_account = self.sched.account(sched_id);
        let mut inner = self.lock();
        inner.admitted.remove(name);
        let account = &mut inner.accounts[account_index];
        if let Some(outcome) = outcome {
            account.fold_outcome(outcome);
            account.status = JobStatus::Done;
        } else {
            account.status = JobStatus::Failed;
        }
        if let Some(s) = sched_account {
            account.sched_granted = s.granted;
            account.sched_wait = s.wait;
        }
    }

    /// Refuses all future admissions (running jobs finish normally).
    pub fn shutdown(&self) {
        self.lock().shutting_down = true;
    }

    /// Jobs currently admitted (running or resident).
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.lock().admitted.len()
    }

    /// Accounting snapshots for every job ever admitted, in admission
    /// order.
    #[must_use]
    pub fn accounts(&self) -> Vec<JobAccount> {
        self.lock().accounts.clone()
    }

    /// The account for `name` (the most recent admission under it).
    #[must_use]
    pub fn account(&self, name: &str) -> Option<JobAccount> {
        self.lock()
            .accounts
            .iter()
            .rev()
            .find(|a| a.name == name)
            .cloned()
    }

    /// Per-job accounting as a JSON document:
    /// `{"schema":1,"workers":…,"max_jobs":…,"jobs":[…]}` with one entry
    /// per admitted job carrying run totals, the BSP cost terms (`w_us`,
    /// `h_bytes`, `l_us`) derived from its step profiles, and the
    /// scheduler's grant/wait meters.
    #[must_use]
    pub fn accounting_json(&self) -> String {
        let inner = self.lock();
        let jobs: Vec<String> = inner.accounts.iter().map(JobAccount::json).collect();
        format!(
            "{{\"schema\":1,\"workers\":{},\"max_jobs\":{},\"jobs\":[{}]}}",
            self.config.workers,
            self.config.max_jobs,
            jobs.join(",")
        )
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ServerInner> {
        self.inner.lock().expect("server poisoned")
    }
}

/// An admitted resident job: the caller drives launches on
/// [`ResidentJob::runner`] (each one gated and step-capped like a
/// submitted job's) and records their outcomes; dropping the handle
/// settles the account and frees the admission slot.
pub struct ResidentJob<S: KvStore> {
    server: JobServer<S>,
    name: String,
    sched_id: u64,
    account_index: usize,
    runner: JobRunner<S>,
    store: S,
}

impl<S: KvStore> std::fmt::Debug for ResidentJob<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidentJob")
            .field("name", &self.name)
            .field("sched_id", &self.sched_id)
            .finish_non_exhaustive()
    }
}

impl<S: KvStore> ResidentJob<S> {
    /// The job's admission name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gated runner launches must go through.
    #[must_use]
    pub fn runner(&self) -> &JobRunner<S> {
        &self.runner
    }

    /// Mutable runner access — a serving loop installs its barrier
    /// observer here before the first launch.
    pub fn runner_mut(&mut self) -> &mut JobRunner<S> {
        &mut self.runner
    }

    /// The store the job runs on.
    #[must_use]
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Folds one launch's outcome into the job's account (a serving loop
    /// calls this after every wave).
    pub fn record(&self, outcome: &RunOutcome) {
        let mut inner = self.server.lock();
        inner.accounts[self.account_index].fold_outcome(outcome);
    }

    /// Marks the job failed (the serving loop hit an engine error); the
    /// drop still settles and frees the slot.
    pub fn mark_failed(&self) {
        let mut inner = self.server.lock();
        inner.accounts[self.account_index].status = JobStatus::Failed;
    }
}

impl<S: KvStore> Drop for ResidentJob<S> {
    fn drop(&mut self) {
        self.server.sched.unregister(self.sched_id);
        let sched_account = self.server.sched.account(self.sched_id);
        let mut inner = self.server.lock();
        inner.admitted.remove(&self.name);
        let account = &mut inner.accounts[self.account_index];
        if account.status == JobStatus::Resident {
            account.status = JobStatus::Done;
        }
        if let Some(s) = sched_account {
            account.sched_granted = s.granted;
            account.sched_wait = s.wait;
        }
    }
}
