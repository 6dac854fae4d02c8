//! One launch configuration for every run mode.
//!
//! [`JobRunner::launch`](crate::JobRunner::launch) replaced five parallel
//! entry points (`run`, `run_with_loaders`, `run_healable`,
//! `run_recoverable`, `run_durable` — deprecated for a release cycle, now
//! removed) with a single method taking a [`RunOptions`].  The options value starts basic and is upgraded by
//! builder methods — [`RunOptions::healing`], [`RunOptions::recovery`],
//! [`RunOptions::durable`] — each of which moves the value into a new
//! *mode* type.  The mode is checked against the store at compile time:
//! launching a healing run needs a [`HealableStore`](ripple_kv::HealableStore),
//! a recoverable run needs a healable
//! [`RecoverableStore`](ripple_kv::RecoverableStore), and a durable run
//! additionally needs a [`DurableStore`](ripple_kv::DurableStore).  Asking
//! a store for a capability it lacks is a type error at the `launch` call,
//! not a runtime surprise.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use ripple_core::{ComputeContext, EbspError, FnLoader, Job, JobRunner, LoadSink, RunOptions};
//! use ripple_store_mem::MemStore;
//!
//! struct Noop;
//! impl Job for Noop {
//!     type Key = u32;
//!     type State = u32;
//!     type Message = ();
//!     type OutKey = ();
//!     type OutValue = ();
//!     fn state_tables(&self) -> Vec<String> {
//!         vec!["s".to_owned()]
//!     }
//!     fn compute(&self, _ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
//!         Ok(false)
//!     }
//! }
//!
//! # fn main() -> Result<(), EbspError> {
//! let store = MemStore::builder().default_parts(2).build();
//! let loader = FnLoader::new(|sink: &mut dyn LoadSink<Noop>| {
//!     sink.state(0, 1, 7)?;
//!     sink.enable(1)
//! });
//! // A basic run with an extra loader; swap `.healing()` etc. in for more.
//! let outcome = JobRunner::new(store)
//!     .launch(Arc::new(Noop), RunOptions::new().loader(Box::new(loader)))?;
//! assert_eq!(outcome.steps, 1);
//! # Ok(())
//! # }
//! ```

use std::marker::PhantomData;
use std::sync::Arc;

use ripple_kv::KvStore;

use crate::{AuditProbe, EbspError, Job, JobRunner, Loader, RunOutcome};

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Basic {}
    impl Sealed for super::Heal {}
    impl Sealed for super::Recover {}
    impl Sealed for super::Durable {}
}

/// Mode marker: plain execution against any [`KvStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Basic;

/// Mode marker: unsynchronized part-healing; needs a
/// [`HealableStore`](ripple_kv::HealableStore).
#[derive(Debug, Clone, Copy, Default)]
pub struct Heal;

/// Mode marker: barrier checkpointing + rollback recovery; needs a
/// [`RecoverableStore`](ripple_kv::RecoverableStore) that can also heal.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recover;

/// Mode marker: durable barrier commits + cross-restart resume; needs
/// recovery plus a [`DurableStore`](ripple_kv::DurableStore).
#[derive(Debug, Clone, Copy, Default)]
pub struct Durable;

/// A run mode [`JobRunner::launch`] can execute against stores of type `S`.
///
/// Implemented by the mode markers [`Basic`], [`Heal`], [`Recover`] and
/// [`Durable`] — each under exactly the store-trait bounds that mode
/// needs, which is how `launch` checks capabilities at compile time.  The
/// trait is sealed; the four markers are the complete set of modes.
pub trait LaunchMode<S: KvStore>: sealed::Sealed + Sized {
    /// Runs `job` on `runner` in this mode.  Called by
    /// [`JobRunner::launch`]; not part of the public API surface.
    #[doc(hidden)]
    fn launch_on<J: Job>(
        runner: &JobRunner<S>,
        job: Arc<J>,
        options: RunOptions<J, Self>,
    ) -> Result<RunOutcome, EbspError>;
}

/// The audit-related launch configuration, split out of [`RunOptions`] so
/// the runner's internal entry points can thread it without generics.
pub(crate) struct AuditOpts {
    pub(crate) probe: Option<Arc<dyn AuditProbe>>,
    pub(crate) shuffle_seed: Option<u64>,
}

/// Per-launch configuration for [`JobRunner::launch`]: extra loaders plus
/// the run mode, selected by the typestate builder methods.
///
/// Runner-level knobs (step caps, retry policy, profiling, checkpoint
/// interval) stay on [`JobRunner`], which is reused across launches;
/// `RunOptions` holds what varies per run.
pub struct RunOptions<J: Job, M = Basic> {
    loaders: Vec<Box<dyn Loader<J>>>,
    audit_probe: Option<Arc<dyn AuditProbe>>,
    shuffle_seed: Option<u64>,
    _mode: PhantomData<M>,
}

impl<J: Job> RunOptions<J, Basic> {
    /// Options for a basic run: no extra loaders, no recovery machinery.
    pub fn new() -> Self {
        Self {
            loaders: Vec::new(),
            audit_probe: None,
            shuffle_seed: None,
            _mode: PhantomData,
        }
    }
}

impl<J: Job> Default for RunOptions<J, Basic> {
    fn default() -> Self {
        Self::new()
    }
}

impl<J: Job, M> RunOptions<J, M> {
    /// Appends extra loaders, run after the job's own declared loaders.
    pub fn loaders(mut self, loaders: Vec<Box<dyn Loader<J>>>) -> Self {
        self.loaders.extend(loaders);
        self
    }

    /// Appends one extra loader, run after the job's own declared loaders.
    pub fn loader(mut self, loader: Box<dyn Loader<J>>) -> Self {
        self.loaders.push(loader);
        self
    }

    /// Installs audit instrumentation: the engines call `probe` on every
    /// compute invocation, send, state access, continue signal, and
    /// post-combine delivery.  Used by the `ripple-audit` conformance
    /// checker; without a probe the run takes the unchanged default path.
    pub fn audit(mut self, probe: Arc<dyn AuditProbe>) -> Self {
        self.audit_probe = Some(probe);
        self
    }

    /// Replaces the plan's per-part invocation ordering (sorted or
    /// arrival-ordered) with a deterministic pseudo-random permutation
    /// keyed by `(seed, step, part)`.  This deliberately breaks the
    /// engine's `needs-order` guarantee — it exists so the auditor can
    /// probe whether declared ordering properties actually matter; do not
    /// use it outside audits.
    pub fn shuffle_delivery(mut self, seed: u64) -> Self {
        self.shuffle_seed = Some(seed);
        self
    }

    /// Splits the options into loaders and audit configuration, consumed
    /// at launch.
    pub(crate) fn into_parts(self) -> (Vec<Box<dyn Loader<J>>>, AuditOpts) {
        (
            self.loaders,
            AuditOpts {
                probe: self.audit_probe,
                shuffle_seed: self.shuffle_seed,
            },
        )
    }

    fn into_mode<N>(self) -> RunOptions<J, N> {
        RunOptions {
            loaders: self.loaders,
            audit_probe: self.audit_probe,
            shuffle_seed: self.shuffle_seed,
            _mode: PhantomData,
        }
    }
}

impl<J: Job> RunOptions<J, Basic> {
    /// Selects store-side part healing for unsynchronized runs (formerly
    /// the `run_healable` wrapper): a worker whose part fails underneath it promotes
    /// replicas and redelivers in-flight work.  Launching then requires a
    /// [`HealableStore`](ripple_kv::HealableStore).
    pub fn healing(self) -> RunOptions<J, Heal> {
        self.into_mode()
    }

    /// Selects barrier checkpointing and automatic rollback recovery
    /// (formerly the `run_recoverable` wrapper).  Launching then requires a
    /// [`RecoverableStore`](ripple_kv::RecoverableStore) that is also
    /// healable; the checkpoint cadence comes from
    /// [`JobRunner::checkpoint_interval`] (default: every barrier).
    pub fn recovery(self) -> RunOptions<J, Recover> {
        self.into_mode()
    }
}

impl<J: Job> RunOptions<J, Recover> {
    /// Upgrades recovery to durable barrier commits with cross-restart
    /// resume (formerly the `run_durable` wrapper).  Launching then additionally
    /// requires a [`DurableStore`](ripple_kv::DurableStore).
    pub fn durable(self) -> RunOptions<J, Durable> {
        self.into_mode()
    }
}

impl<J: Job, M> std::fmt::Debug for RunOptions<J, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("mode", &std::any::type_name::<M>())
            .field("extra_loaders", &self.loaders.len())
            .field("audit", &self.audit_probe.is_some())
            .field("shuffle_seed", &self.shuffle_seed)
            .finish()
    }
}
