//! Loaders: how a job's initial condition is produced (paper §II).
//!
//! "A job's initial condition includes: initial local component states, a
//! set of incoming messages, initial aggregator states, and a designation
//! of which additional components are enabled."  A loader computes
//! key/value pairs from some source and feeds them to the engine through a
//! [`LoadSink`]; it may also enable components and feed aggregators.

use ripple_kv::{FnPairConsumer, KvStore, RoutedKey};
use ripple_wire::from_wire;

use crate::{AggValue, EbspError, Job};

/// The engine-side receiver of a loader's output.
pub trait LoadSink<J: Job> {
    /// Sets the initial state of component `key` in state table `tab`.
    ///
    /// # Errors
    ///
    /// Fails on bad table index or a store error.
    fn state(&mut self, tab: usize, key: J::Key, state: J::State) -> Result<(), EbspError>;

    /// Queues an initial message for `to` (delivering it — and enabling
    /// `to` — in step 1).
    ///
    /// # Errors
    ///
    /// Fails on a store error.
    fn message(&mut self, to: J::Key, msg: J::Message) -> Result<(), EbspError>;

    /// Enables component `key` for step 1 without sending it a message.
    ///
    /// # Errors
    ///
    /// Fails on a store error.
    fn enable(&mut self, key: J::Key) -> Result<(), EbspError>;

    /// Supplies initial input to the aggregator named `name`.
    ///
    /// # Errors
    ///
    /// Fails with [`EbspError::NoSuchAggregator`] for undeclared names.
    fn aggregate(&mut self, name: &str, value: AggValue) -> Result<(), EbspError>;
}

/// Computes a job's initial condition from some source.
pub trait Loader<J: Job>: Send {
    /// Feeds the initial condition into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates sink and source errors.
    fn load(self: Box<Self>, sink: &mut dyn LoadSink<J>) -> Result<(), EbspError>;
}

/// A loader built from a closure — the usual way to write ad-hoc loaders.
///
/// # Examples
///
/// ```no_run
/// # use ripple_core::{FnLoader, Job, LoadSink, EbspError};
/// # fn with_job<J: Job<Key = u32, State = f64>>() -> Box<dyn ripple_core::Loader<J>> {
/// Box::new(FnLoader::new(|sink: &mut dyn LoadSink<J>| {
///     for v in 0..100u32 {
///         sink.state(0, v, 0.0)?;
///         sink.enable(v)?;
///     }
///     Ok(())
/// }))
/// # }
/// ```
pub struct FnLoader<F> {
    f: F,
}

impl<F> FnLoader<F> {
    /// Wraps `f`.
    pub fn new(f: F) -> Self {
        Self { f }
    }
}

impl<J, F> Loader<J> for FnLoader<F>
where
    J: Job,
    F: FnOnce(&mut dyn LoadSink<J>) -> Result<(), EbspError> + Send,
{
    fn load(self: Box<Self>, sink: &mut dyn LoadSink<J>) -> Result<(), EbspError> {
        (self.f)(sink)
    }
}

impl<F> std::fmt::Debug for FnLoader<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnLoader").finish_non_exhaustive()
    }
}

/// A loader that installs a batch of (key, state) pairs into one state
/// table, optionally enabling each component.
#[derive(Debug)]
pub struct PairsLoader<K, V> {
    tab: usize,
    pairs: Vec<(K, V)>,
    enable: bool,
}

impl<K, V> PairsLoader<K, V> {
    /// States for table `tab`, with components left disabled.
    pub fn new(tab: usize, pairs: Vec<(K, V)>) -> Self {
        Self {
            tab,
            pairs,
            enable: false,
        }
    }

    /// Also enable every loaded component for step 1.
    pub fn enabling(mut self) -> Self {
        self.enable = true;
        self
    }
}

impl<J> Loader<J> for PairsLoader<J::Key, J::State>
where
    J: Job,
{
    fn load(self: Box<Self>, sink: &mut dyn LoadSink<J>) -> Result<(), EbspError> {
        let enable = self.enable;
        let tab = self.tab;
        for (key, state) in self.pairs {
            if enable {
                sink.enable(key.clone())?;
            }
            sink.state(tab, key, state)?;
        }
        Ok(())
    }
}

/// A loader that reads a job's initial condition out of an *existing*
/// key/value table: each `(key, state)` pair of the source table becomes a
/// component state (and optionally an enablement).  This is the
/// application-integration story of §II — "running a new analysis need not
/// involve changing existing data".
pub struct TableLoader<S: KvStore> {
    store: S,
    source: S::Table,
    tab: usize,
    enable: bool,
}

impl<S: KvStore> TableLoader<S> {
    /// Loads every pair of `source` into state table `tab`.
    pub fn new(store: &S, source: &S::Table, tab: usize) -> Self {
        Self {
            store: store.clone(),
            source: source.clone(),
            tab,
            enable: false,
        }
    }

    /// Also enable every loaded component for step 1.
    pub fn enabling(mut self) -> Self {
        self.enable = true;
        self
    }
}

impl<S, J> Loader<J> for TableLoader<S>
where
    S: KvStore,
    J: Job,
{
    fn load(self: Box<Self>, sink: &mut dyn LoadSink<J>) -> Result<(), EbspError> {
        let consumer = FnPairConsumer::new(|key: &RoutedKey, value: &[u8]| {
            (key.clone(), bytes::Bytes::copy_from_slice(value))
        });
        let pairs = self.store.enumerate_pairs(&self.source, consumer)?;
        for (routed, state_bytes) in pairs {
            let key: J::Key = from_wire(routed.body())?;
            let state: J::State = from_wire(&state_bytes)?;
            if self.enable {
                sink.enable(key.clone())?;
            }
            sink.state(self.tab, key, state)?;
        }
        Ok(())
    }
}
