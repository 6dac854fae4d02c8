//! Serving mode: a resident incremental-SSSP job answering point queries
//! between barriers while mutations stream in.
//!
//! The paper's incremental SSSP (§V-C) is driven in discrete rounds: a
//! driver hands the instance a change batch, the selective-enablement
//! wave runs, the driver reads distances.  A *service* inverts the
//! control flow — mutations arrive continuously on a [`MutationQueue`],
//! a serving loop drains them into batches and applies each batch as one
//! wave on a [`ResidentJob`]'s gated runner, and point queries are
//! answered at any time from the **last consistent barrier snapshot**:
//! an observer hooked on [`RunObserver::on_step`] (the engine is paused
//! at the barrier, so the cut is writer-consistent) snapshots the state
//! table, decodes it into a versioned distance map behind an `RwLock`,
//! and queries read only that map — they never touch the live table, so
//! they neither block nor observe a half-applied wave.
//!
//! The version counter makes staleness observable: it bumps once per
//! refresh, so a client comparing versions across queries can tell "same
//! barrier" from "newer barrier".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use ripple_core::{AggregateSnapshot, EbspError, RunObserver};
use ripple_graph::generate::{Graph, GraphChange};
use ripple_graph::sssp::{distances_from_snapshot, SelectiveInstance};
use ripple_graph::{MutationQueue, VertexId, INF};
use ripple_kv::KvStore;

use crate::quota::{AdmitError, JobSpec};
use crate::server::{JobServer, ResidentJob};

/// Most mutations folded into one wave.
const WAVE_BATCH_MAX: usize = 1024;

/// Why serving could not start or finish.
#[derive(Debug)]
pub enum ServeError {
    /// The server refused admission.
    Admit(AdmitError),
    /// The initial solve or a wave failed in the engine.
    Engine(EbspError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Admit(e) => write!(f, "admission refused: {e}"),
            Self::Engine(e) => write!(f, "serving failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Admit(e) => Some(e),
            Self::Engine(e) => Some(e),
        }
    }
}

impl From<AdmitError> for ServeError {
    fn from(e: AdmitError) -> Self {
        Self::Admit(e)
    }
}

impl From<EbspError> for ServeError {
    fn from(e: EbspError) -> Self {
        Self::Engine(e)
    }
}

/// The queryable product of the last refresh: dense distances indexed by
/// vertex, stamped with a monotonic version.
#[derive(Debug, Default)]
struct DistanceMap {
    version: u64,
    dists: Vec<u32>,
}

/// One point query's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryAnswer {
    /// Distance from the source at the answering snapshot; `None` when
    /// the vertex is outside the loaded graph, [`INF`] when unreachable.
    pub dist: Option<u32>,
    /// The snapshot's version (0 = no barrier has refreshed yet).
    pub version: u64,
}

impl QueryAnswer {
    /// True when the vertex was known and reachable.
    #[must_use]
    pub fn reachable(&self) -> bool {
        matches!(self.dist, Some(d) if d != INF)
    }
}

#[derive(Debug, Default)]
struct ServingShared {
    waves: AtomicU64,
    mutations_applied: AtomicU64,
    queries: AtomicU64,
    refreshes: AtomicU64,
    refresh_errors: AtomicU64,
    error: Mutex<Option<EbspError>>,
}

/// Lifetime summary returned by [`ServingSssp::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingReport {
    /// Waves applied (the initial solve is not a wave).
    pub waves: u64,
    /// Mutations folded into those waves.
    pub mutations_applied: u64,
    /// Point queries answered.
    pub queries: u64,
    /// Snapshot refreshes performed (≥ one per barrier plus one per
    /// wave's tail).
    pub refreshes: u64,
    /// Refreshes that failed (snapshot or decode error).
    pub refresh_errors: u64,
    /// The final snapshot version.
    pub final_version: u64,
}

/// Refreshes the distance map from the state table's current consistent
/// cut.  Called at barriers (engine paused) and after each wave.
fn refresh<S: KvStore>(
    store: &S,
    table: &str,
    map: &RwLock<DistanceMap>,
    shared: &ServingShared,
) -> Result<(), EbspError> {
    let handle = store.lookup_table(table).map_err(EbspError::Kv)?;
    let snapshot = store.snapshot_table(&handle).map_err(EbspError::Kv)?;
    let dists = distances_from_snapshot(&snapshot)?;
    let mut dense = vec![INF; dists.last().map_or(0, |&(v, _)| v as usize + 1)];
    for (v, d) in dists {
        dense[v as usize] = d;
    }
    let mut map = map.write().expect("distance map poisoned");
    map.version += 1;
    map.dists = dense;
    shared.refreshes.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// The barrier hook: refresh on every completed step.
struct SnapshotRefresher<S: KvStore> {
    store: S,
    table: String,
    map: Arc<RwLock<DistanceMap>>,
    shared: Arc<ServingShared>,
}

impl<S: KvStore> RunObserver for SnapshotRefresher<S> {
    fn on_step(&self, _step: u32, _enabled: u64, _aggregates: &AggregateSnapshot) {
        if refresh(&self.store, &self.table, &self.map, &self.shared).is_err() {
            self.shared.refresh_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A resident incremental-SSSP serving job.
///
/// Built by [`ServingSssp::start`]; push mutations with
/// [`ServingSssp::push`], read distances with [`ServingSssp::query`],
/// and shut down with [`ServingSssp::finish`].
#[derive(Debug)]
pub struct ServingSssp {
    queue: MutationQueue,
    map: Arc<RwLock<DistanceMap>>,
    shared: Arc<ServingShared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl ServingSssp {
    /// Admits `name` on `server`, loads `graph`, runs the initial solve
    /// from `source` on the resident gated runner, and starts the serving
    /// loop.
    ///
    /// # Errors
    ///
    /// [`ServeError::Admit`] when the server refuses the spec;
    /// [`ServeError::Engine`] when the initial solve fails.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn the serving thread.
    pub fn start<S: KvStore>(
        server: &JobServer<S>,
        name: &str,
        spec: &JobSpec,
        graph: &Graph,
        source: VertexId,
    ) -> Result<Self, ServeError> {
        let mut resident = server.admit_resident(name, spec)?;
        let table = format!("{name}__sssp");
        let map = Arc::new(RwLock::new(DistanceMap::default()));
        let shared = Arc::new(ServingShared::default());

        let refresher = Arc::new(SnapshotRefresher {
            store: resident.store().clone(),
            table: table.clone(),
            map: Arc::clone(&map),
            shared: Arc::clone(&shared),
        });
        resident.runner_mut().observer(refresher);

        let init = SelectiveInstance::initialize_on(
            resident.runner(),
            resident.store(),
            &table,
            graph,
            source,
        );
        let (instance, outcome) = match init {
            Ok(pair) => pair,
            Err(e) => {
                resident.mark_failed();
                return Err(e.into());
            }
        };
        resident.record(&outcome);
        // A zero-step solve (empty graph) never fired on_step; make sure
        // at least one consistent snapshot is queryable before returning.
        refresh(resident.store(), &table, &map, &shared)?;

        let queue = MutationQueue::new();
        let poll = server.config().serve_poll;
        let loop_queue = queue.clone();
        let loop_map = Arc::clone(&map);
        let loop_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name(format!("ripple-serve-{name}"))
            .spawn(move || {
                serve_loop(
                    &resident,
                    &instance,
                    &table,
                    &loop_queue,
                    &loop_map,
                    &loop_shared,
                    poll,
                );
                // `resident` drops here, settling the account and freeing
                // the admission slot.
            })
            .expect("spawn serving thread");

        Ok(Self {
            queue,
            map,
            shared,
            worker: Some(worker),
        })
    }

    /// Enqueues one graph mutation; `false` once the service is
    /// finishing.
    #[must_use]
    pub fn push(&self, change: GraphChange) -> bool {
        self.queue.push(change)
    }

    /// Enqueues a batch of mutations; returns how many were accepted.
    #[must_use]
    pub fn push_batch(&self, changes: &[GraphChange]) -> usize {
        self.queue.push_batch(changes)
    }

    /// Pending (pushed, not yet applied) mutation count.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Answers a point query from the last consistent barrier snapshot —
    /// never blocks on a running wave.
    ///
    /// # Panics
    ///
    /// Panics if the distance-map lock is poisoned (a refresher
    /// panicked).
    #[must_use]
    pub fn query(&self, v: VertexId) -> QueryAnswer {
        self.shared.queries.fetch_add(1, Ordering::Relaxed);
        let map = self.map.read().expect("distance map poisoned");
        QueryAnswer {
            dist: map.dists.get(v as usize).copied(),
            version: map.version,
        }
    }

    /// The current snapshot version (bumps once per refresh).
    ///
    /// # Panics
    ///
    /// Panics if the distance-map lock is poisoned (a refresher
    /// panicked).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.map.read().expect("distance map poisoned").version
    }

    /// Waves applied so far.
    #[must_use]
    pub fn waves(&self) -> u64 {
        self.shared.waves.load(Ordering::Relaxed)
    }

    /// Closes the mutation queue, drains what is pending, stops the
    /// serving loop, and reports.
    ///
    /// # Errors
    ///
    /// Returns the engine error that stopped the loop early, if any.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the serving thread.
    pub fn finish(mut self) -> Result<ServingReport, EbspError> {
        self.queue.close();
        if let Some(worker) = self.worker.take() {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        if let Some(e) = self.shared.error.lock().expect("serving poisoned").take() {
            return Err(e);
        }
        Ok(ServingReport {
            waves: self.shared.waves.load(Ordering::Relaxed),
            mutations_applied: self.shared.mutations_applied.load(Ordering::Relaxed),
            queries: self.shared.queries.load(Ordering::Relaxed),
            refreshes: self.shared.refreshes.load(Ordering::Relaxed),
            refresh_errors: self.shared.refresh_errors.load(Ordering::Relaxed),
            final_version: self.map.read().expect("distance map poisoned").version,
        })
    }
}

impl Drop for ServingSssp {
    fn drop(&mut self) {
        self.queue.close();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The serving loop: drain → wave → refresh, until the queue closes and
/// empties.
fn serve_loop<S: KvStore>(
    resident: &ResidentJob<S>,
    instance: &SelectiveInstance<S>,
    table: &str,
    queue: &MutationQueue,
    map: &RwLock<DistanceMap>,
    shared: &ServingShared,
    poll: Duration,
) {
    loop {
        let batch = queue.wait_drain(WAVE_BATCH_MAX, poll);
        if batch.is_empty() {
            if queue.is_closed() && queue.is_empty() {
                break;
            }
            continue;
        }
        match instance.apply_batch_on(resident.runner(), &batch) {
            Ok(outcome) => {
                resident.record(&outcome);
                shared.waves.fetch_add(1, Ordering::Relaxed);
                shared
                    .mutations_applied
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                // A wave whose changes were all no-ops runs zero steps and
                // fires no barrier; refresh so direct state edits (the
                // incremental bookkeeping) still become visible.
                if refresh(resident.store(), table, map, shared).is_err() {
                    shared.refresh_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) => {
                resident.mark_failed();
                *shared.error.lock().expect("serving poisoned") = Some(e);
                break;
            }
        }
    }
}
