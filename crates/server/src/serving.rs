//! Serving mode: a resident incremental-SSSP job answering point queries
//! between barriers while mutations stream in.
//!
//! The paper's incremental SSSP (§V-C) is driven in discrete rounds: a
//! driver hands the instance a change batch, the selective-enablement
//! wave runs, the driver reads distances.  A *service* inverts the
//! control flow — mutations arrive continuously on a [`MutationQueue`],
//! a serving loop drains them into batches and applies each batch as one
//! wave on a [`ResidentJob`]'s gated runner, and point queries are
//! answered at any time from the **last barrier's cut**.
//!
//! The distance map is fed by the job itself, not read back from its
//! table: [`SelectiveSssp`](ripple_graph::sssp::SelectiveSssp) reports
//! every distance change through its direct output (K/V EBSP's *direct
//! job output* channel), the serving tier buffers what a step reports,
//! and an observer hooked on [`RunEvent::Step`] applies those changes in
//! place — the engine is paused at the barrier, so the map then holds
//! exactly the writer-consistent cut — plus once more when a launch
//! completes.  A barrier costs what its step changed, never a snapshot of
//! the table.  Queries read the map through a sequence counter and take
//! no lock: they never touch the live table, so they neither block a
//! wave nor observe a half-applied one.
//!
//! The version counter makes staleness observable: it bumps once per
//! barrier and once per completed launch, so a client comparing versions
//! across queries can tell "same barrier" from "newer barrier", and
//! [`ServingSssp::visible`] tells a client whether a wave has landed.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ripple_core::{EbspError, Exporter, RunEvent, RunObserver};
use ripple_graph::generate::{Graph, GraphChange};
use ripple_graph::sssp::SelectiveInstance;
use ripple_graph::{MutationQueue, VertexId, INF};
use ripple_kv::{KvStore, PartId};

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

/// Spins a query makes on a write in progress before it yields its time
/// slice — a writer preempted on the reader's own CPU must get to run.
const SPINS_BEFORE_YIELD: u32 = 64;

/// The queryable distances, indexed by vertex and stamped with a
/// monotonic version: a sequence lock over a fixed array.  Readers take
/// no lock; writers serialize on a mutex.
#[derive(Debug)]
struct DistanceMap {
    /// Twice the version; odd while a writer stores entries.
    seq: AtomicU64,
    dists: Box<[AtomicU32]>,
    writer: Mutex<()>,
}

impl DistanceMap {
    /// `n` vertices, all unreachable, at version 0.
    fn new(n: u32) -> Self {
        Self {
            seq: AtomicU64::new(0),
            dists: (0..n).map(|_| AtomicU32::new(INF)).collect(),
            writer: Mutex::new(()),
        }
    }

    /// Stores `changes` in order and bumps the version; returns how many
    /// named a vertex outside the map (and were dropped).
    fn apply(&self, changes: &[(VertexId, u32)]) -> u64 {
        let _writer = self.writer.lock().expect("distance map writer poisoned");
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        let mut outside = 0;
        for &(v, dist) in changes {
            match self.dists.get(v as usize) {
                Some(entry) => entry.store(dist, Ordering::Relaxed),
                None => outside += 1,
            }
        }
        self.seq.store(seq + 2, Ordering::Release);
        outside
    }

    /// `v`'s distance and the version it belongs to.
    fn read(&self, v: VertexId) -> QueryAnswer {
        let mut spins = 0;
        loop {
            let before = self.seq.load(Ordering::Acquire);
            if before.is_multiple_of(2) {
                let dist = self
                    .dists
                    .get(v as usize)
                    .map(|entry| entry.load(Ordering::Relaxed));
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == before {
                    return QueryAnswer {
                        dist,
                        version: before / 2,
                    };
                }
            }
            spins += 1;
            if spins < SPINS_BEFORE_YIELD {
                std::hint::spin_loop();
            } else {
                spins = 0;
                std::thread::yield_now();
            }
        }
    }

    /// The last completed version.
    fn version(&self) -> u64 {
        self.seq.load(Ordering::Acquire) / 2
    }
}

/// One point query's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryAnswer {
    /// Distance from the source at the answering cut; `None` when
    /// the vertex is outside the loaded graph, [`INF`] when unreachable.
    pub dist: Option<u32>,
    /// The cut's version (0 = no barrier has refreshed yet).
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
    /// Distance-map refreshes (one per barrier plus one per completed
    /// launch), each applying the changes reported since the last.
    pub refreshes: u64,
    /// Reported changes that named a vertex outside the map, and were
    /// dropped (none from a well-formed job).
    pub refresh_errors: u64,
    /// The final map version.
    pub final_version: u64,
}

/// The job's change sink: what the steps since the last refresh reported,
/// in report order.
#[derive(Debug, Default)]
struct Reports(Mutex<Vec<(VertexId, u32)>>);

impl Exporter<VertexId, u32> for Reports {
    fn export(&self, _part: PartId, v: &VertexId, dist: &u32) {
        self.0.lock().expect("reports poisoned").push((*v, *dist));
    }
}

/// The refresh: applies what was reported since the last one and bumps
/// the version.  Called at barriers (engine paused) and after each launch.
#[derive(Debug)]
struct Refresher {
    reports: Arc<Reports>,
    map: Arc<DistanceMap>,
    shared: Arc<ServingShared>,
}

impl Refresher {
    fn refresh(&self) {
        let changes = std::mem::take(&mut *self.reports.0.lock().expect("reports poisoned"));
        let outside = self.map.apply(&changes);
        self.shared.refreshes.fetch_add(1, Ordering::Relaxed);
        self.shared
            .refresh_errors
            .fetch_add(outside, Ordering::Relaxed);
    }
}

impl RunObserver for Refresher {
    fn on_event(&self, event: &RunEvent<'_>) {
        if matches!(event, RunEvent::Step { .. }) {
            self.refresh();
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
    map: Arc<DistanceMap>,
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
        // Edits never create a vertex and the job creates no state, so the
        // initial load's key set, `0..n`, is the map's for good.
        let map = Arc::new(DistanceMap::new(graph.vertex_count()));
        let shared = Arc::new(ServingShared::default());
        let reports = Arc::new(Reports::default());

        let refresher = Arc::new(Refresher {
            reports: Arc::clone(&reports),
            map: Arc::clone(&map),
            shared: Arc::clone(&shared),
        });
        resident.runner_mut().observer(Arc::clone(&refresher) as _);

        let init = SelectiveInstance::initialize_reporting_on(
            resident.runner(),
            resident.store(),
            &table,
            graph,
            source,
            reports,
        );
        let (instance, outcome) = match init {
            Ok(pair) => pair,
            Err(e) => {
                resident.mark_failed();
                return Err(e.into());
            }
        };
        resident.record(&outcome);
        // The launch's refresh: a zero-step solve (empty graph) fired no
        // step event, and the version counts launches too.
        refresher.refresh();

        let queue = MutationQueue::new();
        let poll = server.config().serve_poll;
        let loop_queue = queue.clone();
        let worker = std::thread::Builder::new()
            .name(format!("ripple-serve-{name}"))
            .spawn(move || {
                serve_loop(&resident, &instance, &loop_queue, &refresher, poll);
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

    /// Answers a point query from the last barrier's cut — takes no lock
    /// and never blocks on a running wave.
    #[must_use]
    pub fn query(&self, v: VertexId) -> QueryAnswer {
        self.shared.queries.fetch_add(1, Ordering::Relaxed);
        self.map.read(v)
    }

    /// The current map version (bumps once per refresh).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.map.version()
    }

    /// Waves applied so far; a wave counts once its closing refresh is
    /// visible to queries.
    #[must_use]
    pub fn waves(&self) -> u64 {
        self.shared.waves.load(Ordering::Acquire)
    }

    /// Whether wave number `wave` (the first is 1) has landed: every query
    /// issued after this returns `true` answers from a cut that includes
    /// that wave's changes.
    #[must_use]
    pub fn visible(&self, wave: u64) -> bool {
        self.waves() >= wave
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
            waves: self.waves(),
            mutations_applied: self.shared.mutations_applied.load(Ordering::Relaxed),
            queries: self.shared.queries.load(Ordering::Relaxed),
            refreshes: self.shared.refreshes.load(Ordering::Relaxed),
            refresh_errors: self.shared.refresh_errors.load(Ordering::Relaxed),
            final_version: self.map.version(),
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
    queue: &MutationQueue,
    refresher: &Refresher,
    poll: Duration,
) {
    let shared = &refresher.shared;
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
                shared
                    .mutations_applied
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                // The launch's refresh: its steps' changes are applied
                // already (a wave whose changes were all no-ops ran none),
                // and the version counts launches too.
                refresher.refresh();
                // Counted after its refresh, so `visible` needs nothing else.
                shared.waves.fetch_add(1, Ordering::Release);
            }
            Err(e) => {
                resident.mark_failed();
                *shared.error.lock().expect("serving poisoned") = Some(e);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader never pairs an entry with a version it does not belong
    /// to: the writer sets every entry to the version it is writing, so a
    /// torn read answers a distance other than its version.  Each reader
    /// keeps reading until it has seen the writer complete a few versions,
    /// so the two have run at the same time.
    #[test]
    fn queries_never_see_a_torn_map() {
        const N: u32 = 4_096;
        const READS: u32 = 100_000;
        let map = Arc::new(DistanceMap::new(N));
        let stamp = |version: u64| -> Vec<(VertexId, u32)> {
            let dist = u32::try_from(version).expect("test versions fit a u32");
            (0..N).map(|v| (v, dist)).collect()
        };
        assert_eq!(map.apply(&stamp(1)), 0);
        let readers: Vec<_> = (0..2u32)
            .map(|r| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    let (mut last, mut i) = (0, 0u32);
                    while i < READS || last < 4 {
                        i = i.wrapping_add(1);
                        let v = (i.wrapping_mul(2_654_435_761) ^ r) % N;
                        let answer = map.read(v);
                        assert_eq!(answer.dist.map(u64::from), Some(answer.version));
                        assert!(answer.version >= last, "versions must be monotonic");
                        last = answer.version;
                    }
                    last
                })
            })
            .collect();
        let mut written = 1;
        while !readers.iter().all(std::thread::JoinHandle::is_finished) {
            written += 1;
            assert_eq!(map.apply(&stamp(written)), 0);
        }
        for reader in readers {
            assert!(reader.join().expect("reader panicked") <= written);
        }
        assert_eq!(map.version(), written);
    }

    #[test]
    fn a_change_outside_the_map_is_counted_and_dropped() {
        let map = DistanceMap::new(3);
        assert_eq!(map.apply(&[(1, 4), (3, 7), (9, 1)]), 2);
        assert_eq!(
            map.read(1),
            QueryAnswer {
                dist: Some(4),
                version: 1
            }
        );
        assert_eq!(map.read(0).dist, Some(INF));
        assert_eq!(map.read(3).dist, None);
    }
}
