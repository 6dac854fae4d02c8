//! Incremental single-source shortest paths on a time-varying undirected
//! graph (paper §V-C).
//!
//! Once distances are solved on an initial graph, each batch of primitive
//! changes (edge additions/removals) triggers an update.  Two variants:
//!
//! - **selective enablement** ([`SelectiveSssp`]): each vertex stores, per
//!   neighbor, the distance value most recently received from it, "which
//!   makes the incrementality possible": a vertex need not hear from every
//!   neighbor every iteration.  Each distance message carries the sender's
//!   id and current distance; the job's combiner does not combine.  Only
//!   vertices touched by the change wave run — work is proportional to the
//!   blast radius of the batch, not to graph size;
//! - **full scan** ([`FullScanInstance`]): MapReduce-style — a series
//!   of two-step jobs over *every* vertex, each map sending its full state
//!   to itself plus distance updates along edges, each reduce recomputing;
//!   an aggregator counts changed vertices and an external driver loops
//!   until none change.  If the batch removed edges, a first wave raises
//!   to +∞ every annotation that critically depended on a removed edge,
//!   then a second wave lowers annotations to their supported values.
//!
//! Distances are hop counts; [`crate::INF`] marks unreachable.
//! Distance values are capped at the vertex count (any true distance is
//! below it), which bounds the count-to-infinity behaviour a
//! distance-vector scheme exhibits when a region is disconnected.

use std::collections::HashMap;
use std::sync::Arc;

use ripple_core::{
    AggValue, Aggregate, ComputeContext, EbspError, Exporter, FnLoader, Job, JobProperties,
    JobRunner, LoadSink, Loader, RunMetrics, RunOptions, RunOutcome, SumI64,
};
use ripple_kv::{
    DurableStore, HealableStore, KvError, KvStore, PartId, PartView, RecoverableStore, Table,
};
use ripple_wire::{from_wire, to_wire, ByteReader, ByteWriter, Decode, Encode, WireError};

use crate::generate::{Graph, GraphChange, MutableGraph};
use crate::{VertexId, INF};

const CHANGED: &str = "changed";

fn saturating_inc(d: u32) -> u32 {
    if d == INF {
        INF
    } else {
        d + 1
    }
}

/// Caps a computed distance at the vertex count: no real path is that
/// long, so anything at or above it is unreachable.
fn cap(d: u32, n: u32) -> u32 {
    if d >= n {
        INF
    } else {
        d
    }
}

// ===========================================================================
// Selective-enablement variant
// ===========================================================================

/// Selective-variant vertex state, joined: parallel neighbor and
/// neighbor-distance arrays (the bookkeeping that buys incrementality) plus
/// the current distance.
///
/// The job keeps it in two co-partitioned state tables, as the two
/// [`SelRecord`]s of [`SelState::into_records`]; this joined view is what
/// the edit round edits.  Its own codec is the single-record format of
/// earlier builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelState {
    /// Neighbor ids.
    pub neighbors: Vec<VertexId>,
    /// The distance most recently received from each neighbor (parallel to
    /// `neighbors`).
    pub neighbor_dists: Vec<u32>,
    /// This vertex's current distance from the source.
    pub dist: u32,
}

impl SelState {
    /// Splits the joined view into its records: the one for the
    /// instance's own table, then the one for [`adjacency_table`].
    #[must_use]
    pub fn into_records(self) -> [SelRecord; 2] {
        [
            SelRecord::Dists {
                neighbor_dists: self.neighbor_dists,
                dist: self.dist,
            },
            SelRecord::Adj(self.neighbors),
        ]
    }

    /// Joins a vertex's two records.
    ///
    /// # Errors
    ///
    /// Fails with [`WireError::InvalidTag`] if `dists` is not a
    /// [`SelRecord::Dists`] or `adj` not a [`SelRecord::Adj`].
    pub fn from_records(dists: SelRecord, adj: SelRecord) -> Result<Self, WireError> {
        let (neighbor_dists, dist) = dists.into_dists()?;
        Ok(Self {
            neighbors: adj.into_adj()?,
            neighbor_dists,
            dist,
        })
    }
}

/// A vertex's distance from what it last heard from its neighbors: one more
/// than the least, capped at the vertex count `n`; 0 at the source.
fn recompute(neighbor_dists: &[u32], me: VertexId, source: VertexId, n: u32) -> u32 {
    if me == source {
        return 0;
    }
    let best = neighbor_dists
        .iter()
        .copied()
        .min()
        .map_or(INF, saturating_inc);
    cap(best, n)
}

impl Encode for SelState {
    fn encode(&self, w: &mut ByteWriter) {
        self.neighbors.encode(w);
        self.neighbor_dists.encode(w);
        self.dist.encode(w);
    }
    fn size_hint(&self) -> usize {
        self.neighbors.size_hint() + self.neighbor_dists.size_hint() + 5
    }
}

impl Decode for SelState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            neighbors: Vec::decode(r)?,
            neighbor_dists: Vec::decode(r)?,
            dist: u32::decode(r)?,
        })
    }
}

/// What [`adjacency_table`] appends to the instance's table name.
const ADJ_SUFFIX: &str = "__adj";

/// The name of the table holding the neighbor ids of the selective
/// instance that lives in `table`.
#[must_use]
pub fn adjacency_table(table: &str) -> String {
    format!("{table}{ADJ_SUFFIX}")
}

/// A record of the selective variant's state: a vertex has one in each of
/// the job's two co-partitioned tables (K/V EBSP factors a component's
/// state into several key/value tables).  A message changes what a vertex
/// last heard, never who its neighbors are, so an invocation rewrites only
/// its [`SelRecord::Dists`].  One type serves both tables because a job
/// has one state type; the leading tag byte says which record it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelRecord {
    /// The record in the instance's own table: the distance most recently
    /// received from each neighbor (parallel to the neighbor ids of the
    /// vertex's [`SelRecord::Adj`]) and the vertex's own distance, as
    /// varints — hop counts are small, and [`INF`] is the only wide one.
    /// Every invocation that heard news rewrites it.
    Dists {
        /// The distance most recently received from each neighbor.
        neighbor_dists: Vec<u32>,
        /// This vertex's current distance from the source.
        dist: u32,
    },
    /// The record in [`adjacency_table`]: the neighbor ids, a length
    /// varint then little-endian `u32`s, so every invocation reads it back
    /// as one bulk copy.  Written only by the loader and the edit round.
    Adj(Vec<VertexId>),
}

const DISTS_TAG: u8 = 0;
const ADJ_TAG: u8 = 1;

impl SelRecord {
    fn into_dists(self) -> Result<(Vec<u32>, u32), WireError> {
        match self {
            Self::Dists {
                neighbor_dists,
                dist,
            } => Ok((neighbor_dists, dist)),
            Self::Adj(_) => Err(misplaced(ADJ_TAG)),
        }
    }

    fn into_adj(self) -> Result<Vec<VertexId>, WireError> {
        match self {
            Self::Adj(neighbors) => Ok(neighbors),
            Self::Dists { .. } => Err(misplaced(DISTS_TAG)),
        }
    }
}

/// A record found in the other table.
fn misplaced(tag: u8) -> WireError {
    WireError::InvalidTag {
        target: "SelRecord (in the other table)",
        tag,
    }
}

impl Encode for SelRecord {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Self::Dists {
                neighbor_dists,
                dist,
            } => {
                w.push(DISTS_TAG);
                neighbor_dists.encode(w);
                dist.encode(w);
            }
            Self::Adj(neighbors) => {
                w.push(ADJ_TAG);
                (neighbors.len() as u64).encode(w);
                w.reserve(4 * neighbors.len());
                for v in neighbors {
                    w.extend(&v.to_le_bytes());
                }
            }
        }
    }
    fn size_hint(&self) -> usize {
        match self {
            Self::Dists { neighbor_dists, .. } => 1 + neighbor_dists.size_hint() + 5,
            Self::Adj(neighbors) => 1 + 10 + 4 * neighbors.len(),
        }
    }
}

impl Decode for SelRecord {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.read_byte()? {
            DISTS_TAG => Ok(Self::Dists {
                neighbor_dists: Vec::decode(r)?,
                dist: u32::decode(r)?,
            }),
            ADJ_TAG => {
                let declared = u64::decode(r)?;
                let len = r.check_len(declared, 4)?;
                let words = r.read_slice(4 * len)?;
                Ok(Self::Adj(
                    words
                        .chunks_exact(4)
                        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                        .collect(),
                ))
            }
            tag => Err(WireError::InvalidTag {
                target: "SelRecord",
                tag,
            }),
        }
    }
}

/// The `dist` of an encoded [`FsState`], or of a [`SelRecord::Dists`]
/// once its tag is read: the list before it is passed over, not built —
/// reading distances back is one scalar per vertex.
#[derive(Clone)]
struct DistAfterList(u32);

impl Decode for DistAfterList {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Vec::<u32>::skip(r)?;
        Ok(Self(u32::decode(r)?))
    }
}

/// The `dist` of an encoded [`SelRecord::Dists`].
#[derive(Clone)]
struct SelDist(u32);

impl Decode for SelDist {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.read_byte()? {
            DISTS_TAG => Ok(Self(DistAfterList::decode(r)?.0)),
            tag => Err(misplaced(tag)),
        }
    }
}

/// Where a [`SelectiveSssp`] reports its distance changes.
pub type ChangeSink = Arc<dyn Exporter<VertexId, u32>>;

/// The selective-enablement incremental job: enabled vertices apply the
/// (sender, distance) messages to their neighbor-distance arrays,
/// recompute, and notify neighbors only if their own distance changed.
///
/// **State.** Two co-partitioned tables: the instance's own, holding each
/// vertex's [`SelRecord::Dists`], and [`adjacency_table`], holding its
/// [`SelRecord::Adj`].  An invocation reads both and writes only the
/// first, and only when what it heard or its distance changed.
///
/// **Direct output.** Given a change sink ([`SelectiveSssp::reporting`]),
/// the job reports every distance change as one `(vertex, new distance)`
/// pair of direct job output, from the invocation that made it, so a
/// reader that applies each step's reports at that step's barrier holds
/// exactly the state table's distances there (a vertex runs at most once
/// a step, so the order among parts does not matter).  The values are
/// absolute, so a report seen twice is harmless.  Without a sink the job
/// reports nothing and produces no direct output.
pub struct SelectiveSssp {
    table: String,
    source: VertexId,
    n: u32,
    changes: Option<ChangeSink>,
}

impl SelectiveSssp {
    /// A selective-variant job solving distances from `source` over the
    /// `n`-vertex annotated graph living in `table`.
    pub fn new(table: impl Into<String>, source: VertexId, n: u32) -> Self {
        Self {
            table: table.into(),
            source,
            n,
            changes: None,
        }
    }

    /// Reports every distance change to `sink` as direct job output.
    #[must_use]
    pub fn reporting(mut self, sink: ChangeSink) -> Self {
        self.changes = Some(sink);
        self
    }
}

/// Index of the distance table among [`SelectiveSssp`]'s state tables.
const DISTS: usize = 0;
/// Index of the [`adjacency_table`].
const ADJ: usize = 1;

impl Job for SelectiveSssp {
    type Key = VertexId;
    type State = SelRecord;
    type Message = (VertexId, u32); // (sender, sender's distance)
    type OutKey = VertexId;
    type OutValue = u32; // the vertex's new distance

    fn state_tables(&self) -> Vec<String> {
        vec![self.table.clone(), adjacency_table(&self.table)]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            // Sorted invocation order plus a deterministic compute function
            // make every run (and every replay of a failed part) produce
            // the same states, messages, and fault-injection points.
            needs_order: true,
            deterministic: true,
            // The wave dies out by itself: compute never returns the
            // positive continue signal, vertices fall dormant unless a
            // neighbor's distance message re-enables them.
            no_continue: true,
            ..JobProperties::default()
        }
    }

    fn direct_output(&self) -> Option<ChangeSink> {
        self.changes.clone()
    }

    // No combiner: "the job's combiner does not combine these messages".

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let me = *ctx.key();
        let (Some(dists), Some(adj)) = (ctx.read_state(DISTS)?, ctx.read_state(ADJ)?) else {
            return Ok(false); // vertex was removed
        };
        let (mut neighbor_dists, dist) = dists.into_dists()?;
        let neighbors = adj.into_adj()?;
        let mut heard = false;
        for (sender, d) in ctx.take_messages() {
            let slot = neighbors
                .iter()
                .position(|&v| v == sender)
                .and_then(|i| neighbor_dists.get_mut(i));
            if let Some(slot) = slot {
                if *slot != d {
                    *slot = d;
                    heard = true;
                }
            }
        }
        let new_dist = recompute(&neighbor_dists, me, self.source, self.n);
        let dist_changed = new_dist != dist;
        if dist_changed {
            for &v in &neighbors {
                ctx.send(v, (me, new_dist));
            }
            if self.changes.is_some() {
                ctx.output(me, new_dist)?;
            }
        }
        if heard || dist_changed {
            let record = SelRecord::Dists {
                neighbor_dists,
                dist: new_dist,
            };
            ctx.write_state(DISTS, &record)?;
        }
        Ok(false)
    }
}

/// A handle to a selective-variant SSSP instance living in a store table.
pub struct SelectiveInstance<S: KvStore> {
    store: S,
    table: String,
    source: VertexId,
    n: u32,
    /// Handed to every launch's job ([`SelectiveSssp::reporting`]).
    changes: Option<ChangeSink>,
    /// Runs [`SelectiveInstance::apply_batch`]: one runner for the
    /// instance's life, so its temporaries outlive a batch.
    runner: JobRunner<S>,
}

impl<S: KvStore> SelectiveInstance<S> {
    /// Loads `graph` (undirected adjacency) into `table` and solves the
    /// initial distances from `source`.
    ///
    /// # Errors
    ///
    /// Propagates engine and store errors.
    pub fn initialize(
        store: &S,
        table: &str,
        graph: &Graph,
        source: VertexId,
    ) -> Result<(Self, RunMetrics), EbspError> {
        let runner = JobRunner::new(store.clone());
        let (mut instance, outcome) = Self::initialize_on(&runner, store, table, graph, source)?;
        instance.runner = runner;
        Ok((instance, outcome.metrics))
    }

    /// As [`SelectiveInstance::initialize`], but runs the initial solve on
    /// a caller-configured [`JobRunner`] (which must wrap `store`) and
    /// returns the full [`RunOutcome`] — how a job service runs the
    /// initial solve under its own scheduling gate and observer.
    ///
    /// # Errors
    ///
    /// Propagates engine and store errors.
    pub fn initialize_on(
        runner: &JobRunner<S>,
        store: &S,
        table: &str,
        graph: &Graph,
        source: VertexId,
    ) -> Result<(Self, RunOutcome), EbspError> {
        Self::new(store, table, graph, source).launch_initial(runner, graph)
    }

    /// As [`SelectiveInstance::initialize_on`], but every launch of the
    /// instance — the initial solve and each update wave — reports its
    /// distance changes to `changes` ([`SelectiveSssp::reporting`]).  The
    /// loader starts every vertex of `graph` at [`INF`], so a reader that
    /// starts from `graph.vertex_count()` entries of [`INF`] and applies
    /// the reports in order holds the instance's distances.
    ///
    /// # Errors
    ///
    /// Propagates engine and store errors.
    pub fn initialize_reporting_on(
        runner: &JobRunner<S>,
        store: &S,
        table: &str,
        graph: &Graph,
        source: VertexId,
        changes: ChangeSink,
    ) -> Result<(Self, RunOutcome), EbspError> {
        let mut instance = Self::new(store, table, graph, source);
        instance.changes = Some(changes);
        instance.launch_initial(runner, graph)
    }

    fn launch_initial(
        self,
        runner: &JobRunner<S>,
        graph: &Graph,
    ) -> Result<(Self, RunOutcome), EbspError> {
        let outcome = runner.launch(self.job(), RunOptions::new().loader(initial_loader(graph)))?;
        Ok((self, outcome))
    }

    fn new(store: &S, table: &str, graph: &Graph, source: VertexId) -> Self {
        Self {
            store: store.clone(),
            table: table.to_owned(),
            source,
            n: graph.vertex_count(),
            changes: None,
            runner: JobRunner::new(store.clone()),
        }
    }

    fn job(&self) -> Arc<SelectiveSssp> {
        Arc::new(SelectiveSssp {
            table: self.table.clone(),
            source: self.source,
            n: self.n,
            changes: self.changes.clone(),
        })
    }

    /// Applies one batch of primitive changes and updates the distance
    /// annotations: the bookkeeping arrays of the touched endpoints are
    /// edited where they live, the endpoints are seeded with each other's
    /// current distances, and the job runs — enabling only the wave of
    /// vertices the change actually affects.
    ///
    /// # Errors
    ///
    /// Propagates engine and store errors.
    pub fn apply_batch(&self, changes: &[GraphChange]) -> Result<RunMetrics, EbspError> {
        self.apply_batch_on(&self.runner, changes)
            .map(|outcome| outcome.metrics)
    }

    /// As [`SelectiveInstance::apply_batch`], but runs the update wave on a
    /// caller-configured [`JobRunner`] and returns the full
    /// [`RunOutcome`] — the way to profile or trace an incremental update.
    /// The runner must wrap the same store this instance lives in.
    ///
    /// # Errors
    ///
    /// Propagates engine and store errors.
    pub fn apply_batch_on(
        &self,
        runner: &JobRunner<S>,
        changes: &[GraphChange],
    ) -> Result<RunOutcome, EbspError> {
        let seeds = self.apply_changes_on(runner, changes)?;
        runner.launch(self.job(), seeded(seeds))
    }

    /// The first half of [`SelectiveInstance::apply_batch_on`]: edits the
    /// bookkeeping arrays of the batch's endpoints in one round of
    /// `runner`'s part tasks and returns the seed messages that wake the
    /// affected vertices — per change that edited an endpoint, in change
    /// order, `(v, (u, dist u))` then `(u, (v, dist v))`.
    ///
    /// # Errors
    ///
    /// Propagates store and decoding errors.
    pub fn apply_changes_on(
        &self,
        runner: &JobRunner<S>,
        changes: &[GraphChange],
    ) -> Result<Vec<Seed>, EbspError> {
        let table = self.store.lookup_table(&self.table)?;
        let (effects, _) = apply_changes::<S, SelState>(runner, &table, changes, |part| {
            Err(KvError::PartFailed { part }.into())
        })?;
        Ok(seeds_of(changes, &effects))
    }

    /// Reads all distance annotations, sorted by vertex — from the
    /// instance's own table only.
    ///
    /// # Errors
    ///
    /// Propagates store errors.
    pub fn distances(&self) -> Result<Vec<(VertexId, u32)>, EbspError> {
        Ok(export_sorted::<S, SelDist>(&self.store, &self.table)?
            .into_iter()
            .map(|(v, SelDist(dist))| (v, dist))
            .collect())
    }

    /// The state table this instance's annotated graph lives in.
    pub fn table_name(&self) -> &str {
        &self.table
    }

    /// The source vertex distances are measured from.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The vertex count the instance was initialized with.
    pub fn vertex_count(&self) -> u32 {
        self.n
    }
}

/// Decodes the distance annotations out of a raw snapshot
/// ([`KvStore::snapshot_table`]) of a selective instance's own table,
/// sorted by vertex — an oracle for what a reader of the job's reported
/// changes ([`SelectiveSssp::reporting`]) should hold at the same cut.
///
/// # Errors
///
/// Fails with a wire error if an entry is not a vertex and its
/// [`SelRecord::Dists`] — i.e. the snapshot is of some other table.
pub fn distances_from_snapshot(
    snapshot: &ripple_kv::TableSnapshot,
) -> Result<Vec<(VertexId, u32)>, EbspError> {
    let mut out = Vec::with_capacity(snapshot.len());
    for (key, value) in snapshot.iter() {
        let v: VertexId = from_wire(key.body())?;
        let SelDist(dist) = from_wire(value)?;
        out.push((v, dist));
    }
    out.sort_by_key(|(v, _)| *v);
    Ok(out)
}

/// Every pair of `table`, its values decoded as `V`, sorted by vertex.
fn export_sorted<S: KvStore, V: Decode + Clone + Send + 'static>(
    store: &S,
    table: &str,
) -> Result<Vec<(VertexId, V)>, EbspError> {
    let handle = store.lookup_table(table)?;
    let exporter = Arc::new(ripple_core::CollectingExporter::new());
    ripple_core::export_state_table::<S, VertexId, V, _>(store, &handle, Arc::clone(&exporter))?;
    let mut out = exporter.take();
    out.sort_by_key(|(v, _)| *v);
    Ok(out)
}

impl<S: RecoverableStore + HealableStore> SelectiveInstance<S> {
    /// Like [`SelectiveInstance::initialize`], but runs the initial solve
    /// under barrier checkpointing with automatic part recovery (fast
    /// single-part replay when possible, whole-group rollback otherwise).
    ///
    /// # Errors
    ///
    /// Propagates engine and store errors.
    pub fn initialize_recoverable(
        store: &S,
        table: &str,
        graph: &Graph,
        source: VertexId,
        checkpoint_interval: u32,
    ) -> Result<(Self, RunMetrics), EbspError> {
        let instance = Self::new(store, table, graph, source);
        let job = instance.job();
        let outcome = JobRunner::new(store.clone())
            .checkpoint_interval(checkpoint_interval)
            .launch(
                job,
                RunOptions::new().loader(initial_loader(graph)).recovery(),
            )?;
        Ok((instance, outcome.metrics))
    }

    /// Like [`SelectiveInstance::apply_batch`], but the update wave runs
    /// under barrier checkpointing with automatic part recovery — and so do
    /// the edits: every part is checkpointed before the edit round, and a
    /// part that fails in it is restored and edited again.  Those restores
    /// count among the returned recoveries.
    ///
    /// # Errors
    ///
    /// Propagates engine and store errors.
    pub fn apply_batch_recoverable(
        &self,
        changes: &[GraphChange],
        checkpoint_interval: u32,
    ) -> Result<RunMetrics, EbspError> {
        let mut runner = JobRunner::new(self.store.clone());
        runner.checkpoint_interval(checkpoint_interval);
        let table = self.store.lookup_table(&self.table)?;
        let checkpoints = (0..table.part_count())
            .map(|p| self.store.checkpoint_part(&table, PartId(p)))
            .collect::<Result<Vec<_>, _>>()?;
        let (effects, restored) = apply_changes::<S, SelState>(&runner, &table, changes, |part| {
            Ok(self.store.restore_part(&checkpoints[part as usize])?)
        })?;
        let mut outcome =
            runner.launch(self.job(), seeded(seeds_of(changes, &effects)).recovery())?;
        outcome.metrics.recoveries += restored;
        Ok(outcome.metrics)
    }
}

impl<S: RecoverableStore + HealableStore + DurableStore> SelectiveInstance<S> {
    /// Like [`SelectiveInstance::initialize_recoverable`], but every
    /// barrier is also a *durable* commit, and the run survives the
    /// process: if a previous `initialize_durable` of the same table was
    /// interrupted — crash, kill, or a `max_steps` limit — calling this
    /// again against a reopened store resumes from the last durable
    /// barrier instead of starting over (the loader is skipped on
    /// resume).  Deterministic, so a resumed solve ends in exactly the
    /// state an uninterrupted one would.
    ///
    /// `max_steps` bounds the solve, returning
    /// [`EbspError::StepLimitExceeded`] when exceeded — useful for
    /// staging work across restarts (and for testing the resume path).
    ///
    /// # Errors
    ///
    /// Propagates engine and store errors.
    pub fn initialize_durable(
        store: &S,
        table: &str,
        graph: &Graph,
        source: VertexId,
        checkpoint_interval: u32,
        max_steps: Option<u32>,
    ) -> Result<(Self, RunMetrics), EbspError> {
        let instance = Self::new(store, table, graph, source);
        let job = instance.job();
        let mut runner = JobRunner::new(store.clone());
        runner.checkpoint_interval(checkpoint_interval);
        if let Some(limit) = max_steps {
            runner.max_steps(limit);
        }
        let outcome = runner.launch(
            job,
            RunOptions::new()
                .loader(initial_loader(graph))
                .recovery()
                .durable(),
        )?;
        Ok((instance, outcome.metrics))
    }
}

impl Adjacency for SelState {
    type Record = SelRecord;
    const TABLES: &'static [&'static str] = &["", ADJ_SUFFIX];

    fn from_records<B: AsRef<[u8]>>(records: &[B]) -> Result<Self, WireError> {
        let dists = from_wire(records[DISTS].as_ref())?;
        Self::from_records(dists, from_wire(records[ADJ].as_ref())?)
    }

    fn into_records(self) -> Vec<SelRecord> {
        self.into_records().into()
    }

    fn add(&mut self, v: VertexId) -> bool {
        if self.neighbors.contains(&v) {
            return false;
        }
        self.neighbors.push(v);
        self.neighbor_dists.push(INF);
        true
    }

    fn remove(&mut self, v: VertexId) -> bool {
        match self.neighbors.iter().position(|&x| x == v) {
            Some(i) => {
                self.neighbors.swap_remove(i);
                self.neighbor_dists.swap_remove(i);
                true
            }
            None => false,
        }
    }

    fn dist(&self) -> u32 {
        self.dist
    }
}

/// A seed message of a change wave: a vertex, and the neighbor and
/// distance it is told about.
pub type Seed = (VertexId, (VertexId, u32));

/// The seeds of a batch: per change that edited an endpoint, each endpoint
/// is told its counterpart's current distance (removals are reflected
/// purely by the state edit; the seed makes both endpoints recompute
/// either way).
fn seeds_of(changes: &[GraphChange], effects: &[Effect]) -> Vec<Seed> {
    let mut seeds = Vec::new();
    for (change, effect) in changes.iter().zip(effects) {
        if effect.applied.contains(&true) {
            let (u, v) = change.endpoints();
            seeds.push((v, (u, effect.dist[0])));
            seeds.push((u, (v, effect.dist[1])));
        }
    }
    seeds
}

/// Launch options whose loader sends `seeds`, in order.
fn seeded(seeds: Vec<Seed>) -> RunOptions<SelectiveSssp> {
    RunOptions::new().loaders(vec![Box::new(FnLoader::new(
        move |sink: &mut dyn LoadSink<SelectiveSssp>| {
            for (to, msg) in seeds {
                sink.message(to, msg)?;
            }
            Ok(())
        },
    ))])
}

/// The loader of the initial condition: every vertex of `graph` holds its
/// neighbors, knows no distance, and is enabled.
fn initial_loader(graph: &Graph) -> Box<dyn Loader<SelectiveSssp>> {
    let entries: Vec<(VertexId, Vec<VertexId>)> =
        graph.iter().map(|(v, adj)| (v, adj.to_vec())).collect();
    Box::new(FnLoader::new(
        move |sink: &mut dyn LoadSink<SelectiveSssp>| {
            for (v, neighbors) in entries {
                let dists = SelRecord::Dists {
                    neighbor_dists: vec![INF; neighbors.len()],
                    dist: INF,
                };
                sink.state(DISTS, v, dists)?;
                sink.state(ADJ, v, SelRecord::Adj(neighbors))?;
                sink.enable(v)?;
            }
            Ok(())
        },
    ))
}

// ===========================================================================
// Full-scan variant
// ===========================================================================

/// Full-scan vertex state: the neighbor array and the current distance —
/// no per-neighbor bookkeeping, which is why every update needs full scans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsState {
    /// Neighbor ids.
    pub neighbors: Vec<VertexId>,
    /// Current distance from the source.
    pub dist: u32,
}

impl Encode for FsState {
    fn encode(&self, w: &mut ByteWriter) {
        self.neighbors.encode(w);
        self.dist.encode(w);
    }
    fn size_hint(&self) -> usize {
        self.neighbors.size_hint() + 5
    }
}

impl Decode for FsState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            neighbors: Vec::decode(r)?,
            dist: u32::decode(r)?,
        })
    }
}

/// The full-scan message: a full state-propagating message a vertex sends
/// itself, or a distance update along an edge.  The combiner merges them
/// into "a preliminary full state" exactly as §V-C describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsMsg {
    /// Present on the self-message: the full state (neighbors + own dist).
    pub state: Option<FsState>,
    /// Minimum distance heard from any neighbor so far.
    pub min_neighbor: u32,
    /// Whether any neighbor supports (dist - 1); used by the invalidation
    /// wave.
    pub support: bool,
    /// The distance the support refers to.
    pub supported_value: u32,
}

impl Encode for FsMsg {
    fn encode(&self, w: &mut ByteWriter) {
        self.state.encode(w);
        self.min_neighbor.encode(w);
        self.support.encode(w);
        self.supported_value.encode(w);
    }
}

impl Decode for FsMsg {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            state: Option::decode(r)?,
            min_neighbor: u32::decode(r)?,
            support: bool::decode(r)?,
            supported_value: u32::decode(r)?,
        })
    }
}

/// Which wave a full-scan job performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wave {
    /// Raise to +∞ every annotation no longer supported by a neighbor
    /// (needed only when the batch removed edges).
    Invalidate,
    /// Lower annotations to the values justified by neighbors.
    Relax,
}

/// One two-step (map + reduce) full-scan job.
pub struct FullScanSssp {
    table: String,
    source: VertexId,
    wave: Wave,
    n: u32,
}

impl FullScanSssp {
    /// One `wave` over the `n`-vertex annotated graph in `table`, relaxing
    /// (or invalidating) distances from `source`.
    pub fn new(table: impl Into<String>, source: VertexId, wave: Wave, n: u32) -> Self {
        Self {
            table: table.into(),
            source,
            wave,
            n,
        }
    }
}

impl Job for FullScanSssp {
    type Key = VertexId;
    type State = FsState;
    type Message = FsMsg;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![self.table.clone()]
    }

    fn aggregators(&self) -> Vec<(String, Arc<dyn Aggregate>)> {
        vec![(CHANGED.to_owned(), Arc::new(SumI64))]
    }

    fn properties(&self) -> JobProperties {
        // All-integer arithmetic under a commutative, always-merging
        // combiner: any fold order gives the same bits (deterministic), and
        // each reduce-side vertex sees exactly one post-combine message
        // (one-msg).  Compute never returns the continue signal; the wave
        // driver, not the job, decides whether another scan runs.
        JobProperties {
            deterministic: true,
            one_msg: true,
            no_continue: true,
            ..JobProperties::default()
        }
    }

    fn combine_messages(&self, _k: &VertexId, into: &mut FsMsg, msg: FsMsg) -> Option<FsMsg> {
        // "This job has a combiner with an obvious implementation."
        if into.state.is_none() {
            into.state = msg.state;
        }
        into.min_neighbor = into.min_neighbor.min(msg.min_neighbor);
        into.support |= msg.support;
        into.supported_value = into.supported_value.min(msg.supported_value);
        None
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let me = *ctx.key();
        if ctx.step() == 1 {
            // Map: full scan — every vertex reads its state and shuffles.
            let Some(state) = ctx.read_state(0)? else {
                return Ok(false);
            };
            for i in 0..state.neighbors.len() {
                let to = state.neighbors[i];
                ctx.send(
                    to,
                    FsMsg {
                        state: None,
                        min_neighbor: state.dist,
                        // Support for a neighbor whose dist is ours + 1.
                        support: true,
                        supported_value: saturating_inc(state.dist),
                    },
                );
            }
            ctx.send(
                me,
                FsMsg {
                    state: Some(state),
                    min_neighbor: INF,
                    support: false,
                    supported_value: INF,
                },
            );
            Ok(false)
        } else {
            // Reduce: recompute the distance from the folded messages.
            let msgs = ctx.take_messages();
            let folded = msgs.into_iter().reduce(|mut into, msg| {
                let declined = self.combine_messages(&me, &mut into, msg);
                assert!(declined.is_none(), "always combines");
                into
            });
            let Some(folded) = folded else {
                return Ok(false);
            };
            let Some(state) = folded.state else {
                return Ok(false); // no self-state: vertex gone
            };
            let old = state.dist;
            let new = if me == self.source {
                0
            } else {
                match self.wave {
                    Wave::Relax => cap(saturating_inc(folded.min_neighbor), self.n).min(old),
                    Wave::Invalidate => {
                        // Keep `old` only if some neighbor's dist + 1 == old
                        // (i.e. a neighbor supports it); otherwise +∞.
                        if old != INF && folded.supported_value == old {
                            old
                        } else {
                            INF
                        }
                    }
                }
            };
            if new != old {
                ctx.aggregate(CHANGED, AggValue::I64(1))?;
            }
            ctx.write_state(
                0,
                &FsState {
                    neighbors: state.neighbors,
                    dist: new,
                },
            )?;
            Ok(false)
        }
    }
}

/// A handle to a full-scan SSSP instance.
pub struct FullScanInstance<S: KvStore> {
    store: S,
    table: String,
    source: VertexId,
    n: u32,
    /// Runs every edit round and scan of the instance.
    runner: JobRunner<S>,
}

impl<S: KvStore> FullScanInstance<S> {
    /// Loads `graph` into `table` and solves initial distances.
    ///
    /// # Errors
    ///
    /// Propagates engine and store errors.
    pub fn initialize(
        store: &S,
        table: &str,
        graph: &Graph,
        source: VertexId,
    ) -> Result<(Self, RunMetrics), EbspError> {
        let instance = Self {
            store: store.clone(),
            table: table.to_owned(),
            source,
            n: graph.vertex_count(),
            runner: JobRunner::new(store.clone()),
        };
        // Install states directly.
        let handle = match store.lookup_table(table) {
            Ok(t) => t,
            Err(_) => store
                .create_table(&ripple_kv::TableSpec::new(table))
                .map_err(EbspError::Kv)?,
        };
        for (v, adj) in graph.iter() {
            let state = FsState {
                neighbors: adj.to_vec(),
                dist: if v == source { 0 } else { INF },
            };
            handle
                .put(ripple_core::key_to_routed(&v), to_wire(&state))
                .map_err(EbspError::Kv)?;
        }
        let metrics = instance.run_waves(false)?;
        Ok((instance, metrics))
    }

    /// Applies a batch by editing neighbor arrays, then runs the update
    /// waves: Invalidate-until-stable if any edge was removed, then
    /// Relax-until-stable — each wave iteration being a full two-step scan
    /// of the entire graph.
    ///
    /// # Errors
    ///
    /// Propagates engine and store errors.
    pub fn apply_batch(&self, changes: &[GraphChange]) -> Result<RunMetrics, EbspError> {
        let any_removal = self.apply_changes(changes)?;
        self.run_waves(any_removal)
    }

    /// The first half of [`FullScanInstance::apply_batch`]: edits the
    /// neighbor arrays of the batch's endpoints in one round of part tasks,
    /// through the same routine as the selective variant, and returns
    /// whether a removal changed any of them.
    ///
    /// # Errors
    ///
    /// Propagates store and decoding errors.
    pub fn apply_changes(&self, changes: &[GraphChange]) -> Result<bool, EbspError> {
        let table = self.store.lookup_table(&self.table)?;
        let (effects, _) = apply_changes::<S, FsState>(&self.runner, &table, changes, |part| {
            Err(KvError::PartFailed { part }.into())
        })?;
        Ok(changes.iter().zip(&effects).any(|(change, effect)| {
            matches!(change, GraphChange::RemoveEdge(..)) && effect.applied.contains(&true)
        }))
    }

    fn run_waves(&self, with_invalidate: bool) -> Result<RunMetrics, EbspError> {
        let mut total = RunMetrics::default();
        if with_invalidate {
            self.run_wave(Wave::Invalidate, &mut total)?;
        }
        self.run_wave(Wave::Relax, &mut total)?;
        Ok(total)
    }

    /// "There is an external driver that invokes a series of MapReduce-like
    /// jobs until there are no more changes."
    fn run_wave(&self, wave: Wave, total: &mut RunMetrics) -> Result<(), EbspError> {
        loop {
            let n = self.n;
            let job = Arc::new(FullScanSssp {
                table: self.table.clone(),
                source: self.source,
                wave,
                n,
            });
            let outcome = self.runner.launch(
                job,
                RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                    move |sink: &mut dyn LoadSink<FullScanSssp>| {
                        for v in 0..n {
                            sink.enable(v)?;
                        }
                        Ok(())
                    },
                ))]),
            )?;
            accumulate(total, &outcome.metrics);
            let changed = outcome.aggregates.get(CHANGED).map_or(0, |v| v.as_i64());
            if changed == 0 {
                return Ok(());
            }
        }
    }

    /// Reads all distance annotations, sorted by vertex.
    ///
    /// # Errors
    ///
    /// Propagates store errors.
    pub fn distances(&self) -> Result<Vec<(VertexId, u32)>, EbspError> {
        Ok(export_sorted::<S, DistAfterList>(&self.store, &self.table)?
            .into_iter()
            .map(|(v, DistAfterList(dist))| (v, dist))
            .collect())
    }
}

impl Adjacency for FsState {
    type Record = FsState;
    const TABLES: &'static [&'static str] = &[""];

    fn from_records<B: AsRef<[u8]>>(records: &[B]) -> Result<Self, WireError> {
        from_wire(records[0].as_ref())
    }

    fn into_records(self) -> Vec<FsState> {
        vec![self]
    }

    fn add(&mut self, v: VertexId) -> bool {
        if self.neighbors.contains(&v) {
            return false;
        }
        self.neighbors.push(v);
        true
    }

    fn remove(&mut self, v: VertexId) -> bool {
        match self.neighbors.iter().position(|&x| x == v) {
            Some(i) => {
                self.neighbors.swap_remove(i);
                true
            }
            None => false,
        }
    }

    fn dist(&self) -> u32 {
        self.dist
    }
}

// ===========================================================================
// Applying a batch of changes where the endpoints live
// ===========================================================================

/// A vertex state whose neighbor list a change batch edits.
trait Adjacency: Sized + 'static {
    /// What the state's tables hold.
    type Record: Encode;
    /// The suffixes, appended to the instance's table name, of the tables
    /// the state is stored across, one record in each.
    const TABLES: &'static [&'static str];
    /// Decodes the state from its encoded records, in
    /// [`Adjacency::TABLES`] order.
    fn from_records<B: AsRef<[u8]>>(records: &[B]) -> Result<Self, WireError>;
    /// Splits the state into its records, in [`Adjacency::TABLES`] order.
    fn into_records(self) -> Vec<Self::Record>;
    /// Adds neighbor `v`; false if it is one already.
    fn add(&mut self, v: VertexId) -> bool;
    /// Removes neighbor `v`; false if it is none.
    fn remove(&mut self, v: VertexId) -> bool;
    /// The current distance, which no edit changes.
    fn dist(&self) -> u32;
}

/// What one change did at its endpoints `(u, v)`: whether the edit changed
/// each, and each one's distance ([`INF`] for a vertex the table does not
/// hold).  A self-loop does nothing.
#[derive(Clone, Copy)]
struct Effect {
    applied: [bool; 2],
    dist: [u32; 2],
}

/// One endpoint's edit: the change it belongs to, which endpoint it is
/// (0 for `u`, 1 for `v`), whether it adds, the vertex and its counterpart.
#[derive(Clone, Copy)]
struct Edit {
    change: usize,
    end: usize,
    add: bool,
    at: VertexId,
    other: VertexId,
}

/// Applies `changes` to the vertex states of `table` (and of the tables
/// beside it that [`Adjacency::TABLES`] names) in one round of `runner`'s
/// part tasks and returns each change's [`Effect`], in change order, plus
/// how many parts were restored on the way.
///
/// Each part reads its touched endpoints with one `get_batch` per table,
/// edits them in change order — a vertex lives in one part, so every vertex
/// sees its edits in the order the driver would apply them — and writes the
/// edited ones back with one `put_batch` per table.  The runner retries each of those calls
/// alone: a retried task could re-read states its lost-reply write had
/// already edited and drop their changes.  A part whose task fails with
/// [`KvError::PartFailed`] is handed to `restore` once; if that succeeds,
/// its edits run again.
fn apply_changes<S: KvStore, A: Adjacency>(
    runner: &JobRunner<S>,
    table: &S::Table,
    changes: &[GraphChange],
    mut restore: impl FnMut(u32) -> Result<(), EbspError>,
) -> Result<(Vec<Effect>, u32), EbspError> {
    let parts = table.part_count();
    let mut pending = vec![Vec::new(); parts as usize];
    for (change, c) in changes.iter().enumerate() {
        let (u, v) = c.endpoints();
        if u == v {
            continue;
        }
        let add = matches!(c, GraphChange::AddEdge(..));
        for (end, (at, other)) in [(u, v), (v, u)].into_iter().enumerate() {
            let part = ripple_core::key_to_routed(&at).part_for(parts);
            pending[part.index()].push(Edit {
                change,
                end,
                add,
                at,
                other,
            });
        }
    }
    let mut effects = vec![
        Effect {
            applied: [false; 2],
            dist: [INF; 2],
        };
        changes.len()
    ];
    let mut restored = vec![false; parts as usize];
    loop {
        let groups = Arc::new(std::mem::replace(
            &mut pending,
            vec![Vec::new(); parts as usize],
        ));
        let outcomes = runner.run_at_parts(table, {
            let groups = Arc::clone(&groups);
            let names: Vec<String> = A::TABLES
                .iter()
                .map(|suffix| format!("{}{suffix}", table.name()))
                .collect();
            move |view| edit_part::<A>(view, &names, &groups[view.part().index()])
        });
        let mut redo = false;
        for (part, (edits, outcome)) in groups.iter().zip(outcomes).enumerate() {
            match outcome {
                Ok(done) => {
                    for (edit, (applied, dist)) in edits.iter().zip(done) {
                        let effect = &mut effects[edit.change];
                        effect.applied[edit.end] = applied;
                        effect.dist[edit.end] = dist;
                    }
                }
                Err(EbspError::Kv(KvError::PartFailed { part: p }))
                    if p as usize == part && !restored[part] =>
                {
                    restore(p)?;
                    restored[part] = true;
                    pending[part].clone_from(edits);
                    redo = true;
                }
                Err(e) => return Err(e),
            }
        }
        if !redo {
            let restores = restored.iter().filter(|&&r| r).count() as u32;
            return Ok((effects, restores));
        }
    }
}

/// One part's task of [`apply_changes`]: per edit, whether it changed its
/// vertex and the vertex's distance.
fn edit_part<A: Adjacency>(
    view: &dyn PartView,
    tables: &[String],
    edits: &[Edit],
) -> Result<Vec<(bool, u32)>, EbspError> {
    if edits.is_empty() {
        return Ok(Vec::new());
    }
    // Each touched vertex is read once, in first-touch order.
    let mut slot: HashMap<VertexId, usize> = HashMap::new();
    let mut keys = Vec::new();
    for edit in edits {
        slot.entry(edit.at).or_insert_with(|| {
            keys.push(ripple_core::key_to_routed(&edit.at));
            keys.len() - 1
        });
    }
    // A vertex is present when every table holds a record of it.
    let mut columns = tables
        .iter()
        .map(|table| view.get_batch(table, &keys))
        .collect::<Result<Vec<_>, _>>()?;
    let mut states = (0..keys.len())
        .map(|i| {
            let records: Option<Vec<_>> = columns.iter_mut().map(|c| c[i].take()).collect();
            records
                .map(|records| A::from_records(&records).map(|state| (state, false)))
                .transpose()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let done = edits
        .iter()
        .map(|edit| match &mut states[slot[&edit.at]] {
            Some((state, edited)) => {
                let applied = if edit.add {
                    state.add(edit.other)
                } else {
                    state.remove(edit.other)
                };
                *edited |= applied;
                (applied, state.dist())
            }
            None => (false, INF),
        })
        .collect();
    let mut writes = vec![Vec::new(); tables.len()];
    for (key, state) in keys.into_iter().zip(states) {
        if let Some((state, true)) = state {
            for (column, record) in writes.iter_mut().zip(state.into_records()) {
                column.push((key.clone(), to_wire(&record)));
            }
        }
    }
    for (table, records) in tables.iter().zip(writes) {
        if !records.is_empty() {
            view.put_batch(table, records)?;
        }
    }
    Ok(done)
}

fn accumulate(total: &mut RunMetrics, part: &RunMetrics) {
    total.steps += part.steps;
    total.barriers += part.barriers;
    total.invocations += part.invocations;
    total.messages_sent += part.messages_sent;
    total.messages_combined += part.messages_combined;
    total.state_reads += part.state_reads;
    total.state_writes += part.state_writes;
    total.spill_batches += part.spill_batches;
    total.elapsed += part.elapsed;
}

/// A sequential BFS oracle for validating both variants.
pub fn bfs_oracle(graph: &MutableGraph, source: VertexId) -> Vec<u32> {
    let g = graph.graph();
    let n = g.vertex_count() as usize;
    let mut dist = vec![INF; n];
    if (source as usize) < n {
        dist[source as usize] = 0;
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &v in g.neighbors(u) {
                if dist[v as usize] == INF {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden bytes: what a durable state table written by an earlier
    /// build holds; and the distance-only read-back agrees with the full
    /// decode on it.
    #[test]
    fn state_format_is_fixed_and_projects() {
        let state = SelState {
            neighbors: vec![2, 200, 20_000],
            neighbor_dists: vec![0, 5, u32::MAX],
            dist: 6,
        };
        let bytes = [
            0x03, 0x02, 0xc8, 0x01, 0xa0, 0x9c, 0x01, // neighbors
            0x03, 0x00, 0x05, 0xff, 0xff, 0xff, 0xff, 0x0f, // their distances
            0x06,
        ];
        assert_eq!(&to_wire(&state)[..], &bytes);
        assert_eq!(from_wire::<SelState>(&bytes).unwrap(), state);
        let full_scan = FsState {
            neighbors: vec![2, 200, 20_000],
            dist: INF,
        };
        let DistAfterList(dist) = from_wire(&to_wire(&full_scan)).unwrap();
        assert_eq!(dist, INF);
    }

    /// Golden bytes of the two records a selective instance stores, and
    /// the join that gives back the state they were split from.
    #[test]
    fn record_formats_are_fixed_and_join() {
        let state = SelState {
            neighbors: vec![2, 200, 20_000],
            neighbor_dists: vec![0, 5, u32::MAX],
            dist: 6,
        };
        let [dists, adj] = state.clone().into_records();
        let dists_bytes = [
            0x00, // tag
            0x03, 0x00, 0x05, 0xff, 0xff, 0xff, 0xff, 0x0f, // neighbor distances
            0x06,
        ];
        let adj_bytes = [
            0x01, // tag
            0x03, // length
            0x02, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00, 0x20, 0x4e, 0x00, 0x00,
        ];
        assert_eq!(&to_wire(&dists)[..], &dists_bytes);
        assert_eq!(&to_wire(&adj)[..], &adj_bytes);
        assert_eq!(from_wire::<SelRecord>(&dists_bytes).unwrap(), dists);
        assert_eq!(from_wire::<SelRecord>(&adj_bytes).unwrap(), adj);
        let SelDist(dist) = from_wire(&dists_bytes).unwrap();
        assert_eq!(dist, 6);
        assert_eq!(
            SelState::from_records(dists.clone(), adj.clone()).unwrap(),
            state
        );
        // Each record belongs to its own table.
        assert!(SelState::from_records(adj.clone(), dists.clone()).is_err());
        assert!(from_wire::<SelDist>(&adj_bytes).is_err());
        assert!(from_wire::<SelRecord>(&[0x02]).is_err());
    }

    /// A truncated record or a hostile declared length fails to decode, in
    /// the fixed-width list as in the varint one.
    #[test]
    fn damaged_records_fail_to_decode() {
        let adj = to_wire(&SelRecord::Adj(vec![7, 8, 9]));
        for cut in 0..adj.len() {
            assert!(from_wire::<SelRecord>(&adj[..cut]).is_err(), "cut {cut}");
        }
        // A million neighbors declared, none present.
        let hostile = [0x01, 0xc0, 0x84, 0x3d];
        assert!(matches!(
            from_wire::<SelRecord>(&hostile),
            Err(WireError::LengthOverrun { .. })
        ));
        let dists = to_wire(&SelRecord::Dists {
            neighbor_dists: vec![1, INF],
            dist: 2,
        });
        for cut in 0..dists.len() {
            assert!(from_wire::<SelRecord>(&dists[..cut]).is_err(), "cut {cut}");
            assert!(from_wire::<SelDist>(&dists[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn codecs_roundtrip() {
        let s = SelState {
            neighbors: vec![1, 2],
            neighbor_dists: vec![3, INF],
            dist: 4,
        };
        assert_eq!(from_wire::<SelState>(&to_wire(&s)).unwrap(), s);
        let f = FsState {
            neighbors: vec![9],
            dist: INF,
        };
        assert_eq!(from_wire::<FsState>(&to_wire(&f)).unwrap(), f);
        let m = FsMsg {
            state: Some(f),
            min_neighbor: 2,
            support: true,
            supported_value: 3,
        };
        assert_eq!(from_wire::<FsMsg>(&to_wire(&m)).unwrap(), m);
    }

    #[test]
    fn neighbor_bookkeeping_edits() {
        let mut s = SelState {
            neighbors: vec![1],
            neighbor_dists: vec![5],
            dist: 6,
        };
        assert!(s.add(2));
        assert!(!s.add(2));
        assert_eq!(s.neighbors.len(), s.neighbor_dists.len());
        assert!(s.remove(1));
        assert!(!s.remove(1));
        assert_eq!(s.neighbors, vec![2]);
        assert_eq!(s.neighbor_dists, vec![INF]);
    }

    #[test]
    fn recompute_respects_source_and_cap() {
        assert_eq!(recompute(&[7], 0, 0, 100), 0, "source is always 0");
        assert_eq!(recompute(&[7], 2, 0, 100), 8);
        assert_eq!(recompute(&[7], 2, 0, 8), INF, "capped at n");
        assert_eq!(recompute(&[], 2, 0, 100), INF);
    }

    #[test]
    fn bfs_oracle_small() {
        let mut g = MutableGraph::new(5);
        g.apply(GraphChange::AddEdge(0, 1));
        g.apply(GraphChange::AddEdge(1, 2));
        g.apply(GraphChange::AddEdge(2, 3));
        assert_eq!(bfs_oracle(&g, 0), vec![0, 1, 2, 3, INF]);
    }
}
