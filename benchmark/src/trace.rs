//! Spans recorded from outside the program, and the store decorator that
//! records one per SPI call.
//!
//! A [`Tracer`] keeps spans in memory (name, start, end, parent, operation
//! id, thread, plus the call's record and byte counts) and writes them out
//! once, in Chrome trace format, when the traced pass ends.  A disabled
//! tracer records nothing, so the timed pass shares the code path.
//!
//! [`TracedStore`] wraps any [`KvStore`] and forwards the whole
//! `KvStore`/`Table`/`PartView` SPI, opening a span around every call.  It
//! changes no result — `tests/traced_store.rs` holds it to byte-identical
//! PageRank ranks and to the inner store's own operation counts.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use ripple_kv::{
    CombinerRegistry, CombinerSpec, KvError, KvStore, PartId, PartView, RoutedKey, ScanControl,
    StoreEventSink, StoreMetrics, Table, TableSnapshot, TableSpec, TaskHandle, TaskRegistry,
};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the tracer, from 1.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The operation the span belongs to (0 = outside any operation).
    pub op: u64,
    /// Layer-qualified name, e.g. `store.get`.
    pub name: &'static str,
    /// A small per-thread number, for the trace viewer's rows.
    pub thread: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// `store.run_at` only: nanoseconds between dispatch and task start.
    pub wait_ns: u64,
    /// Records the call carried (pairs in a batch, entries scanned).
    pub recs: u64,
    /// Key and value bytes the call carried.
    pub bytes: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// This thread's row number in the trace (0 = not assigned yet).
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_number() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    next_id: AtomicU64,
    op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span recorder; clones share the recording.  `Tracer::disabled()`
/// records nothing.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A recording tracer whose clock starts now.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                op: AtomicU64::new(0),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Stamps spans opened from now on with operation id `op`.
    pub fn set_op(&self, op: u64) {
        if let Some(inner) = &self.inner {
            inner.op.store(op, Ordering::Relaxed);
        }
    }

    /// Opens a span on this thread, child of the thread's innermost open
    /// span; it closes when the guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = CURRENT.with(Cell::get);
        self.span_under(name, parent, 0)
    }

    /// Opens a span under an explicit parent — for work that starts on
    /// another thread than the one that caused it.
    fn span_under(&self, name: &'static str, parent: u64, wait_ns: u64) -> SpanGuard<'_> {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                tracer: None,
                span: None,
                restore: 0,
            };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let restore = CURRENT.with(|c| c.replace(id));
        SpanGuard {
            tracer: Some(inner),
            span: Some(Span {
                id,
                parent,
                op: inner.op.load(Ordering::Relaxed),
                name,
                thread: thread_number(),
                start_ns: inner.now_ns(),
                end_ns: 0,
                wait_ns,
                recs: 0,
                bytes: 0,
            }),
            restore,
        }
    }

    fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.now_ns())
    }

    /// A copy of every span recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked mid-push.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.spans.lock().expect("span buffer poisoned").clone()
        })
    }
}

impl TracerInner {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// An open span; records itself when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: Option<&'a Arc<TracerInner>>,
    span: Option<Span>,
    restore: u64,
}

impl SpanGuard<'_> {
    /// Adds to the span's record and byte counts.
    pub fn add(&mut self, recs: u64, bytes: u64) {
        if let Some(span) = &mut self.span {
            span.recs += recs;
            span.bytes += bytes;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(inner), Some(mut span)) = (self.tracer, self.span.take()) {
            span.end_ns = inner.now_ns();
            CURRENT.with(|c| c.set(self.restore));
            // A poisoned buffer means a recording thread already panicked;
            // losing this span then changes nothing about the outcome.
            if let Ok(mut spans) = inner.spans.lock() {
                spans.push(span);
            }
        }
    }
}

/// Self time per span name, and what the spans of one operation cover.
#[derive(Debug, Default, Clone)]
pub struct SelfTimes {
    /// Nanoseconds attributed to each span name.
    pub by_name: HashMap<&'static str, f64>,
    /// Wall nanoseconds of the operation's root span.
    pub root_ns: f64,
    /// Nanoseconds of the root's interval during which some span other
    /// than the root was open.
    pub covered_ns: f64,
}

/// Attributes every instant of operation `op`'s root span (the span named
/// `root`) to the deepest spans open at that instant: a span's self time
/// is its duration minus what its children cover, and spans that run side
/// by side on different threads share the instant equally — so the self
/// times add up to the root's wall clock instead of counting parallel
/// parts twice.
#[must_use]
pub fn self_times(spans: &[Span], op: u64, root: &str) -> SelfTimes {
    let spans: Vec<&Span> = spans.iter().filter(|s| s.op == op).collect();
    let mut out = SelfTimes::default();
    let Some(root_span) = spans.iter().find(|s| s.name == root) else {
        return out;
    };
    let (lo, hi) = (root_span.start_ns, root_span.end_ns);
    out.root_ns = (hi - lo) as f64;

    // (time, is_end, span index); starts sort before ends at equal times so
    // an empty span opens before it closes.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start_ns.clamp(lo, hi), false, i));
        events.push((s.end_ns.clamp(lo, hi), true, i));
    }
    events.sort_unstable_by_key(|&(t, end, _)| (t, end));

    let index_of: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut open_children = vec![0u32; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    let mut self_ns = vec![0f64; spans.len()];
    let mut prev = lo;
    for (t, is_end, i) in events {
        if t > prev {
            let dt = (t - prev) as f64;
            let leaves = open.iter().filter(|&&j| open_children[j] == 0);
            let share = dt / leaves.clone().count() as f64;
            for &j in leaves {
                self_ns[j] += share;
            }
            if open.iter().any(|&j| spans[j].id != root_span.id) {
                out.covered_ns += dt;
            }
            prev = t;
        }
        let parent = index_of.get(&spans[i].parent).copied();
        if is_end {
            open.retain(|&j| j != i);
            if let Some(p) = parent {
                open_children[p] = open_children[p].saturating_sub(1);
            }
        } else {
            open.push(i);
            if let Some(p) = parent {
                open_children[p] += 1;
            }
        }
    }
    for (i, s) in spans.iter().enumerate() {
        *out.by_name.entry(s.name).or_insert(0.0) += self_ns[i];
    }
    out
}

/// Renders spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span, parent and operation id in `args`.
#[must_use]
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"recs\":{},\"bytes\":{},\"wait_us\":{:.3}}}}}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.op,
            s.recs,
            s.bytes,
            s.wait_ns as f64 / 1e3,
        );
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// The store decorator
// ---------------------------------------------------------------------------

/// Span names of the decorator, one per SPI call kind.
pub mod names {
    /// `Table::get` / `PartView::get`.
    pub const GET: &str = "store.get";
    /// `Table::put` / `PartView::put`.
    pub const PUT: &str = "store.put";
    /// `Table::put_batch` / `PartView::put_batch`.
    pub const PUT_BATCH: &str = "store.put_batch";
    /// `Table::delete` / `PartView::delete`.
    pub const DELETE: &str = "store.delete";
    /// `PartView::scan`.
    pub const SCAN: &str = "store.scan";
    /// `PartView::drain`.
    pub const DRAIN: &str = "store.drain";
    /// The body of a `run_at` / `run_named_at` task.
    pub const RUN_AT: &str = "store.run_at";
    /// Table-level calls: create, lookup, drop, names, len, clear, bind.
    pub const DDL: &str = "store.ddl";
    /// `KvStore::snapshot_table`.
    pub const SNAPSHOT: &str = "store.snapshot";
}

fn pair_bytes(key: &RoutedKey, value: &[u8]) -> u64 {
    (key.body().len() + value.len()) as u64
}

/// A [`KvStore`] that records a span per SPI call and otherwise is `S`.
#[derive(Debug, Clone)]
pub struct TracedStore<S> {
    inner: S,
    tracer: Tracer,
}

impl<S: KvStore> TracedStore<S> {
    /// Wraps `inner`; calls record into `tracer`.
    pub fn new(inner: S, tracer: Tracer) -> Self {
        Self { inner, tracer }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn wrap(&self, table: S::Table) -> TracedTable<S::Table> {
        TracedTable {
            inner: table,
            tracer: self.tracer.clone(),
        }
    }
}

/// A table handle of a [`TracedStore`].
#[derive(Debug, Clone)]
pub struct TracedTable<T> {
    inner: T,
    tracer: Tracer,
}

impl<T: Table> Table for TracedTable<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn part_count(&self) -> u32 {
        self.inner.part_count()
    }

    fn is_ubiquitous(&self) -> bool {
        self.inner.is_ubiquitous()
    }

    fn partitioning_id(&self) -> u64 {
        self.inner.partitioning_id()
    }

    fn get(&self, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        let mut span = self.tracer.span(names::GET);
        let got = self.inner.get(key)?;
        span.add(1, pair_bytes(key, got.as_deref().unwrap_or(&[])));
        Ok(got)
    }

    fn put(&self, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        let mut span = self.tracer.span(names::PUT);
        span.add(1, pair_bytes(&key, &value));
        self.inner.put(key, value)
    }

    fn put_batch(&self, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        let mut span = self.tracer.span(names::PUT_BATCH);
        span.add(
            pairs.len() as u64,
            pairs.iter().map(|(k, v)| pair_bytes(k, v)).sum(),
        );
        self.inner.put_batch(pairs)
    }

    fn delete(&self, key: &RoutedKey) -> Result<bool, KvError> {
        let mut span = self.tracer.span(names::DELETE);
        span.add(1, key.body().len() as u64);
        self.inner.delete(key)
    }

    fn len(&self) -> Result<usize, KvError> {
        let _span = self.tracer.span(names::DDL);
        self.inner.len()
    }

    fn is_empty(&self) -> Result<bool, KvError> {
        let _span = self.tracer.span(names::DDL);
        self.inner.is_empty()
    }

    fn clear(&self) -> Result<(), KvError> {
        let _span = self.tracer.span(names::DDL);
        self.inner.clear()
    }
}

/// The view a traced `run_at` task sees: the inner view, span per call.
struct TracedView<'a> {
    inner: &'a dyn PartView,
    tracer: &'a Tracer,
}

impl PartView for TracedView<'_> {
    fn part(&self) -> PartId {
        self.inner.part()
    }

    fn get(&self, table: &str, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        let mut span = self.tracer.span(names::GET);
        let got = self.inner.get(table, key)?;
        span.add(1, pair_bytes(key, got.as_deref().unwrap_or(&[])));
        Ok(got)
    }

    fn put(&self, table: &str, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        let mut span = self.tracer.span(names::PUT);
        span.add(1, pair_bytes(&key, &value));
        self.inner.put(table, key, value)
    }

    fn put_batch(&self, table: &str, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        let mut span = self.tracer.span(names::PUT_BATCH);
        span.add(
            pairs.len() as u64,
            pairs.iter().map(|(k, v)| pair_bytes(k, v)).sum(),
        );
        self.inner.put_batch(table, pairs)
    }

    fn delete(&self, table: &str, key: &RoutedKey) -> Result<bool, KvError> {
        let mut span = self.tracer.span(names::DELETE);
        span.add(1, key.body().len() as u64);
        self.inner.delete(table, key)
    }

    fn scan(
        &self,
        table: &str,
        f: &mut dyn FnMut(&RoutedKey, &[u8]) -> ScanControl,
    ) -> Result<(), KvError> {
        // The callback is the caller's code, not the store's: the span
        // counts what it is handed but a slow callback shows as scan time.
        let mut span = self.tracer.span(names::SCAN);
        let (mut recs, mut bytes) = (0u64, 0u64);
        let result = self.inner.scan(table, &mut |k, v| {
            recs += 1;
            bytes += pair_bytes(k, v);
            f(k, v)
        });
        span.add(recs, bytes);
        result
    }

    fn drain(
        &self,
        table: &str,
        f: &mut dyn FnMut(RoutedKey, Bytes) -> ScanControl,
    ) -> Result<(), KvError> {
        let mut span = self.tracer.span(names::DRAIN);
        let (mut recs, mut bytes) = (0u64, 0u64);
        let result = self.inner.drain(table, &mut |k, v| {
            recs += 1;
            bytes += pair_bytes(&k, &v);
            f(k, v)
        });
        span.add(recs, bytes);
        result
    }

    fn len(&self, table: &str) -> Result<usize, KvError> {
        let _span = self.tracer.span(names::DDL);
        self.inner.len(table)
    }
}

impl<S: KvStore> KvStore for TracedStore<S> {
    type Table = TracedTable<S::Table>;

    fn create_table(&self, spec: &TableSpec) -> Result<Self::Table, KvError> {
        let _span = self.tracer.span(names::DDL);
        self.inner.create_table(spec).map(|t| self.wrap(t))
    }

    fn create_table_like(&self, name: &str, like: &Self::Table) -> Result<Self::Table, KvError> {
        let _span = self.tracer.span(names::DDL);
        self.inner
            .create_table_like(name, &like.inner)
            .map(|t| self.wrap(t))
    }

    fn create_table_like_replicated(
        &self,
        name: &str,
        like: &Self::Table,
    ) -> Result<Self::Table, KvError> {
        let _span = self.tracer.span(names::DDL);
        self.inner
            .create_table_like_replicated(name, &like.inner)
            .map(|t| self.wrap(t))
    }

    fn lookup_table(&self, name: &str) -> Result<Self::Table, KvError> {
        let _span = self.tracer.span(names::DDL);
        self.inner.lookup_table(name).map(|t| self.wrap(t))
    }

    fn drop_table(&self, name: &str) -> Result<(), KvError> {
        let _span = self.tracer.span(names::DDL);
        self.inner.drop_table(name)
    }

    fn table_names(&self) -> Vec<String> {
        let _span = self.tracer.span(names::DDL);
        self.inner.table_names()
    }

    fn run_at<R, F>(&self, reference: &Self::Table, part: PartId, task: F) -> TaskHandle<R>
    where
        R: Send + 'static,
        F: FnOnce(&dyn PartView) -> R + Send + 'static,
    {
        // The task runs on a thread of the store's choosing: carry the
        // causing span and the dispatch time over to it.
        let tracer = self.tracer.clone();
        let parent = CURRENT.with(Cell::get);
        let dispatched = tracer.now_ns();
        self.inner.run_at(&reference.inner, part, move |view| {
            let wait = tracer.now_ns().saturating_sub(dispatched);
            let _span = tracer.span_under(names::RUN_AT, parent, wait);
            task(&TracedView {
                inner: view,
                tracer: &tracer,
            })
        })
    }

    fn task_registry(&self) -> Option<&TaskRegistry> {
        self.inner.task_registry()
    }

    fn combiner_registry(&self) -> Option<&CombinerRegistry> {
        self.inner.combiner_registry()
    }

    fn bind_combiner(&self, table: &str, combiner: &CombinerSpec) -> Result<(), KvError> {
        let _span = self.tracer.span(names::DDL);
        self.inner.bind_combiner(table, combiner)
    }

    fn run_named_at(
        &self,
        reference: &Self::Table,
        part: PartId,
        task: &str,
        arg: Bytes,
    ) -> TaskHandle<Result<Bytes, KvError>> {
        // A named task may run in another process; only its dispatch is
        // visible from here.
        let mut span = self.tracer.span(names::RUN_AT);
        span.add(1, arg.len() as u64);
        self.inner.run_named_at(&reference.inner, part, task, arg)
    }

    fn metrics(&self) -> StoreMetrics {
        self.inner.metrics()
    }

    fn set_event_sink(&self, sink: Arc<dyn StoreEventSink>) {
        self.inner.set_event_sink(sink);
    }

    fn set_op_deadline(&self, deadline: Option<std::time::Duration>) {
        self.inner.set_op_deadline(deadline);
    }

    fn ping_part(&self, part: PartId) -> Result<u64, KvError> {
        self.inner.ping_part(part)
    }

    fn part_metrics(&self) -> Vec<StoreMetrics> {
        self.inner.part_metrics()
    }

    // `run_at_all`, `enumerate_parts` and `enumerate_pairs` keep their
    // default bodies: no backend overrides them, and the defaults go through
    // `run_at` above, so their part tasks are traced.

    fn snapshot_table(&self, table: &Self::Table) -> Result<TableSnapshot, KvError> {
        let mut span = self.tracer.span(names::SNAPSHOT);
        let snapshot = self.inner.snapshot_table(&table.inner)?;
        span.add(snapshot.len() as u64, 0);
        Ok(snapshot)
    }
}
