//! The synchronized engine's part-granular state plane, seen from outside:
//! write-behind and read-ahead must be invisible to a job (read-your-write,
//! delete-after-write), must keep state ahead of the messages it produced,
//! must heal through the retry policy like the point operations they
//! replace — and must actually be part-granular: the number of store calls
//! a part task issues does not grow with the number of components.  A step
//! is one such task per part, whatever order a gate runs them in.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;

use bytes::Bytes;
use ripple::ebsp::{RunMetrics, SemaphoreGate, TaskGate};
use ripple::graph::generate::{power_law_graph, random_change_batch, random_undirected};
use ripple::graph::pagerank::{run_direct_on, structure_loader, AdaptivePageRank, PageRankConfig};
use ripple::graph::sssp::SelectiveInstance;
use ripple::kv::{KvError, PartView, ScanControl, StoreMetrics, TaskHandle};
use ripple::prelude::*;
use ripple::store::{FaultKind, FaultOp, FaultPlan};
use ripple::store_simple::SimpleStore;
use ripple::wire::from_wire;

// ---------------------------------------------------------------------------
// A store decorator that logs which SPI calls reach the inner store
// ---------------------------------------------------------------------------

/// One logged call: the calling thread, the operation, the table, and how
/// many records the call carried.
type Call = (ThreadId, &'static str, String, usize);

#[derive(Clone)]
struct Logged<S> {
    inner: S,
    log: Arc<Mutex<Vec<Call>>>,
    /// Armed: the next point operation on a table handle fails transiently.
    trip: Arc<AtomicBool>,
    /// Armed: the next part-view drain fails transiently after it drained.
    lose_ack: Arc<AtomicBool>,
}

#[derive(Clone)]
struct LoggedTable<T> {
    inner: T,
    log: Arc<Mutex<Vec<Call>>>,
    trip: Arc<AtomicBool>,
}

struct LoggedView<'a> {
    inner: &'a dyn PartView,
    log: &'a Mutex<Vec<Call>>,
    lose_ack: &'a AtomicBool,
}

fn record(log: &Mutex<Vec<Call>>, op: &'static str, table: &str, records: usize) {
    log.lock()
        .unwrap()
        .push((std::thread::current().id(), op, table.to_owned(), records));
}

impl<S: KvStore> Logged<S> {
    fn new(inner: S) -> Self {
        Self {
            inner,
            log: Arc::default(),
            trip: Arc::default(),
            lose_ack: Arc::default(),
        }
    }

    /// The first `get`, `put` or `delete` on a table handle fails with a
    /// transient fault; every later one goes through.
    fn failing_first_point_op(self) -> Self {
        self.trip.store(true, Ordering::SeqCst);
        self
    }

    fn tripped(&self) -> bool {
        !self.trip.load(Ordering::SeqCst)
    }

    /// The first part-view drain takes its pairs and deletes them, then
    /// fails transiently — as a networked drain does when the connection
    /// drops before the deletes are acknowledged.
    fn losing_first_drain_ack(self) -> Self {
        self.lose_ack.store(true, Ordering::SeqCst);
        self
    }

    fn wrap(&self, inner: S::Table) -> LoggedTable<S::Table> {
        LoggedTable {
            inner,
            log: Arc::clone(&self.log),
            trip: Arc::clone(&self.trip),
        }
    }

    fn calls(&self) -> Vec<Call> {
        self.log.lock().unwrap().clone()
    }
}

impl<T: Table> LoggedTable<T> {
    fn point(&self, op: &'static str) -> Result<(), KvError> {
        record(&self.log, op, self.name(), 1);
        if self.trip.swap(false, Ordering::SeqCst) {
            return Err(KvError::Transient {
                op,
                part: 0,
                detail: "first point op".into(),
            });
        }
        Ok(())
    }
}

impl<T: Table> Table for LoggedTable<T> {
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
        self.point("table.get")?;
        self.inner.get(key)
    }
    fn put(&self, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        self.point("table.put")?;
        self.inner.put(key, value)
    }
    fn put_batch(&self, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        record(&self.log, "table.put_batch", self.name(), pairs.len());
        self.inner.put_batch(pairs)
    }
    fn delete(&self, key: &RoutedKey) -> Result<bool, KvError> {
        self.point("table.delete")?;
        self.inner.delete(key)
    }
    fn len(&self) -> Result<usize, KvError> {
        self.inner.len()
    }
    fn clear(&self) -> Result<(), KvError> {
        self.inner.clear()
    }
}

impl PartView for LoggedView<'_> {
    fn part(&self) -> PartId {
        self.inner.part()
    }
    fn get(&self, table: &str, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        record(self.log, "get", table, 1);
        self.inner.get(table, key)
    }
    fn get_batch(&self, table: &str, keys: &[RoutedKey]) -> Result<Vec<Option<Bytes>>, KvError> {
        record(self.log, "get_batch", table, keys.len());
        self.inner.get_batch(table, keys)
    }
    fn put(&self, table: &str, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        record(self.log, "put", table, 1);
        self.inner.put(table, key, value)
    }
    fn put_batch(&self, table: &str, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        record(self.log, "put_batch", table, pairs.len());
        self.inner.put_batch(table, pairs)
    }
    fn delete(&self, table: &str, key: &RoutedKey) -> Result<bool, KvError> {
        record(self.log, "delete", table, 1);
        self.inner.delete(table, key)
    }
    fn scan(
        &self,
        table: &str,
        f: &mut dyn FnMut(&RoutedKey, &[u8]) -> ScanControl,
    ) -> Result<(), KvError> {
        self.inner.scan(table, f)
    }
    fn drain(
        &self,
        table: &str,
        f: &mut dyn FnMut(RoutedKey, Bytes) -> ScanControl,
    ) -> Result<(), KvError> {
        record(self.log, "drain", table, 0);
        self.inner.drain(table, f)?;
        if self.lose_ack.swap(false, Ordering::SeqCst) {
            return Err(KvError::Transient {
                op: "drain",
                part: self.part().0,
                detail: "acknowledgement lost".into(),
            });
        }
        Ok(())
    }
    fn len(&self, table: &str) -> Result<usize, KvError> {
        self.inner.len(table)
    }
}

impl<S: KvStore> KvStore for Logged<S> {
    type Table = LoggedTable<S::Table>;

    fn create_table(&self, spec: &TableSpec) -> Result<Self::Table, KvError> {
        self.inner.create_table(spec).map(|t| self.wrap(t))
    }
    fn create_table_like(&self, name: &str, like: &Self::Table) -> Result<Self::Table, KvError> {
        record(&self.log, "create_table_like", name, 0);
        self.inner
            .create_table_like(name, &like.inner)
            .map(|t| self.wrap(t))
    }
    fn lookup_table(&self, name: &str) -> Result<Self::Table, KvError> {
        self.inner.lookup_table(name).map(|t| self.wrap(t))
    }
    fn drop_table(&self, name: &str) -> Result<(), KvError> {
        record(&self.log, "drop_table", name, 0);
        self.inner.drop_table(name)
    }
    fn table_names(&self) -> Vec<String> {
        self.inner.table_names()
    }
    fn run_at<R, F>(&self, reference: &Self::Table, part: PartId, task: F) -> TaskHandle<R>
    where
        R: Send + 'static,
        F: FnOnce(&dyn PartView) -> R + Send + 'static,
    {
        let (log, lose_ack) = (Arc::clone(&self.log), Arc::clone(&self.lose_ack));
        self.inner.run_at(&reference.inner, part, move |view| {
            task(&LoggedView {
                inner: view,
                log: &log,
                lose_ack: &lose_ack,
            })
        })
    }
    fn metrics(&self) -> StoreMetrics {
        self.inner.metrics()
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

const TABLE: &str = "plane";

/// Every component exercises the plane's read/write/delete interplay on
/// its own state inside single invocations, and panics on the first
/// observation a pass-through store would not have produced.
struct ReadYourWrite;

impl Job for ReadYourWrite {
    type Key = u32;
    type State = u64;
    type Message = ();
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![TABLE.to_owned()]
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let k = *ctx.key();
        let loaded = u64::from(k) * 10;
        match ctx.step() {
            1 => {
                assert_eq!(ctx.read_state(0)?, Some(loaded), "the loaded state");
                ctx.write_state(0, &(loaded + 1))?;
                assert_eq!(ctx.read_state(0)?, Some(loaded + 1), "read-your-write");
                ctx.write_state(0, &(loaded + 2))?;
                assert_eq!(ctx.read_state(0)?, Some(loaded + 2), "the later write wins");
                if k % 2 == 1 {
                    assert!(ctx.delete_state(0)?, "a buffered write counts as existing");
                    assert_eq!(ctx.read_state(0)?, None, "deleted means gone");
                    assert!(!ctx.delete_state(0)?, "nothing left to delete");
                }
                if k.is_multiple_of(3) {
                    ctx.write_state(0, &(loaded + 3))?;
                    assert_eq!(ctx.read_state(0)?, Some(loaded + 3), "write after delete");
                }
                Ok(true)
            }
            _ => {
                // What step 1 left is what step 2 finds in the store.
                assert_eq!(
                    ctx.read_state(0)?,
                    final_state(k),
                    "state across the barrier"
                );
                Ok(false)
            }
        }
    }
}

fn final_state(k: u32) -> Option<u64> {
    let loaded = u64::from(k) * 10;
    if k.is_multiple_of(3) {
        Some(loaded + 3)
    } else if k % 2 == 1 {
        None
    } else {
        Some(loaded + 2)
    }
}

/// A ring of counters: every step each component adds what it received to
/// its state and passes its new state on — state read, state write and a
/// message per invocation.
struct Ring {
    n: u32,
    steps: u32,
    /// Declares `one-msg`, `no-continue` and `rare-state`, so the engine
    /// steals invocations (*run-anywhere*) and reaches state through table
    /// handles.
    anywhere: bool,
}

impl Job for Ring {
    type Key = u32;
    type State = u64;
    type Message = u64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![TABLE.to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            deterministic: true,
            one_msg: self.anywhere,
            no_continue: self.anywhere,
            rare_state: self.anywhere,
            ..JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let received: u64 = ctx.messages().iter().sum();
        let state = ctx.read_state(0)?.unwrap_or(0) + received + 1;
        ctx.write_state(0, &state)?;
        if ctx.step() < self.steps {
            ctx.send((*ctx.key() + 1) % self.n, state);
        }
        Ok(false)
    }
}

fn load_keys<J: Job<Key = u32, State = u64>>(n: u32) -> Box<dyn Loader<J>> {
    Box::new(FnLoader::new(move |sink: &mut dyn LoadSink<J>| {
        for k in 0..n {
            sink.state(0, k, u64::from(k) * 10)?;
            sink.enable(k)?;
        }
        Ok(())
    }))
}

fn raw_table<S: KvStore>(store: &S) -> Vec<(RoutedKey, Bytes)> {
    raw_table_named(store, TABLE)
}

fn raw_table_named<S: KvStore>(store: &S, name: &str) -> Vec<(RoutedKey, Bytes)> {
    let table = store.lookup_table(name).expect("state table");
    store
        .snapshot_table(&table)
        .expect("snapshot")
        .entries()
        .to_vec()
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn reads_see_buffered_writes_and_deletes_inside_one_invocation() {
    let n = 60u32;
    let store = MemStore::builder().default_parts(3).build();
    let outcome = JobRunner::new(store.clone())
        .launch(
            Arc::new(ReadYourWrite),
            RunOptions::new().loader(load_keys(n)),
        )
        .expect("run");
    assert_eq!(outcome.steps, 2);

    let table = store.lookup_table(TABLE).unwrap();
    let exporter = Arc::new(CollectingExporter::<u32, u64>::new());
    export_state_table(&store, &table, Arc::clone(&exporter)).unwrap();
    let mut got = exporter.take();
    got.sort_unstable();
    let want: Vec<(u32, u64)> = (0..n)
        .filter_map(|k| final_state(k).map(|s| (k, s)))
        .collect();
    assert_eq!(got, want);

    // And the pass-through reference store ends byte-identical.
    let simple = SimpleStore::new(3);
    JobRunner::new(simple.clone())
        .launch(
            Arc::new(ReadYourWrite),
            RunOptions::new().loader(load_keys(n)),
        )
        .expect("reference run");
    assert_eq!(raw_table(&store), raw_table(&simple));
}

#[test]
fn state_is_flushed_before_the_spills_it_produced() {
    let store = Logged::new(MemStore::builder().default_parts(3).build());
    JobRunner::new(store.clone())
        .launch(
            Arc::new(Ring {
                n: 90,
                steps: 4,
                anywhere: false,
            }),
            RunOptions::new().loader(load_keys(90)),
        )
        .expect("run");

    // Per store thread (one part task at a time runs on each): between the
    // transport drain that opens a part task and the transport write that
    // ends it, the state flush comes first — and never after.
    let calls = store.calls();
    let threads: std::collections::HashSet<ThreadId> = calls.iter().map(|c| c.0).collect();
    let mut checked = 0;
    for thread in threads {
        let mut flushed_since_drain = false;
        let mut spilled = false;
        for (_, op, table, _) in calls.iter().filter(|c| c.0 == thread) {
            match (*op, table.as_str()) {
                ("drain", t) if t.starts_with("__ebsp_xport") => {
                    flushed_since_drain = false;
                    spilled = false;
                }
                ("put_batch", TABLE) => {
                    assert!(!spilled, "state written after the step's spills");
                    flushed_since_drain = true;
                }
                ("table.put_batch", t) if t.starts_with("__ebsp_xport") => {
                    if flushed_since_drain {
                        checked += 1;
                    }
                    spilled = true;
                }
                _ => {}
            }
        }
    }
    assert!(
        checked >= 9,
        "3 parts × 3 sending steps spill after a flush"
    );
}

#[test]
fn store_calls_per_part_task_do_not_grow_with_the_component_count() {
    let budget = |n: u32| {
        let store = Logged::new(MemStore::builder().default_parts(3).build());
        let outcome = JobRunner::new(store.clone())
            .launch(
                Arc::new(Ring {
                    n,
                    steps: 4,
                    anywhere: false,
                }),
                RunOptions::new().loader(load_keys(n)),
            )
            .expect("run");
        assert_eq!(outcome.metrics.state_reads, u64::from(n) * 4);
        assert_eq!(outcome.metrics.state_writes, u64::from(n) * 4);
        let calls = store.calls();
        for (_, op, table, _) in &calls {
            assert!(
                !matches!(*op, "get" | "put" | "table.put" | "table.get"),
                "per-record {op} on {table}"
            );
        }
        let read: usize = calls
            .iter()
            .filter(|c| c.1 == "get_batch")
            .map(|c| c.3)
            .sum();
        assert_eq!(read, n as usize * 4, "every state read came from a batch");
        // The exact count the benchmark's decorator test pins per record
        // (`benchmark/tests/traced_store.rs`), restated per batch: every
        // loaded state and every state write reached the store, once.
        let written: usize = calls
            .iter()
            .filter(|c| matches!(c.1, "put_batch" | "table.put_batch") && c.2 == TABLE)
            .map(|c| c.3)
            .sum();
        assert_eq!(written as u64, u64::from(n) + outcome.metrics.state_writes);
        calls.len()
    };
    // 30 and 300 components per part both fit one read-ahead window and
    // one write-behind buffer: the same calls, ten times the records.
    assert_eq!(budget(90), budget(900));
}

/// Components whose state is a 4 KiB block, read once.
struct Blocks;

const BLOCK: usize = 4 << 10;

impl Job for Blocks {
    type Key = u32;
    type State = String;
    type Message = ();
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![TABLE.to_owned()]
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        assert_eq!(ctx.read_state(0)?.map(|s| s.len()), Some(BLOCK));
        Ok(false)
    }
}

#[test]
fn read_ahead_windows_shrink_to_a_byte_budget_for_large_states() {
    let n = 700u32;
    let store = Logged::new(MemStore::builder().default_parts(1).build());
    let loader = FnLoader::new(move |sink: &mut dyn LoadSink<Blocks>| {
        for k in 0..n {
            sink.state(0, k, "b".repeat(BLOCK))?;
            sink.enable(k)?;
        }
        Ok(())
    });
    JobRunner::new(store.clone())
        .launch(Arc::new(Blocks), RunOptions::new().loader(Box::new(loader)))
        .expect("run");

    let windows: Vec<usize> = store
        .calls()
        .iter()
        .filter(|c| c.1 == "get_batch" && c.2 == TABLE)
        .map(|c| c.3)
        .collect();
    assert_eq!(windows.iter().sum::<usize>(), n as usize);
    // The first window knows no state size and is bounded by key count;
    // every later one holds at most the 256 KiB the write side buffers.
    assert_eq!(windows[0], 512);
    assert!(windows.len() > 2, "{windows:?}");
    for window in &windows[1..] {
        assert!(window * BLOCK <= 256 << 10, "{windows:?}");
    }
}

#[test]
fn transient_faults_on_state_batches_heal_to_the_reference_output() {
    let n = 90u32;
    let job = || {
        Arc::new(Ring {
            n,
            steps: 6,
            anywhere: false,
        })
    };

    let simple = SimpleStore::new(3);
    JobRunner::new(simple.clone())
        .launch(job(), RunOptions::new().loader(load_keys(n)))
        .expect("reference run");

    // Part views fail one get in fifty (a read-ahead batch loops over
    // ~30) and two flushes in five.
    let plan = FaultPlan::seeded(0x5EED)
        .transient_gets(0.02)
        .transient_puts(0.4);
    let store = MemStore::builder()
        .default_parts(3)
        .fault_plan(plan)
        .build();
    let mut runner = JobRunner::new(store.clone());
    runner.retry_policy(
        RetryPolicy::default()
            .max_attempts(16)
            .base_delay(std::time::Duration::from_micros(10)),
    );
    let outcome = runner
        .launch(job(), RunOptions::new().loader(load_keys(n)))
        .expect("faulted run heals");

    let trace = store.fault_trace();
    let injected = |op: FaultOp| {
        trace
            .iter()
            .filter(|r| r.kind == FaultKind::Transient && r.op == op)
            .count()
    };
    assert!(
        injected(FaultOp::Get) >= 1,
        "no read-ahead fault: {trace:?}"
    );
    assert!(injected(FaultOp::Put) >= 1, "no flush fault: {trace:?}");
    assert!(outcome.metrics.retries >= 2);
    assert_eq!(raw_table(&store), raw_table(&simple));
}

/// Run-anywhere state access goes through table handles, not part views,
/// and must heal through the retry policy like its pinned twin.
#[test]
fn a_transient_point_fault_under_run_anywhere_heals_to_the_reference_output() {
    let n = 90u32;
    let job = || {
        Arc::new(Ring {
            n,
            steps: 4,
            anywhere: true,
        })
    };
    let simple = SimpleStore::new(3);
    JobRunner::new(simple.clone())
        .launch(job(), RunOptions::new().loader(load_keys(n)))
        .expect("reference run");

    let store = Logged::new(MemStore::builder().default_parts(3).build()).failing_first_point_op();
    let outcome = JobRunner::new(store.clone())
        .launch(job(), RunOptions::new().loader(load_keys(n)))
        .expect("the stolen invocation's state access is retried");
    assert!(store.tripped(), "no point operation reached a table handle");
    assert_eq!(outcome.metrics.retries, 1);
    assert_eq!(raw_table(&store.inner), raw_table(&simple));
}

// ---------------------------------------------------------------------------
// The single-round step
// ---------------------------------------------------------------------------

#[test]
fn a_step_is_one_task_per_part_and_no_inbox_table_exists() {
    let store = Logged::new(MemStore::builder().default_parts(3).build());
    let outcome = JobRunner::new(store.clone())
        .launch(
            Arc::new(Ring {
                n: 90,
                steps: 4,
                anywhere: false,
            }),
            RunOptions::new().loader(load_keys(90)),
        )
        .expect("run");
    assert_eq!(outcome.steps, 4);
    assert_eq!(
        outcome.metrics.store.tasks_dispatched,
        3 * 4,
        "parts × steps part tasks"
    );

    // The run's temporaries are the two transports, and every drain of a
    // step reads the one the step does not spill into.
    let calls = store.calls();
    let mut created: Vec<&str> = calls
        .iter()
        .filter(|c| c.1 == "create_table_like" && c.2.starts_with("__ebsp_"))
        .map(|c| c.2.as_str())
        .collect();
    created.sort_unstable();
    assert_eq!(created.len(), 2, "{created:?}");
    assert!(created[0].starts_with("__ebsp_xport0_"), "{created:?}");
    assert!(created[1].starts_with("__ebsp_xport1_"), "{created:?}");
    assert_eq!(calls.iter().filter(|c| c.1 == "drain").count(), 3 * 4);
    for (_, op, table, _) in &calls {
        assert!(!table.starts_with("__ebsp_inbox"), "{op} on {table}");
    }
}

/// Every component tells two others, on other parts, which step it is in.
/// What a step spills must reach the *next* step — never the step that
/// spilled it, however far ahead of its neighbours a part's task runs.
struct StepTagged {
    n: u32,
    steps: u32,
}

impl Job for StepTagged {
    type Key = u32;
    type State = u64;
    type Message = u32;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![TABLE.to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            deterministic: true,
            ..JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let (k, step) = (*ctx.key(), ctx.step());
        if step > 1 && ctx.messages().len() != 2 {
            return Err(EbspError::InvalidJob {
                reason: format!("{k} got {:?} in step {step}", ctx.messages()),
            });
        }
        if let Some(early) = ctx.messages().iter().find(|sent| **sent + 1 != step) {
            return Err(EbspError::InvalidJob {
                reason: format!("{k} got a step-{early} message in step {step}"),
            });
        }
        let state = ctx.read_state(0)?.unwrap_or(0) + u64::from(step);
        ctx.write_state(0, &state)?;
        if step < self.steps {
            ctx.send((k + 1) % self.n, step);
            ctx.send((k + 7) % self.n, step);
        }
        Ok(false)
    }
}

/// A runner whose part tasks run strictly one at a time: in every step
/// some part's whole task — its spills included — finishes before another
/// part's starts draining.
fn one_at_a_time<S: KvStore>(store: &S) -> JobRunner<S> {
    let mut runner = JobRunner::new(store.clone());
    runner.task_gate(Arc::new(SemaphoreGate::new(1)) as Arc<dyn TaskGate>);
    runner
}

#[test]
fn a_part_running_ahead_never_delivers_a_step_its_own_spills() {
    let job = || Arc::new(StepTagged { n: 90, steps: 6 });
    let gated = MemStore::builder().default_parts(3).build();
    let outcome = one_at_a_time(&gated)
        .launch(job(), RunOptions::new().loader(load_keys(90)))
        .expect("gated run");
    assert_eq!(outcome.steps, 6);
    assert_eq!(outcome.metrics.store.tasks_dispatched, 3 * 6);

    let free = MemStore::builder().default_parts(3).build();
    JobRunner::new(free.clone())
        .launch(job(), RunOptions::new().loader(load_keys(90)))
        .expect("ungated run");
    assert_eq!(raw_table(&gated), raw_table(&free));
}

#[test]
fn pagerank_and_selective_sssp_are_byte_identical_under_a_one_permit_gate() {
    let graph = power_law_graph(300, 2_400, 0.8, 16);
    let config = PageRankConfig {
        iterations: 5,
        ..PageRankConfig::default()
    };
    let gated = MemStore::builder().default_parts(4).build();
    let free = MemStore::builder().default_parts(4).build();
    let a = run_direct_on(&one_at_a_time(&gated), "ranks", &graph, config).expect("gated");
    let b = run_direct_on(&JobRunner::new(free.clone()), "ranks", &graph, config).expect("free");
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.metrics.messages_combined, b.metrics.messages_combined);
    assert_eq!(
        raw_table_named(&gated, "ranks"),
        raw_table_named(&free, "ranks")
    );

    let evolving = random_undirected(200, 600, 0.5, 16);
    let batch = random_change_batch(200, 40, 0.5, 17);
    let solve = |store: &MemStore, runner: &JobRunner<MemStore>| {
        let (instance, _) =
            SelectiveInstance::initialize_on(runner, store, "dists", evolving.graph(), 0)
                .expect("initial solve");
        let wave = instance.apply_batch_on(runner, &batch).expect("wave");
        (wave.steps, wave.metrics.invocations)
    };
    let gated_wave = solve(&gated, &one_at_a_time(&gated));
    let free_wave = solve(&free, &JobRunner::new(free.clone()));
    assert_eq!(gated_wave, free_wave);
    assert!(gated_wave.0 >= 1, "the batch must start a wave");
    assert_eq!(
        raw_table_named(&gated, "dists"),
        raw_table_named(&free, "dists")
    );
}

// ---------------------------------------------------------------------------
// Slot hygiene: the buffers a part keeps from step to step carry nothing over
// ---------------------------------------------------------------------------

const FAN: u32 = 90;

/// Every component adds what it heard to its state and tells two others;
/// a summing combiner folds what meets, at the sender or on arrival.
struct Fan {
    /// Declares what lets the engine steal invocations (*run-anywhere*):
    /// the combiner always folds, so one message per key arrives.
    anywhere: bool,
    /// The step before which the aborter ends the run, if any.
    abort_at: Option<u32>,
}

impl Job for Fan {
    type Key = u32;
    type State = u64;
    type Message = u64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![TABLE.to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            deterministic: true,
            one_msg: self.anywhere,
            no_continue: self.anywhere,
            rare_state: self.anywhere,
            ..JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let (k, step) = (*ctx.key(), ctx.step());
        let heard: u64 = ctx.messages().iter().sum();
        let state = ctx.read_state(0)?.unwrap_or(0) * 3 + heard + u64::from(step);
        ctx.write_state(0, &state)?;
        if step < 5 {
            ctx.send((k + 1) % FAN, state);
            ctx.send((k + 7) % FAN, state);
        }
        Ok(false)
    }

    fn combine_messages(&self, _key: &u32, into: &mut u64, msg: u64) -> Option<u64> {
        *into += msg;
        None
    }

    fn has_aborter(&self) -> bool {
        self.abort_at.is_some()
    }

    fn aborter(&self, _aggregates: &AggregateSnapshot, next_step: u32) -> bool {
        self.abort_at == Some(next_step)
    }
}

/// The counts a leftover in a part's buffers would change.
fn plane_counts(metrics: &RunMetrics) -> [u64; 4] {
    [
        metrics.messages_sent,
        metrics.messages_combined,
        metrics.spill_batches,
        metrics.invocations,
    ]
}

/// `Fan` on the store-simple oracle, one part task at a time (so a
/// run-anywhere step has one stealing worker and spills the same batches
/// every run): its state table and its counts.
fn fan_reference(anywhere: bool) -> (Vec<(RoutedKey, Bytes)>, [u64; 4]) {
    let simple = SimpleStore::new(3);
    let outcome = one_at_a_time(&simple)
        .launch(
            Arc::new(Fan {
                anywhere,
                abort_at: None,
            }),
            RunOptions::new().loader(load_keys(FAN)),
        )
        .expect("reference run");
    assert_eq!(outcome.steps, 5);
    (raw_table(&simple), plane_counts(&outcome.metrics))
}

/// A transport `put_batch` that fails after the outbox was encoded and
/// emptied is retried from the spills already written out, not from the
/// outbox.
#[test]
fn a_transport_batch_failing_after_the_outbox_drained_heals_to_the_reference() {
    let (table, counts) = fan_reference(false);
    // Each issuer's first table-handle batch into each table fails once:
    // the loader's, and every part's first spill into either transport.
    let plan = FaultPlan::seeded(0x5107).transient_batches(1);
    let store = MemStore::builder()
        .default_parts(3)
        .fault_plan(plan)
        .build();
    let outcome = JobRunner::new(store.clone())
        .launch(
            Arc::new(Fan {
                anywhere: false,
                abort_at: None,
            }),
            RunOptions::new().loader(load_keys(FAN)),
        )
        .expect("the faulted run heals");
    let spill_faults = (store.fault_trace().iter())
        .filter(|r| r.op == FaultOp::Batch && r.part != u32::MAX)
        .count();
    assert_eq!(
        spill_faults,
        3 * 2,
        "every part's first spill into each transport"
    );
    assert_eq!(plane_counts(&outcome.metrics), counts);
    assert_eq!(raw_table(&store), table);
}

/// Launches of one job on one runner share nothing: each counts and ends
/// as the reference does — also after a first launch that was aborted with
/// what its parts sent themselves still in their slots.
#[test]
fn a_second_launch_on_one_runner_counts_and_ends_like_the_first() {
    let (table, counts) = fan_reference(false);
    for abort_first in [false, true] {
        let store = MemStore::builder().default_parts(3).build();
        let runner = JobRunner::new(store.clone());
        for launch in 1..=2 {
            let abort_at = (abort_first && launch == 1).then_some(3);
            let fan = Fan {
                anywhere: false,
                abort_at,
            };
            let outcome = (runner.launch(Arc::new(fan), RunOptions::new().loader(load_keys(FAN))))
                .expect("run");
            let launch = format!("launch {launch}, abort_first {abort_first}");
            if abort_at.is_some() {
                assert!(outcome.aborted && outcome.steps == 2, "{launch}");
                continue;
            }
            assert_eq!(plane_counts(&outcome.metrics), counts, "{launch}");
            assert_eq!(raw_table(&store), table, "{launch}");
        }
    }
}

/// Components that message and re-enable only themselves, so every
/// envelope a part sends is its own.
struct SelfTalk;

impl Job for SelfTalk {
    type Key = u32;
    type State = u64;
    type Message = u64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![TABLE.to_owned()]
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let heard: u64 = ctx.messages().iter().sum();
        let state = ctx.read_state(0)?.unwrap_or(0) + heard;
        ctx.write_state(0, &state)?;
        if ctx.step() < 4 {
            ctx.send(*ctx.key(), state + 1);
        }
        Ok(ctx.step() < 3)
    }
}

/// What a part sends to itself stays in its memory: after the loader's
/// step-0 spill, a run of only self-addressed traffic writes no transport.
#[test]
fn self_addressed_traffic_writes_no_transport_after_step_zero() {
    let store = Logged::new(MemStore::builder().default_parts(3).build());
    let outcome = JobRunner::new(store.clone())
        .launch(Arc::new(SelfTalk), RunOptions::new().loader(load_keys(90)))
        .expect("run");
    assert_eq!(outcome.steps, 4);
    let spills = (store.calls().into_iter())
        .filter(|c| c.1 == "table.put_batch" && c.2.starts_with("__ebsp_xport"))
        .map(|c| (c.0, c.2))
        .collect::<Vec<_>>();
    let loader = (
        std::thread::current().id(),
        "__ebsp_xport0_plane_0".to_owned(),
    );
    assert_eq!(spills, [loader], "only the loader spills");
    assert_eq!(
        outcome.metrics.spill_batches, 3,
        "one loader batch per part"
    );
    // Step 1 hears nothing; steps 2 to 4 each add what the last sent.
    let want: Vec<u64> = (0..90u64)
        .map(|k| (0..3).fold(k * 10, |state, _| 2 * state + 1))
        .collect();
    let got: Vec<u64> = {
        let table = store.lookup_table(TABLE).expect("state table");
        let mut pairs: Vec<(u32, u64)> = (store.snapshot_table(&table).expect("snapshot"))
            .entries()
            .iter()
            .map(|(k, v)| (from_wire(k.body()).unwrap(), from_wire(v).unwrap()))
            .collect();
        pairs.sort_unstable();
        pairs.into_iter().map(|(_, v)| v).collect()
    };
    assert_eq!(got, want);
}

/// Run-anywhere delivers through each part's buffers in one round and
/// spills from them in the next.
#[test]
fn run_anywhere_rounds_count_and_end_like_the_reference() {
    let (table, counts) = fan_reference(true);
    let store = MemStore::builder().default_parts(3).build();
    let outcome = one_at_a_time(&store)
        .launch(
            Arc::new(Fan {
                anywhere: true,
                abort_at: None,
            }),
            RunOptions::new().loader(load_keys(FAN)),
        )
        .expect("run");
    assert_eq!(plane_counts(&outcome.metrics), counts);
    assert_eq!(raw_table(&store), table);
}

// ---------------------------------------------------------------------------
// Runner-owned temporaries: a launch leases its runner's transports
// ---------------------------------------------------------------------------

/// The engine temporaries a logged store saw `op` on, in call order.
fn temp_calls(store: &Logged<MemStore>, op: &str) -> Vec<String> {
    (store.calls().into_iter())
        .filter(|c| c.1 == op && c.2.starts_with("__ebsp_"))
        .map(|c| c.2)
        .collect()
}

fn no_temporaries_left<S: KvStore>(store: &S) {
    let left: Vec<_> = (store.table_names().into_iter())
        .filter(|name| name.starts_with("__ebsp_"))
        .collect();
    assert!(left.is_empty(), "{left:?}");
}

#[test]
fn launches_on_one_runner_create_the_transports_once_and_its_drop_drops_them() {
    let store = Logged::new(MemStore::builder().default_parts(3).build());
    let runner = JobRunner::new(store.clone());
    for _ in 0..3 {
        let ring = Ring {
            n: 90,
            steps: 4,
            anywhere: false,
        };
        (runner.launch(Arc::new(ring), RunOptions::new().loader(load_keys(90)))).expect("run");
    }
    let pair = ["__ebsp_xport0_plane_0", "__ebsp_xport1_plane_0"];
    assert_eq!(temp_calls(&store, "create_table_like"), pair);
    assert!(temp_calls(&store, "drop_table").is_empty());
    let clone = runner.clone();
    drop(runner);
    assert!(
        temp_calls(&store, "drop_table").is_empty(),
        "a clone holds them"
    );
    drop(clone);
    assert_eq!(temp_calls(&store, "drop_table"), pair);
    no_temporaries_left(&store);
}

#[test]
fn a_launch_after_an_aborted_one_ends_like_a_fresh_runners() {
    let graph = power_law_graph(300, 2_400, 0.8, 21);
    let job = || Arc::new(AdaptivePageRank::new("adaptive", 300, 0.85, 1e-3));
    let launch = |runner: &JobRunner<MemStore>| {
        (runner.launch(job(), RunOptions::new().loader(structure_loader(&graph)))).expect("run")
    };
    let fresh = MemStore::builder().default_parts(3).build();
    let want = launch(&JobRunner::new(fresh.clone()));
    assert!(
        want.aborted,
        "the aborter ends the run, spills still in flight"
    );

    let store = MemStore::builder().default_parts(3).build();
    let runner = JobRunner::new(store.clone());
    assert!(launch(&runner).aborted);
    let again = launch(&runner);
    assert_eq!(again.steps, want.steps);
    assert_eq!(
        raw_table_named(&store, "adaptive"),
        raw_table_named(&fresh, "adaptive")
    );
}

/// A drain retried after its deletes landed finds its slice empty; what
/// the failed attempt drained is still delivered, once.
#[test]
fn a_drain_retried_after_its_deletes_landed_loses_nothing() {
    let ring = || {
        Arc::new(Ring {
            n: 90,
            steps: 4,
            anywhere: false,
        })
    };
    let simple = SimpleStore::new(3);
    JobRunner::new(simple.clone())
        .launch(ring(), RunOptions::new().loader(load_keys(90)))
        .expect("reference run");
    let store = Logged::new(MemStore::builder().default_parts(3).build()).losing_first_drain_ack();
    let outcome = JobRunner::new(store.clone())
        .launch(ring(), RunOptions::new().loader(load_keys(90)))
        .expect("the run heals");
    assert!(
        !store.lose_ack.load(Ordering::SeqCst),
        "a drain lost its ack"
    );
    assert_eq!(outcome.metrics.retries, 1);
    assert_eq!(outcome.steps, 4);
    assert_eq!(raw_table(&store.inner), raw_table(&simple));
}

#[test]
fn a_clean_launch_after_a_failed_one_on_the_same_runner_matches_the_oracle() {
    let ring = || {
        Arc::new(Ring {
            n: 90,
            steps: 4,
            anywhere: false,
        })
    };
    let simple = SimpleStore::new(3);
    JobRunner::new(simple.clone())
        .launch(ring(), RunOptions::new().loader(load_keys(90)))
        .expect("reference run");

    let plan = FaultPlan::seeded(0xC4A5).crash_part(1, 4);
    let store = MemStore::builder()
        .default_parts(3)
        .fault_plan(plan)
        .build();
    let runner = JobRunner::new(store.clone());
    let failed = runner.launch(ring(), RunOptions::new().loader(load_keys(90)));
    assert!(failed.is_err(), "the crash fails a run without recovery");
    let reference = store.lookup_table(TABLE).unwrap();
    store.promote_replicas(&reference, PartId(1)).unwrap();
    runner
        .launch(ring(), RunOptions::new().loader(load_keys(90)))
        .expect("clean run");
    assert_eq!(raw_table(&store), raw_table(&simple));
}

/// Parks each launch at its first invocation of key 0 until `meet` has
/// seen every launch there, so the launches overlap.
struct Meeting {
    meet: Arc<Barrier>,
}

impl Job for Meeting {
    type Key = u32;
    type State = u64;
    type Message = ();
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![TABLE.to_owned()]
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        if *ctx.key() == 0 {
            self.meet.wait();
        }
        Ok(false)
    }
}

#[test]
fn concurrent_launches_on_two_clones_use_distinct_pairs() {
    let store = Logged::new(MemStore::builder().default_parts(3).build());
    let runner = JobRunner::new(store.clone());
    // Made up front, so the two launches do not race to create it.
    store
        .create_table(&TableSpec::new(TABLE))
        .expect("state table");
    let meet = Arc::new(Barrier::new(2));
    let launches: Vec<_> = [runner.clone(), runner]
        .into_iter()
        .map(|runner| {
            let job = Arc::new(Meeting {
                meet: Arc::clone(&meet),
            });
            std::thread::spawn(move || {
                (runner.launch(job, RunOptions::new().loader(load_keys(9)))).expect("run");
                runner
            })
        })
        .collect();
    let runners: Vec<_> = launches.into_iter().map(|l| l.join().unwrap()).collect();
    // The launch that came second found index 0 taken and took 1.
    let mut created = temp_calls(&store, "create_table_like");
    created.sort();
    created.dedup();
    assert_eq!(
        created,
        [
            "__ebsp_xport0_plane_0",
            "__ebsp_xport0_plane_1",
            "__ebsp_xport1_plane_0",
            "__ebsp_xport1_plane_1"
        ]
    );
    // One pair went back to the slot; the other found it full.
    assert_eq!(temp_calls(&store, "drop_table").len(), 2);
    drop(runners);
    assert_eq!(temp_calls(&store, "drop_table").len(), 4);
    no_temporaries_left(&store);
}
