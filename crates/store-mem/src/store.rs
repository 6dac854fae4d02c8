use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use ripple_kv::{
    CombineFn, CombinerRegistry, CombinerSpec, Counter, KvError, KvStore, PartExecutor, PartId,
    PartView, StoreCounters, StoreMetrics, Table, TableSpec, TaskHandle,
};

use crate::fault::{FaultAction, FaultInjector, FaultOp, FaultPlan, FaultRecord};
use crate::table::{MemTable, TableInner};
use crate::view::MemPartView;
use crate::{at_locality, Partitioning};

/// Store-wide shared state.
#[derive(Debug)]
pub(crate) struct StoreInner {
    tables: RwLock<HashMap<String, Arc<TableInner>>>,
    /// Operation counters, attributed to the part that served each
    /// operation; whole-table operations (`len`/`clear`) count unattributed.
    pub(crate) counters: StoreCounters,
    default_parts: u32,
    next_partitioning: AtomicU64,
    /// Fault-decision engine, present when the store was built with a
    /// [`FaultPlan`].
    injector: Option<Arc<FaultInjector>>,
    /// Named fold functions available for combiner bindings.
    combiners: CombinerRegistry,
    /// table name → combiner name for tables bound with `bind_combiner`.
    bindings: RwLock<HashMap<String, String>>,
    /// The part threads every group's tasks run on (the long lanes), and
    /// those remote operations hop to (the short lanes): apart, so that
    /// each role keeps a malloc arena of its own.
    pub(crate) executor: PartExecutor,
    pub(crate) hops: PartExecutor,
}

impl StoreInner {
    pub(crate) fn table(&self, name: &str) -> Result<Arc<TableInner>, KvError> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| KvError::NoSuchTable {
                name: name.to_owned(),
            })
    }

    /// The fold function bound to `table`, if any.  A binding whose name
    /// has been unregistered since resolves to `None` — best-effort, per
    /// the `bind_combiner` contract.
    pub(crate) fn fold_for(&self, table: &str) -> Option<CombineFn> {
        let name = self.bindings.read().get(table).cloned()?;
        self.combiners.get(&name)
    }

    /// Crashes `part` of a partitioning group: clears every co-partitioned
    /// primary (backups survive) and marks the part failed — the same
    /// semantics as [`MemStore::fail_part`], but reachable from a part view.
    fn crash_part(&self, partitioning_id: u64, part: PartId) {
        let tables = self.tables.read();
        let mut partitioning = None;
        for t in tables.values() {
            if !t.ubiquitous && t.partitioning.id == partitioning_id {
                t.parts[part.index()].lock().clear();
                partitioning.get_or_insert_with(|| Arc::clone(&t.partitioning));
            }
        }
        if let Some(p) = partitioning {
            p.set_failed(part, true);
        }
    }

    /// Consults the fault plan (if any) about one part-view operation.
    /// Returns the error to surface, or `Ok(())` to let the operation
    /// proceed (possibly after an injected delay).
    pub(crate) fn fault_check(
        &self,
        partitioning_id: u64,
        part: PartId,
        op: FaultOp,
    ) -> Result<(), KvError> {
        let Some(injector) = &self.injector else {
            return Ok(());
        };
        match injector.decide(part.0, op) {
            None => Ok(()),
            Some(FaultAction::Delay(d)) => {
                #[expect(clippy::disallowed_methods, reason = "FaultAction::Delay by design")]
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultAction::Fail) => Err(KvError::Transient {
                op: op.name(),
                part: part.0,
                detail: "injected transient fault".to_owned(),
            }),
            Some(FaultAction::Crash) => {
                self.crash_part(partitioning_id, part);
                Err(KvError::PartFailed { part: part.0 })
            }
        }
    }

    /// Consults the fault plan (if any) about a drain or a table-handle
    /// batch that `part` issues against `table`.
    pub(crate) fn scripted_fault_check(
        &self,
        part: u32,
        op: FaultOp,
        table: &str,
    ) -> Result<(), KvError> {
        match &self.injector {
            Some(injector) if injector.decide_scripted(part, op, table) => {
                Err(KvError::Transient {
                    op: op.name(),
                    part,
                    detail: "injected transient fault".to_owned(),
                })
            }
            _ => Ok(()),
        }
    }
}

/// Builder for [`MemStore`].
///
/// # Examples
///
/// ```
/// let store = ripple_store_mem::MemStore::builder().default_parts(6).build();
/// # let _ = store;
/// ```
#[derive(Debug, Clone)]
pub struct MemStoreBuilder {
    default_parts: u32,
    fault_plan: Option<FaultPlan>,
}

impl MemStoreBuilder {
    /// Number of parts for tables whose spec does not override it; the
    /// paper's PageRank runs used 6.
    pub fn default_parts(&mut self, parts: u32) -> &mut Self {
        assert!(parts > 0, "a store needs at least one part");
        self.default_parts = parts;
        self
    }

    /// Arms the store with a seeded fault script; see [`FaultPlan`].
    pub fn fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builds the store.
    pub fn build(&self) -> MemStore {
        MemStore {
            inner: Arc::new(StoreInner {
                tables: RwLock::new(HashMap::new()),
                counters: StoreCounters::new(),
                default_parts: self.default_parts,
                next_partitioning: AtomicU64::new(1),
                injector: self
                    .fault_plan
                    .clone()
                    .map(|plan| Arc::new(FaultInjector::new(plan))),
                combiners: CombinerRegistry::new(),
                bindings: RwLock::new(HashMap::new()),
                executor: PartExecutor::new("ripple-store"),
                hops: PartExecutor::new("ripple-store-hop"),
            }),
        }
    }
}

impl Default for MemStoreBuilder {
    fn default() -> Self {
        Self {
            default_parts: 4,
            fault_plan: None,
        }
    }
}

/// The in-process partitioned key/value store (see the crate docs).
#[derive(Debug, Clone)]
pub struct MemStore {
    pub(crate) inner: Arc<StoreInner>,
}

impl MemStore {
    /// Creates a store with the default part count (4).
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Starts configuring a store.
    pub fn builder() -> MemStoreBuilder {
        MemStoreBuilder::default()
    }

    /// The part count used when a [`TableSpec`] leaves it at 1 and the table
    /// is not ubiquitous.
    pub fn default_parts(&self) -> u32 {
        self.inner.default_parts
    }

    /// The faults injected so far under the store's [`FaultPlan`], sorted
    /// by `(part, op_index)`; empty when the store has no plan.  Two
    /// stores built from the same plan and driven by the same per-part
    /// operation sequences report identical traces.
    pub fn fault_trace(&self) -> Vec<FaultRecord> {
        self.inner
            .injector
            .as_ref()
            .map(|i| i.trace())
            .unwrap_or_default()
    }

    fn fresh_partitioning(&self, parts: u32) -> Arc<Partitioning> {
        let id = self.inner.next_partitioning.fetch_add(1, Ordering::Relaxed);
        Arc::new(Partitioning::new(id, parts))
    }

    fn insert_table(&self, inner: TableInner) -> Result<MemTable, KvError> {
        let name = inner.name.clone();
        let mut tables = self.inner.tables.write();
        if tables.contains_key(&name) {
            return Err(KvError::TableExists { name });
        }
        let arc = Arc::new(inner);
        tables.insert(name, Arc::clone(&arc));
        Ok(MemTable {
            store: Arc::clone(&self.inner),
            inner: arc,
        })
    }
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl KvStore for MemStore {
    type Table = MemTable;

    fn create_table(&self, spec: &TableSpec) -> Result<MemTable, KvError> {
        let parts = if spec.is_ubiquitous() {
            1
        } else if spec.part_count() == 1 {
            self.inner.default_parts
        } else {
            spec.part_count()
        };
        let partitioning = self.fresh_partitioning(parts);
        self.insert_table(TableInner::new(
            spec.name().to_owned(),
            spec.is_ubiquitous(),
            spec.is_replicated(),
            partitioning,
        ))
    }

    fn create_table_like(&self, name: &str, like: &MemTable) -> Result<MemTable, KvError> {
        like.inner.check_live()?;
        self.insert_table(TableInner::new(
            name.to_owned(),
            like.inner.ubiquitous,
            like.inner.backup.is_some(),
            Arc::clone(&like.inner.partitioning),
        ))
    }

    fn create_table_like_replicated(
        &self,
        name: &str,
        like: &MemTable,
    ) -> Result<MemTable, KvError> {
        like.inner.check_live()?;
        self.insert_table(TableInner::new(
            name.to_owned(),
            like.inner.ubiquitous,
            true,
            Arc::clone(&like.inner.partitioning),
        ))
    }

    fn lookup_table(&self, name: &str) -> Result<MemTable, KvError> {
        Ok(MemTable {
            store: Arc::clone(&self.inner),
            inner: self.inner.table(name)?,
        })
    }

    fn drop_table(&self, name: &str) -> Result<(), KvError> {
        match self.inner.tables.write().remove(name) {
            Some(t) => {
                t.dropped.store(true, Ordering::Release);
                self.inner.bindings.write().remove(name);
                Ok(())
            }
            None => Err(KvError::NoSuchTable {
                name: name.to_owned(),
            }),
        }
    }

    fn table_names(&self) -> Vec<String> {
        self.inner.tables.read().keys().cloned().collect()
    }

    /// Dispatches `task` onto the long-operation lane of `part`, collocated
    /// with `reference`'s partitioning group.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range for `reference`.
    fn run_at<R, F>(&self, reference: &MemTable, part: PartId, task: F) -> TaskHandle<R>
    where
        R: Send + 'static,
        F: FnOnce(&dyn PartView) -> R + Send + 'static,
    {
        assert!(
            part.0 < reference.part_count(),
            "part {part} out of range for table {:?} with {} parts",
            reference.name(),
            reference.part_count()
        );
        self.inner
            .counters
            .add(Some(part), Counter::TasksDispatched, 1);
        let id = reference.inner.partitioning.id;
        let view = MemPartView {
            store: Arc::clone(&self.inner),
            partitioning_id: id,
            part,
            reference_name: reference.inner.name.clone(),
        };
        self.inner
            .executor
            .run(part, move || at_locality(id, part, || task(&view)))
    }

    fn combiner_registry(&self) -> Option<&CombinerRegistry> {
        Some(&self.inner.combiners)
    }

    fn bind_combiner(&self, table: &str, combiner: &CombinerSpec) -> Result<(), KvError> {
        self.inner.table(table)?;
        self.inner
            .bindings
            .write()
            .insert(table.to_owned(), combiner.name().to_owned());
        Ok(())
    }

    fn metrics(&self) -> StoreMetrics {
        self.inner.counters.metrics()
    }

    fn part_metrics(&self) -> Vec<StoreMetrics> {
        self.inner.counters.part_metrics()
    }

    /// Unlike the default scan-based implementation, this holds every part
    /// lock at once, so the cut is consistent even against concurrent
    /// writers — not just at a barrier.
    fn snapshot_table(&self, table: &MemTable) -> Result<ripple_kv::TableSnapshot, KvError> {
        table.inner.check_live()?;
        let guards: Vec<_> = table.inner.parts.iter().map(|m| m.lock()).collect();
        let mut entries = Vec::new();
        for (p, guard) in guards.iter().enumerate() {
            self.inner
                .counters
                .add(Some(PartId(p as u32)), Counter::Enumerations, 1);
            entries.extend(guard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        drop(guards);
        Ok(ripple_kv::TableSnapshot::from_entries(entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_kv::RoutedKey;

    #[test]
    fn tables_and_launches_after_the_first_start_no_thread() {
        let store = MemStore::builder().default_parts(3).build();
        let threads = || store.inner.executor.threads() + store.inner.hops.threads();
        let launch = |table: &MemTable| {
            store
                .run_at_all(table, |view| view.put_batch("a", Vec::new()))
                .unwrap();
        };
        assert_eq!(threads(), 0, "a store starts idle");
        let a = store.create_table(&TableSpec::new("a")).unwrap();
        launch(&a);
        assert_eq!(threads(), 3, "one thread per part");
        launch(&a);
        let b = store.create_table(&TableSpec::new("b")).unwrap();
        launch(&b);
        assert_eq!(threads(), 3, "a second table and launch start nothing");
        // A remote operation hops to a thread of its part's own.
        let hop = || b.put(RoutedKey::from_slice(b"k"), bytes::Bytes::new());
        hop().unwrap();
        hop().unwrap();
        assert_eq!(threads(), 4);
        assert_ne!(
            a.partitioning_id(),
            b.partitioning_id(),
            "groups stay apart"
        );
    }

    #[test]
    fn short_and_long_lanes_are_distinct_threads() {
        let store = MemStore::builder().default_parts(1).build();
        let t = store.create_table(&TableSpec::new("t")).unwrap();
        let id = || std::thread::current().id();
        let long = store.run_at(&t, PartId(0), move |_| id()).join().unwrap();
        let short = store.inner.hops.run(PartId(0), id).join().unwrap();
        assert_ne!(long, short);
        // A remote put takes the short lane's idle thread.
        t.put(RoutedKey::from_slice(b"k"), bytes::Bytes::new())
            .unwrap();
        let threads = (store.inner.executor.threads(), store.inner.hops.threads());
        assert_eq!(threads, (1, 1));
    }
}
