//! A deliberately minimal [`ripple_kv`] store: one map per table, no
//! worker lanes, no marshalling simulation, mobile code on plain spawned
//! threads.
//!
//! Its purpose is the paper's *openness* claim: the platform above the SPI
//! is store-independent.  The engine, queue sets, and all the applications
//! run unchanged against [`SimpleStore`] (this crate) and against the
//! partitioned debugging store (`ripple-store-mem`) — the SPI is the only
//! contact surface.  `SimpleStore` is also the natural reference model in
//! differential tests: trivially correct, nothing clever.
//!
//! Parts still exist *logically* (keys route to `route % parts`, part
//! views only see their slice, co-partitioning is honoured) — they are
//! just not backed by separate threads or storage.

#![deny(clippy::unwrap_used)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::bounded;
use parking_lot::{Mutex, RwLock};
use ripple_kv::{
    CombineFn, CombinerRegistry, CombinerSpec, Counter, KvError, KvStore, PartId, PartView,
    RoutedKey, ScanControl, StoreCounters, StoreMetrics, Table, TableSpec, TaskHandle,
};

#[derive(Debug)]
struct TableInner {
    name: String,
    parts: u32,
    ubiquitous: bool,
    partitioning_id: u64,
    data: Mutex<HashMap<RoutedKey, Bytes>>,
    dropped: AtomicBool,
}

impl TableInner {
    fn check_live(&self) -> Result<(), KvError> {
        if self.dropped.load(Ordering::Acquire) {
            return Err(KvError::TableDropped {
                name: self.name.clone(),
            });
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct Inner {
    tables: RwLock<HashMap<String, Arc<TableInner>>>,
    counters: StoreCounters,
    next_partitioning: AtomicU64,
    combiners: CombinerRegistry,
    bindings: RwLock<HashMap<String, String>>,
}

impl Inner {
    /// Counts `n` of `counter`; this store attributes nothing to parts.
    fn count(&self, counter: Counter, n: u64) {
        self.counters.add(None, counter, n);
    }

    /// The fold function bound to `table`, if any.
    fn fold_for(&self, table: &str) -> Option<CombineFn> {
        let name = self.bindings.read().get(table).cloned()?;
        self.combiners.get(&name)
    }

    /// The trivial loop implementation of a batched write: one lock
    /// acquisition, records folded into the resident value when the table
    /// is bound to a combiner.
    fn apply_batch(&self, t: &TableInner, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        if pairs.is_empty() {
            return Ok(());
        }
        let fold = self.fold_for(&t.name);
        self.count(Counter::LocalOps, 1);
        self.count(Counter::NetBatches, 1);
        let mut combined = 0u64;
        let mut data = t.data.lock();
        for (key, value) in pairs {
            let value = match (fold.as_ref(), data.get(&key)) {
                (Some(f), Some(resident)) => {
                    combined += 1;
                    f(resident, &value)?
                }
                _ => value,
            };
            data.insert(key, value);
        }
        drop(data);
        self.count(Counter::CombinedRecords, combined);
        Ok(())
    }
}

/// The minimal reference store.  See the crate docs.
#[derive(Debug, Clone, Default)]
pub struct SimpleStore {
    inner: Arc<Inner>,
    default_parts: u32,
}

impl SimpleStore {
    /// Creates a store whose tables default to `parts` logical parts.
    pub fn new(parts: u32) -> Self {
        assert!(parts > 0, "a store needs at least one part");
        Self {
            inner: Arc::new(Inner {
                next_partitioning: AtomicU64::new(1),
                ..Inner::default()
            }),
            default_parts: parts,
        }
    }

    fn table_inner(&self, name: &str) -> Result<Arc<TableInner>, KvError> {
        self.inner
            .tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| KvError::NoSuchTable {
                name: name.to_owned(),
            })
    }

    fn insert(&self, inner: TableInner) -> Result<SimpleTable, KvError> {
        let mut tables = self.inner.tables.write();
        if tables.contains_key(&inner.name) {
            return Err(KvError::TableExists { name: inner.name });
        }
        let arc = Arc::new(inner);
        tables.insert(arc.name.clone(), Arc::clone(&arc));
        Ok(SimpleTable {
            store: Arc::clone(&self.inner),
            inner: arc,
        })
    }
}

/// Handle to a [`SimpleStore`] table.
#[derive(Debug, Clone)]
pub struct SimpleTable {
    store: Arc<Inner>,
    inner: Arc<TableInner>,
}

impl Table for SimpleTable {
    fn name(&self) -> &str {
        &self.inner.name
    }
    fn part_count(&self) -> u32 {
        self.inner.parts
    }
    fn is_ubiquitous(&self) -> bool {
        self.inner.ubiquitous
    }
    fn partitioning_id(&self) -> u64 {
        self.inner.partitioning_id
    }
    fn get(&self, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        self.inner.check_live()?;
        self.store.count(Counter::LocalOps, 1);
        Ok(self.inner.data.lock().get(key).cloned())
    }
    fn put(&self, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        self.inner.check_live()?;
        self.store.count(Counter::LocalOps, 1);
        Ok(self.inner.data.lock().insert(key, value))
    }
    fn put_batch(&self, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        self.inner.check_live()?;
        self.store.apply_batch(&self.inner, pairs)
    }
    fn delete(&self, key: &RoutedKey) -> Result<bool, KvError> {
        self.inner.check_live()?;
        self.store.count(Counter::LocalOps, 1);
        Ok(self.inner.data.lock().remove(key).is_some())
    }
    fn len(&self) -> Result<usize, KvError> {
        self.inner.check_live()?;
        Ok(self.inner.data.lock().len())
    }
    fn clear(&self) -> Result<(), KvError> {
        self.inner.check_live()?;
        self.inner.data.lock().clear();
        Ok(())
    }
}

struct SimplePartView {
    store: Arc<Inner>,
    part: PartId,
    partitioning_id: u64,
    reference_name: String,
}

impl SimplePartView {
    fn resolve(&self, table: &str, write: bool) -> Result<Arc<TableInner>, KvError> {
        let t = self
            .store
            .tables
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| KvError::NoSuchTable {
                name: table.to_owned(),
            })?;
        t.check_live()?;
        if t.ubiquitous {
            if write {
                return Err(KvError::UbiquityMismatch {
                    name: table.to_owned(),
                });
            }
            return Ok(t);
        }
        if t.partitioning_id != self.partitioning_id {
            return Err(KvError::NotCopartitioned {
                left: table.to_owned(),
                right: self.reference_name.clone(),
            });
        }
        Ok(t)
    }

    fn in_part(&self, t: &TableInner, key: &RoutedKey) -> bool {
        t.ubiquitous || key.part_for(t.parts) == self.part
    }
}

impl PartView for SimplePartView {
    fn part(&self) -> PartId {
        self.part
    }
    fn get(&self, table: &str, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        let t = self.resolve(table, false)?;
        self.store.count(Counter::LocalOps, 1);
        let out = t.data.lock().get(key).cloned();
        Ok(out)
    }
    fn put(&self, table: &str, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        let t = self.resolve(table, true)?;
        self.store.count(Counter::LocalOps, 1);
        let out = t.data.lock().insert(key, value);
        Ok(out)
    }
    fn put_batch(&self, table: &str, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        let t = self.resolve(table, true)?;
        self.store.apply_batch(&t, pairs)
    }
    fn delete(&self, table: &str, key: &RoutedKey) -> Result<bool, KvError> {
        let t = self.resolve(table, true)?;
        self.store.count(Counter::LocalOps, 1);
        let out = t.data.lock().remove(key).is_some();
        Ok(out)
    }
    fn scan(
        &self,
        table: &str,
        f: &mut dyn FnMut(&RoutedKey, &[u8]) -> ScanControl,
    ) -> Result<(), KvError> {
        let t = self.resolve(table, false)?;
        self.store.count(Counter::Enumerations, 1);
        let data = t.data.lock();
        for (k, v) in data.iter() {
            if self.in_part(&t, k) && !f(k, v).should_continue() {
                break;
            }
        }
        Ok(())
    }
    fn drain(
        &self,
        table: &str,
        f: &mut dyn FnMut(RoutedKey, Bytes) -> ScanControl,
    ) -> Result<(), KvError> {
        let t = self.resolve(table, true)?;
        self.store.count(Counter::Enumerations, 1);
        // Extract this part's slice, then feed it out; unconsumed entries
        // return on early stop.
        let mine: Vec<RoutedKey> = {
            let data = t.data.lock();
            data.keys()
                .filter(|k| self.in_part(&t, k))
                .cloned()
                .collect()
        };
        let mut iter = mine.into_iter();
        for key in iter.by_ref() {
            let Some(value) = t.data.lock().remove(&key) else {
                continue;
            };
            if !f(key, value).should_continue() {
                break;
            }
        }
        Ok(())
    }
    fn len(&self, table: &str) -> Result<usize, KvError> {
        let t = self.resolve(table, false)?;
        let n = t.data.lock().keys().filter(|k| self.in_part(&t, k)).count();
        Ok(n)
    }
}

impl KvStore for SimpleStore {
    type Table = SimpleTable;

    fn create_table(&self, spec: &TableSpec) -> Result<SimpleTable, KvError> {
        let parts = if spec.is_ubiquitous() {
            1
        } else if spec.part_count() == 1 {
            self.default_parts
        } else {
            spec.part_count()
        };
        let id = self.inner.next_partitioning.fetch_add(1, Ordering::Relaxed);
        self.insert(TableInner {
            name: spec.name().to_owned(),
            parts,
            ubiquitous: spec.is_ubiquitous(),
            partitioning_id: id,
            data: Mutex::new(HashMap::new()),
            dropped: AtomicBool::new(false),
        })
    }

    fn create_table_like(&self, name: &str, like: &SimpleTable) -> Result<SimpleTable, KvError> {
        like.inner.check_live()?;
        self.insert(TableInner {
            name: name.to_owned(),
            parts: like.inner.parts,
            ubiquitous: like.inner.ubiquitous,
            partitioning_id: like.inner.partitioning_id,
            data: Mutex::new(HashMap::new()),
            dropped: AtomicBool::new(false),
        })
    }

    fn lookup_table(&self, name: &str) -> Result<SimpleTable, KvError> {
        Ok(SimpleTable {
            store: Arc::clone(&self.inner),
            inner: self.table_inner(name)?,
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

    fn run_at<R, F>(&self, reference: &SimpleTable, part: PartId, task: F) -> TaskHandle<R>
    where
        R: Send + 'static,
        F: FnOnce(&dyn PartView) -> R + Send + 'static,
    {
        assert!(
            part.0 < reference.part_count(),
            "part {part} out of range for {:?}",
            reference.name()
        );
        self.inner.count(Counter::TasksDispatched, 1);
        let (tx, rx) = bounded(1);
        let view = SimplePartView {
            store: Arc::clone(&self.inner),
            part,
            partitioning_id: reference.inner.partitioning_id,
            reference_name: reference.inner.name.clone(),
        };
        std::thread::Builder::new()
            .name(format!("simple-store-{part}"))
            .spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(&view)));
                let _ = tx.send(result);
            })
            .expect("spawn simple store task");
        TaskHandle::from_channel(part, rx)
    }

    fn combiner_registry(&self) -> Option<&CombinerRegistry> {
        Some(&self.inner.combiners)
    }

    fn bind_combiner(&self, table: &str, combiner: &CombinerSpec) -> Result<(), KvError> {
        self.table_inner(table)?;
        self.inner
            .bindings
            .write()
            .insert(table.to_owned(), combiner.name().to_owned());
        Ok(())
    }

    fn metrics(&self) -> StoreMetrics {
        self.inner.counters.metrics()
    }

    /// One map, one mutex: a single lock acquisition is a consistent cut
    /// even against concurrent writers.
    fn snapshot_table(&self, table: &SimpleTable) -> Result<ripple_kv::TableSnapshot, KvError> {
        table.inner.check_live()?;
        self.inner.count(Counter::Enumerations, 1);
        let entries = table
            .inner
            .data
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        Ok(ripple_kv::TableSnapshot::from_entries(entries))
    }
}

/// Memory-only durability: every method keeps its no-op default.
impl ripple_kv::DurableStore for SimpleStore {}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(route: u64, body: &str) -> RoutedKey {
        RoutedKey::with_route(route, Bytes::copy_from_slice(body.as_bytes()))
    }

    #[test]
    fn basic_table_operations() {
        let store = SimpleStore::new(3);
        let t = store.create_table(&TableSpec::new("t")).unwrap();
        assert_eq!(t.part_count(), 3);
        assert_eq!(t.put(key(0, "a"), Bytes::from_static(b"1")).unwrap(), None);
        assert_eq!(t.get(&key(0, "a")).unwrap(), Some(Bytes::from_static(b"1")));
        assert!(t.delete(&key(0, "a")).unwrap());
        assert_eq!(t.len().unwrap(), 0);
    }

    #[test]
    fn part_views_are_scoped() {
        let store = SimpleStore::new(2);
        let t = store.create_table(&TableSpec::new("t")).unwrap();
        t.put(key(0, "even"), Bytes::from_static(b"x")).unwrap();
        t.put(key(1, "odd"), Bytes::from_static(b"y")).unwrap();
        for p in 0..2u32 {
            let n = store
                .run_at(&t, PartId(p), |view| view.len("t").unwrap())
                .join()
                .unwrap();
            assert_eq!(n, 1, "part {p} sees only its slice");
        }
    }

    #[test]
    fn drain_is_part_scoped() {
        let store = SimpleStore::new(2);
        let t = store.create_table(&TableSpec::new("t")).unwrap();
        for i in 0..10u64 {
            t.put(key(i, &format!("k{i}")), Bytes::from_static(b"v"))
                .unwrap();
        }
        let drained = store
            .run_at(&t, PartId(0), |view| {
                let mut n = 0;
                view.drain("t", &mut |_k, _v| {
                    n += 1;
                    ScanControl::Continue
                })
                .unwrap();
                n
            })
            .join()
            .unwrap();
        assert_eq!(drained, 5);
        assert_eq!(t.len().unwrap(), 5, "the other part's entries remain");
    }

    #[test]
    fn copartitioning_is_enforced() {
        let store = SimpleStore::new(2);
        let a = store.create_table(&TableSpec::new("a")).unwrap();
        let b = store.create_table_like("b", &a).unwrap();
        let c = store.create_table(&TableSpec::new("c")).unwrap();
        assert_eq!(a.partitioning_id(), b.partitioning_id());
        assert_ne!(a.partitioning_id(), c.partitioning_id());
        let err = store
            .run_at(&a, PartId(0), |view| view.len("c"))
            .join()
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, KvError::NotCopartitioned { .. }));
    }

    #[test]
    fn panics_are_contained() {
        let store = SimpleStore::new(1);
        let t = store.create_table(&TableSpec::new("t")).unwrap();
        let h = store.run_at(&t, PartId(0), |_| panic!("boom"));
        assert!(matches!(h.join(), Err(KvError::TaskPanicked { .. })));
    }
}
