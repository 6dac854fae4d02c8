use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use ripple_kv::{CombineFn, Counter, KvError, PartId, RoutedKey, Table};

use crate::fault::FaultOp;
use crate::store::StoreInner;
use crate::{at_locality, current_locality, Partitioning};

/// The shared state of one table.
#[derive(Debug)]
pub(crate) struct TableInner {
    pub(crate) name: String,
    pub(crate) ubiquitous: bool,
    pub(crate) partitioning: Arc<Partitioning>,
    pub(crate) parts: Vec<Mutex<HashMap<RoutedKey, Bytes>>>,
    /// Backup replica of each part, when the table was created
    /// `replicated()` — survives `fail_part` and feeds replica promotion.
    pub(crate) backup: Option<Vec<Mutex<HashMap<RoutedKey, Bytes>>>>,
    pub(crate) dropped: AtomicBool,
}

impl TableInner {
    pub(crate) fn new(
        name: String,
        ubiquitous: bool,
        replicated: bool,
        partitioning: Arc<Partitioning>,
    ) -> Self {
        let n = if ubiquitous { 1 } else { partitioning.parts };
        Self {
            name,
            ubiquitous,
            partitioning,
            parts: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            backup: replicated.then(|| (0..n).map(|_| Mutex::new(HashMap::new())).collect()),
            dropped: AtomicBool::new(false),
        }
    }

    /// Mirrors a write into the part's backup replica, if any.
    pub(crate) fn mirror_insert(&self, part: PartId, key: &RoutedKey, value: &Bytes) {
        if let Some(backup) = &self.backup {
            backup[part.index()]
                .lock()
                .insert(key.clone(), value.clone());
        }
    }

    /// Mirrors a removal into the part's backup replica, if any.
    pub(crate) fn mirror_remove(&self, part: PartId, key: &RoutedKey) {
        if let Some(backup) = &self.backup {
            backup[part.index()].lock().remove(key);
        }
    }

    /// Resynchronizes the backup replica from the primary after a bulk
    /// mutation (clear, drain, restore).
    pub(crate) fn resync_backup(&self, part: PartId) {
        if let Some(backup) = &self.backup {
            let snapshot = self.parts[part.index()].lock().clone();
            *backup[part.index()].lock() = snapshot;
        }
    }

    pub(crate) fn check_live(&self) -> Result<(), KvError> {
        if self.dropped.load(Ordering::Acquire) {
            return Err(KvError::TableDropped {
                name: self.name.clone(),
            });
        }
        Ok(())
    }

    pub(crate) fn check_part_healthy(&self, part: PartId) -> Result<(), KvError> {
        if !self.ubiquitous && self.partitioning.is_failed(part) {
            return Err(KvError::PartFailed { part: part.0 });
        }
        Ok(())
    }

    /// Applies a batch of records to one part under a single lock
    /// acquisition, folding each record into the resident value with `fold`
    /// when the table is bound to a combiner.  Returns how many records
    /// were folded away rather than stored.
    pub(crate) fn apply_batch(
        &self,
        part: PartId,
        pairs: Vec<(RoutedKey, Bytes)>,
        fold: Option<&CombineFn>,
    ) -> Result<u64, KvError> {
        let mut combined = 0u64;
        let mut map = self.parts[part.index()].lock();
        for (key, value) in pairs {
            let value = match (fold, map.get(&key)) {
                (Some(f), Some(resident)) => {
                    combined += 1;
                    f(resident, &value)?
                }
                _ => value,
            };
            self.mirror_insert(part, &key, &value);
            map.insert(key, value);
        }
        Ok(combined)
    }

    fn target_part(&self, key: &RoutedKey) -> PartId {
        if self.ubiquitous {
            PartId(0)
        } else {
            key.part_for(self.partitioning.parts)
        }
    }
}

/// Handle to a [`MemStore`](crate::MemStore) table.
///
/// Operations issued by mobile code running at the addressed part access the
/// data directly; any other caller is treated as remote — the operation is
/// marshalled (bytes counted) and served by the part's short-request lane,
/// as in the paper's debugging store.
#[derive(Debug, Clone)]
pub struct MemTable {
    pub(crate) store: Arc<StoreInner>,
    pub(crate) inner: Arc<TableInner>,
}

impl MemTable {
    /// Whether the calling thread is collocated with `part` of this table.
    fn is_local(&self, part: PartId) -> bool {
        if self.inner.ubiquitous {
            // Ubiquitous tables are replicated: every read location is local.
            return true;
        }
        current_locality() == Some((self.inner.partitioning.id, part.0))
    }

    /// Runs `op` against the part map, either directly (local) or via the
    /// part's short lane (remote), adding `req_bytes` to the marshalling
    /// account in the remote case.
    fn at_part<R, F>(&self, part: PartId, req_bytes: usize, op: F) -> Result<R, KvError>
    where
        R: Send + 'static,
        F: FnOnce(&TableInner, PartId) -> R + Send + 'static,
    {
        self.inner.check_live()?;
        self.inner.check_part_healthy(part)?;
        if self.is_local(part) {
            self.store.counters.add(Some(part), Counter::LocalOps, 1);
            return Ok(op(&self.inner, part));
        }
        let counters = &self.store.counters;
        counters.add(Some(part), Counter::RemoteOps, 1);
        counters.add(Some(part), Counter::BytesMarshalled, req_bytes as u64);
        let inner = Arc::clone(&self.inner);
        let id = inner.partitioning.id;
        self.store
            .hops
            .run(part, move || at_locality(id, part, || op(&inner, part)))
            .join()
    }
}

impl Table for MemTable {
    fn name(&self) -> &str {
        &self.inner.name
    }

    fn part_count(&self) -> u32 {
        self.inner.parts.len() as u32
    }

    fn is_ubiquitous(&self) -> bool {
        self.inner.ubiquitous
    }

    fn partitioning_id(&self) -> u64 {
        self.inner.partitioning.id
    }

    fn get(&self, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        let part = self.inner.target_part(key);
        let k = key.clone();
        let req = key.wire_len();
        let value = self.at_part(part, req, move |inner, p| {
            inner.parts[p.index()].lock().get(&k).cloned()
        })?;
        if let (Some(v), false) = (&value, self.is_local(part)) {
            self.store
                .counters
                .add(Some(part), Counter::BytesMarshalled, v.len() as u64);
        }
        Ok(value)
    }

    fn put(&self, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        let part = self.inner.target_part(&key);
        let req = key.wire_len() + value.len();
        self.at_part(part, req, move |inner, p| {
            inner.mirror_insert(p, &key, &value);
            inner.parts[p.index()].lock().insert(key, value)
        })
    }

    /// One lock acquisition (and, remotely, one short-lane hop) per
    /// destination part instead of one per record; records fold into the
    /// resident value when the table is bound to a combiner.
    fn put_batch(&self, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        if pairs.is_empty() {
            return Ok(());
        }
        let issuer = current_locality().map_or(u32::MAX, |(_, part)| part);
        self.store
            .scripted_fault_check(issuer, FaultOp::Batch, &self.inner.name)?;
        let fold = self.store.fold_for(&self.inner.name);
        let mut groups: Vec<Vec<(RoutedKey, Bytes)>> =
            (0..self.inner.parts.len()).map(|_| Vec::new()).collect();
        for (key, value) in pairs {
            groups[self.inner.target_part(&key).index()].push((key, value));
        }
        for (p, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let part = PartId(p as u32);
            let req: usize = group.iter().map(|(k, v)| k.wire_len() + v.len()).sum();
            let fold = fold.clone();
            let combined = self.at_part(part, req, move |inner, p| {
                inner.apply_batch(p, group, fold.as_ref())
            })??;
            let counters = &self.store.counters;
            counters.add(Some(part), Counter::NetBatches, 1);
            counters.add(Some(part), Counter::CombinedRecords, combined);
        }
        Ok(())
    }

    fn delete(&self, key: &RoutedKey) -> Result<bool, KvError> {
        let part = self.inner.target_part(key);
        let k = key.clone();
        self.at_part(part, key.wire_len(), move |inner, p| {
            inner.mirror_remove(p, &k);
            inner.parts[p.index()].lock().remove(&k).is_some()
        })
    }

    fn len(&self) -> Result<usize, KvError> {
        self.inner.check_live()?;
        let mut total = 0;
        for (i, part) in self.inner.parts.iter().enumerate() {
            self.inner.check_part_healthy(PartId(i as u32))?;
            total += part.lock().len();
        }
        self.store.counters.add(None, Counter::LocalOps, 1);
        Ok(total)
    }

    fn clear(&self) -> Result<(), KvError> {
        self.inner.check_live()?;
        for (i, part) in self.inner.parts.iter().enumerate() {
            self.inner.check_part_healthy(PartId(i as u32))?;
            part.lock().clear();
            self.inner.resync_backup(PartId(i as u32));
        }
        self.store.counters.add(None, Counter::LocalOps, 1);
        Ok(())
    }
}
