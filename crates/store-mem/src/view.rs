use std::sync::Arc;

use bytes::Bytes;
use ripple_kv::{Counter, KvError, PartId, PartView, RoutedKey, ScanControl};

use crate::fault::FaultOp;
use crate::store::StoreInner;
use crate::TableInner;

/// The [`PartView`] handed to mobile code dispatched by
/// [`MemStore::run_at`](crate::MemStore).
///
/// All access is direct (marshalling-free); tables must be co-partitioned
/// with the dispatch's reference table, except ubiquitous tables, which are
/// readable from any part.
pub(crate) struct MemPartView {
    pub(crate) store: Arc<StoreInner>,
    pub(crate) partitioning_id: u64,
    pub(crate) part: PartId,
    pub(crate) reference_name: String,
}

impl MemPartView {
    /// Resolves a table for local access, enforcing co-partitioning.
    ///
    /// Returns the table and the part index to use (0 for ubiquitous).
    fn resolve(&self, table: &str, write: bool) -> Result<(Arc<TableInner>, PartId), KvError> {
        let t = self.store.table(table)?;
        t.check_live()?;
        if t.ubiquitous {
            if write {
                return Err(KvError::UbiquityMismatch {
                    name: table.to_owned(),
                });
            }
            return Ok((t, PartId(0)));
        }
        if t.partitioning.id != self.partitioning_id {
            return Err(KvError::NotCopartitioned {
                left: table.to_owned(),
                right: self.reference_name.clone(),
            });
        }
        t.check_part_healthy(self.part)?;
        Ok((t, self.part))
    }

    /// Counts `n` of `counter` against this view's part.
    fn count(&self, counter: Counter, n: u64) {
        self.store.counters.add(Some(self.part), counter, n);
    }
}

impl PartView for MemPartView {
    fn part(&self) -> PartId {
        self.part
    }

    fn get(&self, table: &str, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        self.store
            .fault_check(self.partitioning_id, self.part, FaultOp::Get)?;
        let (t, p) = self.resolve(table, false)?;
        self.count(Counter::LocalOps, 1);
        let out = t.parts[p.index()].lock().get(key).cloned();
        Ok(out)
    }

    /// One fault-check and one lock acquisition for the whole batch, as
    /// for [`PartView::put_batch`]: a fault plan's rate is per store call,
    /// and the engine retries a batched read as one call.
    fn get_batch(&self, table: &str, keys: &[RoutedKey]) -> Result<Vec<Option<Bytes>>, KvError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        self.store
            .fault_check(self.partitioning_id, self.part, FaultOp::Get)?;
        let (t, p) = self.resolve(table, false)?;
        self.count(Counter::LocalOps, keys.len() as u64);
        let map = t.parts[p.index()].lock();
        Ok(keys.iter().map(|key| map.get(key).cloned()).collect())
    }

    fn put(&self, table: &str, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        self.store
            .fault_check(self.partitioning_id, self.part, FaultOp::Put)?;
        let (t, p) = self.resolve(table, true)?;
        self.count(Counter::LocalOps, 1);
        t.mirror_insert(p, &key, &value);
        let out = t.parts[p.index()].lock().insert(key, value);
        Ok(out)
    }

    /// One fault-check, one counter bump, and one lock acquisition for the
    /// whole batch; records fold into the resident value when the table is
    /// bound to a combiner.
    fn put_batch(&self, table: &str, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        if pairs.is_empty() {
            return Ok(());
        }
        self.store
            .fault_check(self.partitioning_id, self.part, FaultOp::Put)?;
        let (t, p) = self.resolve(table, true)?;
        self.count(Counter::LocalOps, 1);
        let fold = self.store.fold_for(table);
        let combined = t.apply_batch(p, pairs, fold.as_ref())?;
        self.count(Counter::NetBatches, 1);
        self.count(Counter::CombinedRecords, combined);
        Ok(())
    }

    fn delete(&self, table: &str, key: &RoutedKey) -> Result<bool, KvError> {
        self.store
            .fault_check(self.partitioning_id, self.part, FaultOp::Delete)?;
        let (t, p) = self.resolve(table, true)?;
        self.count(Counter::LocalOps, 1);
        t.mirror_remove(p, key);
        let out = t.parts[p.index()].lock().remove(key).is_some();
        Ok(out)
    }

    fn scan(
        &self,
        table: &str,
        f: &mut dyn FnMut(&RoutedKey, &[u8]) -> ScanControl,
    ) -> Result<(), KvError> {
        let (t, p) = self.resolve(table, false)?;
        self.count(Counter::Enumerations, 1);
        let map = t.parts[p.index()].lock();
        for (k, v) in map.iter() {
            if !f(k, v).should_continue() {
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
        self.store
            .scripted_fault_check(self.part.0, FaultOp::Drain, table)?;
        let (t, p) = self.resolve(table, true)?;
        self.count(Counter::Enumerations, 1);
        // Take the whole map; on early stop, unconsumed entries go back.  A
        // part that failed since `resolve` may have lost them already.
        let drained = std::mem::take(&mut *t.parts[p.index()].lock());
        t.check_part_healthy(p)?;
        let mut iter = drained.into_iter();
        for (k, v) in iter.by_ref() {
            if !f(k, v).should_continue() {
                break;
            }
        }
        let rest: std::collections::HashMap<_, _> = iter.collect();
        if !rest.is_empty() {
            t.parts[p.index()].lock().extend(rest);
        }
        t.resync_backup(p);
        Ok(())
    }

    fn len(&self, table: &str) -> Result<usize, KvError> {
        let (t, p) = self.resolve(table, false)?;
        let out = t.parts[p.index()].lock().len();
        Ok(out)
    }
}
