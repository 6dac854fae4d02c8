use bytes::Bytes;

use crate::{KvError, PartId, RoutedKey, ScanControl};

/// A handle to one key/value table.
///
/// Handles are cheap to clone and safe to share; all methods may be called
/// from anywhere in the system.  The implementation decides whether a call
/// is local (collocated with the addressed part) or remote — remote calls
/// pay marshalling, which the store accounts for in its
/// [`StoreMetrics`](crate::StoreMetrics).
pub trait Table: Clone + Send + Sync + 'static {
    /// The table name, unique within its store.
    fn name(&self) -> &str;

    /// Number of parts (1 for ubiquitous tables).
    fn part_count(&self) -> u32;

    /// Whether the table is ubiquitous (small, replicated, locally readable
    /// everywhere).
    fn is_ubiquitous(&self) -> bool;

    /// Identifier of the table's partitioning; two tables report the same
    /// value iff they are consistently partitioned and co-placed (created
    /// via [`KvStore::create_table_like`](crate::KvStore::create_table_like)
    /// or from the same spec lineage).
    fn partitioning_id(&self) -> u64;

    /// Reads the value for `key`.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::TableDropped`], [`KvError::PartFailed`] or
    /// [`KvError::StoreClosed`] per the store's state.
    fn get(&self, key: &RoutedKey) -> Result<Option<Bytes>, KvError>;

    /// Writes `value` under `key`, returning the previous value if any.
    ///
    /// # Errors
    ///
    /// As for [`Table::get`].
    fn put(&self, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError>;

    /// Writes many pairs in one call — the bulk counterpart of
    /// [`Table::put`], and the unit the batched message plane flushes.
    ///
    /// The default loops over [`Table::put`]; stores override it to apply
    /// the whole batch under one lock acquisition (in-process stores) or
    /// one coalesced RPC per destination part (networked stores).  When the
    /// table has a bound combiner
    /// ([`KvStore::bind_combiner`](crate::KvStore::bind_combiner)),
    /// overriding stores fold each record into the resident value instead
    /// of overwriting it.
    ///
    /// # Errors
    ///
    /// As for [`Table::put`].
    fn put_batch(&self, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        for (key, value) in pairs {
            self.put(key, value)?;
        }
        Ok(())
    }

    /// Removes `key`, returning whether it was present.
    ///
    /// # Errors
    ///
    /// As for [`Table::get`].
    fn delete(&self, key: &RoutedKey) -> Result<bool, KvError>;

    /// Total number of entries across all parts.
    ///
    /// # Errors
    ///
    /// As for [`Table::get`].
    fn len(&self) -> Result<usize, KvError>;

    /// Whether the table holds no entries.
    ///
    /// # Errors
    ///
    /// As for [`Table::get`].
    fn is_empty(&self) -> Result<bool, KvError> {
        Ok(self.len()? == 0)
    }

    /// Removes every entry.
    ///
    /// # Errors
    ///
    /// As for [`Table::get`].
    fn clear(&self) -> Result<(), KvError>;
}

/// Local access to the part-resident slices of co-partitioned tables,
/// handed to mobile code dispatched with
/// [`KvStore::run_at`](crate::KvStore::run_at) and to part/pair consumers.
///
/// All operations address tables *by name* and touch only the data of the
/// part the code is running at; they do no marshalling.  Ubiquitous tables
/// are readable (but not writable) through any part's view, honouring the
/// replication contract.
pub trait PartView {
    /// The part this view is anchored at.
    fn part(&self) -> PartId;

    /// Reads a key from the local slice of `table`.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::NotCopartitioned`] if `table` is not co-placed
    /// with the reference table of the dispatch, or [`KvError::NoSuchTable`].
    fn get(&self, table: &str, key: &RoutedKey) -> Result<Option<Bytes>, KvError>;

    /// Reads many keys from the local slice of `table` in one call — the
    /// bulk counterpart of [`PartView::get`].  The result holds one entry
    /// per key, in `keys` order.
    ///
    /// The default loops over [`PartView::get`]: inside a part task an
    /// in-process store's gets are already collocated.  `store-mem`
    /// overrides it to take its lock once and roll its fault plan once per
    /// call, `store-net`'s remote view as one RPC per owning slot.
    ///
    /// # Errors
    ///
    /// As for [`PartView::get`].
    fn get_batch(&self, table: &str, keys: &[RoutedKey]) -> Result<Vec<Option<Bytes>>, KvError> {
        keys.iter().map(|key| self.get(table, key)).collect()
    }

    /// Writes a key into the local slice of `table`, returning the previous
    /// value if any.
    ///
    /// # Errors
    ///
    /// As for [`PartView::get`]; additionally fails with
    /// [`KvError::UbiquityMismatch`] for ubiquitous tables, which are
    /// written through their [`Table`] handle instead.
    fn put(&self, table: &str, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError>;

    /// Writes many pairs into the local slice of `table` in one call — the
    /// bulk counterpart of [`PartView::put`].
    ///
    /// The default loops over [`PartView::put`]; stores override it so the
    /// whole batch costs one lock acquisition locally or one RPC remotely.
    ///
    /// # Errors
    ///
    /// As for [`PartView::put`].
    fn put_batch(&self, table: &str, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        for (key, value) in pairs {
            self.put(table, key, value)?;
        }
        Ok(())
    }

    /// Deletes a key from the local slice of `table`.
    ///
    /// # Errors
    ///
    /// As for [`PartView::put`].
    fn delete(&self, table: &str, key: &RoutedKey) -> Result<bool, KvError>;

    /// Enumerates the local pairs of `table` until `f` stops the scan.
    ///
    /// # Errors
    ///
    /// As for [`PartView::get`].
    fn scan(
        &self,
        table: &str,
        f: &mut dyn FnMut(&RoutedKey, &[u8]) -> ScanControl,
    ) -> Result<(), KvError>;

    /// Enumerates and *removes* the local pairs of `table` (the
    /// read-and-delete access pattern of the EBSP transport table).
    ///
    /// # Errors
    ///
    /// As for [`PartView::put`].
    fn drain(
        &self,
        table: &str,
        f: &mut dyn FnMut(RoutedKey, Bytes) -> ScanControl,
    ) -> Result<(), KvError>;

    /// Number of local pairs of `table`.
    ///
    /// # Errors
    ///
    /// As for [`PartView::get`].
    fn len(&self, table: &str) -> Result<usize, KvError>;
}
