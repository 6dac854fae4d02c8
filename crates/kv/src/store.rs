use crate::{KvError, PairConsumer, PartConsumer, PartId, PartView, TableSpec, TaskHandle};

/// A key/value store that also places computation — Ripple's fundamental
/// storage+compute layer (paper §III-A).
///
/// Implementations provide partitioned byte tables plus the ability to run
/// mobile code adjacent to a given part ([`KvStore::run_at`]).  Everything
/// above this trait — the K/V EBSP engine, message queuing, loaders,
/// exporters — is store-independent.
pub trait KvStore: Clone + Send + Sync + Sized + 'static {
    /// The table handle type.
    type Table: crate::Table;

    /// Creates a table per `spec`.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::TableExists`] when the name is taken.
    fn create_table(&self, spec: &TableSpec) -> Result<Self::Table, KvError>;

    /// Creates a table named `name` guaranteed to be partitioned and placed
    /// consistently with `like`, so that equal-routed keys are collocated.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::TableExists`] when the name is taken.
    fn create_table_like(&self, name: &str, like: &Self::Table) -> Result<Self::Table, KvError>;

    /// Like [`KvStore::create_table_like`], but asks the store to also keep
    /// a replica of every part so the table survives a part failure.
    ///
    /// Stores without replication may ignore the request — the default
    /// implementation simply delegates to `create_table_like` — so callers
    /// must treat replication as best-effort.  The synchronized engine uses
    /// this for its transport tables when fast recovery is enabled.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::TableExists`] when the name is taken.
    fn create_table_like_replicated(
        &self,
        name: &str,
        like: &Self::Table,
    ) -> Result<Self::Table, KvError> {
        self.create_table_like(name, like)
    }

    /// Looks up an existing table.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::NoSuchTable`].
    fn lookup_table(&self, name: &str) -> Result<Self::Table, KvError>;

    /// Drops a table and its data.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::NoSuchTable`].
    fn drop_table(&self, name: &str) -> Result<(), KvError>;

    /// Names of all live tables, in no particular order.
    fn table_names(&self) -> Vec<String>;

    /// Dispatches `task` to run adjacent to part `part` of `reference`,
    /// returning immediately with a handle.
    ///
    /// Inside the task, the [`PartView`] gives marshalling-free access to
    /// the local slices of every table co-partitioned with `reference` (and
    /// read access to ubiquitous tables); remote data is reached through
    /// ordinary [`Table`](crate::Table) handles captured by the closure.
    fn run_at<R, F>(&self, reference: &Self::Table, part: PartId, task: F) -> TaskHandle<R>
    where
        R: Send + 'static,
        F: FnOnce(&dyn PartView) -> R + Send + 'static;

    /// The store's registry of named part-tasks, if it keeps one.
    ///
    /// Stores that support [`KvStore::run_named_at`] expose their registry
    /// here so jobs can register tasks through the trait; the default is
    /// `None`, meaning only closure dispatch ([`KvStore::run_at`]) works.
    fn task_registry(&self) -> Option<&crate::TaskRegistry> {
        None
    }

    /// The store's registry of named combiners, if it keeps one.
    ///
    /// Stores that honour [`KvStore::bind_combiner`] expose their registry
    /// here so jobs can register fold functions through the trait; the
    /// default is `None`, meaning combiner bindings are ignored.
    fn combiner_registry(&self) -> Option<&crate::CombinerRegistry> {
        None
    }

    /// Binds the named combiner to `table`: batched writes
    /// ([`Table::put_batch`](crate::Table::put_batch) and the part-view
    /// equivalent) *fold* each record into the resident value with the
    /// registered [`CombineFn`](crate::CombineFn) instead of overwriting
    /// it, and a networked store is additionally licensed to pre-combine
    /// duplicate-key records client-side before they cross the wire.
    ///
    /// Binding is best-effort, like part replication: stores without a
    /// combiner registry ignore the request (the default implementation),
    /// so callers must not depend on folding for correctness — only treat
    /// it as a traffic optimization.  The fold itself must be registered
    /// under the same name on every process that hosts the table's parts.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::NoSuchTable`] when `table` does not exist.
    fn bind_combiner(&self, table: &str, combiner: &crate::CombinerSpec) -> Result<(), KvError> {
        let _ = (table, combiner);
        Ok(())
    }

    /// Dispatches the *registered* task called `task` to run adjacent to
    /// part `part` of `reference` with argument `arg`.
    ///
    /// Unlike [`KvStore::run_at`], the task is addressed by name and its
    /// argument and result are byte strings, so the dispatch can cross a
    /// wire: a networked store forwards `(task, arg)` to the part's owning
    /// server and runs the registration there.  The default implementation
    /// looks the name up in [`KvStore::task_registry`] and dispatches the
    /// closure via `run_at`; the handle resolves to
    /// [`KvError::NoSuchTask`] when the name is not registered (or the
    /// store keeps no registry at all).
    fn run_named_at(
        &self,
        reference: &Self::Table,
        part: PartId,
        task: &str,
        arg: bytes::Bytes,
    ) -> TaskHandle<Result<bytes::Bytes, KvError>> {
        match self.task_registry().and_then(|reg| reg.get(task)) {
            Some(f) => self.run_at(reference, part, move |view| f(view, arg)),
            None => TaskHandle::ready(
                part,
                Err(KvError::NoSuchTask {
                    name: task.to_owned(),
                }),
            ),
        }
    }

    /// A snapshot of the store's operation/marshalling counters.
    fn metrics(&self) -> crate::StoreMetrics;

    /// Installs a sink for store-level failure events (part down, replica
    /// promotion).  Stores without failure detection ignore the sink — the
    /// default implementation drops it — so callers must treat event
    /// delivery as best-effort.  Installing a new sink replaces the old.
    fn set_event_sink(&self, sink: std::sync::Arc<dyn crate::StoreEventSink>) {
        let _ = sink;
    }

    /// Bounds how long a single store operation may wait on a silent peer
    /// before failing with [`KvError::Transient`]; `None` restores the
    /// store's default.  Purely local stores have no silent-peer hazard and
    /// ignore the deadline (the default implementation).
    fn set_op_deadline(&self, deadline: Option<std::time::Duration>) {
        let _ = deadline;
    }

    /// Probes liveness of the member currently serving `part` and returns
    /// the fencing epoch of its replica group.  Local stores are always
    /// live at epoch 0 (the default implementation); a networked store
    /// performs a heartbeat RPC.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::Transient`] when the peer cannot be reached
    /// within the operation deadline.
    fn ping_part(&self, part: PartId) -> Result<u64, KvError> {
        let _ = part;
        Ok(0)
    }

    /// Per-part snapshots of the store's counters, indexed by part id —
    /// the attribution layer step profiling uses to charge store traffic
    /// to the part that served it.
    ///
    /// Stores that do not attribute operations to parts return an empty
    /// vector (the default); callers must treat per-part attribution as
    /// best-effort.  Where supported, [`KvStore::metrics`] decomposes
    /// exactly: it equals the traffic no single part served (whole-table
    /// operations, catalog writes) plus the field-wise sum of this vector —
    /// which is how [`StoreCounters`](crate::StoreCounters) derives it.
    fn part_metrics(&self) -> Vec<crate::StoreMetrics> {
        Vec::new()
    }

    /// Runs `task` near *every* part of `reference` in parallel and returns
    /// the part results in part order.
    ///
    /// # Errors
    ///
    /// Fails if any task panicked or the store closed.
    fn run_at_all<R, F>(&self, reference: &Self::Table, task: F) -> Result<Vec<R>, KvError>
    where
        R: Send + 'static,
        F: Fn(&dyn PartView) -> R + Clone + Send + 'static,
    {
        let parts = crate::Table::part_count(reference);
        let handles: Vec<_> = (0..parts)
            .map(|p| {
                let task = task.clone();
                self.run_at(reference, PartId(p), move |view| task(view))
            })
            .collect();
        handles.into_iter().map(TaskHandle::join).collect()
    }

    /// Enumerates the parts of `table` with a [`PartConsumer`]: one clone of
    /// `consumer` processes each part locally, and the per-part outputs are
    /// merged in part order.
    ///
    /// # Errors
    ///
    /// Fails if any part task panicked or the store closed.
    fn enumerate_parts<C>(&self, table: &Self::Table, consumer: C) -> Result<C::Output, KvError>
    where
        C: PartConsumer,
    {
        let combiner = consumer.clone();
        let outputs = self.run_at_all(table, move |view| {
            let mut c = consumer.clone();
            c.process(view.part(), view)
        })?;
        let mut iter = outputs.into_iter();
        let first = iter.next().expect("tables have at least one part");
        Ok(iter.fold(first, |acc, o| combiner.combine(acc, o)))
    }

    /// Enumerates the key/value pairs of `table` with a [`PairConsumer`]:
    /// per part, `setup` runs, then `pair` for each local entry, then
    /// `finish`; the per-part outputs are merged in part order.
    ///
    /// # Errors
    ///
    /// Fails if any part task panicked or the store closed.
    fn enumerate_pairs<C>(&self, table: &Self::Table, consumer: C) -> Result<C::Output, KvError>
    where
        C: PairConsumer,
    {
        let name = crate::Table::name(table).to_owned();
        let combiner = consumer.clone();
        let outputs = self.run_at_all(table, move |view| {
            let mut c = consumer.clone();
            let part = view.part();
            c.setup(part);
            view.scan(&name, &mut |k, v| c.pair(k, v))
                .map(|()| c.finish(part))
        })?;
        let mut iter = outputs.into_iter();
        let first = iter.next().expect("tables have at least one part")?;
        iter.try_fold(first, |acc, o| Ok(combiner.combine(acc, o?)))
    }

    /// Captures a point-in-time copy of `table`'s raw pairs — the
    /// *snapshot-read handle* a resident job service answers point queries
    /// from.
    ///
    /// The default implementation scans via [`KvStore::enumerate_pairs`],
    /// which is per-part atomic but only a consistent cross-part cut when
    /// writers are quiescent — e.g. taken from a `RunEvent::Step`
    /// observer, where the engine is paused at the barrier.  Stores whose
    /// locking allows it (single global lock, or all-part lock acquisition)
    /// may override this with a cut that is consistent even against
    /// concurrent writers.
    ///
    /// # Errors
    ///
    /// Fails if any part scan panicked or the store closed.
    fn snapshot_table(&self, table: &Self::Table) -> Result<crate::TableSnapshot, KvError> {
        let pairs = self.enumerate_pairs(table, crate::CollectPairs::default())?;
        Ok(crate::TableSnapshot::from_entries(pairs))
    }
}
