//! Client side: [`NetStore`], a [`KvStore`] whose tables live on part
//! servers.
//!
//! # Topology
//!
//! The store is constructed from an ordered list of part slots, each
//! served by a **replica group** (a primary plus optional standbys; see
//! [`NetStore::connect_replicated`]).  Part `p` of every table belongs to
//! slot `p % slots`; ubiquitous tables are replicated on every server
//! (writes broadcast, reads hit slot 0 on the client path and any local
//! replica on the server path).  DDL is broadcast to all servers under a
//! client-side lock so every server keeps an identically-shaped inner
//! store; table metadata is taken from slot 0's response and cached in a
//! client-side catalog.
//!
//! # The RPC surface
//!
//! Every request the client issues is described by one typed
//! [`Rpc`](crate::Rpc) descriptor — kind, [`Routing`](crate::Routing)
//! (slot / replicated / broadcast), and accounting class — and sent
//! through the single [`Shared::call`] path.  Replication fan-out, DDL
//! broadcast ordering, and data-plane cost accounting live there once,
//! instead of in per-operation helpers.
//!
//! # Replication and failover
//!
//! Data-plane writes to a replicated slot reach every live group member
//! (primary first — it must succeed — then standbys, which are retried
//! once and then marked permanently down); reads and enumerations go to
//! the primary only.  When the primary dies, the connection pool promotes
//! a standby at a higher fencing epoch and the operation surfaces
//! [`KvError::Transient`], which the engines' retry policies already heal
//! — so a job killed mid-superstep replays from the last barrier against
//! the promoted replica.  An optional heartbeat thread
//! ([`NetConfig::heartbeat_interval`]) probes primaries so a silent
//! server is detected even between requests.  Mutations performed inside
//! *named tasks* ([`KvStore::run_named_at`]) run on the primary only and
//! are **not** replicated to standbys — replicated deployments should
//! confine named-task writes to recomputable state.
//!
//! # Batching and combiner pushdown
//!
//! [`Table::put_batch`] (and the part-view equivalent) coalesces records
//! per destination slot into one [`REQ_PUT_BATCH`](crate::proto) frame
//! each, instead of one `REQ_PUT` round trip per record.  When the table
//! is bound to a combiner ([`KvStore::bind_combiner`]), the client
//! additionally *pre-combines* duplicate-key records before they cross
//! the wire and the combiner's name travels with the batch, so the server
//! folds the survivors into resident values under its own part locks.
//!
//! # Mobile code
//!
//! Closures cannot cross the wire, so [`KvStore::run_at`] on a `NetStore`
//! runs the closure *on the client* against a remote [`PartView`] that
//! ships data instead of code — every view operation becomes a request to
//! the owning server.  [`KvStore::run_named_at`] is the genuine Ripple
//! dispatch path: it forwards the registered task's name and argument to
//! the part's owning server, which runs the registration adjacent to the
//! data.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use ripple_kv::{
    CombineFn, CombinerRegistry, CombinerSpec, Counter, KvError, KvStore, MembershipView,
    PartExecutor, PartId, PartView, RoutedKey, ScanControl, StoreCounters, StoreEventSink,
    StoreMetrics, Table, TableSpec, TaskHandle,
};
use ripple_wire::{from_wire, msg_len, to_wire, to_wire_ref};

use crate::membership::Membership;
use crate::pool::{Pending, Pool, CONNECT_TIMEOUT, RESPONSE_TIMEOUT};
use crate::proto::{self, TableMeta};
use crate::rpc::{CallClass, Routing, Rpc};

/// Tunables for a [`NetStore`]'s failure behaviour.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bound on establishing a TCP connection to a part server.
    pub connect_timeout: Duration,
    /// Bound on waiting for any single response frame (overridable at
    /// runtime through
    /// [`KvStore::set_op_deadline`](ripple_kv::KvStore::set_op_deadline)).
    pub response_timeout: Duration,
    /// Interval of the background heartbeat probe against each replicated
    /// slot's primary; `None` (the default) disables the detector and
    /// leaves failure detection to the request path.
    pub heartbeat_interval: Option<Duration>,
    /// Consecutive heartbeat misses tolerated before the primary is
    /// deposed.
    pub heartbeat_grace: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            connect_timeout: CONNECT_TIMEOUT,
            response_timeout: RESPONSE_TIMEOUT,
            heartbeat_interval: None,
            heartbeat_grace: 3,
        }
    }
}

fn decode<T: ripple_wire::Decode>(payload: &[u8]) -> Result<T, KvError> {
    from_wire(payload).map_err(|e| KvError::Backend {
        detail: format!("malformed response payload: {e}"),
    })
}

#[derive(Debug)]
struct Shared {
    pool: Pool,
    metrics: Arc<StoreCounters>,
    catalog: Mutex<HashMap<String, TableMeta>>,
    /// Serializes DDL broadcasts so all servers see them in one order.
    ddl: Mutex<()>,
    /// Client-side combiner registrations, mirrored by name on servers.
    combiners: CombinerRegistry,
    /// table → combiner-name bindings, for client-side pre-combining.
    bindings: Mutex<HashMap<String, String>>,
    /// The client-side part threads `run_at` closures and named-task
    /// requests wait on.
    executor: PartExecutor,
    /// Held only so dropping the store disconnects the heartbeat thread's
    /// receiver, waking it out of its interval sleep immediately.
    _heartbeat_stop: Option<Sender<()>>,
}

impl Shared {
    fn servers(&self) -> usize {
        self.pool.servers()
    }

    fn membership(&self) -> &Arc<Membership> {
        self.pool.membership()
    }

    /// The slot owning part `part` of any table.
    fn owner(&self, part: u32) -> usize {
        part as usize % self.servers()
    }

    /// The single client request path: issues `rpc` with `payload` and
    /// returns the (primary) response payload.
    ///
    /// Data-plane calls are charged to the remote-op and marshalling
    /// counters here, so no call site accounts by hand.
    fn call(&self, rpc: Rpc, payload: &[u8]) -> Result<Bytes, KvError> {
        if rpc.class() == CallClass::Data {
            self.metrics.add(None, Counter::RemoteOps, 1);
            self.metrics
                .add(None, Counter::BytesMarshalled, payload.len() as u64);
        }
        match rpc.routing() {
            Routing::Slot(slot) => self.pool.unary(slot, rpc.kind(), payload),
            Routing::Replicated(slot) => self.replicated(slot, rpc.kind(), payload),
            Routing::Broadcast => {
                let mut first = None;
                for slot in 0..self.servers() {
                    let resp = self.replicated(slot, rpc.kind(), payload)?;
                    if slot == 0 {
                        first = Some(resp);
                    }
                }
                Ok(first.expect("at least one server"))
            }
        }
    }

    /// The [`Routing::Replicated`] mechanics: the write must reach every
    /// live member of `slot`'s group — the primary synchronously and
    /// fatally, standbys with one retry before they are marked permanently
    /// down (a down standby is never promoted, so giving up on it cannot
    /// resurrect stale data).  Returns the primary's response.
    fn replicated(&self, slot: usize, kind: u8, payload: &[u8]) -> Result<Bytes, KvError> {
        let resp = self.pool.unary(slot, kind, payload)?;
        let membership = self.membership();
        if membership.replicated(slot) {
            for member in membership.live_standbys(slot) {
                if self.pool.unary_member(slot, member, kind, payload).is_err() {
                    self.metrics.add(None, Counter::Retries, 1);
                    // The retry re-sends the whole frame; that second send
                    // is heal traffic, not useful h-relation bytes.
                    self.metrics
                        .add(None, Counter::RetryBytes, msg_len(payload.len()) as u64);
                    if self.pool.unary_member(slot, member, kind, payload).is_err() {
                        membership.mark_standby_down(slot, member);
                    }
                }
            }
        }
        Ok(resp)
    }

    /// Table metadata by name: catalog hit, or a lookup on slot 0.
    fn meta_for(&self, table: &str) -> Result<TableMeta, KvError> {
        if let Some(meta) = self.lock_catalog().get(table) {
            return Ok(*meta);
        }
        let meta = TableMeta::decode(&self.call(
            Rpc::control(proto::REQ_LOOKUP, Routing::Slot(0)),
            &to_wire_ref(&table),
        )?)?;
        self.lock_catalog().insert(table.to_owned(), meta);
        Ok(meta)
    }

    fn lock_catalog(&self) -> std::sync::MutexGuard<'_, HashMap<String, TableMeta>> {
        self.catalog.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_bindings(&self) -> std::sync::MutexGuard<'_, HashMap<String, String>> {
        self.bindings.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fold bound to `table` (with the name that travels on the
    /// wire), if any.
    fn fold_for(&self, table: &str) -> Option<(String, CombineFn)> {
        let name = self.lock_bindings().get(table).cloned()?;
        let f = self.combiners.get(&name)?;
        Some((name, f))
    }

    /// Ships one per-slot record group as a single coalesced
    /// [`proto::REQ_PUT_BATCH`] frame, pre-combining duplicate-key records
    /// client-side when the table is bound to a combiner.
    fn send_batch(
        &self,
        routing: Routing,
        table: &str,
        mut group: Vec<(RoutedKey, Bytes)>,
        fold: Option<&(String, CombineFn)>,
    ) -> Result<(), KvError> {
        let combiner = match fold {
            Some((name, f)) => {
                let before = group.len();
                group = precombine(group, f)?;
                self.metrics.add(
                    None,
                    Counter::CombinedRecords,
                    (before - group.len()) as u64,
                );
                Some(name.clone())
            }
            None => None,
        };
        // Every record is one data-plane op; `call` charges the first.
        self.metrics.add(
            None,
            Counter::RemoteOps,
            (group.len() as u64).saturating_sub(1),
        );
        self.metrics.add(None, Counter::NetBatches, 1);
        let payload = to_wire_ref(&(table, &combiner, &group));
        self.call(Rpc::data(proto::REQ_PUT_BATCH, routing), &payload)?;
        Ok(())
    }

    /// Consumes a scan/drain stream.  Pairs are fed to `each` until it
    /// returns `Stop`; the unconsumed remainder (rest of the stream) is
    /// collected and returned so drains can restore it.
    fn pull_stream(
        &self,
        pending: &Pending,
        each: &mut dyn FnMut(RoutedKey, Bytes) -> ScanControl,
    ) -> Result<Vec<(RoutedKey, Bytes)>, KvError> {
        let mut stopped = false;
        let mut leftover = Vec::new();
        loop {
            let frame = pending.recv()?;
            match frame.kind {
                proto::RESP_CHUNK => {
                    self.metrics
                        .add(None, Counter::BytesMarshalled, frame.payload.len() as u64);
                    for (k, v) in proto::decode_pairs(&frame.payload)? {
                        if stopped {
                            leftover.push((k, v));
                        } else if !each(k, v).should_continue() {
                            stopped = true;
                        }
                    }
                }
                _ => return Ok(leftover), // RESP_END
            }
        }
    }
}

/// Folds duplicate-key records together with `f`, preserving the first
/// occurrence's position and arrival order within each key (left operand
/// resident, right operand incoming — the same orientation the server
/// folds with).
fn precombine(
    group: Vec<(RoutedKey, Bytes)>,
    f: &CombineFn,
) -> Result<Vec<(RoutedKey, Bytes)>, KvError> {
    let mut index: HashMap<RoutedKey, usize> = HashMap::with_capacity(group.len());
    let mut out: Vec<(RoutedKey, Bytes)> = Vec::with_capacity(group.len());
    for (k, v) in group {
        if let Some(&i) = index.get(&k) {
            out[i].1 = f(&out[i].1, &v)?;
        } else {
            index.insert(k.clone(), out.len());
            out.push((k, v));
        }
    }
    Ok(out)
}

/// A [`KvStore`] backed by TCP part servers.
///
/// Cheap to clone; clones share the connection pool, catalog, and
/// counters.
#[derive(Debug, Clone)]
pub struct NetStore {
    inner: Arc<Shared>,
}

impl NetStore {
    /// Creates a store speaking to `addrs`, one address per part server
    /// (no replication).  Connections open lazily on first use.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    #[must_use]
    pub fn connect(addrs: Vec<SocketAddr>) -> Self {
        Self::connect_with(addrs, &NetConfig::default())
    }

    /// Like [`NetStore::connect`], with explicit failure tunables.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    #[must_use]
    pub fn connect_with(addrs: Vec<SocketAddr>, config: &NetConfig) -> Self {
        Self::connect_replicated_with(addrs.into_iter().map(|a| vec![a]).collect(), config)
    }

    /// Creates a store over replica groups: one address list per part
    /// slot, the first member of each being the initial primary.
    /// Single-member groups behave exactly like [`NetStore::connect`];
    /// larger groups get replicated writes, epoch-fenced failover, and
    /// (if configured) heartbeat-based failure detection.
    ///
    /// # Panics
    ///
    /// Panics if `groups` or any group is empty.
    #[must_use]
    pub fn connect_replicated(groups: Vec<Vec<SocketAddr>>) -> Self {
        Self::connect_replicated_with(groups, &NetConfig::default())
    }

    /// Like [`NetStore::connect_replicated`], with explicit failure
    /// tunables.
    ///
    /// # Panics
    ///
    /// Panics if `groups` or any group is empty.
    #[must_use]
    pub fn connect_replicated_with(groups: Vec<Vec<SocketAddr>>, config: &NetConfig) -> Self {
        assert!(!groups.is_empty(), "a NetStore needs at least one server");
        let metrics = Arc::new(StoreCounters::new());
        let membership = Arc::new(Membership::new(groups, Arc::clone(&metrics)));
        let mut heartbeat = None;
        let stop_tx = config.heartbeat_interval.map(|interval| {
            let (tx, rx) = bounded(0);
            heartbeat = Some((interval, rx));
            tx
        });
        let store = Self {
            inner: Arc::new(Shared {
                pool: Pool::new(
                    Arc::clone(&membership),
                    Arc::clone(&metrics),
                    config.connect_timeout,
                    config.response_timeout,
                ),
                metrics,
                catalog: Mutex::new(HashMap::new()),
                ddl: Mutex::new(()),
                combiners: CombinerRegistry::new(),
                bindings: Mutex::new(HashMap::new()),
                executor: PartExecutor::new("net-store"),
                _heartbeat_stop: stop_tx,
            }),
        };
        if let Some((interval, stop)) = heartbeat {
            spawn_heartbeat(
                Arc::downgrade(&store.inner),
                stop,
                interval,
                config.heartbeat_grace,
            );
        }
        store
    }

    /// Number of part slots this store speaks to.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.inner.servers()
    }

    /// A snapshot of the client's replica-group membership view.
    #[must_use]
    pub fn membership(&self) -> MembershipView<SocketAddr> {
        self.inner.membership().view()
    }

    /// Administratively advances `slot`'s fencing epoch and returns the
    /// new value.  Connections handshaken at the old epoch are refused by
    /// servers as soon as any connection announces the new one — the hook
    /// zombie-fencing tests use to simulate an external promotion.
    #[must_use]
    pub fn advance_epoch(&self, slot: usize) -> u64 {
        let epoch = self.inner.membership().advance_epoch(slot);
        // This client's own connections are fenced at the old epoch too;
        // sever them so the next request re-handshakes at the new one and
        // raises the server-side watermark.
        self.inner.pool.sever();
        epoch
    }

    /// Severs every open connection at the socket level, failing in-flight
    /// requests with [`KvError::Transient`].  Subsequent requests
    /// reconnect.  A fault-injection hook for testing retry behaviour.
    pub fn sever_connections(&self) {
        self.inner.pool.sever();
    }

    fn table_from_meta(&self, name: &str, meta: TableMeta) -> NetTable {
        self.inner.lock_catalog().insert(name.to_owned(), meta);
        NetTable {
            store: Arc::clone(&self.inner),
            name: name.to_owned(),
            meta,
        }
    }
}

/// Background failure detector: pings the primary of every replicated
/// slot each `interval`; `grace` consecutive misses depose it.  The
/// thread holds only a weak reference, and `stop`'s sender lives in the
/// store — dropping the store disconnects the channel, which wakes the
/// thread out of its interval wait immediately instead of letting it
/// sleep-poll the rest of the interval before noticing.
fn spawn_heartbeat(shared: Weak<Shared>, stop: Receiver<()>, interval: Duration, grace: u32) {
    let _ = std::thread::Builder::new()
        .name("net-store-heartbeat".to_owned())
        .spawn(move || loop {
            match stop.recv_timeout(interval) {
                Err(RecvTimeoutError::Timeout) => {}
                // Disconnected (store dropped) or an explicit stop nudge.
                _ => return,
            }
            let Some(shared) = shared.upgrade() else {
                return;
            };
            let membership = Arc::clone(shared.membership());
            for slot in 0..membership.slots() {
                if !membership.replicated(slot) {
                    continue;
                }
                match shared.call(
                    Rpc::control(proto::REQ_PING, Routing::Slot(slot)),
                    &to_wire(&()),
                ) {
                    Ok(payload) => {
                        if let Ok(epoch) = from_wire::<u64>(&payload) {
                            membership.observe_epoch(slot, epoch);
                        }
                    }
                    Err(_) => {
                        membership.record_heartbeat_miss(slot, grace);
                    }
                }
            }
        });
}

/// Handle to a table hosted on part servers.
#[derive(Debug, Clone)]
pub struct NetTable {
    store: Arc<Shared>,
    name: String,
    meta: TableMeta,
}

impl NetTable {
    /// The slot that owns `key` (slot 0 for ubiquitous tables).
    fn server_for(&self, key: &RoutedKey) -> usize {
        if self.meta.ubiquitous {
            0
        } else {
            self.store.owner(key.part_for(self.meta.parts).0)
        }
    }

    /// The routing a write to `key`'s slot takes: broadcast for
    /// ubiquitous tables, the owning replica group otherwise.
    fn write_routing(&self, key: &RoutedKey) -> Routing {
        if self.meta.ubiquitous {
            Routing::Broadcast
        } else {
            Routing::Replicated(self.server_for(key))
        }
    }
}

impl Table for NetTable {
    fn name(&self) -> &str {
        &self.name
    }

    fn part_count(&self) -> u32 {
        self.meta.parts
    }

    fn is_ubiquitous(&self) -> bool {
        self.meta.ubiquitous
    }

    fn partitioning_id(&self) -> u64 {
        self.meta.partitioning_id
    }

    fn get(&self, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        let payload = to_wire_ref(&(&self.name, key));
        let resp = self.store.call(
            Rpc::data(proto::REQ_GET, Routing::Slot(self.server_for(key))),
            &payload,
        )?;
        decode(&resp)
    }

    fn put(&self, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        let routing = self.write_routing(&key);
        let payload = to_wire_ref(&(&self.name, &key, &value));
        let resp = self
            .store
            .call(Rpc::data(proto::REQ_PUT, routing), &payload)?;
        decode(&resp)
    }

    /// One coalesced [`proto::REQ_PUT_BATCH`] frame per destination slot
    /// instead of one `REQ_PUT` round trip per record; duplicate keys are
    /// pre-combined client-side when the table is bound to a combiner.
    fn put_batch(&self, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        if pairs.is_empty() {
            return Ok(());
        }
        let fold = self.store.fold_for(&self.name);
        if self.meta.ubiquitous {
            return self
                .store
                .send_batch(Routing::Broadcast, &self.name, pairs, fold.as_ref());
        }
        let mut groups: Vec<Vec<(RoutedKey, Bytes)>> = vec![Vec::new(); self.store.servers()];
        for (key, value) in pairs {
            groups[self.server_for(&key)].push((key, value));
        }
        for (slot, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            self.store
                .send_batch(Routing::Replicated(slot), &self.name, group, fold.as_ref())?;
        }
        Ok(())
    }

    fn delete(&self, key: &RoutedKey) -> Result<bool, KvError> {
        let routing = self.write_routing(key);
        let payload = to_wire_ref(&(&self.name, key));
        let resp = self
            .store
            .call(Rpc::data(proto::REQ_DELETE, routing), &payload)?;
        decode(&resp)
    }

    fn len(&self) -> Result<usize, KvError> {
        let payload = to_wire_ref(&self.name);
        if self.meta.ubiquitous {
            let n: u64 = decode(
                &self
                    .store
                    .call(Rpc::control(proto::REQ_LEN, Routing::Slot(0)), &payload)?,
            )?;
            return Ok(usize::try_from(n).unwrap_or(usize::MAX));
        }
        // Each slot holds only the parts it owns, so the per-slot totals
        // sum to the table size.
        let mut total = 0u64;
        for server in 0..self.store.servers() {
            let n: u64 = decode(&self.store.call(
                Rpc::control(proto::REQ_LEN, Routing::Slot(server)),
                &payload,
            )?)?;
            total += n;
        }
        Ok(usize::try_from(total).unwrap_or(usize::MAX))
    }

    fn clear(&self) -> Result<(), KvError> {
        self.store.call(
            Rpc::control(proto::REQ_CLEAR, Routing::Broadcast),
            &to_wire_ref(&self.name),
        )?;
        Ok(())
    }
}

impl KvStore for NetStore {
    type Table = NetTable;

    fn create_table(&self, spec: &TableSpec) -> Result<NetTable, KvError> {
        let _ddl = self
            .inner
            .ddl
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let payload = to_wire_ref(&(
            spec.name(),
            spec.part_count(),
            spec.is_ubiquitous(),
            spec.is_replicated(),
        ));
        let meta = TableMeta::decode(&self.inner.call(
            Rpc::control(proto::REQ_CREATE_TABLE, Routing::Broadcast),
            &payload,
        )?)?;
        Ok(self.table_from_meta(spec.name(), meta))
    }

    fn create_table_like(&self, name: &str, like: &NetTable) -> Result<NetTable, KvError> {
        let _ddl = self
            .inner
            .ddl
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let payload = to_wire_ref(&(name, &like.name));
        let meta = TableMeta::decode(&self.inner.call(
            Rpc::control(proto::REQ_CREATE_LIKE, Routing::Broadcast),
            &payload,
        )?)?;
        Ok(self.table_from_meta(name, meta))
    }

    fn create_table_like_replicated(
        &self,
        name: &str,
        like: &NetTable,
    ) -> Result<NetTable, KvError> {
        let _ddl = self
            .inner
            .ddl
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let payload = to_wire_ref(&(name, &like.name));
        let meta = TableMeta::decode(&self.inner.call(
            Rpc::control(proto::REQ_CREATE_LIKE_REPLICATED, Routing::Broadcast),
            &payload,
        )?)?;
        Ok(self.table_from_meta(name, meta))
    }

    fn lookup_table(&self, name: &str) -> Result<NetTable, KvError> {
        let meta = TableMeta::decode(&self.inner.call(
            Rpc::control(proto::REQ_LOOKUP, Routing::Slot(0)),
            &to_wire_ref(&name),
        )?)?;
        Ok(self.table_from_meta(name, meta))
    }

    fn drop_table(&self, name: &str) -> Result<(), KvError> {
        let _ddl = self
            .inner
            .ddl
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.inner.call(
            Rpc::control(proto::REQ_DROP, Routing::Broadcast),
            &to_wire_ref(&name),
        )?;
        self.inner.lock_catalog().remove(name);
        self.inner.lock_bindings().remove(name);
        Ok(())
    }

    fn table_names(&self) -> Vec<String> {
        self.inner
            .call(
                Rpc::control(proto::REQ_TABLE_NAMES, Routing::Slot(0)),
                &to_wire(&()),
            )
            .ok()
            .and_then(|resp| decode(&resp).ok())
            .unwrap_or_default()
    }

    fn run_at<R, F>(&self, reference: &NetTable, part: PartId, task: F) -> TaskHandle<R>
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
        self.inner.metrics.add(None, Counter::TasksDispatched, 1);
        let view = RemotePartView {
            shared: Arc::clone(&self.inner),
            part,
            partitioning_id: reference.meta.partitioning_id,
            reference_name: reference.name.clone(),
        };
        self.inner.executor.run(part, move || task(&view))
    }

    fn run_named_at(
        &self,
        reference: &NetTable,
        part: PartId,
        task: &str,
        arg: Bytes,
    ) -> TaskHandle<Result<Bytes, KvError>> {
        assert!(
            part.0 < reference.part_count(),
            "part {part} out of range for table {:?} with {} parts",
            reference.name(),
            reference.part_count()
        );
        self.inner.metrics.add(None, Counter::TasksDispatched, 1);
        let shared = Arc::clone(&self.inner);
        let server = if reference.meta.ubiquitous {
            0
        } else {
            shared.owner(part.0)
        };
        let payload = to_wire_ref(&(&reference.name, part.0, task, &arg));
        self.inner.executor.run(part, move || {
            shared.call(
                Rpc::control(proto::REQ_RUN_TASK, Routing::Slot(server)),
                &payload,
            )
        })
    }

    fn combiner_registry(&self) -> Option<&CombinerRegistry> {
        Some(&self.inner.combiners)
    }

    /// Binding a combiner on a `NetStore` does three things: checks the
    /// name is registered client-side, broadcasts the binding so every
    /// server folds incoming batches with the same fold, and records it
    /// locally so [`Table::put_batch`] pre-combines before the wire.  The
    /// fold must also be registered on every server process (the built-in
    /// [`ripple_kv::VEC_CONCAT`] always is); an unregistered name fails
    /// with [`KvError::NoSuchCombiner`].
    fn bind_combiner(&self, table: &str, combiner: &CombinerSpec) -> Result<(), KvError> {
        self.inner.combiners.resolve(combiner.name())?;
        self.inner.meta_for(table)?;
        self.inner.call(
            Rpc::control(proto::REQ_BIND_COMBINER, Routing::Broadcast),
            &to_wire_ref(&(table, combiner.name())),
        )?;
        self.inner
            .lock_bindings()
            .insert(table.to_owned(), combiner.name().to_owned());
        Ok(())
    }

    fn metrics(&self) -> StoreMetrics {
        self.inner.metrics.metrics()
    }

    fn set_event_sink(&self, sink: Arc<dyn StoreEventSink>) {
        self.inner.membership().set_sink(sink);
    }

    fn set_op_deadline(&self, deadline: Option<Duration>) {
        self.inner.pool.set_deadline(deadline);
    }

    fn ping_part(&self, part: PartId) -> Result<u64, KvError> {
        let slot = self.inner.owner(part.0);
        let payload = self.inner.call(
            Rpc::control(proto::REQ_PING, Routing::Slot(slot)),
            &to_wire(&()),
        )?;
        let epoch: u64 = decode(&payload)?;
        self.inner.membership().observe_epoch(slot, epoch);
        Ok(epoch)
    }
}

/// The client-side [`PartView`] handed to `run_at` closures: every
/// operation ships data over the wire to the owning server, mirroring the
/// semantics of a local view (part-scoped enumeration, unscoped point
/// lookups, the ubiquity and co-partitioning checks).
struct RemotePartView {
    shared: Arc<Shared>,
    part: PartId,
    partitioning_id: u64,
    reference_name: String,
}

impl RemotePartView {
    fn resolve(&self, table: &str, write: bool) -> Result<TableMeta, KvError> {
        let meta = self.shared.meta_for(table)?;
        if meta.ubiquitous {
            if write {
                return Err(KvError::UbiquityMismatch {
                    name: table.to_owned(),
                });
            }
            return Ok(meta);
        }
        if meta.partitioning_id != self.partitioning_id {
            return Err(KvError::NotCopartitioned {
                left: table.to_owned(),
                right: self.reference_name.clone(),
            });
        }
        Ok(meta)
    }

    fn server_for(&self, meta: TableMeta, key: &RoutedKey) -> usize {
        if meta.ubiquitous {
            0
        } else {
            self.shared.owner(key.part_for(meta.parts).0)
        }
    }

    /// The `(slot, part)` a part-scoped enumeration addresses: the
    /// anchored part's owner, or part 0 on slot 0 for ubiquitous tables
    /// (whose every replica holds the full contents).
    fn scan_target(&self, meta: TableMeta) -> (usize, u32) {
        if meta.ubiquitous {
            (0, 0)
        } else {
            (self.shared.owner(self.part.0), self.part.0)
        }
    }
}

impl PartView for RemotePartView {
    fn part(&self) -> PartId {
        self.part
    }

    fn get(&self, table: &str, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        let meta = self.resolve(table, false)?;
        let payload = to_wire_ref(&(table, key));
        let resp = self.shared.call(
            Rpc::data(proto::REQ_GET, Routing::Slot(self.server_for(meta, key))),
            &payload,
        )?;
        decode(&resp)
    }

    /// One [`proto::REQ_GET_BATCH`] round trip per owning slot instead of
    /// one `REQ_GET` per key.
    fn get_batch(&self, table: &str, keys: &[RoutedKey]) -> Result<Vec<Option<Bytes>>, KvError> {
        let meta = self.resolve(table, false)?;
        let mut groups: Vec<(Vec<usize>, Vec<&RoutedKey>)> =
            vec![Default::default(); self.shared.servers()];
        for (i, key) in keys.iter().enumerate() {
            let group = &mut groups[self.server_for(meta, key)];
            group.0.push(i);
            group.1.push(key);
        }
        let mut values: Vec<Option<Bytes>> = vec![None; keys.len()];
        for (slot, (positions, group)) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // Every key is one data-plane op; `call` charges the first.
            self.shared
                .metrics
                .add(None, Counter::RemoteOps, group.len() as u64 - 1);
            let payload = to_wire_ref(&(table, &group));
            let resp = self.shared.call(
                Rpc::data(proto::REQ_GET_BATCH, Routing::Slot(slot)),
                &payload,
            )?;
            let got: Vec<Option<Bytes>> = decode(&resp)?;
            if got.len() != positions.len() {
                return Err(KvError::Backend {
                    detail: format!(
                        "get_batch answered {} values for {} keys",
                        got.len(),
                        positions.len()
                    ),
                });
            }
            for (i, value) in positions.into_iter().zip(got) {
                values[i] = value;
            }
        }
        Ok(values)
    }

    fn put(&self, table: &str, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        let meta = self.resolve(table, true)?;
        let server = self.server_for(meta, &key);
        let payload = to_wire_ref(&(table, &key, &value));
        let resp = self.shared.call(
            Rpc::data(proto::REQ_PUT, Routing::Replicated(server)),
            &payload,
        )?;
        decode(&resp)
    }

    /// One coalesced [`proto::REQ_PUT_BATCH`] frame per destination slot;
    /// duplicate keys are pre-combined client-side when the table is
    /// bound to a combiner.
    fn put_batch(&self, table: &str, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        if pairs.is_empty() {
            return Ok(());
        }
        let meta = self.resolve(table, true)?;
        let fold = self.shared.fold_for(table);
        let mut groups: Vec<Vec<(RoutedKey, Bytes)>> = vec![Vec::new(); self.shared.servers()];
        for (key, value) in pairs {
            groups[self.server_for(meta, &key)].push((key, value));
        }
        for (slot, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            self.shared
                .send_batch(Routing::Replicated(slot), table, group, fold.as_ref())?;
        }
        Ok(())
    }

    fn delete(&self, table: &str, key: &RoutedKey) -> Result<bool, KvError> {
        let meta = self.resolve(table, true)?;
        let payload = to_wire_ref(&(table, key));
        let resp = self.shared.call(
            Rpc::data(
                proto::REQ_DELETE,
                Routing::Replicated(self.server_for(meta, key)),
            ),
            &payload,
        )?;
        decode(&resp)
    }

    fn scan(
        &self,
        table: &str,
        f: &mut dyn FnMut(&RoutedKey, &[u8]) -> ScanControl,
    ) -> Result<(), KvError> {
        let meta = self.resolve(table, false)?;
        self.shared.metrics.add(None, Counter::Enumerations, 1);
        let (server, part) = self.scan_target(meta);
        let payload = to_wire_ref(&(table, part));
        let pending = self
            .shared
            .pool
            .request(server, proto::REQ_SCAN, &payload)?;
        self.shared
            .pull_stream(&pending, &mut |k, v| f(&k, &v))
            .map(|_| ())
    }

    fn drain(
        &self,
        table: &str,
        f: &mut dyn FnMut(RoutedKey, Bytes) -> ScanControl,
    ) -> Result<(), KvError> {
        let meta = self.resolve(table, true)?;
        self.shared.metrics.add(None, Counter::Enumerations, 1);
        let (server, part) = self.scan_target(meta);
        let payload = to_wire_ref(&(table, part));
        // Enumerate non-destructively and buffer the whole stream first:
        // nothing is removed server-side until the stream has arrived
        // intact, so a connection lost mid-drain loses no data — the
        // caller sees a transient error and the retried drain starts
        // clean.
        let pending = self
            .shared
            .pool
            .request(server, proto::REQ_SCAN, &payload)?;
        let mut pairs: Vec<(RoutedKey, Bytes)> = Vec::new();
        self.shared.pull_stream(&pending, &mut |k, v| {
            pairs.push((k, v));
            ScanControl::Continue
        })?;
        // Feed the visitor, then delete exactly what it consumed; an
        // early stop leaves the remainder in place, matching local
        // early-stop semantics.  Engine phases are barriered, so nothing
        // writes the table between the enumeration and the deletes.
        let mut ops: Vec<(u8, RoutedKey, Bytes)> = Vec::new();
        for (k, v) in pairs {
            let key = k.clone();
            let control = f(k, v);
            ops.push((proto::APPLY_DELETE, key, Bytes::new()));
            if !control.should_continue() {
                break;
            }
        }
        if !ops.is_empty() {
            // Each deletion is one data-plane op; `call` charges the first.
            self.shared
                .metrics
                .add(None, Counter::RemoteOps, ops.len() as u64 - 1);
            let payload = to_wire_ref(&(table, &ops));
            self.shared.call(
                Rpc::data(proto::REQ_APPLY, Routing::Replicated(server)),
                &payload,
            )?;
        }
        Ok(())
    }

    fn len(&self, table: &str) -> Result<usize, KvError> {
        let meta = self.resolve(table, false)?;
        let (server, part) = self.scan_target(meta);
        let payload = to_wire_ref(&(table, part));
        let n: u64 = decode(&self.shared.call(
            Rpc::control(proto::REQ_PART_LEN, Routing::Slot(server)),
            &payload,
        )?)?;
        Ok(usize::try_from(n).unwrap_or(usize::MAX))
    }
}
