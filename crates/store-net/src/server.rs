//! The part server: hosts parts of an inner [`KvStore`] behind the wire
//! protocol.
//!
//! A part server wraps any local store (memory or disk) and serves the
//! full table SPI over TCP: DDL, point operations, batched writes,
//! streamed part enumeration, and dispatch of *registered* tasks.  A
//! cluster runs one server per host; each server is configured with an
//! identically-shaped inner store, and the client routes each part to its
//! owning server — so every server's inner store holds data only for the
//! parts it owns (plus full replicas of ubiquitous tables, which clients
//! broadcast).
//!
//! Mobile code cannot cross the wire as a closure; [`REQ_RUN_TASK`]
//! therefore dispatches by *name* against the server's [`TaskRegistry`]
//! (the paper's pre-registered operation model).  Unregistered names fail
//! with [`KvError::NoSuchTask`]; ad-hoc closures fall back to data
//! shipping through the client's remote `PartView`.
//!
//! # Fencing and lifecycle
//!
//! When the server participates in a replica group, clients announce
//! their group epoch with [`REQ_HELLO`](crate::proto::REQ_HELLO); the
//! server remembers the highest epoch it has ever seen and refuses both
//! stale handshakes and data-plane requests on connections handshaken
//! below that watermark with [`KvError::StaleEpoch`].  That is the whole
//! zombie defence: a deposed primary only ever *refuses* writes, because
//! the first connection fenced at the post-promotion epoch raises the
//! watermark for good.
//!
//! The handle distinguishes planned shutdown from a crash:
//! [`ServerHandle::stop`] drains in-flight requests within a bounded
//! grace period before closing, while [`ServerHandle::abort`] drops
//! everything on the floor mid-flight — which is what failover tests use
//! to kill a primary.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ripple_kv::{
    panic_message, CombinerSpec, KvError, KvStore, PartId, RoutedKey, ScanControl, Table,
    TableSpec, TaskRegistry,
};
use ripple_wire::{from_wire, msg_len, read_msg_from, to_wire, write_msg};

use crate::proto::{self, TableMeta};

/// Shared lifecycle state between the handle, the accept loop, and every
/// connection thread.
#[derive(Debug, Default)]
struct ServerState {
    /// Highest fencing epoch any client has announced.
    epoch: AtomicU64,
    /// Requests currently being processed (including spawned task
    /// dispatches), guarded by a mutex so a graceful stop can park on
    /// [`ServerState::drained`] instead of sleep-polling the count.
    inflight: Mutex<u64>,
    /// Signalled whenever the in-flight count drops to zero.
    drained: Condvar,
    /// Planned shutdown: stop accepting, let in-flight work drain.
    stopping: AtomicBool,
    /// Crash-like shutdown: refuse everything immediately.
    aborted: AtomicBool,
    /// Accepted connection sockets, kept so shutdown can sever them.
    conns: Mutex<Vec<TcpStream>>,
}

impl ServerState {
    fn lock_conns(&self) -> std::sync::MutexGuard<'_, Vec<TcpStream>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn sever_conns(&self) {
        for stream in self.lock_conns().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn lock_inflight(&self) -> std::sync::MutexGuard<'_, u64> {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until the in-flight count reaches zero or `grace` elapses.
    fn wait_drained(&self, grace: Duration) {
        #[expect(clippy::disallowed_methods, reason = "stop_with_grace's deadline")]
        let deadline = Instant::now() + grace;
        let mut inflight = self.lock_inflight();
        while *inflight > 0 {
            #[expect(clippy::disallowed_methods, reason = "stop_with_grace's deadline")]
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return;
            };
            inflight = self
                .drained
                .wait_timeout(inflight, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// Unblocks a thread parked in `TcpListener::accept` on `addr` by making
/// a throwaway loopback connection.  The accept loop re-checks its stop
/// flag on every wakeup, so this is the shutdown path's wakeup channel —
/// the listener can stay in blocking mode instead of sleep-polling a
/// non-blocking one.
pub(crate) fn wake_listener(addr: SocketAddr) {
    if let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
        drop(stream);
    }
}

/// Decrements the in-flight count when the request finishes, however it
/// finishes.
struct InflightGuard(Arc<ServerState>);

impl InflightGuard {
    fn enter(state: &Arc<ServerState>) -> Self {
        *state.lock_inflight() += 1;
        Self(Arc::clone(state))
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        let mut inflight = self.0.lock_inflight();
        *inflight -= 1;
        if *inflight == 0 {
            drop(inflight);
            self.0.drained.notify_all();
        }
    }
}

/// A part server ready to be bound to an address.
#[derive(Debug, Clone)]
pub struct PartServer<S: KvStore> {
    store: S,
    registry: TaskRegistry,
}

impl<S: KvStore> PartServer<S> {
    /// Wraps `store` in a server with an empty task registry.
    pub fn new(store: S) -> Self {
        Self {
            store,
            registry: TaskRegistry::default(),
        }
    }

    /// Replaces the server's task registry, so several servers can share
    /// one set of registrations.
    #[must_use]
    pub fn with_registry(mut self, registry: TaskRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// The server's task registry, for registering named tasks.
    pub fn registry(&self) -> &TaskRegistry {
        &self.registry
    }

    /// Binds a listener on `addr` and starts serving on background
    /// threads.  Pass port 0 to let the OS pick; the bound address is on
    /// the returned handle.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener.
    pub fn bind(self, addr: SocketAddr) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let state = Arc::new(ServerState::default());
        let accept_state = Arc::clone(&state);
        let join = std::thread::Builder::new()
            .name(format!("part-server-{local}"))
            .spawn(move || accept_loop(&listener, &self, &accept_state))?;
        Ok(ServerHandle {
            addr: local,
            state,
            join: Some(join),
        })
    }
}

/// Grace period [`ServerHandle::stop`] allows in-flight requests before
/// severing their connections.
pub const STOP_GRACE: Duration = Duration::from_secs(1);

/// Handle on a running part server; stops it (gracefully) when dropped.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The highest fencing epoch any client has announced to this server.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.state.epoch.load(Ordering::SeqCst)
    }

    /// Requests currently being processed — observable while a graceful
    /// stop drains.
    #[must_use]
    pub fn inflight(&self) -> u64 {
        *self.state.lock_inflight()
    }

    /// Planned shutdown with the default grace ([`STOP_GRACE`]): stops
    /// accepting connections, waits for in-flight requests to drain, then
    /// severs remaining connections and joins the accept thread.
    pub fn stop(&mut self) {
        self.stop_with_grace(STOP_GRACE);
    }

    /// Planned shutdown with an explicit drain bound.  In-flight requests
    /// that finish within `grace` get their responses; only then (or at
    /// the bound) are connections severed — so a planned stop of a quiet
    /// server is loss-free, unlike [`ServerHandle::abort`].
    pub fn stop_with_grace(&mut self, grace: Duration) {
        self.state.stopping.store(true, Ordering::SeqCst);
        wake_listener(self.addr);
        if !self.state.aborted.load(Ordering::SeqCst) {
            self.state.wait_drained(grace);
        }
        self.state.sever_conns();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    /// Crash-like shutdown: refuses all further requests and severs every
    /// connection immediately, abandoning in-flight work mid-frame.  Takes
    /// `&self` so a test observer can kill the server from inside a
    /// running job; the accept thread is reaped by the eventual
    /// [`ServerHandle::stop`] (or drop).
    pub fn abort(&self) {
        self.state.aborted.store(true, Ordering::SeqCst);
        self.state.stopping.store(true, Ordering::SeqCst);
        self.state.sever_conns();
        // The accept thread may be parked in a blocking accept; poke it so
        // it observes the flags.  It is reaped by the eventual stop/drop.
        wake_listener(self.addr);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop<S: KvStore>(
    listener: &TcpListener,
    server: &PartServer<S>,
    state: &Arc<ServerState>,
) {
    // The listener blocks; shutdown paths unblock it with a throwaway
    // `wake_listener` connection after raising the stop flag, so the loop
    // re-checks the flag on every accept instead of sleep-polling a
    // non-blocking socket.
    while !state.stopping.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.stopping.load(Ordering::SeqCst) {
                    // The shutdown wakeup (or a client racing it).
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    state.lock_conns().push(clone);
                }
                let server = server.clone();
                let state = Arc::clone(state);
                let _ = std::thread::Builder::new()
                    .name("part-server-conn".to_owned())
                    .spawn(move || serve_conn(&server, &state, stream));
            }
            // Accept errors on a healthy blocking listener are transient
            // resource conditions (EMFILE, ECONNABORTED); yield and retry
            // rather than wedging the server on one bad accept.
            Err(_) => std::thread::yield_now(),
        }
    }
}

/// Writes one response frame under the shared writer lock.
fn send(writer: &Mutex<TcpStream>, kind: u8, id: u64, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(msg_len(payload.len()));
    write_msg(&mut buf, kind, id, payload);
    writer
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .write_all(&buf)
}

fn send_result(writer: &Mutex<TcpStream>, id: u64, result: Result<Bytes, KvError>) {
    let _ = match result {
        Ok(payload) => send(writer, proto::RESP_OK, id, &payload),
        Err(e) => send(writer, proto::RESP_ERR, id, &proto::encode_err(&e)),
    };
}

fn serve_conn<S: KvStore>(server: &PartServer<S>, state: &Arc<ServerState>, mut stream: TcpStream) {
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    // The epoch this connection announced via `REQ_HELLO`.  Connections
    // that never handshake (unreplicated clients) announce none and are
    // never fenced: only a replica group moves an epoch, and its clients
    // always handshake.
    let mut hello_epoch: Option<u64> = None;
    loop {
        // A read error means the peer is gone or the stream is corrupt;
        // either way the connection is done.  Shut the socket down
        // explicitly — the lifecycle state holds a clone of it, so a
        // plain drop would leave the TCP connection half-open and the
        // peer waiting out its timeout instead of seeing the close.
        let Ok(frame) = read_msg_from(&mut stream) else {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        };
        if state.aborted.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        match frame.kind {
            proto::REQ_PING => {
                let epoch = state.epoch.load(Ordering::SeqCst);
                let _ = send(&writer, proto::RESP_OK, frame.id, &to_wire(&epoch));
            }
            proto::REQ_HELLO => {
                let announced: u64 = from_wire(&frame.payload).unwrap_or(0);
                let current = state.epoch.fetch_max(announced, Ordering::SeqCst);
                if announced < current {
                    let err = KvError::StaleEpoch {
                        seen: announced,
                        current,
                    };
                    let _ = send(&writer, proto::RESP_ERR, frame.id, &proto::encode_err(&err));
                } else {
                    hello_epoch = Some(announced);
                    let _ = send(&writer, proto::RESP_OK, frame.id, &to_wire(&announced));
                }
            }
            _ if hello_epoch.is_some_and(|seen| seen < state.epoch.load(Ordering::SeqCst)) => {
                // This connection was fenced at an epoch the group has
                // moved past: refuse without touching state, so a zombie
                // primary's clients cannot corrupt a promoted replica.
                let err = KvError::StaleEpoch {
                    seen: hello_epoch.unwrap_or_default(),
                    current: state.epoch.load(Ordering::SeqCst),
                };
                let _ = send(&writer, proto::RESP_ERR, frame.id, &proto::encode_err(&err));
            }
            proto::REQ_SCAN => {
                let _guard = InflightGuard::enter(state);
                match enumerate(&server.store, &frame.payload) {
                    Ok(pairs) => stream_pairs(&writer, frame.id, &pairs),
                    Err(e) => {
                        let _ = send(&writer, proto::RESP_ERR, frame.id, &proto::encode_err(&e));
                    }
                }
            }
            proto::REQ_RUN_TASK => {
                // Tasks may block on other parts (even ones on this same
                // connection), so they run on the inner store's part
                // threads and answer from there, never on the service loop.
                let guard = InflightGuard::enter(state);
                let writer = Arc::clone(&writer);
                let id = frame.id;
                run_task(server, &frame.payload, move |result| {
                    let _guard = guard;
                    send_result(&writer, id, result);
                });
            }
            kind => {
                let _guard = InflightGuard::enter(state);
                send_result(
                    &writer,
                    frame.id,
                    unary(&server.store, kind, &frame.payload),
                );
            }
        }
    }
}

fn decode<T: ripple_wire::Decode>(payload: &[u8]) -> Result<T, KvError> {
    from_wire(payload).map_err(|e| KvError::Backend {
        detail: format!("malformed request payload: {e}"),
    })
}

fn meta_of(t: &impl Table) -> TableMeta {
    TableMeta {
        parts: t.part_count(),
        ubiquitous: t.is_ubiquitous(),
        partitioning_id: t.partitioning_id(),
    }
}

/// Handles one single-response request and produces its `RESP_OK` payload.
fn unary<S: KvStore>(store: &S, kind: u8, payload: &[u8]) -> Result<Bytes, KvError> {
    match kind {
        proto::REQ_CREATE_TABLE => {
            let (name, parts, ubiquitous, replicated): (String, u32, bool, bool) = decode(payload)?;
            let mut spec = TableSpec::new(name);
            spec.parts(parts);
            if ubiquitous {
                spec.ubiquitous();
            }
            if replicated {
                spec.replicated();
            }
            let t = store.create_table(&spec)?;
            Ok(meta_of(&t).encode())
        }
        proto::REQ_CREATE_LIKE | proto::REQ_CREATE_LIKE_REPLICATED => {
            let (name, like): (String, String) = decode(payload)?;
            let like = store.lookup_table(&like)?;
            let t = if kind == proto::REQ_CREATE_LIKE {
                store.create_table_like(&name, &like)?
            } else {
                store.create_table_like_replicated(&name, &like)?
            };
            Ok(meta_of(&t).encode())
        }
        proto::REQ_LOOKUP => {
            let name: String = decode(payload)?;
            let t = store.lookup_table(&name)?;
            Ok(meta_of(&t).encode())
        }
        proto::REQ_DROP => {
            let name: String = decode(payload)?;
            store.drop_table(&name)?;
            Ok(Bytes::new())
        }
        proto::REQ_TABLE_NAMES => {
            let names = store.table_names();
            Ok(ripple_wire::to_wire(&names))
        }
        proto::REQ_GET => {
            let (table, key): (String, RoutedKey) = decode(payload)?;
            let t = store.lookup_table(&table)?;
            Ok(ripple_wire::to_wire(&t.get(&key)?))
        }
        proto::REQ_PUT => {
            let (table, key, value): (String, RoutedKey, Bytes) = decode(payload)?;
            let t = store.lookup_table(&table)?;
            Ok(ripple_wire::to_wire(&t.put(key, value)?))
        }
        proto::REQ_DELETE => {
            let (table, key): (String, RoutedKey) = decode(payload)?;
            let t = store.lookup_table(&table)?;
            Ok(ripple_wire::to_wire(&t.delete(&key)?))
        }
        proto::REQ_LEN => {
            let table: String = decode(payload)?;
            let t = store.lookup_table(&table)?;
            Ok(ripple_wire::to_wire(&(t.len()? as u64)))
        }
        proto::REQ_CLEAR => {
            let table: String = decode(payload)?;
            let t = store.lookup_table(&table)?;
            t.clear()?;
            Ok(Bytes::new())
        }
        proto::REQ_PART_LEN => {
            let (table, part): (String, u32) = decode(payload)?;
            let t = store.lookup_table(&table)?;
            check_part(&t, part)?;
            let name = table.clone();
            let n = store
                .run_at(&t, PartId(part), move |view| view.len(&name))
                .join()??;
            Ok(ripple_wire::to_wire(&(n as u64)))
        }
        proto::REQ_APPLY | proto::REQ_GET_BATCH => part_batch(store, kind, payload),
        proto::REQ_PUT_BATCH | proto::REQ_BIND_COMBINER => batch_unary(store, kind, payload),
        other => Err(KvError::Backend {
            detail: format!("unknown request kind {other:#04x}"),
        }),
    }
}

/// Splits `items` by the part their key routes to, keeping arrival order
/// within each part; parts nothing routes to are left out.
fn group_by_part<T>(
    parts: u32,
    items: Vec<T>,
    key: impl Fn(&T) -> &RoutedKey,
) -> Vec<(PartId, Vec<T>)> {
    let mut groups: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
    for item in items {
        let part = key(&item).part_for(parts);
        groups[part.index()].push(item);
    }
    (0..parts)
        .map(PartId)
        .zip(groups)
        .filter(|(_, group)| !group.is_empty())
        .collect()
}

/// The multi-record arms of [`unary`].  A table handle charges one
/// partition-boundary crossing per *call*, so a batch replayed through it
/// pays one per record; these arms instead dispatch one placed task per
/// touched part and run that part's records against its local view.
fn part_batch<S: KvStore>(store: &S, kind: u8, payload: &[u8]) -> Result<Bytes, KvError> {
    match kind {
        proto::REQ_APPLY => {
            let (table, ops): (String, Vec<(u8, RoutedKey, Bytes)>) = decode(payload)?;
            let t = store.lookup_table(&table)?;
            let count = ops.len() as u64;
            if t.is_ubiquitous() {
                // Part views refuse ubiquitous writes; the handle path is
                // local on every replica, so there is no crossing to save.
                for (op, key, value) in ops {
                    if op == proto::APPLY_PUT {
                        t.put(key, value)?;
                    } else {
                        t.delete(&key)?;
                    }
                }
                return Ok(ripple_wire::to_wire(&count));
            }
            let tasks: Vec<_> = group_by_part(t.part_count(), ops, |(_, key, _)| key)
                .into_iter()
                .map(|(part, group)| {
                    let table = table.clone();
                    store.run_at(&t, part, move |view| -> Result<(), KvError> {
                        for (op, key, value) in group {
                            if op == proto::APPLY_PUT {
                                view.put(&table, key, value)?;
                            } else {
                                view.delete(&table, &key)?;
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            for task in tasks {
                task.join()??;
            }
            Ok(ripple_wire::to_wire(&count))
        }
        proto::REQ_GET_BATCH => {
            let (table, keys): (String, Vec<RoutedKey>) = decode(payload)?;
            let t = store.lookup_table(&table)?;
            let mut values: Vec<Option<Bytes>> = vec![None; keys.len()];
            let indexed: Vec<(usize, RoutedKey)> = keys.into_iter().enumerate().collect();
            let tasks: Vec<_> = group_by_part(t.part_count(), indexed, |(_, key)| key)
                .into_iter()
                .map(|(part, group)| {
                    let table = table.clone();
                    let (slots, keys): (Vec<usize>, Vec<RoutedKey>) = group.into_iter().unzip();
                    let task = store.run_at(&t, part, move |view| view.get_batch(&table, &keys));
                    (slots, task)
                })
                .collect();
            for (slots, task) in tasks {
                for (slot, value) in slots.into_iter().zip(task.join()??) {
                    values[slot] = value;
                }
            }
            Ok(ripple_wire::to_wire(&values))
        }
        other => Err(KvError::Backend {
            detail: format!("request kind {other:#04x} is not a part-batch op"),
        }),
    }
}

/// The batched-message-plane arms of [`unary`]: coalesced batch writes
/// and combiner bindings.
fn batch_unary<S: KvStore>(store: &S, kind: u8, payload: &[u8]) -> Result<Bytes, KvError> {
    match kind {
        proto::REQ_PUT_BATCH => {
            let (table, combiner, pairs): (String, Option<String>, Vec<(RoutedKey, Bytes)>) =
                decode(payload)?;
            let t = store.lookup_table(&table)?;
            if let Some(name) = combiner {
                // The batch names the combiner it was built under; make
                // sure this server folds with the same one.  A name the
                // server's registry does not know is a deployment error
                // surfaced to the client, not silently overwritten data.
                if let Some(registry) = store.combiner_registry() {
                    registry.resolve(&name)?;
                }
                store.bind_combiner(&table, &CombinerSpec::new(name))?;
            }
            let count = pairs.len() as u64;
            t.put_batch(pairs)?;
            Ok(ripple_wire::to_wire(&count))
        }
        proto::REQ_BIND_COMBINER => {
            let (table, name): (String, String) = decode(payload)?;
            if let Some(registry) = store.combiner_registry() {
                registry.resolve(&name)?;
            }
            store.bind_combiner(&table, &CombinerSpec::new(name))?;
            Ok(Bytes::new())
        }
        other => Err(KvError::Backend {
            detail: format!("request kind {other:#04x} is not a batch op"),
        }),
    }
}

fn check_part(t: &impl Table, part: u32) -> Result<(), KvError> {
    if part < t.part_count() {
        Ok(())
    } else {
        Err(KvError::PartOutOfRange {
            part,
            parts: t.part_count(),
        })
    }
}

/// Collects the pairs of one part for a scan stream.
fn enumerate<S: KvStore>(store: &S, payload: &[u8]) -> Result<Vec<(RoutedKey, Bytes)>, KvError> {
    let (table, part): (String, u32) = decode(payload)?;
    let t = store.lookup_table(&table)?;
    check_part(&t, part)?;
    store
        .run_at(&t, PartId(part), move |view| {
            let mut out: Vec<(RoutedKey, Bytes)> = Vec::new();
            view.scan(&table, &mut |k, v| {
                out.push((k.clone(), Bytes::copy_from_slice(v)));
                ScanControl::Continue
            })?;
            Ok(out)
        })
        .join()?
}

/// Sends `pairs` as size-bounded `RESP_CHUNK` frames followed by
/// `RESP_END`.
fn stream_pairs(writer: &Mutex<TcpStream>, id: u64, pairs: &[(RoutedKey, Bytes)]) {
    let mut chunk_start = 0usize;
    let mut chunk_bytes = 0usize;
    for (i, (k, v)) in pairs.iter().enumerate() {
        chunk_bytes += k.body().len() + v.len() + 16;
        if chunk_bytes >= proto::CHUNK_TARGET_BYTES || i + 1 == pairs.len() {
            let chunk = proto::encode_pairs(&pairs[chunk_start..=i]);
            if send(writer, proto::RESP_CHUNK, id, &chunk).is_err() {
                return;
            }
            chunk_start = i + 1;
            chunk_bytes = 0;
        }
    }
    let _ = send(writer, proto::RESP_END, id, &[]);
}

/// Dispatches one registered task and returns its byte result.
/// Dispatches a registered task to its part, where it answers through
/// `reply`, a panic included; a request that fails before dispatch answers
/// here.
fn run_task<S: KvStore>(
    server: &PartServer<S>,
    payload: &[u8],
    reply: impl FnOnce(Result<Bytes, KvError>) + Send + 'static,
) {
    let found = decode(payload).and_then(
        |(reference, part, task, arg): (String, u32, String, Bytes)| {
            let t = server.store.lookup_table(&reference)?;
            check_part(&t, part)?;
            let f = (server.registry.get(&task))
                .or_else(|| server.store.task_registry().and_then(|reg| reg.get(&task)))
                .ok_or(KvError::NoSuchTask { name: task })?;
            Ok((t, part, f, arg))
        },
    );
    let (t, part, f, arg) = match found {
        Ok(found) => found,
        Err(e) => return reply(Err(e)),
    };
    let _ = server.store.run_at(&t, PartId(part), move |view| {
        let result = catch_unwind(AssertUnwindSafe(|| f(view, arg)));
        reply(result.unwrap_or_else(|panic| {
            let message = panic_message(panic.as_ref());
            Err(KvError::TaskPanicked { part, message })
        }));
    });
}
