//! Pooled, pipelined connections to a set of part servers, with
//! client-side failover for replicated part slots.
//!
//! The pool keeps at most one TCP connection per *group member* and
//! multiplexes every request over it: each request gets a fresh id, the
//! response frames are matched back by id on a dedicated reader thread, so
//! many callers (one engine worker per part, typically) share one socket
//! without head-of-line blocking on the request side.
//!
//! Failure model: any I/O error on a connection marks it dead, fails all
//! in-flight requests with [`KvError::Transient`], and drops the socket.
//! The next request to that member reconnects lazily — within a bounded
//! connect timeout, so a black-holed peer cannot hang a worker thread.
//! For replicated slots the reconnect consults the [`Membership`] first: a
//! refused connect (or failed fencing handshake) marks the member down and
//! promotes a standby, so the engine's existing retry policy heals a
//! killed primary exactly the way it heals a severed connection — the
//! error kind is the same one the fault-injection stores produce.
//!
//! Connections to replicated members are **fenced**: opening one performs
//! a [`REQ_HELLO`](crate::proto::REQ_HELLO) handshake announcing the
//! client's group epoch.  A server that has seen a newer epoch refuses the
//! handshake (and any data-plane request on a stale connection) with
//! [`KvError::StaleEpoch`]; the pool observes the newer epoch, discards
//! the connection, and surfaces `Transient` so the retried operation
//! re-handshakes at the current fence.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use ripple_kv::{Counter, KvError, StoreCounters};
use ripple_wire::{from_wire, msg_len, read_msg_from, to_wire, write_msg, MsgFrame};

use crate::dispatch::Dispatch;
use crate::membership::Membership;
use crate::proto::{self, RESP_CHUNK, RESP_ERR, RESP_OK};

/// Default bound on waiting for a response frame before reporting the
/// request as transiently failed.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default bound on establishing a TCP connection to a part server.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

type FrameResult = Result<MsgFrame, KvError>;

/// One live connection: a shared writer, the response-dispatch table, and
/// the socket handle kept for shutdown, tagged with the group member it
/// reaches.
struct Connection {
    writer: Mutex<TcpStream>,
    dispatch: Dispatch<Sender<FrameResult>>,
    stream: TcpStream,
    slot: usize,
    member: usize,
    /// Ensures one dead connection contributes at most one suspicion
    /// strike, however many requests observe its death.
    failure_recorded: AtomicBool,
}

impl Connection {
    /// Marks the connection dead and fails every in-flight request.  The
    /// dispatch table's kill is atomic with its death mark, so a request
    /// racing this call either gets drained here or is refused at
    /// registration — it can never be stranded waiting for a response.
    fn fail_all(&self, detail: &str) {
        for (_, tx) in self.dispatch.kill() {
            let _ = tx.send(Err(KvError::Transient {
                op: "recv",
                part: 0,
                detail: detail.to_owned(),
            }));
        }
    }

    /// Records this connection's death as failure evidence against its
    /// member, exactly once per connection.
    fn report_failure(&self, membership: &Membership) {
        if !self.failure_recorded.swap(true, Ordering::SeqCst) {
            membership.record_failure(self.slot, self.member);
        }
    }
}

/// A handle on one in-flight request's response stream.
pub struct Pending {
    rx: Receiver<FrameResult>,
    started: Instant,
    deadline: Duration,
    conn: Arc<Connection>,
    membership: Arc<Membership>,
    metrics: Arc<StoreCounters>,
    /// Frame bytes the request put on the wire, so a transiently failed
    /// request can attribute its wasted send to `retry_bytes` (the retry
    /// re-sends an equivalent frame).
    req_bytes: u64,
    /// Whether stale-epoch refusals should be absorbed (epoch observed,
    /// connection recycled, `Transient` surfaced).  False only for the
    /// handshake itself, which handles the refusal directly.
    fenced: bool,
}

impl Pending {
    /// Waits for the next response frame, bounded by the pool's response
    /// deadline.
    ///
    /// # Errors
    ///
    /// [`KvError::Transient`] on timeout or connection loss; the decoded
    /// remote error if the server answered with `RESP_ERR`.
    pub fn recv(&self) -> Result<MsgFrame, KvError> {
        let frame = match self.rx.recv_timeout(self.deadline) {
            Ok(Ok(frame)) => frame,
            Ok(Err(e)) => {
                // The connection died under this request; its send was
                // wasted and the engine's retry re-sends an equivalent
                // frame, so attribute the bytes to retry traffic.
                self.metrics.add(None, Counter::RetryBytes, self.req_bytes);
                return Err(e);
            }
            Err(_) => {
                // A silent peer within the deadline: recycle the
                // connection (its responses can no longer be trusted to
                // arrive) and count the evidence against the member.
                let _ = self.conn.stream.shutdown(Shutdown::Both);
                self.conn.fail_all("response deadline exceeded");
                self.conn.report_failure(&self.membership);
                self.metrics.add(None, Counter::RetryBytes, self.req_bytes);
                return Err(KvError::Transient {
                    op: "recv",
                    part: 0,
                    detail: format!("no part-server response within {:?}", self.deadline),
                });
            }
        };
        if frame.kind == RESP_ERR {
            self.metrics.observe_latency(self.started);
            let err = proto::decode_err(&frame.payload);
            if self.fenced {
                if let KvError::StaleEpoch { seen, current } = err {
                    // Someone fenced the group past us.  Adopt the newer
                    // epoch, retire this stale connection, and let the
                    // retried operation re-handshake at the current fence.
                    self.membership.observe_epoch(self.conn.slot, current);
                    self.metrics.add(None, Counter::Retries, 1);
                    self.metrics.add(None, Counter::RetryBytes, self.req_bytes);
                    let _ = self.conn.stream.shutdown(Shutdown::Both);
                    self.conn.fail_all("stale-epoch connection retired");
                    return Err(KvError::Transient {
                        op: "recv",
                        part: 0,
                        detail: format!(
                            "request fenced out (epoch {seen} < {current}); retry re-handshakes"
                        ),
                    });
                }
            }
            return Err(err);
        }
        if frame.kind != RESP_CHUNK {
            // RESP_OK / RESP_END terminate the request.
            self.metrics.observe_latency(self.started);
            self.membership
                .record_success(self.conn.slot, self.conn.member);
        }
        Ok(frame)
    }
}

/// Connection pool over the replica groups of a part-server cluster.
pub struct Pool {
    membership: Arc<Membership>,
    /// `conns[slot][member]` — one lazily opened connection per group
    /// member.
    conns: Vec<Vec<Mutex<Option<Arc<Connection>>>>>,
    /// Whether `(slot, member)` has ever connected, for the reconnect
    /// counter.
    ever_connected: Vec<Vec<AtomicBool>>,
    next_id: AtomicU64,
    metrics: Arc<StoreCounters>,
    connect_timeout: Duration,
    /// Response deadline in microseconds; mutable at runtime via
    /// [`Pool::set_deadline`].
    deadline_us: AtomicU64,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("membership", &self.membership)
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// Creates a pool over `membership`'s groups; connections are opened
    /// lazily.
    pub fn new(
        membership: Arc<Membership>,
        metrics: Arc<StoreCounters>,
        connect_timeout: Duration,
        response_timeout: Duration,
    ) -> Self {
        let conns = (0..membership.slots())
            .map(|slot| {
                (0..membership.group_size(slot))
                    .map(|_| Mutex::new(None))
                    .collect()
            })
            .collect();
        let ever_connected = (0..membership.slots())
            .map(|slot| {
                (0..membership.group_size(slot))
                    .map(|_| AtomicBool::new(false))
                    .collect()
            })
            .collect();
        Self {
            membership,
            conns,
            ever_connected,
            next_id: AtomicU64::new(1),
            metrics,
            connect_timeout,
            deadline_us: AtomicU64::new(duration_us(response_timeout)),
        }
    }

    /// Number of part slots this pool speaks to.
    pub fn servers(&self) -> usize {
        self.membership.slots()
    }

    /// The shared membership view.
    pub fn membership(&self) -> &Arc<Membership> {
        &self.membership
    }

    /// Bounds how long [`Pending::recv`] waits for a response; `None`
    /// restores the default ([`RESPONSE_TIMEOUT`]).
    pub fn set_deadline(&self, deadline: Option<Duration>) {
        self.deadline_us.store(
            duration_us(deadline.unwrap_or(RESPONSE_TIMEOUT)),
            Ordering::Relaxed,
        );
    }

    fn deadline(&self) -> Duration {
        Duration::from_micros(self.deadline_us.load(Ordering::Relaxed))
    }

    /// Sends one request frame to the current primary of `slot` and
    /// returns a handle for its response stream, failing over to a standby
    /// if the primary cannot be reached.
    ///
    /// # Errors
    ///
    /// [`KvError::Transient`] if connecting or writing fails on every
    /// reachable member.
    pub fn request(&self, slot: usize, kind: u8, payload: &[u8]) -> Result<Pending, KvError> {
        let conn = self.connection(slot)?;
        self.start_request(&conn, kind, payload, true)
    }

    /// Like [`Pool::request`], addressed to a specific group member
    /// (replicated writes reach standbys through this).
    ///
    /// # Errors
    ///
    /// [`KvError::Transient`] if connecting or writing fails.
    pub fn request_member(
        &self,
        slot: usize,
        member: usize,
        kind: u8,
        payload: &[u8],
    ) -> Result<Pending, KvError> {
        let conn = self.member_connection(slot, member)?;
        self.start_request(&conn, kind, payload, true)
    }

    /// Sends a request to `slot`'s primary and waits for its single
    /// `RESP_OK` payload.
    ///
    /// # Errors
    ///
    /// [`KvError::Transient`] on connection trouble or timeout, or the
    /// decoded remote error.
    pub fn unary(&self, slot: usize, kind: u8, payload: &[u8]) -> Result<Bytes, KvError> {
        let pending = self.request(slot, kind, payload)?;
        let frame = pending.recv()?;
        debug_assert_eq!(frame.kind, RESP_OK);
        Ok(frame.payload)
    }

    /// Sends a request to a specific member of `slot` and waits for its
    /// single `RESP_OK` payload.
    ///
    /// # Errors
    ///
    /// [`KvError::Transient`] on connection trouble or timeout, or the
    /// decoded remote error.
    pub fn unary_member(
        &self,
        slot: usize,
        member: usize,
        kind: u8,
        payload: &[u8],
    ) -> Result<Bytes, KvError> {
        let pending = self.request_member(slot, member, kind, payload)?;
        let frame = pending.recv()?;
        debug_assert_eq!(frame.kind, RESP_OK);
        Ok(frame.payload)
    }

    /// Severs every open connection at the socket level.  In-flight and
    /// subsequent requests observe [`KvError::Transient`]; later requests
    /// reconnect.  Exists for fault-injection tests.
    pub fn sever(&self) {
        for group in &self.conns {
            for member in group {
                let conn = member.lock().unwrap_or_else(PoisonError::into_inner).take();
                if let Some(conn) = conn {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    conn.fail_all("connection severed");
                }
            }
        }
    }

    fn start_request(
        &self,
        conn: &Arc<Connection>,
        kind: u8,
        payload: &[u8],
        fenced: bool,
    ) -> Result<Pending, KvError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded();
        if !conn.dispatch.register(id, tx) {
            // The reader thread declared the connection dead between our
            // lookup and this registration; fail fast instead of waiting a
            // full response deadline for a reply that cannot arrive.
            return Err(KvError::Transient {
                op: "send",
                part: 0,
                detail: "connection lost before send".to_owned(),
            });
        }
        #[expect(clippy::disallowed_methods, reason = "times RPCs for the histogram")]
        let started = Instant::now();

        let mut buf = Vec::with_capacity(msg_len(payload.len()));
        write_msg(&mut buf, kind, id, payload);
        let write_result = {
            let mut writer = conn.writer.lock().unwrap_or_else(PoisonError::into_inner);
            writer.write_all(&buf)
        };
        if let Err(e) = write_result {
            conn.dispatch.take(id);
            conn.fail_all(&format!("write failed: {e}"));
            conn.report_failure(&self.membership);
            return Err(KvError::Transient {
                op: "send",
                part: 0,
                detail: format!("writing to part server: {e}"),
            });
        }
        self.metrics.add(None, Counter::Rpcs, 1);
        self.metrics
            .add(None, Counter::NetBytesOut, buf.len() as u64);
        Ok(Pending {
            rx,
            started,
            deadline: self.deadline(),
            conn: Arc::clone(conn),
            membership: Arc::clone(&self.membership),
            metrics: Arc::clone(&self.metrics),
            req_bytes: buf.len() as u64,
            fenced,
        })
    }

    /// A live connection to the current primary of `slot`, failing over
    /// through the membership until a member accepts (or none is left).
    fn connection(&self, slot: usize) -> Result<Arc<Connection>, KvError> {
        // Each failed attempt either promotes (new primary next round) or
        // proves the group lost; the bound is defensive.
        let attempts = self.membership.group_size(slot) + 1;
        let mut last_err = None;
        for _ in 0..attempts {
            let (member, _, _) = self.membership.primary(slot);
            match self.member_connection(slot, member) {
                Ok(conn) => return Ok(conn),
                Err(e) => {
                    last_err = Some(e);
                    // Hard evidence: a *fresh* connection could not be
                    // established (or fenced).  Mark the member down and
                    // promote; if the primary is unchanged, nobody is left
                    // to fail over to.
                    self.membership.member_unreachable(slot, member);
                    if self.membership.primary(slot).0 == member {
                        break;
                    }
                }
            }
        }
        Err(last_err.unwrap_or(KvError::Transient {
            op: "connect",
            part: 0,
            detail: "no reachable member".to_owned(),
        }))
    }

    /// A live connection to member `member` of `slot`, opening (and for
    /// replicated groups, handshaking) one if needed.
    fn member_connection(&self, slot: usize, member: usize) -> Result<Arc<Connection>, KvError> {
        let mut cell = self.conns[slot][member]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(conn) = cell.as_ref() {
            if !conn.dispatch.is_dead() {
                return Ok(Arc::clone(conn));
            }
            let _ = conn.stream.shutdown(Shutdown::Both);
            *cell = None;
        }
        let addr = self.membership.member_addr(slot, member);
        let stream = TcpStream::connect_timeout(&addr, self.connect_timeout).map_err(|e| {
            KvError::Transient {
                op: "connect",
                part: 0,
                detail: format!("connecting to {addr}: {e}"),
            }
        })?;
        let reconnected = self.ever_connected[slot][member].swap(true, Ordering::Relaxed);
        if reconnected {
            self.metrics.add(None, Counter::Reconnects, 1);
        }
        let _ = stream.set_nodelay(true);
        let clone_err = |e: std::io::Error| KvError::Transient {
            op: "connect",
            part: 0,
            detail: format!("cloning stream to {addr}: {e}"),
        };
        let reader = stream.try_clone().map_err(clone_err)?;
        let conn = Arc::new(Connection {
            writer: Mutex::new(stream.try_clone().map_err(clone_err)?),
            dispatch: Dispatch::new(),
            stream,
            slot,
            member,
            failure_recorded: AtomicBool::new(false),
        });
        spawn_reader(
            Arc::clone(&conn),
            reader,
            Arc::clone(&self.metrics),
            Arc::clone(&self.membership),
        );
        if self.membership.replicated(slot) {
            self.handshake(&conn, reconnected)?;
        }
        *cell = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// Announces the client's group epoch on a fresh connection to a
    /// replicated member.  A stale-epoch refusal adopts the server's
    /// newer epoch and redoes the handshake once.
    ///
    /// Handshake frames on a *re*-connected (or redone) handshake are
    /// heal traffic, attributed to `retry_bytes`.
    fn handshake(&self, conn: &Arc<Connection>, reconnect: bool) -> Result<(), KvError> {
        for redo in 0..2 {
            let epoch = self.membership.epoch(conn.slot);
            let pending = self.start_request(conn, proto::REQ_HELLO, &to_wire(&epoch), false)?;
            if reconnect || redo > 0 {
                self.metrics
                    .add(None, Counter::RetryBytes, pending.req_bytes);
            }
            match pending.recv() {
                Ok(frame) => {
                    let current: u64 = from_wire(&frame.payload).unwrap_or(epoch);
                    self.membership.observe_epoch(conn.slot, current);
                    return Ok(());
                }
                Err(KvError::StaleEpoch { current, .. }) if redo == 0 => {
                    self.membership.observe_epoch(conn.slot, current);
                    self.metrics.add(None, Counter::Retries, 1);
                }
                Err(e) => {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    conn.fail_all("handshake failed");
                    return Err(e);
                }
            }
        }
        unreachable!("handshake loop returns within two iterations")
    }
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Reader thread: decodes response frames and routes them to the pending
/// request they answer.  Terminal frames (`RESP_OK`, `RESP_ERR`,
/// `RESP_END`) retire the pending entry; `RESP_CHUNK` keeps it open for
/// the rest of the stream.  Connection death fails everything in flight
/// and counts one suspicion strike against the member.
fn spawn_reader(
    conn: Arc<Connection>,
    mut stream: TcpStream,
    metrics: Arc<StoreCounters>,
    membership: Arc<Membership>,
) {
    std::thread::Builder::new()
        .name("net-store-reader".to_owned())
        .spawn(move || loop {
            let frame = match read_msg_from(&mut stream) {
                Ok(frame) => frame,
                Err(e) => {
                    conn.fail_all(&format!("connection lost: {e}"));
                    conn.report_failure(&membership);
                    return;
                }
            };
            metrics.add(
                None,
                Counter::NetBytesIn,
                msg_len(frame.payload.len()) as u64,
            );
            let id = frame.id;
            if frame.kind == RESP_CHUNK {
                let abandoned = conn.dispatch.with(id, |tx| tx.send(Ok(frame)).is_err());
                if abandoned == Some(true) {
                    // Receiver abandoned the stream; stop routing to it.
                    conn.dispatch.take(id);
                }
            } else {
                // Terminal frame: retire the pending entry.  A duplicated
                // terminal frame (chaos) finds nothing and is dropped.
                if let Some(tx) = conn.dispatch.take(id) {
                    let _ = tx.send(Ok(frame));
                }
            }
        })
        .expect("spawn reader thread");
}
