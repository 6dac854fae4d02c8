//! [`ChaosProxy`]: a deterministic, frame-aware TCP fault interposer —
//! the network-level twin of store-mem's `FaultPlan`.
//!
//! The proxy sits between a [`NetStore`](crate::NetStore) client and a
//! part server, parses the wire protocol's message frames, and injects
//! faults according to a seeded [`NetFaultPlan`]: sever the connection,
//! delay a frame, duplicate it, truncate it mid-frame, corrupt its CRC,
//! or black-hole it entirely while the connection stays up.
//!
//! # Determinism
//!
//! Every injection decision is a pure function of `(plan seed, rule
//! index, connection id, direction, frame index)` — no wall clock, no
//! thread scheduling, no global RNG.  Connection ids are assigned in
//! accept order and frame indices are counted per `(connection,
//! direction)`, so the same plan against the same client traffic yields
//! the same recorded [fault trace](ChaosProxy::trace) every run.  A
//! failing chaos test therefore only needs to print its seed to be
//! replayable.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use ripple_wire::{msg_len, read_msg_from, write_msg};

/// Which way a frame is travelling through the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Direction {
    /// Client → part server (requests).
    ToServer,
    /// Part server → client (responses).
    ToClient,
}

impl Direction {
    fn index(self) -> u64 {
        match self {
            Direction::ToServer => 0,
            Direction::ToClient => 1,
        }
    }
}

/// One kind of injectable network fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Shut the connection down in both directions.
    Sever,
    /// Hold the frame for the given duration, then forward it.
    Delay(Duration),
    /// Forward the frame twice.
    Duplicate,
    /// Forward only the first half of the frame's bytes, then sever.
    Truncate,
    /// Flip a bit in the frame's CRC so the receiver sees a corrupt
    /// frame.
    Corrupt,
    /// Drop the frame silently; the connection stays up.
    Blackhole,
}

/// One injection rule: a fault, its per-frame probability in parts per
/// million, and optional scoping to a request kind and/or direction.
#[derive(Debug, Clone, Copy)]
struct Rule {
    fault: NetFault,
    ppm: u32,
    kind: Option<u8>,
    dir: Option<Direction>,
}

/// A frame probability: parts per million, so `PPM_ALWAYS` fires on every
/// frame and `1_000` is one frame in a thousand.  Integer ppm keeps the
/// plan free of float rounding, which matters for replayability.
pub const PPM_ALWAYS: u32 = 1_000_000;

/// A seeded set of fault rules for a [`ChaosProxy`].
///
/// Rules are evaluated in insertion order per frame; the first rule that
/// matches the frame's kind/direction scope *and* wins its seeded roll
/// fires (at most one fault per frame).
#[derive(Debug, Clone)]
pub struct NetFaultPlan {
    seed: u64,
    rules: Vec<Rule>,
}

impl NetFaultPlan {
    /// An empty plan rolling with `seed`; a proxy with no rules forwards
    /// everything untouched.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// The plan's seed (print this from failing tests so the run can be
    /// replayed).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn rule(mut self, fault: NetFault, ppm: u32) -> Self {
        self.rules.push(Rule {
            fault,
            ppm: ppm.min(PPM_ALWAYS),
            kind: None,
            dir: None,
        });
        self
    }

    /// Adds a rule severing the connection with probability `ppm` (parts
    /// per million) per frame.
    #[must_use]
    pub fn sever(self, ppm: u32) -> Self {
        self.rule(NetFault::Sever, ppm)
    }

    /// Adds a rule delaying frames by `delay` with probability `ppm`.
    #[must_use]
    pub fn delay(self, ppm: u32, delay: Duration) -> Self {
        self.rule(NetFault::Delay(delay), ppm)
    }

    /// Adds a rule duplicating frames with probability `ppm`.
    #[must_use]
    pub fn duplicate(self, ppm: u32) -> Self {
        self.rule(NetFault::Duplicate, ppm)
    }

    /// Adds a rule truncating frames (half the bytes, then sever) with
    /// probability `ppm`.
    #[must_use]
    pub fn truncate(self, ppm: u32) -> Self {
        self.rule(NetFault::Truncate, ppm)
    }

    /// Adds a rule corrupting frame CRCs with probability `ppm`.
    #[must_use]
    pub fn corrupt(self, ppm: u32) -> Self {
        self.rule(NetFault::Corrupt, ppm)
    }

    /// Adds a rule black-holing frames (dropped, connection stays up)
    /// with probability `ppm`.
    #[must_use]
    pub fn blackhole(self, ppm: u32) -> Self {
        self.rule(NetFault::Blackhole, ppm)
    }

    /// Scopes the most recently added rule to frames of `kind` (a
    /// `proto::REQ_*`/`RESP_*` constant).
    ///
    /// # Panics
    ///
    /// Panics if no rule has been added yet.
    #[must_use]
    pub fn on_kind(mut self, kind: u8) -> Self {
        self.rules
            .last_mut()
            .expect("on_kind needs a preceding rule")
            .kind = Some(kind);
        self
    }

    /// Scopes the most recently added rule to frames travelling `dir`.
    ///
    /// # Panics
    ///
    /// Panics if no rule has been added yet.
    #[must_use]
    pub fn on_direction(mut self, dir: Direction) -> Self {
        self.rules
            .last_mut()
            .expect("on_direction needs a preceding rule")
            .dir = Some(dir);
        self
    }

    /// The fault (and its rule's fault value) to inject for a frame, if
    /// any: the first matching rule whose seeded roll fires.
    fn decide(&self, conn: u64, dir: Direction, frame: u64, kind: u8) -> Option<NetFault> {
        for (idx, rule) in self.rules.iter().enumerate() {
            if rule.kind.is_some_and(|k| k != kind) {
                continue;
            }
            if rule.dir.is_some_and(|d| d != dir) {
                continue;
            }
            let roll = splitmix64(
                self.seed
                    ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ conn.wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    ^ dir.index().wrapping_mul(0x94D0_49BB_1331_11EB)
                    ^ frame.wrapping_mul(0xD6E8_FEB8_6659_FD93),
            ) % 1_000_000;
            if roll < u64::from(rule.ppm) {
                return Some(rule.fault);
            }
        }
        None
    }
}

/// `SplitMix64`: a tiny, high-quality mixing function — decisions derive
/// from it so the plan needs no stateful RNG.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One injected fault, as recorded in the proxy's replayable trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultRecord {
    /// Connection id, in accept order.
    pub conn: u64,
    /// Which way the frame was travelling.
    pub dir: Direction,
    /// Frame index within `(conn, dir)`.
    pub frame: u64,
    /// The frame's kind byte.
    pub kind: u8,
    /// The fault that fired.
    pub fault: NetFault,
}

#[derive(Debug, Default)]
struct Trace {
    records: Mutex<Vec<NetFaultRecord>>,
}

impl Trace {
    fn record(&self, r: NetFaultRecord) {
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(r);
    }

    fn sorted(&self) -> Vec<NetFaultRecord> {
        let mut v = self
            .records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        v.sort_by_key(|r| (r.conn, r.dir, r.frame));
        v
    }
}

/// A running chaos proxy: connect a [`NetStore`](crate::NetStore) to
/// [`ChaosProxy::addr`] instead of the real server and every frame passes
/// through the plan.  Stops accepting on drop; established pumps close
/// when either endpoint does.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    seed: u64,
    trace: Arc<Trace>,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Spawns a proxy on an ephemeral loopback port forwarding to
    /// `upstream` under `plan`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the proxy listener.
    pub fn spawn(upstream: SocketAddr, plan: NetFaultPlan) -> io::Result<Self> {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        let seed = plan.seed();
        let trace = Arc::new(Trace::default());
        let stop = Arc::new(AtomicBool::new(false));
        let accept_trace = Arc::clone(&trace);
        let accept_stop = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name(format!("chaos-proxy-{addr}"))
            .spawn(move || {
                accept_loop(&listener, upstream, &plan, &accept_trace, &accept_stop);
            })?;
        Ok(Self {
            addr,
            seed,
            trace,
            stop,
            join: Some(join),
        })
    }

    /// The address to connect the client to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The plan's seed, for replay messages.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The faults injected so far, sorted by `(conn, direction, frame)` —
    /// two runs of the same plan against the same traffic produce equal
    /// traces.
    #[must_use]
    pub fn trace(&self) -> Vec<NetFaultRecord> {
        self.trace.sorted()
    }

    /// Stops accepting and joins the accept thread.  Established pump
    /// threads die when either side closes.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept thread so it observes the flag; the listener
        // runs in blocking mode rather than sleep-polling.
        crate::server::wake_listener(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: &NetFaultPlan,
    trace: &Arc<Trace>,
    stop: &AtomicBool,
) {
    let mut next_conn = 0u64;
    // Blocking accepts; `ChaosProxy::stop` raises the flag and then pokes
    // the listener with a throwaway connection (`wake_listener`), so the
    // loop re-checks the flag on every accept instead of sleep-polling.
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                if stop.load(Ordering::SeqCst) {
                    // The shutdown wakeup (or a client racing it).
                    let _ = client.shutdown(Shutdown::Both);
                    return;
                }
                let conn = next_conn;
                next_conn += 1;
                let _ = client.set_nodelay(true);
                let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(5))
                else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                let _ = server.set_nodelay(true);
                spawn_pump(conn, Direction::ToServer, &client, &server, plan, trace);
                spawn_pump(conn, Direction::ToClient, &server, &client, plan, trace);
            }
            // Transient accept failures (EMFILE, ECONNABORTED): yield and
            // retry rather than wedging the proxy on one bad accept.
            Err(_) => std::thread::yield_now(),
        }
    }
}

/// Spawns one direction's frame pump: parse a frame from `src`, consult
/// the plan, re-emit (or mangle) it into `dst`.
fn spawn_pump(
    conn: u64,
    dir: Direction,
    src: &TcpStream,
    dst: &TcpStream,
    plan: &NetFaultPlan,
    trace: &Arc<Trace>,
) {
    let (Ok(mut src), Ok(mut dst)) = (src.try_clone(), dst.try_clone()) else {
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
        return;
    };
    let plan = plan.clone();
    let trace = Arc::clone(trace);
    let _ = std::thread::Builder::new()
        .name(format!("chaos-pump-c{conn}"))
        .spawn(move || {
            let mut frame_idx = 0u64;
            loop {
                let Ok(frame) = read_msg_from(&mut src) else {
                    // Source gone: mirror the close downstream.
                    let _ = dst.shutdown(Shutdown::Both);
                    return;
                };
                let idx = frame_idx;
                frame_idx += 1;
                let mut buf = Vec::with_capacity(msg_len(frame.payload.len()));
                write_msg(&mut buf, frame.kind, frame.id, &frame.payload);
                let fault = plan.decide(conn, dir, idx, frame.kind);
                if let Some(fault) = fault {
                    trace.record(NetFaultRecord {
                        conn,
                        dir,
                        frame: idx,
                        kind: frame.kind,
                        fault,
                    });
                }
                match fault {
                    None => {
                        if dst.write_all(&buf).is_err() {
                            let _ = src.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                    Some(NetFault::Sever) => {
                        let _ = src.shutdown(Shutdown::Both);
                        let _ = dst.shutdown(Shutdown::Both);
                        return;
                    }
                    Some(NetFault::Delay(d)) => {
                        #[expect(clippy::disallowed_methods, reason = "NetFault::Delay by design")]
                        std::thread::sleep(d);
                        if dst.write_all(&buf).is_err() {
                            let _ = src.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                    Some(NetFault::Duplicate) => {
                        if dst.write_all(&buf).is_err() || dst.write_all(&buf).is_err() {
                            let _ = src.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                    Some(NetFault::Truncate) => {
                        let _ = dst.write_all(&buf[..buf.len() / 2]);
                        let _ = src.shutdown(Shutdown::Both);
                        let _ = dst.shutdown(Shutdown::Both);
                        return;
                    }
                    Some(NetFault::Corrupt) => {
                        // The CRC is the frame's final four bytes; one
                        // flipped bit guarantees a checksum mismatch at
                        // the receiver without touching the length
                        // prefix.
                        let last = buf.len() - 1;
                        buf[last] ^= 0x01;
                        if dst.write_all(&buf).is_err() {
                            let _ = src.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                    Some(NetFault::Blackhole) => {}
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let plan = NetFaultPlan::seeded(0x00C0_FFEE)
            .sever(50_000)
            .corrupt(50_000);
        for conn in 0..4 {
            for frame in 0..200 {
                let a = plan.decide(conn, Direction::ToServer, frame, 0x10);
                let b = plan.decide(conn, Direction::ToServer, frame, 0x10);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn different_seeds_give_different_fault_patterns() {
        let a = NetFaultPlan::seeded(1).sever(100_000);
        let b = NetFaultPlan::seeded(2).sever(100_000);
        let hits = |p: &NetFaultPlan| {
            (0..1000)
                .filter(|&f| p.decide(0, Direction::ToServer, f, 0x10).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(hits(&a), hits(&b));
    }

    #[test]
    fn probability_one_always_fires_and_zero_never_does() {
        let always = NetFaultPlan::seeded(7).blackhole(PPM_ALWAYS);
        let never = NetFaultPlan::seeded(7).blackhole(0);
        for f in 0..100 {
            assert_eq!(
                always.decide(0, Direction::ToClient, f, 0x80),
                Some(NetFault::Blackhole)
            );
            assert_eq!(never.decide(0, Direction::ToClient, f, 0x80), None);
        }
    }

    #[test]
    fn kind_and_direction_scopes_filter_rules() {
        let plan = NetFaultPlan::seeded(3)
            .sever(PPM_ALWAYS)
            .on_kind(0x11)
            .on_direction(Direction::ToServer);
        assert_eq!(
            plan.decide(0, Direction::ToServer, 0, 0x11),
            Some(NetFault::Sever)
        );
        assert_eq!(plan.decide(0, Direction::ToServer, 0, 0x10), None);
        assert_eq!(plan.decide(0, Direction::ToClient, 0, 0x11), None);
    }
}
