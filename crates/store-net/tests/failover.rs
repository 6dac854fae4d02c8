//! Replicated part servers, end to end: primary promotion on crash, epoch
//! fencing against deposed primaries (zombie defence), heartbeat-driven
//! failure detection, and the drain semantics of a planned stop.

#![expect(clippy::disallowed_methods, reason = "failover runs on real time")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ripple_kv::{KvStore, PartId, RoutedKey, StoreEventSink, Table, TableSpec, TaskRegistry};
use ripple_store_net::{LoopbackCluster, NetConfig};

fn key(s: &str) -> RoutedKey {
    RoutedKey::from_body(Bytes::copy_from_slice(s.as_bytes()))
}

/// Retries `op` through transient faults, the way the engines' retry
/// policy would.
fn with_retry<T>(mut op: impl FnMut() -> Result<T, ripple_kv::KvError>) -> T {
    let mut last = None;
    for _ in 0..10 {
        match op() {
            Ok(v) => return v,
            Err(e) if e.is_transient() => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("non-transient failure: {e}"),
        }
    }
    panic!("still failing after retries: {}", last.unwrap());
}

/// Counts failure-detector events, standing in for a run observer.
#[derive(Default)]
struct Events {
    part_down: AtomicU64,
    failover: AtomicU64,
}

impl StoreEventSink for Events {
    fn on_part_down(&self, _part: u32, _epoch: u64) {
        self.part_down.fetch_add(1, Ordering::SeqCst);
    }
    fn on_failover(&self, _part: u32, _epoch: u64) {
        self.failover.fetch_add(1, Ordering::SeqCst);
    }
}

/// Killing the primary mid-workload promotes the standby: writes made
/// before the crash are readable after it (synchronous replication), new
/// writes land on the promoted replica, and the event sink plus failover
/// counter both record the promotion.
#[test]
fn aborted_primary_fails_over_to_standby() {
    let cluster = LoopbackCluster::spawn_replicated(1, 2, 2, &NetConfig::default());
    let store = &cluster.store;
    let events = Arc::new(Events::default());
    store.set_event_sink(Arc::clone(&events) as Arc<dyn StoreEventSink>);

    let t = store.create_table(TableSpec::new("t").parts(2)).unwrap();
    t.put(key("before"), Bytes::from_static(b"1")).unwrap();
    assert_eq!(store.membership().group_for_part(0).epoch, 1);

    // Crash the primary (replica 0 of the only group) mid-flight.
    cluster.handles[0].abort();

    // The next operations fail transiently at most a few times, then the
    // client promotes the standby and carries on.
    let v = with_retry(|| t.get(&key("before")));
    assert_eq!(v, Some(Bytes::from_static(b"1")), "replicated write lost");
    with_retry(|| t.put(key("after"), Bytes::from_static(b"2")));
    assert_eq!(
        with_retry(|| t.get(&key("after"))),
        Some(Bytes::from_static(b"2"))
    );

    let view = store.membership();
    let group = view.group_for_part(0);
    assert_eq!(group.epoch, 2, "promotion advances the fencing epoch");
    assert_eq!(group.primary, 1, "standby became primary");
    assert!(group.down[0], "crashed member marked down");
    assert!(store.metrics().failovers >= 1, "failover counter missing");
    assert!(events.failover.load(Ordering::SeqCst) >= 1);
    assert!(events.part_down.load(Ordering::SeqCst) >= 1);
}

/// The zombie defence: once any client handshakes at a newer epoch, a
/// client still fenced at the old epoch gets refused (surfacing as a
/// transient fault), observes the newer epoch, and heals by
/// re-handshaking — stale writes never land.
#[test]
fn stale_epoch_clients_are_fenced_then_heal() {
    let cluster = LoopbackCluster::spawn_replicated(1, 2, 2, &NetConfig::default());
    let fresh = &cluster.store;
    // A second, independent client of the same replica group, with its
    // own membership view still at epoch 1.
    let stale = ripple_store_net::NetStore::connect_replicated(vec![vec![
        cluster.handles[0].addr(),
        cluster.handles[1].addr(),
    ]]);
    let t = fresh.create_table(TableSpec::new("t").parts(2)).unwrap();
    let t_stale = stale.lookup_table("t").unwrap();

    // Establish a fenced connection for the stale client at epoch 1.
    t_stale.put(key("a"), Bytes::from_static(b"1")).unwrap();

    // The fresh client moves the group to epoch 2 and handshakes at it,
    // raising the server-side watermark.
    let new_epoch = fresh.advance_epoch(0);
    assert_eq!(new_epoch, 2);
    t.put(key("b"), Bytes::from_static(b"2")).unwrap();

    // The stale client's fenced connection is refused; the refusal is
    // transient (it kills the connection), and the retry re-handshakes at
    // the observed epoch and succeeds.
    let err = t_stale
        .put(key("c"), Bytes::from_static(b"3"))
        .expect_err("stale-epoch write must be refused");
    assert!(
        err.is_transient(),
        "fencing should surface transiently: {err}"
    );
    with_retry(|| t_stale.put(key("c"), Bytes::from_static(b"3")));
    assert_eq!(stale.membership().group_for_part(0).epoch, 2);
    assert!(stale.metrics().retries >= 1, "fence retry not counted");
}

/// The heartbeat failure detector notices a dead primary without any
/// foreground traffic: after the grace period the group promotes on its
/// own, so the next operation goes straight to the standby.
#[test]
fn heartbeat_detects_dead_primary_without_traffic() {
    let config = NetConfig {
        heartbeat_interval: Some(Duration::from_millis(20)),
        heartbeat_grace: 3,
        ..NetConfig::default()
    };
    let cluster = LoopbackCluster::spawn_replicated(1, 2, 2, &config);
    let store = &cluster.store;
    let t = store.create_table(TableSpec::new("t").parts(2)).unwrap();
    t.put(key("a"), Bytes::from_static(b"1")).unwrap();

    cluster.handles[0].abort();

    // No foreground requests: only the heartbeat thread can notice.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while store.membership().group_for_part(0).epoch < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "heartbeat never promoted the standby"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(store.metrics().failovers >= 1);
    assert_eq!(
        with_retry(|| t.get(&key("a"))),
        Some(Bytes::from_static(b"1"))
    );
}

/// A planned stop drains in-flight requests before severing: a slow task
/// dispatched before `stop_with_grace` still gets its response, unlike
/// the aborted-server case where it surfaces transiently.
#[test]
fn graceful_stop_drains_inflight_requests() {
    let registry = TaskRegistry::default();
    registry.register("slow-echo", |_view, arg: Bytes| {
        std::thread::sleep(Duration::from_millis(300));
        Ok(arg)
    });
    let mut cluster = LoopbackCluster::spawn_with_registry(1, 2, &registry);
    let t = cluster
        .store
        .create_table(TableSpec::new("t").parts(2))
        .unwrap();

    let handle =
        cluster
            .store
            .run_named_at(&t, PartId(0), "slow-echo", Bytes::from_static(b"ping"));
    // Let the request reach the server before stopping.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(cluster.handles[0].inflight(), 1);
    cluster.handles[0].stop_with_grace(Duration::from_secs(5));
    let echoed = handle.join().unwrap().expect("drained request answered");
    assert_eq!(echoed, Bytes::from_static(b"ping"));
}
