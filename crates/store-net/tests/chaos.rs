//! The deterministic network chaos layer, end to end: the same seed
//! produces the same injected-fault trace twice, injected faults surface
//! as bounded [`KvError::Transient`] (never hangs, never poisoned
//! connections), and the pool heals by reconnecting on the next attempt.

#![expect(clippy::disallowed_methods, reason = "reads must fail in time")]

use std::time::{Duration, Instant};

use bytes::Bytes;
use ripple_kv::{KvError, KvStore, RoutedKey, Table, TableSpec};
use ripple_store_net::{ChaosCluster, NetConfig, NetFaultPlan, PPM_ALWAYS};

fn key(s: &str) -> RoutedKey {
    RoutedKey::from_body(Bytes::copy_from_slice(s.as_bytes()))
}

/// Runs a fixed, fully sequential workload through a chaos cluster and
/// returns the fault trace.
fn traced_run(seed: u64) -> Vec<ripple_store_net::NetFaultRecord> {
    // Delay-only plan: faults fire (and are recorded) without changing
    // which frames exist, so the frame sequence is identical run to run.
    let plan = NetFaultPlan::seeded(seed).delay(300_000, Duration::from_micros(50));
    let cluster = ChaosCluster::spawn(1, 2, &plan, &NetConfig::default());
    let t = cluster
        .store
        .create_table(TableSpec::new("t").parts(2))
        .unwrap();
    for i in 0..32u32 {
        let k = key(&format!("k{i}"));
        t.put(k.clone(), Bytes::copy_from_slice(&i.to_le_bytes()))
            .unwrap();
        assert!(t.get(&k).unwrap().is_some());
    }
    cluster.trace()
}

/// Chaos criterion from the issue: running the same seeded plan over the
/// same workload twice yields the exact same fault trace.
#[test]
fn same_seed_same_trace() {
    let seed = 0x00C0_FFEE;
    let first = traced_run(seed);
    let second = traced_run(seed);
    assert!(
        !first.is_empty(),
        "plan injected nothing; raise the rate (seed {seed})"
    );
    assert_eq!(
        first, second,
        "chaos trace diverged across identical runs (seed {seed})"
    );
}

/// A black-holed request (frame silently dropped, connection alive) must
/// not hang the client: the per-operation deadline converts silence into
/// a bounded transient error.
#[test]
fn blackholed_request_times_out_as_transient() {
    let seed = 7;
    let plan = NetFaultPlan::seeded(seed)
        .blackhole(PPM_ALWAYS)
        .on_kind(ripple_store_net::proto::REQ_GET);
    let cluster = ChaosCluster::spawn(1, 2, &plan, &NetConfig::default());
    cluster
        .store
        .set_op_deadline(Some(Duration::from_millis(250)));
    let t = cluster
        .store
        .create_table(TableSpec::new("t").parts(2))
        .unwrap();
    t.put(key("a"), Bytes::from_static(b"1")).unwrap();

    let start = Instant::now();
    let err = t.get(&key("a")).expect_err("black-holed read must fail");
    let elapsed = start.elapsed();
    assert!(
        matches!(err, KvError::Transient { .. }),
        "expected transient, got {err} (seed {seed})"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline did not bound the silent peer: {elapsed:?} (seed {seed})"
    );
    // The pool is not poisoned: operations on unaffected request kinds
    // still succeed over a fresh connection.
    t.put(key("b"), Bytes::from_static(b"2")).unwrap();
    assert!(cluster.store.metrics().retries >= 1 || cluster.store.metrics().reconnects >= 1);
}

/// A corrupted frame (CRC flip) kills the connection server-side; the
/// client sees a transient error, and the next attempt heals over a fresh
/// connection — corrupt frames never poison the pool.
#[test]
fn corrupt_frames_are_transient_and_heal() {
    let seed = 11;
    let plan = NetFaultPlan::seeded(seed)
        .corrupt(PPM_ALWAYS)
        .on_kind(ripple_store_net::proto::REQ_GET);
    let cluster = ChaosCluster::spawn(1, 2, &plan, &NetConfig::default());
    let t = cluster
        .store
        .create_table(TableSpec::new("t").parts(2))
        .unwrap();
    t.put(key("a"), Bytes::from_static(b"1")).unwrap();

    let err = t.get(&key("a")).expect_err("corrupted read must fail");
    assert!(
        matches!(err, KvError::Transient { .. }),
        "expected transient, got {err} (seed {seed})"
    );
    // Writes (a different request kind) keep working, and repeated reads
    // keep failing cleanly rather than wedging the pool.
    t.put(key("c"), Bytes::from_static(b"3")).unwrap();
    let again = t.get(&key("a")).expect_err("still corrupted");
    assert!(
        again.is_transient(),
        "second failure class changed: {again}"
    );
    t.put(key("d"), Bytes::from_static(b"4")).unwrap();
    assert!(
        cluster.store.metrics().reconnects >= 1,
        "healing should have reconnected (seed {seed})"
    );
}

/// A truncated frame is indistinguishable from a mid-frame crash: both
/// sides get severed, the client reports transient, and the pool heals.
#[test]
fn truncated_frames_are_transient_and_heal() {
    let seed = 13;
    let plan = NetFaultPlan::seeded(seed)
        .truncate(PPM_ALWAYS)
        .on_kind(ripple_store_net::proto::REQ_LEN);
    let cluster = ChaosCluster::spawn(1, 2, &plan, &NetConfig::default());
    let t = cluster
        .store
        .create_table(TableSpec::new("t").parts(2))
        .unwrap();
    t.put(key("a"), Bytes::from_static(b"1")).unwrap();

    let err = t.len().expect_err("truncated request must fail");
    assert!(
        err.is_transient(),
        "expected transient, got {err} (seed {seed})"
    );
    // Other request kinds still flow; the pool healed on a fresh
    // connection rather than staying wedged on the severed one.
    t.put(key("b"), Bytes::from_static(b"2")).unwrap();
    assert_eq!(t.get(&key("b")).unwrap(), Some(Bytes::from_static(b"2")));
}
