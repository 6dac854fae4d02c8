//! End-to-end exercises of the networked store over in-process loopback
//! clusters: DDL, point operations, enumeration, mobile code, and the
//! engine running a real job against remote parts.

use std::sync::Arc;

use bytes::Bytes;
use ripple_core::{FnLoader, JobRunner, LoadSink, RunOptions, SimpleJob};
use ripple_kv::{
    KvError, KvStore, PartId, RoutedKey, ScanControl, StoreCounters, Table, TableSpec, TaskRegistry,
};
use ripple_store_mem::MemStore;
use ripple_store_net::{
    proto, LoopbackCluster, Membership, Pool, CONNECT_TIMEOUT, RESPONSE_TIMEOUT,
};

fn key(s: &str) -> RoutedKey {
    RoutedKey::from_body(Bytes::copy_from_slice(s.as_bytes()))
}

fn val(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

#[test]
fn ddl_and_point_ops() {
    let cluster = LoopbackCluster::spawn(2, 4);
    let store = &cluster.store;

    let t = store.create_table(TableSpec::new("t").parts(4)).unwrap();
    assert_eq!(t.part_count(), 4);
    assert!(!t.is_ubiquitous());

    assert_eq!(t.put(key("a"), val("1")).unwrap(), None);
    assert_eq!(t.put(key("a"), val("2")).unwrap(), Some(val("1")));
    assert_eq!(t.get(&key("a")).unwrap(), Some(val("2")));
    assert_eq!(t.get(&key("missing")).unwrap(), None);
    for i in 0..32 {
        t.put(key(&format!("k{i}")), val(&format!("v{i}"))).unwrap();
    }
    assert_eq!(t.len().unwrap(), 33);
    assert!(t.delete(&key("a")).unwrap());
    assert!(!t.delete(&key("a")).unwrap());
    assert_eq!(t.len().unwrap(), 32);
    t.clear().unwrap();
    assert_eq!(t.len().unwrap(), 0);
    assert!(t.is_empty().unwrap());

    let again = store.lookup_table("t").unwrap();
    assert_eq!(again.part_count(), 4);
    assert_eq!(again.partitioning_id(), t.partitioning_id());
    assert!(store.table_names().contains(&"t".to_owned()));

    store.drop_table("t").unwrap();
    assert!(matches!(
        store.lookup_table("t"),
        Err(KvError::NoSuchTable { .. })
    ));
    assert!(store.create_table(TableSpec::new("u").parts(2)).is_ok());
    assert!(matches!(
        store.create_table(TableSpec::new("u").parts(2)),
        Err(KvError::TableExists { .. })
    ));
}

#[test]
fn copartitioning_and_ubiquity_rules() {
    let cluster = LoopbackCluster::spawn(2, 4);
    let store = &cluster.store;

    let a = store.create_table(TableSpec::new("a").parts(4)).unwrap();
    let b = store.create_table_like("b", &a).unwrap();
    let other = store
        .create_table(TableSpec::new("other").parts(4))
        .unwrap();
    let bcast = store
        .create_table(TableSpec::new("bcast").ubiquitous())
        .unwrap();
    assert_eq!(a.partitioning_id(), b.partitioning_id());
    assert_ne!(a.partitioning_id(), other.partitioning_id());
    assert!(bcast.is_ubiquitous());
    assert_eq!(bcast.part_count(), 1);

    bcast.put(key("cfg"), val("42")).unwrap();

    let results = store
        .run_at(&a, PartId(1), |view| {
            let copart = view.put("b", key("x"), val("y")).map(|_| ());
            let non_copart = view.get("other", &key("x")).map(|_| ());
            let ubiq_read = view.get("bcast", &key("cfg"));
            let ubiq_write = view.put("bcast", key("cfg"), val("7")).map(|_| ());
            let missing = view.get("nope", &key("x")).map(|_| ());
            (copart, non_copart, ubiq_read, ubiq_write, missing)
        })
        .join()
        .unwrap();

    assert_eq!(results.0, Ok(()));
    assert!(matches!(results.1, Err(KvError::NotCopartitioned { .. })));
    assert_eq!(results.2, Ok(Some(val("42"))));
    assert!(matches!(results.3, Err(KvError::UbiquityMismatch { .. })));
    assert!(matches!(results.4, Err(KvError::NoSuchTable { .. })));

    assert_eq!(b.get(&key("x")).unwrap(), Some(val("y")));
}

#[test]
fn scan_and_drain_are_part_scoped() {
    let cluster = LoopbackCluster::spawn(2, 4);
    let store = &cluster.store;
    let t = store.create_table(TableSpec::new("t").parts(4)).unwrap();

    let total = 64usize;
    for i in 0..total {
        t.put(key(&format!("k{i}")), val(&format!("v{i}"))).unwrap();
    }

    // Per-part scans partition the key space exactly.
    let mut seen = 0usize;
    for p in 0..4 {
        let n = store
            .run_at(&t, PartId(p), |view| {
                let mut count = 0usize;
                let mut in_part = true;
                view.scan("t", &mut |k, _| {
                    in_part &= k.part_for(4) == view.part();
                    count += 1;
                    ScanControl::Continue
                })
                .unwrap();
                assert!(in_part, "scan leaked keys from other parts");
                assert_eq!(view.len("t").unwrap(), count);
                count
            })
            .join()
            .unwrap();
        seen += n;
    }
    assert_eq!(seen, total);

    // Drain with early stop: consumed pairs are gone, the rest stay.
    let part0 = store
        .run_at(&t, PartId(0), |view| view.len("t").unwrap())
        .join()
        .unwrap();
    assert!(part0 > 2, "need a few keys in part 0 for the early stop");
    store
        .run_at(&t, PartId(0), |view| {
            let mut taken = 0;
            view.drain("t", &mut |_, _| {
                taken += 1;
                if taken == 2 {
                    ScanControl::Stop
                } else {
                    ScanControl::Continue
                }
            })
            .unwrap();
        })
        .join()
        .unwrap();
    let left = store
        .run_at(&t, PartId(0), |view| view.len("t").unwrap())
        .join()
        .unwrap();
    assert_eq!(left, part0 - 2);
    assert_eq!(t.len().unwrap(), total - 2);

    // Full drain empties only the addressed part.
    store
        .run_at(&t, PartId(0), |view| {
            view.drain("t", &mut |_, _| ScanControl::Continue).unwrap();
        })
        .join()
        .unwrap();
    assert_eq!(t.len().unwrap(), total - part0);
}

#[test]
fn named_tasks_run_on_the_owning_server() {
    let registry = TaskRegistry::default();
    registry.register("count", |view, arg: Bytes| {
        let table = String::from_utf8(arg.to_vec()).expect("utf8 table name");
        let n = view.len(&table)? as u64;
        Ok(Bytes::copy_from_slice(&n.to_le_bytes()))
    });
    let cluster = LoopbackCluster::spawn_with_registry(2, 4, &registry);
    let store = &cluster.store;
    let t = store.create_table(TableSpec::new("t").parts(4)).unwrap();
    for i in 0..40 {
        t.put(key(&format!("k{i}")), val("x")).unwrap();
    }

    let mut total = 0u64;
    for p in 0..4 {
        let out = store
            .run_named_at(&t, PartId(p), "count", Bytes::from_static(b"t"))
            .join()
            .unwrap()
            .unwrap();
        total += u64::from_le_bytes(out.as_ref().try_into().unwrap());
    }
    assert_eq!(total, 40);

    let missing = store
        .run_named_at(&t, PartId(0), "no-such", Bytes::new())
        .join()
        .unwrap();
    assert!(matches!(missing, Err(KvError::NoSuchTask { .. })));
}

#[test]
fn metrics_count_network_traffic() {
    let cluster = LoopbackCluster::spawn(2, 4);
    let store = &cluster.store;
    let t = store.create_table(TableSpec::new("t").parts(4)).unwrap();
    for i in 0..16 {
        t.put(key(&format!("k{i}")), val(&format!("v{i}"))).unwrap();
    }
    store
        .run_at(&t, PartId(0), |view| {
            view.scan("t", &mut |_, _| ScanControl::Continue).unwrap();
        })
        .join()
        .unwrap();

    let m = store.metrics();
    assert!(m.rpcs > 0, "no rpcs counted: {m:?}");
    assert!(m.net_bytes_in > 0);
    assert!(m.net_bytes_out > 0);
    assert!(m.remote_ops >= 16);
    assert_eq!(m.enumerations, 1);
    assert!(m.tasks_dispatched >= 1);
    assert!(m.rpc_latency.total() > 0, "no latencies observed");
    assert!(m.rpc_latency.quantile_upper_us(990_000) >= 1);
}

type CountDown = SimpleJob<u32, u32, u32>;

fn countdown(name: &str) -> CountDown {
    SimpleJob::<u32, u32, u32>::builder(name)
        .compute(|ctx| {
            let v = ctx.read_state(0)?.unwrap_or(0);
            ctx.write_state(0, &v.saturating_sub(1))?;
            Ok(v > 1)
        })
        .build()
}

fn seed(n: u32) -> Box<dyn ripple_core::Loader<CountDown>> {
    Box::new(FnLoader::new(move |sink: &mut dyn LoadSink<CountDown>| {
        for k in 0..8u32 {
            sink.state(0, k, n)?;
            sink.enable(k)?;
        }
        Ok(())
    }))
}

#[test]
fn engine_runs_jobs_against_remote_parts() {
    let cluster = LoopbackCluster::spawn(2, 4);
    let remote = JobRunner::new(cluster.store.clone())
        .launch(
            Arc::new(countdown("cd")),
            RunOptions::new().loaders(vec![seed(5)]),
        )
        .unwrap();
    let local = JobRunner::new(MemStore::builder().default_parts(4).build())
        .launch(
            Arc::new(countdown("cd")),
            RunOptions::new().loaders(vec![seed(5)]),
        )
        .unwrap();
    assert_eq!(remote.steps, local.steps);
    assert_eq!(remote.metrics.invocations, local.metrics.invocations);
    assert!(cluster.store.metrics().rpcs > 0);
}

/// The server handles exactly the request kinds the protocol declares:
/// every byte is sent once as a request kind with an empty payload, and
/// only the undeclared ones (responses included) come back as an unknown
/// request kind.
#[test]
fn the_server_handles_exactly_the_declared_request_kinds() {
    let cluster = LoopbackCluster::spawn(1, 2);
    let metrics = Arc::new(StoreCounters::new());
    let server = vec![vec![cluster.handles[0].addr()]];
    let membership = Arc::new(Membership::new(server, Arc::clone(&metrics)));
    let pool = Pool::new(membership, metrics, CONNECT_TIMEOUT, RESPONSE_TIMEOUT);
    // Epoch 0, an unreplicated client's: the sweep's own empty `REQ_HELLO`
    // announces 0 too, and must not fence the connection.
    let epoch = ripple_wire::to_wire(&0u64);
    pool.unary(0, proto::REQ_HELLO, &epoch).expect("handshake");

    for kind in 0..=u8::MAX {
        let request = proto::FRAME_KINDS
            .iter()
            .any(|&(name, k)| k == kind && name.starts_with("REQ_"));
        let unknown_kind = format!("unknown request kind {kind:#04x}");
        let unknown = pool
            .unary(0, kind, &[])
            .is_err_and(|e| matches!(e, KvError::Backend { detail } if detail == unknown_kind));
        assert_ne!(
            request, unknown,
            "{kind:#04x}: declared request kind {request}, handled {}",
            !unknown
        );
    }
}

/// A client that announces an epoch moves the server's watermark, and a
/// connection that announced none — an unreplicated client's — is not
/// fenced by it: its requests are served as before.
#[test]
fn an_announced_epoch_does_not_fence_unreplicated_clients() {
    let cluster = LoopbackCluster::spawn(1, 2);
    let metrics = Arc::new(StoreCounters::new());
    let server = vec![vec![cluster.handles[0].addr()]];
    let membership = Arc::new(Membership::new(server, Arc::clone(&metrics)));
    let pool = Pool::new(membership, metrics, CONNECT_TIMEOUT, RESPONSE_TIMEOUT);
    pool.unary(0, proto::REQ_HELLO, &ripple_wire::to_wire(&1u64))
        .expect("handshake at epoch 1");

    let fresh = ripple_store_net::NetStore::connect(vec![cluster.handles[0].addr()]);
    let t = fresh
        .create_table(TableSpec::new("unfenced").parts(2))
        .unwrap();
    assert_eq!(t.put(key("a"), val("1")).unwrap(), None);
    assert_eq!(t.get(&key("a")).unwrap(), Some(val("1")));
    // The announcing connection is current at the epoch it announced.
    pool.unary(0, proto::REQ_PING, &ripple_wire::to_wire(&()))
        .expect("the announcing connection is current");
}
