//! Behavioural tests for the debugging store: SPI conformance, locality and
//! marshalling accounting, co-partitioning, ubiquitous tables, enumeration,
//! mobile code, and failure injection.

use bytes::Bytes;
use ripple_kv::{
    FnPairConsumer, KvError, KvStore, PairConsumer, PartId, RoutedKey, ScanControl, Table,
    TableSpec,
};
use ripple_store_mem::MemStore;

fn bkey(s: &str) -> RoutedKey {
    RoutedKey::from_body(Bytes::copy_from_slice(s.as_bytes()))
}

fn bval(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

#[test]
fn basic_get_put_delete() {
    let store = MemStore::builder().default_parts(6).build();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    assert_eq!(t.part_count(), 6);
    assert_eq!(t.get(&bkey("a")).unwrap(), None);
    assert_eq!(t.put(bkey("a"), bval("1")).unwrap(), None);
    assert_eq!(t.put(bkey("a"), bval("2")).unwrap(), Some(bval("1")));
    assert_eq!(t.get(&bkey("a")).unwrap(), Some(bval("2")));
    assert!(t.delete(&bkey("a")).unwrap());
    assert!(!t.delete(&bkey("a")).unwrap());
    assert_eq!(t.get(&bkey("a")).unwrap(), None);
}

#[test]
fn len_and_clear() {
    let store = MemStore::new();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    for i in 0..100u32 {
        t.put(bkey(&format!("k{i}")), bval("v")).unwrap();
    }
    assert_eq!(t.len().unwrap(), 100);
    assert!(!t.is_empty().unwrap());
    t.clear().unwrap();
    assert_eq!(t.len().unwrap(), 0);
    assert!(t.is_empty().unwrap());
}

#[test]
fn duplicate_table_name_rejected() {
    let store = MemStore::new();
    store.create_table(&TableSpec::new("t")).unwrap();
    assert!(matches!(
        store.create_table(&TableSpec::new("t")),
        Err(KvError::TableExists { name }) if name == "t"
    ));
}

#[test]
fn lookup_and_drop() {
    let store = MemStore::new();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    t.put(bkey("a"), bval("1")).unwrap();
    let t2 = store.lookup_table("t").unwrap();
    assert_eq!(t2.get(&bkey("a")).unwrap(), Some(bval("1")));
    store.drop_table("t").unwrap();
    assert!(matches!(
        store.lookup_table("t"),
        Err(KvError::NoSuchTable { .. })
    ));
    assert!(matches!(
        t.get(&bkey("a")),
        Err(KvError::TableDropped { .. })
    ));
    assert!(matches!(
        store.drop_table("t"),
        Err(KvError::NoSuchTable { .. })
    ));
    // The name is free again.
    store.create_table(&TableSpec::new("t")).unwrap();
}

#[test]
fn explicit_routes_control_placement() {
    let store = MemStore::new();
    let t = store.create_table(TableSpec::new("t").parts(4)).unwrap();
    // One key aimed at each part; every part then holds exactly one entry.
    for p in 0..4u64 {
        t.put(RoutedKey::with_route(p, bval(&format!("k{p}"))), bval("v"))
            .unwrap();
    }
    for p in 0..4u32 {
        let n = store
            .run_at(&t, PartId(p), |view| view.len("t").unwrap())
            .join()
            .unwrap();
        assert_eq!(n, 1, "part {p}");
    }
}

#[test]
fn remote_ops_are_marshalled_local_ops_are_not() {
    let store = MemStore::builder().default_parts(2).build();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    let before = store.metrics();
    // From the client (outside any part) everything is remote.
    t.put(RoutedKey::with_route(0, bval("k")), bval("value"))
        .unwrap();
    let mid = store.metrics() - before;
    assert_eq!(mid.remote_ops, 1);
    assert_eq!(mid.local_ops, 0);
    assert!(mid.bytes_marshalled > 0);

    // From mobile code running at the key's part, access is local.
    let before = store.metrics();
    let t2 = t.clone();
    store
        .run_at(&t, PartId(0), move |_view| {
            t2.get(&RoutedKey::with_route(0, bval("k"))).unwrap();
        })
        .join()
        .unwrap();
    let after = store.metrics() - before;
    assert_eq!(after.local_ops, 1);
    assert_eq!(after.remote_ops, 0);
    assert_eq!(after.bytes_marshalled, 0);

    // From mobile code at the *other* part, the same access is remote.
    let before = store.metrics();
    let t2 = t.clone();
    store
        .run_at(&t, PartId(1), move |_view| {
            t2.get(&RoutedKey::with_route(0, bval("k"))).unwrap();
        })
        .join()
        .unwrap();
    let after = store.metrics() - before;
    assert_eq!(after.remote_ops, 1);
    assert!(after.bytes_marshalled > 0);
}

#[test]
fn get_reply_bytes_counted() {
    let store = MemStore::builder().default_parts(2).build();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    let key = RoutedKey::with_route(1, bval("k"));
    t.put(key.clone(), Bytes::from(vec![0u8; 1000])).unwrap();
    let before = store.metrics();
    t.get(&key).unwrap();
    let delta = store.metrics() - before;
    assert!(
        delta.bytes_marshalled >= 1000,
        "reply value bytes must be accounted, got {}",
        delta.bytes_marshalled
    );
}

#[test]
fn copartitioned_tables_share_parts() {
    let store = MemStore::builder().default_parts(3).build();
    let a = store.create_table(&TableSpec::new("a")).unwrap();
    let b = store.create_table_like("b", &a).unwrap();
    assert_eq!(a.partitioning_id(), b.partitioning_id());
    // A fresh table gets its own partitioning.
    let c = store.create_table(&TableSpec::new("c")).unwrap();
    assert_ne!(a.partitioning_id(), c.partitioning_id());

    // Mobile code at part p of `a` can access `b` locally, but not `c`.
    let key = RoutedKey::with_route(2, bval("x"));
    b.put(key.clone(), bval("in-b")).unwrap();
    let out = store
        .run_at(&a, PartId(2), move |view| {
            let from_b = view.get("b", &key).unwrap();
            let from_c = view.get("c", &key);
            (from_b, from_c)
        })
        .join()
        .unwrap();
    assert_eq!(out.0, Some(bval("in-b")));
    assert!(matches!(out.1, Err(KvError::NotCopartitioned { .. })));
}

#[test]
fn ubiquitous_table_readable_from_any_part_not_writable_via_view() {
    let store = MemStore::builder().default_parts(4).build();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    let u = store
        .create_table(TableSpec::new("bcast").ubiquitous())
        .unwrap();
    assert!(u.is_ubiquitous());
    assert_eq!(u.part_count(), 1);
    u.put(bkey("pi"), bval("3.14")).unwrap();
    for p in 0..4u32 {
        let got = store
            .run_at(&t, PartId(p), |view| {
                let read = view.get("bcast", &bkey("pi")).unwrap();
                let write = view.put("bcast", bkey("e"), bval("2.71"));
                (read, write)
            })
            .join()
            .unwrap();
        assert_eq!(got.0, Some(bval("3.14")));
        assert!(matches!(got.1, Err(KvError::UbiquityMismatch { .. })));
    }
}

#[test]
fn enumerate_pairs_visits_everything_once() {
    let store = MemStore::builder().default_parts(5).build();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    for i in 0..250u32 {
        t.put(bkey(&format!("k{i}")), bval(&format!("{i}")))
            .unwrap();
    }
    let consumer = FnPairConsumer::new(|k: &RoutedKey, _v: &[u8]| k.body().to_vec());
    let mut seen = store.enumerate_pairs(&t, consumer).unwrap();
    seen.sort();
    assert_eq!(seen.len(), 250);
    seen.dedup();
    assert_eq!(seen.len(), 250);
}

#[derive(Clone)]
struct StopAfterOne;

impl PairConsumer for StopAfterOne {
    type Output = usize;
    fn pair(&mut self, _key: &RoutedKey, _value: &[u8]) -> ScanControl {
        ScanControl::Stop
    }
    fn finish(&mut self, _part: PartId) -> usize {
        1
    }
    fn combine(&self, a: usize, b: usize) -> usize {
        a + b
    }
}

#[test]
fn pair_consumer_stop_halts_per_part_scan() {
    let store = MemStore::builder().default_parts(3).build();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    for i in 0..90u32 {
        t.put(bkey(&format!("k{i}")), bval("v")).unwrap();
    }
    // Each part stops after its first pair, so output = number of parts.
    let out = store.enumerate_pairs(&t, StopAfterOne).unwrap();
    assert_eq!(out, 3);
}

#[test]
fn drain_consumes_entries_and_stop_preserves_rest() {
    let store = MemStore::builder().default_parts(1).build();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    for i in 0..10u32 {
        t.put(bkey(&format!("k{i}")), bval("v")).unwrap();
    }
    // Drain three entries then stop.
    let drained = store
        .run_at(&t, PartId(0), |view| {
            let mut n = 0;
            view.drain("t", &mut |_k, _v| {
                n += 1;
                if n == 3 {
                    ScanControl::Stop
                } else {
                    ScanControl::Continue
                }
            })
            .unwrap();
            n
        })
        .join()
        .unwrap();
    assert_eq!(drained, 3);
    assert_eq!(t.len().unwrap(), 7);
    // A full drain empties the table.
    store
        .run_at(&t, PartId(0), |view| {
            view.drain("t", &mut |_k, _v| ScanControl::Continue)
                .unwrap();
        })
        .join()
        .unwrap();
    assert_eq!(t.len().unwrap(), 0);
}

#[test]
fn run_at_panics_are_contained() {
    let store = MemStore::new();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    let h = store.run_at(&t, PartId(0), |_view| panic!("mobile code bug"));
    assert_eq!(
        h.join(),
        Err(KvError::TaskPanicked {
            part: 0,
            message: "mobile code bug".to_owned(),
        })
    );
    // The lane survives and keeps serving.
    let ok = store.run_at(&t, PartId(0), |_view| 7u32).join().unwrap();
    assert_eq!(ok, 7);
}

#[test]
fn run_at_all_returns_results_in_part_order() {
    let store = MemStore::builder().default_parts(4).build();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    let parts = store.run_at_all(&t, |view| view.part().0).unwrap();
    assert_eq!(parts, vec![0, 1, 2, 3]);
}

#[test]
fn failure_injection_loses_unsnapshotted_writes() {
    let store = MemStore::builder().default_parts(2).build();
    let t = store.create_table(&TableSpec::new("state")).unwrap();
    let t2 = store.create_table_like("aux", &t).unwrap();
    let k0 = RoutedKey::with_route(0, bval("a"));
    let k1 = RoutedKey::with_route(1, bval("b"));
    t.put(k0.clone(), bval("v0")).unwrap();
    t.put(k1.clone(), bval("v1")).unwrap();
    t2.put(k0.clone(), bval("aux0")).unwrap();

    let cp = store.checkpoint_part(&t, PartId(0)).unwrap();
    assert_eq!(cp.entry_count(), 2); // state + aux entries of part 0

    // Writes after the checkpoint are lost by the failure.
    t.put(RoutedKey::with_route(0, bval("late")), bval("lost"))
        .unwrap();
    store.fail_part(&t, PartId(0)).unwrap();
    assert!(store.is_part_failed(&t, PartId(0)));
    assert!(matches!(t.get(&k0), Err(KvError::PartFailed { part: 0 })));
    // The healthy part is unaffected.
    assert_eq!(t.get(&k1).unwrap(), Some(bval("v1")));

    store.restore_part(&cp).unwrap();
    assert!(!store.is_part_failed(&t, PartId(0)));
    assert_eq!(t.get(&k0).unwrap(), Some(bval("v0")));
    assert_eq!(t2.get(&k0).unwrap(), Some(bval("aux0")));
    assert_eq!(
        t.get(&RoutedKey::with_route(0, bval("late"))).unwrap(),
        None,
        "un-checkpointed write must be gone"
    );
}

#[test]
fn heal_without_restore_leaves_part_empty() {
    let store = MemStore::builder().default_parts(2).build();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    let k = RoutedKey::with_route(1, bval("x"));
    t.put(k.clone(), bval("v")).unwrap();
    store.fail_part(&t, PartId(1)).unwrap();
    store.heal_part(&t, PartId(1)).unwrap();
    assert_eq!(t.get(&k).unwrap(), None);
}

#[test]
fn concurrent_writers_from_many_threads() {
    let store = MemStore::builder().default_parts(4).build();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    std::thread::scope(|s| {
        for w in 0..8 {
            let t = t.clone();
            s.spawn(move || {
                for i in 0..200u32 {
                    t.put(bkey(&format!("w{w}-k{i}")), bval("v")).unwrap();
                }
            });
        }
    });
    assert_eq!(t.len().unwrap(), 8 * 200);
}

#[test]
fn table_names_lists_live_tables() {
    let store = MemStore::new();
    store.create_table(&TableSpec::new("a")).unwrap();
    store.create_table(&TableSpec::new("b")).unwrap();
    let mut names = store.table_names();
    names.sort();
    assert_eq!(names, vec!["a".to_owned(), "b".to_owned()]);
}

#[test]
fn put_batch_spans_parts_and_counts_batches() {
    let store = MemStore::builder().default_parts(4).build();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    let pairs: Vec<_> = (0..32u64)
        .map(|i| (RoutedKey::with_route(i, bval(&format!("k{i}"))), bval("v")))
        .collect();
    t.put_batch(pairs.clone()).unwrap();
    assert_eq!(t.len().unwrap(), 32);
    for (k, _) in &pairs {
        assert_eq!(t.get(k).unwrap(), Some(bval("v")));
    }
    let m = store.metrics();
    // One batch per destination part, nothing folded (no combiner bound).
    assert_eq!(m.net_batches, 4);
    assert_eq!(m.combined_records, 0);
    // Per-part attribution sums back to the store-wide count.
    let per_part: u64 = store.part_metrics().iter().map(|p| p.net_batches).sum();
    assert_eq!(per_part, 4);
}

#[test]
fn bound_combiner_folds_batch_records() {
    use ripple_kv::{CombinerSpec, VEC_CONCAT};
    use ripple_wire::{from_wire, to_wire};

    let store = MemStore::builder().default_parts(2).build();
    let t = store.create_table(&TableSpec::new("inbox")).unwrap();
    assert!(matches!(
        store.bind_combiner("absent", &CombinerSpec::new(VEC_CONCAT)),
        Err(KvError::NoSuchTable { .. })
    ));
    store
        .bind_combiner("inbox", &CombinerSpec::new(VEC_CONCAT))
        .unwrap();
    let key = RoutedKey::with_route(1, bval("dst"));
    t.put_batch(vec![
        (key.clone(), to_wire(&vec![1u32, 2])),
        (key.clone(), to_wire(&vec![3u32])),
        (key.clone(), to_wire(&vec![4u32, 5])),
    ])
    .unwrap();
    let folded: Vec<u32> = from_wire(&t.get(&key).unwrap().unwrap()).unwrap();
    assert_eq!(folded, vec![1, 2, 3, 4, 5]);
    // Two of the three records folded into the resident value.
    assert_eq!(store.metrics().combined_records, 2);
    // Plain puts still overwrite: binding only changes batched writes.
    t.put(key.clone(), to_wire(&vec![9u32])).unwrap();
    let over: Vec<u32> = from_wire(&t.get(&key).unwrap().unwrap()).unwrap();
    assert_eq!(over, vec![9]);
}

#[test]
fn part_view_put_batch_folds_locally() {
    use ripple_kv::{CombinerSpec, VEC_CONCAT};
    use ripple_wire::{from_wire, to_wire};

    let store = MemStore::builder().default_parts(2).build();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    store
        .bind_combiner("t", &CombinerSpec::new(VEC_CONCAT))
        .unwrap();
    let key = RoutedKey::with_route(0, bval("k"));
    let k2 = key.clone();
    store
        .run_at(&t, PartId(0), move |view| {
            view.put_batch(
                "t",
                vec![
                    (k2.clone(), to_wire(&vec![7u32])),
                    (k2.clone(), to_wire(&vec![8u32])),
                ],
            )
        })
        .join()
        .unwrap()
        .unwrap();
    let folded: Vec<u32> = from_wire(&t.get(&key).unwrap().unwrap()).unwrap();
    assert_eq!(folded, vec![7, 8]);
    assert_eq!(store.metrics().combined_records, 1);
}

#[test]
fn a_fixed_script_counts_exactly_and_decomposes_by_part() {
    use ripple_kv::{CombinerSpec, StoreMetrics, VEC_CONCAT};
    use ripple_wire::to_wire;

    let store = MemStore::builder().default_parts(4).build();
    let t = store.create_table(&TableSpec::new("t")).unwrap();
    let c = store.create_table_like("c", &t).unwrap();
    store
        .bind_combiner("c", &CombinerSpec::new(VEC_CONCAT))
        .unwrap();
    let key = |route: u64| RoutedKey::with_route(route, bval(&format!("k{route}")));
    // Point operations from outside any part: remote, marshalled.
    for r in 0..6 {
        t.put(key(r), bval("value")).unwrap();
    }
    t.get(&key(1)).unwrap();
    t.get(&key(9)).unwrap();
    t.delete(&key(2)).unwrap();
    // Cross-part batches, unbound and bound to a combiner.
    t.put_batch((10..18).map(|r| (key(r), bval("b"))).collect())
        .unwrap();
    c.put_batch(
        (0..8u32)
            .map(|i| (key(u64::from(i % 3)), to_wire(&vec![i])))
            .collect(),
    )
    .unwrap();
    // Mobile code at part 1: view operations, then table-handle reads at
    // its own part (local) and at another (remote).
    let t2 = t.clone();
    let scanned = store
        .run_at(&t, PartId(1), move |view| {
            view.put("t", key(5), bval("local")).unwrap();
            view.get("t", &key(5)).unwrap();
            view.put_batch("c", vec![(key(1), to_wire(&vec![9u32]))])
                .unwrap();
            let mut scanned = 0;
            view.scan("t", &mut |_, _| {
                scanned += 1;
                ScanControl::Continue
            })
            .unwrap();
            view.drain("c", &mut |_, _| ScanControl::Continue).unwrap();
            t2.get(&key(1)).unwrap();
            t2.get(&key(2)).unwrap();
            scanned
        })
        .join()
        .unwrap();
    assert_eq!(scanned, 4);
    // Whole-table operations belong to no part.
    assert_eq!(t.len().unwrap(), 13);
    t.clear().unwrap();
    store.snapshot_table(&c).unwrap();

    let part = |remote_ops, bytes_marshalled, net_batches, combined_records| StoreMetrics {
        remote_ops,
        bytes_marshalled,
        enumerations: 1,
        net_batches,
        combined_records,
        ..StoreMetrics::default()
    };
    let parts = vec![
        part(4, 90, 2, 2),
        StoreMetrics {
            local_ops: 4,
            tasks_dispatched: 1,
            enumerations: 3,
            ..part(6, 115, 3, 3)
        },
        part(5, 83, 2, 1),
        part(2, 39, 1, 0),
    ];
    assert_eq!(store.part_metrics(), parts);
    let unattributed = StoreMetrics {
        local_ops: 2,
        ..StoreMetrics::default()
    };
    assert_eq!(
        store.metrics(),
        StoreMetrics {
            local_ops: 6,
            remote_ops: 17,
            bytes_marshalled: 327,
            tasks_dispatched: 1,
            enumerations: 6,
            net_batches: 8,
            combined_records: 6,
            ..StoreMetrics::default()
        }
    );
    assert_eq!(
        store.metrics(),
        parts.into_iter().fold(unattributed, |sum, p| sum + p)
    );
}
