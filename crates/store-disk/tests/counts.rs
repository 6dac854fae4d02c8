//! Exact counter pins for a fixed script of every kind of disk-store
//! traffic, and the decomposition `metrics() == unattributed + Σ parts`:
//! shard traffic is charged to its part, catalog writes to no part.

use bytes::Bytes;
use ripple_kv::{
    CombinerSpec, DurableStore, KvStore, PartId, RoutedKey, ScanControl, StoreMetrics, SyncPolicy,
    Table, TableSpec, VEC_CONCAT,
};
use ripple_store_disk::{testutil::TempDir, DiskStore};
use ripple_wire::to_wire;

fn key(route: u64) -> RoutedKey {
    RoutedKey::with_route(route, Bytes::from(format!("k{route}")))
}

#[test]
fn a_fixed_script_counts_exactly_and_decomposes_by_part() {
    let dir = TempDir::new("counts");
    let open = || {
        DiskStore::builder()
            .default_parts(3)
            .sync_policy(SyncPolicy::EveryN(3))
            .open(dir.path())
            .unwrap()
    };
    {
        let store = open();
        // Catalog DDL: four durable records, charged to no part.
        let t = store.create_table(&TableSpec::new("t")).unwrap();
        let c = store.create_table_like("c", &t).unwrap();
        store.create_table(&TableSpec::new("gone")).unwrap();
        store.drop_table("gone").unwrap();
        store
            .bind_combiner("c", &CombinerSpec::new(VEC_CONCAT))
            .unwrap();
        for r in 0..6 {
            t.put(key(r), Bytes::from_static(b"value")).unwrap();
        }
        t.get(&key(1)).unwrap();
        t.delete(&key(2)).unwrap();
        // Cross-part batches, unbound and bound to a combiner.
        t.put_batch(
            (10..18)
                .map(|r| (key(r), Bytes::from_static(b"b")))
                .collect(),
        )
        .unwrap();
        c.put_batch(
            (0..8u32)
                .map(|i| (key(u64::from(i % 3)), to_wire(&vec![i])))
                .collect(),
        )
        .unwrap();
        let scanned = store
            .run_at(&t, PartId(1), move |view| {
                view.put("t", key(4), Bytes::from_static(b"local")).unwrap();
                view.get("t", &key(4)).unwrap();
                view.put_batch("c", vec![(key(1), to_wire(&vec![9u32]))])
                    .unwrap();
                let mut scanned = 0;
                view.scan("t", &mut |_, _| {
                    scanned += 1;
                    ScanControl::Continue
                })
                .unwrap();
                view.drain("c", &mut |_, _| ScanControl::Continue).unwrap();
                scanned
            })
            .join()
            .unwrap();
        assert_eq!(scanned, 5);
        assert_eq!(t.len().unwrap(), 13);
        c.clear().unwrap();
        store.flush().unwrap();

        let part = |local_ops, wal_bytes, fsyncs, net_batches, combined_records| StoreMetrics {
            local_ops,
            wal_bytes,
            fsyncs,
            net_batches,
            combined_records,
            ..StoreMetrics::default()
        };
        let parts = vec![
            part(4, 106, 3, 2, 2),
            StoreMetrics {
                tasks_dispatched: 1,
                enumerations: 2,
                ..part(8, 161, 4, 3, 3)
            },
            part(5, 114, 3, 2, 1),
        ];
        assert_eq!(store.part_metrics(), parts);
        let catalog = part(0, 47, 4, 0, 0);
        assert_eq!(
            store.metrics(),
            StoreMetrics {
                tasks_dispatched: 1,
                enumerations: 2,
                ..part(17, 428, 14, 7, 6)
            }
        );
        assert_eq!(
            store.metrics(),
            parts.into_iter().fold(catalog, |sum, p| sum + p)
        );
    }
    // Reopening replays every shard into its own part's count.
    let store = open();
    let replayed = |replayed_records| StoreMetrics {
        replayed_records,
        ..StoreMetrics::default()
    };
    assert_eq!(
        store.part_metrics(),
        vec![replayed(8), replayed(12), replayed(9)]
    );
    assert_eq!(store.metrics(), replayed(29));
}
