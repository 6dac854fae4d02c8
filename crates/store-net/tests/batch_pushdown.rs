//! End-to-end batched message plane: `REQ_PUT_BATCH` coalescing, client
//! pre-combine, and server-side combiner pushdown over a loopback
//! cluster — plus the engine's spill path riding the same batch RPC.

use std::sync::Arc;

use bytes::Bytes;
use ripple_core::{FnLoader, JobRunner, LoadSink, RunOptions, SimpleJob};
use ripple_kv::{
    CombinerRegistry, CombinerSpec, KvError, KvStore, RoutedKey, Table, TableSpec, TaskRegistry,
};
use ripple_store_net::LoopbackCluster;

fn key(s: &str) -> RoutedKey {
    RoutedKey::from_body(Bytes::copy_from_slice(s.as_bytes()))
}

fn enc(v: u64) -> Bytes {
    Bytes::copy_from_slice(&v.to_le_bytes())
}

fn dec(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("an 8-byte le u64 value"))
}

/// A registry with a little-endian u64 sum fold, the classic combiner.
fn sum_registry() -> CombinerRegistry {
    let combiners = CombinerRegistry::new();
    combiners.register("sum.le64", |a, b| {
        let n = |x: &[u8]| -> Result<u64, KvError> {
            x.try_into()
                .map(u64::from_le_bytes)
                .map_err(|_| KvError::Backend {
                    detail: "sum.le64 fold on a non-u64 value".to_owned(),
                })
        };
        Ok(Bytes::copy_from_slice(&(n(a)? + n(b)?).to_le_bytes()))
    });
    combiners
}

/// With a bound combiner, a batch with duplicate keys is pre-combined on
/// the client (fewer records cross the wire) and the survivors are folded
/// into resident values on the owning server, not overwritten.
#[test]
fn put_batch_precombines_and_server_folds_with_bound_combiner() {
    let cluster =
        LoopbackCluster::spawn_with_registries(2, 4, &TaskRegistry::default(), &sum_registry());
    let store = &cluster.store;
    let t = store.create_table(TableSpec::new("acc").parts(4)).unwrap();
    store
        .bind_combiner("acc", &CombinerSpec::new("sum.le64"))
        .unwrap();

    // Four keys, three records each: the client folds each key's triple
    // into one record before the wire.
    let mut pairs = Vec::new();
    for k in 0..4u32 {
        for v in 1..=3u64 {
            pairs.push((key(&format!("k{k}")), enc(v)));
        }
    }
    t.put_batch(pairs).unwrap();
    let m = store.metrics();
    assert_eq!(m.combined_records, 8, "3 records per key fold to 1: {m:?}");
    assert!(m.net_batches >= 1, "the batch must ship coalesced: {m:?}");
    for k in 0..4u32 {
        assert_eq!(dec(&t.get(&key(&format!("k{k}"))).unwrap().unwrap()), 6);
    }

    // A second batch folds into the resident values server-side instead
    // of overwriting them.
    t.put_batch(
        (0..4u32)
            .map(|k| (key(&format!("k{k}")), enc(10)))
            .collect(),
    )
    .unwrap();
    for k in 0..4u32 {
        assert_eq!(dec(&t.get(&key(&format!("k{k}"))).unwrap().unwrap()), 16);
    }
    let m = store.metrics();
    assert_eq!(m.combined_records, 8, "no duplicates, so no new folds");
}

/// Without a bound combiner the batch is plain writes: the last record
/// for a key wins, exactly as a sequence of puts would.
#[test]
fn put_batch_without_combiner_overwrites_in_order() {
    let cluster = LoopbackCluster::spawn(2, 4);
    let store = &cluster.store;
    let t = store
        .create_table(TableSpec::new("plain").parts(4))
        .unwrap();

    t.put_batch(vec![
        (key("a"), enc(1)),
        (key("b"), enc(2)),
        (key("a"), enc(3)),
    ])
    .unwrap();
    assert_eq!(dec(&t.get(&key("a")).unwrap().unwrap()), 3);
    assert_eq!(dec(&t.get(&key("b")).unwrap().unwrap()), 2);
    let m = store.metrics();
    assert_eq!(m.combined_records, 0, "nothing bound, nothing folded");
    assert!(m.net_batches >= 1);
}

/// Binding an unregistered combiner name fails up front, before any
/// batch could silently lose the fold.
#[test]
fn bind_combiner_rejects_unregistered_names() {
    let cluster = LoopbackCluster::spawn(1, 2);
    let store = &cluster.store;
    store.create_table(TableSpec::new("t").parts(2)).unwrap();
    assert!(matches!(
        store.bind_combiner("t", &CombinerSpec::new("no-such-fold")),
        Err(KvError::NoSuchCombiner { name }) if name == "no-such-fold"
    ));
}

/// The engine's spill path ships message traffic as coalesced batches:
/// a messaging job over the loopback cluster records `net_batches`, and
/// far fewer RPCs than messages.
#[test]
fn engine_spills_travel_as_batches() {
    const KEYS: u32 = 12;
    let job = SimpleJob::<u32, u64, u64>::builder("fanin")
        .compute(|ctx| {
            let sum: u64 = ctx.messages().iter().sum();
            ctx.write_state(0, &sum)?;
            if ctx.step() < 3 {
                // Everyone messages everyone: a dense all-to-all spill.
                for k in 0..KEYS {
                    ctx.send(k, u64::from(*ctx.key()) + 1);
                }
            }
            Ok(false)
        })
        .combine(|_, into, msg| {
            *into += msg;
            None
        })
        .build();
    let cluster = LoopbackCluster::spawn(2, 4);
    let outcome = JobRunner::new(cluster.store.clone())
        .launch(
            Arc::new(job),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<SimpleJob<u32, u64, u64>>| {
                    for k in 0..KEYS {
                        sink.message(k, 0)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap();
    let m = &outcome.metrics.store;
    assert!(m.net_batches > 0, "spills must ride REQ_PUT_BATCH: {m:?}");
    assert!(
        m.rpcs < outcome.metrics.messages_sent,
        "batching must keep RPCs below one per message ({} rpcs for {} messages)",
        m.rpcs,
        outcome.metrics.messages_sent
    );
    // The source-side pre-combine collapsed the all-to-all fan-in.
    assert!(outcome.metrics.messages_combined > 0);
}
