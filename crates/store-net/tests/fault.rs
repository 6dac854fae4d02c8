//! Fault injection: severing connections surfaces [`KvError::Transient`]
//! — the class both engines retry — and the store heals on the next
//! attempt by reconnecting lazily.

#![expect(clippy::disallowed_methods, reason = "a slow task must be cut")]

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ripple_core::{FnLoader, JobRunner, LoadSink, RetryPolicy, RunOptions, SimpleJob};
use ripple_kv::{KvError, KvStore, PartId, RoutedKey, Table, TableSpec, TaskRegistry};
use ripple_store_net::LoopbackCluster;

fn key(s: &str) -> RoutedKey {
    RoutedKey::from_body(Bytes::copy_from_slice(s.as_bytes()))
}

/// An in-flight request whose connection is severed fails transiently;
/// reissuing the same operation succeeds over a fresh connection.
#[test]
fn severed_in_flight_request_is_transient_and_retryable() {
    let registry = TaskRegistry::default();
    registry.register("slow-echo", |_view, arg: Bytes| {
        std::thread::sleep(Duration::from_millis(400));
        Ok(arg)
    });
    let cluster = LoopbackCluster::spawn_with_registry(2, 4, &registry);
    let store = &cluster.store;
    let t = store.create_table(TableSpec::new("t").parts(4)).unwrap();
    t.put(key("a"), Bytes::from_static(b"1")).unwrap();

    // Dispatch a slow task, then cut every connection while it is in
    // flight: the handle must resolve to a transient error.
    let handle = store.run_named_at(&t, PartId(1), "slow-echo", Bytes::from_static(b"ping"));
    std::thread::sleep(Duration::from_millis(50));
    store.sever_connections();
    let result = handle.join().unwrap();
    let err = result.expect_err("severed request should fail");
    assert!(
        matches!(err, KvError::Transient { .. }),
        "expected a transient error, got {err}"
    );
    assert!(err.is_transient(), "retry policies must classify it");

    // The retry: the same dispatch on a fresh attempt succeeds, as do
    // ordinary data operations — the pool reconnected underneath.
    let healed = store
        .run_named_at(&t, PartId(1), "slow-echo", Bytes::from_static(b"ping"))
        .join()
        .unwrap()
        .unwrap();
    assert_eq!(healed, Bytes::from_static(b"ping"));
    assert_eq!(t.get(&key("a")).unwrap(), Some(Bytes::from_static(b"1")));
}

type CountDown = SimpleJob<u32, u32, u32>;

/// A job whose compute severs every connection at a fixed invocation
/// still completes: the engine's retry policy re-issues the failed store
/// operations over fresh connections.
#[test]
fn engine_retry_heals_a_mid_step_sever() {
    let cluster = LoopbackCluster::spawn(2, 4);
    let store = cluster.store.clone();
    let sever_store = store.clone();
    let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let fire = Arc::clone(&fired);

    let job = SimpleJob::<u32, u32, u32>::builder("sever")
        .compute(move |ctx| {
            let v = ctx.read_state(0)?.unwrap_or(0);
            if v == 3 && !fire.swap(true, std::sync::atomic::Ordering::SeqCst) {
                // Mid-step: other parts have requests in flight right now.
                sever_store.sever_connections();
            }
            ctx.write_state(0, &v.saturating_sub(1))?;
            Ok(v > 1)
        })
        .build();
    let loader: Box<dyn ripple_core::Loader<CountDown>> =
        Box::new(FnLoader::new(move |sink: &mut dyn LoadSink<CountDown>| {
            for k in 0..8u32 {
                sink.state(0, k, 6)?;
                sink.enable(k)?;
            }
            Ok(())
        }));

    let outcome = JobRunner::new(store.clone())
        .retry_policy(
            RetryPolicy::default()
                .max_attempts(8)
                .base_delay(Duration::from_millis(5)),
        )
        .launch(Arc::new(job), RunOptions::new().loaders(vec![loader]))
        .unwrap();
    assert_eq!(outcome.steps, 6);
    assert!(fired.load(std::sync::atomic::Ordering::SeqCst));

    // The run's data survived the sever: all eight cells counted down.
    let state = store.lookup_table("sever").unwrap();
    assert!(state.len().unwrap() > 0);
}
