//! Conservation on the durable backend: on a recovery-free profiled run,
//! per-step profiles must tile the run — Σ step counters equals the
//! run-level [`RunMetrics`] work counters and Σ per-step store deltas
//! equals the run-level store delta, field by field, WAL and fsync
//! counters included.
//!
//! The in-process and networked copies of this invariant live in
//! `ripple-store-net`'s tests; this one pins down the disk-only fields
//! the BSP cost model's per-step h-relation rides on.

use std::sync::Arc;

use ripple_core::{FnLoader, JobRunner, LoadSink, RunOptions, SimpleJob};
use ripple_kv::StoreMetrics;
use ripple_store_disk::{testutil::TempDir, DiskStore};

const KEYS: u32 = 9;

type RingRelay = SimpleJob<u32, u32, u32>;

fn ring_relay(name: &str) -> RingRelay {
    SimpleJob::<u32, u32, u32>::builder(name)
        .compute(|ctx| {
            let me = *ctx.key();
            let seen = ctx.read_state(0)?.unwrap_or(0);
            let hops = ctx.messages().iter().copied().max().unwrap_or(0);
            ctx.write_state(0, &(seen + 1))?;
            if hops > 0 {
                ctx.send((me + 1) % KEYS, hops - 1);
            }
            Ok(false)
        })
        .build()
}

#[test]
fn disk_run_conserves_counters_and_store_deltas() {
    let dir = TempDir::new("conservation");
    let store = DiskStore::builder()
        .default_parts(3)
        .open(dir.path())
        .expect("open disk store");
    let mut runner = JobRunner::new(store);
    runner.profile(true);
    let outcome = runner
        .launch(
            Arc::new(ring_relay("ring_disk")),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<RingRelay>| {
                    for k in 0..KEYS {
                        sink.message(k, 5)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap();

    let m = &outcome.metrics;
    assert_eq!(m.recoveries, 0, "conservation only holds recovery-free");
    let profiles = outcome.profiles.as_deref().expect("profiling was on");
    assert_eq!(profiles.len(), outcome.steps as usize);
    assert!(outcome.steps >= 5, "the relay runs one step per hop");

    let count = |f: fn(&ripple_core::StepProfile) -> u64| profiles.iter().map(f).sum::<u64>();
    assert_eq!(count(|p| p.counters.invocations), m.invocations);
    assert_eq!(count(|p| p.counters.messages_sent), m.messages_sent);
    assert_eq!(count(|p| p.counters.state_reads), m.state_reads);
    assert_eq!(count(|p| p.counters.state_writes), m.state_writes);
    assert_eq!(count(|p| p.counters.state_deletes), m.state_deletes);
    assert_eq!(count(|p| p.counters.creates), m.creates);
    assert_eq!(count(|p| p.counters.direct_outputs), m.direct_outputs);

    let sum = profiles
        .iter()
        .fold(StoreMetrics::default(), |sum, p| sum + p.store);
    assert_eq!(sum, m.store, "per-step store deltas must tile the run");
    assert!(m.store.wal_bytes > 0, "state writes must hit the WAL");
}
