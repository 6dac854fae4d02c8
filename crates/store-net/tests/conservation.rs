//! Conservation: on a recovery-free profiled run, per-step profiles must
//! tile the run exactly — Σ step counters equals the run-level
//! [`RunMetrics`] work counters, and Σ per-step store deltas equals the
//! run-level store delta, field by field, network counters included.
//!
//! This is the invariant the BSP cost model stands on: `CostModel` prices
//! a run by summing per-step `w`/`h`/`l` terms, which is only meaningful
//! if the steps account for all the work and all the traffic.  The same
//! harness runs against the in-process store and the networked loopback
//! cluster; the disk backend's copy lives in `ripple-store-disk`'s tests.

use std::sync::Arc;

use ripple_core::{
    useful_h_bytes, CostModel, FnLoader, JobRunner, LoadSink, RunOptions, RunOutcome, SimpleJob,
};
use ripple_kv::{KvStore, StoreMetrics};
use ripple_store_mem::MemStore;
use ripple_store_net::LoopbackCluster;

const KEYS: u32 = 9;

type RingRelay = SimpleJob<u32, u32, u32>;

/// Every key forwards a decrementing hop count to the next key each step,
/// so every step has cross-part messages, state reads, and state writes.
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

fn run_profiled<S: KvStore>(store: S, name: &str) -> RunOutcome {
    let mut runner = JobRunner::new(store);
    runner.profile(true);
    runner
        .launch(
            Arc::new(ring_relay(name)),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<RingRelay>| {
                    for k in 0..KEYS {
                        sink.message(k, 5)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap()
}

/// Σ step counters == run counters and Σ step store deltas == run store
/// delta, every field.  Shared by the mem and net variants below.
fn assert_conserves(outcome: &RunOutcome) {
    let m = &outcome.metrics;
    assert_eq!(m.recoveries, 0, "conservation only holds recovery-free");
    let profiles = outcome.profiles.as_deref().expect("profiling was on");
    assert_eq!(profiles.len(), outcome.steps as usize);

    let count = |f: fn(&ripple_core::StepProfile) -> u64| profiles.iter().map(f).sum::<u64>();
    assert_eq!(count(|p| p.counters.invocations), m.invocations);
    assert_eq!(count(|p| p.counters.messages_sent), m.messages_sent);
    assert_eq!(count(|p| p.counters.state_reads), m.state_reads);
    assert_eq!(count(|p| p.counters.state_writes), m.state_writes);
    assert_eq!(count(|p| p.counters.state_deletes), m.state_deletes);
    assert_eq!(count(|p| p.counters.creates), m.creates);
    assert_eq!(count(|p| p.counters.direct_outputs), m.direct_outputs);

    // Store deltas telescope: each step's interval ends where the next
    // begins and the first begins at the run baseline, so the sum is the
    // run-level delta exactly — including the network counters, which is
    // what makes the per-step h-relation trustworthy.
    let sum = profiles
        .iter()
        .fold(StoreMetrics::default(), |sum, p| sum + p.store);
    assert_eq!(sum, m.store, "per-step store deltas must tile the run");

    // The derived cost model's h totals are the same sums, so they are
    // conserved by construction — pin that down too.
    let cost = CostModel::derive(profiles);
    assert_eq!(
        cost.total_h_bytes(),
        profiles
            .iter()
            .map(|p| useful_h_bytes(&p.store))
            .sum::<u64>()
    );
}

#[test]
fn mem_run_conserves_counters_and_store_deltas() {
    let outcome = run_profiled(MemStore::builder().default_parts(3).build(), "ring_mem");
    assert_conserves(&outcome);
    assert!(outcome.steps >= 5, "the relay runs one step per hop");
    assert_eq!(outcome.metrics.store.rpcs, 0, "mem store never does RPC");
}

#[test]
fn net_run_conserves_counters_and_store_deltas() {
    let cluster = LoopbackCluster::spawn(2, 4);
    let outcome = run_profiled(cluster.store.clone(), "ring_net");
    assert_conserves(&outcome);
    let m = &outcome.metrics.store;
    assert!(m.rpcs > 0, "the loopback cluster serves over RPC");
    assert!(m.net_bytes_out > 0 && m.net_bytes_in > 0);
    assert_eq!(m.retry_bytes, 0, "no chaos, so no retry traffic");
    // On a networked backend the useful h-relation is wire bytes.
    let profiles = outcome.profiles.as_deref().unwrap();
    let cost = CostModel::derive(profiles);
    assert_eq!(
        cost.total_h_bytes(),
        m.net_bytes_in + m.net_bytes_out,
        "useful h-bytes on a clean run are exactly the wire bytes"
    );
}
