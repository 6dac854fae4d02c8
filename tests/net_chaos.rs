//! Jobs under seeded network chaos: a deterministic fault-injecting proxy
//! sits between the client store and every part server, and the engine's
//! retry policy must absorb whatever it throws.  Every failure message
//! carries the seed (`replay with RIPPLE_CHAOS_SEED=<seed>`), and the
//! `RIPPLE_CHAOS_SEED` environment variable pins a single seed for
//! replay.
//!
//! The heavier PageRank sweep is `#[ignore]`d out of the default test
//! pass; the CI chaos job runs it with `--ignored`.

use std::time::Duration;

use ripple::ebsp::step_profiles_json;
use ripple::graph::generate::power_law_graph;
use ripple::graph::pagerank::{read_ranks, run_direct, run_direct_on, PageRankConfig};
use ripple::prelude::*;
use ripple::store_net::{ChaosCluster, NetConfig, NetFaultPlan};

/// Sorted (vertex, bit-exact rank) pairs — equality means byte-identical.
fn rank_bits<S: KvStore>(store: &S, table: &str) -> Vec<(u32, u64)> {
    let mut ranks: Vec<(u32, u64)> = read_ranks(store, table)
        .expect("read ranks")
        .into_iter()
        .map(|(v, r)| (v, r.to_bits()))
        .collect();
    ranks.sort_unstable();
    ranks
}

/// The seeds to sweep, or the single seed from `RIPPLE_CHAOS_SEED`.
fn seeds() -> Vec<u64> {
    match std::env::var("RIPPLE_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("RIPPLE_CHAOS_SEED must be a u64")],
        Err(_) => vec![0xB5D_0001, 0xB5D_0002, 0xB5D_0003],
    }
}

/// Mild chaos: delays hit every frame; the destructive faults target the
/// hot data plane (state reads/writes and drain acks), where each strike
/// severs a connection and the engine's retry policy must reconnect and
/// reissue.  The state plane moves that traffic in a few hundred batch
/// frames per run, not thousands of point ops, so the rates are per cent,
/// not per mille.
fn mild_plan(seed: u64) -> NetFaultPlan {
    NetFaultPlan::seeded(seed)
        .delay(10_000, Duration::from_micros(200))
        .corrupt(20_000)
        .on_kind(ripple::store_net::proto::REQ_GET_BATCH)
        .sever(10_000)
        .on_kind(ripple::store_net::proto::REQ_APPLY)
        .sever(10_000)
        .on_kind(ripple::store_net::proto::REQ_PUT_BATCH)
}

/// Fast default-pass test: a run whose frames are corrupted at a high
/// rate still completes through the engine's retry policy, and the step
/// profiles record the healing (retries/reconnects) that made it happen.
#[test]
fn pagerank_heals_corrupt_frames_via_retry_policy() {
    let seed: u64 = 0xC0DE;
    let parts = 2u32;
    let graph = power_law_graph(60, 400, 0.8, 0xBEEF);
    let config = PageRankConfig {
        damping: 0.85,
        iterations: 4,
    };
    let local_store = MemStore::builder().default_parts(parts).build();
    let local = run_direct(&local_store, "pr", &graph, config).expect("local run");

    // 15% of state reads/writes corrupted — the read-ahead get batches,
    // the write-behind state batches and the coalesced message batches
    // alike (a run this size moves them in ~50 frames): each strike
    // severs a connection, so the whole run exercises reconnect + retry
    // on the paths the engine retries (a replayed spill batch is
    // idempotent: its keys are unique per (step, src, seq); a replayed
    // state batch overwrites with the same values).
    let plan = NetFaultPlan::seeded(seed)
        .corrupt(150_000)
        .on_kind(ripple::store_net::proto::REQ_GET_BATCH)
        .corrupt(150_000)
        .on_kind(ripple::store_net::proto::REQ_PUT_BATCH);
    let cluster = ChaosCluster::spawn(parts as usize, parts, &plan, &NetConfig::default());
    let mut runner = JobRunner::new(cluster.store.clone());
    runner.profile(true);
    runner.retry_policy(RetryPolicy::default().max_attempts(12));
    let remote = run_direct_on(&runner, "pr", &graph, config)
        .unwrap_or_else(|e| panic!("chaos run failed: {e}; replay with RIPPLE_CHAOS_SEED={seed}"));

    assert_eq!(
        rank_bits(&cluster.store, "pr"),
        rank_bits(&local_store, "pr"),
        "ranks diverged under corruption; replay with RIPPLE_CHAOS_SEED={seed}"
    );
    assert_eq!(remote.steps, local.steps);
    assert!(
        !cluster.trace().is_empty(),
        "chaos proxy injected nothing; replay with RIPPLE_CHAOS_SEED={seed}"
    );
    // Healing is visible in the profile stream the bench bins export.
    let profiles = remote.profiles.as_deref().expect("profiling was on");
    let json = step_profiles_json(profiles);
    assert!(json.contains("\"retries\":"));
    let m = cluster.store.metrics();
    assert!(
        m.reconnects >= 1,
        "no reconnects under 15% corruption ({m}); replay with RIPPLE_CHAOS_SEED={seed}"
    );
}

/// CI chaos-job sweep: PageRank under the full mild fault mix (delays,
/// corruption, severs) across several seeds, each run byte-identical to
/// the fault-free reference.  Ignored in the default pass — run with
/// `cargo test --test net_chaos -- --ignored`.
#[test]
#[ignore = "chaos sweep; run by the dedicated CI chaos job"]
fn pagerank_under_mild_chaos_sweep() {
    let parts = 4u32;
    let graph = power_law_graph(200, 1500, 0.8, 0xA11CE);
    let config = PageRankConfig {
        damping: 0.85,
        iterations: 8,
    };
    let local_store = MemStore::builder().default_parts(parts).build();
    let local = run_direct(&local_store, "pr", &graph, config).expect("local run");
    let local_ranks = rank_bits(&local_store, "pr");

    for seed in seeds() {
        let cluster = ChaosCluster::spawn(
            parts as usize,
            parts,
            &mild_plan(seed),
            &NetConfig::default(),
        );
        let mut runner = JobRunner::new(cluster.store.clone());
        runner.retry_policy(RetryPolicy::default().max_attempts(12));
        let remote = run_direct_on(&runner, "pr", &graph, config).unwrap_or_else(|e| {
            panic!("chaos run failed: {e}; replay with RIPPLE_CHAOS_SEED={seed}")
        });
        assert_eq!(remote.steps, local.steps);
        assert_eq!(
            rank_bits(&cluster.store, "pr"),
            local_ranks,
            "ranks diverged under chaos; replay with RIPPLE_CHAOS_SEED={seed}"
        );
        assert!(
            !cluster.trace().is_empty(),
            "seed {seed} injected nothing; replay with RIPPLE_CHAOS_SEED={seed}"
        );
    }
}
