//! What a serving tenant *answers*, held to a BFS oracle and to its own
//! state table: after each change batch becomes visible, every vertex's
//! `query` must give the oracle's distance over the mutated graph and the
//! distance the live table holds, at monotonic versions — on every backend,
//! and under transient store faults.

#![expect(clippy::disallowed_methods, reason = "waits for a wave to land")]

use std::time::Duration;

use ripple::graph::generate::{random_change_batch, random_undirected};
use ripple::graph::sssp::{bfs_oracle, distances_from_snapshot};
use ripple::kv::KvStore;
use ripple::server::{JobServer, JobSpec, ServerConfig, ServingSssp};
use ripple::store::{FaultPlan, MemStore};
use ripple::store_disk::{testutil::TempDir, DiskStore};
use ripple::store_net::LoopbackCluster;

const N: u32 = 300;
const PARTS: u32 = 4;
const BATCHES: u64 = 4;
const NAME: &str = "serve";

/// Waits until wave `wave` is visible to queries.
fn wait_visible(serving: &ServingSssp, wave: u64) {
    for _ in 0..20_000 {
        if serving.visible(wave) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!(
        "wave {wave} never became visible: {} waves, version {}",
        serving.waves(),
        serving.version()
    );
}

/// Runs the batches and checks every answer after each; returns how many
/// store faults `faults` (a running count) saw while the waves ran.
fn served_answers_match_the_oracle<S: KvStore>(store: S, faults: impl Fn() -> usize) -> usize {
    let mut graph = random_undirected(N, 1_200, 0.8, 0x5EED);
    let server = JobServer::single(ServerConfig::with_workers(3), store);
    let serving = ServingSssp::start(&server, NAME, &JobSpec::new(PARTS), graph.graph(), 0)
        .expect("start serving");
    let table = server
        .store()
        .lookup_table(&format!("{NAME}__sssp"))
        .expect("serving table");
    let faults_at_load = faults();
    let mut last_version = 0;
    for wave in 0..=BATCHES {
        if wave > 0 {
            let batch = random_change_batch(N, 30, 0.8, 0xBA7C + wave);
            for c in &batch {
                graph.apply(*c);
            }
            assert_eq!(serving.push_batch(&batch), batch.len());
            wait_visible(&serving, wave);
        }
        let oracle = bfs_oracle(&graph, 0);
        let snapshot = server.store().snapshot_table(&table).expect("snapshot");
        let stored = distances_from_snapshot(&snapshot).expect("decode");
        assert_eq!(stored.len(), N as usize, "the table holds every vertex");
        for (v, stored_dist) in stored {
            let answer = serving.query(v);
            assert_eq!(
                answer.dist,
                Some(oracle[v as usize]),
                "wave {wave}: served distance of {v} diverged from BFS"
            );
            assert_eq!(
                answer.dist,
                Some(stored_dist),
                "wave {wave}: served distance of {v} diverged from the table"
            );
            assert!(answer.version >= last_version, "versions must be monotonic");
            last_version = answer.version;
        }
        assert_eq!(serving.query(N).dist, None, "no vertex beyond the graph");
    }
    let report = serving.finish().expect("finish serving");
    assert_eq!(report.waves, BATCHES);
    assert_eq!(report.refresh_errors, 0);
    assert_eq!(report.final_version, last_version);
    // The version contract: one refresh per barrier and per launch.
    let account = server.account(NAME).expect("serving tenant has an account");
    assert_eq!(
        report.final_version,
        account.steps + account.launches,
        "the version must bump once per barrier and once per launch"
    );
    assert_eq!(report.refreshes, report.final_version);
    faults() - faults_at_load
}

#[test]
fn served_answers_match_the_oracle_on_mem() {
    served_answers_match_the_oracle(MemStore::builder().default_parts(PARTS).build(), || 0);
}

#[test]
fn served_answers_match_the_oracle_on_disk() {
    let dir = TempDir::new("serving-oracle");
    let store = DiskStore::builder()
        .default_parts(PARTS)
        .open(dir.path())
        .expect("open disk store");
    served_answers_match_the_oracle(store, || 0);
}

#[test]
fn served_answers_match_the_oracle_on_net() {
    let cluster = LoopbackCluster::spawn(2, PARTS);
    served_answers_match_the_oracle(cluster.store.clone(), || 0);
}

/// Store calls that fail transiently are retried one call at a time, so
/// a serving tenant whose waves meet such faults must still answer the
/// oracle's distances.  The rate is per store call, a batched read being
/// one call as it is retried as one; the test asserts that some of the
/// faults land in the waves, not all in the initial load.
#[test]
fn served_answers_match_the_oracle_when_store_calls_are_retried() {
    let store = MemStore::builder()
        .default_parts(PARTS)
        .fault_plan(FaultPlan::seeded(7).transient_ops(0.005))
        .build();
    let faulty = store.clone();
    let during_waves = served_answers_match_the_oracle(store, || faulty.fault_trace().len());
    assert!(
        during_waves > 0,
        "the plan must inject faults into the waves"
    );
}
