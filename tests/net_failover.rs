//! Barrier-consistent recovery over replicated part servers, end to end:
//! a 4-part PageRank whose primary part server for one slot is killed
//! mid-superstep completes via replica promotion, and its output is
//! **byte-identical** to the fault-free in-process run.  The failover is
//! visible everywhere the issue demands it: the store metrics, the step
//! profiles, the profile JSON, and the run observer.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ripple::ebsp::{step_profiles_json, AggregateSnapshot, RunObserver};
use ripple::graph::generate::power_law_graph;
use ripple::graph::pagerank::{read_ranks, run_direct, run_direct_on, PageRankConfig};
use ripple::prelude::*;
use ripple::store_net::{LoopbackCluster, NetConfig};

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

/// Aborts a primary part server at a fixed step, and records the
/// failure-detector callbacks the store surfaces through the observer.
struct PrimaryKiller {
    victim: Arc<ripple::store_net::ServerHandle>,
    kill_at: u32,
    killed: AtomicBool,
    part_downs: AtomicU64,
    failovers: AtomicU64,
}

impl RunObserver for PrimaryKiller {
    fn on_step(&self, step: u32, _enabled: u64, _aggregates: &AggregateSnapshot) {
        if step >= self.kill_at && !self.killed.swap(true, Ordering::SeqCst) {
            self.victim.abort();
        }
    }
    fn on_part_down(&self, _part: u32, _epoch: u64) {
        self.part_downs.fetch_add(1, Ordering::SeqCst);
    }
    fn on_failover(&self, _part: u32, _epoch: u64) {
        self.failovers.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn pagerank_survives_primary_kill_mid_superstep_byte_for_byte() {
    let parts = 4u32;
    let replicas = 2usize;
    let graph = power_law_graph(300, 3000, 0.8, 0xA11CE);
    let config = PageRankConfig {
        damping: 0.85,
        iterations: 10,
    };

    // Fault-free local reference run.
    let local_store = MemStore::builder().default_parts(parts).build();
    let local = run_direct(&local_store, "pr", &graph, config).expect("local run");

    // Replicated cluster: 4 slots x (primary + 1 standby).  Pull slot 1's
    // initial primary out of the cluster so the observer can kill it from
    // inside the run; handles are slot-major, so that is index 1*2+0 = 2.
    let mut cluster =
        LoopbackCluster::spawn_replicated(parts as usize, replicas, parts, &NetConfig::default());
    let victim = Arc::new(cluster.handles.remove(replicas));
    let killer = Arc::new(PrimaryKiller {
        victim: Arc::clone(&victim),
        kill_at: 3,
        killed: AtomicBool::new(false),
        part_downs: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
    });

    let mut runner = JobRunner::new(cluster.store.clone());
    runner.profile(true);
    runner.observer(Arc::clone(&killer) as Arc<dyn RunObserver>);
    let remote = run_direct_on(&runner, "pr", &graph, config).expect("run with primary kill");

    assert!(killer.killed.load(Ordering::SeqCst), "victim never killed");

    // Same iterative structure, byte-identical ranks: the promoted
    // replica replayed the interrupted work to the same result.
    assert_eq!(remote.steps, local.steps);
    let local_ranks = rank_bits(&local_store, "pr");
    let remote_ranks = rank_bits(&cluster.store, "pr");
    assert_eq!(remote_ranks.len(), 300);
    assert_eq!(remote_ranks, local_ranks, "ranks diverged after failover");

    // The failover is visible in the store totals...
    let m = cluster.store.metrics();
    assert!(m.failovers >= 1, "no failover counted: {m}");

    // ...in the step profiles and the JSON the bench bins emit...
    let profiles = remote.profiles.as_deref().expect("profiling was on");
    let failovers: u64 = profiles.iter().map(|p| p.store.failovers).sum();
    assert!(failovers >= 1, "failover missing from step profiles");
    let json = step_profiles_json(profiles);
    assert!(json.contains("\"failovers\":"));
    assert!(json.contains("\"retries\":"));
    assert!(json.contains("\"reconnects\":"));

    // ...and through the observer, via the store event sink the runner
    // installs.
    assert!(
        killer.failovers.load(Ordering::SeqCst) >= 1,
        "observer missed the failover"
    );
    assert!(
        killer.part_downs.load(Ordering::SeqCst) >= 1,
        "observer missed the part-down"
    );
}
