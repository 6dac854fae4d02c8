//! The distributability claim, end to end: a 4-part PageRank run through
//! [`NetStore`] over loopback TCP part servers produces **byte-identical**
//! output to the same job on the in-process `MemStore`, and the run's
//! step profiles report real network activity (`rpcs`, `net_bytes_in`,
//! `net_bytes_out`) — in a number of round trips set by steps × parts,
//! not by the size of the graph.

use ripple::ebsp::step_profiles_json;
use ripple::graph::generate::{power_law_graph, Graph};
use ripple::graph::pagerank::{
    read_ranks, run_direct, run_direct_on, run_mapreduce_variant, PageRankConfig,
};
use ripple::prelude::*;

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

#[test]
fn pagerank_over_loopback_matches_memstore_byte_for_byte() {
    let parts = 4u32;
    let graph = power_law_graph(300, 3000, 0.8, 0xA11CE);
    let config = PageRankConfig {
        damping: 0.85,
        iterations: 10,
    };

    // Local reference run.
    let local_store = MemStore::builder().default_parts(parts).build();
    let local = run_direct(&local_store, "pr", &graph, config).expect("local run");

    // The same job over a loopback cluster, profiled so the step profiles
    // capture the store counter deltas.
    let cluster = LoopbackCluster::spawn(parts as usize, parts);
    let mut runner = JobRunner::new(cluster.store.clone());
    runner.profile(true);
    let remote = run_direct_on(&runner, "pr", &graph, config).expect("remote run");

    // Identical iterative structure...
    assert_eq!(remote.steps, local.steps);
    assert_eq!(remote.metrics.invocations, local.metrics.invocations);
    assert_eq!(remote.metrics.barriers, local.metrics.barriers);

    // ...and byte-identical ranks.
    let local_ranks = rank_bits(&local_store, "pr");
    let remote_ranks = rank_bits(&cluster.store, "pr");
    assert_eq!(local_ranks.len(), 300);
    assert_eq!(remote_ranks, local_ranks, "ranks diverged across the wire");

    // The remote run really crossed the network: the per-step profiles
    // carry non-zero RPC and byte counters, and they surface in the
    // profile JSON the bench bins write.
    let profiles = remote.profiles.as_deref().expect("profiling was on");
    assert!(!profiles.is_empty());
    let rpcs: u64 = profiles.iter().map(|p| p.store.rpcs).sum();
    let bytes_in: u64 = profiles.iter().map(|p| p.store.net_bytes_in).sum();
    let bytes_out: u64 = profiles.iter().map(|p| p.store.net_bytes_out).sum();
    assert!(rpcs > 0, "no rpcs recorded in step profiles");
    assert!(bytes_in > 0, "no inbound bytes recorded in step profiles");
    assert!(bytes_out > 0, "no outbound bytes recorded in step profiles");

    let json = step_profiles_json(profiles);
    assert!(json.contains("\"rpcs\":"));
    assert!(json.contains("\"net_bytes_in\":"));
    assert!(json.contains("\"net_bytes_out\":"));

    // Whole-store totals agree with the claim too.
    let m = cluster.store.metrics();
    assert!(m.rpcs > 0 && m.net_bytes_in > 0 && m.net_bytes_out > 0);
}

/// The state-heavy variant: MapReduce-style PageRank round-trips every
/// vertex through the state table each iteration (33 000 reads and as many
/// writes here), all of it through the engine's read-ahead/write-behind
/// state plane — over the wire as batch frames, in process as batch calls,
/// byte-identical either way.
#[test]
fn mapreduce_pagerank_over_loopback_matches_memstore_byte_for_byte() {
    let parts = 4u32;
    let graph = power_law_graph(3300, 20_000, 0.8, 0xA11CE);
    let config = PageRankConfig {
        damping: 0.85,
        iterations: 10,
    };

    let local_store = MemStore::builder().default_parts(parts).build();
    let local = run_mapreduce_variant(&local_store, "pr", &graph, config).expect("local run");
    assert_eq!(local.metrics.state_reads, 33_000);
    assert_eq!(local.metrics.state_writes, 33_000);

    let cluster = LoopbackCluster::spawn(parts as usize, parts);
    let remote = run_mapreduce_variant(&cluster.store, "pr", &graph, config).expect("remote run");

    assert_eq!(remote.steps, local.steps);
    assert_eq!(remote.metrics.invocations, local.metrics.invocations);
    assert_eq!(remote.metrics.state_reads, local.metrics.state_reads);
    assert_eq!(remote.metrics.state_writes, local.metrics.state_writes);
    let local_ranks = rank_bits(&local_store, "pr");
    assert_eq!(local_ranks.len(), 3300);
    assert_eq!(
        rank_bits(&cluster.store, "pr"),
        local_ranks,
        "ranks diverged across the wire"
    );
}

/// The RPC budget: every store operation of a superstep is part-granular,
/// so a run costs round trips in proportion to steps × parts, whatever the
/// vertex count — as long as a part's states fit one read-ahead window and
/// one write-behind buffer, the count is *identical* across graph sizes.
///
/// The counts are exact pins, taken in the `table1` smoke configuration
/// (`--scale 2000 --iterations 3 --parts 4`: 100 vertices, 2 170 edges,
/// and the state-table name of its profiled ranking, `pr_profiled`, which
/// also names the run's transport tables — 80 of the requests carry one):
/// one more round trip or one more marshalled byte fails here.  A PR that
/// changes a count updates it in the same diff and says why.
#[test]
fn pagerank_rpc_count_is_set_by_steps_and_parts_not_by_vertices() {
    let parts = 4u32;
    let config = PageRankConfig {
        damping: 0.85,
        iterations: 3,
    };
    let table1 = power_law_graph(100, 2_170, 0.8, 0xA11CE);

    let mem = MemStore::builder().default_parts(parts).build();
    let local = run_direct(&mem, "pr_profiled", &table1, config).expect("mem run");
    let m = &local.metrics;
    assert_eq!(
        (
            local.steps,
            m.messages_sent,
            m.store.bytes_marshalled,
            m.store.tasks_dispatched
        ),
        (4, 6_810, 13_076, 16),
        "(steps, messages, marshalled bytes, part tasks) on mem"
    );

    let over_net = |graph: &Graph| {
        let cluster = LoopbackCluster::spawn(parts as usize, parts);
        let outcome = run_direct(&cluster.store, "pr_profiled", graph, config).expect("run");
        let vertices = u64::from(graph.vertex_count());
        assert_eq!(outcome.metrics.state_reads, vertices);
        assert_eq!(outcome.metrics.state_writes, vertices);
        assert_eq!(outcome.steps, 4);
        outcome.metrics.store
    };
    let net = over_net(&table1);
    assert_eq!(net.rpcs, 92);
    assert_eq!(net.net_bytes_in + net.net_bytes_out, 37_619);

    for vertices in [400, 1_600] {
        let graph = power_law_graph(vertices, u64::from(vertices) * 8, 0.8, 0xA11CE);
        assert_eq!(over_net(&graph).rpcs, 92, "rpcs grew with the vertex count");
    }
}
