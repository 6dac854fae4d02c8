//! The store decorator must be invisible to the program: same bytes out,
//! and exactly the calls the inner store and the engine count themselves.

use ripple_benchmark::trace::{names, TracedStore, Tracer};
use ripple_graph::generate::power_law_graph;
use ripple_graph::pagerank::{read_ranks, run_direct, PageRankConfig};
use ripple_kv::KvStore;
use ripple_store_mem::MemStore;

fn store() -> MemStore {
    MemStore::builder().default_parts(2).build()
}

#[test]
fn pagerank_through_the_decorator_is_byte_identical_and_fully_counted() {
    let graph = power_law_graph(200, 3_000, 0.8, 5);
    let config = PageRankConfig {
        damping: 0.85,
        iterations: 5,
    };

    let plain = store();
    run_direct(&plain, "pr", &graph, config).expect("plain run");
    let plain_ranks = read_ranks(&plain, "pr").expect("plain ranks");

    let inner = store();
    let tracer = Tracer::enabled();
    let traced = TracedStore::new(inner.clone(), tracer.clone());
    let before = inner.metrics();
    let outcome = run_direct(&traced, "pr", &graph, config).expect("traced run");
    let delta = inner.metrics() - before;
    let spans = tracer.spans();
    let traced_ranks = read_ranks(&traced, "pr").expect("traced ranks");

    let bits = |ranks: &[(u32, f64)]| -> Vec<(u32, u64)> {
        ranks.iter().map(|(v, r)| (*v, r.to_bits())).collect()
    };
    assert_eq!(
        bits(&plain_ranks),
        bits(&traced_ranks),
        "ranks differ bitwise"
    );

    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
    // Every part task and every enumeration the inner store counted went
    // through the decorator, and nothing else did.
    assert_eq!(count(names::RUN_AT), delta.tasks_dispatched);
    assert_eq!(count(names::SCAN) + count(names::DRAIN), delta.enumerations);
    // The mem store counts one operation per point call and one per batch
    // it applies (a table-level batch is one per destination part).
    assert_eq!(
        count(names::GET) + count(names::PUT) + count(names::DELETE) + delta.net_batches,
        delta.total_ops(),
    );
    // The engine's own account of the same run agrees with both.
    assert_eq!(
        outcome.metrics.store.tasks_dispatched,
        delta.tasks_dispatched
    );
    assert_eq!(count(names::GET), outcome.metrics.state_reads);
    let loaded = u64::from(graph.vertex_count());
    assert_eq!(count(names::PUT), loaded + outcome.metrics.state_writes);
    // Spans nest: every task ran under the launch, every point call under a
    // task or the driver.
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert!(spans.iter().filter(|s| s.name == names::GET).all(|s| spans
        .iter()
        .any(|p| p.id == s.parent && p.name == names::RUN_AT)));
}

#[test]
fn a_disabled_tracer_records_nothing() {
    let tracer = Tracer::disabled();
    let traced = TracedStore::new(store(), tracer.clone());
    let graph = power_law_graph(50, 300, 0.8, 6);
    run_direct(&traced, "pr", &graph, PageRankConfig::default()).expect("run");
    assert!(tracer.spans().is_empty());
}
