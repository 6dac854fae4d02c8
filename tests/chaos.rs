//! Seeded chaos testing (the ISSUE's differential-oracle criterion):
//! incremental SSSP runs to completion under a randomized [`FaultPlan`] —
//! transient store faults absorbed by the retry policy, a scripted part
//! crash absorbed by checkpoint recovery — and its output, and both of
//! its state tables byte for byte, are compared against a fault-free run
//! on the minimal reference store.  The same seed must also reproduce the
//! exact same injected-fault trace.

use proptest::prelude::*;
use ripple::graph::generate::{GraphChange, MutableGraph};
use ripple::graph::sssp::{adjacency_table, bfs_oracle, SelectiveInstance};
use ripple::kv::KvStore;
use ripple::store::{FaultPlan, MemStore};
use ripple::store_simple::SimpleStore;

const TABLE: &str = "sel_chaos";

/// The pairs of the instance's two state tables, as bytes, sorted.
fn tables<S: KvStore>(store: &S) -> [Vec<(Vec<u8>, Vec<u8>)>; 2] {
    [TABLE.to_owned(), adjacency_table(TABLE)].map(|name| {
        let handle = store.lookup_table(&name).unwrap();
        let mut pairs: Vec<_> = store
            .snapshot_table(&handle)
            .unwrap()
            .iter()
            .map(|(key, value)| (key.body().to_vec(), value.to_vec()))
            .collect();
        pairs.sort();
        pairs
    })
}

/// A store whose views fail transiently at a low rate and whose part 0
/// crashes at the `crash_at`-th operation, all derived from `seed`.
fn chaos_store(seed: u64, crash_at: u64) -> MemStore {
    let plan = FaultPlan::seeded(seed)
        .transient_ops(0.03)
        .crash_part(0, crash_at);
    MemStore::builder()
        .default_parts(3)
        .fault_plan(plan)
        .build()
}

/// Pin one dense configuration and check the chaos machinery actually
/// engages: transient faults are injected (and retried away), the part-0
/// crash fires, and the run still matches the fault-free reference.
#[test]
fn chaos_machinery_engages_on_a_dense_run() {
    let n = 24u32;
    let mut graph = MutableGraph::new(n);
    for v in 0..n - 1 {
        graph.apply(GraphChange::AddEdge(v, v + 1));
    }
    let initial_graph = graph.graph().clone();
    let batch = vec![GraphChange::RemoveEdge(10, 11), GraphChange::AddEdge(0, 20)];
    for c in &batch {
        graph.apply(*c);
    }

    let simple = SimpleStore::new(3);
    let (reference, _) = SelectiveInstance::initialize(&simple, TABLE, &initial_graph, 0).unwrap();
    reference.apply_batch(&batch).unwrap();
    let expected = reference.distances().unwrap();

    let store = chaos_store(7, 40);
    let (inst, init_metrics) =
        SelectiveInstance::initialize_recoverable(&store, TABLE, &initial_graph, 0, 1).unwrap();
    let update_metrics = inst.apply_batch_recoverable(&batch, 1).unwrap();
    assert_eq!(inst.distances().unwrap(), expected);
    assert_eq!(tables(&store), tables(&simple));

    let trace = store.fault_trace();
    assert!(
        trace
            .iter()
            .any(|r| r.kind == ripple::store::FaultKind::Transient),
        "a 3% transient rate over a dense run must inject something: {trace:?}"
    );
    assert!(
        trace
            .iter()
            .any(|r| r.kind == ripple::store::FaultKind::Crash),
        "the scripted crash at op 40 must fire: {trace:?}"
    );
    let retries = init_metrics.retries + update_metrics.retries;
    assert!(retries >= 1, "injected transients must surface as retries");
    let recoveries = init_metrics.recoveries + update_metrics.recoveries;
    assert!(recoveries >= 1, "the crash must surface as a recovery");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn chaos_sssp_matches_fault_free_reference(
        n in 6u32..20,
        initial in prop::collection::vec((0u32..20, 0u32..20), 0..30),
        batch in prop::collection::vec((any::<bool>(), 0u32..20, 0u32..20), 1..8),
        fault_seed in 0u64..1_000,
        crash_at in 1u64..400,
    ) {
        let mut graph = MutableGraph::new(n);
        for (u, v) in initial {
            if u < n && v < n {
                graph.apply(GraphChange::AddEdge(u, v));
            }
        }
        let initial_graph = graph.graph().clone();
        let batch: Vec<GraphChange> = batch
            .into_iter()
            .filter(|(_, u, v)| *u < n && *v < n)
            .map(|(add, u, v)| if add {
                GraphChange::AddEdge(u, v)
            } else {
                GraphChange::RemoveEdge(u, v)
            })
            .collect();
        for c in &batch {
            graph.apply(*c);
        }

        // Differential oracle: the same workload, fault-free, on the
        // minimal reference store.
        let simple = SimpleStore::new(3);
        let (reference, _) =
            SelectiveInstance::initialize(&simple, TABLE, &initial_graph, 0).unwrap();
        reference.apply_batch(&batch).unwrap();
        let expected = reference.distances().unwrap();

        // Chaos runs: checkpoint every barrier, recover through whatever
        // the plan injects.
        let run = || {
            let store = chaos_store(fault_seed, crash_at);
            let (inst, _) = SelectiveInstance::initialize_recoverable(
                &store,
                TABLE,
                &initial_graph,
                0,
                1,
            )
            .unwrap();
            inst.apply_batch_recoverable(&batch, 1).unwrap();
            (inst.distances().unwrap(), store.fault_trace(), tables(&store))
        };
        let (got, trace, got_tables) = run();
        let (got_again, trace_again, _) = run();

        prop_assert_eq!(&got, &expected, "chaos run diverged from the reference store");
        prop_assert_eq!(got_tables, tables(&simple), "state tables diverged");
        let oracle = bfs_oracle(&graph, 0);
        for (v, d) in &got {
            prop_assert_eq!(*d, oracle[*v as usize], "vertex {} off the BFS oracle", v);
        }
        prop_assert_eq!(got, got_again, "same seed must reach the same output");
        prop_assert_eq!(
            trace, trace_again,
            "same seed must inject the exact same fault trace"
        );
    }
}
