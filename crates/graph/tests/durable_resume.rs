//! Cross-restart resume: a durable SSSP solve hard-interrupted between
//! barriers picks up from its last durable commit after the store is
//! reopened, and finishes in exactly the state an uninterrupted solve
//! reaches: the same distances and both state tables byte for byte.

use ripple_core::EbspError;
use ripple_graph::generate::Graph;
use ripple_graph::sssp::{adjacency_table, SelectiveInstance};
use ripple_kv::{KvStore, SyncPolicy};
use ripple_store_disk::{testutil::TempDir, DiskStore};

/// The pairs of the instance in `table`'s two state tables, as bytes,
/// sorted.
fn tables(store: &DiskStore, table: &str) -> [Vec<(Vec<u8>, Vec<u8>)>; 2] {
    [table.to_owned(), adjacency_table(table)].map(|name| {
        let handle = store.lookup_table(&name).expect("table exists");
        let mut pairs: Vec<_> = store
            .snapshot_table(&handle)
            .expect("snapshot")
            .iter()
            .map(|(key, value)| (key.body().to_vec(), value.to_vec()))
            .collect();
        pairs.sort();
        pairs
    })
}

/// A path graph: the solve needs one step per hop, so a line of `n`
/// vertices guarantees a long multi-barrier run to interrupt.
fn line_graph(n: u32) -> Graph {
    let mut g = Graph::empty(n);
    for v in 0..n.saturating_sub(1) {
        g.add_edge(v, v + 1);
        g.add_edge(v + 1, v);
    }
    g
}

fn open(dir: &std::path::Path) -> DiskStore {
    DiskStore::builder()
        .default_parts(4)
        .sync_policy(SyncPolicy::EveryN(8))
        .open(dir)
        .expect("open disk store")
}

#[test]
fn interrupted_durable_solve_resumes_to_identical_distances() {
    let n = 40;
    let graph = line_graph(n);

    // Reference: one uninterrupted durable solve.
    let (expected, expected_tables, full_metrics) = {
        let tmp = TempDir::new("durable-ref");
        let store = open(tmp.path());
        let (sssp, metrics) =
            SelectiveInstance::initialize_durable(&store, "sssp", &graph, 0, 1, None)
                .expect("uninterrupted solve");
        assert!(
            metrics.durable_barriers > 0,
            "durable runs must commit barriers"
        );
        let distances = sssp.distances().expect("read distances");
        (distances, tables(&store, "sssp"), metrics)
    };
    assert_eq!(expected.len(), n as usize);
    assert_eq!(expected[n as usize - 1], (n - 1, n - 1), "line distances");

    // Interrupted run: the step limit aborts the solve mid-way, well past
    // several barriers but far from done...
    let tmp = TempDir::new("durable-resume");
    {
        let store = open(tmp.path());
        let err = match SelectiveInstance::<DiskStore>::initialize_durable(
            &store,
            "sssp",
            &graph,
            0,
            1,
            Some(5),
        ) {
            Err(e) => e,
            Ok(_) => panic!("5 steps cannot finish a 40-hop line"),
        };
        assert!(
            matches!(err, EbspError::StepLimitExceeded { limit: 5 }),
            "unexpected error: {err}"
        );
        // ...and the store is dropped without a flush: a crash, as far as
        // the files are concerned.
    }

    // Reopen and run again: the journal is found, the logs rewind to the
    // last durable barrier, the loader is skipped, and the solve finishes.
    let store = open(tmp.path());
    let (sssp, metrics) = SelectiveInstance::initialize_durable(&store, "sssp", &graph, 0, 1, None)
        .expect("resumed solve");
    assert!(metrics.durable_barriers > 0);
    // Step numbering is absolute, so the resumed run ends on the same
    // final step — but it must have *done* strictly less than the full
    // solve: fewer barrier commits and fewer compute invocations.
    assert_eq!(metrics.steps, full_metrics.steps);
    assert!(
        metrics.durable_barriers < full_metrics.durable_barriers,
        "resume re-committed every barrier ({} vs {})",
        metrics.durable_barriers,
        full_metrics.durable_barriers
    );
    assert!(
        metrics.invocations < full_metrics.invocations,
        "resume redid the whole solve ({} vs {} invocations)",
        metrics.invocations,
        full_metrics.invocations
    );
    assert_eq!(
        sssp.distances().expect("read distances"),
        expected,
        "resumed distances must be identical to an uninterrupted solve"
    );
    assert_eq!(
        tables(&store, "sssp"),
        expected_tables,
        "resumed state tables must be identical to an uninterrupted solve's"
    );

    // Running once more after success starts fresh (journal cleared) and
    // converges immediately to the same answer.
    let (sssp, _) = SelectiveInstance::initialize_durable(&store, "sssp2", &graph, 0, 1, None)
        .expect("fresh solve on the same store");
    assert_eq!(sssp.distances().expect("read distances"), expected);
}

#[test]
fn durable_solve_on_one_instance_can_resume_without_reopen() {
    // The resume path does not require a restart: an interrupted run can
    // continue on the same live store instance.
    let graph = line_graph(24);
    let tmp = TempDir::new("durable-live");
    let store = open(tmp.path());
    let err = match SelectiveInstance::<DiskStore>::initialize_durable(
        &store,
        "sssp",
        &graph,
        0,
        2,
        Some(4),
    ) {
        Err(e) => e,
        Ok(_) => panic!("4 steps cannot finish a 24-hop line"),
    };
    assert!(matches!(err, EbspError::StepLimitExceeded { limit: 4 }));

    let (sssp, _) = SelectiveInstance::initialize_durable(&store, "sssp", &graph, 0, 2, None)
        .expect("live resume");
    let dists = sssp.distances().expect("read distances");
    for (v, d) in dists {
        assert_eq!(d, v, "line graph distance from source 0");
    }
}
