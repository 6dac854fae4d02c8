//! The edit round that applies a change batch at the parts, held to the
//! driver-side edits it replaced.  `spec_seed_batch` and `spec_edit_fs`
//! below are those edits as they were — one `Table::get` per touched
//! endpoint and table, edits in change order on the joined `SelState`, and
//! one `put_batch` per table (selective) or a `put` per edit (full scan) —
//! and every backend must give, batch after batch, the same seed messages
//! in the same order, byte-identical state (the selective variant's two
//! tables joined into `SelState`s), and the same "a removal applied"
//! answer.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ripple::ebsp::{key_to_routed, FnLoader, JobRunner, LoadSink, RunOptions};
use ripple::graph::generate::{random_change_batch, random_undirected, GraphChange};
use ripple::graph::sssp::{
    adjacency_table, FsState, FullScanInstance, Seed, SelState, SelectiveInstance, SelectiveSssp,
};
use ripple::graph::{VertexId, INF};
use ripple::kv::{KvStore, Table};
use ripple::store::{FaultKind, FaultPlan, MemStore};
use ripple::store_disk::{testutil::TempDir, DiskStore};
use ripple::store_net::LoopbackCluster;
use ripple::store_simple::SimpleStore;
use ripple::wire::{from_wire, to_wire};

const N: u32 = 60;
const PARTS: u32 = 4;

/// The selective variant's driver-side edit: reads each touched endpoint
/// once from both tables, edits the joined state in change order, writes
/// the edited ones with one `put_batch` per table, and returns the seeds.
fn spec_seed_batch<S: KvStore>(store: &S, table: &str, changes: &[GraphChange]) -> Vec<Seed> {
    let tables = [
        store.lookup_table(table).unwrap(),
        store.lookup_table(&adjacency_table(table)).unwrap(),
    ];
    let mut seeds = Vec::new();
    let mut touched: BTreeMap<VertexId, Option<(SelState, bool)>> = BTreeMap::new();
    let endpoint = |touched: &mut BTreeMap<VertexId, Option<(SelState, bool)>>, v| {
        if let Entry::Vacant(entry) = touched.entry(v) {
            let key = key_to_routed(&v);
            let [dists, adj] = [0, 1].map(|t| tables[t].get(&key).unwrap());
            entry.insert(dists.zip(adj).map(|(dists, adj)| {
                let (dists, adj) = (from_wire(&dists).unwrap(), from_wire(&adj).unwrap());
                (SelState::from_records(dists, adj).unwrap(), false)
            }));
        }
    };
    for change in changes {
        let (u, v) = change.endpoints();
        if u == v {
            continue;
        }
        let add = matches!(change, GraphChange::AddEdge(..));
        let mut applied = false;
        for (a, b) in [(u, v), (v, u)] {
            endpoint(&mut touched, a);
            if let Some(Some((state, edited))) = touched.get_mut(&a) {
                let done = if add {
                    sel_add(state, b)
                } else {
                    sel_remove(state, b)
                };
                if done {
                    *edited = true;
                    applied = true;
                }
            }
        }
        if applied {
            for (a, b) in [(u, v), (v, u)] {
                let dist = match &touched[&a] {
                    Some((state, _)) => state.dist,
                    None => INF,
                };
                seeds.push((b, (a, dist)));
            }
        }
    }
    let mut edited = [Vec::new(), Vec::new()];
    for (v, entry) in touched {
        if let Some((state, true)) = entry {
            for (column, record) in edited.iter_mut().zip(state.into_records()) {
                column.push((key_to_routed(&v), to_wire(&record)));
            }
        }
    }
    for (table, records) in tables.iter().zip(edited) {
        if !records.is_empty() {
            table.put_batch(records).unwrap();
        }
    }
    seeds
}

fn sel_add(s: &mut SelState, v: VertexId) -> bool {
    if s.neighbors.contains(&v) {
        return false;
    }
    s.neighbors.push(v);
    s.neighbor_dists.push(INF);
    true
}

fn sel_remove(s: &mut SelState, v: VertexId) -> bool {
    match s.neighbors.iter().position(|&x| x == v) {
        Some(i) => {
            s.neighbors.swap_remove(i);
            s.neighbor_dists.swap_remove(i);
            true
        }
        None => false,
    }
}

/// The full-scan variant's driver-side edit: a `get` and, if the edit
/// changed it, a `put` per endpoint per change; returns whether a removal
/// applied.
fn spec_edit_fs<S: KvStore>(store: &S, table: &str, changes: &[GraphChange]) -> bool {
    let table = store.lookup_table(table).unwrap();
    let edit = |v: VertexId, f: &dyn Fn(&mut FsState) -> bool| {
        let key = key_to_routed(&v);
        let Some(bytes) = table.get(&key).unwrap() else {
            return false;
        };
        let mut state: FsState = from_wire(&bytes).unwrap();
        let changed = f(&mut state);
        if changed {
            table.put(key, to_wire(&state)).unwrap();
        }
        changed
    };
    let add = |other: VertexId| {
        move |s: &mut FsState| {
            if s.neighbors.contains(&other) {
                return false;
            }
            s.neighbors.push(other);
            true
        }
    };
    let remove = |other: VertexId| {
        move |s: &mut FsState| match s.neighbors.iter().position(|&x| x == other) {
            Some(i) => {
                s.neighbors.swap_remove(i);
                true
            }
            None => false,
        }
    };
    let mut any_removal = false;
    for change in changes {
        let (u, v) = change.endpoints();
        if u == v {
            continue;
        }
        match change {
            GraphChange::AddEdge(..) => {
                edit(u, &add(v));
                edit(v, &add(u));
            }
            GraphChange::RemoveEdge(..) => {
                let a = edit(u, &remove(v));
                let b = edit(v, &remove(u));
                any_removal |= a || b;
            }
        }
    }
    any_removal
}

/// `table`'s pairs as bytes, sorted.
fn contents<S: KvStore>(store: &S, table: &str) -> Vec<(Vec<u8>, Vec<u8>)> {
    let handle = store.lookup_table(table).unwrap();
    let snapshot = store.snapshot_table(&handle).unwrap();
    let mut pairs: Vec<_> = snapshot
        .iter()
        .map(|(key, value)| (key.body().to_vec(), value.to_vec()))
        .collect();
    pairs.sort();
    pairs
}

/// A selective instance living in `table`, as the driver sees it: the
/// records of `table` joined with those of its adjacency table, each pair
/// encoded as one `SelState`, sorted by key.
fn joined<S: KvStore>(store: &S, table: &str) -> Vec<(Vec<u8>, Vec<u8>)> {
    let dists = contents(store, table);
    let adj: HashMap<_, _> = contents(store, &adjacency_table(table))
        .into_iter()
        .collect();
    assert_eq!(
        dists.len(),
        adj.len(),
        "{table}: one record per vertex in each table"
    );
    dists
        .into_iter()
        .map(|(key, dists)| {
            let state =
                SelState::from_records(from_wire(&dists).unwrap(), from_wire(&adj[&key]).unwrap())
                    .unwrap();
            (key, to_wire(&state).to_vec())
        })
        .collect()
}

/// Random batches with, mixed in, one edge added and removed over and
/// over, self-loops, and endpoints the table does not hold.
fn batches(seed: u64) -> Vec<Vec<GraphChange>> {
    use GraphChange::{AddEdge, RemoveEdge};
    (0..4u32)
        .map(|b| {
            let mut batch = random_change_batch(N, 40, 0.8, seed * 100 + u64::from(b));
            let (x, y) = (b % N, (b * 7 + 3) % N);
            let extra = [
                AddEdge(x, y),
                RemoveEdge(x, y),
                AddEdge(y, x),
                AddEdge(x, y),
                RemoveEdge(y, x),
                AddEdge(x, y),
                AddEdge(x, x),
                RemoveEdge(y, y),
                AddEdge(N + 2, x),
                RemoveEdge(y, N + 5),
                AddEdge(N + 1, N + 1),
            ];
            for (i, change) in extra.into_iter().enumerate() {
                let at = (i * 5) % (batch.len() + 1);
                batch.insert(at, change);
            }
            batch
        })
        .collect()
}

fn seeded(seeds: Vec<Seed>) -> RunOptions<SelectiveSssp> {
    RunOptions::new().loader(Box::new(FnLoader::new(
        move |sink: &mut dyn LoadSink<SelectiveSssp>| {
            for (to, msg) in seeds {
                sink.message(to, msg)?;
            }
            Ok(())
        },
    )))
}

/// Runs the oracle on stores from `make`: one pair (edit round, spec) for
/// the selective variant and one for the full scan.
fn edits_match_the_driver_side_spec<S: KvStore>(mut make: impl FnMut() -> S) {
    for seed in [3u64, 11] {
        let graph = random_undirected(N, 150, 0.8, seed);
        let (ours, spec) = (make(), make());
        let (inst, _) = SelectiveInstance::initialize(&ours, "sel", graph.graph(), 0).unwrap();
        SelectiveInstance::initialize(&spec, "sel", graph.graph(), 0).unwrap();
        let (ours_runner, spec_runner) =
            (JobRunner::new(ours.clone()), JobRunner::new(spec.clone()));
        let job = || Arc::new(SelectiveSssp::new("sel", 0, N));
        for (b, batch) in batches(seed).iter().enumerate() {
            let got = inst.apply_changes_on(&ours_runner, batch).unwrap();
            let want = spec_seed_batch(&spec, "sel", batch);
            assert_eq!(got, want, "seed {seed} batch {b}: seed messages");
            assert_eq!(
                joined(&ours, "sel"),
                joined(&spec, "sel"),
                "seed {seed} batch {b}: edited tables"
            );
            let ran = ours_runner.launch(job(), seeded(got)).unwrap();
            let spec_ran = spec_runner.launch(job(), seeded(want)).unwrap();
            assert_eq!(ran.metrics.invocations, spec_ran.metrics.invocations);
            assert_eq!(
                joined(&ours, "sel"),
                joined(&spec, "sel"),
                "seed {seed} batch {b}: wave"
            );
        }

        let (ours, spec) = (make(), make());
        let (fs, _) = FullScanInstance::initialize(&ours, "fs", graph.graph(), 0).unwrap();
        FullScanInstance::initialize(&spec, "fs", graph.graph(), 0).unwrap();
        for (b, batch) in batches(seed).iter().enumerate() {
            assert_eq!(
                fs.apply_changes(batch).unwrap(),
                spec_edit_fs(&spec, "fs", batch),
                "seed {seed} batch {b}: a removal applied"
            );
            assert_eq!(
                contents(&ours, "fs"),
                contents(&spec, "fs"),
                "seed {seed} batch {b}: full scan"
            );
        }
    }
}

#[test]
fn edits_match_the_spec_on_mem() {
    edits_match_the_driver_side_spec(|| MemStore::builder().default_parts(PARTS).build());
}

#[test]
fn edits_match_the_spec_on_simple() {
    edits_match_the_driver_side_spec(|| SimpleStore::new(PARTS));
}

#[test]
fn edits_match_the_spec_on_disk() {
    let mut dirs = Vec::new();
    edits_match_the_driver_side_spec(|| {
        let dir = TempDir::new("edit-oracle");
        let store = DiskStore::builder()
            .default_parts(PARTS)
            .open(dir.path())
            .unwrap();
        dirs.push(dir);
        store
    });
}

#[test]
fn edits_match_the_spec_on_net() {
    let mut clusters = Vec::new();
    edits_match_the_driver_side_spec(|| {
        let cluster = LoopbackCluster::spawn(2, PARTS);
        let store = cluster.store.clone();
        clusters.push(cluster);
        store
    });
}

/// Transient faults in the edit round are retried call by call: with a
/// seeded plan failing some of the part views' gets and puts, every batch
/// still ends where a fault-free store ends.
#[test]
fn edits_retry_transient_faults() {
    let graph = random_undirected(N, 150, 0.8, 5);
    let clean = MemStore::builder().default_parts(PARTS).build();
    let flaky = MemStore::builder()
        .default_parts(PARTS)
        .fault_plan(FaultPlan::seeded(5).transient_ops(0.02))
        .build();
    let (want, _) = SelectiveInstance::initialize(&clean, "sel", graph.graph(), 0).unwrap();
    let (got, _) = SelectiveInstance::initialize(&flaky, "sel", graph.graph(), 0).unwrap();
    let before = flaky.fault_trace().len();
    let runner = JobRunner::new(flaky.clone());
    for batch in batches(5) {
        want.apply_batch(&batch).unwrap();
        // The edit round alone, so the faults it meets are its own.
        let seeds = got.apply_changes_on(&runner, &batch).unwrap();
        runner
            .launch(Arc::new(SelectiveSssp::new("sel", 0, N)), seeded(seeds))
            .unwrap();
        assert_eq!(joined(&flaky, "sel"), joined(&clean, "sel"));
    }
    let injected = flaky.fault_trace()[before..]
        .iter()
        .filter(|r| r.kind == FaultKind::Transient)
        .count();
    assert!(injected > 0, "the plan must inject faults");
}
