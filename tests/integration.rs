//! Cross-crate integration tests: whole-platform flows through the facade
//! crate — store + engine + layered models together, concurrent jobs on
//! one store, recovery under fault injection in a real application, and
//! the architecture claims (same data, multiple styles of analytics).

use std::sync::Arc;

use ripple::graph::algorithms::bfs;
use ripple::graph::generate::{power_law_graph, random_change_batch, random_undirected};
use ripple::graph::pagerank::{read_ranks, reference_ranks, run_direct, PageRankConfig};
use ripple::graph::sssp::{bfs_oracle, SelectiveInstance};
use ripple::mapreduce::{run_map_reduce, MapReduce};
use ripple::prelude::*;
use ripple::summa::{multiply, DenseMatrix, SummaOptions};

#[test]
fn pagerank_and_sssp_share_one_store() {
    // The architecture pitch: various styles of analytics in the same
    // platform and on the same store.  Run PageRank and incremental SSSP
    // against one MemStore, in different tables, and verify both.
    let store = MemStore::builder().default_parts(6).build();

    let pr_graph = power_law_graph(400, 4000, 0.8, 1);
    let config = PageRankConfig {
        damping: 0.85,
        iterations: 8,
    };
    run_direct(&store, "ranks", &pr_graph, config).unwrap();

    let mut sssp_graph = random_undirected(300, 1500, 0.8, 2);
    let (sssp, _) = SelectiveInstance::initialize(&store, "dists", sssp_graph.graph(), 0).unwrap();
    let batch = random_change_batch(300, 30, 0.8, 3);
    for c in &batch {
        sssp_graph.apply(*c);
    }
    sssp.apply_batch(&batch).unwrap();

    // Both results are correct and coexist.
    let ranks = read_ranks(&store, "ranks").unwrap();
    let reference = reference_ranks(&pr_graph, config);
    for (v, r) in &ranks {
        assert!((r - reference[*v as usize]).abs() < 1e-10);
    }
    let oracle = bfs_oracle(&sssp_graph, 0);
    for (v, d) in sssp.distances().unwrap() {
        assert_eq!(d, oracle[v as usize]);
    }
    let mut names = store.table_names();
    names.sort();
    assert!(names.contains(&"ranks".to_owned()));
    assert!(names.contains(&"dists".to_owned()));
}

#[test]
fn concurrent_jobs_on_one_store() {
    // Two jobs run simultaneously from different threads against disjoint
    // tables of the same store.
    let store = MemStore::builder().default_parts(4).build();
    let s1 = store.clone();
    let s2 = store.clone();
    let t1 = std::thread::spawn(move || {
        let graph = power_law_graph(300, 2500, 0.8, 7);
        let config = PageRankConfig {
            damping: 0.85,
            iterations: 6,
        };
        run_direct(&s1, "pr_a", &graph, config).unwrap();
        let ranks = read_ranks(&s1, "pr_a").unwrap();
        let reference = reference_ranks(&graph, config);
        for (v, r) in ranks {
            assert!((r - reference[v as usize]).abs() < 1e-10);
        }
    });
    let t2 = std::thread::spawn(move || {
        let a = DenseMatrix::random(24, 24, 5);
        let b = DenseMatrix::random(24, 24, 6);
        let (c, _) = multiply(&s2, &a, &b, &SummaOptions::default()).unwrap();
        assert!(c.approx_eq(&a.multiply(&b), 1e-9));
    });
    t1.join().unwrap();
    t2.join().unwrap();
}

#[test]
fn mapreduce_over_pagerank_output() {
    // Layering: feed PageRank's direct output (state table) into a
    // MapReduce couplet that buckets vertices by rank magnitude.
    let store = MemStore::builder().default_parts(4).build();
    let graph = power_law_graph(200, 2000, 0.8, 9);
    run_direct(
        &store,
        "pr",
        &graph,
        PageRankConfig {
            damping: 0.85,
            iterations: 8,
        },
    )
    .unwrap();
    let ranks = read_ranks(&store, "pr").unwrap();

    struct BucketRanks;
    impl MapReduce for BucketRanks {
        type InKey = u32;
        type InValue = f64;
        type MidKey = u32; // order-of-magnitude bucket
        type MidValue = u64;
        type OutValue = u64;
        fn map(&self, _v: &u32, rank: &f64, emit: &mut dyn FnMut(u32, u64)) {
            let bucket = (-rank.log10()).floor() as u32;
            emit(bucket, 1);
        }
        fn reduce(&self, _b: &u32, counts: Vec<u64>) -> Option<u64> {
            Some(counts.into_iter().sum())
        }
        fn combine(&self, _b: &u32, into: &mut u64, n: u64) -> Option<u64> {
            *into += n;
            None
        }
    }

    let histogram = run_map_reduce(&store, Arc::new(BucketRanks), ranks.clone()).unwrap();
    let total: u64 = histogram.iter().map(|(_, n)| n).sum();
    assert_eq!(total, 200, "every vertex lands in exactly one bucket");
}

#[test]
fn recovery_during_a_real_application() {
    // Inject a shard failure into a BFS run with checkpointing on; the
    // distances must still be exact.
    use ripple_kv::PartId;

    struct FaultyBfs {
        store: MemStore,
        injected: std::sync::atomic::AtomicBool,
    }
    impl Job for FaultyBfs {
        type Key = u32;
        type State = u32;
        type Message = u32;
        type OutKey = ();
        type OutValue = ();
        fn state_tables(&self) -> Vec<String> {
            vec!["fbfs".to_owned()]
        }
        fn properties(&self) -> JobProperties {
            JobProperties {
                deterministic: true,
                ..Default::default()
            }
        }
        fn combine_messages(&self, _k: &u32, into: &mut u32, msg: u32) -> Option<u32> {
            *into = msg.min(*into);
            None
        }
        fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
            if ctx.step() == 3
                && !self
                    .injected
                    .swap(true, std::sync::atomic::Ordering::SeqCst)
            {
                let t = self.store.lookup_table("fbfs").unwrap();
                self.store.fail_part(&t, PartId(1)).unwrap();
            }
            let me = *ctx.key();
            let offered = ctx.messages().iter().copied().min().unwrap_or(u32::MAX);
            let current = ctx.read_state(0)?.unwrap_or(u32::MAX);
            if offered < current {
                ctx.write_state(0, &offered)?;
                // Chain graph: forward along the line.
                if me + 1 < 40 {
                    ctx.send(me + 1, offered + 1);
                }
            }
            Ok(false)
        }
    }

    let store = MemStore::builder().default_parts(3).build();
    let job = Arc::new(FaultyBfs {
        store: store.clone(),
        injected: std::sync::atomic::AtomicBool::new(false),
    });
    let outcome = JobRunner::new(store.clone())
        .checkpoint_interval(1)
        .launch(
            job,
            RunOptions::new()
                .loaders(vec![Box::new(FnLoader::new(
                    |sink: &mut dyn LoadSink<FaultyBfs>| sink.message(0, 0),
                ))])
                .recovery(),
        )
        .unwrap();
    assert!(outcome.metrics.recoveries >= 1, "the failure must be seen");

    // Every vertex on the chain got its exact distance.
    let table = store.lookup_table("fbfs").unwrap();
    let exporter = Arc::new(CollectingExporter::<u32, u32>::new());
    export_state_table(&store, &table, Arc::clone(&exporter)).unwrap();
    let mut got = exporter.take();
    got.sort();
    assert_eq!(got.len(), 40);
    for (v, d) in got {
        assert_eq!(d, v, "chain distance = index");
    }
}

#[test]
fn graph_ebsp_runs_on_table_backed_queues_too() {
    // The whole stack over the paper's generic table-backed queue sets:
    // graph layer -> EBSP -> queue-over-table -> store.
    struct Gossip;
    impl Job for Gossip {
        type Key = u32;
        type State = u32;
        type Message = u32;
        type OutKey = ();
        type OutValue = ();
        fn state_tables(&self) -> Vec<String> {
            vec!["gossip".to_owned()]
        }
        fn properties(&self) -> JobProperties {
            JobProperties {
                incremental: true,
                ..Default::default()
            }
        }
        fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
            let best = ctx.messages().iter().copied().min().unwrap_or(u32::MAX);
            let current = ctx.read_state(0)?.unwrap_or(u32::MAX);
            if best < current {
                ctx.write_state(0, &best)?;
                let me = *ctx.key();
                for n in [me.wrapping_sub(1), me + 1] {
                    if n < 16 {
                        ctx.send(n, best);
                    }
                }
            }
            Ok(false)
        }
    }
    let store = MemStore::builder().default_parts(4).build();
    JobRunner::new(store.clone())
        .queue_kind(QueueKind::Table)
        .launch(
            Arc::new(Gossip),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<Gossip>| sink.message(7, 0),
            ))]),
        )
        .unwrap();
    let table = store.lookup_table("gossip").unwrap();
    let exporter = Arc::new(CollectingExporter::<u32, u32>::new());
    export_state_table(&store, &table, Arc::clone(&exporter)).unwrap();
    assert_eq!(exporter.take().len(), 16, "gossip reached all 16 vertices");
}

#[test]
fn bfs_through_facade_prelude() {
    let mut g = ripple::graph::generate::MutableGraph::new(6);
    for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5)] {
        g.apply(ripple::graph::generate::GraphChange::AddEdge(u, v));
    }
    let store = MemStore::builder().default_parts(2).build();
    let dists = bfs(&store, "b", g.graph(), 0).unwrap();
    assert_eq!(dists.last(), Some(&(5u32, 5u32)));
}
