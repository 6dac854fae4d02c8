//! Store portability: the openness claim of the architecture.  Everything
//! above the SPI — engine, layered models, applications — runs unchanged
//! against *any* `KvStore`.  These tests run the same workloads,
//! generically, over the partitioned debugging store and the minimal
//! single-map reference store, and require identical results.

use std::sync::Arc;

use ripple::graph::generate::power_law_graph;
use ripple::graph::pagerank::{read_ranks, run_direct, PageRankConfig};
use ripple::prelude::*;
use ripple::store_simple::SimpleStore;
use ripple::summa::{multiply, DenseMatrix, SummaOptions};
use ripple_kv::KvStore;

/// A store-generic workload: PageRank over the same graph.
fn pagerank_over<S: KvStore>(store: &S) -> Vec<(u32, f64)> {
    let graph = power_law_graph(250, 2500, 0.8, 77);
    run_direct(
        store,
        "pr_port",
        &graph,
        PageRankConfig {
            damping: 0.85,
            iterations: 8,
        },
    )
    .unwrap();
    read_ranks(store, "pr_port").unwrap()
}

#[test]
fn pagerank_is_store_independent() {
    let mem = pagerank_over(&MemStore::builder().default_parts(4).build());
    let simple = pagerank_over(&SimpleStore::new(4));
    assert_eq!(mem.len(), simple.len());
    for ((v1, r1), (v2, r2)) in mem.iter().zip(&simple) {
        assert_eq!(v1, v2);
        assert!(
            (r1 - r2).abs() < 1e-12,
            "vertex {v1}: {r1} (mem) vs {r2} (simple)"
        );
    }
}

#[test]
fn summa_is_store_independent_in_both_modes() {
    let a = DenseMatrix::random(18, 18, 3);
    let b = DenseMatrix::random(18, 18, 4);
    let want = a.multiply(&b);
    for mode in [ExecMode::Synchronized, ExecMode::Unsynchronized] {
        let opts = SummaOptions {
            grid: 3,
            mode,
            ..SummaOptions::default()
        };
        let (c_mem, _) =
            multiply(&MemStore::builder().default_parts(3).build(), &a, &b, &opts).unwrap();
        let (c_simple, _) = multiply(&SimpleStore::new(3), &a, &b, &opts).unwrap();
        assert!(c_mem.approx_eq(&want, 1e-9), "{mode:?} mem");
        assert!(c_simple.approx_eq(&want, 1e-9), "{mode:?} simple");
    }

    // An exact pin: what the `summa_sync --grid 2 --block 8` smoke run
    // marshals synchronized on mem.  A PR that changes it updates it here
    // and says why.
    let (a, b) = (
        DenseMatrix::random(16, 16, 1),
        DenseMatrix::random(16, 16, 2),
    );
    let opts = SummaOptions {
        grid: 2,
        mode: ExecMode::Synchronized,
        ..SummaOptions::default()
    };
    let (_, report) =
        multiply(&MemStore::builder().default_parts(3).build(), &a, &b, &opts).unwrap();
    assert_eq!(report.outcome.metrics.store.bytes_marshalled, 9_482);
}

/// The table-backed queue sets also work over the simple store: the whole
/// no-sync stack without a single store-specific line.
#[test]
fn table_queues_over_the_simple_store() {
    struct Gossip;
    impl Job for Gossip {
        type Key = u32;
        type State = u32;
        type Message = u32;
        type OutKey = ();
        type OutValue = ();
        fn state_tables(&self) -> Vec<String> {
            vec!["gossip_s".to_owned()]
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
                    if n < 12 {
                        ctx.send(n, best);
                    }
                }
            }
            Ok(false)
        }
    }
    let store = SimpleStore::new(3);
    JobRunner::new(store.clone())
        .queue_kind(QueueKind::Table)
        .launch(
            Arc::new(Gossip),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<Gossip>| sink.message(5, 0),
            ))]),
        )
        .unwrap();
    let table = store.lookup_table("gossip_s").unwrap();
    let exporter = Arc::new(CollectingExporter::<u32, u32>::new());
    export_state_table(&store, &table, Arc::clone(&exporter)).unwrap();
    assert_eq!(exporter.take().len(), 12);
}

/// The simple store reports no marshalling (everything local); the
/// debugging store reports plenty — the difference is the class of cost
/// the paper's debugging store exists to expose.
#[test]
fn stores_expose_different_cost_models() {
    let mem = MemStore::builder().default_parts(4).build();
    pagerank_over(&mem);
    let simple = SimpleStore::new(4);
    pagerank_over(&simple);
    assert!(mem.metrics().bytes_marshalled > 0);
    assert_eq!(simple.metrics().bytes_marshalled, 0);
    assert_eq!(simple.metrics().remote_ops, 0);
}
