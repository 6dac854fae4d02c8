//! Incremental single-source shortest paths (paper §V-C): maintain
//! distance annotations across batches of random edge additions and
//! removals, comparing selective enablement against full scans — then
//! flip the control flow and *serve*: a resident job on a `JobServer`
//! drains streamed mutations from a queue, applies each batch as one
//! selective wave, and answers point queries from the last barrier's
//! consistent snapshot while the waves run.
//!
//! Run: `cargo run --release --example sssp_incremental`

use ripple::graph::generate::{random_change_batch, random_undirected};
use ripple::graph::sssp::{bfs_oracle, FullScanInstance, SelectiveInstance};
use ripple::prelude::*;

fn main() -> Result<(), EbspError> {
    let n = 3000;
    let mut graph = random_undirected(n, 27_000, 0.8, 99);
    let source = 0;
    println!(
        "{n} vertices, ~{} undirected edges, source {source}",
        graph.graph().edge_count() / 2
    );

    let sel_store = MemStore::builder().default_parts(6).build();
    let (selective, init_metrics) =
        SelectiveInstance::initialize(&sel_store, "sel", graph.graph(), source)?;
    println!(
        "initial solve (selective): {:.3}s, {} invocations",
        init_metrics.elapsed.as_secs_f64(),
        init_metrics.invocations
    );

    let fs_store = MemStore::builder().default_parts(6).build();
    let (full_scan, _) = FullScanInstance::initialize(&fs_store, "fs", graph.graph(), source)?;

    let mut sel_total = 0.0;
    let mut fs_total = 0.0;
    for round in 0..5u64 {
        let batch = random_change_batch(n, 50, 0.8, 7000 + round);
        for c in &batch {
            graph.apply(*c);
        }
        let sel_metrics = selective.apply_batch(&batch)?;
        let fs_metrics = full_scan.apply_batch(&batch)?;
        sel_total += sel_metrics.elapsed.as_secs_f64();
        fs_total += fs_metrics.elapsed.as_secs_f64();
        println!(
            "batch {round}: selective {:>6} invocations / {:.4}s   \
             full-scan {:>8} invocations / {:.4}s",
            sel_metrics.invocations,
            sel_metrics.elapsed.as_secs_f64(),
            fs_metrics.invocations,
            fs_metrics.elapsed.as_secs_f64()
        );
    }

    // Both variants agree with a BFS oracle on the final graph.
    let oracle = bfs_oracle(&graph, source);
    for (v, d) in selective.distances()? {
        assert_eq!(d, oracle[v as usize]);
    }
    for (v, d) in full_scan.distances()? {
        assert_eq!(d, oracle[v as usize]);
    }
    println!(
        "\nfive batches: selective {sel_total:.3}s vs full-scan {fs_total:.3}s \
         ({:.0}x) — both verified against BFS",
        fs_total / sel_total
    );

    serving_mode(n)?;
    Ok(())
}

/// Serving mode: mutations stream through a queue into selective waves
/// on a resident job, and point queries read the last barrier snapshot —
/// they never wait for a wave.
fn serving_mode(n: u32) -> Result<(), EbspError> {
    println!("\n-- serving mode --");
    let mut graph = random_undirected(n, u64::from(n) * 9, 0.8, 424_242);
    let source = 0;

    let store = MemStore::builder().default_parts(6).build();
    let server = JobServer::single(ServerConfig::with_workers(4), store);
    let serving = ServingSssp::start(&server, "serve", &JobSpec::new(6), graph.graph(), source)
        .expect("admission refused");
    println!(
        "resident job admitted; initial solve done (snapshot version {})",
        serving.version()
    );

    // Stream mutations while issuing point queries between barriers.
    let mut latencies_us: Vec<f64> = Vec::new();
    for round in 0..10u64 {
        let batch = random_change_batch(n, 25, 0.8, 31_000 + round);
        for c in &batch {
            graph.apply(*c);
        }
        let _ = serving.push_batch(&batch);
        for q in 0..50u64 {
            let v = ((round * 50 + q) * 2_654_435_761 % u64::from(n)) as u32;
            let t = std::time::Instant::now();
            let answer = serving.query(v);
            latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
            let _ = answer.reachable();
        }
    }
    while serving.pending() > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    let mean = latencies_us.iter().sum::<f64>() / latencies_us.len() as f64;
    let max = latencies_us.iter().cloned().fold(0.0, f64::max);
    println!(
        "{} point queries during {} mutation waves: {mean:.1} us mean, \
         {max:.1} us max (snapshot version {})",
        latencies_us.len(),
        serving.waves(),
        serving.version()
    );

    let report = serving.finish()?;
    println!(
        "served {} mutations in {} waves, {} snapshot refreshes",
        report.mutations_applied, report.waves, report.refreshes
    );

    // The served distances agree with a BFS oracle over the mutated graph.
    let table = server.store().lookup_table("serve__sssp")?;
    let snapshot = server.store().snapshot_table(&table)?;
    let oracle = bfs_oracle(&graph, source);
    for (v, d) in ripple::graph::sssp::distances_from_snapshot(&snapshot)? {
        assert_eq!(d, oracle[v as usize]);
    }
    println!("served distances verified against BFS");
    println!("\nper-job accounting:\n{}", server.accounting_json());
    Ok(())
}
