//! Every shipped job, audited: the property auditor runs each evaluation
//! job of the repo (both PageRank variants, the adaptive variant, both
//! SSSP variants, SUMMA, MapReduce word count, and a compact k-means
//! replica of `examples/kmeans.rs`) and each must come back **clean** —
//! no declared property contradicted by observed behavior.
//!
//! Advisories (inference suggestions) are allowed; violations are not.

use std::sync::Arc;

use ripple::graph::generate::power_law_graph;
use ripple::graph::pagerank::{
    structure_loader, AdaptivePageRank, DirectPageRank, MapReducePageRank, PageRankConfig,
};
use ripple::graph::sssp::{FsState, FullScanSssp, SelState, SelectiveSssp, Wave};
use ripple::graph::INF;
use ripple::mapreduce::{MapReduce, MapReduceJob, MrKey, MrState};
use ripple::prelude::*;
use ripple::summa::{block_loader, DenseMatrix, SummaJob};
use ripple_audit::{audit_job, AuditConfig, AuditReport};
use ripple_wire::to_wire;

const PARTS: u32 = 4;

fn store() -> MemStore {
    MemStore::builder().default_parts(PARTS).build()
}

fn assert_clean(report: &AuditReport) {
    assert!(
        report.clean(),
        "job '{}' must audit clean:\n{}",
        report.job,
        report.render()
    );
}

// ---------------------------------------------------------------------------
// PageRank
// ---------------------------------------------------------------------------

fn pr_graph() -> ripple::graph::generate::Graph {
    power_law_graph(60, 240, 0.8, 7)
}

#[test]
fn direct_pagerank_audits_clean() {
    let graph = pr_graph();
    let n = u64::from(graph.vertex_count());
    let config = PageRankConfig {
        iterations: 5,
        ..PageRankConfig::default()
    };
    let report = audit_job(
        "direct-pagerank",
        &AuditConfig::default(),
        store,
        move || Arc::new(DirectPageRank::new("pr_direct", n, config)),
        move || vec![structure_loader(&graph)],
    )
    .expect("audit runs");
    assert_clean(&report);
    // one-msg + no-continue are declared, so no-collect is already active.
    assert!(!report.plan_declared.collect);
}

#[test]
fn mapreduce_pagerank_audits_clean() {
    let graph = pr_graph();
    let n = u64::from(graph.vertex_count());
    let config = PageRankConfig {
        iterations: 5,
        ..PageRankConfig::default()
    };
    let report = audit_job(
        "mapreduce-pagerank",
        &AuditConfig::default(),
        store,
        move || Arc::new(MapReducePageRank::new("pr_mr", n, config)),
        move || vec![structure_loader(&graph)],
    )
    .expect("audit runs");
    assert_clean(&report);
    // The reduce step drives the iteration with the continue signal, so
    // the auditor must observe it and must not suggest no-continue.
    assert!(!report.suggested.no_continue);
}

#[test]
fn adaptive_pagerank_audits_clean() {
    let graph = pr_graph();
    let n = u64::from(graph.vertex_count());
    let report = audit_job(
        "adaptive-pagerank",
        &AuditConfig::default(),
        store,
        move || Arc::new(AdaptivePageRank::new("pr_adaptive", n, 0.85, 1e-4)),
        move || vec![structure_loader(&graph)],
    )
    .expect("audit runs");
    assert_clean(&report);
}

// ---------------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------------

const RING: u32 = 24;

/// Ring adjacency: vertex `v` neighbors `v ± 1 (mod n)`.
fn ring_neighbors(v: u32, n: u32) -> Vec<u32> {
    vec![(v + 1) % n, (v + n - 1) % n]
}

#[test]
fn selective_sssp_audits_clean() {
    let report = audit_job(
        "selective-sssp",
        &AuditConfig::default(),
        store,
        || Arc::new(SelectiveSssp::new("sssp_sel", 0, RING)),
        || {
            vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<SelectiveSssp>| {
                    for v in 0..RING {
                        let neighbors = ring_neighbors(v, RING);
                        let state = SelState {
                            neighbor_dists: vec![INF; neighbors.len()],
                            neighbors,
                            dist: INF,
                        };
                        for (tab, record) in state.into_records().into_iter().enumerate() {
                            sink.state(tab, v, record)?;
                        }
                        sink.enable(v)?;
                    }
                    Ok(())
                },
            ))]
        },
    )
    .expect("audit runs");
    assert_clean(&report);
}

#[test]
fn full_scan_sssp_audits_clean() {
    let report = audit_job(
        "full-scan-sssp",
        &AuditConfig::default(),
        store,
        || Arc::new(FullScanSssp::new("sssp_fs", 0, Wave::Relax, RING)),
        || {
            vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<FullScanSssp>| {
                    for v in 0..RING {
                        sink.state(
                            0,
                            v,
                            FsState {
                                neighbors: ring_neighbors(v, RING),
                                dist: if v == 0 { 0 } else { INF },
                            },
                        )?;
                        sink.enable(v)?;
                    }
                    Ok(())
                },
            ))]
        },
    )
    .expect("audit runs");
    assert_clean(&report);
}

// ---------------------------------------------------------------------------
// SUMMA
// ---------------------------------------------------------------------------

#[test]
fn summa_audits_clean() {
    let a = DenseMatrix::random(6, 6, 11);
    let b = DenseMatrix::random(6, 6, 13);
    let report = audit_job(
        "summa",
        &AuditConfig::default(),
        store,
        || Arc::new(SummaJob::new("summa_audit", 3)),
        move || vec![block_loader(&a, &b, 3)],
    )
    .expect("audit runs");
    assert_clean(&report);
}

// ---------------------------------------------------------------------------
// MapReduce word count
// ---------------------------------------------------------------------------

struct WordCount;

impl MapReduce for WordCount {
    type InKey = u32;
    type InValue = String;
    type MidKey = String;
    type MidValue = u64;
    type OutValue = u64;

    fn map(&self, _doc: &u32, text: &String, emit: &mut dyn FnMut(String, u64)) {
        for word in text.split_whitespace() {
            emit(word.to_owned(), 1);
        }
    }

    fn reduce(&self, _word: &String, counts: Vec<u64>) -> Option<u64> {
        Some(counts.into_iter().sum())
    }

    fn combine(&self, _word: &String, into: &mut u64, n: u64) -> Option<u64> {
        *into += n;
        None
    }
}

#[test]
fn mapreduce_wordcount_audits_clean() {
    let report = audit_job(
        "wordcount",
        &AuditConfig::default(),
        store,
        || Arc::new(MapReduceJob::new(Arc::new(WordCount), "audit_wc")),
        || {
            let docs = [
                (1u32, "the quick brown fox jumps over the lazy dog"),
                (2, "the dog barks at the quick fox"),
                (3, "lazy afternoons suit the lazy dog"),
            ];
            vec![Box::new(FnLoader::new(
                move |sink: &mut dyn LoadSink<MapReduceJob<WordCount>>| {
                    for (id, text) in docs {
                        sink.enable(MrKey::In(id))?;
                        sink.state(0, MrKey::In(id), MrState::In(text.to_owned()))?;
                    }
                    Ok(())
                },
            ))]
        },
    )
    .expect("audit runs");
    assert_clean(&report);
    // The always-merging combiner means every reduce key sees one message;
    // the auditor should notice and suggest declaring it.
    assert!(report.suggested.one_msg);
}

// ---------------------------------------------------------------------------
// k-means (compact replica of examples/kmeans.rs)
// ---------------------------------------------------------------------------

const K: usize = 3;
const POINTS: u32 = 90;

/// One assignment round of k-means: points read the broadcast centroids,
/// pick the closest, and feed per-cluster sums into aggregators — the
/// broadcast-data + aggregator shape of `examples/kmeans.rs`.
struct AssignPoints;

impl Job for AssignPoints {
    type Key = u32;
    type State = (f64, f64, u32);
    type Message = ();
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["audit_points".to_owned()]
    }

    fn broadcast_table(&self) -> Option<String> {
        Some("audit_centroids".to_owned())
    }

    fn aggregators(&self) -> Vec<(String, Arc<dyn Aggregate>)> {
        let mut aggs: Vec<(String, Arc<dyn Aggregate>)> = Vec::new();
        for c in 0..K {
            aggs.push((format!("sx{c}"), Arc::new(ripple::ebsp::SumF64)));
            aggs.push((format!("sy{c}"), Arc::new(ripple::ebsp::SumF64)));
            aggs.push((format!("n{c}"), Arc::new(ripple::ebsp::SumF64)));
        }
        aggs
    }

    fn properties(&self) -> JobProperties {
        // One assignment pass per launch: compute never continues.
        JobProperties {
            no_continue: true,
            ..JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let (x, y, _) = ctx.read_state(0)?.expect("points are preloaded");
        let mut best = (0usize, f64::INFINITY);
        for c in 0..K {
            let (cx, cy): (f64, f64) = ctx
                .broadcast(&(c as u32))?
                .expect("centroids are broadcast");
            let d = (x - cx).powi(2) + (y - cy).powi(2);
            if d < best.1 {
                best = (c, d);
            }
        }
        let c = best.0;
        ctx.write_state(0, &(x, y, c as u32))?;
        ctx.aggregate(&format!("sx{c}"), AggValue::F64(x))?;
        ctx.aggregate(&format!("sy{c}"), AggValue::F64(y))?;
        ctx.aggregate(&format!("n{c}"), AggValue::F64(1.0))?;
        Ok(false)
    }
}

/// Deterministic point cloud: three blobs, no RNG so every audited run
/// regenerates the same input.
fn kmeans_point(i: u32) -> (f64, f64) {
    let blobs = [(0.0, 0.0), (8.0, 8.0), (0.0, 9.0)];
    let (bx, by) = blobs[i as usize % 3];
    let jitter = f64::from(i % 7) / 10.0 - 0.3;
    (bx + jitter, by - jitter)
}

fn kmeans_store() -> MemStore {
    let store = store();
    let centroids = store
        .create_table(TableSpec::new("audit_centroids").ubiquitous())
        .expect("create centroid table");
    for c in 0..K {
        let (x, y) = kmeans_point(c as u32);
        centroids
            .put(ripple::ebsp::key_to_routed(&(c as u32)), to_wire(&(x, y)))
            .expect("seed centroid");
    }
    store
}

#[test]
fn kmeans_round_audits_clean() {
    let report = audit_job(
        "kmeans-round",
        &AuditConfig::default(),
        kmeans_store,
        || Arc::new(AssignPoints),
        || {
            vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<AssignPoints>| {
                    for i in 0..POINTS {
                        let (x, y) = kmeans_point(i);
                        sink.state(0, i, (x, y, 0))?;
                        sink.enable(i)?;
                    }
                    Ok(())
                },
            ))]
        },
    )
    .expect("audit runs");
    assert_clean(&report);
    assert!(report.suggested.no_continue);
}
