//! `pagerank-mem`, `pagerank-net`, `pagerank-mr-mem`: Table I, one graph,
//! two programming styles, two backends.

use std::sync::Arc;

use ripple_core::{EbspError, Job, JobRunner, LoadSink, Loader, RunOptions};
use ripple_graph::generate::{power_law_graph, Graph};
use ripple_graph::pagerank::{
    read_ranks, reference_ranks, structure_loader, DirectPageRank, MapReducePageRank,
    PageRankConfig, PrMsg, PrSelf, PrState,
};
use ripple_graph::VertexId;
use ripple_kv::{KvStore, StoreMetrics};
use ripple_store_net::LoopbackCluster;

use super::{subseed, LayerSample, Scenario, Sizes};
use crate::layers::{self, EngineAcc};
use crate::trace::Tracer;

/// Ranks must agree with the sequential reference to this absolute
/// tolerance (ranks sum to 1, so it is also a relative one).
const RANK_TOLERANCE: f64 = 1e-9;

/// Which PageRank job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// One step and one barrier per iteration; state rides in messages.
    Direct,
    /// Two steps per iteration with a state-table round-trip.
    MapReduce,
}

/// The oracle: every vertex present, in order, each rank within
/// [`RANK_TOLERANCE`] of the reference.
///
/// # Errors
///
/// The first difference found.
pub fn ranks_match(got: &[(VertexId, f64)], reference: &[f64]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "{} ranks read back, {} vertices expected",
            got.len(),
            reference.len()
        ));
    }
    for (i, ((v, rank), want)) in got.iter().zip(reference).enumerate() {
        if *v as usize != i {
            return Err(format!("rank {i} belongs to vertex {v}"));
        }
        // A NaN rank has a NaN error, which must fail too.
        let error = (rank - want).abs();
        if error.is_nan() || error > RANK_TOLERANCE {
            return Err(format!("vertex {v}: rank {rank} vs reference {want}"));
        }
    }
    Ok(())
}

/// A loader that shows up in the trace as `graph.load`.
struct SpanLoader<J: Job> {
    inner: Box<dyn Loader<J>>,
    tracer: Tracer,
}

impl<J: Job> Loader<J> for SpanLoader<J> {
    fn load(self: Box<Self>, sink: &mut dyn LoadSink<J>) -> Result<(), EbspError> {
        let _span = self.tracer.span("graph.load");
        self.inner.load(sink)
    }
}

/// A PageRank workload over store `S`.
pub struct PageRank<S: KvStore> {
    variant: Variant,
    store: S,
    runner: JobRunner<S>,
    graph: Graph,
    config: PageRankConfig,
    reference: Vec<f64>,
    tracer: Tracer,
    ranks: Vec<(VertexId, f64)>,
    engine: EngineAcc,
    store_delta: StoreMetrics,
    /// Keeps the loopback servers of `pagerank-net` alive.
    cluster: Option<LoopbackCluster>,
}

impl<S: KvStore> PageRank<S> {
    /// Generates the graph and its reference ranks.
    pub fn new(
        variant: Variant,
        store: S,
        seed: u64,
        sizes: &Sizes,
        tracer: &Tracer,
        cluster: Option<LoopbackCluster>,
    ) -> Self {
        let graph = power_law_graph(sizes.pr_vertices, sizes.pr_edges, 0.8, subseed(seed, 1));
        let config = PageRankConfig {
            damping: 0.85,
            iterations: sizes.pr_iterations,
        };
        let reference = reference_ranks(&graph, config);
        let mut runner = JobRunner::new(store.clone());
        // Step profiles are one of the program's public outputs the traced
        // pass reads; the timed pass leaves them off, as a user would.
        runner.profile(tracer.is_enabled());
        Self {
            variant,
            store,
            runner,
            graph,
            config,
            reference,
            tracer: tracer.clone(),
            ranks: Vec::new(),
            engine: EngineAcc::default(),
            store_delta: StoreMetrics::default(),
            cluster,
        }
    }

    fn table(k: u64) -> String {
        format!("pr{k}")
    }

    fn launch<J>(&mut self, job: J, table: &str) -> Result<(), EbspError>
    where
        J: Job<Key = VertexId, State = PrState, Message = PrMsg>,
    {
        let outcome = {
            let _span = self.tracer.span("core.run");
            let loader = Box::new(SpanLoader {
                inner: structure_loader(&self.graph),
                tracer: self.tracer.clone(),
            });
            self.runner
                .launch(Arc::new(job), RunOptions::new().loader(loader))?
        };
        self.engine.add(&outcome);
        let _span = self.tracer.span("graph.readback");
        self.ranks = read_ranks(&self.store, table)?;
        Ok(())
    }
}

impl<S: KvStore> Scenario for PageRank<S> {
    fn run(&mut self, k: u64) -> Result<(), String> {
        let table = Self::table(k);
        let n = u64::from(self.graph.vertex_count());
        self.engine = EngineAcc::default();
        let before = self.store.metrics();
        let result = match self.variant {
            Variant::Direct => self.launch(DirectPageRank::new(&*table, n, self.config), &table),
            Variant::MapReduce => {
                self.launch(MapReducePageRank::new(&*table, n, self.config), &table)
            }
        };
        self.store_delta = self.store.metrics() - before;
        result.map_err(|e| e.to_string())
    }

    fn check(&mut self, k: u64) -> Result<(), String> {
        let verdict = ranks_match(&self.ranks, &self.reference);
        self.ranks.clear();
        self.store
            .drop_table(&Self::table(k))
            .map_err(|e| format!("drop table: {e}"))?;
        verdict
    }

    fn work(&self) -> f64 {
        self.graph.edge_count() as f64 * f64::from(self.config.iterations)
    }

    fn layers(&mut self) -> LayerSample {
        let mut sample = self.engine.sample(&self.store_delta);
        let iterations = f64::from(self.config.iterations);
        let m = &self.engine.metrics;
        sample.values.push((
            "mapreduce.state_io_per_iter",
            (m.state_reads + m.state_writes) as f64 / iterations,
        ));
        sample.values.push((
            "mapreduce.barriers_per_iter",
            f64::from(m.barriers) / iterations,
        ));
        sample
    }

    fn probes(&mut self) -> Vec<(&'static str, f64)> {
        // The codec on this workload's own values: the self-state message
        // every vertex sends itself each iteration (structure plus rank),
        // which is most of the bytes a superstep moves.
        let n = f64::from(self.graph.vertex_count());
        let states: Vec<PrMsg> = self
            .graph
            .iter()
            .map(|(_, edges)| PrMsg {
                state: Some(PrSelf {
                    edges: edges.to_vec(),
                    rank: 1.0 / n,
                }),
                contrib: 0.0,
            })
            .collect();
        let mut probes = layers::wire_probes(&states);
        if self.cluster.is_some() {
            probes.extend(layers::net_probes(&self.store, &states));
        }
        probes
    }
}
