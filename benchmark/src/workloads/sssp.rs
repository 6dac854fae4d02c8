//! `sssp-waves-disk`: §V-C incremental SSSP, selective enablement, on the
//! durable backend.

use ripple_core::JobRunner;
use ripple_graph::generate::{random_change_batch, random_undirected, GraphChange, MutableGraph};
use ripple_graph::sssp::{bfs_oracle, SelState, SelectiveInstance};
use ripple_graph::{VertexId, INF};
use ripple_kv::{KvStore, StoreMetrics};

use super::{subseed, LayerSample, Scenario, Sizes};
use crate::layers::{self, EngineAcc};
use crate::trace::Tracer;

/// Distances are measured from vertex 0, the best-attached one.
pub const SOURCE: VertexId = 0;

/// The state table the instance lives in.
pub const TABLE: &str = "sel";

/// The oracle: every vertex present, in order, at its BFS distance.
///
/// # Errors
///
/// The first difference found.
pub fn distances_match(got: &[(VertexId, u32)], oracle: &[u32]) -> Result<(), String> {
    if got.len() != oracle.len() {
        return Err(format!(
            "{} distances read back, {} vertices expected",
            got.len(),
            oracle.len()
        ));
    }
    for (i, ((v, d), want)) in got.iter().zip(oracle).enumerate() {
        if *v as usize != i || d != want {
            return Err(format!(
                "vertex {v} (row {i}): distance {d} vs oracle {want}"
            ));
        }
    }
    Ok(())
}

/// Change waves against a solved instance.
pub struct SsspWaves<S: KvStore> {
    store: S,
    runner: JobRunner<S>,
    instance: SelectiveInstance<S>,
    mirror: MutableGraph,
    seed: u64,
    sizes: Sizes,
    tracer: Tracer,
    waves: Vec<Vec<GraphChange>>,
    distances: Vec<(VertexId, u32)>,
    engine: EngineAcc,
    store_delta: StoreMetrics,
    /// The barrier commit of the backing store at epoch `k`: everything
    /// buffered reaches the log files (written, not synced).
    commit: Box<dyn Fn(u64) -> Result<(), String>>,
}

impl<S: KvStore> SsspWaves<S> {
    /// Generates the graph, loads it and solves the initial distances.
    ///
    /// # Panics
    ///
    /// Panics if the initial solve fails.
    pub fn new(
        store: S,
        seed: u64,
        sizes: &Sizes,
        tracer: &Tracer,
        commit: Box<dyn Fn(u64) -> Result<(), String>>,
    ) -> Self {
        let mirror =
            random_undirected(sizes.sssp_vertices, sizes.sssp_edges, 0.8, subseed(seed, 2));
        let mut runner = JobRunner::new(store.clone());
        runner.profile(tracer.is_enabled());
        let (instance, _) =
            SelectiveInstance::initialize_on(&runner, &store, TABLE, mirror.graph(), SOURCE)
                .expect("initial SSSP solve");
        Self {
            store,
            runner,
            instance,
            mirror,
            seed,
            sizes: *sizes,
            tracer: tracer.clone(),
            waves: Vec::new(),
            distances: Vec::new(),
            engine: EngineAcc::default(),
            store_delta: StoreMetrics::default(),
            commit,
        }
    }
}

impl<S: KvStore> Scenario for SsspWaves<S> {
    fn prepare(&mut self, k: u64) {
        let n = self.mirror.vertex_count();
        self.waves = (0..self.sizes.waves_per_op as u64)
            .map(|w| {
                let stream = 1_000 + k * self.sizes.waves_per_op as u64 + w;
                random_change_batch(
                    n,
                    self.sizes.changes_per_wave,
                    0.8,
                    subseed(self.seed, stream),
                )
            })
            .collect();
        for change in self.waves.iter().flatten() {
            self.mirror.apply(*change);
        }
    }

    fn run(&mut self, k: u64) -> Result<(), String> {
        self.engine = EngineAcc::default();
        let before = self.store.metrics();
        for wave in &self.waves {
            let outcome = {
                let _span = self.tracer.span("core.run");
                self.instance
                    .apply_batch_on(&self.runner, wave)
                    .map_err(|e| e.to_string())?
            };
            self.engine.add(&outcome);
        }
        {
            let _span = self.tracer.span("disk.commit");
            (self.commit)(k)?;
        }
        {
            let _span = self.tracer.span("graph.readback");
            self.distances = self.instance.distances().map_err(|e| e.to_string())?;
        }
        self.store_delta = self.store.metrics() - before;
        Ok(())
    }

    fn check(&mut self, _k: u64) -> Result<(), String> {
        let oracle = bfs_oracle(&self.mirror, SOURCE);
        let verdict = distances_match(&self.distances, &oracle);
        self.distances.clear();
        verdict
    }

    fn work(&self) -> f64 {
        (self.sizes.waves_per_op * self.sizes.changes_per_wave) as f64
    }

    fn layers(&mut self) -> LayerSample {
        self.engine.sample(&self.store_delta)
    }

    fn probes(&mut self) -> Vec<(&'static str, f64)> {
        // The codec on this workload's own values: the bookkeeping state
        // of every vertex as first loaded.
        let states: Vec<SelState> = self
            .mirror
            .graph()
            .iter()
            .map(|(_, adj)| SelState {
                neighbors: adj.to_vec(),
                neighbor_dists: vec![INF; adj.len()],
                dist: INF,
            })
            .collect();
        layers::wire_probes(&states)
    }
}
