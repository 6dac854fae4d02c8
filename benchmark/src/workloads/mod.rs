//! The six workloads, each a closed loop one driver thread steps through:
//! `prepare` (untimed) → `run` (timed: what a user waits for, through
//! result read-back) → `check` (untimed: oracle, clean-up).

use std::path::Path;

use ripple_kv::{DurableStore, KvStore, SyncPolicy};
use ripple_store_disk::DiskStore;
use ripple_store_mem::MemStore;
use ripple_store_net::LoopbackCluster;

use crate::trace::{TracedStore, Tracer};

mod pagerank;
mod serve;
mod sssp;
mod summa;

pub use pagerank::{ranks_match, PageRank, Variant};
pub use serve::ServeMixed;
pub use sssp::{distances_match, SsspWaves};
pub use summa::{product_matches, SummaNosync};

/// Parts per table and server workers: the machine's `nproc`.
pub const PARTS: u32 = 2;

/// One workload, by its `BENCHMARK.json` name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// `DirectPageRank` on `store-mem`.
    PagerankMem,
    /// `DirectPageRank` over a 2-server loopback cluster.
    PagerankNet,
    /// `MapReducePageRank` on `store-mem`.
    PagerankMrMem,
    /// Selective-enablement SSSP change waves on `store-disk`.
    SsspWavesDisk,
    /// Unsynchronized SUMMA on `store-mem`.
    SummaNosyncMem,
    /// Serving-mode SSSP plus a background batch tenant on `store-mem`.
    ServeMixedMem,
}

impl WorkloadId {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadId; 6] = [
        WorkloadId::PagerankMem,
        WorkloadId::PagerankNet,
        WorkloadId::PagerankMrMem,
        WorkloadId::SsspWavesDisk,
        WorkloadId::SummaNosyncMem,
        WorkloadId::ServeMixedMem,
    ];

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::PagerankMem => "pagerank-mem",
            WorkloadId::PagerankNet => "pagerank-net",
            WorkloadId::PagerankMrMem => "pagerank-mr-mem",
            WorkloadId::SsspWavesDisk => "sssp-waves-disk",
            WorkloadId::SummaNosyncMem => "summa-nosync-mem",
            WorkloadId::ServeMixedMem => "serve-mixed-mem",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<WorkloadId> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set (one line, also in `BENCHMARK.json`).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::PagerankMem => {
                "Table I direct PageRank on store-mem: engine sort/combine/deliver and the codec do the work, transport none; baseline of the net-mem gap"
            }
            WorkloadId::PagerankNet => {
                "same job and graph over a 2-server loopback cluster: store-net transport and codec dominate; batching work must show here and not on pagerank-mem"
            }
            WorkloadId::PagerankMrMem => {
                "MapReduce-style PageRank on the same graph: 2 barriers and a state round-trip per iteration, so a message-plane gain that costs the state path shows"
            }
            WorkloadId::SsspWavesDisk => {
                "incremental SSSP change waves on store-disk: many tiny supersteps, so per-step fixed cost (barrier, control ops, WAL commit) dominates, not bulk throughput"
            }
            WorkloadId::SummaNosyncMem => {
                "SUMMA without barriers: only user of the nosync engine and ripple-mq; the dense kernel dominates, so engine or transport changes should read no change"
            }
            WorkloadId::ServeMixedMem => {
                "resident job server: serving SSSP tenant under point queries plus a resubmitted batch tenant; mutation-to-visible freshness through scheduler, queue and snapshot refresh"
            }
        }
    }

    /// Whether every operation of a run does identical work, so the exact
    /// layer counts must repeat from operation to operation.
    #[must_use]
    pub fn ops_identical(self) -> bool {
        matches!(
            self,
            WorkloadId::PagerankMem | WorkloadId::PagerankNet | WorkloadId::PagerankMrMem
        )
    }

    /// Whether the exact layer counts are a function of the seed alone, so
    /// two runs of one seed must agree on them (`aa` checks it).  The
    /// unsynchronized engine batches by arrival time and the serving loop
    /// by wall clock, so the last two workloads are excluded.
    #[must_use]
    pub fn counts_deterministic(self) -> bool {
        self.ops_identical() || self == WorkloadId::SsspWavesDisk
    }
}

/// Input sizes.  `full` is what `BENCHMARK.json` measures; `quick` makes
/// every workload finish in well under a second so tests can run them all.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// PageRank vertices (Table I shape 1 is 132 000).
    pub pr_vertices: u32,
    /// PageRank edges (Table I shape 1 is 4 341 659).
    pub pr_edges: u64,
    /// PageRank iterations.
    pub pr_iterations: u32,
    /// SSSP vertices (§V-C uses 100 000).
    pub sssp_vertices: u32,
    /// SSSP random undirected edges drawn (§V-C uses 1.8 million).
    pub sssp_edges: u64,
    /// Change waves per `sssp-waves-disk` operation.
    pub waves_per_op: usize,
    /// Primitive changes per wave.
    pub changes_per_wave: usize,
    /// SUMMA block edge; the matrices are `3 * block` square.
    pub summa_block: usize,
    /// Vertices of the serving tenant's graph.
    pub serve_vertices: u32,
    /// Random undirected edges drawn for it.
    pub serve_edges: u64,
    /// Mutations per `serve-mixed-mem` round.
    pub serve_batch: usize,
    /// Point queries the driver issues between freshness checks.
    pub query_block: usize,
    /// Keys and steps of the background batch tenant.
    pub bg_keys: u32,
    /// Steps the background batch tenant runs per submission.
    pub bg_steps: u32,
    /// Fewest timed operations of a run, however long they take.
    pub min_ops: u64,
}

impl Sizes {
    /// The measured profile.
    pub const FULL: Sizes = Sizes {
        pr_vertices: 3_300,
        pr_edges: 108_541,
        pr_iterations: 10,
        sssp_vertices: 10_000,
        sssp_edges: 180_000,
        waves_per_op: 5,
        changes_per_wave: 200,
        summa_block: 256,
        serve_vertices: 2_000,
        serve_edges: 36_000,
        serve_batch: 100,
        query_block: 1024,
        bg_keys: 64,
        bg_steps: 12,
        min_ops: 3,
    };

    /// Tiny inputs for tests and `--quick`.
    pub const QUICK: Sizes = Sizes {
        pr_vertices: 120,
        pr_edges: 1_500,
        pr_iterations: 4,
        sssp_vertices: 300,
        sssp_edges: 2_400,
        waves_per_op: 3,
        changes_per_wave: 10,
        summa_block: 12,
        serve_vertices: 300,
        serve_edges: 2_400,
        serve_batch: 10,
        query_block: 64,
        bg_keys: 8,
        bg_steps: 3,
        min_ops: 2,
    };
}

/// A named exact count of one layer, for the repeat check.
pub type Count = (&'static str, u64);

/// What the program's own public outputs said about the last operation —
/// the raw material of the per-layer metrics that are not spans.
#[derive(Debug, Default, Clone)]
pub struct LayerSample {
    /// Exact counts (`core.*`, `net.*`, `disk.*`); see
    /// [`WorkloadId::counts_deterministic`].
    pub counts: Vec<Count>,
    /// Timings and ratios derived from `StepProfile`s, `CostModel` and the
    /// server's accounts, already in their metric's unit.
    pub values: Vec<(&'static str, f64)>,
}

/// A workload set up and ready to be stepped.
pub trait Scenario {
    /// Builds operation `k`'s inputs.  Untimed.
    fn prepare(&mut self, _k: u64) {}

    /// Operation `k`, start to finished read-back.  Timed.
    ///
    /// # Errors
    ///
    /// Any error the program returned, rendered.
    fn run(&mut self, k: u64) -> Result<(), String>;

    /// Holds operation `k`'s result against its oracle and cleans up
    /// after it.  Untimed.
    ///
    /// # Errors
    ///
    /// What differed.
    fn check(&mut self, k: u64) -> Result<(), String>;

    /// Work units the last operation completed (edge traversals, flop,
    /// graph changes, point queries).
    fn work(&self) -> f64;

    /// The program's own account of the last operation.
    fn layers(&mut self) -> LayerSample;

    /// Micro-probes of single layers on this workload's own values, run
    /// once after the traced operations.
    fn probes(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Stops what the scenario started and returns errors found only at
    /// shutdown.
    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// Builds `id`'s scenario — inputs from `seed`, store, initial load and
/// solve — over a traced store when `tracer` records.  `scratch` is a
/// directory of the run's own for backends that keep files.
///
/// # Panics
///
/// Panics when a store cannot be opened or the initial solve fails: the
/// benchmark chose workloads on which no operation fails.
#[must_use]
pub fn build(
    id: WorkloadId,
    seed: u64,
    sizes: &Sizes,
    tracer: &Tracer,
    scratch: &Path,
) -> Box<dyn Scenario> {
    let mem = || MemStore::builder().default_parts(PARTS).build();
    macro_rules! traced {
        ($store:expr, $make:expr) => {{
            let store = $store;
            if tracer.is_enabled() {
                Box::new($make(TracedStore::new(store, tracer.clone()))) as Box<dyn Scenario>
            } else {
                Box::new($make(store)) as Box<dyn Scenario>
            }
        }};
    }
    match id {
        WorkloadId::PagerankMem => {
            traced!(mem(), |s| PageRank::new(
                Variant::Direct,
                s,
                seed,
                sizes,
                tracer,
                None
            ))
        }
        WorkloadId::PagerankMrMem => {
            traced!(mem(), |s| PageRank::new(
                Variant::MapReduce,
                s,
                seed,
                sizes,
                tracer,
                None
            ))
        }
        WorkloadId::PagerankNet => {
            let cluster = LoopbackCluster::spawn(PARTS as usize, PARTS);
            let store = cluster.store.clone();
            let mut keep = Some(cluster);
            traced!(store, |s| PageRank::new(
                Variant::Direct,
                s,
                seed,
                sizes,
                tracer,
                keep.take()
            ))
        }
        WorkloadId::SsspWavesDisk => {
            // A set-up repeat starts from an empty directory; the harness
            // removes `scratch` when the run ends.
            let dir = scratch.join("sssp-waves-disk");
            let _ = std::fs::remove_dir_all(&dir);
            // No fsync on the mutation path: the run's files live in its
            // checkout, on whatever device that is, and device-timed
            // syncs made identical runs read 286-582 ms (README, "Why no
            // fsync").  WAL appends, checksums and writes are still paid.
            let store = DiskStore::builder()
                .default_parts(PARTS)
                .sync_policy(SyncPolicy::Never)
                .open(&dir)
                .expect("open disk store");
            let raw = store.clone();
            let commit = move |epoch: u64| {
                let table = raw.lookup_table(sssp::TABLE).map_err(|e| e.to_string())?;
                raw.commit_barrier(&table, epoch).map_err(|e| e.to_string())
            };
            traced!(store, |s| SsspWaves::new(
                s,
                seed,
                sizes,
                tracer,
                Box::new(commit.clone())
            ))
        }
        WorkloadId::SummaNosyncMem => {
            traced!(mem(), |s| SummaNosync::new(s, seed, sizes, tracer))
        }
        WorkloadId::ServeMixedMem => {
            traced!(mem(), |s| ServeMixed::new(s, seed, sizes, tracer))
        }
    }
}

/// Derives an independent stream seed from the run seed (splitmix64).
#[must_use]
pub fn subseed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
