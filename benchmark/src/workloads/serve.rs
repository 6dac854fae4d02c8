//! `serve-mixed-mem`: the resident job server under a serving tenant, its
//! point queries, and a batch tenant that is resubmitted as soon as it
//! finishes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use ripple_core::{FnLoader, LoadSink, RunOptions, SimpleJob};
use ripple_graph::generate::{random_change_batch, random_undirected, GraphChange, MutableGraph};
use ripple_graph::sssp::bfs_oracle;
use ripple_graph::VertexId;
use ripple_kv::KvStore;
use ripple_server::{JobServer, JobSpec, SchedAccount, ServerConfig, ServingSssp};

use super::sssp::{distances_match, SOURCE};
use super::{subseed, LayerSample, Scenario, Sizes, PARTS};
use crate::stats::median;
use crate::trace::Tracer;

const SERVING: &str = "serve";
const BACKGROUND: &str = "bg";

type BgJob = SimpleJob<u32, u32, u32>;

/// The batch tenant: `bg_keys` counters that each tick down once per
/// step — pure pressure on the shared worker pool.
fn bg_job() -> BgJob {
    SimpleJob::<u32, u32, u32>::builder(BACKGROUND)
        .compute(|ctx| {
            let v = ctx.read_state(0)?.unwrap_or(0);
            ctx.write_state(0, &v.saturating_sub(1))?;
            Ok(v > 1)
        })
        .build()
}

/// Submits the batch tenant, waits for it, and submits it again until
/// told to stop; returns how many submissions completed.
fn resubmit<S: KvStore>(
    server: &JobServer<S>,
    sizes: &Sizes,
    stop: &AtomicBool,
) -> Result<u64, String> {
    let (keys, steps) = (sizes.bg_keys, sizes.bg_steps);
    let mut completed = 0;
    while !stop.load(Ordering::Relaxed) {
        let loader = FnLoader::new(move |sink: &mut dyn LoadSink<BgJob>| {
            for k in 0..keys {
                sink.state(0, k, steps)?;
                sink.enable(k)?;
            }
            Ok(())
        });
        let outcome = server
            .submit(
                BACKGROUND,
                &JobSpec::new(PARTS),
                Arc::new(bg_job()),
                RunOptions::new().loader(Box::new(loader)),
            )
            .map_err(|e| format!("background tenant refused: {e}"))?
            .wait()
            .map_err(|e| format!("background tenant failed: {e}"))?;
        if outcome.steps != steps {
            return Err(format!(
                "background tenant ran {} steps, {steps} expected",
                outcome.steps
            ));
        }
        completed += 1;
    }
    Ok(completed)
}

/// Rounds of: push a mutation batch, query until it is visible.
pub struct ServeMixed<S: KvStore> {
    server: JobServer<S>,
    serving: Option<ServingSssp>,
    background: Option<JoinHandle<Result<u64, String>>>,
    stop: Arc<AtomicBool>,
    mirror: MutableGraph,
    seed: u64,
    sizes: Sizes,
    tracer: Tracer,
    batch: Vec<GraphChange>,
    cursor: u64,
    last_version: u64,
    queries: u64,
    sample: LayerSample,
}

impl<S: KvStore> ServeMixed<S> {
    /// Generates the graph, starts the server, the serving tenant (initial
    /// solve included) and the batch tenant.
    ///
    /// # Panics
    ///
    /// Panics if the server refuses the serving tenant or its initial
    /// solve fails.
    pub fn new(store: S, seed: u64, sizes: &Sizes, tracer: &Tracer) -> Self {
        let mirror = random_undirected(
            sizes.serve_vertices,
            sizes.serve_edges,
            0.8,
            subseed(seed, 2),
        );
        let server = JobServer::single(ServerConfig::with_workers(PARTS as usize), store);
        let serving = ServingSssp::start(
            &server,
            SERVING,
            &JobSpec::new(PARTS),
            mirror.graph(),
            SOURCE,
        )
        .expect("start serving tenant");
        let stop = Arc::new(AtomicBool::new(false));
        let background = {
            let (server, sizes, stop) = (server.clone(), *sizes, Arc::clone(&stop));
            std::thread::Builder::new()
                .name("bench-resubmit".to_owned())
                .spawn(move || resubmit(&server, &sizes, &stop))
                .expect("spawn resubmitter")
        };
        Self {
            server,
            serving: Some(serving),
            background: Some(background),
            stop,
            mirror,
            seed,
            sizes: *sizes,
            tracer: tracer.clone(),
            batch: Vec::new(),
            cursor: 0,
            last_version: 0,
            queries: 0,
            sample: LayerSample::default(),
        }
    }

    fn serving(&self) -> &ServingSssp {
        self.serving
            .as_ref()
            .expect("serving tenant runs until finish")
    }

    /// Issues one block of point queries; returns its wall nanoseconds.
    fn query_block(&mut self) -> Result<f64, String> {
        let n = u64::from(self.mirror.vertex_count());
        let block = self.sizes.query_block as u64;
        let mut span = self.tracer.span("server.query");
        span.add(block, 0);
        let t = Instant::now();
        for _ in 0..block {
            let v = (self.cursor.wrapping_mul(2_654_435_761) % n) as u32;
            self.cursor += 1;
            let answer = self.serving().query(v);
            if answer.dist.is_none() || answer.version < self.last_version {
                return Err(format!(
                    "query({v}) answered {:?} at version {} after version {}",
                    answer.dist, answer.version, self.last_version
                ));
            }
            self.last_version = answer.version;
        }
        self.queries += block;
        Ok(t.elapsed().as_nanos() as f64)
    }

    /// The scheduler's meters for the serving tenant.
    fn sched_account(&self) -> Option<SchedAccount> {
        let id = self.server.account(SERVING)?.sched_id;
        self.server.scheduler().account(id)
    }

    /// Whether wave number `wave` and its closing refresh are visible to
    /// queries.  Exact: the snapshot version bumps once per step (barrier
    /// hook) and once per launch (initial refresh, then each wave's
    /// closing refresh), and the account is updated before the wave count.
    fn visible(&self, wave: u64) -> bool {
        let serving = self.serving();
        if serving.waves() < wave {
            return false;
        }
        let account = self
            .server
            .account(SERVING)
            .expect("serving tenant has an account");
        serving.version() >= account.steps + account.launches
    }
}

impl<S: KvStore> Scenario for ServeMixed<S> {
    fn prepare(&mut self, k: u64) {
        let n = self.mirror.vertex_count();
        self.batch = random_change_batch(
            n,
            self.sizes.serve_batch,
            0.8,
            subseed(self.seed, 1_000 + k),
        );
        for change in &self.batch {
            self.mirror.apply(*change);
        }
    }

    fn run(&mut self, _k: u64) -> Result<(), String> {
        self.queries = 0;
        let wave = self.serving().waves() + 1;
        let (sched_before, version_before) = (self.sched_account(), self.serving().version());

        let t = Instant::now();
        let accepted = {
            let _span = self.tracer.span("server.push_batch");
            self.serving().push_batch(&self.batch)
        };
        let push_us = t.elapsed().as_nanos() as f64 / 1e3;
        if accepted != self.batch.len() {
            return Err(format!(
                "{accepted} of {} mutations accepted",
                self.batch.len()
            ));
        }
        let mut block_ns = Vec::new();
        loop {
            block_ns.push(self.query_block()?);
            if self.visible(wave) {
                break;
            }
        }

        let per_query = self.sizes.query_block as f64;
        let mut values = vec![
            ("server.query_ns", median(&block_ns) / per_query),
            ("server.push_batch_us", push_us),
            ("server.waves", (self.serving().waves() + 1 - wave) as f64),
            (
                "server.refreshes",
                (self.serving().version() - version_before) as f64,
            ),
        ];
        if let (Some(before), Some(after)) = (sched_before, self.sched_account()) {
            values.push((
                "server.sched_grants",
                (after.granted - before.granted) as f64,
            ));
            values.push((
                "server.sched_wait_ms",
                (after.wait.saturating_sub(before.wait)).as_secs_f64() * 1e3,
            ));
        }
        self.sample = LayerSample {
            counts: Vec::new(),
            values,
        };
        Ok(())
    }

    fn check(&mut self, _k: u64) -> Result<(), String> {
        let oracle = bfs_oracle(&self.mirror, SOURCE);
        // A vertex the service does not know answers `None` and is missed
        // by the length check.
        let served: Vec<(VertexId, u32)> = (0..self.mirror.vertex_count())
            .filter_map(|v| self.serving().query(v).dist.map(|d| (v, d)))
            .collect();
        distances_match(&served, &oracle)
    }

    fn work(&self) -> f64 {
        self.queries as f64
    }

    fn layers(&mut self) -> LayerSample {
        self.sample.clone()
    }

    fn probes(&mut self) -> Vec<(&'static str, f64)> {
        // Admission on the live server: admit a resident tenant and let it
        // go again.
        let admits: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                let resident = self.server.admit_resident("probe", &JobSpec::new(PARTS));
                let us = t.elapsed().as_nanos() as f64 / 1e3;
                drop(resident);
                us
            })
            .collect();
        vec![("server.admit_us", median(&admits))]
    }

    fn finish(mut self: Box<Self>) -> Result<(), String> {
        self.stop.store(true, Ordering::Relaxed);
        let background = self
            .background
            .take()
            .expect("finish runs once")
            .join()
            .map_err(|_| "resubmitter panicked".to_owned())?;
        let report = self
            .serving
            .take()
            .expect("finish runs once")
            .finish()
            .map_err(|e| format!("serving tenant failed: {e}"))?;
        background?;
        if report.refresh_errors > 0 {
            return Err(format!(
                "{} snapshot refreshes failed",
                report.refresh_errors
            ));
        }
        Ok(())
    }
}

impl<S: KvStore> Drop for ServeMixed<S> {
    fn drop(&mut self) {
        // A scenario dropped without `finish` (a set-up repeat) must still
        // stop its threads.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(background) = self.background.take() {
            let _ = background.join();
        }
    }
}
