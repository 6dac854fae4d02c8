//! **§V-C experiment** — incremental single-source shortest paths:
//! selective enablement vs full scans.
//!
//! The paper's workload: 100,000 unconnected vertices, one chosen as the
//! source; ~1.8 million random power-law edges added; initial distances
//! solved; then, ten times, a batch of 1,000 random primitive changes is
//! generated and applied, and the distance annotations are updated.  The
//! elapsed time for the ten batch-updates is summed per trial, and split
//! into the engine runs' time (`RunMetrics::elapsed`) and the rest:
//! applying the batch's changes to the stored graph before each launch.
//!
//! Paper: selective enablement took **0.21 ± 0.03 s** for the ten batches,
//! full scanning took **78 ± 5 s** — roughly 370×, even though the
//! selective variant does extra bookkeeping.
//!
//! Usage: `cargo run --release -p ripple-bench --bin sssp_incremental --
//! [--scale 50] [--batches 10] [--batch-size 1000] [--trials 3]
//! [--parts 6] [--skip-fullscan] [--store mem|simple|disk|net]
//! [--data-dir path] [--profile steps.json]`
//!
//! `--profile <path>` additionally applies one extra profiled batch on the
//! selective instance after the timed trials and writes its per-step
//! engine profiles to `<path>` as JSON tagged with the backend
//! (`{"store":"...","steps":[...]}`) — the step-level view of a change
//! wave's blast radius.

use std::time::Instant;

use ripple_bench::{dispatch, Args, Stats, StoreBench, StoreChoice};
use ripple_core::{step_profiles_json, EbspError, JobRunner, RunMetrics};
use ripple_graph::generate::{random_change_batch, random_undirected};
use ripple_graph::sssp::{bfs_oracle, FullScanInstance, SelectiveInstance};
use ripple_kv::KvStore;

struct Sssp {
    args: Args,
    parts: u32,
}

impl StoreBench for Sssp {
    fn run<S: KvStore>(self, choice: StoreChoice, make_store: impl FnMut() -> S) {
        run(&self.args, self.parts, choice, make_store);
    }
}

fn main() {
    let args = Args::capture();
    let parts = args.get("parts", 6u32);
    let bench = Sssp {
        args: args.clone(),
        parts,
    };
    dispatch(&args, "sssp_incremental", parts, bench);
}

fn run<S: KvStore>(
    args: &Args,
    parts: u32,
    choice: StoreChoice,
    mut make_store: impl FnMut() -> S,
) {
    let scale = args.get("scale", 50u64);
    let batches = args.get("batches", 10usize);
    let batch_size = args.get("batch-size", 1000usize) / scale.max(1) as usize;
    let batch_size = batch_size.max(10);
    let trials = args.get("trials", 3usize);
    let skip_fullscan = args.has("skip-fullscan");
    let profile_path = args.get_opt::<String>("profile");

    let n = (100_000u64 / scale).max(500) as u32;
    let edges = 1_800_000u64 / scale;
    println!(
        "incremental SSSP: {n} vertices, ~{edges} undirected edges, \
         {batches} batches of {batch_size} changes, {trials} trials, \
         {parts} parts, {choice} store (paper scale /{scale})"
    );

    let mut selective = Leg::default();
    let mut fullscan = Leg::default();

    for trial in 0..trials {
        let seed = 0xD15C0 + trial as u64;
        let mut graph = random_undirected(n, edges, 0.8, seed);
        let source = 0;

        let sel_store = make_store();
        let (sel, _) = SelectiveInstance::initialize(&sel_store, "sel", graph.graph(), source)
            .expect("selective init");
        let fs = if skip_fullscan {
            None
        } else {
            let fs_store = make_store();
            Some(
                FullScanInstance::initialize(&fs_store, "fs", graph.graph(), source)
                    .expect("full-scan init")
                    .0,
            )
        };

        selective.trials.push((0.0, 0.0));
        if fs.is_some() {
            fullscan.trials.push((0.0, 0.0));
        }
        for b in 0..batches {
            let batch = random_change_batch(n, batch_size, 0.8, seed * 1000 + b as u64);
            for c in &batch {
                graph.apply(*c);
            }
            selective.time(|| sel.apply_batch(&batch));
            if let Some(fs) = &fs {
                fullscan.time(|| fs.apply_batch(&batch));
            }
        }
        // Verify against the oracle at end of trial.
        let oracle = bfs_oracle(&graph, source);
        for (v, d) in sel.distances().expect("read distances") {
            assert_eq!(d, oracle[v as usize], "selective diverged at vertex {v}");
        }
        if let Some(fs) = &fs {
            for (v, d) in fs.distances().expect("read distances") {
                assert_eq!(d, oracle[v as usize], "full-scan diverged at vertex {v}");
            }
        }
    }

    let sel = selective.report("selective enablement", batches);
    if fullscan.trials.is_empty() {
        println!("  full scan: skipped (--skip-fullscan)");
    } else {
        let fs = fullscan.report("full scan", batches);
        println!(
            "  speedup: {:.0}x (paper: 78 / 0.21 = ~370x)",
            fs.mean / sel.mean
        );
    }

    if let Some(path) = profile_path {
        let seed = 0xD15C0u64;
        let graph = random_undirected(n, edges, 0.8, seed);
        let store = make_store();
        let (sel, _) = SelectiveInstance::initialize(&store, "sel_profiled", graph.graph(), 0)
            .expect("selective init");
        let batch = random_change_batch(n, batch_size, 0.8, seed * 7919);
        let mut runner = JobRunner::new(store);
        runner.profile(true);
        let out = sel
            .apply_batch_on(&runner, &batch)
            .expect("profiled update");
        let profiles = out.profiles.as_deref().unwrap_or(&[]);
        let json = format!(
            "{{\"store\":\"{choice}\",\"steps\":{}}}",
            step_profiles_json(profiles)
        );
        std::fs::write(&path, json).expect("write profile JSON");
        println!(
            "  wrote {} step profiles of one change wave to {path}",
            profiles.len()
        );
    }
}

/// One leg's batch updates: `(wall, run)` seconds per trial, `run` being
/// the engine runs' share (`RunMetrics::elapsed`), and the invocations of
/// all trials.
#[derive(Default)]
struct Leg {
    trials: Vec<(f64, f64)>,
    invocations: u64,
}

impl Leg {
    /// Applies one batch through `apply`, adding to the last trial.
    fn time(&mut self, apply: impl FnOnce() -> Result<RunMetrics, EbspError>) {
        #[expect(clippy::disallowed_methods, reason = "the bench reports wall time")]
        let started = Instant::now();
        let metrics = apply().expect("batch update");
        let (wall, run) = self.trials.last_mut().expect("a trial is open");
        *wall += started.elapsed().as_secs_f64();
        *run += metrics.elapsed.as_secs_f64();
        self.invocations += metrics.invocations;
    }

    /// Prints the leg's per-trial times and invocations; returns its wall
    /// time.
    fn report(&self, name: &str, batches: usize) -> Stats {
        let stats =
            |f: fn(&(f64, f64)) -> f64| Stats::of(&self.trials.iter().map(f).collect::<Vec<_>>());
        let wall = stats(|t| t.0);
        let label = format!("{name}:");
        println!(
            "  {label:<21} {wall} s for {batches} batches = run {} s + apply changes {} s \
             ({:.0} component invocations per trial)",
            stats(|t| t.1),
            stats(|t| t.0 - t.1),
            self.invocations as f64 / self.trials.len() as f64,
        );
        wall
    }
}
