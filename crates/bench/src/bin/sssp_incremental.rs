//! **§V-C experiment** — incremental single-source shortest paths:
//! selective enablement vs full scans.
//!
//! The paper's workload: 100,000 unconnected vertices, one chosen as the
//! source; ~1.8 million random power-law edges added; initial distances
//! solved; then, ten times, a batch of 1,000 random primitive changes is
//! generated and applied, and the distance annotations are updated.  The
//! elapsed time for the ten batch-updates is summed per trial.
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

use ripple_bench::{dispatch, Args, Stats, StoreBench, StoreChoice};
use ripple_core::{step_profiles_json, JobRunner};
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

    let mut selective_times = Vec::new();
    let mut fullscan_times = Vec::new();
    let mut sel_invocations = 0u64;
    let mut fs_invocations = 0u64;

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

        let mut sel_elapsed = 0.0;
        let mut fs_elapsed = 0.0;
        for b in 0..batches {
            let batch = random_change_batch(n, batch_size, 0.8, seed * 1000 + b as u64);
            for c in &batch {
                graph.apply(*c);
            }
            let t = std::time::Instant::now();
            let m = sel.apply_batch(&batch).expect("selective update");
            sel_elapsed += t.elapsed().as_secs_f64();
            sel_invocations += m.invocations;
            if let Some(fs) = &fs {
                let t = std::time::Instant::now();
                let m = fs.apply_batch(&batch).expect("full-scan update");
                fs_elapsed += t.elapsed().as_secs_f64();
                fs_invocations += m.invocations;
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
        selective_times.push(sel_elapsed);
        if fs.is_some() {
            fullscan_times.push(fs_elapsed);
        }
    }

    let sel = Stats::of(&selective_times);
    println!(
        "  selective enablement: {sel} s for {batches} batches \
         ({sel_invocations} component invocations total)"
    );
    if fullscan_times.is_empty() {
        println!("  full scan: skipped (--skip-fullscan)");
    } else {
        let fs = Stats::of(&fullscan_times);
        println!(
            "  full scan:            {fs} s for {batches} batches \
             ({fs_invocations} component invocations total)"
        );
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
