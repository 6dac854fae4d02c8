//! **§V-B experiment** — SUMMA matrix multiply with and without
//! synchronization.
//!
//! The paper ran M = N = 3 on WebSphere eXtreme Scale with 10 containers:
//! 8 trials with synchronization averaged 90 s (σ 0.5), 8 trials without
//! averaged 51 s (σ 0.5) — a 1.76× speedup, short of the 7/3 ≈ 2.33 bound
//! because of various overheads, but "a worthwhile improvement clearly
//! demonstrating the benefits of a programming framework that allows
//! synchronization to be controlled by the programmer".
//!
//! Usage: `cargo run --release -p ripple-bench --bin summa_sync --
//! [--grid 3] [--block 64] [--trials 8] [--parts 3]
//! [--store mem|simple|disk|net] [--data-dir path] [--profile profiles.json]`
//!
//! `--profile <path>` additionally runs one profiled multiply per mode and
//! writes both profile shapes to `<path>` as JSON: per-step profiles of
//! the synchronized run, per-worker busy/idle profiles of the
//! unsynchronized run — the two sides of the §V-B comparison — plus the
//! backend name and the synchronized run's whole-store counter deltas
//! (which for `--store disk` include WAL bytes and fsyncs).

use ripple_bench::{dispatch, timed_trials, Args, Stats, StoreBench, StoreChoice};
use ripple_core::{step_profiles_json, worker_profiles_json, ExecMode};
use ripple_kv::KvStore;
use ripple_summa::{multiply, DenseMatrix, SummaOptions};

struct SummaSync {
    args: Args,
}

impl StoreBench for SummaSync {
    fn run<S: KvStore>(self, choice: StoreChoice, make_store: impl FnMut() -> S) {
        run(&self.args, choice, make_store);
    }
}

fn main() {
    let args = Args::capture();
    let parts = args.get("parts", 3u32);
    let bench = SummaSync { args: args.clone() };
    dispatch(&args, "summa_sync", parts, bench);
}

fn run<S: KvStore>(args: &Args, choice: StoreChoice, mut make_store: impl FnMut() -> S) {
    let grid = args.get("grid", 3u32);
    let block = args.get("block", 64usize);
    let trials = args.get("trials", 8usize);
    let profile_path = args.get_opt::<String>("profile");
    let dim = grid as usize * block;

    let a = DenseMatrix::random(dim, dim, 1);
    let b = DenseMatrix::random(dim, dim, 2);
    let reference = a.multiply(&b);

    let mut run = |mode: ExecMode| -> (Stats, u32) {
        let mut barriers = 0;
        let times = timed_trials(trials, |_| {
            let store = make_store();
            let (c, report) = multiply(
                &store,
                &a,
                &b,
                &SummaOptions {
                    grid,
                    mode,
                    trace: false,
                    profile: false,
                },
            )
            .expect("SUMMA multiply");
            assert!(c.approx_eq(&reference, 1e-6));
            barriers = report.outcome.metrics.barriers;
        });
        (Stats::of(&times), barriers)
    };

    println!(
        "SUMMA {dim}x{dim} (grid {grid}x{grid}, block {block}), {trials} trials, \
         {choice} store"
    );
    let (with_sync, sync_barriers) = run(ExecMode::Synchronized);
    let (without, nosync_barriers) = run(ExecMode::Unsynchronized);
    println!("  with synchronization:    {with_sync} s  ({sync_barriers} barriers)");
    println!("  without synchronization: {without} s  ({nosync_barriers} barriers)");
    println!(
        "  speedup: {:.2}x (paper: 90/51 = 1.76x; upper bound 7/3 = 2.33x)",
        with_sync.mean / without.mean
    );

    if let Some(path) = profile_path {
        let mut profiled = |mode: ExecMode| {
            let store = make_store();
            let before = store.metrics();
            let (_, report) = multiply(
                &store,
                &a,
                &b,
                &SummaOptions {
                    grid,
                    mode,
                    trace: false,
                    profile: true,
                },
            )
            .expect("profiled SUMMA multiply");
            let delta = store.metrics() - before;
            (report.outcome, delta)
        };
        let (sync_out, sync_store) = profiled(ExecMode::Synchronized);
        let (nosync_out, _) = profiled(ExecMode::Unsynchronized);
        let json = format!(
            "{{\"store\":\"{choice}\",\
             \"store_totals\":{{\"local_ops\":{},\"remote_ops\":{},\
             \"bytes_marshalled\":{},\"wal_bytes\":{},\"fsyncs\":{},\
             \"replayed_records\":{}}},\
             \"synchronized_steps\":{},\"unsynchronized_workers\":{}}}",
            sync_store.local_ops,
            sync_store.remote_ops,
            sync_store.bytes_marshalled,
            sync_store.wal_bytes,
            sync_store.fsyncs,
            sync_store.replayed_records,
            step_profiles_json(sync_out.profiles.as_deref().unwrap_or(&[])),
            worker_profiles_json(nosync_out.worker_profiles.as_deref().unwrap_or(&[])),
        );
        std::fs::write(&path, json).expect("write profile JSON");
        println!("  wrote step + worker profiles to {path}");
    }
}
