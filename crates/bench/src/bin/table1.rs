//! **Table I** — Elapsed time (sec) for PageRank variants.
//!
//! Ranks the paper's three biased power-law graphs (scaled down by
//! `--scale`, default 100, for this machine) with the direct K/V EBSP
//! variant and the MapReduce-emulating variant, reporting avg ± stddev
//! over `--trials` trials of ranking the same randomly generated graph —
//! the same graph for both alternatives, as in the paper.
//!
//! Paper (on its 2013 testbed, 6-part debugging store):
//!
//! | Vertices | Edges     | Direct       | MapReduce    |
//! |---------:|----------:|-------------:|-------------:|
//! |  132,000 | 4,341,659 | 28.5 ± 0.4 s | 32.9 ± 0.7 s |
//! |  132,000 | 8,683,970 | 44.8 ± 0.5 s | 53.2 ± 0.4 s |
//! |  262,000 | 8,683,970 | 55.3 ± 0.6 s | 63.5 ± 0.7 s |
//!
//! Expected shape: direct 15–19% faster, because it has 50% fewer I/O and
//! synchronization rounds (verified exactly via the engine metrics printed
//! below).
//!
//! Usage: `cargo run --release -p ripple-bench --bin table1 --
//! [--scale 100] [--trials 5] [--iterations 10] [--parts 6]
//! [--store mem|simple|disk|net] [--data-dir path] [--profile steps.json]
//! [--audit]`
//!
//! `--profile <path>` additionally runs one profiled direct ranking of the
//! first graph shape and writes its per-step profiles (per-part compute
//! times, barrier skew, store deltas) to `<path>` as JSON, tagged with the
//! backend: `{"store":"...","steps":[...]}`.
//!
//! `--audit` runs the property conformance auditor over both PageRank
//! variants (on the first graph shape) before timing anything and prints
//! each report: declared vs. observed properties, violations, inferred
//! stronger properties, and the execution-plan features they would unlock.

use std::cell::RefCell;
use std::sync::Arc;

use ripple_audit::{audit_job, AuditConfig};
use ripple_bench::{dispatch, row, timed_trials, Args, Stats, StoreBench, StoreChoice};
use ripple_core::{step_profiles_json, JobRunner};
use ripple_graph::generate::power_law_graph;
use ripple_graph::pagerank::{
    run_direct_on, run_mapreduce_variant, structure_loader, DirectPageRank, MapReducePageRank,
    PageRankConfig,
};
use ripple_kv::KvStore;

struct Table1 {
    args: Args,
    parts: u32,
}

impl StoreBench for Table1 {
    fn run<S: KvStore>(self, choice: StoreChoice, make_store: impl FnMut() -> S) {
        run(&self.args, self.parts, choice, make_store);
    }
}

fn main() {
    let args = Args::capture();
    let parts = args.get("parts", 6u32);
    let bench = Table1 {
        args: args.clone(),
        parts,
    };
    dispatch(&args, "table1", parts, bench);
}

fn run<S: KvStore>(
    args: &Args,
    parts: u32,
    choice: StoreChoice,
    mut make_store: impl FnMut() -> S,
) {
    let scale = args.get("scale", 100u64);
    let trials = args.get("trials", 5usize);
    let iterations = args.get("iterations", 10u32);
    let profile_path = args.get_opt::<String>("profile");
    let config = PageRankConfig {
        damping: 0.85,
        iterations,
    };

    // The paper's three graph shapes, scaled.
    let shapes: [(u64, u64); 3] = [
        (132_000, 4_341_659),
        (132_000, 8_683_970),
        (262_000, 8_683_970),
    ];

    if args.has("audit") {
        let (v_full, e_full) = shapes[0];
        let vertices = (v_full / scale).max(100) as u32;
        let edges = (e_full / scale).max(1000);
        let graph = power_law_graph(vertices, edges, 0.8, 0xA11CE);
        let n = u64::from(vertices);
        // The auditor re-creates the store per instrumented run; adapt the
        // bench's stateful factory to its `Fn` interface.
        let factory = RefCell::new(&mut make_store);
        let mk_store = || (factory.borrow_mut())();
        let audit = AuditConfig::default();

        let direct = audit_job(
            "table1/direct",
            &audit,
            mk_store,
            || Arc::new(DirectPageRank::new("pr_audit_d", n, config)),
            || vec![structure_loader(&graph)],
        )
        .expect("audit direct variant");
        println!("{}", direct.render());
        let mapreduce = audit_job(
            "table1/mapreduce",
            &audit,
            mk_store,
            || Arc::new(MapReducePageRank::new("pr_audit_mr", n, config)),
            || vec![structure_loader(&graph)],
        )
        .expect("audit MapReduce variant");
        println!("{}", mapreduce.render());
        assert!(
            direct.clean() && mapreduce.clean(),
            "PageRank property declarations failed their audit; \
             fix the declarations before trusting the timings"
        );
    }

    println!(
        "Table I: PageRank elapsed time (s), {iterations} iterations, \
         {parts}-part {choice} store, scale 1/{scale}, {trials} trials"
    );
    let widths = [9, 9, 16, 16, 8, 14, 14];
    row(
        &[
            "vertices".into(),
            "edges".into(),
            "direct (s)".into(),
            "mapreduce (s)".into(),
            "direct%".into(),
            "syncs d/mr".into(),
            "state-IO d/mr".into(),
        ],
        &widths,
    );

    for (v_full, e_full) in shapes {
        let vertices = (v_full / scale).max(100) as u32;
        let edges = (e_full / scale).max(1000);
        let graph = power_law_graph(vertices, edges, 0.8, 0xA11CE);

        let mut direct_barriers = 0;
        let mut mr_barriers = 0;
        let mut direct_io = 0;
        let mut mr_io = 0;

        let direct_times = timed_trials(trials, |_| {
            let runner = JobRunner::new(make_store());
            let out = run_direct_on(&runner, "pr", &graph, config).expect("direct variant");
            direct_barriers = out.metrics.barriers;
            direct_io = out.metrics.state_reads + out.metrics.state_writes;
        });
        let mr_times = timed_trials(trials, |_| {
            let store = make_store();
            let out =
                run_mapreduce_variant(&store, "pr", &graph, config).expect("MapReduce variant");
            mr_barriers = out.metrics.barriers;
            mr_io = out.metrics.state_reads + out.metrics.state_writes;
        });

        let d = Stats::of(&direct_times);
        let m = Stats::of(&mr_times);
        let pct = 100.0 * (m.mean - d.mean) / m.mean;
        row(
            &[
                vertices.to_string(),
                edges.to_string(),
                d.to_string(),
                m.to_string(),
                format!("{pct:.1}%"),
                format!("{direct_barriers}/{mr_barriers}"),
                format!("{direct_io}/{mr_io}"),
            ],
            &widths,
        );
    }
    println!(
        "\npaper shape: direct 15-19% faster with 50% fewer I/O and \
         synchronization rounds"
    );

    if let Some(path) = profile_path {
        let (v_full, e_full) = shapes[0];
        let vertices = (v_full / scale).max(100) as u32;
        let edges = (e_full / scale).max(1000);
        let graph = power_law_graph(vertices, edges, 0.8, 0xA11CE);
        let store = make_store();
        let mut runner = JobRunner::new(store);
        runner.profile(true);
        let out = run_direct_on(&runner, "pr_profiled", &graph, config).expect("profiled run");
        let profiles = out.profiles.as_deref().unwrap_or(&[]);
        let json = format!(
            "{{\"store\":\"{choice}\",\"steps\":{}}}",
            step_profiles_json(profiles)
        );
        std::fs::write(&path, json).expect("write profile JSON");
        println!(
            "wrote {} step profiles of a direct ranking to {path}",
            profiles.len()
        );
    }
}
