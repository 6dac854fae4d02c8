//! **Table II** — Block multiplications in each step (BSPified SUMMA,
//! M = N = 3, equal blocks).
//!
//! Paper:
//!
//! | Step            | 1 | 2 | 3 | 4 | 5 | 6 | 7 |
//! |-----------------|---|---|---|---|---|---|---|
//! | Multiplications | 1 | 3 | 6 | 3 | 6 | 3 | 5 |
//!
//! Seven steps even though a component does only three block multiplies:
//! measuring time as block multiplications done in series, the BSP
//! synchronization slows this example by 7/3.
//!
//! Usage: `cargo run --release -p ripple-bench --bin table2 --
//! [--grid 3] [--block 8] [--store mem|simple|disk|net] [--data-dir path]
//! [--profile steps.json]`
//!
//! `--profile <path>` writes the run's per-step engine profiles (per-part
//! compute times, barrier skew, store deltas) to `<path>` as JSON, tagged
//! with the backend: `{"store":"...","steps":[...]}`.

use ripple_bench::{dispatch, Args, StoreBench, StoreChoice};
use ripple_core::{step_profiles_json, ExecMode};
use ripple_kv::KvStore;
use ripple_summa::{multiply, DenseMatrix, SummaOptions};

struct Table2 {
    args: Args,
    grid: u32,
    block: usize,
}

impl StoreBench for Table2 {
    fn run<S: KvStore>(self, choice: StoreChoice, mut make_store: impl FnMut() -> S) {
        run(&self.args, self.grid, self.block, choice, make_store());
    }
}

fn main() {
    let args = Args::capture();
    let grid = args.get("grid", 3u32);
    let block = args.get("block", 8usize);
    let bench = Table2 {
        args: args.clone(),
        grid,
        block,
    };
    dispatch(&args, "table2", grid, bench);
}

fn run<S: KvStore>(args: &Args, grid: u32, block: usize, choice: StoreChoice, store: S) {
    let profile_path = args.get_opt::<String>("profile");
    let dim = grid as usize * block;

    let a = DenseMatrix::random(dim, dim, 0xBEEF);
    let b = DenseMatrix::random(dim, dim, 0xF00D);
    let (c, report) = multiply(
        &store,
        &a,
        &b,
        &SummaOptions {
            grid,
            mode: ExecMode::Synchronized,
            trace: true,
            profile: profile_path.is_some(),
        },
    )
    .expect("SUMMA multiply");
    assert!(
        c.approx_eq(&a.multiply(&b), 1e-9),
        "distributed result must match the sequential kernel"
    );

    let trace = report.multiplies_per_step.expect("tracing was on");
    println!("Table II: block multiplications in each step ({grid}x{grid} grid, {choice} store)");
    let header: Vec<String> = (1..=trace.len()).map(|s| format!("{s:>4}")).collect();
    println!("step {}", header.join(""));
    let counts: Vec<String> = trace.iter().map(|c| format!("{c:>4}")).collect();
    println!("muls {}", counts.join(""));

    let per_component = grid as u64;
    let serial_steps = trace.len() as u64;
    println!(
        "\ntotal multiplies: {} ({} per component); serial multiply steps: {}; \
         BSP slowdown factor {}/{}",
        trace.iter().sum::<u64>(),
        per_component,
        serial_steps,
        serial_steps,
        per_component,
    );
    if grid == 3 {
        assert_eq!(trace, vec![1, 3, 6, 3, 6, 3, 5], "must reproduce Table II");
        println!("matches the paper's Table II exactly");
    }

    if let Some(path) = profile_path {
        let profiles = report.outcome.profiles.as_deref().unwrap_or(&[]);
        let json = format!(
            "{{\"store\":\"{choice}\",\"steps\":{}}}",
            step_profiles_json(profiles)
        );
        std::fs::write(&path, json).expect("write profile JSON");
        println!("wrote {} step profiles to {path}", profiles.len());
    }
}
