//! Shared harness for the paper-table regenerators: one binary per table or
//! figure of the paper's evaluation (`table1`, `table2`, `summa_sync`,
//! `sssp_incremental`, `ablation_stealing`; see `EXPERIMENTS.md`), plus
//! small statistics and CLI helpers.  Performance over time is measured by
//! `benchmark/` (`BENCHMARK.json`), not here; the `pairs` bin runs it
//! alternately on a parent and a change and judges the difference
//! ([`pairs`]).
//!
//! Absolute numbers will not match the paper's 2013 testbed; the harness
//! reports the *shape* — who wins, by what factor — alongside the engine's
//! own cost metrics (synchronizations, I/O rounds, invocations), which are
//! hardware-independent.

use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod pairs;

use ripple_kv::KvStore;
use ripple_store_disk::DiskStore;
use ripple_store_mem::MemStore;
use ripple_store_net::LoopbackCluster;
use ripple_store_simple::SimpleStore;

/// Mean and (sample) standard deviation of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Number of samples.
    pub n: usize,
}

impl Stats {
    /// Computes stats over raw samples.
    pub fn of(samples: &[f64]) -> Stats {
        let n = samples.len();
        assert!(n > 0, "stats need at least one sample");
        let mean = samples.iter().sum::<f64>() / n as f64;
        let stddev = if n < 2 {
            0.0
        } else {
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
            var.sqrt()
        };
        Stats { mean, stddev, n }
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // A single sample has no spread to report: print the mean alone
        // instead of a meaningless (once upon a time NaN) "± 0.000".
        if self.n < 2 {
            write!(f, "{:.3}", self.mean)
        } else {
            write!(f, "{:.3} ± {:.3}", self.mean, self.stddev)
        }
    }
}

/// Runs `f` for `trials` timed trials, returning per-trial seconds.
pub fn timed_trials(trials: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..trials)
        .map(|t| {
            #[expect(clippy::disallowed_methods, reason = "timed_trials reports wall time")]
            let start = Instant::now();
            f(t);
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Minimal flag parser: `--name value` pairs from `std::env::args`.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn capture() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// From an explicit vector (for tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Self { raw }
    }

    /// The value following `--name`, parsed.
    ///
    /// # Panics
    ///
    /// Panics with a usage message if the value does not parse.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        let flag = format!("--{name}");
        match self.raw.iter().position(|a| *a == flag) {
            None => default,
            Some(i) => {
                let v = self
                    .raw
                    .get(i + 1)
                    .unwrap_or_else(|| panic!("{flag} needs a value"));
                v.parse().unwrap_or_else(|e| panic!("{flag} {v}: {e}"))
            }
        }
    }

    /// The value following `--name`, parsed, or `None` when the flag is
    /// absent.
    ///
    /// # Panics
    ///
    /// Panics with a usage message if the value is missing or unparsable.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: std::fmt::Display,
    {
        let flag = format!("--{name}");
        self.raw.iter().position(|a| *a == flag).map(|i| {
            let v = self
                .raw
                .get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a value"));
            v.parse().unwrap_or_else(|e| panic!("{flag} {v}: {e}"))
        })
    }

    /// Whether the bare flag `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == &format!("--{name}"))
    }
}

/// Which K/V backend a bench binary runs against
/// (`--store mem|simple|disk|net`).
///
/// Every experiment binary accepts the flag; `mem` (the default) and
/// `simple` are in-memory, `disk` is the WAL-backed durable store and
/// additionally honours `--data-dir <path>` for where its files live, and
/// `net` runs against a loopback cluster of TCP part servers (one server
/// per part), so every store operation crosses a real socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreChoice {
    /// `ripple-store-mem`: sharded, replicated, production-shaped.
    Mem,
    /// `ripple-store-simple`: the paper's single-lock debugging store.
    Simple,
    /// `ripple-store-disk`: durable, WAL-backed, resumable.
    Disk,
    /// `ripple-store-net`: networked client over loopback part servers.
    Net,
}

impl StoreChoice {
    /// Parses `--store` (defaulting to `mem`).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on an unknown backend name.
    pub fn from_args(args: &Args) -> StoreChoice {
        match args.get_opt::<String>("store").as_deref() {
            None | Some("mem") => StoreChoice::Mem,
            Some("simple") => StoreChoice::Simple,
            Some("disk") => StoreChoice::Disk,
            Some("net") => StoreChoice::Net,
            Some(other) => panic!("--store {other}: expected mem, simple, disk, or net"),
        }
    }

    /// The backend name as spelled on the command line (and recorded in
    /// profile JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StoreChoice::Mem => "mem",
            StoreChoice::Simple => "simple",
            StoreChoice::Disk => "disk",
            StoreChoice::Net => "net",
        }
    }
}

/// A bench body that is generic over the backing store, for [`dispatch`].
///
/// Rust closures cannot be generic over types, so the `--store` dispatch
/// hands the chosen backend to an object implementing this trait instead
/// of a callback.
pub trait StoreBench {
    /// Runs the experiment.  `make_store` yields a fresh, empty store of
    /// the chosen backend on every call — one per trial instance.
    fn run<S: KvStore>(self, choice: StoreChoice, make_store: impl FnMut() -> S);
}

/// Parses `--store` / `--data-dir` and invokes `bench` with a factory for
/// the chosen backend — the dispatch every experiment bin used to
/// duplicate.
///
/// `disk` factories give each instance its own subdirectory of the data
/// directory (experiments may keep two stores live at once): `--data-dir`
/// if given, and left alone; otherwise a per-process directory under the
/// system temp dir, removed when the bench body returns.  `net` factories spawn a
/// fresh loopback cluster with one part server per part, kept alive until
/// the bench body returns.
pub fn dispatch<B: StoreBench>(args: &Args, bin: &str, parts: u32, bench: B) {
    let choice = StoreChoice::from_args(args);
    match choice {
        StoreChoice::Mem => bench.run(choice, || MemStore::builder().default_parts(parts).build()),
        StoreChoice::Simple => bench.run(choice, || SimpleStore::new(parts)),
        StoreChoice::Disk => {
            let dir = disk_data_dir(args, bin);
            let _scratch = (!args.has("data-dir")).then(|| RemoveOnDrop(dir.clone()));
            let mut instance = 0u64;
            bench.run(choice, move || {
                instance += 1;
                let dir = dir.join(format!("i{instance}"));
                reset_dir(&dir);
                DiskStore::builder()
                    .default_parts(parts)
                    .open(&dir)
                    .expect("open disk store")
            });
        }
        StoreChoice::Net => {
            let mut clusters = Vec::new();
            bench.run(choice, move || {
                let cluster = LoopbackCluster::spawn(parts as usize, parts);
                let store = cluster.store.clone();
                clusters.push(cluster);
                store
            });
        }
    }
}

/// Removes the directory it holds when dropped — also when the bench body
/// panics.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::fmt::Display for StoreChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The directory a `--store disk` run keeps its files in.
fn disk_data_dir(args: &Args, bin: &str) -> PathBuf {
    match args.get_opt::<String>("data-dir") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("ripple-bench-{bin}-{}", std::process::id())),
    }
}

/// Clears and recreates `dir` so a trial starts from an empty store.
///
/// # Panics
///
/// Panics if the directory cannot be recreated.
fn reset_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("create data dir {}: {e}", dir.display()));
}

/// Prints an aligned table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_mean_and_stddev() {
        let s = Stats::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.138).abs() < 1e-3);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn single_sample_has_zero_stddev() {
        let s = Stats::of(&[3.5]);
        assert_eq!(s.stddev, 0.0);
        assert!(s.stddev.is_finite(), "n == 1 must not produce NaN");
    }

    #[test]
    fn single_sample_displays_mean_only() {
        assert_eq!(Stats::of(&[3.5]).to_string(), "3.500");
        assert_eq!(Stats::of(&[1.0, 3.0]).to_string(), "2.000 ± 1.414");
        assert!(!Stats::of(&[3.5]).to_string().contains("NaN"));
    }

    #[test]
    fn store_choice_parses_all_backends() {
        for (flag, want) in [
            ("mem", StoreChoice::Mem),
            ("simple", StoreChoice::Simple),
            ("disk", StoreChoice::Disk),
            ("net", StoreChoice::Net),
        ] {
            let choice = StoreChoice::from_args(&args(&["--store", flag]));
            assert_eq!(choice, want);
            assert_eq!(choice.name(), flag);
        }
        assert_eq!(
            StoreChoice::from_args(&Args::from_vec(vec![])),
            StoreChoice::Mem
        );
    }

    /// Asserts it was handed `want` and opens two fresh stores from the
    /// factory, each of which must accept the same table name again.
    struct FreshTwice(StoreChoice);

    impl StoreBench for FreshTwice {
        fn run<S: KvStore>(self, choice: StoreChoice, mut make_store: impl FnMut() -> S) {
            assert_eq!(choice, self.0);
            for _ in 0..2 {
                make_store()
                    .create_table(ripple_kv::TableSpec::new("t").parts(2))
                    .expect("fresh store");
            }
        }
    }

    fn args(flags: &[&str]) -> Args {
        Args::from_vec(flags.iter().map(|f| (*f).to_owned()).collect())
    }

    #[test]
    fn dispatch_spawns_fresh_stores_per_call() {
        dispatch(
            &args(&["--store", "net"]),
            "bench-test",
            2,
            FreshTwice(StoreChoice::Net),
        );
    }

    #[test]
    fn dispatch_removes_its_disk_dir_and_keeps_a_named_one() {
        let default = args(&["--store", "disk"]);
        let dir = disk_data_dir(&default, "bench-test-disk");
        dispatch(
            &default,
            "bench-test-disk",
            2,
            FreshTwice(StoreChoice::Disk),
        );
        assert!(!dir.exists(), "{} leaked", dir.display());

        let named = std::env::temp_dir().join(format!("ripple-bench-named-{}", std::process::id()));
        let flags = args(&[
            "--store",
            "disk",
            "--data-dir",
            named.to_str().expect("utf-8"),
        ]);
        dispatch(&flags, "bench-test-disk", 2, FreshTwice(StoreChoice::Disk));
        assert!(
            named.join("i2").is_dir(),
            "a named --data-dir is the user's"
        );
        std::fs::remove_dir_all(&named).expect("clean up the named dir");
    }

    #[test]
    fn args_parse_flags() {
        let args = Args::from_vec(vec!["--scale".into(), "10".into(), "--verbose".into()]);
        assert_eq!(args.get("scale", 1u32), 10);
        assert_eq!(args.get("trials", 7u32), 7);
        assert!(args.has("verbose"));
        assert!(!args.has("quiet"));
    }

    #[test]
    fn args_get_opt_distinguishes_absent_flags() {
        let args = Args::from_vec(vec!["--profile".into(), "out.json".into()]);
        assert_eq!(
            args.get_opt::<String>("profile").as_deref(),
            Some("out.json")
        );
        assert_eq!(args.get_opt::<u32>("scale"), None);
    }

    #[test]
    fn timed_trials_counts() {
        let times = timed_trials(3, |_| {});
        assert_eq!(times.len(), 3);
    }
}
