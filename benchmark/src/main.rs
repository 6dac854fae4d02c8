//! `ripple-benchmark`: see `usage()`.

use std::path::PathBuf;
use std::process::ExitCode;

use ripple_benchmark::harness::{self, Config};
use ripple_benchmark::metrics::{self, RUN_SECONDS};
use ripple_benchmark::workloads::{Sizes, WorkloadId};
use ripple_benchmark::{aa, DEFAULT_SEED};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         ripple-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick]\n      \
         one run in this process; the last stdout line is the result JSON\n  \
         ripple-benchmark run <workload|all> [--seed S] [--seconds N] [--trace] [--quick]\n      \
         each workload in a child process: timed pass, and with --trace the traced pass too\n  \
         ripple-benchmark aa [--seed S] [--seconds N] [--quick]\n      \
         the whole set twice (A B B A); non-zero exit if the two disagree\n  \
         ripple-benchmark manifest | glossary\n      \
         print BENCHMARK.json / the README metric tables\n\
         workloads: {}",
        WorkloadId::ALL.map(WorkloadId::name).join(" ")
    );
    ExitCode::from(2)
}

/// `--name value` and bare `--name` flags.
struct Flags(Vec<String>);

impl Flags {
    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let flag = format!("--{name}");
        match self.0.iter().position(|a| *a == flag) {
            None => Ok(None),
            Some(i) => self
                .0
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a valid value")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == &format!("--{name}"))
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags(args.clone());
    let parsed = (|| -> Result<ExitCode, String> {
        let quick = flags.has("quick");
        let seed = flags.value::<u64>("seed")?.unwrap_or(DEFAULT_SEED);
        let seconds = flags.value::<f64>("seconds")?.unwrap_or(if quick {
            0.0
        } else {
            f64::from(RUN_SECONDS)
        });
        match args.first().map(String::as_str) {
            Some("manifest") => print!("{}", metrics::manifest_json()),
            Some("glossary") => print!("{}", metrics::glossary_markdown()),
            Some("run") => {
                let which = args.get(1).map(String::as_str).unwrap_or("all");
                let workloads: Vec<WorkloadId> = if which == "all" {
                    WorkloadId::ALL.to_vec()
                } else {
                    vec![WorkloadId::parse(which).ok_or(format!("unknown workload {which}"))?]
                };
                let set = aa::run_set(
                    &workloads,
                    seed,
                    seconds,
                    quick,
                    flags.has("trace"),
                    &out_dir(),
                )?;
                return Ok(if set.iter().all(harness::Report::correct) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            }
            Some("aa") => {
                return Ok(if aa::run_aa(seed, seconds, quick, &out_dir())? {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            }
            Some(first) if first.starts_with("--") => {
                let name: String = flags.value("workload")?.ok_or("--workload is required")?;
                let workload =
                    WorkloadId::parse(&name).ok_or(format!("unknown workload {name}"))?;
                let trace = flags.value::<u8>("trace")?.unwrap_or(0) != 0;
                let report = harness::run(&Config {
                    workload,
                    seed,
                    seconds,
                    trace,
                    sizes: if quick { Sizes::QUICK } else { Sizes::FULL },
                    out_dir: out_dir(),
                });
                // The result line carries the verdict (`correct`); the exit
                // code only says that a result was produced.
                print!("{}", report.table());
                println!("{}", report.json_line());
            }
            _ => return Ok(usage()),
        }
        Ok(ExitCode::SUCCESS)
    })();
    parsed.unwrap_or_else(|e| {
        eprintln!("ripple-benchmark: {e}");
        usage()
    })
}
