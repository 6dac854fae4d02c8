//! `ripple-bench` — trajectory tooling for the bench suite.
//!
//! ```text
//! ripple-bench compare <baseline.json> <candidate.json> [--threshold 0.30]
//! ripple-bench show <trajectory.json>
//! ```
//!
//! `compare` pairs the latest record per `(workload, backend, parts)`
//! configuration in both files and fails (exit 1) when any tracked
//! metric — elapsed wall, trial mean, total `w`, total `l`, total
//! `h`-bytes — grew past `old * (1 + threshold) + slack`, or when the
//! run's `rpcs` count (exact for a pinned workload) grew at all.  The
//! slack floors absorb timer noise near zero so a 2 ms workload cannot
//! fail CI for becoming 3 ms.  Exit 2 on usage or malformed documents.

use std::process::ExitCode;

use ripple_bench::json::Json;
use ripple_bench::trajectory::{compare, SCHEMA_VERSION};

fn usage() -> ExitCode {
    eprintln!("usage: ripple-bench compare <baseline.json> <candidate.json> [--threshold 0.30]");
    eprintln!("       ripple-bench show <trajectory.json>");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("show") => run_show(&args[1..]),
        _ => usage(),
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut threshold = 0.30;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--threshold" {
            let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                return usage();
            };
            threshold = v;
        } else {
            paths.push(arg.as_str());
        }
    }
    let [old_path, new_path] = paths[..] else {
        return usage();
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ripple-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match compare(&old, &new, threshold) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ripple-bench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "comparing {new_path} against {old_path} (threshold {:.0}%)",
        threshold * 100.0
    );
    for line in &report.lines {
        println!("  {line}");
    }
    for key in &report.missing {
        println!("  {key}: missing from candidate (not a failure)");
    }
    if report.regressions.is_empty() {
        println!("OK: no tracked metric regressed");
        ExitCode::SUCCESS
    } else {
        for r in &report.regressions {
            eprintln!(
                "REGRESSION: {} {} {:.3} -> {:.3} (+{:.0}%)",
                r.key,
                r.metric,
                r.old,
                r.new,
                (r.new / r.old - 1.0) * 100.0
            );
        }
        ExitCode::FAILURE
    }
}

fn run_show(args: &[String]) -> ExitCode {
    let [path] = args else {
        return usage();
    };
    let doc = match load(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ripple-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(records) = doc.as_arr() else {
        eprintln!("ripple-bench: {path}: not a trajectory array");
        return ExitCode::from(2);
    };
    println!(
        "{path}: {} record(s), schema {SCHEMA_VERSION}",
        records.len()
    );
    for r in records {
        let steps = r.get("steps").and_then(Json::as_arr).map_or(0, <[_]>::len);
        println!(
            "  {} [{} parts {}] sha {} elapsed {:.3}s mean {:.3}s steps {} w {:.0}us h {:.0}B l {:.0}us",
            r.str("workload").unwrap_or("?"),
            r.str("backend").unwrap_or("?"),
            r.num("parts").unwrap_or(0.0),
            r.str("git_sha").unwrap_or("?"),
            r.num("elapsed_secs").unwrap_or(0.0),
            r.num("trial_mean_secs").unwrap_or(0.0),
            steps,
            r.get("totals").and_then(|t| t.num("w_us")).unwrap_or(0.0),
            r.get("totals").and_then(|t| t.num("h_bytes")).unwrap_or(0.0),
            r.get("totals").and_then(|t| t.num("l_us")).unwrap_or(0.0),
        );
    }
    ExitCode::SUCCESS
}
