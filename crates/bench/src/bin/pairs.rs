//! **pairs** — alternated parent/change runs of one benchmark workload and
//! the gain verdict they support (see [`ripple_bench::pairs`]).
//!
//! Run from the root of the change's checkout:
//!
//! `cargo run --release -p ripple-bench --bin pairs -- --workload
//! pagerank-net [--seed 2013] [--pairs 10] [--parent HEAD]
//! [--parent-tree DIR] [--metric op_ms]`
//!
//! The change is the working tree; `--parent` defaults to `HEAD`, the
//! parent of uncommitted work (pass `HEAD~1` once the change is committed).
//! The parent revision is exported (`git archive`) into `--parent-tree`,
//! by default `target/pairs/<commit>`, and reused by later invocations.
//! The archive is unpacked next to that directory and renamed into place
//! only once it is whole, so an interrupted export is redone, never
//! trusted; an export, unlike a worktree, registers nothing in the
//! repository.  Each pair runs
//! `bash benchmark/run.sh --workload W --seed S --seconds T --trace 0` in
//! both trees, `T` being the run length `BENCHMARK.json` declares
//! (`run_seconds`), each tree with its own build directory, the parent
//! first in even pairs and the change first in odd ones.  The report gives
//! every pair, the build profile and, for `--metric` and every other
//! end-to-end metric, each side's median and quartiles and the change's
//! wins.  The verdict is `--metric`'s, which must be an end-to-end metric,
//! judged in its own direction: a gain needs ten pairs or more, nine wins
//! in ten and medians further apart than the parent's inter-quartile
//! distance.  The exit status is 0 for a gain, 1 for none and 2 when a run
//! fails.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ripple_bench::pairs::{direction, field, metric_value, Verdict, END_TO_END};
use ripple_bench::Args;

fn main() -> ExitCode {
    let args = Args::capture();
    let workload: String = args
        .get_opt("workload")
        .unwrap_or_else(|| panic!("--workload <name> is required"));
    let seed: u64 = args.get("seed", 2013);
    let count: usize = args.get("pairs", 10);
    let parent: String = args.get("parent", "HEAD".to_owned());
    let metric: String = args.get("metric", "op_ms".to_owned());
    let better = direction(&metric).unwrap_or_else(|| {
        let names: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
        panic!("--metric {metric}: expected one of {names:?}")
    });
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .unwrap_or_else(|e| panic!("BENCHMARK.json (run from the checkout's root): {e}"));
    let seconds = field(&declared, "run_seconds")
        .unwrap_or_else(|| panic!("BENCHMARK.json declares no run_seconds"));

    let commit = git(&["rev-parse", "--verify", &format!("{parent}^{{commit}}")]);
    let parent_tree = args
        .get_opt::<PathBuf>("parent-tree")
        .unwrap_or_else(|| Path::new("target/pairs").join(&commit));
    if let Err(e) = export(&commit, &parent_tree) {
        eprintln!(
            "pairs: exporting {commit} to {}: {e}",
            parent_tree.display()
        );
        return ExitCode::from(2);
    }
    let change_tree = PathBuf::from(".");
    println!("workload {workload}, seed {seed}, {seconds} s runs, metric {metric} ({better:?} is better)");
    println!("parent {commit} in {}", parent_tree.display());
    println!("change: the working tree");
    for (side, tree) in [("parent", &parent_tree), ("change", &change_tree)] {
        println!("build profile ({side}): {}", build_profile(tree));
    }

    let run = |tree: &Path| -> Result<String, String> {
        let line = run_once(tree, &workload, seed, seconds)
            .map_err(|e| format!("in {}: {e}", tree.display()))?;
        if !line.contains("\"correct\": true") || field(&line, "failed") != Some(0) {
            return Err(format!("incorrect or failed operations: {line}"));
        }
        match metric_value(&line, &metric) {
            Some(_) => Ok(line),
            None => Err(format!("no {metric} in {line}")),
        }
    };
    // Result lines, (parent, change) per pair.
    let mut lines = Vec::with_capacity(count);
    for i in 0..count {
        let parent_first = i % 2 == 0;
        let (first, second) = if parent_first {
            (&parent_tree, &change_tree)
        } else {
            (&change_tree, &parent_tree)
        };
        let (a, b) = match run(first).and_then(|a| Ok((a, run(second)?))) {
            Ok(ran) => ran,
            Err(e) => {
                eprintln!("pairs: pair {i}: {e}");
                return ExitCode::from(2);
            }
        };
        let (p, c) = if parent_first { (a, b) } else { (b, a) };
        let value = |line: &str| metric_value(line, &metric).expect("checked by `run`");
        let leader = if parent_first { "parent" } else { "change" };
        println!(
            "pair {i:>2}: parent {:>10.3}  change {:>10.3}  ({leader} first)",
            value(&p),
            value(&c)
        );
        lines.push((p, c));
    }

    let mut gain = false;
    // `--metric` first, then the other end-to-end metrics.
    let (ours, others): (Vec<_>, Vec<_>) = END_TO_END
        .into_iter()
        .partition(|(name, _)| *name == metric);
    for (name, better) in ours.into_iter().chain(others) {
        let pairs: Vec<(f64, f64)> = (lines.iter())
            .filter_map(|(p, c)| Some((metric_value(p, name)?, metric_value(c, name)?)))
            .collect();
        if pairs.is_empty() {
            continue;
        }
        let verdict = Verdict::of(&pairs, better);
        let (p, c) = (verdict.parent, verdict.change);
        println!(
            "{name}: parent {:.3} [{:.3}, {:.3}]  change {:.3} [{:.3}, {:.3}]  {:+.1} %, change wins {}/{}",
            p.median,
            p.q1,
            p.q3,
            c.median,
            c.q1,
            c.q3,
            (c.median / p.median - 1.0) * 100.0,
            verdict.wins,
            verdict.pairs
        );
        if name == metric {
            gain = verdict.gain;
        }
    }
    println!(
        "verdict on {metric}: {}",
        if gain { "GAIN" } else { "no gain" }
    );
    if gain {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `git` with `args` in the working directory; its trimmed stdout.
fn git(args: &[&str]) -> String {
    let out = Command::new("git")
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("git {args:?}: {e}"));
    assert!(
        out.status.success(),
        "git {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).trim().to_owned()
}

/// Exports `commit` into `dir` unless an earlier export is there.  The
/// archive is unpacked into a sibling `<dir>.partial` (cleared first: it
/// is what an interrupted export left) and renamed to `dir` only once
/// `tar` succeeded, so `dir` exists only whole.
fn export(commit: &str, dir: &Path) -> Result<(), String> {
    if dir.is_dir() {
        return Ok(());
    }
    let mut partial = dir.as_os_str().to_owned();
    partial.push(".partial");
    let partial = PathBuf::from(partial);
    if partial.exists() {
        std::fs::remove_dir_all(&partial).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&partial).map_err(|e| e.to_string())?;
    let archive = format!(
        "git archive --format=tar {commit} | tar -x -C '{}'",
        partial.display()
    );
    let status = Command::new("bash")
        .args(["-o", "pipefail", "-c", &archive])
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("`{archive}` exited with {status}"));
    }
    std::fs::rename(&partial, dir).map_err(|e| e.to_string())
}

/// How the benchmark in `tree` is built: `run.sh` builds `--release`, with
/// the package's own `[profile.release]` table if it has one.
fn build_profile(tree: &Path) -> String {
    let manifest = std::fs::read_to_string(tree.join("benchmark/Cargo.toml")).unwrap_or_default();
    let table: Vec<&str> = manifest
        .lines()
        .skip_while(|line| line.trim() != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect();
    if table.is_empty() {
        "release (cargo defaults: opt-level 3, no LTO)".to_owned()
    } else {
        format!("release ({})", table.join(", "))
    }
}

/// One timed run of `workload` in `tree`: the result line.
fn run_once(tree: &Path, workload: &str, seed: u64, seconds: u64) -> Result<String, String> {
    let out = Command::new("bash")
        .args(["benchmark/run.sh", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", "0"])
        .current_dir(tree)
        // One build directory per tree: a shared one would rebuild on
        // every switch.
        .env("CARGO_TARGET_DIR", "benchmark/target")
        .stdin(Stdio::null())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().rev().find(|line| !line.trim().is_empty()) {
        Some(line) if out.status.success() => Ok(line.to_owned()),
        _ => Err(format!(
            "exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}
