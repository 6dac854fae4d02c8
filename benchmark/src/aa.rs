//! Running whole sets of workloads, each in a child process of its own,
//! and the A/A check: the same code measured twice must agree with itself
//! within the bounds the benchmark fixes for regressions.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::harness::Report;
use crate::metrics::END_TO_END;
use crate::stats::{median, quartiles};
use crate::workloads::WorkloadId;

/// Runs one workload in a child process (this same executable in its
/// one-run form), echoes the child's table and returns its report.
fn run_child(
    workload: WorkloadId,
    seed: u64,
    seconds: f64,
    quick: bool,
    trace: bool,
    out_dir: &Path,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, result_line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{}: child printed no result", workload.name()))?;
    println!("{table}");
    let pass = if trace { "traced" } else { "timed" };
    let path = out_dir.join(format!("run-{}-{pass}.json", workload.name()));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, format!("{result_line}\n")))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Report::parse(workload, seed, table)
        .ok_or_else(|| format!("{}: child output did not parse", workload.name()))
}

/// Runs the timed pass of each workload, then (with `trace`) the traced
/// pass of each, printing the flat table as it goes.
///
/// # Errors
///
/// A child that could not be started or printed no result.
pub fn run_set(
    workloads: &[WorkloadId],
    seed: u64,
    seconds: f64,
    quick: bool,
    trace: bool,
    out_dir: &Path,
) -> Result<Vec<Report>, String> {
    let passes: &[bool] = if trace { &[false, true] } else { &[false] };
    let mut reports = Vec::new();
    for &traced in passes {
        for &workload in workloads {
            reports.push(run_child(workload, seed, seconds, quick, traced, out_dir)?);
        }
    }
    Ok(reports)
}

/// `aa`: the whole set twice in A B B A order.  Prints both sets' medians
/// and quartiles per (workload, metric) and returns whether they agree:
/// every end-to-end pair within the metric's bound, every run pinned, no
/// failed operation, and the exact layer counts equal between the sets.
///
/// # Errors
///
/// A child that could not be started or printed no result.
pub fn run_aa(seed: u64, seconds: f64, quick: bool, out_dir: &Path) -> Result<bool, String> {
    // sets[0] = A, sets[1] = B; two passes each.
    let mut sets: [Vec<Vec<Report>>; 2] = [Vec::new(), Vec::new()];
    for side in [0, 1, 1, 0] {
        println!("# set {}", ["A", "B"][side]);
        sets[side].push(run_set(
            &WorkloadId::ALL,
            seed,
            seconds,
            quick,
            true,
            out_dir,
        )?);
    }

    let mut ok = true;
    for runs in sets.iter().flatten().flatten() {
        if runs.pinned_cpu.is_none() {
            println!("FAIL {}: a run was unpinned", runs.workload);
            ok = false;
        }
        if !runs.correct() {
            println!(
                "FAIL {}: {} of {} operations failed, {} errors",
                runs.workload,
                runs.ops_failed,
                runs.ops,
                runs.errors.len()
            );
            ok = false;
        }
    }

    println!("# A/A: median [q1, q3] of each set, relative difference, bound");
    for workload in WorkloadId::ALL {
        for metric in END_TO_END {
            let side = |s: usize| -> Vec<f64> {
                sets[s]
                    .iter()
                    .flatten()
                    .filter(|r| r.workload == workload.name())
                    .filter_map(|r| r.metric(metric.name))
                    .collect()
            };
            let (a, b) = (side(0), side(1));
            if a.is_empty() || b.is_empty() {
                println!("FAIL {}/{}: metric missing", workload.name(), metric.name);
                ok = false;
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let ((a1, a3), (b1, b3)) = (quartiles(&a), quartiles(&b));
            let diff = (ma - mb).abs() / ma.min(mb);
            let within = quick || diff <= metric.bound;
            println!(
                "{} {}/{} A {ma:.4} [{a1:.4}, {a3:.4}] B {mb:.4} [{b1:.4}, {b3:.4}] {} diff {:.1}% bound {:.0}%",
                if within { "ok  " } else { "FAIL" },
                workload.name(),
                metric.name,
                metric.unit,
                diff * 100.0,
                metric.bound * 100.0,
            );
            ok &= within;
        }
        if workload.counts_deterministic() {
            let counts: Vec<&Vec<_>> = sets
                .iter()
                .flatten()
                .flatten()
                .filter(|r| r.workload == workload.name() && !r.counts.is_empty())
                .map(|r| &r.counts)
                .collect();
            let same = counts.windows(2).all(|w| w[0] == w[1]);
            println!(
                "{} {}/exact-counts {} traced runs {}",
                if same { "ok  " } else { "FAIL" },
                workload.name(),
                counts.len(),
                if same { "agree" } else { "differ" },
            );
            ok &= same;
        }
    }
    println!("# A/A {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}
