//! The persistent perf trajectory: schema-versioned `BENCH_<date>.json`
//! records, emitted by every bench bin behind `--bench-out`, compared by
//! `ripple-bench compare`, and gated in CI.
//!
//! A trajectory file is a JSON **array** of records, appended to in
//! place — one record per `(workload, backend, parts)` configuration per
//! run, so the same file accumulates a history and the *latest* record
//! per configuration is the configuration's current state.  Each record
//! carries the measured BSP cost decomposition of one profiled run (per
//! superstep `w`, `h`, `g`, `l` — see [`ripple_core::CostModel`]) plus
//! run totals and provenance (git SHA, timestamp, schema version), so
//! the next PR can prove its win — or be caught regressing — against
//! numbers that survive the PR boundary.
//!
//! Record schema (`"schema": 1`):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "workload": "table1/pagerank-direct",
//!   "backend": "mem", "parts": 4, "trials": 5,
//!   "git_sha": "0a829d6", "unix_time": 1754700000,
//!   "elapsed_secs": 0.812, "trial_mean_secs": 0.790,
//!   "steps": [{"step":1,"w_us":..,"h_bytes":..,"h_msgs":..,
//!              "g_bytes_per_sec":..|null,"l_us":..}, ...],
//!   "totals": {"w_us":..,"h_bytes":..,"h_msgs":..,"l_us":..,
//!              "predicted_us":..,"g_bytes_per_sec":..|null,"l_mean_us":..},
//!   "run": {"steps":..,"invocations":..,"messages_sent":..,
//!           "local_ops":..,"remote_ops":..,"bytes_marshalled":..,
//!           "tasks_dispatched":..,"enumerations":..,
//!           "wal_bytes":..,"fsyncs":..,"replayed_records":..,
//!           "net_bytes_in":..,"net_bytes_out":..,
//!           "retry_bytes":..,"rpcs":..,"net_batches":..,
//!           "combined_records":..,"store_retries":..,"reconnects":..,
//!           "failovers":..,"retries":..,"recoveries":..}
//! }
//! ```
//!
//! The `run` object carries every scalar `StoreMetrics` counter plus the
//! engine totals; additions are backwards-compatible (readers look up
//! fields by name), so the schema version stays at 1.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ripple_core::{CostModel, RunOutcome};

use crate::json::Json;
use crate::Args;

/// Version stamp written into every record; bump on breaking schema
/// changes so `compare` can refuse mixed documents intelligibly.
pub const SCHEMA_VERSION: u64 = 1;

/// The short git SHA of the working tree, or `"unknown"` outside a repo.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One trajectory record: the cost decomposition and run totals of one
/// profiled bench run.
#[derive(Debug, Clone)]
pub struct TrajectoryRecord {
    /// Which experiment and variant, e.g. `"table1/pagerank-direct"`.
    pub workload: String,
    /// Backend name as spelled on the command line (`mem`, `disk`, ...).
    pub backend: String,
    /// Part count the run used.
    pub parts: u32,
    /// Timed trials behind `trial_mean_secs` (1 when only the profiled
    /// run was measured).
    pub trials: usize,
    /// Wall seconds of the profiled run the cost model was derived from.
    pub elapsed_secs: f64,
    /// Mean wall seconds over the bin's timed trials (equals
    /// `elapsed_secs` when there were none).
    pub trial_mean_secs: f64,
    /// The derived BSP cost model.
    pub cost: CostModel,
    /// Run totals, copied from the run's metrics.
    pub run: RunTotals,
}

/// The run-total counters a record carries: engine totals plus every
/// scalar [`ripple_kv::StoreMetrics`] counter, spelled out field by field
/// so the schema does not drift silently (the `metrics-telescoping` lint
/// checks each store counter appears here).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTotals {
    /// Supersteps executed.
    pub steps: u64,
    /// Compute invocations.
    pub invocations: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Store operations served without crossing a part boundary.
    pub local_ops: u64,
    /// Store operations that crossed a part boundary.
    pub remote_ops: u64,
    /// Bytes marshalled across part boundaries.
    pub bytes_marshalled: u64,
    /// Mobile-code tasks dispatched to parts.
    pub tasks_dispatched: u64,
    /// Long-running enumerations served by the long-operation lanes.
    pub enumerations: u64,
    /// Bytes appended to write-ahead logs.
    pub wal_bytes: u64,
    /// `fsync`-class flushes issued.
    pub fsyncs: u64,
    /// Log records replayed on open or rewind.
    pub replayed_records: u64,
    /// Network bytes received.
    pub net_bytes_in: u64,
    /// Network bytes sent.
    pub net_bytes_out: u64,
    /// Network bytes attributed to retry/reconnect traffic.
    pub retry_bytes: u64,
    /// RPC round trips.
    pub rpcs: u64,
    /// Coalesced message batches shipped.
    pub net_batches: u64,
    /// Records folded away client-side by a bound combiner or the
    /// engine's source-side pre-combine before reaching the wire.
    pub combined_records: u64,
    /// Store-internal retries (fencing redos, stale-epoch refreshes) —
    /// below the engine's own retry policy.
    pub store_retries: u64,
    /// Connections re-opened after a loss or sever.
    pub reconnects: u64,
    /// Primary promotions observed.
    pub failovers: u64,
    /// Engine-level retries.
    pub retries: u64,
    /// Recoveries performed.
    pub recoveries: u64,
}

impl TrajectoryRecord {
    /// Builds a record from a profiled run's outcome.  `trial_mean_secs`
    /// carries the bin's timed-trial mean when it ran any; the cost model
    /// derives from the outcome's step profiles (empty for
    /// unsynchronized runs, which have no supersteps).
    pub fn from_outcome(
        workload: &str,
        backend: &str,
        parts: u32,
        trials: usize,
        trial_mean_secs: Option<f64>,
        outcome: &RunOutcome,
    ) -> Self {
        let profiles = outcome.profiles.as_deref().unwrap_or(&[]);
        let elapsed_secs = outcome.metrics.elapsed.as_secs_f64();
        let m = &outcome.metrics;
        Self {
            workload: workload.to_owned(),
            backend: backend.to_owned(),
            parts,
            trials,
            elapsed_secs,
            trial_mean_secs: trial_mean_secs.unwrap_or(elapsed_secs),
            cost: CostModel::derive(profiles),
            run: RunTotals {
                steps: u64::from(m.steps),
                invocations: m.invocations,
                messages_sent: m.messages_sent,
                local_ops: m.store.local_ops,
                remote_ops: m.store.remote_ops,
                bytes_marshalled: m.store.bytes_marshalled,
                tasks_dispatched: m.store.tasks_dispatched,
                enumerations: m.store.enumerations,
                wal_bytes: m.store.wal_bytes,
                fsyncs: m.store.fsyncs,
                replayed_records: m.store.replayed_records,
                net_bytes_in: m.store.net_bytes_in,
                net_bytes_out: m.store.net_bytes_out,
                retry_bytes: m.store.retry_bytes,
                rpcs: m.store.rpcs,
                net_batches: m.store.net_batches,
                combined_records: m.store.combined_records,
                store_retries: m.store.retries,
                reconnects: m.store.reconnects,
                failovers: m.store.failovers,
                retries: m.retries,
                recoveries: u64::from(m.recoveries),
            },
        }
    }

    /// Serializes the record as one JSON object.
    pub fn to_json(&self) -> String {
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":{SCHEMA_VERSION},\"workload\":\"{}\",\"backend\":\"{}\",\
             \"parts\":{},\"trials\":{},\"git_sha\":\"{}\",\"unix_time\":{unix_time},\
             \"elapsed_secs\":{:.6},\"trial_mean_secs\":{:.6},\"steps\":[",
            self.workload,
            self.backend,
            self.parts,
            self.trials,
            git_sha(),
            self.elapsed_secs,
            self.trial_mean_secs,
        );
        for (i, s) in self.cost.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"step\":{},\"w_us\":{:.3},\"h_bytes\":{},\"h_msgs\":{},\
                 \"g_bytes_per_sec\":{},\"l_us\":{:.3}}}",
                s.step,
                s.w.as_secs_f64() * 1e6,
                s.h_bytes,
                s.h_msgs,
                json_opt_f64(s.g_bytes_per_sec),
                s.l.as_secs_f64() * 1e6,
            );
        }
        let _ = write!(
            out,
            "],\"totals\":{{\"w_us\":{:.3},\"h_bytes\":{},\"h_msgs\":{},\"l_us\":{:.3},\
             \"predicted_us\":{:.3},\"g_bytes_per_sec\":{},\"l_mean_us\":{:.3}}},\
             \"run\":{{\"steps\":{},\"invocations\":{},\"messages_sent\":{},\
             \"local_ops\":{},\"remote_ops\":{},\"bytes_marshalled\":{},\
             \"tasks_dispatched\":{},\"enumerations\":{},\
             \"wal_bytes\":{},\"fsyncs\":{},\"replayed_records\":{},\
             \"net_bytes_in\":{},\"net_bytes_out\":{},\
             \"retry_bytes\":{},\"rpcs\":{},\"net_batches\":{},\"combined_records\":{},\
             \"store_retries\":{},\"reconnects\":{},\"failovers\":{},\
             \"retries\":{},\"recoveries\":{}}}}}",
            self.cost.total_w().as_secs_f64() * 1e6,
            self.cost.total_h_bytes(),
            self.cost.total_h_msgs(),
            self.cost.total_l().as_secs_f64() * 1e6,
            self.cost.predicted().as_secs_f64() * 1e6,
            json_opt_f64(self.cost.g_bytes_per_sec),
            self.cost.l_mean.as_secs_f64() * 1e6,
            self.run.steps,
            self.run.invocations,
            self.run.messages_sent,
            self.run.local_ops,
            self.run.remote_ops,
            self.run.bytes_marshalled,
            self.run.tasks_dispatched,
            self.run.enumerations,
            self.run.wal_bytes,
            self.run.fsyncs,
            self.run.replayed_records,
            self.run.net_bytes_in,
            self.run.net_bytes_out,
            self.run.retry_bytes,
            self.run.rpcs,
            self.run.net_batches,
            self.run.combined_records,
            self.run.store_retries,
            self.run.reconnects,
            self.run.failovers,
            self.run.retries,
            self.run.recoveries,
        );
        out
    }

    /// Appends the record to the trajectory array at `path`, creating the
    /// file (`[record]`) if it does not exist.  The append is textual —
    /// strip the closing `]`, add `,record]` — so existing records are
    /// preserved byte-for-byte.
    ///
    /// # Panics
    ///
    /// Panics if the file exists but is not a JSON array, or on I/O
    /// errors — a bench bin has nothing better to do with a broken
    /// trajectory than stop and say so.
    pub fn append_to(&self, path: &Path) {
        let record = self.to_json();
        let doc = match std::fs::read_to_string(path) {
            Err(_) => format!("[{record}]\n"),
            Ok(existing) => {
                let trimmed = existing.trim_end();
                assert!(
                    trimmed.starts_with('[') && trimmed.ends_with(']'),
                    "{} is not a JSON array trajectory",
                    path.display()
                );
                let body = trimmed[..trimmed.len() - 1].trim_end();
                if body == "[" {
                    format!("[{record}]\n")
                } else {
                    format!("{body},\n{record}]\n")
                }
            }
        };
        std::fs::write(path, doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.3}"),
        _ => "null".to_owned(),
    }
}

/// The `--bench-out <path>` hook every bench bin shares: present when the
/// flag was given, it records profiled outcomes into the trajectory file.
#[derive(Debug, Clone)]
pub struct BenchOut {
    path: PathBuf,
    backend: String,
    parts: u32,
}

impl BenchOut {
    /// Parses `--bench-out`; `None` when the flag is absent.
    pub fn from_args(args: &Args, backend: &str, parts: u32) -> Option<Self> {
        args.get_opt::<String>("bench-out").map(|path| Self {
            path: PathBuf::from(path),
            backend: backend.to_owned(),
            parts,
        })
    }

    /// Derives the cost model from `outcome` and appends one record.
    pub fn record(
        &self,
        workload: &str,
        trials: usize,
        trial_mean_secs: Option<f64>,
        outcome: &RunOutcome,
    ) {
        let record = TrajectoryRecord::from_outcome(
            workload,
            &self.backend,
            self.parts,
            trials,
            trial_mean_secs,
            outcome,
        );
        record.append_to(&self.path);
        println!(
            "bench-out: {} [{} parts {}] {} -> {}",
            record.workload,
            record.backend,
            record.parts,
            record.cost,
            self.path.display()
        );
    }
}

/// One metric regression found by [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The `(workload, backend, parts)` configuration key.
    pub key: String,
    /// Which tracked metric regressed.
    pub metric: &'static str,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
}

/// The outcome of comparing two trajectory documents.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Human-readable per-configuration comparison lines.
    pub lines: Vec<String>,
    /// Metrics that regressed past the threshold.
    pub regressions: Vec<Regression>,
    /// Configurations present in the baseline but missing from the
    /// candidate (reported, not failed — workloads come and go).
    pub missing: Vec<String>,
}

/// Tracked metrics: key path into the record, display name, the absolute
/// slack added on top of the relative threshold (absorbs timer noise near
/// zero — a 2 ms step must not fail CI for becoming 3 ms), and whether
/// the threshold applies at all.  Round trips are an exact count for a
/// pinned workload (steps × parts × a constant, whatever the graph size),
/// so the baseline's `rpcs` is a *ceiling*: no threshold, no slack
/// (backends without a wire report 0 on both sides).
const TRACKED: &[(&str, &str, f64, bool)] = &[
    ("elapsed_secs", "elapsed", 5e-3, true),
    ("trial_mean_secs", "trial-mean", 5e-3, true),
    ("totals.w_us", "w", 5e3, true),
    ("totals.l_us", "l", 5e3, true),
    ("totals.h_bytes", "h-bytes", 1024.0, true),
    ("run.rpcs", "rpcs", 0.0, false),
];

fn lookup(record: &Json, path: &str) -> Option<f64> {
    match path.split_once('.') {
        None => record.num(path),
        Some((head, rest)) => record.get(head).and_then(|v| lookup(v, rest)),
    }
}

fn record_key(record: &Json) -> Option<String> {
    Some(format!(
        "{}|{}|{}",
        record.str("workload")?,
        record.str("backend")?,
        record.num("parts")? as u64,
    ))
}

/// The latest record per configuration key, in first-seen key order.
fn latest_by_key(doc: &Json) -> Result<Vec<(String, Json)>, String> {
    let records = doc.as_arr().ok_or("trajectory is not a JSON array")?;
    let mut out: Vec<(String, Json)> = Vec::new();
    for record in records {
        let schema = record.num("schema").unwrap_or(0.0) as u64;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "record has schema {schema}, this tool speaks {SCHEMA_VERSION}"
            ));
        }
        let key = record_key(record).ok_or("record missing workload/backend/parts")?;
        match out.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => *slot = record.clone(),
            None => out.push((key, record.clone())),
        }
    }
    Ok(out)
}

/// Compares two trajectory documents: for every configuration present in
/// both, each tracked metric regresses when
/// `new > old * (1 + threshold) + slack`, and the round-trip count when
/// `new > old`.
///
/// # Errors
///
/// On documents that are not schema-1 trajectory arrays.
pub fn compare(old: &Json, new: &Json, threshold: f64) -> Result<CompareReport, String> {
    let old_latest = latest_by_key(old)?;
    let new_latest = latest_by_key(new)?;
    let mut report = CompareReport::default();
    for (key, old_record) in &old_latest {
        let Some((_, new_record)) = new_latest.iter().find(|(k, _)| k == key) else {
            report.missing.push(key.clone());
            continue;
        };
        let mut cells = Vec::new();
        for (path, name, slack, thresholded) in TRACKED {
            let (Some(o), Some(n)) = (lookup(old_record, path), lookup(new_record, path)) else {
                continue;
            };
            let factor = if *thresholded { 1.0 + threshold } else { 1.0 };
            let regressed = n > o * factor + slack;
            let ratio = if o > 0.0 { n / o } else { 1.0 };
            cells.push(format!(
                "{name} {o:.3}->{n:.3} ({ratio:+.0}%{})",
                if regressed { " REGRESSED" } else { "" },
                ratio = (ratio - 1.0) * 100.0,
            ));
            if regressed {
                report.regressions.push(Regression {
                    key: key.clone(),
                    metric: name,
                    old: o,
                    new: n,
                });
            }
        }
        report.lines.push(format!("{key}: {}", cells.join(", ")));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_core::{RunMetrics, StepProfile};
    use std::time::Duration;

    fn outcome_with_steps(elapsed_ms: u64, steps: Vec<StepProfile>) -> RunOutcome {
        let metrics = RunMetrics {
            elapsed: Duration::from_millis(elapsed_ms),
            steps: steps.len() as u32,
            invocations: 7,
            ..Default::default()
        };
        RunOutcome {
            steps: steps.len() as u32,
            aborted: false,
            aggregates: Default::default(),
            metrics,
            mode: ripple_core::ExecMode::Synchronized,
            profiles: Some(steps),
            worker_profiles: None,
        }
    }

    fn sample_step(step: u32) -> StepProfile {
        StepProfile {
            step,
            compute_wall: Duration::from_millis(10),
            barrier_skew: Duration::from_millis(1),
            store: ripple_kv::StoreMetrics {
                bytes_marshalled: 512,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn record_emits_valid_schema_json() {
        let out = outcome_with_steps(25, vec![sample_step(1), sample_step(2)]);
        let rec = TrajectoryRecord::from_outcome("t/x", "mem", 4, 3, Some(0.02), &out);
        let json = Json::parse(&rec.to_json()).expect("record parses");
        assert_eq!(json.num("schema"), Some(SCHEMA_VERSION as f64));
        assert_eq!(json.str("workload"), Some("t/x"));
        assert_eq!(json.str("backend"), Some("mem"));
        assert_eq!(json.num("parts"), Some(4.0));
        assert_eq!(json.get("steps").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(lookup(&json, "totals.h_bytes"), Some(1024.0));
        assert_eq!(lookup(&json, "run.invocations"), Some(7.0));
        assert!(json.str("git_sha").is_some());
    }

    #[test]
    fn append_accumulates_an_array() {
        let dir = std::env::temp_dir().join(format!("ripple-traj-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let out = outcome_with_steps(25, vec![sample_step(1)]);
        let rec = TrajectoryRecord::from_outcome("t/x", "mem", 4, 1, None, &out);
        rec.append_to(&path);
        rec.append_to(&path);
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("array parses");
        assert_eq!(doc.as_arr().unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn doc(records: &[&str]) -> Json {
        Json::parse(&format!("[{}]", records.join(","))).unwrap()
    }

    fn rec(workload: &str, elapsed: f64, w_us: f64, h: u64) -> String {
        format!(
            "{{\"schema\":1,\"workload\":\"{workload}\",\"backend\":\"mem\",\"parts\":4,\
             \"elapsed_secs\":{elapsed},\"trial_mean_secs\":{elapsed},\
             \"totals\":{{\"w_us\":{w_us},\"h_bytes\":{h},\"l_us\":0.0}}}}"
        )
    }

    #[test]
    fn compare_flags_regressions_past_threshold() {
        let old = doc(&[&rec("a", 1.0, 500_000.0, 10_000)]);
        let ok = doc(&[&rec("a", 1.1, 520_000.0, 10_000)]);
        let report = compare(&old, &ok, 0.25).unwrap();
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);

        let bad = doc(&[&rec("a", 1.6, 500_000.0, 10_000)]);
        let report = compare(&old, &bad, 0.25).unwrap();
        assert_eq!(report.regressions.len(), 2); // elapsed + trial-mean
        assert_eq!(report.regressions[0].metric, "elapsed");

        let bloated = doc(&[&rec("a", 1.0, 500_000.0, 40_000)]);
        let report = compare(&old, &bloated, 0.25).unwrap();
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "h-bytes");
    }

    #[test]
    fn compare_uses_latest_record_per_key_and_reports_missing() {
        let old = doc(&[
            &rec("a", 9.0, 0.0, 0),
            &rec("a", 1.0, 0.0, 0), // latest baseline for key a
            &rec("gone", 1.0, 0.0, 0),
        ]);
        let new = doc(&[&rec("a", 1.05, 0.0, 0)]);
        let report = compare(&old, &new, 0.25).unwrap();
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
        assert_eq!(report.missing, vec!["gone|mem|4".to_owned()]);
        assert_eq!(report.lines.len(), 1);
    }

    #[test]
    fn compare_rejects_unknown_schema() {
        let old = doc(&["{\"schema\":99,\"workload\":\"a\",\"backend\":\"m\",\"parts\":1}"]);
        assert!(compare(&old, &doc(&[]), 0.25).is_err());
    }

    #[test]
    fn rpc_count_is_a_ceiling_not_a_threshold() {
        let with_rpcs = |rpcs: u64| {
            doc(&[&format!(
                "{{\"schema\":1,\"workload\":\"a\",\"backend\":\"net\",\"parts\":4,\
                 \"run\":{{\"net_bytes_out\":0,\"rpcs\":{rpcs}}}}}"
            )])
        };
        let report = compare(&with_rpcs(156), &with_rpcs(156), 2.0).unwrap();
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
        // One extra round trip fails even under a 200% threshold.
        let report = compare(&with_rpcs(156), &with_rpcs(157), 2.0).unwrap();
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "rpcs");
    }

    #[test]
    fn small_absolute_noise_is_not_a_regression() {
        // 2 ms -> 6 ms is 3x but under the 5 ms slack: not a regression.
        let old = doc(&[&rec("a", 0.002, 0.0, 0)]);
        let new = doc(&[&rec("a", 0.006, 0.0, 0)]);
        let report = compare(&old, &new, 0.25).unwrap();
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
    }
}
