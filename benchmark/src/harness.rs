//! One run of one workload in this process: pin, set up, step the closed
//! loop, check every result, report.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::os;
use crate::stats::median;
use crate::trace::{chrome_trace_json, names, self_times, Span, Tracer};
use crate::workloads::{build, Count, Scenario, Sizes, WorkloadId};

/// Full set-ups per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Operations of the traced pass (and of its untraced reference).
const TRACED_OPS: u64 = 3;
/// The root span of a traced operation.
const ROOT: &str = "op";

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: WorkloadId,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the timed loop fills.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the timed pass.
    pub trace: bool,
    /// Input sizes (and the fewest timed operations).
    pub sizes: Sizes,
    /// Directory for store files and trace output (created on demand).
    pub out_dir: PathBuf,
}

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Registry name.
    pub name: &'static str,
    /// As measured.
    pub value: f64,
    /// Registry unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// The run's seed.
    pub seed: u64,
    /// The CPU the process pinned itself to; `None` = the pin failed and
    /// the timings are not comparable.
    pub pinned_cpu: Option<u32>,
    /// Operations attempted (timed or traced; warm-ups excluded).
    pub ops: u64,
    /// Operations that returned an error or missed their oracle.
    pub ops_failed: u64,
    /// Benchmark errors: failed operations, exact counts that did not
    /// repeat, shutdown failures.
    pub errors: Vec<String>,
    /// End-to-end metrics (timed pass) or per-layer metrics (traced pass).
    pub metrics: Vec<Metric>,
    /// Exact per-operation layer counts (traced pass), for `aa`.
    pub counts: Vec<Count>,
}

impl Report {
    /// Every operation passed its oracle and nothing else went wrong.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.ops_failed == 0 && self.errors.is_empty()
    }

    /// The metric called `name`, if the run produced it.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line of the benchmark contract: one JSON object.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ops.max(1),
            self.ops_failed,
            metrics.join(", ")
        )
    }

    /// The flat `workload/metric value unit` table, plus a status line the
    /// `run`/`aa` parent parses back (see [`Report::parse`]).
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = format!(
            "run {} seed={} pinned_cpu={} ops={} ops_failed={} errors={}\n",
            self.workload,
            self.seed,
            self.pinned_cpu
                .map_or_else(|| "unpinned".to_owned(), |c| c.to_string()),
            self.ops,
            self.ops_failed,
            self.errors.len(),
        );
        for e in &self.errors {
            out.push_str(&format!("error {} {e}\n", self.workload));
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "{}/{} {} {}\n",
                self.workload,
                m.name,
                json_number(m.value),
                m.unit
            ));
        }
        for (name, value) in &self.counts {
            out.push_str(&format!("count {}/{name} {value}\n", self.workload));
        }
        out
    }

    /// Reads back what [`Report::table`] printed (a child run's stdout).
    #[must_use]
    pub fn parse(workload: WorkloadId, seed: u64, text: &str) -> Option<Report> {
        let mut report = Report {
            workload: workload.name(),
            seed,
            pinned_cpu: None,
            ops: 0,
            ops_failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
            counts: Vec::new(),
        };
        let mut seen_status = false;
        let prefix = format!("{}/", workload.name());
        for line in text.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["run", name, rest @ ..] if *name == workload.name() => {
                    seen_status = true;
                    for field in rest {
                        match field.split_once('=') {
                            Some(("pinned_cpu", v)) => report.pinned_cpu = v.parse().ok(),
                            Some(("ops", v)) => report.ops = v.parse().ok()?,
                            Some(("ops_failed", v)) => report.ops_failed = v.parse().ok()?,
                            _ => {}
                        }
                    }
                }
                ["error", ..] => report.errors.push(line.to_owned()),
                ["count", key, value] => {
                    let name = key.strip_prefix(&prefix)?;
                    let name = PER_LAYER.iter().find(|m| m.name == name)?.name;
                    report.counts.push((name, value.parse().ok()?));
                }
                [key, value, _unit] if key.starts_with(&prefix) => {
                    let name = &key[prefix.len()..];
                    let (name, unit) = END_TO_END
                        .iter()
                        .map(|m| (m.name, m.unit))
                        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
                        .find(|(n, _)| *n == name)?;
                    report.metrics.push(Metric {
                        name,
                        value: value.parse().ok()?,
                        unit,
                    });
                }
                _ => {}
            }
        }
        seen_status.then_some(report)
    }
}

/// A float as JSON: all digits, never `NaN`/`inf` (which JSON lacks).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Runs `config` in this process.
#[must_use]
pub fn run(config: &Config) -> Report {
    let pinned_cpu = os::pin_to_one_cpu();
    // Unique per run: tests run several in one process.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let scratch = config.out_dir.join(format!(
        "scratch-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let mut report = Report {
        workload: config.workload.name(),
        seed: config.seed,
        pinned_cpu,
        ops: 0,
        ops_failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
        counts: Vec::new(),
    };
    if config.trace {
        traced_pass(config, &scratch, &mut report);
    } else {
        timed_pass(config, &scratch, &mut report);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    report
}

/// Steps operation `k` — under a root span stamped with `k` when `tracer`
/// records — and returns its wall seconds and process CPU seconds.
/// Warm-ups pass `counted = false`: their failures are errors, not
/// operations.
fn step(
    scenario: &mut dyn Scenario,
    k: u64,
    tracer: &Tracer,
    report: &mut Report,
    counted: bool,
) -> (f64, f64) {
    scenario.prepare(k);
    tracer.set_op(k);
    let cpu = os::process_cpu_seconds();
    let t = Instant::now();
    let ran = {
        let _root = tracer.span(ROOT);
        scenario.run(k)
    };
    let wall = t.elapsed().as_secs_f64();
    let cpu = match (cpu, os::process_cpu_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    tracer.set_op(0);
    if counted {
        report.ops += 1;
    }
    if let Err(e) = ran.and_then(|()| scenario.check(k)) {
        if counted {
            report.ops_failed += 1;
        }
        report.errors.push(format!("operation {k}: {e}"));
    }
    (wall, cpu)
}

fn finish(scenario: Box<dyn Scenario>, report: &mut Report) {
    if let Err(e) = scenario.finish() {
        report.errors.push(format!("shutdown: {e}"));
    }
}

/// Counts that are exact for a given operation sequence but not equal
/// from one operation to the next: table ids travel as varints and grow as
/// the resident store creates tables, so the seventh PageRank launch on one
/// cluster ships 162 bytes more than the first.  `aa` still compares them
/// between sets.
const GROWS_WITH_TABLE_IDS: [&str; 3] = ["net.bytes_out", "net.bytes_in", "disk.wal_bytes"];

/// Records every exact count of operation `k` that differs from the first
/// operation's — a benchmark error, never averaged away.
fn counts_repeat(first: &[Count], other: &[Count], k: u64, report: &mut Report) {
    for ((name, a), (_, b)) in first.iter().zip(other) {
        if a != b && !GROWS_WITH_TABLE_IDS.contains(name) {
            report.errors.push(format!(
                "exact count {name} did not repeat: {a} on the first operation, {b} on operation {k}"
            ));
        }
    }
}

fn timed_pass(config: &Config, scratch: &Path, report: &mut Report) {
    let tracer = Tracer::disabled();
    let mut setups = Vec::new();
    let mut scenario: Option<Box<dyn Scenario>> = None;
    for _ in 0..SETUP_REPEATS {
        // Tearing the previous set-up down is not part of the next one.
        if let Some(previous) = scenario.take() {
            finish(previous, report);
        }
        let t = Instant::now();
        let mut fresh = build(
            config.workload,
            config.seed,
            &config.sizes,
            &tracer,
            scratch,
        );
        step(fresh.as_mut(), 0, &tracer, report, false);
        setups.push(t.elapsed().as_secs_f64());
        scenario = Some(fresh);
    }
    let mut scenario = scenario.expect("at least one set-up");

    let (mut walls, mut cpus, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_counts: Option<Vec<Count>> = None;
    let begin = Instant::now();
    let mut k = 0;
    while k < config.sizes.min_ops || begin.elapsed().as_secs_f64() < config.seconds {
        k += 1;
        let (wall, cpu) = step(scenario.as_mut(), k, &tracer, report, true);
        walls.push(wall);
        cpus.push(cpu);
        rates.push(scenario.work() / wall);
        if config.workload.ops_identical() {
            let counts = scenario.layers().counts;
            match &first_counts {
                None => first_counts = Some(counts),
                Some(first) => counts_repeat(first, &counts, k, report),
            }
        }
    }
    finish(scenario, report);

    // The raw samples behind the medians, for whoever doubts a median.
    let samples: String = walls
        .iter()
        .zip(&cpus)
        .enumerate()
        .map(|(i, (wall, cpu))| format!("{} {} {}\n", i + 1, wall * 1e3, cpu * 1e3))
        .collect();
    let path = config.out_dir.join(format!(
        "ops-{}-{}.txt",
        config.workload.name(),
        config.seed
    ));
    if let Err(e) = std::fs::create_dir_all(&config.out_dir)
        .and_then(|()| std::fs::write(&path, format!("# op wall_ms cpu_ms\n{samples}")))
    {
        report.errors.push(format!("write {}: {e}", path.display()));
    }

    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    // Medians throughout: on a shared VM a burst of stolen time lands on a
    // few operations, and a mean (total work / total time) carries it.
    let values = [
        median(&ms),
        median(&rates),
        median(&cpus),
        os::peak_rss_mb().unwrap_or(0.0),
        median(&setups),
    ];
    report.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect();
}

fn traced_pass(config: &Config, scratch: &Path, report: &mut Report) {
    // The untraced reference for `trace.overhead_ratio`: the same
    // operations, same process, no decorator and no profiles.
    let off = Tracer::disabled();
    let mut plain = build(config.workload, config.seed, &config.sizes, &off, scratch);
    step(plain.as_mut(), 0, &off, report, false);
    let plain_ms: Vec<f64> = (1..=TRACED_OPS)
        .map(|k| step(plain.as_mut(), k, &off, report, false).0 * 1e3)
        .collect();
    finish(plain, report);

    // Operation 0 is the warm-up; spans stamped 0 are not analysed.
    let tracer = Tracer::enabled();
    let mut scenario = build(
        config.workload,
        config.seed,
        &config.sizes,
        &tracer,
        scratch,
    );
    step(scenario.as_mut(), 0, &tracer, report, false);
    let mut traced_ms = Vec::new();
    let mut samples = Vec::new();
    for k in 1..=TRACED_OPS {
        traced_ms.push(step(scenario.as_mut(), k, &tracer, report, true).0 * 1e3);
        samples.push(scenario.layers());
    }
    let probes = scenario.probes();
    finish(scenario, report);

    if config.workload.ops_identical() {
        for (i, sample) in samples.iter().enumerate().skip(1) {
            let first = samples[0].counts.clone();
            counts_repeat(&first, &sample.counts, i as u64 + 1, report);
        }
    }

    // Per-operation means of everything sampled, then the probes and the
    // span metrics.
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let mut add = |name: &'static str, v: f64| match values.iter_mut().find(|(n, _)| *n == name) {
        Some((_, total)) => *total += v,
        None => values.push((name, v)),
    };
    for sample in &samples {
        for (name, v) in &sample.counts {
            add(name, *v as f64);
        }
        for (name, v) in &sample.values {
            add(name, *v);
        }
    }
    for (_, total) in &mut values {
        *total /= TRACED_OPS as f64;
    }
    values.extend(probes);
    let spans = tracer.spans();
    values.extend(span_metrics(&spans));
    values.push((
        "trace.overhead_ratio",
        median(&traced_ms) / median(&plain_ms),
    ));

    // Sums over the traced operations: what `aa` compares between sets.
    if config.workload.counts_deterministic() {
        for (name, _) in &samples[0].counts {
            let total = samples
                .iter()
                .flat_map(|s| &s.counts)
                .filter(|(n, _)| n == name)
                .map(|(_, v)| v)
                .sum();
            report.counts.push((name, total));
        }
    }

    for (name, _) in &values {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "per-layer metric {name} is not in the registry"
        );
    }
    report.metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            // A layer the workload does not exercise reads 0; `+ 0.0` turns
            // the -0.0 an empty sum yields into 0.0.
            value: values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v + 0.0),
            unit: m.unit,
        })
        .collect();

    let path = config
        .out_dir
        .join(format!("trace-{}.json", config.workload.name()));
    if let Err(e) = std::fs::create_dir_all(&config.out_dir)
        .and_then(|()| std::fs::write(&path, chrome_trace_json(&spans)))
    {
        report.errors.push(format!("write {}: {e}", path.display()));
    }
}

/// The metrics that come from spans, as per-operation means.
fn span_metrics(spans: &[Span]) -> Vec<(&'static str, f64)> {
    const LEAVES: [(&str, &str, &str); 8] = [
        (names::GET, "store.get.count", "store.get.busy_ms"),
        (names::PUT, "store.put.count", "store.put.busy_ms"),
        (
            names::PUT_BATCH,
            "store.put_batch.count",
            "store.put_batch.busy_ms",
        ),
        (names::DELETE, "store.delete.count", "store.delete.busy_ms"),
        (names::SCAN, "store.scan.count", "store.scan.busy_ms"),
        (names::DRAIN, "store.drain.count", "store.drain.busy_ms"),
        (names::DDL, "store.ddl.count", "store.ddl.busy_ms"),
        (
            names::SNAPSHOT,
            "store.snapshot.count",
            "store.snapshot.busy_ms",
        ),
    ];
    let ops = TRACED_OPS as f64;
    let in_ops = || spans.iter().filter(|s| s.op >= 1);
    let count = |name: &str| in_ops().filter(|s| s.name == name).count() as f64 / ops;
    let dur_ms = |name: &str| {
        in_ops()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum::<f64>()
            / 1e6
            / ops
    };

    let mut self_ms: std::collections::HashMap<&str, f64> = std::collections::HashMap::new();
    let mut coverage = Vec::new();
    for op in 1..=TRACED_OPS {
        let times = self_times(spans, op, ROOT);
        for (name, ns) in times.by_name {
            *self_ms.entry(name).or_insert(0.0) += ns / 1e6 / ops;
        }
        if times.root_ns > 0.0 {
            coverage.push(times.covered_ns / times.root_ns);
        }
    }
    let own = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);

    let mut out = Vec::new();
    for (span, count_metric, busy_metric) in LEAVES {
        out.push((count_metric, count(span)));
        out.push((busy_metric, own(span)));
    }
    out.push((
        "store.put_batch.recs",
        in_ops()
            .filter(|s| s.name == names::PUT_BATCH)
            .map(|s| s.recs as f64)
            .sum::<f64>()
            / ops,
    ));
    out.push(("store.run_at.count", count(names::RUN_AT)));
    out.push(("store.run_at.busy_ms", dur_ms(names::RUN_AT)));
    out.push((
        "store.run_at.wait_ms",
        in_ops()
            .filter(|s| s.name == names::RUN_AT)
            .map(|s| s.wait_ns as f64)
            .sum::<f64>()
            / 1e6
            / ops,
    ));
    out.push(("core.self_ms", own("core.run") + own(names::RUN_AT)));
    out.push(("disk.commit_ms", dur_ms("disk.commit")));
    out.push(("graph.load_ms", dur_ms("graph.load")));
    out.push(("graph.readback_ms", dur_ms("graph.readback")));
    if !coverage.is_empty() {
        out.push(("trace.coverage", median(&coverage)));
    }
    out
}
