//! The `--quick` profile: tiny inputs, one operation, no bounds.  Runs
//! every workload's timed pass and traced pass in seconds so the harness
//! cannot rot unnoticed.

use std::path::PathBuf;

use ripple_benchmark::harness::{run, Config, Report};
use ripple_benchmark::metrics::{END_TO_END, PER_LAYER};
use ripple_benchmark::workloads::{Sizes, WorkloadId};

fn quick(workload: WorkloadId, trace: bool) -> Report {
    let report = run(&Config {
        workload,
        seed: 42,
        seconds: 0.0,
        trace,
        sizes: Sizes::QUICK,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick"),
    });
    assert!(
        report.correct(),
        "{} (trace {trace}): {:?}",
        workload.name(),
        report.errors
    );
    report
}

#[test]
fn every_workload_runs_its_timed_pass() {
    for workload in WorkloadId::ALL {
        let report = quick(workload, false);
        assert_eq!(
            (report.ops, report.ops_failed),
            (2, 0),
            "{}",
            workload.name()
        );
        assert_eq!(report.metrics.len(), END_TO_END.len());
        for (metric, def) in report.metrics.iter().zip(END_TO_END) {
            assert_eq!(metric.name, def.name);
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{}/{} = {}",
                workload.name(),
                metric.name,
                metric.value
            );
        }
        // The parent of `run all` and `aa` reads reports back from text.
        let parsed = Report::parse(workload, 42, &report.table()).expect("table parses");
        assert_eq!(parsed.metrics, report.metrics);
        assert_eq!(
            (parsed.ops, parsed.ops_failed),
            (report.ops, report.ops_failed)
        );
        assert!(report
            .json_line()
            .starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0"));
    }
}

#[test]
fn every_workload_runs_its_traced_pass() {
    for workload in WorkloadId::ALL {
        let report = quick(workload, true);
        assert_eq!(report.metrics.len(), PER_LAYER.len());
        let get = |name: &str| report.metric(name).expect(name);
        assert!(get("trace.overhead_ratio") > 0.0);
        assert!(
            (0.5..=1.0 + 1e-9).contains(&get("trace.coverage")),
            "{}: coverage {}",
            workload.name(),
            get("trace.coverage")
        );
        assert!(get("store.run_at.count") > 0.0, "{}", workload.name());
        assert!(get("wire.bytes_per_rec") > 0.0 || workload == WorkloadId::ServeMixedMem);
        assert_eq!(
            report.counts.is_empty(),
            !workload.counts_deterministic(),
            "{}",
            workload.name()
        );
        // The layers a workload does not touch read 0, not garbage.
        let net = workload == WorkloadId::PagerankNet;
        assert_eq!(get("net.rpcs") > 0.0, net, "{}", workload.name());
        assert_eq!(get("net.ping_us") > 0.0, net, "{}", workload.name());
        let disk = workload == WorkloadId::SsspWavesDisk;
        assert_eq!(get("disk.wal_bytes") > 0.0, disk, "{}", workload.name());
        let summa = workload == WorkloadId::SummaNosyncMem;
        assert_eq!(
            get("mq.table_ns_per_msg") > 0.0,
            summa,
            "{}",
            workload.name()
        );
        assert_eq!(get("summa.kernel_ms") > 0.0, summa, "{}", workload.name());
        let serve = workload == WorkloadId::ServeMixedMem;
        assert_eq!(get("server.query_ns") > 0.0, serve, "{}", workload.name());
        assert_eq!(
            get("store.snapshot.count") > 0.0,
            serve,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn the_same_seed_gives_the_same_exact_counts() {
    let a = quick(WorkloadId::SsspWavesDisk, true);
    let b = quick(WorkloadId::SsspWavesDisk, true);
    assert!(!a.counts.is_empty());
    assert_eq!(a.counts, b.counts);
}
