//! `BENCHMARK.json` is generated from the metric registry and must stay in
//! step with it and within the benchmark contract's limits.

use std::collections::HashSet;

use ripple_benchmark::metrics::{manifest_json, END_TO_END, PER_LAYER, RUN_SECONDS};
use ripple_benchmark::workloads::WorkloadId;

#[test]
fn committed_manifest_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        manifest_json(),
        "regenerate with `ripple-benchmark manifest > BENCHMARK.json`"
    );
}

#[test]
fn registry_respects_the_contract_limits() {
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names = HashSet::new();
    for w in WorkloadId::ALL {
        assert!(name_ok(w.name()), "{}", w.name());
        assert!(names.insert(w.name()), "{} used twice", w.name());
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
        assert_eq!(WorkloadId::parse(w.name()), Some(w));
    }
    for m in END_TO_END {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(names.insert(m.name), "{} used twice", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(["lower", "higher"].contains(&m.better));
    }
    for m in PER_LAYER {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(names.insert(m.name), "{} used twice", m.name);
        assert!(["lower", "higher"].contains(&m.better));
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    assert!((1..=60).contains(&RUN_SECONDS));
    assert!(PER_LAYER.len() <= 128 && manifest_json().len() <= 64 * 1024);
}
