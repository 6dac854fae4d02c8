//! Tests of the two aggregator implementation strategies (§IV-A): a modest
//! number of aggregators returns partials to the controller directly; a
//! large number flows through auxiliary tables plus another round of
//! enumeration.  Both must produce identical results.

use std::sync::Arc;

use ripple_core::{
    AggValue, Aggregate, ComputeContext, EbspError, FnLoader, Job, JobRunner, LoadSink, MaxI64,
    RunOptions, SumI64,
};
use ripple_kv::KvStore;
use ripple_store_mem::{FaultOp, FaultPlan, MemStore};

const AGGS: usize = 24;

/// A job with many aggregators: component k feeds `k` into `sum<k mod AGGS>`
/// and into `max<k mod AGGS>` each step, for three steps.
struct ManyAggregators;

impl Job for ManyAggregators {
    type Key = u32;
    type State = ();
    type Message = ();
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["many_aggs".to_owned()]
    }

    fn aggregators(&self) -> Vec<(String, Arc<dyn Aggregate>)> {
        let mut out: Vec<(String, Arc<dyn Aggregate>)> = Vec::new();
        for i in 0..AGGS / 2 {
            out.push((format!("sum{i}"), Arc::new(SumI64)));
            out.push((format!("max{i}"), Arc::new(MaxI64)));
        }
        out
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let k = *ctx.key();
        let slot = (k as usize) % (AGGS / 2);
        ctx.aggregate(&format!("sum{slot}"), AggValue::I64(i64::from(k)))?;
        ctx.aggregate(&format!("max{slot}"), AggValue::I64(i64::from(k)))?;
        Ok(ctx.step() < 3)
    }
}

fn run_with_threshold(threshold: usize) -> ripple_core::RunOutcome {
    run_on(MemStore::builder().default_parts(4).build(), threshold)
}

fn run_on(store: MemStore, threshold: usize) -> ripple_core::RunOutcome {
    JobRunner::new(store)
        .aggregator_table_threshold(threshold)
        .launch(
            Arc::new(ManyAggregators),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<ManyAggregators>| {
                    for k in 0..60u32 {
                        sink.enable(k)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap()
}

fn expected_sum(slot: usize) -> i64 {
    (0..60i64)
        .filter(|k| (*k as usize) % (AGGS / 2) == slot)
        .sum()
}

fn expected_max(slot: usize) -> i64 {
    (0..60i64)
        .filter(|k| (*k as usize) % (AGGS / 2) == slot)
        .max()
        .unwrap()
}

#[test]
fn controller_path_aggregates_correctly() {
    // Threshold above the count: partials return to the controller.
    let outcome = run_with_threshold(1000);
    assert_eq!(outcome.steps, 3);
    for slot in 0..AGGS / 2 {
        assert_eq!(
            outcome.aggregates.get(&format!("sum{slot}")),
            Some(AggValue::I64(expected_sum(slot))),
            "sum{slot}"
        );
        assert_eq!(
            outcome.aggregates.get(&format!("max{slot}")),
            Some(AggValue::I64(expected_max(slot))),
            "max{slot}"
        );
    }
}

#[test]
fn table_path_aggregates_identically() {
    // Threshold of 1: every aggregate flows through the auxiliary tables.
    let via_tables = run_with_threshold(1);
    let via_controller = run_with_threshold(1000);
    for slot in 0..AGGS / 2 {
        for prefix in ["sum", "max"] {
            let name = format!("{prefix}{slot}");
            assert_eq!(
                via_tables.aggregates.get(&name),
                via_controller.aggregates.get(&name),
                "{name} must not depend on the aggregation strategy"
            );
        }
    }
}

#[test]
fn table_path_costs_more_store_traffic() {
    let via_tables = run_with_threshold(1);
    let via_controller = run_with_threshold(1000);
    assert!(
        via_tables.metrics.store.total_ops() > via_controller.metrics.store.total_ops(),
        "the auxiliary tables and extra enumeration round must show up in \
         store traffic: {} vs {}",
        via_tables.metrics.store.total_ops(),
        via_controller.metrics.store.total_ops()
    );
}

/// A part's partials go to the auxiliary table as one idempotent batch
/// under the retry policy, so transient faults on that write heal like
/// those on its spills.
#[test]
fn table_path_heals_transient_faults_on_the_aux_table() {
    let store = MemStore::builder()
        .default_parts(4)
        .fault_plan(FaultPlan::seeded(3).transient_batches(2))
        .build();
    let faulted = run_on(store.clone(), 1);
    let clean = run_with_threshold(1);
    for (name, _) in ManyAggregators.aggregators() {
        assert_eq!(
            faulted.aggregates.get(&name),
            clean.aggregates.get(&name),
            "{name}"
        );
    }
    // Each part's first two batches to each table it writes fail: its
    // spills to the two transport tables, and its partials to the aux table.
    let trace = store.fault_trace();
    for part in 0..4 {
        let batches = trace
            .iter()
            .filter(|r| r.part == part && r.op == FaultOp::Batch);
        assert_eq!(batches.count(), 6, "part {part}: {trace:?}");
    }
    assert_eq!(faulted.metrics.retries, trace.len() as u64);
}

#[test]
fn aux_tables_are_cleaned_up() {
    let store = MemStore::builder().default_parts(4).build();
    JobRunner::new(store.clone())
        .aggregator_table_threshold(1)
        .launch(
            Arc::new(ManyAggregators),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<ManyAggregators>| {
                    for k in 0..10u32 {
                        sink.enable(k)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap();
    for name in store.table_names() {
        assert!(
            !name.starts_with("__ebsp_"),
            "internal table {name} leaked past the run"
        );
    }
}

/// Aggregator results remain readable across steps under the table path.
struct ReadBack;

impl Job for ReadBack {
    type Key = u32;
    type State = ();
    type Message = ();
    type OutKey = ();
    type OutValue = ();
    fn state_tables(&self) -> Vec<String> {
        vec!["readback".to_owned()]
    }
    fn aggregators(&self) -> Vec<(String, Arc<dyn Aggregate>)> {
        (0..20)
            .map(|i| (format!("a{i}"), Arc::new(SumI64) as Arc<dyn Aggregate>))
            .collect()
    }
    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        if ctx.step() > 1 {
            // Last step's total: 5 components each fed 2 into a0.
            assert_eq!(ctx.aggregate_prev("a0"), Some(AggValue::I64(10)));
        }
        ctx.aggregate("a0", AggValue::I64(2))?;
        Ok(ctx.step() < 3)
    }
}

#[test]
fn table_path_results_visible_next_step() {
    let store = MemStore::builder().default_parts(3).build();
    let outcome = JobRunner::new(store)
        .aggregator_table_threshold(1)
        .launch(
            Arc::new(ReadBack),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<ReadBack>| {
                    for k in 0..5u32 {
                        sink.enable(k)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap();
    assert_eq!(outcome.aggregates.get("a0"), Some(AggValue::I64(10)));
}
