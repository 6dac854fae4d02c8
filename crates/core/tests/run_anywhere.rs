//! Tests of the run-anywhere (work-stealing) compute phase, enabled by
//! `one-msg ∧ no-continue ∧ rare-state`.

#![expect(clippy::disallowed_methods, reason = "components simulate work")]

use std::sync::Arc;

use ripple_core::{
    export_state_table, CollectingExporter, ComputeContext, EbspError, ExecutionPlan, Exporter,
    FnLoader, Job, JobProperties, JobRunner, LoadSink, RunOptions,
};
use ripple_kv::{KvStore, PartId};
use ripple_store_mem::MemStore;

/// A run-anywhere-eligible job whose work all lands in one part: each
/// invocation records the part it actually executed at (via direct
/// output), writes a result, and optionally relays once.
struct SkewedWork {
    exporter: Arc<CollectingExporter<u32, u32>>, // (key, executing part)
}

impl Job for SkewedWork {
    type Key = u32;
    type State = u64;
    type Message = u64;
    type OutKey = u32;
    type OutValue = u32;

    fn state_tables(&self) -> Vec<String> {
        vec!["skew".to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            one_msg: true,
            no_continue: true,
            rare_state: true,
            deterministic: true,
            // NOT no_ss_order / incremental: stays synchronized, so the
            // run-anywhere path of the sync engine is what executes.
            ..JobProperties::default()
        }
    }

    fn direct_output(&self) -> Option<Arc<dyn Exporter<u32, u32>>> {
        Some(self.exporter.clone() as Arc<dyn Exporter<u32, u32>>)
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let key = *ctx.key();
        let part = ctx.part().0;
        ctx.output(key, part)?;
        let payload = ctx.messages().first().copied().unwrap_or(0);
        // Non-trivial work so that, even on one core, the OS interleaves
        // the stealing workers.
        std::thread::sleep(std::time::Duration::from_micros(300));
        // Some "rare" state access.
        ctx.write_state(0, &(payload + 1))?;
        Ok(false)
    }
}

/// Keys that all route to part 0 of a `parts`-part table.
fn keys_in_part(parts: u32, part: u32, count: usize) -> Vec<u32> {
    (0u32..)
        .filter(|k| ripple_core::key_to_routed(k).part_for(parts) == PartId(part))
        .take(count)
        .collect()
}

#[test]
fn plan_selects_run_anywhere() {
    let exporter = Arc::new(CollectingExporter::new());
    let job = SkewedWork { exporter };
    let plan = ExecutionPlan::derive(&job.properties(), true, true);
    assert!(plan.run_anywhere);
    assert!(!plan.collect);
    assert_eq!(plan.mode, ripple_core::ExecMode::Synchronized);
}

#[test]
fn skewed_work_is_stolen_across_parts() {
    const PARTS: u32 = 4;
    let store = MemStore::builder().default_parts(PARTS).build();
    let exporter = Arc::new(CollectingExporter::new());
    let job = Arc::new(SkewedWork {
        exporter: Arc::clone(&exporter),
    });
    // 200 components, every single one living in part 0.
    let keys = keys_in_part(PARTS, 0, 200);
    let outcome = JobRunner::new(store)
        .launch(
            job,
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                move |sink: &mut dyn LoadSink<SkewedWork>| {
                    for k in keys {
                        sink.message(k, 7)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap();
    assert_eq!(outcome.metrics.invocations, 200);

    // The invocations must have been spread over multiple parts even
    // though all the components' state lives in part 0.
    let executed = exporter.take();
    let mut parts_used: Vec<u32> = executed.iter().map(|(_, p)| *p).collect();
    parts_used.sort();
    parts_used.dedup();
    assert!(
        parts_used.len() > 1,
        "work stealing must use more than one part, used {parts_used:?}"
    );
}

#[test]
fn run_anywhere_results_are_correct() {
    const PARTS: u32 = 3;
    let store = MemStore::builder().default_parts(PARTS).build();
    let exporter = Arc::new(CollectingExporter::new());
    let job = Arc::new(SkewedWork { exporter });
    let keys = keys_in_part(PARTS, 1, 50);
    let expect_keys = keys.clone();
    JobRunner::new(store.clone())
        .launch(
            job,
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                move |sink: &mut dyn LoadSink<SkewedWork>| {
                    for k in keys {
                        sink.message(k, 41)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap();
    // Every component wrote 42, into its *home* part's state table.
    let table = store.lookup_table("skew").unwrap();
    let state_exporter = Arc::new(CollectingExporter::<u32, u64>::new());
    export_state_table(&store, &table, Arc::clone(&state_exporter)).unwrap();
    let mut got = state_exporter.take();
    got.sort();
    assert_eq!(got.len(), expect_keys.len());
    for (k, v) in got {
        assert!(expect_keys.contains(&k));
        assert_eq!(v, 42);
    }
}

/// Pinned vs stolen: both produce identical state; stealing pays remote
/// state traffic (the rare-state price) that pinned execution does not.
#[test]
fn stealing_costs_remote_state_access() {
    const PARTS: u32 = 4;

    struct Pinned;
    impl Job for Pinned {
        type Key = u32;
        type State = u64;
        type Message = u64;
        type OutKey = u32;
        type OutValue = u32;
        fn state_tables(&self) -> Vec<String> {
            vec!["pinned".to_owned()]
        }
        // one-msg + no-continue but NOT rare-state: no stealing.
        fn properties(&self) -> JobProperties {
            JobProperties {
                one_msg: true,
                no_continue: true,
                ..JobProperties::default()
            }
        }
        fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
            let payload = ctx.messages().first().copied().unwrap_or(0);
            std::thread::sleep(std::time::Duration::from_micros(300));
            ctx.write_state(0, &(payload + 1))?;
            Ok(false)
        }
    }

    let store = MemStore::builder().default_parts(PARTS).build();
    let keys = keys_in_part(PARTS, 0, 100);
    let before = store.metrics();
    JobRunner::new(store.clone())
        .launch(
            Arc::new(Pinned),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new({
                let keys = keys.clone();
                move |sink: &mut dyn LoadSink<Pinned>| {
                    for k in keys {
                        sink.message(k, 1)?;
                    }
                    Ok(())
                }
            }))]),
        )
        .unwrap();
    let pinned_delta = store.metrics() - before;

    let store2 = MemStore::builder().default_parts(PARTS).build();
    let before = store2.metrics();
    JobRunner::new(store2.clone())
        .launch(
            Arc::new(SkewedWork {
                exporter: Arc::new(CollectingExporter::new()),
            }),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                move |sink: &mut dyn LoadSink<SkewedWork>| {
                    for k in keys {
                        sink.message(k, 1)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap();
    let stolen_delta = store2.metrics() - before;

    assert!(
        stolen_delta.remote_ops > pinned_delta.remote_ops,
        "stealing: {} remote ops, pinned: {}",
        stolen_delta.remote_ops,
        pinned_delta.remote_ops
    );
}
