//! Tests of the closure-based `SimpleJob` builder.

use std::sync::Arc;

use ripple_core::{
    AggValue, ExecMode, FnLoader, JobProperties, JobRunner, LoadSink, RunOptions, SimpleJob, SumI64,
};
use ripple_store_mem::MemStore;

#[test]
fn closure_job_with_combiner_and_aggregator() {
    // Gossip a maximum through a clique, counting active vertices.
    let job = SimpleJob::<u32, u32, u32>::builder("gossip_max")
        .aggregator("active", Arc::new(SumI64))
        .combine(|_k, into, msg| {
            *into = msg.max(*into);
            None
        })
        .compute(|ctx| {
            ctx.aggregate("active", AggValue::I64(1))?;
            let best = ctx.messages().iter().copied().max().unwrap_or(0);
            let current = ctx.read_state(0)?.unwrap_or(*ctx.key());
            let new = best.max(current);
            if new != current || ctx.step() == 1 {
                ctx.write_state(0, &new)?;
                for v in 0..8u32 {
                    if v != *ctx.key() {
                        ctx.send(v, new);
                    }
                }
            }
            Ok(false)
        })
        .build();
    let store = MemStore::builder().default_parts(3).build();
    JobRunner::new(store.clone())
        .launch(
            Arc::new(job),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<_>| {
                    for v in 0..8u32 {
                        sink.state(0, v, v)?;
                        sink.enable(v)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap();
    let table = ripple_kv::KvStore::lookup_table(&store, "gossip_max").unwrap();
    let exporter = Arc::new(ripple_core::CollectingExporter::new());
    ripple_core::export_state_table::<_, u32, u32, _>(&store, &table, Arc::clone(&exporter))
        .unwrap();
    for (_, v) in exporter.take() {
        assert_eq!(v, 7, "everyone learned the maximum");
    }
}

#[test]
fn closure_job_properties_select_nosync() {
    let job = SimpleJob::<u32, u32, u32>::builder("nosync_simple")
        .properties(JobProperties {
            incremental: true,
            ..Default::default()
        })
        .compute(|ctx| {
            let hops = ctx.messages().first().copied().unwrap_or(0);
            if hops > 0 {
                ctx.send(ctx.key() + 1, hops - 1);
            }
            Ok(false)
        })
        .build();
    let store = MemStore::builder().default_parts(2).build();
    let outcome = JobRunner::new(store)
        .launch(
            Arc::new(job),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<_>| sink.message(0, 20),
            ))]),
        )
        .unwrap();
    assert_eq!(outcome.mode, ExecMode::Unsynchronized);
    assert_eq!(outcome.metrics.invocations, 21);
}

#[test]
fn multiple_state_tables_by_index() {
    let job = SimpleJob::<u32, u64, ()>::builder("primary_t")
        .state_table("secondary_t")
        .compute(|ctx| {
            let a = ctx.read_state(0)?.unwrap_or(0);
            ctx.write_state(1, &(a * 2))?;
            Ok(false)
        })
        .build();
    let store = MemStore::builder().default_parts(2).build();
    JobRunner::new(store.clone())
        .launch(
            Arc::new(job),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<_>| {
                    sink.state(0, 3, 21)?;
                    sink.enable(3)
                },
            ))]),
        )
        .unwrap();
    let secondary = ripple_kv::KvStore::lookup_table(&store, "secondary_t").unwrap();
    let exporter = Arc::new(ripple_core::CollectingExporter::new());
    ripple_core::export_state_table::<_, u32, u64, _>(&store, &secondary, Arc::clone(&exporter))
        .unwrap();
    assert_eq!(exporter.take(), vec![(3, 42)]);
}

#[test]
#[should_panic(expected = "needs a compute closure")]
fn missing_compute_panics_at_build() {
    let _ = SimpleJob::<u32, u32, u32>::builder("t").build();
}
