//! Tests of [`RunObserver`]: per-step, checkpoint, and recovery callbacks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ripple_core::{
    ComputeContext, EbspError, FnLoader, Job, JobProperties, JobRunner, LoadSink, ObservedEvent,
    RecordingObserver, RunOptions,
};
use ripple_kv::PartId;
use ripple_store_mem::MemStore;

struct CountDown;

impl Job for CountDown {
    type Key = u32;
    type State = u32;
    type Message = ();
    type OutKey = ();
    type OutValue = ();
    fn state_tables(&self) -> Vec<String> {
        vec!["countdown".to_owned()]
    }
    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let left = ctx.read_state(0)?.unwrap_or(0);
        ctx.write_state(0, &left.saturating_sub(1))?;
        Ok(left > 1)
    }
}

#[test]
fn observer_sees_every_step_with_enabled_counts() {
    let observer = Arc::new(RecordingObserver::new());
    let store = MemStore::builder().default_parts(2).build();
    JobRunner::new(store)
        .observer(observer.clone())
        .launch(
            Arc::new(CountDown),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<CountDown>| {
                    // Component k counts down from k+1: k=0 runs 1 step,
                    // k=2 runs 3 steps.
                    for k in 0..3u32 {
                        sink.state(0, k, k + 1)?;
                        sink.enable(k)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap();
    let steps: Vec<(u32, u64)> = observer
        .take()
        .into_iter()
        .filter_map(|e| match e {
            ObservedEvent::Step(s, n) => Some((s, n)),
            _ => None,
        })
        .collect();
    // Step 1 invoked all three components, step 2 two, step 3 one.
    assert_eq!(steps, vec![(1, 3), (2, 2), (3, 1)]);
}

struct FaultyCountDown {
    store: MemStore,
    injected: AtomicBool,
}

impl Job for FaultyCountDown {
    type Key = u32;
    type State = u32;
    type Message = ();
    type OutKey = ();
    type OutValue = ();
    fn state_tables(&self) -> Vec<String> {
        vec!["f_countdown".to_owned()]
    }
    fn properties(&self) -> JobProperties {
        JobProperties {
            deterministic: true,
            ..Default::default()
        }
    }
    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        // Injected from part 0's own task, so the part always fails as
        // itself mid-compute, never after its task already finished.
        if ctx.step() == 2 && ctx.part() == PartId(0) && !self.injected.swap(true, Ordering::SeqCst)
        {
            let t = ripple_kv::KvStore::lookup_table(&self.store, "f_countdown").unwrap();
            self.store.fail_part(&t, PartId(0)).unwrap();
        }
        let left = ctx.read_state(0)?.unwrap_or(0);
        ctx.write_state(0, &left.saturating_sub(1))?;
        Ok(left > 1)
    }
}

#[test]
fn observer_sees_checkpoints_and_recoveries() {
    let observer = Arc::new(RecordingObserver::new());
    let store = MemStore::builder().default_parts(2).build();
    JobRunner::new(store.clone())
        .checkpoint_interval(1)
        .observer(observer.clone())
        .launch(
            Arc::new(FaultyCountDown {
                store: store.clone(),
                injected: AtomicBool::new(false),
            }),
            RunOptions::new()
                .loaders(vec![Box::new(FnLoader::new(
                    |sink: &mut dyn LoadSink<FaultyCountDown>| {
                        for k in 0..8u32 {
                            sink.state(0, k, 4)?;
                            sink.enable(k)?;
                        }
                        Ok(())
                    },
                ))])
                .recovery(),
        )
        .unwrap();
    let events = observer.take();
    // The job declares determinism, so the failed part is replayed alone.
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ObservedEvent::FastRecovery(0, _))),
        "{events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ObservedEvent::Checkpoint(_))),
        "{events:?}"
    );
}

#[test]
fn observer_sees_whole_group_recovery_when_fast_is_disabled() {
    let observer = Arc::new(RecordingObserver::new());
    let store = MemStore::builder().default_parts(2).build();
    JobRunner::new(store.clone())
        .checkpoint_interval(1)
        .fast_recovery(false)
        .observer(observer.clone())
        .launch(
            Arc::new(FaultyCountDown {
                store: store.clone(),
                injected: AtomicBool::new(false),
            }),
            RunOptions::new()
                .loaders(vec![Box::new(FnLoader::new(
                    |sink: &mut dyn LoadSink<FaultyCountDown>| {
                        for k in 0..8u32 {
                            sink.state(0, k, 4)?;
                            sink.enable(k)?;
                        }
                        Ok(())
                    },
                ))])
                .recovery(),
        )
        .unwrap();
    let events = observer.take();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ObservedEvent::Recovery(_))),
        "{events:?}"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ObservedEvent::FastRecovery(..))),
        "{events:?}"
    );
}
