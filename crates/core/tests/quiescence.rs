//! Termination behaviour of the unsynchronized engine: the safety timeout
//! for non-quiescing jobs and clean shutdown on quiescence under load.

#![expect(clippy::disallowed_methods, reason = "jobs pace; tests time failures")]

use std::sync::Arc;
use std::time::Duration;

use ripple_core::{
    ComputeContext, EbspError, FnLoader, Job, JobProperties, JobRunner, LoadSink, RunOptions,
};
use ripple_store_mem::MemStore;

/// A job that never quiesces: every message spawns another.
struct PingForever;

impl Job for PingForever {
    type Key = u32;
    type State = ();
    type Message = ();
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["ping".to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            incremental: true,
            ..JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let me = *ctx.key();
        // Keep a little pressure off the queues so the watcher gets CPU.
        std::thread::sleep(Duration::from_micros(200));
        ctx.send(1 - me, ());
        Ok(false)
    }
}

#[test]
fn non_quiescing_job_hits_the_safety_timeout() {
    let store = MemStore::builder().default_parts(2).build();
    let err = JobRunner::new(store)
        .quiescence_timeout(Duration::from_millis(150))
        .launch(
            Arc::new(PingForever),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<PingForever>| sink.message(0, ()),
            ))]),
        )
        .unwrap_err();
    let EbspError::QuiescenceTimeout { waited } = err else {
        panic!("expected a quiescence timeout, got {err:?}");
    };
    assert!(
        waited >= Duration::from_millis(150),
        "the reported wait ({waited:?}) must cover the configured timeout"
    );
}

/// A deep message cascade: 1 seed fans out to `width` children for `depth`
/// generations, then drains.  The detector must neither terminate early
/// (all invocations must happen) nor hang.
struct Cascade {
    width: u32,
}

impl Job for Cascade {
    type Key = u32;
    type State = ();
    type Message = u32; // remaining depth
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["cascade".to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            incremental: true,
            ..JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let me = *ctx.key();
        for depth in ctx.take_messages() {
            if depth > 0 {
                for w in 0..self.width {
                    ctx.send(me.wrapping_mul(self.width) + w + 1, depth - 1);
                }
            }
        }
        Ok(false)
    }
}

#[test]
fn deep_cascades_drain_completely() {
    let store = MemStore::builder().default_parts(4).build();
    let job = Arc::new(Cascade { width: 3 });
    let outcome = JobRunner::new(store)
        .launch(
            Arc::clone(&job),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<Cascade>| sink.message(0, 6),
            ))]),
        )
        .unwrap();
    // Message count: 1 + 3 + 9 + ... + 3^6; each message triggers (at most
    // batched) invocations — the invariant is total messages processed.
    let expected_messages: u64 = (0..=6u32).map(|d| 3u64.pow(d)).sum();
    assert_eq!(
        outcome.metrics.messages_sent, expected_messages,
        "every generation of the cascade must happen before quiescence"
    );
}

#[test]
fn repeated_runs_are_stable() {
    // Exercise the detector repeatedly to catch rare early-termination
    // races: each run must process the full cascade.
    for round in 0..10 {
        let store = MemStore::builder().default_parts(3).build();
        let outcome = JobRunner::new(store)
            .launch(
                Arc::new(Cascade { width: 2 }),
                RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                    |sink: &mut dyn LoadSink<Cascade>| sink.message(0, 8),
                ))]),
            )
            .unwrap();
        let expected: u64 = (0..=8u32).map(|d| 2u64.pow(d)).sum();
        assert_eq!(outcome.metrics.messages_sent, expected, "round {round}");
    }
}

/// A panicking compute must surface promptly, not wait out the timeout.
struct PanicOnMessage;

impl Job for PanicOnMessage {
    type Key = u32;
    type State = ();
    type Message = ();
    type OutKey = ();
    type OutValue = ();
    fn state_tables(&self) -> Vec<String> {
        vec!["panicky".to_owned()]
    }
    fn properties(&self) -> JobProperties {
        JobProperties {
            incremental: true,
            ..JobProperties::default()
        }
    }
    fn compute(&self, _ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        panic!("application bug");
    }
}

#[test]
fn worker_panics_fail_fast() {
    let store = MemStore::builder().default_parts(2).build();
    let started = std::time::Instant::now();
    let err = JobRunner::new(store)
        .quiescence_timeout(Duration::from_secs(60))
        .launch(
            Arc::new(PanicOnMessage),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<PanicOnMessage>| sink.message(0, ()),
            ))]),
        )
        .unwrap_err();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "must not wait out the quiescence timeout"
    );
    assert!(
        matches!(err, EbspError::Kv(ripple_kv::KvError::TaskPanicked { .. })),
        "got {err:?}"
    );
}
