//! Step-level profiling: per-step profiles must tile the run — their
//! counters and store deltas sum to the run-level [`RunMetrics`] — and the
//! trace export must produce well-formed Chrome trace-event JSON.

use std::sync::Arc;
use std::time::Duration;

use ripple_core::{
    ComputeContext, EbspError, ExecMode, FnLoader, Job, JobProperties, JobRunner, LoadSink,
    ObservedEvent, RecordingObserver, RunOptions, StepProfile, TraceRecorder,
};
use ripple_store_mem::MemStore;

const PARTS: u32 = 3;

/// A ring relay: every key forwards a decrementing hop count to the next
/// key each step, so every step has cross-part messages (store traffic),
/// state reads and writes, and all parts stay busy.
struct RingRelay {
    n: u32,
}

impl Job for RingRelay {
    type Key = u32;
    type State = u32;
    type Message = u32;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["ring_relay".to_owned()]
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let me = *ctx.key();
        let seen = ctx.read_state(0)?.unwrap_or(0);
        let hops = ctx.messages().iter().copied().max().unwrap_or(0);
        ctx.write_state(0, &(seen + 1))?;
        if hops > 0 {
            ctx.send((me + 1) % self.n, hops - 1);
        }
        Ok(false)
    }
}

fn run_ring(runner: &JobRunner<MemStore>) -> ripple_core::RunOutcome {
    runner
        .launch(
            Arc::new(RingRelay { n: 9 }),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<RingRelay>| {
                    for k in 0..9u32 {
                        sink.message(k, 5)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap()
}

fn sum_counters(profiles: &[StepProfile], f: impl Fn(&StepProfile) -> u64) -> u64 {
    profiles.iter().map(f).sum()
}

#[test]
fn step_profiles_tile_the_run_metrics() {
    let observer = Arc::new(RecordingObserver::new());
    let store = MemStore::builder().default_parts(PARTS).build();
    let mut runner = JobRunner::new(store);
    runner.profile(true).observer(observer.clone());
    let outcome = run_ring(&runner);

    assert_eq!(outcome.mode, ExecMode::Synchronized);
    assert!(outcome.worker_profiles.is_none());
    let profiles = outcome.profiles.as_deref().expect("profiling was on");
    let m = &outcome.metrics;

    // One profile per step, in step order.
    assert_eq!(profiles.len() as u32, outcome.steps);
    assert!(outcome.steps >= 5, "the relay runs one step per hop");
    for (i, p) in profiles.iter().enumerate() {
        assert_eq!(p.step, i as u32 + 1);
    }

    // Work counters: everything produced by compute invocations tiles
    // exactly across the steps.
    assert_eq!(
        sum_counters(profiles, |p| p.counters.invocations),
        m.invocations
    );
    assert_eq!(
        sum_counters(profiles, |p| p.counters.messages_sent),
        m.messages_sent
    );
    assert_eq!(
        sum_counters(profiles, |p| p.counters.state_reads),
        m.state_reads
    );
    assert_eq!(
        sum_counters(profiles, |p| p.counters.state_writes),
        m.state_writes
    );
    assert_eq!(
        sum_counters(profiles, |p| p.counters.state_deletes),
        m.state_deletes
    );
    assert_eq!(sum_counters(profiles, |p| p.counters.creates), m.creates);
    assert_eq!(
        sum_counters(profiles, |p| p.counters.direct_outputs),
        m.direct_outputs
    );
    // The initial load — its spill, and what the loaders' own sends folded
    // — precedes the first step, so these two run-level counters may exceed
    // the per-step sum — but never by less.
    assert!(sum_counters(profiles, |p| p.counters.spill_batches) <= m.spill_batches);
    assert!(sum_counters(profiles, |p| p.counters.messages_combined) <= m.messages_combined);

    // Store deltas telescope: per-step deltas sum exactly to the run-level
    // delta, field by field.
    let store_sum = profiles
        .iter()
        .fold(ripple_kv::StoreMetrics::default(), |sum, p| sum + p.store);
    assert_eq!(
        store_sum, m.store,
        "per-step store deltas must tile the run"
    );
    assert!(m.store.remote_ops > 0, "the ring crosses part boundaries");

    // Per-part structure: pinned execution attributes every part, a part
    // task delivers then computes inside the round's wall, and the skew is
    // the spread of part finishes, so it cannot exceed that wall either.
    for p in profiles {
        assert_eq!(p.parts.len() as u32, PARTS);
        let wall = p.inbox_wall + p.compute_wall;
        assert!(p.barrier_skew <= wall, "{p:?}");
        for part in &p.parts {
            assert!(part.inbox_build <= p.inbox_wall, "{part:?}");
            assert!(part.inbox_build + part.compute <= wall, "{part:?}");
            assert!(part.inbox_start >= p.start, "{part:?}");
            assert_eq!(part.compute_start, part.inbox_start + part.inbox_build);
            // Part-attributed store ops never exceed the step total (the
            // store leaves whole-table ops unattributed).
            assert!(part.store.local_ops <= p.store.local_ops);
            assert!(part.store.remote_ops <= p.store.remote_ops);
            assert!(part.store.bytes_marshalled <= p.store.bytes_marshalled);
        }
        let attributed: u64 = p.parts.iter().map(|q| q.store.total_ops()).sum();
        assert!(attributed <= p.store.total_ops(), "{p:?}");
    }
    assert!(
        profiles
            .iter()
            .any(|p| p.parts.iter().any(|q| q.compute > Duration::ZERO)),
        "some part must have measurable compute time"
    );

    // `enabled` mirrors the on_step callback's count: the components the
    // step invoked.
    let steps: Vec<(u32, u64)> = observer
        .take()
        .into_iter()
        .filter_map(|e| match e {
            ObservedEvent::StepProfile(s) => Some((s, u64::MAX)),
            ObservedEvent::Step(s, n) => Some((s, n)),
            _ => None,
        })
        .collect();
    for p in profiles {
        assert!(
            steps.contains(&(p.step, p.enabled)),
            "observer missed step {}",
            p.step
        );
        assert!(
            steps.contains(&(p.step, u64::MAX)),
            "observer missed the profile event for step {}",
            p.step
        );
    }
}

#[test]
fn profiles_are_absent_when_disabled() {
    let store = MemStore::builder().default_parts(PARTS).build();
    let outcome = run_ring(&JobRunner::new(store));
    assert!(outcome.profiles.is_none());
    assert!(outcome.worker_profiles.is_none());
}

#[test]
fn trace_file_is_valid_chrome_trace_json() {
    let path = std::env::temp_dir().join(format!("ripple_trace_test_{}.json", std::process::id()));
    let store = MemStore::builder().default_parts(PARTS).build();
    let recorder = Arc::new(TraceRecorder::new());
    let mut runner = JobRunner::new(store);
    runner.profile(true).observer(recorder.clone());
    run_ring(&runner);
    recorder.write_to(&path).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(text.starts_with("{\"traceEvents\":["), "{text:.60}");
    assert!(text.ends_with('}'), "{text:.60}");
    assert!(text.contains("\"ph\":\"X\""), "complete events present");
    assert!(text.contains("\"step 1\""), "controller lane spans present");
    assert!(
        text.contains("\"ph\":\"M\""),
        "thread-name metadata present"
    );

    // Structural JSON check: braces and brackets balance outside strings.
    let (mut depth, mut in_string, mut escaped) = (0i64, false, false);
    for c in text.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '{' | '[' if !in_string => depth += 1,
            '}' | ']' if !in_string => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced close in trace");
    }
    assert_eq!(depth, 0, "trace JSON must balance");
    assert!(!in_string, "trace JSON must close its strings");
}

#[test]
fn nosync_run_yields_one_worker_profile_per_part() {
    // The nosync chain from the simple-job tests: incremental, one message
    // in flight hopping down a chain of keys spread over the parts.
    let job = ripple_core::SimpleJob::<u32, u32, u32>::builder("nosync_profiled")
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
    let observer = Arc::new(RecordingObserver::new());
    let mut runner = JobRunner::new(store);
    runner
        .profile(true)
        .observer(observer.clone())
        .quiescence_timeout(Duration::from_secs(30));
    let outcome = runner
        .launch(
            Arc::new(job),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<_>| sink.message(0, 20),
            ))]),
        )
        .unwrap();
    assert_eq!(outcome.mode, ExecMode::Unsynchronized);
    assert!(outcome.profiles.is_none(), "no steps to profile");
    let workers = outcome.worker_profiles.as_deref().expect("profiling on");
    assert_eq!(workers.len(), 2, "one profile per part");
    let mut parts: Vec<u32> = workers.iter().map(|w| w.part).collect();
    parts.sort_unstable();
    assert_eq!(parts, vec![0, 1]);
    // 21 invocations, each fed by one delivered envelope.
    let envelopes: u64 = workers.iter().map(|w| w.envelopes).sum();
    assert!(envelopes >= outcome.metrics.invocations, "{workers:?}");
    for w in workers {
        // A worker that only ever saw the stop signal drains no batch.
        if w.envelopes > 0 {
            assert!(w.batches >= 1, "{w:?}");
            assert!(w.busy > Duration::ZERO, "{w:?}");
        }
        assert!(w.envelopes <= w.batches * 256, "the batch limit bounds");
        assert!(w.max_batch <= w.envelopes, "{w:?}");
        assert!((0.0..=1.0).contains(&w.utilization()));
        assert!(w.busy + w.idle > Duration::ZERO, "every worker waited");
    }
    let seen: Vec<u32> = observer
        .take()
        .into_iter()
        .filter_map(|e| match e {
            ObservedEvent::WorkerProfile(p) => Some(p),
            _ => None,
        })
        .collect();
    assert_eq!(seen.len(), 2, "observer saw each worker profile");
}
