//! Mode equivalence through the one entry point.  The legacy `run_*`
//! wrappers are gone; what their compat suite really pinned was that the
//! *modes* agree where they overlap — a mode upgrade changes failure
//! handling, never the converged result.  So: the same countdown job must
//! take the same number of steps and do the same work through every
//! launch mode the store supports, and a gated launch must match an
//! ungated one byte-for-byte.  A plain launch keeps what a part sends to
//! itself in memory where a recovery launch spills it; that too must
//! change nothing but the spill count.

use std::sync::Arc;
use std::time::Duration;

use ripple_core::{
    ComputeContext, EbspError, FnLoader, Job, JobRunner, LoadSink, RunMetrics, RunOptions,
    SemaphoreGate, SimpleJob,
};
use ripple_kv::{KvStore, StoreMetrics};
use ripple_store_mem::MemStore;

type CountDown = SimpleJob<u32, u32, u32>;

fn countdown(name: &str) -> CountDown {
    SimpleJob::<u32, u32, u32>::builder(name)
        .compute(|ctx| {
            let v = ctx.read_state(0)?.unwrap_or(0);
            ctx.write_state(0, &v.saturating_sub(1))?;
            Ok(v > 1)
        })
        .build()
}

fn seed(n: u32) -> Box<dyn ripple_core::Loader<CountDown>> {
    Box::new(FnLoader::new(move |sink: &mut dyn LoadSink<CountDown>| {
        for k in 0..4u32 {
            sink.state(0, k, n)?;
            sink.enable(k)?;
        }
        Ok(())
    }))
}

fn store() -> MemStore {
    MemStore::builder().default_parts(4).build()
}

/// Digest of the job's state table after a run, for byte-identity checks.
fn state_digest(store: &MemStore, table: &str) -> u64 {
    let table = store.lookup_table(table).expect("state table exists");
    store.snapshot_table(&table).expect("snapshot").digest()
}

#[test]
fn basic_launch_converges() {
    let outcome = JobRunner::new(store())
        .launch(Arc::new(countdown("a")), RunOptions::new())
        .unwrap();
    assert_eq!(outcome.steps, 0); // no loader: nothing enabled, no steps
}

#[test]
fn all_modes_agree_on_steps_and_work() {
    let basic = JobRunner::new(store())
        .launch(
            Arc::new(countdown("b")),
            RunOptions::new().loaders(vec![seed(5)]),
        )
        .unwrap();
    assert_eq!(basic.steps, 5);

    let healing = JobRunner::new(store())
        .launch(
            Arc::new(countdown("b")),
            RunOptions::new().loaders(vec![seed(5)]).healing(),
        )
        .unwrap();
    let recovery = JobRunner::new(store())
        .launch(
            Arc::new(countdown("b")),
            RunOptions::new().loaders(vec![seed(5)]).recovery(),
        )
        .unwrap();
    let durable = JobRunner::new(store())
        .launch(
            Arc::new(countdown("b")),
            RunOptions::new()
                .loaders(vec![seed(5)])
                .recovery()
                .durable(),
        )
        .unwrap();

    for outcome in [&healing, &recovery, &durable] {
        assert_eq!(outcome.steps, basic.steps);
        assert!(!outcome.aborted);
    }
    assert_eq!(basic.metrics.invocations, healing.metrics.invocations);
    assert_eq!(basic.metrics.invocations, recovery.metrics.invocations);
    assert_eq!(basic.metrics.invocations, durable.metrics.invocations);
}

#[test]
fn modes_agree_on_final_state_bytes() {
    let mut digests = Vec::new();
    for upgrade in 0..3 {
        let s = store();
        let runner = JobRunner::new(s.clone());
        let job = Arc::new(countdown("c"));
        let outcome = match upgrade {
            0 => runner.launch(job, RunOptions::new().loaders(vec![seed(4)])),
            1 => runner.launch(job, RunOptions::new().loaders(vec![seed(4)]).recovery()),
            _ => runner.launch(
                job,
                RunOptions::new()
                    .loaders(vec![seed(4)])
                    .recovery()
                    .durable(),
            ),
        }
        .unwrap();
        assert_eq!(outcome.steps, 4);
        digests.push(state_digest(&s, "c"));
    }
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[0], digests[2]);
}

#[test]
fn gated_launch_is_byte_identical_to_ungated() {
    let plain_store = store();
    let plain = JobRunner::new(plain_store.clone())
        .launch(
            Arc::new(countdown("d")),
            RunOptions::new().loaders(vec![seed(6)]),
        )
        .unwrap();

    // A two-permit gate over 4 parts: tasks queue, results must not change.
    let gated_store = store();
    let mut runner = JobRunner::new(gated_store.clone());
    runner.task_gate(Arc::new(SemaphoreGate::new(2)));
    let gated = runner
        .launch(
            Arc::new(countdown("d")),
            RunOptions::new().loaders(vec![seed(6)]),
        )
        .unwrap();

    assert_eq!(plain.steps, gated.steps);
    assert_eq!(plain.metrics.invocations, gated.metrics.invocations);
    assert_eq!(
        state_digest(&plain_store, "d"),
        state_digest(&gated_store, "d"),
        "a task gate must schedule work, not change it"
    );
}

const BRAID_KEYS: u32 = 60;

/// A job whose every byte depends on the order messages arrive and are
/// sent in: its combiner is a non-commutative digest that declines a
/// seeded share of folds, and a component folds the list it receives, in
/// order, into its state.  Each component messages itself and two others
/// every step, so a part hears from itself and from other parts.  It does
/// not declare `needs-order`: a part invokes in first-arrival order, which
/// is also the order its sends fold in.
struct Braid;

impl Job for Braid {
    type Key = u32;
    type State = u64;
    type Message = u64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["braid".to_owned()]
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let (k, step) = (*ctx.key(), ctx.step());
        let mut state = ctx.read_state(0)?.unwrap_or(0);
        for msg in ctx.messages() {
            state = state.wrapping_mul(31).wrapping_add(*msg);
        }
        ctx.write_state(0, &state)?;
        if step < 6 {
            ctx.send(k, state ^ u64::from(step));
            ctx.send((k * 7 + step) % BRAID_KEYS, state.rotate_left(step));
            ctx.send((k + 1) % BRAID_KEYS, state.wrapping_add(u64::from(k)));
        }
        Ok(false)
    }

    fn combine_messages(&self, key: &u32, into: &mut u64, msg: u64) -> Option<u64> {
        let draw =
            (u64::from(*key) ^ *into ^ msg.rotate_left(17)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        if draw >> 62 == 0 {
            return Some(msg);
        }
        *into = into.wrapping_mul(31).wrapping_add(msg);
        None
    }
}

fn braid_loader() -> Box<dyn ripple_core::Loader<Braid>> {
    Box::new(FnLoader::new(|sink: &mut dyn LoadSink<Braid>| {
        for k in 0..BRAID_KEYS {
            sink.state(0, k, u64::from(k) * 0x51ed)?;
            sink.enable(k)?;
        }
        Ok(())
    }))
}

/// The run's counts, all but the spill batches, the store's delta (which
/// the recovery launch's checkpoints add to) and the wall time.
fn counts_but_spills(metrics: &RunMetrics) -> String {
    let metrics = RunMetrics {
        spill_batches: 0,
        store: StoreMetrics::default(),
        elapsed: Duration::ZERO,
        ..metrics.clone()
    };
    format!("{metrics:?}")
}

#[test]
fn own_part_messages_kept_in_memory_fold_where_their_spill_would() {
    for parts in [3, 5] {
        let launch = |recovery: bool| {
            let store = MemStore::builder().default_parts(parts).build();
            let runner = JobRunner::new(store.clone());
            let options = RunOptions::new().loader(braid_loader());
            let outcome = if recovery {
                runner.launch(Arc::new(Braid), options.recovery())
            } else {
                runner.launch(Arc::new(Braid), options)
            }
            .expect("run");
            let table = store.lookup_table("braid").expect("state table");
            let state = store.snapshot_table(&table).expect("snapshot");
            (outcome, state.entries().to_vec())
        };
        let (kept, kept_state) = launch(false);
        let (spilled, spilled_state) = launch(true);
        assert_eq!(kept.steps, 6, "{parts} parts");
        assert_eq!(kept_state, spilled_state, "{parts} parts: state bytes");
        assert_eq!(
            counts_but_spills(&kept.metrics),
            counts_but_spills(&spilled.metrics),
            "{parts} parts"
        );
        // Every part messages itself in each of the five sending steps, and
        // only the recovery launch spills those buckets.
        assert_eq!(
            spilled.metrics.spill_batches - kept.metrics.spill_batches,
            u64::from(parts) * 5,
            "{parts} parts"
        );
    }
}
