//! Part threads belong to the store, not to a table or a launch, and a part
//! task may hold one for a whole job (an unsynchronized worker) or wait on
//! another task of its own part.  Neither may deadlock: a dispatch never
//! queues behind a busy thread of its part.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ripple::ebsp::QueueKind;
use ripple::kv::KvError;
use ripple::prelude::*;
use ripple::store_disk::{testutil::TempDir, DiskStore};
use ripple::summa::{block_loader, DenseMatrix, SummaJob};

/// Runs `f` on its own thread and fails the test if it has not finished
/// within a minute — what a deadlock looks like from outside.
fn within<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("{what}: deadlocked"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: panicked"),
    }
}

/// SUMMA without barriers over table-backed queues: every worker holds its
/// part thread for the whole job, and every cross-part message is a remote
/// put into another part.  Returns the final state table.
fn summa_nosync<S: KvStore>(store: &S, table: &str) -> Vec<(RoutedKey, Bytes)> {
    let a = DenseMatrix::random(12, 12, 5);
    let b = DenseMatrix::random(12, 12, 6);
    let mut runner = JobRunner::new(store.clone());
    runner
        .force_mode(ExecMode::Unsynchronized)
        .queue_kind(QueueKind::Table);
    runner
        .launch(
            Arc::new(SummaJob::new(table, 3)),
            RunOptions::new().loader(block_loader(&a, &b, 3)),
        )
        .expect("summa run");
    let t = store.lookup_table(table).expect("state table");
    store
        .snapshot_table(&t)
        .expect("snapshot")
        .entries()
        .to_vec()
}

/// Two unsynchronized jobs at once on one store with equal part counts,
/// against the same two one after the other on a fresh store.
fn concurrent_summas_complete<S: KvStore>(fresh: impl Fn() -> S) {
    let serial = fresh();
    let want = [summa_nosync(&serial, "c0"), summa_nosync(&serial, "c1")];
    let shared = fresh();
    let got = within("two concurrent nosync jobs", move || {
        let jobs: Vec<_> = ["c0", "c1"]
            .into_iter()
            .map(|table| {
                let store = shared.clone();
                std::thread::spawn(move || summa_nosync(&store, table))
            })
            .collect();
        jobs.into_iter()
            .map(|job| job.join().expect("job thread"))
            .collect::<Vec<_>>()
    });
    assert_eq!(got, want);
}

#[test]
fn concurrent_unsynchronized_jobs_complete_on_one_mem_store() {
    concurrent_summas_complete(|| MemStore::builder().default_parts(3).build());
}

#[test]
fn concurrent_unsynchronized_jobs_complete_on_one_disk_store() {
    let dirs = Arc::new(std::sync::Mutex::new(Vec::new()));
    concurrent_summas_complete(|| {
        let dir = TempDir::new("part-threads");
        let store = DiskStore::builder()
            .default_parts(3)
            .open(dir.path())
            .expect("open");
        dirs.lock().unwrap().push(dir);
        store
    });
}

/// A part-0 task that cannot finish before a second part-0 task has run.
fn a_part_task_waits_for_another_of_its_part<S: KvStore>(store: &S) -> Result<u32, KvError> {
    let table = store.create_table(TableSpec::new("waits").parts(2))?;
    let (ran, waited) = mpsc::channel::<u32>();
    let first = store.run_at(&table, PartId(0), move |_| waited.recv().unwrap_or(0));
    store
        .run_at(&table, PartId(0), move |_| ran.send(7).is_ok())
        .join()?;
    first.join()
}

#[test]
fn a_part_task_blocked_on_its_own_part_completes_on_mem() {
    let mem = MemStore::builder().default_parts(2).build();
    let got = within("mem", move || {
        a_part_task_waits_for_another_of_its_part(&mem)
    });
    assert_eq!(got, Ok(7));
}

#[test]
fn a_part_task_blocked_on_its_own_part_completes_on_disk() {
    let dir = TempDir::new("part-wait");
    let disk = DiskStore::open(dir.path()).expect("open");
    let got = within("disk", move || {
        a_part_task_waits_for_another_of_its_part(&disk)
    });
    assert_eq!(got, Ok(7));
}
