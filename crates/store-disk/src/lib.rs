//! A durable, WAL-backed implementation of the [`ripple_kv`] store SPI
//! with cross-restart job resume.
//!
//! The in-memory stores (`ripple-store-mem`, `ripple-store-simple`) prove
//! the platform's openness claim; this crate proves its *durability*
//! story: the same engine, queue sets, and applications run unchanged on
//! a store whose contents survive a process crash, and a synchronized job
//! interrupted between barriers resumes from its last durable barrier
//! with byte-identical output.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/catalog.wal                      table create/drop log
//! <dir>/tables/<name>/pNNNN.wal.<gen>    per-shard write-ahead log
//! <dir>/tables/<name>/pNNNN.snap.<gen>   per-shard snapshot (folds logs <= gen)
//! ```
//!
//! Every durable file is a sequence of length-prefixed, CRC-32-checksummed
//! records framed by [`ripple_wire::write_frame`].  Each shard (one part
//! of one table) keeps its whole contents in a memtable; the log is the
//! recovery mechanism, not the read path.  Opening a store replays the
//! catalog, then each shard's newest snapshot plus the log generations
//! after it.  A torn or corrupt log *tail* — the signature of a crash
//! mid-write — is truncated and reported through
//! [`DiskStore::recovery_report`] rather than failing the open.
//!
//! # Durability protocol
//!
//! Mutations append to a userspace buffer and reach the file (and the
//! disk) according to the store's [`SyncPolicy`](ripple_kv::SyncPolicy):
//! every record, every N records (group commit), or only at explicit
//! flush/barrier points.  The engine's durable launch mode drives
//! the [`DurableStore`](ripple_kv::DurableStore) barrier protocol:
//! barrier markers into every shard log, then the resume journal, then
//! optional snapshot compaction.  On restart,
//! `rewind_group` rebuilds every shard to its exact state at the
//! journalled barrier, discarding mid-step writes after it.
//!
//! Dropping a [`DiskStore`] does *not* flush buffered records — by
//! design, so tests (and the differential proptest) can model a hard
//! crash with an ordinary drop.

#![deny(clippy::unwrap_used)]

mod snapshot;
mod store;
mod wal;

pub use snapshot::DiskPartCheckpoint;
pub use store::{DiskStore, DiskStoreBuilder};

#[doc(hidden)]
pub mod testutil {
    //! Minimal self-cleaning temp directories for tests (the workspace
    //! has no tempfile dependency).

    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    /// A directory under the system temp root, removed on drop.
    #[derive(Debug)]
    pub struct TempDir {
        path: PathBuf,
    }

    impl TempDir {
        /// Creates a fresh directory; `tag` keeps leak reports readable.
        #[must_use]
        pub fn new(tag: &str) -> Self {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "ripple-store-disk-{tag}-{}-{n}",
                std::process::id()
            ));
            std::fs::create_dir_all(&path).expect("create temp dir");
            Self { path }
        }

        /// The directory's path.
        #[must_use]
        pub fn path(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use ripple_kv::{
        DurableStore, KvError, KvStore, PartId, RecoverableStore, RoutedKey, SyncPolicy, Table,
        TableSpec,
    };

    use crate::testutil::TempDir;
    use crate::wal::SEGMENT_BYTES;
    use crate::DiskStore;

    fn key(route: u64, body: &str) -> RoutedKey {
        RoutedKey::with_route(route, Bytes::copy_from_slice(body.as_bytes()))
    }

    fn val(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn contents_survive_reopen() {
        let dir = TempDir::new("reopen");
        {
            let store = DiskStore::builder()
                .default_parts(3)
                .sync_policy(SyncPolicy::Always)
                .open(dir.path())
                .unwrap();
            let t = store.create_table(&TableSpec::new("t")).unwrap();
            for i in 0..20u64 {
                t.put(key(i, &format!("k{i}")), val(&format!("v{i}")))
                    .unwrap();
            }
            t.delete(&key(3, "k3")).unwrap();
        }
        let store = DiskStore::builder()
            .default_parts(3)
            .open(dir.path())
            .unwrap();
        assert!(store.recovery_report().is_empty());
        let t = store.lookup_table("t").unwrap();
        assert_eq!(t.part_count(), 3);
        assert_eq!(t.len().unwrap(), 19);
        assert_eq!(t.get(&key(7, "k7")).unwrap(), Some(val("v7")));
        assert_eq!(t.get(&key(3, "k3")).unwrap(), None);
        let m = store.metrics();
        assert!(m.replayed_records > 0, "reopen must replay the log");
    }

    #[test]
    fn unflushed_writes_vanish_like_a_crash() {
        let dir = TempDir::new("crash");
        {
            let store = DiskStore::builder()
                .sync_policy(SyncPolicy::Never)
                .open(dir.path())
                .unwrap();
            let t = store.create_table(&TableSpec::new("t")).unwrap();
            t.put(key(0, "durable"), val("1")).unwrap();
            store.flush().unwrap();
            t.put(key(0, "buffered"), val("2")).unwrap();
            // Dropped without flush: "buffered" never reached the file.
        }
        let store = DiskStore::open(dir.path()).unwrap();
        let t = store.lookup_table("t").unwrap();
        assert_eq!(t.get(&key(0, "durable")).unwrap(), Some(val("1")));
        assert_eq!(t.get(&key(0, "buffered")).unwrap(), None);
    }

    #[test]
    fn corrupt_tail_is_truncated_and_reported() {
        let dir = TempDir::new("torn");
        {
            let store = DiskStore::builder()
                .sync_policy(SyncPolicy::Always)
                .open(dir.path())
                .unwrap();
            let t = store.create_table(&TableSpec::new("t")).unwrap();
            t.put(key(0, "good"), val("1")).unwrap();
        }
        // Append garbage — a torn final record.
        let wal = dir.path().join("tables").join("t").join("p0000.wal.1");
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(&[0x55, 0xAA, 0x03]);
        std::fs::write(&wal, &bytes).unwrap();

        let store = DiskStore::open(dir.path()).unwrap();
        let report = store.recovery_report();
        assert_eq!(report.len(), 1);
        match &report[0] {
            KvError::WalTailDiscarded {
                table,
                part,
                valid_records,
                discarded_bytes,
            } => {
                assert_eq!(table, "t");
                assert_eq!(*part, 0);
                assert_eq!(*valid_records, 1);
                assert_eq!(*discarded_bytes, 3);
            }
            other => panic!("unexpected report entry: {other:?}"),
        }
        let t = store.lookup_table("t").unwrap();
        assert_eq!(t.get(&key(0, "good")).unwrap(), Some(val("1")));
        // The truncation is durable: a second open is clean.
        drop(t);
        drop(store);
        let store = DiskStore::open(dir.path()).unwrap();
        assert!(store.recovery_report().is_empty());
    }

    #[test]
    fn rewind_restores_the_barrier_cut_across_reopen() {
        let dir = TempDir::new("rewind");
        {
            let store = DiskStore::builder()
                .default_parts(2)
                .sync_policy(SyncPolicy::EveryN(4))
                .open(dir.path())
                .unwrap();
            let t = store.create_table(&TableSpec::new("state")).unwrap();
            t.put(key(0, "a"), val("pre")).unwrap();
            t.put(key(1, "b"), val("pre")).unwrap();
            store.commit_barrier(&t, 1).unwrap();
            store.flush().unwrap();
            // Mid-step writes after the barrier, flushed to disk so only
            // the rewind (not buffering) can remove them.
            t.put(key(0, "a"), val("post")).unwrap();
            t.put(key(1, "c"), val("post")).unwrap();
            store.flush().unwrap();
        }
        let store = DiskStore::builder()
            .default_parts(2)
            .open(dir.path())
            .unwrap();
        let t = store.lookup_table("state").unwrap();
        assert_eq!(t.len().unwrap(), 3, "before rewind the tail is visible");
        store.rewind_group(&t, 1).unwrap();
        assert_eq!(t.len().unwrap(), 2);
        assert_eq!(t.get(&key(0, "a")).unwrap(), Some(val("pre")));
        assert_eq!(t.get(&key(1, "c")).unwrap(), None);
        // Rewinding twice is idempotent: the cut itself ends at the marker.
        store.rewind_group(&t, 1).unwrap();
        assert_eq!(t.len().unwrap(), 2);
    }

    #[test]
    fn compaction_folds_logs_and_preserves_contents() {
        let dir = TempDir::new("compact");
        let store = DiskStore::builder()
            .sync_policy(SyncPolicy::Always)
            .snapshot_threshold(1) // compact at every opportunity
            .open(dir.path())
            .unwrap();
        let t = store.create_table(&TableSpec::new("t")).unwrap();
        for i in 0..10u64 {
            t.put(key(i, &format!("k{i}")), val("x")).unwrap();
        }
        store.commit_barrier(&t, 1).unwrap();
        store.compact_group(&t, 1).unwrap();
        // More writes after the snapshot land in the next generation.
        t.put(key(0, "late"), val("y")).unwrap();
        drop(t);
        drop(store);
        let store = DiskStore::open(dir.path()).unwrap();
        let t = store.lookup_table("t").unwrap();
        assert_eq!(t.len().unwrap(), 11);
        assert_eq!(t.get(&key(0, "late")).unwrap(), Some(val("y")));
        // And the snapshot still honours a rewind to its own epoch.
        store.rewind_group(&t, 1).unwrap();
        assert_eq!(t.len().unwrap(), 10);
    }

    #[test]
    fn copartitioning_survives_reopen() {
        let dir = TempDir::new("copart");
        {
            let store = DiskStore::builder()
                .default_parts(4)
                .open(dir.path())
                .unwrap();
            let a = store.create_table(&TableSpec::new("a")).unwrap();
            let b = store.create_table_like("b", &a).unwrap();
            assert_eq!(a.partitioning_id(), b.partitioning_id());
            let c = store.create_table(&TableSpec::new("c")).unwrap();
            assert_ne!(a.partitioning_id(), c.partitioning_id());
            store.drop_table("c").unwrap();
        }
        let store = DiskStore::builder()
            .default_parts(4)
            .open(dir.path())
            .unwrap();
        let a = store.lookup_table("a").unwrap();
        let b = store.lookup_table("b").unwrap();
        assert_eq!(a.partitioning_id(), b.partitioning_id());
        assert!(store.lookup_table("c").is_err());
        // The dropped table's id is never reused for a fresh group.
        let d = store.create_table(&TableSpec::new("d")).unwrap();
        assert_ne!(d.partitioning_id(), a.partitioning_id());
    }

    #[test]
    fn checkpoint_restore_writes_through_the_log() {
        let dir = TempDir::new("ckpt");
        {
            let store = DiskStore::builder()
                .default_parts(2)
                .sync_policy(SyncPolicy::Always)
                .open(dir.path())
                .unwrap();
            let t = store.create_table(&TableSpec::new("t")).unwrap();
            t.put(key(0, "keep"), val("1")).unwrap();
            let cp = store.checkpoint_part(&t, PartId(0)).unwrap();
            assert_eq!(cp.entry_count(), 1);
            t.put(key(0, "drop-me"), val("2")).unwrap();
            store.restore_part(&cp).unwrap();
            assert_eq!(t.len().unwrap(), 1);
        }
        // The restore itself must be durable.
        let store = DiskStore::open(dir.path()).unwrap();
        let t = store.lookup_table("t").unwrap();
        assert_eq!(t.len().unwrap(), 1);
        assert_eq!(t.get(&key(0, "keep")).unwrap(), Some(val("1")));
    }

    #[test]
    fn part_tasks_run_on_resident_part_threads() {
        let dir = TempDir::new("threads");
        let store = DiskStore::builder()
            .default_parts(2)
            .open(dir.path())
            .unwrap();
        let t = store.create_table(&TableSpec::new("t")).unwrap();
        let thread_of = |table: &<DiskStore as KvStore>::Table, part: u32| {
            store
                .run_at(table, PartId(part), |view| {
                    (view.part(), std::thread::current().id())
                })
                .join()
                .unwrap()
        };
        let (part, thread) = thread_of(&t, 0);
        assert_eq!(part, PartId(0));
        assert_eq!(
            thread_of(&t, 0).1,
            thread,
            "a part's tasks reuse its thread"
        );
        assert_ne!(thread_of(&t, 1).1, thread, "each part has its own");

        // A panicking task surfaces through its handle and leaves the
        // thread serving.
        let panicked = store.run_at(&t, PartId(0), |_| -> u32 { panic!("task panic") });
        assert!(matches!(panicked.join(), Err(KvError::TaskPanicked { .. })));
        assert_eq!(thread_of(&t, 0).1, thread);

        // Threads belong to the store, not to a group: a later group's
        // tasks run on the same ones.
        store.drop_table("t").unwrap();
        let u = store.create_table(&TableSpec::new("u")).unwrap();
        assert_eq!(thread_of(&u, 0), (PartId(0), thread));
        assert_eq!(store.inner.executor.threads(), 2);
    }

    /// The log generations of shard 0 of table `t` and their sizes, in
    /// generation order.
    fn log_files(dir: &std::path::Path) -> Vec<(u64, u64)> {
        let mut files: Vec<(u64, u64)> = std::fs::read_dir(dir.join("tables").join("t"))
            .unwrap()
            .filter_map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().into_string().unwrap();
                let gen = name.strip_prefix("p0000.wal.")?.parse().ok()?;
                Some((gen, entry.metadata().unwrap().len()))
            })
            .collect();
        files.sort_unstable();
        files
    }

    /// A table's pairs, as bytes, sorted.
    type Contents = Vec<(Vec<u8>, Vec<u8>)>;

    /// Every pair of `t`.
    fn contents(store: &DiskStore, t: &crate::store::DiskTable) -> Contents {
        let mut pairs: Vec<_> = store
            .snapshot_table(t)
            .unwrap()
            .iter()
            .map(|(k, v)| (k.body().to_vec(), v.to_vec()))
            .collect();
        pairs.sort();
        pairs
    }

    /// Barriers `epochs` of a one-part table `t` under `SyncPolicy::Never`:
    /// each rewrites 64 keys with ~200-byte values, so each barrier's
    /// commit is one write-out of ~14 KB.  Returns the contents at each
    /// barrier and the largest write-out.
    fn barrier_rounds(
        store: &DiskStore,
        t: &crate::store::DiskTable,
        epochs: std::ops::RangeInclusive<u64>,
    ) -> (Vec<Contents>, u64) {
        let (mut cuts, mut largest) = (Vec::new(), 0);
        for epoch in epochs {
            let pairs = (0..64u64)
                .map(|i| {
                    let value = format!("{epoch}:{i}:{}", "x".repeat(190 + (i % 7) as usize));
                    (key(0, &format!("k{i}")), val(&value))
                })
                .collect();
            let before = store.metrics().wal_bytes;
            t.put_batch(pairs).unwrap();
            store.commit_barrier(t, epoch).unwrap();
            largest = largest.max(store.metrics().wal_bytes - before);
            cuts.push(contents(store, t));
        }
        (cuts, largest)
    }

    fn one_part_never(dir: &std::path::Path) -> DiskStore {
        DiskStore::builder()
            .default_parts(1)
            .sync_policy(SyncPolicy::Never)
            .open(dir)
            .unwrap()
    }

    #[test]
    fn log_segments_stay_bounded_and_replay_identically() {
        let dir = TempDir::new("segments");
        let store = one_part_never(dir.path());
        let t = store.create_table(&TableSpec::new("t")).unwrap();
        let (cuts, write_out) = barrier_rounds(&store, &t, 1..=60);
        let files = log_files(dir.path());
        assert!(
            files.len() >= 4,
            "60 barriers must cross the bound: {files:?}"
        );
        for (gen, len) in &files {
            assert!(
                *len <= SEGMENT_BYTES + write_out,
                "generation {gen} holds {len} bytes"
            );
        }
        // Reopening replays every segment in order.
        store.flush().unwrap();
        drop(t);
        drop(store);
        let store = one_part_never(dir.path());
        assert!(store.recovery_report().is_empty());
        let t = store.lookup_table("t").unwrap();
        assert_eq!(&contents(&store, &t), cuts.last().unwrap());
        // Later writes go to the newest segment or past it, never into a
        // sealed one.
        barrier_rounds(&store, &t, 61..=61);
        let after = log_files(dir.path());
        let sealed = files.len() - 1;
        assert_eq!(after[..sealed], files[..sealed]);
        assert!(
            after.len() > sealed
                && after
                    .iter()
                    .all(|(_, len)| *len <= SEGMENT_BYTES + write_out)
        );
    }

    #[test]
    fn rewind_to_a_marker_in_an_earlier_segment_drops_the_later_ones() {
        let dir = TempDir::new("segments-rewind");
        let store = one_part_never(dir.path());
        let t = store.create_table(&TableSpec::new("t")).unwrap();
        let (early, _) = barrier_rounds(&store, &t, 1..=5);
        let marker_gen = log_files(dir.path()).last().unwrap().0;
        barrier_rounds(&store, &t, 6..=40);
        store.flush().unwrap();
        assert!(log_files(dir.path()).last().unwrap().0 > marker_gen + 1);

        store.rewind_group(&t, 5).unwrap();
        assert_eq!(&contents(&store, &t), early.last().unwrap());
        let files = log_files(dir.path());
        assert_eq!(
            files.last().unwrap().0,
            marker_gen,
            "later segments removed"
        );
        // The rewound log replays to the same cut, and grows from it.
        drop(t);
        drop(store);
        let store = one_part_never(dir.path());
        let t = store.lookup_table("t").unwrap();
        assert_eq!(&contents(&store, &t), early.last().unwrap());
        let (cuts, _) = barrier_rounds(&store, &t, 6..=8);
        store.flush().unwrap();
        drop(t);
        drop(store);
        let store = one_part_never(dir.path());
        let t = store.lookup_table("t").unwrap();
        assert_eq!(&contents(&store, &t), cuts.last().unwrap());
    }

    #[test]
    fn compaction_counts_every_live_segment() {
        let dir = TempDir::new("segments-compact");
        let store = DiskStore::builder()
            .default_parts(1)
            .sync_policy(SyncPolicy::Never)
            .snapshot_threshold(2 * SEGMENT_BYTES)
            .open(dir.path())
            .unwrap();
        let t = store.create_table(&TableSpec::new("t")).unwrap();
        let (cuts, _) = barrier_rounds(&store, &t, 1..=30);
        let files = log_files(dir.path());
        assert!(files.iter().all(|(_, len)| *len < 2 * SEGMENT_BYTES));
        assert!(files.iter().map(|(_, len)| len).sum::<u64>() >= 2 * SEGMENT_BYTES);
        store.compact_group(&t, 30).unwrap();
        assert!(
            log_files(dir.path()).is_empty(),
            "the snapshot folds them all"
        );
        drop(t);
        drop(store);
        let store = one_part_never(dir.path());
        let t = store.lookup_table("t").unwrap();
        assert_eq!(&contents(&store, &t), cuts.last().unwrap());
    }

    #[test]
    fn table_names_are_escaped_on_disk() {
        let dir = TempDir::new("escape");
        let store = DiskStore::open(dir.path()).unwrap();
        let t = store
            .create_table(&TableSpec::new("__ebsp_xport_1/..x"))
            .unwrap();
        t.put(key(0, "k"), val("v")).unwrap();
        store.flush().unwrap();
        // Whatever the name, its directory stays under tables/.
        let tables_root = dir.path().join("tables");
        let entries: Vec<_> = std::fs::read_dir(&tables_root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].starts_with(&tables_root));
        drop(t);
        drop(store);
        let store = DiskStore::open(dir.path()).unwrap();
        let t = store.lookup_table("__ebsp_xport_1/..x").unwrap();
        assert_eq!(t.get(&key(0, "k")).unwrap(), Some(val("v")));
    }
}
