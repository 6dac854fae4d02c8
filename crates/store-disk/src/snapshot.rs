//! Shard checkpoints, durability protocol, and recovery for [`DiskStore`].
//!
//! The in-memory checkpoint/restore side mirrors `ripple-store-mem` so the
//! engine's existing recovery hooks work unchanged; the [`DurableStore`]
//! side adds what only a disk store can offer — barrier markers in the
//! logs, snapshot compaction, and rewind-to-barrier across a restart.

use std::collections::HashMap;

use bytes::Bytes;
use ripple_kv::{DurableStore, KvError, KvStore, PartId, RoutedKey, SyncPolicy};

use crate::store::{DiskStore, DiskTable, Shard};
use crate::wal::{self, WalRecord};

/// A checkpoint of one part (shard) of a partitioning group: the part's
/// entries in every co-placed table at the moment of capture.
#[derive(Debug, Clone)]
pub struct DiskPartCheckpoint {
    partitioning_id: u64,
    part: PartId,
    tables: Vec<(String, HashMap<RoutedKey, Bytes>)>,
}

impl DiskPartCheckpoint {
    /// The part this checkpoint captures.
    #[must_use]
    pub fn part(&self) -> PartId {
        self.part
    }

    /// Names of the tables captured.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|(n, _)| n.as_str())
    }

    /// Total number of entries captured across tables.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.tables.iter().map(|(_, m)| m.len()).sum()
    }
}

impl DiskStore {
    /// Replaces the contents of `part` of the named group table with
    /// `data`, writing the replacement through the log (a `Clear` followed
    /// by `Put`s) so the restored state is durable like any other write.
    fn write_back(
        &self,
        name: &str,
        partitioning_id: u64,
        part: PartId,
        data: &HashMap<RoutedKey, Bytes>,
    ) -> Result<(), KvError> {
        let Ok(t) = self.lookup_table(name) else {
            // Tables dropped since the capture are skipped, as in the
            // memory store.
            return Ok(());
        };
        if t.inner.partitioning_id != partitioning_id {
            return Err(KvError::NotCopartitioned {
                left: name.to_owned(),
                right: format!("checkpoint of partitioning {partitioning_id}"),
            });
        }
        let mut shard = t.inner.shards[part.index()].lock();
        shard.map.clone_from(data);
        shard.wal.append(&WalRecord::Clear);
        for (key, value) in data {
            shard.wal.append(&WalRecord::Put {
                key: key.clone(),
                value: value.clone(),
            });
        }
        if self.inner.policy == SyncPolicy::Never {
            // Policy says mutations stay buffered; the next barrier commit
            // or flush lands them.
            Ok(())
        } else {
            shard.wal.write_out(true, &self.inner.counters)
        }
    }
}

impl ripple_kv::RecoverableStore for DiskStore {
    type Checkpoint = DiskPartCheckpoint;

    fn checkpoint_part(
        &self,
        reference: &DiskTable,
        part: PartId,
    ) -> Result<DiskPartCheckpoint, KvError> {
        reference.inner.check_live()?;
        let tables = self
            .group_tables(reference)
            .iter()
            .map(|t| (t.name.clone(), t.shards[part.index()].lock().map.clone()))
            .collect();
        Ok(DiskPartCheckpoint {
            partitioning_id: reference.inner.partitioning_id,
            part,
            tables,
        })
    }

    fn restore_part(&self, cp: &DiskPartCheckpoint) -> Result<(), KvError> {
        for (name, data) in &cp.tables {
            self.write_back(name, cp.partitioning_id, cp.part, data)?;
        }
        Ok(())
    }

    fn restore_part_tables(
        &self,
        cp: &DiskPartCheckpoint,
        tables: &[String],
    ) -> Result<(), KvError> {
        for name in tables {
            let Some((_, data)) = cp.tables.iter().find(|(n, _)| n == name) else {
                return Err(KvError::NoSuchTable { name: name.clone() });
            };
            self.write_back(name, cp.partitioning_id, cp.part, data)?;
        }
        Ok(())
    }
}

impl ripple_kv::HealableStore for DiskStore {
    fn recover_part(&self, reference: &DiskTable, part: PartId) -> Result<usize, KvError> {
        reference.inner.check_live()?;
        // The disk store keeps no replicas and injects no failures; a
        // "failed" part never arises, so there is nothing to promote.
        let _ = part;
        Ok(0)
    }

    fn part_is_failed(&self, reference: &DiskTable, _part: PartId) -> Result<bool, KvError> {
        reference.inner.check_live()?;
        Ok(false)
    }
}

impl DurableStore for DiskStore {
    fn sync_policy(&self) -> SyncPolicy {
        self.inner.policy
    }

    fn flush(&self) -> Result<(), KvError> {
        let tables: Vec<_> = self.inner.tables.read().values().cloned().collect();
        for t in tables {
            for shard in &t.shards {
                shard.lock().wal.write_out(true, &self.inner.counters)?;
            }
        }
        Ok(())
    }

    fn commit_barrier(&self, reference: &DiskTable, epoch: u64) -> Result<(), KvError> {
        reference.inner.check_live()?;
        // Under `Never` the marker (and everything buffered before it)
        // still reaches the file — surviving a process crash — but the
        // fsync is left to the journal flush that follows in the commit
        // protocol.
        let fsync = self.inner.policy != SyncPolicy::Never;
        for t in self.group_tables(reference) {
            for shard in &t.shards {
                let mut shard = shard.lock();
                shard.wal.append(&WalRecord::Barrier { epoch });
                shard.wal.write_out(fsync, &self.inner.counters)?;
            }
        }
        Ok(())
    }

    fn compact_group(&self, reference: &DiskTable, epoch: u64) -> Result<(), KvError> {
        reference.inner.check_live()?;
        for t in self.group_tables(reference) {
            for (part, shard) in t.shards.iter().enumerate() {
                let mut shard = shard.lock();
                if shard.wal.live_bytes() < self.inner.snapshot_threshold {
                    continue;
                }
                let part = u32::try_from(part).expect("part counts are u32");
                let counters = &self.inner.counters;
                wal::write_snapshot(&t.dir, part, shard.wal.gen, epoch, &shard.map, counters)?;
                // The snapshot folds every generation up to the writer's;
                // list_shard_files now classifies them (and older
                // snapshots) as stale.
                let files = wal::list_shard_files(&t.dir, part)?;
                for path in &files.stale {
                    std::fs::remove_file(path)
                        .map_err(|e| wal::io_err("remove stale", path, &e))?;
                }
                shard.wal.reset_after_snapshot();
            }
        }
        Ok(())
    }

    fn rewind_group(&self, reference: &DiskTable, epoch: u64) -> Result<(), KvError> {
        reference.inner.check_live()?;
        for t in self.group_tables(reference) {
            for (part, shard) in t.shards.iter().enumerate() {
                let part_u32 = u32::try_from(part).expect("part counts are u32");
                let (map, writer) =
                    wal::rewind_shard(&t.dir, &t.name, part_u32, epoch, &self.inner.counters)?;
                *shard.lock() = Shard { map, wal: writer };
            }
        }
        Ok(())
    }
}
