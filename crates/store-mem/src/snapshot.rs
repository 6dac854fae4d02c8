//! Shard checkpoints and failure injection.
//!
//! The paper sketches recovery for synchronized jobs: keep, per shard, the
//! completed step number; commit transactions in step order; on primary
//! shard failure, discard the failed shard's writes and retry from its last
//! completed step (§IV-A).  `MemStore` supplies the substrate: an atomic
//! per-part checkpoint of every table in a partitioning group, a fault
//! injector that loses the part's un-checkpointed writes, and a restore.

use std::collections::HashMap;

use bytes::Bytes;
use ripple_kv::{KvError, KvStore, PartId, RoutedKey};

use crate::{MemStore, MemTable};

/// A checkpoint of one part (shard) of a partitioning group: the part's
/// entries in every co-placed table at the moment of capture.
#[derive(Debug, Clone)]
pub struct PartCheckpoint {
    partitioning_id: u64,
    part: PartId,
    tables: Vec<(String, HashMap<RoutedKey, Bytes>)>,
}

impl PartCheckpoint {
    /// The part this checkpoint captures.
    pub fn part(&self) -> PartId {
        self.part
    }

    /// Names of the tables captured.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|(n, _)| n.as_str())
    }

    /// Total number of entries captured across tables.
    pub fn entry_count(&self) -> usize {
        self.tables.iter().map(|(_, m)| m.len()).sum()
    }
}

impl MemStore {
    /// Every live table co-partitioned with `reference` (including itself),
    /// skipping ubiquitous tables.
    fn group_tables(&self, reference: &MemTable) -> Vec<std::sync::Arc<crate::TableInner>> {
        let pid = reference.inner.partitioning.id;
        let tables = self.inner_tables();
        let mut group: Vec<_> = tables
            .into_iter()
            .filter(|t| !t.ubiquitous && t.partitioning.id == pid)
            .collect();
        group.sort_by(|a, b| a.name.cmp(&b.name));
        group
    }

    fn inner_tables(&self) -> Vec<std::sync::Arc<crate::TableInner>> {
        self.table_names()
            .iter()
            .filter_map(|n| self.inner.table(n).ok())
            .collect()
    }

    /// Captures the contents of `part` across every table co-partitioned
    /// with `reference` — the moral equivalent of committing a shard
    /// transaction at a step boundary.
    ///
    /// The caller is responsible for quiescence (no concurrent writers to
    /// the part), which the EBSP engine guarantees by checkpointing only at
    /// barriers.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::PartFailed`] if the part is currently failed
    /// and [`KvError::TableDropped`] if `reference` was dropped.
    pub fn checkpoint_part(
        &self,
        reference: &MemTable,
        part: PartId,
    ) -> Result<PartCheckpoint, KvError> {
        reference.inner.check_live()?;
        reference.inner.check_part_healthy(part)?;
        let tables = self
            .group_tables(reference)
            .iter()
            .map(|t| (t.name.clone(), t.parts[part.index()].lock().clone()))
            .collect();
        Ok(PartCheckpoint {
            partitioning_id: reference.inner.partitioning.id,
            part,
            tables,
        })
    }

    /// Simulates the loss of a shard: wipes `part`'s entries in every table
    /// co-partitioned with `reference` and marks the part failed.  Until
    /// [`MemStore::restore_part`] (or [`MemStore::heal_part`]) is called,
    /// operations addressing the part fail with [`KvError::PartFailed`].
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::TableDropped`] if `reference` was dropped.
    pub fn fail_part(&self, reference: &MemTable, part: PartId) -> Result<(), KvError> {
        reference.inner.check_live()?;
        // Failed first: an operation that finds the shard emptied also
        // finds it failed.
        reference.inner.partitioning.set_failed(part, true);
        for t in self.group_tables(reference) {
            // The primary shard is lost; a backup replica (if the table
            // was created `replicated()`) survives on its own "container".
            t.parts[part.index()].lock().clear();
        }
        Ok(())
    }

    /// Recovers a failed part by promoting each replicated table's backup
    /// to primary — the WXS-style primary/replica shard recovery.  Tables
    /// in the group without a replica come back empty; returns how many
    /// tables were restored from replicas.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::TableDropped`] if `reference` was dropped.
    pub fn promote_replicas(&self, reference: &MemTable, part: PartId) -> Result<usize, KvError> {
        reference.inner.check_live()?;
        let mut promoted = 0;
        for t in self.group_tables(reference) {
            if let Some(backup) = &t.backup {
                let replica = backup[part.index()].lock().clone();
                *t.parts[part.index()].lock() = replica;
                promoted += 1;
            }
        }
        reference.inner.partitioning.set_failed(part, false);
        Ok(promoted)
    }

    /// Restores a checkpoint taken with [`MemStore::checkpoint_part`] and
    /// heals the part.  Tables dropped since the capture are skipped;
    /// tables created since keep their (empty) part.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::NotCopartitioned`] if the checkpoint belongs to
    /// a different partitioning group than it was taken from (inconsistent
    /// use).
    pub fn restore_part(&self, cp: &PartCheckpoint) -> Result<(), KvError> {
        for (name, data) in &cp.tables {
            if let Ok(t) = self.inner.table(name) {
                if t.partitioning.id != cp.partitioning_id {
                    return Err(KvError::NotCopartitioned {
                        left: name.clone(),
                        right: format!("checkpoint of partitioning {}", cp.partitioning_id),
                    });
                }
                *t.parts[cp.part.index()].lock() = data.clone();
                t.resync_backup(cp.part);
                t.partitioning.set_failed(cp.part, false);
            }
        }
        Ok(())
    }

    /// Restores only the named tables from a checkpoint and heals the part,
    /// leaving the part's other co-partitioned tables untouched — the
    /// substrate for the engine's fast single-part recovery, where state
    /// tables rewind to the last barrier while transport tables are
    /// recovered from replicas instead.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::NotCopartitioned`] on a partitioning mismatch
    /// and [`KvError::NoSuchTable`] if a requested table is not in the
    /// checkpoint.
    pub fn restore_part_tables(
        &self,
        cp: &PartCheckpoint,
        tables: &[String],
    ) -> Result<(), KvError> {
        for name in tables {
            let Some((_, data)) = cp.tables.iter().find(|(n, _)| n == name) else {
                return Err(KvError::NoSuchTable { name: name.clone() });
            };
            if let Ok(t) = self.inner.table(name) {
                if t.partitioning.id != cp.partitioning_id {
                    return Err(KvError::NotCopartitioned {
                        left: name.clone(),
                        right: format!("checkpoint of partitioning {}", cp.partitioning_id),
                    });
                }
                *t.parts[cp.part.index()].lock() = data.clone();
                t.resync_backup(cp.part);
                t.partitioning.set_failed(cp.part, false);
            }
        }
        Ok(())
    }

    /// Clears the failed flag of `part` without restoring any data — for
    /// recovery strategies that rebuild state some other way.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::TableDropped`] if `reference` was dropped.
    pub fn heal_part(&self, reference: &MemTable, part: PartId) -> Result<(), KvError> {
        reference.inner.check_live()?;
        reference.inner.partitioning.set_failed(part, false);
        Ok(())
    }

    /// Whether `part` of `reference`'s group is currently failed.
    pub fn is_part_failed(&self, reference: &MemTable, part: PartId) -> bool {
        reference.inner.partitioning.is_failed(part)
    }
}

impl ripple_kv::RecoverableStore for MemStore {
    type Checkpoint = PartCheckpoint;

    fn checkpoint_part(
        &self,
        reference: &MemTable,
        part: PartId,
    ) -> Result<PartCheckpoint, KvError> {
        MemStore::checkpoint_part(self, reference, part)
    }

    fn restore_part(&self, checkpoint: &PartCheckpoint) -> Result<(), KvError> {
        MemStore::restore_part(self, checkpoint)
    }

    fn restore_part_tables(
        &self,
        checkpoint: &PartCheckpoint,
        tables: &[String],
    ) -> Result<(), KvError> {
        MemStore::restore_part_tables(self, checkpoint, tables)
    }
}

impl ripple_kv::HealableStore for MemStore {
    fn recover_part(&self, reference: &MemTable, part: PartId) -> Result<usize, KvError> {
        self.promote_replicas(reference, part)
    }

    fn part_is_failed(&self, reference: &MemTable, part: PartId) -> Result<bool, KvError> {
        reference.inner.check_live()?;
        Ok(self.is_part_failed(reference, part))
    }
}

/// Memory-only durability: flushes are no-ops and nothing survives the
/// process, but the defaults let durable launches drive the same barrier
/// protocol it uses against a disk store (minus the resume).
impl ripple_kv::DurableStore for MemStore {}
