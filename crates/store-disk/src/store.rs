//! The durable partitioned store: catalog, tables, shards, part views,
//! and the [`KvStore`] implementation.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use ripple_kv::{
    CombineFn, CombinerRegistry, CombinerSpec, Counter, KvError, KvStore, PartExecutor, PartId,
    PartView, RoutedKey, ScanControl, StoreCounters, StoreMetrics, SyncPolicy, Table, TableSpec,
    TaskHandle,
};
use ripple_wire::{read_frame, write_frame, ByteReader, ByteWriter, Decode, Encode, FrameRead};

use crate::wal::{io_err, replay_shard, WalRecord, WalWriter};

/// Escapes a table name into a file-system-safe directory name.
///
/// Bytes outside `[A-Za-z0-9_-]` become `%XX`, which also rules out path
/// separators and the `.`/`..` special names.
pub(crate) fn escape_table_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
            out.push(b as char);
        } else {
            let _ = write!(out, "%{b:02X}");
        }
    }
    out
}

/// One part of one table: its memtable plus its log writer.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) map: HashMap<RoutedKey, Bytes>,
    pub(crate) wal: WalWriter,
}

#[derive(Debug)]
pub(crate) struct TableInner {
    pub(crate) name: String,
    pub(crate) parts: u32,
    pub(crate) ubiquitous: bool,
    pub(crate) partitioning_id: u64,
    pub(crate) dir: PathBuf,
    pub(crate) shards: Vec<Mutex<Shard>>,
    dropped: AtomicBool,
}

impl TableInner {
    pub(crate) fn check_live(&self) -> Result<(), KvError> {
        if self.dropped.load(Ordering::Acquire) {
            return Err(KvError::TableDropped {
                name: self.name.clone(),
            });
        }
        Ok(())
    }
}

const CAT_CREATE: u8 = 1;
const CAT_DROP: u8 = 2;

#[derive(Debug, Clone, Copy)]
struct CatalogMeta {
    parts: u32,
    ubiquitous: bool,
    partitioning_id: u64,
}

pub(crate) struct Inner {
    dir: PathBuf,
    pub(crate) policy: SyncPolicy,
    pub(crate) snapshot_threshold: u64,
    pub(crate) tables: RwLock<HashMap<String, Arc<TableInner>>>,
    /// The open catalog log; every create/drop appends a frame and fsyncs
    /// before the in-memory table map changes.
    catalog: Mutex<File>,
    next_partitioning: AtomicU64,
    /// Operation and durability counters, attributed to the shard's part;
    /// catalog traffic belongs to no part.
    pub(crate) counters: StoreCounters,
    /// Notes collected while opening: one [`KvError::WalTailDiscarded`]
    /// per shard (or catalog) whose damaged log tail was truncated.
    recovery: Mutex<Vec<KvError>>,
    /// Named fold functions available for combiner bindings.  Bindings are
    /// in-memory only — a reopened store starts unbound, which is fine
    /// because binding is a best-effort traffic optimization.
    combiners: CombinerRegistry,
    /// table name → combiner name for tables bound with `bind_combiner`.
    bindings: RwLock<HashMap<String, String>>,
    /// The part threads every group's mobile code runs on.
    pub(crate) executor: PartExecutor,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl Inner {
    /// Counts `n` of `counter` against `part`.
    fn count(&self, part: u32, counter: Counter, n: u64) {
        self.counters.add(Some(PartId(part)), counter, n);
    }

    /// Applies the store's sync policy after one buffered mutation of `wal`.
    fn after_mutation(&self, wal: &mut WalWriter) -> Result<(), KvError> {
        wal.after_mutation(self.policy, &self.counters)
    }

    fn table(&self, name: &str) -> Result<Arc<TableInner>, KvError> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| KvError::NoSuchTable {
                name: name.to_owned(),
            })
    }

    /// The fold function bound to `table`, if any.
    fn fold_for(&self, table: &str) -> Option<CombineFn> {
        let name = self.bindings.read().get(table).cloned()?;
        self.combiners.get(&name)
    }

    /// Applies a batch of records to one shard of `t` under a single lock
    /// acquisition, logging each surviving write and syncing *once* at the
    /// end — one fsync per destination shard instead of one per record.
    fn apply_batch_to_shard(
        &self,
        t: &TableInner,
        shard_idx: usize,
        pairs: Vec<(RoutedKey, Bytes)>,
        fold: Option<&CombineFn>,
        count_part: u32,
    ) -> Result<(), KvError> {
        self.count(count_part, Counter::LocalOps, 1);
        let mut combined = 0u64;
        let mut shard = t.shards[shard_idx].lock();
        for (key, value) in pairs {
            let value = match (fold, shard.map.get(&key)) {
                (Some(f), Some(resident)) => {
                    combined += 1;
                    f(resident, &value)?
                }
                _ => value,
            };
            shard.wal.append(&WalRecord::Put {
                key: key.clone(),
                value: value.clone(),
            });
            shard.map.insert(key, value);
        }
        self.after_mutation(&mut shard.wal)?;
        drop(shard);
        self.count(count_part, Counter::NetBatches, 1);
        self.count(count_part, Counter::CombinedRecords, combined);
        Ok(())
    }

    fn catalog_path(dir: &Path) -> PathBuf {
        dir.join("catalog.wal")
    }

    fn tables_dir(dir: &Path) -> PathBuf {
        dir.join("tables")
    }

    /// Appends one catalog record durably.  Catalog traffic is counted
    /// store-wide only (it belongs to no part).
    fn catalog_append(&self, payload: &[u8]) -> Result<(), KvError> {
        let mut framed = Vec::new();
        write_frame(&mut framed, payload);
        let file = self.catalog.lock();
        let path = Self::catalog_path(&self.dir);
        (&*file)
            .write_all(&framed)
            .map_err(|e| io_err("append catalog", &path, &e))?;
        file.sync_data()
            .map_err(|e| io_err("fsync catalog", &path, &e))?;
        self.counters
            .add(None, Counter::WalBytes, framed.len() as u64);
        self.counters.add(None, Counter::Fsyncs, 1);
        Ok(())
    }

    fn catalog_create(&self, name: &str, meta: CatalogMeta) -> Result<(), KvError> {
        let mut w = ByteWriter::new();
        w.push(CAT_CREATE);
        name.encode(&mut w);
        meta.parts.encode(&mut w);
        w.push(u8::from(meta.ubiquitous));
        meta.partitioning_id.encode(&mut w);
        self.catalog_append(w.as_slice())
    }

    fn catalog_drop(&self, name: &str) -> Result<(), KvError> {
        let mut w = ByteWriter::new();
        w.push(CAT_DROP);
        name.encode(&mut w);
        self.catalog_append(w.as_slice())
    }
}

/// Builds a [`DiskStore`] with explicit policies.
#[derive(Debug, Clone)]
pub struct DiskStoreBuilder {
    default_parts: u32,
    sync_policy: SyncPolicy,
    snapshot_threshold: u64,
}

impl Default for DiskStoreBuilder {
    fn default() -> Self {
        Self {
            default_parts: 1,
            sync_policy: SyncPolicy::EveryN(64),
            snapshot_threshold: 64 * 1024,
        }
    }
}

impl DiskStoreBuilder {
    /// Part count for tables whose spec does not pin one.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    #[must_use]
    pub fn default_parts(mut self, parts: u32) -> Self {
        assert!(parts > 0, "a store needs at least one part");
        self.default_parts = parts;
        self
    }

    /// When ordinary mutations force their log bytes to disk.
    #[must_use]
    pub fn sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Log size (bytes, per shard) past which a barrier-time compaction
    /// folds the log into a snapshot.
    #[must_use]
    pub fn snapshot_threshold(mut self, bytes: u64) -> Self {
        self.snapshot_threshold = bytes;
        self
    }

    /// Opens (creating if needed) the store rooted at `dir`, replaying the
    /// catalog and every shard log.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or a durable file is
    /// damaged beyond the tolerated torn-tail cases.
    pub fn open(self, dir: impl AsRef<Path>) -> Result<DiskStore, KvError> {
        let dir = dir.as_ref().to_owned();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, &e))?;
        let tables_dir = Inner::tables_dir(&dir);
        std::fs::create_dir_all(&tables_dir).map_err(|e| io_err("create dir", &tables_dir, &e))?;

        let mut recovery = Vec::new();
        let catalog_entries = replay_catalog(&dir, &mut recovery)?;
        let catalog_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(Inner::catalog_path(&dir))
            .map_err(|e| io_err("open catalog", &Inner::catalog_path(&dir), &e))?;
        let next_partitioning = catalog_entries
            .values()
            .map(|m| m.partitioning_id + 1)
            .max()
            .unwrap_or(1)
            .max(1);

        let inner = Arc::new(Inner {
            dir,
            policy: self.sync_policy,
            snapshot_threshold: self.snapshot_threshold,
            tables: RwLock::new(HashMap::new()),
            catalog: Mutex::new(catalog_file),
            next_partitioning: AtomicU64::new(next_partitioning),
            counters: StoreCounters::new(),
            recovery: Mutex::new(Vec::new()),
            combiners: CombinerRegistry::new(),
            bindings: RwLock::new(HashMap::new()),
            executor: PartExecutor::new("disk-store"),
        });

        let mut live_dirs = std::collections::HashSet::new();
        {
            let mut tables = inner.tables.write();
            for (name, meta) in &catalog_entries {
                let table_path = tables_dir.join(escape_table_name(name));
                std::fs::create_dir_all(&table_path)
                    .map_err(|e| io_err("create dir", &table_path, &e))?;
                live_dirs.insert(table_path.clone());
                let mut shards = Vec::with_capacity(meta.parts as usize);
                for part in 0..meta.parts {
                    let replayed = replay_shard(&table_path, name, part, &inner.counters)?;
                    if let Some(note) = replayed.tail_note {
                        recovery.push(note);
                    }
                    shards.push(Mutex::new(Shard {
                        map: replayed.map,
                        wal: replayed.writer,
                    }));
                }
                tables.insert(
                    name.clone(),
                    Arc::new(TableInner {
                        name: name.clone(),
                        parts: meta.parts,
                        ubiquitous: meta.ubiquitous,
                        partitioning_id: meta.partitioning_id,
                        dir: table_path,
                        shards,
                        dropped: AtomicBool::new(false),
                    }),
                );
            }
        }
        // A crash between the catalog's drop record and the directory
        // removal leaves an orphaned table directory; collect it now.
        let entries =
            std::fs::read_dir(&tables_dir).map_err(|e| io_err("read dir", &tables_dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir", &tables_dir, &e))?;
            let path = entry.path();
            if path.is_dir() && !live_dirs.contains(&path) {
                std::fs::remove_dir_all(&path).map_err(|e| io_err("remove dir", &path, &e))?;
            }
        }
        *inner.recovery.lock() = recovery;
        Ok(DiskStore {
            inner,
            default_parts: self.default_parts,
        })
    }
}

fn replay_catalog(
    dir: &Path,
    recovery: &mut Vec<KvError>,
) -> Result<HashMap<String, CatalogMeta>, KvError> {
    let path = Inner::catalog_path(dir);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err("read catalog", &path, &e)),
    };
    let mut map = HashMap::new();
    let mut offset = 0usize;
    let mut valid = 0u64;
    while let FrameRead::Frame { payload, next } = read_frame(&bytes, offset) {
        let Ok(()) = apply_catalog_record(payload, &mut map) else {
            break;
        };
        valid += 1;
        offset = next;
    }
    if offset < bytes.len() {
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open catalog", &path, &e))?;
        file.set_len(offset as u64)
            .map_err(|e| io_err("truncate catalog", &path, &e))?;
        file.sync_data()
            .map_err(|e| io_err("fsync catalog", &path, &e))?;
        recovery.push(KvError::WalTailDiscarded {
            table: "<catalog>".to_owned(),
            part: 0,
            valid_records: valid,
            discarded_bytes: (bytes.len() - offset) as u64,
        });
    }
    Ok(map)
}

fn apply_catalog_record(
    payload: &[u8],
    map: &mut HashMap<String, CatalogMeta>,
) -> Result<(), ripple_wire::WireError> {
    let mut r = ByteReader::new(payload);
    match r.read_byte()? {
        CAT_CREATE => {
            let name = String::decode(&mut r)?;
            let parts = u32::decode(&mut r)?;
            let ubiquitous = r.read_byte()? != 0;
            let partitioning_id = u64::decode(&mut r)?;
            map.insert(
                name,
                CatalogMeta {
                    parts,
                    ubiquitous,
                    partitioning_id,
                },
            );
        }
        CAT_DROP => {
            let name = String::decode(&mut r)?;
            map.remove(&name);
        }
        tag => {
            return Err(ripple_wire::WireError::InvalidTag {
                target: "catalog record",
                tag,
            })
        }
    }
    Ok(())
}

/// A durable, partitioned [`KvStore`] backed by per-shard write-ahead logs
/// and snapshots.  See the crate docs for the on-disk layout and the
/// durability protocol.
#[derive(Debug, Clone)]
pub struct DiskStore {
    pub(crate) inner: Arc<Inner>,
    default_parts: u32,
}

impl DiskStore {
    /// Opens (creating if needed) a store at `dir` with default policies:
    /// one part per table, `EveryN(64)` group commit, 64 KiB snapshot
    /// threshold.
    ///
    /// # Errors
    ///
    /// As for [`DiskStoreBuilder::open`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, KvError> {
        Self::builder().open(dir)
    }

    /// Starts building a store with explicit policies.
    #[must_use]
    pub fn builder() -> DiskStoreBuilder {
        DiskStoreBuilder::default()
    }

    /// What the most recent [`open`](DiskStore::open) had to discard:
    /// one [`KvError::WalTailDiscarded`] note per shard (or the catalog)
    /// whose log ended in a torn or corrupt record.  Empty after a clean
    /// shutdown.
    #[must_use]
    pub fn recovery_report(&self) -> Vec<KvError> {
        self.inner.recovery.lock().clone()
    }

    /// The directory this store is rooted at.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    fn insert_table(&self, name: &str, meta: CatalogMeta) -> Result<DiskTable, KvError> {
        let mut tables = self.inner.tables.write();
        if tables.contains_key(name) {
            return Err(KvError::TableExists {
                name: name.to_owned(),
            });
        }
        // Durable-first: the catalog record lands before the table exists
        // in memory, so a crash in between replays to an empty table.
        self.inner.catalog_create(name, meta)?;
        let table_dir = Inner::tables_dir(&self.inner.dir).join(escape_table_name(name));
        std::fs::create_dir_all(&table_dir).map_err(|e| io_err("create dir", &table_dir, &e))?;
        let shards = (0..meta.parts)
            .map(|part| {
                Mutex::new(Shard {
                    map: HashMap::new(),
                    wal: WalWriter::new(table_dir.clone(), part, 1, 0, 0),
                })
            })
            .collect();
        let arc = Arc::new(TableInner {
            name: name.to_owned(),
            parts: meta.parts,
            ubiquitous: meta.ubiquitous,
            partitioning_id: meta.partitioning_id,
            dir: table_dir,
            shards,
            dropped: AtomicBool::new(false),
        });
        tables.insert(name.to_owned(), Arc::clone(&arc));
        Ok(DiskTable {
            store: Arc::clone(&self.inner),
            inner: arc,
        })
    }

    /// Every live table co-partitioned with `reference` (including itself),
    /// skipping ubiquitous tables, sorted by name.
    pub(crate) fn group_tables(&self, reference: &DiskTable) -> Vec<Arc<TableInner>> {
        let pid = reference.inner.partitioning_id;
        let mut group: Vec<_> = self
            .inner
            .tables
            .read()
            .values()
            .filter(|t| !t.ubiquitous && t.partitioning_id == pid)
            .cloned()
            .collect();
        group.sort_by(|a, b| a.name.cmp(&b.name));
        group
    }
}

/// Handle to a [`DiskStore`] table.
#[derive(Debug, Clone)]
pub struct DiskTable {
    pub(crate) store: Arc<Inner>,
    pub(crate) inner: Arc<TableInner>,
}

impl DiskTable {
    fn shard_for(&self, key: &RoutedKey) -> u32 {
        if self.inner.ubiquitous {
            0
        } else {
            key.part_for(self.inner.parts).0
        }
    }
}

impl Table for DiskTable {
    fn name(&self) -> &str {
        &self.inner.name
    }
    fn part_count(&self) -> u32 {
        self.inner.parts
    }
    fn is_ubiquitous(&self) -> bool {
        self.inner.ubiquitous
    }
    fn partitioning_id(&self) -> u64 {
        self.inner.partitioning_id
    }
    fn get(&self, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        self.inner.check_live()?;
        let part = self.shard_for(key);
        self.store.count(part, Counter::LocalOps, 1);
        Ok(self.inner.shards[part as usize]
            .lock()
            .map
            .get(key)
            .cloned())
    }
    fn put(&self, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        self.inner.check_live()?;
        let part = self.shard_for(&key);
        self.store.count(part, Counter::LocalOps, 1);
        let mut shard = self.inner.shards[part as usize].lock();
        shard.wal.append(&WalRecord::Put {
            key: key.clone(),
            value: value.clone(),
        });
        let prev = shard.map.insert(key, value);
        self.store.after_mutation(&mut shard.wal)?;
        Ok(prev)
    }
    /// One shard lock and one sync per destination shard instead of one
    /// per record; records fold into the resident value when the table is
    /// bound to a combiner.
    fn put_batch(&self, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        if pairs.is_empty() {
            return Ok(());
        }
        self.inner.check_live()?;
        let fold = self.store.fold_for(&self.inner.name);
        let mut groups: Vec<Vec<(RoutedKey, Bytes)>> =
            (0..self.inner.shards.len()).map(|_| Vec::new()).collect();
        for (key, value) in pairs {
            let shard = self.shard_for(&key) as usize;
            groups[shard].push((key, value));
        }
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // Shard indices come from shard_for's u32, so the conversion
            // back cannot actually truncate.
            let part = u32::try_from(shard).unwrap_or(u32::MAX);
            self.store
                .apply_batch_to_shard(&self.inner, shard, group, fold.as_ref(), part)?;
        }
        Ok(())
    }
    fn delete(&self, key: &RoutedKey) -> Result<bool, KvError> {
        self.inner.check_live()?;
        let part = self.shard_for(key);
        self.store.count(part, Counter::LocalOps, 1);
        let mut shard = self.inner.shards[part as usize].lock();
        let present = shard.map.remove(key).is_some();
        if present {
            shard.wal.append(&WalRecord::Delete { key: key.clone() });
            self.store.after_mutation(&mut shard.wal)?;
        }
        Ok(present)
    }
    fn len(&self) -> Result<usize, KvError> {
        self.inner.check_live()?;
        Ok(self.inner.shards.iter().map(|s| s.lock().map.len()).sum())
    }
    fn clear(&self) -> Result<(), KvError> {
        self.inner.check_live()?;
        for shard in &self.inner.shards {
            let mut shard = shard.lock();
            shard.map.clear();
            shard.wal.append(&WalRecord::Clear);
            self.store.after_mutation(&mut shard.wal)?;
        }
        Ok(())
    }
}

struct DiskPartView {
    store: Arc<Inner>,
    part: PartId,
    partitioning_id: u64,
    reference_name: String,
}

impl DiskPartView {
    fn resolve(&self, table: &str, write: bool) -> Result<Arc<TableInner>, KvError> {
        let t = self.store.table(table)?;
        t.check_live()?;
        if t.ubiquitous {
            if write {
                return Err(KvError::UbiquityMismatch {
                    name: table.to_owned(),
                });
            }
            return Ok(t);
        }
        if t.partitioning_id != self.partitioning_id {
            return Err(KvError::NotCopartitioned {
                left: table.to_owned(),
                right: self.reference_name.clone(),
            });
        }
        Ok(t)
    }

    /// The shard of `t` this view reads sequentially: its own part, or the
    /// single shard of a ubiquitous table.
    fn view_shard(&self, t: &TableInner) -> usize {
        if t.ubiquitous {
            0
        } else {
            self.part.index()
        }
    }

    fn key_shard(t: &TableInner, key: &RoutedKey) -> usize {
        if t.ubiquitous {
            0
        } else {
            key.part_for(t.parts).index()
        }
    }
}

impl PartView for DiskPartView {
    fn part(&self) -> PartId {
        self.part
    }
    fn get(&self, table: &str, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        let t = self.resolve(table, false)?;
        self.store.count(self.part.0, Counter::LocalOps, 1);
        let shard = Self::key_shard(&t, key);
        let out = t.shards[shard].lock().map.get(key).cloned();
        Ok(out)
    }
    fn put(&self, table: &str, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        let t = self.resolve(table, true)?;
        self.store.count(self.part.0, Counter::LocalOps, 1);
        let shard = Self::key_shard(&t, &key);
        let mut shard = t.shards[shard].lock();
        shard.wal.append(&WalRecord::Put {
            key: key.clone(),
            value: value.clone(),
        });
        let prev = shard.map.insert(key, value);
        self.store.after_mutation(&mut shard.wal)?;
        Ok(prev)
    }
    /// One shard lock and one sync per destination shard instead of one
    /// per record; records fold into the resident value when the table is
    /// bound to a combiner.
    fn put_batch(&self, table: &str, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        if pairs.is_empty() {
            return Ok(());
        }
        let t = self.resolve(table, true)?;
        let fold = self.store.fold_for(table);
        let mut groups: Vec<Vec<(RoutedKey, Bytes)>> =
            (0..t.shards.len()).map(|_| Vec::new()).collect();
        for (key, value) in pairs {
            groups[Self::key_shard(&t, &key)].push((key, value));
        }
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            self.store
                .apply_batch_to_shard(&t, shard, group, fold.as_ref(), self.part.0)?;
        }
        Ok(())
    }
    fn delete(&self, table: &str, key: &RoutedKey) -> Result<bool, KvError> {
        let t = self.resolve(table, true)?;
        self.store.count(self.part.0, Counter::LocalOps, 1);
        let shard = Self::key_shard(&t, key);
        let mut shard = t.shards[shard].lock();
        let present = shard.map.remove(key).is_some();
        if present {
            shard.wal.append(&WalRecord::Delete { key: key.clone() });
            self.store.after_mutation(&mut shard.wal)?;
        }
        Ok(present)
    }
    fn scan(
        &self,
        table: &str,
        f: &mut dyn FnMut(&RoutedKey, &[u8]) -> ScanControl,
    ) -> Result<(), KvError> {
        let t = self.resolve(table, false)?;
        self.store.count(self.part.0, Counter::Enumerations, 1);
        let shard = t.shards[self.view_shard(&t)].lock();
        for (k, v) in &shard.map {
            if !f(k, v).should_continue() {
                break;
            }
        }
        Ok(())
    }
    fn drain(
        &self,
        table: &str,
        f: &mut dyn FnMut(RoutedKey, Bytes) -> ScanControl,
    ) -> Result<(), KvError> {
        let t = self.resolve(table, true)?;
        self.store.count(self.part.0, Counter::Enumerations, 1);
        let idx = self.view_shard(&t);
        // Snapshot the keys, then remove one at a time so the callback
        // runs outside the shard lock; unconsumed entries survive an
        // early stop.
        let keys: Vec<RoutedKey> = t.shards[idx].lock().map.keys().cloned().collect();
        for key in keys {
            let value = {
                let mut shard = t.shards[idx].lock();
                let Some(value) = shard.map.remove(&key) else {
                    continue;
                };
                shard.wal.append(&WalRecord::Delete { key: key.clone() });
                self.store.after_mutation(&mut shard.wal)?;
                value
            };
            if !f(key, value).should_continue() {
                break;
            }
        }
        Ok(())
    }
    fn len(&self, table: &str) -> Result<usize, KvError> {
        let t = self.resolve(table, false)?;
        let n = t.shards[self.view_shard(&t)].lock().map.len();
        Ok(n)
    }
}

impl KvStore for DiskStore {
    type Table = DiskTable;

    fn create_table(&self, spec: &TableSpec) -> Result<DiskTable, KvError> {
        let parts = if spec.is_ubiquitous() {
            1
        } else if spec.part_count() == 1 {
            self.default_parts
        } else {
            spec.part_count()
        };
        let id = self.inner.next_partitioning.fetch_add(1, Ordering::Relaxed);
        self.insert_table(
            spec.name(),
            CatalogMeta {
                parts,
                ubiquitous: spec.is_ubiquitous(),
                partitioning_id: id,
            },
        )
    }

    fn create_table_like(&self, name: &str, like: &DiskTable) -> Result<DiskTable, KvError> {
        like.inner.check_live()?;
        self.insert_table(
            name,
            CatalogMeta {
                parts: like.inner.parts,
                ubiquitous: like.inner.ubiquitous,
                partitioning_id: like.inner.partitioning_id,
            },
        )
    }

    fn lookup_table(&self, name: &str) -> Result<DiskTable, KvError> {
        Ok(DiskTable {
            store: Arc::clone(&self.inner),
            inner: self.inner.table(name)?,
        })
    }

    fn drop_table(&self, name: &str) -> Result<(), KvError> {
        let mut tables = self.inner.tables.write();
        let Some(t) = tables.remove(name) else {
            return Err(KvError::NoSuchTable {
                name: name.to_owned(),
            });
        };
        drop(tables);
        t.dropped.store(true, Ordering::Release);
        self.inner.bindings.write().remove(name);
        // Durable-first again: once the drop record is synced, a crash
        // before the directory removal is cleaned up by the next open.
        self.inner.catalog_drop(name)?;
        std::fs::remove_dir_all(&t.dir).map_err(|e| io_err("remove dir", &t.dir, &e))?;
        Ok(())
    }

    fn table_names(&self) -> Vec<String> {
        self.inner.tables.read().keys().cloned().collect()
    }

    fn run_at<R, F>(&self, reference: &DiskTable, part: PartId, task: F) -> TaskHandle<R>
    where
        R: Send + 'static,
        F: FnOnce(&dyn PartView) -> R + Send + 'static,
    {
        assert!(
            part.0 < reference.part_count(),
            "part {part} out of range for {:?}",
            reference.name()
        );
        self.inner.count(part.0, Counter::TasksDispatched, 1);
        let view = DiskPartView {
            store: Arc::clone(&self.inner),
            part,
            partitioning_id: reference.inner.partitioning_id,
            reference_name: reference.inner.name.clone(),
        };
        self.inner.executor.run(part, move || task(&view))
    }

    fn combiner_registry(&self) -> Option<&CombinerRegistry> {
        Some(&self.inner.combiners)
    }

    fn bind_combiner(&self, table: &str, combiner: &CombinerSpec) -> Result<(), KvError> {
        self.inner.table(table)?;
        self.inner
            .bindings
            .write()
            .insert(table.to_owned(), combiner.name().to_owned());
        Ok(())
    }

    fn metrics(&self) -> StoreMetrics {
        self.inner.counters.metrics()
    }

    fn part_metrics(&self) -> Vec<StoreMetrics> {
        self.inner.counters.part_metrics()
    }
}
