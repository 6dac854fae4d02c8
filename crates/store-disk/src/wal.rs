//! Per-shard write-ahead logging: record codec, buffered appends with a
//! configurable fsync policy, replay, snapshot compaction, and
//! barrier-targeted rewind.
//!
//! Each shard (one part of one table) owns a family of files inside its
//! table's directory:
//!
//! ```text
//! pNNNN.wal.<gen>    append-only log of framed records (generation <gen>)
//! pNNNN.snap.<gen>   snapshot folding every log generation <= <gen>
//! ```
//!
//! A log generation is also a bounded *segment*: once the current file
//! holds [`SEGMENT_BYTES`], the next write-out starts generation
//! `<gen> + 1`, so no file grows past the bound plus one write-out however
//! long a shard goes without compaction.  Replay and rewind read the
//! generations in order, so a log split across segments reads as one.
//!
//! A snapshot is written under a temporary name, fsynced, renamed into
//! place, and only then are the folded logs deleted; the current log
//! generation is then `<gen> + 1`.  Opening a shard therefore loads the
//! newest snapshot (if any) and replays only log generations greater than
//! the snapshot's.  Every crash interleaving of that protocol resolves to
//! a consistent state under the same rule.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use ripple_kv::{Counter, KvError, PartId, RoutedKey, StoreCounters, SyncPolicy};
use ripple_wire::{
    read_frame, write_frame, ByteReader, ByteWriter, Decode, Encode, FrameRead, WireError,
};

/// One logged mutation (or barrier marker) of a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalRecord {
    /// A key was inserted or overwritten.
    Put {
        /// The written key.
        key: RoutedKey,
        /// The written value.
        value: Bytes,
    },
    /// A key was removed.
    Delete {
        /// The removed key.
        key: RoutedKey,
    },
    /// The whole shard was cleared.
    Clear,
    /// A durable barrier was committed at this point in the log.
    Barrier {
        /// The barrier's epoch (the engine's step number).
        epoch: u64,
    },
}

const TAG_PUT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_CLEAR: u8 = 3;
const TAG_BARRIER: u8 = 4;

pub(crate) fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match rec {
        WalRecord::Put { key, value } => {
            w.push(TAG_PUT);
            key.encode(&mut w);
            value.encode(&mut w);
        }
        WalRecord::Delete { key } => {
            w.push(TAG_DELETE);
            key.encode(&mut w);
        }
        WalRecord::Clear => w.push(TAG_CLEAR),
        WalRecord::Barrier { epoch } => {
            w.push(TAG_BARRIER);
            epoch.encode(&mut w);
        }
    }
    w.into_vec()
}

pub(crate) fn decode_record(payload: &[u8]) -> Result<WalRecord, WireError> {
    let mut r = ByteReader::new(payload);
    let rec = match r.read_byte()? {
        TAG_PUT => WalRecord::Put {
            key: RoutedKey::decode(&mut r)?,
            value: Bytes::decode(&mut r)?,
        },
        TAG_DELETE => WalRecord::Delete {
            key: RoutedKey::decode(&mut r)?,
        },
        TAG_CLEAR => WalRecord::Clear,
        TAG_BARRIER => WalRecord::Barrier {
            epoch: u64::decode(&mut r)?,
        },
        other => {
            return Err(WireError::InvalidTag {
                target: "wal record",
                tag: other,
            })
        }
    };
    if !r.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(rec)
}

/// Wraps an I/O error with enough context to debug a broken directory.
pub(crate) fn io_err(context: &str, path: &Path, e: &std::io::Error) -> KvError {
    KvError::Backend {
        detail: format!("{context} {}: {e}", path.display()),
    }
}

/// Bytes past which a shard's current log file is sealed and the next
/// write-out starts the next generation.  (Unit tests use a small bound so
/// that they cross it many times without writing hundreds of megabytes.)
pub(crate) const SEGMENT_BYTES: u64 = if cfg!(test) { 64 << 10 } else { 64 << 20 };

/// Counts `n` of `counter` against shard `part`.
fn count(counters: &StoreCounters, part: u32, counter: Counter, n: u64) {
    counters.add(Some(PartId(part)), counter, n);
}

/// The buffered appender for one shard's current log generation.
///
/// Records accumulate in a userspace buffer; nothing reaches the file (or
/// the disk) until a policy point, an explicit flush, or a barrier
/// commit.  Dropping the writer drops the buffer — deliberately, so that
/// dropping the store without flushing models a hard crash.
#[derive(Debug)]
pub(crate) struct WalWriter {
    table_dir: PathBuf,
    part: u32,
    /// Current log generation.
    pub(crate) gen: u64,
    buf: Vec<u8>,
    /// Records appended since the last policy fsync (for `EveryN`).
    pending: u32,
    /// Bytes already written to the current log file.
    pub(crate) file_bytes: u64,
    /// Bytes in the sealed segments before the current one, back to the
    /// last snapshot: with `file_bytes`, what a compaction would fold.
    sealed_bytes: u64,
    /// Whether written file bytes are not yet known to be fsynced.
    unsynced_file: bool,
    /// Sealed segments not yet known to be fsynced: the next fsyncing
    /// write-out syncs them before the current file.
    unsynced_sealed: Vec<u64>,
}

impl WalWriter {
    pub(crate) fn new(
        table_dir: PathBuf,
        part: u32,
        gen: u64,
        file_bytes: u64,
        sealed_bytes: u64,
    ) -> Self {
        Self {
            table_dir,
            part,
            gen,
            buf: Vec::new(),
            pending: 0,
            file_bytes,
            sealed_bytes,
            // Replayed bytes may predate a crash-unsynced write; one
            // conservative fsync at the first flush costs little.
            unsynced_file: file_bytes > 0,
            unsynced_sealed: Vec::new(),
        }
    }

    pub(crate) fn wal_path(table_dir: &Path, part: u32, gen: u64) -> PathBuf {
        table_dir.join(format!("p{part:04}.wal.{gen}"))
    }

    pub(crate) fn snap_path(table_dir: &Path, part: u32, gen: u64) -> PathBuf {
        table_dir.join(format!("p{part:04}.snap.{gen}"))
    }

    fn current_path(&self) -> PathBuf {
        Self::wal_path(&self.table_dir, self.part, self.gen)
    }

    /// Buffers one record.  Nothing touches the file system here.
    pub(crate) fn append(&mut self, rec: &WalRecord) {
        write_frame(&mut self.buf, &encode_record(rec));
        self.pending += 1;
    }

    /// Log bytes since the last snapshot — every live segment's, written
    /// or still buffered (for compaction thresholds).
    pub(crate) fn live_bytes(&self) -> u64 {
        self.sealed_bytes + self.file_bytes + self.buf.len() as u64
    }

    /// Writes buffered bytes to the current log file and optionally
    /// fsyncs it, first starting the next segment if the current file is
    /// full.  No-op when there is nothing buffered and nothing unsynced.
    pub(crate) fn write_out(
        &mut self,
        fsync: bool,
        counters: &StoreCounters,
    ) -> Result<(), KvError> {
        if !self.buf.is_empty() && self.file_bytes >= SEGMENT_BYTES {
            self.seal();
        }
        if fsync {
            for gen in std::mem::take(&mut self.unsynced_sealed) {
                let path = Self::wal_path(&self.table_dir, self.part, gen);
                File::open(&path)
                    .and_then(|file| file.sync_data())
                    .map_err(|e| io_err("fsync wal", &path, &e))?;
                count(counters, self.part, Counter::Fsyncs, 1);
            }
        }
        if self.buf.is_empty() && !(fsync && self.unsynced_file) {
            return Ok(());
        }
        let path = self.current_path();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open wal", &path, &e))?;
        if !self.buf.is_empty() {
            (&file)
                .write_all(&self.buf)
                .map_err(|e| io_err("append wal", &path, &e))?;
            let written = self.buf.len() as u64;
            count(counters, self.part, Counter::WalBytes, written);
            self.file_bytes += written;
            self.buf.clear();
            self.unsynced_file = true;
        }
        self.pending = 0;
        if fsync {
            file.sync_data()
                .map_err(|e| io_err("fsync wal", &path, &e))?;
            count(counters, self.part, Counter::Fsyncs, 1);
            self.unsynced_file = false;
        }
        Ok(())
    }

    /// Seals the current segment: later writes go to the next generation.
    /// Its fsync, if it owes one, waits for the next fsyncing write-out.
    fn seal(&mut self) {
        if self.unsynced_file {
            self.unsynced_sealed.push(self.gen);
        }
        self.sealed_bytes += self.file_bytes;
        self.gen += 1;
        self.file_bytes = 0;
        self.unsynced_file = false;
    }

    /// Starts the next log generation after a snapshot folded this one
    /// and every sealed segment before it.  Buffered bytes are discarded:
    /// the snapshot captured their effects from the memtable.
    pub(crate) fn reset_after_snapshot(&mut self) {
        self.gen += 1;
        self.buf.clear();
        self.pending = 0;
        self.file_bytes = 0;
        self.sealed_bytes = 0;
        self.unsynced_file = false;
        self.unsynced_sealed.clear();
    }

    /// Applies the store's fsync policy after one buffered mutation.
    pub(crate) fn after_mutation(
        &mut self,
        policy: SyncPolicy,
        counters: &StoreCounters,
    ) -> Result<(), KvError> {
        match policy {
            SyncPolicy::Always => self.write_out(true, counters),
            SyncPolicy::EveryN(n) => {
                if self.pending >= n.max(1) {
                    self.write_out(true, counters)
                } else {
                    Ok(())
                }
            }
            SyncPolicy::Never => Ok(()),
        }
    }
}

/// The durable files belonging to one shard, sorted by generation.
#[derive(Debug, Default)]
pub(crate) struct ShardFiles {
    /// Newest snapshot, if any.
    pub(crate) snap: Option<(u64, PathBuf)>,
    /// Log files with generations beyond the newest snapshot, ascending.
    pub(crate) wals: Vec<(u64, PathBuf)>,
    /// Superseded files (older snapshots, logs folded into the snapshot):
    /// left over only when a crash interrupted compaction cleanup.
    pub(crate) stale: Vec<PathBuf>,
}

/// Scans `table_dir` for the files of `part`.
pub(crate) fn list_shard_files(table_dir: &Path, part: u32) -> Result<ShardFiles, KvError> {
    let mut snaps: Vec<(u64, PathBuf)> = Vec::new();
    let mut wals: Vec<(u64, PathBuf)> = Vec::new();
    let wal_prefix = format!("p{part:04}.wal.");
    let snap_prefix = format!("p{part:04}.snap.");
    let entries = std::fs::read_dir(table_dir).map_err(|e| io_err("read dir", table_dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir", table_dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(gen) = name.strip_prefix(&wal_prefix).and_then(|g| g.parse().ok()) {
            wals.push((gen, entry.path()));
        } else if let Some(gen) = name.strip_prefix(&snap_prefix).and_then(|g| g.parse().ok()) {
            snaps.push((gen, entry.path()));
        }
    }
    snaps.sort_by_key(|(g, _)| *g);
    wals.sort_by_key(|(g, _)| *g);
    let snap = snaps.pop();
    let snap_gen = snap.as_ref().map_or(0, |(g, _)| *g);
    let mut stale: Vec<PathBuf> = snaps.into_iter().map(|(_, p)| p).collect();
    let mut live_wals = Vec::new();
    for (gen, path) in wals {
        if snap.is_some() && gen <= snap_gen {
            stale.push(path);
        } else {
            live_wals.push((gen, path));
        }
    }
    Ok(ShardFiles {
        snap,
        wals: live_wals,
        stale,
    })
}

/// The result of replaying one shard from disk.
pub(crate) struct ReplayedShard {
    pub(crate) map: HashMap<RoutedKey, Bytes>,
    pub(crate) writer: WalWriter,
    /// A [`KvError::WalTailDiscarded`] note when the log's tail was torn
    /// or corrupt and had to be truncated.
    pub(crate) tail_note: Option<KvError>,
}

/// Reads a snapshot file: `(barrier epoch, entries)`.
pub(crate) fn read_snapshot(path: &Path) -> Result<(u64, HashMap<RoutedKey, Bytes>), KvError> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read snapshot", path, &e))?;
    let corrupt = || KvError::Backend {
        detail: format!("corrupt snapshot {}", path.display()),
    };
    let mut offset = 0usize;
    let FrameRead::Frame { payload, next } = read_frame(&bytes, offset) else {
        return Err(corrupt());
    };
    let mut r = ByteReader::new(payload);
    let epoch = u64::decode(&mut r).map_err(|_| corrupt())?;
    let count = u64::decode(&mut r).map_err(|_| corrupt())?;
    offset = next;
    let mut map = HashMap::with_capacity(usize::try_from(count).unwrap_or(0));
    for _ in 0..count {
        let FrameRead::Frame { payload, next } = read_frame(&bytes, offset) else {
            return Err(corrupt());
        };
        let mut r = ByteReader::new(payload);
        let key = RoutedKey::decode(&mut r).map_err(|_| corrupt())?;
        let value = Bytes::decode(&mut r).map_err(|_| corrupt())?;
        map.insert(key, value);
        offset = next;
    }
    Ok((epoch, map))
}

/// Writes a snapshot of `map` at barrier `epoch`, durably: temp file,
/// fsync, rename, directory fsync.  Returns the snapshot's byte size.
pub(crate) fn write_snapshot(
    table_dir: &Path,
    part: u32,
    gen: u64,
    epoch: u64,
    map: &HashMap<RoutedKey, Bytes>,
    counters: &StoreCounters,
) -> Result<u64, KvError> {
    let mut out = Vec::new();
    let mut header = ByteWriter::new();
    epoch.encode(&mut header);
    (map.len() as u64).encode(&mut header);
    write_frame(&mut out, header.as_slice());
    for (key, value) in map {
        let mut w = ByteWriter::with_capacity(key.body().len() + value.len() + 16);
        key.encode(&mut w);
        value.encode(&mut w);
        write_frame(&mut out, w.as_slice());
    }
    let tmp = table_dir.join(format!("p{part:04}.snap.tmp"));
    let final_path = WalWriter::snap_path(table_dir, part, gen);
    {
        let mut file = File::create(&tmp).map_err(|e| io_err("create snapshot", &tmp, &e))?;
        file.write_all(&out)
            .map_err(|e| io_err("write snapshot", &tmp, &e))?;
        file.sync_data()
            .map_err(|e| io_err("fsync snapshot", &tmp, &e))?;
        count(counters, part, Counter::Fsyncs, 1);
    }
    std::fs::rename(&tmp, &final_path).map_err(|e| io_err("rename snapshot", &tmp, &e))?;
    sync_dir(table_dir, counters, part)?;
    Ok(out.len() as u64)
}

/// Fsyncs a directory so a rename/unlink within it is durable.
pub(crate) fn sync_dir(dir: &Path, counters: &StoreCounters, part: u32) -> Result<(), KvError> {
    let handle = File::open(dir).map_err(|e| io_err("open dir", dir, &e))?;
    handle
        .sync_all()
        .map_err(|e| io_err("fsync dir", dir, &e))?;
    count(counters, part, Counter::Fsyncs, 1);
    Ok(())
}

/// Rebuilds one shard from its snapshot and logs.
///
/// A torn or corrupt log tail is truncated off the file and reported via
/// `tail_note`; everything up to it replays.  Logs that should not exist
/// (generations beyond a truncated one) are removed so a future replay
/// cannot apply them out of order.
pub(crate) fn replay_shard(
    table_dir: &Path,
    table_name: &str,
    part: u32,
    counters: &StoreCounters,
) -> Result<ReplayedShard, KvError> {
    let files = list_shard_files(table_dir, part)?;
    for path in &files.stale {
        std::fs::remove_file(path).map_err(|e| io_err("remove stale", path, &e))?;
    }
    let mut map = HashMap::new();
    let mut snap_gen = 0u64;
    if let Some((gen, path)) = &files.snap {
        let (_, entries) = read_snapshot(path)?;
        let replayed = entries.len() as u64;
        count(counters, part, Counter::ReplayedRecords, replayed);
        map = entries;
        snap_gen = *gen;
    }
    let mut gen = snap_gen.max(1);
    let mut file_bytes = 0u64;
    let mut sealed_bytes = 0u64;
    let mut tail_note = None;
    let mut truncated_at: Option<usize> = None;
    for (i, (wal_gen, path)) in files.wals.iter().enumerate() {
        // The previous generation is a sealed segment of this one's log.
        sealed_bytes += file_bytes;
        let bytes = std::fs::read(path).map_err(|e| io_err("read wal", path, &e))?;
        let mut offset = 0usize;
        let mut valid = 0u64;
        while let FrameRead::Frame { payload, next } = read_frame(&bytes, offset) {
            let Ok(rec) = decode_record(payload) else {
                break;
            };
            apply_record(&mut map, rec);
            valid += 1;
            offset = next;
        }
        count(counters, part, Counter::ReplayedRecords, valid);
        gen = *wal_gen;
        if offset < bytes.len() {
            // Damaged tail: truncate the file there and stop replaying.
            let file = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| io_err("open wal", path, &e))?;
            file.set_len(offset as u64)
                .map_err(|e| io_err("truncate wal", path, &e))?;
            file.sync_data()
                .map_err(|e| io_err("fsync wal", path, &e))?;
            count(counters, part, Counter::Fsyncs, 1);
            tail_note = Some(KvError::WalTailDiscarded {
                table: table_name.to_owned(),
                part,
                valid_records: valid,
                discarded_bytes: (bytes.len() - offset) as u64,
            });
            file_bytes = offset as u64;
            truncated_at = Some(i);
            break;
        }
        file_bytes = bytes.len() as u64;
    }
    if let Some(i) = truncated_at {
        // Log generations beyond a damaged one cannot exist under the
        // compaction protocol; if a broken tool left some, drop them.
        for (_, path) in &files.wals[i + 1..] {
            std::fs::remove_file(path).map_err(|e| io_err("remove wal", path, &e))?;
        }
    }
    if files.wals.is_empty() && files.snap.is_some() {
        // Compaction folded every log; the writer starts the next
        // generation.
        gen = snap_gen + 1;
        file_bytes = 0;
    }
    Ok(ReplayedShard {
        map,
        writer: WalWriter::new(table_dir.to_owned(), part, gen, file_bytes, sealed_bytes),
        tail_note,
    })
}

pub(crate) fn apply_record(map: &mut HashMap<RoutedKey, Bytes>, rec: WalRecord) {
    match rec {
        WalRecord::Put { key, value } => {
            map.insert(key, value);
        }
        WalRecord::Delete { key } => {
            map.remove(&key);
        }
        WalRecord::Clear => map.clear(),
        WalRecord::Barrier { .. } => {}
    }
}

/// Rebuilds one shard to its exact state at the barrier marker for
/// `epoch`, truncating everything after the marker off the durable log
/// and returning the rebuilt memtable and writer.
///
/// Callers guarantee `epoch` was committed (its markers written and
/// synced) before the resume journal pointed at it, so either the marker
/// is in a live log or the newest snapshot *is* the barrier state.
pub(crate) fn rewind_shard(
    table_dir: &Path,
    table_name: &str,
    part: u32,
    epoch: u64,
    counters: &StoreCounters,
) -> Result<(HashMap<RoutedKey, Bytes>, WalWriter), KvError> {
    let files = list_shard_files(table_dir, part)?;
    for path in &files.stale {
        std::fs::remove_file(path).map_err(|e| io_err("remove stale", path, &e))?;
    }
    let mut map = HashMap::new();
    let mut snap_gen = 0u64;
    let mut snap_epoch = None;
    if let Some((gen, path)) = &files.snap {
        let (e, entries) = read_snapshot(path)?;
        if e > epoch {
            return Err(KvError::Backend {
                detail: format!(
                    "table {table_name:?} part {part}: snapshot at epoch {e} is past the \
                     rewind target {epoch}"
                ),
            });
        }
        let replayed = entries.len() as u64;
        count(counters, part, Counter::ReplayedRecords, replayed);
        map = entries;
        snap_gen = *gen;
        snap_epoch = Some(e);
    }
    let mut sealed_bytes = 0u64;
    for (i, (wal_gen, path)) in files.wals.iter().enumerate() {
        let bytes = std::fs::read(path).map_err(|e| io_err("read wal", path, &e))?;
        let mut offset = 0usize;
        let mut cut = None;
        while let FrameRead::Frame { payload, next } = read_frame(&bytes, offset) {
            let Ok(rec) = decode_record(payload) else {
                break;
            };
            let barrier_hit = matches!(&rec, WalRecord::Barrier { epoch: e } if *e == epoch);
            apply_record(&mut map, rec);
            offset = next;
            if barrier_hit {
                cut = Some(offset);
                break;
            }
        }
        if let Some(cut) = cut {
            // Truncate this file at the marker and drop later generations.
            let file = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| io_err("open wal", path, &e))?;
            file.set_len(cut as u64)
                .map_err(|e| io_err("truncate wal", path, &e))?;
            file.sync_data()
                .map_err(|e| io_err("fsync wal", path, &e))?;
            count(counters, part, Counter::Fsyncs, 1);
            for (_, later) in &files.wals[i + 1..] {
                std::fs::remove_file(later).map_err(|e| io_err("remove wal", later, &e))?;
            }
            return Ok((
                map,
                WalWriter::new(
                    table_dir.to_owned(),
                    part,
                    *wal_gen,
                    cut as u64,
                    sealed_bytes,
                ),
            ));
        }
        sealed_bytes += bytes.len() as u64;
    }
    if snap_epoch == Some(epoch) {
        // The snapshot *is* the barrier state (a crash interrupted
        // compaction cleanup); drop every post-snapshot log byte.
        let (_, entries) = read_snapshot(&files.snap.as_ref().expect("snap checked").1)?;
        for (_, path) in &files.wals {
            std::fs::remove_file(path).map_err(|e| io_err("remove wal", path, &e))?;
        }
        return Ok((
            entries,
            WalWriter::new(table_dir.to_owned(), part, snap_gen + 1, 0, 0),
        ));
    }
    Err(KvError::Backend {
        detail: format!(
            "table {table_name:?} part {part}: no barrier marker for epoch {epoch} in the \
             durable log"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(route: u64, body: &str) -> RoutedKey {
        RoutedKey::with_route(route, Bytes::copy_from_slice(body.as_bytes()))
    }

    #[test]
    fn records_roundtrip() {
        for rec in [
            WalRecord::Put {
                key: key(3, "k"),
                value: Bytes::from_static(b"v"),
            },
            WalRecord::Delete {
                key: key(9, "gone"),
            },
            WalRecord::Clear,
            WalRecord::Barrier { epoch: 42 },
        ] {
            assert_eq!(decode_record(&encode_record(&rec)).unwrap(), rec);
        }
    }

    #[test]
    fn writer_replay_roundtrip() {
        let dir = crate::testutil::TempDir::new("wal-roundtrip");
        let mut w = WalWriter::new(dir.path().to_owned(), 0, 1, 0, 0);
        w.append(&WalRecord::Put {
            key: key(0, "a"),
            value: Bytes::from_static(b"1"),
        });
        w.append(&WalRecord::Put {
            key: key(0, "b"),
            value: Bytes::from_static(b"2"),
        });
        w.append(&WalRecord::Delete { key: key(0, "a") });
        w.write_out(true, &StoreCounters::new()).unwrap();
        let replayed = replay_shard(dir.path(), "t", 0, &StoreCounters::new()).unwrap();
        assert!(replayed.tail_note.is_none());
        assert_eq!(replayed.map.len(), 1);
        assert_eq!(
            replayed.map.get(&key(0, "b")),
            Some(&Bytes::from_static(b"2"))
        );
    }

    #[test]
    fn rewind_cuts_past_the_barrier() {
        let dir = crate::testutil::TempDir::new("wal-rewind");
        let mut w = WalWriter::new(dir.path().to_owned(), 2, 1, 0, 0);
        w.append(&WalRecord::Put {
            key: key(2, "committed"),
            value: Bytes::from_static(b"1"),
        });
        w.append(&WalRecord::Barrier { epoch: 7 });
        w.append(&WalRecord::Put {
            key: key(2, "mid-step"),
            value: Bytes::from_static(b"2"),
        });
        w.write_out(true, &StoreCounters::new()).unwrap();
        let (map, writer) = rewind_shard(dir.path(), "t", 2, 7, &StoreCounters::new()).unwrap();
        assert_eq!(map.len(), 1);
        assert!(map.contains_key(&key(2, "committed")));
        // The mid-step record is gone from the durable log too.
        assert!(
            writer.file_bytes
                < std::fs::metadata(WalWriter::wal_path(dir.path(), 2, 1))
                    .map(|m| m.len() + 1)
                    .unwrap()
        );
        let replayed = replay_shard(dir.path(), "t", 2, &StoreCounters::new()).unwrap();
        assert_eq!(replayed.map.len(), 1);
    }

    #[test]
    fn rewind_without_marker_fails() {
        let dir = crate::testutil::TempDir::new("wal-nomarker");
        let mut w = WalWriter::new(dir.path().to_owned(), 0, 1, 0, 0);
        w.append(&WalRecord::Put {
            key: key(0, "x"),
            value: Bytes::from_static(b"1"),
        });
        w.write_out(true, &StoreCounters::new()).unwrap();
        assert!(rewind_shard(dir.path(), "t", 0, 3, &StoreCounters::new()).is_err());
    }

    #[test]
    fn snapshot_roundtrip_and_replay_after_compaction() {
        let dir = crate::testutil::TempDir::new("wal-snap");
        let mut map = HashMap::new();
        map.insert(key(0, "a"), Bytes::from_static(b"1"));
        map.insert(key(0, "b"), Bytes::from_static(b"2"));
        write_snapshot(dir.path(), 0, 3, 11, &map, &StoreCounters::new()).unwrap();
        let (epoch, back) = read_snapshot(&WalWriter::snap_path(dir.path(), 0, 3)).unwrap();
        assert_eq!(epoch, 11);
        assert_eq!(back, map);
        let replayed = replay_shard(dir.path(), "t", 0, &StoreCounters::new()).unwrap();
        assert_eq!(replayed.map, map);
        assert_eq!(replayed.writer.gen, 4);
    }
}
