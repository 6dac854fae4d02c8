//! The part-granular state plane of the synchronized engine.
//!
//! The store SPI charges a partition-boundary crossing per *call* — a lane
//! hop in `store-mem`, a network round trip behind a part server — so a
//! part task that reads and writes component state one record at a time
//! pays that latency once per component.  The plane turns the per-record
//! traffic of one part task into bulk transfers:
//!
//! * **write-behind** — state writes buffer per table ([`WriteBehind`]) and
//!   flush through `put_batch` once a table's buffer holds
//!   [`WRITE_BEHIND_BYTES`], and always before the task's spills are
//!   written, so a step's messages never become visible ahead of the state
//!   that produced them;
//! * **read-ahead** — the first state read that misses fetches the states
//!   of the next [`READ_AHEAD_KEYS`] enabled components, in invocation
//!   order, with one `get_batch`.  The cache is positional, not keyed: a
//!   job that never reads state fetches nothing, and a component can only
//!   read its own state, which nothing else writes during the step.
//!
//! Both buffers are bounded by constants, not by the size of the part, in
//! the spirit of pseudo-streaming BSP: write-behind by bytes, read-ahead by
//! keys and — from a task's second window on — by bytes too
//! ([`next_window`]).  A task's first window has no size to go by and is
//! bounded by key count alone.  The unsynchronized and run-anywhere
//! engines keep their pass-through `StateOps`: they have no invocation
//! order to read ahead on.

use std::cell::{RefCell, RefMut};

use bytes::Bytes;
use ripple_kv::{KvError, RoutedKey};

use crate::context::StateOps;
use crate::engine::LocalStateOps;
use crate::retry::kv_with_retry;

/// Buffered bytes per table at which write-behind flushes: the size of one
/// `store-net` stream chunk — large enough to amortise a round trip over
/// thousands of small states, small enough that parts × tables of them
/// stay a rounding error next to the delivered messages.
const WRITE_BEHIND_BYTES: usize = 256 << 10;

/// Most states fetched per read-ahead `get_batch`: amortises a round trip
/// ~500-fold while holding at most this many decoded-on-demand values.
pub(crate) const READ_AHEAD_KEYS: usize = 512;

/// Bytes a read-ahead window aims to hold once state sizes are known: the
/// write-behind threshold, so a job with large states (matrix blocks)
/// buffers as much on the way in as on the way out.
const READ_AHEAD_BYTES: usize = WRITE_BEHIND_BYTES;

/// The key count of the window after `fetched`: what would have held
/// [`READ_AHEAD_BYTES`] at the mean state size of that fetch.
pub(crate) fn next_window(fetched: &[Option<Bytes>]) -> usize {
    let bytes: usize = fetched.iter().flatten().map(Bytes::len).sum();
    (fetched.len() * READ_AHEAD_BYTES / bytes.max(1)).clamp(1, READ_AHEAD_KEYS)
}

/// Per-table buffers of state records awaiting one `put_batch` each.
/// Records keep arrival order, so a later write to a key wins.
pub(crate) struct WriteBehind {
    tables: Vec<(Vec<(RoutedKey, Bytes)>, usize)>,
}

impl WriteBehind {
    pub(crate) fn new(tables: usize) -> Self {
        Self {
            tables: (0..tables).map(|_| (Vec::new(), 0)).collect(),
        }
    }

    /// Buffers one record for table `tab`; once that table's buffer holds
    /// [`WRITE_BEHIND_BYTES`] it is handed back for the caller to flush.
    pub(crate) fn push(
        &mut self,
        tab: usize,
        key: RoutedKey,
        value: Bytes,
    ) -> Option<Vec<(RoutedKey, Bytes)>> {
        let (records, bytes) = &mut self.tables[tab];
        *bytes += key.wire_len() + value.len();
        records.push((key, value));
        (*bytes >= WRITE_BEHIND_BYTES).then(|| {
            *bytes = 0;
            std::mem::take(records)
        })
    }

    /// Drops the buffered writes to `key`, reporting whether there were any.
    fn forget(&mut self, tab: usize, key: &RoutedKey) -> bool {
        let (records, bytes) = &mut self.tables[tab];
        let before = records.len();
        records.retain(|(k, v)| {
            let keep = k != key;
            if !keep {
                *bytes -= k.wire_len() + v.len();
            }
            keep
        });
        records.len() != before
    }

    /// Takes every non-empty buffer, by table index.
    pub(crate) fn take_all(&mut self) -> Vec<(usize, Vec<(RoutedKey, Bytes)>)> {
        self.tables
            .iter_mut()
            .enumerate()
            .filter(|(_, (records, _))| !records.is_empty())
            .map(|(tab, (records, bytes))| {
                *bytes = 0;
                (tab, std::mem::take(records))
            })
            .collect()
    }
}

/// What the plane tracks between invocations of one part task.
struct PlaneState {
    /// Index into `keys` of the running invocation.
    at: usize,
    writes: WriteBehind,
    /// Per table: what the running invocation's own writes and deletes
    /// left under its key — read-your-write without a buffer lookup.
    own: Vec<Option<Option<Bytes>>>,
    ahead: Vec<ReadAhead>,
}

/// One table's read-ahead window.
struct ReadAhead {
    /// Position in `keys` of the window's first key.
    start: usize,
    /// One fetched value per position from `start`.
    values: Vec<Option<Bytes>>,
    /// How many keys the next fetch asks for.
    next: usize,
}

/// [`StateOps`] for one compute part task: collocated access through the
/// task's view, with write-behind puts and read-ahead gets.
pub(crate) struct StatePlane<'a> {
    local: LocalStateOps<'a>,
    /// The routed keys of the task's enabled components, in invocation
    /// order.
    keys: Vec<RoutedKey>,
    state: RefCell<PlaneState>,
}

impl<'a> StatePlane<'a> {
    pub(crate) fn new(local: LocalStateOps<'a>, keys: Vec<RoutedKey>) -> Self {
        let tables = local.tables.len();
        Self {
            local,
            keys,
            state: RefCell::new(PlaneState {
                at: 0,
                writes: WriteBehind::new(tables),
                own: vec![None; tables],
                ahead: (0..tables)
                    .map(|_| ReadAhead {
                        start: 0,
                        values: Vec::new(),
                        next: READ_AHEAD_KEYS,
                    })
                    .collect(),
            }),
        }
    }

    /// Marks the start of the invocation at position `at` of the key list.
    pub(crate) fn begin(&self, at: usize) {
        let mut state = self.state.borrow_mut();
        state.at = at;
        state.own.fill(None);
    }

    /// Flushes every buffered write.  Must run before the task's spills
    /// are written.
    pub(crate) fn flush(&self) -> Result<(), KvError> {
        let pending = self.state.borrow_mut().writes.take_all();
        for (tab, records) in pending {
            self.put_batch(tab, &records)?;
        }
        Ok(())
    }

    /// State overwrites are idempotent, so a transiently failed batch is
    /// simply sent again whole.
    fn put_batch(&self, tab: usize, records: &[(RoutedKey, Bytes)]) -> Result<(), KvError> {
        kv_with_retry(self.local.retry, self.local.view.part().0, || {
            self.local
                .view
                .put_batch(&self.local.tables[tab], records.to_vec())
        })
    }

    /// Borrows the plane's state for an operation on `key`, which must be
    /// the running invocation's own key (the only key `ComputeContext`
    /// ever addresses): the positional caches speak for no other.
    fn state_for(&self, key: &RoutedKey) -> RefMut<'_, PlaneState> {
        let state = self.state.borrow_mut();
        assert!(
            self.keys.get(state.at) == Some(key),
            "state operation on a key other than the running invocation's"
        );
        state
    }
}

impl StateOps for StatePlane<'_> {
    fn get(&self, tab: usize, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        let mut state = self.state_for(key);
        if let Some(own) = &state.own[tab] {
            return Ok(own.clone());
        }
        let at = state.at;
        let ahead = &mut state.ahead[tab];
        if let Some(value) = at
            .checked_sub(ahead.start)
            .and_then(|i| ahead.values.get(i))
        {
            return Ok(value.clone());
        }
        let end = (at + ahead.next).min(self.keys.len());
        let fetched = kv_with_retry(self.local.retry, self.local.view.part().0, || {
            self.local
                .view
                .get_batch(&self.local.tables[tab], &self.keys[at..end])
        })?;
        let value = fetched.first().cloned().flatten();
        *ahead = ReadAhead {
            start: at,
            next: next_window(&fetched),
            values: fetched,
        };
        Ok(value)
    }

    fn put(&self, tab: usize, key: RoutedKey, value: Bytes) -> Result<(), KvError> {
        let full = {
            let mut state = self.state_for(&key);
            state.own[tab] = Some(Some(value.clone()));
            state.writes.push(tab, key, value)
        };
        match full {
            Some(records) => self.put_batch(tab, &records),
            None => Ok(()),
        }
    }

    fn delete(&self, tab: usize, key: &RoutedKey) -> Result<bool, KvError> {
        let buffered = {
            let mut state = self.state_for(key);
            // Only this invocation's own writes can sit in the buffer
            // under its key.
            let wrote = matches!(state.own[tab].replace(None), Some(Some(_)));
            wrote && state.writes.forget(tab, key)
        };
        // Deletes pass through: earlier flushes may have stored the key.
        Ok(self.local.delete(tab, key)? || buffered)
    }

    fn broadcast_get(&self, key: &RoutedKey) -> Result<Option<Option<Bytes>>, KvError> {
        self.local.broadcast_get(key)
    }

    fn table_count(&self) -> usize {
        self.local.table_count()
    }
}
