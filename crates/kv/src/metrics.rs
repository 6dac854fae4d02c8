use std::fmt;
use std::ops::{Add, Sub};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::PartId;

/// Histogram of request latencies in power-of-two microsecond buckets.
///
/// Bucket `i` counts requests whose latency fell in `[2^i, 2^(i+1))`
/// microseconds (bucket 0 additionally absorbs sub-microsecond requests;
/// the last bucket absorbs everything slower).  Twelve buckets therefore
/// span 1 µs to ~2 s — the useful range for an RPC on anything from
/// loopback to a congested datacenter link — in a fixed-size, `Copy`
/// value that subtracts field-wise like the rest of [`StoreMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyBuckets(pub [u64; LatencyBuckets::BUCKETS]);

impl LatencyBuckets {
    /// Number of buckets.
    pub const BUCKETS: usize = 12;

    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self([0; Self::BUCKETS])
    }

    /// The bucket index a latency of `us` microseconds falls in.
    #[must_use]
    pub fn bucket_for(us: u64) -> usize {
        (us.max(1).ilog2() as usize).min(Self::BUCKETS - 1)
    }

    /// Records one request of `us` microseconds.
    pub fn observe_us(&mut self, us: u64) {
        self.0[Self::bucket_for(us)] += 1;
    }

    /// Total requests recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// An upper bound (in microseconds) on the latency quantile
    /// `q_ppm`, in parts per million of the distribution (the same
    /// convention the chaos layer uses for probabilities): the
    /// exclusive upper edge of the bucket the quantile falls in, or 0
    /// for an empty histogram.  Integer arithmetic throughout, so the
    /// answer is exact and platform-independent.
    #[must_use]
    pub fn quantile_upper_us(&self, q_ppm: u32) -> u64 {
        const MILLION: u128 = 1_000_000;
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let scaled = u128::from(q_ppm.min(1_000_000)) * u128::from(total);
        let rank = scaled.div_ceil(MILLION).max(1);
        let mut seen: u128 = 0;
        for (i, count) in self.0.iter().enumerate() {
            seen += u128::from(*count);
            if seen >= rank {
                return 1 << (i + 1);
            }
        }
        1 << Self::BUCKETS
    }

    /// Field-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &LatencyBuckets) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }
}

impl Default for LatencyBuckets {
    fn default() -> Self {
        Self::new()
    }
}

impl Sub for LatencyBuckets {
    type Output = LatencyBuckets;

    fn sub(self, rhs: LatencyBuckets) -> LatencyBuckets {
        let mut out = self;
        for (a, b) in out.0.iter_mut().zip(rhs.0.iter()) {
            *a = a.saturating_sub(*b);
        }
        out
    }
}

/// Declares the scalar store counters once.  The one invocation below
/// expands to the [`StoreMetrics`] fields, the [`Counter`] that names each
/// of them to a [`StoreCounters`] block, field-wise `Add`/`Sub`, and the
/// `(name, value)` walk renderers iterate — so a counter cannot be
/// collected and not reported, nor be added to one list and not another.
macro_rules! store_counters {
    ($($(#[doc = $doc:literal])+ $variant:ident: $field:ident,)+) => {
        /// Snapshot of a store's operation and marshalling counters.
        ///
        /// The Ripple evaluation leans on the distinction the debugging store
        /// makes: "communication between emulated partitions involves
        /// marshalling, while local operations do not".  These counters let
        /// the engine and the experiment harnesses report exactly how much
        /// crossing happened.
        ///
        /// This is a passive data snapshot, so its fields are public.
        /// Subtracting two snapshots gives the deltas for an interval; adding
        /// part snapshots rebuilds a store-wide one.  The field names are
        /// frozen: the out-of-tree `benchmark/` package reads them by name.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StoreMetrics {
            $($(#[doc = $doc])+ pub $field: u64,)+
            /// Request-latency histogram for the networked operations counted
            /// in [`StoreMetrics::rpcs`], measured send-to-completion.
            pub rpc_latency: LatencyBuckets,
        }

        /// One scalar [`StoreMetrics`] counter, as a store bumps it in its
        /// [`StoreCounters`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])+ $variant,)+
        }

        const COUNTERS: usize = [$(stringify!($field)),+].len();

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: [Counter; COUNTERS] = [$(Counter::$variant),+];
        }

        impl StoreMetrics {
            /// Every scalar counter as `(field name, value)`, in declaration
            /// order — the order renderers emit them in.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field)),+].into_iter()
            }

            fn from_cell(cell: &Cell) -> StoreMetrics {
                let [$($field),+] = cell.each_ref().map(|c| c.load(Ordering::Relaxed));
                StoreMetrics { $($field,)+ rpc_latency: LatencyBuckets::new() }
            }
        }

        impl Add for StoreMetrics {
            type Output = StoreMetrics;

            fn add(self, rhs: StoreMetrics) -> StoreMetrics {
                let mut rpc_latency = self.rpc_latency;
                rpc_latency.merge(&rhs.rpc_latency);
                StoreMetrics { $($field: self.$field + rhs.$field,)+ rpc_latency }
            }
        }

        impl Sub for StoreMetrics {
            type Output = StoreMetrics;

            fn sub(self, rhs: StoreMetrics) -> StoreMetrics {
                StoreMetrics {
                    $($field: self.$field.saturating_sub(rhs.$field),)+
                    rpc_latency: self.rpc_latency - rhs.rpc_latency,
                }
            }
        }
    };
}

store_counters! {
    /// Operations served without crossing a part boundary.
    LocalOps: local_ops,
    /// Operations that crossed a part boundary (request/response marshalled).
    RemoteOps: remote_ops,
    /// Bytes marshalled across part boundaries (keys + values, both ways).
    BytesMarshalled: bytes_marshalled,
    /// Mobile-code tasks dispatched to parts.
    TasksDispatched: tasks_dispatched,
    /// Long-running enumerations served by the long-operation lanes.
    Enumerations: enumerations,
    /// Bytes appended to write-ahead logs.  Zero on memory-only backends.
    WalBytes: wal_bytes,
    /// `fsync`-class flushes issued to make log or snapshot bytes durable.
    /// Zero on memory-only backends.
    Fsyncs: fsyncs,
    /// Log records replayed while rebuilding memtables on open or rewind.
    /// Zero on memory-only backends.
    ReplayedRecords: replayed_records,
    /// Requests sent over a network connection.  Zero on in-process
    /// backends.
    Rpcs: rpcs,
    /// Bytes received from the network (frame bytes, headers included).
    /// Zero on in-process backends.
    NetBytesIn: net_bytes_in,
    /// Bytes written to the network (frame bytes, headers included).
    /// Zero on in-process backends.
    NetBytesOut: net_bytes_out,
    /// Operations the store re-issued internally (fencing handshake redos,
    /// stale-epoch refreshes) — retries *below* the engine's own retry
    /// policy.  Zero on in-process backends.
    Retries: retries,
    /// Network bytes attributable to retried or reconnect traffic: frame
    /// bytes re-sent after a stale-epoch refresh, a fencing handshake redo,
    /// a standby write retry, or a reconnect handshake.  Always a subset of
    /// the traffic already counted in [`StoreMetrics::net_bytes_out`], kept
    /// separately so cost accounting can report the useful h-relation
    /// (first-attempt bytes) under chaos.  Zero on in-process backends.
    RetryBytes: retry_bytes,
    /// Connections opened to a destination beyond its first — each one is
    /// a heal after a lost or severed connection.  Zero on in-process
    /// backends.
    Reconnects: reconnects,
    /// Primary promotions: a replica group's primary was declared down and
    /// a standby took over at a higher epoch.  Zero on in-process and
    /// unreplicated backends.
    Failovers: failovers,
    /// Batched writes applied (one per [`Table::put_batch`](crate::Table::put_batch)
    /// flush in-process, one per coalesced `REQ_PUT_BATCH` frame over the
    /// wire).  Each batch stands in for `len` per-record operations that
    /// were *not* issued individually.
    NetBatches: net_batches,
    /// Records folded away by a bound combiner
    /// ([`KvStore::bind_combiner`](crate::KvStore::bind_combiner)) instead
    /// of being stored or sent: server-side folds into the resident value
    /// plus client-side pre-combines of duplicate-key batch records.
    CombinedRecords: combined_records,
}

impl StoreMetrics {
    /// Total operations, local and remote.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.local_ops + self.remote_ops
    }
}

/// One scope's counters, indexed by [`Counter`].
type Cell = [AtomicU64; COUNTERS];

/// Part `p` lives in segment `ilog2(p + 1)`; part ids are `u32`, so 33
/// segments of doubling length hold them all.
const SEGMENTS: usize = 33;

/// The atomic counter block every store counts through.
///
/// It holds one cell of counters per part, created the first time the
/// part is counted, one cell for traffic no single part served, and the
/// store-wide [`StoreMetrics::rpc_latency`] histogram.  Every event bumps
/// exactly one cell, and the store-wide snapshot is *derived*:
/// [`StoreCounters::metrics`] is the unattributed cell plus the sum of
/// [`StoreCounters::part_metrics`].  Part cells live in segments of
/// doubling length that are allocated once and never move, so counting is
/// one relaxed `fetch_add` with no lock.
#[derive(Debug)]
pub struct StoreCounters {
    unattributed: Cell,
    parts: [OnceLock<Box<[Cell]>>; SEGMENTS],
    /// One past the highest part counted so far.  Relaxed: it publishes
    /// no data — a reader that sees it before the part's segment reads
    /// the part as all zeros.
    touched: AtomicUsize,
    rpc_latency: [AtomicU64; LatencyBuckets::BUCKETS],
}

impl Default for StoreCounters {
    fn default() -> Self {
        Self {
            unattributed: Cell::default(),
            parts: std::array::from_fn(|_| OnceLock::new()),
            touched: AtomicUsize::new(0),
            rpc_latency: Default::default(),
        }
    }
}

impl StoreCounters {
    /// An all-zero block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts `n` more of `counter` against `part`, or against no part.
    #[inline]
    pub fn add(&self, part: Option<PartId>, counter: Counter, n: u64) {
        self.cell(part)[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Records one request latency measured from `start`.
    pub fn observe_latency(&self, start: Instant) {
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.rpc_latency[LatencyBuckets::bucket_for(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// The store-wide snapshot: unattributed traffic plus every part's,
    /// with the latency histogram.
    #[must_use]
    pub fn metrics(&self) -> StoreMetrics {
        let unattributed = StoreMetrics {
            rpc_latency: LatencyBuckets(
                self.rpc_latency
                    .each_ref()
                    .map(|b| b.load(Ordering::Relaxed)),
            ),
            ..StoreMetrics::from_cell(&self.unattributed)
        };
        self.part_metrics().into_iter().fold(unattributed, Add::add)
    }

    /// One snapshot per part, indexed by part id, up to the highest part
    /// counted so far.
    #[must_use]
    pub fn part_metrics(&self) -> Vec<StoreMetrics> {
        (0..self.touched.load(Ordering::Relaxed))
            .map(|index| {
                let (segment, offset) = locate(index);
                self.parts[segment]
                    .get()
                    .map_or_else(StoreMetrics::default, |cells| {
                        StoreMetrics::from_cell(&cells[offset])
                    })
            })
            .collect()
    }

    /// The cell `part` counts into, created on its first use.
    #[inline]
    fn cell(&self, part: Option<PartId>) -> &Cell {
        let Some(part) = part else {
            return &self.unattributed;
        };
        let (segment, offset) = locate(part.index());
        let cells = self.parts[segment]
            .get_or_init(|| (0..1usize << segment).map(|_| Cell::default()).collect());
        if self.touched.load(Ordering::Relaxed) <= part.index() {
            self.touched.fetch_max(part.index() + 1, Ordering::Relaxed);
        }
        &cells[offset]
    }
}

/// The segment holding part `index`, and its offset there.
#[inline]
fn locate(index: usize) -> (usize, usize) {
    let slot = index + 1;
    let segment = slot.ilog2() as usize;
    (segment, slot - (1 << segment))
}

impl fmt::Display for StoreMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ops: {} local / {} remote, {} B marshalled, {} tasks, {} enumerations",
            self.local_ops,
            self.remote_ops,
            self.bytes_marshalled,
            self.tasks_dispatched,
            self.enumerations
        )?;
        // Durability counters only appear where a durable backend is in
        // play; memory-only stores leave them at zero and print compactly.
        if self.wal_bytes != 0 || self.fsyncs != 0 || self.replayed_records != 0 {
            write!(
                f,
                ", {} B WAL, {} fsyncs, {} replayed",
                self.wal_bytes, self.fsyncs, self.replayed_records
            )?;
        }
        // Network counters only appear on a networked backend; in-process
        // stores leave them at zero and print compactly.
        if self.rpcs != 0 || self.net_bytes_in != 0 || self.net_bytes_out != 0 {
            write!(
                f,
                ", {} rpcs, {} B in / {} B out, p99 ≤ {} µs",
                self.rpcs,
                self.net_bytes_in,
                self.net_bytes_out,
                self.rpc_latency.quantile_upper_us(990_000)
            )?;
        }
        // Batching counters only appear once a batched write or a combiner
        // fold has actually happened; unbatched runs print compactly.
        if self.net_batches != 0 || self.combined_records != 0 {
            write!(
                f,
                ", {} batches, {} combined",
                self.net_batches, self.combined_records
            )?;
        }
        // Failure-handling counters only appear when something actually
        // went wrong (or over); healthy runs print compactly.
        if self.retries != 0 || self.reconnects != 0 || self.failovers != 0 {
            write!(
                f,
                ", {} store retries, {} reconnects, {} failovers",
                self.retries, self.reconnects, self.failovers
            )?;
        }
        if self.retry_bytes != 0 {
            write!(f, ", {} retry B", self.retry_bytes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "latency needs a real instant")]
mod tests {
    use super::*;

    /// A block with the `i`-th counter (from 1, declaration order) at
    /// `base * i` on `part`.
    fn distinct(part: Option<PartId>, base: u64) -> StoreCounters {
        let counters = StoreCounters::new();
        for (i, counter) in (1u64..).zip(Counter::ALL) {
            counters.add(part, counter, base * i);
        }
        counters
    }

    #[test]
    fn snapshot_reflects_counters() {
        // Every counter round-trips add -> snapshot -> its own field.
        let counters = distinct(Some(PartId(2)), 1);
        counters.add(None, Counter::LocalOps, 100);
        counters.add(Some(PartId(0)), Counter::Rpcs, 7);
        counters.observe_latency(Instant::now());
        let parts = counters.part_metrics();
        assert_eq!(parts.len(), 3, "parts 0..=2 exist once 2 is counted");
        assert_eq!(parts[1], StoreMetrics::default());
        assert_eq!(parts[0].counters().filter(|(_, v)| *v != 0).count(), 1);
        assert_eq!(parts[0].rpcs, 7);
        for (i, (name, value)) in (1u64..).zip(parts[2].counters()) {
            assert_eq!(value, i, "{name}");
        }
        // The store-wide snapshot is the unattributed cell plus every part.
        let m = counters.metrics();
        assert_eq!(m.rpc_latency.total(), 1);
        assert_eq!(parts[2].rpc_latency.total(), 0, "latency is store-wide");
        let unattributed = StoreMetrics {
            local_ops: 100,
            rpc_latency: m.rpc_latency,
            ..StoreMetrics::default()
        };
        assert_eq!(m, parts.into_iter().fold(unattributed, Add::add));
        // Segments double: part 6 is the last of segment 2, part 7 opens 3.
        for part in [6, 7, 1000] {
            counters.add(Some(PartId(part)), Counter::Fsyncs, 1);
        }
        let parts = counters.part_metrics();
        assert_eq!(parts.len(), 1001);
        assert_eq!(parts.iter().map(|p| p.fsyncs).sum::<u64>(), 7 + 3);
        assert_eq!(parts[6].fsyncs + parts[7].fsyncs + parts[1000].fsyncs, 3);
    }

    #[test]
    fn deltas_subtract_fieldwise() {
        let [a, b, later] = [10, 4, 30].map(|base| distinct(None, base).metrics());
        let deltas = (later - a).counters().zip((b - a).counters());
        for (i, ((name, d), (_, back))) in (1u64..).zip(deltas) {
            assert_eq!(d, 20 * i, "{name} subtracts");
            assert_eq!(back, 0, "{name} saturates");
        }
        assert_eq!(a + (later - a), later);
    }

    #[test]
    fn latency_buckets_observe_and_quantile() {
        let mut h = LatencyBuckets::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.quantile_upper_us(500_000), 0);
        h.observe_us(0); // clamps into bucket 0
        h.observe_us(1);
        h.observe_us(3);
        h.observe_us(100);
        h.observe_us(u64::MAX); // clamps into the last bucket
        assert_eq!(h.total(), 5);
        assert_eq!(LatencyBuckets::bucket_for(1), 0);
        assert_eq!(LatencyBuckets::bucket_for(3), 1);
        assert_eq!(LatencyBuckets::bucket_for(100), 6);
        assert_eq!(LatencyBuckets::bucket_for(u64::MAX), 11);
        // Two of five fall in bucket 0, so the 0.4 quantile ends there.
        assert_eq!(h.quantile_upper_us(400_000), 2);
        // The slowest observation dominates the tail.
        assert_eq!(h.quantile_upper_us(1_000_000), 1 << 12);
        let mut merged = LatencyBuckets::new();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.total(), 10);
        assert_eq!((merged - h).total(), 5);
    }

    #[test]
    fn display_mentions_network_only_when_nonzero() {
        assert!(!StoreMetrics::default().to_string().contains("rpcs"));
        let netted = StoreMetrics {
            rpcs: 7,
            net_bytes_in: 100,
            net_bytes_out: 50,
            ..StoreMetrics::default()
        }
        .to_string();
        assert!(netted.contains("7 rpcs"));
        assert!(netted.contains("100 B in / 50 B out"));
        assert!(!netted.contains("batches"));
        let batched = StoreMetrics {
            net_batches: 4,
            combined_records: 9,
            ..StoreMetrics::default()
        }
        .to_string();
        assert!(batched.contains("4 batches"));
        assert!(batched.contains("9 combined"));
    }

    #[test]
    fn display_mentions_failover_only_when_nonzero() {
        assert!(!StoreMetrics::default().to_string().contains("failovers"));
        let failed_over = StoreMetrics {
            retries: 2,
            retry_bytes: 64,
            reconnects: 3,
            failovers: 1,
            ..StoreMetrics::default()
        }
        .to_string();
        assert!(failed_over.contains("2 store retries"));
        assert!(failed_over.contains("3 reconnects"));
        assert!(failed_over.contains("1 failovers"));
        assert!(failed_over.contains("64 retry B"));
        assert!(!StoreMetrics::default().to_string().contains("retry B"));
    }

    #[test]
    fn display_not_empty() {
        assert!(!StoreMetrics::default().to_string().is_empty());
    }

    #[test]
    fn display_mentions_durability_only_when_nonzero() {
        let zeroed = StoreMetrics::default().to_string();
        assert!(!zeroed.contains("WAL"));
        let durable = StoreMetrics {
            wal_bytes: 1024,
            fsyncs: 3,
            replayed_records: 12,
            ..StoreMetrics::default()
        }
        .to_string();
        assert!(durable.contains("1024 B WAL"));
        assert!(durable.contains("3 fsyncs"));
        assert!(durable.contains("12 replayed"));
    }
}
