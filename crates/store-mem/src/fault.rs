//! Seeded, scriptable fault injection for [`MemStore`](crate::MemStore).
//!
//! A [`FaultPlan`] describes *what* can go wrong — probabilistic transient
//! get/put/delete failures, a scripted part crash at the Nth operation,
//! scripted transient drain and table-handle batch failures, artificial
//! latency — and a seed that makes every decision reproducible.
//! The store consults the plan on each part-view operation (the path mobile
//! code and the EBSP engines use) and records every injected fault in a
//! trace, so a chaos test can assert that the same seed produces the same
//! faults run after run.  A batched read or write is one operation: it
//! rolls once, as the engine retries it once, whatever its length.
//!
//! Decisions are a pure function of `(seed, part, per-part op index, op)`:
//! each part keeps its own operation counter, so a plan replays identically
//! regardless of how the scheduler interleaves parts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

/// The operation kinds faults can be injected into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultOp {
    /// A part-view read.
    Get,
    /// A part-view write.
    Put,
    /// A part-view delete.
    Delete,
    /// A part-view drain ([`FaultPlan::transient_drains`]).
    Drain,
    /// A table-handle `put_batch` ([`FaultPlan::transient_batches`]).
    Batch,
}

impl FaultOp {
    /// Stable lowercase name, used in [`KvError::Transient`]'s `op` field.
    ///
    /// [`KvError::Transient`]: ripple_kv::KvError::Transient
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Get => "get",
            FaultOp::Put => "put",
            FaultOp::Delete => "delete",
            FaultOp::Drain => "drain",
            FaultOp::Batch => "put_batch",
        }
    }

    fn salt(self) -> u64 {
        match self {
            FaultOp::Get => 0x67,
            FaultOp::Put => 0x70,
            FaultOp::Delete => 0x64,
            FaultOp::Drain => 0x72,
            FaultOp::Batch => 0x62,
        }
    }
}

/// What the injector did to one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The operation failed with [`KvError::Transient`](ripple_kv::KvError).
    Transient,
    /// The whole part was crashed (primaries cleared, part marked failed).
    Crash,
    /// The operation was delayed but succeeded.
    Latency,
}

/// One injected fault, as recorded in the trace.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultRecord {
    /// The part issuing the faulted operation.
    pub part: u32,
    /// The part's operation index (1-based) at the fault; for the
    /// scripted [`FaultOp::Drain`] and [`FaultOp::Batch`] faults, the
    /// ordinal of the operation among the issuer's operations of that kind
    /// against the same table.
    pub op_index: u64,
    /// The operation kind.
    pub op: FaultOp,
    /// What was injected.
    pub kind: FaultKind,
}

/// A reproducible fault script for a [`MemStore`](crate::MemStore).
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use ripple_store_mem::{FaultPlan, MemStore};
///
/// let plan = FaultPlan::seeded(42)
///     .transient_ops(0.02)
///     .latency(0.01, Duration::from_micros(100))
///     .crash_part(1, 500);
/// let store = MemStore::builder().default_parts(4).fault_plan(plan).build();
/// # let _ = store;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    get_fail: f64,
    put_fail: f64,
    delete_fail: f64,
    drain_fails: u32,
    batch_fails: u32,
    crash: Option<(u32, u64)>,
    latency_prob: f64,
    latency: Duration,
}

impl FaultPlan {
    /// Starts an empty plan (no faults) reproducible from `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            get_fail: 0.0,
            put_fail: 0.0,
            delete_fail: 0.0,
            drain_fails: 0,
            batch_fails: 0,
            crash: None,
            latency_prob: 0.0,
            latency: Duration::ZERO,
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Probability in `[0, 1]` that any one part-view get or `get_batch`
    /// fails transiently.
    pub fn transient_gets(mut self, probability: f64) -> Self {
        self.get_fail = probability.clamp(0.0, 1.0);
        self
    }

    /// Probability in `[0, 1]` that any one part-view put fails
    /// transiently.
    pub fn transient_puts(mut self, probability: f64) -> Self {
        self.put_fail = probability.clamp(0.0, 1.0);
        self
    }

    /// Probability in `[0, 1]` that any one part-view delete fails
    /// transiently.
    pub fn transient_deletes(mut self, probability: f64) -> Self {
        self.delete_fail = probability.clamp(0.0, 1.0);
        self
    }

    /// Sets the same transient-failure probability for gets, puts and
    /// deletes.
    pub fn transient_ops(self, probability: f64) -> Self {
        self.transient_gets(probability)
            .transient_puts(probability)
            .transient_deletes(probability)
    }

    /// Fails each part's first `count` part-view drains of each table
    /// transiently, before anything is drained.  Scripted rather than
    /// rolled, and counted apart from the per-part operation index, so
    /// adding it to a plan moves no other fault.
    pub fn transient_drains(mut self, count: u32) -> Self {
        self.drain_fails = count;
        self
    }

    /// Fails transiently, before any record is applied, the first `count`
    /// table-handle `put_batch` calls each issuer — a part task, or the
    /// controller (recorded as part `u32::MAX`) — makes against each
    /// table.  Scripted and counted like [`FaultPlan::transient_drains`].
    pub fn transient_batches(mut self, count: u32) -> Self {
        self.batch_fails = count;
        self
    }

    /// Crashes `part` (clears its primaries across the co-partitioned
    /// group and marks it failed) when the part issues its `at_op`-th
    /// operation.  At most one crash fires per store; recovery APIs bring
    /// the part back.
    pub fn crash_part(mut self, part: u32, at_op: u64) -> Self {
        self.crash = Some((part, at_op.max(1)));
        self
    }

    /// With `probability`, delays an operation by `delay` before it
    /// executes normally.
    pub fn latency(mut self, probability: f64, delay: Duration) -> Self {
        self.latency_prob = probability.clamp(0.0, 1.0);
        self.latency = delay;
        self
    }
}

/// What the store should do to the current operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Fail with [`KvError::Transient`](ripple_kv::KvError).
    Fail,
    /// Crash the issuing part, then fail with `PartFailed`.
    Crash,
    /// Sleep, then proceed.
    Delay(Duration),
}

/// SplitMix64 finalizer over a composed decision key; uniform in `[0, 1)`.
fn roll(seed: u64, part: u32, op_index: u64, salt: u64) -> f64 {
    let mut z = seed
        .wrapping_add(u64::from(part).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(op_index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(salt.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Shared fault-decision engine, one per store.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    /// Per-part operation counters; decisions key off these, not off any
    /// global order, so traces are schedule-independent.
    ops: Mutex<HashMap<u32, u64>>,
    /// How many scripted drain/batch operations each (issuer, kind, table)
    /// has made, up to the plan's failure count.
    scripted: Mutex<HashMap<(u32, FaultOp, String), u32>>,
    crash_fired: AtomicBool,
    trace: Mutex<Vec<FaultRecord>>,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            ops: Mutex::new(HashMap::new()),
            scripted: Mutex::new(HashMap::new()),
            crash_fired: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
        }
    }

    /// Decides the fate of one part-view operation.
    pub(crate) fn decide(&self, part: u32, op: FaultOp) -> Option<FaultAction> {
        let op_index = {
            let mut ops = self.ops.lock();
            let counter = ops.entry(part).or_insert(0);
            *counter += 1;
            *counter
        };
        if let Some((crash_part, at_op)) = self.plan.crash {
            if crash_part == part
                && op_index >= at_op
                && !self.crash_fired.swap(true, Ordering::AcqRel)
            {
                self.record(part, op_index, op, FaultKind::Crash);
                return Some(FaultAction::Crash);
            }
        }
        let fail_prob = match op {
            FaultOp::Get => self.plan.get_fail,
            FaultOp::Put => self.plan.put_fail,
            FaultOp::Delete => self.plan.delete_fail,
            // Scripted, not rolled: see `decide_scripted`.
            FaultOp::Drain | FaultOp::Batch => 0.0,
        };
        if fail_prob > 0.0 && roll(self.plan.seed, part, op_index, op.salt()) < fail_prob {
            self.record(part, op_index, op, FaultKind::Transient);
            return Some(FaultAction::Fail);
        }
        if self.plan.latency_prob > 0.0
            && roll(
                self.plan.seed ^ 0x6c61_7465_6e63_7921,
                part,
                op_index,
                op.salt(),
            ) < self.plan.latency_prob
        {
            self.record(part, op_index, op, FaultKind::Latency);
            return Some(FaultAction::Delay(self.plan.latency));
        }
        None
    }

    /// Whether this drain or table-handle batch — one more of `part`'s
    /// operations of kind `op` against `table` — is scripted to fail.
    pub(crate) fn decide_scripted(&self, part: u32, op: FaultOp, table: &str) -> bool {
        let limit = match op {
            FaultOp::Drain => self.plan.drain_fails,
            FaultOp::Batch => self.plan.batch_fails,
            FaultOp::Get | FaultOp::Put | FaultOp::Delete => 0,
        };
        if limit == 0 {
            return false;
        }
        let mut scripted = self.scripted.lock();
        let seen = scripted.entry((part, op, table.to_owned())).or_insert(0);
        if *seen == limit {
            return false;
        }
        *seen += 1;
        self.record(part, u64::from(*seen), op, FaultKind::Transient);
        true
    }

    fn record(&self, part: u32, op_index: u64, op: FaultOp, kind: FaultKind) {
        self.trace.lock().push(FaultRecord {
            part,
            op_index,
            op,
            kind,
        });
    }

    /// The injected faults so far, sorted by `(part, op_index)` so two runs
    /// compare equal regardless of cross-part interleaving.
    pub(crate) fn trace(&self) -> Vec<FaultRecord> {
        let mut out = self.trace.lock().clone();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(injector: &FaultInjector, parts: u32, ops_per_part: u64) {
        for part in 0..parts {
            for _ in 0..ops_per_part {
                let _ = injector.decide(part, FaultOp::Get);
                let _ = injector.decide(part, FaultOp::Put);
            }
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let plan = FaultPlan::seeded(7).transient_ops(0.1);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        drive(&a, 4, 200);
        drive(&b, 4, 200);
        let trace = a.trace();
        assert!(!trace.is_empty(), "0.1 over 1600 ops should fault");
        assert_eq!(trace, b.trace());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultInjector::new(FaultPlan::seeded(1).transient_ops(0.1));
        let b = FaultInjector::new(FaultPlan::seeded(2).transient_ops(0.1));
        drive(&a, 4, 200);
        drive(&b, 4, 200);
        assert_ne!(a.trace(), b.trace());
    }

    #[test]
    fn trace_is_schedule_independent() {
        // Same ops per part, issued in opposite part orders.
        let plan = FaultPlan::seeded(99).transient_ops(0.2);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        for part in 0..3u32 {
            for _ in 0..50 {
                let _ = a.decide(part, FaultOp::Delete);
            }
        }
        for part in (0..3u32).rev() {
            for _ in 0..50 {
                let _ = b.decide(part, FaultOp::Delete);
            }
        }
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn crash_fires_exactly_once_at_threshold() {
        let injector = FaultInjector::new(FaultPlan::seeded(0).crash_part(2, 5));
        for i in 1..=10u64 {
            let action = injector.decide(2, FaultOp::Put);
            if i < 5 {
                assert_eq!(action, None, "op {i} should pass");
            } else if i == 5 {
                assert_eq!(action, Some(FaultAction::Crash));
            } else {
                assert_eq!(action, None, "crash must fire once, op {i}");
            }
        }
        // Other parts never crash.
        for _ in 0..10 {
            assert_eq!(injector.decide(0, FaultOp::Put), None);
        }
        let trace = injector.trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].kind, FaultKind::Crash);
        assert_eq!(trace[0].part, 2);
        assert_eq!(trace[0].op_index, 5);
    }

    #[test]
    fn zero_probabilities_inject_nothing() {
        let injector = FaultInjector::new(FaultPlan::seeded(3));
        drive(&injector, 4, 100);
        assert!(injector.trace().is_empty());
    }

    #[test]
    fn latency_decisions_are_recorded() {
        let injector =
            FaultInjector::new(FaultPlan::seeded(11).latency(1.0, Duration::from_micros(1)));
        assert_eq!(
            injector.decide(0, FaultOp::Get),
            Some(FaultAction::Delay(Duration::from_micros(1)))
        );
        assert_eq!(injector.trace()[0].kind, FaultKind::Latency);
    }
}
