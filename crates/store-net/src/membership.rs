//! Client-side replica-group membership: who is primary for each part
//! slot, at which fencing epoch, and when to give up on a member.
//!
//! The networked store assigns part `p` to slot `p % groups`; each slot is
//! served by a replica group (primary + standbys).  This module tracks the
//! client's view of every group and implements the promotion rules:
//!
//! - **connect refusal or failed handshake** to a fresh connection is
//!   treated as hard evidence the member is gone
//!   ([`Membership::member_unreachable`]) — the member is marked down and,
//!   if it was the primary, a standby is promoted immediately;
//! - **an established connection dying** is softer evidence (a single
//!   sever may be transient), so it only raises a suspicion counter
//!   ([`Membership::record_failure`]); the primary is deposed after
//!   [`SUSPICION_THRESHOLD`] strikes without an intervening success;
//! - **missed heartbeats** accumulate the same way via
//!   [`Membership::record_heartbeat_miss`], with the grace threshold
//!   supplied by the failure detector.
//!
//! Every promotion advances the group's **fencing epoch** by one and is
//! reported through the installed [`StoreEventSink`] and the `failovers`
//! counter.  Single-member groups are exempt from all of this: with no
//! standby to promote, marking the lone member down would only turn a
//! transient fault into a permanent one, so unreplicated deployments keep
//! the plain sever-and-reconnect behaviour.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex, PoisonError};

use ripple_kv::{Counter, MembershipView, ReplicaSet, StoreCounters, StoreEventSink};

/// Established-connection failures tolerated against a primary before a
/// standby is promoted.
pub const SUSPICION_THRESHOLD: u32 = 2;

/// One slot's mutable group state.
#[derive(Debug)]
struct GroupCore {
    primary: usize,
    epoch: u64,
    down: Vec<bool>,
    /// Established-connection failures against the current primary since
    /// its last success.
    suspicion: u32,
    /// Consecutive heartbeat misses against the current primary.
    hb_misses: u32,
}

#[derive(Debug)]
struct GroupState {
    members: Vec<SocketAddr>,
    core: Mutex<GroupCore>,
}

impl GroupState {
    fn lock(&self) -> std::sync::MutexGuard<'_, GroupCore> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The client's membership view over every part slot, shared by the
/// connection pool, the store facade, and the failure detector.
pub struct Membership {
    groups: Vec<GroupState>,
    metrics: Arc<StoreCounters>,
    sink: Mutex<Option<Arc<dyn StoreEventSink>>>,
}

impl std::fmt::Debug for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Membership")
            .field("groups", &self.groups)
            .finish_non_exhaustive()
    }
}

impl Membership {
    /// Builds the membership over `groups`, one address list per part
    /// slot; the first member of each group is the initial primary and
    /// every group starts at epoch 1.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or any group is empty.
    pub fn new(groups: Vec<Vec<SocketAddr>>, metrics: Arc<StoreCounters>) -> Self {
        assert!(!groups.is_empty(), "membership needs at least one group");
        let groups = groups
            .into_iter()
            .map(|members| {
                assert!(!members.is_empty(), "a replica group cannot be empty");
                let n = members.len();
                GroupState {
                    members,
                    core: Mutex::new(GroupCore {
                        primary: 0,
                        epoch: 1,
                        down: vec![false; n],
                        suspicion: 0,
                        hb_misses: 0,
                    }),
                }
            })
            .collect();
        Self {
            groups,
            metrics,
            sink: Mutex::new(None),
        }
    }

    /// Number of part slots (replica groups).
    pub fn slots(&self) -> usize {
        self.groups.len()
    }

    /// Number of members in `slot`'s group.
    pub fn group_size(&self, slot: usize) -> usize {
        self.groups[slot].members.len()
    }

    /// Whether `slot` has standbys (and therefore participates in epoch
    /// fencing and promotion).
    pub fn replicated(&self, slot: usize) -> bool {
        self.group_size(slot) > 1
    }

    /// The address of member `member` of `slot`'s group.
    pub fn member_addr(&self, slot: usize, member: usize) -> SocketAddr {
        self.groups[slot].members[member]
    }

    /// The current primary of `slot`: `(member index, address, epoch)`.
    pub fn primary(&self, slot: usize) -> (usize, SocketAddr, u64) {
        let g = &self.groups[slot];
        let core = g.lock();
        (core.primary, g.members[core.primary], core.epoch)
    }

    /// The fencing epoch of `slot`'s group.
    pub fn epoch(&self, slot: usize) -> u64 {
        self.groups[slot].lock().epoch
    }

    /// Member indices of `slot`'s live standbys (everyone but the primary
    /// that is not marked down).
    pub fn live_standbys(&self, slot: usize) -> Vec<usize> {
        let core = self.groups[slot].lock();
        (0..self.groups[slot].members.len())
            .filter(|&m| m != core.primary && !core.down[m])
            .collect()
    }

    /// Installs (or replaces) the sink that receives part-down and
    /// failover events.
    pub fn set_sink(&self, sink: Arc<dyn StoreEventSink>) {
        *self.sink.lock().unwrap_or_else(PoisonError::into_inner) = Some(sink);
    }

    fn notify(&self, f: impl FnOnce(&dyn StoreEventSink)) {
        let sink = self
            .sink
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(sink) = sink {
            f(sink.as_ref());
        }
    }

    /// Raises the local epoch of `slot` to at least `seen` — called when a
    /// server response proves a newer fence exists (stale-epoch refusal,
    /// or a handshake/ping echoing a higher epoch).
    pub fn observe_epoch(&self, slot: usize, seen: u64) {
        let mut core = self.groups[slot].lock();
        if seen > core.epoch {
            core.epoch = seen;
        }
    }

    /// Advances `slot`'s epoch by one without changing the primary and
    /// returns the new epoch.  An administrative fence: connections
    /// handshaken at the old epoch are refused by servers once any
    /// connection announces the new one.  Exists for tests and tooling.
    pub fn advance_epoch(&self, slot: usize) -> u64 {
        let mut core = self.groups[slot].lock();
        core.epoch += 1;
        core.epoch
    }

    /// Hard evidence member `member` of `slot` is gone (connect refused,
    /// or a fresh connection failed its handshake): marks it down and, if
    /// it was the primary, promotes a standby immediately.  No-op for
    /// single-member groups.  Returns `true` if a promotion happened.
    pub fn member_unreachable(&self, slot: usize, member: usize) -> bool {
        if !self.replicated(slot) {
            return false;
        }
        let g = &self.groups[slot];
        let mut core = g.lock();
        self.mark_down_locked(slot, &mut core, member);
        if core.primary == member {
            return self.promote_locked(slot, &mut core);
        }
        false
    }

    /// Soft evidence against `member` of `slot`: an established connection
    /// died under a request.  Counts one strike against a primary (the
    /// caller must rate-limit to one call per connection); at
    /// `SUSPICION_THRESHOLD` strikes the primary is deposed.  Standbys
    /// get no strikes here — the replicated-write path retries and marks
    /// them down itself.  No-op for single-member groups.  Returns `true`
    /// if a promotion happened.
    pub fn record_failure(&self, slot: usize, member: usize) -> bool {
        if !self.replicated(slot) {
            return false;
        }
        let mut core = self.groups[slot].lock();
        if core.primary != member {
            return false;
        }
        core.suspicion += 1;
        if core.suspicion >= SUSPICION_THRESHOLD {
            let deposed = core.primary;
            self.mark_down_locked(slot, &mut core, deposed);
            return self.promote_locked(slot, &mut core);
        }
        false
    }

    /// A request against `member` of `slot` completed: clears the
    /// suspicion and heartbeat-miss counters if it is the current primary.
    pub fn record_success(&self, slot: usize, member: usize) {
        let mut core = self.groups[slot].lock();
        if core.primary == member {
            core.suspicion = 0;
            core.hb_misses = 0;
        }
    }

    /// A heartbeat against the primary of `slot` went unanswered; after
    /// `grace` consecutive misses the primary is deposed.  No-op for
    /// single-member groups.  Returns `true` if a promotion happened.
    pub fn record_heartbeat_miss(&self, slot: usize, grace: u32) -> bool {
        if !self.replicated(slot) {
            return false;
        }
        let mut core = self.groups[slot].lock();
        core.hb_misses += 1;
        if core.hb_misses >= grace {
            let deposed = core.primary;
            self.mark_down_locked(slot, &mut core, deposed);
            return self.promote_locked(slot, &mut core);
        }
        false
    }

    /// Permanently removes a standby from `slot`'s write set (a
    /// replicated write failed twice against it).  No-op for single-member
    /// groups or when `member` is the current primary.
    pub fn mark_standby_down(&self, slot: usize, member: usize) {
        if !self.replicated(slot) {
            return;
        }
        let mut core = self.groups[slot].lock();
        if core.primary == member {
            return;
        }
        self.mark_down_locked(slot, &mut core, member);
    }

    fn mark_down_locked(&self, slot: usize, core: &mut GroupCore, member: usize) {
        if !core.down[member] {
            core.down[member] = true;
            let epoch = core.epoch;
            self.notify(|s| s.on_part_down(slot_part(slot), epoch));
        }
    }

    /// Promotes the next live standby of `slot`.  Returns `false` (leaving
    /// the deposed primary in place, still down) when no live standby
    /// remains — the group is lost and requests keep failing transiently.
    fn promote_locked(&self, slot: usize, core: &mut GroupCore) -> bool {
        let n = core.down.len();
        let Some(next) = (1..n)
            .map(|step| (core.primary + step) % n)
            .find(|&m| !core.down[m])
        else {
            return false;
        };
        core.primary = next;
        core.epoch += 1;
        core.suspicion = 0;
        core.hb_misses = 0;
        let epoch = core.epoch;
        self.metrics.add(None, Counter::Failovers, 1);
        self.notify(|s| s.on_failover(slot_part(slot), epoch));
        true
    }

    /// A snapshot of every group for callers outside the store.
    pub fn view(&self) -> MembershipView<SocketAddr> {
        MembershipView {
            groups: self
                .groups
                .iter()
                .map(|g| {
                    let core = g.lock();
                    ReplicaSet {
                        members: g.members.clone(),
                        primary: core.primary,
                        epoch: core.epoch,
                        down: core.down.clone(),
                    }
                })
                .collect(),
        }
    }
}

/// The representative part number for a slot in failure events: the
/// lowest part id the slot serves (`part % slots == slot` ⇒ part `slot`
/// itself).
fn slot_part(slot: usize) -> u32 {
    u32::try_from(slot).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn addr(port: u16) -> SocketAddr {
        (std::net::Ipv4Addr::LOCALHOST, port).into()
    }

    fn replicated3() -> Membership {
        Membership::new(
            vec![vec![addr(1), addr(2), addr(3)]],
            Arc::new(StoreCounters::new()),
        )
    }

    #[test]
    fn unreachable_primary_promotes_immediately() {
        let m = replicated3();
        assert_eq!(m.primary(0), (0, addr(1), 1));
        assert!(m.member_unreachable(0, 0));
        assert_eq!(m.primary(0), (1, addr(2), 2));
        // A standby going unreachable marks it down without promotion.
        assert!(!m.member_unreachable(0, 2));
        assert_eq!(m.primary(0), (1, addr(2), 2));
        assert_eq!(m.live_standbys(0), Vec::<usize>::new());
    }

    #[test]
    fn suspicion_needs_two_strikes_and_resets_on_success() {
        let m = replicated3();
        assert!(!m.record_failure(0, 0));
        m.record_success(0, 0);
        assert!(!m.record_failure(0, 0), "success reset the first strike");
        assert!(m.record_failure(0, 0));
        assert_eq!(m.primary(0).0, 1);
    }

    #[test]
    fn heartbeat_misses_depose_at_grace() {
        let m = replicated3();
        assert!(!m.record_heartbeat_miss(0, 3));
        assert!(!m.record_heartbeat_miss(0, 3));
        assert!(m.record_heartbeat_miss(0, 3));
        assert_eq!(m.primary(0), (1, addr(2), 2));
    }

    #[test]
    fn single_member_groups_never_promote_or_mark_down() {
        let m = Membership::new(vec![vec![addr(9)]], Arc::new(StoreCounters::new()));
        assert!(!m.member_unreachable(0, 0));
        assert!(!m.record_failure(0, 0));
        assert!(!m.record_failure(0, 0));
        assert!(!m.record_heartbeat_miss(0, 1));
        assert_eq!(m.primary(0), (0, addr(9), 1));
        assert!(!m.view().groups[0].down[0]);
    }

    #[test]
    fn promotion_exhaustion_leaves_group_lost() {
        let m = Membership::new(vec![vec![addr(1), addr(2)]], Arc::new(StoreCounters::new()));
        assert!(m.member_unreachable(0, 0));
        assert!(!m.member_unreachable(0, 1), "no standby left to promote");
        let view = m.view();
        assert!(view.groups[0].down.iter().all(|d| *d));
    }

    #[test]
    fn epochs_observe_and_advance() {
        let m = replicated3();
        m.observe_epoch(0, 5);
        assert_eq!(m.epoch(0), 5);
        m.observe_epoch(0, 3);
        assert_eq!(m.epoch(0), 5, "observe never lowers the epoch");
        assert_eq!(m.advance_epoch(0), 6);
    }

    #[test]
    fn promotions_count_failovers_and_fire_the_sink() {
        struct Counting {
            downs: AtomicU64,
            fails: AtomicU64,
        }
        impl StoreEventSink for Counting {
            fn on_part_down(&self, part: u32, _epoch: u64) {
                assert_eq!(part, 0);
                self.downs.fetch_add(1, Ordering::Relaxed);
            }
            fn on_failover(&self, part: u32, epoch: u64) {
                assert_eq!(part, 0);
                assert_eq!(epoch, 2);
                self.fails.fetch_add(1, Ordering::Relaxed);
            }
        }
        let metrics = Arc::new(StoreCounters::new());
        let m = Membership::new(vec![vec![addr(1), addr(2)]], Arc::clone(&metrics));
        let sink = Arc::new(Counting {
            downs: AtomicU64::new(0),
            fails: AtomicU64::new(0),
        });
        m.set_sink(Arc::clone(&sink) as Arc<dyn StoreEventSink>);
        assert!(m.member_unreachable(0, 0));
        assert_eq!(sink.downs.load(Ordering::Relaxed), 1);
        assert_eq!(sink.fails.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.metrics().failovers, 1);
    }
}
