//! Distributed termination detection for unsynchronized execution.
//!
//! The paper detects distributed termination "essentially by Huang's
//! algorithm" [Huang 1989].  This is Huang's weight-throwing scheme with
//! integer weights and minting: instead of splitting a fixed rational
//! weight (which can exhaust), the controller *mints* fresh atoms of weight
//! whenever a sender needs them, growing the outstanding total.  The
//! invariant is identical to Huang's:
//!
//! > every message in flight, and every busy worker, holds at least one
//! > un-returned atom; therefore `returned == total` implies global
//! > quiescence.
//!
//! Protocol obligations for workers:
//!
//! 1. call [`WeightThrow::mint`] for each message **before** sending it and
//!    attach the minted weight to the message;
//! 2. accumulate the weights of consumed messages and call
//!    [`WeightThrow::give_back`] only **after** all processing of those
//!    messages — including the mint+send of any resulting messages — is
//!    done.
//!
//! Under those rules, [`WeightThrow::quiescent`] never reports `true` while
//! work remains (see the property test below), and always eventually
//! reports `true` once the system drains.
//!
//! The detector also carries the wakeup channel for whoever watches it:
//! [`WeightThrow::wait_until`] sleeps on a condition variable that
//! [`WeightThrow::give_back`] signals when the outstanding weight drains
//! (and that [`WeightThrow::notify`] signals for out-of-band events such
//! as a recorded failure), so a watcher needs no polling loop — its only
//! timed wait is the caller's deadline.

// Under `--cfg loom` the synchronization primitives come from the loom
// model-checking harness so `tests/loom_termination.rs` can explore
// interleavings of mint / give_back / wait_until; the production build uses
// std directly.
#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(loom)]
use loom::sync::{Condvar, Mutex};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;
#[cfg(not(loom))]
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Huang-style weight-throwing termination detector with integer weights.
#[derive(Debug, Default)]
pub struct WeightThrow {
    total: AtomicU64,
    returned: AtomicU64,
    /// Pairs with `wake`: waiters check their predicate while holding this
    /// lock and notifiers acquire it before signalling, so a quiescence or
    /// failure transition cannot slip between a predicate check and the
    /// sleep that follows it.
    gate: Mutex<()>,
    wake: Condvar,
}

impl WeightThrow {
    /// Creates a detector with no outstanding weight (trivially quiescent
    /// until something is minted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints `n` atoms of weight to attach to outgoing messages.  Must be
    /// called *before* the messages become visible to receivers.
    pub fn mint(&self, n: u64) -> u64 {
        self.total.fetch_add(n, Ordering::AcqRel);
        n
    }

    /// Returns `n` consumed atoms to the controller.  Must be called only
    /// after all work caused by the carrying messages (including sends) is
    /// complete.  Wakes any [`WeightThrow::wait_until`] sleeper when this
    /// return drains the outstanding weight.
    pub fn give_back(&self, n: u64) {
        self.returned.fetch_add(n, Ordering::AcqRel);
        if self.quiescent() {
            self.notify();
        }
    }

    /// Wakes every thread sleeping in [`WeightThrow::wait_until`] so it
    /// re-checks its predicate — for conditions the detector cannot see
    /// itself, such as a failure recorded elsewhere.
    pub fn notify(&self) {
        // Acquire-and-release the gate so a waiter that has checked its
        // predicate but not yet slept cannot miss this signal.
        drop(self.gate.lock().unwrap_or_else(PoisonError::into_inner));
        self.wake.notify_all();
    }

    /// Blocks until `condition()` holds or `deadline` passes, waking on
    /// [`WeightThrow::give_back`]-driven quiescence and on
    /// [`WeightThrow::notify`]; returns whether the condition held.
    ///
    /// The predicate is evaluated under the detector's internal lock, so
    /// any notification sent after a `false` evaluation is guaranteed to
    /// wake the sleep that follows it.
    pub fn wait_until(&self, deadline: Instant, condition: &dyn Fn() -> bool) -> bool {
        let mut guard = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if condition() {
                return true;
            }
            #[expect(clippy::disallowed_methods, reason = "quiescence timeout (liveness)")]
            let now = Instant::now();
            if now >= deadline {
                return condition();
            }
            guard = self
                .wake
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Whether the system is globally quiescent: every minted atom has been
    /// returned.
    ///
    /// Reads `returned` before `total`; since both are monotone and
    /// `returned <= total` always holds, observing equality proves that at
    /// the instant `total` was read no atom was held by any message or
    /// worker.
    pub fn quiescent(&self) -> bool {
        let returned = self.returned.load(Ordering::Acquire);
        let total = self.total.load(Ordering::Acquire);
        returned == total
    }

    /// Total atoms minted so far (diagnostics).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Acquire)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests run under deadlines")]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fresh_detector_is_quiescent() {
        assert!(WeightThrow::new().quiescent());
    }

    #[test]
    fn outstanding_weight_blocks_quiescence() {
        let d = WeightThrow::new();
        d.mint(1);
        assert!(!d.quiescent());
        d.give_back(1);
        assert!(d.quiescent());
    }

    #[test]
    fn interleaved_mint_and_return() {
        let d = WeightThrow::new();
        d.mint(3);
        d.give_back(2);
        assert!(!d.quiescent());
        d.mint(1);
        d.give_back(2);
        assert!(d.quiescent());
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn wait_until_wakes_on_quiescence() {
        let d = Arc::new(WeightThrow::new());
        d.mint(1);
        let waiter = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                let held = d.wait_until(deadline, &|| d.quiescent());
                (held, std::time::Instant::now())
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        d.give_back(1);
        let (held, _) = waiter.join().unwrap();
        assert!(held, "waiter must observe the drained detector");
    }

    #[test]
    fn wait_until_respects_deadline() {
        let d = WeightThrow::new();
        d.mint(1);
        let started = std::time::Instant::now();
        let held = d.wait_until(started + std::time::Duration::from_millis(30), &|| {
            d.quiescent()
        });
        assert!(!held, "weight is still outstanding");
        assert!(started.elapsed() >= std::time::Duration::from_millis(30));
    }

    #[test]
    fn notify_wakes_a_foreign_condition() {
        let d = Arc::new(WeightThrow::new());
        d.mint(1); // never returned: only notify() can end the wait early
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let waiter = {
            let d = Arc::clone(&d);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                d.wait_until(deadline, &|| flag.load(Ordering::Acquire))
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        flag.store(true, Ordering::Release);
        d.notify();
        assert!(waiter.join().unwrap());
    }

    /// A randomized message storm across threads: workers forward messages
    /// with decreasing TTL, following the protocol (mint before send,
    /// give back after).  The detector must never report quiescence while
    /// messages remain, and must report it after the storm drains.
    #[test]
    fn storm_never_terminates_early() {
        use crossbeam::channel::unbounded;
        let d = Arc::new(WeightThrow::new());
        let (tx, rx) = unbounded::<(u32, u64)>(); // (ttl, weight)
        let in_flight = Arc::new(AtomicU64::new(0));

        // Seed 50 messages with ttl up to 6.
        for i in 0..50u32 {
            let w = d.mint(1);
            in_flight.fetch_add(1, Ordering::SeqCst);
            tx.send((i % 7, w)).unwrap();
        }

        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = Arc::clone(&d);
            let tx = tx.clone();
            let rx = rx.clone();
            let in_flight = Arc::clone(&in_flight);
            handles.push(std::thread::spawn(move || {
                while let Ok((ttl, w)) = rx.recv_timeout(std::time::Duration::from_millis(50)) {
                    // While this worker holds weight, quiescent() must be
                    // false.
                    assert!(!d.quiescent(), "early termination detected");
                    if ttl > 0 {
                        // Forward two children.
                        for _ in 0..2 {
                            let cw = d.mint(1);
                            in_flight.fetch_add(1, Ordering::SeqCst);
                            tx.send((ttl - 1, cw)).unwrap();
                        }
                    }
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    d.give_back(w);
                }
            }));
        }
        drop(tx);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(in_flight.load(Ordering::SeqCst), 0);
        assert!(d.quiescent(), "must be quiescent after the storm drains");
    }
}
