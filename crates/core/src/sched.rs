//! Part-task gating: the hook a resident multi-tenant service uses to
//! share a bounded worker pool fairly across concurrent jobs.
//!
//! A solo [`JobRunner`](crate::JobRunner) dispatches every part-task of a
//! step at once and lets the store's lanes sort it out — fine when the
//! process runs one job.  A *job service* admits many jobs over one store
//! pool, and without arbitration a wide job would monopolize the
//! machine while a two-part job starves behind it.  The engine therefore
//! offers one narrow hook: when a [`TaskGate`] is installed via
//! [`JobRunner::task_gate`](crate::JobRunner::task_gate), every
//! synchronized part-task — one per part and step — acquires a permit
//! before touching its part and releases it when the task finishes.  The
//! scheduler lives *behind* the trait (see `ripple-server`'s fair
//! round-robin implementation); the engine only promises bracketing.
//!
//! Gating is deliberately scheduling-only: a gate decides *when* a
//! part-task runs within its step, never whether or in what data state.
//! Every task of a step still completes before the barrier, and a step's
//! spills go to a transport table no task of that step drains, so gated
//! and ungated runs of a deterministic job are byte-identical.

use std::sync::Arc;

/// Admission gate for one part-task.
///
/// Implementations must be starvation-free — every `acquire` must
/// eventually return once other holders release — or a step could stall
/// short of its barrier forever.  `acquire`/`release` calls arrive from
/// store worker threads, one balanced pair per part-task.
pub trait TaskGate: Send + Sync + 'static {
    /// Blocks until the caller may run one part-task.
    fn acquire(&self);

    /// Returns the permit taken by the matching [`TaskGate::acquire`].
    fn release(&self);
}

/// RAII permit: acquires on construction, releases on drop (including
/// unwinds, so a panicking part-task cannot leak its worker slot).
pub struct GatePermit {
    gate: Arc<dyn TaskGate>,
}

impl GatePermit {
    /// Acquires a permit from `gate`, blocking until granted.
    pub fn acquire(gate: &Arc<dyn TaskGate>) -> Self {
        gate.acquire();
        Self {
            gate: Arc::clone(gate),
        }
    }
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        self.gate.release();
    }
}

impl std::fmt::Debug for GatePermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatePermit").finish_non_exhaustive()
    }
}

/// The trivial gate: bounds concurrent part-tasks store-wide with a
/// counting semaphore, with no notion of jobs or fairness.  Useful to cap
/// a single runner's parallelism; a job service wants `ripple-server`'s
/// fair scheduler instead.
#[derive(Debug)]
pub struct SemaphoreGate {
    state: std::sync::Mutex<usize>,
    cv: std::sync::Condvar,
    permits: usize,
}

impl SemaphoreGate {
    /// A gate admitting at most `permits` concurrent part-tasks.
    ///
    /// # Panics
    ///
    /// Panics if `permits` is zero — nothing could ever run.
    pub fn new(permits: usize) -> Self {
        assert!(permits > 0, "a task gate needs at least one permit");
        Self {
            state: std::sync::Mutex::new(permits),
            cv: std::sync::Condvar::new(),
            permits,
        }
    }

    /// The configured permit count.
    pub fn permits(&self) -> usize {
        self.permits
    }
}

impl TaskGate for SemaphoreGate {
    fn acquire(&self) {
        let mut free = self.state.lock().expect("gate lock poisoned");
        while *free == 0 {
            free = self.cv.wait(free).expect("gate lock poisoned");
        }
        *free -= 1;
    }

    fn release(&self) {
        let mut free = self.state.lock().expect("gate lock poisoned");
        *free += 1;
        drop(free);
        self.cv.notify_one();
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "permit holders must overlap")]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn semaphore_bounds_concurrency() {
        let gate: Arc<dyn TaskGate> = Arc::new(SemaphoreGate::new(2));
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let live = Arc::clone(&live);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    let _permit = GatePermit::acquire(&gate);
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    live.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "semaphore overshoot");
    }

    #[test]
    fn permit_releases_on_panic() {
        let gate = Arc::new(SemaphoreGate::new(1));
        let dyn_gate: Arc<dyn TaskGate> = Arc::clone(&gate) as Arc<dyn TaskGate>;
        let g2 = Arc::clone(&dyn_gate);
        let _ = std::thread::spawn(move || {
            let _permit = GatePermit::acquire(&g2);
            panic!("task died holding a permit");
        })
        .join();
        // The permit must have been returned by the unwind.
        let _permit = GatePermit::acquire(&dyn_gate);
    }

    #[test]
    #[should_panic(expected = "at least one permit")]
    fn zero_permits_rejected() {
        SemaphoreGate::new(0);
    }
}
