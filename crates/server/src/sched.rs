//! Fair scheduling of part-tasks from concurrent jobs over a shared
//! worker pool.
//!
//! The paper's runtime multiplexes many jobs over one resident set of
//! part servers; when two jobs both have a step's worth of part-tasks
//! ready, *something* must decide whose tasks occupy the workers.  A
//! plain semaphore ([`SemaphoreGate`](ripple_core::SemaphoreGate)) is
//! FIFO-ish per the OS's whim and lets a wide job starve a narrow one.
//! [`FairScheduler`] instead grants compute slots round-robin *across
//! jobs*: each grant advances a cursor past the granted job, so among
//! jobs with waiting tasks, slots alternate — a 64-part job and a 4-part
//! job interleave instead of queueing serially.
//!
//! Each job's tasks reach the scheduler through a [`JobGate`] (the job's
//! [`TaskGate`], installed on its runner), which also meters per-job
//! accounting: how many slots the job was granted and how long its tasks
//! waited for them.  The wait happens *before* the engine's timed span,
//! so compute walls in [`StepProfile`](ripple_core::StepProfile)s price
//! real work and queueing shows up here instead.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ripple_core::TaskGate;

/// Bound on the retained grant-order log; beyond it grants still happen
/// but are no longer recorded (the log exists for tests and debugging).
const GRANT_LOG_CAP: usize = 1 << 20;

#[derive(Debug)]
struct Slot {
    id: u64,
    waiting: usize,
    granted: u64,
    wait: Duration,
    active: bool,
}

#[derive(Debug)]
struct Inner {
    free: usize,
    slots: Vec<Slot>,
    cursor: usize,
    grant_log: Vec<u64>,
    next_id: u64,
}

/// Round-robin compute-slot scheduler shared by all jobs of a server.
#[derive(Debug)]
pub struct FairScheduler {
    workers: usize,
    inner: Mutex<Inner>,
    cv: Condvar,
}

/// One job's accounting snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedAccount {
    /// The job's scheduler id.
    pub job: u64,
    /// Compute slots granted to the job so far.
    pub granted: u64,
    /// Total time the job's tasks spent waiting for a slot.
    pub wait: Duration,
}

impl FairScheduler {
    /// A scheduler with `workers` compute slots.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero — a server with no workers can run
    /// nothing.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "FairScheduler needs at least one worker");
        Self {
            workers,
            inner: Mutex::new(Inner {
                free: workers,
                slots: Vec::new(),
                cursor: 0,
                grant_log: Vec::new(),
                next_id: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// The compute-slot count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Registers a job; the returned id names it in grants and accounts.
    pub fn register(&self) -> u64 {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.slots.push(Slot {
            id,
            waiting: 0,
            granted: 0,
            wait: Duration::ZERO,
            active: true,
        });
        id
    }

    /// Deactivates a job's slot; its accounting remains readable.  The
    /// job must have no waiting tasks (its launches have returned).
    pub fn unregister(&self, id: u64) {
        let mut inner = self.lock();
        if let Some(slot) = inner.slots.iter_mut().find(|s| s.id == id) {
            debug_assert_eq!(slot.waiting, 0, "unregister with tasks still waiting");
            slot.active = false;
        }
    }

    /// The [`TaskGate`] that routes one job's part-tasks through this
    /// scheduler; install it with
    /// [`JobRunner::task_gate`](ripple_core::JobRunner::task_gate).
    pub fn gate(self: &Arc<Self>, id: u64) -> Arc<JobGate> {
        Arc::new(JobGate {
            sched: Arc::clone(self),
            id,
        })
    }

    /// Blocks until the round-robin discipline grants job `id` a slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never registered, or if the scheduler lock is
    /// poisoned (a grant-holder panicked).
    pub fn acquire(&self, id: u64) {
        #[expect(clippy::disallowed_methods, reason = "queue-wait accounting only")]
        let start = Instant::now();
        let mut inner = self.lock();
        let idx = inner
            .slots
            .iter()
            .position(|s| s.id == id)
            .expect("acquire for unregistered job");
        inner.slots[idx].waiting += 1;
        // A parked task is observable state: wake anyone blocked in
        // `wait_until_waiting` (observers, tests) on the shared condvar.
        self.cv.notify_all();
        loop {
            if inner.free > 0 && Self::turn(&inner) == Some(idx) {
                inner.free -= 1;
                let len = inner.slots.len();
                inner.cursor = (idx + 1) % len;
                if inner.grant_log.len() < GRANT_LOG_CAP {
                    inner.grant_log.push(id);
                }
                let slot = &mut inner.slots[idx];
                slot.waiting -= 1;
                slot.granted += 1;
                slot.wait += start.elapsed();
                drop(inner);
                // Another job's waiter may now be the turn-holder while
                // slots remain free.
                self.cv.notify_all();
                return;
            }
            inner = self.cv.wait(inner).expect("scheduler poisoned");
        }
    }

    /// Returns a slot to the pool.
    pub fn release(&self) {
        let mut inner = self.lock();
        debug_assert!(inner.free < self.workers, "release without acquire");
        inner.free += 1;
        drop(inner);
        self.cv.notify_all();
    }

    /// The slot index whose job holds the next grant: the first active
    /// job with waiting tasks at or after the cursor, cyclically.
    fn turn(inner: &Inner) -> Option<usize> {
        let n = inner.slots.len();
        (0..n)
            .map(|k| (inner.cursor + k) % n)
            .find(|&i| inner.slots[i].active && inner.slots[i].waiting > 0)
    }

    /// One job's accounting snapshot.
    pub fn account(&self, id: u64) -> Option<SchedAccount> {
        self.lock()
            .slots
            .iter()
            .find(|s| s.id == id)
            .map(|s| SchedAccount {
                job: s.id,
                granted: s.granted,
                wait: s.wait,
            })
    }

    /// All jobs' accounting snapshots, in registration order.
    pub fn accounts(&self) -> Vec<SchedAccount> {
        self.lock()
            .slots
            .iter()
            .map(|s| SchedAccount {
                job: s.id,
                granted: s.granted,
                wait: s.wait,
            })
            .collect()
    }

    /// The recorded grant order (job ids), capped at an internal bound.
    pub fn grant_log(&self) -> Vec<u64> {
        self.lock().grant_log.clone()
    }

    /// Tasks of job `id` currently blocked waiting for a slot.
    pub fn waiting(&self, id: u64) -> usize {
        self.lock()
            .slots
            .iter()
            .find(|s| s.id == id)
            .map_or(0, |s| s.waiting)
    }

    /// Blocks until at least `n` tasks of job `id` are parked waiting for
    /// a slot — a condvar rendezvous for observers that need to see a
    /// queue form (tests, drain sequencing) without sleep-polling
    /// [`FairScheduler::waiting`].
    ///
    /// # Panics
    ///
    /// Panics if the scheduler lock is poisoned (a grant-holder
    /// panicked).
    pub fn wait_until_waiting(&self, id: u64, n: usize) {
        let mut inner = self.lock();
        loop {
            let waiting = inner
                .slots
                .iter()
                .find(|s| s.id == id)
                .map_or(0, |s| s.waiting);
            if waiting >= n {
                return;
            }
            inner = self.cv.wait(inner).expect("scheduler poisoned");
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("scheduler poisoned")
    }
}

/// One job's handle into a [`FairScheduler`]; implements [`TaskGate`] so
/// a [`JobRunner`](ripple_core::JobRunner) can be gated by it.
#[derive(Debug)]
pub struct JobGate {
    sched: Arc<FairScheduler>,
    id: u64,
}

impl JobGate {
    /// The job's scheduler id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl TaskGate for JobGate {
    fn acquire(&self) {
        self.sched.acquire(self.id);
    }

    fn release(&self) {
        self.sched.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn bounds_concurrency_to_worker_count() {
        let sched = Arc::new(FairScheduler::new(2));
        let id = sched.register();
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        // Each slot-holder parks at a two-party barrier, so both slots are
        // provably occupied at once (no timing assumptions): the 8 threads
        // pair up 4 times, and the peak is exactly the worker count.
        let rendezvous = Arc::new(std::sync::Barrier::new(2));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (sched, live, peak) = (Arc::clone(&sched), Arc::clone(&live), Arc::clone(&peak));
            let rendezvous = Arc::clone(&rendezvous);
            handles.push(thread::spawn(move || {
                sched.acquire(id);
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                rendezvous.wait();
                live.fetch_sub(1, Ordering::SeqCst);
                sched.release();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 2);
        assert_eq!(sched.account(id).unwrap().granted, 8);
    }

    #[test]
    fn grants_alternate_between_waiting_jobs() {
        // One worker; job A holds it while two waiters of each job park.
        // As each grantee releases, grants must alternate B A B A.
        let sched = Arc::new(FairScheduler::new(1));
        let a = sched.register();
        let b = sched.register();
        sched.acquire(a); // cursor now points at b

        let mut handles = Vec::new();
        for &job in &[a, a, b, b] {
            let sched = Arc::clone(&sched);
            handles.push(thread::spawn(move || {
                sched.acquire(job);
                sched.release();
            }));
        }
        // Park all four waiters before releasing the held slot.
        sched.wait_until_waiting(a, 2);
        sched.wait_until_waiting(b, 2);
        sched.release();
        for h in handles {
            h.join().unwrap();
        }

        let log = sched.grant_log();
        assert_eq!(log, vec![a, b, a, b, a]);
        assert_eq!(sched.account(a).unwrap().granted, 3);
        assert_eq!(sched.account(b).unwrap().granted, 2);
        assert!(sched.account(b).unwrap().wait > Duration::ZERO);
    }

    #[test]
    fn inactive_jobs_are_skipped() {
        let sched = Arc::new(FairScheduler::new(1));
        let a = sched.register();
        let b = sched.register();
        sched.unregister(a);
        // Only b ever asks; the dead slot for a must not wedge the turn.
        sched.acquire(b);
        sched.release();
        assert_eq!(sched.grant_log(), vec![b]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = FairScheduler::new(0);
    }
}
