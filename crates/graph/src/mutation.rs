//! A thread-safe queue of graph mutations feeding a *serving-mode*
//! incremental job.
//!
//! The paper's incremental SSSP applies change batches handed to it by a
//! driver; a resident service instead receives mutations continuously —
//! clients push [`GraphChange`]s from any thread, and a serving loop
//! drains them into batches between barriers ([`MutationQueue::wait_drain`]),
//! applying each batch as one selective-enablement wave.  Closing the
//! queue ([`MutationQueue::close`]) lets producers signal "no more
//! changes" so the serving loop can drain what remains and park.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::generate::GraphChange;

#[derive(Debug, Default)]
struct QueueState {
    pending: VecDeque<GraphChange>,
    closed: bool,
    pushed: u64,
    drained: u64,
}

/// Unbounded MPMC queue of [`GraphChange`]s with blocking batch drains.
/// Cheap to clone — clones share the queue.
#[derive(Debug, Clone, Default)]
pub struct MutationQueue {
    inner: Arc<(Mutex<QueueState>, Condvar)>,
}

impl MutationQueue {
    /// An empty, open queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues one change; returns `false` (dropping the change) if the
    /// queue is closed.
    pub fn push(&self, change: GraphChange) -> bool {
        let (lock, cv) = &*self.inner;
        let mut state = lock.lock().expect("mutation queue poisoned");
        if state.closed {
            return false;
        }
        state.pending.push_back(change);
        state.pushed += 1;
        drop(state);
        cv.notify_one();
        true
    }

    /// Enqueues a whole batch; returns how many were accepted (0 when
    /// closed — a batch is never split).
    pub fn push_batch(&self, changes: &[GraphChange]) -> usize {
        let (lock, cv) = &*self.inner;
        let mut state = lock.lock().expect("mutation queue poisoned");
        if state.closed {
            return 0;
        }
        state.pending.extend(changes.iter().copied());
        state.pushed += changes.len() as u64;
        drop(state);
        cv.notify_all();
        changes.len()
    }

    /// Takes up to `max` pending changes without blocking (possibly none).
    pub fn drain(&self, max: usize) -> Vec<GraphChange> {
        let (lock, _) = &*self.inner;
        let mut state = lock.lock().expect("mutation queue poisoned");
        Self::take(&mut state, max)
    }

    /// Blocks until at least one change is pending, the queue closes, or
    /// `timeout` passes; then takes up to `max` changes.  An empty return
    /// therefore means "timed out or closed with nothing left".
    pub fn wait_drain(&self, max: usize, timeout: Duration) -> Vec<GraphChange> {
        let (lock, cv) = &*self.inner;
        let mut state = lock.lock().expect("mutation queue poisoned");
        #[expect(clippy::disallowed_methods, reason = "wait_drain's shutdown deadline")]
        let deadline = std::time::Instant::now() + timeout;
        while state.pending.is_empty() && !state.closed {
            #[expect(clippy::disallowed_methods, reason = "wait_drain's shutdown deadline")]
            let now = std::time::Instant::now();
            if now >= deadline {
                return Vec::new();
            }
            let (next, res) = cv
                .wait_timeout(state, deadline - now)
                .expect("mutation queue poisoned");
            state = next;
            if res.timed_out() && state.pending.is_empty() {
                return Vec::new();
            }
        }
        Self::take(&mut state, max)
    }

    /// Closes the queue: future pushes are refused, pending changes stay
    /// drainable, and blocked drainers wake.
    pub fn close(&self) {
        let (lock, cv) = &*self.inner;
        lock.lock().expect("mutation queue poisoned").closed = true;
        cv.notify_all();
    }

    /// True once [`MutationQueue::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.inner.0.lock().expect("mutation queue poisoned").closed
    }

    /// Currently pending (pushed but not yet drained) changes.
    pub fn len(&self) -> usize {
        self.inner
            .0
            .lock()
            .expect("mutation queue poisoned")
            .pending
            .len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime totals: `(pushed, drained)` change counts.
    pub fn totals(&self) -> (u64, u64) {
        let state = self.inner.0.lock().expect("mutation queue poisoned");
        (state.pushed, state.drained)
    }

    fn take(state: &mut QueueState, max: usize) -> Vec<GraphChange> {
        let n = state.pending.len().min(max);
        let batch: Vec<GraphChange> = state.pending.drain(..n).collect();
        state.drained += batch.len() as u64;
        batch
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "waiters must block first")]
mod tests {
    use super::*;

    #[test]
    fn push_drain_roundtrip() {
        let q = MutationQueue::new();
        assert!(q.push(GraphChange::AddEdge(0, 1)));
        assert_eq!(
            q.push_batch(&[GraphChange::AddEdge(1, 2), GraphChange::RemoveEdge(0, 1)]),
            2
        );
        assert_eq!(q.len(), 3);
        let batch = q.drain(2);
        assert_eq!(
            batch,
            vec![GraphChange::AddEdge(0, 1), GraphChange::AddEdge(1, 2)]
        );
        assert_eq!(q.drain(10), vec![GraphChange::RemoveEdge(0, 1)]);
        assert!(q.is_empty());
        assert_eq!(q.totals(), (3, 3));
    }

    #[test]
    fn close_refuses_pushes_but_drains_remainder() {
        let q = MutationQueue::new();
        q.push(GraphChange::AddEdge(0, 1));
        q.close();
        assert!(!q.push(GraphChange::AddEdge(2, 3)));
        assert_eq!(q.push_batch(&[GraphChange::AddEdge(4, 5)]), 0);
        assert_eq!(q.drain(10).len(), 1);
        assert!(q.is_closed());
    }

    #[test]
    fn wait_drain_wakes_on_push() {
        let q = MutationQueue::new();
        let q2 = q.clone();
        let waiter = std::thread::spawn(move || q2.wait_drain(10, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.push(GraphChange::AddEdge(7, 8));
        let batch = waiter.join().unwrap();
        assert_eq!(batch, vec![GraphChange::AddEdge(7, 8)]);
    }

    #[test]
    fn wait_drain_wakes_on_close() {
        let q = MutationQueue::new();
        let q2 = q.clone();
        let waiter = std::thread::spawn(move || q2.wait_drain(10, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(waiter.join().unwrap().is_empty());
    }

    #[test]
    fn wait_drain_times_out_empty() {
        let q = MutationQueue::new();
        assert!(q.wait_drain(10, Duration::from_millis(10)).is_empty());
    }
}
