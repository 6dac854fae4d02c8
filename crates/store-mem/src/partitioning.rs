//! Locality tracking and failure flags for one partitioning group.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

use ripple_kv::PartId;

thread_local! {
    /// Which (partitioning id, part) the current thread is executing at,
    /// set while a store thread runs a task.  `Table` operations consult
    /// this to decide local vs remote.
    static CURRENT: Cell<Option<(u64, u32)>> = const { Cell::new(None) };
}

/// The (partitioning id, part) the calling thread is collocated with, if it
/// is a store thread currently running a task.
pub(crate) fn current_locality() -> Option<(u64, u32)> {
    CURRENT.with(Cell::get)
}

/// Runs `task` collocated with `part` of partitioning group `id`.  Part
/// threads serve every group of their part index, so the locality is set
/// around each task, not once per thread.
pub(crate) fn at_locality<R>(id: u64, part: PartId, task: impl FnOnce() -> R) -> R {
    CURRENT.with(|c| c.set(Some((id, part.0))));
    let out = task();
    CURRENT.with(|c| c.set(None));
    out
}

/// One partitioning group: a part count and per-part failure flags.
/// Tables created `like` another share its `Partitioning`, which is what
/// makes them co-placed; the threads that serve a part belong to the store
/// (see [`ripple_kv::PartExecutor`]), not to the group.
#[derive(Debug)]
pub(crate) struct Partitioning {
    pub(crate) id: u64,
    pub(crate) parts: u32,
    failed: Vec<AtomicBool>,
}

impl Partitioning {
    pub(crate) fn new(id: u64, parts: u32) -> Self {
        assert!(parts > 0);
        Self {
            id,
            parts,
            failed: (0..parts).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    pub(crate) fn is_failed(&self, part: PartId) -> bool {
        self.failed[part.index()].load(Ordering::Acquire)
    }

    pub(crate) fn set_failed(&self, part: PartId, failed: bool) {
        self.failed[part.index()].store(failed, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_kv::PartExecutor;

    #[test]
    fn part_threads_report_locality_to_tasks() {
        let exec = PartExecutor::new("mem-test");
        let seen = exec
            .run(PartId(1), || at_locality(7, PartId(1), current_locality))
            .join()
            .unwrap();
        assert_eq!(seen, Some((7, 1)));
        // The next task on the same thread sees its own group, not the last.
        let seen = exec.run(PartId(1), current_locality).join().unwrap();
        assert_eq!(seen, None);
        assert_eq!(current_locality(), None);
    }

    #[test]
    fn failure_flags_toggle() {
        let p = Partitioning::new(1, 3);
        assert!(!p.is_failed(PartId(2)));
        p.set_failed(PartId(2), true);
        assert!(p.is_failed(PartId(2)));
        assert!(!p.is_failed(PartId(0)));
        p.set_failed(PartId(2), false);
        assert!(!p.is_failed(PartId(2)));
    }
}
