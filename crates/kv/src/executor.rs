//! One store's resident part threads: the paper's debugging store has
//! worker threads per *partition*, not per table.  A dispatch takes an idle
//! thread of its part, or starts one when all are busy; nothing queues
//! behind a busy thread, because a part task may hold its thread for a whole
//! job or wait on another task of its part (with one FIFO lane per part,
//! two such jobs could each hold one part's lane while waiting on the
//! other's).  The thread count is the peak concurrency per part.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crossbeam::channel::{bounded, Sender};

use crate::{PartId, TaskHandle};

/// A task; it parks its thread through the callback before it answers, so
/// whoever it answers finds the thread idle again.
type Job = Box<dyn FnOnce(&mut dyn FnMut()) + Send>;

/// A job and the way back to the thread that runs it.
struct Dispatch(Job, Sender<Dispatch>);

/// Per part index, its idle threads, the most recently parked last; `None`
/// once the executor is dropped.
type Idle = Mutex<Option<HashMap<u32, Vec<Sender<Dispatch>>>>>;

/// A store's part threads.  Dropping it ends the idle threads at once and
/// the busy ones as their tasks finish.
#[derive(Debug)]
pub struct PartExecutor {
    name: &'static str,
    idle: Arc<Idle>,
}

fn lock(idle: &Idle) -> MutexGuard<'_, Option<HashMap<u32, Vec<Sender<Dispatch>>>>> {
    idle.lock().unwrap_or_else(PoisonError::into_inner)
}

impl PartExecutor {
    /// An executor with no threads yet; `name` prefixes its threads' names.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        let idle = Arc::new(Mutex::new(Some(HashMap::new())));
        Self { name, idle }
    }

    /// Runs `task` on a thread of `part`.  A panic in it surfaces from
    /// [`TaskHandle::join`] as
    /// [`KvError::TaskPanicked`](crate::KvError::TaskPanicked); the thread
    /// keeps serving.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to start a thread.
    pub fn run<R, F>(&self, part: PartId, task: F) -> TaskHandle<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let (tx, rx) = bounded(1);
        let job: Job = Box::new(move |park| {
            let result = catch_unwind(AssertUnwindSafe(task));
            park();
            let _ = tx.send(result);
        });
        let idle = lock(&self.idle)
            .as_mut()
            .and_then(|idle| idle.get_mut(&part.0)?.pop());
        let thread = idle.unwrap_or_else(|| self.start(part));
        // The thread is idle or new, so its one-slot channel is free.
        let _ = thread.send(Dispatch(job, thread.clone()));
        TaskHandle::from_channel(part, rx)
    }

    fn start(&self, part: PartId) -> Sender<Dispatch> {
        let (tx, rx) = bounded::<Dispatch>(1);
        let idle = Arc::clone(&self.idle);
        std::thread::Builder::new()
            .name(format!("{}-p{}", self.name, part.0))
            .spawn(move || {
                // Only the idle map or an in-flight dispatch holds a sender
                // of `rx`, so dropping the executor ends this loop.
                while let Ok(Dispatch(job, home)) = rx.recv() {
                    let mut home = Some(home);
                    job(&mut || {
                        if let (Some(idle), Some(home)) = (lock(&idle).as_mut(), home.take()) {
                            idle.entry(part.0).or_default().push(home);
                        }
                    });
                }
            })
            .expect("start a part thread");
        tx
    }

    /// Threads started and not yet ended.
    #[must_use]
    pub fn threads(&self) -> usize {
        Arc::strong_count(&self.idle) - 1
    }
}

impl Drop for PartExecutor {
    fn drop(&mut self) {
        *lock(&self.idle) = None;
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the wait has a deadline")]
mod tests {
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    use super::*;
    use crate::KvError;

    fn thread_id() -> ThreadId {
        std::thread::current().id()
    }

    /// Drops `exec` and waits until every one of its threads has ended.
    fn ended(exec: PartExecutor) {
        let idle = Arc::clone(&exec.idle);
        drop(exec);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&idle) > 1 {
            assert!(
                Instant::now() < deadline,
                "part threads outlived the executor"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn sequential_tasks_of_a_part_reuse_one_thread() {
        let exec = PartExecutor::new("t-seq");
        let first = exec.run(PartId(0), thread_id).join().unwrap();
        for _ in 0..5 {
            assert_eq!(exec.run(PartId(0), thread_id).join().unwrap(), first);
        }
        assert_ne!(first, thread_id());
        assert_eq!(exec.threads(), 1);
        // Another part index has threads of its own.
        assert_ne!(exec.run(PartId(3), thread_id).join().unwrap(), first);
        assert_eq!(exec.threads(), 2);
        ended(exec);
    }

    #[test]
    fn a_task_sent_while_the_part_is_busy_starts_a_second_thread() {
        let exec = PartExecutor::new("t-busy");
        let (release, wait) = bounded::<()>(1);
        let busy = exec.run(PartId(0), move || {
            wait.recv().unwrap();
            thread_id()
        });
        let second = exec.run(PartId(0), thread_id).join().unwrap();
        release.send(()).unwrap();
        let first = busy.join().unwrap();
        assert_ne!(first, second);
        assert_eq!(exec.threads(), 2);
        for _ in 0..5 {
            let id = exec.run(PartId(0), thread_id).join().unwrap();
            assert!(id == first || id == second);
        }
        assert_eq!(exec.threads(), 2, "later tasks reuse both");
        ended(exec);
    }

    #[test]
    fn a_part_task_that_waits_for_another_of_its_part_completes() {
        let exec = Arc::new(PartExecutor::new("t-wait"));
        let inner = Arc::clone(&exec);
        let outer = exec.run(PartId(0), move || inner.run(PartId(0), || 7).join());
        assert_eq!(outer.join().unwrap(), Ok(7));
        ended(Arc::try_unwrap(exec).expect("the task dropped its handle"));
    }

    #[test]
    fn a_panicking_task_reports_and_its_thread_keeps_serving() {
        let exec = PartExecutor::new("t-panic");
        let id = exec.run(PartId(1), thread_id).join().unwrap();
        let err = exec
            .run(PartId(1), || -> u32 { panic!("boom") })
            .join()
            .unwrap_err();
        assert_eq!(
            err,
            KvError::TaskPanicked {
                part: 1,
                message: "boom".to_owned()
            }
        );
        assert_eq!(exec.run(PartId(1), thread_id).join().unwrap(), id);
        assert_eq!(exec.threads(), 1);
        ended(exec);
    }

    #[test]
    fn threads_end_when_the_executor_drops() {
        let exec = PartExecutor::new("t-drop");
        let (release, wait) = bounded::<()>(1);
        let busy = exec.run(PartId(0), move || wait.recv().unwrap());
        exec.run(PartId(0), || ()).join().unwrap();
        exec.run(PartId(2), || ()).join().unwrap();
        assert_eq!(exec.threads(), 3);
        // The idle threads end at the drop; the busy one once its task
        // finishes.
        let dropping = std::thread::spawn(move || ended(exec));
        release.send(()).unwrap();
        busy.join().unwrap();
        dropping.join().unwrap();
    }
}
