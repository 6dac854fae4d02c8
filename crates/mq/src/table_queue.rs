use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ripple_kv::{KvError, KvStore, PartId, PartView, RoutedKey, ScanControl, Table, TaskHandle};
use ripple_wire::to_wire;

use crate::{MqError, QueueReceiver, QueueSet};

/// How long a polling receiver sleeps between looks at an empty queue.
const POLL_INTERVAL: Duration = Duration::from_micros(300);

/// The paper's generic queue-set implementation: "each new queue set is
/// implemented by such a new table" (§IV-B).
///
/// The backing table is created co-partitioned with the reference table, so
/// each queue's entries are collocated with the part they serve.  A put
/// writes the message under a key routed to the destination part with a
/// globally unique, monotonically increasing sequence number as its body;
/// workers drain their local slice and deliver in sequence order, which
/// preserves per-(sender, receiver) FIFO.
pub struct TableQueueSet<S: KvStore> {
    inner: Arc<Inner<S>>,
}

impl<S: KvStore> Clone for TableQueueSet<S> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: KvStore> std::fmt::Debug for TableQueueSet<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableQueueSet")
            .field("name", &self.inner.name)
            .field("table", &self.inner.table_name)
            .finish()
    }
}

struct Inner<S: KvStore> {
    name: String,
    table_name: String,
    store: S,
    reference: S::Table,
    table: S::Table,
    seq: AtomicU64,
    deleted: AtomicBool,
}

impl<S: KvStore> TableQueueSet<S> {
    /// Creates a queue set placed like `reference`, backed by a fresh table
    /// named `__mq_<name>`.
    ///
    /// # Errors
    ///
    /// Fails if the backing table name is taken or `reference` was dropped.
    pub fn create(store: &S, reference: &S::Table, name: &str) -> Result<Self, MqError> {
        let table_name = format!("__mq_{name}");
        let table = store.create_table_like(&table_name, reference)?;
        Ok(Self {
            inner: Arc::new(Inner {
                name: name.to_owned(),
                table_name,
                store: store.clone(),
                reference: reference.clone(),
                table,
                seq: AtomicU64::new(0),
                deleted: AtomicBool::new(false),
            }),
        })
    }

    /// The name of the backing table (exposed for inspection and tests).
    pub fn table_name(&self) -> &str {
        &self.inner.table_name
    }

    fn check_live(&self) -> Result<(), MqError> {
        if self.inner.deleted.load(Ordering::Acquire) {
            return Err(MqError::QueueSetDeleted {
                name: self.inner.name.clone(),
            });
        }
        Ok(())
    }
}

struct TableReceiver<'a> {
    part: PartId,
    table: &'a str,
    view: &'a dyn PartView,
    buffer: VecDeque<Bytes>,
    /// What drains removed and fed but did not finish: a failed drain's
    /// entries wait here for the next one, to be delivered in sequence
    /// with what it drains.
    held: Vec<(u64, Bytes)>,
}

impl TableReceiver<'_> {
    /// Drains whatever is locally queued into the buffer, in sequence order.
    fn refill(&mut self) -> Result<(), MqError> {
        let Self {
            table, view, held, ..
        } = self;
        view.drain(table, &mut |key, value| {
            let seq = ripple_wire::from_wire::<u64>(key.body()).unwrap_or(u64::MAX);
            held.push((seq, value));
            ScanControl::Continue
        })?;
        held.sort_by_key(|(seq, _)| *seq);
        self.buffer.extend(held.drain(..).map(|(_, v)| v));
        Ok(())
    }
}

impl QueueReceiver for TableReceiver<'_> {
    fn part(&self) -> PartId {
        self.part
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Bytes>, MqError> {
        if let Some(msg) = self.buffer.pop_front() {
            return Ok(Some(msg));
        }
        #[expect(clippy::disallowed_methods, reason = "recv_timeout's own deadline")]
        let deadline = Instant::now() + timeout;
        loop {
            self.refill()?;
            if let Some(msg) = self.buffer.pop_front() {
                return Ok(Some(msg));
            }
            #[expect(clippy::disallowed_methods, reason = "recv_timeout's own deadline")]
            if Instant::now() >= deadline {
                return Ok(None);
            }
            #[expect(clippy::disallowed_methods, reason = "SPI has no cross-part wakeup")]
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

impl<S: KvStore> QueueSet for TableQueueSet<S> {
    fn name(&self) -> &str {
        &self.inner.name
    }

    fn parts(&self) -> u32 {
        self.inner.reference.part_count()
    }

    fn put(&self, part: PartId, msg: Bytes) -> Result<(), MqError> {
        self.check_live()?;
        if part.0 >= self.parts() {
            return Err(MqError::PartOutOfRange {
                part: part.0,
                parts: self.parts(),
            });
        }
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let key = RoutedKey::with_route(u64::from(part.0), to_wire(&seq).to_vec().into());
        self.inner.table.put(key, msg)?;
        Ok(())
    }

    fn run_workers<R, F>(&self, worker: F) -> Result<Vec<R>, MqError>
    where
        R: Send + 'static,
        F: Fn(&dyn PartView, &mut dyn QueueReceiver) -> R + Clone + Send + 'static,
    {
        self.check_live()?;
        let handles: Vec<TaskHandle<R>> = (0..self.parts())
            .map(|p| {
                let worker = worker.clone();
                let table_name = self.inner.table_name.clone();
                self.inner
                    .store
                    .run_at(&self.inner.reference, PartId(p), move |view| {
                        let mut receiver = TableReceiver {
                            part: PartId(p),
                            table: &table_name,
                            view,
                            buffer: VecDeque::new(),
                            held: Vec::new(),
                        };
                        worker(view, &mut receiver)
                    })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let part = h.part().0;
                h.join().map_err(|e| match e {
                    KvError::TaskPanicked { .. } => MqError::WorkerPanicked { part },
                    other => MqError::Store(other),
                })
            })
            .collect()
    }

    fn delete(&self) -> Result<(), MqError> {
        if self.inner.deleted.swap(true, Ordering::AcqRel) {
            return Err(MqError::QueueSetDeleted {
                name: self.inner.name.clone(),
            });
        }
        self.inner.store.drop_table(&self.inner.table_name)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use ripple_kv::TableSpec;
    use ripple_store_mem::MemStore;

    use super::*;

    /// A view whose first drain fails after feeding `feed` entries — the
    /// entries it fed are gone from the table, as when a streamed drain
    /// loses its connection midway.
    struct FailingDrain<'a> {
        inner: &'a dyn PartView,
        feed: Cell<Option<usize>>,
    }

    impl PartView for FailingDrain<'_> {
        fn part(&self) -> PartId {
            self.inner.part()
        }
        fn get(&self, table: &str, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
            self.inner.get(table, key)
        }
        fn put(&self, table: &str, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
            self.inner.put(table, key, value)
        }
        fn delete(&self, table: &str, key: &RoutedKey) -> Result<bool, KvError> {
            self.inner.delete(table, key)
        }
        fn scan(
            &self,
            table: &str,
            f: &mut dyn FnMut(&RoutedKey, &[u8]) -> ScanControl,
        ) -> Result<(), KvError> {
            self.inner.scan(table, f)
        }
        fn drain(
            &self,
            table: &str,
            f: &mut dyn FnMut(RoutedKey, Bytes) -> ScanControl,
        ) -> Result<(), KvError> {
            let Some(mut left) = self.feed.take() else {
                return self.inner.drain(table, f);
            };
            self.inner.drain(table, &mut |key, value| {
                f(key, value);
                left -= 1;
                if left == 0 {
                    ScanControl::Stop
                } else {
                    ScanControl::Continue
                }
            })?;
            Err(KvError::Transient {
                op: "drain",
                part: self.part().0,
                detail: "severed midway".to_owned(),
            })
        }
        fn len(&self, table: &str) -> Result<usize, KvError> {
            self.inner.len(table)
        }
    }

    #[test]
    fn a_drain_that_fails_midway_loses_nothing_and_keeps_order() {
        let store = MemStore::builder().default_parts(2).build();
        let reference = store.create_table(&TableSpec::new("ref")).unwrap();
        let queue = TableQueueSet::create(&store, &reference, "midway").unwrap();
        let sent: Vec<Bytes> = (0..20).map(|i| Bytes::from(format!("m{i}"))).collect();
        for msg in &sent {
            queue.put(PartId(1), msg.clone()).unwrap();
        }
        let table = queue.table_name().to_owned();
        let (got, failures) = store
            .run_at(&reference, PartId(1), move |view| {
                let failing = FailingDrain {
                    inner: view,
                    feed: Cell::new(Some(7)),
                };
                let mut receiver = TableReceiver {
                    part: PartId(1),
                    table: &table,
                    view: &failing,
                    buffer: VecDeque::new(),
                    held: Vec::new(),
                };
                let (mut got, mut failures) = (Vec::new(), 0);
                loop {
                    match receiver.recv_timeout(Duration::from_millis(5)) {
                        Ok(Some(msg)) => got.push(msg),
                        Ok(None) => break,
                        Err(_) => failures += 1,
                    }
                }
                (got, failures)
            })
            .join()
            .unwrap();
        assert_eq!(failures, 1);
        assert_eq!(got, sent, "every message once, in sequence order");
    }
}
