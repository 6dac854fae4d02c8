use std::error::Error;
use std::fmt;

/// Error produced by key/value store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KvError {
    /// A table with the given name already exists.
    TableExists {
        /// The conflicting table name.
        name: String,
    },
    /// No table with the given name exists.
    NoSuchTable {
        /// The requested table name.
        name: String,
    },
    /// A part index was at or past the table's part count.
    PartOutOfRange {
        /// The requested part.
        part: u32,
        /// The table's part count.
        parts: u32,
    },
    /// The table handle refers to a table that has been dropped.
    TableDropped {
        /// The dropped table's name.
        name: String,
    },
    /// The store has been shut down.
    StoreClosed,
    /// The addressed part is currently failed (fault injection or a lost
    /// shard); operations will succeed again after recovery.
    PartFailed {
        /// The failed part.
        part: u32,
    },
    /// Mobile code dispatched to a part panicked.
    TaskPanicked {
        /// The part the task ran at.
        part: u32,
        /// Best-effort rendering of the panic payload.
        message: String,
    },
    /// A transient store fault: the operation failed this time but may
    /// succeed if retried (injected fault, dropped connection, timeout).
    Transient {
        /// The operation that faulted (`"get"`, `"put"`, `"delete"`, ...).
        op: &'static str,
        /// The part the operation addressed.
        part: u32,
        /// Human-readable description.
        detail: String,
    },
    /// Tables passed to a multi-table operation are not co-partitioned.
    NotCopartitioned {
        /// One table name.
        left: String,
        /// The other table name.
        right: String,
    },
    /// A ubiquitous table was asked to do something only partitioned tables
    /// support, or vice versa.
    UbiquityMismatch {
        /// The table name.
        name: String,
    },
    /// No task with the given name is registered with the store, so a
    /// named dispatch ([`KvStore::run_named_at`](crate::KvStore::run_named_at))
    /// cannot run.  Registration happens per process; a networked store
    /// requires the name to be registered on the part's owning server.
    NoSuchTask {
        /// The requested task name.
        name: String,
    },
    /// No combiner with the given name is registered with the store, so a
    /// combiner-folding batch write cannot run.  Like task registration,
    /// combiner registration happens per process; a networked store
    /// requires the name to be registered on the part's owning server.
    NoSuchCombiner {
        /// The requested combiner name.
        name: String,
    },
    /// An implementation-specific failure, described in text.
    Backend {
        /// Human-readable description.
        detail: String,
    },
    /// A write-ahead log ended in a torn or corrupt record; replay
    /// recovered everything up to the last valid record and discarded the
    /// rest.  This is the normal aftermath of a crash mid-append, so a
    /// durable store reports it as a recovery note rather than failing to
    /// open.
    WalTailDiscarded {
        /// The table whose log had the damaged tail.
        table: String,
        /// The part whose log had the damaged tail.
        part: u32,
        /// Records that survived and were replayed.
        valid_records: u64,
        /// Bytes truncated off the end of the log.
        discarded_bytes: u64,
    },
    /// A request carried a fencing epoch older than the one its server has
    /// been fenced at: the sender's view of the replica group is stale
    /// (typically a client, or a demoted primary, that has not yet observed
    /// a promotion).  The request was refused without touching state; the
    /// caller must refresh its membership view and re-handshake at the
    /// current epoch.
    StaleEpoch {
        /// The epoch the request carried.
        seen: u64,
        /// The epoch the server is fenced at.
        current: u64,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::TableExists { name } => write!(f, "table {name:?} already exists"),
            KvError::NoSuchTable { name } => write!(f, "no such table {name:?}"),
            KvError::PartOutOfRange { part, parts } => {
                write!(f, "part {part} out of range for table with {parts} parts")
            }
            KvError::TableDropped { name } => write!(f, "table {name:?} has been dropped"),
            KvError::StoreClosed => write!(f, "store has been shut down"),
            KvError::PartFailed { part } => write!(f, "part {part} is failed"),
            KvError::TaskPanicked { part, message } => {
                write!(f, "mobile code panicked at part {part}: {message}")
            }
            KvError::Transient { op, part, detail } => {
                write!(f, "transient {op} fault at part {part}: {detail}")
            }
            KvError::NotCopartitioned { left, right } => {
                write!(f, "tables {left:?} and {right:?} are not co-partitioned")
            }
            KvError::UbiquityMismatch { name } => {
                write!(f, "operation does not apply to ubiquitous table {name:?}")
            }
            KvError::NoSuchTask { name } => write!(f, "no registered task named {name:?}"),
            KvError::NoSuchCombiner { name } => {
                write!(f, "no registered combiner named {name:?}")
            }
            KvError::Backend { detail } => write!(f, "store backend error: {detail}"),
            KvError::WalTailDiscarded {
                table,
                part,
                valid_records,
                discarded_bytes,
            } => {
                write!(
                    f,
                    "table {table:?} part {part}: WAL tail discarded \
                     ({valid_records} records replayed, {discarded_bytes} B dropped)"
                )
            }
            KvError::StaleEpoch { seen, current } => {
                write!(
                    f,
                    "stale epoch {seen} refused (replica group is fenced at epoch {current})"
                )
            }
        }
    }
}

impl KvError {
    /// Whether retrying the same operation may succeed without any
    /// recovery action.  Engines consult this to drive their
    /// [`RetryPolicy`](https://docs.rs/ripple-core)-bounded retry loops;
    /// everything else (missing tables, failed parts, panics) needs a
    /// structural fix, not a retry.
    ///
    /// The match is deliberately exhaustive, variant by variant, with no
    /// wildcard arm (clippy's `wildcard_enum_match_arm` is denied here):
    /// every error class must take a position in the transient/permanent
    /// split, and adding a variant without classifying it fails the
    /// compile.
    #[must_use]
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn is_transient(&self) -> bool {
        match self {
            // Retryable as-is: the fault is momentary (injected fault,
            // dropped connection, timeout) and the operation is idempotent
            // at this layer.
            KvError::Transient { .. } => true,
            // Everything else is permanent until something structural
            // changes: schema errors, wrong arguments, dropped or missing
            // tables; failed parts awaiting repair or promotion, closed
            // stores, panics needing a fix; and recovery notes or fencing
            // refusals (`WalTailDiscarded`, `StaleEpoch`) where the caller
            // must absorb the note or refresh its membership view first —
            // the networked client converts a stale epoch to `Transient`
            // only *after* observing the newer fence.
            KvError::TableExists { .. }
            | KvError::NoSuchTable { .. }
            | KvError::PartOutOfRange { .. }
            | KvError::TableDropped { .. }
            | KvError::NotCopartitioned { .. }
            | KvError::UbiquityMismatch { .. }
            | KvError::NoSuchTask { .. }
            | KvError::NoSuchCombiner { .. }
            | KvError::StoreClosed
            | KvError::PartFailed { .. }
            | KvError::TaskPanicked { .. }
            | KvError::Backend { .. }
            | KvError::WalTailDiscarded { .. }
            | KvError::StaleEpoch { .. } => false,
        }
    }
}

impl Error for KvError {}

/// Best-effort extraction of a human-readable message from a panic
/// payload (`Box<dyn Any + Send>` as produced by `catch_unwind`).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<KvError>();
    }

    #[test]
    fn display_mentions_specifics() {
        let e = KvError::NoSuchTable {
            name: "ranks".into(),
        };
        assert!(e.to_string().contains("ranks"));
        let e = KvError::PartOutOfRange { part: 9, parts: 6 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('6'));
        let e = KvError::TaskPanicked {
            part: 3,
            message: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("index out of bounds"));
        let e = KvError::Transient {
            op: "put",
            part: 2,
            detail: "injected".into(),
        };
        assert!(e.to_string().contains("transient put fault"));
    }

    #[test]
    fn transient_classification() {
        assert!(KvError::Transient {
            op: "get",
            part: 0,
            detail: String::new(),
        }
        .is_transient());
        assert!(!KvError::PartFailed { part: 0 }.is_transient());
        assert!(!KvError::StoreClosed.is_transient());
        // Stale epochs need a membership refresh, not a blind retry; the
        // networked client converts them to `Transient` only *after*
        // observing the newer fence.
        assert!(!KvError::StaleEpoch {
            seen: 1,
            current: 2
        }
        .is_transient());
    }

    #[test]
    fn panic_message_downcasts_common_payloads() {
        let p: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(p.as_ref()), "boom");
        let p: Box<dyn std::any::Any + Send> = Box::new("formatted 7".to_owned());
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
        let p: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }
}
