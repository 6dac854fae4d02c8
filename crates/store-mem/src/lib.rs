//! In-process partitioned key/value store for Ripple — the "parallel
//! debugging store" of the paper's evaluation (§V-A).
//!
//! [`MemStore`] implements the [`ripple_kv`] SPI with:
//!
//! - N **parts** per table lineage, served by **resident part threads**
//!   that belong to the store, not to a table: mobile code runs on a part's
//!   long lane, and a remote request/response operation (get, put, delete)
//!   hops to its short lane — the two-threads-per-partition structure the
//!   paper describes, each lane a [`ripple_kv::PartExecutor`];
//! - **marshalling accounting**: "communication between emulated partitions
//!   involves marshalling, while local operations do not".  An operation
//!   issued from mobile code running at the addressed part touches the data
//!   directly; any other operation is counted as remote, its key/value bytes
//!   added to [`StoreMetrics::bytes_marshalled`](ripple_kv::StoreMetrics),
//!   and served on a thread of the part;
//! - **co-partitioning**: [`create_table_like`](ripple_kv::KvStore::create_table_like)
//!   shares the partitioning group of an existing table so equal-routed
//!   keys are collocated;
//! - **ubiquitous tables**: single-part, readable locally from anywhere;
//! - **fault injection**: shard-granularity checkpoints
//!   ([`MemStore::checkpoint_part`]), failures ([`MemStore::fail_part`],
//!   which loses the part's un-checkpointed writes) and recovery
//!   ([`MemStore::restore_part`]) — the substrate for the EBSP engine's
//!   step-replay recovery.
//!
//! # Examples
//!
//! ```
//! use ripple_kv::{KvStore, RoutedKey, Table, TableSpec};
//! use ripple_store_mem::MemStore;
//!
//! # fn main() -> Result<(), ripple_kv::KvError> {
//! let store = MemStore::builder().default_parts(6).build();
//! let table = store.create_table(TableSpec::new("ranks").parts(6))?;
//! let key = RoutedKey::from_body(b"vertex-1".to_vec().into());
//! table.put(key.clone(), b"0.25".to_vec().into())?;
//! assert_eq!(table.get(&key)?.as_deref(), Some(&b"0.25"[..]));
//! # Ok(())
//! # }
//! ```

#![deny(clippy::unwrap_used)]

mod fault;
mod partitioning;
mod snapshot;
mod store;
mod table;
mod view;

pub use fault::{FaultKind, FaultOp, FaultPlan, FaultRecord};
pub use snapshot::PartCheckpoint;
pub use store::{MemStore, MemStoreBuilder};
pub use table::MemTable;

pub(crate) use partitioning::{at_locality, current_locality, Partitioning};
pub(crate) use table::TableInner;
