//! Key/value store SPI for the Ripple analytics platform.
//!
//! Ripple indirects all storage *and compute placement* through the narrow
//! interfaces in this crate (paper §III).  The store is the fundamental
//! storage+compute layer: since it is in charge of placing data, it also
//! places computation, via [`KvStore::run_at`].  The K/V EBSP engine, the
//! message-queuing layer, loaders and exporters are all written against
//! these traits only, which keeps the rest of the platform store-independent
//! — exactly the openness argument the paper makes.
//!
//! Concepts, mirroring the paper:
//!
//! - data are organized into **tables**, each partitioned into **parts**
//!   identified by successive integers starting at 0 ([`PartId`]);
//! - a key is a general object; "the table client can control the assignment
//!   of keys to parts by controlling the hash values of its keys" — here a
//!   [`RoutedKey`] pairs an explicit 64-bit route with the key body;
//! - tables can be created **co-partitioned** with another table
//!   ([`KvStore::create_table_like`]) so corresponding entries land in the
//!   same part, enabling collocated joins;
//! - a **ubiquitous table** is quick to read and of limited size; its
//!   contents are expected to be replicated to every location
//!   ([`TableSpec::ubiquitous`]);
//! - tables are enumerated part-by-part with a [`PartConsumer`] and
//!   pair-by-pair with a [`PairConsumer`], each with setup/finish/combine
//!   hooks;
//! - mobile code is dispatched adjacent to a given part of a given table
//!   with [`KvStore::run_at`]; inside that code, operations against locally
//!   placed data skip marshalling while remote operations pay it.

#![deny(clippy::unwrap_used)]

mod combine;
mod consumer;
mod durable;
mod error;
mod executor;
mod handle;
mod key;
mod member;
mod metrics;
mod recover;
mod snapshot;
mod spec;
mod store;
mod table;
mod task;

pub use combine::{CombineFn, CombinerRegistry, CombinerSpec, VEC_CONCAT};
pub use consumer::{FnPairConsumer, PairConsumer, PartConsumer, ScanControl};
pub use durable::{DurableStore, SyncPolicy};
pub use error::{panic_message, KvError};
pub use executor::PartExecutor;
pub use handle::TaskHandle;
pub use key::{fnv64, PartId, RoutedKey};
pub use member::{MembershipView, ReplicaSet, StoreEventSink};
pub use metrics::{Counter, LatencyBuckets, StoreCounters, StoreMetrics};
pub use recover::{HealableStore, RecoverableStore};
pub use snapshot::{CollectPairs, TableSnapshot};
pub use spec::TableSpec;
pub use store::KvStore;
pub use table::{PartView, Table};
pub use task::{PartTask, TaskRegistry};
