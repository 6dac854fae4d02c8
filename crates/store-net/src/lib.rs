//! `ripple-store-net`: the networked store backend.
//!
//! This crate turns the platform's storage+compute layer into a
//! client/server system: [`PartServer`] hosts the parts of any inner
//! [`KvStore`](ripple_kv::KvStore) (memory or disk) behind a TCP
//! protocol, and [`NetStore`] implements the same `KvStore` SPI on the
//! client side, so every engine, job, loader, and exporter in the
//! workspace runs unchanged against remote data.
//!
//! The architecture follows the paper's part-server model (§III):
//!
//! - **Tables are partitioned across servers** — part `p` lives on server
//!   `p % servers`; co-partitioned tables (created `like` one another)
//!   collocate equal-routed keys on the same server.
//! - **Ubiquitous tables are replicated everywhere** — writes broadcast,
//!   reads stay local to whichever server needs them.
//! - **Computation moves to data** — registered tasks dispatch by name
//!   via [`KvStore::run_named_at`](ripple_kv::KvStore::run_named_at) and
//!   run inside the owning server; ad-hoc closures
//!   ([`run_at`](ripple_kv::KvStore::run_at)) run on the client against a
//!   data-shipping remote view.
//!
//! The protocol (see [`proto`]) is request-pipelined: one pooled
//! connection per server carries any number of in-flight requests, with
//! responses matched by id, streamed enumeration chunks, and CRC-checked
//! frames.  Transient socket failures surface as
//! [`KvError::Transient`](ripple_kv::KvError::Transient), which the
//! engine's retry policy already knows how to heal.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use ripple_kv::{KvStore, RoutedKey, Table, TableSpec};
//! use ripple_store_net::LoopbackCluster;
//!
//! let cluster = LoopbackCluster::spawn(2, 4);
//! let t = cluster
//!     .store
//!     .create_table(TableSpec::new("ranks").parts(4))
//!     .unwrap();
//! t.put(RoutedKey::from_body(Bytes::from_static(b"a")), Bytes::from_static(b"1"))
//!     .unwrap();
//! assert_eq!(t.get(&RoutedKey::from_body(Bytes::from_static(b"a"))).unwrap().unwrap(),
//!            Bytes::from_static(b"1"));
//! assert!(cluster.store.metrics().rpcs > 0);
//! ```

#![deny(clippy::unwrap_used)]

pub mod chaos;
mod client;
pub mod dispatch;
mod membership;
mod pool;
pub mod proto;
mod rpc;
mod server;

pub mod loopback;

pub use chaos::{ChaosProxy, Direction, NetFault, NetFaultPlan, NetFaultRecord, PPM_ALWAYS};
pub use client::{NetConfig, NetStore, NetTable};
pub use loopback::{ChaosCluster, LoopbackCluster};
pub use membership::Membership;
pub use pool::{Pending, Pool, CONNECT_TIMEOUT, RESPONSE_TIMEOUT};
pub use rpc::{CallClass, Routing, Rpc};
pub use server::{PartServer, ServerHandle, STOP_GRACE};
