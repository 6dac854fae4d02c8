//! **K/V EBSP** — key/value extended bulk-synchronous-parallel processing,
//! the core programming model and engine of the Ripple analytics platform
//! (ICDCS 2013).
//!
//! # The programming model (paper §II)
//!
//! The central concept is a [`Job`].  A job's computation is spread over
//! *components*, one per key; a component's private local state is the
//! values associated with its key in each of a list of key/value *state
//! tables*.  Temporally the computation is a series of *steps*: during a
//! step, enabled components execute the job's
//! [`compute`](Job::compute) function
//!
//! ```text
//! compute: (previous state, incoming messages)
//!            -> (new state, outgoing messages, continue signal)
//! ```
//!
//! with a synchronization barrier between steps — all messages flow across
//! barriers, so a message sent in step *i* is received in step *i + 1*.
//!
//! Extensions beyond plain iterated MapReduce, all implemented here:
//!
//! - **Selective enablement**: a component runs in a step iff it returned
//!   the positive continue signal in the previous step *or* was sent a
//!   message in the previous step.  Work is proportional to activity, not
//!   to data size.
//! - **Multiple state tables**, entries created and deleted as the job
//!   runs; a component *exists* when it has state entries or input
//!   messages.
//! - **Message combiners** and **conflicting-state mergers**.
//! - **Aggregators** (named, read back the following step), **broadcast
//!   data** (a ubiquitous table), **direct job output**, **loaders** and
//!   **exporters**, and an optional **aborter**.
//! - **Declared job properties** ([`JobProperties`]) from which the engine
//!   derives an [`ExecutionPlan`]: skip sorting, skip collecting value
//!   lists, run anywhere (work stealing), *run with no synchronization at
//!   all* (queue-set execution with Huang-style termination detection), and
//!   checkpoint/replay failure recovery tuned by determinism.
//!
//! # Quick start
//!
//! See [`JobRunner`] for a runnable end-to-end example, and the repository
//! `examples/` directory for PageRank, SUMMA matrix multiplication, and
//! incremental single-source shortest paths.

#![deny(clippy::unwrap_used)]

mod aggregate;
mod audit;
mod context;
mod cost;
mod envelope;
mod error;
mod export;
mod hash;
mod job;
mod loader;
mod metrics;
mod observer;
mod options;
mod profile;
mod properties;
mod retry;
mod runner;
mod sched;
mod simple;
mod termination;
mod trace;

pub(crate) mod engine;

#[cfg(test)]
mod message_plane_tests;

pub use aggregate::{
    AggValue, Aggregate, AggregateSnapshot, AggregatorRegistry, CountAgg, MaxI64, MinI64, SumF64,
    SumI64,
};
pub use audit::{AuditFinding, AuditProbe, FindingKind, StateOp};
pub use context::ComputeContext;
pub use cost::{estimated_network_time, useful_h_bytes, CostModel, StepCost};
pub use envelope::Envelope;
pub use error::EbspError;
pub use export::{export_state_table, CollectingExporter, DiscardExporter, Exporter};
pub use job::{Job, StateExporters};
pub use loader::{FnLoader, LoadSink, Loader, PairsLoader, TableLoader};
pub use metrics::{RunMetrics, StepCounters};
pub use observer::{ObservedEvent, RecordingObserver, RunEvent, RunObserver};
pub use options::{Basic, Durable, Heal, LaunchMode, Recover, RunOptions};
pub use profile::{PartStepProfile, StepProfile, WorkerProfile};
pub use properties::{ExecMode, ExecutionPlan, JobProperties};
pub use retry::RetryPolicy;
pub use runner::{JobRunner, QueueKind, RunOutcome};
pub use sched::{GatePermit, SemaphoreGate, TaskGate};
pub use simple::{SimpleJob, SimpleJobBuilder};
pub use termination::WeightThrow;
pub use trace::{step_profiles_json, worker_profiles_json, TraceRecorder};

use ripple_kv::RoutedKey;
use ripple_wire::{ByteWriter, Encode};

/// Routes a component key: encode, hash, place — the one true mapping from
/// component keys to store keys used by state tables, messages, and the
/// transport table, so that everything about one component is collocated.
/// A key of at most 16 encoded bytes is held inline.
pub fn key_to_routed<K: Encode>(key: &K) -> RoutedKey {
    let mut scratch = ByteWriter::with_capacity(key.size_hint());
    RoutedKey::from_slice(encode_via(&mut scratch, key))
}

/// `key`'s encoding, written into `scratch` after emptying it: how the
/// engine routes a key with no allocation once `scratch` has grown.
pub(crate) fn encode_via<'a, K: Encode + ?Sized>(scratch: &'a mut ByteWriter, key: &K) -> &'a [u8] {
    scratch.clear();
    key.encode(scratch);
    scratch.as_slice()
}
