//! `ripple-server` — a resident multi-tenant job service over the Ripple
//! runtime.
//!
//! The paper's deployment model (§III) is a *standing* collection of
//! part servers that analytics jobs are submitted to, not a cluster each
//! job boots and tears down.  [`JobRunner`](ripple_core::JobRunner) by
//! itself reproduces only the one-shot driver; this crate adds the
//! service around it:
//!
//! - **Admission** ([`quota`]) — a [`JobSpec`] declares parts, state
//!   footprint, and optional quota override; the server refuses with a
//!   typed [`AdmitError`] (job limit, parts quota, memory quota, name
//!   collision, shutdown) instead of degrading everyone.
//! - **Fair scheduling** ([`sched`]) — all admitted jobs' part-tasks
//!   contend for one pool of compute slots; a round-robin
//!   [`FairScheduler`] interleaves grants *across jobs* so a wide job
//!   cannot starve a narrow one, and meters per-job grants and queue
//!   wait.  The gate rides the runner's
//!   [`task_gate`](ripple_core::JobRunner::task_gate) hook, acquired
//!   outside the engine's timed spans — profiles keep pricing real work.
//! - **Accounting** ([`server`]) — every launch's
//!   [`StepProfile`](ripple_core::StepProfile)s fold into a per-job
//!   [`JobAccount`] carrying the BSP cost terms (`Σw`, `Σh`, `Σl`) next
//!   to the scheduler's meters; [`JobServer::accounting_json`] exports
//!   the lot.
//! - **Serving mode** ([`serving`]) — a resident incremental-SSSP job
//!   ([`ServingSssp`]): mutations stream through a
//!   [`MutationQueue`](ripple_graph::MutationQueue), each drained batch
//!   runs as one selective-enablement wave, and point queries are
//!   answered from the last barrier's consistent snapshot without
//!   stopping the job.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ripple_core::{FnLoader, LoadSink, RunOptions, SimpleJob};
//! use ripple_server::{JobServer, JobSpec, ServerConfig};
//! use ripple_store_mem::MemStore;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let store = MemStore::builder().default_parts(4).build();
//! let server = JobServer::single(ServerConfig::with_workers(2), store);
//!
//! let job = SimpleJob::<u32, u32, u32>::builder("count")
//!     .compute(|ctx| {
//!         let v = ctx.read_state(0)?.unwrap_or(0);
//!         ctx.write_state(0, &v.saturating_sub(1))?;
//!         Ok(v > 1)
//!     })
//!     .build();
//! let loader = FnLoader::new(|sink: &mut dyn LoadSink<SimpleJob<u32, u32, u32>>| {
//!     for k in 0..4u32 {
//!         sink.state(0, k, 3)?;
//!         sink.enable(k)?;
//!     }
//!     Ok(())
//! });
//!
//! let handle = server.submit(
//!     "count",
//!     &JobSpec::new(4),
//!     Arc::new(job),
//!     RunOptions::new().loader(Box::new(loader)),
//! )?;
//! let outcome = handle.wait()?;
//! assert_eq!(outcome.steps, 3);
//! assert_eq!(server.account("count").unwrap().steps, 3);
//! # Ok(())
//! # }
//! ```

pub mod quota;
pub mod sched;
pub mod server;
pub mod serving;

pub use quota::{AdmitError, JobQuota, JobSpec, ServerConfig};
pub use sched::{FairScheduler, JobGate, SchedAccount};
pub use server::{JobAccount, JobHandle, JobServer, JobStatus, ResidentJob};
pub use serving::{QueryAnswer, ServeError, ServingReport, ServingSssp};
