//! The *run-anywhere* compute phase (§II-A): `no-collect ∧ rare-state ⇒
//! run-anywhere` — "the implementation can freely engage in work-stealing,
//! for example to balance load.  As the work done by a given component in a
//! given step requires little access to its associated state, there is
//! little penalty to performing this work at a location distant from the
//! state.  As there is at most one message per key and step, there is no
//! need to pin a compute invocation to a rendezvous point for multiple
//! messages."
//!
//! Implementation: each part drains its inbox and hands the entries to the
//! controller, which puts them in a shared work queue; one worker per part
//! then steals batches from that queue and invokes components *wherever it
//! runs*, reaching state through ordinary table handles (paying remote
//! marshalling where non-local — cheap by the `rare-state` assumption).

use std::sync::Arc;

use parking_lot::Mutex;
use ripple_kv::{KvStore, PartId, Table};
use ripple_wire::from_wire;

use crate::engine::{GlobalStateOps, JobEnv, PartOutput, PartTask, Records};
use crate::metrics::PartCounters;
use crate::{AggregateSnapshot, EbspError, ExecMode, Job};

/// How many inbox entries a worker steals per lock acquisition.
const STEAL_BATCH: usize = 16;

/// Runs one step's compute invocations with work-stealing across all
/// parts, returning merged aggregates and counters.
pub(crate) fn run_compute_phase_anywhere<S: KvStore, J: Job>(
    env: &JobEnv<S, J>,
    task: &Arc<PartTask<S::Table, J>>,
    step: u32,
    prev_agg: &AggregateSnapshot,
) -> Result<PartOutput, EbspError> {
    // Phase A: every part drains its inbox and ships the entries to the
    // controller (this is the "distant from the state" traffic the
    // rare-state property declares cheap).
    let drained = {
        let task = Arc::clone(task);
        env.store.run_at_all(&env.reference, move |view| {
            task.drain(view, task.temps().inbox.name())
        })?
    };
    let mut queue = Records::new();
    for entries in drained {
        queue.extend(entries?);
    }
    // Deterministic stealing order (matters for deterministic replay).
    queue.sort_by(|a, b| a.0.cmp(&b.0));
    let queue = Arc::new(Mutex::new(queue));

    // Phase B: one stealing worker per part.
    let handles: Vec<_> = (0..task.parts)
        .map(|p| {
            let task = Arc::clone(task);
            let queue = Arc::clone(&queue);
            let prev = prev_agg.clone();
            let ops = GlobalStateOps {
                tables: env.tables.clone(),
                broadcast: env
                    .broadcast_name
                    .as_ref()
                    .and_then(|n| env.store.lookup_table(n).ok()),
            };
            env.store.run_at(&env.reference, PartId(p), move |view| {
                let part = view.part();
                // run-anywhere implies no-collect implies no-continue, so
                // the invocation core rejects every positive continue signal.
                let mut invoker = task.invoker(ExecMode::Synchronized, part, &ops, &prev);
                loop {
                    let batch: Records = {
                        let mut q = queue.lock();
                        let take = q.len().min(STEAL_BATCH);
                        if take == 0 {
                            break;
                        }
                        let at = q.len() - take;
                        q.split_off(at)
                    };
                    for (routed, bytes) in batch {
                        let key: J::Key = from_wire(routed.body())?;
                        let messages: Vec<J::Message> = from_wire(&bytes)?;
                        invoker.invoke(step, key, routed, messages)?;
                    }
                }
                task.finish_compute(step, part.0, invoker.out)
            })
        })
        .collect();

    let mut output = (env.registry.identities(), PartCounters::default());
    let mut first_err: Option<EbspError> = None;
    for handle in handles {
        match handle
            .join()
            .map_err(EbspError::Kv)
            .and_then(|result| result)
        {
            Ok(part) => task.merge_output(&mut output, part),
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    first_err.map_or(Ok(output), Err)
}
