//! The *run-anywhere* step (§II-A): `no-collect ∧ rare-state ⇒
//! run-anywhere` — "the implementation can freely engage in work-stealing,
//! for example to balance load.  As the work done by a given component in a
//! given step requires little access to its associated state, there is
//! little penalty to performing this work at a location distant from the
//! state.  As there is at most one message per key and step, there is no
//! need to pin a compute invocation to a rendezvous point for multiple
//! messages."
//!
//! Implementation: each part delivers what the previous step spilled to it
//! and hands the enabled components to the controller, which puts them in
//! a shared work queue; one worker per part then steals batches from that
//! queue and invokes components *wherever it runs*, reaching state through
//! ordinary table handles (paying remote marshalling where non-local —
//! cheap by the `rare-state` assumption).  The worker running at part `p`
//! spills as `p`, so what it sends to `p` is `p`'s hand-off.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use ripple_kv::KvStore;

use crate::engine::{run_parts, Enabled, GlobalStateOps, JobEnv, PartOutput, PartTask};
use crate::{AggregateSnapshot, EbspError, ExecMode, Job};

/// How many enabled components a worker steals per lock acquisition.
const STEAL_BATCH: usize = 16;

/// Runs one step with work-stealing across all parts — a deliver round,
/// then a steal round — returning the merged output.
pub(crate) fn run_step_anywhere<S: KvStore, J: Job>(
    env: &JobEnv<S, J>,
    task: &Arc<PartTask<S::Table, J>>,
    step: u32,
    prev_agg: &AggregateSnapshot,
) -> Result<PartOutput, EbspError> {
    // Round one: every part delivers and ships its enabled components to
    // the controller (this is the "distant from the state" traffic the
    // rare-state property declares cheap).
    let begun = Instant::now();
    let mut output = PartOutput::default();
    let mut queue: Vec<Enabled<J>> = Vec::new();
    let delivering = run_parts(env, task, move |task, view| {
        let mut slot = task.slot(view.part().0);
        let counters = task.deliver(view, step, None, &mut slot)?;
        Ok((std::mem::take(&mut slot.inbox), counters))
    });
    for (delivered, _) in delivering {
        let (enabled, counters) = delivered?;
        queue.extend(enabled);
        output.counters.merge(&counters);
    }
    // Deterministic stealing order (matters for deterministic replay).
    queue.sort_by(|a, b| a.1.cmp(&b.1));
    let queue = Arc::new(Mutex::new(queue));
    output.delivery = begun.elapsed();

    // Round two: one stealing worker per part.
    let tables = env.tables.clone();
    let broadcast = env
        .broadcast_name
        .as_ref()
        .and_then(|n| env.store.lookup_table(n).ok());
    let prev = prev_agg.clone();
    let mut first_err: Option<EbspError> = None;
    for (stolen, _) in run_parts(env, task, move |task, view| {
        let part = view.part();
        let ops = GlobalStateOps {
            tables: &tables,
            broadcast: broadcast.as_ref(),
            retry: &task.retry,
            part: part.0,
        };
        // run-anywhere implies no-collect implies no-continue, so the
        // invocation core rejects every positive continue signal.
        let mut slot = task.slot(part.0);
        let mut invoker = task.invoker(ExecMode::Synchronized, part, &ops, &prev, &mut slot.out);
        let mut enabled = 0;
        loop {
            let batch = {
                let mut q = queue.lock();
                let take = q.len().min(STEAL_BATCH);
                if take == 0 {
                    break;
                }
                let at = q.len() - take;
                q.split_off(at)
            };
            enabled += batch.len() as u64;
            for (key, routed, messages) in batch {
                invoker.invoke(step, key, routed, messages)?;
            }
        }
        Ok(PartOutput {
            enabled,
            ..task.finish_compute(step, part.0, &mut slot)?
        })
    }) {
        match stolen {
            Ok(part) => task.merge_output(&mut output, part),
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    first_err.map_or(Ok(output), Err)
}
