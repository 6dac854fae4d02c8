//! Step-level run profiles: the measurement substrate for the BSP cost
//! model.
//!
//! The paper's evaluation reasons entirely in per-superstep costs, and the
//! classic BSP cost model prices a run as `T = Σᵢ (wᵢ + g·hᵢ + l)` — per
//! step, the longest local work `wᵢ`, the h-relation `hᵢ` (data exchanged
//! across part boundaries), and the barrier latency `l`.  [`RunMetrics`]
//! only reports whole-run totals; a [`StepProfile`] is one step's term of
//! the sum:
//!
//! - `wᵢ` — the per-part compute wall times ([`PartStepProfile::compute`],
//!   the part task's span after delivery; the step's critical path is the
//!   maximum over parts),
//! - `g·hᵢ` — the per-step [`StoreMetrics`] delta ([`StepProfile::store`]:
//!   bytes marshalled, local vs remote operations),
//! - `l` — approximated from below by [`StepProfile::barrier_skew`], the
//!   spread between the first and last part to reach the barrier (time the
//!   fast parts spend waiting).
//!
//! The unsynchronized engine has no steps; its analogue is the per-worker
//! [`WorkerProfile`] — busy/idle split and batch-shape counters over the
//! whole run.
//!
//! Profiles are collected only when [`JobRunner::profile`] is enabled,
//! stream through
//! [`RunObserver::on_step_profile`] as each barrier completes, and land on
//! [`RunOutcome::profiles`] / [`RunOutcome::worker_profiles`].
//!
//! [`JobRunner::profile`]: crate::JobRunner::profile
//! [`RunObserver::on_step_profile`]: crate::RunObserver::on_step_profile
//! [`RunOutcome::profiles`]: crate::RunOutcome::profiles
//! [`RunOutcome::worker_profiles`]: crate::RunOutcome::worker_profiles
//! [`RunMetrics`]: crate::RunMetrics

use std::time::Duration;

use ripple_kv::StoreMetrics;

use crate::metrics::PartCounters;

/// One part's timings within one synchronized step.  A step is one task
/// per part: it first delivers what the previous step spilled to the part
/// (`inbox_*`), then invokes, flushes state and spills (`compute*`).
///
/// All instants are offsets from the start of the run, so profiles from
/// one run share a single timeline (which is what a trace viewer wants).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartStepProfile {
    /// The part.
    pub part: u32,
    /// When this part's task began invoking (delivery done), as an offset
    /// from run start.
    pub compute_start: Duration,
    /// Wall time the part's task spent after delivery: invocations, state
    /// flush, spills.
    pub compute: Duration,
    /// When this part's task started, offset from run start.
    pub inbox_start: Duration,
    /// Wall time the part's task spent delivering: transport drain, decode,
    /// fold, state creations, ordering.
    pub inbox_build: Duration,
    /// This part's store-operation delta over the step, when the store
    /// attributes counters per part
    /// ([`KvStore::part_metrics`](ripple_kv::KvStore::part_metrics));
    /// all-zero otherwise.
    pub store: StoreMetrics,
}

/// Aggregate work counters for one step — the same quantities
/// [`RunMetrics`](crate::RunMetrics) totals over the run, so summing the
/// steps of a run reproduces the run-level numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCounters {
    /// Compute invocations this step.
    pub invocations: u64,
    /// Messages sent this step (before combining).
    pub messages_sent: u64,
    /// Message pairs merged by the combiner: as this step's invocations
    /// sent, and on arrival of what the previous step spilled.
    pub messages_combined: u64,
    /// State-table reads.
    pub state_reads: u64,
    /// State-table writes.
    pub state_writes: u64,
    /// State-table deletes.
    pub state_deletes: u64,
    /// Component-state creations requested.
    pub creates: u64,
    /// Direct job output pairs emitted.
    pub direct_outputs: u64,
    /// Spill batches written to the transport table.
    pub spill_batches: u64,
}

impl StepCounters {
    pub(crate) fn from_part_counters(c: &PartCounters) -> Self {
        Self {
            invocations: c.invocations,
            messages_sent: c.messages_sent,
            messages_combined: c.messages_combined,
            state_reads: c.state_reads,
            state_writes: c.state_writes,
            state_deletes: c.state_deletes,
            creates: c.creates,
            direct_outputs: c.direct_outputs,
            spill_batches: c.spill_batches,
        }
    }
}

/// The profile of one synchronized step: per-part delivery and compute
/// wall times, barrier skew, per-step work counters, and the store's
/// operation/marshalling delta attributable to the step.
///
/// Per-step store deltas are taken back-to-back (each step's interval ends
/// where the next begins, and the first begins at the run's own baseline),
/// so over a run without recoveries they sum exactly to the run-level
/// [`RunMetrics::store`](crate::RunMetrics::store) delta.  Steps that are
/// rolled back by recovery are not re-emitted; their cost folds into the
/// successful re-execution's delta.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepProfile {
    /// The step number (1-based, as observed by `compute`).
    pub step: u32,
    /// When the step's round started, offset from run start.
    pub start: Duration,
    /// Controller wall time of the round (dispatch to barrier) past
    /// [`StepProfile::inbox_wall`], so the two sum to the step.
    pub compute_wall: Duration,
    /// The critical-path delivery span: the slowest part's
    /// [`PartStepProfile::inbox_build`] (under `run_anywhere`, the wall time
    /// of the deliver round).
    pub inbox_wall: Duration,
    /// Barrier skew: latest minus earliest part finish time — how long the
    /// fastest part waited at the barrier.
    pub barrier_skew: Duration,
    /// Components this step invoked.
    pub enabled: u64,
    /// Per-part timings.  Empty when the step ran work-stealing
    /// (`run_anywhere`), where work has no per-part home.
    pub parts: Vec<PartStepProfile>,
    /// Work counters for this step.
    pub counters: StepCounters,
    /// The store's operation/marshalling delta over this step — the
    /// h-relation term of the BSP cost model.
    pub store: StoreMetrics,
}

impl StepProfile {
    /// The step's critical-path compute time: the slowest part, or the
    /// whole compute wall when per-part timings are unavailable.
    pub fn critical_compute(&self) -> Duration {
        self.parts
            .iter()
            .map(|p| p.compute)
            .max()
            .unwrap_or(self.compute_wall)
    }
}

/// The run-level profile of one unsynchronized worker: how its wall time
/// split between computing and waiting, and the shape of the batches it
/// drained (the queue-depth signal — a worker that always drains full
/// batches is saturated; one that mostly times out is idle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// The part this worker served.
    pub part: u32,
    /// When this worker first went busy (its first batch arrived), as an
    /// offset from run start — the anchor for this worker's lane on the
    /// shared run timeline.  Zero if the worker never saw work.
    pub start: Duration,
    /// Wall time spent processing batches (decode through weight
    /// give-back, including compute and sends).
    pub busy: Duration,
    /// Wall time spent blocked on the queue (idle polls and the waits that
    /// preceded each first-of-batch message).
    pub idle: Duration,
    /// Batches drained.
    pub batches: u64,
    /// Envelopes consumed across all batches.
    pub envelopes: u64,
    /// Largest single batch drained (bounded by the engine's batch limit).
    pub max_batch: u64,
    /// Idle polls that returned no message.
    pub empty_polls: u64,
}

impl WorkerProfile {
    /// Fraction of observed wall time this worker was busy (0 when nothing
    /// was observed).
    pub fn utilization(&self) -> f64 {
        let total = self.busy.as_secs_f64() + self.idle.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.busy.as_secs_f64() / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counters_mirror_part_counters() {
        let c = PartCounters {
            invocations: 3,
            messages_sent: 5,
            creates: 2,
            direct_outputs: 7,
            ..Default::default()
        };
        let s = StepCounters::from_part_counters(&c);
        assert_eq!(s.invocations, 3);
        assert_eq!(s.messages_sent, 5);
        assert_eq!(s.creates, 2);
        assert_eq!(s.direct_outputs, 7);
    }

    #[test]
    fn critical_compute_prefers_part_maximum() {
        let mut p = StepProfile {
            compute_wall: Duration::from_millis(10),
            ..Default::default()
        };
        assert_eq!(p.critical_compute(), Duration::from_millis(10));
        p.parts = vec![
            PartStepProfile {
                part: 0,
                compute: Duration::from_millis(3),
                ..Default::default()
            },
            PartStepProfile {
                part: 1,
                compute: Duration::from_millis(8),
                ..Default::default()
            },
        ];
        assert_eq!(p.critical_compute(), Duration::from_millis(8));
    }

    #[test]
    fn utilization_is_busy_fraction() {
        let w = WorkerProfile {
            busy: Duration::from_millis(30),
            idle: Duration::from_millis(10),
            ..Default::default()
        };
        assert!((w.utilization() - 0.75).abs() < 1e-9);
        assert_eq!(WorkerProfile::default().utilization(), 0.0);
    }
}
