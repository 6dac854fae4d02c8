//! Run observation: the paper gives the client a callback consuming "final
//! aggregator results & the number of steps taken"; [`RunObserver`]
//! generalizes that to per-step visibility — progress reporting, tracing,
//! and experiment instrumentation hook in here without touching jobs.

use crate::profile::{StepProfile, WorkerProfile};
use crate::AggregateSnapshot;

/// One thing that happened during a run, borrowed for the duration of the
/// [`RunObserver::on_event`] call.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum RunEvent<'a> {
    /// Step `step` completed, having invoked `enabled` components;
    /// `aggregates` are the results just merged at its barrier.  Every part
    /// has flushed its state by now.
    Step {
        step: u32,
        enabled: u64,
        aggregates: &'a AggregateSnapshot,
    },
    /// A checkpoint was captured at the barrier after `step`.
    Checkpoint { step: u32 },
    /// A part failure was detected and the run rolled back to the
    /// checkpoint taken after `rewound_to_step`.
    Recovery { rewound_to_step: u32 },
    /// The failed `part` was restored and replayed alone (fast recovery)
    /// instead of rolling the whole group back; `replayed_steps` is how
    /// many steps it re-executed.
    FastRecovery { part: u32, replayed_steps: u32 },
    /// The engine observed a transient store fault at `part`, described by
    /// `detail`.  Fired before any retry decision.
    FaultInjected { part: u32, detail: &'a str },
    /// The engine is about to retry a transient fault at `part`; `attempt`
    /// is the 1-based number of the attempt that just failed.
    Retry { part: u32, attempt: u32 },
    /// The store's failure detector declared the server hosting `part`
    /// down while its replica group was fenced at `epoch`.  Fired by
    /// networked backends; in-process stores never emit it.
    PartDown { part: u32, epoch: u64 },
    /// The store promoted a standby to primary for the group hosting
    /// `part`; `epoch` is the new fencing epoch after promotion.
    Failover { part: u32, epoch: u64 },
    /// A synchronized step's profile, emitted right after the step's
    /// barrier when profiling is enabled
    /// ([`JobRunner::profile`](crate::JobRunner::profile)).
    StepProfile(&'a StepProfile),
    /// One unsynchronized worker's run-level profile, emitted as the run
    /// drains when profiling is enabled.
    WorkerProfile(&'a WorkerProfile),
}

/// Receives the [`RunEvent`]s of a run.
///
/// Observers must be cheap — they run on the controller thread between
/// barriers, and store failure events may arrive from store threads.
pub trait RunObserver: Send + Sync + 'static {
    /// Handles one event; ignore the variants you do not need.
    fn on_event(&self, event: &RunEvent<'_>);
}

/// An observer that records every event, for tests and diagnostics.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    events: parking_lot::Mutex<Vec<ObservedEvent>>,
}

/// One recorded engine event: the owned summary of a [`RunEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObservedEvent {
    /// [`RunEvent::Step`]: step, enabled.
    Step(u32, u64),
    /// [`RunEvent::Checkpoint`]: step.
    Checkpoint(u32),
    /// [`RunEvent::Recovery`]: rewound-to step.
    Recovery(u32),
    /// [`RunEvent::FastRecovery`]: part, replayed steps.
    FastRecovery(u32, u32),
    /// [`RunEvent::FaultInjected`]: part, detail.
    FaultInjected(u32, String),
    /// [`RunEvent::Retry`]: part, attempt.
    Retry(u32, u32),
    /// [`RunEvent::PartDown`]: part, epoch.
    PartDown(u32, u64),
    /// [`RunEvent::Failover`]: part, epoch.
    Failover(u32, u64),
    /// [`RunEvent::StepProfile`]: the step number.
    StepProfile(u32),
    /// [`RunEvent::WorkerProfile`]: the part.
    WorkerProfile(u32),
}

impl RecordingObserver {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes and returns the events recorded so far.
    pub fn take(&self) -> Vec<ObservedEvent> {
        std::mem::take(&mut self.events.lock())
    }
}

impl RunObserver for RecordingObserver {
    fn on_event(&self, event: &RunEvent<'_>) {
        let recorded = match *event {
            RunEvent::Step { step, enabled, .. } => ObservedEvent::Step(step, enabled),
            RunEvent::Checkpoint { step } => ObservedEvent::Checkpoint(step),
            RunEvent::Recovery { rewound_to_step } => ObservedEvent::Recovery(rewound_to_step),
            RunEvent::FastRecovery {
                part,
                replayed_steps,
            } => ObservedEvent::FastRecovery(part, replayed_steps),
            RunEvent::FaultInjected { part, detail } => {
                ObservedEvent::FaultInjected(part, detail.to_owned())
            }
            RunEvent::Retry { part, attempt } => ObservedEvent::Retry(part, attempt),
            RunEvent::PartDown { part, epoch } => ObservedEvent::PartDown(part, epoch),
            RunEvent::Failover { part, epoch } => ObservedEvent::Failover(part, epoch),
            RunEvent::StepProfile(profile) => ObservedEvent::StepProfile(profile.step),
            RunEvent::WorkerProfile(profile) => ObservedEvent::WorkerProfile(profile.part),
        };
        self.events.lock().push(recorded);
    }
}
