//! Run observation: the paper gives the client a callback consuming "final
//! aggregator results & the number of steps taken"; [`RunObserver`]
//! generalizes that to per-step visibility — progress reporting, tracing,
//! and experiment instrumentation hook in here without touching jobs.

use crate::profile::{StepProfile, WorkerProfile};
use crate::AggregateSnapshot;

/// Callbacks invoked by the synchronized engine at run boundaries.
///
/// All methods have empty defaults; implement only what you need.
/// Observers must be cheap — they run on the controller thread between
/// barriers.
pub trait RunObserver: Send + Sync + 'static {
    /// A step completed: its number, how many components it invoked, and
    /// the just-merged aggregator results.  Every part has flushed its
    /// state by now.
    fn on_step(&self, step: u32, enabled: u64, aggregates: &AggregateSnapshot) {
        let _ = (step, enabled, aggregates);
    }

    /// A checkpoint was captured at the barrier after `step`.
    fn on_checkpoint(&self, step: u32) {
        let _ = step;
    }

    /// A part failure was detected and the run rolled back to the
    /// checkpoint taken after `rewound_to_step`.
    fn on_recovery(&self, rewound_to_step: u32) {
        let _ = rewound_to_step;
    }

    /// A single failed part was restored and replayed alone (fast
    /// recovery) instead of rolling the whole group back; `replayed_steps`
    /// is how many steps the part re-executed.
    fn on_fast_recovery(&self, part: u32, replayed_steps: u32) {
        let _ = (part, replayed_steps);
    }

    /// The engine observed a transient store fault at `part`; `detail`
    /// describes it.  Fired before any retry decision.
    fn on_fault_injected(&self, part: u32, detail: &str) {
        let _ = (part, detail);
    }

    /// The engine is about to retry a transient fault at `part`;
    /// `attempt` is the 1-based number of the attempt that just failed.
    fn on_retry(&self, part: u32, attempt: u32) {
        let _ = (part, attempt);
    }

    /// The store's failure detector declared the server hosting `part`
    /// down while its replica group was fenced at `epoch`.  Fired by
    /// networked backends; in-process stores never emit it.
    fn on_part_down(&self, part: u32, epoch: u64) {
        let _ = (part, epoch);
    }

    /// The store promoted a standby to primary for the group hosting
    /// `part`; `epoch` is the new fencing epoch after promotion.
    fn on_failover(&self, part: u32, epoch: u64) {
        let _ = (part, epoch);
    }

    /// A synchronized step's profile, emitted right after the step's
    /// barrier when profiling is enabled
    /// ([`JobRunner::profile`](crate::JobRunner::profile)).
    fn on_step_profile(&self, profile: &StepProfile) {
        let _ = profile;
    }

    /// One unsynchronized worker's run-level profile, emitted as the run
    /// drains when profiling is enabled.
    fn on_worker_profile(&self, profile: &WorkerProfile) {
        let _ = profile;
    }

    /// The property auditor reported a finding — a declared-property
    /// violation, or an inference-mode advisory.  Fired by the audit
    /// harness (`ripple-audit`) as findings are established, not by the
    /// engines themselves.
    fn on_audit_finding(&self, finding: &crate::AuditFinding) {
        let _ = finding;
    }
}

/// Forwards every callback to each of a list of observers, in order — how
/// the runner composes a user observer with an internal
/// [`TraceRecorder`](crate::TraceRecorder).
pub struct FanoutObserver {
    observers: Vec<std::sync::Arc<dyn RunObserver>>,
}

impl FanoutObserver {
    /// Creates a fan-out over `observers`.
    pub fn new(observers: Vec<std::sync::Arc<dyn RunObserver>>) -> Self {
        Self { observers }
    }
}

impl RunObserver for FanoutObserver {
    fn on_step(&self, step: u32, enabled: u64, aggregates: &AggregateSnapshot) {
        for o in &self.observers {
            o.on_step(step, enabled, aggregates);
        }
    }
    fn on_checkpoint(&self, step: u32) {
        for o in &self.observers {
            o.on_checkpoint(step);
        }
    }
    fn on_recovery(&self, rewound_to_step: u32) {
        for o in &self.observers {
            o.on_recovery(rewound_to_step);
        }
    }
    fn on_fast_recovery(&self, part: u32, replayed_steps: u32) {
        for o in &self.observers {
            o.on_fast_recovery(part, replayed_steps);
        }
    }
    fn on_fault_injected(&self, part: u32, detail: &str) {
        for o in &self.observers {
            o.on_fault_injected(part, detail);
        }
    }
    fn on_retry(&self, part: u32, attempt: u32) {
        for o in &self.observers {
            o.on_retry(part, attempt);
        }
    }
    fn on_part_down(&self, part: u32, epoch: u64) {
        for o in &self.observers {
            o.on_part_down(part, epoch);
        }
    }
    fn on_failover(&self, part: u32, epoch: u64) {
        for o in &self.observers {
            o.on_failover(part, epoch);
        }
    }
    fn on_step_profile(&self, profile: &StepProfile) {
        for o in &self.observers {
            o.on_step_profile(profile);
        }
    }
    fn on_worker_profile(&self, profile: &WorkerProfile) {
        for o in &self.observers {
            o.on_worker_profile(profile);
        }
    }
    fn on_audit_finding(&self, finding: &crate::AuditFinding) {
        for o in &self.observers {
            o.on_audit_finding(finding);
        }
    }
}

/// An observer that records every callback, for tests and diagnostics.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    events: parking_lot::Mutex<Vec<ObservedEvent>>,
}

/// One recorded engine event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObservedEvent {
    /// `on_step(step, enabled)`.
    Step(u32, u64),
    /// `on_checkpoint(step)`.
    Checkpoint(u32),
    /// `on_recovery(rewound_to_step)`.
    Recovery(u32),
    /// `on_fast_recovery(part, replayed_steps)`.
    FastRecovery(u32, u32),
    /// `on_fault_injected(part, detail)`.
    FaultInjected(u32, String),
    /// `on_retry(part, attempt)`.
    Retry(u32, u32),
    /// `on_part_down(part, epoch)`.
    PartDown(u32, u64),
    /// `on_failover(part, epoch)`.
    Failover(u32, u64),
    /// `on_step_profile(profile)` — the step number.
    StepProfile(u32),
    /// `on_worker_profile(profile)` — the part.
    WorkerProfile(u32),
    /// `on_audit_finding(finding)` — the property and step.
    AuditFinding(&'static str, u32),
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
    fn on_step(&self, step: u32, enabled: u64, _aggregates: &AggregateSnapshot) {
        self.events.lock().push(ObservedEvent::Step(step, enabled));
    }
    fn on_checkpoint(&self, step: u32) {
        self.events.lock().push(ObservedEvent::Checkpoint(step));
    }
    fn on_recovery(&self, rewound_to_step: u32) {
        self.events
            .lock()
            .push(ObservedEvent::Recovery(rewound_to_step));
    }
    fn on_fast_recovery(&self, part: u32, replayed_steps: u32) {
        self.events
            .lock()
            .push(ObservedEvent::FastRecovery(part, replayed_steps));
    }
    fn on_fault_injected(&self, part: u32, detail: &str) {
        self.events
            .lock()
            .push(ObservedEvent::FaultInjected(part, detail.to_owned()));
    }
    fn on_retry(&self, part: u32, attempt: u32) {
        self.events.lock().push(ObservedEvent::Retry(part, attempt));
    }
    fn on_part_down(&self, part: u32, epoch: u64) {
        self.events
            .lock()
            .push(ObservedEvent::PartDown(part, epoch));
    }
    fn on_failover(&self, part: u32, epoch: u64) {
        self.events
            .lock()
            .push(ObservedEvent::Failover(part, epoch));
    }
    fn on_step_profile(&self, profile: &StepProfile) {
        self.events
            .lock()
            .push(ObservedEvent::StepProfile(profile.step));
    }
    fn on_worker_profile(&self, profile: &WorkerProfile) {
        self.events
            .lock()
            .push(ObservedEvent::WorkerProfile(profile.part));
    }
    fn on_audit_finding(&self, finding: &crate::AuditFinding) {
        self.events
            .lock()
            .push(ObservedEvent::AuditFinding(finding.property, finding.step));
    }
}
