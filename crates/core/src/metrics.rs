use std::fmt;
use std::time::Duration;

use ripple_kv::StoreMetrics;

/// Declares the engine's work counters once: the [`StepCounters`] fields,
/// their merge, their `(name, value)` listing, and how [`RunMetrics`]
/// absorbs them into its same-named fields.
macro_rules! step_counters {
    ($($(#[doc = $doc:literal])+ $field:ident,)+) => {
        /// The engine's work counters: what compute invocations and
        /// delivery did within one step of one part (or one unsynchronized
        /// worker), merged across parts into a step's
        /// [`StepProfile::counters`](crate::StepProfile::counters).  They
        /// are the quantities [`RunMetrics`] totals over the run, so summing
        /// the steps of a run reproduces the run-level numbers.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StepCounters {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        impl StepCounters {
            /// Adds `other` field by field.
            pub fn merge(&mut self, other: &StepCounters) {
                $(self.$field += other.$field;)+
            }

            /// Every counter as a `(name, value)` pair, in declaration
            /// order; the names are the field names.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field)),+].into_iter()
            }
        }

        impl RunMetrics {
            pub(crate) fn absorb(&mut self, c: &StepCounters) {
                $(self.$field += c.$field;)+
            }
        }
    };
}

step_counters! {
    /// Compute invocations.
    invocations,
    /// Messages sent (before combining).
    messages_sent,
    /// Message pairs merged by the combiner: as invocations sent, and on
    /// arrival of what the previous step spilled.
    messages_combined,
    /// State-table reads.
    state_reads,
    /// State-table writes.
    state_writes,
    /// State-table deletes.
    state_deletes,
    /// Component-state creations requested.
    creates,
    /// Direct job output pairs emitted.
    direct_outputs,
    /// Spill batches written to the transport table.
    spill_batches,
}

/// What a completed job run did: the observable cost model of the paper's
/// evaluation — steps, synchronization barriers, compute invocations,
/// message and state traffic, spills, the store's marshalling delta, and
/// wall-clock time.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Steps executed (0 for an unsynchronized run).
    pub steps: u32,
    /// Synchronization barriers crossed (= steps when synchronized, 0 when
    /// not — the quantity the SUMMA experiment varies).
    pub barriers: u32,
    /// Total compute invocations.
    pub invocations: u64,
    /// Messages sent by compute invocations (before combining).
    pub messages_sent: u64,
    /// Message pairs merged by the job's combiner.
    pub messages_combined: u64,
    /// State-table reads issued by compute invocations.
    pub state_reads: u64,
    /// State-table writes issued by compute invocations.
    pub state_writes: u64,
    /// State-table deletes issued by compute invocations.
    pub state_deletes: u64,
    /// Component-state creations requested.
    pub creates: u64,
    /// Direct job output pairs emitted.
    pub direct_outputs: u64,
    /// Spill batches written to the transport table.
    pub spill_batches: u64,
    /// Retries of transient store faults performed under the run's
    /// [`RetryPolicy`](crate::RetryPolicy).
    pub retries: u64,
    /// Recoveries performed after injected or real part failures.
    pub recoveries: u32,
    /// Part-steps re-executed by recovery: whole-group rollback counts
    /// every part for every rewound step, fast recovery counts only the
    /// failed part's replayed steps.
    pub replayed_part_steps: u64,
    /// Durable barrier commits performed by a durable launch: barrier
    /// markers logged, resume journal flushed, logs optionally compacted.
    /// Zero for every other entry point.
    pub durable_barriers: u64,
    /// The store's operation/marshalling counters, as a delta over the run.
    pub store: StoreMetrics,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} steps, {} barriers, {} invocations, {} msgs ({} combined), \
             state r/w/d {}/{}/{}, {} creates, {} direct outputs, {} spills, \
             {} retries, {} recoveries \
             ({} part-steps replayed), {} durable barriers, {:.3}s [{}]",
            self.steps,
            self.barriers,
            self.invocations,
            self.messages_sent,
            self.messages_combined,
            self.state_reads,
            self.state_writes,
            self.state_deletes,
            self.creates,
            self.direct_outputs,
            self.spill_batches,
            self.retries,
            self.recoveries,
            self.replayed_part_steps,
            self.durable_barriers,
            self.elapsed.as_secs_f64(),
            self.store,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_fieldwise() {
        let mut a = StepCounters {
            invocations: 1,
            messages_sent: 2,
            ..Default::default()
        };
        let b = StepCounters {
            invocations: 10,
            state_writes: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.invocations, 11);
        assert_eq!(a.messages_sent, 2);
        assert_eq!(a.state_writes, 3);
    }

    #[test]
    fn run_metrics_absorbs_counters() {
        let mut m = RunMetrics::default();
        m.absorb(&StepCounters {
            invocations: 5,
            direct_outputs: 2,
            ..Default::default()
        });
        m.absorb(&StepCounters {
            invocations: 3,
            ..Default::default()
        });
        assert_eq!(m.invocations, 8);
        assert_eq!(m.direct_outputs, 2);
        assert!(!m.to_string().is_empty());
    }

    #[test]
    fn display_includes_every_documented_counter() {
        let m = RunMetrics {
            creates: 11,
            direct_outputs: 13,
            ..Default::default()
        };
        let s = m.to_string();
        assert!(s.contains("11 creates"), "creates missing from {s:?}");
        assert!(
            s.contains("13 direct outputs"),
            "direct_outputs missing from {s:?}"
        );
    }
}
