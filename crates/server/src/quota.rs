//! Admission control: per-job resource quotas and typed rejections.
//!
//! The paper's runtime is a *resident service* — §III describes jobs being
//! submitted to an already-running collection of part servers rather than
//! each job booting its own cluster.  A resident service that admits
//! everything is a denial-of-service amplifier, so admission is the first
//! gate: a [`JobSpec`] declares what the job wants, a [`JobQuota`] bounds
//! what the server will give it, and a violation is a typed
//! [`AdmitError`] the client can react to (resubmit smaller, wait, pick
//! another server) instead of a stringly-typed surprise mid-run.

use std::time::Duration;

/// Per-job resource bounds enforced at admission and during the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobQuota {
    /// Most table parts one job may spread over.
    pub max_parts: u32,
    /// Most state bytes the job may *declare* at submission
    /// ([`JobSpec::est_state_bytes`]); declared, not metered — the
    /// admission analogue of a container memory request.
    pub max_state_bytes: u64,
    /// Superstep budget per launch; enforced by the engine's step cap, so
    /// a runaway job yields its workers back at the next barrier.
    pub max_supersteps: u32,
}

impl Default for JobQuota {
    fn default() -> Self {
        Self {
            max_parts: 64,
            max_state_bytes: 1 << 30,
            max_supersteps: 100_000,
        }
    }
}

/// What a client declares when submitting a job to the server.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Parts the job's tables will use (also the fan-out of its
    /// part-tasks per step).
    pub parts: u32,
    /// Declared state footprint in bytes, checked against
    /// [`JobQuota::max_state_bytes`].
    pub est_state_bytes: u64,
    /// Per-job quota override; `None` uses the server's default quota.
    pub quota: Option<JobQuota>,
    /// Collect per-step profiles for this job (on by default — the
    /// server's accounting is built from them).
    pub profile: bool,
    /// Pin the job to a specific store in the server's pool; `None`
    /// places it round-robin.
    pub placement: Option<usize>,
}

impl JobSpec {
    /// A spec over `parts` parts with no declared state bytes, default
    /// quota, and profiling on.
    #[must_use]
    pub fn new(parts: u32) -> Self {
        Self {
            parts,
            est_state_bytes: 0,
            quota: None,
            profile: true,
            placement: None,
        }
    }

    /// Declares the job's state footprint.
    #[must_use]
    pub fn state_bytes(mut self, bytes: u64) -> Self {
        self.est_state_bytes = bytes;
        self
    }

    /// Overrides the server's default quota for this job.
    #[must_use]
    pub fn quota(mut self, quota: JobQuota) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Turns per-step profiling off for this job.
    #[must_use]
    pub fn no_profile(mut self) -> Self {
        self.profile = false;
        self
    }

    /// Pins the job to store `index` of the server's pool (modulo pool
    /// size).
    #[must_use]
    pub fn placement(mut self, index: usize) -> Self {
        self.placement = Some(index);
        self
    }
}

/// Why the server refused to admit a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The server is at its concurrent-job limit.
    TooManyJobs {
        /// Jobs currently admitted (running or resident).
        admitted: usize,
        /// The server's limit.
        max: usize,
    },
    /// The job asked for more parts than its quota allows.
    PartsQuota {
        /// Parts requested.
        requested: u32,
        /// Quota limit.
        max: u32,
    },
    /// The job declared more state bytes than its quota allows.
    MemoryQuota {
        /// Bytes declared.
        declared: u64,
        /// Quota limit.
        max: u64,
    },
    /// A job with this name is already admitted.
    NameTaken(String),
    /// The server is shutting down and admits nothing new.
    ShuttingDown,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooManyJobs { admitted, max } => {
                write!(f, "job limit reached ({admitted} admitted, max {max})")
            }
            Self::PartsQuota { requested, max } => {
                write!(f, "parts quota exceeded ({requested} requested, max {max})")
            }
            Self::MemoryQuota { declared, max } => {
                write!(
                    f,
                    "memory quota exceeded ({declared} bytes declared, max {max})"
                )
            }
            Self::NameTaken(name) => write!(f, "job name {name:?} already admitted"),
            Self::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Server-wide configuration fixed at construction.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Compute-slot count of the shared worker pool: at most this many
    /// part-tasks (across *all* jobs) execute concurrently.
    pub workers: usize,
    /// Most jobs admitted at once (running plus resident).
    pub max_jobs: usize,
    /// Quota applied to jobs that do not override it.
    pub default_quota: JobQuota,
    /// How long a resident serving loop sleeps waiting for mutations
    /// before re-checking for shutdown.
    pub serve_poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_jobs: 8,
            default_quota: JobQuota::default(),
            serve_poll: Duration::from_millis(50),
        }
    }
}

impl ServerConfig {
    /// A config with `workers` compute slots and defaults elsewhere.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_applies_fields() {
        let quota = JobQuota {
            max_parts: 2,
            max_state_bytes: 100,
            max_supersteps: 10,
        };
        let spec = JobSpec::new(4).state_bytes(64).quota(quota).no_profile();
        assert_eq!(spec.parts, 4);
        assert_eq!(spec.est_state_bytes, 64);
        assert_eq!(spec.quota, Some(quota));
        assert!(!spec.profile);
    }

    #[test]
    fn admit_errors_render() {
        let errors: Vec<AdmitError> = vec![
            AdmitError::TooManyJobs {
                admitted: 8,
                max: 8,
            },
            AdmitError::PartsQuota {
                requested: 128,
                max: 64,
            },
            AdmitError::MemoryQuota {
                declared: 2,
                max: 1,
            },
            AdmitError::NameTaken("pagerank".into()),
            AdmitError::ShuttingDown,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
