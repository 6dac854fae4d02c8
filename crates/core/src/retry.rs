//! Bounded retry of transient store faults.
//!
//! The store SPI distinguishes transient faults
//! ([`KvError::Transient`](ripple_kv::KvError)) from structural failures;
//! both engines wrap their per-part state operations in a [`RetryPolicy`]
//! so a flaky store op costs a short, bounded backoff instead of a full
//! part recovery.  Backoff delays are deterministic — exponential growth
//! plus SplitMix64 jitter keyed by `(seed, part, attempt)` — so chaos runs
//! reproduce exactly from their seeds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ripple_kv::KvError;

use crate::{RunEvent, RunObserver};

/// How the engines respond to transient store faults: up to
/// `max_attempts` tries per operation with exponentially growing,
/// deterministically jittered delays between them.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use ripple_core::RetryPolicy;
///
/// let policy = RetryPolicy::default().max_attempts(8);
/// // Deterministic: the same (attempt, salt) always yields the same delay.
/// assert_eq!(policy.delay_for(2, 7), policy.delay_for(2, 7));
/// assert!(policy.delay_for(1, 0) <= policy.delay_for(4, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_delay: Duration,
    max_delay: Duration,
    jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(20),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every transient fault surfaces
    /// immediately.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Total attempts per operation (first try included); clamped to at
    /// least 1.
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Delay before the second attempt; later attempts double it.
    pub fn base_delay(mut self, delay: Duration) -> Self {
        self.base_delay = delay;
        self
    }

    /// Upper bound on any single backoff delay.
    pub fn max_delay(mut self, delay: Duration) -> Self {
        self.max_delay = delay;
        self
    }

    /// Seed for the deterministic jitter stream.
    pub fn jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The configured attempt bound.
    pub fn attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The backoff before retrying after failed attempt number `attempt`
    /// (1-based): `base * 2^(attempt-1)` capped at `max_delay`, scaled by
    /// a deterministic jitter factor in `[0.5, 1.5)` drawn from
    /// `(jitter_seed, salt, attempt)`.
    pub fn delay_for(&self, attempt: u32, salt: u64) -> Duration {
        let doublings = attempt.saturating_sub(1).min(20);
        let exp = self
            .base_delay
            .saturating_mul(1u32 << doublings)
            .min(self.max_delay);
        let mut z = self
            .jitter_seed
            .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(u64::from(attempt).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + unit)
    }
}

/// Shared per-run retry state: the policy, the observer to notify, and the
/// run-wide retry counter the engines fold into
/// [`RunMetrics::retries`](crate::RunMetrics).
pub(crate) struct FaultRetry {
    pub(crate) policy: RetryPolicy,
    pub(crate) observer: Option<Arc<dyn RunObserver>>,
    retries: AtomicU64,
}

impl FaultRetry {
    pub(crate) fn new(policy: RetryPolicy, observer: Option<Arc<dyn RunObserver>>) -> Self {
        Self {
            policy,
            observer,
            retries: AtomicU64::new(0),
        }
    }

    pub(crate) fn count(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

/// Runs `op`, retrying transient [`KvError`]s per the policy.  Permanent
/// errors and exhausted budgets surface unchanged.
pub(crate) fn kv_with_retry<T>(
    retry: &FaultRetry,
    part: u32,
    mut op: impl FnMut() -> Result<T, KvError>,
) -> Result<T, KvError> {
    let mut attempt = 1u32;
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(e) if e.is_transient() && attempt < retry.policy.max_attempts => {
                if let Some(observer) = &retry.observer {
                    let detail = e.to_string();
                    observer.on_event(&RunEvent::FaultInjected {
                        part,
                        detail: &detail,
                    });
                    observer.on_event(&RunEvent::Retry { part, attempt });
                }
                retry.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(retry.policy.delay_for(attempt, u64::from(part)));
                attempt += 1;
            }
            Err(e) => {
                if let (Some(observer), true) = (&retry.observer, e.is_transient()) {
                    let detail = e.to_string();
                    observer.on_event(&RunEvent::FaultInjected {
                        part,
                        detail: &detail,
                    });
                }
                return Err(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn delays_grow_and_cap() {
        let policy = RetryPolicy::default()
            .base_delay(Duration::from_micros(100))
            .max_delay(Duration::from_micros(800))
            .jitter_seed(9);
        // Jitter is within [0.5, 1.5), so attempt 1 stays under 150µs and
        // any attempt stays under 1.5 * cap.
        assert!(policy.delay_for(1, 0) < Duration::from_micros(150));
        assert!(policy.delay_for(30, 0) < Duration::from_micros(1200));
    }

    #[test]
    fn retries_transients_until_success() {
        let fails = Mutex::new(3u32);
        let retry = FaultRetry::new(
            RetryPolicy::default().base_delay(Duration::from_micros(1)),
            None,
        );
        let out = kv_with_retry(&retry, 0, || {
            let mut left = fails.lock().unwrap();
            if *left > 0 {
                *left -= 1;
                Err(KvError::Transient {
                    op: "get",
                    part: 0,
                    detail: "flaky".into(),
                })
            } else {
                Ok(42)
            }
        });
        assert_eq!(out, Ok(42));
        assert_eq!(retry.count(), 3);
    }

    #[test]
    fn exhausted_budget_surfaces_the_transient() {
        let retry = FaultRetry::new(RetryPolicy::none(), None);
        let out: Result<(), _> = kv_with_retry(&retry, 1, || {
            Err(KvError::Transient {
                op: "put",
                part: 1,
                detail: "always".into(),
            })
        });
        assert!(matches!(out, Err(KvError::Transient { .. })));
        assert_eq!(retry.count(), 0);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let calls = Mutex::new(0u32);
        let retry = FaultRetry::new(RetryPolicy::default(), None);
        let out: Result<(), _> = kv_with_retry(&retry, 2, || {
            *calls.lock().unwrap() += 1;
            Err(KvError::PartFailed { part: 2 })
        });
        assert_eq!(out, Err(KvError::PartFailed { part: 2 }));
        assert_eq!(*calls.lock().unwrap(), 1);
        assert_eq!(retry.count(), 0);
    }
}
