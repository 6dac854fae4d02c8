//! BSP cost model derived from measured step profiles.
//!
//! The classic BSP cost of a run is `T = Σᵢ (wᵢ + g·hᵢ + l)` — per
//! superstep the critical-path work `wᵢ`, the h-relation `hᵢ` (data
//! exchanged across part boundaries), and two machine parameters: `g`,
//! the reciprocal throughput of the communication fabric, and `l`, the
//! fixed synchronization latency (Valiant; see the Bulk docs excerpted in
//! SNIPPETS.md).  `w` and `h` are algorithm properties, obtained here by
//! *measurement* instead of analysis; `g` and `l` are platform constants,
//! fitted here from the same measurements.
//!
//! [`CostModel::derive`] turns the [`StepProfile`]s of one run into one
//! [`StepCost`] per superstep:
//!
//! - `w` — [`StepProfile::critical_compute`], the slowest part's compute
//!   wall (the step cannot finish sooner).
//! - `h` — the step's useful cross-part traffic from the store delta:
//!   wire bytes on networked backends (minus
//!   [`StoreMetrics::retry_bytes`], which re-sends data already priced
//!   once), marshalled bytes on in-process backends.
//! - `g` — fitted bytes-per-second: the step's useful bytes over the
//!   network time estimated from the [`rpc_latency`] histogram.  `None`
//!   where the step did no network I/O (an in-process backend has no
//!   meaningful `g`; its h-relation is priced by `w` already).
//! - `l` — the step's synchronization overhead from below:
//!   [`barrier_skew`] (time fast parts spent waiting) plus the barrier
//!   wall (compute wall past the critical path — dispatch and barrier
//!   bookkeeping).
//!
//! The run-level [`CostModel::g_bytes_per_sec`] and [`CostModel::l_mean`]
//! are the fitted platform parameters; feeding them back into
//! [`CostModel::predicted`] reprices the run and should land near the
//! measured wall time on a healthy run — a cheap self-test of the model
//! that `benchmark/` reports as `core.cost_pred_ratio`.
//!
//! [`rpc_latency`]: ripple_kv::StoreMetrics::rpc_latency
//! [`barrier_skew`]: StepProfile::barrier_skew

use std::fmt;
use std::time::Duration;

use ripple_kv::{LatencyBuckets, StoreMetrics};

use crate::profile::StepProfile;

/// The BSP cost terms of one superstep, derived from its [`StepProfile`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepCost {
    /// The step number (1-based, matching [`StepProfile::step`]).
    pub step: u32,
    /// `w` — critical-path compute: the slowest part's compute wall.
    pub w: Duration,
    /// `h` — useful cross-part bytes (retry traffic excluded).
    pub h_bytes: u64,
    /// Messages sent this step — `h` in message units.
    pub h_msgs: u64,
    /// `g` fitted for this step: useful bytes over estimated network
    /// seconds.  `None` when the step did no network I/O.
    pub g_bytes_per_sec: Option<f64>,
    /// `l` — barrier skew plus barrier wall: the step's synchronization
    /// overhead, a lower bound on the platform's `l`.
    pub l: Duration,
}

impl StepCost {
    /// The step's cost `w + h/g + l` under machine parameters
    /// `g_bytes_per_sec` and using the step's own measured `l`.  The `h`
    /// term is zero when the run has no fitted `g` (in-process backends:
    /// communication is memory traffic already inside `w`).
    pub fn priced(&self, g_bytes_per_sec: Option<f64>) -> Duration {
        let comm = match g_bytes_per_sec {
            Some(g) if g > 0.0 => Duration::from_secs_f64(self.h_bytes as f64 / g),
            _ => Duration::ZERO,
        };
        self.w + comm + self.l
    }
}

/// The BSP cost decomposition of one run: per-step terms plus the fitted
/// platform parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostModel {
    /// One cost term per superstep, in step order.
    pub steps: Vec<StepCost>,
    /// `g` fitted over the whole run: total useful bytes over total
    /// estimated network time.  `None` when the run did no network I/O.
    pub g_bytes_per_sec: Option<f64>,
    /// `l` fitted over the whole run: the mean per-step synchronization
    /// overhead.
    pub l_mean: Duration,
}

impl CostModel {
    /// Derives the cost model from the step profiles of one run.
    pub fn derive(profiles: &[StepProfile]) -> Self {
        let steps: Vec<StepCost> = profiles.iter().map(step_cost).collect();
        let total_bytes: u64 = profiles.iter().map(|p| useful_h_bytes(&p.store)).sum();
        let total_net = profiles
            .iter()
            .map(|p| estimated_network_time(&p.store.rpc_latency))
            .sum::<Duration>();
        let g_bytes_per_sec = fit_g(total_bytes, total_net);
        let l_mean = if steps.is_empty() {
            Duration::ZERO
        } else {
            steps.iter().map(|s| s.l).sum::<Duration>() / steps.len() as u32
        };
        Self {
            steps,
            g_bytes_per_sec,
            l_mean,
        }
    }

    /// Total critical-path work `Σ wᵢ`.
    pub fn total_w(&self) -> Duration {
        self.steps.iter().map(|s| s.w).sum()
    }

    /// Total useful h-relation bytes `Σ hᵢ`.
    pub fn total_h_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.h_bytes).sum()
    }

    /// Total messages sent.
    pub fn total_h_msgs(&self) -> u64 {
        self.steps.iter().map(|s| s.h_msgs).sum()
    }

    /// Total synchronization overhead `Σ lᵢ`.
    pub fn total_l(&self) -> Duration {
        self.steps.iter().map(|s| s.l).sum()
    }

    /// The model's repriced run cost `Σᵢ (wᵢ + hᵢ/g + lᵢ)` under the
    /// run-fitted `g`.  On a healthy run this lands near the measured
    /// wall time; a large gap means the model is missing a term (or the
    /// run was not healthy).
    pub fn predicted(&self) -> Duration {
        self.steps
            .iter()
            .map(|s| s.priced(self.g_bytes_per_sec))
            .sum()
    }
}

impl fmt::Display for CostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} steps: w {:?}, h {} B / {} msgs, l {:?} (mean {:?}/step)",
            self.steps.len(),
            self.total_w(),
            self.total_h_bytes(),
            self.total_h_msgs(),
            self.total_l(),
            self.l_mean,
        )?;
        if let Some(g) = self.g_bytes_per_sec {
            write!(f, ", g {:.0} B/s", g)?;
        }
        write!(f, ", predicted {:?}", self.predicted())
    }
}

/// The useful h-relation bytes of one store delta: wire bytes minus retry
/// traffic on networked backends, marshalled bytes on in-process ones.
///
/// Retry bytes re-send data the h-relation already prices once; counting
/// them would let chaos inflate `h` (and the fitted `g`) without any
/// change to the algorithm's communication pattern.
pub fn useful_h_bytes(delta: &StoreMetrics) -> u64 {
    let wire = delta.net_bytes_in + delta.net_bytes_out;
    if wire > 0 {
        wire.saturating_sub(delta.retry_bytes)
    } else {
        delta.bytes_marshalled
    }
}

/// Estimates the wall time spent in network round trips from a latency
/// histogram: each bucket contributes its count at the bucket's midpoint
/// (bucket `i` spans `[2^i, 2^(i+1))` µs, midpoint `1.5 · 2^i` µs).
///
/// Round trips pipelined over one connection overlap, so this is an upper
/// bound on the wire time — and therefore `g` fitted from it is a lower
/// bound on the fabric's true throughput.  Good enough to trend: the same
/// workload on the same platform lands in the same place run over run.
pub fn estimated_network_time(lat: &LatencyBuckets) -> Duration {
    let us: u64 = lat
        .0
        .iter()
        .enumerate()
        .map(|(i, &count)| count.saturating_mul(3 * (1u64 << i) / 2))
        .sum();
    Duration::from_micros(us)
}

fn fit_g(useful_bytes: u64, net_time: Duration) -> Option<f64> {
    if useful_bytes == 0 || net_time.is_zero() {
        None
    } else {
        Some(useful_bytes as f64 / net_time.as_secs_f64())
    }
}

fn step_cost(p: &StepProfile) -> StepCost {
    let w = p.critical_compute();
    let h_bytes = useful_h_bytes(&p.store);
    let net_time = estimated_network_time(&p.store.rpc_latency);
    // Barrier wall: compute wall past the critical path — controller
    // dispatch plus barrier bookkeeping.  Saturating, because on a
    // stolen-work phase `critical_compute` falls back to the wall itself.
    let barrier_wall = p.compute_wall.saturating_sub(w);
    StepCost {
        step: p.step,
        w,
        h_bytes,
        h_msgs: p.counters.messages_sent,
        g_bytes_per_sec: fit_g(h_bytes, net_time),
        l: p.barrier_skew + barrier_wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{PartStepProfile, StepCounters};

    fn mem_step(step: u32, compute_ms: u64, bytes: u64, msgs: u64) -> StepProfile {
        StepProfile {
            step,
            compute_wall: Duration::from_millis(compute_ms + 1),
            barrier_skew: Duration::from_millis(1),
            parts: vec![PartStepProfile {
                part: 0,
                compute: Duration::from_millis(compute_ms),
                ..Default::default()
            }],
            counters: StepCounters {
                messages_sent: msgs,
                ..Default::default()
            },
            store: StoreMetrics {
                bytes_marshalled: bytes,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn derives_w_h_l_per_step() {
        let model = CostModel::derive(&[mem_step(1, 10, 100, 5), mem_step(2, 20, 300, 7)]);
        assert_eq!(model.steps.len(), 2);
        assert_eq!(model.steps[0].w, Duration::from_millis(10));
        assert_eq!(model.steps[0].h_bytes, 100);
        assert_eq!(model.steps[0].h_msgs, 5);
        // l = skew (1 ms) + barrier wall (compute_wall − w = 1 ms).
        assert_eq!(model.steps[0].l, Duration::from_millis(2));
        assert_eq!(model.total_w(), Duration::from_millis(30));
        assert_eq!(model.total_h_bytes(), 400);
        assert_eq!(model.total_h_msgs(), 12);
        assert_eq!(model.l_mean, Duration::from_millis(2));
        // No network I/O: no fitted g, and the h term prices at zero.
        assert_eq!(model.g_bytes_per_sec, None);
        assert_eq!(model.predicted(), Duration::from_millis(34));
    }

    #[test]
    fn retry_bytes_are_excluded_from_h() {
        let mut p = mem_step(1, 10, 0, 0);
        p.store = StoreMetrics {
            net_bytes_in: 600,
            net_bytes_out: 400,
            retry_bytes: 250,
            ..Default::default()
        };
        assert_eq!(useful_h_bytes(&p.store), 750);
        // In-process fallback uses marshalled bytes.
        assert_eq!(
            useful_h_bytes(&StoreMetrics {
                bytes_marshalled: 42,
                ..Default::default()
            }),
            42
        );
    }

    #[test]
    fn g_is_fitted_from_latency_and_bytes() {
        let mut lat = LatencyBuckets::new();
        // Two round trips in bucket 10 (1024–2048 µs): midpoint 1536 µs
        // each, 3072 µs total.
        lat.observe_us(1100);
        lat.observe_us(1500);
        assert_eq!(estimated_network_time(&lat), Duration::from_micros(3072));
        let mut p = mem_step(1, 1, 0, 0);
        p.store = StoreMetrics {
            net_bytes_in: 1536,
            net_bytes_out: 1536,
            rpc_latency: lat,
            ..Default::default()
        };
        let model = CostModel::derive(&[p]);
        let g = model.g_bytes_per_sec.expect("networked run fits g");
        // 3072 useful bytes over 3072 µs → 1 byte/µs → 1e6 bytes/sec.
        assert!((g - 1_000_000.0).abs() < 1.0, "g = {g}");
        assert!(model.predicted() > Duration::ZERO);
    }

    #[test]
    fn empty_run_is_well_formed() {
        let model = CostModel::derive(&[]);
        assert!(model.steps.is_empty());
        assert_eq!(model.g_bytes_per_sec, None);
        assert_eq!(model.l_mean, Duration::ZERO);
        assert_eq!(model.predicted(), Duration::ZERO);
        assert!(!model.to_string().is_empty());
    }
}
