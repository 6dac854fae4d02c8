//! The repo's benchmark: six paper workloads, six end-to-end metrics, and
//! a per-layer budget traced from outside the program.
//!
//! `BENCHMARK.json` at the repo root names `benchmark/run.sh`, which builds
//! this package and hands its arguments to the `ripple-benchmark` binary.
//! See `README.md` for the metric glossary and the measurement discipline
//! (one pinned CPU, closed loops, one driver thread).

pub mod aa;
pub mod harness;
pub mod layers;
pub mod metrics;
pub mod os;
pub mod stats;
pub mod trace;
pub mod workloads;

/// The committed default seed.
pub const DEFAULT_SEED: u64 = 2013;
