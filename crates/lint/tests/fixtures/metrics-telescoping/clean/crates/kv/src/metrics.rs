//! Known-clean: both counters reach the trace renderer.

#[derive(Default)]
pub struct StoreMetrics {
    pub local_ops: u64,
    pub lost_ops: u64,
}
