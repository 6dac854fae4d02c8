//! `summa-nosync-mem`: §V-B SUMMA without barriers.

use std::time::Instant;

use ripple_core::ExecMode;
use ripple_kv::KvStore;
use ripple_summa::{multiply, BlockMsg, DenseMatrix, SummaOptions};
use ripple_wire::to_wire;

use super::{subseed, LayerSample, Scenario, Sizes};
use crate::layers;
use crate::trace::Tracer;

/// The paper's grid: 3 × 3 components.
const GRID: usize = 3;

/// The product must agree with the single-threaded kernel to this
/// elementwise tolerance.
const PRODUCT_TOLERANCE: f64 = 1e-6;

/// One unsynchronized multiplication per operation.
pub struct SummaNosync<S: KvStore> {
    store: S,
    a: DenseMatrix,
    b: DenseMatrix,
    reference: DenseMatrix,
    kernel_ms: f64,
    options: SummaOptions,
    tracer: Tracer,
    product: Option<DenseMatrix>,
    last_ms: f64,
    sample: LayerSample,
}

impl<S: KvStore> SummaNosync<S> {
    /// Generates the operands and multiplies them once with the plain
    /// kernel — both the oracle and the `summa.kernel_ms` baseline.
    pub fn new(store: S, seed: u64, sizes: &Sizes, tracer: &Tracer) -> Self {
        let edge = GRID * sizes.summa_block;
        let a = DenseMatrix::random(edge, edge, subseed(seed, 3));
        let b = DenseMatrix::random(edge, edge, subseed(seed, 4));
        let t = Instant::now();
        let reference = a.multiply(&b);
        let kernel_ms = t.elapsed().as_secs_f64() * 1e3;
        Self {
            store,
            a,
            b,
            reference,
            kernel_ms,
            options: SummaOptions {
                grid: GRID as u32,
                mode: ExecMode::Unsynchronized,
                trace: false,
                profile: tracer.is_enabled(),
            },
            tracer: tracer.clone(),
            product: None,
            last_ms: 0.0,
            sample: LayerSample::default(),
        }
    }
}

/// The oracle: elementwise agreement with the reference product.
///
/// # Errors
///
/// A description when the matrices differ.
pub fn product_matches(got: &DenseMatrix, reference: &DenseMatrix) -> Result<(), String> {
    if got.approx_eq(reference, PRODUCT_TOLERANCE) {
        Ok(())
    } else {
        Err(format!(
            "{}x{} product differs from the kernel's by more than {PRODUCT_TOLERANCE}",
            got.rows(),
            got.cols()
        ))
    }
}

impl<S: KvStore> Scenario for SummaNosync<S> {
    fn run(&mut self, _k: u64) -> Result<(), String> {
        let before = self.store.metrics();
        let t = Instant::now();
        // `multiply` reads the C blocks back and assembles them itself.
        let (product, report) = {
            let _span = self.tracer.span("core.run");
            multiply(&self.store, &self.a, &self.b, &self.options).map_err(|e| e.to_string())?
        };
        self.last_ms = t.elapsed().as_secs_f64() * 1e3;
        self.product = Some(product);
        let mut acc = layers::EngineAcc::default();
        acc.add(&report.outcome);
        self.sample = acc.sample(&(self.store.metrics() - before));
        Ok(())
    }

    fn check(&mut self, _k: u64) -> Result<(), String> {
        let product = self.product.take().ok_or("no product to check")?;
        product_matches(&product, &self.reference)
    }

    fn work(&self) -> f64 {
        let n = self.a.rows() as f64;
        2.0 * n * n * n
    }

    fn layers(&mut self) -> LayerSample {
        let mut sample = self.sample.clone();
        sample.values.push(("summa.kernel_ms", self.kernel_ms));
        sample
            .values
            .push(("summa.overhead_ratio", self.last_ms / self.kernel_ms));
        sample
    }

    fn probes(&mut self) -> Vec<(&'static str, f64)> {
        // The codec and the queue sets on this workload's own messages:
        // one panel hop per block of A and of B.
        let messages: Vec<BlockMsg> = [(0u8, &self.a), (1u8, &self.b)]
            .into_iter()
            .flat_map(|(axis, m)| {
                m.split(GRID)
                    .into_iter()
                    .flatten()
                    .enumerate()
                    .map(move |(k, block)| BlockMsg {
                        axis,
                        k: (k % GRID) as u8,
                        block,
                    })
            })
            .collect();
        let mut probes = layers::wire_probes(&messages);
        let encoded: Vec<_> = messages.iter().map(to_wire).collect();
        probes.extend(layers::mq_probes(&encoded));
        probes
    }
}
