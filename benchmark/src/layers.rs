//! Per-layer numbers that are not spans: the program's own public outputs
//! folded into metrics, and direct timed calls into single layers.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ripple_core::{CostModel, RunMetrics, RunOutcome, StepProfile};
use ripple_kv::{KvStore, PartId, RoutedKey, StoreMetrics, Table, TableSpec};
use ripple_mq::{ChannelQueueSet, QueueSet, TableQueueSet};
use ripple_store_mem::MemStore;
use ripple_wire::{decode_batch, from_wire, to_wire, BatchWriter, Wire};

use crate::stats::median;
use crate::workloads::{LayerSample, PARTS};

/// Repetitions of a micro-probe; the median is reported.
const PROBE_ROUNDS: usize = 9;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything the engine reported about the launches of one operation
/// (one for PageRank, one per wave for SSSP).
#[derive(Debug, Default)]
pub struct EngineAcc {
    /// Summed run metrics.
    pub metrics: RunMetrics,
    profiles: Vec<StepProfile>,
    elapsed: Duration,
}

impl EngineAcc {
    /// Folds one launch in.
    pub fn add(&mut self, outcome: &RunOutcome) {
        let (m, o) = (&mut self.metrics, &outcome.metrics);
        m.steps += o.steps;
        m.barriers += o.barriers;
        m.invocations += o.invocations;
        m.messages_sent += o.messages_sent;
        m.messages_combined += o.messages_combined;
        m.state_reads += o.state_reads;
        m.state_writes += o.state_writes;
        m.spill_batches += o.spill_batches;
        self.elapsed += o.elapsed;
        if let Some(profiles) = &outcome.profiles {
            self.profiles.extend(profiles.iter().cloned());
        }
    }

    /// The `core.*`, `net.*` and `disk.*` metrics of the operation;
    /// `store` is the store's counter delta across it.
    #[must_use]
    pub fn sample(&self, store: &StoreMetrics) -> LayerSample {
        let m = &self.metrics;
        let counts = vec![
            ("core.steps", u64::from(m.steps)),
            ("core.barriers", u64::from(m.barriers)),
            ("core.invocations", m.invocations),
            ("core.messages_sent", m.messages_sent),
            ("core.messages_combined", m.messages_combined),
            ("core.state_reads", m.state_reads),
            ("core.state_writes", m.state_writes),
            ("core.spill_batches", m.spill_batches),
            ("net.rpcs", store.rpcs),
            ("net.bytes_out", store.net_bytes_out),
            ("net.bytes_in", store.net_bytes_in),
            ("net.batches", store.net_batches),
            ("net.combined_records", store.combined_records),
            ("net.retries", store.retries),
            ("disk.wal_bytes", store.wal_bytes),
            ("disk.fsyncs", store.fsyncs),
            ("disk.replayed_records", store.replayed_records),
        ];
        let mut values = Vec::new();
        if !self.profiles.is_empty() {
            let cost = CostModel::derive(&self.profiles);
            let steps: Vec<f64> = self
                .profiles
                .iter()
                .map(|p| ms(p.compute_wall + p.inbox_wall))
                .collect();
            values.push(("core.w_ms", ms(cost.total_w())));
            values.push((
                "core.inbox_ms",
                ms(self.profiles.iter().map(|p| p.inbox_wall).sum()),
            ));
            values.push(("core.barrier_skew_ms", ms(cost.total_l())));
            values.push(("core.step_ms_p50", median(&steps)));
            if !self.elapsed.is_zero() {
                values.push((
                    "core.cost_pred_ratio",
                    cost.predicted().as_secs_f64() / self.elapsed.as_secs_f64(),
                ));
            }
        }
        LayerSample { counts, values }
    }
}

/// Median nanoseconds per item of `f`, which processes `items` items.
fn ns_per_item(items: usize, mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..PROBE_ROUNDS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / items.max(1) as f64
        })
        .collect();
    median(&rounds)
}

/// The codec on `values`: encode, decode, bytes, and the batch coalescer.
#[must_use]
pub fn wire_probes<T: Wire>(values: &[T]) -> Vec<(&'static str, f64)> {
    let encoded: Vec<Bytes> = values.iter().map(to_wire).collect();
    let bytes: usize = encoded.iter().map(Bytes::len).sum();
    let encode = ns_per_item(values.len(), || {
        for v in values {
            black_box(to_wire(black_box(v)));
        }
    });
    let decode = ns_per_item(values.len(), || {
        for b in &encoded {
            black_box(from_wire::<T>(black_box(b)).expect("own encoding decodes"));
        }
    });
    let batch = ns_per_item(values.len(), || {
        let mut w = BatchWriter::with_capacity(bytes + 8 * values.len());
        for v in values {
            w.record(v);
        }
        let frame = w.finish();
        black_box(
            decode_batch(black_box(&frame))
                .expect("own batch decodes")
                .len(),
        );
    });
    vec![
        ("wire.encode_ns_per_rec", encode),
        ("wire.decode_ns_per_rec", decode),
        (
            "wire.bytes_per_rec",
            bytes as f64 / values.len().max(1) as f64,
        ),
        ("wire.batch_ns_per_rec", batch),
    ]
}

/// The transport on `values`, through the store's public SPI: a liveness
/// round-trip per part, and one batched write of every value.
///
/// # Panics
///
/// Panics if the store refuses the probe table — the benchmark's stores
/// are healthy.
#[must_use]
pub fn net_probes<S: KvStore, T: Wire>(store: &S, values: &[T]) -> Vec<(&'static str, f64)> {
    let pings: Vec<f64> = (0..PROBE_ROUNDS * 8)
        .map(|i| {
            let t = Instant::now();
            black_box(store.ping_part(PartId(i as u32 % PARTS))).expect("ping");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    let table = store
        .create_table(&TableSpec::new("probe_put_batch"))
        .expect("probe table");
    let pairs: Vec<(RoutedKey, Bytes)> = values
        .iter()
        .enumerate()
        .map(|(i, v)| (RoutedKey::from_body(to_wire(&(i as u64))), to_wire(v)))
        .collect();
    // `put_batch` consumes its pairs: copy them outside the timed call.
    let mut copies = vec![pairs.clone(); PROBE_ROUNDS];
    let put_batch = ns_per_item(pairs.len(), || {
        let batch = copies.pop().expect("one copy per round");
        table.put_batch(batch).expect("probe put_batch");
    });
    store
        .drop_table("probe_put_batch")
        .expect("drop probe table");
    vec![
        ("net.ping_us", median(&pings)),
        ("net.put_batch_ns_per_rec", put_batch),
    ]
}

/// Push→receive cost of the two queue-set kinds on `messages`, on a mem
/// store of their own.
///
/// # Panics
///
/// Panics if a queue set fails on a healthy mem store.
#[must_use]
pub fn mq_probes(messages: &[Bytes]) -> Vec<(&'static str, f64)> {
    fn push_receive<Q: QueueSet>(queues: &Q, messages: &[Bytes]) -> f64 {
        let n = messages.len();
        let per_part = n / PARTS as usize;
        ns_per_item(per_part * PARTS as usize, || {
            for (i, m) in messages.iter().take(per_part * PARTS as usize).enumerate() {
                queues
                    .put(PartId(i as u32 % PARTS), m.clone())
                    .expect("probe put");
            }
            let got = queues
                .run_workers(move |_view, rx| {
                    (0..per_part)
                        .filter(|_| matches!(rx.recv_timeout(Duration::from_secs(5)), Ok(Some(_))))
                        .count()
                })
                .expect("probe workers");
            assert_eq!(got.iter().sum::<usize>(), per_part * PARTS as usize);
        })
    }
    let store = MemStore::builder().default_parts(PARTS).build();
    let reference = store
        .create_table(&TableSpec::new("probe_mq"))
        .expect("probe table");
    let table = TableQueueSet::create(&store, &reference, "probe_tq").expect("table queue set");
    let channel =
        ChannelQueueSet::create(&store, &reference, "probe_cq").expect("channel queue set");
    let out = vec![
        ("mq.table_ns_per_msg", push_receive(&table, messages)),
        ("mq.channel_ns_per_msg", push_receive(&channel, messages)),
    ];
    table.delete().expect("delete table queue set");
    channel.delete().expect("delete channel queue set");
    out
}
