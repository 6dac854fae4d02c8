//! The metric registry: one definition of every name the benchmark emits,
//! from which `BENCHMARK.json`, the README glossary and the runs' own
//! output are all produced.

use crate::workloads::WorkloadId;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 12;

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median it may worsen by before a change is
    /// a regression.
    pub bound: f64,
    /// What it is.
    pub what: &'static str,
}

/// Every end-to-end metric, the same on every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "median wall clock of one operation (launch / multiply / 5 waves and their commit / push-to-visible), through result read-back",
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "median over operations of work units per second: edge traversals (PageRank), flop (SUMMA), graph changes applied (SSSP), point queries answered while waves run (serve)",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "median user+sys CPU of the whole process per operation (CLOCK_PROCESS_CPUTIME_ID)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
        what: "VmHWM of the workload's process",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "median of five full set-ups: input generation, oracle, store or cluster or server construction, initial load and solve, one warm-up operation",
    },
];

/// A metric of a single layer, read in the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the prefix is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Where the number comes from.
    pub source: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

const WIRE_MOVES: &str = "op_ms, cpu_s on pagerank-net and pagerank-mem; none on summa-nosync-mem";
const STORE_MOVES: &str = "op_ms on the workload whose backend it is";
const NET_MOVES: &str = "op_ms, cpu_s on pagerank-net only";
const DISK_MOVES: &str = "op_ms on sssp-waves-disk only";
const CORE_COUNT: &str = "exact count, explains op_ms; not a speed";
const SERVER_MOVES: &str = "op_ms, work_per_s on serve-mixed-mem";

/// Every per-layer metric.  A workload that does not exercise a layer
/// reports 0 for it.
pub const PER_LAYER: [PerLayer; 67] = [
    layer("wire.encode_ns_per_rec", "ns", "lower", "timed to_wire over the workload's own values", WIRE_MOVES),
    layer("wire.decode_ns_per_rec", "ns", "lower", "timed from_wire over the same", WIRE_MOVES),
    layer("wire.bytes_per_rec", "B", "lower", "encoded size of the same", WIRE_MOVES),
    layer("wire.batch_ns_per_rec", "ns", "lower", "timed BatchWriter + decode_batch over the same", WIRE_MOVES),
    layer("store.get.count", "count", "lower", "TracedStore spans per operation", STORE_MOVES),
    layer("store.get.busy_ms", "ms", "lower", "TracedStore span self time per operation", STORE_MOVES),
    layer("store.put.count", "count", "lower", "TracedStore spans per operation", STORE_MOVES),
    layer("store.put.busy_ms", "ms", "lower", "TracedStore span self time per operation", STORE_MOVES),
    layer("store.put_batch.count", "count", "lower", "TracedStore spans per operation", STORE_MOVES),
    layer("store.put_batch.busy_ms", "ms", "lower", "TracedStore span self time per operation", STORE_MOVES),
    layer("store.put_batch.recs", "count", "lower", "pairs carried by those batches", STORE_MOVES),
    layer("store.delete.count", "count", "lower", "TracedStore spans per operation", STORE_MOVES),
    layer("store.delete.busy_ms", "ms", "lower", "TracedStore span self time per operation", STORE_MOVES),
    layer("store.scan.count", "count", "lower", "TracedStore spans per operation", STORE_MOVES),
    layer("store.scan.busy_ms", "ms", "lower", "TracedStore span self time per operation (includes the caller's callback)", STORE_MOVES),
    layer("store.drain.count", "count", "lower", "TracedStore spans per operation", STORE_MOVES),
    layer("store.drain.busy_ms", "ms", "lower", "TracedStore span self time per operation (includes the caller's callback)", STORE_MOVES),
    layer("store.run_at.count", "count", "lower", "part tasks dispatched per operation", STORE_MOVES),
    layer("store.run_at.busy_ms", "ms", "lower", "summed task durations per operation (engine code inside; its self time is in core.self_ms)", STORE_MOVES),
    layer("store.run_at.wait_ms", "ms", "lower", "summed dispatch-to-start delay of those tasks", STORE_MOVES),
    layer("store.ddl.count", "count", "lower", "create/lookup/drop/len/clear/bind spans per operation", STORE_MOVES),
    layer("store.ddl.busy_ms", "ms", "lower", "their self time per operation", STORE_MOVES),
    layer("store.snapshot.count", "count", "lower", "snapshot_table spans per operation", "op_ms on serve-mixed-mem"),
    layer("store.snapshot.busy_ms", "ms", "lower", "their self time per operation", "op_ms on serve-mixed-mem"),
    layer("net.rpcs", "count", "lower", "StoreMetrics delta per operation", NET_MOVES),
    layer("net.bytes_out", "B", "lower", "StoreMetrics delta per operation", NET_MOVES),
    layer("net.bytes_in", "B", "lower", "StoreMetrics delta per operation", NET_MOVES),
    layer("net.batches", "count", "lower", "StoreMetrics delta per operation", NET_MOVES),
    layer("net.combined_records", "count", "higher", "StoreMetrics delta per operation", NET_MOVES),
    layer("net.retries", "count", "lower", "StoreMetrics delta per operation", NET_MOVES),
    layer("net.ping_us", "us", "lower", "median timed ping_part round-trip", NET_MOVES),
    layer("net.put_batch_ns_per_rec", "ns", "lower", "timed Table::put_batch of the workload's values", NET_MOVES),
    layer("disk.wal_bytes", "B", "lower", "StoreMetrics delta per operation", DISK_MOVES),
    layer("disk.fsyncs", "count", "lower", "StoreMetrics delta per operation", DISK_MOVES),
    layer("disk.replayed_records", "count", "lower", "StoreMetrics delta per operation", DISK_MOVES),
    layer("disk.commit_ms", "ms", "lower", "span around the barrier commit that ends an operation (log written, not synced)", DISK_MOVES),
    layer("mq.table_ns_per_msg", "ns", "lower", "timed TableQueueSet put + run_workers receive of the workload's messages", "op_ms on summa-nosync-mem"),
    layer("mq.channel_ns_per_msg", "ns", "lower", "the same through ChannelQueueSet", "op_ms on summa-nosync-mem"),
    layer("core.steps", "count", "lower", "RunMetrics per operation", CORE_COUNT),
    layer("core.barriers", "count", "lower", "RunMetrics per operation", CORE_COUNT),
    layer("core.invocations", "count", "lower", "RunMetrics per operation", CORE_COUNT),
    layer("core.messages_sent", "count", "lower", "RunMetrics per operation", CORE_COUNT),
    layer("core.messages_combined", "count", "higher", "RunMetrics per operation", CORE_COUNT),
    layer("core.state_reads", "count", "lower", "RunMetrics per operation", CORE_COUNT),
    layer("core.state_writes", "count", "lower", "RunMetrics per operation", CORE_COUNT),
    layer("core.spill_batches", "count", "lower", "RunMetrics per operation", CORE_COUNT),
    layer("core.w_ms", "ms", "lower", "CostModel total_w over the operation's StepProfiles", "op_ms on pagerank-mem, pagerank-mr-mem"),
    layer("core.inbox_ms", "ms", "lower", "summed StepProfile inbox_wall", "op_ms on pagerank-mem, pagerank-mr-mem"),
    layer("core.barrier_skew_ms", "ms", "lower", "CostModel total_l", "op_ms on sssp-waves-disk"),
    layer("core.step_ms_p50", "ms", "lower", "median StepProfile compute_wall + inbox_wall", "op_ms on sssp-waves-disk"),
    layer("core.self_ms", "ms", "lower", "self time of the launch span and of the part-task bodies: engine and job code, store calls excluded", "op_ms on pagerank-mem, pagerank-mr-mem"),
    layer("core.cost_pred_ratio", "ratio", "higher", "CostModel predicted / RunMetrics elapsed (1 = the model explains the run)", "none; ROADMAP 1(c) makes it falsifiable"),
    layer("mapreduce.state_io_per_iter", "count", "lower", "RunMetrics (state_reads + state_writes) / iterations", "op_ms on pagerank-mr-mem"),
    layer("mapreduce.barriers_per_iter", "count", "lower", "RunMetrics barriers / iterations", "op_ms on pagerank-mr-mem"),
    layer("graph.load_ms", "ms", "lower", "span around the job's loader", "op_ms on the PageRank workloads"),
    layer("graph.readback_ms", "ms", "lower", "span around read_ranks / distances", "op_ms on the PageRank and SSSP workloads"),
    layer("summa.kernel_ms", "ms", "lower", "plain single-threaded DenseMatrix::multiply of the same operands", "op_ms on summa-nosync-mem"),
    layer("summa.overhead_ratio", "ratio", "lower", "operation wall / summa.kernel_ms", "op_ms on summa-nosync-mem"),
    layer("server.query_ns", "ns", "lower", "median wall of a query block / block size", SERVER_MOVES),
    layer("server.push_batch_us", "us", "lower", "timed ServingSssp::push_batch", SERVER_MOVES),
    layer("server.admit_us", "us", "lower", "median timed admit_resident on the live server", SERVER_MOVES),
    layer("server.waves", "count", "lower", "waves applied per operation", SERVER_MOVES),
    layer("server.refreshes", "count", "lower", "snapshot version bumps per operation", SERVER_MOVES),
    layer("server.sched_grants", "count", "lower", "FairScheduler grants to the serving tenant per operation", SERVER_MOVES),
    layer("server.sched_wait_ms", "ms", "lower", "FairScheduler queue wait of the serving tenant per operation", SERVER_MOVES),
    layer("trace.coverage", "ratio", "higher", "share of the operation's wall clock inside at least one layer span (= sum of self times / wall)", "none; 0.9-1.1 or the budget has a hole"),
    layer("trace.overhead_ratio", "ratio", "lower", "traced op_ms / untraced op_ms in the same process", "none; what tracing costs"),
];

/// The text of `BENCHMARK.json`.
#[must_use]
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WorkloadId::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The README's metric glossary, as markdown tables.
#[must_use]
pub fn glossary_markdown() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            m.what
        ));
    }
    out.push_str("\n| per-layer metric | unit | source | should move |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.source, m.moves
        ));
    }
    out
}
