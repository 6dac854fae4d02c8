//! PageRank two ways (paper §V-A).
//!
//! Both variants run on the same K/V EBSP platform and compute identical
//! ranks; they differ only in the architectural shape the experiment
//! isolates:
//!
//! - the **direct** variant fuses each reduce with the following map: one
//!   BSP step — hence **one synchronization** — per iteration of the rank
//!   equations, with both the ranking state and the graph structure riding
//!   in BSP messages.  The state table is read in the first step and
//!   written in the last step only;
//! - the **MapReduce** variant emulates iterated MapReduce: **two BSP steps
//!   (two synchronizations) per iteration**, messages carrying structure
//!   and state from the map-like step to the reduce-like step, and **an
//!   additional round of state-table I/O per iteration** (the reduce
//!   writes structure+rank back, the next map reads it).
//!
//! The MapReduce variant is purely inferior — it does strictly more work —
//! which is the point of Table I.
//!
//! Rank equations, with damping `d` over graph `(V, E)` and out-degree
//! `W_u`: dangling vertices (W_u = 0) spread their rank uniformly, so
//!
//! ```text
//! R_v = (1-d)/|V| + d * ( Σ_{(u,v) ∈ E} R_u / W_u  +  sink / |V| )
//! sink = Σ_{W_u = 0} R_u
//! ```
//!
//! The dangling mass is carried by the `sink` aggregator exactly as the
//! paper describes ("contributes R_v/|V| to a sink rank aggregator if
//! W_v = 0").

use std::sync::Arc;

use ripple_core::{
    Aggregate, ComputeContext, EbspError, FnLoader, Job, JobProperties, JobRunner, LoadSink,
    RunOptions, RunOutcome, SumF64,
};
use ripple_kv::KvStore;
use ripple_wire::{ByteReader, ByteWriter, Decode, Encode, WireError};

use crate::generate::Graph;
use crate::VertexId;

/// Parameters of a PageRank computation.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// The damping factor `d ∈ (0, 1)`.
    pub damping: f64,
    /// Number of iterations of the rank equations.
    pub iterations: u32,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self {
            damping: 0.85,
            iterations: 20,
        }
    }
}

/// A vertex entry in the state table: structure always, rank once ranked
/// (the paper's "enhanced vertex object").
#[derive(Debug, Clone, PartialEq)]
pub struct PrState {
    /// Out-edges.
    pub edges: Vec<VertexId>,
    /// The most recently written rank, absent before the job completes.
    pub rank: Option<f64>,
}

impl Encode for PrState {
    fn encode(&self, w: &mut ByteWriter) {
        self.edges.encode(w);
        self.rank.encode(w);
    }
    fn size_hint(&self) -> usize {
        self.edges.size_hint() + 9
    }
}

impl Decode for PrState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            edges: Vec::decode(r)?,
            rank: Option::decode(r)?,
        })
    }
}

/// A [`PrState`] read for its rank alone: the edges are passed over, not
/// built.
#[derive(Clone)]
struct RankOnly(Option<f64>);

impl Decode for RankOnly {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Vec::<VertexId>::skip(r)?;
        Ok(Self(Option::decode(r)?))
    }
}

/// The self-propagating part of a message: a vertex's structure and rank
/// travelling forward to its own next invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PrSelf {
    /// Out-edges.
    pub edges: Vec<VertexId>,
    /// Rank last computed.
    pub rank: f64,
}

/// The one message type of both variants: an optional self-state plus an
/// accumulated rank contribution (the paper's "further enhanced vertex
/// object that includes ... another double that is accumulating
/// contributions").
#[derive(Debug, Clone, PartialEq)]
pub struct PrMsg {
    /// Present on the message a vertex sends itself.
    pub state: Option<PrSelf>,
    /// Sum of rank contributions folded into this message.
    pub contrib: f64,
}

impl PrMsg {
    fn contribution(c: f64) -> Self {
        Self {
            state: None,
            contrib: c,
        }
    }

    fn self_state(edges: Vec<VertexId>, rank: f64) -> Self {
        Self {
            state: Some(PrSelf { edges, rank }),
            contrib: 0.0,
        }
    }
}

impl Encode for PrMsg {
    fn encode(&self, w: &mut ByteWriter) {
        match &self.state {
            None => w.push(0),
            Some(s) => {
                w.push(1);
                s.edges.encode(w);
                s.rank.encode(w);
            }
        }
        self.contrib.encode(w);
    }
    fn size_hint(&self) -> usize {
        9 + self.state.as_ref().map_or(0, |s| s.edges.size_hint() + 8)
    }
}

impl Decode for PrMsg {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let state = match r.read_byte()? {
            0 => None,
            1 => Some(PrSelf {
                edges: Vec::decode(r)?,
                rank: f64::decode(r)?,
            }),
            tag => {
                return Err(WireError::InvalidTag {
                    target: "PrMsg",
                    tag,
                })
            }
        };
        Ok(Self {
            state,
            contrib: f64::decode(r)?,
        })
    }
}

/// Folds `msg` into `into`: contributions add (in fold order — the f64
/// sum is not associative, which is why the jobs declare `needs-order`),
/// and the earlier self-state wins.
fn combine_pr(into: &mut PrMsg, msg: PrMsg) -> Option<PrMsg> {
    into.contrib += msg.contrib;
    if into.state.is_none() {
        into.state = msg.state;
    }
    None
}

/// Shared per-invocation arithmetic: fold messages, apply the equations.
struct Folded {
    edges: Vec<VertexId>,
    contrib: f64,
}

fn fold_messages(msgs: Vec<PrMsg>) -> Option<Folded> {
    let mut edges = None;
    let mut contrib = 0.0;
    for m in msgs {
        contrib += m.contrib;
        if let Some(s) = m.state {
            edges = Some(s.edges);
        }
    }
    edges.map(|edges| Folded { edges, contrib })
}

/// Emits one iteration's outgoing traffic: contributions along edges (or
/// dangling mass into the sink aggregator) — used by both variants.
fn distribute<J>(
    ctx: &mut ComputeContext<'_, J>,
    me: VertexId,
    edges: &[VertexId],
    rank: f64,
) -> Result<(), EbspError>
where
    J: Job<Key = VertexId, Message = PrMsg>,
{
    if edges.is_empty() {
        ctx.aggregate(SINK, rank.into())?;
    } else {
        let share = rank / edges.len() as f64;
        for &v in edges {
            ctx.send(v, PrMsg::contribution(share));
        }
    }
    let _ = me;
    Ok(())
}

const SINK: &str = "sink";

/// New rank from the equations, with the previous step's dangling mass.
fn new_rank(n: f64, damping: f64, contrib: f64, sink_prev: f64) -> f64 {
    (1.0 - damping) / n + damping * (contrib + sink_prev / n)
}

// ---------------------------------------------------------------------------
// Direct variant
// ---------------------------------------------------------------------------

/// The direct variant: one step (one synchronization) per iteration.
pub struct DirectPageRank {
    table: String,
    n: u64,
    config: PageRankConfig,
}

impl DirectPageRank {
    /// A direct-variant job over `n` vertices whose structure (and final
    /// ranks) live in `table`.
    pub fn new(table: impl Into<String>, n: u64, config: PageRankConfig) -> Self {
        Self {
            table: table.into(),
            n,
            config,
        }
    }
}

impl Job for DirectPageRank {
    type Key = VertexId;
    type State = PrState;
    type Message = PrMsg;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![self.table.clone()]
    }

    fn aggregators(&self) -> Vec<(String, Arc<dyn Aggregate>)> {
        vec![(SINK.to_owned(), Arc::new(SumF64))]
    }

    fn properties(&self) -> JobProperties {
        // needs-order makes collocated invocations run in key order, which
        // fixes the fold order of the f64 contribution combines: any two
        // runs — on any store backend — produce byte-identical ranks; that
        // ordered fold is also what makes `deterministic` true bit-for-bit.
        // The combiner always merges, so each vertex sees exactly one
        // post-combine message (one-msg), and compute never returns the
        // continue signal (no-continue) — together they unlock the
        // no-collect plan.
        JobProperties {
            needs_order: true,
            deterministic: true,
            one_msg: true,
            no_continue: true,
            ..JobProperties::default()
        }
    }

    fn combine_messages(&self, _k: &VertexId, into: &mut PrMsg, msg: PrMsg) -> Option<PrMsg> {
        combine_pr(into, msg)
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let me = *ctx.key();
        let n = self.n as f64;
        let last_step = self.config.iterations + 1;
        let (edges, rank) = if ctx.step() == 1 {
            // First step: read the structure table once; start at 1/|V|.
            let state = ctx.read_state(0)?.ok_or_else(|| EbspError::InvalidJob {
                reason: format!("vertex {me} missing from structure table"),
            })?;
            (state.edges, 1.0 / n)
        } else {
            let sink_prev = ctx.aggregate_prev(SINK).map_or(0.0, |v| v.as_f64());
            let folded =
                fold_messages(ctx.take_messages()).ok_or_else(|| EbspError::InvalidJob {
                    reason: format!("vertex {me} lost its self-state message"),
                })?;
            let rank = new_rank(n, self.config.damping, folded.contrib, sink_prev);
            (folded.edges, rank)
        };
        if ctx.step() == last_step {
            // Last step: replace the table entry with the enhanced vertex.
            ctx.write_state(
                0,
                &PrState {
                    edges,
                    rank: Some(rank),
                },
            )?;
            return Ok(false);
        }
        distribute(ctx, me, &edges, rank)?;
        ctx.send(me, PrMsg::self_state(edges, rank));
        Ok(false)
    }
}

// ---------------------------------------------------------------------------
// MapReduce variant
// ---------------------------------------------------------------------------

/// The MapReduce variant: two steps (two synchronizations) per iteration
/// and a state-table round-trip per iteration — iterated MapReduce
/// emulated on the same platform.
pub struct MapReducePageRank {
    table: String,
    n: u64,
    config: PageRankConfig,
}

impl MapReducePageRank {
    /// A MapReduce-variant job over `n` vertices whose structure (and
    /// final ranks) live in `table`.
    pub fn new(table: impl Into<String>, n: u64, config: PageRankConfig) -> Self {
        Self {
            table: table.into(),
            n,
            config,
        }
    }
}

impl Job for MapReducePageRank {
    type Key = VertexId;
    type State = PrState;
    type Message = PrMsg;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![self.table.clone()]
    }

    fn aggregators(&self) -> Vec<(String, Arc<dyn Aggregate>)> {
        vec![(SINK.to_owned(), Arc::new(SumF64))]
    }

    fn properties(&self) -> JobProperties {
        // needs-order makes collocated invocations run in key order, which
        // fixes the fold order of the f64 contribution combines: any two
        // runs — on any store backend — produce byte-identical ranks; the
        // ordered fold also makes the job bit-for-bit `deterministic`.  The
        // combiner always merges, so each reduce-side vertex sees exactly
        // one post-combine message (one-msg).  No `no_continue`: the reduce
        // step drives the iteration with the positive continue signal.
        JobProperties {
            needs_order: true,
            deterministic: true,
            one_msg: true,
            ..JobProperties::default()
        }
    }

    fn combine_messages(&self, _k: &VertexId, into: &mut PrMsg, msg: PrMsg) -> Option<PrMsg> {
        combine_pr(into, msg)
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let me = *ctx.key();
        let n = self.n as f64;
        let step = ctx.step();
        if step % 2 == 1 {
            // Map-like step: read structure+rank from the table (the
            // per-iteration I/O round the direct variant does not do), then
            // shuffle.
            let state = ctx.read_state(0)?.ok_or_else(|| EbspError::InvalidJob {
                reason: format!("vertex {me} missing from state table"),
            })?;
            let rank = state.rank.unwrap_or(1.0 / n);
            distribute(ctx, me, &state.edges, rank)?;
            ctx.send(me, PrMsg::self_state(state.edges, rank));
            Ok(false)
        } else {
            // Reduce-like step: fold the shuffle, apply the equations,
            // write structure+rank back to the table.
            let sink_prev = ctx.aggregate_prev(SINK).map_or(0.0, |v| v.as_f64());
            let folded =
                fold_messages(ctx.take_messages()).ok_or_else(|| EbspError::InvalidJob {
                    reason: format!("vertex {me} lost its self-state message"),
                })?;
            let rank = new_rank(n, self.config.damping, folded.contrib, sink_prev);
            ctx.write_state(
                0,
                &PrState {
                    edges: folded.edges,
                    rank: Some(rank),
                },
            )?;
            // Stay enabled for the next map-like step, unless done.
            Ok(step < 2 * self.config.iterations)
        }
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// A loader seeding the structure table from `graph`: every vertex enabled
/// with its adjacency list and no rank yet.  Public so external harnesses
/// (e.g. the property auditor) can drive the PageRank jobs directly.
pub fn structure_loader<J>(graph: &Graph) -> Box<dyn ripple_core::Loader<J>>
where
    J: Job<Key = VertexId, State = PrState>,
{
    let entries: Vec<(VertexId, Vec<VertexId>)> = graph
        .iter()
        .map(|(v, neighbors)| (v, neighbors.to_vec()))
        .collect();
    Box::new(FnLoader::new(move |sink: &mut dyn LoadSink<J>| {
        for (v, edges) in entries {
            sink.enable(v)?;
            sink.state(0, v, PrState { edges, rank: None })?;
        }
        Ok(())
    }))
}

/// Runs the direct variant over `graph`, leaving ranks in `table`.
///
/// # Errors
///
/// Propagates engine and store errors.
pub fn run_direct<S: KvStore>(
    store: &S,
    table: &str,
    graph: &Graph,
    config: PageRankConfig,
) -> Result<RunOutcome, EbspError> {
    run_direct_on(&JobRunner::new(store.clone()), table, graph, config)
}

/// As [`run_direct`], but on a caller-configured [`JobRunner`] — the way
/// to rank with profiling, tracing, observers, or retry policies attached.
///
/// # Errors
///
/// Propagates engine and store errors.
pub fn run_direct_on<S: KvStore>(
    runner: &JobRunner<S>,
    table: &str,
    graph: &Graph,
    config: PageRankConfig,
) -> Result<RunOutcome, EbspError> {
    let job = Arc::new(DirectPageRank {
        table: table.to_owned(),
        n: u64::from(graph.vertex_count()),
        config,
    });
    runner.launch(
        job,
        RunOptions::new().loaders(vec![structure_loader(graph)]),
    )
}

/// Runs the MapReduce variant over `graph`, leaving ranks in `table`.
///
/// # Errors
///
/// Propagates engine and store errors.
pub fn run_mapreduce_variant<S: KvStore>(
    store: &S,
    table: &str,
    graph: &Graph,
    config: PageRankConfig,
) -> Result<RunOutcome, EbspError> {
    run_mapreduce_variant_on(&JobRunner::new(store.clone()), table, graph, config)
}

/// As [`run_mapreduce_variant`], but on a caller-configured [`JobRunner`].
///
/// # Errors
///
/// Propagates engine and store errors.
pub fn run_mapreduce_variant_on<S: KvStore>(
    runner: &JobRunner<S>,
    table: &str,
    graph: &Graph,
    config: PageRankConfig,
) -> Result<RunOutcome, EbspError> {
    let job = Arc::new(MapReducePageRank {
        table: table.to_owned(),
        n: u64::from(graph.vertex_count()),
        config,
    });
    runner.launch(
        job,
        RunOptions::new().loaders(vec![structure_loader(graph)]),
    )
}

/// Reads the final ranks out of a PageRank table, sorted by vertex id.
///
/// # Errors
///
/// Propagates store errors; fails if any vertex is missing its rank.
pub fn read_ranks<S: KvStore>(store: &S, table: &str) -> Result<Vec<(VertexId, f64)>, EbspError> {
    let handle = store.lookup_table(table).map_err(EbspError::Kv)?;
    let exporter = Arc::new(ripple_core::CollectingExporter::new());
    ripple_core::export_state_table::<S, VertexId, RankOnly, _>(
        store,
        &handle,
        Arc::clone(&exporter),
    )?;
    let mut ranks = Vec::new();
    for (v, RankOnly(rank)) in exporter.take() {
        let rank = rank.ok_or_else(|| EbspError::InvalidJob {
            reason: format!("vertex {v} has no rank; did the job finish?"),
        })?;
        ranks.push((v, rank));
    }
    ranks.sort_by_key(|(v, _)| *v);
    Ok(ranks)
}

/// A sequential reference implementation of the same equations, for
/// validating both distributed variants.
pub fn reference_ranks(graph: &Graph, config: PageRankConfig) -> Vec<f64> {
    let n = graph.vertex_count() as usize;
    let nf = n as f64;
    let mut rank = vec![1.0 / nf; n];
    let mut next = vec![0.0; n];
    for _ in 0..config.iterations {
        let sink: f64 = graph
            .iter()
            .filter(|(_, out)| out.is_empty())
            .map(|(v, _)| rank[v as usize])
            .sum();
        next.iter_mut()
            .for_each(|x| *x = (1.0 - config.damping) / nf + config.damping * sink / nf);
        for (u, out) in graph.iter() {
            if !out.is_empty() {
                let share = config.damping * rank[u as usize] / out.len() as f64;
                for &v in out {
                    next[v as usize] += share;
                }
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

// ---------------------------------------------------------------------------
// Adaptive variant (aborter showcase)
// ---------------------------------------------------------------------------

/// PageRank with convergence-driven termination: a `delta` aggregator sums
/// per-vertex rank movement each iteration and an **aborter** (§II) stops
/// the job once the movement falls under `epsilon`.
///
/// Early termination needs observable state, so this variant writes each
/// vertex's rank to the table every iteration — the client-sync features
/// (aborter, aggregator) buy adaptivity at the price of the per-iteration
/// I/O the fixed-iteration direct variant avoids.  It is still one
/// synchronization per iteration.
pub struct AdaptivePageRank {
    table: String,
    n: u64,
    damping: f64,
    epsilon: f64,
}

impl AdaptivePageRank {
    /// An adaptive-variant job over `n` vertices whose structure (and
    /// running ranks) live in `table`, stopping once the per-iteration rank
    /// movement drops below `epsilon`.
    pub fn new(table: impl Into<String>, n: u64, damping: f64, epsilon: f64) -> Self {
        Self {
            table: table.into(),
            n,
            damping,
            epsilon,
        }
    }
}

const DELTA: &str = "delta";

impl Job for AdaptivePageRank {
    type Key = VertexId;
    type State = PrState;
    type Message = PrMsg;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![self.table.clone()]
    }

    fn aggregators(&self) -> Vec<(String, Arc<dyn Aggregate>)> {
        vec![
            (SINK.to_owned(), Arc::new(SumF64)),
            (DELTA.to_owned(), Arc::new(SumF64)),
        ]
    }

    fn properties(&self) -> JobProperties {
        // Same ordered f64 folds as the other variants.  The combiner
        // always merges (one-msg) and compute never returns the continue
        // signal (no-continue): termination comes from the aborter, whose
        // client synchronization keeps the plan synchronized regardless.
        JobProperties {
            needs_order: true,
            deterministic: true,
            one_msg: true,
            no_continue: true,
            ..JobProperties::default()
        }
    }

    fn has_aborter(&self) -> bool {
        true
    }

    fn aborter(&self, aggregates: &crate::pagerank::AggSnapshot, next_step: u32) -> bool {
        // Never before the second iteration: delta is only meaningful once
        // one full update has happened.
        next_step > 2 && aggregates.get(DELTA).map_or(0.0, |v| v.as_f64()) < self.epsilon
    }

    fn combine_messages(&self, _k: &VertexId, into: &mut PrMsg, msg: PrMsg) -> Option<PrMsg> {
        combine_pr(into, msg)
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let me = *ctx.key();
        let n = self.n as f64;
        let (edges, old_rank, rank) = if ctx.step() == 1 {
            let state = ctx.read_state(0)?.ok_or_else(|| EbspError::InvalidJob {
                reason: format!("vertex {me} missing from structure table"),
            })?;
            (state.edges, 1.0 / n, 1.0 / n)
        } else {
            let sink_prev = ctx.aggregate_prev(SINK).map_or(0.0, |v| v.as_f64());
            let state = ctx.read_state(0)?.ok_or_else(|| EbspError::InvalidJob {
                reason: format!("vertex {me} lost its state"),
            })?;
            let old = state.rank.unwrap_or(1.0 / n);
            let folded =
                fold_messages(ctx.take_messages()).ok_or_else(|| EbspError::InvalidJob {
                    reason: format!("vertex {me} lost its self-state message"),
                })?;
            let rank = new_rank(n, self.damping, folded.contrib, sink_prev);
            (folded.edges, old, rank)
        };
        // Observable state every step: the aborter's price.
        ctx.write_state(
            0,
            &PrState {
                edges: edges.clone(),
                rank: Some(rank),
            },
        )?;
        ctx.aggregate(DELTA, ((rank - old_rank).abs()).into())?;
        distribute(ctx, me, &edges, rank)?;
        ctx.send(me, PrMsg::self_state(edges, rank));
        Ok(false)
    }
}

/// Convenient alias so the aborter signature reads cleanly above.
type AggSnapshot = ripple_core::AggregateSnapshot;

/// Runs the adaptive variant until the total rank movement per iteration
/// drops below `epsilon` (or `max_iterations` as a safety net), returning
/// the outcome; ranks are left in `table`.
///
/// # Errors
///
/// Propagates engine and store errors.
pub fn run_adaptive<S: KvStore>(
    store: &S,
    table: &str,
    graph: &Graph,
    damping: f64,
    epsilon: f64,
    max_iterations: u32,
) -> Result<RunOutcome, EbspError> {
    let job = Arc::new(AdaptivePageRank {
        table: table.to_owned(),
        n: u64::from(graph.vertex_count()),
        damping,
        epsilon,
    });
    JobRunner::new(store.clone())
        .max_steps(max_iterations)
        .launch(
            job,
            RunOptions::new().loaders(vec![structure_loader(graph)]),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_wire::{from_wire, to_wire};

    /// Golden bytes: the state and envelope formats are what durable
    /// tables, journals and WALs written by earlier builds hold.
    #[test]
    fn state_and_envelope_formats_are_fixed() {
        let state = PrState {
            edges: vec![1, 300, 70_000],
            rank: Some(0.25),
        };
        let state_bytes = [
            0x03, 0x01, 0xac, 0x02, 0xf0, 0xa2, 0x04, 0x01, 0, 0, 0, 0, 0, 0, 0xd0, 0x3f,
        ];
        assert_eq!(&to_wire(&state)[..], &state_bytes);
        assert_eq!(from_wire::<PrState>(&state_bytes).unwrap(), state);

        let spill: Vec<ripple_core::Envelope<DirectPageRank>> = vec![
            ripple_core::Envelope::Message {
                to: 300,
                msg: PrMsg::self_state(vec![0, 127, 128, 16_384], 0.5),
            },
            ripple_core::Envelope::Message {
                to: 7,
                msg: PrMsg::contribution(-2.0),
            },
            ripple_core::Envelope::Continue { key: 70_000 },
            ripple_core::Envelope::Create {
                tab: 0,
                key: 9,
                state,
            },
        ];
        let mut spill_bytes = vec![
            0x04, // four envelopes
            0x00, 0xac, 0x02, 0x01, 0x04, 0x00, 0x7f, 0x80, 0x01, 0x80, 0x80, 0x01, //
            0, 0, 0, 0, 0, 0, 0xe0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0, // rank 0.5, contrib 0
            0x00, 0x07, 0x00, 0, 0, 0, 0, 0, 0, 0x00, 0xc0, // contribution -2.0
            0x01, 0xf0, 0xa2, 0x04, // continue 70 000
            0x02, 0x00, 0x09, // create in table 0, key 9
        ];
        spill_bytes.extend_from_slice(&state_bytes);
        assert_eq!(&to_wire(&spill)[..], &spill_bytes[..]);
        let back: Vec<ripple_core::Envelope<DirectPageRank>> = from_wire(&spill_bytes).unwrap();
        assert_eq!(to_wire(&back), to_wire(&spill));
    }

    #[test]
    fn reading_ranks_back_skips_the_edges() {
        for state in [
            PrState {
                edges: vec![1, 300, 70_000],
                rank: Some(0.25),
            },
            PrState {
                edges: Vec::new(),
                rank: None,
            },
        ] {
            let RankOnly(rank) = from_wire(&to_wire(&state)).unwrap();
            assert_eq!(rank, state.rank);
        }
        // What the full decode refuses, the projection refuses.
        assert!(from_wire::<RankOnly>(&[0x02, 0x01]).is_err());
    }

    #[test]
    fn message_codec_roundtrips() {
        let m = PrMsg::contribution(0.125);
        assert_eq!(from_wire::<PrMsg>(&to_wire(&m)).unwrap(), m);
        let m = PrMsg::self_state(vec![1, 2, 3], 0.5);
        assert_eq!(from_wire::<PrMsg>(&to_wire(&m)).unwrap(), m);
    }

    #[test]
    fn combine_merges_state_and_sums_contribs() {
        let mut into = PrMsg::contribution(0.25);
        assert!(combine_pr(&mut into, PrMsg::self_state(vec![4], 0.1)).is_none());
        assert_eq!(into.contrib, 0.25);
        assert_eq!(into.state.unwrap().edges, vec![4]);
    }

    #[test]
    fn reference_ranks_sum_to_one() {
        let graph = crate::generate::power_law_graph(200, 2000, 0.8, 9);
        let ranks = reference_ranks(
            &graph,
            PageRankConfig {
                damping: 0.85,
                iterations: 15,
            },
        );
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "rank mass conserved, got {sum}");
    }

    #[test]
    fn adaptive_variant_stops_early_and_converges() {
        let graph = crate::generate::power_law_graph(150, 1500, 0.8, 4);
        let store = ripple_store_mem::MemStore::builder()
            .default_parts(4)
            .build();
        let outcome = run_adaptive(&store, "apr", &graph, 0.85, 1e-7, 500).unwrap();
        assert!(outcome.aborted, "the aborter must stop the job");
        assert!(outcome.steps < 500, "and well before the safety net");
        let ranks = read_ranks(&store, "apr").unwrap();
        // Close to the fixed-point: compare against a long reference run.
        let reference = reference_ranks(
            &graph,
            PageRankConfig {
                damping: 0.85,
                iterations: 120,
            },
        );
        for (v, r) in ranks {
            assert!(
                (r - reference[v as usize]).abs() < 1e-5,
                "vertex {v}: {r} vs {}",
                reference[v as usize]
            );
        }
    }

    #[test]
    fn reference_handles_dangling_vertices() {
        // 0 -> 1, 1 dangling: mass must not leak.
        let mut graph = Graph::empty(2);
        graph.add_edge(0, 1);
        let ranks = reference_ranks(
            &graph,
            PageRankConfig {
                damping: 0.85,
                iterations: 30,
            },
        );
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(ranks[1] > ranks[0], "1 receives everything 0 has");
    }
}
