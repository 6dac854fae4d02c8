//! Classic vertex-centric algorithms on the Graph EBSP layer — written
//! purely against [`VertexProgram`], demonstrating the Figure 2 layering:
//! nothing here touches the engine below the Pregel-style API.

use std::sync::Arc;

use ripple_core::{AggValue, Aggregate, EbspError, JobRunner, RunOptions, SumI64};
use ripple_kv::KvStore;

use crate::generate::Graph;
use crate::vertex::{
    read_vertex_values, run_vertex_program, seed_messages, GraphLoader, VertexContext, VertexJob,
    VertexProgram,
};
use crate::{VertexId, INF};

/// Connected components by minimum-label propagation: every vertex adopts
/// the smallest id it has heard of and gossips improvements.  On an
/// undirected (symmetric) graph the fixpoint labels each component with its
/// smallest member.
pub struct MinLabelComponents;

impl VertexProgram for MinLabelComponents {
    type Value = VertexId;
    type Message = VertexId;

    fn compute(&self, ctx: &mut VertexContext<'_, '_, Self>) -> Result<(), EbspError> {
        let heard = ctx.messages().iter().copied().min();
        let current = *ctx.value();
        let best = match heard {
            Some(h) => h.min(current),
            None => current,
        };
        if ctx.superstep() == 1 || best < current {
            ctx.set_value(best);
            ctx.send_to_neighbors(best);
        }
        ctx.vote_to_halt();
        Ok(())
    }

    fn combine(&self, into: &mut VertexId, msg: VertexId) -> Option<VertexId> {
        *into = msg.min(*into);
        None
    }
}

/// Labels every vertex of `graph` with the smallest vertex id in its
/// component.
///
/// # Errors
///
/// Propagates engine and store errors.
pub fn connected_components<S: KvStore>(
    store: &S,
    table: &str,
    graph: &Graph,
) -> Result<Vec<(VertexId, VertexId)>, EbspError> {
    run_vertex_program(
        store,
        Arc::new(MinLabelComponents),
        table,
        graph.clone(),
        |v| v,
    )?;
    read_vertex_values(store, table)
}

/// Breadth-first distances from a source: message-driven, so only the
/// frontier is enabled each superstep (selective enablement at work).
pub struct BfsDistances;

impl VertexProgram for BfsDistances {
    type Value = u32;
    type Message = u32; // distance offered

    fn compute(&self, ctx: &mut VertexContext<'_, '_, Self>) -> Result<(), EbspError> {
        let offered = ctx.messages().iter().copied().min();
        if let Some(d) = offered {
            if d < *ctx.value() {
                ctx.set_value(d);
                ctx.send_to_neighbors(d + 1);
            }
        }
        ctx.vote_to_halt();
        Ok(())
    }

    fn combine(&self, into: &mut u32, msg: u32) -> Option<u32> {
        *into = msg.min(*into);
        None
    }
}

/// Computes hop distances from `source` over `graph` (treated as directed;
/// pass a symmetric graph for undirected semantics).
///
/// # Errors
///
/// Propagates engine and store errors.
pub fn bfs<S: KvStore>(
    store: &S,
    table: &str,
    graph: &Graph,
    source: VertexId,
) -> Result<Vec<(VertexId, u32)>, EbspError> {
    let job = Arc::new(VertexJob::new(Arc::new(BfsDistances), table));
    JobRunner::new(store.clone()).launch(
        job,
        RunOptions::new().loaders(vec![
            Box::new(GraphLoader::new(graph.clone(), |_| INF).without_enabling()),
            seed_messages::<BfsDistances>(vec![(source, 0)]),
        ]),
    )?;
    read_vertex_values(store, table)
}

/// Out-degree histogram via one superstep of Graph EBSP plus aggregation
/// at the client — a trivial "quick analytic" in the platform's terms.
pub fn degree_counts<S: KvStore>(
    store: &S,
    table: &str,
    graph: &Graph,
) -> Result<Vec<(VertexId, u32)>, EbspError> {
    struct Degrees;
    impl VertexProgram for Degrees {
        type Value = u32;
        type Message = ();
        fn compute(&self, ctx: &mut VertexContext<'_, '_, Self>) -> Result<(), EbspError> {
            let d = ctx.edges().len() as u32;
            ctx.set_value(d);
            ctx.vote_to_halt();
            Ok(())
        }
    }
    run_vertex_program(store, Arc::new(Degrees), table, graph.clone(), |_| 0)?;
    read_vertex_values(store, table)
}

/// Triangle counting on an undirected (symmetric) graph, Pregel style:
/// superstep 1, each vertex `v` sends its higher-id neighbor list to every
/// neighbor `u > v`; superstep 2, `u` intersects each received list with
/// its own higher-id neighbors, so each triangle `v < u < w` is counted
/// exactly once, into an aggregator.
pub struct TriangleCount;

impl VertexProgram for TriangleCount {
    type Value = u32; // triangles this vertex closed (as the middle vertex)
    type Message = Vec<VertexId>;

    fn aggregators(&self) -> Vec<(String, Arc<dyn Aggregate>)> {
        vec![("triangles".to_owned(), Arc::new(SumI64))]
    }

    fn compute(&self, ctx: &mut VertexContext<'_, '_, Self>) -> Result<(), EbspError> {
        let me = ctx.id();
        if ctx.superstep() == 1 {
            let higher: Vec<VertexId> = ctx.edges().iter().copied().filter(|&w| w > me).collect();
            if !higher.is_empty() {
                let targets = higher.clone();
                for u in targets {
                    ctx.send(u, higher.clone());
                }
            }
            return Ok(()); // stay active for the counting superstep
        }
        let mut mine: Vec<VertexId> = ctx.edges().iter().copied().filter(|&w| w > me).collect();
        mine.sort_unstable();
        let mut closed = 0u32;
        for list in ctx.take_messages() {
            for w in list {
                if w > me && mine.binary_search(&w).is_ok() {
                    closed += 1;
                }
            }
        }
        if closed > 0 {
            ctx.set_value(closed);
            ctx.aggregate("triangles", AggValue::I64(i64::from(closed)))?;
        }
        ctx.vote_to_halt();
        Ok(())
    }
}

/// Counts the triangles of `graph` (undirected, symmetric adjacency),
/// returning the global total.
///
/// # Errors
///
/// Propagates engine and store errors.
pub fn triangle_count<S: KvStore>(store: &S, table: &str, graph: &Graph) -> Result<u64, EbspError> {
    let outcome = run_vertex_program(store, Arc::new(TriangleCount), table, graph.clone(), |_| 0)?;
    Ok(outcome
        .aggregates
        .get("triangles")
        .map_or(0, |v| v.as_i64()) as u64)
}
