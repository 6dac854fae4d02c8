//! **Graph EBSP** — the Pregel-like vertex-centric layer over K/V EBSP
//! (Figure 2).  A [`VertexProgram`] runs against vertices whose state (a
//! value plus out-edges) lives in one state table; messaging, barriers,
//! selective enablement, and combiners all come straight from the
//! underlying [`ripple_core::Job`] machinery — this module is *only* an
//! adapter, which is the paper's point.

use std::sync::Arc;

use ripple_core::{
    AggValue, Aggregate, ComputeContext, EbspError, FnLoader, Job, JobRunner, LoadSink, Loader,
    RunOptions, RunOutcome,
};
use ripple_kv::KvStore;
use ripple_wire::{ByteReader, ByteWriter, Decode, Encode, Wire, WireError};

use crate::generate::Graph;
use crate::VertexId;

/// A vertex's stored state: its value and its out-edges.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexData<V> {
    /// The application value.
    pub value: V,
    /// Out-neighbor ids.
    pub edges: Vec<VertexId>,
}

impl<V: Encode> Encode for VertexData<V> {
    fn encode(&self, w: &mut ByteWriter) {
        self.value.encode(w);
        self.edges.encode(w);
    }
    fn size_hint(&self) -> usize {
        self.value.size_hint() + self.edges.size_hint()
    }
}

impl<V: Decode> Decode for VertexData<V> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            value: V::decode(r)?,
            edges: Vec::decode(r)?,
        })
    }
}

/// A vertex-centric program in the Pregel style.
pub trait VertexProgram: Send + Sync + Sized + 'static {
    /// The per-vertex value.
    type Value: Wire;
    /// The message type.
    type Message: Wire;

    /// One vertex invocation.  The vertex stays active unless it votes to
    /// halt; a halted vertex is re-activated by an incoming message.
    ///
    /// # Errors
    ///
    /// Propagate context errors.
    fn compute(&self, ctx: &mut VertexContext<'_, '_, Self>) -> Result<(), EbspError>;

    /// Optional pairwise message combiner, shaped like
    /// [`Job::combine_messages`]: fold `msg` into `into` and return `None`,
    /// or hand it back as `Some(msg)` to keep both (the default).
    fn combine(&self, into: &mut Self::Message, msg: Self::Message) -> Option<Self::Message> {
        let _ = into;
        Some(msg)
    }

    /// Named aggregators, as in Pregel; fed via
    /// [`VertexContext::aggregate`], readable next superstep via
    /// [`VertexContext::aggregate_prev`].
    fn aggregators(&self) -> Vec<(String, Arc<dyn Aggregate>)> {
        Vec::new()
    }
}

/// The vertex-facing view of one invocation.
pub struct VertexContext<'a, 'b, P: VertexProgram> {
    inner: &'a mut ComputeContext<'b, VertexJob<P>>,
    data: VertexData<P::Value>,
    dirty: bool,
    halted: bool,
}

impl<P: VertexProgram> VertexContext<'_, '_, P> {
    /// This vertex's id.
    pub fn id(&self) -> VertexId {
        *self.inner.key()
    }

    /// The current superstep (1-based).
    pub fn superstep(&self) -> u32 {
        self.inner.step()
    }

    /// The vertex value.
    pub fn value(&self) -> &P::Value {
        &self.data.value
    }

    /// Replaces the vertex value.
    pub fn set_value(&mut self, value: P::Value) {
        self.data.value = value;
        self.dirty = true;
    }

    /// The out-edges.
    pub fn edges(&self) -> &[VertexId] {
        &self.data.edges
    }

    /// The messages delivered this superstep.
    pub fn messages(&self) -> &[P::Message] {
        self.inner.messages()
    }

    /// Takes ownership of the delivered messages.
    pub fn take_messages(&mut self) -> Vec<P::Message> {
        self.inner.take_messages()
    }

    /// Sends `msg` to vertex `to` for delivery next superstep.
    pub fn send(&mut self, to: VertexId, msg: P::Message) {
        self.inner.send(to, msg);
    }

    /// Sends `msg` along every out-edge.
    pub fn send_to_neighbors(&mut self, msg: P::Message)
    where
        P::Message: Clone,
    {
        for i in 0..self.data.edges.len() {
            let to = self.data.edges[i];
            self.inner.send(to, msg.clone());
        }
    }

    /// Votes to halt: the vertex is not enabled next superstep unless a
    /// message arrives for it.
    pub fn vote_to_halt(&mut self) {
        self.halted = true;
    }

    /// Adds an out-edge to `to` (topology mutation, effective immediately
    /// for this vertex's subsequent sends).
    pub fn add_edge(&mut self, to: VertexId) {
        self.data.edges.push(to);
        self.dirty = true;
    }

    /// Removes one out-edge to `to`, returning whether it existed.
    pub fn remove_edge(&mut self, to: VertexId) -> bool {
        match self.data.edges.iter().position(|&v| v == to) {
            Some(i) => {
                self.data.edges.swap_remove(i);
                self.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Feeds `value` into the aggregator named `name`.
    ///
    /// # Errors
    ///
    /// Fails for undeclared aggregator names.
    pub fn aggregate(&mut self, name: &str, value: AggValue) -> Result<(), EbspError> {
        self.inner.aggregate(name, value)
    }

    /// The previous superstep's result of aggregator `name`.
    pub fn aggregate_prev(&self, name: &str) -> Option<AggValue> {
        self.inner.aggregate_prev(name)
    }
}

/// The adapter [`Job`] hosting a [`VertexProgram`].
pub struct VertexJob<P: VertexProgram> {
    program: Arc<P>,
    table: String,
}

impl<P: VertexProgram> VertexJob<P> {
    /// Hosts `program` on the vertex table named `table`.
    pub fn new(program: Arc<P>, table: impl Into<String>) -> Self {
        Self {
            program,
            table: table.into(),
        }
    }
}

impl<P: VertexProgram> Job for VertexJob<P> {
    type Key = VertexId;
    type State = VertexData<P::Value>;
    type Message = P::Message;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![self.table.clone()]
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let Some(data) = ctx.read_state(0)? else {
            // A message addressed a vertex that does not exist (was never
            // loaded or was removed): drop it, Pregel-style.
            return Ok(false);
        };
        let mut vctx = VertexContext {
            inner: ctx,
            data,
            dirty: false,
            halted: false,
        };
        self.program.compute(&mut vctx)?;
        let (dirty, halted, data) = (vctx.dirty, vctx.halted, vctx.data);
        if dirty {
            ctx.write_state(0, &data)?;
        }
        Ok(!halted)
    }

    fn combine_messages(
        &self,
        _key: &VertexId,
        into: &mut P::Message,
        msg: P::Message,
    ) -> Option<P::Message> {
        self.program.combine(into, msg)
    }

    fn aggregators(&self) -> Vec<(String, Arc<dyn Aggregate>)> {
        self.program.aggregators()
    }
}

/// A loader that installs a [`Graph`] into a vertex table with per-vertex
/// initial values, enabling every vertex for superstep 1 (Pregel's "all
/// vertices start active").
pub struct GraphLoader<V, F> {
    graph: Graph,
    init: F,
    enable_all: bool,
    _marker: std::marker::PhantomData<fn() -> V>,
}

impl<V, F: Fn(VertexId) -> V> GraphLoader<V, F> {
    /// Loads `graph` with `init` providing each vertex's starting value.
    pub fn new(graph: Graph, init: F) -> Self {
        Self {
            graph,
            init,
            enable_all: true,
            _marker: std::marker::PhantomData,
        }
    }

    /// Leaves all vertices disabled (for jobs seeded by messages instead).
    pub fn without_enabling(mut self) -> Self {
        self.enable_all = false;
        self
    }
}

impl<P, F> Loader<VertexJob<P>> for GraphLoader<P::Value, F>
where
    P: VertexProgram,
    F: Fn(VertexId) -> P::Value + Send,
{
    fn load(self: Box<Self>, sink: &mut dyn LoadSink<VertexJob<P>>) -> Result<(), EbspError> {
        for (v, neighbors) in self.graph.iter() {
            if self.enable_all {
                sink.enable(v)?;
            }
            sink.state(
                0,
                v,
                VertexData {
                    value: (self.init)(v),
                    edges: neighbors.to_vec(),
                },
            )?;
        }
        Ok(())
    }
}

/// Loads `graph` into `table` and runs `program` to completion, returning
/// the outcome.  Results stay in the table for export.
///
/// # Errors
///
/// Propagates engine and store errors.
pub fn run_vertex_program<S, P, F>(
    store: &S,
    program: Arc<P>,
    table: &str,
    graph: Graph,
    init: F,
) -> Result<RunOutcome, EbspError>
where
    S: KvStore,
    P: VertexProgram,
    F: Fn(VertexId) -> P::Value + Send + 'static,
{
    let job = Arc::new(VertexJob::new(program, table));
    JobRunner::new(store.clone()).launch(
        job,
        RunOptions::new().loaders(vec![Box::new(GraphLoader::new(graph, init))]),
    )
}

/// Reads all (vertex, value) pairs back out of a vertex table.
///
/// # Errors
///
/// Propagates store errors.
pub fn read_vertex_values<S, V>(store: &S, table: &str) -> Result<Vec<(VertexId, V)>, EbspError>
where
    S: KvStore,
    V: Wire,
{
    let handle = store.lookup_table(table).map_err(EbspError::Kv)?;
    let exporter = Arc::new(ripple_core::CollectingExporter::new());
    ripple_core::export_state_table::<S, VertexId, VertexData<V>, _>(
        store,
        &handle,
        Arc::clone(&exporter),
    )?;
    let mut pairs: Vec<(VertexId, V)> = exporter
        .take()
        .into_iter()
        .map(|(v, d)| (v, d.value))
        .collect();
    pairs.sort_by_key(|(v, _)| *v);
    Ok(pairs)
}

/// A loader that just sends seed messages (for message-driven programs).
pub fn seed_messages<P: VertexProgram>(
    seeds: Vec<(VertexId, P::Message)>,
) -> Box<dyn Loader<VertexJob<P>>> {
    Box::new(FnLoader::new(
        move |sink: &mut dyn LoadSink<VertexJob<P>>| {
            for (to, msg) in seeds {
                sink.message(to, msg)?;
            }
            Ok(())
        },
    ))
}
