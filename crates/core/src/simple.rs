//! Closure-based jobs: the paper argues the practical value of
//! MapReduce-style platforms is that "the analytic application can supply
//! some relatively small, simple, and essentially functional code".
//! [`SimpleJob`] is that path for K/V EBSP — a whole job from a compute
//! closure (plus optional combiner and properties), no trait impl needed.

use std::hash::Hash;
use std::sync::Arc;

use ripple_wire::Wire;

use crate::{Aggregate, ComputeContext, EbspError, Job, JobProperties};

type ComputeFn<K, S, M> =
    dyn Fn(&mut ComputeContext<'_, SimpleJob<K, S, M>>) -> Result<bool, EbspError> + Send + Sync;
type CombineFn<K, M> = dyn Fn(&K, &mut M, M) -> Option<M> + Send + Sync;

/// A job assembled from closures.  Direct output and state writers are not
/// supported here — implement [`Job`] directly when you need them.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ripple_core::{FnLoader, JobRunner, LoadSink, RunOptions, SimpleJob};
/// use ripple_store_mem::MemStore;
///
/// # fn main() -> Result<(), ripple_core::EbspError> {
/// // Counters that tick down to zero, one whole job from closures.
/// let job = SimpleJob::<u32, u64, ()>::builder("tick")
///     .compute(|ctx| {
///         let left = ctx.read_state(0)?.unwrap_or(0);
///         ctx.write_state(0, &left.saturating_sub(1))?;
///         Ok(left > 1)
///     })
///     .build();
/// let store = MemStore::builder().default_parts(2).build();
/// let outcome = JobRunner::new(store).launch(
///     Arc::new(job),
///     RunOptions::new().loader(Box::new(FnLoader::new(|sink: &mut dyn LoadSink<_>| {
///         sink.state(0, 7, 5)?;
///         sink.enable(7)
///     }))),
/// )?;
/// assert_eq!(outcome.steps, 5);
/// # Ok(())
/// # }
/// ```
pub struct SimpleJob<K, S, M>
where
    K: Wire + Eq + Hash + Ord,
    S: Wire,
    M: Wire,
{
    tables: Vec<String>,
    compute: Box<ComputeFn<K, S, M>>,
    combine: Option<Box<CombineFn<K, M>>>,
    aggregators: Vec<(String, Arc<dyn Aggregate>)>,
    broadcast: Option<String>,
    properties: JobProperties,
}

impl<K, S, M> SimpleJob<K, S, M>
where
    K: Wire + Eq + Hash + Ord,
    S: Wire,
    M: Wire,
{
    /// Starts building a job whose first (reference) state table is
    /// `table`.
    pub fn builder(table: impl Into<String>) -> SimpleJobBuilder<K, S, M> {
        SimpleJobBuilder {
            tables: vec![table.into()],
            compute: None,
            combine: None,
            aggregators: Vec::new(),
            broadcast: None,
            properties: JobProperties::default(),
        }
    }
}

/// Builder for [`SimpleJob`]; see its docs.
pub struct SimpleJobBuilder<K, S, M>
where
    K: Wire + Eq + Hash + Ord,
    S: Wire,
    M: Wire,
{
    tables: Vec<String>,
    compute: Option<Box<ComputeFn<K, S, M>>>,
    combine: Option<Box<CombineFn<K, M>>>,
    aggregators: Vec<(String, Arc<dyn Aggregate>)>,
    broadcast: Option<String>,
    properties: JobProperties,
}

impl<K, S, M> SimpleJobBuilder<K, S, M>
where
    K: Wire + Eq + Hash + Ord,
    S: Wire,
    M: Wire,
{
    /// Adds another state table (index = call order, after the reference
    /// table at 0).
    pub fn state_table(mut self, name: impl Into<String>) -> Self {
        self.tables.push(name.into());
        self
    }

    /// Sets the compute function (required).
    pub fn compute<F>(mut self, f: F) -> Self
    where
        F: Fn(&mut ComputeContext<'_, SimpleJob<K, S, M>>) -> Result<bool, EbspError>
            + Send
            + Sync
            + 'static,
    {
        self.compute = Some(Box::new(f));
        self
    }

    /// Sets the pairwise message combiner, shaped like
    /// [`Job::combine_messages`]: fold the message into `&mut M` and return
    /// `None`, or hand it back as `Some` to keep both.
    pub fn combine<F>(mut self, f: F) -> Self
    where
        F: Fn(&K, &mut M, M) -> Option<M> + Send + Sync + 'static,
    {
        self.combine = Some(Box::new(f));
        self
    }

    /// Declares an aggregator.
    pub fn aggregator(mut self, name: impl Into<String>, technique: Arc<dyn Aggregate>) -> Self {
        self.aggregators.push((name.into(), technique));
        self
    }

    /// Names the ubiquitous broadcast table.
    pub fn broadcast_table(mut self, name: impl Into<String>) -> Self {
        self.broadcast = Some(name.into());
        self
    }

    /// Declares execution properties (§II-A).
    pub fn properties(mut self, properties: JobProperties) -> Self {
        self.properties = properties;
        self
    }

    /// Finishes the job.
    ///
    /// # Panics
    ///
    /// Panics if no compute function was supplied.
    pub fn build(self) -> SimpleJob<K, S, M> {
        SimpleJob {
            tables: self.tables,
            compute: self.compute.expect("SimpleJob needs a compute closure"),
            combine: self.combine,
            aggregators: self.aggregators,
            broadcast: self.broadcast,
            properties: self.properties,
        }
    }
}

impl<K, S, M> Job for SimpleJob<K, S, M>
where
    K: Wire + Eq + Hash + Ord,
    S: Wire,
    M: Wire,
{
    type Key = K;
    type State = S;
    type Message = M;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        self.tables.clone()
    }

    fn broadcast_table(&self) -> Option<String> {
        self.broadcast.clone()
    }

    fn aggregators(&self) -> Vec<(String, Arc<dyn Aggregate>)> {
        self.aggregators.clone()
    }

    fn properties(&self) -> JobProperties {
        self.properties
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        (self.compute)(ctx)
    }

    fn combine_messages(&self, key: &K, into: &mut M, msg: M) -> Option<M> {
        match &self.combine {
            Some(f) => f(key, into, msg),
            None => Some(msg),
        }
    }
}
