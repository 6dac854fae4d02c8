use std::hash::Hash;
use std::sync::Arc;

use ripple_wire::Wire;

use crate::{
    AggValue, Aggregate, AggregateSnapshot, ComputeContext, Exporter, JobProperties, Loader,
};

/// The per-table exporters a job attaches to its final state (`getWriters`).
pub type StateExporters<J> = Vec<(usize, Arc<dyn Exporter<<J as Job>::Key, <J as Job>::State>>)>;

/// A K/V EBSP job: the central application programming concept (paper §II,
/// Listings 1–3 folded into one idiomatic Rust trait).
///
/// A job is *mobile code*: the engine distributes it (via `Arc`) and
/// invokes [`Job::compute`] near each component's data.
///
/// The paper's `Job`, `Compute` and `ComputeContext` interfaces map as:
///
/// | Paper                        | Here                                       |
/// |------------------------------|--------------------------------------------|
/// | `getStateTableNames`         | [`Job::state_tables`]                      |
/// | `getReferenceTable`          | [`Job::reference_table`]                   |
/// | `getCompute` / `compute`     | [`Job::compute`]                           |
/// | `combine2msgs`               | [`Job::combine_messages`] (folds `b` into `a` in place) |
/// | `combine2states`             | [`Job::combine_states`]                    |
/// | `getAggregators` + `getComputeAggregate` | [`Job::aggregators`]          |
/// | broadcast table              | [`Job::broadcast_table`]                   |
/// | `getLoaders`                 | [`Job::loaders`]                           |
/// | direct output                | [`Job::direct_output`]                     |
/// | aborter                      | [`Job::has_aborter`] / [`Job::aborter`]    |
/// | declared properties (§II-A)  | [`Job::properties`]                        |
pub trait Job: Send + Sync + Sized + 'static {
    /// Component identifier.  Components are identified by a key.
    type Key: Wire + Eq + Hash + Ord;
    /// Per-component local state held in the state tables.
    type State: Wire;
    /// The message type flowing between components.
    type Message: Wire;
    /// Key type of direct job output.
    type OutKey: Wire;
    /// Value type of direct job output.
    type OutValue: Wire;

    /// Names of the job's state tables, in `tab` index order.  The engine
    /// requires at least one and creates any that do not already exist,
    /// co-partitioned with the reference table.
    fn state_tables(&self) -> Vec<String>;

    /// The table whose partitioning governs component placement; defaults
    /// to the first state table.
    fn reference_table(&self) -> String {
        self.state_tables().first().cloned().unwrap_or_default()
    }

    /// Name of the ubiquitous table holding immutable broadcast data, if
    /// the job uses one.
    fn broadcast_table(&self) -> Option<String> {
        None
    }

    /// One component execution: consume the input messages and previous
    /// state from `ctx`, write new state and outgoing messages into it, and
    /// return the continue signal — `Ok(true)` to stay enabled next step.
    ///
    /// (The paper's `compute` returns a bare boolean; the `Result` wrapper
    /// is the idiomatic Rust rendering of state-access failures.)
    ///
    /// # Errors
    ///
    /// Propagate [`EbspError`](crate::EbspError)s from context operations;
    /// the engine treats a part failure as recoverable when checkpointing
    /// is on.
    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, crate::EbspError>;

    /// Pairwise message combiner, in place and by value: fold `msg` into
    /// `into` and return `None`, or decline by handing `msg` back as
    /// `Some(msg)` with `into` untouched, which keeps both (the default:
    /// no combining).  `into` is always the earlier of the two and folds
    /// happen in send order at the sender and in arrival order at the
    /// receiver; beyond that the platform may invoke the combiner at
    /// arbitrary times and places, any number of times.
    fn combine_messages(
        &self,
        key: &Self::Key,
        into: &mut Self::Message,
        msg: Self::Message,
    ) -> Option<Self::Message> {
        let _ = (key, into);
        Some(msg)
    }

    /// Merges conflicting component states when two creations (or a
    /// creation and an existing entry) collide; the default keeps the
    /// later one.
    fn combine_states(&self, key: &Self::Key, a: Self::State, b: Self::State) -> Self::State {
        let _ = (key, a);
        b
    }

    /// The job's individual aggregators: (name, technique) pairs.
    fn aggregators(&self) -> Vec<(String, Arc<dyn Aggregate>)> {
        Vec::new()
    }

    /// Whether the job supplies an aborter.  Jobs overriding
    /// [`Job::aborter`] must also override this to return `true`; the
    /// engine uses it to detect the `no-client-sync` property.
    fn has_aborter(&self) -> bool {
        false
    }

    /// Invoked between steps (with the just-merged aggregator results);
    /// returning `true` stops execution immediately.
    fn aborter(&self, aggregates: &AggregateSnapshot, next_step: u32) -> bool {
        let _ = (aggregates, next_step);
        false
    }

    /// Loaders producing the job's initial condition: initial component
    /// states, initial messages, additionally enabled components, and
    /// initial aggregator input.
    fn loaders(&self) -> Vec<Box<dyn Loader<Self>>> {
        Vec::new()
    }

    /// Where direct job output goes, if the job produces any.
    fn direct_output(&self) -> Option<Arc<dyn Exporter<Self::OutKey, Self::OutValue>>> {
        None
    }

    /// Exporters for final state-table contents (the paper's `getWriters`):
    /// pairs of (state table index, exporter).  After the run completes,
    /// the engine enumerates each named table and hands every (key, state)
    /// pair to its exporter.
    fn state_exporters(&self) -> StateExporters<Self> {
        Vec::new()
    }

    /// The job's declared execution properties (§II-A).
    fn properties(&self) -> JobProperties {
        JobProperties::default()
    }

    /// Initial aggregator results visible in step 1 (before any barrier).
    /// Most jobs leave this as the identities.
    fn initial_aggregates(&self) -> Vec<(String, AggValue)> {
        Vec::new()
    }
}
