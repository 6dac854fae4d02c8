//! The EBSP job hosting one map-reduce couplet.

use std::sync::Arc;

use ripple_core::{
    export_state_table, CollectingExporter, ComputeContext, EbspError, FnLoader, Job, JobRunner,
    LoadSink, RunOptions,
};
use ripple_kv::KvStore;

use crate::{MapReduce, MrKey, MrState};

/// The output pairs of one couplet.
pub type MrOutput<M> = Vec<(<M as MapReduce>::MidKey, <M as MapReduce>::OutValue)>;

/// A [`MapReduce`] couplet expressed as a two-step K/V EBSP job.
///
/// Input lives in the `input` state table (map-side components), output is
/// written to the same table under reduce-side keys; the shuffle is BSP
/// messaging across the single intermediate barrier.
pub struct MapReduceJob<M: MapReduce> {
    mr: Arc<M>,
    table: String,
}

impl<M: MapReduce> MapReduceJob<M> {
    /// Hosts `mr` on the state table named `table`.
    pub fn new(mr: Arc<M>, table: impl Into<String>) -> Self {
        Self {
            mr,
            table: table.into(),
        }
    }

    /// The couplet this job hosts.
    pub fn map_reduce(&self) -> &Arc<M> {
        &self.mr
    }
}

impl<M: MapReduce> Job for MapReduceJob<M> {
    type Key = MrKey<M::InKey, M::MidKey>;
    type State = MrState<M::InValue, M::OutValue>;
    type Message = M::MidValue;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![self.table.clone()]
    }

    fn properties(&self) -> ripple_core::JobProperties {
        // A couplet is self-limiting: map-side components go dormant after
        // emitting, reduce-side components after folding — compute never
        // returns the continue signal.  Nothing stronger can be promised
        // here: one-msg and determinism depend on the client's `map` /
        // `reduce` / `combine` functions.
        ripple_core::JobProperties {
            no_continue: true,
            ..ripple_core::JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        match ctx.key().clone() {
            MrKey::In(key) => {
                // Map side: read the input value, emit intermediate pairs.
                let Some(MrState::In(value)) = ctx.read_state(0)? else {
                    return Ok(false); // input vanished; nothing to map
                };
                let mut emitted = Vec::new();
                self.mr.map(&key, &value, &mut |mk, mv| {
                    emitted.push((mk, mv));
                });
                for (mk, mv) in emitted {
                    ctx.send(MrKey::Mid(mk), mv);
                }
                Ok(false)
            }
            MrKey::Mid(key) => {
                // Reduce side: fold the collected value list.
                let values = ctx.take_messages();
                if let Some(out) = self.mr.reduce(&key, values) {
                    ctx.write_state(0, &MrState::Out(out))?;
                }
                Ok(false)
            }
        }
    }

    fn combine_messages(
        &self,
        key: &Self::Key,
        into: &mut Self::Message,
        msg: Self::Message,
    ) -> Option<Self::Message> {
        match key {
            MrKey::Mid(mk) => self.mr.combine(mk, into, msg),
            MrKey::In(_) => Some(msg),
        }
    }
}

/// Runs one couplet over in-memory input pairs and returns the sorted-by-
/// nothing output pairs.  The working table is created fresh and dropped
/// afterwards.
///
/// # Errors
///
/// Propagates engine and store errors.
pub fn run_map_reduce<S, M>(
    store: &S,
    mr: Arc<M>,
    input: Vec<(M::InKey, M::InValue)>,
) -> Result<MrOutput<M>, EbspError>
where
    S: KvStore,
    M: MapReduce,
    M::MidKey: Clone + Send,
    M::OutValue: Clone + Send,
{
    let table = fresh_table_name();
    let job = Arc::new(MapReduceJob::new(mr, table.clone()));
    let outcome = run_couplet(store, &job, input)?;
    debug_assert!(
        outcome.steps <= 2,
        "a couplet is at most two steps (zero for empty input)"
    );
    let output = collect_output::<S, M>(store, &table)?;
    store.drop_table(&table).map_err(EbspError::Kv)?;
    Ok(output)
}

/// Runs one couplet of `job` with `input` loaded into its table.
pub(crate) fn run_couplet<S, M>(
    store: &S,
    job: &Arc<MapReduceJob<M>>,
    input: Vec<(M::InKey, M::InValue)>,
) -> Result<ripple_core::RunOutcome, EbspError>
where
    S: KvStore,
    M: MapReduce,
{
    JobRunner::new(store.clone()).launch(
        Arc::clone(job),
        RunOptions::new().loaders(vec![Box::new(FnLoader::new(
            move |sink: &mut dyn LoadSink<MapReduceJob<M>>| {
                for (k, v) in input {
                    sink.enable(MrKey::In(k.clone()))?;
                    sink.state(0, MrKey::In(k), MrState::In(v))?;
                }
                Ok(())
            },
        ))]),
    )
}

/// Reads the reduce-side output pairs out of a couplet's table.
pub(crate) fn collect_output<S, M>(store: &S, table: &str) -> Result<MrOutput<M>, EbspError>
where
    S: KvStore,
    M: MapReduce,
    M::MidKey: Clone + Send,
    M::OutValue: Clone + Send,
{
    let handle = store.lookup_table(table).map_err(EbspError::Kv)?;
    let exporter = Arc::new(CollectingExporter::new());
    export_state_table::<S, MrKey<M::InKey, M::MidKey>, MrState<M::InValue, M::OutValue>, _>(
        store,
        &handle,
        Arc::clone(&exporter),
    )?;
    Ok(exporter
        .take()
        .into_iter()
        .filter_map(|(k, v)| match (k, v) {
            (MrKey::Mid(mk), MrState::Out(ov)) => Some((mk, ov)),
            _ => None,
        })
        .collect())
}

fn fresh_table_name() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NONCE: AtomicU64 = AtomicU64::new(1);
    format!("__mr_{}", NONCE.fetch_add(1, Ordering::Relaxed))
}
