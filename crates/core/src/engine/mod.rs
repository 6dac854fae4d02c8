//! The K/V EBSP execution engines and their shared plumbing.

pub(crate) mod anywhere;
pub(crate) mod nosync;
pub(crate) mod plane;
pub(crate) mod sync;

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use ripple_kv::{KvError, KvStore, PartView, RoutedKey, Table};
use ripple_wire::{from_wire, to_wire, Encode};

use crate::context::{Outbox, StateOps};
use crate::metrics::PartCounters;
use crate::retry::{kv_with_retry, FaultRetry};
use crate::{
    key_to_routed, AggValue, AggregatorRegistry, EbspError, Envelope, ExecutionPlan, Exporter, Job,
    LoadSink,
};

/// Everything about one job run that both engines (and every part task)
/// need: the store, job, plan, table handles, registry, and exporters.
pub(crate) struct JobEnv<S: KvStore, J: Job> {
    pub(crate) store: S,
    pub(crate) job: Arc<J>,
    pub(crate) registry: AggregatorRegistry,
    pub(crate) plan: ExecutionPlan,
    pub(crate) table_names: Arc<Vec<String>>,
    pub(crate) tables: Vec<S::Table>,
    pub(crate) reference: S::Table,
    pub(crate) broadcast_name: Option<String>,
    pub(crate) direct: Option<Arc<dyn Exporter<J::OutKey, J::OutValue>>>,
}

impl<S: KvStore, J: Job> JobEnv<S, J> {
    pub(crate) fn parts(&self) -> u32 {
        self.reference.part_count()
    }
}

/// Collocated, pass-through state access for pinned execution: one store
/// call per operation.  The unsynchronized engine uses it as is; the
/// synchronized engine wraps it in a [`plane::StatePlane`].  Transient
/// store faults are absorbed by the run's [`FaultRetry`] before they
/// surface.
pub(crate) struct LocalStateOps<'a> {
    pub(crate) view: &'a dyn PartView,
    pub(crate) tables: &'a [String],
    pub(crate) broadcast: Option<&'a str>,
    pub(crate) retry: Option<&'a FaultRetry>,
}

impl LocalStateOps<'_> {
    fn part(&self) -> u32 {
        self.view.part().0
    }
}

impl StateOps for LocalStateOps<'_> {
    fn get(&self, tab: usize, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        kv_with_retry(self.retry, self.part(), || {
            self.view.get(&self.tables[tab], key)
        })
    }
    fn put(&self, tab: usize, key: RoutedKey, value: Bytes) -> Result<(), KvError> {
        kv_with_retry(self.retry, self.part(), || {
            self.view.put(&self.tables[tab], key.clone(), value.clone())
        })?;
        Ok(())
    }
    fn delete(&self, tab: usize, key: &RoutedKey) -> Result<bool, KvError> {
        kv_with_retry(self.retry, self.part(), || {
            self.view.delete(&self.tables[tab], key)
        })
    }
    fn broadcast_get(&self, key: &RoutedKey) -> Result<Option<Option<Bytes>>, KvError> {
        match self.broadcast {
            None => Ok(None),
            Some(name) => Ok(Some(kv_with_retry(self.retry, self.part(), || {
                self.view.get(name, key)
            })?)),
        }
    }
    fn table_count(&self) -> usize {
        self.tables.len()
    }
}

/// Table-handle state access for *run-anywhere* execution (used by the
/// work-stealing compute phase): a stolen
/// invocation may run at any part, so state operations go through the
/// ordinary table handles and pay marshalling when non-local — cheap by
/// assumption (`rare-state`).
pub(crate) struct GlobalStateOps<S: KvStore> {
    pub(crate) tables: Vec<S::Table>,
    pub(crate) broadcast: Option<S::Table>,
}

impl<S: KvStore> StateOps for GlobalStateOps<S> {
    fn get(&self, tab: usize, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        self.tables[tab].get(key)
    }
    fn put(&self, tab: usize, key: RoutedKey, value: Bytes) -> Result<(), KvError> {
        self.tables[tab].put(key, value)?;
        Ok(())
    }
    fn delete(&self, tab: usize, key: &RoutedKey) -> Result<bool, KvError> {
        self.tables[tab].delete(key)
    }
    fn broadcast_get(&self, key: &RoutedKey) -> Result<Option<Option<Bytes>>, KvError> {
        match &self.broadcast {
            None => Ok(None),
            Some(t) => Ok(Some(t.get(key)?)),
        }
    }
    fn table_count(&self) -> usize {
        self.tables.len()
    }
}

/// The destination part of an envelope addressed to `key`.
pub(crate) fn dst_part<K: Encode>(key: &K, parts: u32) -> u32 {
    key_to_routed(key).part_for(parts).0
}

/// Folds same-destination messages at the *source* part before they are
/// spilled, using the job's pairwise combiner — the "arbitrary times and
/// places" license applied as early as possible, so combined traffic never
/// reaches the transport table (or, against a networked store, the wire).
/// Each message folds into the most recent surviving message for its key,
/// mirroring the adjacent-pair pass the inbox build applies on arrival;
/// `Continue` and `Create` envelopes pass through untouched.
fn precombine_envelopes<J: Job>(
    job: &J,
    envelopes: Vec<Envelope<J>>,
    counters: &mut PartCounters,
) -> Vec<Envelope<J>> {
    let mut out: Vec<Envelope<J>> = Vec::with_capacity(envelopes.len());
    let mut last_at: HashMap<J::Key, usize> = HashMap::new();
    for env in envelopes {
        match env {
            Envelope::Message { to, msg } => {
                if let Some(&i) = last_at.get(&to) {
                    let Envelope::Message { msg: resident, .. } = &mut out[i] else {
                        unreachable!("last_at only indexes Message envelopes");
                    };
                    if let Some(merged) = job.combine_messages(&to, resident, &msg) {
                        *resident = merged;
                        counters.messages_combined += 1;
                        continue;
                    }
                }
                last_at.insert(to.clone(), out.len());
                out.push(Envelope::Message { to, msg });
            }
            other => out.push(other),
        }
    }
    out
}

/// Groups `envelopes` by destination part and writes one spill batch per
/// non-empty destination into the transport table, keyed `(step, src, seq)`
/// and routed to the destination part.  All destination records flush
/// through a single [`Table::put_batch`] call, so a batching store ships
/// one coalesced frame per destination server instead of one RPC per
/// destination part.  With `precombine` set, same-key messages are first
/// folded at the source via [`precombine_envelopes`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_spills<T: Table, J: Job>(
    job: &J,
    transport: &T,
    parts: u32,
    step: u32,
    src: u32,
    envelopes: Vec<Envelope<J>>,
    counters: &mut PartCounters,
    retry: Option<&FaultRetry>,
    precombine: bool,
) -> Result<(), EbspError> {
    let envelopes = if precombine {
        precombine_envelopes(job, envelopes, counters)
    } else {
        envelopes
    };
    if envelopes.is_empty() {
        return Ok(());
    }
    let mut by_dst: Vec<Vec<Envelope<J>>> = (0..parts).map(|_| Vec::new()).collect();
    for env in envelopes {
        let dst = dst_part(env.key(), parts) as usize;
        by_dst[dst].push(env);
    }
    let mut records: Vec<(RoutedKey, Bytes)> = Vec::new();
    for (dst, batch) in by_dst.into_iter().enumerate() {
        if batch.is_empty() {
            continue;
        }
        let body = to_wire(&(step, src, counters.spill_batches));
        let key = RoutedKey::with_route(dst as u64, body.to_vec().into());
        records.push((key, to_wire(&batch)));
        counters.spill_batches += 1;
    }
    // Keys are unique per (step, src, seq), so replaying the whole batch
    // after a transient failure is idempotent.
    kv_with_retry(retry, src, || transport.put_batch(records.clone()))?;
    Ok(())
}

/// Drains this part's slice of the transport table and builds the inbox
/// for the next step: per-component message lists (combined pairwise where
/// the job's combiner applies), continue-enabled components, and applied
/// state creations.  Returns the number of enabled components, the
/// counters, and — when `record` is set — the materialized inbox entries,
/// which the synchronized engine keeps controller-side as the replay log
/// for fast single-part recovery.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub(crate) fn build_inbox_at_part<J: Job>(
    job: &J,
    plan: &ExecutionPlan,
    view: &dyn PartView,
    transport_name: &str,
    inbox_name: &str,
    table_names: &[String],
    retry: Option<&FaultRetry>,
    record: bool,
    probe: Option<&dyn crate::AuditProbe>,
) -> Result<(u64, PartCounters, Vec<(RoutedKey, Bytes)>), EbspError> {
    let mut counters = PartCounters::default();
    // Drain spills; order deterministically by (step, src, seq) so that
    // replay after recovery sees identical message orders.  The
    // accumulator lives inside the retry closure so a drain that fails
    // transiently (e.g. a severed connection mid-stream) starts each
    // attempt from a clean slate — no pair is delivered twice.
    let mut batches = kv_with_retry(retry, view.part().0, || {
        let mut acc: Vec<((u32, u32, u64), Bytes)> = Vec::new();
        view.drain(transport_name, &mut |key, value| {
            if let Ok(tag) = from_wire::<(u32, u32, u64)>(key.body()) {
                acc.push((tag, value));
            }
            ripple_kv::ScanControl::Continue
        })?;
        Ok(acc)
    })?;
    batches.sort_by_key(|(tag, _)| *tag);
    // Spills tagged with step s are delivered for step s + 1; loader
    // spills (tagged 0) feed step 1.
    let deliver_step = batches
        .iter()
        .map(|((s, _, _), _)| s + 1)
        .max()
        .unwrap_or(1);

    // Fold envelopes into per-component inboxes, preserving arrival order
    // and applying the pairwise combiner opportunistically.
    let mut inbox: HashMap<J::Key, Vec<J::Message>> = HashMap::new();
    let mut creates: Vec<(u16, J::Key, J::State)> = Vec::new();
    for (_, bytes) in batches {
        let envelopes: Vec<Envelope<J>> = from_wire(&bytes)?;
        for env in envelopes {
            match env {
                Envelope::Message { to, msg } => {
                    inbox.entry(to).or_default().push(msg);
                }
                Envelope::Continue { key } => {
                    inbox.entry(key).or_default();
                }
                Envelope::Create { tab, key, state } => creates.push((tab, key, state)),
            }
        }
    }

    // Apply the pairwise combiner per component.  "The platform may combine
    // some of them by one or more invocations (at arbitrary times and
    // places)"; a single adjacent-pair pass over the arrival-ordered list
    // is one such choice.
    for (key, list) in inbox.iter_mut() {
        if list.len() < 2 {
            continue;
        }
        let mut combined: Vec<J::Message> = Vec::with_capacity(list.len());
        for msg in list.drain(..) {
            match combined.last_mut() {
                Some(last) => match job.combine_messages(key, last, &msg) {
                    Some(merged) => {
                        *last = merged;
                        counters.messages_combined += 1;
                    }
                    None => combined.push(msg),
                },
                None => combined.push(msg),
            }
        }
        *list = combined;
    }

    apply_creates(job, view, table_names, retry, creates)?;

    // Audit the post-combine delivery counts — the `one-msg` contract is
    // about what arrives per (key, step) after combining, not about how
    // many raw sends targeted the key.
    if let Some(probe) = probe {
        let part = view.part().0;
        for (key, list) in &inbox {
            probe.on_deliver(deliver_step, part, &to_wire(key), list.len() as u32);
        }
    }

    // Enforce one-msg when the plan dropped collection.
    if !plan.collect {
        for (_key, list) in inbox.iter() {
            if list.len() > 1 {
                return Err(EbspError::PropertyViolation {
                    property: "one-msg",
                    detail: format!("{} messages arrived for one key in one step", list.len()),
                });
            }
        }
    }

    // Materialize the inbox table: one entry per enabled component, all
    // flushed through one batched write (keys are unique, so a retried
    // batch is idempotent).
    let enabled = inbox.len() as u64;
    let part = view.part().0;
    let mut records: Vec<(RoutedKey, Bytes)> = Vec::with_capacity(inbox.len());
    for (key, msgs) in inbox {
        records.push((key_to_routed(&key), to_wire(&msgs)));
    }
    kv_with_retry(retry, part, || view.put_batch(inbox_name, records.clone()))?;
    let recorded = if record { records } else { Vec::new() };
    Ok((enabled, counters, recorded))
}

/// The creations one key of one state table received, in arrival order.
struct Creations<J: Job> {
    routed: RoutedKey,
    key: J::Key,
    states: Vec<J::State>,
}

/// Applies the state creations delivered to this part, merging each with
/// the resident state (and with other creations of the same key, in
/// arrival order) through the job's `combine_states`.  Resident states are
/// read one `get_batch` per window of distinct keys and the merged states
/// written behind, so creations cost bulk transfers, not a get and a put
/// each.
fn apply_creates<J: Job>(
    job: &J,
    view: &dyn PartView,
    table_names: &[String],
    retry: Option<&FaultRetry>,
    creates: Vec<(u16, J::Key, J::State)>,
) -> Result<(), EbspError> {
    if creates.is_empty() {
        return Ok(());
    }
    let part = view.part().0;
    // Per table, the distinct keys in first-seen order with their states.
    let mut slots: HashMap<(usize, RoutedKey), usize> = HashMap::new();
    let mut by_table: Vec<Vec<Creations<J>>> = table_names.iter().map(|_| Vec::new()).collect();
    for (tab, key, state) in creates {
        let tab = tab as usize;
        let targets = by_table.get_mut(tab).ok_or(EbspError::StateTableIndex {
            index: tab,
            tables: table_names.len(),
        })?;
        let routed = key_to_routed(&key);
        let slot = *slots.entry((tab, routed.clone())).or_insert_with(|| {
            targets.push(Creations {
                routed,
                key,
                states: Vec::new(),
            });
            targets.len() - 1
        });
        targets[slot].states.push(state);
    }
    let put_batch = |tab: usize, records: Vec<(RoutedKey, Bytes)>| {
        kv_with_retry(retry, part, || {
            view.put_batch(&table_names[tab], records.clone())
        })
    };
    let mut writes = plane::WriteBehind::new(table_names.len());
    for (tab, mut targets) in by_table.into_iter().enumerate() {
        let mut rest = targets.as_mut_slice();
        let mut next = plane::READ_AHEAD_KEYS;
        while !rest.is_empty() {
            let (window, tail) = rest.split_at_mut(next.min(rest.len()));
            rest = tail;
            let keys: Vec<RoutedKey> = window.iter().map(|c| c.routed.clone()).collect();
            let resident = kv_with_retry(retry, part, || view.get_batch(&table_names[tab], &keys))?;
            next = plane::next_window(&resident);
            for (creations, resident) in window.iter_mut().zip(resident) {
                let mut merged: Option<J::State> = match resident {
                    Some(bytes) => Some(from_wire(&bytes)?),
                    None => None,
                };
                for state in creations.states.drain(..) {
                    merged = Some(match merged {
                        Some(old) => job.combine_states(&creations.key, old, state),
                        None => state,
                    });
                }
                let merged = merged.expect("every slot holds at least one creation");
                if let Some(full) = writes.push(tab, creations.routed.clone(), to_wire(&merged)) {
                    put_batch(tab, full)?;
                }
            }
        }
    }
    for (tab, records) in writes.take_all() {
        put_batch(tab, records)?;
    }
    Ok(())
}

/// Runs the compute invocations of one part for one step: drains the
/// inbox, invokes enabled components (sorted by key iff the plan says so),
/// appends continue signals, and spills outgoing envelopes.
///
/// When `replay_entries` is supplied (fast recovery), the inbox table is
/// ignored and the given entries are computed instead; `suppress` replays
/// a *past* step purely for its state effects — sends, aggregator partials
/// and direct outputs already happened in the original execution and are
/// dropped so they cannot duplicate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_at_part<T: Table, J: Job>(
    job: &J,
    plan: &ExecutionPlan,
    view: &dyn PartView,
    step: u32,
    transport: &T,
    inbox_name: &str,
    table_names: &[String],
    broadcast_name: Option<&str>,
    registry: &AggregatorRegistry,
    prev_agg: &crate::AggregateSnapshot,
    direct: Option<&dyn Exporter<J::OutKey, J::OutValue>>,
    parts: u32,
    agg_table: Option<&T>,
    retry: Option<&FaultRetry>,
    replay_entries: Option<Vec<(RoutedKey, Bytes)>>,
    suppress: bool,
    probe: Option<&dyn crate::AuditProbe>,
    shuffle: Option<u64>,
    precombine: bool,
) -> Result<(HashMap<String, AggValue>, PartCounters), EbspError> {
    // Collect this step's enabled components at this part.  As with the
    // transport drain, the accumulator is per-attempt so a transient
    // drain failure retries without duplicating entries.
    let entries: Vec<(RoutedKey, Bytes)> = match replay_entries {
        Some(replayed) => replayed,
        None => kv_with_retry(retry, view.part().0, || {
            let mut acc: Vec<(RoutedKey, Bytes)> = Vec::new();
            view.drain(inbox_name, &mut |key, value| {
                acc.push((key, value));
                ripple_kv::ScanControl::Continue
            })?;
            Ok(acc)
        })?,
    };

    let mut decoded: Vec<(J::Key, RoutedKey, Vec<J::Message>)> = Vec::with_capacity(entries.len());
    for (routed, bytes) in entries {
        let key: J::Key = from_wire(routed.body())?;
        let msgs: Vec<J::Message> = from_wire(&bytes)?;
        decoded.push((key, routed, msgs));
    }
    if let Some(seed) = shuffle {
        // Audit mode: a deterministic Fisher–Yates permutation keyed by
        // (seed, step, part) *replaces* the plan's ordering, so a job whose
        // output survives several seeds demonstrably does not depend on
        // invocation order.  Sort first: the permutation must be a pure
        // function of (seed, step, part), not of the store's iteration
        // order, or same-seed runs would not be comparable.
        decoded.sort_by(|a, b| a.0.cmp(&b.0));
        let mut state = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(step) << 32)
            .wrapping_add(u64::from(view.part().0))
            | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..decoded.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            decoded.swap(i, j);
        }
    } else if plan.sort {
        decoded.sort_by(|a, b| a.0.cmp(&b.0));
    }

    let ops = plane::StatePlane::new(
        LocalStateOps {
            view,
            tables: table_names,
            broadcast: broadcast_name,
            retry,
        },
        decoded
            .iter()
            .map(|(_, routed, _)| routed.clone())
            .collect(),
    );
    let no_continue = job.properties().no_continue;
    let part = view.part();
    let mut out = Outbox::<J>::new();
    for (at, (key, routed, messages)) in decoded.into_iter().enumerate() {
        ops.begin(at);
        out.metrics.invocations += 1;
        // Keep the encoded key on hand for the post-compute probe calls;
        // `routed` itself moves into the context.
        let key_bytes = probe.map(|p| {
            p.on_invocation(step, part.0, routed.body());
            routed.body().clone()
        });
        let mut ctx = crate::ComputeContext {
            step,
            mode: crate::ExecMode::Synchronized,
            part,
            key: key.clone(),
            routed,
            messages,
            ops: &ops,
            out: &mut out,
            registry,
            prev_agg,
            direct: if suppress { None } else { direct },
            probe,
        };
        let cont = job.compute(&mut ctx)?;
        if let (Some(p), Some(kb)) = (probe, &key_bytes) {
            // Before the no-continue enforcement below, so the audit
            // recorder holds the evidence when the engine aborts the run.
            p.on_continue(step, part.0, kb, cont);
        }
        if cont {
            if no_continue {
                return Err(EbspError::PropertyViolation {
                    property: "no-continue",
                    detail: "compute returned the positive continue signal".to_owned(),
                });
            }
            out.envelopes.push(Envelope::Continue { key });
        }
    }

    // State before messages: once this step's spills are visible, the
    // states that produced them are too.
    ops.flush()?;
    let envelopes = std::mem::take(&mut out.envelopes);
    if suppress {
        // Replaying a completed step: its messages were already delivered
        // and its aggregator contribution already merged.
        drop(envelopes);
        out.agg.clear();
        return Ok((out.agg, out.metrics));
    }
    write_spills(
        job,
        transport,
        parts,
        step,
        part.0,
        envelopes,
        &mut out.metrics,
        retry,
        precombine,
    )?;

    // Large-aggregator path (§IV-A): rather than returning partials to the
    // table client, write them into an auxiliary table keyed (and routed)
    // by aggregator name; a later enumeration round merges them.
    if let Some(aux) = agg_table {
        for (name, value) in std::mem::take(&mut out.agg) {
            let route = key_to_routed(&name).route();
            let body = to_wire(&(name, part.0));
            aux.put(
                RoutedKey::with_route(route, body.to_vec().into()),
                to_wire(&value),
            )?;
        }
    }
    Ok((out.agg, out.metrics))
}

/// The merge-and-redistribute round of the large-aggregator path: every
/// part folds the partials whose aggregator names route to it, records the
/// merged value in the second auxiliary table, and reports it back.
pub(crate) fn merge_aggregates_at_part(
    registry: &AggregatorRegistry,
    view: &dyn PartView,
    agg1_name: &str,
    agg2_name: &str,
    retry: Option<&FaultRetry>,
) -> Result<Vec<(String, AggValue)>, EbspError> {
    let raw = kv_with_retry(retry, view.part().0, || {
        let mut acc: Vec<(Bytes, Bytes)> = Vec::new();
        view.drain(agg1_name, &mut |key, value| {
            acc.push((key.body().clone(), value));
            ripple_kv::ScanControl::Continue
        })?;
        Ok(acc)
    })?;
    let mut merged: HashMap<String, AggValue> = HashMap::new();
    for (key_body, value_bytes) in raw {
        let (name, _src): (String, u32) = from_wire(&key_body)?;
        let value: AggValue = from_wire(&value_bytes)?;
        registry.fold(&mut merged, &name, value)?;
    }
    for (name, value) in &merged {
        kv_with_retry(retry, view.part().0, || {
            view.put(agg2_name, key_to_routed(name), to_wire(value))
                .map(|_| ())
        })?;
    }
    Ok(merged.into_iter().collect())
}

/// Loader output buffered at the controller before the run starts.
pub(crate) struct LoadBuffer<J: Job> {
    pub(crate) envelopes: Vec<Envelope<J>>,
    pub(crate) agg: HashMap<String, AggValue>,
}

impl<J: Job> LoadBuffer<J> {
    pub(crate) fn new() -> Self {
        Self {
            envelopes: Vec::new(),
            agg: HashMap::new(),
        }
    }
}

/// The engine-side [`LoadSink`]: initial states are written behind to the
/// state tables (one `put_batch` per full buffer, retried through the
/// run's policy, since against a networked store a load-time write can
/// fail transiently like any other operation); messages and enables
/// buffer as step-0 envelopes.
pub(crate) struct EngineLoadSink<'a, S: KvStore, J: Job> {
    tables: &'a [S::Table],
    registry: &'a AggregatorRegistry,
    buffer: &'a mut LoadBuffer<J>,
    retry: Option<&'a FaultRetry>,
    writes: plane::WriteBehind,
}

impl<'a, S: KvStore, J: Job> EngineLoadSink<'a, S, J> {
    pub(crate) fn new(
        tables: &'a [S::Table],
        registry: &'a AggregatorRegistry,
        buffer: &'a mut LoadBuffer<J>,
        retry: Option<&'a FaultRetry>,
    ) -> Self {
        Self {
            tables,
            registry,
            buffer,
            retry,
            writes: plane::WriteBehind::new(tables.len()),
        }
    }

    /// Writes out the states still buffered; the loaders are done.
    pub(crate) fn finish(mut self) -> Result<(), EbspError> {
        for (tab, records) in self.writes.take_all() {
            self.put_batch(tab, records)?;
        }
        Ok(())
    }

    /// A batch spans parts, so retries are attributed to the controller
    /// pseudo-part like the loader's spills.
    fn put_batch(&self, tab: usize, records: Vec<(RoutedKey, Bytes)>) -> Result<(), EbspError> {
        kv_with_retry(self.retry, u32::MAX, || {
            self.tables[tab].put_batch(records.clone())
        })?;
        Ok(())
    }
}

impl<S: KvStore, J: Job> LoadSink<J> for EngineLoadSink<'_, S, J> {
    fn state(&mut self, tab: usize, key: J::Key, state: J::State) -> Result<(), EbspError> {
        if tab >= self.tables.len() {
            return Err(EbspError::StateTableIndex {
                index: tab,
                tables: self.tables.len(),
            });
        }
        match self.writes.push(tab, key_to_routed(&key), to_wire(&state)) {
            Some(full) => self.put_batch(tab, full),
            None => Ok(()),
        }
    }

    fn message(&mut self, to: J::Key, msg: J::Message) -> Result<(), EbspError> {
        self.buffer.envelopes.push(Envelope::Message { to, msg });
        Ok(())
    }

    fn enable(&mut self, key: J::Key) -> Result<(), EbspError> {
        self.buffer.envelopes.push(Envelope::Continue { key });
        Ok(())
    }

    fn aggregate(&mut self, name: &str, value: AggValue) -> Result<(), EbspError> {
        self.registry.fold(&mut self.buffer.agg, name, value)
    }
}

/// Drops the named tables when the run ends, however it ends.
pub(crate) struct TableGuard<S: KvStore> {
    pub(crate) store: S,
    pub(crate) names: Vec<String>,
}

impl<S: KvStore> Drop for TableGuard<S> {
    fn drop(&mut self) {
        for name in &self.names {
            // Cleanup failures at teardown are not actionable.
            let _ = self.store.drop_table(name);
        }
    }
}
