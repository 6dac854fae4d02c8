//! The K/V EBSP execution engines and the part-task plumbing they share.
//!
//! An engine is a scheduling policy: *when and where* the same `compute`
//! invocation runs.  Everything else lives here, once:
//!
//! * [`PartTask`] — the one context a part task carries: every value that
//!   is constant for a run.  Its methods are the message plane (deliver,
//!   state creations, spill, aggregator partials) and take only what
//!   varies per call.
//! * [`Invoker`] — the one invocation core: context construction, audit
//!   probes, `Job::compute`, continue-signal enforcement.
//!
//! [`sync`] adds the barrier, checkpoints, rollback and fast recovery;
//! [`anywhere`] the steal queue; [`nosync`] queue sets, termination
//! weights and worker self-healing.

pub(crate) mod anywhere;
pub(crate) mod nosync;
pub(crate) mod plane;
pub(crate) mod sync;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use ripple_kv::{KvError, KvStore, PartId, PartView, RoutedKey, ScanControl, Table};
use ripple_wire::{from_wire, from_wire_each, to_wire};

use crate::context::{fold_message, Outbox, StateOps};
use crate::hash::KeyMap;
use crate::metrics::StepCounters;
use crate::retry::{kv_with_retry, FaultRetry};
use crate::{
    key_to_routed, AggValue, AggregateSnapshot, AggregatorRegistry, AuditProbe, EbspError,
    Envelope, ExecMode, ExecutionPlan, Exporter, GatePermit, Job, LoadSink, Loader, TaskGate,
};

/// Everything about one job run that the controller side of an engine
/// needs: the store, job, plan, table handles, registry, and exporters.
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

/// Encoded `(key, value)` records as the store hands them over.
pub(crate) type Records = Vec<(RoutedKey, Bytes)>;

/// A spill batch's transport tag: `(step, src, seq)`.
type SpillTag = (u32, u32, u64);

/// One enabled component and the messages delivered to it.
pub(crate) type Enabled<J> = (<J as Job>::Key, RoutedKey, Vec<<J as Job>::Message>);

/// What one part task of a step hands back to the controller.
#[derive(Default)]
pub(crate) struct PartOutput {
    /// Aggregator partials.
    pub(crate) agg: HashMap<String, AggValue>,
    pub(crate) counters: StepCounters,
    /// Components invoked for the step's own effect (a replay of a past
    /// step counts none).
    pub(crate) enabled: u64,
    /// It spilled a message or a continue signal: the next step has
    /// components to invoke.
    pub(crate) live: bool,
    /// It spilled a state creation, which the next delivery applies.
    pub(crate) creates: bool,
    /// The spill records as written — what fast recovery replays a
    /// receiving part from.
    pub(crate) spilled: Records,
    /// How long the task spent delivering before its first invocation.
    pub(crate) delivery: Duration,
}

/// The temporary tables of a synchronized run.
#[derive(Clone)]
pub(crate) struct TempTables<T> {
    /// Spill batches keyed `(step, src, seq)`, routed to their destination,
    /// in two tables used alternately so that a part running ahead cannot
    /// mix its spills into input a slower part has yet to drain.
    pub(crate) transport: [T; 2],
    /// Large-aggregator path (§IV-A): per-part partials, merged results.
    pub(crate) agg: Option<(T, T)>,
}

impl<T> TempTables<T> {
    /// The transport `step` spills into and `step + 1` drains; loader spills
    /// count as step 0.
    pub(crate) fn transport(&self, step: u32) -> &T {
        &self.transport[(step % 2) as usize]
    }

    /// Makes the set, one table per kind, with the aggregator pair iff `agg`.
    pub(crate) fn make<E>(
        agg: bool,
        mut make: impl FnMut(&str) -> Result<T, E>,
    ) -> Result<Self, E> {
        let transport = [make("xport0")?, make("xport1")?];
        let agg = if agg {
            Some((make("agg1")?, make("agg2")?))
        } else {
            None
        };
        Ok(Self { transport, agg })
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        let agg = self
            .agg
            .iter()
            .flat_map(|(partials, merged)| [partials, merged]);
        self.transport.iter().chain(agg)
    }
}

/// A set of synchronized-run temporaries and what it was made for: the
/// reference table's partitioning group, whether it is replicated, and
/// whether it has the aggregator pair.  Dropping it drops its tables;
/// failures at teardown are not actionable.
pub(crate) struct Temps<S: KvStore> {
    pub(crate) store: S,
    pub(crate) key: (u64, bool, bool),
    pub(crate) tables: TempTables<S::Table>,
}

impl<S: KvStore> Drop for Temps<S> {
    fn drop(&mut self) {
        for table in self.tables.iter() {
            let _ = self.store.drop_table(table.name());
        }
    }
}

/// The one idle set a [`JobRunner`](crate::JobRunner) and its clones keep
/// between launches; it goes with the last clone.
pub(crate) type TempSlot<S> = Mutex<Option<Temps<S>>>;

/// A launch's hold on its temporaries, handed back to `slot` however the
/// run ends: as they are if the run left them `drained`, cleared otherwise,
/// and dropped when a clear fails or another set is idle already.
pub(crate) struct Lease<'a, S: KvStore> {
    pub(crate) slot: &'a TempSlot<S>,
    pub(crate) temps: Option<Temps<S>>,
    pub(crate) drained: bool,
}

impl<S: KvStore> Drop for Lease<'_, S> {
    fn drop(&mut self) {
        let Some(temps) = self.temps.take() else {
            return;
        };
        if self.drained || temps.tables.iter().all(|table| table.clear().is_ok()) {
            let mut idle = self.slot.lock();
            if idle.is_none() {
                *idle = Some(temps);
            }
        }
    }
}

/// The inputs of a fast-recovery replay of one part through one step.
pub(crate) struct Replay {
    /// What the senders of the previous step spilled to the part, delivered
    /// in place of its transport slice.
    pub(crate) entries: Records,
    /// Replays a *past* step purely for its state effects: its sends,
    /// aggregator partials and direct outputs already happened in the
    /// original execution and are dropped so they cannot duplicate.
    pub(crate) suppress: bool,
}

/// The start and finish instants of one part task.
pub(crate) type Span = (Instant, Instant);
/// One part task's result and its span (absent when the dispatch failed).
pub(crate) type Timed<R> = (Result<R, EbspError>, Option<Span>);

/// The part-task context: everything that is constant for one run, shared
/// (behind an `Arc`) by every part task under every scheduler.  A value a
/// part task newly needs is one field here.
pub(crate) struct PartTask<T: Table, J: Job> {
    pub(crate) job: Arc<J>,
    pub(crate) plan: ExecutionPlan,
    pub(crate) table_names: Arc<Vec<String>>,
    pub(crate) broadcast_name: Option<String>,
    pub(crate) registry: AggregatorRegistry,
    pub(crate) direct: Option<Arc<dyn Exporter<J::OutKey, J::OutValue>>>,
    pub(crate) parts: u32,
    /// Absorbs transient store faults on every store call a task makes.
    pub(crate) retry: Arc<FaultRetry>,
    /// Audit instrumentation ([`RunOptions::audit`](crate::RunOptions::audit)).
    pub(crate) probe: Option<Arc<dyn AuditProbe>>,
    /// Replaces invocation ordering with a seeded permutation
    /// ([`RunOptions::shuffle_delivery`](crate::RunOptions::shuffle_delivery)).
    pub(crate) shuffle: Option<u64>,
    /// Permit gate bracketing every synchronized part task
    /// ([`JobRunner::task_gate`](crate::JobRunner::task_gate)).
    pub(crate) gate: Option<Arc<dyn TaskGate>>,
    /// Set by the synchronized engine; unsynchronized runs exchange
    /// messages through a queue set instead.
    pub(crate) temps: Option<TempTables<T>>,
    /// A part keeps the envelopes it sends to itself in its slot instead of
    /// spilling them: set for a launch whose barriers need not be in the
    /// store ([`Cut`](sync::Cut)).
    pub(crate) hand_off: bool,
    slots: Vec<Mutex<Slot<J>>>,
}

/// What one part keeps from step to step: its outbox (the survivor buckets,
/// their index and the scratch), its delivery (the enabled components and
/// their index) and its hand-off.  Each step of the part empties the first
/// two first — of a failed step's leftovers too — keeping the capacity;
/// the hand-off is emptied by the delivery that consumes it.
pub(crate) struct Slot<J: Job> {
    pub(crate) out: Outbox<J>,
    /// The enabled components the last delivery produced, in invocation
    /// order.
    pub(crate) inbox: Vec<Enabled<J>>,
    /// Each enabled key's position in `inbox`.
    index: KeyMap<J::Key, u32>,
    /// What the part's last step sent to the part itself, unencoded, when
    /// the run hands off ([`PartTask::hand_off`]); the next delivery folds
    /// it in where its spill would have sorted.
    local: Vec<Envelope<J>>,
}

impl<T: Table, J: Job> PartTask<T, J> {
    /// The context of a run over `env`: no temporaries, shuffle or gate.
    pub(crate) fn new<S: KvStore<Table = T>>(
        env: &JobEnv<S, J>,
        retry: Arc<FaultRetry>,
        probe: Option<Arc<dyn AuditProbe>>,
    ) -> Self {
        Self {
            job: Arc::clone(&env.job),
            plan: env.plan,
            table_names: Arc::clone(&env.table_names),
            broadcast_name: env.broadcast_name.clone(),
            registry: env.registry.clone(),
            direct: env.direct.clone(),
            parts: env.parts(),
            retry,
            probe,
            shuffle: None,
            gate: None,
            temps: None,
            hand_off: false,
            slots: (0..env.parts())
                .map(|_| {
                    let (out, index) = (Outbox::new(env.parts()), KeyMap::default());
                    Mutex::new(Slot {
                        out,
                        inbox: Vec::new(),
                        index,
                        local: Vec::new(),
                    })
                })
                .collect(),
        }
    }

    /// `part`'s slot, locked for one step and emptied.
    pub(crate) fn slot(&self, part: u32) -> MutexGuard<'_, Slot<J>> {
        let mut slot = self.slots[part as usize].lock();
        slot.out.clear();
        slot.inbox.clear();
        slot.index.clear();
        slot
    }

    pub(crate) fn temps(&self) -> &TempTables<T> {
        self.temps
            .as_ref()
            .expect("a synchronized run creates its temporaries before any part task")
    }

    /// Runs `op` under the run's retry policy, attributing retries to `part`.
    pub(crate) fn retried<R>(
        &self,
        part: u32,
        op: impl FnMut() -> Result<R, KvError>,
    ) -> Result<R, KvError> {
        kv_with_retry(&self.retry, part, op)
    }

    /// Drains this part's slice of `table`, every pair once however the
    /// attempts fail.  A retry after a failure mid-stream feeds pairs an
    /// earlier attempt already holds again, and a retry after the deletes
    /// landed but their acknowledgement was lost (a severed connection)
    /// finds them gone; so the pairs accumulate across attempts, each key
    /// kept once — a drained table's keys are unique.  A retry looks the
    /// fed keys up in a set of the held ones, so a retried drain of a large
    /// slice (the partials table's) stays linear; a first attempt holds
    /// nothing and builds no set.
    pub(crate) fn drain(&self, view: &dyn PartView, table: &str) -> Result<Records, KvError> {
        let mut acc = Records::new();
        self.retried(view.part().0, || {
            let held: HashSet<RoutedKey> = acc.iter().map(|(kept, _)| kept.clone()).collect();
            view.drain(table, &mut |key, value| {
                if !held.contains(&key) {
                    acc.push((key, value));
                }
                ScanControl::Continue
            })
        })?;
        Ok(acc)
    }

    /// Collocated state access through `view`.
    pub(crate) fn local_ops<'a>(&'a self, view: &'a dyn PartView) -> LocalStateOps<'a> {
        LocalStateOps {
            view,
            tables: &self.table_names,
            broadcast: self.broadcast_name.as_deref(),
            retry: &self.retry,
        }
    }

    /// An invocation core for one part task (or one worker round) running
    /// at `part` with state access through `ops`.
    pub(crate) fn invoker<'a>(
        &'a self,
        mode: ExecMode,
        part: PartId,
        ops: &'a dyn StateOps,
        prev_agg: &'a AggregateSnapshot,
        out: &'a mut Outbox<J>,
    ) -> Invoker<'a, J> {
        Invoker {
            job: &self.job,
            registry: &self.registry,
            no_continue: self.job.properties().no_continue,
            mode,
            part,
            ops,
            prev_agg,
            direct: self.direct.as_deref(),
            probe: self.probe.as_deref(),
            out,
        }
    }

    /// Folds one part task's output into the step's running total; the
    /// delivery span of the whole is the slowest part's.
    pub(crate) fn merge_output(&self, into: &mut PartOutput, part: PartOutput) {
        self.registry.merge(&mut into.agg, part.agg);
        into.counters.merge(&part.counters);
        into.enabled += part.enabled;
        into.live |= part.live;
        into.creates |= part.creates;
        into.spilled.extend(part.spilled);
        into.delivery = into.delivery.max(part.delivery);
    }

    /// Writes each destination's envelopes surviving in `out` (folded as
    /// they were sent, bucketed by destination part) as one spill batch into
    /// the transport of `step`, keyed `(step, src, seq)` and routed there —
    /// all through a single [`Table::put_batch`], so a batching store ships
    /// one coalesced frame per destination server instead of one RPC per
    /// destination part.  When the run hands off, the envelopes `src` sent
    /// to itself go to `local` instead, unencoded: only what crosses a
    /// partition boundary is marshalled.
    pub(crate) fn write_spills(
        &self,
        step: u32,
        src: u32,
        out: &mut Outbox<J>,
        local: Option<&mut Vec<Envelope<J>>>,
    ) -> Result<PartOutput, EbspError> {
        let mut output = PartOutput::default();
        let seq = out.metrics.spill_batches;
        let keep = local.filter(|_| self.hand_off).map(|local| (src, local));
        (output.live, output.creates) = out.spill(keep, |dst, blob| {
            let seq = seq + output.spilled.len() as u64;
            let key = RoutedKey::with_route(dst.into(), to_wire(&(step, src, seq)));
            output.spilled.push((key, blob));
        });
        out.metrics.spill_batches += output.spilled.len() as u64;
        if !output.spilled.is_empty() {
            // Keys are unique per (step, src, seq), so replaying the whole
            // batch after a transient failure is idempotent.
            let transport = self.temps().transport(step);
            self.retried(src, || transport.put_batch(output.spilled.clone()))?;
        }
        Ok(output)
    }

    /// Delivers to this part what `step - 1` spilled to it: drains the
    /// part's slice of that step's transport table (or takes the `replay`
    /// records of a fast recovery) and the `slot`'s hand-off, folds the
    /// envelopes into per-component message lists (combined pairwise on
    /// arrival where the job's combiner applies), applies the state
    /// creations, and leaves the enabled components in the `slot`'s inbox in
    /// invocation order — first arrival in `(step, src, seq)` order, the
    /// hand-off at `src = part`, or by key iff the plan says so.  Returns
    /// the counters of the folding.
    pub(crate) fn deliver(
        &self,
        view: &dyn PartView,
        step: u32,
        replay: Option<Records>,
        slot: &mut Slot<J>,
    ) -> Result<StepCounters, EbspError> {
        let part = view.part().0;
        let mut counters = StepCounters::default();
        // Fast recovery needs every spill in the store, so it runs without
        // hand-offs.
        debug_assert!(
            replay.is_none() || slot.local.is_empty(),
            "a replay has no hand-off"
        );
        // A replay never re-fires audit probes: that would double-count.
        let probe = self.probe.as_ref().filter(|_| replay.is_none());
        let records = match replay {
            Some(records) => records,
            None => self.drain(view, self.temps().transport(step - 1).name())?,
        };

        // Fold envelopes into per-component inboxes in arrival order, each
        // message into the latest survivor of its list.  "The platform may
        // combine some of them by one or more invocations (at arbitrary
        // times and places)"; adjacent pairs on arrival is one such choice.
        let Slot {
            out,
            inbox: enabled,
            index,
            local,
        } = slot;
        let mut creates: Vec<(u16, J::Key, J::State)> = Vec::new();
        let mut fold = |env: Envelope<J>| {
            let (key, msg) = match env {
                Envelope::Message { to, msg } => (to, Some(msg)),
                Envelope::Continue { key } => (key, None),
                Envelope::Create { tab, key, state } => return creates.push((tab, key, state)),
            };
            let Some(&at) = index.get(&key) else {
                let routed = out.routed(&key);
                index.insert(key.clone(), enabled.len() as u32);
                return enabled.push((key, routed, msg.into_iter().collect()));
            };
            let list = &mut enabled[at as usize].2;
            if let Some(msg) = msg {
                let kept = fold_message(&*self.job, &key, list.last_mut(), msg, &mut counters);
                list.extend(kept);
            }
        };
        // The hand-off is what this part spilled to itself, tagged
        // `(step - 1, part, _)`: it folds in where that tag sorts.
        let mut kept = (!local.is_empty()).then_some(local);
        for (tag, bytes) in sorted_spills(records)? {
            if (tag.0, tag.1) > (step - 1, part) {
                kept.take()
                    .into_iter()
                    .flat_map(|l| l.drain(..))
                    .for_each(&mut fold);
            }
            // Each envelope is folded as it is decoded: no vector of them.
            from_wire_each(&bytes, &mut fold)?;
        }
        kept.into_iter().flat_map(|l| l.drain(..)).for_each(fold);

        self.apply_creates(view, creates, out)?;

        // Audit the post-combine delivery counts — the `one-msg` contract is
        // about what arrives per (key, step) after combining, not about how
        // many raw sends targeted the key.
        if let Some(probe) = probe {
            for (_, routed, list) in enabled.iter() {
                probe.on_deliver(step, part, routed.body(), list.len() as u32);
            }
        }
        // Enforce one-msg when the plan dropped collection.
        if let Some((_, _, list)) = enabled.iter().find(|e| !self.plan.collect && e.2.len() > 1) {
            return Err(EbspError::PropertyViolation {
                property: "one-msg",
                detail: format!("{} messages arrived for one key in one step", list.len()),
            });
        }

        if let Some(seed) = self.shuffle {
            // Audit mode: a deterministic Fisher–Yates permutation keyed by
            // (seed, step, part) *replaces* the plan's ordering, so a job whose
            // output survives several seeds demonstrably does not depend on
            // invocation order.  Sort first: the permutation must be a pure
            // function of (seed, step, part) and of the delivered keys.
            enabled.sort_by(|a, b| a.0.cmp(&b.0));
            let mut state = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(u64::from(step) << 32)
                .wrapping_add(u64::from(part))
                | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for i in (1..enabled.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                enabled.swap(i, j);
            }
        } else if self.plan.sort {
            enabled.sort_by(|a, b| a.0.cmp(&b.0));
        }
        Ok(counters)
    }

    /// Applies the state creations delivered to this part, merging each with
    /// the resident state (and with other creations of the same key, in
    /// arrival order) through the job's `combine_states`.  Resident states are
    /// read one `get_batch` per window of distinct keys and the merged states
    /// written behind, so creations cost bulk transfers, not a get and a put
    /// each.
    pub(crate) fn apply_creates(
        &self,
        view: &dyn PartView,
        creates: Vec<(u16, J::Key, J::State)>,
        out: &Outbox<J>,
    ) -> Result<(), EbspError> {
        if creates.is_empty() {
            return Ok(());
        }
        let table_names = &self.table_names[..];
        let part = view.part().0;
        // Per table, the distinct keys in first-seen order, each with the
        // states created for it in arrival order.
        let mut seen: HashMap<(usize, RoutedKey), usize> = HashMap::new();
        let mut by_table: Vec<Vec<_>> = table_names.iter().map(|_| Vec::new()).collect();
        for (tab, key, state) in creates {
            let tab = tab as usize;
            let targets = by_table.get_mut(tab).ok_or(EbspError::StateTableIndex {
                index: tab,
                tables: table_names.len(),
            })?;
            let routed = out.routed(&key);
            let at = *seen.entry((tab, routed.clone())).or_insert_with(|| {
                targets.push((routed, key, Vec::new()));
                targets.len() - 1
            });
            targets[at].2.push(state);
        }
        let put_batch = |tab: usize, records: Records| {
            self.retried(part, || view.put_batch(&table_names[tab], records.clone()))
        };
        let mut writes = plane::WriteBehind::new(table_names.len());
        for (tab, mut targets) in by_table.into_iter().enumerate() {
            let mut rest = targets.as_mut_slice();
            let mut next = plane::READ_AHEAD_KEYS;
            while !rest.is_empty() {
                let (window, tail) = rest.split_at_mut(next.min(rest.len()));
                rest = tail;
                let keys: Vec<RoutedKey> = window.iter().map(|c| c.0.clone()).collect();
                let resident = self.retried(part, || view.get_batch(&table_names[tab], &keys))?;
                next = plane::next_window(&resident);
                for ((routed, key, states), resident) in window.iter_mut().zip(resident) {
                    let resident = resident.map(|bytes| from_wire(&bytes)).transpose()?;
                    let merged = (resident.into_iter().chain(states.drain(..)))
                        .reduce(|old, state| self.job.combine_states(key, old, state))
                        .expect("every key holds at least one creation");
                    if let Some(full) = writes.push(tab, routed.clone(), to_wire(&merged)) {
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

    /// One part's whole step, pinned: delivers what the previous step
    /// spilled to the part (or the `replay` records of a fast recovery),
    /// invokes the enabled components, flushes their state and spills what
    /// they sent.
    pub(crate) fn step(
        &self,
        view: &dyn PartView,
        step: u32,
        prev_agg: &AggregateSnapshot,
        replay: Option<Replay>,
    ) -> Result<PartOutput, EbspError> {
        let part = view.part();
        let begun = Instant::now();
        let replaying = replay.is_some();
        let suppress = replay.as_ref().is_some_and(|replay| replay.suppress);
        let mut slot = self.slot(part.0);
        let counters = self.deliver(view, step, replay.map(|r| r.entries), &mut slot)?;
        let delivery = begun.elapsed();

        let Slot {
            out,
            inbox: enabled,
            ..
        } = &mut *slot;
        let keys = enabled.iter().map(|entry| entry.1.clone()).collect();
        let ops = plane::StatePlane::new(self.local_ops(view), keys);
        let mut invoker = self.invoker(ExecMode::Synchronized, part, &ops, prev_agg, &mut *out);
        invoker.out.metrics = counters;
        if replaying {
            invoker.probe = None;
        }
        if suppress {
            invoker.direct = None;
        }
        let invoked = enabled.len() as u64;
        for (at, (key, routed, messages)) in enabled.drain(..).enumerate() {
            ops.begin(at);
            invoker.invoke(step, key, routed, messages)?;
        }
        // State before messages: once this step's spills are visible, the
        // states that produced them are too.
        ops.flush()?;
        if suppress {
            return Ok(PartOutput {
                counters: std::mem::take(&mut out.metrics),
                ..PartOutput::default()
            });
        }
        Ok(PartOutput {
            enabled: invoked,
            delivery,
            ..self.finish_compute(step, part.0, &mut slot)?
        })
    }

    /// Ends a task that invoked at `part`: spills the envelopes its
    /// invocations produced (handing off the part's own) and hands back its
    /// aggregator partials and counters.
    pub(crate) fn finish_compute(
        &self,
        step: u32,
        part: u32,
        slot: &mut Slot<J>,
    ) -> Result<PartOutput, EbspError> {
        let Slot { out, local, .. } = slot;
        let spilled = self.write_spills(step, part, out, Some(local))?;
        // Large-aggregator path (§IV-A): rather than returning partials to the
        // table client, write them into an auxiliary table keyed (and routed)
        // by aggregator name; a later enumeration round merges them.
        if let Some((partials, _)) = &self.temps().agg {
            let records: Records = std::mem::take(&mut out.agg)
                .into_iter()
                .map(|(name, value)| {
                    let route = key_to_routed(&name).route();
                    let body = to_wire(&(name, part));
                    (RoutedKey::with_route(route, body), to_wire(&value))
                })
                .collect();
            // Keys `(name, part)` are unique, so resending the whole batch
            // after a transient failure is idempotent.
            self.retried(part, || partials.put_batch(records.clone()))?;
        }
        Ok(PartOutput {
            agg: std::mem::take(&mut out.agg),
            counters: std::mem::take(&mut out.metrics),
            ..spilled
        })
    }

    /// The merge-and-redistribute round of the large-aggregator path: every
    /// part folds the partials whose aggregator names route to it, records the
    /// merged value in the second auxiliary table, and reports it back.
    pub(crate) fn merge_aggregates(
        &self,
        view: &dyn PartView,
    ) -> Result<Vec<(String, AggValue)>, EbspError> {
        let (partials, results) = self
            .temps()
            .agg
            .as_ref()
            .expect("only the large-aggregator path runs a merge round");
        let mut merged: HashMap<String, AggValue> = HashMap::new();
        for (key, value_bytes) in self.drain(view, partials.name())? {
            let (name, _src): (String, u32) = from_wire(key.body())?;
            let value: AggValue = from_wire(&value_bytes)?;
            self.registry.fold(&mut merged, &name, value)?;
        }
        for (name, value) in &merged {
            self.retried(view.part().0, || {
                view.put(results.name(), key_to_routed(name), to_wire(value))
                    .map(|_| ())
            })?;
        }
        Ok(merged.into_iter().collect())
    }
}

/// Dispatches `work` to every part of the run, each task bracketed by the
/// task gate, and joins — the barrier.  Returns each part's result, so the
/// caller can recover a single failed part without discarding the
/// survivors' work.
pub(crate) fn run_parts<S, J, R, F>(
    env: &JobEnv<S, J>,
    task: &Arc<PartTask<S::Table, J>>,
    work: F,
) -> Vec<Timed<R>>
where
    S: KvStore,
    J: Job,
    R: Send + 'static,
    F: Fn(&PartTask<S::Table, J>, &dyn PartView) -> Result<R, EbspError> + Clone + Send + 'static,
{
    let handles: Vec<_> = (0..task.parts)
        .map(|p| {
            let task = Arc::clone(task);
            let work = work.clone();
            env.store.run_at(&env.reference, PartId(p), move |view| {
                // Acquire before the timed span: per-part walls then measure
                // actual work, while scheduler queueing shows up in the
                // gate's own accounting (and as barrier skew).
                let _permit = task.gate.as_ref().map(GatePermit::acquire);
                let begun = Instant::now();
                let result = work(&task, view);
                (begun, Instant::now(), result)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|handle| match handle.join() {
            Ok((begun, finished, result)) => (result, Some((begun, finished))),
            Err(e) => (Err(EbspError::Kv(e)), None),
        })
        .collect()
}

/// The one invocation core.  A part task (or an unsynchronized worker
/// round) builds one through [`PartTask::invoker`], calls
/// [`Invoker::invoke`] per enabled component, and takes the accumulated
/// [`Outbox`] — envelopes, aggregator partials, counters — when done.
pub(crate) struct Invoker<'a, J: Job> {
    job: &'a J,
    registry: &'a AggregatorRegistry,
    no_continue: bool,
    mode: ExecMode,
    part: PartId,
    ops: &'a dyn StateOps,
    prev_agg: &'a AggregateSnapshot,
    direct: Option<&'a dyn Exporter<J::OutKey, J::OutValue>>,
    probe: Option<&'a dyn AuditProbe>,
    pub(crate) out: &'a mut Outbox<J>,
}

impl<J: Job> Invoker<'_, J> {
    /// Invokes the component `key` with `messages`.  A positive continue
    /// signal violates a declared `no-continue`; otherwise it re-enables
    /// the component for the next step — which only exists under barriers,
    /// so without them it is ignored (components re-run when messages
    /// arrive).
    pub(crate) fn invoke(
        &mut self,
        step: u32,
        key: J::Key,
        routed: RoutedKey,
        messages: Vec<J::Message>,
    ) -> Result<(), EbspError> {
        let part = self.part;
        self.out.metrics.invocations += 1;
        // Keep the encoded key on hand for the post-compute probe call;
        // `routed` itself moves into the context.
        let key_bytes = self.probe.map(|p| {
            p.on_invocation(step, part.0, routed.body());
            routed.clone()
        });
        let mut ctx = crate::ComputeContext {
            job: self.job,
            step,
            mode: self.mode,
            part,
            key: key.clone(),
            routed,
            messages,
            ops: self.ops,
            out: &mut *self.out,
            registry: self.registry,
            prev_agg: self.prev_agg,
            direct: self.direct,
            probe: self.probe,
        };
        let cont = self.job.compute(&mut ctx)?;
        if let (Some(p), Some(kb)) = (self.probe, &key_bytes) {
            // Before the no-continue enforcement below, so the audit
            // recorder holds the evidence when the engine aborts the run.
            p.on_continue(step, part.0, kb.body(), cont);
        }
        if cont {
            if self.no_continue {
                return Err(EbspError::PropertyViolation {
                    property: "no-continue",
                    detail: "compute returned the positive continue signal".to_owned(),
                });
            }
            if self.mode == ExecMode::Synchronized {
                self.out.push(Envelope::Continue { key });
            }
        }
        Ok(())
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
    pub(crate) retry: &'a FaultRetry,
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

/// Table-handle state access for *run-anywhere* execution: a stolen
/// invocation may run at any part, so state operations go through the
/// ordinary table handles and pay marshalling when non-local — cheap by
/// assumption (`rare-state`).  Like its pinned twin, every call is retried
/// through the run's [`FaultRetry`], attributed to the stealing `part`.
pub(crate) struct GlobalStateOps<'a, T> {
    pub(crate) tables: &'a [T],
    pub(crate) broadcast: Option<&'a T>,
    pub(crate) retry: &'a FaultRetry,
    pub(crate) part: u32,
}

impl<T: Table> StateOps for GlobalStateOps<'_, T> {
    fn get(&self, tab: usize, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        kv_with_retry(self.retry, self.part, || self.tables[tab].get(key))
    }
    fn put(&self, tab: usize, key: RoutedKey, value: Bytes) -> Result<(), KvError> {
        kv_with_retry(self.retry, self.part, || {
            self.tables[tab].put(key.clone(), value.clone())
        })?;
        Ok(())
    }
    fn delete(&self, tab: usize, key: &RoutedKey) -> Result<bool, KvError> {
        kv_with_retry(self.retry, self.part, || self.tables[tab].delete(key))
    }
    fn broadcast_get(&self, key: &RoutedKey) -> Result<Option<Option<Bytes>>, KvError> {
        match self.broadcast {
            None => Ok(None),
            Some(t) => Ok(Some(kv_with_retry(self.retry, self.part, || t.get(key))?)),
        }
    }
    fn table_count(&self) -> usize {
        self.tables.len()
    }
}

/// Decodes the `(step, src, seq)` tags of drained transport records and
/// orders the spills by them, so that replay after recovery sees identical
/// message orders.  A tag that does not decode fails the step: dropping
/// the spill would lose its messages silently.
pub(crate) fn sorted_spills(records: Records) -> Result<Vec<(SpillTag, Bytes)>, EbspError> {
    let mut batches = Vec::with_capacity(records.len());
    for (key, value) in records {
        batches.push((from_wire::<SpillTag>(key.body())?, value));
    }
    batches.sort_by_key(|(tag, _)| *tag);
    Ok(batches)
}

/// Runs the loaders of a job: initial states go straight to the state
/// tables, everything else comes back in an outbox — initial messages
/// folded like any others.
pub(crate) fn run_loaders<S: KvStore, J: Job>(
    env: &JobEnv<S, J>,
    loaders: Vec<Box<dyn Loader<J>>>,
    retry: &FaultRetry,
) -> Result<Outbox<J>, EbspError> {
    let mut sink = EngineLoadSink {
        job: &*env.job,
        tables: &env.tables,
        registry: &env.registry,
        buffer: Outbox::new(env.parts()),
        retry,
        writes: plane::WriteBehind::new(env.tables.len()),
    };
    for loader in loaders {
        loader.load(&mut sink)?;
    }
    for (tab, records) in sink.writes.take_all() {
        sink.put_batch(tab, records)?;
    }
    Ok(sink.buffer)
}

/// The engine-side [`LoadSink`]: initial states are written behind to the
/// state tables (one `put_batch` per full buffer, retried through the
/// run's policy, since against a networked store a load-time write can
/// fail transiently like any other operation); messages and enables
/// buffer as step-0 envelopes.
struct EngineLoadSink<'a, T: Table, J: Job> {
    job: &'a J,
    tables: &'a [T],
    registry: &'a AggregatorRegistry,
    buffer: Outbox<J>,
    retry: &'a FaultRetry,
    writes: plane::WriteBehind,
}

impl<T: Table, J: Job> EngineLoadSink<'_, T, J> {
    /// A batch spans parts, so retries are attributed to the controller
    /// pseudo-part like the loader's spills.
    fn put_batch(&self, tab: usize, records: Records) -> Result<(), EbspError> {
        kv_with_retry(self.retry, u32::MAX, || {
            self.tables[tab].put_batch(records.clone())
        })?;
        Ok(())
    }
}

impl<T: Table, J: Job> LoadSink<J> for EngineLoadSink<'_, T, J> {
    fn state(&mut self, tab: usize, key: J::Key, state: J::State) -> Result<(), EbspError> {
        if tab >= self.tables.len() {
            return Err(EbspError::StateTableIndex {
                index: tab,
                tables: self.tables.len(),
            });
        }
        let routed = self.buffer.routed(&key);
        match self.writes.push(tab, routed, to_wire(&state)) {
            Some(full) => self.put_batch(tab, full),
            None => Ok(()),
        }
    }

    fn message(&mut self, to: J::Key, msg: J::Message) -> Result<(), EbspError> {
        self.buffer.message(self.job, to, msg);
        Ok(())
    }

    fn enable(&mut self, key: J::Key) -> Result<(), EbspError> {
        self.buffer.push(Envelope::Continue { key });
        Ok(())
    }

    fn aggregate(&mut self, name: &str, value: AggValue) -> Result<(), EbspError> {
        self.registry.fold(&mut self.buffer.agg, name, value)
    }
}
