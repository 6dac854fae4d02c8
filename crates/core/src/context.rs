use std::cell::RefCell;
use std::collections::HashMap;

use bytes::Bytes;
use ripple_kv::{fnv64, KvError, PartId, RoutedKey};
use ripple_wire::{from_wire, to_wire, to_wire_via, ByteWriter, Decode, Encode};

use crate::encode_via;
use crate::hash::KeyMap;
use crate::metrics::StepCounters;
use crate::{AggValue, AggregateSnapshot, AggregatorRegistry, EbspError, Envelope, Exporter, Job};

/// Object-safe access to the job's state tables (and broadcast table) for
/// one compute invocation.  The engine provides a collocated implementation
/// for pinned execution and a table-handle implementation for
/// *run-anywhere* execution.
pub(crate) trait StateOps {
    /// Reads from state table `tab`.
    fn get(&self, tab: usize, key: &RoutedKey) -> Result<Option<Bytes>, KvError>;
    /// Writes to state table `tab`.
    fn put(&self, tab: usize, key: RoutedKey, value: Bytes) -> Result<(), KvError>;
    /// Deletes from state table `tab`.
    fn delete(&self, tab: usize, key: &RoutedKey) -> Result<bool, KvError>;
    /// Reads from the broadcast table, if the job declared one.
    fn broadcast_get(&self, key: &RoutedKey) -> Result<Option<Option<Bytes>>, KvError>;
    /// Number of state tables.
    fn table_count(&self) -> usize;
}

/// Everything a batch of compute invocations produces, gathered per part
/// (or per worker) and merged by the engine.
///
/// The outbox is where messages are combined: a message folds into the
/// latest surviving message for its destination *as it is sent*, so the
/// outbox holds one envelope per distinct destination (plus one per
/// message the combiner declined) — O(distinct destinations), not
/// O(sends).  Survivors are bucketed by destination part as they are sent;
/// a part's outbox serves every step of a run.  At the end of a step every
/// bucket is encoded and spilled, except, where the launch allows it, the
/// one addressed to the sending part itself (see [`Outbox::spill`]).
pub(crate) struct Outbox<J: Job> {
    /// Surviving envelopes in send order, one bucket per destination part.
    buckets: Vec<Vec<Envelope<J>>>,
    /// Per message destination: its part (computed once, when the key is
    /// first seen) and where in that bucket its latest survivor sits.
    latest: KeyMap<J::Key, (u32, u32)>,
    /// Where keys are encoded to be routed and spills to be written.
    scratch: RefCell<ByteWriter>,
    /// Partial aggregation, folded as invocations aggregate values.
    pub(crate) agg: HashMap<String, AggValue>,
    /// Per-part metric counters.
    pub(crate) metrics: StepCounters,
}

impl<J: Job> Outbox<J> {
    /// An empty outbox of a run over `parts` parts.
    pub(crate) fn new(parts: u32) -> Self {
        Self {
            buckets: (0..parts).map(|_| Vec::new()).collect(),
            latest: KeyMap::default(),
            scratch: RefCell::default(),
            agg: HashMap::new(),
            metrics: StepCounters::default(),
        }
    }

    /// [`key_to_routed`](crate::key_to_routed) through the scratch: no
    /// allocation for a key of at most 16 encoded bytes.
    pub(crate) fn routed<K: Encode + ?Sized>(&self, key: &K) -> RoutedKey {
        RoutedKey::from_slice(encode_via(&mut self.scratch.borrow_mut(), key))
    }

    /// The part [`Outbox::routed`] would place `key` in, with no key built.
    fn dst(&mut self, key: &J::Key) -> u32 {
        let parts = self.buckets.len() as u64;
        (fnv64(encode_via(self.scratch.get_mut(), key)) % parts) as u32
    }

    /// Sends `msg` to `to`: folds it into the latest surviving message for
    /// `to` — send order is fold order — and appends it only when there is
    /// none yet or the job's combiner declines.
    pub(crate) fn message(&mut self, job: &J, to: J::Key, msg: J::Message) {
        let (dst, msg) = match self.latest.get_mut(&to) {
            Some((dst, latest)) => {
                let bucket = &mut self.buckets[*dst as usize];
                let Envelope::Message { msg: into, .. } = &mut bucket[*latest as usize] else {
                    unreachable!("`latest` only indexes Message envelopes");
                };
                let Some(msg) = fold_message(job, &to, Some(into), msg, &mut self.metrics) else {
                    return;
                };
                *latest = bucket.len() as u32;
                (*dst, msg)
            }
            None => {
                let dst = self.dst(&to);
                let at = self.buckets[dst as usize].len() as u32;
                self.latest.insert(to.clone(), (dst, at));
                (dst, msg)
            }
        };
        self.buckets[dst as usize].push(Envelope::Message { to, msg });
    }

    /// Appends a continue signal or a state creation; neither combines.
    pub(crate) fn push(&mut self, envelope: Envelope<J>) {
        let dst = self.dst(envelope.key());
        self.buckets[dst as usize].push(envelope);
    }

    /// Hands over the surviving envelopes, in send order per destination,
    /// and forgets them: what is sent next starts new survivors.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (u32, Envelope<J>)> + '_ {
        self.latest.clear();
        (self.buckets.iter_mut().zip(0..))
            .flat_map(|(bucket, dst)| bucket.drain(..).map(move |envelope| (dst, envelope)))
    }

    /// Encodes each non-empty bucket as one spill blob for `spill` and
    /// forgets the survivors — except the bucket `keep` names, the sending
    /// part's own: it crosses no partition boundary, so it is swapped,
    /// unencoded, with `keep`'s (empty) vector.  Returns whether a message
    /// or continue signal went out (`live`) and whether a state creation
    /// did, the kept bucket included.
    pub(crate) fn spill(
        &mut self,
        mut keep: Option<(u32, &mut Vec<Envelope<J>>)>,
        mut spill: impl FnMut(u32, Bytes),
    ) -> (bool, bool) {
        self.latest.clear();
        let (mut live, mut creates) = (false, false);
        let scratch = self.scratch.get_mut();
        let buckets = self.buckets.iter_mut().zip(0..);
        for (bucket, dst) in buckets.filter(|(bucket, _)| !bucket.is_empty()) {
            let create = |envelope: &Envelope<J>| matches!(envelope, Envelope::Create { .. });
            live |= !bucket.iter().all(create);
            creates |= bucket.iter().any(create);
            match &mut keep {
                Some((own, local)) if *own == dst => {
                    debug_assert!(local.is_empty(), "the last hand-off was delivered");
                    std::mem::swap(bucket, *local);
                }
                // The survivors go with their encoding; the bucket keeps its
                // capacity, as the index and the scratch do.
                _ => {
                    spill(dst, to_wire_via(scratch, bucket.as_slice()));
                    bucket.clear();
                }
            }
        }
        (live, creates)
    }

    /// Forgets every survivor, partial and count; keeps the buffers.
    pub(crate) fn clear(&mut self) {
        self.latest.clear();
        self.buckets.iter_mut().for_each(Vec::clear);
        self.agg.clear();
        self.metrics = StepCounters::default();
    }
}

/// The one call of the job's pairwise combiner, shared by send-time
/// (outbox) and arrival-time (delivery) folding: folds `msg` into
/// `latest`, the most recent surviving message for `key`.  Returns the
/// message back when it must be appended instead — there is no survivor
/// yet, or the combiner declined.
pub(crate) fn fold_message<J: Job>(
    job: &J,
    key: &J::Key,
    latest: Option<&mut J::Message>,
    msg: J::Message,
    counters: &mut StepCounters,
) -> Option<J::Message> {
    let Some(into) = latest else {
        return Some(msg);
    };
    let declined = job.combine_messages(key, into, msg);
    if declined.is_none() {
        counters.messages_combined += 1;
    }
    declined
}

/// The context handed to [`Job::compute`]: the paper's `ComputeContext`
/// (Listing 3) in idiomatic Rust.
///
/// Through it an invocation reads/writes/deletes its own local state,
/// requests creation of other components' state, consumes the messages
/// sent to it in the previous step, sends messages to arbitrary components
/// (delivered next step), feeds and reads aggregators, reads broadcast
/// data, and emits direct job output.
pub struct ComputeContext<'a, J: Job> {
    pub(crate) job: &'a J,
    pub(crate) step: u32,
    pub(crate) mode: crate::ExecMode,
    pub(crate) part: PartId,
    pub(crate) key: J::Key,
    pub(crate) routed: RoutedKey,
    pub(crate) messages: Vec<J::Message>,
    pub(crate) ops: &'a dyn StateOps,
    pub(crate) out: &'a mut Outbox<J>,
    pub(crate) registry: &'a AggregatorRegistry,
    pub(crate) prev_agg: &'a AggregateSnapshot,
    pub(crate) direct: Option<&'a dyn Exporter<J::OutKey, J::OutValue>>,
    /// Audit instrumentation; `None` (the default path) costs one branch
    /// per hook site.
    pub(crate) probe: Option<&'a dyn crate::AuditProbe>,
}

impl<'a, J: Job> ComputeContext<'a, J> {
    /// The current step number (1-based).  In unsynchronized execution this
    /// is the component's invocation index instead, since steps do not
    /// exist there.
    pub fn step(&self) -> u32 {
        self.step
    }

    /// Which engine is running the job: synchronized jobs may pace
    /// per-step work against the barrier, unsynchronized jobs should do
    /// all the work each delivery allows.
    pub fn mode(&self) -> crate::ExecMode {
        self.mode
    }

    /// The key identifying this component.
    pub fn key(&self) -> &J::Key {
        &self.key
    }

    /// The part this invocation runs at.
    pub fn part(&self) -> PartId {
        self.part
    }

    /// The messages sent to this component in the previous step.
    pub fn messages(&self) -> &[J::Message] {
        &self.messages
    }

    /// Takes ownership of the input messages (they are consumed either
    /// way at the end of the invocation).
    pub fn take_messages(&mut self) -> Vec<J::Message> {
        std::mem::take(&mut self.messages)
    }

    fn check_tab(&self, tab: usize) -> Result<(), EbspError> {
        let tables = self.ops.table_count();
        if tab >= tables {
            return Err(EbspError::StateTableIndex { index: tab, tables });
        }
        Ok(())
    }

    /// Reads this component's state from state table `tab`.
    ///
    /// # Errors
    ///
    /// Fails with [`EbspError::StateTableIndex`] for a bad index, or a
    /// store/codec error.
    pub fn read_state(&mut self, tab: usize) -> Result<Option<J::State>, EbspError> {
        self.check_tab(tab)?;
        self.out.metrics.state_reads += 1;
        if let Some(probe) = self.probe {
            probe.on_state_access(self.step, self.part.0, crate::StateOp::Read, tab);
        }
        match self.ops.get(tab, &self.routed)? {
            None => Ok(None),
            Some(bytes) => Ok(Some(from_wire(&bytes)?)),
        }
    }

    /// Writes this component's state into state table `tab`.
    ///
    /// # Errors
    ///
    /// As for [`ComputeContext::read_state`].
    pub fn write_state(&mut self, tab: usize, state: &J::State) -> Result<(), EbspError> {
        self.check_tab(tab)?;
        self.out.metrics.state_writes += 1;
        if let Some(probe) = self.probe {
            probe.on_state_access(self.step, self.part.0, crate::StateOp::Write, tab);
        }
        self.ops.put(tab, self.routed.clone(), to_wire(state))?;
        Ok(())
    }

    /// Deletes this component's state from state table `tab`, returning
    /// whether an entry existed.
    ///
    /// # Errors
    ///
    /// As for [`ComputeContext::read_state`].
    pub fn delete_state(&mut self, tab: usize) -> Result<bool, EbspError> {
        self.check_tab(tab)?;
        self.out.metrics.state_deletes += 1;
        if let Some(probe) = self.probe {
            probe.on_state_access(self.step, self.part.0, crate::StateOp::Delete, tab);
        }
        Ok(self.ops.delete(tab, &self.routed)?)
    }

    /// Requests creation of a *new component's* state: an entry for `key`
    /// in state table `tab`, applied at the next barrier; collisions are
    /// merged with [`Job::combine_states`].
    ///
    /// # Errors
    ///
    /// Fails with [`EbspError::StateTableIndex`] for a bad index.
    pub fn create_state(
        &mut self,
        tab: usize,
        key: J::Key,
        state: J::State,
    ) -> Result<(), EbspError> {
        self.check_tab(tab)?;
        self.out.metrics.creates += 1;
        self.out.push(Envelope::Create {
            tab: tab as u16,
            key,
            state,
        });
        Ok(())
    }

    /// Sends `msg` to component `to`; it will be delivered in the following
    /// step (and enable `to` for that step).  If this part task already
    /// holds a message for `to`, `msg` is folded into it here and now with
    /// [`Job::combine_messages`] — unless the combiner declines.
    pub fn send(&mut self, to: J::Key, msg: J::Message) {
        self.out.metrics.messages_sent += 1;
        if let Some(probe) = self.probe {
            // Wire-encode destination and payload only on the audit path.
            probe.on_send(
                self.step,
                self.part.0,
                self.routed.body(),
                &to_wire(&to),
                &to_wire(&msg),
            );
        }
        self.out.message(self.job, to, msg);
    }

    /// Feeds `value` into the aggregator named `name`; the merged result is
    /// readable next step via [`ComputeContext::aggregate_prev`].
    ///
    /// # Errors
    ///
    /// Fails with [`EbspError::NoSuchAggregator`] for undeclared names.
    pub fn aggregate(&mut self, name: &str, value: AggValue) -> Result<(), EbspError> {
        self.registry.fold(&mut self.out.agg, name, value)
    }

    /// The result of aggregator `name` from the previous step.
    pub fn aggregate_prev(&self, name: &str) -> Option<AggValue> {
        self.prev_agg.get(name)
    }

    /// Reads a broadcast datum by key from the job's ubiquitous broadcast
    /// table.
    ///
    /// # Errors
    ///
    /// Fails with [`EbspError::InvalidJob`] if the job declared no
    /// broadcast table, or a store/codec error.
    pub fn broadcast<Q: Encode, T: Decode>(&self, key: &Q) -> Result<Option<T>, EbspError> {
        match self.ops.broadcast_get(&self.out.routed(key))? {
            None => Err(EbspError::InvalidJob {
                reason: "job declared no broadcast table".to_owned(),
            }),
            Some(None) => Ok(None),
            Some(Some(bytes)) => Ok(Some(from_wire(&bytes)?)),
        }
    }

    /// Emits one pair of direct job output.
    ///
    /// # Errors
    ///
    /// Fails with [`EbspError::InvalidJob`] if the job configured no direct
    /// output exporter.
    pub fn output(&mut self, key: J::OutKey, value: J::OutValue) -> Result<(), EbspError> {
        match self.direct {
            Some(exporter) => {
                self.out.metrics.direct_outputs += 1;
                exporter.export(self.part, &key, &value);
                Ok(())
            }
            None => Err(EbspError::InvalidJob {
                reason: "job configured no direct output exporter".to_owned(),
            }),
        }
    }

    /// Convenience: read-modify-write state in one call (the paper's
    /// `readWriteState` access pattern).
    ///
    /// # Errors
    ///
    /// As for [`ComputeContext::read_state`] / [`ComputeContext::write_state`].
    pub fn modify_state<F>(&mut self, tab: usize, f: F) -> Result<(), EbspError>
    where
        F: FnOnce(Option<J::State>) -> Option<J::State>,
    {
        let current = self.read_state(tab)?;
        match f(current) {
            Some(new) => self.write_state(tab, &new),
            None => {
                self.delete_state(tab)?;
                Ok(())
            }
        }
    }
}
