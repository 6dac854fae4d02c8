//! A `needs-order` job invokes each part's components in ascending key
//! order in every step, whichever way the engine indexes its keys: dense
//! `u32` keys are indexed directly and ordered by a walk of that index,
//! sparse ones (from the top of the range) are hashed and sorted, and a
//! key type with the same encoding that is not a `u32` is always hashed.
//! The two key types must leave the same invocation order and the same
//! tables, on store-mem and store-disk.

use std::fmt::Debug;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use ripple::prelude::*;
use ripple::store_disk::{testutil::TempDir, DiskStore};
use ripple::wire::{ByteReader, ByteWriter, Decode, Encode, Wire, WireError};

const PARTS: u32 = 3;
const DENSE: u32 = 300;
const SPARSE: u32 = 8;
const STEPS: u32 = 7;
const TABLE: &str = "ordered";

/// A key of the job: `u32` itself and [`Twin`].
trait Vertex: Wire + Eq + Hash + Ord + Copy + Debug + Sync + From<u32> + Into<u32> {}
impl<K: Wire + Eq + Hash + Ord + Copy + Debug + Sync + From<u32> + Into<u32>> Vertex for K {}

/// A key that is not a `u32` but encodes as one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Twin(u32);

impl From<u32> for Twin {
    fn from(key: u32) -> Self {
        Twin(key)
    }
}

impl From<Twin> for u32 {
    fn from(key: Twin) -> Self {
        key.0
    }
}

impl Encode for Twin {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
    }
}

impl Decode for Twin {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        u32::decode(r).map(Twin)
    }
}

/// One invocation: step, part, key.
type Call = (u32, u32, u32);

/// Every vertex folds what it hears into a digest (in arrival order, so a
/// change of order changes the table) and sends to three dense vertices;
/// in even steps the dense vertices also send to the sparse ones, so every
/// other delivery holds sparse keys and every other holds dense keys only.
struct Ordered<K> {
    calls: Arc<Mutex<Vec<Call>>>,
    key: PhantomData<K>,
}

fn sparse(k: u32) -> u32 {
    u32::MAX - k
}

impl<K: Vertex> Job for Ordered<K> {
    type Key = K;
    type State = u64;
    type Message = u64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec![TABLE.to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            needs_order: true,
            deterministic: true,
            no_continue: true,
            ..JobProperties::default()
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let (step, me): (u32, u32) = (ctx.step(), (*ctx.key()).into());
        self.calls.lock().unwrap().push((step, ctx.part().0, me));
        let heard = ctx.messages().iter().fold(0u64, |digest, msg| {
            digest.wrapping_mul(31).wrapping_add(*msg)
        });
        let digest = ctx.read_state(0)?.unwrap_or(0);
        ctx.write_state(0, &digest.wrapping_mul(1_000_003).wrapping_add(heard))?;
        if step >= STEPS {
            return Ok(false);
        }
        let mix = u64::from(me) ^ u64::from(step) << 40;
        for j in 0..3u64 {
            let draw = (mix + j).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let to = (draw >> 33) as u32 % DENSE;
            ctx.send(to.into(), draw);
        }
        if step % 2 == 0 && me < DENSE {
            ctx.send(sparse(me % SPARSE).into(), mix);
        }
        Ok(false)
    }
}

/// Runs the job keyed by `K` on `store`: every invocation and the final
/// table, sorted.
fn run<K: Vertex, S: KvStore>(store: &S) -> (Vec<Call>, Vec<(u32, u64)>) {
    let calls = Arc::new(Mutex::new(Vec::new()));
    let job = Ordered::<K> {
        calls: Arc::clone(&calls),
        key: PhantomData,
    };
    let loader = FnLoader::new(|sink: &mut dyn LoadSink<Ordered<K>>| {
        (0..DENSE).try_for_each(|k| sink.message(k.into(), u64::from(k)))
    });
    let outcome = JobRunner::new(store.clone())
        .launch(Arc::new(job), RunOptions::new().loader(Box::new(loader)))
        .unwrap();
    assert_eq!(outcome.steps, STEPS);
    let table = store.lookup_table(TABLE).unwrap();
    let exporter = Arc::new(CollectingExporter::<K, u64>::new());
    export_state_table(store, &table, Arc::clone(&exporter)).unwrap();
    let mut state: Vec<(u32, u64)> = (exporter.take().into_iter())
        .map(|(k, s)| (k.into(), s))
        .collect();
    state.sort_unstable();
    let calls = std::mem::take(&mut *calls.lock().unwrap());
    (calls, state)
}

/// Every part's invocations of every step, in the order they ran.
fn per_part(calls: &[Call]) -> Vec<((u32, u32), Vec<u32>)> {
    let mut runs: Vec<((u32, u32), Vec<u32>)> = Vec::new();
    for &(step, part, key) in calls {
        match runs.iter_mut().find(|(at, _)| *at == (step, part)) {
            Some((_, keys)) => keys.push(key),
            None => runs.push(((step, part), vec![key])),
        }
    }
    runs.sort_by_key(|(at, _)| *at);
    runs
}

fn invocations_ascend_and_key_types_agree<S: KvStore>(mut store: impl FnMut() -> S) {
    let (calls, state) = run::<u32, _>(&store());
    let runs = per_part(&calls);
    for ((step, part), keys) in &runs {
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "step {step}, part {part}: invoked out of key order: {keys:?}"
        );
    }
    // Sparse keys arrive in odd steps only (sent in even ones), so both
    // kinds of delivery were ordered.
    let has_sparse = |keys: &Vec<u32>| keys.iter().any(|&k| k >= DENSE);
    assert!(runs.iter().any(|(_, keys)| has_sparse(keys)));
    assert!(runs
        .iter()
        .any(|((step, _), keys)| *step > 2 && !has_sparse(keys)));
    assert_eq!(state.len() as u32, DENSE + SPARSE);

    let (twin_calls, twin_state) = run::<Twin, _>(&store());
    assert_eq!(per_part(&twin_calls), runs);
    assert_eq!(twin_state, state);
}

#[test]
fn ordered_delivery_on_mem() {
    invocations_ascend_and_key_types_agree(|| MemStore::builder().default_parts(PARTS).build());
}

#[test]
fn ordered_delivery_on_disk() {
    let mut dirs = Vec::new();
    invocations_ascend_and_key_types_agree(|| {
        let dir = TempDir::new("ordered-delivery");
        let store = DiskStore::builder()
            .default_parts(PARTS)
            .open(dir.path())
            .unwrap();
        dirs.push(dir);
        store
    });
}
