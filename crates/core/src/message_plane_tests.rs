//! Specifications of the engine-internal message plane, as tests: the
//! folding outbox against the log-then-fold model it replaced, its routing
//! against the store's, and the transport-tag decode step of a delivery.

use std::hash::Hash;
use std::marker::PhantomData;

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use ripple_kv::RoutedKey;
use ripple_wire::{to_wire, ByteReader, ByteWriter, Decode, Encode, Wire, WireError};

use crate::context::Outbox;
use crate::engine::sorted_spills;
use crate::{ComputeContext, EbspError, Envelope, Job};

/// The part the store places `key` in: what every envelope addressed to
/// `key` must be spilled to.
fn store_part<K: Encode>(key: &K, parts: u32) -> u32 {
    RoutedKey::from_body(to_wire(key)).part_for(parts).0
}

/// A key the outbox's index can hold: `u32` itself (indexed directly
/// while dense) and [`Twin`] (always hashed).
trait DigestKey:
    Wire + Eq + Hash + Ord + Sync + Copy + std::fmt::Debug + From<u32> + Into<u32>
{
}
impl<K: Wire + Eq + Hash + Ord + Sync + Copy + std::fmt::Debug + From<u32> + Into<u32>> DigestKey
    for K
{
}

/// A non-integer key with `u32`'s wire encoding: the same ops keyed by it
/// must leave byte-identical survivors, routed to the same parts.
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

/// A job whose combiner is a *non-commutative* digest — any fold applied
/// out of send order changes the value — and which declines a seeded
/// subset of `(key, resident, message)` triples.  (`Clone` only because
/// `Envelope`'s derived `Clone` asks it of its job parameter.)
#[derive(Clone)]
struct Digest<K> {
    decline_seed: u64,
    key: PhantomData<K>,
}

impl<K: DigestKey> Job for Digest<K> {
    type Key = K;
    type State = u64;
    type Message = u64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["digest".to_owned()]
    }

    fn compute(&self, _ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        Ok(false)
    }

    fn combine_messages(&self, key: &K, into: &mut u64, msg: u64) -> Option<u64> {
        let key: u32 = (*key).into();
        let draw = (self.decline_seed ^ u64::from(key) ^ *into ^ msg.rotate_left(17))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        if draw >> 62 == 0 {
            return Some(msg);
        }
        *into = into.wrapping_mul(31).wrapping_add(msg);
        None
    }
}

/// One thing a part task does to its outbox.
#[derive(Debug, Clone)]
enum Op {
    Send(u32, u64),
    Continue(u32),
    Create(u32, u64),
    /// The unsynchronized engine forwards after every invocation.
    Drain,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Dense keys, which the index takes directly once a drain has seen
    // them, mixed with sparse ones from the top of the range, which it
    // must keep hashed — three to one.
    let key = || {
        prop_oneof![
            0u32..6,
            0u32..6,
            0u32..6,
            (0u32..3).prop_map(|k| u32::MAX - k)
        ]
    };
    vec(
        // Uniform over its arms, so three of the six make half the ops sends.
        prop_oneof![
            (key(), any::<u64>()).prop_map(|(k, m)| Op::Send(k, m)),
            (key(), any::<u64>()).prop_map(|(k, m)| Op::Send(k, m)),
            (key(), any::<u64>()).prop_map(|(k, m)| Op::Send(k, m)),
            key().prop_map(Op::Continue),
            (key(), any::<u64>()).prop_map(|(k, s)| Op::Create(k, s)),
            Just(Op::Drain),
        ],
        0..120,
    )
}

/// The specification — the deleted `precombine_envelopes`: log every
/// envelope, then walk the log folding each message into the latest
/// surviving message for its key; a declined message becomes the latest
/// survivor, continues and creations pass through.  Returns the survivors
/// in send order and how many messages folded away.
fn log_then_fold<K: DigestKey>(
    job: &Digest<K>,
    log: Vec<Envelope<Digest<K>>>,
) -> (Vec<Envelope<Digest<K>>>, u64) {
    let mut survivors: Vec<Envelope<Digest<K>>> = Vec::new();
    let mut latest: std::collections::BTreeMap<K, usize> = std::collections::BTreeMap::new();
    let mut combined = 0;
    for envelope in log {
        if let Envelope::Message { to, msg } = envelope {
            if let Some(&at) = latest.get(&to) {
                let Envelope::Message { msg: into, .. } = &mut survivors[at] else {
                    unreachable!("`latest` only indexes messages");
                };
                if job.combine_messages(&to, into, msg).is_none() {
                    combined += 1;
                    continue;
                }
            }
            latest.insert(to, survivors.len());
            survivors.push(Envelope::Message { to, msg });
        } else {
            survivors.push(envelope);
        }
    }
    (survivors, combined)
}

/// Runs `ops` through one outbox keyed by `K`, holding every drain to
/// [`log_then_fold`]; returns what every drain handed over, encoded.
fn folding_outbox<K: DigestKey>(
    ops: &[Op],
    decline_seed: u64,
    parts: u32,
) -> Result<Vec<(u32, Bytes)>, TestCaseError> {
    let job = Digest {
        decline_seed,
        key: PhantomData,
    };
    let mut out = Outbox::<Digest<K>>::new(parts);
    let mut log = Vec::new();
    let mut drained = Vec::new();
    let mut expected_combined = 0;
    for op in ops.iter().cloned().chain([Op::Drain]) {
        let envelope = match op {
            Op::Send(to, msg) => Envelope::Message { to: to.into(), msg },
            Op::Continue(key) => Envelope::Continue { key: key.into() },
            Op::Create(key, state) => Envelope::Create {
                tab: 0,
                key: key.into(),
                state,
            },
            Op::Drain => {
                let (survivors, combined) = log_then_fold(&job, std::mem::take(&mut log));
                expected_combined += combined;
                // Per destination part, in send order.
                let mut expected: Vec<(u32, Bytes)> = survivors
                    .iter()
                    .map(|e| (store_part(e.key(), parts), to_wire(e)))
                    .collect();
                expected.sort_by_key(|(dst, _)| *dst);
                // Destination, order and encoded value of every survivor.
                let got: Vec<(u32, Bytes)> =
                    out.drain().map(|(dst, e)| (dst, to_wire(&e))).collect();
                prop_assert_eq!(&got, &expected);
                prop_assert_eq!(out.metrics.messages_combined, expected_combined);
                drained.extend(got);
                continue;
            }
        };
        log.push(envelope.clone());
        match envelope {
            Envelope::Message { to, msg } => out.message(&job, to, msg),
            other => out.push(other),
        }
    }
    Ok(drained)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn folding_outbox_equals_log_then_fold(ops in ops(), decline_seed: u64, parts in 1u32..5) {
        let direct = folding_outbox::<u32>(&ops, decline_seed, parts)?;
        let hashed = folding_outbox::<Twin>(&ops, decline_seed, parts)?;
        prop_assert_eq!(direct, hashed);
    }
}

/// A job whose keys are `K`: enough to route envelopes.
struct Keyed<K>(PhantomData<K>);

impl<K: Wire + Eq + Hash + Ord + Sync> Job for Keyed<K> {
    type Key = K;
    type State = u8;
    type Message = u8;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        Vec::new()
    }

    fn compute(&self, _ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        Ok(false)
    }
}

/// The parts the outbox spills a message for `key` to in three passes,
/// each drained before the next — the second and third after the index
/// may have taken the key directly and kept its part — and the store key
/// [`Outbox::routed`] builds for it.
fn outbox_routes<K: Wire + Eq + Hash + Ord + Sync>(key: K, parts: u32) -> ([u32; 3], RoutedKey) {
    let mut out = Outbox::<Keyed<K>>::new(parts);
    let routed = out.routed(&key);
    let dsts = [(); 3].map(|()| {
        out.message(&Keyed(PhantomData), key.clone(), 0);
        let (dst, _) = out.drain().next().expect("one survivor");
        dst
    });
    (dsts, routed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Keys of every shape, encodings on both sides of `RoutedKey`'s
    /// inline limit: the outbox hashes a key's encoding in its scratch and
    /// must land every key on the part the store would, on every pass, and
    /// build the store's key.
    #[test]
    fn the_outbox_routes_every_key_as_the_store_does(
        dense in 0u32..2048,
        small: u32,
        wide: u64,
        text: String,
        pair: (u32, u32),
        blob in vec(any::<u8>(), 0..40),
        parts in 1u32..65,
    ) {
        fn check<K: Wire + Eq + Hash + Ord + Sync>(key: K, parts: u32) -> Result<(), TestCaseError> {
            let expected = RoutedKey::from_body(to_wire(&key));
            let want = store_part(&key, parts);
            let (dsts, routed) = outbox_routes(key, parts);
            prop_assert_eq!(dsts, [want; 3]);
            prop_assert_eq!(routed, expected);
            Ok(())
        }
        check(dense, parts)?;
        check(small, parts)?;
        check(wide, parts)?;
        check(text, parts)?;
        check(pair, parts)?;
        check(blob, parts)?;
    }
}

#[test]
fn a_spill_whose_tag_does_not_decode_fails_the_delivery() {
    let tagged = |tag: (u32, u32, u64)| RoutedKey::with_route(0, to_wire(&tag));
    let good = vec![
        (tagged((2, 1, 0)), Bytes::from_static(b"late")),
        (tagged((1, 3, 1)), Bytes::from_static(b"early")),
    ];
    let order: Vec<_> = sorted_spills(good.clone())
        .expect("well-formed tags decode")
        .into_iter()
        .map(|(tag, _)| tag)
        .collect();
    assert_eq!(order, vec![(1, 3, 1), (2, 1, 0)]);

    // A truncated tag among good ones: the step must fail, not quietly
    // deliver the rest.
    let mut planted = good;
    planted.push((
        RoutedKey::with_route(0, Bytes::from_static(&[0x80])),
        Bytes::from_static(b"lost"),
    ));
    assert!(matches!(
        sorted_spills(planted),
        Err(EbspError::Wire(WireError::UnexpectedEof { .. }))
    ));
}

/// The transport tag's bytes are pinned: spills written by one build are
/// drained by the next (a durable store restarts mid-job).
#[test]
fn the_transport_tag_format_is_fixed() {
    assert_eq!(
        &to_wire(&(3u32, 1u32, 70_000u64))[..],
        &[0x03, 0x01, 0xf0, 0xa2, 0x04]
    );
    assert_eq!(
        &to_wire(&(300u32, 0u32, 0u64))[..],
        &[0xac, 0x02, 0x00, 0x00]
    );
}
