//! The engine's key index: the outbox's latest-survivor index and a
//! delivery's key → position index are one type, [`KeyIndex`].
//!
//! Every graph job keys by `VertexId = u32`, and its keys are dense, so a
//! `u32` key is an index into a vector instead of a hashed lookup: one
//! bounds check and one stamp compare per message sent.  Which keys go
//! there is decided by the key type at monomorphisation (a `TypeId`
//! compare the compiler folds) and by the key values seen: the vector
//! covers `0..direct.len()`, which only grows at a clear and only while it
//! stays within [`DENSITY`] slots per key held (or [`FLOOR`]).  Every other
//! key — another type, or a `u32` outside the range — lives in a
//! [`KeyMap`].  So no key lives in both at once, memory follows the number
//! of keys held rather than their values, and a clear is O(1): it bumps
//! the generation the direct slots are stamped with.
//!
//! The hashed side holds a job's own component keys and is emptied every
//! step, so SipHash's resistance to crafted keys buys nothing there while
//! its cost is paid once per message sent: [`KeyHasher`] is one
//! rotate-xor-multiply round per word.

use std::any::Any;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A `HashMap` keyed by component keys, hashed with [`KeyHasher`].
type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// The direct range may cover at most this many slots per key held...
const DENSITY: u64 = 16;
/// ...or this many, whichever is more.
const FLOOR: u64 = 1 << 10;

/// A map from component keys to small `Copy` values, emptied every step
/// (see the module documentation).
pub(crate) struct KeyIndex<K, V> {
    /// Slot `k` is `u32` key `k`: held while its stamp is `generation`;
    /// its value stays readable through [`KeyIndex::last`] after a clear.
    direct: Vec<(u32, V)>,
    /// The stamp of the keys held now; never 0, which marks a slot never
    /// held.
    generation: u32,
    /// Every key outside the direct range.
    hashed: KeyMap<K, V>,
    /// Keys held since the last clear, and one past the largest `u32` key
    /// among them that was within the density bound when it came: what the
    /// next clear sizes the direct range by, so a few outliers do not keep
    /// a dense run hashed.
    held: u64,
    top: u64,
}

impl<K, V> Default for KeyIndex<K, V> {
    fn default() -> Self {
        Self {
            direct: Vec::new(),
            generation: 1,
            hashed: KeyMap::default(),
            held: 0,
            top: 0,
        }
    }
}

/// `key` as a `u32`, if that is its type.
fn as_u32<K: 'static>(key: &K) -> Option<u32> {
    (key as &dyn Any).downcast_ref::<u32>().copied()
}

impl<K: Eq + Hash + Clone + 'static, V: Copy + Default> KeyIndex<K, V> {
    /// How many direct slots the keys held so far justify.
    fn bound(&self) -> u64 {
        FLOOR.max(DENSITY * self.held)
    }

    /// `key`'s direct slot, if it has one.
    fn slot(&self, key: &K) -> Option<usize> {
        as_u32(key)
            .map(|k| k as usize)
            .filter(|&k| k < self.direct.len())
    }

    /// The value of `key`, if it is held.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.slot(key) {
            Some(k) => {
                let (stamp, value) = &mut self.direct[k];
                (*stamp == self.generation).then_some(value)
            }
            None => self.hashed.get_mut(key),
        }
    }

    /// Holds `key` with `value`; `key` must not be held.
    pub(crate) fn insert(&mut self, key: &K, value: V) {
        self.held += 1;
        if let Some(k) = as_u32(key).map(u64::from) {
            if k < self.bound() {
                self.top = self.top.max(k + 1);
            }
        }
        match self.slot(key) {
            Some(k) => self.direct[k] = (self.generation, value),
            None => {
                self.hashed.insert(key.clone(), value);
            }
        }
    }

    /// The value `key` was last inserted with, held or not, if its slot is
    /// direct: for what is a function of the key alone, which a clear
    /// need not forget.
    pub(crate) fn last(&self, key: &K) -> Option<&V> {
        let (stamp, value) = &self.direct[self.slot(key)?];
        (*stamp != 0).then_some(value)
    }

    /// Forgets every key.  The direct range grows here, once both sides
    /// are empty, to cover the keys just held that were dense enough — at
    /// most [`DENSITY`] slots per key held, so growing costs no more than
    /// holding them did.
    pub(crate) fn clear(&mut self) {
        if !self.hashed.is_empty() {
            self.hashed.clear();
        }
        if self.top > self.direct.len() as u64 {
            self.direct.resize(self.top as usize, (0, V::default()));
        }
        (self.held, self.top) = (0, 0);
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Once in 2³² clears: no old stamp may pass for current.
            self.direct.fill((0, V::default()));
            self.generation = 1;
        }
    }
}

impl<K: Eq + Hash + Clone + 'static> KeyIndex<K, u32> {
    /// Replaces each held key's value by its rank in ascending key order
    /// and returns `true` — when every held key is direct and a walk over
    /// the direct range is within the density bound; otherwise changes
    /// nothing and returns `false`.
    pub(crate) fn rank(&mut self) -> bool {
        let len = self.direct.len() as u64;
        if !self.hashed.is_empty() || len > self.bound() {
            return false;
        }
        let mut rank = 0;
        for (stamp, value) in &mut self.direct {
            if *stamp == self.generation {
                *value = rank;
                rank += 1;
            }
        }
        true
    }
}

#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.word(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }
    /// The multiply leaves the entropy in the high bits; the table picks
    /// buckets by the low ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<V> KeyIndex<u32, V> {
        /// Every held key, once per representation that holds it.
        fn held_keys(&self) -> Vec<u32> {
            let direct = (self.direct.iter().zip(0..))
                .filter(|((stamp, _), _)| *stamp == self.generation)
                .map(|(_, k)| k);
            direct.chain(self.hashed.keys().copied()).collect()
        }
    }

    /// Inserts `keys` (valued by position) and clears, `passes` times.
    fn passes(index: &mut KeyIndex<u32, u32>, keys: &[u32], passes: usize) {
        for _ in 0..passes {
            for (key, at) in keys.iter().zip(0..) {
                index.insert(key, at);
            }
            index.clear();
        }
    }

    #[test]
    fn dense_keys_go_direct_after_one_clear() {
        let mut index = KeyIndex::<u32, u32>::default();
        let keys: Vec<u32> = (0..5000).collect();
        passes(&mut index, &keys, 1);
        assert!(index.direct.len() >= 5000);
        for (key, at) in keys.iter().zip(0..) {
            index.insert(key, at);
        }
        assert!(index.hashed.is_empty());
        assert_eq!(index.get_mut(&4321).copied(), Some(4321));
    }

    #[test]
    fn sparse_keys_keep_the_direct_range_within_the_density_bound() {
        let mut index = KeyIndex::<u32, u32>::default();
        let spaced: Vec<u32> = (0..1000).map(|i| i << 20).collect();
        passes(&mut index, &spaced, 3);
        assert!(index.direct.len() as u64 <= FLOOR.max(DENSITY * 1000));
        // Keyed from the top of the range: nothing direct at all.
        let mut index = KeyIndex::<u32, u32>::default();
        let high: Vec<u32> = (0..1000).map(|i| u32::MAX - i).collect();
        passes(&mut index, &high, 3);
        assert!(index.direct.is_empty());
    }

    #[test]
    fn after_a_clear_every_key_is_absent() {
        let mut index = KeyIndex::<u32, u32>::default();
        let dense: Vec<u32> = (0..3000).collect();
        passes(&mut index, &dense, 2);
        assert!(index.direct.len() >= 3000);
        let keys: Vec<u32> = dense.into_iter().chain([u32::MAX, 1 << 30]).collect();
        for (key, at) in keys.iter().zip(0..) {
            index.insert(key, at);
        }
        assert_eq!(index.hashed.len(), 2);
        index.clear();
        for key in &keys {
            assert_eq!(index.get_mut(key), None, "key {key}");
        }
        assert!(index.held_keys().is_empty());
        // So is every key once the generation wraps; the values a clear
        // keeps readable are kept no longer.
        index.insert(&7, 70);
        index.generation = u32::MAX;
        index.insert(&8, 80);
        index.clear();
        assert_eq!(index.get_mut(&8), None);
        assert_eq!(index.last(&7), None);
    }

    #[test]
    fn after_a_failed_pass_no_key_is_found_twice() {
        let mut index = KeyIndex::<u32, u32>::default();
        // A failed pass: the keys go hashed (the range is empty), then the
        // step is abandoned and its leftovers cleared — which grows the
        // range over them.
        let keys: Vec<u32> = (0..2000).rev().collect();
        for (key, at) in keys.iter().zip(0..) {
            index.insert(key, at);
        }
        assert_eq!(index.hashed.len(), keys.len());
        index.clear();
        assert!(!index.direct.is_empty());
        // The retried pass holds each key once, with its new value.
        let keys: Vec<u32> = keys.into_iter().chain([u32::MAX - 1]).collect();
        for (key, at) in keys.iter().zip(100..) {
            index.insert(key, at);
        }
        let mut held = index.held_keys();
        held.sort_unstable();
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(held, want);
        for (key, at) in keys.iter().zip(100..) {
            assert_eq!(index.get_mut(key).copied(), Some(at), "key {key}");
        }
    }

    #[test]
    fn ranks_follow_ascending_key_order() {
        let mut index = KeyIndex::<u32, u32>::default();
        let keys = [9u32, 2, 700, 3];
        passes(&mut index, &keys, 1);
        for (key, at) in keys.iter().zip(0..) {
            index.insert(key, at);
        }
        assert!(index.rank());
        let ranks: Vec<_> = keys.iter().map(|k| index.get_mut(k).copied()).collect();
        assert_eq!(ranks, [Some(2), Some(0), Some(3), Some(1)]);
        // A key on the hashed side: no ranking.
        index.insert(&u32::MAX, 4);
        assert!(!index.rank());
    }

    #[test]
    fn other_key_types_hash() {
        let mut index = KeyIndex::<u64, (u32, u32)>::default();
        for pass in 0..3 {
            for key in 0..100u64 {
                index.insert(&key, (pass, 0));
            }
            assert_eq!(index.get_mut(&42).copied(), Some((pass, 0)));
            index.clear();
        }
        assert!(index.direct.is_empty());
        assert_eq!(index.last(&42), None);
    }
}
