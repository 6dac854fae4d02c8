//! The hasher of the engine's key indexes (the outbox's latest-survivor
//! index and a delivery's key → position index).  They hold a job's own
//! component keys and are emptied every step, so SipHash's resistance to
//! crafted keys buys nothing there while its cost is paid once per message
//! sent.  One rotate-xor-multiply round per word.  Nothing iterates these
//! maps: a delivery keeps its components in a vector in first-arrival
//! order, which depends only on the spills — the invocation order of a job
//! that did not declare `needs-order`, the same in a clean run, on a reused
//! index and in a replay.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by component keys, hashed with [`KeyHasher`].
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

#[derive(Default)]
pub(crate) struct KeyHasher(u64);

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
