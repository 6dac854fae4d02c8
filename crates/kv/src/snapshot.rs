use bytes::Bytes;

use crate::{fnv64, PairConsumer, PartId, RoutedKey, ScanControl};

/// An immutable point-in-time copy of a table's raw key/value pairs.
///
/// Snapshots exist for *consistent-cut reads*: a resident job service
/// answers point queries from the last barrier snapshot while the engine
/// keeps mutating live tables between barriers.  Taken while writers are
/// quiescent (e.g. from a `RunEvent::Step` observer, where the
/// engine is paused at the barrier), the snapshot is a consistent cut of
/// the whole table; taken concurrently with writers it is only per-part
/// atomic at best, and stores that cannot even promise that document it.
///
/// Entries are held sorted by `(route, body)`, so equality (and
/// [`TableSnapshot::digest`]) is canonical: two snapshots of byte-identical
/// tables compare equal regardless of scan order or backend.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TableSnapshot {
    entries: Vec<(RoutedKey, Bytes)>,
}

impl TableSnapshot {
    /// Builds a snapshot from raw pairs in any order.
    #[must_use]
    pub fn from_entries(mut entries: Vec<(RoutedKey, Bytes)>) -> Self {
        entries.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        Self { entries }
    }

    /// Number of pairs captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table was empty at the cut.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Point-reads one key from the cut.
    #[must_use]
    pub fn get(&self, key: &RoutedKey) -> Option<&Bytes> {
        self.entries
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The captured pairs, sorted by `(route, body)`.
    #[must_use]
    pub fn entries(&self) -> &[(RoutedKey, Bytes)] {
        &self.entries
    }

    /// Iterates the captured pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&RoutedKey, &Bytes)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// FNV-1a digest over the canonical byte serialization of every pair —
    /// a cheap fingerprint for byte-identity assertions across backends.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut buf = Vec::new();
        for (k, v) in &self.entries {
            buf.extend_from_slice(&k.route().to_le_bytes());
            buf.extend_from_slice(&(k.body().len() as u64).to_le_bytes());
            buf.extend_from_slice(k.body());
            buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
            buf.extend_from_slice(v);
        }
        fnv64(&buf)
    }
}

impl<'a> IntoIterator for &'a TableSnapshot {
    type Item = &'a (RoutedKey, Bytes);
    type IntoIter = std::slice::Iter<'a, (RoutedKey, Bytes)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// [`PairConsumer`] that collects every pair verbatim — the default
/// engine behind [`KvStore::snapshot_table`](crate::KvStore::snapshot_table).
#[derive(Debug, Clone, Default)]
pub struct CollectPairs {
    acc: Vec<(RoutedKey, Bytes)>,
}

impl PairConsumer for CollectPairs {
    type Output = Vec<(RoutedKey, Bytes)>;

    fn pair(&mut self, key: &RoutedKey, value: &[u8]) -> ScanControl {
        self.acc.push((key.clone(), Bytes::copy_from_slice(value)));
        ScanControl::Continue
    }

    fn finish(&mut self, _part: PartId) -> Self::Output {
        std::mem::take(&mut self.acc)
    }

    fn combine(&self, mut a: Self::Output, mut b: Self::Output) -> Self::Output {
        a.append(&mut b);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(route: u64, body: &[u8]) -> RoutedKey {
        RoutedKey::with_route(route, Bytes::copy_from_slice(body))
    }

    #[test]
    fn canonical_order_and_get() {
        let snap = TableSnapshot::from_entries(vec![
            (key(2, b"b"), Bytes::from_static(b"two")),
            (key(1, b"a"), Bytes::from_static(b"one")),
            (key(2, b"a"), Bytes::from_static(b"three")),
        ]);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.get(&key(1, b"a")), Some(&Bytes::from_static(b"one")));
        assert_eq!(snap.get(&key(9, b"z")), None);
        let routes: Vec<u64> = snap.iter().map(|(k, _)| k.route()).collect();
        assert_eq!(routes, vec![1, 2, 2]);
    }

    #[test]
    fn digest_is_order_insensitive_and_content_sensitive() {
        let a = TableSnapshot::from_entries(vec![
            (key(1, b"a"), Bytes::from_static(b"x")),
            (key(2, b"b"), Bytes::from_static(b"y")),
        ]);
        let b = TableSnapshot::from_entries(vec![
            (key(2, b"b"), Bytes::from_static(b"y")),
            (key(1, b"a"), Bytes::from_static(b"x")),
        ]);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = TableSnapshot::from_entries(vec![
            (key(1, b"a"), Bytes::from_static(b"x")),
            (key(2, b"b"), Bytes::from_static(b"z")),
        ]);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn empty_snapshot() {
        let snap = TableSnapshot::default();
        assert!(snap.is_empty());
        assert_eq!(snap.len(), 0);
        assert_eq!(
            snap.digest(),
            TableSnapshot::from_entries(Vec::new()).digest()
        );
    }
}
