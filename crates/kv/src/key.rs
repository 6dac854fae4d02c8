use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use bytes::Bytes;
use ripple_wire::{ByteReader, ByteWriter, Decode, Encode, WireError};

/// Identifier of one part (partition) of a table: successive integers
/// starting at 0, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartId(pub u32);

impl PartId {
    /// The part index as a `usize`, for indexing part arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "part#{}", self.0)
    }
}

impl Encode for PartId {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
    }
}

impl Decode for PartId {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(PartId(u32::decode(r)?))
    }
}

/// 64-bit FNV-1a hash, the store's default key-to-part hash.
///
/// # Examples
///
/// ```
/// assert_ne!(ripple_kv::fnv64(b"a"), ripple_kv::fnv64(b"b"));
/// ```
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Bodies up to this many bytes live inside the key, with no heap buffer.
const INLINE: usize = 16;

/// A stored key: an explicit 64-bit *route* plus the encoded key body.
///
/// The route decides placement — a key lands in part `route % parts`.  The
/// paper's phrase is that "the table client can control the assignment of
/// keys to parts by controlling the hash values of its keys"; most clients
/// use [`RoutedKey::from_body`], which hashes the body, while infrastructure
/// like the K/V EBSP transport table uses [`RoutedKey::with_route`] to aim a
/// key at a specific destination part.
///
/// A body of at most 16 bytes — every integer or small tuple key — can be
/// held inline ([`RoutedKey::from_slice`], [`RoutedKey::with_route_slice`],
/// decoding), so building, cloning and dropping such a key touches no heap.
/// Equality, hashing, ordering and the wire form are those of
/// `(route, body bytes)` whichever way the body is held.
///
/// # Examples
///
/// ```
/// use ripple_kv::RoutedKey;
///
/// let k = RoutedKey::from_body("vertex-17".as_bytes().to_vec().into());
/// let aimed = RoutedKey::with_route_slice(3, k.body());
/// assert_eq!(aimed.part_for(6).0, 3);
/// assert_eq!(RoutedKey::from_slice(b"vertex-17"), k);
/// ```
#[derive(Clone)]
pub struct RoutedKey {
    route: u64,
    body: Body,
}

#[derive(Clone)]
enum Body {
    Inline { len: u8, bytes: [u8; INLINE] },
    Shared(Bytes),
}

impl RoutedKey {
    /// Creates a key whose route is the FNV-1a hash of its body — the
    /// ordinary case.
    #[must_use]
    pub fn from_body(body: Bytes) -> Self {
        Self::with_route(fnv64(&body), body)
    }

    /// Creates a key with an explicitly chosen route, overriding placement.
    #[must_use]
    pub fn with_route(route: u64, body: Bytes) -> Self {
        let body = Body::Shared(body);
        Self { route, body }
    }

    /// [`RoutedKey::from_body`] over a copy of `body`, held inline when it
    /// is short enough.
    #[must_use]
    pub fn from_slice(body: &[u8]) -> Self {
        Self::with_route_slice(fnv64(body), body)
    }

    /// [`RoutedKey::with_route`] over a copy of `body`, held inline when it
    /// is short enough.
    #[must_use]
    pub fn with_route_slice(route: u64, body: &[u8]) -> Self {
        let body = match u8::try_from(body.len()) {
            Ok(len) if body.len() <= INLINE => {
                let mut bytes = [0; INLINE];
                bytes[..body.len()].copy_from_slice(body);
                Body::Inline { len, bytes }
            }
            _ => Body::Shared(Bytes::copy_from_slice(body)),
        };
        Self { route, body }
    }

    /// The routing value.
    #[must_use]
    pub fn route(&self) -> u64 {
        self.route
    }

    /// The key body bytes.
    #[must_use]
    pub fn body(&self) -> &[u8] {
        match &self.body {
            Body::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Body::Shared(bytes) => bytes,
        }
    }

    /// The part this key lands in for a table with `parts` parts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero; tables always have at least one part.
    #[must_use]
    pub fn part_for(&self, parts: u32) -> PartId {
        assert!(parts > 0, "a table must have at least one part");
        let part = u32::try_from(self.route % u64::from(parts))
            .expect("modulo of a u32 part count fits u32");
        PartId(part)
    }

    /// Total encoded size in bytes, used for marshalling accounting.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        8 + self.body().len()
    }

    fn parts(&self) -> (u64, &[u8]) {
        (self.route, self.body())
    }
}

impl PartialEq for RoutedKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for RoutedKey {}

impl Hash for RoutedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialOrd for RoutedKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RoutedKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.parts().cmp(&other.parts())
    }
}

impl fmt::Debug for RoutedKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutedKey")
            .field("route", &self.route)
            .field("body", &self.body())
            .finish()
    }
}

impl Encode for RoutedKey {
    fn encode(&self, w: &mut ByteWriter) {
        // The body's wire form is `Bytes`': a length, then the raw bytes.
        let body = self.body();
        self.route.encode(w);
        (body.len() as u64).encode(w);
        w.extend(body);
    }
    fn size_hint(&self) -> usize {
        10 + self.body().len()
    }
}

impl Decode for RoutedKey {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let route = u64::decode(r)?;
        let declared = u64::decode(r)?;
        let len = r.check_len(declared, 1)?;
        Ok(Self::with_route_slice(route, r.read_slice(len)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_wire::{from_wire, to_wire};

    #[test]
    fn from_body_routes_by_hash() {
        let body = Bytes::from_static(b"component-1");
        let k = RoutedKey::from_body(body.clone());
        assert_eq!(k.route(), fnv64(&body));
    }

    #[test]
    fn with_route_targets_exact_part() {
        for parts in [1u32, 2, 6, 7, 64] {
            for target in 0..parts {
                let k = RoutedKey::with_route(u64::from(target), Bytes::from_static(b"x"));
                assert_eq!(k.part_for(parts), PartId(target));
            }
        }
    }

    #[test]
    fn equal_bodies_same_part() {
        let a = RoutedKey::from_body(Bytes::from_static(b"abc"));
        let b = RoutedKey::from_body(Bytes::from_static(b"abc"));
        assert_eq!(a, b);
        assert_eq!(a.part_for(6), b.part_for(6));
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn zero_parts_panics() {
        let _ = RoutedKey::from_body(Bytes::new()).part_for(0);
    }

    #[test]
    fn wire_roundtrip() {
        let k = RoutedKey::with_route(42, Bytes::from_static(b"\x00body\xff"));
        let back: RoutedKey = from_wire(&to_wire(&k)).unwrap();
        assert_eq!(k, back);
    }

    fn hash_of(key: &RoutedKey) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    proptest::proptest! {
        // Few cases under miri, which interprets every one.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// Bodies on both sides of the inline limit: however a body is
        /// held, the key compares, hashes, orders and encodes as
        /// `(route, body)` and decodes back to an equal key.
        #[test]
        fn inline_and_shared_bodies_are_one_key(
            a in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=40),
            b in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=40),
            route_a in 0u64..4,
            route_b in 0u64..4,
        ) {
            let inline = RoutedKey::with_route_slice(route_a, &a);
            let shared = RoutedKey::with_route(route_a, Bytes::from(a.clone()));
            proptest::prop_assert_eq!(&inline, &shared);
            proptest::prop_assert_eq!(hash_of(&inline), hash_of(&shared));
            proptest::prop_assert_eq!(inline.body(), &a[..]);
            proptest::prop_assert_eq!(inline.wire_len(), 8 + a.len());
            proptest::prop_assert_eq!(RoutedKey::from_slice(&a), RoutedKey::from_body(Bytes::from(a.clone())));

            let reference = to_wire(&(route_a, Bytes::from(a.clone())));
            proptest::prop_assert_eq!(&to_wire(&inline), &reference);
            proptest::prop_assert_eq!(&to_wire(&shared), &reference);
            let back: RoutedKey = from_wire(&reference).unwrap();
            proptest::prop_assert_eq!(&back, &inline);

            let other = RoutedKey::with_route(route_b, Bytes::from(b.clone()));
            let expected = (route_a, &a).cmp(&(route_b, &b));
            proptest::prop_assert_eq!(inline.cmp(&other), expected);
            proptest::prop_assert_eq!(shared.cmp(&other), expected);
            proptest::prop_assert_eq!(inline == other, expected == Ordering::Equal);
        }
    }

    #[test]
    fn fnv_spreads_sequential_keys() {
        // Not a statistical test, just a sanity check that sequential ids do
        // not collapse into one part.
        let parts = 6u32;
        let mut seen = std::collections::HashSet::new();
        for i in 0..100u32 {
            let k = RoutedKey::from_body(to_wire(&i).to_vec().into());
            seen.insert(k.part_for(parts));
        }
        assert_eq!(
            u32::try_from(seen.len()).expect("part count fits u32"),
            parts
        );
    }
}
