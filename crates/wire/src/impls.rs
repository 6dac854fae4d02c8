//! [`Encode`]/[`Decode`] implementations for primitives and std containers.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, Hash};

use bytes::Bytes;

use crate::varint::{self, read_u64, unzigzag, varint_len, write_u64, zigzag, MAX_VARINT_LEN};
use crate::{ByteReader, ByteWriter, Decode, Encode, WireError};

// ---------------------------------------------------------------------------
// Integers (varint; signed ones zig-zag mapped first)
// ---------------------------------------------------------------------------

/// `$t` as a varint of at most `$max` bytes, the last of which holds
/// `$top` value bits; `$widen` maps a value to the `u64` that is written,
/// `$narrow` maps one read back.
macro_rules! impl_varint {
    ($($t:ty, $max:expr, $top:expr, $widen:expr, $narrow:expr;)*) => {$(
        impl Encode for $t {
            #[inline]
            fn encode(&self, w: &mut ByteWriter) {
                write_u64(w, $widen(*self));
            }
            #[inline]
            fn size_hint(&self) -> usize {
                varint_len($widen(*self))
            }
            #[inline]
            fn encode_seq(items: &[Self], w: &mut ByteWriter) {
                varint::write_all(items.iter().map(|&v| $widen(v)), $max, w);
            }
            #[inline]
            fn size_hint_seq(items: &[Self]) -> usize {
                items.len().saturating_mul($max)
            }
        }

        impl Decode for $t {
            #[inline]
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                read_u64(r).and_then($narrow)
            }
            #[inline]
            fn decode_seq(r: &mut ByteReader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
                admit_seq::<Self>(r, len, 1)?;
                // One exact allocation, filled through a cursor that lives
                // in registers.
                let mut out: Vec<$t> = vec![0; len];
                let mut rest = r.rest();
                varint::read_all(&mut rest, &mut out, $narrow)?;
                r.advance(r.remaining() - rest.len());
                Ok(out)
            }
            #[inline]
            fn skip_seq(r: &mut ByteReader<'_>, len: usize) -> Result<(), WireError> {
                let mut rest = r.rest();
                let done = varint::skip_all(&mut rest, len, $max, $top);
                r.advance(r.remaining() - rest.len());
                skip_seq_from::<Self>(r, done, len)
            }
        }
    )*};
}

/// `$narrow` of [`impl_varint!`] for a type narrower than the varint.
macro_rules! narrow_to {
    ($t:ty) => {
        |v| {
            <$t>::try_from(v).map_err(|_| WireError::IntOutOfRange {
                target: stringify!($t),
            })
        }
    };
}

/// The varint bytes of a `usize`, and the value bits of the last.
const USIZE_LEN: usize = (usize::BITS as usize).div_ceil(7);
const USIZE_TOP: u32 = (usize::BITS - 1) % 7 + 1;

impl_varint! {
    u8, 2, 1, u64::from, narrow_to!(u8);
    u16, 3, 2, u64::from, narrow_to!(u16);
    u32, 5, 4, u64::from, narrow_to!(u32);
    u64, MAX_VARINT_LEN, 1, |v: u64| v, Ok::<u64, WireError>;
    usize, USIZE_LEN, USIZE_TOP, |v: usize| v as u64, narrow_to!(usize);
    i8, 2, 1, |v: i8| zigzag(i64::from(v)), |v| narrow_to!(i8)(unzigzag(v));
    i16, 3, 2, |v: i16| zigzag(i64::from(v)), |v| narrow_to!(i16)(unzigzag(v));
    i32, 5, 4, |v: i32| zigzag(i64::from(v)), |v| narrow_to!(i32)(unzigzag(v));
    i64, MAX_VARINT_LEN, 1, zigzag, |v| Ok::<i64, WireError>(unzigzag(v));
}

impl Encode for u128 {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        w.extend(&self.to_le_bytes());
    }
    #[inline]
    fn size_hint(&self) -> usize {
        16
    }
}

impl Decode for u128 {
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(u128::from_le_bytes(r.read_array()?))
    }
}

// ---------------------------------------------------------------------------
// Floats (fixed-width little endian, bit-exact including NaN payloads)
// ---------------------------------------------------------------------------

/// Floats a sequence stages on the stack between appends.
const FLOAT_CHUNK: usize = 64;

macro_rules! impl_float {
    ($($t:ty, $width:expr;)*) => {$(
        impl Encode for $t {
            #[inline]
            fn encode(&self, w: &mut ByteWriter) {
                w.extend(&self.to_le_bytes());
            }
            #[inline]
            fn size_hint(&self) -> usize {
                $width
            }
            #[inline]
            fn encode_seq(items: &[Self], w: &mut ByteWriter) {
                w.reserve(Self::size_hint_seq(items));
                let mut staged = [0u8; FLOAT_CHUNK * $width];
                for group in items.chunks(FLOAT_CHUNK) {
                    for (slot, v) in staged.chunks_exact_mut($width).zip(group) {
                        slot.copy_from_slice(&v.to_le_bytes());
                    }
                    w.extend(&staged[..group.len() * $width]);
                }
            }
            #[inline]
            fn size_hint_seq(items: &[Self]) -> usize {
                items.len().saturating_mul($width)
            }
        }

        impl Decode for $t {
            #[inline]
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.read_array()?))
            }
            #[inline]
            fn decode_seq(r: &mut ByteReader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
                admit_seq::<Self>(r, len, $width)?;
                let bytes = r.read_slice(len * $width)?;
                Ok(bytes
                    .chunks_exact($width)
                    .map(|raw| {
                        let mut le = [0u8; $width];
                        le.copy_from_slice(raw);
                        <$t>::from_le_bytes(le)
                    })
                    .collect())
            }
        }
    )*};
}

impl_float! {
    f32, 4;
    f64, 8;
}

// ---------------------------------------------------------------------------
// bool, unit, char
// ---------------------------------------------------------------------------

/// A `bool` from its tag byte.
#[inline]
fn bool_from_tag(tag: u8) -> Result<bool, WireError> {
    match tag {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::InvalidTag {
            target: "bool",
            tag,
        }),
    }
}

impl Encode for bool {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        w.push(u8::from(*self));
    }
    #[inline]
    fn size_hint(&self) -> usize {
        1
    }
    #[inline]
    fn encode_seq(items: &[Self], w: &mut ByteWriter) {
        w.reserve(items.len());
        for &item in items {
            w.push(u8::from(item));
        }
    }
    #[inline]
    fn size_hint_seq(items: &[Self]) -> usize {
        items.len()
    }
}

impl Decode for bool {
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        bool_from_tag(r.read_byte()?)
    }
    #[inline]
    fn decode_seq(r: &mut ByteReader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        admit_seq::<Self>(r, len, 1)?;
        let mut out = Vec::with_capacity(len);
        for &tag in r.read_slice(len)? {
            out.push(bool_from_tag(tag)?);
        }
        Ok(out)
    }
}

impl Encode for () {
    #[inline]
    fn encode(&self, _w: &mut ByteWriter) {}
    #[inline]
    fn size_hint(&self) -> usize {
        0
    }
}

impl Decode for () {
    #[inline]
    fn decode(_r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Encode for char {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        write_u64(w, u64::from(u32::from(*self)));
    }
    #[inline]
    fn size_hint(&self) -> usize {
        4
    }
}

impl Decode for char {
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let v = u32::decode(r)?;
        char::from_u32(v).ok_or(WireError::IntOutOfRange { target: "char" })
    }
}

// ---------------------------------------------------------------------------
// Strings and byte buffers
// ---------------------------------------------------------------------------

/// Claims the bytes of a length-prefixed buffer.
#[inline]
fn read_prefixed<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8], WireError> {
    let len = read_u64(r)?;
    let len = r.check_len(len, 1)?;
    r.read_slice(len)
}

impl Encode for str {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        write_u64(w, self.len() as u64);
        w.extend(self.as_bytes());
    }
    #[inline]
    fn size_hint(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl Encode for String {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        self.as_str().encode(w);
    }
    #[inline]
    fn size_hint(&self) -> usize {
        self.as_str().size_hint()
    }
}

impl Decode for String {
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let bytes = read_prefixed(r)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
    #[inline]
    fn skip(r: &mut ByteReader<'_>) -> Result<(), WireError> {
        match std::str::from_utf8(read_prefixed(r)?) {
            Ok(_) => Ok(()),
            Err(_) => Err(WireError::InvalidUtf8),
        }
    }
}

impl Encode for Bytes {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        write_u64(w, self.len() as u64);
        w.extend(self);
    }
    #[inline]
    fn size_hint(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl Decode for Bytes {
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Bytes::copy_from_slice(read_prefixed(r)?))
    }
    #[inline]
    fn skip(r: &mut ByteReader<'_>) -> Result<(), WireError> {
        read_prefixed(r).map(drop)
    }
}

// ---------------------------------------------------------------------------
// Option, Result
// ---------------------------------------------------------------------------

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.push(0),
            Some(v) => {
                w.push(1);
                v.encode(w);
            }
        }
    }
    fn size_hint(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::size_hint)
    }
}

/// Reads an option's tag, then its payload through `payload` — decoding it
/// or passing over it.
fn read_option<R>(
    r: &mut ByteReader<'_>,
    payload: impl FnOnce(&mut ByteReader<'_>) -> Result<R, WireError>,
) -> Result<Option<R>, WireError> {
    match r.read_byte()? {
        0 => Ok(None),
        1 => Ok(Some(payload(r)?)),
        tag => Err(WireError::InvalidTag {
            target: "Option",
            tag,
        }),
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        read_option(r, T::decode)
    }
    fn skip(r: &mut ByteReader<'_>) -> Result<(), WireError> {
        read_option(r, T::skip).map(drop)
    }
}

impl<T: Encode, E: Encode> Encode for Result<T, E> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Ok(v) => {
                w.push(0);
                v.encode(w);
            }
            Err(e) => {
                w.push(1);
                e.encode(w);
            }
        }
    }
}

impl<T: Decode, E: Decode> Decode for Result<T, E> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.read_byte()? {
            0 => Ok(Ok(T::decode(r)?)),
            1 => Ok(Err(E::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                target: "Result",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Sequences and maps
// ---------------------------------------------------------------------------

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut ByteWriter) {
        write_u64(w, self.len() as u64);
        T::encode_seq(self, w);
    }
    fn size_hint(&self) -> usize {
        varint_len(self.len() as u64) + T::size_hint_seq(self)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        self.as_slice().encode(w);
    }
    fn size_hint(&self) -> usize {
        self.as_slice().size_hint()
    }
}

/// Reads a collection's declared length.
#[inline]
fn read_len(r: &mut ByteReader<'_>) -> Result<usize, WireError> {
    let declared = read_u64(r)?;
    usize::try_from(declared).map_err(|_| WireError::LengthOverrun {
        declared,
        available: r.remaining(),
    })
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let len = read_len(r)?;
        T::decode_seq(r, len)
    }
    fn skip(r: &mut ByteReader<'_>) -> Result<(), WireError> {
        let len = read_len(r)?;
        T::skip_seq(r, len)
    }
}

/// Maximum declared length for collections of zero-size elements; honest
/// message lists stay far below this, while hostile prefixes cannot force
/// more than this many no-op iterations.
const ZST_LIMIT: usize = 1 << 24;

/// Elements that consume bytes bound a collection's decode loop via EOF;
/// this guards hostile lengths of elements that consume none: with `done`
/// of `len` elements read and the input exhausted, a length past
/// [`ZST_LIMIT`] is refused.
#[inline]
fn check_progress(r: &ByteReader<'_>, done: usize, len: usize) -> Result<(), WireError> {
    if r.remaining() == 0 && done != len && len > ZST_LIMIT {
        return Err(WireError::LengthOverrun {
            declared: len as u64,
            available: 0,
        });
    }
    Ok(())
}

/// Skips elements `done + 1 ..= len` of a sequence whose first `done`
/// were passed over already: the element-wise walk of
/// [`Decode::skip_seq`], the trait's default, and where the integers'
/// word-at-a-time pass hands over whatever it could not settle.
pub(crate) fn skip_seq_from<T: Decode>(
    r: &mut ByteReader<'_>,
    done: usize,
    len: usize,
) -> Result<(), WireError> {
    if done > 0 {
        check_progress(r, done, len)?;
    }
    for done in done + 1..=len {
        T::skip(r)?;
        check_progress(r, done, len)?;
    }
    Ok(())
}

/// Decodes `len` elements from the front of `r`, handing each to `each`:
/// the element-wise walk every sequence path is defined by.
fn walk_seq<T: Decode>(
    r: &mut ByteReader<'_>,
    len: usize,
    mut each: impl FnMut(T),
) -> Result<(), WireError> {
    for done in 1..=len {
        each(T::decode(r)?);
        check_progress(r, done, len)?;
    }
    Ok(())
}

/// [`Decode::decode_seq`] element by element: the trait's default, and the
/// reference the primitives' overrides are tested against.
pub(crate) fn decode_seq_elementwise<T: Decode>(
    r: &mut ByteReader<'_>,
    len: usize,
) -> Result<Vec<T>, WireError> {
    // An element in memory can be many times its size on the wire, so the
    // first allocation is capped in elements as well as by the bytes that
    // remain; an honest longer list regrows.
    let mut out = Vec::with_capacity(len.min(r.remaining().max(1)).min(1 << 16));
    walk_seq(r, len, |item| out.push(item))?;
    Ok(out)
}

/// Reads an encoded sequence's length, then hands each element to `each`
/// as it is decoded: the element-wise path with no vector at the end.
pub(crate) fn decode_each<T: Decode>(
    r: &mut ByteReader<'_>,
    each: impl FnMut(T),
) -> Result<(), WireError> {
    let len = read_len(r)?;
    walk_seq(r, len, each)
}

/// Admits `len` elements of at least `width` bytes each against the bytes
/// that remain, before anything is allocated for them.  A length those
/// bytes cannot hold is walked element by element for its error alone —
/// the first element to fail, or the hostile-length guard — exactly as the
/// element-wise path reports it.
fn admit_seq<T: Decode>(r: &mut ByteReader<'_>, len: usize, width: usize) -> Result<(), WireError> {
    if r.check_len(len as u64, width).is_ok() {
        return Ok(());
    }
    walk_seq(r, len, drop::<T>)?;
    Err(WireError::LengthOverrun {
        declared: len as u64,
        available: r.remaining(),
    })
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, w: &mut ByteWriter) {
        T::encode_seq(self, w);
    }
    fn size_hint(&self) -> usize {
        T::size_hint_seq(self)
    }
}

impl<T: Decode, const N: usize> Decode for [T; N] {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        T::decode_seq(r, N)?
            .try_into()
            .map_err(|_| WireError::IntOutOfRange { target: "array" })
    }
    fn skip(r: &mut ByteReader<'_>) -> Result<(), WireError> {
        T::skip_seq(r, N)
    }
}

impl<K: Encode, V: Encode, S> Encode for HashMap<K, V, S> {
    fn encode(&self, w: &mut ByteWriter) {
        // NOTE: iteration order of a HashMap is arbitrary, so two equal maps
        // may encode differently.  That is acceptable for values but such a
        // map must not be used as a routing key; `BTreeMap` encodes
        // canonically.
        write_u64(w, self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
}

impl<K, V, S> Decode for HashMap<K, V, S>
where
    K: Decode + Eq + Hash,
    V: Decode,
    S: BuildHasher + Default,
{
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let len = read_len(r)?;
        let cap = len.min(r.remaining().max(1)).min(1 << 16);
        let mut out = HashMap::with_capacity_and_hasher(cap, S::default());
        for done in 1..=len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
            check_progress(r, done, len)?;
        }
        Ok(out)
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, w: &mut ByteWriter) {
        write_u64(w, self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let len = read_len(r)?;
        let mut out = BTreeMap::new();
        for done in 1..=len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
            check_progress(r, done, len)?;
        }
        Ok(out)
    }
}

impl<T: Encode, S> Encode for HashSet<T, S> {
    fn encode(&self, w: &mut ByteWriter) {
        write_u64(w, self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T, S> Decode for HashSet<T, S>
where
    T: Decode + Eq + Hash,
    S: BuildHasher + Default,
{
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let len = read_len(r)?;
        let cap = len.min(r.remaining().max(1)).min(1 << 16);
        let mut out = HashSet::with_capacity_and_hasher(cap, S::default());
        for done in 1..=len {
            out.insert(T::decode(r)?);
            check_progress(r, done, len)?;
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, w: &mut ByteWriter) {
                $(self.$idx.encode(w);)+
            }
            fn size_hint(&self) -> usize {
                0 $(+ self.$idx.size_hint())+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
            fn skip(r: &mut ByteReader<'_>) -> Result<(), WireError> {
                $($name::skip(r)?;)+
                Ok(())
            }
        }
    };
}

impl_tuple!(A: 0);
impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

// ---------------------------------------------------------------------------
// References and boxes
// ---------------------------------------------------------------------------

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut ByteWriter) {
        (**self).encode(w);
    }
    fn size_hint(&self) -> usize {
        (**self).size_hint()
    }
}

impl<T: Encode + ?Sized> Encode for Box<T> {
    fn encode(&self, w: &mut ByteWriter) {
        (**self).encode(w);
    }
    fn size_hint(&self) -> usize {
        (**self).size_hint()
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::decode(r)?))
    }
    fn skip(r: &mut ByteReader<'_>) -> Result<(), WireError> {
        T::skip(r)
    }
}

#[cfg(test)]
mod tests {
    use crate::{from_wire, to_wire};
    use std::collections::{BTreeMap, HashMap, HashSet};

    fn rt<T: crate::Encode + crate::Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_wire(v);
        let back: T = from_wire(&bytes).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn unsigned_roundtrip() {
        rt(&0u8);
        rt(&255u8);
        rt(&u16::MAX);
        rt(&u32::MAX);
        rt(&u64::MAX);
        rt(&usize::MAX);
        rt(&u128::MAX);
    }

    #[test]
    fn signed_roundtrip() {
        rt(&i8::MIN);
        rt(&i8::MAX);
        rt(&i16::MIN);
        rt(&i32::MIN);
        rt(&i64::MIN);
        rt(&i64::MAX);
        rt(&-1i32);
    }

    #[test]
    fn narrow_decode_rejects_wide_value() {
        let bytes = to_wire(&300u64);
        assert!(from_wire::<u8>(&bytes).is_err());
        let bytes = to_wire(&(i64::from(i32::MAX) + 1));
        assert!(from_wire::<i32>(&bytes).is_err());
    }

    #[test]
    fn floats_bit_exact() {
        rt(&0.0f64);
        rt(&-0.0f64);
        rt(&f64::INFINITY);
        rt(&f64::NEG_INFINITY);
        rt(&1.5f32);
        let bytes = to_wire(&f64::NAN);
        let back: f64 = from_wire(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn bool_and_unit_and_char() {
        rt(&true);
        rt(&false);
        rt(&());
        rt(&'x');
        rt(&'é');
        rt(&'𝕏');
        assert!(from_wire::<bool>(&[2]).is_err());
    }

    #[test]
    fn char_rejects_surrogate() {
        let bytes = to_wire(&0xD800u32);
        assert!(from_wire::<char>(&bytes).is_err());
    }

    #[test]
    fn strings() {
        rt(&String::new());
        rt(&"hello".to_owned());
        rt(&"héllo wörld 𝕏".to_owned());
        // Invalid UTF-8 rejected.
        let mut bad = to_wire(&2u64).to_vec();
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(from_wire::<String>(&bad).is_err());
    }

    #[test]
    fn bytes_buffer() {
        rt(&bytes::Bytes::from_static(b""));
        rt(&bytes::Bytes::from_static(b"\x00\x01\xff"));
    }

    #[test]
    fn options_and_results() {
        rt(&Option::<u32>::None);
        rt(&Some(7u32));
        rt(&Result::<u32, String>::Ok(1));
        rt(&Result::<u32, String>::Err("bad".into()));
        assert!(from_wire::<Option<u32>>(&[7]).is_err());
    }

    #[test]
    fn sequences() {
        rt(&Vec::<u32>::new());
        rt(&vec![1u32, 2, 3]);
        rt(&vec![vec![1i64], vec![], vec![-5, 5]]);
        rt(&[1u8, 2, 3]);
    }

    #[test]
    fn hostile_vec_length_rejected() {
        // Declared length of u64::MAX with only a few bytes present must
        // error rather than attempt a huge allocation.
        let bytes = to_wire(&u64::MAX);
        assert!(from_wire::<Vec<u64>>(&bytes).is_err());
    }

    #[test]
    fn maps_and_sets() {
        let mut hm = HashMap::new();
        hm.insert(1u32, "one".to_owned());
        hm.insert(2, "two".to_owned());
        rt(&hm);
        let mut bm = BTreeMap::new();
        bm.insert("a".to_owned(), 1i64);
        bm.insert("b".to_owned(), -2);
        rt(&bm);
        let mut hs = HashSet::new();
        hs.insert(9u64);
        rt(&hs);
    }

    #[test]
    fn btreemap_encoding_is_canonical() {
        let mut a = BTreeMap::new();
        a.insert(2u32, 20u32);
        a.insert(1, 10);
        let mut b = BTreeMap::new();
        b.insert(1u32, 10u32);
        b.insert(2, 20);
        assert_eq!(to_wire(&a), to_wire(&b));
    }

    #[test]
    fn tuples() {
        rt(&(1u8,));
        rt(&(1u8, 2u16));
        rt(&(1u8, "x".to_owned(), vec![1.0f64], Some(false), 9i32, 7u64));
    }

    #[test]
    fn boxed() {
        rt(&Box::new(17u64));
    }

    #[test]
    fn size_hints_cover_encoding() {
        // A hint is only a capacity.  Scalars and strings know their size;
        // a sequence of primitives answers in O(1) with an upper bound.
        assert_eq!(
            crate::Encode::size_hint(&70_000u64),
            to_wire(&70_000u64).len()
        );
        let s = "hello".to_owned();
        assert_eq!(crate::Encode::size_hint(&s), to_wire(&s).len());
        let v = vec![1u64, 300, 70_000];
        assert_eq!(crate::Encode::size_hint(&v), 1 + 3 * 10);
        assert!(crate::Encode::size_hint(&v) >= to_wire(&v).len());
        let f = [1.5f64, -2.0];
        assert_eq!(crate::Encode::size_hint(&f), to_wire(&f).len());
    }

    #[test]
    fn zero_size_elements_keep_their_guard() {
        // Honest lists of elements that occupy no bytes decode...
        rt(&vec![(); 5]);
        assert_eq!(to_wire(&vec![(); 5]).len(), 1);
        // ...and a hostile count of them is refused, not iterated.
        let bytes = to_wire(&u64::MAX);
        assert!(matches!(
            from_wire::<Vec<()>>(&bytes),
            Err(crate::WireError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn skip_passes_over_exactly_one_value() {
        let value = (
            vec![300u32, 7],
            "né".to_owned(),
            Some(vec![1.5f64]),
            [true, false],
        );
        let mut bytes = to_wire(&value).to_vec();
        let len = bytes.len();
        bytes.extend_from_slice(&[0xff; 3]);
        let mut r = crate::ByteReader::new(&bytes);
        <(Vec<u32>, String, Option<Vec<f64>>, [bool; 2]) as crate::Decode>::skip(&mut r).unwrap();
        assert_eq!(r.remaining(), bytes.len() - len);
    }
}
