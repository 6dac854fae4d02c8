//! Binary wire codec for the Ripple analytics platform.
//!
//! Ripple's lower layer (the key/value store and the message queuing
//! facility) holds raw bytes, and the K/V EBSP engine marshals typed keys,
//! states, and messages whenever data crosses an (emulated) partition
//! boundary — exactly the cost structure the Ripple paper's "parallel
//! debugging store" models.  This crate is the codec used for that
//! marshalling: a small, deterministic, self-contained binary format built
//! from LEB128 varints and explicit [`Encode`]/[`Decode`] implementations.
//!
//! The format makes no attempt at cross-version schema evolution.  Bare
//! wire values are for data in flight inside one job; when bytes *do*
//! rest on disk — the durable store's write-ahead logs and snapshots —
//! they are wrapped in the [`frame`-module](read_frame) record format,
//! which adds a length prefix and a CRC-32 checksum so that torn tails
//! from interrupted appends and corrupted records are detected on replay
//! instead of being decoded as garbage.  When bytes cross a *wire* — the
//! networked store's TCP protocol — they travel in [message
//! frames](read_msg_from), which add a kind tag and a request id on top
//! of the same length + CRC-32 envelope so responses can be pipelined and
//! matched out of order.
//!
//! # Examples
//!
//! ```
//! use ripple_wire::{from_wire, to_wire};
//!
//! # fn main() -> Result<(), ripple_wire::WireError> {
//! let value: (u32, String, Vec<i64>) = (7, "rank".to_owned(), vec![-1, 2, -3]);
//! let bytes = to_wire(&value);
//! let back: (u32, String, Vec<i64>) = from_wire(&bytes)?;
//! assert_eq!(value, back);
//! # Ok(())
//! # }
//! ```

#![deny(clippy::unwrap_used)]

mod batch;
mod error;
mod frame;
mod impls;
mod macros;
mod msg;
mod reader;
mod varint;
mod writer;

pub use batch::{decode_batch, BatchReader, BatchWriter};
pub use error::WireError;
pub use frame::{crc32, frame_len, read_frame, write_frame, FrameRead};
pub use msg::{msg_len, read_msg_from, write_msg, MsgFrame, MAX_MSG_LEN, MSG_OVERHEAD};
pub use reader::ByteReader;
pub use writer::ByteWriter;

use bytes::Bytes;

/// A type that can be marshalled into Ripple's binary wire format.
///
/// Implementations must be deterministic: encoding equal values must produce
/// equal bytes, because the engine uses encoded keys for routing and
/// deduplication.
pub trait Encode {
    /// Appends the wire representation of `self` to `w`.
    fn encode(&self, w: &mut ByteWriter);

    /// A cheap guess at the encoded size in bytes, used to pre-size buffers.
    ///
    /// It is only a capacity: too small costs a regrowth, too large is
    /// given back when the buffer is sealed.  The default is deliberately
    /// small; implementations for large values (blocks, adjacency lists)
    /// should override it, in O(1).
    fn size_hint(&self) -> usize {
        8
    }

    /// Appends the elements of `items` in order, with no length prefix:
    /// what slices, vectors and arrays encode their contents through.
    ///
    /// The bytes are those of encoding each element in turn — which is the
    /// default.  An override may only produce them faster; the primitives
    /// do, with one reservation and one tight loop.
    fn encode_seq(items: &[Self], w: &mut ByteWriter)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(w);
        }
    }

    /// [`Encode::size_hint`] for what [`Encode::encode_seq`] appends.  The
    /// default sums the elements' hints; the primitives override it with an
    /// O(1) upper bound.
    fn size_hint_seq(items: &[Self]) -> usize
    where
        Self: Sized,
    {
        items.iter().map(Encode::size_hint).sum()
    }
}

/// A type that can be unmarshalled from Ripple's binary wire format.
pub trait Decode: Sized {
    /// Reads one value from the front of `r`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if the bytes are truncated or malformed.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError>;

    /// Reads `len` consecutive values from the front of `r`: what vectors
    /// and arrays decode their contents through, the inverse of
    /// [`Encode::encode_seq`].
    ///
    /// The default decodes element by element, and is the behaviour an
    /// override must keep: the same values, the same bytes consumed, the
    /// same kind of error.  No declared length sizes an allocation beyond
    /// what the remaining bytes could hold.
    ///
    /// # Errors
    ///
    /// Returns the [`WireError`] of the first element that fails, and
    /// [`WireError::LengthOverrun`] for a hostile count of elements that
    /// occupy no bytes.
    fn decode_seq(r: &mut ByteReader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        impls::decode_seq_elementwise(r, len)
    }

    /// Consumes one value from the front of `r` without keeping it: how a
    /// reader that wants one field of a record passes over the others.
    ///
    /// The default decodes and drops.  Overrides consume the same bytes
    /// and reject what decoding rejects, without building the value —
    /// sequences, strings and options of primitives allocate nothing.
    ///
    /// # Errors
    ///
    /// As for [`Decode::decode`].
    fn skip(r: &mut ByteReader<'_>) -> Result<(), WireError> {
        Self::decode(r).map(drop)
    }

    /// Consumes `len` consecutive values from the front of `r` without
    /// keeping them: what vectors and arrays pass over their contents
    /// through, the skipping counterpart of [`Decode::decode_seq`].
    ///
    /// The default skips element by element, and is the behaviour an
    /// override must keep: the same bytes consumed, the same kind of error.
    /// The integers override it to pass over a word of varints at a time.
    ///
    /// # Errors
    ///
    /// As for [`Decode::decode_seq`].
    fn skip_seq(r: &mut ByteReader<'_>, len: usize) -> Result<(), WireError> {
        impls::skip_seq_from::<Self>(r, 0, len)
    }
}

/// Convenience alias bound for values that travel through the platform:
/// component keys, local states, BSP messages, and job outputs.
pub trait Wire: Encode + Decode + Clone + Send + 'static {}

impl<T: Encode + Decode + Clone + Send + 'static> Wire for T {}

/// Encodes a value into a freshly allocated byte buffer.
///
/// # Examples
///
/// ```
/// let bytes = ripple_wire::to_wire(&42u64);
/// assert!(!bytes.is_empty());
/// ```
pub fn to_wire<T: Encode + ?Sized>(value: &T) -> Bytes {
    let mut w = ByteWriter::with_capacity(value.size_hint());
    value.encode(&mut w);
    w.into_bytes()
}

/// [`to_wire`] through a writer the caller keeps: `scratch` is emptied,
/// `value` encoded into it, and the bytes sealed with one exact-size copy.
/// A loop that encodes many values pays no size hint per value and no
/// buffer growth after the largest one.
///
/// # Examples
///
/// ```
/// use ripple_wire::{to_wire, to_wire_via, ByteWriter};
///
/// let mut scratch = ByteWriter::new();
/// for value in [vec![1u32, 2, 3], vec![70_000]] {
///     assert_eq!(to_wire_via(&mut scratch, &value), to_wire(&value));
/// }
/// ```
pub fn to_wire_via<T: Encode + ?Sized>(scratch: &mut ByteWriter, value: &T) -> Bytes {
    scratch.clear();
    value.encode(scratch);
    Bytes::copy_from_slice(scratch.as_slice())
}

/// Encodes a *borrowed* value — typically a tuple of references — into a
/// freshly allocated byte buffer, producing bytes identical to encoding
/// the owned equivalent.
///
/// References encode transparently (`&T` forwards to `T`'s [`Encode`]), so
/// a call site that used to build `(name.clone(), key.clone(), value)` just
/// to marshal it can pass `(&name, &key, &value)` instead and skip the
/// clones.  This function is [`to_wire`] under a name that states that
/// intent at the call site.
///
/// # Examples
///
/// ```
/// use ripple_wire::{to_wire, to_wire_ref};
///
/// let name = "ranks".to_owned();
/// let key = vec![1u8, 2];
/// let owned = to_wire(&(name.clone(), key.clone(), 7u32));
/// let borrowed = to_wire_ref(&(&name, &key, 7u32));
/// assert_eq!(owned, borrowed);
/// ```
pub fn to_wire_ref<T: Encode + ?Sized>(value: &T) -> Bytes {
    to_wire(value)
}

/// Decodes a value from a byte slice, requiring that all bytes are consumed.
///
/// # Errors
///
/// Returns [`WireError::TrailingBytes`] if the value does not occupy the
/// whole slice, and other [`WireError`] variants for truncated or malformed
/// input.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), ripple_wire::WireError> {
/// let n: u64 = ripple_wire::from_wire(&ripple_wire::to_wire(&42u64))?;
/// assert_eq!(n, 42);
/// # Ok(())
/// # }
/// ```
pub fn from_wire<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = ByteReader::new(bytes);
    let value = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(value)
}

/// Decodes an encoded sequence — what a `Vec<T>` or slice encodes to —
/// handing each element to `each` as it is read instead of building the
/// vector: for a consumer that folds the elements away.  Accepts and
/// rejects what [`from_wire`]`::<Vec<T>>` does; elements seen before an
/// error have been handed over.
///
/// # Errors
///
/// As for [`from_wire`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), ripple_wire::WireError> {
/// let bytes = ripple_wire::to_wire(&vec![1u32, 2, 3]);
/// let mut sum = 0;
/// ripple_wire::from_wire_each(&bytes, |v: u32| sum += v)?;
/// assert_eq!(sum, 6);
/// # Ok(())
/// # }
/// ```
pub fn from_wire_each<T: Decode>(bytes: &[u8], each: impl FnMut(T)) -> Result<(), WireError> {
    let mut r = ByteReader::new(bytes);
    impls::decode_each(&mut r, each)?;
    if !r.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(())
}

/// Decodes a value from the front of a byte slice, returning the value and
/// the number of bytes consumed.
///
/// # Errors
///
/// Returns [`WireError`] for truncated or malformed input.
pub fn from_wire_prefix<T: Decode>(bytes: &[u8]) -> Result<(T, usize), WireError> {
    let mut r = ByteReader::new(bytes);
    let value = T::decode(&mut r)?;
    let used = bytes.len() - r.remaining();
    Ok((value, used))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_via_helpers() {
        let v = vec![(1u32, "a".to_owned()), (2, "b".to_owned())];
        let bytes = to_wire(&v);
        let back: Vec<(u32, String)> = from_wire(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_wire(&5u32).to_vec();
        bytes.push(0);
        let err = from_wire::<u32>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn prefix_reports_consumed() {
        let mut buf = to_wire(&300u64).to_vec();
        buf.extend_from_slice(&[9, 9, 9]);
        let (value, used) = from_wire_prefix::<u64>(&buf).unwrap();
        assert_eq!(value, 300);
        assert_eq!(used, buf.len() - 3);
    }
}
