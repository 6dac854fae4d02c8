//! Property tests: every wire codec roundtrips, and decoding never panics on
//! arbitrary bytes.

use bytes::Bytes;
use proptest::collection::{btree_map, hash_map, vec};
use proptest::prelude::*;
use ripple_wire::{
    decode_batch, from_wire, from_wire_each, from_wire_prefix, to_wire, BatchReader, BatchWriter,
    ByteReader, ByteWriter, Decode, Encode, WireError,
};

fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = to_wire(v);
    let back: T = from_wire(&bytes).expect("roundtrip decode");
    assert_eq!(&back, v);
}

proptest! {
    #[test]
    fn u64_roundtrip(v: u64) { roundtrip(&v); }

    #[test]
    fn i64_roundtrip(v: i64) { roundtrip(&v); }

    #[test]
    fn u32_roundtrip(v: u32) { roundtrip(&v); }

    #[test]
    fn i32_roundtrip(v: i32) { roundtrip(&v); }

    #[test]
    fn f64_roundtrip(v: f64) {
        let bytes = to_wire(&v);
        let back: f64 = from_wire(&bytes).unwrap();
        assert_eq!(v.to_bits(), back.to_bits());
    }

    #[test]
    fn string_roundtrip(v: String) { roundtrip(&v); }

    #[test]
    fn vec_i64_roundtrip(v in vec(any::<i64>(), 0..64)) { roundtrip(&v); }

    #[test]
    fn vec_string_roundtrip(v in vec(any::<String>(), 0..16)) { roundtrip(&v); }

    #[test]
    fn nested_roundtrip(v in vec(vec(any::<u32>(), 0..8), 0..8)) { roundtrip(&v); }

    #[test]
    fn tuple_roundtrip(v: (u64, i32, String, Option<bool>)) { roundtrip(&v); }

    #[test]
    fn hashmap_roundtrip(v in hash_map(any::<u32>(), any::<String>(), 0..16)) {
        roundtrip(&v);
    }

    #[test]
    fn btreemap_roundtrip(v in btree_map(any::<String>(), any::<i64>(), 0..16)) {
        roundtrip(&v);
    }

    #[test]
    fn option_vec_roundtrip(v: Option<Vec<u16>>) { roundtrip(&v); }

    /// Decoding arbitrary garbage must fail cleanly, never panic or hang.
    #[test]
    fn decode_garbage_never_panics(bytes in vec(any::<u8>(), 0..256)) {
        let _ = from_wire::<u64>(&bytes);
        let _ = from_wire::<String>(&bytes);
        let _ = from_wire::<Vec<u64>>(&bytes);
        let _ = from_wire::<Vec<String>>(&bytes);
        let _ = from_wire::<(u32, String)>(&bytes);
        let _ = from_wire::<Option<Vec<i64>>>(&bytes);
    }

    /// Encoding is deterministic: equal values give identical bytes.
    #[test]
    fn encoding_deterministic(v in vec(any::<i64>(), 0..32)) {
        let a = to_wire(&v);
        let b = to_wire(&v.clone());
        prop_assert_eq!(a, b);
    }

    /// Any list of byte records — including the empty batch and single
    /// records — survives the batch framing byte-for-byte.
    #[test]
    fn batch_roundtrip(records in vec(vec(any::<u8>(), 0..64), 0..64)) {
        let mut w = BatchWriter::new();
        for r in &records {
            w.record_bytes(r);
        }
        prop_assert_eq!(w.len(), records.len());
        let bytes = w.finish();
        let back = decode_batch(&bytes).unwrap();
        prop_assert_eq!(back.len(), records.len());
        for (a, b) in records.iter().zip(back) {
            prop_assert_eq!(&a[..], b);
        }
    }

    /// Encoded-record and raw-record appends produce identical batches.
    #[test]
    fn batch_record_matches_record_bytes(values in vec(any::<(u32, String)>(), 0..32)) {
        let mut a = BatchWriter::new();
        let mut b = BatchWriter::new();
        for v in &values {
            a.record(v);
            b.record_bytes(&to_wire(v));
        }
        prop_assert_eq!(a.finish(), b.finish());
    }

    /// Cutting a non-empty batch anywhere must be rejected, never decoded
    /// as a shorter batch — the count header catches record-boundary cuts.
    #[test]
    fn batch_truncated_tail_rejected(records in vec(vec(any::<u8>(), 0..32), 1..16)) {
        let mut w = BatchWriter::new();
        for r in &records {
            w.record_bytes(r);
        }
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            prop_assert!(decode_batch(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
    }

    /// Reading arbitrary garbage as a batch fails cleanly, never panics.
    #[test]
    fn batch_garbage_never_panics(bytes in vec(any::<u8>(), 0..256)) {
        if let Ok(reader) = BatchReader::new(&bytes) {
            for record in reader {
                if record.is_err() {
                    break;
                }
            }
        }
    }

    /// Concatenated values decode back in order via prefix decoding.
    #[test]
    fn prefix_decode_sequences(a: u64, b: String, c in vec(any::<i32>(), 0..8)) {
        let mut buf = to_wire(&a).to_vec();
        buf.extend_from_slice(&to_wire(&b));
        buf.extend_from_slice(&to_wire(&c));
        let (a2, n1) = from_wire_prefix::<u64>(&buf).unwrap();
        let (b2, n2) = from_wire_prefix::<String>(&buf[n1..]).unwrap();
        let (c2, n3) = from_wire_prefix::<Vec<i32>>(&buf[n1 + n2..]).unwrap();
        prop_assert_eq!(a, a2);
        prop_assert_eq!(b, b2);
        prop_assert_eq!(c, c2);
        prop_assert_eq!(n1 + n2 + n3, buf.len());
    }
}

// ---------------------------------------------------------------------------
// Sequence paths and `skip` against the element-wise reference
// ---------------------------------------------------------------------------

/// `T` with `encode`/`decode` only: the sequence hooks and `skip` keep
/// their element-wise defaults, so `Vec<Elementwise<T>>` is the reference
/// the primitives' overrides are held to.
#[derive(Debug, Clone, PartialEq)]
struct Elementwise<T>(T);

impl<T: Encode> Encode for Elementwise<T> {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
    }
}

impl<T: Decode> Decode for Elementwise<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        T::decode(r).map(Self)
    }
}

/// What decoding `bytes` as a `T` comes to: the value re-encoded (equal
/// bytes are equal values, NaN payloads included) and the bytes consumed,
/// or the kind of error.
fn outcome<T: Encode + Decode>(
    bytes: &[u8],
) -> Result<(Bytes, usize), std::mem::Discriminant<WireError>> {
    match from_wire_prefix::<T>(bytes) {
        Ok((value, used)) => Ok((to_wire(&value), used)),
        Err(e) => Err(std::mem::discriminant(&e)),
    }
}

/// The bytes consumed by passing over a `T` at the front of `bytes`, or
/// the kind of error.
fn skipped<T: Decode>(bytes: &[u8]) -> Result<usize, std::mem::Discriminant<WireError>> {
    let mut r = ByteReader::new(bytes);
    match T::skip(&mut r) {
        Ok(()) => Ok(bytes.len() - r.remaining()),
        Err(e) => Err(std::mem::discriminant(&e)),
    }
}

/// Integers of every encoded width, not only the extremes `any` favours:
/// an arbitrary `T` shifted right by up to its `bits`.
fn widths<T>(bits: u32) -> impl Strategy<Value = T>
where
    T: Arbitrary + std::ops::Shr<u32, Output = T>,
{
    (any::<T>(), 0..bits).prop_map(|(raw, shift)| raw >> shift)
}

/// A declared length in front of `body`: honest-looking, past the bytes
/// present, or absurd.
fn declared(body: &[u8], pick: u64) -> Vec<u8> {
    let len = match pick % 4 {
        0 => pick % 8,
        1 => body.len() as u64 / 2,
        2 => body.len() as u64 + 1 + pick % 64,
        _ => u64::MAX - pick % 3,
    };
    let mut bytes = to_wire(&len).to_vec();
    bytes.extend_from_slice(body);
    bytes
}

/// For one primitive: the sequence path is the element-wise path — in the
/// bytes it writes, the values it reads, where it stops, and the kind of
/// error it reports for any input — and its size hint is an upper bound.
macro_rules! sequence_path_is_elementwise {
    ($($name:ident: $t:ty = $values:expr;)*) => {$(
        mod $name {
            use super::*;

            proptest! {
                #[test]
                fn same_bytes_and_values(values in vec($values, 0..200)) {
                    let reference: Vec<Elementwise<$t>> =
                        values.iter().copied().map(Elementwise).collect();
                    let bytes = to_wire(&values);
                    prop_assert_eq!(&bytes, &to_wire(&reference));
                    prop_assert!(values.size_hint() >= bytes.len());
                    prop_assert_eq!(outcome::<Vec<$t>>(&bytes), Ok((bytes.clone(), bytes.len())));
                    prop_assert_eq!(
                        outcome::<Vec<Elementwise<$t>>>(&bytes),
                        Ok((bytes.clone(), bytes.len()))
                    );
                    // Arrays share the hooks, without the length prefix.
                    if let Ok(array) = <[$t; 3]>::try_from(&values[..values.len().min(3)]) {
                        let reference = array.map(Elementwise);
                        let bytes = to_wire(&array);
                        prop_assert_eq!(&bytes, &to_wire(&reference));
                        prop_assert_eq!(outcome::<[$t; 3]>(&bytes), Ok((bytes.clone(), bytes.len())));
                    }
                    // Exactly the validated length is allocated.
                    let back: Vec<$t> = from_wire(&bytes).unwrap();
                    prop_assert_eq!(back.capacity(), back.len());
                }

                #[test]
                fn same_outcome_on_truncated_input(values in vec($values, 1..40), cut: usize) {
                    let bytes = to_wire(&values);
                    let cut = &bytes[..cut % bytes.len()];
                    prop_assert_eq!(
                        outcome::<Vec<$t>>(cut),
                        outcome::<Vec<Elementwise<$t>>>(cut)
                    );
                    prop_assert_eq!(skipped::<Vec<$t>>(cut), skipped::<Vec<Elementwise<$t>>>(cut));
                }

                /// Arbitrary bytes — over-long varints, values out of the
                /// type's range, bad tags — behind honest and hostile
                /// declared lengths.
                #[test]
                fn same_outcome_on_arbitrary_input(
                    body in vec(prop_oneof![any::<u8>(), (0u8..128).prop_map(|b| b | 0x80), 0u8..2], 0..48),
                    pick: u64,
                ) {
                    let bytes = declared(&body, pick);
                    prop_assert_eq!(
                        outcome::<Vec<$t>>(&bytes),
                        outcome::<Vec<Elementwise<$t>>>(&bytes)
                    );
                    prop_assert_eq!(
                        skipped::<Vec<$t>>(&bytes),
                        skipped::<Vec<Elementwise<$t>>>(&bytes)
                    );
                }

                /// Wider values than the type holds, honestly encoded.
                #[test]
                fn same_outcome_on_wide_values(values in vec(widths::<u64>(64), 0..24)) {
                    let bytes = to_wire(&values);
                    prop_assert_eq!(
                        outcome::<Vec<$t>>(&bytes),
                        outcome::<Vec<Elementwise<$t>>>(&bytes)
                    );
                }
            }
        }
    )*};
}

sequence_path_is_elementwise! {
    seq_u8: u8 = widths::<u8>(8);
    seq_u16: u16 = widths::<u16>(16);
    seq_u32: u32 = widths::<u32>(32);
    seq_u64: u64 = widths::<u64>(64);
    seq_usize: usize = widths::<usize>(usize::BITS);
    seq_i8: i8 = widths::<i8>(8);
    seq_i16: i16 = widths::<i16>(16);
    seq_i32: i32 = widths::<i32>(32);
    seq_i64: i64 = widths::<i64>(64);
    seq_f32: f32 = any::<f32>();
    seq_f64: f64 = any::<f64>();
    seq_bool: bool = any::<bool>();
}

ripple_wire::wire_struct! {
    /// A record shaped like the graph states: lists first, a scalar last.
    #[derive(Debug, Clone, PartialEq)]
    struct Record {
        ids: Vec<u32>,
        weights: Vec<f64>,
        label: Option<String>,
        flags: [bool; 2],
        dist: i64,
    }
}

/// A record inside the containers that override `skip`.
type Value = (Record, Bytes, Box<u16>);

proptest! {
    /// Passing over a value consumes what decoding it consumes, through
    /// every container that overrides `skip`; and stops on what decoding
    /// stops on.
    #[test]
    fn skip_consumes_what_decode_consumes(
        ids in vec(widths::<u32>(32), 0..40),
        weights in vec(any::<f64>(), 0..8),
        label: Option<String>,
        flags: (bool, bool),
        dist: i64,
        raw in vec(any::<u8>(), 0..16),
        cut: usize,
    ) {
        let record = Record { ids, weights, label, flags: [flags.0, flags.1], dist };
        let value: Value = (record, Bytes::from(raw.clone()), Box::new(7));
        let mut bytes = to_wire(&value).to_vec();
        let len = bytes.len();
        bytes.extend_from_slice(&raw);
        prop_assert_eq!(skipped::<Value>(&bytes), Ok(len));
        prop_assert_eq!(skipped::<Elementwise<Value>>(&bytes), Ok(len));
        let cut = &bytes[..cut % len];
        prop_assert_eq!(skipped::<Value>(cut), skipped::<Elementwise<Value>>(cut));
        prop_assert_eq!(
            skipped::<Value>(&raw),
            skipped::<Elementwise<Value>>(&raw)
        );
    }
}

proptest! {
    /// Element-at-a-time decoding hands over what `from_wire::<Vec<T>>`
    /// returns, and fails as it fails — trailing bytes included.
    #[test]
    fn each_matches_the_whole_vector(
        values in vec(any::<(u32, String)>(), 0..16),
        raw in vec(any::<u8>(), 0..32),
        pick: u64,
    ) {
        type Item = (u32, String);
        let mut seen = Vec::new();
        from_wire_each(&to_wire(&values), |item: Item| seen.push(item)).unwrap();
        prop_assert_eq!(seen, values);
        let kind = |e: WireError| std::mem::discriminant(&e);
        let garbage = declared(&raw, pick);
        prop_assert_eq!(
            from_wire_each(&garbage, |_: Item| ()).map_err(kind),
            from_wire::<Vec<Item>>(&garbage).map(drop).map_err(kind)
        );
    }
}

/// Invalid UTF-8 stops a skip as it stops a decode.
#[test]
fn skip_rejects_what_decode_rejects() {
    let bad_string = [2, 0xff, 0xfe];
    assert_eq!(
        skipped::<String>(&bad_string),
        skipped::<Elementwise<String>>(&bad_string)
    );
    assert!(skipped::<String>(&bad_string).is_err());
    let bad_option = [7];
    assert_eq!(
        skipped::<Option<u32>>(&bad_option),
        skipped::<Elementwise<Option<u32>>>(&bad_option)
    );
}

/// A length far past the bytes present is an error, not an allocation.
#[test]
fn hostile_lengths_allocate_nothing() {
    for declared in [1u64 << 40, u64::MAX / 8, u64::MAX] {
        let mut bytes = to_wire(&declared).to_vec();
        bytes.extend_from_slice(&[1; 9]);
        assert!(from_wire::<Vec<u32>>(&bytes).is_err());
        assert!(from_wire::<Vec<f64>>(&bytes).is_err());
        assert!(from_wire::<Vec<bool>>(&bytes).is_err());
        assert!(from_wire::<Vec<(u32, u32)>>(&bytes).is_err());
        assert!(skipped::<Vec<u64>>(&bytes).is_err());
    }
}

/// A long honest list is allocated once, at its length.
#[test]
fn long_lists_are_allocated_exactly() {
    let ids: Vec<u32> = (0..70_000).collect();
    let back: Vec<u32> = from_wire(&to_wire(&ids)).unwrap();
    assert_eq!(back, ids);
    assert_eq!(back.capacity(), ids.len());
    let reals: Vec<f64> = ids.iter().map(|&v| f64::from(v)).collect();
    let back: Vec<f64> = from_wire(&to_wire(&reals)).unwrap();
    assert_eq!(back.capacity(), reals.len());
}

/// A batch far past 64k records — crossing every internal growth boundary —
/// roundtrips with records intact, and truncating its tail is rejected.
#[test]
fn huge_batch_roundtrips() {
    const N: u32 = 70_000;
    let mut w = BatchWriter::new();
    for i in 0..N {
        w.record(&(i, u64::from(i) * 3));
    }
    assert_eq!(w.len(), N as usize);
    let bytes = w.finish();
    let mut reader = BatchReader::new(&bytes).unwrap();
    assert_eq!(reader.expected(), u64::from(N));
    for i in 0..N {
        let slice = reader.next().unwrap().unwrap();
        let (a, b): (u32, u64) = from_wire(slice).unwrap();
        assert_eq!((a, b), (i, u64::from(i) * 3));
    }
    assert!(reader.next().is_none());
    // A tail cut mid-way through the record area is rejected.
    assert!(decode_batch(&bytes[..bytes.len() - 1]).is_err());
    assert!(decode_batch(&bytes[..bytes.len() / 2]).is_err());
}
