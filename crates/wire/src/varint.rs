//! LEB128 varints and zig-zag transforms.
//!
//! Unsigned integers are encoded little-endian, 7 bits per byte, with the
//! high bit of each byte set when more bytes follow.  Signed integers are
//! zig-zag mapped first so that small magnitudes stay short.

use crate::{ByteReader, ByteWriter, WireError};

/// Maximum number of bytes a `u64` varint can occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `value` to `w` as a LEB128 varint.
#[inline]
pub fn write_u64(w: &mut ByteWriter, mut value: u64) {
    // Lengths, tags and small keys: one byte, one push.
    if value < 0x80 {
        w.push((value & 0x7f) as u8);
        return;
    }
    // Two bytes (ids and lengths below 16 384): one fixed-width append,
    // so one capacity check and one length update.
    if value < 0x4000 {
        w.extend(&[(value & 0x7f) as u8 | 0x80, ((value >> 7) & 0x7f) as u8]);
        return;
    }
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            w.push(byte);
            return;
        }
        w.push(byte | 0x80);
    }
}

/// The continuation bit of every byte of a word.
const CONTINUES: u64 = 0x8080_8080_8080_8080;

/// The value of a varint of `len <= 8` bytes sitting in the low bytes of
/// `word`: drops what follows it and the continuation bits, then closes the
/// gaps between the seven-bit groups, pairwise.
#[inline]
fn word_value(word: u64, len: usize) -> u64 {
    let groups = word & (u64::MAX >> (64 - 8 * len)) & !CONTINUES;
    let pairs = (groups & 0x007f_007f_007f_007f) | ((groups & 0x7f00_7f00_7f00_7f00) >> 1);
    let quads = (pairs & 0x0000_3fff_0000_3fff) | ((pairs & 0x3fff_0000_3fff_0000) >> 2);
    (quads & 0x0fff_ffff) | ((quads & 0x0fff_ffff_0000_0000) >> 4)
}

/// Reads a LEB128 varint from `r`.
///
/// # Errors
///
/// Returns [`WireError::VarintOverflow`] if the varint runs past 10 bytes
/// and [`WireError::UnexpectedEof`] if the input ends mid-varint.
#[inline]
pub fn read_u64(r: &mut ByteReader<'_>) -> Result<u64, WireError> {
    // With eight bytes in view, a varint that ends among them is cut out
    // of one word, with no end-of-input check per byte and no branch on
    // its width.
    if let Some(head) = r.rest().first_chunk::<8>() {
        let word = u64::from_le_bytes(*head);
        let ends = !word & CONTINUES;
        if ends != 0 {
            let len = ends.trailing_zeros() as usize / 8 + 1;
            r.advance(len);
            return Ok(word_value(word, len));
        }
    }
    read_u64_bytewise(r)
}

/// [`read_u64`] one checked byte at a time: the path for the last few
/// bytes of an input and for nine- and ten-byte varints, and the reference
/// the word paths are tested against.
#[inline]
fn read_u64_bytewise(r: &mut ByteReader<'_>) -> Result<u64, WireError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for _ in 0..MAX_VARINT_LEN {
        let byte = r.read_byte()?;
        let low = u64::from(byte & 0x7f);
        if shift == 63 && low > 1 {
            return Err(WireError::VarintOverflow);
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
    Err(WireError::VarintOverflow)
}

/// Bytes [`write_all`] stages on the stack between appends.
const STAGE: usize = 256;

/// Values below this limit encode in at most five bytes, which
/// [`write_all`] lays out as one word.
const WORD_LIMIT: u64 = 1 << 35;

/// Appends `values` as consecutive varints of at most `max_len` bytes each
/// — the bytes of one [`write_u64`] per value.  One reservation for the
/// lot; the bytes are staged on the stack, so the loop touches the writer
/// once per [`STAGE`] and not per byte; and a value below [`WORD_LIMIT`]
/// is laid out without a branch on its width, which in real id lists
/// varies from one element to the next and mispredicts.
#[inline]
pub(crate) fn write_all(
    values: impl ExactSizeIterator<Item = u64>,
    max_len: usize,
    w: &mut ByteWriter,
) {
    w.reserve(values.len().saturating_mul(max_len));
    let mut staged = [0u8; STAGE];
    let mut at = 0;
    for mut value in values {
        if at > STAGE - MAX_VARINT_LEN {
            w.extend(&staged[..at]);
            at = 0;
        }
        if value < WORD_LIMIT {
            // Seven bits to a byte, then the continuation bit on every
            // byte but the last.
            let groups = (value & 0x7f)
                | ((value & (0x7f << 7)) << 1)
                | ((value & (0x7f << 14)) << 2)
                | ((value & (0x7f << 21)) << 3)
                | ((value & (0x7f << 28)) << 4);
            let len = (71 - (groups | 1).leading_zeros() as usize) / 8;
            let word = groups | (0x80_8080_8080 & ((1 << (8 * (len - 1))) - 1));
            staged[at..at + 8].copy_from_slice(&word.to_le_bytes());
            at += len;
            continue;
        }
        while value >= 0x80 {
            staged[at] = (value & 0x7f) as u8 | 0x80;
            value >>= 7;
            at += 1;
        }
        staged[at] = (value & 0x7f) as u8;
        at += 1;
    }
    w.extend(&staged[..at]);
}

/// Fills `out` with consecutive varints from the front of `rest`, each
/// mapped through `narrow`, and advances `rest` past them: one
/// [`read_u64`] per slot, as a loop small enough to inline.
///
/// Where the next value starts depends on the width of this one, and that
/// chain from load to load is what bounds a varint loop; so each load of
/// eight bytes yields two values when it holds two whole varints.  Near
/// the end of the input the eight bytes are zero-padded: padding reads as
/// varints that end at once and is never consumed, so a short list at the
/// tail of a record decodes like any other.  Varints of nine and ten
/// bytes, and every error, go through the bytewise loop.
#[inline]
pub(crate) fn read_all<T>(
    rest: &mut &[u8],
    out: &mut [T],
    narrow: impl Fn(u64) -> Result<T, WireError>,
) -> Result<(), WireError> {
    let mut at = 0;
    while at < out.len() {
        let (word, present) = if let Some(head) = rest.first_chunk::<8>() {
            (u64::from_le_bytes(*head), 8)
        } else {
            let mut padded = [0u8; 8];
            padded[..rest.len()].copy_from_slice(rest);
            (u64::from_le_bytes(padded), rest.len())
        };
        // A word of continuation bits has no end: 64 / 8 + 1 is past it.
        let ends = !word & CONTINUES;
        let first = ends.trailing_zeros() as usize / 8 + 1;
        if first > present {
            let mut r = ByteReader::new(rest);
            out[at] = narrow(read_u64_bytewise(&mut r)?)?;
            at += 1;
            *rest = r.rest();
            continue;
        }
        out[at] = narrow(word_value(word, first))?;
        at += 1;
        let both = (ends & (ends - 1)).trailing_zeros() as usize / 8 + 1;
        if both <= present && at < out.len() {
            out[at] = narrow(word_value(word >> (8 * first), both - first))?;
            at += 1;
            *rest = &rest[both..];
        } else {
            *rest = &rest[first..];
        }
    }
    Ok(())
}

/// Passes over up to `len` consecutive varints at the front of `rest` and
/// returns how many it passed: a word of eight bytes at a time, counting
/// the bytes that end a varint and stepping past the last of them it
/// keeps.  It passes only varints that a type of at most `max_len` bytes,
/// whose last byte holds `top` value bits, decodes: a longer varint, a
/// last byte out of range or a varint the input does not end stops the
/// pass before the word that holds it.  The caller skips what is left one
/// value at a time, which reports any error as decoding does.
#[inline]
pub(crate) fn skip_all(rest: &mut &[u8], len: usize, max_len: usize, top: u32) -> usize {
    // The value bits a last byte must not carry.
    let high = 0x7f & !((1u64 << top) - 1);
    let mut done = 0;
    while done < len && !rest.is_empty() {
        let (word, present) = if let Some(head) = rest.first_chunk::<8>() {
            (u64::from_le_bytes(*head), 8)
        } else {
            let mut padded = [0u8; 8];
            padded[..rest.len()].copy_from_slice(rest);
            (u64::from_le_bytes(padded), rest.len())
        };
        let mut ends = !word & CONTINUES & (u64::MAX >> (64 - 8 * present));
        let wanted = len - done;
        if ends.count_ones() as usize > wanted {
            // Keep the first `wanted` ends only (fewer than eight).
            let mut keep = ends;
            for _ in 1..wanted {
                keep &= keep - 1;
            }
            let last = keep & keep.wrapping_neg();
            ends &= (last << 1).wrapping_sub(1);
        }
        if ends == 0 {
            break;
        }
        let used = (64 - ends.leading_zeros() as usize) / 8;
        if max_len <= 8 {
            // Mark each varint's `max_len`-th byte: it must end the varint
            // and carry no value bit above `top`.
            let more = word & CONTINUES & (u64::MAX >> (64 - 8 * used));
            let mut run = more;
            for k in 1..max_len - 1 {
                run &= more << (8 * k);
            }
            let last = run << 8;
            if last & more != 0 || word & ((last >> 7) * high) != 0 {
                break;
            }
        }
        done += ends.count_ones() as usize;
        *rest = &rest[used..];
    }
    done
}

/// Zig-zag maps a signed integer into an unsigned one.
#[inline]
#[must_use]
pub fn zigzag(value: i64) -> u64 {
    // The shifts intentionally reinterpret the sign bit as a mask; the
    // transform is bijective, so wrap-around is the point.
    ((value << 1) ^ (value >> 63)).cast_unsigned()
}

/// Inverts [`zigzag`].
#[inline]
#[must_use]
pub fn unzigzag(value: u64) -> i64 {
    (value >> 1).cast_signed() ^ -(value & 1).cast_signed()
}

/// Number of bytes [`write_u64`] will emit for `value`.
#[inline]
#[must_use]
pub fn varint_len(value: u64) -> usize {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) -> u64 {
        let mut w = ByteWriter::new();
        write_u64(&mut w, v);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), varint_len(v));
        let mut r = ByteReader::new(&bytes);
        let back = read_u64(&mut r).unwrap();
        assert!(r.is_empty());
        back
    }

    #[test]
    fn roundtrips_edge_values() {
        for v in [
            0,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn zigzag_roundtrips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -12345] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn truncated_varint_is_eof() {
        let mut w = ByteWriter::new();
        write_u64(&mut w, u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 1]);
        assert!(matches!(
            read_u64(&mut r),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn overlong_varint_rejected() {
        // Eleven continuation bytes can never be a valid u64 varint.
        let bytes = [0xffu8; 11];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_u64(&mut r), Err(WireError::VarintOverflow));
    }

    #[test]
    fn tenth_byte_overflow_rejected() {
        // 10 bytes whose top bits would exceed 64 bits of payload.
        let bytes = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_u64(&mut r), Err(WireError::VarintOverflow));
    }

    /// [`write_u64`] as it was before the fast paths, one push per byte:
    /// the format's reference.
    fn write_u64_bytewise(w: &mut ByteWriter, mut value: u64) {
        loop {
            let byte = (value & 0x7f) as u8;
            value >>= 7;
            if value == 0 {
                w.push(byte);
                return;
            }
            w.push(byte | 0x80);
        }
    }

    proptest::proptest! {
        /// The fast paths emit the bytewise loop's bytes for any value of
        /// any width.
        #[test]
        fn write_equals_bytewise(value: u64, width in 0u32..64) {
            let value = value >> width;
            let (mut fast, mut slow) = (ByteWriter::new(), ByteWriter::new());
            fast.push(0xAA);
            write_u64(&mut fast, value);
            slow.push(0xAA);
            write_u64_bytewise(&mut slow, value);
            proptest::prop_assert_eq!(fast.as_slice(), slow.as_slice());
        }

        /// The slice path decodes what the bytewise loop decodes — values,
        /// overflows, truncations — from arbitrary bytes at any distance
        /// from the end of the input, and leaves the cursor where it does.
        #[test]
        fn read_equals_bytewise(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24),
            stop in 0usize..24,
        ) {
            // Arbitrary bytes rarely end a varint early; clear one
            // continuation bit so every length occurs.
            let mut bytes = bytes;
            if let Some(byte) = bytes.get_mut(stop) {
                *byte &= 0x7f;
            }
            let (mut fast, mut slow) = (ByteReader::new(&bytes), ByteReader::new(&bytes));
            let (got, expected) = (read_u64(&mut fast), read_u64_bytewise(&mut slow));
            proptest::prop_assert_eq!(&got, &expected);
            if expected.is_ok() {
                proptest::prop_assert_eq!(fast.remaining(), slow.remaining());
            }
        }
    }

    proptest::proptest! {
        /// The staged, word-at-a-time sequence writer emits one
        /// [`write_u64`] per value: across stage flushes, and on both
        /// sides of the word limit.
        #[test]
        fn write_all_equals_write_u64(
            values in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), 0u32..64),
                0..120,
            ),
        ) {
            let values: Vec<u64> = values.into_iter().map(|(v, width)| v >> width).collect();
            let (mut fast, mut slow) = (ByteWriter::new(), ByteWriter::new());
            fast.push(0xAA);
            write_all(values.iter().copied(), MAX_VARINT_LEN, &mut fast);
            slow.push(0xAA);
            for &value in &values {
                write_u64(&mut slow, value);
            }
            proptest::prop_assert_eq!(fast.as_slice(), slow.as_slice());
        }

        /// The word-at-a-time sequence reader reads what the bytewise loop
        /// reads, slot by slot — values, overflows, truncations — from
        /// arbitrary bytes, and stops where it stops.
        #[test]
        fn read_all_equals_bytewise(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            clear in proptest::collection::vec(0usize..64, 0..24),
            slots in 0usize..20,
        ) {
            // Arbitrary bytes rarely end a varint; clear some continuation
            // bits so that every mix of widths occurs.
            let mut bytes = bytes;
            for at in clear {
                if let Some(byte) = bytes.get_mut(at) {
                    *byte &= 0x7f;
                }
            }
            let mut rest = &bytes[..];
            let mut fast = vec![0u64; slots];
            let got = read_all(&mut rest, &mut fast, Ok);
            let mut r = ByteReader::new(&bytes);
            let expected: Result<Vec<u64>, WireError> =
                (0..slots).map(|_| read_u64_bytewise(&mut r)).collect();
            match expected {
                Ok(values) => {
                    proptest::prop_assert_eq!(got, Ok(()));
                    proptest::prop_assert_eq!(fast, values);
                    proptest::prop_assert_eq!(rest.len(), r.remaining());
                }
                Err(e) => proptest::prop_assert_eq!(got, Err(e)),
            }
        }
    }

    proptest::proptest! {
        /// The word-at-a-time pass only passes varints the bytewise loop
        /// reads within the type's width, stops where they end, and leaves
        /// at most one word's worth unsettled before an error.
        #[test]
        fn skip_all_passes_what_decodes(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            clear in proptest::collection::vec(0usize..64, 0..40),
            len in 0usize..40,
            pick in 0usize..4,
        ) {
            let mut bytes = bytes;
            for at in clear {
                if let Some(byte) = bytes.get_mut(at) {
                    *byte &= 0x7f;
                }
            }
            // The widths of u8, u16, u32 and u64: bytes, last byte's bits.
            let (max_len, top) = [(2, 1), (3, 2), (5, 4), (10, 1)][pick];
            let bits = 7 * (max_len - 1) + top as usize;
            let limit = u64::MAX >> (64 - bits);
            let mut rest = &bytes[..];
            let passed = skip_all(&mut rest, len, max_len, top);
            proptest::prop_assert!(passed <= len);
            let mut r = ByteReader::new(&bytes);
            for _ in 0..passed {
                let value = read_u64_bytewise(&mut r);
                proptest::prop_assert!(matches!(value, Ok(v) if v <= limit));
            }
            proptest::prop_assert_eq!(rest.len(), r.remaining());
        }
    }

    #[test]
    fn skip_all_passes_whole_words_of_wide_values() {
        // u32::MAX is five bytes; 2^32 is five bytes and out of range.
        let mut w = ByteWriter::new();
        for v in [
            1u64,
            u64::from(u32::MAX),
            300,
            u64::from(u32::MAX),
            7,
            1 << 32,
            5,
        ] {
            write_u64(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut rest = &bytes[..];
        let passed = skip_all(&mut rest, 7, 5, 4);
        assert_eq!(passed, 5, "stops at the word of the out-of-range value");
        let mut rest = &bytes[..];
        assert_eq!(skip_all(&mut rest, 7, 10, 1), 7, "a u64 list passes whole");
        assert!(rest.is_empty());
        // Longer than the type allows, with an in-range byte where the
        // last would be: 2^35 as a u32, 2^14 as a u8.
        for (bytes, max_len, top) in [
            (&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01][..], 5, 4),
            (&[0x80, 0x80, 0x01][..], 2, 1),
        ] {
            let mut rest = bytes;
            assert_eq!(skip_all(&mut rest, 1, max_len, top), 0);
            assert_eq!(rest.len(), bytes.len());
        }
    }

    #[test]
    fn varint_len_matches_observed() {
        for shift in 0..64 {
            let v = 1u64 << shift;
            let mut w = ByteWriter::new();
            write_u64(&mut w, v);
            assert_eq!(w.len(), varint_len(v), "shift {shift}");
        }
    }
}
