//! LEB128 varints and zig-zag transforms.
//!
//! Unsigned integers are encoded little-endian, 7 bits per byte, with the
//! high bit of each byte set when more bytes follow.  Signed integers are
//! zig-zag mapped first so that small magnitudes stay short.

use crate::{ByteReader, ByteWriter, WireError};

/// Maximum number of bytes a `u64` varint can occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `value` to `w` as a LEB128 varint.
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

/// Reads a LEB128 varint from `r`.
///
/// # Errors
///
/// Returns [`WireError::VarintOverflow`] if the varint runs past 10 bytes
/// and [`WireError::UnexpectedEof`] if the input ends mid-varint.
pub fn read_u64(r: &mut ByteReader<'_>) -> Result<u64, WireError> {
    // With a whole maximum-width varint in view the input cannot end
    // mid-varint: decode from the slice, with no end-of-input check per
    // byte.
    if let Some(window) = r.rest().get(..MAX_VARINT_LEN) {
        let mut value: u64 = 0;
        for (i, &byte) in window.iter().enumerate() {
            let low = u64::from(byte & 0x7f);
            if i == MAX_VARINT_LEN - 1 && low > 1 {
                break;
            }
            value |= low << (7 * i);
            if byte & 0x80 == 0 {
                r.advance(i + 1);
                return Ok(value);
            }
        }
        return Err(WireError::VarintOverflow);
    }
    read_u64_bytewise(r)
}

/// [`read_u64`] one checked byte at a time: the path for the last few
/// bytes of an input, and the reference the slice path is tested against.
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

/// Zig-zag maps a signed integer into an unsigned one.
#[must_use]
pub fn zigzag(value: i64) -> u64 {
    // The shifts intentionally reinterpret the sign bit as a mask; the
    // transform is bijective, so wrap-around is the point.
    ((value << 1) ^ (value >> 63)).cast_unsigned()
}

/// Inverts [`zigzag`].
#[must_use]
pub fn unzigzag(value: u64) -> i64 {
    (value >> 1).cast_signed() ^ -(value & 1).cast_signed()
}

/// Number of bytes [`write_u64`] will emit for `value`.
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
