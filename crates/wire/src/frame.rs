//! Checksummed record frames for append-only logs.
//!
//! A frame wraps an opaque payload for storage in a write-ahead log:
//!
//! ```text
//! +----------------+---------------+----------------+
//! | length varint  | payload bytes | CRC32 (LE u32) |
//! +----------------+---------------+----------------+
//! ```
//!
//! The length is a LEB128 varint counting payload bytes only; the
//! checksum is CRC-32 (IEEE 802.3 polynomial) over the payload.  The
//! format is designed for logs that may be cut off mid-write by a crash:
//! [`read_frame`] distinguishes a *clean end* (the previous frame ended
//! exactly at the end of input), a *torn tail* (the input ends inside a
//! frame — the normal aftermath of an interrupted append), and a
//! *corrupt frame* (complete but failing its checksum).  Readers replay
//! every intact frame and truncate at the first torn or corrupt one.

use crate::{varint, ByteReader, ByteWriter};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) slicing-by-8
/// lookup tables, built at compile time.  `CRC_TABLES[0]` is the classic
/// bytewise table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, which lets eight input bytes fold in one step.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0u32;
    while i < 256 {
        let mut c = i;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i as usize] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Folds `data` into the running (pre-inverted) CRC state one byte at a
/// time: the tail step of [`crc32`], and the reference the sliced loop is
/// tested against.
fn crc32_bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) of `data`, as used by frame checksums.
///
/// Every message frame and WAL record is checksummed, so this runs over
/// every byte the system moves; it folds eight bytes per step
/// (slicing-by-8) and finishes the tail bytewise.
///
/// # Examples
///
/// ```
/// assert_eq!(ripple_wire::crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xff) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xff) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    crc32_bytewise(c, chunks.remainder()) ^ 0xFFFF_FFFF
}

/// Appends one frame wrapping `payload` to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let mut header = ByteWriter::with_capacity(varint::MAX_VARINT_LEN);
    varint::write_u64(&mut header, payload.len() as u64);
    out.extend_from_slice(header.as_slice());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Total bytes [`write_frame`] emits for a payload of `payload_len` bytes.
#[must_use]
pub fn frame_len(payload_len: usize) -> usize {
    varint::varint_len(payload_len as u64) + payload_len + 4
}

/// The outcome of reading one frame from `buf` at `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRead<'a> {
    /// A complete frame with a valid checksum; `next` is the offset just
    /// past it.
    Frame {
        /// The frame's payload bytes.
        payload: &'a [u8],
        /// Offset of the byte after this frame.
        next: usize,
    },
    /// `offset` is exactly the end of the input: the log ends cleanly.
    End,
    /// The input ends inside a frame — a torn tail from an interrupted
    /// append.  Everything before `offset` is intact.
    Torn,
    /// A complete frame whose checksum does not match its payload.
    Corrupt,
}

/// Reads the frame starting at `offset` in `buf`.
///
/// Never panics on malformed input; a length varint that is itself
/// damaged (overlong, or implying a frame past the end of input) reads as
/// [`FrameRead::Torn`], since the log is unusable from that point either
/// way and readers truncate there.
#[must_use]
pub fn read_frame(buf: &[u8], offset: usize) -> FrameRead<'_> {
    if offset >= buf.len() {
        return FrameRead::End;
    }
    let mut r = ByteReader::new(&buf[offset..]);
    let Ok(len) = varint::read_u64(&mut r) else {
        // Both a cut-off varint and a damaged (overlong) one truncate the
        // log here.
        return FrameRead::Torn;
    };
    let body = offset + (buf.len() - offset - r.remaining());
    let Some(len) = usize::try_from(len).ok().filter(|l| {
        buf.len()
            .checked_sub(body + 4)
            .is_some_and(|avail| *l <= avail)
    }) else {
        return FrameRead::Torn;
    };
    let payload = &buf[body..body + len];
    let stored = u32::from_le_bytes([
        buf[body + len],
        buf[body + len + 1],
        buf[body + len + 2],
        buf[body + len + 3],
    ]);
    if crc32(payload) != stored {
        return FrameRead::Corrupt;
    }
    FrameRead::Frame {
        payload,
        next: body + len + 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Long enough to take the eight-bytes-per-step path.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    proptest::proptest! {
        /// The sliced loop agrees with the bytewise one on any input, at
        /// any alignment and any tail length.
        #[test]
        fn crc32_sliced_equals_bytewise(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            skip in 0usize..9,
        ) {
            let data = &data[skip.min(data.len())..];
            let bytewise = crc32_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF;
            proptest::prop_assert_eq!(crc32(data), bytewise);
        }
    }

    #[test]
    fn frames_roundtrip_in_sequence() {
        let payloads: [&[u8]; 4] = [b"", b"a", b"hello world", &[0xffu8; 300]];
        let mut log = Vec::new();
        for p in payloads {
            write_frame(&mut log, p);
        }
        let mut offset = 0;
        let mut seen = Vec::new();
        loop {
            match read_frame(&log, offset) {
                FrameRead::Frame { payload, next } => {
                    seen.push(payload.to_vec());
                    offset = next;
                }
                FrameRead::End => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen.len(), payloads.len());
        for (got, want) in seen.iter().zip(payloads) {
            assert_eq!(got.as_slice(), want);
        }
    }

    #[test]
    fn frame_len_matches_written() {
        for len in [0usize, 1, 127, 128, 1000] {
            let mut out = Vec::new();
            write_frame(&mut out, &vec![7u8; len]);
            assert_eq!(out.len(), frame_len(len));
        }
    }

    #[test]
    fn every_truncation_is_torn_never_panic() {
        let mut log = Vec::new();
        write_frame(&mut log, b"first");
        let intact = log.len();
        write_frame(&mut log, b"second record, somewhat longer");
        for cut in intact + 1..log.len() {
            match read_frame(&log[..cut], intact) {
                FrameRead::Torn => {}
                other => panic!("cut at {cut}: expected Torn, got {other:?}"),
            }
        }
        assert_eq!(read_frame(&log[..intact], intact), FrameRead::End);
    }

    #[test]
    fn flipped_payload_byte_is_corrupt() {
        let mut log = Vec::new();
        write_frame(&mut log, b"payload");
        let mid = log.len() - 6; // inside the payload
        log[mid] ^= 0x40;
        assert_eq!(read_frame(&log, 0), FrameRead::Corrupt);
    }

    #[test]
    fn flipped_checksum_byte_is_corrupt() {
        let mut log = Vec::new();
        write_frame(&mut log, b"payload");
        let last = log.len() - 1;
        log[last] ^= 0x01;
        assert_eq!(read_frame(&log, 0), FrameRead::Corrupt);
    }

    #[test]
    fn absurd_length_is_torn_not_allocation() {
        // A length varint claiming far more bytes than the input holds.
        let mut log = Vec::new();
        let mut w = ByteWriter::new();
        varint::write_u64(&mut w, u64::MAX - 1);
        log.extend_from_slice(w.as_slice());
        log.extend_from_slice(b"junk");
        assert_eq!(read_frame(&log, 0), FrameRead::Torn);
    }
}
