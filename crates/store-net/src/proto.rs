//! The part-server protocol: message kinds, payload encodings, and the
//! error codec.
//!
//! Every protocol message travels in a `ripple-wire` [message
//! frame](ripple_wire::read_msg_from): `[len][kind][request id][payload][crc]`.
//! The request id is assigned by the client; responses echo it, which is
//! what lets a connection carry many requests at once (pipelining) and
//! return responses out of order.  Payloads are ordinary `ripple-wire`
//! values — the same codec the platform already uses for marshalling —
//! so nothing here invents a second serialization format.
//!
//! # Frame catalogue
//!
//! | kind | direction | payload |
//! |---|---|---|
//! | [`REQ_CREATE_TABLE`] | → | `(name, parts, ubiquitous, replicated)` |
//! | [`REQ_CREATE_LIKE`] | → | `(name, like)` |
//! | [`REQ_CREATE_LIKE_REPLICATED`] | → | `(name, like)` |
//! | [`REQ_LOOKUP`] | → | `name` |
//! | [`REQ_DROP`] | → | `name` |
//! | [`REQ_TABLE_NAMES`] | → | `()` |
//! | [`REQ_GET`] | → | `(table, key)` |
//! | [`REQ_PUT`] | → | `(table, key, value)` |
//! | [`REQ_DELETE`] | → | `(table, key)` |
//! | [`REQ_LEN`] | → | `table` |
//! | [`REQ_CLEAR`] | → | `table` |
//! | [`REQ_PART_LEN`] | → | `(table, part)` |
//! | [`REQ_SCAN`] | → | `(table, part)` — streamed response |
//! | [`REQ_APPLY`] | → | `(table, Vec<(op, key, value)>)` — batched writes, one part-task per touched part |
//! | [`REQ_PUT_BATCH`] | → | `(table, combiner, Vec<(key, value)>)` — coalesced puts; `RESP_OK` carries the record count applied |
//! | [`REQ_BIND_COMBINER`] | → | `(table, combiner)` — binds a registered combiner for server-side folding |
//! | [`REQ_GET_BATCH`] | → | `(table, Vec<key>)` — batched reads; `RESP_OK` carries `Vec<Option<value>>` in key order |
//! | [`REQ_RUN_TASK`] | → | `(reference, part, task, arg)` |
//! | [`REQ_HELLO`] | → | `epoch` — fencing handshake; `RESP_OK` echoes the server epoch |
//! | [`REQ_PING`] | → | `()` — liveness probe; `RESP_OK` carries the server epoch |
//! | [`RESP_OK`] | ← | per request (see the handler) |
//! | [`RESP_ERR`] | ← | encoded [`KvError`] |
//! | [`RESP_CHUNK`] | ← | `Vec<(key, value)>` — one slice of a stream |
//! | [`RESP_END`] | ← | `()` — terminates a stream |
//!
//! Unary requests get exactly one `RESP_OK`/`RESP_ERR`.  The streamed
//! request (scan — a client drain is a scan plus one [`REQ_APPLY`] of
//! deletes) gets zero or more `RESP_CHUNK` frames followed by `RESP_END`
//! (or `RESP_ERR`, which also terminates the stream).

use bytes::Bytes;
use ripple_kv::{KvError, RoutedKey};
use ripple_wire::{from_wire, to_wire};

/// Declares each frame kind as a `pub const NAME: u8` and lists them all,
/// by name, in [`FRAME_KINDS`]; a kind declared here is listed by
/// construction.
macro_rules! frame_kinds {
    ($($(#[doc = $doc:literal])+ $name:ident = $value:literal,)+) => {
        $($(#[doc = $doc])+ pub const $name: u8 = $value;)+

        /// Every frame kind of the protocol, requests and responses, as
        /// `(name, kind)` in declaration order.
        pub const FRAME_KINDS: &[(&str, u8)] = &[$((stringify!($name), $name)),+];
    };
}

frame_kinds! {
    /// Create a table from a spec.
    REQ_CREATE_TABLE = 0x01,
    /// Create a table co-partitioned with an existing one.
    REQ_CREATE_LIKE = 0x02,
    /// Create a co-partitioned table with per-part replicas.
    REQ_CREATE_LIKE_REPLICATED = 0x03,
    /// Look up a table's metadata.
    REQ_LOOKUP = 0x04,
    /// Drop a table.
    REQ_DROP = 0x05,
    /// List live table names.
    REQ_TABLE_NAMES = 0x06,
    /// Read one key.
    REQ_GET = 0x10,
    /// Write one key, returning the previous value.
    REQ_PUT = 0x11,
    /// Delete one key, returning whether it was present.
    REQ_DELETE = 0x12,
    /// Server-local entry count of a table.
    REQ_LEN = 0x13,
    /// Remove every entry of a table.
    REQ_CLEAR = 0x14,
    /// Entry count of one part of a table.
    REQ_PART_LEN = 0x15,
    /// Stream the pairs of one part.
    REQ_SCAN = 0x20,
    /// Apply a batch of puts/deletes in one round trip.
    REQ_APPLY = 0x30,
    /// Coalesced put batch: `(table, Option<combiner>, Vec<(key, value)>)`.
    /// When a combiner name travels with the batch, the server folds each
    /// record into the resident value instead of overwriting it; the combiner
    /// must be registered in the server store's combiner registry.
    REQ_PUT_BATCH = 0x31,
    /// Bind a registered combiner to a table for server-side folding:
    /// `(table, combiner)`.
    REQ_BIND_COMBINER = 0x32,
    /// Read many keys of one table in one round trip: `(table, Vec<key>)`;
    /// the response is one `Option<value>` per key, in request order.
    REQ_GET_BATCH = 0x33,
    /// Dispatch a registered named task adjacent to a part.
    REQ_RUN_TASK = 0x40,
    /// Fencing handshake: the client announces the replica-group epoch it is
    /// operating at; the server remembers the highest epoch it has seen and
    /// refuses the handshake (and all later data-plane requests on the
    /// connection) when the announced epoch is stale.
    REQ_HELLO = 0x50,
    /// Liveness probe; the response carries the server's fencing epoch.
    REQ_PING = 0x51,

    /// Success response; payload depends on the request kind.
    RESP_OK = 0x80,
    /// Failure response; payload is an encoded [`KvError`].
    RESP_ERR = 0x81,
    /// One slice of a streamed scan: `Vec<(RoutedKey, Bytes)>`.
    RESP_CHUNK = 0x82,
    /// End of a streamed response.
    RESP_END = 0x83,
}

/// A batched write in a [`REQ_APPLY`] payload.
pub const APPLY_PUT: u8 = 0;
/// A batched delete in a [`REQ_APPLY`] payload.
pub const APPLY_DELETE: u8 = 1;

/// Target size of one [`RESP_CHUNK`] payload; the server flushes a chunk
/// once the encoded pairs reach this many bytes.
pub const CHUNK_TARGET_BYTES: usize = 256 << 10;

/// Table metadata exchanged by DDL and lookup responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableMeta {
    /// Number of parts.
    pub parts: u32,
    /// Whether the table is ubiquitous.
    pub ubiquitous: bool,
    /// Partitioning identity, as reported by server 0.
    pub partitioning_id: u64,
}

impl TableMeta {
    /// Encodes the metadata as a `RESP_OK` payload.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        to_wire(&(self.parts, self.ubiquitous, self.partitioning_id))
    }

    /// Decodes metadata from a `RESP_OK` payload.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Backend`] on malformed bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, KvError> {
        let (parts, ubiquitous, partitioning_id): (u32, bool, u64) =
            from_wire(payload).map_err(|e| KvError::Backend {
                detail: format!("malformed table metadata: {e}"),
            })?;
        Ok(Self {
            parts,
            ubiquitous,
            partitioning_id,
        })
    }
}

/// Encodes a chunk of key/value pairs for a [`RESP_CHUNK`] frame.
#[must_use]
pub fn encode_pairs(pairs: &[(RoutedKey, Bytes)]) -> Bytes {
    to_wire(pairs)
}

/// Decodes a [`RESP_CHUNK`] payload.
///
/// # Errors
///
/// Returns [`KvError::Backend`] on malformed bytes.
pub fn decode_pairs(payload: &[u8]) -> Result<Vec<(RoutedKey, Bytes)>, KvError> {
    from_wire(payload).map_err(|e| KvError::Backend {
        detail: format!("malformed pair chunk: {e}"),
    })
}

/// Maps an operation name to the `&'static str` the [`KvError::Transient`]
/// variant requires.  Known names map to themselves; anything else becomes
/// `"remote"` rather than leaking a new allocation per error.
#[must_use]
pub fn static_op(op: &str) -> &'static str {
    for known in [
        "get",
        "put",
        "put_batch",
        "delete",
        "scan",
        "drain",
        "len",
        "clear",
        "apply",
        "connect",
        "send",
        "recv",
        "run_task",
        "ddl",
        "hello",
        "ping",
    ] {
        if op == known {
            return known;
        }
    }
    "remote"
}

/// Encodes a [`KvError`] for a [`RESP_ERR`] payload.
///
/// The encoding is `(code, s1, s2, n1, n2)` with variant-specific field
/// use; unknown future variants collapse to [`KvError::Backend`].
#[must_use]
pub fn encode_err(err: &KvError) -> Bytes {
    let (code, s1, s2, n1, n2): (u8, String, String, u64, u64) = match err {
        KvError::TableExists { name } => (0, name.clone(), String::new(), 0, 0),
        KvError::NoSuchTable { name } => (1, name.clone(), String::new(), 0, 0),
        KvError::PartOutOfRange { part, parts } => (
            2,
            String::new(),
            String::new(),
            u64::from(*part),
            u64::from(*parts),
        ),
        KvError::TableDropped { name } => (3, name.clone(), String::new(), 0, 0),
        KvError::StoreClosed => (4, String::new(), String::new(), 0, 0),
        KvError::PartFailed { part } => (5, String::new(), String::new(), u64::from(*part), 0),
        KvError::TaskPanicked { part, message } => {
            (6, message.clone(), String::new(), u64::from(*part), 0)
        }
        KvError::Transient { op, part, detail } => {
            (7, (*op).to_owned(), detail.clone(), u64::from(*part), 0)
        }
        KvError::NotCopartitioned { left, right } => (8, left.clone(), right.clone(), 0, 0),
        KvError::UbiquityMismatch { name } => (9, name.clone(), String::new(), 0, 0),
        KvError::NoSuchTask { name } => (10, name.clone(), String::new(), 0, 0),
        KvError::Backend { detail } => (11, detail.clone(), String::new(), 0, 0),
        KvError::WalTailDiscarded {
            table,
            part,
            valid_records,
            discarded_bytes,
        } => (
            12,
            table.clone(),
            String::new(),
            u64::from(*part) | (valid_records << 32),
            *discarded_bytes,
        ),
        KvError::StaleEpoch { seen, current } => {
            (13, String::new(), String::new(), *seen, *current)
        }
        KvError::NoSuchCombiner { name } => (14, name.clone(), String::new(), 0, 0),
        // `KvError` is `#[non_exhaustive]`; future variants degrade to a
        // backend error carrying their display form.
        other => (11, other.to_string(), String::new(), 0, 0),
    };
    to_wire(&(code, s1, s2, n1, n2))
}

/// Decodes a [`RESP_ERR`] payload back into a [`KvError`].
#[must_use]
pub fn decode_err(payload: &[u8]) -> KvError {
    let Ok((code, s1, s2, n1, n2)) = from_wire::<(u8, String, String, u64, u64)>(payload) else {
        return KvError::Backend {
            detail: "malformed error payload".to_owned(),
        };
    };
    // Part numbers travel in the low half of `n1` (WalTailDiscarded packs
    // its record count above them).
    let part = u32::try_from(n1 & u64::from(u32::MAX)).unwrap_or(u32::MAX);
    match code {
        0 => KvError::TableExists { name: s1 },
        1 => KvError::NoSuchTable { name: s1 },
        2 => KvError::PartOutOfRange {
            part,
            parts: u32::try_from(n2 & u64::from(u32::MAX)).unwrap_or(u32::MAX),
        },
        3 => KvError::TableDropped { name: s1 },
        4 => KvError::StoreClosed,
        5 => KvError::PartFailed { part },
        6 => KvError::TaskPanicked { part, message: s1 },
        7 => KvError::Transient {
            op: static_op(&s1),
            part,
            detail: s2,
        },
        8 => KvError::NotCopartitioned {
            left: s1,
            right: s2,
        },
        9 => KvError::UbiquityMismatch { name: s1 },
        10 => KvError::NoSuchTask { name: s1 },
        12 => KvError::WalTailDiscarded {
            table: s1,
            part,
            valid_records: n1 >> 32,
            discarded_bytes: n2,
        },
        // Epochs use the full width of both counters, not the packed
        // part-number halves above.
        13 => KvError::StaleEpoch {
            seen: n1,
            current: n2,
        },
        14 => KvError::NoSuchCombiner { name: s1 },
        _ => KvError::Backend { detail: s1 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_roundtrip() {
        let cases = vec![
            KvError::TableExists { name: "t".into() },
            KvError::NoSuchTable { name: "u".into() },
            KvError::PartOutOfRange { part: 3, parts: 2 },
            KvError::TableDropped { name: "v".into() },
            KvError::StoreClosed,
            KvError::PartFailed { part: 7 },
            KvError::TaskPanicked {
                part: 1,
                message: "boom".into(),
            },
            KvError::Transient {
                op: "get",
                part: 2,
                detail: "socket reset".into(),
            },
            KvError::NotCopartitioned {
                left: "a".into(),
                right: "b".into(),
            },
            KvError::UbiquityMismatch {
                name: "bcast".into(),
            },
            KvError::NoSuchTask { name: "sum".into() },
            KvError::Backend { detail: "x".into() },
            KvError::StaleEpoch {
                seen: u64::from(u32::MAX) + 7,
                current: u64::from(u32::MAX) + 8,
            },
            KvError::NoSuchCombiner {
                name: "ripple.vec-concat".into(),
            },
        ];
        for e in cases {
            assert_eq!(decode_err(&encode_err(&e)), e, "{e}");
        }
    }

    #[test]
    fn wal_tail_roundtrips_both_counters() {
        let e = KvError::WalTailDiscarded {
            table: "t".into(),
            part: 5,
            valid_records: 99,
            discarded_bytes: 1234,
        };
        assert_eq!(decode_err(&encode_err(&e)), e);
    }

    #[test]
    fn pairs_roundtrip() {
        let pairs = vec![
            (
                RoutedKey::with_route(1, Bytes::from_static(b"k1")),
                Bytes::from_static(b"v1"),
            ),
            (
                RoutedKey::with_route(2, Bytes::from_static(b"k2")),
                Bytes::new(),
            ),
        ];
        assert_eq!(decode_pairs(&encode_pairs(&pairs)).unwrap(), pairs);
    }

    #[test]
    fn meta_roundtrips() {
        let m = TableMeta {
            parts: 8,
            ubiquitous: false,
            partitioning_id: 42,
        };
        assert_eq!(TableMeta::decode(&m.encode()).unwrap(), m);
    }

    /// The frame catalogue in the module doc has one row per declared
    /// kind, and no row for anything else.
    #[test]
    fn the_frame_catalogue_lists_every_kind() {
        let rows: Vec<&str> = include_str!("proto.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | [`"))
            .filter_map(|row| row.split_once("`]").map(|(name, _)| name))
            .collect();
        let kinds: Vec<&str> = FRAME_KINDS.iter().map(|&(name, _)| name).collect();
        assert_eq!(rows, kinds, "the frame catalogue and FRAME_KINDS differ");
    }

    #[test]
    fn unknown_transient_op_maps_to_static() {
        assert_eq!(static_op("get"), "get");
        assert_eq!(static_op("exotic"), "remote");
    }
}
