//! The `.duob` compact binary trace format.
//!
//! At the million-event scale, line-at-a-time text parsing dominates
//! end-to-end checking time. This module defines a framed binary encoding
//! that decodes an order of magnitude faster and supports streaming
//! ingestion without materialising the full event vector first.
//!
//! # Wire format
//!
//! ```text
//! file    := magic version frame* end-frame
//! magic   := "DUOB"                     (4 bytes)
//! version := 0x01                       (1 byte)
//! frame   := type len payload crc
//! type    := 'I' (intern table) | 'E' (event chunk) | 'Z' (end)
//! len     := varint payload byte length
//! payload := type-specific bytes (see below)
//! crc     := CRC-32 (IEEE) of payload   (4 bytes, little endian)
//! ```
//!
//! The `'E'` payload is `varint count` followed by `count` events, each a
//! tag byte (see [`PackedEvent`](crate::event::PackedEvent)) and varint
//! operands: reads carry `txn obj`, writes `txn obj value`, read responses
//! `txn value`, and the remaining kinds just `txn`. The `'I'` payload is
//! `varint count` then `count` entries of `kind-byte varint-id varint-len
//! utf8-name`, preserving external names (e.g. dbcop variables) that the
//! numeric ids replaced. The `'Z'` payload is the varint total event count,
//! so silent truncation at a frame boundary is detected.
//!
//! All varints are LEB128, at most 10 bytes; decoding rejects oversized or
//! non-canonical-length encodings, ids above [`MAX_ID`], and frames larger
//! than [`MAX_FRAME_BYTES`]. The CRC protects against bit rot and torn
//! writes; it is an integrity check on the *file*, not an authenticity
//! guarantee (see DESIGN.md §10 for how this differs from the keyed
//! checkpoint hashes).

use crate::event::PackedEvent;
use crate::trace::MAX_ID;
use crate::{Event, EventKind, History, MalformedHistoryError, ObjId, Op, Ret, TxnId, Value};
use std::error::Error;
use std::fmt;

/// File magic: the first four bytes of every `.duob` trace.
pub const MAGIC: [u8; 4] = *b"DUOB";

/// Current format version byte.
pub const VERSION: u8 = 1;

/// Frame type: string/id intern table.
pub const FRAME_INTERN: u8 = b'I';

/// Frame type: a chunk of events.
pub const FRAME_EVENTS: u8 = b'E';

/// Frame type: end-of-file marker carrying the total event count.
pub const FRAME_END: u8 = b'Z';

/// Events per `'E'` frame written by [`encode`]; bounds the working set a
/// streaming reader must hold while still amortising the per-frame CRC.
pub const EVENTS_PER_FRAME: usize = 4096;

/// Largest frame payload a decoder accepts. A hostile length prefix would
/// otherwise translate directly into a giant allocation or a huge CRC scan.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Longest interned name a decoder accepts, in bytes.
pub const MAX_NAME_BYTES: usize = 4096;

const VARINT_MAX_BYTES: usize = 10;
const CRC_BYTES: usize = 4;

/// Why a binary trace failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinaryParseError {
    /// The file does not start with the `DUOB` magic.
    BadMagic,
    /// The version byte is not one this decoder understands.
    UnsupportedVersion(u8),
    /// The input ended inside a header, frame, or varint.
    Truncated {
        /// Byte offset where more input was expected.
        offset: usize,
        /// What was being decoded.
        context: &'static str,
    },
    /// A frame's CRC-32 did not match its payload.
    CrcMismatch {
        /// Byte offset of the frame's type byte.
        frame_offset: usize,
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// A varint ran past the 10-byte LEB128 limit or overflowed 64 bits.
    OversizedVarint {
        /// Byte offset of the varint's first byte.
        offset: usize,
    },
    /// A frame type byte other than `'I'`, `'E'`, or `'Z'`.
    UnknownFrameType {
        /// The unrecognised byte.
        byte: u8,
        /// Byte offset of the frame's type byte.
        offset: usize,
    },
    /// An event tag byte outside the range `0..=7`.
    UnknownEventTag {
        /// The unrecognised byte.
        byte: u8,
    },
    /// A frame declared a payload larger than [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// Declared payload length.
        len: u64,
    },
    /// A transaction or t-object id above [`MAX_ID`], or a count that does
    /// not fit its domain.
    IdOutOfRange {
        /// Which id domain was violated.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The `'Z'` frame's declared event count disagrees with the events
    /// actually decoded — the file was truncated or spliced at a frame
    /// boundary.
    CountMismatch {
        /// Count declared by the end frame.
        declared: u64,
        /// Events actually decoded.
        actual: u64,
    },
    /// The input ended without a `'Z'` end frame.
    MissingEndFrame,
    /// Bytes follow the `'Z'` end frame.
    TrailingBytes {
        /// Byte offset of the first trailing byte.
        offset: usize,
    },
    /// An intern-table entry had an unknown kind byte or a non-UTF-8 name.
    BadInternEntry {
        /// Explanation of the problem.
        message: &'static str,
    },
    /// The decoded events are not a well-formed history.
    Malformed(MalformedHistoryError),
}

impl fmt::Display for BinaryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryParseError::BadMagic => {
                write!(f, "not a DUOB binary trace (bad magic)")
            }
            BinaryParseError::UnsupportedVersion(v) => {
                write!(f, "unsupported DUOB version {v} (this build reads {VERSION})")
            }
            BinaryParseError::Truncated { offset, context } => {
                write!(f, "truncated input at byte {offset} while reading {context}")
            }
            BinaryParseError::CrcMismatch {
                frame_offset,
                stored,
                computed,
            } => write!(
                f,
                "CRC mismatch in frame at byte {frame_offset}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            BinaryParseError::OversizedVarint { offset } => {
                write!(f, "oversized varint at byte {offset}")
            }
            BinaryParseError::UnknownFrameType { byte, offset } => {
                write!(f, "unknown frame type {byte:#04x} at byte {offset}")
            }
            BinaryParseError::UnknownEventTag { byte } => {
                write!(f, "unknown event tag {byte:#04x}")
            }
            BinaryParseError::FrameTooLarge { len } => write!(
                f,
                "frame payload of {len} bytes exceeds the maximum {MAX_FRAME_BYTES}"
            ),
            BinaryParseError::IdOutOfRange { what, value } => {
                write!(f, "{what} {value} is out of range (maximum {MAX_ID})")
            }
            BinaryParseError::CountMismatch { declared, actual } => write!(
                f,
                "end frame declares {declared} events but {actual} were decoded"
            ),
            BinaryParseError::MissingEndFrame => {
                write!(f, "input ended without an end frame")
            }
            BinaryParseError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after the end frame at byte {offset}")
            }
            BinaryParseError::BadInternEntry { message } => {
                write!(f, "bad intern-table entry: {message}")
            }
            BinaryParseError::Malformed(err) => write!(f, "decoded trace is malformed: {err}"),
        }
    }
}

impl Error for BinaryParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BinaryParseError::Malformed(err) => Some(err),
            _ => None,
        }
    }
}

impl From<MalformedHistoryError> for BinaryParseError {
    fn from(err: MalformedHistoryError) -> Self {
        BinaryParseError::Malformed(err)
    }
}

/// What an interned name refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InternKind {
    /// A transaction id.
    Txn,
    /// A t-object id.
    Obj,
}

/// One interned name: the external string a numeric id replaced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InternEntry {
    /// Id domain.
    pub kind: InternKind,
    /// The numeric id used in event records.
    pub id: u32,
    /// The original external name.
    pub name: String,
}

/// The per-file string/id intern table.
///
/// Native traces use dense numeric ids and leave this empty; imports from
/// formats with string identifiers (e.g. dbcop variables or session-tagged
/// transactions) record the original names here so they survive the round
/// trip through the binary format.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InternTable {
    /// The entries, in file order.
    pub entries: Vec<InternEntry>,
}

impl InternTable {
    /// Returns `true` if no names are interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the interned name for `id` in `kind`'s domain.
    pub fn name(&self, kind: InternKind, id: u32) -> Option<&str> {
        self.entries
            .iter()
            .find(|e| e.kind == kind && e.id == id)
            .map(|e| e.name.as_str())
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup tables for
/// slicing-by-8: `CRC_TABLES[0]` is the classic byte-at-a-time table,
/// `CRC_TABLES[j]` folds a byte that sits `j` positions further ahead.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
};

/// Incremental CRC-32 (IEEE) state: feed slices with [`Crc32::update`]
/// and read the digest with [`Crc32::finish`]. Updating with `a` then
/// `b` equals [`crc32`] of their concatenation, so callers can guard
/// scattered buffers without gathering them into one allocation.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state (the digest of the empty string).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the state, eight bytes per table round.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for ch in &mut chunks {
            let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
            let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
            c = CRC_TABLES[7][(lo & 0xFF) as usize]
                ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[4][(lo >> 24) as usize]
                ^ CRC_TABLES[3][(hi & 0xFF) as usize]
                ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The digest of everything updated so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// Computes the CRC-32 (IEEE) of `bytes` in one shot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut digest = Crc32::new();
    digest.update(bytes);
    digest.finish()
}

/// Appends `v` to `out` as a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from `bytes` starting at `*pos`, advancing
/// `*pos` — the decoding inverse of [`write_varint`], exposed for
/// protocols that reuse the `.duob` framing primitives (the shard
/// coordinator/worker wire format).
///
/// `base` is the absolute file offset of `bytes[0]`, used only for error
/// reporting.
pub fn decode_varint(bytes: &[u8], pos: &mut usize, base: usize) -> Result<u64, BinaryParseError> {
    read_varint(bytes, pos, base)
}

/// Reads a LEB128 varint from `bytes` starting at `*pos`, advancing `*pos`.
///
/// `base` is the absolute file offset of `bytes[0]`, used only for error
/// reporting.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize, base: usize) -> Result<u64, BinaryParseError> {
    // One- and two-byte fast paths: ids and values in real traces almost
    // always fit 14 bits, and the decode loop pays this call per field.
    if let Some(&b0) = bytes.get(*pos) {
        if b0 & 0x80 == 0 {
            *pos += 1;
            return Ok(u64::from(b0));
        }
        if let Some(&b1) = bytes.get(*pos + 1) {
            if b1 & 0x80 == 0 {
                *pos += 2;
                return Ok(u64::from(b0 & 0x7F) | u64::from(b1) << 7);
            }
        }
    }
    read_varint_slow(bytes, pos, base)
}

fn read_varint_slow(bytes: &[u8], pos: &mut usize, base: usize) -> Result<u64, BinaryParseError> {
    let start = *pos;
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(BinaryParseError::Truncated {
                offset: base + *pos,
                context: "varint",
            });
        };
        *pos += 1;
        if *pos - start > VARINT_MAX_BYTES {
            return Err(BinaryParseError::OversizedVarint {
                offset: base + start,
            });
        }
        // The 10th byte of a 64-bit LEB128 may only contribute one bit.
        if shift == 63 && byte > 1 {
            return Err(BinaryParseError::OversizedVarint {
                offset: base + start,
            });
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn check_id(what: &'static str, value: u64) -> Result<u32, BinaryParseError> {
    if value > u64::from(MAX_ID) {
        return Err(BinaryParseError::IdOutOfRange { what, value });
    }
    Ok(value as u32)
}

/// Appends one `type len payload crc` frame to `out`.
pub fn push_frame(out: &mut Vec<u8>, ty: u8, payload: &[u8]) {
    out.push(ty);
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Appends `events` to `out` as `'E'` frames of at most
/// [`EVENTS_PER_FRAME`] events each — exactly the frames [`encode`] writes,
/// so a log can grow by whole frames without re-encoding what came before.
/// An empty slice appends nothing.
pub fn push_event_frames(out: &mut Vec<u8>, events: &[Event]) {
    let mut payload = Vec::new();
    for chunk in events.chunks(EVENTS_PER_FRAME) {
        payload.clear();
        write_varint(&mut payload, chunk.len() as u64);
        for &ev in chunk {
            encode_event(&mut payload, ev);
        }
        push_frame(out, FRAME_EVENTS, &payload);
    }
}

/// Reads the frame starting at `bytes[*pos]` and advances `*pos` past it,
/// returning its type byte, its CRC-checked payload, and the payload's
/// offset in `bytes`. The type byte is returned unchecked.
///
/// # Errors
///
/// [`BinaryParseError::Truncated`] if the frame runs past the input,
/// [`BinaryParseError::FrameTooLarge`] for a length above
/// [`MAX_FRAME_BYTES`], [`BinaryParseError::OversizedVarint`] for a bad
/// length prefix, and [`BinaryParseError::CrcMismatch`].
pub fn read_frame<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
) -> Result<(u8, &'a [u8], usize), BinaryParseError> {
    let frame_offset = *pos;
    let Some(&ty) = bytes.get(frame_offset) else {
        return Err(BinaryParseError::Truncated {
            offset: frame_offset,
            context: "frame type",
        });
    };
    let mut p = frame_offset + 1;
    let len = read_varint(bytes, &mut p, 0)?;
    if len > MAX_FRAME_BYTES as u64 {
        return Err(BinaryParseError::FrameTooLarge { len });
    }
    let len = len as usize;
    let end = p
        .checked_add(len)
        .and_then(|e| e.checked_add(CRC_BYTES))
        .filter(|&e| e <= bytes.len())
        .ok_or(BinaryParseError::Truncated {
            offset: bytes.len(),
            context: "frame payload",
        })?;
    let payload = &bytes[p..p + len];
    let stored = u32::from_le_bytes(
        bytes[p + len..end]
            .try_into()
            .expect("CRC slice is 4 bytes"),
    );
    let computed = crc32(payload);
    if stored != computed {
        return Err(BinaryParseError::CrcMismatch {
            frame_offset,
            stored,
            computed,
        });
    }
    *pos = end;
    Ok((ty, payload, p))
}

/// Decodes a whole `'E'` frame payload (as returned by [`read_frame`]),
/// appending its events to `out`. `base` is the payload's offset in the
/// enclosing input, used only for error reporting.
///
/// # Errors
///
/// Any event-level [`BinaryParseError`], or
/// [`BinaryParseError::TrailingBytes`] if the payload holds more bytes
/// than its declared events.
pub fn decode_event_payload(
    payload: &[u8],
    base: usize,
    out: &mut Vec<Event>,
) -> Result<(), BinaryParseError> {
    let mut pos = 0usize;
    let n = read_varint(payload, &mut pos, base)?;
    // Every event takes at least two payload bytes, so a count beyond
    // that is hostile — don't let it size the reserve.
    out.reserve(n.min((payload.len() / 2 + 1) as u64) as usize);
    for _ in 0..n {
        out.push(decode_one(payload, &mut pos, base)?);
    }
    if pos != payload.len() {
        return Err(BinaryParseError::TrailingBytes { offset: base + pos });
    }
    Ok(())
}

fn encode_event(out: &mut Vec<u8>, ev: Event) {
    let p = PackedEvent::pack(ev);
    out.push(p.tag);
    write_varint(out, u64::from(p.txn));
    match p.tag {
        PackedEvent::TAG_INV_READ => write_varint(out, u64::from(p.obj)),
        PackedEvent::TAG_INV_WRITE => {
            write_varint(out, u64::from(p.obj));
            write_varint(out, p.value);
        }
        PackedEvent::TAG_RESP_VALUE => write_varint(out, p.value),
        _ => {}
    }
}

/// Encodes a history in the `.duob` binary format with no interned names.
pub fn encode(history: &History) -> Vec<u8> {
    encode_with_names(history, &InternTable::default())
}

/// Encodes a history in the `.duob` binary format, carrying `names` in an
/// intern-table frame when non-empty.
pub fn encode_with_names(history: &History, names: &InternTable) -> Vec<u8> {
    let events = history.events();
    // Header + conservative per-event estimate keeps growth reallocations rare.
    let mut out = Vec::with_capacity(16 + events.len() * 4);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    if !names.is_empty() {
        let mut payload = Vec::new();
        write_varint(&mut payload, names.entries.len() as u64);
        for entry in &names.entries {
            payload.push(match entry.kind {
                InternKind::Txn => 0,
                InternKind::Obj => 1,
            });
            write_varint(&mut payload, u64::from(entry.id));
            let name = &entry.name.as_bytes()[..entry.name.len().min(MAX_NAME_BYTES)];
            write_varint(&mut payload, name.len() as u64);
            payload.extend_from_slice(name);
        }
        push_frame(&mut out, FRAME_INTERN, &payload);
    }
    push_event_frames(&mut out, events);
    let mut payload = Vec::new();
    write_varint(&mut payload, events.len() as u64);
    push_frame(&mut out, FRAME_END, &payload);
    out
}

/// A streaming decoder over an in-memory `.duob` byte slice.
///
/// Frames are CRC-checked as they are entered; events are decoded one at a
/// time straight off the borrowed payload slice, so a monitor can consume a
/// trace without ever materialising the full event vector. After the stream
/// is exhausted (`next_event` returned `Ok(None)`), the end-frame count has
/// been verified and [`EventStream::intern_table`] exposes any interned
/// names.
#[derive(Debug)]
pub struct EventStream<'a> {
    bytes: &'a [u8],
    /// Absolute offset of the next unread frame byte.
    pos: usize,
    /// Payload of the current `'E'` frame (CRC already verified).
    payload: &'a [u8],
    /// Cursor within `payload`.
    ppos: usize,
    /// Absolute offset of `payload[0]`.
    pbase: usize,
    /// Events remaining in the current frame.
    frame_remaining: u64,
    /// Events decoded so far across frames.
    decoded: u64,
    /// Set once the `'Z'` frame has been validated.
    finished: bool,
    names: InternTable,
}

/// Decodes one event from an `'E'` frame payload. One match decodes the
/// tag-specific operands and builds the event directly, rather than
/// round-tripping through [`PackedEvent`].
#[inline]
fn decode_one(payload: &[u8], pos: &mut usize, base: usize) -> Result<Event, BinaryParseError> {
    let Some(&tag) = payload.get(*pos) else {
        return Err(BinaryParseError::Truncated {
            offset: base + *pos,
            context: "event tag",
        });
    };
    *pos += 1;
    if tag > PackedEvent::TAG_MAX {
        return Err(BinaryParseError::UnknownEventTag { byte: tag });
    }
    let txn = check_id("transaction id", read_varint(payload, pos, base)?)?;
    let kind = match tag {
        PackedEvent::TAG_INV_READ => {
            let obj = check_id("t-object id", read_varint(payload, pos, base)?)?;
            EventKind::Inv(Op::Read(ObjId::new(obj)))
        }
        PackedEvent::TAG_INV_WRITE => {
            let obj = check_id("t-object id", read_varint(payload, pos, base)?)?;
            let value = read_varint(payload, pos, base)?;
            EventKind::Inv(Op::Write(ObjId::new(obj), Value::new(value)))
        }
        PackedEvent::TAG_INV_TRY_COMMIT => EventKind::Inv(Op::TryCommit),
        PackedEvent::TAG_INV_TRY_ABORT => EventKind::Inv(Op::TryAbort),
        PackedEvent::TAG_RESP_VALUE => {
            let value = read_varint(payload, pos, base)?;
            EventKind::Resp(Ret::Value(Value::new(value)))
        }
        PackedEvent::TAG_RESP_OK => EventKind::Resp(Ret::Ok),
        PackedEvent::TAG_RESP_COMMITTED => EventKind::Resp(Ret::Committed),
        PackedEvent::TAG_RESP_ABORTED => EventKind::Resp(Ret::Aborted),
        _ => unreachable!("tag range checked above"),
    };
    Ok(Event {
        txn: TxnId::new(txn),
        kind,
    })
}

impl<'a> EventStream<'a> {
    /// Opens a stream, validating the magic and version header.
    ///
    /// # Errors
    ///
    /// Returns [`BinaryParseError::BadMagic`] or
    /// [`BinaryParseError::UnsupportedVersion`] if the header is wrong.
    pub fn new(bytes: &'a [u8]) -> Result<Self, BinaryParseError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(BinaryParseError::BadMagic);
        }
        let Some(&version) = bytes.get(MAGIC.len()) else {
            return Err(BinaryParseError::Truncated {
                offset: MAGIC.len(),
                context: "version byte",
            });
        };
        if version != VERSION {
            return Err(BinaryParseError::UnsupportedVersion(version));
        }
        Ok(EventStream {
            bytes,
            pos: MAGIC.len() + 1,
            payload: &[],
            ppos: 0,
            pbase: 0,
            frame_remaining: 0,
            decoded: 0,
            finished: false,
            names: InternTable::default(),
        })
    }

    /// The intern table seen so far. Complete once the header frames have
    /// been consumed — in practice after the first call to `next_event`.
    pub fn intern_table(&self) -> &InternTable {
        &self.names
    }

    /// Total events decoded so far.
    pub fn events_decoded(&self) -> u64 {
        self.decoded
    }

    /// Reads, CRC-checks, and returns the next frame as `(type, payload)`.
    fn next_frame(&mut self) -> Result<(u8, &'a [u8], usize), BinaryParseError> {
        let Some(&ty) = self.bytes.get(self.pos) else {
            return Err(BinaryParseError::MissingEndFrame);
        };
        if ty != FRAME_INTERN && ty != FRAME_EVENTS && ty != FRAME_END {
            return Err(BinaryParseError::UnknownFrameType {
                byte: ty,
                offset: self.pos,
            });
        }
        read_frame(self.bytes, &mut self.pos)
    }

    fn load_intern_table(
        &mut self,
        payload: &'a [u8],
        base: usize,
    ) -> Result<(), BinaryParseError> {
        let mut pos = 0usize;
        let count = read_varint(payload, &mut pos, base)?;
        if count > (MAX_FRAME_BYTES as u64) {
            return Err(BinaryParseError::BadInternEntry {
                message: "entry count exceeds frame capacity",
            });
        }
        for _ in 0..count {
            let Some(&kind) = payload.get(pos) else {
                return Err(BinaryParseError::Truncated {
                    offset: base + pos,
                    context: "intern entry kind",
                });
            };
            pos += 1;
            let kind = match kind {
                0 => InternKind::Txn,
                1 => InternKind::Obj,
                _ => {
                    return Err(BinaryParseError::BadInternEntry {
                        message: "unknown entry kind",
                    })
                }
            };
            let id = check_id("interned id", read_varint(payload, &mut pos, base)?)?;
            let len = read_varint(payload, &mut pos, base)?;
            if len > MAX_NAME_BYTES as u64 {
                return Err(BinaryParseError::BadInternEntry {
                    message: "name too long",
                });
            }
            let len = len as usize;
            let name_bytes = payload.get(pos..pos + len).ok_or({
                BinaryParseError::Truncated {
                    offset: base + payload.len(),
                    context: "intern entry name",
                }
            })?;
            pos += len;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| BinaryParseError::BadInternEntry {
                    message: "name is not valid UTF-8",
                })?
                .to_owned();
            self.names.entries.push(InternEntry { kind, id, name });
        }
        if pos != payload.len() {
            return Err(BinaryParseError::BadInternEntry {
                message: "trailing bytes in intern frame",
            });
        }
        Ok(())
    }

    /// Decodes the next event, or `Ok(None)` once the validated end frame
    /// has been reached.
    ///
    /// # Errors
    ///
    /// Any [`BinaryParseError`] except `Malformed` — the stream checks the
    /// wire format only; history well-formedness is the caller's concern.
    pub fn next_event(&mut self) -> Result<Option<Event>, BinaryParseError> {
        loop {
            if self.finished {
                return Ok(None);
            }
            if self.frame_remaining > 0 {
                let payload = self.payload;
                let ev = decode_one(payload, &mut self.ppos, self.pbase)?;
                self.frame_remaining -= 1;
                self.decoded += 1;
                return Ok(Some(ev));
            }
            self.advance_frame()?;
        }
    }

    /// Appends every event of the next `'E'` frame to `out`, returning
    /// `false` once the validated end frame has been reached. Bulk decoders
    /// use this instead of [`next_event`](EventStream::next_event): the
    /// frame cursor stays in registers across the whole chunk instead of
    /// round-tripping through the stream's fields per event.
    pub fn next_frame_events(&mut self, out: &mut Vec<Event>) -> Result<bool, BinaryParseError> {
        loop {
            if self.finished {
                return Ok(false);
            }
            let n = self.frame_remaining;
            if n > 0 {
                let payload = self.payload;
                let base = self.pbase;
                let mut pos = self.ppos;
                // Every event takes at least two payload bytes, so a count
                // beyond that is hostile — don't let it size the reserve.
                let plausible = ((payload.len() - pos) / 2 + 1) as u64;
                out.reserve(n.min(plausible) as usize);
                for _ in 0..n {
                    out.push(decode_one(payload, &mut pos, base)?);
                }
                self.ppos = pos;
                self.frame_remaining = 0;
                self.decoded += n;
                return Ok(true);
            }
            self.advance_frame()?;
        }
    }

    /// Moves to the next frame once the current `'E'` payload is drained,
    /// loading intern tables and validating the end frame along the way.
    fn advance_frame(&mut self) -> Result<(), BinaryParseError> {
        if self.ppos != self.payload.len() {
            // A frame that declared fewer events than its payload holds.
            return Err(BinaryParseError::TrailingBytes {
                offset: self.pbase + self.ppos,
            });
        }
        let (ty, payload, base) = self.next_frame()?;
        match ty {
            FRAME_INTERN => self.load_intern_table(payload, base)?,
            FRAME_EVENTS => {
                self.payload = payload;
                self.pbase = base;
                self.ppos = 0;
                self.frame_remaining = read_varint(payload, &mut self.ppos, base)?;
            }
            FRAME_END => {
                let mut pos = 0usize;
                let declared = read_varint(payload, &mut pos, base)?;
                if declared != self.decoded {
                    return Err(BinaryParseError::CountMismatch {
                        declared,
                        actual: self.decoded,
                    });
                }
                if self.pos != self.bytes.len() {
                    return Err(BinaryParseError::TrailingBytes { offset: self.pos });
                }
                self.finished = true;
            }
            _ => unreachable!("next_frame rejects unknown types"),
        }
        Ok(())
    }
}

/// Sums the event counts declared by `'E'` frame headers without decoding
/// events, so the bulk decoder can size its vector exactly. Returns `None`
/// on any structural problem — the real decode will surface the error.
fn scan_event_count(bytes: &[u8]) -> Option<usize> {
    let mut pos = MAGIC.len() + 1;
    let mut total = 0u64;
    while pos < bytes.len() {
        let ty = *bytes.get(pos)?;
        pos += 1;
        let len = read_varint(bytes, &mut pos, 0).ok()?;
        if len > MAX_FRAME_BYTES as u64 {
            return None;
        }
        let len = len as usize;
        if ty == FRAME_EVENTS {
            let mut ppos = pos;
            total = total.checked_add(read_varint(bytes, &mut ppos, 0).ok()?)?;
        }
        pos = pos.checked_add(len)?.checked_add(CRC_BYTES)?;
    }
    usize::try_from(total).ok()
}

/// Bulk-decodes a binary trace into a validated [`History`].
///
/// # Errors
///
/// Returns a [`BinaryParseError`] for wire-format violations, and
/// [`BinaryParseError::Malformed`] if the decoded events do not form a
/// well-formed history.
pub fn decode(bytes: &[u8]) -> Result<History, BinaryParseError> {
    decode_with_names(bytes).map(|(h, _)| h)
}

/// Bulk-decodes a binary trace, also returning its intern table.
///
/// # Errors
///
/// As [`decode`].
pub fn decode_with_names(bytes: &[u8]) -> Result<(History, InternTable), BinaryParseError> {
    let mut stream = EventStream::new(bytes)?;
    // Frame-fused decode + validation: events go straight from the wire
    // into the incremental well-formedness check, one frame at a time with
    // the frame cursor held in locals — no event vector is materialised
    // and re-read, and nothing round-trips through the stream's fields
    // per event.
    let mut history = History::with_event_capacity(scan_event_count(bytes).unwrap_or(0));
    loop {
        if stream.finished {
            break;
        }
        let n = stream.frame_remaining;
        if n == 0 {
            stream.advance_frame()?;
            continue;
        }
        let payload = stream.payload;
        let base = stream.pbase;
        let mut pos = stream.ppos;
        for _ in 0..n {
            history.push_checked(decode_one(payload, &mut pos, base)?)?;
        }
        stream.ppos = pos;
        stream.frame_remaining = 0;
        stream.decoded += n;
    }
    Ok((history, std::mem::take(&mut stream.names)))
}

/// A bulk decoder with a reusable event scratch buffer.
///
/// Repeated ingestion (benchmark loops, CI smoke runs, multi-file batch
/// checks) decodes into the same backing allocation instead of growing a
/// fresh vector per file.
#[derive(Debug, Default)]
pub struct ScratchDecoder {
    scratch: Vec<Event>,
}

impl ScratchDecoder {
    /// Creates a decoder with an empty scratch buffer.
    pub fn new() -> Self {
        ScratchDecoder::default()
    }

    /// Decodes `bytes` into the scratch buffer and returns the event slice.
    ///
    /// The slice borrows the decoder; the next call overwrites it. No
    /// history validation is performed — use [`decode`] for that.
    ///
    /// # Errors
    ///
    /// Any wire-format [`BinaryParseError`].
    pub fn decode_events(&mut self, bytes: &[u8]) -> Result<&[Event], BinaryParseError> {
        self.scratch.clear();
        let mut stream = EventStream::new(bytes)?;
        if let Some(n) = scan_event_count(bytes) {
            self.scratch.reserve(n);
        }
        while stream.next_frame_events(&mut self.scratch)? {}
        Ok(&self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistoryBuilder, ObjId, Op, Ret, TxnId, Value};

    fn sample() -> History {
        HistoryBuilder::new()
            .inv_write(TxnId::new(1), ObjId::new(0), Value::new(1))
            .inv_read(TxnId::new(2), ObjId::new(0))
            .resp_ok(TxnId::new(1))
            .resp_value(TxnId::new(2), Value::new(0))
            .inv_try_commit(TxnId::new(1))
            .resp_committed(TxnId::new(1))
            .try_abort(TxnId::new(2))
            .build()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_incremental_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut digest = Crc32::new();
            digest.update(&data[..split]);
            digest.update(&data[split..]);
            assert_eq!(digest.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos, 0).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_oversized() {
        // Eleven continuation bytes.
        let buf = vec![0x80u8; 11];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos, 0),
            Err(BinaryParseError::OversizedVarint { .. })
        ));
        // Ten bytes but the last contributes more than one bit.
        let buf = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos, 0),
            Err(BinaryParseError::OversizedVarint { .. })
        ));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = sample();
        let bytes = encode(&h);
        assert_eq!(&bytes[..4], b"DUOB");
        assert_eq!(bytes[4], VERSION);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn empty_history_roundtrips() {
        let h = History::new(Vec::new()).unwrap();
        let back = decode(&encode(&h)).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn streaming_matches_bulk() {
        let h = sample();
        let bytes = encode(&h);
        let mut stream = EventStream::new(&bytes).unwrap();
        let mut events = Vec::new();
        while let Some(ev) = stream.next_event().unwrap() {
            events.push(ev);
        }
        assert_eq!(events.as_slice(), h.events());
        assert_eq!(stream.events_decoded(), h.len() as u64);
    }

    #[test]
    fn intern_table_roundtrips() {
        let h = sample();
        let names = InternTable {
            entries: vec![
                InternEntry {
                    kind: InternKind::Obj,
                    id: 0,
                    name: "x".into(),
                },
                InternEntry {
                    kind: InternKind::Txn,
                    id: 1,
                    name: "s0_t0".into(),
                },
            ],
        };
        let bytes = encode_with_names(&h, &names);
        let (back, table) = decode_with_names(&bytes).unwrap();
        assert_eq!(back, h);
        assert_eq!(table, names);
        assert_eq!(table.name(InternKind::Obj, 0), Some("x"));
        assert_eq!(table.name(InternKind::Txn, 2), None);
    }

    #[test]
    fn scratch_decoder_reuses_buffer() {
        let h = sample();
        let bytes = encode(&h);
        let mut dec = ScratchDecoder::new();
        let first = dec.decode_events(&bytes).unwrap().to_vec();
        assert_eq!(first.as_slice(), h.events());
        let again = dec.decode_events(&bytes).unwrap();
        assert_eq!(again, h.events());
    }

    #[test]
    fn corrupted_byte_is_caught_by_crc() {
        let h = sample();
        let mut bytes = encode(&h);
        // Flip one bit inside the first event frame's payload.
        let idx = bytes.len() / 2;
        bytes[idx] ^= 0x40;
        let err = decode(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                BinaryParseError::CrcMismatch { .. }
                    | BinaryParseError::Truncated { .. }
                    | BinaryParseError::FrameTooLarge { .. }
                    | BinaryParseError::UnknownFrameType { .. }
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn truncation_is_caught() {
        let h = sample();
        let bytes = encode(&h);
        for cut in [0, 3, 4, 5, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                !matches!(err, BinaryParseError::Malformed(_)),
                "cut at {cut}: expected a wire error, got {err}"
            );
        }
    }

    #[test]
    fn end_frame_count_guards_frame_splicing() {
        let h = sample();
        let bytes = encode(&h);
        // Drop the events frame but keep header + end frame: the declared
        // count no longer matches.
        let mut spliced = bytes[..5].to_vec();
        // The end frame is the last 1 (type) + 1 (len) + payload + 4 bytes.
        let tail_start = bytes.len() - (2 + 1 + 4);
        spliced.extend_from_slice(&bytes[tail_start..]);
        let err = decode(&spliced).unwrap_err();
        assert!(
            matches!(err, BinaryParseError::CountMismatch { .. }),
            "got {err}"
        );
    }

    #[test]
    fn header_errors() {
        assert!(matches!(
            decode(b"NOPE\x01rest"),
            Err(BinaryParseError::BadMagic)
        ));
        assert!(matches!(
            decode(b"DUOB\x7f"),
            Err(BinaryParseError::UnsupportedVersion(0x7f))
        ));
        assert!(matches!(
            decode(b"DUOB"),
            Err(BinaryParseError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let h = sample();
        let mut bytes = encode(&h);
        bytes.push(0xAA);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, BinaryParseError::TrailingBytes { .. }));
    }

    #[test]
    fn malformed_history_is_reported() {
        // A lone response is wire-valid but not a well-formed history.
        let events = [Event::resp(TxnId::new(1), Ret::Ok)];
        let mut payload = Vec::new();
        write_varint(&mut payload, 1);
        encode_event(&mut payload, events[0]);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        push_frame(&mut bytes, FRAME_EVENTS, &payload);
        let mut endp = Vec::new();
        write_varint(&mut endp, 1);
        push_frame(&mut bytes, FRAME_END, &endp);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, BinaryParseError::Malformed(_)));
    }

    #[test]
    fn large_history_roundtrips_across_frames() {
        // More events than one frame holds, to exercise chunking.
        let mut b = HistoryBuilder::new();
        let n = EVENTS_PER_FRAME as u32 + 100;
        for i in 1..=n {
            let t = TxnId::new(i);
            b = b.committed_writer(t, ObjId::new(i % 7), Value::new(u64::from(i)));
        }
        let h = b.build();
        assert!(h.len() > EVENTS_PER_FRAME);
        let bytes = encode(&h);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn oversized_id_rejected() {
        let ev = Event::inv(TxnId::new(MAX_ID + 1), Op::TryCommit);
        let mut payload = Vec::new();
        write_varint(&mut payload, 1);
        encode_event(&mut payload, ev);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        push_frame(&mut bytes, FRAME_EVENTS, &payload);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, BinaryParseError::IdOutOfRange { .. }));
    }
}
