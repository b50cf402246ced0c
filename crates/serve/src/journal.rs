//! Crash safety for `--state-dir`: a base checkpoint plus an append-only
//! journal per session.
//!
//! Du-opacity is a safety property (prefix- and limit-closed), so the
//! state of a session after an acknowledged prefix depends only on that
//! prefix's events. Persisting an acknowledgement therefore means
//! persisting the events it covers, in order; the full snapshot is only
//! a way to bound how many events recovery has to replay.
//!
//! Each session owns two files in the state dir:
//!
//! * `session-N.ck`, the **base**: a [`duop_core::snapshot::Snapshot::Session`]
//!   written atomically (temp file + rename) by
//!   [`duop_core::snapshot::save`].
//! * `session-N.log`, the **journal**: the events acknowledged since the
//!   base, appended once per ingest POST before the ack is sent.
//!
//! ```text
//! journal      := record*
//! record       := offset-frame event-frame+     (one per ingest POST)
//! offset-frame := 'O' len varint(start) crc
//! event-frame  := a `.duob` 'E' frame (varint count, then the events)
//! ```
//!
//! Both frame kinds use the `.duob` framing (`type len payload crc32`,
//! see [`duop_history::binary`]); `start` is the acknowledged-event
//! offset of the record's first event, so every record says where it
//! belongs. A record goes out in one write.
//!
//! **When the base is rewritten.** Once the events journaled since the
//! base would exceed the events that base retained, the base is rewritten
//! instead and the journal dropped. Rewrites are then geometrically
//! spaced on a growing session, and each costs at most twice the events
//! journaled since the previous one, so persistence stays amortised O(1)
//! per event; on a compacted or degraded session the journal is bounded
//! by the retained budget the same way.
//!
//! **Recovery** ([`replay`]) resumes the base and feeds the journal
//! through [`Session::ingest`]. It stops at the first truncated, CRC-bad,
//! undecodable or out-of-order frame. Records the base (or an earlier
//! record) already covers — a crash between the base rename and the
//! journal's removal — are skipped, and a record that starts past the
//! acknowledged offset is a gap that ends the replay, so no event is
//! ever applied twice or skipped over. Replay never writes: the next
//! persisted POST rewrites the base, which also drops whatever the
//! journal held past the point replay stopped.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};

use duop_history::binary::{self, FRAME_EVENTS};
use duop_history::Event;

use crate::session::Session;

/// Frame type that opens each journal record; its payload is the varint
/// acknowledged-event offset of the record's first event.
pub const FRAME_OFFSET: u8 = b'O';

/// Path of session `id`'s base checkpoint in the state dir `dir`.
pub fn base_path(dir: &str, id: u64) -> String {
    format!("{dir}/session-{id}.ck")
}

/// Path of the journal that accompanies the base checkpoint `base`:
/// `session-N.ck` becomes `session-N.log`.
pub fn log_path(base: &str) -> String {
    format!("{}.log", base.strip_suffix(".ck").unwrap_or(base))
}

/// The journal record of `events`, the first of which is acknowledged
/// event number `start`.
pub fn record(start: u64, events: &[Event]) -> Vec<u8> {
    let mut payload = Vec::new();
    binary::write_varint(&mut payload, start);
    let mut out = Vec::new();
    binary::push_frame(&mut out, FRAME_OFFSET, &payload);
    binary::push_event_frames(&mut out, events);
    out
}

/// What replaying a journal onto a resumed session did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Replay {
    /// Journaled events the session acknowledged again.
    pub applied: u64,
    /// Journaled events skipped because the base already covered them.
    pub skipped: u64,
    /// Why replay stopped before the end of the journal, if it did.
    pub stopped: Option<String>,
}

/// Replays the journal `bytes` onto `session`, which was just resumed
/// from the journal's base. Never panics: anything unreadable ends the
/// replay at the last whole, in-order frame.
pub fn replay(session: &mut Session, bytes: &[u8]) -> Replay {
    let mut out = Replay::default();
    if bytes.is_empty() {
        return out;
    }
    // Whatever the journal holds, the base on disk no longer describes
    // the session alone: the next persisted batch rewrites it.
    session.journal.base_retained = None;
    // Offset of the next event frame's first event, once a record's
    // offset frame has said where it starts.
    let mut offset: Option<u64> = None;
    let mut events = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let at = pos;
        let stop = match binary::read_frame(bytes, &mut pos) {
            Ok((FRAME_OFFSET, payload, base)) => {
                let mut p = 0usize;
                match binary::decode_varint(payload, &mut p, base) {
                    Ok(start) if p == payload.len() => {
                        offset = Some(start);
                        continue;
                    }
                    _ => "malformed offset frame".to_owned(),
                }
            }
            Ok((FRAME_EVENTS, payload, base)) => {
                events.clear();
                match (
                    offset,
                    binary::decode_event_payload(payload, base, &mut events),
                ) {
                    (_, Err(e)) => e.to_string(),
                    (None, Ok(())) => "event frame without an offset frame".to_owned(),
                    (Some(start), Ok(())) => match apply(session, start, &events, &mut out) {
                        Ok(next) => {
                            offset = Some(next);
                            continue;
                        }
                        Err(why) => why,
                    },
                }
            }
            Ok((ty, _, _)) => format!("unknown frame type {ty:#04x}"),
            Err(e) => e.to_string(),
        };
        out.stopped = Some(format!("frame at byte {at}: {stop}"));
        break;
    }
    out
}

/// Applies one event frame whose first event is acknowledged event
/// number `start`, returning the offset that follows it.
fn apply(
    session: &mut Session,
    start: u64,
    events: &[Event],
    out: &mut Replay,
) -> Result<u64, String> {
    let n = events.len() as u64;
    let end = start.saturating_add(n);
    let acked = session.ingested();
    if end <= acked {
        out.skipped += n;
        return Ok(end);
    }
    if start != acked {
        return Err(format!(
            "starts at event {start}, but {acked} are acknowledged"
        ));
    }
    match session.ingest(events) {
        Ok(report) => {
            out.applied += report.accepted;
            Ok(end)
        }
        Err((e, report)) => {
            out.applied += report.accepted;
            Err(e.to_string())
        }
    }
}

/// Replays the journal next to the base checkpoint `base` (if there is
/// one) onto `session`, which was just resumed from that base.
pub fn replay_sibling(session: &mut Session, base: &str) -> Replay {
    match std::fs::read(log_path(base)) {
        Ok(bytes) => replay(session, &bytes),
        Err(_) => Replay::default(),
    }
}

/// A session's journal writer and the counters of the rewrite rule.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    /// The open journal, once an append has created it since the base.
    file: Option<File>,
    /// Events appended since the base was written.
    journaled: u64,
    /// Events the base on disk retained; `None` when no base describes
    /// the session's start (a new session, or one whose journal was
    /// replayed), so the next persisted batch must rewrite it.
    pub(crate) base_retained: Option<u64>,
    /// Set when the session is deleted: nothing may be written again.
    pub(crate) deleted: bool,
}

impl Journal {
    /// The journal of a session resumed from a base that retained
    /// `retained` events.
    pub(crate) fn after_base(retained: u64) -> Self {
        Journal {
            base_retained: Some(retained),
            ..Journal::default()
        }
    }

    /// Whether `n` more events may be appended before the base has to be
    /// rewritten.
    pub(crate) fn fits(&self, n: u64) -> bool {
        self.base_retained
            .is_some_and(|retained| self.journaled + n <= retained)
    }

    /// Appends `bytes` (a [`record`] of `n` events) to the journal at
    /// `path`, creating or truncating it first if it is not open yet.
    /// After a failed write the journal may end in a torn record, so the
    /// next persisted batch rewrites the base instead of appending.
    pub(crate) fn write(&mut self, path: &str, bytes: &[u8], n: u64) -> io::Result<()> {
        let written = match &mut self.file {
            Some(file) => file.write_all(bytes),
            None => OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(path)
                .and_then(|mut file| {
                    file.write_all(bytes)?;
                    self.file = Some(file);
                    Ok(())
                }),
        };
        match written {
            Ok(()) => self.journaled += n,
            Err(_) => {
                self.file = None;
                self.base_retained = None;
            }
        }
        written
    }

    /// Records that a base retaining `retained` events was just written,
    /// and removes the journal at `path` that it supersedes.
    pub(crate) fn reset(&mut self, path: &str, retained: u64) {
        self.file = None;
        self.journaled = 0;
        self.base_retained = Some(retained);
        std::fs::remove_file(path).ok();
    }
}
