//! Crash recovery from a session's base checkpoint plus journal.
//!
//! A real in-process daemon writes the state dir; the tests then damage
//! it the way crashes and bit rot do — a journal torn at every byte of
//! its last record, a flipped bit, a stale journal the base already
//! covers, a journal that starts past the base, an out-of-order record,
//! an oversized length — and require recovery to stop at the last whole
//! in-order record without panicking, the daemon to come up on the
//! damaged dir and serve the right acknowledged count, and the client's
//! re-streamed suffix to reach the one-shot batch verdict. Offline, base
//! plus replay must reproduce the uninterrupted session's
//! `SessionSnapshot` bytes at every POST boundary, with and without a
//! retained-event budget (compaction and degradation).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

use duop_core::snapshot::{self, Snapshot};
use duop_core::{Criterion, DuOpacity, SearchConfig};
use duop_gen::{HistoryGen, HistoryGenConfig};
use duop_history::binary;
use duop_history::trace::format_trace;
use duop_history::History;
use duop_serve::{journal, Replay, ServeConfig, Server, Session, ShutdownHandle};

/// Events per ingest POST (the benchmark's chunk size).
const CHUNK: usize = 16;

struct Daemon {
    addr: String,
    handle: ShutdownHandle,
    join: std::thread::JoinHandle<()>,
}

impl Daemon {
    fn start(cfg: ServeConfig) -> Daemon {
        let server = Server::bind(cfg).expect("bind");
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || {
            let mut sink = Vec::new();
            server.run(&mut sink).expect("server run");
        });
        Daemon { addr, handle, join }
    }

    fn on(dir: &str) -> Daemon {
        Daemon::start(ServeConfig {
            state_dir: Some(dir.to_owned()),
            ..ServeConfig::default()
        })
    }

    /// Stops the daemon. The drain writes nothing to the state dir, so
    /// what is left there is exactly what a kill would leave.
    fn stop(self) {
        self.handle.shutdown();
        self.join.join().expect("server thread");
    }

    /// One request on a fresh connection: `(status, body)`.
    fn call(&self, method: &str, path: &str, body: &[u8]) -> (u16, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\
             Content-Type: text/plain\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).expect("write head");
        stream.write_all(body).expect("write body");
        let mut out = Vec::new();
        stream.read_to_end(&mut out).expect("read response");
        let text = String::from_utf8(out).expect("utf-8 response");
        let status = text
            .strip_prefix("HTTP/1.1 ")
            .and_then(|t| t[..3].parse().ok())
            .unwrap_or_else(|| panic!("no status line in {text:?}"));
        let body = text
            .split_once("\r\n\r\n")
            .map_or("", |(_, b)| b)
            .to_owned();
        (status, body)
    }

    fn create(&self, budget: Option<usize>) -> u64 {
        let path = match budget {
            Some(b) => format!("/v1/session?budget={b}"),
            None => "/v1/session".to_owned(),
        };
        let (status, body) = self.call("POST", &path, b"");
        assert_eq!(status, 201, "create: {body}");
        json_u64(&body, "session")
    }

    fn post(&self, sid: u64, body: &[u8]) -> (u16, String) {
        self.call("POST", &format!("/v1/session/{sid}/events"), body)
    }

    fn ingested(&self, sid: u64) -> u64 {
        let (status, body) = self.call("GET", &format!("/v1/session/{sid}"), b"");
        assert_eq!(status, 200, "status: {body}");
        json_u64(&body, "ingested")
    }

    fn verdict(&self, sid: u64) -> String {
        let (status, body) = self.call("GET", &format!("/v1/session/{sid}/verdict"), b"");
        assert_eq!(status, 200, "verdict: {body}");
        body
    }
}

fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat).unwrap_or_else(|| panic!("{key} in {body}")) + pat.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("integer field")
}

/// Events `range` of `h` as a text trace body.
fn body(h: &History, range: std::ops::Range<usize>) -> Vec<u8> {
    let text = format_trace(h);
    let lines: Vec<&str> = text.lines().collect();
    let mut out = lines[range].join("\n");
    out.push('\n');
    out.into_bytes()
}

fn temp_dir(name: &str) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("journal-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.to_string_lossy().into_owned()
}

fn trace(txns: usize, seed: u64) -> History {
    HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(txns), seed).generate()
}

/// `txns` sequential read-then-write transactions over three objects:
/// every transaction boundary is a t-complete, certified cut, so a
/// retained-event budget compacts it (and degrades it when the cap falls
/// inside a transaction).
fn sequential(txns: u32) -> History {
    let mut text = String::new();
    let mut last = [0u32; 3];
    for t in 1..=txns {
        let x = (t % 3) as usize;
        text.push_str(&format!(
            "T{t} read X{x}\nT{t} val {}\nT{t} write X{x} {t}\nT{t} ok\nT{t} tryc\nT{t} commit\n",
            last[x]
        ));
        last[x] = t;
    }
    duop_history::trace::parse_trace(&text).expect("well-formed sequential trace")
}

/// The `duop check --criterion du --format json` line for `h`.
fn batch_line(h: &History) -> String {
    let v = DuOpacity::with_config(SearchConfig::default()).check(h);
    format!(
        "{{\"criterion\":\"du-opacity\",\"verdict\":{}}}\n",
        serde_json::to_string(&v).unwrap()
    )
}

fn snapshot_bytes(s: &Session) -> String {
    snapshot::to_file_string(&Snapshot::Session(s.snapshot()))
}

/// Recovers session `sid` from `dir` offline, the way the daemon does.
fn recover(dir: &str, sid: u64) -> (Session, Replay) {
    let base = journal::base_path(dir, sid);
    let Snapshot::Session(snap) = snapshot::load(&base).expect("base loads") else {
        panic!("{base} is not a session checkpoint");
    };
    let mut session = Session::resume(snap).expect("base resumes");
    let replay = journal::replay_sibling(&mut session, &base);
    (session, replay)
}

/// The uninterrupted session's snapshot bytes after each POST, keyed by
/// events acknowledged, and its final verdict line.
fn reference(sid: u64, budget: Option<usize>, h: &History) -> (Vec<(u64, String)>, String) {
    let mut s = Session::new(sid, budget);
    let mut out = vec![(0, snapshot_bytes(&s))];
    for chunk in h.events().chunks(CHUNK) {
        s.ingest(chunk).expect("generated traces are well formed");
        out.push((s.ingested(), snapshot_bytes(&s)));
    }
    (out, s.verdict_line(true))
}

fn reference_at(refs: &[(u64, String)], ingested: u64) -> &str {
    &refs
        .iter()
        .find(|(n, _)| *n == ingested)
        .unwrap_or_else(|| panic!("no POST boundary at {ingested}"))
        .1
}

#[test]
fn replay_reproduces_the_uninterrupted_snapshot_at_every_post() {
    let (mut compacted, mut degraded) = (false, false);
    let cases = [
        (trace(48, 3), None),
        (trace(48, 11), None),
        (sequential(40), Some(12)),
        (sequential(40), Some(30)),
        (trace(48, 11), Some(24)),
    ];
    for (k, (h, budget)) in cases.into_iter().enumerate() {
        let dir = temp_dir(&format!("every-post-{k}"));
        let daemon = Daemon::on(&dir);
        let sid = daemon.create(budget);
        let (refs, last) = reference(sid, budget, &h);
        let mut acked = 0;
        while acked < h.len() {
            let end = (acked + CHUNK).min(h.len());
            let (status, ack) = daemon.post(sid, &body(&h, acked..end));
            assert_eq!(status, 200, "post: {ack}");
            acked = end;
            let (s, replay) = recover(&dir, sid);
            assert_eq!(replay.stopped, None, "case {k}: {replay:?}");
            assert_eq!(s.ingested(), acked as u64);
            assert_eq!(
                snapshot_bytes(&s),
                reference_at(&refs, acked as u64),
                "case {k}: base + journal diverge after {acked} events"
            );
            compacted |= s.stats().compactions > 0;
            degraded |= s.degraded();
        }
        assert_eq!(daemon.verdict(sid), last);
        if budget.is_none() {
            assert_eq!(last, batch_line(&h));
        }
        daemon.stop();
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(compacted, "no budget compacted a session");
    assert!(degraded, "no budget degraded a session");
}

/// A state dir captured after each of six 16-event POSTs into one
/// session. By the rewrite rule, POSTs 1 and 3 rewrite the base (16 and
/// 48 events) and POSTs 2, 4, 5 and 6 append, so after POST 6 the
/// journal holds three records (events 48..96).
struct Scenario {
    h: History,
    sid: u64,
    /// `(base, journal)` bytes after each POST.
    files: Vec<(Vec<u8>, Option<Vec<u8>>)>,
    refs: Vec<(u64, String)>,
}

impl Scenario {
    fn new(name: &str) -> Scenario {
        let h = trace(32, 5);
        assert!(h.len() > 6 * CHUNK);
        let dir = temp_dir(&format!("scenario-{name}"));
        let daemon = Daemon::on(&dir);
        let sid = daemon.create(None);
        let mut files = Vec::new();
        for k in 0..6 {
            let (status, ack) = daemon.post(sid, &body(&h, k * CHUNK..(k + 1) * CHUNK));
            assert_eq!(status, 200, "post: {ack}");
            let base = journal::base_path(&dir, sid);
            let log = std::fs::read(journal::log_path(&base)).ok();
            files.push((std::fs::read(&base).expect("base written"), log));
        }
        daemon.stop();
        std::fs::remove_dir_all(&dir).ok();
        let (refs, _) = reference(sid, None, &h);
        Scenario {
            h,
            sid,
            files,
            refs,
        }
    }

    /// The journal after the last POST.
    fn log(&self) -> &[u8] {
        self.files[5].1.as_deref().expect("POST 6 appended")
    }

    /// Requires that `base` plus `log` recover to exactly `expect`
    /// acknowledged events — offline and, when `daemon` is set, in a
    /// daemon that must come up on them, report that count, accept the
    /// re-streamed suffix and serve the one-shot batch verdict. Returns
    /// the offline replay.
    fn recovers_to(
        &self,
        name: &str,
        base: &[u8],
        log: &[u8],
        expect: usize,
        daemon: bool,
    ) -> Replay {
        let dir = temp_dir(name);
        let base_file = journal::base_path(&dir, self.sid);
        std::fs::write(&base_file, base).unwrap();
        std::fs::write(journal::log_path(&base_file), log).unwrap();
        let (s, replay) = recover(&dir, self.sid);
        assert_eq!(s.ingested(), expect as u64, "{name}: {replay:?}");
        assert_eq!(
            snapshot_bytes(&s),
            reference_at(&self.refs, expect as u64),
            "{name}"
        );
        if daemon {
            let d = Daemon::on(&dir);
            assert_eq!(d.ingested(self.sid), expect as u64, "{name}");
            // The first POST after recovery must persist against the
            // replayed state, not the stale base; then the rest.
            for range in [expect..expect + CHUNK, expect + CHUNK..self.h.len()] {
                let (status, ack) = d.post(self.sid, &body(&self.h, range.clone()));
                assert_eq!(status, 200, "{name}: {ack}");
                assert_eq!(json_u64(&ack, "ingested"), range.end as u64, "{name}");
                let (s, _) = recover(&dir, self.sid);
                assert_eq!(
                    snapshot_bytes(&s),
                    reference_at(&self.refs, range.end as u64),
                    "{name}: after re-streaming up to {}",
                    range.end
                );
            }
            assert_eq!(d.verdict(self.sid), batch_line(&self.h), "{name}");
            d.stop();
        }
        std::fs::remove_dir_all(&dir).ok();
        replay
    }
}

/// Byte ranges of the records of a journal (offset frame plus one event
/// frame each).
fn records(log: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < log.len() {
        let start = pos;
        for _ in 0..2 {
            binary::read_frame(log, &mut pos).expect("well-formed journal");
        }
        out.push(start..pos);
    }
    out
}

#[test]
fn torn_tail_recovers_to_the_last_whole_record_at_every_offset() {
    let sc = Scenario::new("torn");
    let base = &sc.files[5].0;
    let log = sc.log();
    let rec = records(log);
    assert_eq!(rec.len(), 3);
    sc.recovers_to("torn-none", base, log, 96, true);
    for cut in rec[2].clone() {
        sc.recovers_to(&format!("torn-{cut}"), base, &log[..cut], 80, true);
    }
}

#[test]
fn crc_bit_flip_stops_replay_at_the_flipped_record() {
    let sc = Scenario::new("flip");
    let base = &sc.files[5].0;
    let log = sc.log();
    let rec = records(log);
    for at in rec[1].clone() {
        for bit in [0, 3, 7] {
            let mut bad = log.to_vec();
            bad[at] ^= 1 << bit;
            let name = format!("flip-{at}-{bit}");
            sc.recovers_to(&name, base, &bad, 64, at == rec[1].end - 6);
        }
    }
}

#[test]
fn stale_journal_covered_by_the_base_is_skipped() {
    // A crash between the base rename after POST 3 and the removal of
    // the journal it superseded (POST 2's record of events 16..32).
    let sc = Scenario::new("stale");
    let stale = sc.files[1].1.as_deref().expect("POST 2 appended");
    let base = &sc.files[2].0;
    assert!(sc.files[2].1.is_none(), "POST 3 rewrote the base");
    let replay = sc.recovers_to("stale", base, stale, 48, true);
    assert_eq!((replay.applied, replay.skipped), (0, 16));
    assert_eq!(replay.stopped, None);
}

#[test]
fn offset_gap_and_out_of_order_records_apply_nothing_past_them() {
    let sc = Scenario::new("gap");
    let events = sc.h.events();
    // The journal starts at 48 but the base only covers 16.
    sc.recovers_to("gap", &sc.files[0].0, sc.log(), 16, true);
    let base = &sc.files[5].0;
    // A record straddling the base's offset (40..56 against 48).
    let straddle = journal::record(40, &events[40..56]);
    sc.recovers_to("straddle", base, &straddle, 48, true);
    // A lost record: 48..64 is followed by 72..88.
    let mut lost = journal::record(48, &events[48..64]);
    lost.extend(journal::record(72, &events[72..88]));
    sc.recovers_to("lost", base, &lost, 64, true);
    // A replayed duplicate is covered and skipped; the next record applies.
    let mut dup = journal::record(48, &events[48..64]);
    dup.extend(journal::record(48, &events[48..64]));
    dup.extend(journal::record(64, &events[64..80]));
    let replay = sc.recovers_to("duplicate", base, &dup, 80, false);
    assert_eq!((replay.applied, replay.skipped), (32, 16));
    // An event frame with no offset frame before it.
    let mut headless = Vec::new();
    binary::push_event_frames(&mut headless, &events[48..64]);
    sc.recovers_to("headless", base, &headless, 48, false);
}

#[test]
fn oversized_record_length_stops_replay() {
    let sc = Scenario::new("oversized");
    let base = &sc.files[5].0;
    let log = sc.log();
    // The length prefix of the last record's event frame.
    let last = records(log)[2].clone();
    let mut frame_at = last.start;
    binary::read_frame(log, &mut frame_at).unwrap();
    let mut len_at = frame_at + 1;
    let len = binary::decode_varint(log, &mut len_at, 0).unwrap();
    for declared in [u64::from(u32::MAX), 1 << 21, len + 1] {
        let mut bad = log[..=frame_at].to_vec();
        binary::write_varint(&mut bad, declared);
        bad.extend_from_slice(&log[len_at..]);
        sc.recovers_to(&format!("oversized-{declared}"), base, &bad, 80, true);
    }
}

#[test]
fn malformed_batch_prefix_is_journaled_and_survives_a_restart() {
    let h = trace(24, 9);
    let dir = temp_dir("malformed-prefix");
    let daemon = Daemon::on(&dir);
    let sid = daemon.create(None);
    let (status, _) = daemon.post(sid, &body(&h, 0..CHUNK));
    assert_eq!(status, 200);
    // Ten good events, then a commit for a transaction that never began.
    let mut bad = body(&h, CHUNK..CHUNK + 10);
    bad.extend_from_slice(b"T999 commit\n");
    bad.extend_from_slice(&body(&h, CHUNK + 10..CHUNK + 16));
    let (status, msg) = daemon.post(sid, &bad);
    assert_eq!(status, 400, "{msg}");
    assert_eq!(daemon.ingested(sid), (CHUNK + 10) as u64);
    daemon.stop();

    let daemon = Daemon::on(&dir);
    assert_eq!(daemon.ingested(sid), (CHUNK + 10) as u64);
    let (status, _) = daemon.post(sid, &body(&h, CHUNK + 10..h.len()));
    assert_eq!(status, 200);
    assert_eq!(daemon.verdict(sid), batch_line(&h));
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

fn metric(d: &Daemon, name: &str) -> u64 {
    let (status, text) = d.call("GET", "/metrics", b"");
    assert_eq!(status, 200);
    let prefix = format!("duop_serve_{name} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no {name} in {text}"))
        .parse()
        .unwrap()
}

#[test]
fn metrics_count_appends_and_rewrites_and_delete_removes_both_files() {
    let h = trace(32, 5);
    let dir = temp_dir("metrics");
    let daemon = Daemon::on(&dir);
    let sid = daemon.create(None);
    for k in 0..6 {
        let (status, _) = daemon.post(sid, &body(&h, k * CHUNK..(k + 1) * CHUNK));
        assert_eq!(status, 200);
    }
    assert_eq!(metric(&daemon, "checkpoints_written"), 4);
    assert_eq!(metric(&daemon, "checkpoint_rewrites"), 2);
    let base = journal::base_path(&dir, sid);
    assert!(Path::new(&base).exists() && Path::new(&journal::log_path(&base)).exists());
    let (status, _) = daemon.call("DELETE", &format!("/v1/session/{sid}"), b"");
    assert_eq!(status, 200);
    assert!(!Path::new(&base).exists(), "DELETE left the base");
    assert!(
        !Path::new(&journal::log_path(&base)).exists(),
        "DELETE left the journal"
    );
    let (status, _) = daemon.call("GET", &format!("/v1/session/{sid}"), b"");
    assert_eq!(status, 404);
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reaped_session_pages_back_in_from_base_and_journal() {
    let h = trace(32, 7);
    let dir = temp_dir("reaped");
    let daemon = Daemon::start(ServeConfig {
        state_dir: Some(dir.clone()),
        idle_timeout: Duration::ZERO,
        ..ServeConfig::default()
    });
    let sid = daemon.create(None);
    let (refs, _) = reference(sid, None, &h);
    let mut acked = 0;
    while acked < h.len() {
        let end = (acked + CHUNK).min(h.len());
        let (status, ack) = daemon.post(sid, &body(&h, acked..end));
        assert_eq!(status, 200, "post: {ack}");
        acked = end;
        let (s, _) = recover(&dir, sid);
        assert_eq!(
            snapshot_bytes(&s),
            reference_at(&refs, acked as u64),
            "after {acked} events"
        );
        if acked == 2 * CHUNK {
            // The reaper runs once a second; let it evict the session
            // while its journal holds POST 2's record.
            let t0 = std::time::Instant::now();
            while metric(&daemon, "sessions_reaped") == 0 {
                assert!(t0.elapsed() < Duration::from_secs(20), "never reaped");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    assert!(metric(&daemon, "sessions_recovered") >= 1);
    assert_eq!(daemon.verdict(sid), batch_line(&h));
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}
