//! `serve_stream`: a real `duop serve --state-dir <fresh dir>` daemon
//! (default per-POST checkpoints) and two closed-loop keep-alive clients
//! streaming 96-txn traces in fixed-size text chunks, with a verdict GET
//! after every few ingest POSTs.

use crate::corpus::{self, Trace};
use crate::http::{json_u64, Conn};
use crate::stats::{self, Summary};
use crate::trace::Recorder;
use crate::{gate, pipeline, secs, Ctx, Outcome};
use duop_history::History;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Traces in the serve corpus.
pub const TRACES: usize = 64;
/// Events per ingest POST.
pub const CHUNK_EVENTS: usize = 16;
/// A verdict GET follows every this many ingest POSTs (and the last one).
pub const VERDICT_EVERY: usize = 4;
/// Concurrent clients (one keep-alive connection each).
pub const CLIENTS: usize = 2;
/// Ingest POSTs per latency group: the p99 of 1000 has ten beyond it.
const LATENCY_GROUP: usize = 1000;
/// Daemon starts during set-up; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;
/// Target length of a client segment; the reference kernel is timed
/// between segments.
const SEGMENT_S: f64 = 2.0;

/// A running `duop serve`.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts a daemon on a fresh `state_dir` and waits for it to listen.
    pub fn start(duop: &Path, state_dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(state_dir);
        std::fs::create_dir_all(state_dir).map_err(|e| e.to_string())?;
        let mut child = Command::new(duop)
            .args(["serve", "--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", duop.display()))?;
        let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = match reader.read_line(&mut line) {
            Ok(n) if n > 0 => line.trim().strip_prefix("listening on ").map(str::to_owned),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("duop serve did not report listening: {line:?}"));
        };
        // Keep draining stdout so the daemon never blocks writing to it.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// Peak resident memory so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        stats::peak_rss_mb(self.child.id()).unwrap_or(f64::NAN)
    }
}

/// Dropping a daemon stops it and waits for it to exit.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// POST → ack latency per ingest, ms.
    pub ingest_ms: Vec<f64>,
    /// GET verdict latency, ms.
    pub verdict_ms: Vec<f64>,
    /// Events acknowledged.
    pub events: u64,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed (non-2xx, transport error, wrong ack).
    pub failed: u64,
    /// Failure descriptions.
    pub errors: Vec<String>,
    /// `(trace, events so far, verdict body)` for every verdict GET;
    /// `events so far == trace length` marks the final one.
    pub verdicts: Vec<(usize, usize, String)>,
    /// When each ingest was acknowledged, with its event count.
    pub acks: Vec<(Instant, usize)>,
    /// Spans, when traced.
    pub spans: Option<Recorder>,
}

/// One trace, pre-chunked.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Index into the serve corpus.
    pub trace: usize,
    /// Text chunks of [`CHUNK_EVENTS`] events.
    pub chunks: Vec<Vec<u8>>,
    /// Events per chunk.
    pub sizes: Vec<usize>,
}

impl Stream {
    /// Chunks `t`'s trace bytes.
    pub fn of(index: usize, t: &Trace) -> Stream {
        let chunks = corpus::text_chunks(&t.text, CHUNK_EVENTS);
        let sizes = chunks
            .iter()
            .map(|c| c.iter().filter(|&&b| b == b'\n').count())
            .collect();
        Stream {
            trace: index,
            chunks,
            sizes,
        }
    }
}

/// Streams one trace over `conn`: create, ingest chunk by chunk with
/// interleaved verdict GETs, final verdict, delete.
pub fn stream_one(
    conn: &mut Conn,
    s: &Stream,
    log: &mut ClientLog,
    request: &mut u64,
) -> Result<(), String> {
    let mut call =
        |log: &mut ClientLog, name: &'static str, method: &str, path: &str, body: &[u8]| {
            *request += 1;
            log.attempted += 1;
            let span = log.spans.as_mut().map(|r| r.enter(name, None, *request));
            let t0 = Instant::now();
            let r = conn.request(method, path, body);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if let (Some(r), Some(i)) = (log.spans.as_mut(), span) {
                r.exit(i);
            }
            match r {
                Ok((status, body)) if (200..300).contains(&status) => Ok((ms, body)),
                Ok((status, body)) => Err(format!(
                    "{method} {path}: HTTP {status}: {}",
                    String::from_utf8_lossy(&body).trim()
                )),
                Err(e) => Err(e),
            }
        };
    let (_, body) = call(log, "serve.create", "POST", "/v1/session", b"")?;
    let sid = json_u64(&body, "session").ok_or("create: no session id in reply")?;
    let events_path = format!("/v1/session/{sid}/events");
    let verdict_path = format!("/v1/session/{sid}/verdict");
    let total: usize = s.sizes.iter().sum();
    let mut sent = 0usize;
    for (k, (chunk, &n)) in s.chunks.iter().zip(&s.sizes).enumerate() {
        let (ms, ack) = call(log, "serve.ingest", "POST", &events_path, chunk)?;
        sent += n;
        if json_u64(&ack, "ingested") != Some(sent as u64) {
            return Err(format!(
                "ingest ack {:?} does not acknowledge {sent} events",
                String::from_utf8_lossy(&ack).trim()
            ));
        }
        log.ingest_ms.push(ms);
        log.events += n as u64;
        log.acks.push((Instant::now(), n));
        if (k + 1) % VERDICT_EVERY == 0 || sent == total {
            let (ms, body) = call(log, "serve.verdict", "GET", &verdict_path, b"")?;
            log.verdict_ms.push(ms);
            let text = String::from_utf8(body).map_err(|e| e.to_string())?;
            log.verdicts.push((s.trace, sent, text));
        }
    }
    call(
        log,
        "serve.delete",
        "DELETE",
        &format!("/v1/session/{sid}"),
        b"",
    )?;
    Ok(())
}

/// One client's keep-alive connection and its place among its traces,
/// kept from one segment of the run to the next.
#[derive(Debug, Default)]
pub struct Client {
    conn: Option<Conn>,
    /// The position, among this client's traces, of the next to stream.
    next: usize,
    /// The last request id used (for spans).
    request: u64,
}

/// [`CLIENTS`] clients, not yet connected.
pub fn clients() -> Vec<Client> {
    (0..CLIENTS)
        .map(|c| Client {
            request: (c as u64) << 40,
            ..Client::default()
        })
        .collect()
}

/// Runs `streams` against `addr` from the closed-loop `clients` until
/// `seconds` have passed (each client finishes its current trace).
/// Client `c` streams traces `c, c + CLIENTS, …`, cycling, and picks up
/// where it stopped in the last call.
pub fn drive(
    addr: &str,
    streams: &[Stream],
    seconds: f64,
    traced: bool,
    clients: &mut [Client],
) -> (Vec<ClientLog>, Instant, f64) {
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut log = ClientLog {
                        spans: traced.then(Recorder::new),
                        ..ClientLog::default()
                    };
                    let mine: Vec<&Stream> = streams.iter().skip(c).step_by(CLIENTS).collect();
                    while secs(start) < seconds {
                        let conn = match client.conn.as_mut() {
                            Some(conn) => conn,
                            None => match Conn::connect(addr) {
                                Ok(conn) => client.conn.insert(conn),
                                Err(e) => {
                                    log.attempted += 1;
                                    log.failed += 1;
                                    log.errors.push(e);
                                    break;
                                }
                            },
                        };
                        let s = mine[client.next % mine.len()];
                        client.next += 1;
                        if let Err(e) = stream_one(conn, s, &mut log, &mut client.request) {
                            log.failed += 1;
                            log.errors.push(format!("trace serve#{}: {e}", s.trace));
                            // A broken connection is not reused.
                            client.conn = None;
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (logs, start, secs(start))
}

/// Events acknowledged per second in each whole one-second window of a
/// segment that started at `start` and was meant to last `seconds` (all
/// clients together). A segment shorter than a second is one window of
/// its whole length.
pub fn window_rates(logs: &[ClientLog], start: Instant, seconds: f64, wall: f64) -> Vec<f64> {
    let windows = seconds.floor() as usize;
    if windows == 0 {
        let events: usize = logs.iter().flat_map(|l| &l.acks).map(|&(_, n)| n).sum();
        return vec![events as f64 / wall];
    }
    let mut per = vec![0usize; windows];
    for &(at, n) in logs.iter().flat_map(|l| &l.acks) {
        let w = at.saturating_duration_since(start).as_secs_f64().floor() as usize;
        if w < windows {
            per[w] += n;
        }
    }
    per.iter().map(|&n| n as f64).collect()
}

/// Gates every verdict a client received: the final one byte-identical
/// to the in-process line for the full trace; every intermediate one
/// valid for the prefix streamed so far, and never a violation when the
/// full trace is satisfied (violations are final: prefix closure).
pub fn gate_verdicts(
    seed: u64,
    corpus: &[Trace],
    oracle: &[String],
    logs: &[ClientLog],
) -> Result<(), String> {
    for log in logs {
        for (t, sent, body) in &log.verdicts {
            let trace = &corpus[*t];
            let got = body.trim_end_matches('\n');
            if *sent == trace.history.len() {
                gate::check_reply(seed, trace, &oracle[*t], got)?;
                continue;
            }
            let prefix = History::new(trace.history.events()[..*sent].to_vec())
                .map_err(|e| gate::fail(seed, &trace.name(), e))?;
            let status = gate::validate_line(&prefix, got).map_err(|e| {
                gate::fail(seed, &trace.name(), format!("after {sent} events: {e}"))
            })?;
            if status == gate::Status::Violated && gate::satisfied_line(&oracle[*t]) {
                return Err(gate::fail(
                    seed,
                    &trace.name(),
                    format!("violated after {sent} events but the full trace is satisfied"),
                ));
            }
        }
    }
    Ok(())
}

/// The in-process oracle line for each serve trace, gated.
pub fn oracle(seed: u64, corpus: &[Trace]) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let mut statuses = String::new();
    for t in corpus {
        let (h, v, line) =
            pipeline::check_bytes(&t.text).map_err(|e| gate::fail(seed, &t.name(), e))?;
        statuses.push(
            gate::validate(&h, &v)
                .map_err(|e| gate::fail(seed, &t.name(), e))?
                .letter(),
        );
        lines.push(line);
    }
    let refs: Vec<&Trace> = corpus.iter().collect();
    gate::check_pinned(seed, "serve", &refs, &statuses)?;
    crate::gate_reference(seed)?;
    Ok(lines)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, corpus: &[Trace], seconds: f64, rec: Option<&mut Recorder>) -> Outcome {
    let mut out = Outcome::default();
    let oracle = match oracle(ctx.seed, corpus) {
        Ok(o) => o,
        Err(e) => {
            out.gate.push(e);
            return out;
        }
    };
    let streams: Vec<Stream> = corpus
        .iter()
        .enumerate()
        .map(|(i, t)| Stream::of(i, t))
        .collect();

    // Set-up: start a daemon on a fresh state directory, wait for it to
    // listen, and stream one discarded warm-up chunk. Only the last
    // daemon started is kept.
    out.host.sample();
    let mut setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(d) = daemon.take() {
            drop(d);
        }
        let t0 = Instant::now();
        let d = match Daemon::start(&ctx.duop, &state_dir(&ctx.work, k)) {
            Ok(d) => d,
            Err(e) => {
                out.gate.push(e);
                return out;
            }
        };
        let listening = secs(t0);
        match warm_up(&d.addr, &streams[0]) {
            Ok(session) => setups.push((t0, listening + session)),
            Err(e) => {
                out.gate.push(format!("serve warm-up: {e}"));
                drop(d);
                return out;
            }
        }
        daemon = Some(d);
    }
    let daemon = daemon.expect("started above");

    // The clients run in segments with a reference-kernel sample between
    // them; each segment picks up the traces where the last one stopped.
    let segments = ((seconds / SEGMENT_S).round() as usize).max(1);
    let segment_s = seconds / segments as f64;
    let mut segs: Vec<(Vec<ClientLog>, Instant, f64)> = Vec::new();
    let mut clients = clients();
    out.host.sample();
    for _ in 0..segments {
        segs.push(drive(
            &daemon.addr,
            &streams,
            segment_s,
            rec.is_some(),
            &mut clients,
        ));
        out.host.sample();
    }
    drop(clients);
    out.e2e.peak_rss_mb = daemon.peak_rss_mb();
    drop(daemon);

    // Every timing is scaled by the host factor around its segment.
    let host = &out.host;
    let scaled_setups: Vec<f64> = setups
        .iter()
        .map(|&(t, s)| s / host.factor_at(t))
        .collect();
    let mut rates = Vec::new();
    let mut wall = 0.0;
    let mut logs: Vec<(ClientLog, f64)> = Vec::new();
    for (seg, start, seg_wall) in segs {
        let f = host.factor_at(start);
        rates.extend(
            window_rates(&seg, start, segment_s, seg_wall)
                .into_iter()
                .map(|r| r * f),
        );
        wall += seg_wall;
        logs.extend(seg.into_iter().map(|l| (l, f)));
    }
    out.e2e.setup_s = stats::median(&scaled_setups);

    let mut ingest = Vec::new();
    let mut acked: Vec<(Instant, f64)> = Vec::new();
    let mut verdict = Vec::new();
    let mut scaled_verdict = Vec::new();
    let mut events = 0u64;
    let mut traces = 0usize;
    for (log, f) in &logs {
        ingest.extend_from_slice(&log.ingest_ms);
        acked.extend(
            log.acks
                .iter()
                .map(|a| a.0)
                .zip(log.ingest_ms.iter().map(|x| x / f)),
        );
        verdict.extend_from_slice(&log.verdict_ms);
        scaled_verdict.extend(log.verdict_ms.iter().map(|x| x / f));
        events += log.events;
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.gate.extend(
            log.errors
                .iter()
                .map(|e| format!("serve_stream: seed {}: {e}", ctx.seed)),
        );
        traces += log
            .verdicts
            .iter()
            .filter(|(t, sent, _)| *sent == corpus[*t].history.len())
            .count();
    }
    let logs: Vec<ClientLog> = logs.into_iter().map(|(l, _)| l).collect();
    if let Some(rec) = rec {
        for log in logs.iter().filter_map(|l| l.spans.as_ref()) {
            rec.absorb(log);
        }
    }
    if out.gate.is_empty() {
        if let Err(e) = gate_verdicts(ctx.seed, corpus, &oracle, &logs) {
            out.gate.push(e);
        }
    }
    let ingest_s = Summary::of(&ingest);
    let verdict_s = Summary::of(&verdict);
    let scaled_verdict_s = Summary::of(&scaled_verdict);
    // The median over one-second windows keeps a transient slowdown of
    // the host out of it.
    out.e2e.throughput_per_s = stats::median(&rates);
    // Latency is the median over groups of POSTs in ack order, which
    // keeps a transient slowdown of the host out of it.
    acked.sort_by_key(|a| a.0);
    let in_order: Vec<f64> = acked.iter().map(|a| a.1).collect();
    out.e2e.latency_p50_ms = stats::group_quantile(&in_order, LATENCY_GROUP, 0.5);
    out.e2e.latency_tail_ms = stats::group_quantile(&in_order, LATENCY_GROUP, 0.99);
    let tail = |s: &Summary| s.p99.unwrap_or(f64::NAN);
    out.named = vec![
        ("setup_s", out.e2e.setup_s, "s", setups.len()),
        ("events_per_s", out.e2e.throughput_per_s, "1/s", rates.len()),
        ("ingest_p50_ms", out.e2e.latency_p50_ms, "ms", ingest_s.n),
        ("ingest_p99_ms", out.e2e.latency_tail_ms, "ms", ingest_s.n),
        ("verdict_p50_ms", scaled_verdict_s.p50, "ms", verdict_s.n),
        ("verdict_p99_ms", tail(&scaled_verdict_s), "ms", verdict_s.n),
    ];
    out.detail.push((
        "events_per_s_overall".into(),
        stats::num(events as f64 / wall),
    ));
    out.detail.push(("events".into(), events.to_string()));
    out.detail
        .push(("traces_streamed".into(), traces.to_string()));
    out.detail.push(("clients".into(), CLIENTS.to_string()));
    out.detail
        .push(("chunk_events".into(), CHUNK_EVENTS.to_string()));
    out.detail
        .push(("verdict_every_posts".into(), VERDICT_EVERY.to_string()));
    out.detail.push(("ingest_ms".into(), ingest_s.json("ms")));
    out.detail.push(("verdict_ms".into(), verdict_s.json("ms")));
    let raw_setups: Vec<f64> = setups.iter().map(|s| s.1).collect();
    out.detail
        .push(("setup_s_samples".into(), stats::samples(&raw_setups)));
    out
}

/// A fresh state directory for daemon start `k`.
pub fn state_dir(work: &Path, k: usize) -> PathBuf {
    work.join(format!("serve-state-{k}"))
}

/// The discarded warm-up: one session, one chunk, one verdict. Returns
/// the seconds the session took, from after the connection was accepted.
///
/// The daemon polls `accept` every 20 ms, and whether the first
/// connection waits for a poll depends on a race with the daemon's first
/// `accept`: a run's starts all took either ~2 ms or ~23 ms. An untimed
/// `GET /metrics` first keeps that race out of `setup_s`.
fn warm_up(addr: &str, s: &Stream) -> Result<f64, String> {
    let mut conn = Conn::connect(addr)?;
    let (sm, _) = conn.request("GET", "/metrics", b"")?;
    if sm != 200 {
        return Err(format!("GET /metrics: status {sm}"));
    }
    let t0 = Instant::now();
    let (_, body) = conn.request("POST", "/v1/session", b"")?;
    let sid = json_u64(&body, "session").ok_or("no session id")?;
    let (st, _) = conn.request("POST", &format!("/v1/session/{sid}/events"), &s.chunks[0])?;
    let (sv, _) = conn.request("GET", &format!("/v1/session/{sid}/verdict"), b"")?;
    let (sd, _) = conn.request("DELETE", &format!("/v1/session/{sid}"), b"")?;
    if (st, sv, sd) != (200, 200, 200) {
        return Err(format!("statuses {st}/{sv}/{sd}"));
    }
    Ok(secs(t0))
}
