//! Argument parsing for the `duop` tool (dependency-free).

use std::error::Error;
use std::fmt;

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
duop — check transactional-memory histories against du-opacity and friends

USAGE:
  duop check <trace-file|-> [--criterion NAME]... [--threads N]
             [--no-decompose] [--no-prelint] [--no-ladder] [--no-saturate]
             [--certify]
             [--deadline MS] [--max-states N] [--retry N] [--escalate F]
             [--checkpoint FILE] [--checkpoint-every N]
             [--format text|json]
  duop shard <trace-file|->... [--workers N] [--criterion NAME]...
             [--connect HOST:PORT]... [--secret-file FILE]
             [--no-decompose] [--no-prelint] [--no-ladder] [--no-saturate]
             [--deadline MS] [--max-states N] [--retry N] [--min-chunk N]
             [--format text|json]
  duop shard-serve --secret-file FILE [--listen HOST:PORT]
  duop certify <trace-file|-> [--criterion NAME]... [--format text|json]
  duop lint <trace-file|-> [--format text|json] [--rule ID]...
            [--explain RULE-ID]
  duop fuzz --engine tl2|norec|dstm|2pl|pessimistic|dirty
            [--faults SPEC] [--seed N] [--iters N] [--threads N]
            [--objs N] [--format text|json]
            [--trace-out FILE] [--trace-format text|binary]
  duop render <trace-file|->
  duop monitor <trace-file|-> [--checkpoint FILE] [--checkpoint-every N]
               [--status-every N] [--compact-every N]
  duop serve [--addr HOST:PORT] [--state-dir DIR] [--session-cap N]
             [--idle-timeout SECS] [--max-retained N] [--session-budget N]
             [--peer-rps N]
  duop client <trace-file|-> --addr HOST:PORT [--session ID]
              [--chunk-events N] [--body-format text|binary] [--budget N]
              [--format text|json]
  duop resume <checkpoint-file>
  duop generate [--mode simulated|value|adversarial] [--txns N] [--objs N]
                [--seed N] [--unique] [--concurrency N]
  duop convert <trace-file|-> [<out-file|->] --format text|json|binary|dbcop
  duop graph <trace-file|->
  duop localize <trace-file|->
  duop figures
  duop litmus
  duop help

Traces use the line format (`T1 write X0 1` / `T1 ok` / `T1 tryc` /
`T1 commit` ...), JSON (an array of events), the `.duob` framed binary
encoding, or a dbcop-style session-history object; `-` reads stdin. Every
trace-consuming command sniffs the encoding from the leading bytes, so
text, JSON, binary, and dbcop inputs are interchangeable everywhere.
`duop convert IN [OUT]` transcodes between them (`--format binary` writes
`.duob`; `--to` is accepted as a synonym; OUT defaults to stdout). Criteria:
du-opacity (default), final-state, opacity, rco, tms2, tms2-automaton,
strict. `--threads N` runs the serialization search on N worker threads
(0 = all hardware threads); the verdict and witness are identical to the
sequential engine's. `--no-decompose` disables the search planner's
conflict-graph decomposition (ablation; slower on multi-component
histories, same verdicts). `--no-prelint` disables the polynomial lint
prefilter (ablation, same verdicts). `--no-saturate` disables the
certifying must-precede saturation prefilter, which runs after lint and
decides many histories polynomially: a derived precedence cycle becomes
a machine-checkable refutation certificate, a fully-determined order a
validated witness (ablation, same verdicts). `--certify` additionally
re-validates every saturation certificate with the independent
`check_certificate` validator before reporting it (a validation failure
is a usage-style error, exit 2). `--deadline MS` bounds each
serialization search by a wall-clock deadline and `--max-states N` by an
explored-state budget; a search that runs out reports `unknown (...)`
with a `partial` progress payload instead of hanging. On budget
exhaustion a sound degradation ladder (lint refutation, then the
Theorem 11 unique-writes fast path where applicable) tries to decide the
history anyway; `--no-ladder` disables it (ablation, never flips decided
verdicts). `--retry N --escalate F` re-runs a budget-starved check up to
N more times with the deadline/state budget multiplied by F each round,
resuming from cached component fragments rather than from scratch.
`--format json` prints each verdict as JSON on one line.

`shard` checks the same criteria across a pool of worker *processes*:
a coordinator plans each history's conflict-graph components and ships
them (whole histories for opacity and `--no-decompose`) to `--workers N`
workers (0 = all hardware threads, the default) over a CRC-guarded
binary protocol, largest component first with work stealing, then merges
the per-component verdicts into exactly the in-process verdict — same
output lines, same exit codes as `check`. Several trace files form one
batch sharing the pool. A crashed or killed worker costs one re-queued
component; after `--retry N` deaths (default 2) of the same task the
affected verdict degrades to `unknown (worker-death)` with a partial
payload instead of failing the run. `--min-chunk N` batches consecutive
tiny components into tasks of at least N transactions (default 8).
`--deadline`/`--max-states` bound each task's search; the
tms2-automaton criterion runs in the coordinator. (The hidden
`shard-worker` subcommand is the worker mode `shard` spawns; it is not
for interactive use.)

`shard-serve` runs the same worker loop as a TCP daemon so `shard` can
pool workers across hosts: each `--connect HOST:PORT` (repeatable,
freely mixed with local `--workers N`; `--workers 0` with at least one
`--connect` uses remote workers only) adds one remote worker to the
pool. Connections are authenticated with a challenge–response hello
keyed by the shared `--secret-file` (required on both ends; trailing
whitespace in the file is ignored): the daemon sends a fresh nonce, the
coordinator answers a keyed tag, and a wrong or replayed tag is
rejected before any task frame is read. The coordinator heartbeats each
remote, declares a silent host dead after a network timeout, reconnects
with jittered exponential backoff, and re-queues the lost task — so a
killed daemon or a partition costs retries, not verdicts, and the
merged output stays byte-identical to `duop check` while any worker
survives. Only past `--retry` deaths does the affected verdict degrade
to `unknown (worker-death)` with a partial payload.

`--checkpoint FILE` makes check and monitor write a versioned,
integrity-hashed snapshot of their progress atomically (temp file +
rename) as they go — roughly every `--checkpoint-every` explored states
(check, default 4096) or events (monitor, default 32) — and on
SIGINT/SIGTERM, which trigger a final flush instead of mid-line death.
`duop resume FILE` continues an interrupted run from its snapshot to the
same verdict the uninterrupted run would have reached; corrupt or
truncated checkpoints are rejected with a structured error (exit 2).
`duop monitor --status-every N` prints a JSON status line (retained and
peak-resident event counts, search statistics) every N events. Monitor
ingestion streams: text and binary traces are decoded one event at a
time, so the resident set is the checker's retained history, not the
input. `--compact-every N` additionally compacts the retained history
whenever it reaches N events and the prefix is certified, t-complete,
and has forced final values — replacing it with a synthetic committed
baseline transaction (sound: verdicts are unchanged; see DESIGN.md).
`--compact-threshold N` is a synonym.

`serve` runs the online monitor as a long-lived HTTP/1.1 daemon over
std::net, one independent checking session per client stream. Routes:
`POST /v1/session[?budget=N]` creates a session (201, `{\"session\":id}`);
`POST /v1/session/ID/events` ingests a text, JSON, or `.duob` trace
fragment (the body encoding is sniffed, exactly like trace files);
`GET /v1/session/ID/verdict[?format=text]` prints the same du-opacity
verdict line `duop check --criterion du` would; `GET /v1/session/ID` is
the resume point (acknowledged-event count); `DELETE /v1/session/ID`
ends it; `GET /metrics` is Prometheus-style text. `--addr HOST:PORT`
binds (port 0 picks a free port, printed as `listening on ...`).
`--state-dir DIR` makes every acknowledgement crash-safe: before each
ingest ack the batch's events are appended to the session's journal
(`session-N.log`, CRC-framed), and once the journal would outgrow the
session's integrity-hashed base checkpoint (`session-N.ck`) the base is
rewritten instead. On restart every session is recovered from its base
plus journal; `duop resume session-N.ck` replays the journal the same
way. SIGINT/SIGTERM drain gracefully (in-flight requests finish; there
is nothing left to flush).
`--session-budget N` caps each session's retained events — the budget
drives prefix compaction first and, when compaction cannot reclaim
space, degrades the session's verdict soundly to `unknown` with a
partial payload (a prior violation stays final) instead of growing
without bound. `--max-retained N` is the global ceiling across sessions:
past it the daemon sheds ingest with `429 Retry-After`. `--session-cap`
bounds live sessions (default 256); sessions idle past `--idle-timeout`
(default 300s) are evicted from memory, and page back in from the state
dir on next access. `--peer-rps N` rate-limits each client address to N session
requests per second (`/metrics` is exempt; 0, the default, disables
the limit); throttled requests get `429 Retry-After` and count in the
`duop_serve_throttled_requests` metric. `client` streams a local trace into a serve daemon: it creates
(or, with `--session ID`, resumes) a session, re-streams from the
daemon's acknowledged offset in `--chunk-events N` batches (default: one
batch), prints the final verdict line, and exits with `check`'s codes.
`--body-format binary` posts one `.duob` body instead of text chunks.
When the daemon sheds an ingest with 429, the client retries with
capped exponential backoff plus jitter, never below the daemon's
`Retry-After` hint.

`fuzz` runs the named STM engine under deterministic fault injection
(`--faults abort=P,crash=P,delay=P,thread-crash=P`, default
`abort=0.05,crash=0.05,thread-crash=0.25`) for `--iters` iterations
(default 500), checking every recorded history for du-opacity. The
workload is single-threaded by default so a finding replays exactly from
its seed; the first violation is shrunk to a minimal core and printed.
`--trace-out FILE` additionally writes the shrunk counterexample as a
standalone trace (`--trace-format binary` for `.duob`) that replays with
`duop check FILE`. Exit 1 on a finding, 0 on a clean run.

`certify` runs only the certifying saturation pass (no search) for the
saturable criteria (du-opacity, final-state, rco, tms2, strict). A
refutation prints its certificate — every derived edge with its rule and
premises, plus the closed cycle — after the independent validator
re-derives it from the literal history; a fully-determined history
prints its validated witness; anything else is reported `inconclusive`
(fall back to `duop check`). `--format json` emits the certificate as a
machine-readable object. Exit 1 on a certified refutation, 2 if a
certificate fails validation (a checker bug, never silent).

`lint` runs only the polynomial static analyses and prints structured
diagnostics (rule id, severity, event spans); `--rule ID` restricts the
output to the given rules (repeatable). Rule ids and summaries are listed
in DESIGN.md; an `error`-severity diagnostic is a proven refutation of
the criteria it names. `--explain RULE-ID` instead prints the rule's
paper grounding (definition and theorem references) and a minimal
example trace that fires it.

Exit codes: 0 all criteria satisfied (for lint: no error-severity
diagnostic), 1 some violated (lint: at least one error), 2 usage/parse
error.";

/// Which criterion to run in `duop check`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CriterionName {
    /// Definition 3.
    DuOpacity,
    /// Definition 4.
    FinalState,
    /// Definition 5.
    Opacity,
    /// Guerraoui–Henzinger–Singh read-commit order.
    Rco,
    /// The Section 4.2 informal TMS2 rendering.
    Tms2,
    /// The full TMS2 automaton.
    Tms2Automaton,
    /// Strict serializability baseline.
    Strict,
}

impl CriterionName {
    /// Parses a criterion name.
    pub fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "du" | "du-opacity" => Ok(CriterionName::DuOpacity),
            "final-state" | "fso" => Ok(CriterionName::FinalState),
            "opacity" => Ok(CriterionName::Opacity),
            "rco" | "read-commit-order" => Ok(CriterionName::Rco),
            "tms2" => Ok(CriterionName::Tms2),
            "tms2-automaton" => Ok(CriterionName::Tms2Automaton),
            "strict" | "strict-serializability" => Ok(CriterionName::Strict),
            other => Err(ParseError(format!("unknown criterion `{other}`"))),
        }
    }
}

/// Which STM engine `duop fuzz` drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineName {
    /// Commit-time locking with a global version clock.
    Tl2,
    /// Global sequence lock, value-based validation.
    NoRec,
    /// DSTM-style locators, invisible reads.
    Dstm,
    /// Encounter-time strict two-phase locking.
    TwoPl,
    /// No-abort write-in-place (Section 5's non-du-opaque design).
    Pessimistic,
    /// No locking, no validation: the negative control.
    Dirty,
}

impl EngineName {
    /// Parses an engine name.
    pub fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "tl2" => Ok(EngineName::Tl2),
            "norec" | "no-rec" => Ok(EngineName::NoRec),
            "dstm" => Ok(EngineName::Dstm),
            "2pl" | "two-pl" | "eager-2pl" => Ok(EngineName::TwoPl),
            "pessimistic" => Ok(EngineName::Pessimistic),
            "dirty" | "dirty-read" => Ok(EngineName::Dirty),
            other => Err(ParseError(format!("unknown engine `{other}`"))),
        }
    }
}

/// Generator mode for `duop generate`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenModeName {
    /// Version-validated (du-opaque by construction).
    Simulated,
    /// Value-validated (opaque, ABA-prone).
    Value,
    /// Arbitrary read results.
    Adversarial,
}

/// A parsed `duop` invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `duop check`.
    Check {
        /// Trace path (`-` = stdin).
        input: String,
        /// Criteria to run (empty = all).
        criteria: Vec<CriterionName>,
        /// Search worker threads (`1` = sequential, `0` = all hardware
        /// threads).
        threads: usize,
        /// Run the search planner's conflict-graph decomposition
        /// (`--no-decompose` clears it, for ablations).
        decompose: bool,
        /// Run the lint prefilter before searching (`--no-prelint`
        /// clears it, for ablations).
        prelint: bool,
        /// Run the verdict-degradation ladder on budget exhaustion
        /// (`--no-ladder` clears it, for ablations).
        ladder: bool,
        /// Run the certifying saturation prefilter (`--no-saturate`
        /// clears it, for ablations).
        saturate: bool,
        /// Re-validate every saturation certificate with the independent
        /// validator before reporting it (`--certify` sets it).
        certify: bool,
        /// Wall-clock deadline per serialization search, in milliseconds
        /// (`None` = unbounded).
        deadline_ms: Option<u64>,
        /// Explored-state budget per serialization search (`None` =
        /// unbounded).
        max_states: Option<u64>,
        /// Extra attempts for budget-starved criteria (`--retry`).
        retry: u64,
        /// Budget escalation factor per retry, in thousandths
        /// (`--escalate 2.0` → `2000`).
        escalate_milli: u64,
        /// Checkpoint file to write progress snapshots to.
        checkpoint: Option<String>,
        /// Flush a checkpoint roughly every this many explored states.
        checkpoint_every: u64,
        /// Output format: `text` or `json`.
        format: String,
    },
    /// `duop shard`.
    Shard {
        /// Trace paths (`-` = stdin); several files form one batch.
        inputs: Vec<String>,
        /// Worker processes (`0` = all hardware threads).
        workers: usize,
        /// Criteria to run (empty = all).
        criteria: Vec<CriterionName>,
        /// Decompose histories into per-component tasks
        /// (`--no-decompose` ships each history whole).
        decompose: bool,
        /// Run the lint prefilter (`--no-prelint` clears it).
        prelint: bool,
        /// Run the verdict-degradation ladder on merged unknowns
        /// (`--no-ladder` clears it).
        ladder: bool,
        /// Run the certifying saturation prefilter (`--no-saturate`
        /// clears it).
        saturate: bool,
        /// Wall-clock deadline per task, in milliseconds.
        deadline_ms: Option<u64>,
        /// Explored-state budget per task.
        max_states: Option<u64>,
        /// Worker deaths tolerated per task before its verdict degrades
        /// to `unknown (worker-death)`.
        retry: u64,
        /// Minimum transactions per dispatched task (consecutive small
        /// components are batched up to this floor).
        min_chunk: usize,
        /// Remote worker daemons to pool (`--connect HOST:PORT`,
        /// repeatable).
        connect: Vec<String>,
        /// File holding the shared secret that authenticates remote
        /// connections (required with `--connect`).
        secret_file: Option<String>,
        /// Output format: `text` or `json`.
        format: String,
    },
    /// The hidden worker mode `duop shard` spawns: speaks the shard
    /// protocol on stdin/stdout.
    ShardWorker,
    /// `duop shard-serve`: the TCP worker daemon remote coordinators
    /// `--connect` to.
    ShardServe {
        /// Bind address (`HOST:PORT`; port 0 picks a free port).
        listen: String,
        /// File holding the shared secret coordinators must prove.
        secret_file: String,
    },
    /// `duop fuzz`.
    Fuzz {
        /// Engine under test.
        engine: EngineName,
        /// Fault specification (`abort=P,crash=P,delay=P,thread-crash=P`).
        faults: String,
        /// Base seed; iteration `i` runs with seed `seed + i`.
        seed: u64,
        /// Number of fault-injected workload runs.
        iters: usize,
        /// Workload worker threads (1 = deterministic replay).
        threads: usize,
        /// Number of t-objects in the engine's store.
        objs: u32,
        /// Output format: `text` or `json`.
        format: String,
        /// Write the shrunk counterexample trace to this file.
        trace_out: Option<String>,
        /// Encoding for `--trace-out`: `text` or `binary`.
        trace_format: String,
    },
    /// `duop certify`.
    Certify {
        /// Trace path (`-` = stdin).
        input: String,
        /// Criteria to certify (empty = all saturable criteria).
        criteria: Vec<CriterionName>,
        /// Output format: `text` or `json`.
        format: String,
    },
    /// `duop lint`.
    Lint {
        /// Trace path (`-` = stdin).
        input: String,
        /// Output format: `text` or `json`.
        format: String,
        /// Restrict output to these rule ids (empty = all).
        rules: Vec<String>,
        /// Print one rule's paper grounding and example instead of
        /// linting (`--explain RULE-ID`).
        explain: Option<String>,
    },
    /// `duop render`.
    Render {
        /// Trace path (`-` = stdin).
        input: String,
    },
    /// `duop monitor`.
    Monitor {
        /// Trace path (`-` = stdin).
        input: String,
        /// Checkpoint file to write progress snapshots to.
        checkpoint: Option<String>,
        /// Flush a checkpoint every this many events.
        checkpoint_every: u64,
        /// Print a JSON status line every this many events (`0` = never).
        status_every: u64,
        /// Compact the retained history whenever it reaches this many
        /// events (`None` = never).
        compact_every: Option<u64>,
    },
    /// `duop serve`.
    Serve {
        /// Bind address (`HOST:PORT`; port 0 picks a free port).
        addr: String,
        /// Checkpoint directory for crash-safe sessions.
        state_dir: Option<String>,
        /// Maximum live sessions before creation is shed with 429.
        session_cap: usize,
        /// Reap sessions idle longer than this many seconds.
        idle_timeout_secs: u64,
        /// Global retained-event ceiling across sessions (shed past it).
        max_retained: Option<u64>,
        /// Default per-session retained-event budget.
        session_budget: Option<usize>,
        /// Per-client-address session requests per second (0 = off).
        peer_rps: u64,
    },
    /// `duop client`.
    Client {
        /// Trace path (`-` = stdin).
        input: String,
        /// Daemon address (`HOST:PORT`).
        addr: String,
        /// Existing session id to resume (`None` = create one).
        session: Option<u64>,
        /// Events per `POST .../events` batch (`0` = one batch).
        chunk_events: u64,
        /// Body encoding: `text` or `binary`.
        body_format: String,
        /// Per-session retained-event budget to request on creation.
        budget: Option<u64>,
        /// Verdict format: `text` or `json`.
        format: String,
    },
    /// `duop resume`.
    Resume {
        /// Checkpoint file written by `--checkpoint`.
        file: String,
    },
    /// `duop generate`.
    Generate {
        /// Generator mode.
        mode: GenModeName,
        /// Number of transactions.
        txns: usize,
        /// Number of t-objects.
        objs: u32,
        /// RNG seed.
        seed: u64,
        /// Unique-writes regime.
        unique: bool,
        /// Concurrency level.
        concurrency: usize,
    },
    /// `duop convert`.
    Convert {
        /// Trace path (`-` = stdin).
        input: String,
        /// Output path (`-` or `None` = stdout).
        output: Option<String>,
        /// Target format: `text`, `json`, `binary`, or `dbcop`.
        to: String,
    },
    /// `duop graph`.
    Graph {
        /// Trace path (`-` = stdin).
        input: String,
    },
    /// `duop localize`.
    Localize {
        /// Trace path (`-` = stdin).
        input: String,
    },
    /// `duop figures`.
    Figures,
    /// `duop litmus`.
    Litmus,
    /// `duop help`.
    Help,
}

/// An argument-parsing error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ParseError {}

fn parse_format(s: &str) -> Result<String, ParseError> {
    match s {
        "text" | "json" => Ok(s.to_owned()),
        other => Err(ParseError(format!("unknown format `{other}`"))),
    }
}

fn parse_escalate(s: &str) -> Result<u64, ParseError> {
    let factor: f64 = s
        .parse()
        .map_err(|_| ParseError("--escalate needs a factor (e.g. 2.0)".into()))?;
    if !factor.is_finite() || factor < 1.0 {
        return Err(ParseError("--escalate factor must be >= 1.0".into()));
    }
    Ok((factor * 1000.0).round() as u64)
}

fn parse_every<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<u64, ParseError> {
    let n: u64 = value_of(flag, it)?
        .parse()
        .map_err(|_| ParseError(format!("{flag} needs a number")))?;
    if n == 0 {
        return Err(ParseError(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

fn value_of<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<&'a String, ParseError> {
    it.next()
        .ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

impl Command {
    /// Parses the argument vector (without the program name).
    pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
        let mut it = argv.iter();
        let sub = it.next().map(String::as_str).unwrap_or("help");
        match sub {
            "check" => {
                let mut input = None;
                let mut criteria = Vec::new();
                let mut threads = 1usize;
                let mut decompose = true;
                let mut prelint = true;
                let mut ladder = true;
                let mut saturate = true;
                let mut certify = false;
                let mut deadline_ms = None;
                let mut max_states = None;
                let mut retry = 0u64;
                let mut escalate_milli = 2000u64;
                let mut checkpoint = None;
                let mut checkpoint_every = 4096u64;
                let mut format = String::from("text");
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--criterion" | "-c" => {
                            criteria.push(CriterionName::parse(value_of("--criterion", &mut it)?)?);
                        }
                        "--threads" | "-j" => {
                            threads = value_of("--threads", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--threads needs a number".into()))?;
                        }
                        "--no-decompose" => decompose = false,
                        "--no-prelint" => prelint = false,
                        "--no-ladder" => ladder = false,
                        "--no-saturate" => saturate = false,
                        "--certify" => certify = true,
                        "--deadline" => {
                            deadline_ms =
                                Some(value_of("--deadline", &mut it)?.parse().map_err(|_| {
                                    ParseError("--deadline needs milliseconds".into())
                                })?);
                        }
                        "--max-states" => {
                            max_states =
                                Some(value_of("--max-states", &mut it)?.parse().map_err(|_| {
                                    ParseError("--max-states needs a number".into())
                                })?);
                        }
                        "--retry" => {
                            retry = value_of("--retry", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--retry needs a number".into()))?;
                        }
                        "--escalate" => {
                            escalate_milli = parse_escalate(value_of("--escalate", &mut it)?)?;
                        }
                        "--checkpoint" => {
                            checkpoint = Some(value_of("--checkpoint", &mut it)?.clone());
                        }
                        "--checkpoint-every" => {
                            checkpoint_every = parse_every("--checkpoint-every", &mut it)?;
                        }
                        "--format" => format = parse_format(value_of("--format", &mut it)?)?,
                        other if input.is_none() => input = Some(other.to_owned()),
                        other => return Err(ParseError(format!("unexpected argument `{other}`"))),
                    }
                }
                Ok(Command::Check {
                    input: input.ok_or_else(|| ParseError("check needs a trace file".into()))?,
                    criteria,
                    threads,
                    decompose,
                    prelint,
                    ladder,
                    saturate,
                    certify,
                    deadline_ms,
                    max_states,
                    retry,
                    escalate_milli,
                    checkpoint,
                    checkpoint_every,
                    format,
                })
            }
            "shard" => {
                let mut inputs = Vec::new();
                let mut workers = 0usize;
                let mut criteria = Vec::new();
                let mut decompose = true;
                let mut prelint = true;
                let mut ladder = true;
                let mut saturate = true;
                let mut deadline_ms = None;
                let mut max_states = None;
                let mut retry = 2u64;
                let mut min_chunk = 8usize;
                let mut connect = Vec::new();
                let mut secret_file = None;
                let mut format = String::from("text");
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--connect" => {
                            connect.push(value_of("--connect", &mut it)?.clone());
                        }
                        "--secret-file" => {
                            secret_file = Some(value_of("--secret-file", &mut it)?.clone());
                        }
                        "--workers" | "-w" => {
                            workers = value_of("--workers", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--workers needs a number".into()))?;
                        }
                        "--criterion" | "-c" => {
                            criteria.push(CriterionName::parse(value_of("--criterion", &mut it)?)?);
                        }
                        "--no-decompose" => decompose = false,
                        "--no-prelint" => prelint = false,
                        "--no-ladder" => ladder = false,
                        "--no-saturate" => saturate = false,
                        "--deadline" => {
                            deadline_ms =
                                Some(value_of("--deadline", &mut it)?.parse().map_err(|_| {
                                    ParseError("--deadline needs milliseconds".into())
                                })?);
                        }
                        "--max-states" => {
                            max_states =
                                Some(value_of("--max-states", &mut it)?.parse().map_err(|_| {
                                    ParseError("--max-states needs a number".into())
                                })?);
                        }
                        "--retry" => {
                            retry = value_of("--retry", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--retry needs a number".into()))?;
                        }
                        "--min-chunk" => {
                            min_chunk = value_of("--min-chunk", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--min-chunk needs a number".into()))?;
                        }
                        "--format" => format = parse_format(value_of("--format", &mut it)?)?,
                        other => inputs.push(other.to_owned()),
                    }
                }
                if inputs.is_empty() {
                    return Err(ParseError("shard needs at least one trace file".into()));
                }
                if !connect.is_empty() && secret_file.is_none() {
                    return Err(ParseError(
                        "--connect needs --secret-file FILE (the shared secret that \
                         authenticates remote workers)"
                            .into(),
                    ));
                }
                Ok(Command::Shard {
                    inputs,
                    workers,
                    criteria,
                    decompose,
                    prelint,
                    ladder,
                    saturate,
                    deadline_ms,
                    max_states,
                    retry,
                    min_chunk,
                    connect,
                    secret_file,
                    format,
                })
            }
            "shard-worker" => {
                if let Some(extra) = it.next() {
                    return Err(ParseError(format!("unexpected argument `{extra}`")));
                }
                Ok(Command::ShardWorker)
            }
            "shard-serve" => {
                let mut listen = String::from("127.0.0.1:0");
                let mut secret_file = None;
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--listen" | "--addr" => listen = value_of("--listen", &mut it)?.clone(),
                        "--secret-file" => {
                            secret_file = Some(value_of("--secret-file", &mut it)?.clone());
                        }
                        other => return Err(ParseError(format!("unexpected argument `{other}`"))),
                    }
                }
                Ok(Command::ShardServe {
                    listen,
                    secret_file: secret_file
                        .ok_or_else(|| ParseError("shard-serve needs --secret-file FILE".into()))?,
                })
            }
            "fuzz" => {
                let mut engine = None;
                let mut faults = String::from("abort=0.05,crash=0.05,thread-crash=0.25");
                let mut seed = 0u64;
                let mut iters = 500usize;
                let mut threads = 1usize;
                let mut objs = 4u32;
                let mut format = String::from("text");
                let mut trace_out = None;
                let mut trace_format = String::from("text");
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--engine" | "-e" => {
                            engine = Some(EngineName::parse(value_of("--engine", &mut it)?)?);
                        }
                        "--faults" => faults = value_of("--faults", &mut it)?.clone(),
                        "--seed" => {
                            seed = value_of("--seed", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--seed needs a number".into()))?;
                        }
                        "--iters" => {
                            iters = value_of("--iters", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--iters needs a number".into()))?;
                        }
                        "--threads" | "-j" => {
                            threads = value_of("--threads", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--threads needs a number".into()))?;
                        }
                        "--objs" => {
                            objs = value_of("--objs", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--objs needs a number".into()))?;
                        }
                        "--format" => format = parse_format(value_of("--format", &mut it)?)?,
                        "--trace-out" => {
                            trace_out = Some(value_of("--trace-out", &mut it)?.clone());
                        }
                        "--trace-format" => {
                            trace_format = match value_of("--trace-format", &mut it)?.as_str() {
                                f @ ("text" | "binary") => f.to_owned(),
                                other => {
                                    return Err(ParseError(format!(
                                        "unknown trace format `{other}` (text|binary)"
                                    )))
                                }
                            };
                        }
                        other => return Err(ParseError(format!("unexpected argument `{other}`"))),
                    }
                }
                Ok(Command::Fuzz {
                    engine: engine
                        .ok_or_else(|| ParseError("fuzz needs --engine <name>".into()))?,
                    faults,
                    seed,
                    iters,
                    threads,
                    objs,
                    format,
                    trace_out,
                    trace_format,
                })
            }
            "certify" => {
                let mut input = None;
                let mut criteria = Vec::new();
                let mut format = String::from("text");
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--criterion" | "-c" => {
                            criteria.push(CriterionName::parse(value_of("--criterion", &mut it)?)?);
                        }
                        "--format" => format = parse_format(value_of("--format", &mut it)?)?,
                        other if input.is_none() => input = Some(other.to_owned()),
                        other => return Err(ParseError(format!("unexpected argument `{other}`"))),
                    }
                }
                Ok(Command::Certify {
                    input: input.ok_or_else(|| ParseError("certify needs a trace file".into()))?,
                    criteria,
                    format,
                })
            }
            "lint" => {
                let mut input = None;
                let mut format = String::from("text");
                let mut rules = Vec::new();
                let mut explain = None;
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--format" => format = parse_format(value_of("--format", &mut it)?)?,
                        "--rule" => rules.push(value_of("--rule", &mut it)?.clone()),
                        "--explain" => explain = Some(value_of("--explain", &mut it)?.clone()),
                        other if input.is_none() => input = Some(other.to_owned()),
                        other => return Err(ParseError(format!("unexpected argument `{other}`"))),
                    }
                }
                // `--explain` is self-contained: no trace needed.
                if input.is_none() && explain.is_some() {
                    input = Some("-".to_owned());
                }
                Ok(Command::Lint {
                    input: input.ok_or_else(|| ParseError("lint needs a trace file".into()))?,
                    format,
                    rules,
                    explain,
                })
            }
            "monitor" => {
                let mut input = None;
                let mut checkpoint = None;
                let mut checkpoint_every = 32u64;
                let mut status_every = 0u64;
                let mut compact_every = None;
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--checkpoint" => {
                            checkpoint = Some(value_of("--checkpoint", &mut it)?.clone());
                        }
                        "--checkpoint-every" => {
                            checkpoint_every = parse_every("--checkpoint-every", &mut it)?;
                        }
                        "--status-every" => {
                            status_every = value_of("--status-every", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--status-every needs a number".into()))?;
                        }
                        "--compact-every" | "--compact-threshold" => {
                            compact_every = Some(parse_every(arg, &mut it)?);
                        }
                        other if input.is_none() => input = Some(other.to_owned()),
                        other => return Err(ParseError(format!("unexpected argument `{other}`"))),
                    }
                }
                if compact_every.is_some() && checkpoint.is_some() {
                    return Err(ParseError(
                        "--compact-every cannot be combined with --checkpoint: snapshots \
                         embed the uncompacted history"
                            .into(),
                    ));
                }
                Ok(Command::Monitor {
                    input: input.ok_or_else(|| ParseError("monitor needs a trace file".into()))?,
                    checkpoint,
                    checkpoint_every,
                    status_every,
                    compact_every,
                })
            }
            "serve" => {
                let mut addr = String::from("127.0.0.1:0");
                let mut state_dir = None;
                let mut session_cap = 256usize;
                let mut idle_timeout_secs = 300u64;
                let mut max_retained = None;
                let mut session_budget = None;
                let mut peer_rps = 0u64;
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--addr" => addr = value_of("--addr", &mut it)?.clone(),
                        "--state-dir" => {
                            state_dir = Some(value_of("--state-dir", &mut it)?.clone());
                        }
                        "--session-cap" => {
                            session_cap = parse_every("--session-cap", &mut it)? as usize;
                        }
                        "--idle-timeout" => {
                            idle_timeout_secs = parse_every("--idle-timeout", &mut it)?;
                        }
                        "--max-retained" => {
                            max_retained = Some(parse_every("--max-retained", &mut it)?);
                        }
                        "--session-budget" => {
                            session_budget =
                                Some(parse_every("--session-budget", &mut it)? as usize);
                        }
                        "--peer-rps" => {
                            peer_rps = value_of("--peer-rps", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--peer-rps needs a number".into()))?;
                        }
                        other => return Err(ParseError(format!("unexpected argument `{other}`"))),
                    }
                }
                Ok(Command::Serve {
                    addr,
                    state_dir,
                    session_cap,
                    idle_timeout_secs,
                    max_retained,
                    session_budget,
                    peer_rps,
                })
            }
            "client" => {
                let mut input = None;
                let mut addr = None;
                let mut session = None;
                let mut chunk_events = 0u64;
                let mut body_format = String::from("text");
                let mut budget = None;
                let mut format = String::from("json");
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--addr" => addr = Some(value_of("--addr", &mut it)?.clone()),
                        "--session" => {
                            session =
                                Some(value_of("--session", &mut it)?.parse().map_err(|_| {
                                    ParseError("--session needs a session id".into())
                                })?);
                        }
                        "--chunk-events" => {
                            chunk_events = parse_every("--chunk-events", &mut it)?;
                        }
                        "--body-format" => {
                            let v = value_of("--body-format", &mut it)?;
                            match v.as_str() {
                                "text" | "binary" => body_format = v.clone(),
                                other => {
                                    return Err(ParseError(format!(
                                        "unknown body format `{other}`"
                                    )))
                                }
                            }
                        }
                        "--budget" => {
                            budget = Some(parse_every("--budget", &mut it)?);
                        }
                        "--format" => format = parse_format(value_of("--format", &mut it)?)?,
                        other if input.is_none() => input = Some(other.to_owned()),
                        other => return Err(ParseError(format!("unexpected argument `{other}`"))),
                    }
                }
                Ok(Command::Client {
                    input: input.ok_or_else(|| ParseError("client needs a trace file".into()))?,
                    addr: addr.ok_or_else(|| ParseError("client needs --addr HOST:PORT".into()))?,
                    session,
                    chunk_events,
                    body_format,
                    budget,
                    format,
                })
            }
            "resume" => {
                let file = it
                    .next()
                    .ok_or_else(|| ParseError("resume needs a checkpoint file".into()))?
                    .clone();
                if let Some(extra) = it.next() {
                    return Err(ParseError(format!("unexpected argument `{extra}`")));
                }
                Ok(Command::Resume { file })
            }
            "render" | "graph" | "localize" => {
                let input = it
                    .next()
                    .ok_or_else(|| ParseError(format!("{sub} needs a trace file")))?
                    .clone();
                if let Some(extra) = it.next() {
                    return Err(ParseError(format!("unexpected argument `{extra}`")));
                }
                Ok(match sub {
                    "render" => Command::Render { input },
                    "graph" => Command::Graph { input },
                    _ => Command::Localize { input },
                })
            }
            "generate" => {
                let mut mode = GenModeName::Simulated;
                let mut txns = 8usize;
                let mut objs = 4u32;
                let mut seed = 0u64;
                let mut unique = false;
                let mut concurrency = 3usize;
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--mode" => {
                            mode = match value_of("--mode", &mut it)?.as_str() {
                                "simulated" | "sim" => GenModeName::Simulated,
                                "value" | "value-validated" => GenModeName::Value,
                                "adversarial" | "adv" => GenModeName::Adversarial,
                                other => return Err(ParseError(format!("unknown mode `{other}`"))),
                            };
                        }
                        "--txns" => {
                            txns = value_of("--txns", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--txns needs a number".into()))?;
                        }
                        "--objs" => {
                            objs = value_of("--objs", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--objs needs a number".into()))?;
                        }
                        "--seed" => {
                            seed = value_of("--seed", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--seed needs a number".into()))?;
                        }
                        "--concurrency" => {
                            concurrency = value_of("--concurrency", &mut it)?
                                .parse()
                                .map_err(|_| ParseError("--concurrency needs a number".into()))?;
                        }
                        "--unique" => unique = true,
                        other => return Err(ParseError(format!("unexpected argument `{other}`"))),
                    }
                }
                Ok(Command::Generate {
                    mode,
                    txns,
                    objs,
                    seed,
                    unique,
                    concurrency,
                })
            }
            "convert" => {
                let mut input = None;
                let mut output = None;
                let mut to = None;
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--to" | "--format" => to = Some(value_of(arg, &mut it)?.clone()),
                        other if input.is_none() => input = Some(other.to_owned()),
                        other if output.is_none() => output = Some(other.to_owned()),
                        other => return Err(ParseError(format!("unexpected argument `{other}`"))),
                    }
                }
                let to = to.ok_or_else(|| {
                    ParseError("convert needs --format text|json|binary|dbcop".into())
                })?;
                if !matches!(to.as_str(), "text" | "json" | "binary" | "dbcop") {
                    return Err(ParseError(format!("unknown format `{to}`")));
                }
                Ok(Command::Convert {
                    input: input.ok_or_else(|| ParseError("convert needs a trace file".into()))?,
                    output,
                    to,
                })
            }
            "figures" => Ok(Command::Figures),
            "litmus" => Ok(Command::Litmus),
            "help" | "--help" | "-h" => Ok(Command::Help),
            other => Err(ParseError(format!("unknown subcommand `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, ParseError> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Command::parse(&argv)
    }

    #[test]
    fn check_with_criteria() {
        let cmd = parse(&["check", "trace.txt", "--criterion", "du", "-c", "tms2"]).unwrap();
        assert_eq!(
            cmd,
            Command::Check {
                input: "trace.txt".into(),
                criteria: vec![CriterionName::DuOpacity, CriterionName::Tms2],
                threads: 1,
                decompose: true,
                prelint: true,
                ladder: true,
                saturate: true,
                certify: false,
                deadline_ms: None,
                max_states: None,
                retry: 0,
                escalate_milli: 2000,
                checkpoint: None,
                checkpoint_every: 4096,
                format: "text".into(),
            }
        );
    }

    #[test]
    fn check_requires_input() {
        assert!(parse(&["check"]).is_err());
    }

    #[test]
    fn check_parses_threads() {
        let cmd = parse(&["check", "t.txt", "--threads", "8"]).unwrap();
        assert_eq!(
            cmd,
            Command::Check {
                input: "t.txt".into(),
                criteria: vec![],
                threads: 8,
                decompose: true,
                prelint: true,
                ladder: true,
                saturate: true,
                certify: false,
                deadline_ms: None,
                max_states: None,
                retry: 0,
                escalate_milli: 2000,
                checkpoint: None,
                checkpoint_every: 4096,
                format: "text".into(),
            }
        );
        assert!(parse(&["check", "t.txt", "--threads", "many"]).is_err());
        assert!(parse(&["check", "t.txt", "-j"]).is_err());
    }

    #[test]
    fn check_parses_no_decompose() {
        let cmd = parse(&["check", "t.txt", "--no-decompose"]).unwrap();
        assert_eq!(
            cmd,
            Command::Check {
                input: "t.txt".into(),
                criteria: vec![],
                threads: 1,
                decompose: false,
                prelint: true,
                ladder: true,
                saturate: true,
                certify: false,
                deadline_ms: None,
                max_states: None,
                retry: 0,
                escalate_milli: 2000,
                checkpoint: None,
                checkpoint_every: 4096,
                format: "text".into(),
            }
        );
    }

    #[test]
    fn check_parses_prelint_and_format() {
        let cmd = parse(&["check", "t.txt", "--no-prelint", "--format", "json"]).unwrap();
        assert_eq!(
            cmd,
            Command::Check {
                input: "t.txt".into(),
                criteria: vec![],
                threads: 1,
                decompose: true,
                prelint: false,
                ladder: true,
                saturate: true,
                certify: false,
                deadline_ms: None,
                max_states: None,
                retry: 0,
                escalate_milli: 2000,
                checkpoint: None,
                checkpoint_every: 4096,
                format: "json".into(),
            }
        );
        assert!(parse(&["check", "t.txt", "--format", "yaml"]).is_err());
    }

    #[test]
    fn check_parses_deadline() {
        let cmd = parse(&["check", "t.txt", "--deadline", "250"]).unwrap();
        assert_eq!(
            cmd,
            Command::Check {
                input: "t.txt".into(),
                criteria: vec![],
                threads: 1,
                decompose: true,
                prelint: true,
                ladder: true,
                saturate: true,
                certify: false,
                deadline_ms: Some(250),
                max_states: None,
                retry: 0,
                escalate_milli: 2000,
                checkpoint: None,
                checkpoint_every: 4096,
                format: "text".into(),
            }
        );
        assert!(parse(&["check", "t.txt", "--deadline", "soon"]).is_err());
        assert!(parse(&["check", "t.txt", "--deadline"]).is_err());
    }

    #[test]
    fn check_parses_no_saturate_and_certify() {
        match parse(&["check", "t.txt", "--no-saturate", "--certify"]).unwrap() {
            Command::Check {
                saturate, certify, ..
            } => {
                assert!(!saturate);
                assert!(certify);
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&["shard", "t.txt", "--no-saturate"]).unwrap() {
            Command::Shard { saturate, .. } => assert!(!saturate),
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn certify_parses_criteria_and_format() {
        let cmd = parse(&["certify", "t.txt", "-c", "du", "--format", "json"]).unwrap();
        assert_eq!(
            cmd,
            Command::Certify {
                input: "t.txt".into(),
                criteria: vec![CriterionName::DuOpacity],
                format: "json".into(),
            }
        );
        assert!(parse(&["certify"]).is_err(), "needs a trace file");
        assert!(parse(&["certify", "t.txt", "--criterion", "nope"]).is_err());
    }

    #[test]
    fn lint_parses_explain_without_trace() {
        let cmd = parse(&["lint", "--explain", "DU002"]).unwrap();
        assert_eq!(
            cmd,
            Command::Lint {
                input: "-".into(),
                format: "text".into(),
                rules: vec![],
                explain: Some("DU002".into()),
            }
        );
        // With a trace too: the explain still wins at execution time.
        assert!(parse(&["lint", "t.txt", "--explain", "CY004"]).is_ok());
        assert!(parse(&["lint", "t.txt", "--explain"]).is_err());
    }

    #[test]
    fn fuzz_parses_engine_and_flags() {
        let cmd = parse(&[
            "fuzz",
            "--engine",
            "dirty",
            "--faults",
            "crash=0.2",
            "--seed",
            "7",
            "--iters",
            "50",
            "--threads",
            "2",
            "--objs",
            "3",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Fuzz {
                engine: EngineName::Dirty,
                faults: "crash=0.2".into(),
                seed: 7,
                iters: 50,
                threads: 2,
                objs: 3,
                format: "text".into(),
                trace_out: None,
                trace_format: "text".into(),
            }
        );
    }

    #[test]
    fn fuzz_has_safe_defaults_and_requires_engine() {
        let cmd = parse(&["fuzz", "--engine", "tl2"]).unwrap();
        assert_eq!(
            cmd,
            Command::Fuzz {
                engine: EngineName::Tl2,
                faults: "abort=0.05,crash=0.05,thread-crash=0.25".into(),
                seed: 0,
                iters: 500,
                threads: 1,
                objs: 4,
                format: "text".into(),
                trace_out: None,
                trace_format: "text".into(),
            }
        );
        assert!(parse(&["fuzz"]).is_err());
        assert!(parse(&["fuzz", "--engine", "bogus"]).is_err());
    }

    #[test]
    fn fuzz_parses_trace_out() {
        let cmd = parse(&[
            "fuzz",
            "--engine",
            "dirty",
            "--trace-out",
            "core.duob",
            "--trace-format",
            "binary",
        ])
        .unwrap();
        match cmd {
            Command::Fuzz {
                trace_out,
                trace_format,
                ..
            } => {
                assert_eq!(trace_out.as_deref(), Some("core.duob"));
                assert_eq!(trace_format, "binary");
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&["fuzz", "--engine", "dirty", "--trace-format", "json"]).is_err());
    }

    #[test]
    fn engine_names() {
        for (name, expected) in [
            ("tl2", EngineName::Tl2),
            ("norec", EngineName::NoRec),
            ("dstm", EngineName::Dstm),
            ("2pl", EngineName::TwoPl),
            ("pessimistic", EngineName::Pessimistic),
            ("dirty", EngineName::Dirty),
        ] {
            assert_eq!(EngineName::parse(name).unwrap(), expected);
        }
        assert!(EngineName::parse("htm").is_err());
    }

    #[test]
    fn lint_parses_rules_and_format() {
        let cmd = parse(&[
            "lint", "t.txt", "--rule", "DU002", "--rule", "CY004", "--format", "json",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Lint {
                input: "t.txt".into(),
                format: "json".into(),
                rules: vec!["DU002".into(), "CY004".into()],
                explain: None,
            }
        );
        assert!(parse(&["lint"]).is_err());
        assert!(parse(&["lint", "t.txt", "--format", "xml"]).is_err());
    }

    #[test]
    fn generate_flags() {
        let cmd = parse(&[
            "generate",
            "--mode",
            "adv",
            "--txns",
            "12",
            "--objs",
            "2",
            "--seed",
            "9",
            "--unique",
            "--concurrency",
            "5",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                mode: GenModeName::Adversarial,
                txns: 12,
                objs: 2,
                seed: 9,
                unique: true,
                concurrency: 5,
            }
        );
    }

    #[test]
    fn convert_requires_known_format() {
        assert!(parse(&["convert", "t.txt", "--to", "yaml"]).is_err());
        assert!(parse(&["convert", "t.txt", "--to", "json"]).is_ok());
        assert!(parse(&["convert", "t.txt", "--format", "binary"]).is_ok());
        assert!(parse(&["convert", "t.txt", "--format", "dbcop"]).is_ok());
        assert!(parse(&["convert", "t.txt"]).is_err());
    }

    #[test]
    fn convert_takes_optional_output() {
        let cmd = parse(&["convert", "in.txt", "out.duob", "--format", "binary"]).unwrap();
        assert_eq!(
            cmd,
            Command::Convert {
                input: "in.txt".into(),
                output: Some("out.duob".into()),
                to: "binary".into(),
            }
        );
        assert!(parse(&["convert", "a", "b", "c", "--format", "text"]).is_err());
    }

    #[test]
    fn monitor_parses_compact_every() {
        let cmd = parse(&["monitor", "t.txt", "--compact-every", "64"]).unwrap();
        assert_eq!(
            cmd,
            Command::Monitor {
                input: "t.txt".into(),
                checkpoint: None,
                checkpoint_every: 32,
                status_every: 0,
                compact_every: Some(64),
            }
        );
        assert!(parse(&["monitor", "t.txt", "--compact-every", "0"]).is_err());
        assert!(
            parse(&[
                "monitor",
                "t.txt",
                "--compact-every",
                "4",
                "--checkpoint",
                "c"
            ])
            .is_err(),
            "compaction and checkpointing are mutually exclusive"
        );
    }

    #[test]
    fn monitor_accepts_compact_threshold_synonym() {
        let cmd = parse(&["monitor", "t.txt", "--compact-threshold", "64"]).unwrap();
        assert_eq!(
            cmd,
            Command::Monitor {
                input: "t.txt".into(),
                checkpoint: None,
                checkpoint_every: 32,
                status_every: 0,
                compact_every: Some(64),
            }
        );
        assert!(parse(&["monitor", "t.txt", "--compact-threshold", "0"]).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        let cmd = parse(&["serve"]).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                state_dir: None,
                session_cap: 256,
                idle_timeout_secs: 300,
                max_retained: None,
                session_budget: None,
                peer_rps: 0,
            }
        );
        let cmd = parse(&[
            "serve",
            "--addr",
            "127.0.0.1:8080",
            "--state-dir",
            "st",
            "--session-cap",
            "4",
            "--idle-timeout",
            "10",
            "--max-retained",
            "5000",
            "--session-budget",
            "128",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "127.0.0.1:8080".into(),
                state_dir: Some("st".into()),
                session_cap: 4,
                idle_timeout_secs: 10,
                max_retained: Some(5000),
                session_budget: Some(128),
                peer_rps: 0,
            }
        );
        assert!(parse(&["serve", "trace.txt"]).is_err());
        // Every ack is journaled; there is no checkpoint cadence to set.
        assert!(parse(&["serve", "--checkpoint-every", "3"]).is_err());
        assert!(parse(&["serve", "--max-retained", "0"]).is_err());
        match parse(&["serve", "--peer-rps", "5"]).unwrap() {
            Command::Serve { peer_rps, .. } => assert_eq!(peer_rps, 5),
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse(&["serve", "--peer-rps", "lots"]).is_err());
    }

    #[test]
    fn client_requires_addr() {
        assert!(parse(&["client", "t.txt"]).is_err());
        assert!(parse(&["client", "--addr", "127.0.0.1:1"]).is_err());
        let cmd = parse(&[
            "client",
            "t.txt",
            "--addr",
            "127.0.0.1:9",
            "--session",
            "7",
            "--chunk-events",
            "16",
            "--body-format",
            "binary",
            "--budget",
            "64",
            "--format",
            "text",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Client {
                input: "t.txt".into(),
                addr: "127.0.0.1:9".into(),
                session: Some(7),
                chunk_events: 16,
                body_format: "binary".into(),
                budget: Some(64),
                format: "text".into(),
            }
        );
        assert!(parse(&["client", "t.txt", "--addr", "a:1", "--body-format", "nope"]).is_err());
    }

    #[test]
    fn criterion_names() {
        for (name, expected) in [
            ("du", CriterionName::DuOpacity),
            ("fso", CriterionName::FinalState),
            ("opacity", CriterionName::Opacity),
            ("rco", CriterionName::Rco),
            ("tms2", CriterionName::Tms2),
            ("tms2-automaton", CriterionName::Tms2Automaton),
            ("strict", CriterionName::Strict),
        ] {
            assert_eq!(CriterionName::parse(name).unwrap(), expected);
        }
        assert!(CriterionName::parse("nope").is_err());
    }

    #[test]
    fn shard_defaults_and_flags() {
        let cmd = parse(&["shard", "a.duob", "b.duob", "--workers", "4", "-c", "du"]).unwrap();
        assert_eq!(
            cmd,
            Command::Shard {
                inputs: vec!["a.duob".into(), "b.duob".into()],
                workers: 4,
                criteria: vec![CriterionName::DuOpacity],
                decompose: true,
                prelint: true,
                ladder: true,
                saturate: true,
                deadline_ms: None,
                max_states: None,
                retry: 2,
                min_chunk: 8,
                connect: vec![],
                secret_file: None,
                format: "text".into(),
            }
        );
        assert!(parse(&["shard"]).is_err(), "needs an input");
        assert_eq!(parse(&["shard-worker"]).unwrap(), Command::ShardWorker);
        assert!(parse(&["shard-worker", "extra"]).is_err());
    }

    #[test]
    fn shard_remote_flags() {
        let cmd = parse(&[
            "shard",
            "a.duob",
            "--workers",
            "0",
            "--connect",
            "10.0.0.1:9400",
            "--connect",
            "10.0.0.2:9400",
            "--secret-file",
            "/run/duop.secret",
        ])
        .unwrap();
        match cmd {
            Command::Shard {
                workers,
                connect,
                secret_file,
                ..
            } => {
                assert_eq!(workers, 0);
                assert_eq!(connect, vec!["10.0.0.1:9400", "10.0.0.2:9400"]);
                assert_eq!(secret_file.as_deref(), Some("/run/duop.secret"));
            }
            other => panic!("unexpected command {other:?}"),
        }
        // Remote workers without a shared secret cannot authenticate.
        assert!(parse(&["shard", "a.duob", "--connect", "h:1"]).is_err());
    }

    #[test]
    fn shard_serve_flags() {
        let cmd = parse(&[
            "shard-serve",
            "--secret-file",
            "s",
            "--listen",
            "0.0.0.0:9400",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::ShardServe {
                listen: "0.0.0.0:9400".into(),
                secret_file: "s".into(),
            }
        );
        match parse(&["shard-serve", "--secret-file", "s"]).unwrap() {
            Command::ShardServe { listen, .. } => assert_eq!(listen, "127.0.0.1:0"),
            other => panic!("unexpected command {other:?}"),
        }
        assert!(parse(&["shard-serve"]).is_err(), "needs --secret-file");
        assert!(parse(&["shard-serve", "--secret-file", "s", "extra"]).is_err());
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
    }

    #[test]
    fn unknown_subcommand_rejected() {
        assert!(parse(&["frobnicate"]).is_err());
    }
}
