//! The traced run's per-layer probes. Each probe times calls into one
//! layer's public functions from this file, on a fixed slice of the
//! run's corpora, so the counts it reports repeat exactly for a seed.
//!
//! * batch layers (read, lint, saturation, planner, search, validation,
//!   encoding) on the whole batch corpus, as `check_batch` runs them;
//! * the online checker and the serve session on the first
//!   [`ONLINE_TRACES`] serve traces, chunked as `serve_stream` sends
//!   them, plus the same streams over HTTP to a fresh daemon;
//! * the shard protocol codec on the tasks the coordinator's planner
//!   makes from the batch corpus, and the verdicts a worker returns.
//!
//! `search.self_us_per_history` is derived, not measured: the time of the
//! check call minus the standalone lint, saturation and planner calls
//! on the same history, counting only the tiers the check reaches (lint
//! always; saturation when lint does not refute; the planner when
//! saturation is inconclusive).

use crate::corpus::Trace;
use crate::serve_stream::{self, ClientLog, Daemon, Stream, VERDICT_EVERY};
use crate::stats::{self, Summary};
use crate::trace::Recorder;
use crate::{gate, pipeline, Ctx};
use duop_core::online::{OnlineChecker, OnlineStats};
use duop_core::snapshot::{self, Snapshot};
use duop_core::{
    check_certificate, check_criterion_with_stats, check_witness, plan_components, prelint_verdict,
    saturate, saturate_verdict, CriterionKind, PlanCriterion, PlanOutcome, PlanScratch,
    SaturationOutcome, SearchConfig, SearchStats, Verdict,
};
use duop_history::reader::{read_history, TraceReader};
use duop_history::{binary, Event, TxnId};
use duop_serve::Session;
use duop_shard::protocol::{
    decode_task, decode_verdict_msg, encode_task, encode_verdict_msg, TaskMsg, VerdictMsg,
};
use std::collections::HashSet;
use std::hint::black_box;

/// Serve traces the online, session and HTTP probes stream.
pub const ONLINE_TRACES: usize = 6;
/// Repetitions of each `check_certificate` call (one call is ~100 ns,
/// near the clock's resolution).
const CERT_REPS: u32 = 16;
/// `duop shard`'s default `--min-chunk`: consecutive components are
/// batched into tasks of at least this many transactions.
const MIN_TASK_TXNS: usize = 8;
/// Allowed gap between the traced per-history time and the sum of its
/// layer times (the rest is the benchmark's own glue).
pub const SPAN_SUM_TOLERANCE: f64 = 0.05;

/// Per-layer results.
#[derive(Debug, Default)]
pub struct Layers {
    /// `(name, unit, value)` for every per-layer metric.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The exact-repeat counters, for the repeat check.
    pub counters: Vec<(&'static str, String)>,
    /// Operations attempted and failed by the probes.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Gate failures.
    pub gate: Vec<String>,
    /// Report detail.
    pub detail: Vec<(String, String)>,
}

impl Layers {
    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push((name, unit, value));
    }
}

/// Counts the batch probe makes; all exact-repeat for a seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BatchCounts {
    histories: u64,
    lint_refuted: u64,
    sat_decided: u64,
    sat_refuted: u64,
    planned: u64,
    components: u64,
    largest_component: u64,
    explored: u64,
    memo_hits: u64,
    dead_ends: u64,
    peak_memo: u64,
}

impl BatchCounts {
    /// Counts one history: the check's search counters and the tier that
    /// decided it (`plan` is consulted only when lint and saturation
    /// leave the history open).
    fn tally(
        &mut self,
        st: &SearchStats,
        lint_refuted: bool,
        sat: &SaturationOutcome,
        plan: impl FnOnce() -> PlanOutcome,
    ) {
        self.histories += 1;
        self.explored += st.explored;
        self.memo_hits += st.memo_hits;
        self.dead_ends += st.dead_ends;
        self.peak_memo = self.peak_memo.max(st.peak_memo_entries);
        if lint_refuted {
            self.lint_refuted += 1;
            return;
        }
        match sat {
            SaturationOutcome::Decided(_) => self.sat_decided += 1,
            SaturationOutcome::Refuted(_) => self.sat_refuted += 1,
            SaturationOutcome::Inconclusive => {
                self.planned += 1;
                if let PlanOutcome::Components(comps) = plan() {
                    self.components += comps.len() as u64;
                    let largest = comps.iter().map(Vec::len).max().unwrap_or(0) as u64;
                    self.largest_component = self.largest_component.max(largest);
                }
            }
        }
    }
}

/// Counts the online probe makes; all exact-repeat for a seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OnlineCounts {
    events: u64,
    incremental_hits: u64,
    full_searches: u64,
    peak_resident: u64,
}

impl OnlineCounts {
    fn add(&mut self, st: &OnlineStats) {
        self.events += st.events as u64;
        self.incremental_hits += st.incremental_hits as u64;
        self.full_searches += st.full_searches as u64;
        self.peak_resident = self.peak_resident.max(st.peak_resident_events as u64);
    }
}

/// Batch layers. Returns the counts and fills `out`.
fn batch(ctx: &Ctx, corpus: &[Trace], rec: &mut Recorder, out: &mut Layers) -> BatchCounts {
    let mut c = BatchCounts::default();
    let (mut read, mut decode, mut events) = (0u64, 0u64, 0u64);
    let (mut lint, mut sat, mut plan) = (0u64, 0u64, 0u64);
    let (mut validate, mut encode) = (0u64, 0u64);
    let mut history_ns = 0u64;
    let mut search_self: i128 = 0;
    let (mut cert_ns, mut cert_calls) = (0f64, 0u64);
    let mut scratch = PlanScratch::new();
    for (i, t) in corpus.iter().enumerate() {
        let req = i as u64;
        out.attempted += 1;
        let root = rec.enter("probe.history", None, req);
        let (h, r_ns) = rec.span("history.read", Some(root), req, || read_history(&t.text));
        let h = match h {
            Ok(h) => h,
            Err(e) => {
                rec.exit(root);
                out.failed += 1;
                out.gate.push(gate::fail(ctx.seed, &t.name(), e));
                continue;
            }
        };
        let ((v, st), d_ns) = rec.span("check.decide", Some(root), req, || pipeline::decide(&h));
        let (_, e_ns) = rec.span("encode", Some(root), req, || {
            black_box(pipeline::verdict_line(&v))
        });
        let (ok, v_ns) = rec.span("validate", Some(root), req, || gate::validate(&h, &v));
        history_ns += rec.exit(root);
        if let Err(e) = ok {
            out.failed += 1;
            out.gate.push(gate::fail(ctx.seed, &t.name(), e));
        }
        read += r_ns;
        encode += e_ns;
        validate += v_ns;
        events += h.len() as u64;

        // Standalone tier calls on the same history, outside the
        // history's span.
        let (lint_v, l_ns) = rec.span("lint", None, req, || prelint_verdict(&h, PlanCriterion::Du));
        let (sat_o, s_ns) = rec.span("saturate", None, req, || saturate(&h, PlanCriterion::Du));
        let (plan_o, p_ns) = rec.span("plan", None, req, || {
            plan_components(&h, PlanCriterion::Du, &mut scratch)
        });
        // Only the tiers the check reached count towards its time.
        let mut reached = l_ns;
        lint += l_ns;
        if lint_v.is_none() {
            reached += s_ns;
            sat += s_ns;
            if matches!(sat_o, SaturationOutcome::Inconclusive) {
                reached += p_ns;
                plan += p_ns;
            }
        }
        c.tally(&st, lint_v.is_some(), &sat_o, || plan_o);
        search_self += i128::from(d_ns) - i128::from(reached);

        // Every certificate saturation produces on the corpus (also where
        // lint refutes first), re-checked by the independent validator.
        if let SaturationOutcome::Refuted(cert) = &sat_o {
            let (r, c_ns) = rec.span("certificate", None, req, || {
                let mut r = Ok(());
                for _ in 0..CERT_REPS {
                    r = check_certificate(black_box(&h), black_box(cert));
                }
                r
            });
            if let Err(e) = r {
                out.gate
                    .push(gate::fail(ctx.seed, &t.name(), format!("certificate: {e}")));
            }
            cert_ns += c_ns as f64 / f64::from(CERT_REPS);
            cert_calls += 1;
        }

        let bytes = binary::encode(&h);
        let (_, b_ns) = rec.span("history.decode", None, req, || {
            black_box(binary::decode(&bytes))
        });
        decode += b_ns;
    }
    let n = c.histories.max(1) as f64;
    let us = |x: u64| x as f64 / 1e3 / n;
    out.metric(
        "history.read_ns_per_event",
        "ns",
        read as f64 / events.max(1) as f64,
    );
    out.metric(
        "history.decode_ns_per_event",
        "ns",
        decode as f64 / events.max(1) as f64,
    );
    out.metric("lint.us_per_history", "us", us(lint));
    out.metric("lint.refuted_frac", "frac", c.lint_refuted as f64 / n);
    out.metric("saturate.us_per_history", "us", us(sat));
    out.metric("saturate.decided_frac", "frac", c.sat_decided as f64 / n);
    out.metric("saturate.refuted", "count", c.sat_refuted as f64);
    out.metric("plan.us_per_history", "us", us(plan));
    out.metric(
        "plan.components_per_history",
        "count",
        c.components as f64 / c.planned.max(1) as f64,
    );
    out.metric(
        "plan.largest_component_txns",
        "count",
        c.largest_component as f64,
    );
    out.metric(
        "search.self_us_per_history",
        "us",
        search_self as f64 / 1e3 / n,
    );
    out.metric("search.explored_states", "count", c.explored as f64);
    out.metric("search.memo_hits", "count", c.memo_hits as f64);
    out.metric("search.dead_ends", "count", c.dead_ends as f64);
    out.metric("search.peak_memo_entries", "count", c.peak_memo as f64);
    out.metric("validate.us_per_history", "us", us(validate));
    out.metric(
        "certificate.ns_per_call",
        "ns",
        cert_ns / cert_calls.max(1) as f64,
    );
    out.metric("certificate.calls", "count", cert_calls as f64);
    out.metric("encode.us_per_verdict", "us", us(encode));
    out.metric("check.traced_us_per_history", "us", us(history_ns));
    // The layer times of the check path against its traced time: read,
    // lint, saturation, planner, search self time, validation, encoding.
    let parts = i128::from(read + lint + sat + plan + validate + encode) + search_self;
    let residual = (i128::from(history_ns) - parts) as f64 / history_ns.max(1) as f64;
    out.metric("check.span_residual_frac", "frac", residual);
    if residual.abs() > SPAN_SUM_TOLERANCE {
        out.gate.push(format!(
            "traced run: layer times sum to {:.1}% of the traced per-history time, outside ±{:.0}%",
            100.0 * (1.0 - residual),
            100.0 * SPAN_SUM_TOLERANCE
        ));
    }
    c
}

/// Parses one line-format chunk into events, as the daemon does.
fn chunk_events(chunk: &[u8]) -> Result<Vec<Event>, String> {
    let mut reader = TraceReader::new(chunk).map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    while let Some(e) = reader.next_event().map_err(|e| e.to_string())? {
        events.push(e);
    }
    Ok(events)
}

/// Online checker, witness validation and serve session layers.
fn online(
    ctx: &Ctx,
    traces: &[Trace],
    oracle: &[String],
    rec: &mut Recorder,
    out: &mut Layers,
) -> (OnlineCounts, f64) {
    let mut c = OnlineCounts::default();
    let mut push_us = Vec::new();
    let (mut wc_ns, mut wc_calls) = (0u64, 0u64);
    let (mut ingest_ns, mut ingest_events) = (0u64, 0u64);
    let (mut verdict_ns, mut verdicts) = (0u64, 0u64);
    let (mut ckpt_ns, mut ckpts) = (0u64, 0u64);
    let ckpt_path = ctx.work.join("probe-session.ckpt");
    let ckpt_path = ckpt_path.to_string_lossy();
    for (i, t) in traces.iter().enumerate() {
        let req = 1_000_000 + i as u64;
        // The online checker, event by event.
        let mut mon = OnlineChecker::new();
        let mut last = None;
        for &e in t.history.events() {
            out.attempted += 1;
            let (r, p_ns) = rec.span("online.push", None, req, || mon.push(e));
            push_us.push(p_ns as f64 / 1e3);
            match r {
                Ok(Verdict::Satisfied(w)) => {
                    let (ok, w_ns) = rec.span("witness_check", None, req, || {
                        check_witness(mon.history(), &w, CriterionKind::DuOpacity)
                    });
                    wc_ns += w_ns;
                    wc_calls += 1;
                    if let Err(err) = ok {
                        out.gate.push(gate::fail(
                            ctx.seed,
                            &t.name(),
                            format!("online witness: {err}"),
                        ));
                    }
                    last = Some('S');
                }
                Ok(Verdict::Violated(_)) => last = Some('V'),
                Ok(Verdict::Unknown { .. }) | Err(_) => {
                    out.failed += 1;
                    out.gate.push(gate::fail(
                        ctx.seed,
                        &t.name(),
                        "online push undecided or rejected",
                    ));
                }
            }
        }
        c.add(&mon.stats());
        let want = if gate::satisfied_line(&oracle[i]) {
            'S'
        } else {
            'V'
        };
        if last != Some(want) {
            out.gate.push(gate::fail(
                ctx.seed,
                &t.name(),
                format!("online verdict {last:?} disagrees with the batch verdict {want}"),
            ));
        }

        // The serve session, chunk by chunk, with the daemon's per-POST
        // checkpoint and the workload's verdict cadence.
        let stream = Stream::of(i, t);
        let mut session = Session::new(i as u64, None);
        let mut final_line = String::new();
        for (k, chunk) in stream.chunks.iter().enumerate() {
            let events = match chunk_events(chunk) {
                Ok(e) => e,
                Err(e) => {
                    out.gate.push(gate::fail(ctx.seed, &t.name(), e));
                    break;
                }
            };
            let (r, s_ns) = rec.span("serve.session_ingest", None, req, || {
                session.ingest(&events)
            });
            if r.is_err() {
                out.failed += 1;
                out.gate
                    .push(gate::fail(ctx.seed, &t.name(), "session rejected a chunk"));
            }
            ingest_ns += s_ns;
            ingest_events += events.len() as u64;
            let (saved, c_ns) = rec.span("serve.checkpoint", None, req, || {
                snapshot::save(&ckpt_path, &Snapshot::Session(session.snapshot()))
            });
            if let Err(e) = saved {
                out.gate.push(format!("session checkpoint: {e}"));
            }
            ckpt_ns += c_ns;
            ckpts += 1;
            if (k + 1) % VERDICT_EVERY == 0 || k + 1 == stream.chunks.len() {
                let (line, v_ns) = rec.span("serve.verdict_line", None, req, || {
                    session.verdict_line(true)
                });
                verdict_ns += v_ns;
                verdicts += 1;
                final_line = line;
            }
        }
        if final_line.trim_end() != oracle[i] {
            out.gate.push(gate::fail(
                ctx.seed,
                &t.name(),
                "session verdict differs from the batch verdict",
            ));
        }
    }
    let _ = std::fs::remove_file(&*ckpt_path);
    let push = Summary::of(&push_us);
    out.metric("online.push_us_p50", "us", push.p50);
    out.metric("online.push_us_p99", "us", push.p99.unwrap_or(f64::NAN));
    out.metric(
        "online.incremental_hit_frac",
        "frac",
        c.incremental_hits as f64 / c.events.max(1) as f64,
    );
    out.metric("online.full_searches", "count", c.full_searches as f64);
    out.metric(
        "online.peak_resident_events",
        "events",
        c.peak_resident as f64,
    );
    out.metric(
        "witness_check.us_per_call",
        "us",
        wc_ns as f64 / 1e3 / wc_calls.max(1) as f64,
    );
    out.metric("witness_check.calls", "count", wc_calls as f64);
    out.metric(
        "serve.session_ingest_us_per_event",
        "us",
        ingest_ns as f64 / 1e3 / ingest_events.max(1) as f64,
    );
    out.metric(
        "serve.verdict_line_us",
        "us",
        verdict_ns as f64 / 1e3 / verdicts.max(1) as f64,
    );
    out.metric(
        "serve.checkpoint_us",
        "us",
        ckpt_ns as f64 / 1e3 / ckpts.max(1) as f64,
    );
    out.detail.push(("online_push_us".into(), push.json("us")));
    (c, ingest_ns as f64 / 1e6)
}

/// The same streams over HTTP, one connection, to a fresh daemon: the
/// summed ingest POST time in ms.
fn http(ctx: &Ctx, traces: &[Trace], out: &mut Layers) -> Option<f64> {
    let daemon = match Daemon::start(&ctx.duop, &serve_stream::state_dir(&ctx.work, 99)) {
        Ok(d) => d,
        Err(e) => {
            out.gate.push(e);
            return None;
        }
    };
    let streams: Vec<Stream> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| Stream::of(i, t))
        .collect();
    let mut log = ClientLog::default();
    let result = crate::http::Conn::connect(&daemon.addr).and_then(|mut conn| {
        let mut request = 0u64;
        for s in &streams {
            serve_stream::stream_one(&mut conn, s, &mut log, &mut request)?;
        }
        Ok(())
    });
    drop(daemon);
    out.attempted += log.attempted;
    if let Err(e) = result {
        out.failed += 1;
        out.gate.push(format!("HTTP probe: {e}"));
        return None;
    }
    Some(log.ingest_ms.iter().sum())
}

/// The tasks the coordinator's planner makes for `corpus` (`duop shard`
/// defaults: lint and saturation on the whole history first, then
/// consecutive components batched to at least [`MIN_TASK_TXNS`]).
fn shard_tasks(corpus: &[Trace]) -> Vec<TaskMsg> {
    let mut scratch = PlanScratch::new();
    let mut tasks = Vec::new();
    for t in corpus {
        let h = &t.history;
        if prelint_verdict(h, PlanCriterion::Du).is_some()
            || saturate_verdict(h, PlanCriterion::Du).is_some()
        {
            continue;
        }
        let PlanOutcome::Components(components) =
            plan_components(h, PlanCriterion::Du, &mut scratch)
        else {
            continue;
        };
        let mut chunks: Vec<Vec<TxnId>> = Vec::new();
        let mut members = Vec::new();
        for component in components {
            members.extend(component);
            if members.len() >= MIN_TASK_TXNS {
                chunks.push(std::mem::take(&mut members));
            }
        }
        if !members.is_empty() {
            chunks.push(members);
        }
        let single = chunks.len() == 1;
        for chunk in chunks {
            let payload = if single {
                binary::encode(h)
            } else {
                let keep: HashSet<TxnId> = chunk.into_iter().collect();
                binary::encode(&h.filter_txns(|id| keep.contains(&id)))
            };
            tasks.push(TaskMsg {
                task_id: tasks.len() as u64,
                attempt: 0,
                criterion: "du".to_owned(),
                prelint: false,
                ladder: false,
                decompose: true,
                saturate: false,
                max_states: 0,
                deadline_ms: 0,
                history: payload,
            });
        }
    }
    tasks
}

/// Shard protocol codec round trips on the real tasks and verdicts.
fn shard(ctx: &Ctx, corpus: &[Trace], rec: &mut Recorder, out: &mut Layers) -> u64 {
    let tasks = shard_tasks(corpus);
    let worker_cfg = SearchConfig {
        threads: Some(1),
        decompose: true,
        prelint: false,
        ladder: false,
        saturate: false,
        max_states: None,
        deadline: None,
        ..SearchConfig::default()
    };
    let (mut task_ns, mut verdict_ns) = (0u64, 0u64);
    for task in &tasks {
        let req = 2_000_000 + task.task_id;
        out.attempted += 1;
        let (back, t_ns) = rec.span("shard.task_codec", None, req, || {
            decode_task(&encode_task(task))
        });
        task_ns += t_ns;
        if !matches!(&back, Ok(m) if m == task) {
            out.gate.push(format!(
                "shard task {} does not survive its codec",
                task.task_id
            ));
            continue;
        }
        let decided = binary::decode(&task.history)
            .map(|h| check_criterion_with_stats(&h, PlanCriterion::Du, &worker_cfg));
        let Ok((verdict, explored)) = decided else {
            out.gate.push(format!(
                "shard task {} history does not decode",
                task.task_id
            ));
            continue;
        };
        let msg = VerdictMsg {
            task_id: task.task_id,
            explored,
            verdict,
        };
        let (back, v_ns) = rec.span("shard.verdict_codec", None, req, || {
            encode_verdict_msg(&msg).and_then(|b| decode_verdict_msg(&b))
        });
        verdict_ns += v_ns;
        if !matches!(&back, Ok(m) if *m == msg) {
            out.failed += 1;
            out.gate.push(gate::fail(
                ctx.seed,
                &format!("shard task {}", task.task_id),
                "verdict does not survive its codec",
            ));
        }
    }
    let n = tasks.len().max(1) as f64;
    out.metric("shard.task_encode_us", "us", task_ns as f64 / 1e3 / n);
    out.metric("shard.verdict_codec_us", "us", verdict_ns as f64 / 1e3 / n);
    out.metric("shard.tasks", "count", tasks.len() as f64);
    tasks.len() as u64
}

/// The exact-repeat counters, recomputed without timing: the batch
/// check path's tier and search counts, the online checker's counts,
/// and the shard planner's task count.
pub fn counters(batch: &[Trace], serve: &[Trace]) -> (BatchCounts, OnlineCounts, u64) {
    let mut b = BatchCounts::default();
    let mut scratch = PlanScratch::new();
    for t in batch {
        let h = &t.history;
        let (_, st) = pipeline::decide(h);
        let lint_refuted = prelint_verdict(h, PlanCriterion::Du).is_some();
        let sat = if lint_refuted {
            SaturationOutcome::Inconclusive
        } else {
            saturate(h, PlanCriterion::Du)
        };
        b.tally(&st, lint_refuted, &sat, || {
            plan_components(h, PlanCriterion::Du, &mut scratch)
        });
    }
    let mut o = OnlineCounts::default();
    for t in serve {
        let mut mon = OnlineChecker::new();
        for &e in t.history.events() {
            let _ = mon.push(e);
        }
        o.add(&mon.stats());
    }
    (b, o, shard_tasks(batch).len() as u64)
}

/// Runs every probe. `oracle` holds the in-process verdict lines of the
/// serve traces.
pub fn probe(
    ctx: &Ctx,
    batch_corpus: &[Trace],
    serve: &[Trace],
    oracle: &[String],
    rec: &mut Recorder,
) -> Layers {
    let mut out = Layers::default();
    let serve = &serve[..ONLINE_TRACES.min(serve.len())];
    let b = batch(ctx, batch_corpus, rec, &mut out);
    let (o, session_ms) = online(ctx, serve, &oracle[..serve.len()], rec, &mut out);
    if let Some(http_ms) = http(ctx, serve, &mut out) {
        out.metric(
            "serve.http_overhead_frac",
            "frac",
            (http_ms - session_ms) / http_ms,
        );
    } else {
        out.metric("serve.http_overhead_frac", "frac", f64::NAN);
    }
    let tasks = shard(ctx, batch_corpus, rec, &mut out);

    // The exact-repeat counters, computed a second time without timing,
    // must come out identical.
    let again = counters(batch_corpus, serve);
    if again != (b.clone(), o.clone(), tasks) {
        out.gate.push(format!(
            "exact-repeat counters differ between two computations: {:?} vs {again:?}",
            (&b, &o, tasks)
        ));
    }
    let frac = |a: u64, n: u64| stats::num(a as f64 / n.max(1) as f64);
    out.counters = vec![
        ("search.explored_states", b.explored.to_string()),
        ("search.memo_hits", b.memo_hits.to_string()),
        ("search.dead_ends", b.dead_ends.to_string()),
        ("search.peak_memo_entries", b.peak_memo.to_string()),
        ("lint.refuted_frac", frac(b.lint_refuted, b.histories)),
        ("saturate.decided_frac", frac(b.sat_decided, b.histories)),
        (
            "online.incremental_hit_frac",
            frac(o.incremental_hits, o.events),
        ),
        ("online.full_searches", o.full_searches.to_string()),
        ("shard.tasks", tasks.to_string()),
    ];
    out
}
