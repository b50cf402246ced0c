//! `shard_batch`: the batch corpus written as `.duob` files and checked
//! by `duop shard --workers 2 --criterion du --format json`, one batch
//! per invocation, one invocation at a time.

use crate::corpus::Trace;
use crate::stats::{self, Summary, TreeRss};
use crate::trace::Recorder;
use crate::{gate, gate_batch, pipeline, secs, Ctx, Outcome};
use duop_history::binary;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Shard workers per invocation (the host's core count at the time the
/// workload was defined; recorded in the report next to `host_cores`).
pub const WORKERS: usize = 2;
/// Invocations per corpus pass; batch `b` holds every trace whose corpus
/// index is `b` modulo this, so each batch has the corpus's sub-mix.
pub const BATCHES: usize = 24;
/// Invocations per latency group: the p90 of 100 has ten beyond it.
const LATENCY_GROUP: usize = 100;
/// Set-up repetitions (spawn + one-history warm-up); `setup_s` is their
/// median.
const SETUP_REPEATS: usize = 21;
/// `/proc` sampling period for the process tree's resident memory.
const RSS_EVERY: Duration = Duration::from_millis(2);

/// Result of one `duop shard` invocation.
pub struct Invocation {
    /// Wall time, spawn to exit.
    pub secs: f64,
    /// Exit code.
    pub code: Option<i32>,
    /// Standard output.
    pub stdout: String,
    /// Summed peak resident memory of the coordinator and its workers.
    pub rss_mb: f64,
}

/// Runs `duop shard` over `files` and waits for it.
pub fn invoke(duop: &Path, files: &[PathBuf]) -> Result<Invocation, String> {
    let t0 = Instant::now();
    let child = Command::new(duop)
        .arg("shard")
        .args(files)
        .args(["--workers", &WORKERS.to_string()])
        .args(["--criterion", "du", "--format", "json"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", duop.display()))?;
    let rss = TreeRss::start(child.id(), RSS_EVERY);
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    let secs = secs(t0);
    let rss_mb = rss.finish();
    if !matches!(output.status.code(), Some(0 | 1)) {
        return Err(format!(
            "duop shard exited with {:?}: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(Invocation {
        secs,
        code: output.status.code(),
        stdout: String::from_utf8(output.stdout).map_err(|e| e.to_string())?,
        rss_mb,
    })
}

/// Writes the corpus as `.duob` files; returns their paths.
pub fn write_corpus(dir: &Path, corpus: &[Trace]) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    corpus
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let p = dir.join(format!("{i:05}.duob"));
            std::fs::write(&p, binary::encode(&t.history)).map_err(|e| e.to_string())?;
            Ok(p)
        })
        .collect()
}

/// Checks one invocation's reply against the in-process oracle lines.
/// `full` additionally parses and validates every line on its own.
pub fn gate_reply(
    seed: u64,
    batch: &[&Trace],
    expected: &[&str],
    stdout: &str,
    full: bool,
) -> Result<(), String> {
    let lines = gate::reply_lines(seed, batch, stdout)?;
    for ((t, want), got) in batch.iter().zip(expected).zip(lines) {
        if full {
            gate::check_reply(seed, t, want, got)?;
        } else if got != *want {
            return Err(gate::fail(
                seed,
                &t.name(),
                format!("shard reply differs from the in-process verdict line\n  expected: {want}\n  got:      {got}"),
            ));
        }
    }
    Ok(())
}

/// Runs the workload for `seconds` (whole corpus passes only).
pub fn run(ctx: &Ctx, corpus: &[Trace], seconds: f64, mut rec: Option<&mut Recorder>) -> Outcome {
    let mut out = Outcome::default();
    // The oracle: the in-process check path over the same traces.
    let mut verdicts = Vec::with_capacity(corpus.len());
    let mut lines = Vec::with_capacity(corpus.len());
    for t in corpus {
        match pipeline::check_bytes(&t.text) {
            Ok((_, v, line)) => {
                verdicts.push(v);
                lines.push(line);
            }
            Err(e) => {
                out.gate.push(gate::fail(ctx.seed, &t.name(), e));
                return out;
            }
        }
    }
    if let Err(e) = gate_batch(ctx.seed, corpus, &verdicts) {
        out.gate.push(e);
        return out;
    }
    let files = match write_corpus(&ctx.work.join("duob"), corpus) {
        Ok(f) => f,
        Err(e) => {
            out.gate.push(format!("writing the .duob corpus: {e}"));
            return out;
        }
    };

    // Set-up: spawn the coordinator and its workers on a one-history
    // batch and wait for the reply.
    out.host.sample();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        match invoke(&ctx.duop, &files[..1]) {
            Ok(inv) => {
                if let Err(e) = gate_reply(ctx.seed, &[&corpus[0]], &[&lines[0]], &inv.stdout, true)
                {
                    out.gate.push(e);
                }
                setups.push((t0, inv.secs));
            }
            Err(e) => {
                out.gate.push(e);
                return out;
            }
        }
    }

    let batches: Vec<Vec<usize>> = (0..BATCHES)
        .map(|b| (b..corpus.len()).step_by(BATCHES).collect())
        .collect();
    let mut lat_ms = Vec::new();
    let mut busy = 0.0f64;
    let mut done = 0usize;
    let mut rss_mb = Vec::new();
    let mut passes = 0usize;
    let start = Instant::now();
    let mut pass_rates = Vec::new();
    let mut pass_starts = Vec::new();
    while passes == 0 || secs(start) < seconds {
        let (busy0, done0) = (busy, done);
        pass_starts.push(Instant::now());
        for (b, idx) in batches.iter().enumerate() {
            let request = (passes * BATCHES + b) as u64;
            let span = rec
                .as_deref_mut()
                .map(|r| r.enter("shard.invocation", None, request));
            let paths: Vec<PathBuf> = idx.iter().map(|&i| files[i].clone()).collect();
            let t0 = Instant::now();
            let r = invoke(&ctx.duop, &paths);
            if let (Some(r), Some(s)) = (rec.as_deref_mut(), span) {
                r.exit(s);
            }
            out.attempted += idx.len() as u64;
            let inv = match r {
                Ok(inv) => inv,
                Err(e) => {
                    out.failed += idx.len() as u64;
                    out.gate.push(e);
                    continue;
                }
            };
            busy += inv.secs;
            done += idx.len();
            lat_ms.push((t0, inv.secs * 1e3));
            rss_mb.push(inv.rss_mb);
            let traces: Vec<&Trace> = idx.iter().map(|&i| &corpus[i]).collect();
            let want: Vec<&str> = idx.iter().map(|&i| lines[i].as_str()).collect();
            let span = rec
                .as_deref_mut()
                .map(|r| r.enter("shard.gate", None, request));
            if let Err(e) = gate_reply(ctx.seed, &traces, &want, &inv.stdout, passes == 0) {
                // A reply that does not match counts every history in it
                // as failed.
                out.failed += idx.len() as u64;
                out.gate.push(e);
            }
            if let (Some(r), Some(s)) = (rec.as_deref_mut(), span) {
                r.exit(s);
            }
            let violated = idx.iter().any(|&i| verdicts[i].is_violated());
            if inv.code != Some(if violated { 1 } else { 0 }) {
                out.gate.push(gate::fail(
                    ctx.seed,
                    &traces[0].name(),
                    format!(
                        "batch {b}: exit code {:?} does not match its verdicts",
                        inv.code
                    ),
                ));
            }
        }
        pass_rates.push((done - done0) as f64 / (busy - busy0));
        passes += 1;
        out.host.sample();
    }

    // Every timing is scaled by the host factor around it. Throughput is
    // the median over corpus passes and latency the median over groups of
    // invocations, which keeps a transient slowdown of the host out of
    // them.
    let host = &out.host;
    let scale = |v: &[(Instant, f64)]| -> Vec<f64> {
        v.iter().map(|&(t, x)| x / host.factor_at(t)).collect()
    };
    let scaled_ms = scale(&lat_ms);
    let scaled_setups = scale(&setups);
    let scaled_rates: Vec<f64> = pass_rates
        .iter()
        .zip(&pass_starts)
        .map(|(r, &t)| r * host.factor_at(t))
        .collect();
    let raw_ms: Vec<f64> = lat_ms.iter().map(|l| l.1).collect();
    let all = Summary::of(&raw_ms);
    out.e2e.setup_s = stats::median(&scaled_setups);
    out.e2e.throughput_per_s = stats::median(&scaled_rates);
    out.e2e.latency_p50_ms = stats::group_quantile(&scaled_ms, LATENCY_GROUP, 0.5);
    out.e2e.latency_tail_ms = stats::group_quantile(&scaled_ms, LATENCY_GROUP, 0.9);
    // The median over invocations: the `/proc` sampler can miss a
    // worker's last growth just before it exits.
    out.e2e.peak_rss_mb = stats::median(&rss_mb);
    out.named = vec![
        ("setup_s", out.e2e.setup_s, "s", setups.len()),
        ("histories_per_s", out.e2e.throughput_per_s, "1/s", passes),
    ];
    out.detail.push(("passes".into(), passes.to_string()));
    out.detail.push(("workers".into(), WORKERS.to_string()));
    out.detail
        .push(("histories_per_batch".into(), batches[0].len().to_string()));
    out.detail.push((
        "histories_per_s_overall".into(),
        stats::num(done as f64 / busy),
    ));
    out.detail
        .push(("pass_histories_per_s".into(), stats::samples(&pass_rates)));
    out.detail.push(("invocation_ms".into(), all.json("ms")));
    let raw_setups: Vec<f64> = setups.iter().map(|s| s.1).collect();
    out.detail
        .push(("setup_s_samples".into(), stats::samples(&raw_setups)));
    out
}
