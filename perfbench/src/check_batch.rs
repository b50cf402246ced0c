//! `check_batch`: single-threaded, in-process checking of the batch
//! corpus through the library path `duop check --criterion du --format
//! json` runs, one trace at a time, from trace bytes to the verdict line.

use crate::corpus::{Trace, MIXES};
use crate::stats::{self, Summary};
use crate::trace::Recorder;
use crate::{gate_batch, pipeline, secs, Ctx, Outcome};
use duop_core::Verdict;
use duop_history::reader;
use std::time::Instant;

/// Histories per sub-mix in the discarded warm-up.
const WARMUP_PER_MIX: usize = 8;
/// Warm-up repetitions; `setup_s` is their median.
const WARMUP_REPEATS: usize = 31;

/// One history through the check path, optionally traced: parse,
/// decide, encode. Returns the verdict and its line.
fn check_one(
    text: &[u8],
    rec: Option<&mut Recorder>,
    request: u64,
) -> Result<(Verdict, String), String> {
    let Some(rec) = rec else {
        let (_, v, line) = pipeline::check_bytes(text)?;
        return Ok((v, line));
    };
    let root = rec.enter("check.history", None, request);
    let (h, _) = rec.span("check.read", Some(root), request, || {
        reader::read_history(text).map_err(|e| e.to_string())
    });
    let h = h?;
    let ((v, _), _) = rec.span("check.decide", Some(root), request, || pipeline::decide(&h));
    let (line, _) = rec.span("check.encode", Some(root), request, || {
        pipeline::verdict_line(&v)
    });
    rec.exit(root);
    Ok((v, line))
}

/// Runs the workload for `seconds` (whole corpus passes only, so every
/// pass sees the same sub-mix proportions).
pub fn run(ctx: &Ctx, corpus: &[Trace], seconds: f64, mut rec: Option<&mut Recorder>) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: a discarded warm-up over the head of every sub-mix but
    // `contended`, whose time per history spans orders of magnitude and
    // would make `setup_s` follow the seed.
    let warm: Vec<&Trace> = MIXES
        .iter()
        .filter(|m| **m != "contended")
        .flat_map(|m| {
            corpus
                .iter()
                .filter(move |t| t.mix == *m)
                .take(WARMUP_PER_MIX)
        })
        .collect();
    out.host.sample();
    let mut setups = Vec::new();
    for _ in 0..WARMUP_REPEATS {
        let t0 = Instant::now();
        for t in &warm {
            let _ = pipeline::check_bytes(&t.text);
        }
        setups.push((t0, secs(t0)));
    }

    let mut lat_ms: Vec<f64> = Vec::with_capacity(corpus.len() * 16);
    let mut first: Vec<(Verdict, String)> = Vec::with_capacity(corpus.len());
    let mut passes = 0usize;
    let mut busy = 0.0f64;
    let mut pass_rates = Vec::new();
    let mut pass_starts = Vec::new();
    let start = Instant::now();
    while passes == 0 || secs(start) < seconds {
        let pass_start = Instant::now();
        pass_starts.push(pass_start);
        for (i, t) in corpus.iter().enumerate() {
            let t0 = Instant::now();
            let r = check_one(
                &t.text,
                rec.as_deref_mut(),
                (passes * corpus.len() + i) as u64,
            );
            lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            match r {
                Ok((v, line)) => {
                    if matches!(v, Verdict::Unknown { .. }) {
                        out.failed += 1;
                    }
                    if passes == 0 {
                        first.push((v, line));
                    } else if line != first[i].1 {
                        out.gate.push(crate::gate::fail(
                            ctx.seed,
                            &t.name(),
                            format!("pass {passes} verdict line differs from pass 0"),
                        ));
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.gate.push(crate::gate::fail(ctx.seed, &t.name(), e));
                    if passes == 0 {
                        first.push((unknown(), String::new()));
                    }
                }
            }
        }
        let pass_s = secs(pass_start);
        busy += pass_s;
        pass_rates.push(corpus.len() as f64 / pass_s);
        passes += 1;
        out.host.sample();
    }

    let verdicts: Vec<Verdict> = first.into_iter().map(|(v, _)| v).collect();
    if out.gate.is_empty() {
        if let Err(e) = gate_batch(ctx.seed, corpus, &verdicts) {
            out.gate.push(e);
        }
    }

    // Each pass is one sample of the whole corpus, scaled by the host
    // factor around it; the medians over passes keep a transient
    // slowdown of the host out of the figures.
    let all = Summary::of(&lat_ms);
    let pass_f: Vec<f64> = pass_starts.iter().map(|&t| out.host.factor_at(t)).collect();
    let scaled_rates: Vec<f64> = pass_rates.iter().zip(&pass_f).map(|(r, f)| r * f).collect();
    let scaled_ms: Vec<f64> = lat_ms
        .chunks(corpus.len())
        .zip(&pass_f)
        .flat_map(|(pass, f)| pass.iter().map(move |x| x / f))
        .collect();
    let scaled_setups: Vec<f64> = setups
        .iter()
        .map(|&(t, s)| s / out.host.factor_at(t))
        .collect();
    out.e2e.setup_s = stats::median(&scaled_setups);
    out.e2e.throughput_per_s = stats::median(&scaled_rates);
    out.e2e.latency_p50_ms = stats::group_quantile(&scaled_ms, corpus.len(), 0.5);
    out.e2e.latency_tail_ms = stats::group_quantile(&scaled_ms, corpus.len(), 0.99);
    out.e2e.peak_rss_mb = stats::own_peak_rss_mb();

    out.named = vec![
        ("setup_s", out.e2e.setup_s, "s", setups.len()),
        ("histories_per_s", out.e2e.throughput_per_s, "1/s", passes),
        ("check_p50_ms", out.e2e.latency_p50_ms, "ms", all.n),
        ("check_p99_ms", out.e2e.latency_tail_ms, "ms", all.n),
    ];
    out.detail.push(("passes".into(), passes.to_string()));
    out.detail
        .push(("pass_histories_per_s".into(), stats::samples(&pass_rates)));
    out.detail.push((
        "histories_per_s_overall".into(),
        stats::num((passes * corpus.len()) as f64 / busy),
    ));
    out.detail.push(("check_ms".into(), all.json("ms")));
    let mut per_mix = Vec::new();
    for mix in MIXES {
        let v: Vec<f64> = lat_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| corpus[i % corpus.len()].mix == mix)
            .map(|(_, &x)| x)
            .collect();
        per_mix.push(format!("\"{mix}\":{}", Summary::of(&v).json("ms")));
    }
    out.detail.push((
        "check_ms_by_mix".into(),
        format!("{{{}}}", per_mix.join(",")),
    ));
    let raw_setups: Vec<f64> = setups.iter().map(|s| s.1).collect();
    out.detail
        .push(("setup_s_samples".into(), stats::samples(&raw_setups)));
    out
}

/// A placeholder verdict for a trace that failed before deciding.
fn unknown() -> Verdict {
    Verdict::Unknown {
        explored: 0,
        reason: duop_core::UnknownReason::Interrupted,
        partial: None,
    }
}
