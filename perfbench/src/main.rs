//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --duop PATH
//! --work DIR [--spans FILE]`
//!
//! Runs one workload and prints, as its last two lines of standard
//! output, a detailed JSON report and the result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With `--trace
//! 0` the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones from the traced run. Exits 1 when the output gate
//! fails, 2 on a usage error.

use duop_perfbench::corpus::{self, Trace};
use duop_perfbench::stats::{self, num};
use duop_perfbench::trace::Recorder;
use duop_perfbench::{check_batch, layers, serve_stream, shard_batch, Ctx, Outcome};
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["check_batch", "shard_batch", "serve_stream"];
/// Share of `--seconds` the traced run spends on workload passes (half
/// untraced, half traced, alternating); the layer probes take the rest.
const TRACED_SHARE: f64 = 0.8;
/// Alternating untraced/traced workload segments in the traced run.
const SEGMENTS: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    duop: PathBuf,
    work: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut duop, mut work, mut spans) = (None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--duop" => duop = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        duop: duop.ok_or("--duop is required")?,
        work: work.ok_or("--work is required")?,
        spans,
    })
}

fn run_workload(
    name: &str,
    ctx: &Ctx,
    batch: &[Trace],
    serve: &[Trace],
    seconds: f64,
    rec: Option<&mut Recorder>,
) -> Outcome {
    match name {
        "check_batch" => check_batch::run(ctx, batch, seconds, rec),
        "shard_batch" => shard_batch::run(ctx, batch, seconds, rec),
        _ => serve_stream::run(ctx, serve, seconds, rec),
    }
}

/// Per-sub-mix history and event counts: the bases of every ratio.
fn corpus_json(batch: &[Trace], serve: &[Trace]) -> String {
    let count = |ts: &[&Trace]| {
        format!(
            "{{\"histories\":{},\"events\":{},\"txns\":{}}}",
            ts.len(),
            ts.iter().map(|t| t.history.len()).sum::<usize>(),
            ts.iter().map(|t| t.history.txn_count()).sum::<usize>()
        )
    };
    let mut parts: Vec<String> = corpus::MIXES
        .iter()
        .map(|m| {
            let ts: Vec<&Trace> = batch.iter().filter(|t| t.mix == *m).collect();
            format!("\"{m}\":{}", count(&ts))
        })
        .collect();
    let ts: Vec<&Trace> = serve.iter().collect();
    parts.push(format!("\"serve\":{}", count(&ts)));
    format!("{{{}}}", parts.join(","))
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
        num(value)
    )
}

fn main() {
    // `perfbench --print-statuses SEED` prints the pinned-status file
    // (`expected/seed1.txt` is this output for seed 1).
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--print-statuses") {
        let seed = argv.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
        match duop_perfbench::status_lines(seed) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        duop: args.duop.clone(),
        work: args.work.clone(),
    };
    let t0 = Instant::now();
    let batch = corpus::batch_corpus(args.seed);
    let serve = corpus::serve_corpus(args.seed, serve_stream::TRACES);
    let corpus_s = t0.elapsed().as_secs_f64();

    let mut gate: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics: Vec<String> = Vec::new();
    let mut report: Vec<(String, String)> = vec![
        ("workload".into(), format!("\"{}\"", args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), num(args.seconds)),
        ("trace".into(), u8::from(args.trace).to_string()),
        (
            "host_cores".into(),
            duop_core::available_threads().to_string(),
        ),
        ("corpus".into(), corpus_json(&batch, &serve)),
        ("corpus_generation_s".into(), num(corpus_s)),
    ];

    let mut absorb = |o: &Outcome, gate: &mut Vec<String>| {
        attempted += o.attempted;
        failed += o.failed;
        gate.extend(o.gate.iter().cloned());
    };
    if !args.trace {
        let o = run_workload(&args.workload, &ctx, &batch, &serve, args.seconds, None);
        absorb(&o, &mut gate);
        // The workloads scale their timings to the nominal host (see
        // `hostspeed`); the raw figures go into the report's detail.
        let e = &o.e2e;
        let f = o.host.factor();
        if !(f.is_finite() && f > 0.0) {
            gate.push(format!("the host factor was not measured (value {f})"));
        }
        for (name, value, unit) in [
            ("setup_s", e.setup_s, "s"),
            ("peak_rss_mb", e.peak_rss_mb, "MB"),
            ("throughput_per_s", e.throughput_per_s, "1/s"),
            ("latency_p50_ms", e.latency_p50_ms, "ms"),
            ("latency_tail_ms", e.latency_tail_ms, "ms"),
        ] {
            if !value.is_finite() || value <= 0.0 {
                gate.push(format!("metric {name} was not measured (value {value})"));
            }
            metrics.push(metric_json(name, value, unit));
        }
        // The workload's metrics under its own operation names, with units
        // and sample counts. `error_rate` is reported here and through
        // `attempted`/`failed`: a gated metric may not read 0.
        let error_rate = o.failed as f64 / o.attempted.max(1) as f64;
        let mut named = vec![
            ("peak_rss_mb", e.peak_rss_mb, "MB", 1),
            ("error_rate", error_rate, "frac", o.attempted as usize),
        ];
        named.extend(o.named.iter().copied());
        report.push(("named_metrics".into(), duop_perfbench::named_json(&named)));
        report.push(("host_factor".into(), num(f)));
        report.push((
            "host_kernel_ms".into(),
            stats::Summary::of(&o.host.samples_ms).json("ms"),
        ));
        report.push((
            "host_points_ms".into(),
            stats::samples(&o.host.point_medians_ms()),
        ));
        report.push(("detail".into(), duop_perfbench::json_object(&o.detail)));
    } else {
        // Untraced and traced segments alternate, and the overhead is the
        // median over adjacent pairs, so drift over the run (warm-up, other
        // load) does not land on one side of the comparison.
        let share = args.seconds * TRACED_SHARE / SEGMENTS as f64;
        let mut rec = Recorder::new();
        let (mut base_tp, mut traced_tp) = (Vec::new(), Vec::new());
        for k in 0..SEGMENTS {
            let traced = k % 2 == 1;
            let o = run_workload(
                &args.workload,
                &ctx,
                &batch,
                &serve,
                share,
                traced.then_some(&mut rec),
            );
            absorb(&o, &mut gate);
            if traced { &mut traced_tp } else { &mut base_tp }.push(o.e2e.throughput_per_s);
        }
        let ratios: Vec<f64> = base_tp.iter().zip(&traced_tp).map(|(b, t)| b / t).collect();
        let overhead = stats::median(&ratios) - 1.0;
        let oracle = match serve_stream::oracle(args.seed, &serve) {
            Ok(o) => o,
            Err(e) => {
                gate.push(e);
                Vec::new()
            }
        };
        if !oracle.is_empty() {
            let l = layers::probe(&ctx, &batch, &serve, &oracle, &mut rec);
            attempted += l.attempted;
            failed += l.failed;
            gate.extend(l.gate.iter().cloned());
            for (name, unit, value) in &l.metrics {
                if !value.is_finite() {
                    gate.push(format!("metric {name} was not measured"));
                }
                metrics.push(metric_json(name, *value, unit));
            }
            report.push(("counters".into(), duop_perfbench::json_object(&l.counters)));
            report.push((
                "probe_detail".into(),
                duop_perfbench::json_object(&l.detail),
            ));
        }
        metrics.push(metric_json("trace.overhead_frac", overhead, "frac"));
        report.push(("untraced_throughput_per_s".into(), stats::samples(&base_tp)));
        report.push(("traced_throughput_per_s".into(), stats::samples(&traced_tp)));
        let spans: Vec<String> = rec
            .totals()
            .iter()
            .map(|(k, (n, total, own))| {
                format!("\"{k}\":{{\"n\":{n},\"total_ns\":{total},\"self_ns\":{own}}}")
            })
            .collect();
        report.push(("spans".into(), format!("{{{}}}", spans.join(","))));
        if let Some(path) = &args.spans {
            if let Err(e) = rec.write_jsonl(path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
            }
        }
    }

    let correct = gate.is_empty();
    for g in &gate {
        eprintln!("{g}");
    }
    let gate_json: Vec<String> = gate
        .iter()
        .take(8)
        .map(|g| serde_json::to_string(g).unwrap_or_default())
        .collect();
    report.push(("gate_failures".into(), format!("[{}]", gate_json.join(","))));
    report.push(("run_s".into(), num(t0.elapsed().as_secs_f64())));
    println!("{{\"report\":{}}}", duop_perfbench::json_object(&report));
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
