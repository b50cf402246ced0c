//! The duop checker benchmark: three workloads (`check_batch`,
//! `shard_batch`, `serve_stream`), a fail-closed output gate, and a
//! traced run that times each layer. See `README.md` for the metrics.

pub mod check_batch;
pub mod corpus;
pub mod gate;
pub mod hostspeed;
pub mod http;
pub mod layers;
pub mod pipeline;
pub mod serve_stream;
pub mod shard_batch;
pub mod stats;
pub mod trace;

use corpus::Trace;
use duop_core::Verdict;
use std::path::PathBuf;

/// What every workload needs to know about the run.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// The `duop` binary under test.
    pub duop: PathBuf,
    /// Scratch directory for this run (trace files, daemon state).
    pub work: PathBuf,
}

/// The end-to-end metrics every workload reports (see `README.md` for
/// what each means on each workload).
#[derive(Clone, Debug, Default)]
pub struct E2e {
    /// Median set-up time before timed work starts.
    pub setup_s: f64,
    /// Peak resident memory of the system under test.
    pub peak_rss_mb: f64,
    /// Histories (or events) per second.
    pub throughput_per_s: f64,
    /// Median operation latency.
    pub latency_p50_ms: f64,
    /// Tail operation latency (the percentile is fixed per workload).
    pub latency_tail_ms: f64,
}

/// One workload run's results.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors, refusals, undecided verdicts).
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: E2e,
    /// The workload's metrics under the names of its own operations
    /// (`check_p99_ms`, `events_per_s`, ...): `(name, value, unit,
    /// samples)`. A tail percentile with fewer than ten samples beyond it
    /// is NaN (printed as `null`).
    pub named: Vec<(&'static str, f64, &'static str, usize)>,
    /// Workload-specific detail for the report: `(key, JSON value)`.
    pub detail: Vec<(String, String)>,
    /// Output gate failures; any entry fails the run.
    pub gate: Vec<String>,
    /// Reference-kernel times taken between the workload's passes.
    pub host: hostspeed::HostSpeed,
}

/// The named metrics as one JSON object, each with its unit and sample
/// count.
pub fn named_json(named: &[(&'static str, f64, &'static str, usize)]) -> String {
    let entries: Vec<(&str, String)> = named
        .iter()
        .map(|&(k, v, unit, n)| {
            let value = stats::num(v);
            (
                k,
                format!("{{\"value\":{value},\"unit\":\"{unit}\",\"n\":{n}}}"),
            )
        })
        .collect();
    json_object(&entries)
}

/// A JSON object from `(key, JSON value)` pairs.
pub fn json_object<K: std::fmt::Display, V: std::fmt::Display>(entries: &[(K, V)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Gates the in-process verdicts of the batch corpus: every verdict is
/// validated, statuses match the pinned ones for the default seed, and
/// the `small_adversarial` reference histories match the brute-force
/// checker. Returns the status string (`S`/`V` per history).
pub fn gate_batch(seed: u64, corpus: &[Trace], verdicts: &[Verdict]) -> Result<String, String> {
    let mut statuses = String::with_capacity(corpus.len());
    for (t, v) in corpus.iter().zip(verdicts) {
        let s = gate::validate(&t.history, v).map_err(|e| gate::fail(seed, &t.name(), e))?;
        statuses.push(s.letter());
    }
    let refs: Vec<&Trace> = corpus.iter().collect();
    gate::check_pinned(seed, "batch", &refs, &statuses)?;
    gate_reference(seed)?;
    Ok(statuses)
}

/// Histories checked against the brute-force reference per run.
pub const REFERENCE_HISTORIES: usize = 64;

/// Checks the `small_adversarial` part of the seed through the in-process
/// path and compares each status with `duop_core::reference`.
pub fn gate_reference(seed: u64) -> Result<(), String> {
    let small = corpus::reference_corpus(seed, REFERENCE_HISTORIES);
    let mut statuses = String::new();
    for t in &small {
        let (h, v, _) =
            pipeline::check_bytes(&t.text).map_err(|e| gate::fail(seed, &t.name(), e))?;
        let s = gate::validate(&h, &v).map_err(|e| gate::fail(seed, &t.name(), e))?;
        statuses.push(s.letter());
    }
    let refs: Vec<&Trace> = small.iter().collect();
    gate::check_reference(seed, &refs, &statuses)?;
    gate::check_pinned(seed, "small", &refs, &statuses)
}

/// Elapsed seconds of `start`.
pub fn secs(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The pinned-status file for `seed`: `<corpus> <digest> <statuses>` for
/// the batch corpus, the reference histories and the serve corpus, each
/// status decided by the in-process check path and validated by the gate.
pub fn status_lines(seed: u64) -> Result<String, String> {
    let corpora = [
        ("batch", corpus::batch_corpus(seed)),
        ("small", corpus::reference_corpus(seed, REFERENCE_HISTORIES)),
        ("serve", corpus::serve_corpus(seed, serve_stream::TRACES)),
    ];
    let mut out = String::new();
    for (name, traces) in corpora {
        let mut statuses = String::new();
        for t in &traces {
            let (h, v, _) =
                pipeline::check_bytes(&t.text).map_err(|e| gate::fail(seed, &t.name(), e))?;
            let s = gate::validate(&h, &v).map_err(|e| gate::fail(seed, &t.name(), e))?;
            statuses.push(s.letter());
        }
        out.push_str(&format!(
            "{name} {:016x} {statuses}\n",
            gate::digest(&statuses)
        ));
    }
    Ok(out)
}
