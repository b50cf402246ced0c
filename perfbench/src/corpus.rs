//! Seeded workload inputs. Everything here is derived from the run's
//! `--seed`; the program under test only ever sees the serialized bytes.

use duop_gen::{GenMode, HistoryGen, HistoryGenConfig};
use duop_history::{trace::format_trace, Event, EventKind, History, ObjId, Op, TxnId};
use std::collections::{HashMap, HashSet, VecDeque};

/// The `check_batch` / `shard_batch` sub-mixes, in corpus order.
pub const MIXES: [&str; 4] = ["sat", "refute", "contended", "clustered"];

/// Histories per sub-mix in one batch corpus. One pass over the corpus
/// is the unit of measurement, so every pass sees the same mix.
pub const MIX_COUNTS: [usize; 4] = [1200, 600, 96, 96];

/// One generated history with its trace bytes.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Sub-mix name (one of [`MIXES`], or `serve`).
    pub mix: &'static str,
    /// Index within the sub-mix.
    pub index: usize,
    /// The history itself (for the output gate and the layer probes).
    pub history: History,
    /// The line-format trace bytes the program under test reads.
    pub text: Vec<u8>,
}

impl Trace {
    fn new(mix: &'static str, index: usize, history: History) -> Self {
        let text = format_trace(&history).into_bytes();
        Trace {
            mix,
            index,
            history,
            text,
        }
    }

    /// `mix#index`, the name a gate failure reports.
    pub fn name(&self) -> String {
        format!("{}#{}", self.mix, self.index)
    }
}

/// SplitMix64: decorrelates the per-history generator seeds derived from
/// one run seed.
pub fn mix_seed(seed: u64, lane: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(lane.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `sat`: 24-txn simulated histories that reach the witness path.
fn sat_config() -> HistoryGenConfig {
    HistoryGenConfig::medium_simulated()
}

/// `refute`: 8-txn adversarial histories (`duop generate --mode
/// adversarial --txns 8`); lint refutes most of them.
fn refute_config() -> HistoryGenConfig {
    HistoryGenConfig {
        txns: 8,
        objs: 4,
        mode: GenMode::Adversarial,
        ..HistoryGenConfig::medium_simulated()
    }
}

/// `contended`: value-validated histories on 2 objects with 12 live
/// transactions, where the search really backtracks. 32 transactions,
/// not 48: at 48 the per-history time has a coefficient of variation
/// near 2 (a 250 ms history in every few hundred), so the corpus time
/// would swing by more than the metric bounds from seed to seed.
fn contended_config() -> HistoryGenConfig {
    HistoryGenConfig {
        txns: 32,
        objs: 2,
        mode: GenMode::ValueValidated,
        ..HistoryGenConfig::medium_simulated()
    }
    .with_concurrency(12)
}

/// Clusters per `clustered` history and transactions per cluster.
const CLUSTERS: usize = 8;
const TXNS_PER_CLUSTER: usize = 10;
const OBJS_PER_CLUSTER: u32 = 6;

/// `clustered`: object-disjoint clusters whose transactions all overlap
/// in real time, so the planner finds one component per cluster (the
/// construction of the `shard_scaling` bench's component workload).
fn clustered_history(seed: u64) -> History {
    let relabel = |e: &Event, c: usize| {
        let txn = TxnId::new(e.txn.index() + (c * TXNS_PER_CLUSTER) as u32);
        let shift = |x: ObjId| ObjId::new(x.index() + c as u32 * OBJS_PER_CLUSTER);
        let kind = match e.kind {
            EventKind::Inv(Op::Read(x)) => EventKind::Inv(Op::Read(shift(x))),
            EventKind::Inv(Op::Write(x, v)) => EventKind::Inv(Op::Write(shift(x), v)),
            other => other,
        };
        Event { txn, kind }
    };
    let mut streams: Vec<Vec<Event>> = Vec::new();
    for c in 0..CLUSTERS {
        let cfg = HistoryGenConfig::medium_simulated()
            .with_txns(TXNS_PER_CLUSTER)
            .with_objs(OBJS_PER_CLUSTER);
        let h = HistoryGen::new(cfg, mix_seed(seed, 7, c as u64)).generate();
        streams.push(h.events().iter().map(|e| relabel(e, c)).collect());
    }
    // Phase one hoists every transaction's opening invocation to the
    // front, so every transaction starts before any ends and no two are
    // real-time ordered. Phase two interleaves the clusters' remaining
    // events round-robin, keeping each cluster's own order (hoisting an
    // invocation only relaxes real-time order, so each cluster keeps its
    // verdict). Single-event (stalled) transactions would be real-time
    // ordered against everything, so they are dropped.
    let mut count: HashMap<TxnId, usize> = HashMap::new();
    for e in streams.iter().flatten() {
        *count.entry(e.txn).or_default() += 1;
    }
    let mut opened: HashSet<TxnId> = HashSet::new();
    let mut events = Vec::new();
    let mut rest: Vec<VecDeque<Event>> = Vec::new();
    for stream in &streams {
        let mut q = VecDeque::new();
        for e in stream.iter().filter(|e| count[&e.txn] >= 2) {
            if opened.insert(e.txn) {
                events.push(*e);
            } else {
                q.push_back(*e);
            }
        }
        rest.push(q);
    }
    while rest.iter().any(|q| !q.is_empty()) {
        for q in &mut rest {
            events.extend(q.pop_front());
        }
    }
    History::new(events).expect("interleaved clusters stay well-formed")
}

/// The `check_batch` / `shard_batch` corpus for `seed`: every sub-mix in
/// [`MIXES`] order.
pub fn batch_corpus(seed: u64) -> Vec<Trace> {
    let mut out = Vec::new();
    for (lane, (&mix, &count)) in MIXES.iter().zip(&MIX_COUNTS).enumerate() {
        for i in 0..count {
            let s = mix_seed(seed, lane as u64 + 1, i as u64);
            let h = match mix {
                "sat" => HistoryGen::new(sat_config(), s).generate(),
                "refute" => HistoryGen::new(refute_config(), s).generate(),
                "contended" => HistoryGen::new(contended_config(), s).generate(),
                _ => clustered_history(s),
            };
            out.push(Trace::new(mix, i, h));
        }
    }
    out
}

/// `small_adversarial` histories checked against the brute-force
/// reference checker by the output gate (never timed).
pub fn reference_corpus(seed: u64, count: usize) -> Vec<Trace> {
    (0..count)
        .map(|i| {
            let s = mix_seed(seed, 11, i as u64);
            let h = HistoryGen::new(HistoryGenConfig::small_adversarial(), s).generate();
            Trace::new("small", i, h)
        })
        .collect()
}

/// Transactions per `serve_stream` trace (BENCH_9's shape).
pub const SERVE_TXNS: usize = 96;

/// The `serve_stream` corpus: 96-txn `medium_simulated` traces.
pub fn serve_corpus(seed: u64, count: usize) -> Vec<Trace> {
    (0..count)
        .map(|i| {
            let s = mix_seed(seed, 21, i as u64);
            let cfg = HistoryGenConfig::medium_simulated().with_txns(SERVE_TXNS);
            Trace::new("serve", i, HistoryGen::new(cfg, s).generate())
        })
        .collect()
}

/// Splits a trace into line-format chunks of `chunk` events each (the
/// body of one ingest POST); the format has exactly one line per event.
pub fn text_chunks(text: &[u8], chunk: usize) -> Vec<Vec<u8>> {
    let lines: Vec<&[u8]> = text.split_inclusive(|&b| b == b'\n').collect();
    lines.chunks(chunk).map(|c| c.concat()).collect()
}
