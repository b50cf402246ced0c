//! Sample summaries and resident-memory readings.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The median, over consecutive groups of `group` samples in completion
/// order, of each group's `q` quantile, which keeps a burst of host noise
/// that covers less than half the groups out of the figure. A partial
/// last group is dropped; with no full group the whole run is one group.
/// NaN when that group has fewer than ten samples beyond a tail `q`.
pub fn group_quantile(samples: &[f64], group: usize, q: f64) -> f64 {
    let per_group: Vec<f64> = samples
        .chunks_exact(group.max(1))
        .map(|g| {
            let mut v = g.to_vec();
            v.sort_by(f64::total_cmp);
            quantile(&v, q)
        })
        .collect();
    if !per_group.is_empty() {
        return median(&per_group);
    }
    if q > 0.5 && !tail_reportable(samples.len(), q) {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// A timing distribution: sample count, median, and the tail
/// percentiles that have at least ten samples beyond them.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile, if at least ten samples lie beyond it.
    pub p90: Option<f64>,
    /// 99th percentile, if at least ten samples lie beyond it.
    pub p99: Option<f64>,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Whether a `q` quantile of `n` samples has at least ten beyond it.
fn tail_reportable(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() >= 10.0
}

impl Summary {
    /// Summarizes `values` (any order).
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail = |q: f64| tail_reportable(n, q).then(|| quantile(&v, q));
        Summary {
            n,
            p50: quantile(&v, 0.5),
            p90: tail(0.9),
            p99: tail(0.99),
            mean: if n == 0 {
                f64::NAN
            } else {
                v.iter().sum::<f64>() / n as f64
            },
        }
    }

    /// JSON object with every reportable field (`null` for a tail
    /// percentile with fewer than ten samples beyond it).
    pub fn json(&self, unit: &str) -> String {
        let opt = |x: Option<f64>| x.map_or("null".to_owned(), num);
        format!(
            "{{\"n\":{},\"unit\":\"{unit}\",\"p50\":{},\"p90\":{},\"p99\":{},\"mean\":{}}}",
            self.n,
            num(self.p50),
            opt(self.p90),
            opt(self.p99),
            num(self.mean)
        )
    }
}

/// A JSON array of raw samples.
pub fn samples(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|&x| num(x)).collect();
    format!("[{}]", items.join(","))
}

/// A float as a JSON number (non-finite values become `null`).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// A `/proc/<pid>/status` field in kB.
fn status_kb(pid: u32, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (`VmHWM`) of one process, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    status_kb(pid, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// This process's peak resident set, in MB.
pub fn own_peak_rss_mb() -> f64 {
    peak_rss_mb(std::process::id()).unwrap_or(f64::NAN)
}

/// Direct children of `pid` (from `/proc/<pid>/task/*/children`).
fn children(pid: u32) -> Vec<u32> {
    let mut out = Vec::new();
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for t in tasks.flatten() {
            if let Ok(text) = std::fs::read_to_string(t.path().join("children")) {
                out.extend(
                    text.split_whitespace()
                        .filter_map(|c| c.parse::<u32>().ok()),
                );
            }
        }
    }
    out
}

/// Samples the peak resident set of a process tree while it runs: the
/// last `VmHWM` seen for each process, summed over the tree.
#[derive(Debug)]
pub struct TreeRss {
    stop: Arc<AtomicBool>,
    peaks: Arc<Mutex<HashMap<u32, f64>>>,
    handle: Option<JoinHandle<()>>,
}

impl TreeRss {
    /// Starts sampling the tree rooted at `root` every `every`.
    pub fn start(root: u32, every: Duration) -> TreeRss {
        let stop = Arc::new(AtomicBool::new(false));
        let peaks: Arc<Mutex<HashMap<u32, f64>>> = Arc::new(Mutex::new(HashMap::new()));
        let (s, p) = (stop.clone(), peaks.clone());
        let handle = std::thread::spawn(move || loop {
            let mut frontier = vec![root];
            while let Some(pid) = frontier.pop() {
                if let Some(mb) = peak_rss_mb(pid) {
                    let mut map = p.lock().expect("the sampler never panics holding the lock");
                    let e = map.entry(pid).or_insert(0.0);
                    *e = e.max(mb);
                }
                frontier.extend(children(pid));
            }
            if s.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(every);
        });
        TreeRss {
            stop,
            peaks,
            handle: Some(handle),
        }
    }

    /// Takes one last sample, stops, and returns the summed peak in MB.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let peaks = self
            .peaks
            .lock()
            .expect("the sampler never panics holding the lock");
        peaks.values().sum()
    }
}
