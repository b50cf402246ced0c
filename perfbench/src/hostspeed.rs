//! The host-speed reference: a fixed kernel, independent of the program
//! under test, timed between the workload's passes so every timing of a
//! run can be scaled to a nominal host.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by tens of percent over minutes as other tenants come and go. The
//! drift is not steal time (the process's CPU time tracks its wall time),
//! so neither CPU time nor medians within a run remove it. The kernel
//! below (hash-map and B-tree inserts and lookups with their
//! allocations, the checker's own mix) slows down with the host much as
//! the checker does: in two probes of a few minutes each, the
//! coefficient of variation of `check_batch`'s pass time over 20-second
//! windows was 8–10%, and that of its ratio to the kernel's time 2–3%.
//!
//! The kernel is timed at *points* between the workload's passes or
//! segments. The *host factor* at an instant is the median kernel time
//! at the points just before and just after it, over [`NOMINAL_MS`]. A
//! timing is reported divided by the factor at the time it was taken,
//! and a rate multiplied by it: the figure the host would give if the
//! kernel took exactly [`NOMINAL_MS`]. Scaling each pass by its own
//! factor, rather than the whole run by one, also follows a host that
//! drifts within the run. The raw figures and the factors are in the
//! report.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel time, in ms, of the nominal host the figures are scaled
/// to.
pub const NOMINAL_MS: f64 = 1.0;
/// Kernel repetitions at each sample point; each is one sample.
pub const REPS: usize = 15;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The reference kernel: 4,000 inserts and 4,000 lookups on a hash map
/// and a B-tree of up to 5,000 keys.
pub fn kernel() -> u64 {
    let mut s = 1_234_567u64;
    let mut hash: HashMap<u64, u64> = HashMap::new();
    let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0..4000u64 {
        let k = xorshift(&mut s) % 5000;
        *hash.entry(k).or_default() += i;
        tree.insert(k, i);
    }
    let mut acc = 0u64;
    for _ in 0..4000 {
        let k = xorshift(&mut s) % 5000;
        acc = acc.wrapping_add(hash.get(&k).copied().unwrap_or(0));
        acc = acc.wrapping_add(tree.range(k..).next().map_or(0, |(_, v)| *v));
    }
    acc
}

/// Kernel times collected over one run.
#[derive(Clone, Debug, Default)]
pub struct HostSpeed {
    /// One kernel time per repetition, in ms; [`REPS`] per point.
    pub samples_ms: Vec<f64>,
    /// When each point's repetitions ended.
    pub points: Vec<Instant>,
}

impl HostSpeed {
    /// Takes one point: times [`REPS`] runs of the kernel.
    pub fn sample(&mut self) {
        for _ in 0..REPS {
            let t0 = Instant::now();
            black_box(kernel());
            self.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        self.points.push(Instant::now());
    }

    /// The kernel times of point `k`.
    fn point(&self, k: usize) -> &[f64] {
        &self.samples_ms[k * REPS..(k + 1) * REPS]
    }

    /// The median kernel time of each point, in ms.
    pub fn point_medians_ms(&self) -> Vec<f64> {
        (0..self.points.len())
            .map(|k| crate::stats::median(self.point(k)))
            .collect()
    }

    /// The factor at `at`: the median kernel time of the last point
    /// taken before `at` and the first taken after it, over
    /// [`NOMINAL_MS`]; above 1 on a host slower than the nominal one.
    /// NaN before any point.
    pub fn factor_at(&self, at: Instant) -> f64 {
        let after = self.points.partition_point(|&p| p <= at);
        let around: Vec<f64> = [after.checked_sub(1), Some(after)]
            .into_iter()
            .flatten()
            .filter(|&k| k < self.points.len())
            .flat_map(|k| self.point(k).iter().copied())
            .collect();
        crate::stats::median(&around) / NOMINAL_MS
    }

    /// The run's median kernel time over [`NOMINAL_MS`], for the report.
    pub fn factor(&self) -> f64 {
        crate::stats::median(&self.samples_ms) / NOMINAL_MS
    }
}
