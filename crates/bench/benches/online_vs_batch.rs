//! The online monitor (Lemma 1 witness reuse) vs naive per-event
//! re-checking: monitoring a whole history event by event.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion as Bencher, Throughput};
use duop_core::online::OnlineChecker;
use duop_core::{Criterion, DuOpacity};
use duop_gen::{HistoryGen, HistoryGenConfig};

fn bench_online_vs_batch(c: &mut Bencher) {
    let mut group = c.benchmark_group("online_vs_batch");
    // 96 transactions is the serve daemon's trace shape; re-checking every
    // prefix in batch is quadratic there, so only the monitor runs it.
    for txns in [8usize, 16, 32, 96] {
        let h =
            HistoryGen::new(HistoryGenConfig::medium_simulated().with_txns(txns), 31).generate();
        group.throughput(Throughput::Elements(h.len() as u64));

        group.bench_with_input(BenchmarkId::new("online_monitor", txns), &h, |b, h| {
            b.iter(|| {
                let mut mon = OnlineChecker::new();
                for ev in h.events() {
                    mon.push(*ev).expect("well-formed");
                }
                mon.stats()
            })
        });
        if txns > 32 {
            continue;
        }
        group.bench_with_input(BenchmarkId::new("batch_per_event", txns), &h, |b, h| {
            b.iter(|| {
                let mut last = None;
                for i in 1..=h.len() {
                    last = Some(DuOpacity::new().check(&h.prefix(i)));
                }
                last
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion::Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_online_vs_batch
}
criterion_main!(benches);
