//! The online monitor's incremental witness validator against the
//! `check_witness` oracle on fault-injected STM histories. Crashes leave
//! pending operations and commit-pending transactions behind, the shapes
//! whose commit choices the monitor's candidates flip.

#[path = "../../core/tests/support/online_reference.rs"]
mod online_reference;

use duop_stm::engines::{DirtyRead, Dstm, Eager2Pl, NoRec, Pessimistic, Tl2};
use duop_stm::{run_workload_faulted, Engine, FaultPlan, WorkloadConfig};
use online_reference::replay;

fn cfg(seed: u64, threads: usize) -> WorkloadConfig {
    WorkloadConfig {
        threads,
        txns_per_thread: 8,
        ops_per_txn: (1, 3),
        read_ratio: 0.6,
        // A small value domain permits ABA, so value-validating engines
        // also produce histories that are not du-opaque.
        unique_values: false,
        max_attempts: 2,
        yield_between_ops: false,
        seed,
    }
}

#[test]
fn validator_agrees_with_check_witness_on_fault_injected_histories() {
    type EngineFactory = Box<dyn Fn() -> Box<dyn Engine>>;
    let engines: Vec<(&str, EngineFactory)> = vec![
        ("tl2", Box::new(|| Box::new(Tl2::new(3)))),
        ("norec", Box::new(|| Box::new(NoRec::new(3)))),
        ("dstm", Box::new(|| Box::new(Dstm::new(3)))),
        ("2pl", Box::new(|| Box::new(Eager2Pl::new(3)))),
        ("pessimistic", Box::new(|| Box::new(Pessimistic::new(3)))),
        ("dirty", Box::new(|| Box::new(DirtyRead::new(3)))),
    ];
    let mut decided = 0;
    for (name, make) in &engines {
        for seed in 0..12 {
            // One thread is deterministic; three threads add real overlap.
            for threads in [1, 3] {
                let plan = FaultPlan::parse("abort=0.1,crash=0.15,delay=0.05,thread-crash=0.3")
                    .expect("spec is valid")
                    .with_seed(seed);
                let (h, _) = run_workload_faulted(make().as_ref(), &cfg(seed, threads), &plan);
                let label = format!("{name} seed {seed} threads {threads}");
                decided += replay(&h, &label).candidates;
            }
        }
    }
    assert!(decided > 0, "no candidate was decided incrementally");
}
