//! The online monitor's incremental witness validator against the
//! `check_witness` oracle, on every prefix of every generator preset, plus
//! its rebuild guards (resume, compaction, `Unknown` pushes) and the share
//! of pushes that still need a full `check_witness`.

mod support {
    pub mod online_reference;
}

use duop_core::online::OnlineChecker;
use duop_core::snapshot::{self, Fragment, SessionSnapshot, Snapshot, WitnessSnap};
use duop_core::{
    check_witness, Criterion, CriterionKind, DuOpacity, SearchConfig, Verdict, Witness,
};
use duop_gen::{HistoryGen, HistoryGenConfig, KeyDist};
use duop_history::{Event, History, HistoryBuilder, ObjId, Op, Ret, TxnId, Value};
use std::collections::BTreeMap;
use support::online_reference::{check_decisions, replay, Coverage};

fn run(cfg: HistoryGenConfig, seeds: std::ops::Range<u64>, label: &str) -> Coverage {
    let mut total = Coverage::default();
    for seed in seeds {
        let h = HistoryGen::new(cfg.clone(), seed).generate();
        let cov = replay(&h, &format!("{label} seed {seed}"));
        total.candidates += cov.candidates;
        total.rejected += cov.rejected;
    }
    assert!(
        total.candidates > 0,
        "{label}: no candidate was decided incrementally"
    );
    total
}

#[test]
fn validator_agrees_with_check_witness_on_small_presets() {
    let adversarial = run(
        HistoryGenConfig::small_adversarial(),
        0..300,
        "small_adversarial",
    );
    run(
        HistoryGenConfig::small_simulated(),
        0..300,
        "small_simulated",
    );
    assert!(
        adversarial.rejected > 0,
        "adversarial histories must make the validator reject candidates"
    );
}

#[test]
fn validator_agrees_with_check_witness_on_medium_simulated_96() {
    run(
        HistoryGenConfig::medium_simulated().with_txns(96),
        0..1,
        "medium_simulated/96",
    );
}

#[test]
fn validator_agrees_with_check_witness_under_skewed_keys() {
    let medium = HistoryGenConfig::medium_simulated().with_txns(32);
    run(
        medium
            .clone()
            .with_key_dist(KeyDist::Zipfian { theta: 1.2 }),
        0..6,
        "zipfian",
    );
    run(
        medium.with_key_dist(KeyDist::Hotspot {
            hot_fraction: 0.2,
            hot_prob: 0.8,
        }),
        0..6,
        "hotspot",
    );
    // Value-validated histories are occasionally not du-opaque, so the
    // monitor also meets violations and fallback searches.
    run(
        HistoryGenConfig {
            mode: duop_gen::GenMode::ValueValidated,
            objs: 2,
            concurrency: 6,
            ..HistoryGenConfig::medium_simulated()
        },
        0..12,
        "value_validated",
    );
}

#[test]
fn local_legality_rejects_a_move_the_global_check_accepts() {
    // T2 reads x = 1 from T1. T3 writes x = 2 and invokes tryC before that
    // read responds; T4 rewrites x = 1 afterwards. When T2 then reads T5's
    // y = 7, moving T2 to the end is legal globally (T4's x = 1) but not
    // locally: in S^{2,x} T4 is dropped and T3's x = 2 is the latest.
    let (x, y) = (ObjId::new(0), ObjId::new(1));
    let t = TxnId::new;
    let h = HistoryBuilder::new()
        .committed_writer(t(1), x, Value::new(1))
        .inv_read(t(2), x)
        .write(t(3), x, Value::new(2))
        .inv_try_commit(t(3))
        .resp_value(t(2), Value::new(1))
        .resp_committed(t(3))
        .committed_writer(t(4), x, Value::new(1))
        .committed_writer(t(5), y, Value::new(7))
        .read(t(2), y, Value::new(7))
        .commit(t(2))
        .build();
    let cov = replay(&h, "aba");
    assert!(cov.rejected >= 4, "{cov:?}");
    assert!(DuOpacity::new().check(&h).is_violated());
}

#[test]
fn own_write_reads_are_checked_against_the_own_write() {
    let x = ObjId::new(0);
    let t = TxnId::new;
    for (got, du_opaque) in [(Value::new(1), true), (Value::new(0), false)] {
        let h = HistoryBuilder::new()
            .write(t(1), x, Value::new(1))
            .read(t(1), x, got)
            .commit(t(1))
            .build();
        let cov = replay(&h, "own write");
        assert_eq!(cov.rejected == 0, du_opaque, "{cov:?}");
    }
}

#[test]
fn aborting_a_commit_chosen_transaction_retracts_its_writes() {
    // The resumed witness commits the commit-pending T1. Once T1 aborts,
    // its write must leave the validator's state: T2 reading it violates.
    let x = ObjId::new(0);
    let t = TxnId::new;
    let prefix = HistoryBuilder::new()
        .write(t(1), x, Value::new(1))
        .inv_try_commit(t(1))
        .build();
    let w = Witness::new(vec![t(1)], BTreeMap::from([(t(1), true)]));
    let mut mon = OnlineChecker::resume(
        prefix,
        Some(w),
        None,
        Default::default(),
        SearchConfig::default(),
    );
    let mut cov = Coverage::default();
    let mut last = None;
    for ev in [
        Event::resp(t(1), Ret::Aborted),
        Event::inv(t(2), Op::Read(x)),
        Event::resp(t(2), Ret::Value(Value::new(1))),
    ] {
        check_decisions(&mon, ev, "retract", &mut cov);
        last = Some(mon.push(ev).unwrap());
    }
    assert!(last.unwrap().is_violated());
    assert_eq!(cov.rejected, 4, "{cov:?}");
}

/// The benchmark's seed derivation for its serve corpus (splitmix64 over
/// seed, lane and index), so the traffic check runs on the same traces.
fn mix_seed(seed: u64, lane: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(lane.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn serve_trace(i: u64) -> History {
    let cfg = HistoryGenConfig::medium_simulated().with_txns(96);
    HistoryGen::new(cfg, mix_seed(1, 21, i)).generate()
}

#[test]
fn full_witness_checks_stay_under_five_percent_on_serve_traces() {
    let (mut pushes, mut checks) = (0u64, 0u64);
    for i in 0..64 {
        let h = serve_trace(i);
        let mut mon = OnlineChecker::new();
        for &ev in h.events() {
            mon.push(ev).expect("well-formed event");
        }
        pushes += h.len() as u64;
        checks += mon.witness_checks();
    }
    let frac = checks as f64 / pushes as f64;
    eprintln!("full check_witness calls: {checks} of {pushes} pushes ({frac:.4})");
    assert!(frac < 0.05, "{checks} full checks over {pushes} pushes");
}

/// The session checkpoint `duop serve` would write for `mon`.
fn session_snapshot(mon: &OnlineChecker) -> String {
    snapshot::to_file_string(&Snapshot::Session(SessionSnapshot {
        session: 1,
        ingested: mon.stats().events as u64,
        events: mon.history().events().to_vec(),
        degraded: false,
        discarded: 0,
        witness: mon.witness().map(WitnessSnap::from_witness),
        stats: mon.stats(),
        fragments: mon
            .export_fragments()
            .into_iter()
            .map(|(members, placements)| Fragment {
                members,
                placements,
            })
            .collect(),
        budget: 0,
    }))
}

/// Resumes from checkpoint text the way a `duop serve` session does: the
/// file is loaded and verified, any violation is re-derived from the
/// events, and the witness is handed over for revalidation.
fn resume(text: &str, path: &std::path::Path) -> OnlineChecker {
    std::fs::write(path, text).expect("write checkpoint");
    let Snapshot::Session(snap) = snapshot::load(path.to_str().unwrap()).expect("load") else {
        panic!("not a session checkpoint");
    };
    let history = History::new(snap.events).expect("well-formed checkpoint");
    let violated = Some(DuOpacity::with_config(SearchConfig::default()).check(&history))
        .filter(Verdict::is_violated);
    let mut mon = OnlineChecker::resume(
        history,
        snap.witness.map(WitnessSnap::into_witness),
        violated,
        snap.stats,
        SearchConfig::default(),
    );
    mon.preload_fragments(
        snap.fragments
            .into_iter()
            .map(|f| (f.members, f.placements))
            .collect(),
    );
    mon
}

#[test]
fn resume_at_every_16_event_boundary_matches_uninterrupted_run() {
    let h = serve_trace(0);
    let mut whole = OnlineChecker::new();
    let mut verdicts = Vec::new();
    let mut whole_stats = Vec::new();
    let mut checkpoints = Vec::new();
    for (i, &ev) in h.events().iter().enumerate() {
        verdicts.push(whole.push(ev).unwrap());
        whole_stats.push(whole.stats());
        let boundary = (i + 1) % 16 == 0 || i + 1 == h.len();
        checkpoints.push(if boundary {
            session_snapshot(&whole)
        } else {
            String::new()
        });
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("online-resume-session.ck");
    for cut in (16..h.len()).step_by(16) {
        let mut mon = resume(&checkpoints[cut - 1], &path);
        let resumed_checks = mon.witness_checks();
        assert_eq!(
            resumed_checks, 1,
            "resume revalidates the checkpointed witness once"
        );
        for (i, &ev) in h.events().iter().enumerate().skip(cut) {
            let got = mon.push(ev).unwrap();
            assert_eq!(got, verdicts[i], "cut {cut}: verdict diverges at event {i}");
            assert_eq!(
                mon.stats(),
                whole_stats[i],
                "cut {cut}: stats diverge at event {i}"
            );
            if (i + 1) % 16 == 0 || i + 1 == h.len() {
                assert_eq!(
                    session_snapshot(&mon),
                    checkpoints[i],
                    "cut {cut}: checkpoint bytes diverge at event {i}"
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn forged_checkpoint_witness_is_never_trusted() {
    // A checkpoint whose witness is valid for an *earlier* prefix (stale)
    // or reversed (forged) must cost a revalidation, never a verdict.
    let h = serve_trace(3);
    let mut whole = OnlineChecker::new();
    let verdicts: Vec<Verdict> = h
        .events()
        .iter()
        .map(|&ev| whole.push(ev).unwrap())
        .collect();
    for cut in [48, 160, 320] {
        let prefix = h.prefix(cut);
        let stale = Verdict::witness(&verdicts[cut / 2]).cloned();
        let forged = stale.as_ref().map(|w| {
            let mut order = w.order().to_vec();
            order.reverse();
            Witness::new(order, w.commit_choices().clone())
        });
        for witness in [stale, forged] {
            let mut mon = OnlineChecker::resume(
                prefix.clone(),
                witness,
                None,
                Default::default(),
                SearchConfig::default(),
            );
            let mut last = None;
            for (i, &ev) in h.events().iter().enumerate().skip(cut) {
                let got = mon.push(ev).unwrap();
                assert_eq!(
                    got.is_satisfied(),
                    verdicts[i].is_satisfied(),
                    "cut {cut}: verdict diverges at event {i}"
                );
                last = Some(got);
            }
            let w = last
                .as_ref()
                .and_then(Verdict::witness)
                .expect("du-opaque trace");
            assert_eq!(check_witness(&h, w, CriterionKind::DuOpacity), Ok(()));
        }
    }
}
