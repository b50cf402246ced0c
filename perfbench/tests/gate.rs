//! Negative self-tests for the output gate: each corrupts one kind of
//! output and shows the gate rejects it (and accepts the original), so
//! the gate is not vacuous.

use duop_core::{saturate, PlanCriterion, SaturationOutcome, Verdict, Violation, Witness};
use duop_perfbench::corpus::{self, Trace};
use duop_perfbench::serve_stream::{gate_verdicts, ClientLog};
use duop_perfbench::shard_batch::gate_reply;
use duop_perfbench::{gate, pipeline};

const SEED: u64 = gate::DEFAULT_SEED;

fn checked(t: &Trace) -> (Verdict, String) {
    let (_, v, line) = pipeline::check_bytes(&t.text).expect("corpus traces parse");
    (v, line)
}

/// Satisfied histories with their verdicts, from the `sat` sub-mix.
fn satisfied(n: usize) -> Vec<(Trace, Witness, String)> {
    corpus::batch_corpus(SEED)
        .into_iter()
        .filter(|t| t.mix == "sat")
        .take(n)
        .map(|t| {
            let (v, line) = checked(&t);
            let Verdict::Satisfied(w) = v else {
                panic!("sat histories are satisfied")
            };
            (t, w, line)
        })
        .collect()
}

#[test]
fn accepts_untampered_outputs() {
    for (t, w, line) in satisfied(8) {
        assert_eq!(
            gate::validate(&t.history, &Verdict::Satisfied(w)),
            Ok(gate::Status::Satisfied)
        );
        assert_eq!(
            gate::check_reply(SEED, &t, &line, &line),
            Ok(gate::Status::Satisfied)
        );
    }
}

#[test]
fn rejects_a_permuted_witness() {
    let mut rejected = 0;
    for (t, w, line) in satisfied(16) {
        let mut order = w.order().to_vec();
        order.reverse();
        let permuted = Witness::new(order, w.commit_choices().clone());
        let tampered = Verdict::Satisfied(permuted);
        if gate::validate(&t.history, &tampered).is_ok() {
            // Reversal happened to be another valid serialization.
            continue;
        }
        rejected += 1;
        let bad_line = pipeline::verdict_line(&tampered);
        let err = gate::check_reply(SEED, &t, &line, &bad_line).unwrap_err();
        assert!(err.contains("check_witness"), "{err}");
        assert!(
            err.contains(&t.name()) && err.contains(&format!("seed {SEED}")),
            "{err}"
        );
    }
    assert!(rejected > 0, "no permuted witness was invalid");
}

#[test]
fn rejects_a_flipped_status() {
    // A violated history reported as satisfied, with any order.
    let t = corpus::batch_corpus(SEED)
        .into_iter()
        .find(|t| t.mix == "refute" && checked(t).0.is_violated())
        .expect("refute histories include violations");
    let (_, line) = checked(&t);
    let ids: Vec<_> = t.history.txns().map(|x| x.id()).collect();
    let flipped =
        pipeline::verdict_line(&Verdict::Satisfied(Witness::new(ids, Default::default())));
    assert!(gate::check_reply(SEED, &t, &line, &flipped).is_err());

    // A flipped letter in the pinned statuses of the reference corpus.
    let small = corpus::reference_corpus(SEED, duop_perfbench::REFERENCE_HISTORIES);
    let refs: Vec<&Trace> = small.iter().collect();
    let (_, pinned) = gate::pinned(SEED, "small").expect("seed 1 is pinned");
    assert_eq!(gate::check_pinned(SEED, "small", &refs, pinned), Ok(()));
    let mut statuses: Vec<char> = pinned.chars().collect();
    statuses[5] = if statuses[5] == 'S' { 'V' } else { 'S' };
    let statuses: String = statuses.into_iter().collect();
    let err = gate::check_pinned(SEED, "small", &refs, &statuses).unwrap_err();
    assert!(err.contains("small#5"), "{err}");
    let err = gate::check_reference(SEED, &refs, &statuses).unwrap_err();
    assert!(err.contains("small#5"), "{err}");
}

#[test]
fn rejects_a_tampered_certificate_step() {
    let (t, cert) = corpus::batch_corpus(SEED)
        .into_iter()
        .find_map(|t| match saturate(&t.history, PlanCriterion::Du) {
            SaturationOutcome::Refuted(cert) => Some((t, cert)),
            _ => None,
        })
        .expect("saturation refutes some corpus history");
    let verdict = |c| {
        Verdict::Violated(Violation::Certified {
            criterion: "du-opacity".into(),
            certificate: Box::new(c),
        })
    };
    let good = verdict(cert.clone());
    assert_eq!(
        gate::validate(&t.history, &good),
        Ok(gate::Status::Violated)
    );
    let good_line = pipeline::verdict_line(&good);
    assert_eq!(
        gate::validate_line(&t.history, &good_line),
        Ok(gate::Status::Violated)
    );

    let mut bad = cert;
    let step = &mut bad.steps[0];
    std::mem::swap(&mut step.from, &mut step.to);
    let bad = verdict(bad);
    let err = gate::validate(&t.history, &bad).unwrap_err();
    assert!(err.contains("check_certificate"), "{err}");
    let err = gate::validate_line(&t.history, &pipeline::verdict_line(&bad)).unwrap_err();
    assert!(err.contains("check_certificate"), "{err}");
}

#[test]
fn rejects_a_truncated_shard_reply() {
    let picked = satisfied(3);
    let traces: Vec<&Trace> = picked.iter().map(|(t, _, _)| t).collect();
    let lines: Vec<&str> = picked.iter().map(|(_, _, l)| l.as_str()).collect();
    let full = lines.join("\n") + "\n";
    for thorough in [false, true] {
        assert_eq!(gate_reply(SEED, &traces, &lines, &full, thorough), Ok(()));
    }
    // A missing last line.
    let short = lines[..2].join("\n") + "\n";
    let err = gate_reply(SEED, &traces, &lines, &short, false).unwrap_err();
    assert!(err.contains("truncated"), "{err}");
    // A line cut off mid-JSON.
    let cut = format!(
        "{}\n{}\n{}\n",
        lines[0],
        lines[1],
        &lines[2][..lines[2].len() / 2]
    );
    for thorough in [false, true] {
        assert!(gate_reply(SEED, &traces, &lines, &cut, thorough).is_err());
    }
}

#[test]
fn rejects_a_truncated_serve_reply() {
    let serve = corpus::serve_corpus(SEED, 2);
    let oracle: Vec<String> = serve.iter().map(|t| checked(t).1).collect();
    let log = |body: String, sent: usize| ClientLog {
        verdicts: vec![(0, sent, body)],
        ..ClientLog::default()
    };
    let n = serve[0].history.len();
    let ok = log(format!("{}\n", oracle[0]), n);
    assert_eq!(gate_verdicts(SEED, &serve, &oracle, &[ok]), Ok(()));
    let cut = log(oracle[0][..oracle[0].len() - 7].to_owned(), n);
    let err = gate_verdicts(SEED, &serve, &oracle, &[cut]).unwrap_err();
    assert!(err.contains("serve#0"), "{err}");

    // An intermediate verdict for a prefix, truncated.
    let prefix = duop_history::History::new(serve[0].history.events()[..40].to_vec()).unwrap();
    let (v, _) = pipeline::decide(&prefix);
    let mid = pipeline::verdict_line(&v);
    assert_eq!(
        gate_verdicts(SEED, &serve, &oracle, &[log(mid.clone(), 40)]),
        Ok(())
    );
    let cut = log(mid[..mid.len() / 2].to_owned(), 40);
    assert!(gate_verdicts(SEED, &serve, &oracle, &[cut]).is_err());
}
