//! Differential harness for the online monitor, shared by the core and
//! STM test suites.
//!
//! [`replay`] streams a history through [`OnlineChecker`] and checks two
//! things after every event:
//!
//! * for every candidate the monitor would try, the incremental
//!   validator's accept/reject equals `check_witness(..).is_ok()` on the
//!   extended prefix;
//! * the monitor's verdict, stats and witness equal those of a
//!   [`Reference`] monitor that runs the candidate loop with a full
//!   `check_witness` on every candidate.

use duop_core::online::{OnlineChecker, OnlineStats};
use duop_core::{check_witness, CriterionKind, Verdict, Witness};
use duop_history::{Event, History, TxnId};
use std::collections::BTreeMap;

/// The candidate loop with full `check_witness` on every candidate.
///
/// When no candidate certifies the prefix it falls through to the lint
/// and search tiers. Those are the monitor's own code, run on the same
/// history, so the reference takes their result from the monitor — after
/// checking the monitor fell through too.
#[derive(Debug, Default)]
pub struct Reference {
    history: History,
    witness: Option<Witness>,
    violated: Option<Verdict>,
    stats: OnlineStats,
}

impl Reference {
    /// Pushes `event`, which `mon` has just pushed, answering `got`.
    pub fn push(&mut self, event: Event, mon: &OnlineChecker, got: &Verdict) -> Verdict {
        self.history.push_checked(event).expect("well-formed event");
        self.stats.events += 1;
        self.stats.retained_events = self.history.len();
        self.stats.peak_resident_events = self.stats.peak_resident_events.max(self.history.len());
        if let Some(v) = &self.violated {
            return v.clone();
        }
        for candidate in candidates(self.witness.as_ref(), event.txn) {
            if check_witness(&self.history, &candidate, CriterionKind::DuOpacity).is_ok() {
                self.stats.incremental_hits += 1;
                self.witness = Some(candidate.clone());
                return Verdict::Satisfied(candidate);
            }
        }
        let m = mon.stats();
        assert_eq!(
            m.incremental_hits, self.stats.incremental_hits,
            "the monitor certified a prefix no reference candidate certifies"
        );
        self.stats.full_searches = m.full_searches;
        self.stats.lint_refutations = m.lint_refutations;
        self.stats.component_reuses = m.component_reuses;
        match got {
            Verdict::Satisfied(w) => self.witness = Some(w.clone()),
            Verdict::Violated(_) => self.violated = Some(got.clone()),
            Verdict::Unknown { .. } => {}
        }
        got.clone()
    }
}

/// Cheap adaptations of the previous witness, in the monitor's order.
fn candidates(prev: Option<&Witness>, txn: TxnId) -> Vec<Witness> {
    let Some(prev) = prev else {
        return vec![Witness::new(vec![txn], BTreeMap::new())];
    };
    let mut base_order = prev.order().to_vec();
    if !base_order.contains(&txn) {
        base_order.push(txn);
    }
    let choices = prev.commit_choices().clone();
    let mut moved = base_order.clone();
    moved.retain(|t| *t != txn);
    moved.push(txn);
    let mut out = vec![
        Witness::new(base_order.clone(), choices.clone()),
        Witness::new(moved, choices.clone()),
    ];
    for decide in [true, false] {
        let mut flipped = choices.clone();
        flipped.insert(txn, decide);
        out.push(Witness::new(base_order.clone(), flipped));
    }
    out
}

/// What one [`replay`] exercised.
#[derive(Clone, Copy, Debug, Default)]
pub struct Coverage {
    /// Candidates decided by the validator and compared with
    /// `check_witness`.
    pub candidates: usize,
    /// Of those, candidates the validator rejected.
    pub rejected: usize,
}

/// Checks every candidate decision the monitor would make pushing `ev`
/// against `check_witness` on the extended history.
pub fn check_decisions(mon: &OnlineChecker, ev: Event, label: &str, cov: &mut Coverage) {
    let Some(decisions) = mon.incremental_decisions(ev) else {
        return;
    };
    let next = mon.history().extended([ev]).expect("well-formed event");
    for (w, accepted) in decisions {
        let oracle = check_witness(&next, &w, CriterionKind::DuOpacity);
        assert_eq!(
            accepted,
            oracle.is_ok(),
            "{label}: validator and check_witness disagree on {ev} after {} events \
             for {w:?}: {oracle:?}\n{next}",
            mon.history().len()
        );
        cov.candidates += 1;
        cov.rejected += usize::from(!accepted);
    }
}

/// Streams `h` through the monitor and the reference, checking every
/// candidate decision and every verdict (see the module documentation).
pub fn replay(h: &History, label: &str) -> Coverage {
    let mut mon = OnlineChecker::new();
    let mut reference = Reference::default();
    let mut cov = Coverage::default();
    for (i, &ev) in h.events().iter().enumerate() {
        check_decisions(&mon, ev, label, &mut cov);
        let got = mon.push(ev).expect("well-formed event");
        let want = reference.push(ev, &mon, &got);
        assert_eq!(got, want, "{label}: verdicts diverge at event {i} ({ev})");
        assert_eq!(
            mon.stats(),
            reference.stats,
            "{label}: stats diverge at event {i}"
        );
        assert_eq!(
            mon.witness(),
            reference.witness.as_ref(),
            "{label}: witnesses diverge at event {i}"
        );
    }
    cov
}
