//! One daemon session: an [`OnlineChecker`] plus the bookkeeping the
//! service layer needs — acknowledged-event counts, a hard retained-event
//! budget with sound degradation, and checkpoint round-tripping through
//! the [`duop_core::snapshot`] session variant (the base that
//! [`crate::journal`] replays its journal onto).

use std::time::Instant;

use duop_core::online::{OnlineChecker, OnlineStats};
use duop_core::snapshot::{Fragment, SessionSnapshot, WitnessSnap};
use duop_core::{Criterion, DuOpacity, PartialProgress, SearchConfig, UnknownReason, Verdict};
use duop_history::{Event, History, MalformedHistoryError};

use crate::journal::Journal;

/// What one ingest batch did to the session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Events acknowledged by this batch (pushed or, once degraded,
    /// counted-but-dropped).
    pub accepted: u64,
    /// Events of this batch counted-but-dropped because the session is
    /// degraded.
    pub discarded: u64,
    /// Whether this batch pushed the session into degraded mode.
    pub newly_degraded: bool,
}

/// A live checking session.
#[derive(Debug)]
pub struct Session {
    /// Daemon-assigned id.
    pub id: u64,
    checker: OnlineChecker,
    /// Total events acknowledged (pushed + discarded). Clients resume
    /// re-streaming from this offset after a daemon restart.
    ingested: u64,
    /// Events acknowledged but not retained after degradation.
    discarded: u64,
    /// Hard cap on retained events (`None` = unbounded).
    budget: Option<usize>,
    degraded: bool,
    /// Last ingest/verdict activity, for idle reaping.
    pub last_activity: Instant,
    /// The state dir's journal writer for this session.
    pub(crate) journal: Journal,
}

impl Session {
    /// Creates an empty session. `budget` is the hard retained-event cap;
    /// the checker's automatic compaction is armed at the same threshold
    /// so the budget *drives* compaction before it forces degradation.
    pub fn new(id: u64, budget: Option<usize>) -> Self {
        let mut checker = OnlineChecker::new();
        checker.set_compact_every(budget);
        Session {
            id,
            checker,
            ingested: 0,
            discarded: 0,
            budget,
            degraded: false,
            last_activity: Instant::now(),
            journal: Journal::default(),
        }
    }

    /// Total acknowledged events.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Events currently retained in the checker's history.
    pub fn retained(&self) -> usize {
        self.checker.history().len()
    }

    /// Whether the retained-event budget has forced the session to stop
    /// retaining events.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Whether a (final, Corollary 2) violation has been observed.
    pub fn violated(&self) -> bool {
        self.checker.violation().is_some()
    }

    /// Ingests one batch of already-parsed events.
    ///
    /// Events are pushed one at a time through the online checker. When a
    /// push would grow the retained history past the budget, the session
    /// first asks the checker to compact; if compaction cannot reclaim
    /// space (open transactions, or an uncertified prefix) the session
    /// *degrades*: this and all later events are acknowledged and counted
    /// but not retained, so the budget is never exceeded. A violation
    /// observed before degradation stays final either way.
    ///
    /// # Errors
    ///
    /// A malformed event (one that does not extend the history to a
    /// well-formed one) stops the batch; events before it stay ingested
    /// and the report rides along in the error so the handler can tell
    /// the client how far it got.
    pub fn ingest(
        &mut self,
        events: &[Event],
    ) -> Result<IngestReport, (MalformedHistoryError, IngestReport)> {
        let mut report = IngestReport::default();
        self.last_activity = Instant::now();
        for &event in events {
            if !self.degraded {
                if let Some(budget) = self.budget {
                    if self.checker.history().len() >= budget && self.checker.violation().is_none()
                    {
                        // At the cap: compaction is the only way to admit
                        // the event without exceeding the budget.
                        self.checker.try_compact();
                        if self.checker.history().len() >= budget {
                            self.degraded = true;
                            report.newly_degraded = true;
                        }
                    }
                }
            }
            if self.degraded && !self.violated() {
                self.ingested += 1;
                self.discarded += 1;
                report.accepted += 1;
                report.discarded += 1;
                continue;
            }
            match self.checker.push(event) {
                Ok(_) => {
                    self.ingested += 1;
                    report.accepted += 1;
                }
                Err(e) => return Err((e, report)),
            }
        }
        Ok(report)
    }

    /// The session's current du-opacity verdict.
    ///
    /// For a healthy session this is a fresh batch check of the retained
    /// history with the default configuration — on an uncompacted session
    /// that is, byte for byte, the verdict `duop check --criterion du`
    /// computes for the same trace. A degraded session that has not
    /// violated reports `Unknown{state-budget, partial}` (events were
    /// dropped, so no sound positive verdict exists); a violation stays
    /// reportable forever because violations are prefix-final.
    pub fn verdict(&mut self) -> Verdict {
        self.last_activity = Instant::now();
        if self.degraded && !self.violated() {
            return Verdict::Unknown {
                explored: self.ingested,
                reason: UnknownReason::StateBudget,
                partial: Some(PartialProgress::components(0, 1)),
            };
        }
        DuOpacity::with_config(SearchConfig::default()).check(self.checker.history())
    }

    /// Renders the verdict exactly as the `duop check` transcript line
    /// for the du-opacity criterion (JSON or text mode).
    pub fn verdict_line(&mut self, json: bool) -> String {
        let verdict = self.verdict();
        if json {
            let detail = serde_json::to_string(&verdict).expect("verdicts serialize infallibly");
            format!("{{\"criterion\":\"du-opacity\",\"verdict\":{detail}}}\n")
        } else {
            format!("{:<28} {verdict}\n", "du-opacity")
        }
    }

    /// The checker's work counters.
    pub fn stats(&self) -> OnlineStats {
        self.checker.stats()
    }

    /// Captures the session as a checkpointable snapshot. Like the
    /// monitor checkpoint, no verdict is serialized — recovery re-derives
    /// any violation from the retained events themselves.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            session: self.id,
            ingested: self.ingested,
            events: self.checker.history().events().to_vec(),
            degraded: self.degraded,
            discarded: self.discarded,
            witness: self.checker.witness().map(WitnessSnap::from_witness),
            stats: self.checker.stats(),
            fragments: self
                .checker
                .export_fragments()
                .into_iter()
                .map(|(members, placements)| Fragment {
                    members,
                    placements,
                })
                .collect(),
            budget: self.budget.unwrap_or(0) as u64,
        }
    }

    /// Rebuilds a session from a checkpoint. The retained history is
    /// revalidated (`History::new` re-checks well-formedness), the
    /// witness is revalidated by [`OnlineChecker::resume`], and any
    /// violation is re-derived by checking the retained events — a
    /// tampered snapshot can cost a recheck, never forge a verdict.
    ///
    /// # Errors
    ///
    /// The history's own well-formedness error if the snapshot's events
    /// do not form a valid history.
    pub fn resume(snap: SessionSnapshot) -> Result<Self, MalformedHistoryError> {
        let journal = Journal::after_base(snap.events.len() as u64);
        let history = History::new(snap.events)?;
        let violated = Some(DuOpacity::with_config(SearchConfig::default()).check(&history))
            .filter(|v| v.is_violated());
        let witness = snap.witness.map(WitnessSnap::into_witness);
        let budget = match snap.budget {
            0 => None,
            b => Some(b as usize),
        };
        let mut checker = OnlineChecker::resume(
            history,
            witness,
            violated,
            snap.stats,
            SearchConfig::default(),
        );
        checker.set_compact_every(budget);
        checker.preload_fragments(
            snap.fragments
                .into_iter()
                .map(|f| (f.members, f.placements))
                .collect(),
        );
        Ok(Session {
            id: snap.session,
            checker,
            ingested: snap.ingested,
            discarded: snap.discarded,
            budget,
            degraded: snap.degraded,
            last_activity: Instant::now(),
            journal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duop_history::trace::parse_trace;

    const GOOD: &str = "\
T1 write X0 1
T1 ok
T1 tryc
T1 commit
T2 read X0
T2 val 1
T2 tryc
T2 commit
";

    const BAD: &str = "\
T1 write X0 1
T1 ok
T2 read X0
T2 val 1
T1 trya
T1 abort
T2 tryc
T2 commit
";

    fn events(trace: &str) -> Vec<Event> {
        parse_trace(trace).unwrap().events().to_vec()
    }

    #[test]
    fn clean_session_matches_batch_check() {
        let mut s = Session::new(1, None);
        let evs = events(GOOD);
        let report = s.ingest(&evs).unwrap();
        assert_eq!(report.accepted, evs.len() as u64);
        let v = s.verdict();
        assert!(v.is_satisfied(), "{v}");
        let h = History::new(events(GOOD)).unwrap();
        let batch = DuOpacity::with_config(SearchConfig::default()).check(&h);
        assert_eq!(
            serde_json::to_string(&v).unwrap(),
            serde_json::to_string(&batch).unwrap()
        );
    }

    #[test]
    fn dirty_read_violates_and_stays_final() {
        let mut s = Session::new(2, None);
        s.ingest(&events(BAD)).unwrap();
        assert!(s.violated());
        assert!(s.verdict().is_violated());
    }

    #[test]
    fn snapshot_round_trip_preserves_verdict() {
        let mut s = Session::new(3, None);
        s.ingest(&events(GOOD)).unwrap();
        let before = s.verdict_line(true);
        let mut resumed = Session::resume(s.snapshot()).unwrap();
        assert_eq!(resumed.ingested(), s.ingested());
        assert_eq!(resumed.verdict_line(true), before);
    }

    #[test]
    fn budget_degrades_to_unknown_never_exceeds() {
        // Budget of 2 with an open transaction: compaction cannot fire
        // (not t-complete), so the session must degrade.
        let mut s = Session::new(4, Some(2));
        let evs = events(GOOD);
        let report = s.ingest(&evs).unwrap();
        assert_eq!(report.accepted, evs.len() as u64);
        assert!(s.degraded());
        assert!(s.retained() <= 2, "retained {} > budget", s.retained());
        match s.verdict() {
            Verdict::Unknown {
                reason: UnknownReason::StateBudget,
                partial: Some(_),
                ..
            } => {}
            other => panic!("expected degraded unknown, got {other}"),
        }
    }

    #[test]
    fn violation_survives_degradation() {
        let mut s = Session::new(5, Some(64));
        s.ingest(&events(BAD)).unwrap();
        assert!(s.violated());
        // Shrink the budget story: even when later events are dropped,
        // the violation is final.
        s.ingest(&events(GOOD)).unwrap_err(); // T1 reused: malformed
        assert!(s.verdict().is_violated());
    }

    #[test]
    fn malformed_event_reports_partial_progress() {
        let mut s = Session::new(6, None);
        let mut evs = events(GOOD);
        // A response for a transaction that never began is malformed.
        evs.push(Event::resp(
            duop_history::TxnId::new(9),
            duop_history::Ret::Committed,
        ));
        let (_err, report) = s.ingest(&evs).unwrap_err();
        assert_eq!(report.accepted, (evs.len() - 1) as u64);
        assert_eq!(s.ingested(), (evs.len() - 1) as u64);
    }
}
