//! The output gate. Every run checks what the program under test
//! produced, and any mismatch fails the run, naming the trace and seed.
//!
//! * every `Satisfied` witness passes [`check_witness`];
//! * every certified refutation passes [`check_certificate`];
//! * an `Unknown` verdict is a failure (no deadline or state budget is
//!   ever set, so an `Unknown` means something went wrong);
//! * per-history statuses match the statuses pinned for the default seed
//!   and, for `small_adversarial` histories, the brute-force reference;
//! * shard and serve replies are byte-identical to the in-process
//!   verdict line for the same trace, and parse and validate on their own.

use crate::corpus::Trace;
use duop_core::certificate::Certificate;
use duop_core::reference::check_by_enumeration;
use duop_core::{check_certificate, check_witness, CriterionKind, Verdict, Violation, Witness};
use duop_history::{History, TxnId};
use serde::{Content, Deserialize};
use std::collections::BTreeMap;

/// The seed whose statuses are pinned in `expected/`.
pub const DEFAULT_SEED: u64 = 1;

/// Pinned per-history statuses for [`DEFAULT_SEED`]: one line per corpus,
/// `<corpus> <digest> <statuses>`, one `S` or `V` per history.
const PINNED: &str = include_str!("../expected/seed1.txt");

/// A decided verdict's status letter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// `S`: satisfied.
    Satisfied,
    /// `V`: violated.
    Violated,
}

impl Status {
    /// The letter used in the pinned status strings.
    pub fn letter(self) -> char {
        match self {
            Status::Satisfied => 'S',
            Status::Violated => 'V',
        }
    }
}

/// A gate failure: which trace, what went wrong.
pub fn fail(seed: u64, trace: &str, what: impl std::fmt::Display) -> String {
    format!("output gate: seed {seed}, trace {trace}: {what}")
}

/// Validates one in-process verdict against its history.
pub fn validate(h: &History, verdict: &Verdict) -> Result<Status, String> {
    match verdict {
        Verdict::Satisfied(w) => check_witness(h, w, CriterionKind::DuOpacity)
            .map(|()| Status::Satisfied)
            .map_err(|e| format!("witness rejected by check_witness: {e}")),
        Verdict::Violated(Violation::Certified { certificate, .. }) => {
            // A du-opacity certificate speaks about the history itself
            // (du prepares nothing).
            check_certificate(h, certificate)
                .map(|()| Status::Violated)
                .map_err(|e| format!("certificate rejected by check_certificate: {e}"))
        }
        Verdict::Violated(_) => Ok(Status::Violated),
        Verdict::Unknown { reason, .. } => Err(format!("undecided verdict (unknown: {reason:?})")),
    }
}

/// A verdict line as parsed back from JSON.
#[derive(Debug)]
pub enum Parsed {
    /// `satisfied` with its witness.
    Satisfied(Witness),
    /// `violated`, with the certificate when the refutation is certified.
    Violated(Option<Box<Certificate>>),
}

fn get<'a>(map: &'a Content, key: &str) -> Result<&'a Content, String> {
    match map {
        Content::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing `{key}`")),
        _ => Err(format!("expected an object around `{key}`")),
    }
}

fn txn(content: &Content) -> Result<TxnId, String> {
    content
        .as_str()
        .and_then(|s| s.strip_prefix('T'))
        .and_then(|n| n.parse::<u32>().ok())
        .map(TxnId::new)
        .ok_or_else(|| "bad transaction id in witness".to_owned())
}

/// Parses a `duop check --criterion du --format json` line.
pub fn parse_line(line: &str) -> Result<Parsed, String> {
    let root: Content = serde_json::from_str(line).map_err(|e| format!("unparsable reply: {e}"))?;
    if get(&root, "criterion")?.as_str() != Some("du-opacity") {
        return Err("reply is not a du-opacity verdict".to_owned());
    }
    let verdict = get(&root, "verdict")?;
    match get(verdict, "status")?.as_str() {
        Some("satisfied") => {
            let w = get(verdict, "witness")?;
            let order = match get(w, "order")? {
                Content::Seq(items) => items.iter().map(txn).collect::<Result<Vec<_>, _>>()?,
                _ => return Err("witness order is not an array".to_owned()),
            };
            let mut choices = BTreeMap::new();
            match get(w, "commit_choices")? {
                Content::Map(entries) => {
                    for (k, v) in entries {
                        let id = txn(&Content::Str(k.clone()))?;
                        let Content::Bool(b) = v else {
                            return Err("commit choice is not a boolean".to_owned());
                        };
                        choices.insert(id, *b);
                    }
                }
                _ => return Err("commit_choices is not an object".to_owned()),
            }
            Ok(Parsed::Satisfied(Witness::new(order, choices)))
        }
        Some("violated") => {
            let violation = get(verdict, "violation")?;
            let cert = match get(violation, "certificate") {
                Ok(c) => Some(Box::new(
                    Certificate::from_content(c)
                        .map_err(|e| format!("bad certificate: {}", e.0))?,
                )),
                Err(_) => None,
            };
            Ok(Parsed::Violated(cert))
        }
        Some(other) => Err(format!("undecided verdict (status {other})")),
        None => Err("status is not a string".to_owned()),
    }
}

/// Whether a verdict line (as the in-process path renders it) reports
/// `satisfied`.
pub fn satisfied_line(line: &str) -> bool {
    line.contains("\"verdict\":{\"status\":\"satisfied\"")
}

/// Parses a reply line and validates it against `h` on its own terms.
pub fn validate_line(h: &History, line: &str) -> Result<Status, String> {
    match parse_line(line)? {
        Parsed::Satisfied(w) => check_witness(h, &w, CriterionKind::DuOpacity)
            .map(|()| Status::Satisfied)
            .map_err(|e| format!("witness rejected by check_witness: {e}")),
        Parsed::Violated(Some(cert)) => check_certificate(h, &cert)
            .map(|()| Status::Violated)
            .map_err(|e| format!("certificate rejected by check_certificate: {e}")),
        Parsed::Violated(None) => Ok(Status::Violated),
    }
}

/// Checks a reply against the in-process verdict line for the same
/// trace: byte-identical, and valid on its own.
pub fn check_reply(seed: u64, trace: &Trace, expected: &str, got: &str) -> Result<Status, String> {
    let status = validate_line(&trace.history, got).map_err(|e| fail(seed, &trace.name(), e))?;
    if got != expected {
        return Err(fail(
            seed,
            &trace.name(),
            format!("reply differs from the in-process verdict line\n  expected: {expected}\n  got:      {got}"),
        ));
    }
    Ok(status)
}

/// Splits a multi-line reply into exactly one line per trace.
pub fn reply_lines<'a>(
    seed: u64,
    traces: &[&Trace],
    stdout: &'a str,
) -> Result<Vec<&'a str>, String> {
    let lines: Vec<&str> = stdout.lines().collect();
    if lines.len() != traces.len() {
        let at = traces
            .get(lines.len().min(traces.len().saturating_sub(1)))
            .map_or_else(|| "-".to_owned(), |t| t.name());
        return Err(fail(
            seed,
            &at,
            format!(
                "expected {} verdict lines, got {} (truncated or padded reply)",
                traces.len(),
                lines.len()
            ),
        ));
    }
    Ok(lines)
}

/// FNV-1a over a status string: the digest pinned next to it.
pub fn digest(statuses: &str) -> u64 {
    statuses.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The pinned `(digest, statuses)` of `corpus` for `seed`, if pinned.
pub fn pinned(seed: u64, corpus: &str) -> Option<(u64, &'static str)> {
    if seed != DEFAULT_SEED {
        return None;
    }
    PINNED.lines().find_map(|l| {
        let mut parts = l.split_whitespace();
        (parts.next() == Some(corpus)).then(|| {
            let d = u64::from_str_radix(parts.next().unwrap_or(""), 16).unwrap_or(0);
            (d, parts.next().unwrap_or(""))
        })
    })
}

/// Compares a corpus's statuses with the pinned ones (default seed only).
pub fn check_pinned(
    seed: u64,
    corpus: &str,
    traces: &[&Trace],
    statuses: &str,
) -> Result<(), String> {
    let Some((want_digest, want)) = pinned(seed, corpus) else {
        return Ok(());
    };
    if digest(want) != want_digest {
        return Err(format!(
            "output gate: pinned {corpus} statuses do not match their digest"
        ));
    }
    if want.len() != statuses.len() {
        return Err(format!(
            "output gate: seed {seed}: {} {corpus} statuses, {} pinned",
            statuses.len(),
            want.len()
        ));
    }
    if let Some(i) = want.bytes().zip(statuses.bytes()).position(|(a, b)| a != b) {
        return Err(fail(
            seed,
            &traces[i].name(),
            format!(
                "status {} differs from the pinned {}",
                &statuses[i..=i],
                &want[i..=i]
            ),
        ));
    }
    Ok(())
}

/// Checks each history's status against the brute-force reference.
pub fn check_reference(seed: u64, traces: &[&Trace], statuses: &str) -> Result<(), String> {
    for (t, s) in traces.iter().zip(statuses.chars()) {
        let want = match check_by_enumeration(&t.history, CriterionKind::DuOpacity) {
            Verdict::Satisfied(_) => 'S',
            Verdict::Violated(_) => 'V',
            Verdict::Unknown { .. } => '?',
        };
        if want != s {
            return Err(fail(
                seed,
                &t.name(),
                format!("status {s} but the reference checker says {want}"),
            ));
        }
    }
    Ok(())
}
