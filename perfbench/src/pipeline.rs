//! The in-process check path: the library calls `duop check --criterion
//! du --format json` makes for one trace, from trace bytes to the
//! verdict line.

use duop_core::snapshot::{CheckableCriterion, ResumableCheck};
use duop_core::{SearchConfig, SearchStats, Verdict};
use duop_history::{reader, History};

/// The search configuration `duop check` uses with its defaults: one
/// thread, every prefilter on, no deadline and no state budget, so a
/// verdict never depends on timing.
pub fn check_config() -> SearchConfig {
    SearchConfig {
        threads: Some(1),
        decompose: true,
        prelint: true,
        ladder: true,
        saturate: true,
        deadline: None,
        max_states: None,
        interruptible: true,
        ..SearchConfig::default()
    }
}

/// Decides du-opacity for `h` exactly as `duop check` does.
pub fn decide(h: &History) -> (Verdict, SearchStats) {
    ResumableCheck::new().check(h, CheckableCriterion::DuOpacity, &check_config())
}

/// Renders the `duop check --format json` line for a du-opacity verdict
/// (without the trailing newline).
pub fn verdict_line(verdict: &Verdict) -> String {
    let detail = serde_json::to_string(verdict).expect("verdicts serialize infallibly");
    format!("{{\"criterion\":\"du-opacity\",\"verdict\":{detail}}}")
}

/// The whole path for one trace: parse, decide, encode.
pub fn check_bytes(bytes: &[u8]) -> Result<(History, Verdict, String), String> {
    let h = reader::read_history(bytes).map_err(|e| e.to_string())?;
    let (verdict, _) = decide(&h);
    let line = verdict_line(&verdict);
    Ok((h, verdict, line))
}
