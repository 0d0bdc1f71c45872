//! The deterministic perf budget: `profile --check-budget`.
//!
//! `BENCH_profile.json` is a pure function of the seed in default builds,
//! so its *work counters* — solver passes and engine events per decision,
//! batching savings, steady-state dispatch allocations — are stable enough
//! to gate CI on directly, with no timing noise and no statistical
//! machinery. The budget file (`ci/profile_budget.json`) states
//! ceilings; this module re-reads the emitted report and fails loudly
//! when a ceiling is crossed, which is exactly what a hot-path regression
//! looks like in a deterministic simulator: the counters move, not the
//! milliseconds.
//!
//! Both files are the repo's own flat hand-rendered JSON, so the parser
//! here is the same needle-scanning style as `profile --check` — not a
//! general JSON parser, and deliberately so (no new dependencies).
//!
//! Budget cells are matched to report cells by client count. A report
//! cell with no budget entry is reported but not gated (local sweeps run
//! larger cells than CI); a budget that gates *nothing* is an error, so
//! the gate cannot silently rot when client counts drift.

use std::fmt::Write as _;

/// One `"clients": N` object sliced out of a flat JSON array body.
#[derive(Debug, Clone, PartialEq)]
struct Chunk {
    clients: u64,
    body: String,
}

/// Extracts `"key": <number>` from a flat JSON fragment.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Splits the `"cells": [...]` array into per-cell fragments, keyed by
/// their `"clients"` field. Cell objects in our reports are `{...}`
/// blocks with no nested objects except the `phases` array, so scanning
/// for balanced braces is sufficient.
#[expect(
    clippy::cast_possible_truncation,
    reason = "JSON numbers parse as f64; a client count is a small whole number"
)]
fn cells(json: &str) -> Result<Vec<Chunk>, String> {
    let start = json
        .find("\"cells\":")
        .ok_or_else(|| "missing \"cells\" array".to_string())?;
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cell_start = None;
    for (i, c) in json[start..].char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    cell_start = Some(start + i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = cell_start.take() {
                        let body = json[s..=start + i].to_string();
                        let clients = extract_number(&body, "clients")
                            .ok_or_else(|| "cell without \"clients\" field".to_string())?;
                        out.push(Chunk {
                            clients: clients as u64,
                            body,
                        });
                    }
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    if out.is_empty() {
        return Err("\"cells\" array is empty".to_string());
    }
    Ok(out)
}

/// Checks one report cell against one budget cell. Budget keys are
/// `max_<counter>` (ceiling, inclusive) or `min_<counter>` (floor,
/// inclusive) over the report cell's numeric fields.
fn check_cell(report: &Chunk, budget: &Chunk, failures: &mut Vec<String>) -> Vec<String> {
    let mut gated = Vec::new();
    // Walk the budget cell's keys; every max_*/min_* must resolve.
    let mut rest = budget.body.as_str();
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        let Some(end) = rest.find('"') else { break };
        let key = &rest[..end];
        rest = &rest[end + 1..];
        let (kind, counter) = if let Some(c) = key.strip_prefix("max_") {
            (Bound::Max, c)
        } else if let Some(c) = key.strip_prefix("min_") {
            (Bound::Min, c)
        } else {
            continue;
        };
        let Some(limit) = extract_number(&budget.body, key) else {
            failures.push(format!(
                "budget cell {}: \"{key}\" is not a number",
                budget.clients
            ));
            continue;
        };
        let Some(actual) = extract_number(&report.body, counter) else {
            failures.push(format!(
                "cell {}: report has no counter \"{counter}\" (budget key \"{key}\")",
                report.clients
            ));
            continue;
        };
        let ok = match kind {
            Bound::Max => actual <= limit,
            Bound::Min => actual >= limit,
        };
        let op = match kind {
            Bound::Max => "<=",
            Bound::Min => ">=",
        };
        if ok {
            gated.push(format!("{counter} = {actual} {op} {limit}"));
        } else {
            failures.push(format!(
                "cell {}: {counter} = {actual}, budget requires {op} {limit}",
                report.clients
            ));
        }
    }
    gated
}

#[derive(Clone, Copy)]
enum Bound {
    Max,
    Min,
}

/// Checks a `BENCH_profile.json` body against a budget body. Returns the
/// human-readable gate summary, or an error listing every violated bound.
///
/// # Errors
///
/// One message per violated bound / malformed field, joined by newlines;
/// also an error when the budget matched no report cell at all (a gate
/// that checks nothing must not pass).
pub fn check_budget(report_json: &str, budget_json: &str) -> Result<String, String> {
    if !budget_json.contains("\"name\": \"profile-budget\"") {
        return Err("budget file is not a profile budget (missing name)".to_string());
    }
    let report_cells = cells(report_json).map_err(|e| format!("report: {e}"))?;
    let budget_cells = cells(budget_json).map_err(|e| format!("budget: {e}"))?;

    let mut failures = Vec::new();
    let mut summary = String::new();
    let mut matched = 0usize;

    // Top-level bound: the engine's warmed event drain must not allocate.
    if let Some(limit) = extract_number(budget_json, "max_steady_dispatch_allocs") {
        match extract_number(report_json, "steady_dispatch_allocs") {
            Some(actual) if actual <= limit => {
                let _ = writeln!(summary, "steady_dispatch_allocs = {actual} <= {limit}");
                matched += 1;
            }
            Some(actual) => failures.push(format!(
                "steady_dispatch_allocs = {actual}, budget requires <= {limit}"
            )),
            None => failures.push(
                "report has no \"steady_dispatch_allocs\" (emitted by the profile binary's \
                 allocation probe)"
                    .to_string(),
            ),
        }
    }

    for rc in &report_cells {
        match budget_cells.iter().find(|bc| bc.clients == rc.clients) {
            Some(bc) => {
                matched += 1;
                let gated = check_cell(rc, bc, &mut failures);
                let _ = writeln!(
                    summary,
                    "cell {}: {}",
                    rc.clients,
                    if gated.is_empty() {
                        "no bounds".to_string()
                    } else {
                        gated.join(", ")
                    }
                );
            }
            None => {
                let _ = writeln!(summary, "cell {}: no budget entry (not gated)", rc.clients);
            }
        }
    }

    if matched == 0 {
        failures.push(format!(
            "budget gated nothing: no budget cell matches the report's client counts {:?}",
            report_cells.iter().map(|c| c.clients).collect::<Vec<_>>()
        ));
    }
    if failures.is_empty() {
        Ok(summary)
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(solves_per_decision: f64, solves_avoided: u64, allocs: u64) -> String {
        format!(
            "{{\n  \"name\": \"profile\",\n  \"steady_dispatch_allocs\": {allocs},\n  \
             \"cells\": [\n    {{\n      \"clients\": 16,\n      \"decisions\": 16,\n      \
             \"solves\": 480,\n      \"solves_per_decision\": {solves_per_decision:.6},\n      \
             \"solves_avoided\": {solves_avoided}\n    }}\n  ]\n}}\n"
        )
    }

    const BUDGET: &str = "{\n  \"name\": \"profile-budget\",\n  \
        \"max_steady_dispatch_allocs\": 0,\n  \"cells\": [\n    {\n      \
        \"clients\": 16,\n      \"max_solves_per_decision\": 40.0,\n      \
        \"min_solves_avoided\": 1\n    }\n  ]\n}\n";

    #[test]
    fn compliant_report_passes() {
        let summary = check_budget(&report(30.0, 12, 0), BUDGET).unwrap();
        assert!(
            summary.contains("solves_per_decision = 30 <= 40"),
            "{summary}"
        );
        assert!(
            summary.contains("steady_dispatch_allocs = 0 <= 0"),
            "{summary}"
        );
    }

    #[test]
    fn injected_solver_regression_fails() {
        // A hot-path regression shows up as more solver passes per
        // arrival; the gate must trip on exactly that counter.
        let err = check_budget(&report(55.0, 12, 0), BUDGET).unwrap_err();
        assert!(err.contains("solves_per_decision = 55"), "{err}");
        assert!(err.contains("<= 40"), "{err}");
    }

    #[test]
    fn lost_batching_fails_the_floor() {
        let err = check_budget(&report(30.0, 0, 0), BUDGET).unwrap_err();
        assert!(err.contains("solves_avoided = 0"), "{err}");
        assert!(err.contains(">= 1"), "{err}");
    }

    #[test]
    fn stale_queue_entries_fail_the_events_ceiling() {
        // Superseded completion entries popped as events inflate the
        // engine's events per decision; the ceiling must catch them.
        let with_events = |per_decision: f64| {
            report(30.0, 12, 0).replace(
                "      \"solves\": 480,\n",
                &format!(
                    "      \"solves\": 480,\n      \"events_per_decision\": {per_decision:.6},\n"
                ),
            )
        };
        let budget = BUDGET.replace(
            "      \"min_solves_avoided\"",
            "      \"max_events_per_decision\": 20.5,\n      \"min_solves_avoided\"",
        );
        let summary = check_budget(&with_events(15.78), &budget).unwrap();
        assert!(
            summary.contains("events_per_decision = 15.78 <= 20.5"),
            "{summary}"
        );
        let err = check_budget(&with_events(224.83), &budget).unwrap_err();
        assert!(err.contains("events_per_decision = 224.83"), "{err}");
        assert!(err.contains("<= 20.5"), "{err}");
        // A report that stops emitting the counter fails rather than
        // passing ungated.
        let err = check_budget(&report(30.0, 12, 0), &budget).unwrap_err();
        assert!(err.contains("no counter \"events_per_decision\""), "{err}");
    }

    #[test]
    fn dispatch_allocation_fails() {
        let err = check_budget(&report(30.0, 12, 7), BUDGET).unwrap_err();
        assert!(err.contains("steady_dispatch_allocs = 7"), "{err}");
    }

    #[test]
    fn missing_alloc_probe_fails() {
        let no_probe = "{\n  \"name\": \"profile\",\n  \"cells\": [\n    {\n      \
            \"clients\": 16,\n      \"solves_per_decision\": 1.0,\n      \
            \"solves_avoided\": 5\n    }\n  ]\n}\n";
        let err = check_budget(no_probe, BUDGET).unwrap_err();
        assert!(err.contains("steady_dispatch_allocs"), "{err}");
    }

    #[test]
    fn unmatched_budget_gates_nothing_and_fails() {
        let other = report(1.0, 5, 0).replace("\"clients\": 16", "\"clients\": 64");
        let budget_no_alloc = BUDGET.replace("  \"max_steady_dispatch_allocs\": 0,\n", "");
        let err = check_budget(&other, &budget_no_alloc).unwrap_err();
        assert!(err.contains("budget gated nothing"), "{err}");
    }

    #[test]
    fn unknown_report_counter_fails() {
        let budget = BUDGET.replace("max_solves_per_decision", "max_zorp");
        let err = check_budget(&report(1.0, 5, 0), &budget).unwrap_err();
        assert!(err.contains("no counter \"zorp\""), "{err}");
    }

    #[test]
    fn ungated_cells_are_reported() {
        let two = report(1.0, 5, 0).replace(
            "    }\n  ]",
            "    },\n    {\n      \"clients\": 4096,\n      \"solves_per_decision\": 9.0\n    }\n  ]",
        );
        let summary = check_budget(&two, BUDGET).unwrap();
        assert!(summary.contains("cell 4096: no budget entry"), "{summary}");
    }

    #[test]
    fn wrong_budget_name_is_rejected() {
        let err = check_budget(&report(1.0, 5, 0), "{\"name\": \"grid\"}").unwrap_err();
        assert!(err.contains("not a profile budget"), "{err}");
    }
}
