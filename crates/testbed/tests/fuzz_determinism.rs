//! The fuzz harness's own contract: everything it prints is a pure
//! function of the scenario code. Same seed — same generated world, same
//! divergence report, same shrunk reproducer; different seeds generate
//! different worlds.

#![allow(clippy::expect_used, reason = "test helpers; outside library scope")]

use datagrid_testbed::fuzz::{
    check_scenario, render_divergence_report, run_scenario, shrink, FuzzSpec, BASELINE,
};

/// A corpus draw with enough clients that `--break-oracle` sabotage
/// triggers (the sabotage fires at three or more clients).
fn sabotage_prone(seed: u64) -> FuzzSpec {
    (0..64)
        .map(|i| FuzzSpec::from_corpus(seed, i))
        .find(|s| s.clients >= 4 && s.faults)
        .expect("corpus contains a faulted scenario with >= 4 clients")
}

#[test]
fn same_seed_regenerates_the_same_world() {
    for index in [0, 7, 31] {
        let a = FuzzSpec::from_corpus(42, index);
        let b = FuzzSpec::from_corpus(42, index);
        assert_eq!(a, b);
        assert_eq!(a.describe(), b.describe());
    }
}

#[test]
fn different_seeds_generate_different_worlds() {
    let a = FuzzSpec::from_corpus(42, 0);
    let b = FuzzSpec::from_corpus(43, 0);
    // The packed dimensions may coincide, but the seeded world must not.
    assert_ne!(a.describe(), b.describe());
}

#[test]
fn replay_is_byte_identical() {
    let spec = FuzzSpec::from_corpus(7, 3);
    let first = run_scenario(&spec, &BASELINE);
    let second = run_scenario(&spec, &BASELINE);
    assert_eq!(first.completion_set, second.completion_set);
    assert_eq!(first.report, second.report);
    assert_eq!(first.metrics_text, second.metrics_text);
    assert_eq!(first.metrics_json, second.metrics_json);
    assert_eq!(first.events_jsonl, second.events_jsonl);
    assert_eq!(first.audit_text, second.audit_text);
    assert_eq!(first.audit_jsonl, second.audit_jsonl);
}

#[test]
fn replay_round_trips_through_the_packed_code() {
    let spec = FuzzSpec::from_corpus(7, 5);
    let code = spec.code();
    let decoded = FuzzSpec::from_code(code).expect("code decodes");
    assert_eq!(decoded, spec);
    assert_eq!(
        run_scenario(&spec, &BASELINE).completion_set,
        run_scenario(&decoded, &BASELINE).completion_set,
    );
}

#[test]
fn divergence_report_is_deterministic() {
    let spec = sabotage_prone(11);
    let divs_a = check_scenario(&spec, true);
    let divs_b = check_scenario(&spec, true);
    assert!(!divs_a.is_empty(), "sabotage must diverge");
    assert_eq!(divs_a, divs_b);

    let (shrunk_a, sd_a) = shrink(&spec, true);
    let (shrunk_b, sd_b) = shrink(&spec, true);
    assert_eq!(shrunk_a, shrunk_b);
    assert_eq!(
        render_divergence_report(&spec, &divs_a, &shrunk_a, &sd_a),
        render_divergence_report(&spec, &divs_b, &shrunk_b, &sd_b),
    );
}

#[test]
fn shrunk_reproducer_is_minimal_and_replayable() {
    let spec = sabotage_prone(13);
    let (shrunk, divs) = shrink(&spec, true);
    // The sabotage trigger is exactly `clients >= 3` with every other
    // dimension irrelevant, so a correct shrinker lands on the floor.
    assert_eq!(shrunk.clients, 3);
    assert_eq!(shrunk.files, 1);
    assert_eq!(shrunk.requests_per_client, 1);
    assert!(!shrunk.faults);
    assert!(!divs.is_empty());
    // Replaying from the printed code reproduces the divergence exactly.
    let replayed = FuzzSpec::from_code(shrunk.code()).expect("reproducer code decodes");
    assert_eq!(check_scenario(&replayed, true), divs);
    // ... and the divergence is the harness's fault, not the engines'.
    assert!(check_scenario(&replayed, false).is_empty());
}
