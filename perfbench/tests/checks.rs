//! The benchmark's own tests, at reduced size: the result schema, and
//! every output check tripping on an injected defect.
//!
//! `cargo test --manifest-path perfbench/Cargo.toml` runs them;
//! `--features prof-timing` adds the traced-run tests.

use std::collections::HashMap;

use datagrid_core::prelude::{FetchOptions, RecoveryOptions};
use datagrid_perfbench::bench::{self, Options, Report};
use datagrid_perfbench::checks::{self, REFERENCE_4096};
use datagrid_perfbench::probe::Tracer;
use datagrid_perfbench::run::{self, JobRecord, Outcome};
use datagrid_perfbench::workload::{Inputs, Workload, BLACKOUT_PERIOD, DEFAULT_SEED, WORKLOADS};
use datagrid_simnet::prelude::*;
use datagrid_testbed::gridscale::{build_cell, GridScaleConfig};

const END_TO_END: [(&str, &str); 8] = [
    ("replay_wall_s", "s"),
    ("fetches_per_wall_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_makespan_s", "s"),
    ("sim_fetch_p50_s", "s"),
    ("sim_fetch_p99_s", "s"),
    ("completed_fraction", "ratio"),
];

fn reduced(workload: Workload, seed: u64) -> Options {
    Options {
        workload,
        shape: workload.shape().reduced(),
        seed,
        seconds: 0.0,
        traced: None,
        spans_out: None,
    }
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

fn digest_note(report: &Report) -> u64 {
    let word = report
        .notes
        .iter()
        .flat_map(|n| n.split_whitespace())
        .find_map(|w| w.strip_prefix("outcome-digest="))
        .expect("untraced run notes its outcome digest");
    u64::from_str_radix(word, 16).expect("hex digest")
}

/// A reduced-size replay of `workload` at `seed`: its records and sizes.
fn records(workload: Workload, seed: u64) -> (Vec<JobRecord>, HashMap<String, u64>) {
    let mut tracer = Tracer::new(false);
    let mut prep = run::prepare(&workload.shape().reduced(), seed, &mut tracer).expect("set-up");
    let timed = run::drive(&mut prep, workload.driver(), &mut tracer).expect("timed phase");
    (timed.records, prep.sizes)
}

#[test]
fn reduced_runs_pass_every_check_and_print_the_schema() {
    for workload in WORKLOADS {
        let report = bench::run(&reduced(workload, DEFAULT_SEED));
        assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
        assert_eq!(report.failed, 0);
        assert!(report.attempted >= 1);
        let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(got, END_TO_END, "{}", workload.name());
        assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        let json = report.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(json.ends_with("}}"), "{json}");
        for (name, unit) in END_TO_END {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": "))
                    && json.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} missing from {json}"
            );
        }
    }
}

#[test]
fn a_failed_check_reports_no_numbers() {
    let report = Report {
        correct: false,
        attempted: 3,
        failed: 3,
        metrics: Vec::new(),
        notes: vec!["check failed: x".into()],
    };
    assert_eq!(
        report.json(),
        "{\"correct\": false, \"attempted\": 3, \"failed\": 3, \"metrics\": {}}"
    );
}

#[test]
fn simulated_numbers_repeat_at_one_seed_and_move_with_it() {
    let a = bench::run(&reduced(Workload::LonghaulBlocking, 7));
    let b = bench::run(&reduced(Workload::LonghaulBlocking, 7));
    let c = bench::run(&reduced(Workload::LonghaulBlocking, 8));
    assert!(a.correct && b.correct && c.correct);
    for name in [
        "sim_makespan_s",
        "sim_fetch_p50_s",
        "sim_fetch_p99_s",
        "completed_fraction",
    ] {
        assert_eq!(
            value(&a, name).to_bits(),
            value(&b, name).to_bits(),
            "{name}"
        );
    }
    assert_eq!(digest_note(&a), digest_note(&b));
    assert_ne!(digest_note(&a), digest_note(&c));
}

#[test]
fn staged_setup_is_the_gridscale_cell() {
    let (ours, _) = records(Workload::Contended, DEFAULT_SEED);
    let clients = Workload::Contended.shape().reduced().clients;
    let (mut grid, workload) = build_cell(DEFAULT_SEED, clients, &GridScaleConfig::default());
    let jobs = workload.jobs(&grid);
    let report = grid
        .replay_concurrent(&jobs, FetchOptions::default(), &RecoveryOptions::default())
        .expect("replay");
    assert_eq!(ours.len(), report.outcomes.len());
    for (r, o) in ours.iter().zip(&report.outcomes) {
        assert_eq!(r.latency_s.to_bits(), o.latency().as_secs_f64().to_bits());
        assert_eq!(r.lfn, o.lfn);
    }
}

#[test]
fn dropped_outcome_trips_the_terminal_check() {
    let (mut recs, sizes) = records(Workload::LonghaulReplay, DEFAULT_SEED);
    let n = recs.len();
    checks::check_jobs(n, &recs, &sizes).expect("clean run passes");
    recs.pop();
    let f = checks::check_jobs(n, &recs, &sizes).expect_err("dropped outcome");
    assert_eq!(f.jobs, 1);
    assert!(
        f.message.contains("reached a terminal state"),
        "{}",
        f.message
    );
}

#[test]
fn short_byte_counts_trip_the_delivery_check() {
    for workload in [Workload::LonghaulReplay, Workload::LonghaulBlocking] {
        let (recs, sizes) = records(workload, DEFAULT_SEED);
        let n = recs.len();
        checks::check_jobs(n, &recs, &sizes).expect("clean run passes");
        let i = recs
            .iter()
            .position(|r| {
                matches!(
                    r.outcome,
                    Outcome::Completed {
                        delivered: Some(_),
                        ..
                    }
                )
            })
            .expect("a fetch reports its delivered bytes");
        let size = sizes[&recs[i].lfn];

        let mut short = recs.clone();
        if let Outcome::Completed { delivered, .. } = &mut short[i].outcome {
            *delivered = Some(size - 1);
        }
        let f = checks::check_jobs(n, &short, &sizes).expect_err("short delivery");
        assert_eq!(f.jobs, 1);
        assert!(f.message.contains("delivered"), "{}", f.message);

        let mut unmoved = recs.clone();
        unmoved[i].payload_moved = size - 1;
        let f = checks::check_jobs(n, &unmoved, &sizes).expect_err("short payload");
        assert!(f.message.contains("short of"), "{}", f.message);

        let mut renamed = recs.clone();
        renamed[i].lfn = "dataset/missing".into();
        assert!(checks::check_jobs(n, &renamed, &sizes).is_err());
    }
}

#[test]
fn failed_fetches_are_valid_terminal_states() {
    let (mut recs, sizes) = records(Workload::LonghaulReplay, DEFAULT_SEED);
    recs[0].outcome = Outcome::Failed;
    recs[0].payload_moved = 0;
    checks::check_jobs(recs.len(), &recs, &sizes).expect("failed fetch is terminal");
}

#[test]
fn perturbed_allocation_trips_the_certificate_check() {
    let mut topo = Topology::new();
    let a = topo.add_node("a");
    let b = topo.add_node("b");
    let hub = topo.add_node("hub");
    let spec = LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(1));
    topo.add_duplex_link(a, hub, spec);
    topo.add_duplex_link(hub, b, spec);
    let mut sim = NetSim::new(topo, 1);
    let ids: Vec<FlowId> = (0..2)
        .map(|i| sim.start_flow(FlowSpec::new(a, b, 50_000_000 + i * 1_000)))
        .collect();
    sim.run_until(SimTime::from_nanos(50_000_001));
    checks::check_allocation(&sim).expect("solver allocation certifies");
    let rate = sim.flow_rate(ids[0]).expect("live flow").as_bps();
    assert!(sim.perturb_rate_for_validation(ids[0], rate * 1e-3));
    let f = checks::check_allocation(&sim).expect_err("perturbed rate");
    assert!(f.message.contains("verify_allocation"), "{}", f.message);
}

#[test]
fn outcome_digest_sees_winner_and_latency() {
    let (recs, _) = records(Workload::Contended, DEFAULT_SEED);
    let base = checks::outcome_digest(&recs);
    checks::check_digests("same", base, checks::outcome_digest(&recs)).expect("equal");

    let mut slower = recs.clone();
    slower[3].latency_s = f64::from_bits(slower[3].latency_s.to_bits() + 1);
    let mut moved = recs.clone();
    moved[3].outcome = match &moved[3].outcome {
        Outcome::Completed { delivered, .. } => Outcome::Completed {
            winner: "elsewhere".into(),
            delivered: *delivered,
        },
        Outcome::Failed => Outcome::Failed,
    };
    let mut dropped = recs.clone();
    dropped.pop();
    for (what, defect) in [("latency", slower), ("winner", moved), ("dropped", dropped)] {
        let f = checks::check_digests(what, base, checks::outcome_digest(&defect)).expect_err(what);
        assert!(f.message.contains(what), "{}", f.message);
    }
}

fn completed_records(n: usize) -> Vec<JobRecord> {
    (0..n)
        .map(|_| JobRecord {
            lfn: "dataset/file-0000".into(),
            outcome: Outcome::Completed {
                winner: "alpha1".into(),
                delivered: Some(1),
            },
            latency_s: 1.0,
            payload_moved: 1,
            lag_s: 0.0,
        })
        .collect()
}

#[test]
fn reference_check_pins_the_4096_cell() {
    let w = Workload::Contended;
    let shape = w.shape();
    let makespan: f64 = REFERENCE_4096.0.parse().expect("number");
    let recs = completed_records(REFERENCE_4096.1);
    checks::check_reference(w, &shape, DEFAULT_SEED, makespan, &recs).expect("reference");

    let off = checks::check_reference(w, &shape, DEFAULT_SEED, makespan + 1e-5, &recs);
    assert!(off.is_err(), "makespan drift must trip");
    let mut one_failed = recs.clone();
    one_failed[0].outcome = Outcome::Failed;
    assert!(checks::check_reference(w, &shape, DEFAULT_SEED, makespan, &one_failed).is_err());
    let short = completed_records(REFERENCE_4096.1 - 1);
    assert!(checks::check_reference(w, &shape, DEFAULT_SEED, makespan, &short).is_err());

    // No reference at other seeds, shapes or workloads.
    checks::check_reference(w, &shape, 1, 0.0, &short).expect("other seed");
    checks::check_reference(w, &shape.reduced(), DEFAULT_SEED, 0.0, &short).expect("reduced");
    checks::check_reference(Workload::LonghaulReplay, &shape, DEFAULT_SEED, 0.0, &short)
        .expect("other workload");
}

#[test]
fn longhaul_inputs_are_shared_and_drawn_from_the_seed() {
    checks::check_longhaul_inputs(DEFAULT_SEED).expect("shared inputs");
    let shape = Workload::LonghaulReplay.shape();
    let a = Inputs::generate(&shape, DEFAULT_SEED);
    assert_eq!(a, Inputs::generate(&shape, DEFAULT_SEED));
    assert_eq!(a.workload.trace.len(), 18_000);

    // One blackout per period, rotating through all twelve hosts.
    assert!(a.blackouts.len() > 300, "{} blackouts", a.blackouts.len());
    for w in a.blackouts.windows(2) {
        assert_eq!(w[1].at - w[0].at, BLACKOUT_PERIOD);
    }
    let mut first_round: Vec<&str> = a.blackouts[..12].iter().map(|b| b.host).collect();
    first_round.sort_unstable();
    first_round.dedup();
    assert_eq!(first_round.len(), 12);
    assert_eq!(a.blackouts[0].host, a.blackouts[12].host);

    let other = Inputs::generate(&shape, DEFAULT_SEED + 1);
    assert_ne!(a.digest(), other.digest());
    assert!(checks::check_inputs(&a, &other).is_err());

    let mut fewer = a.clone();
    fewer.blackouts.pop();
    assert!(checks::check_inputs(&a, &fewer).is_err(), "plan change");
    let mut shifted = a.clone();
    let mut reqs = shifted.workload.trace.requests().to_vec();
    reqs[0].client = reqs[1].client.clone() + "x";
    shifted.workload.trace = datagrid_testbed::workload::RequestTrace::from_requests(reqs);
    assert!(checks::check_inputs(&a, &shifted).is_err(), "trace change");
}

#[cfg(not(feature = "prof-timing"))]
#[test]
fn traced_runs_refuse_a_build_without_timing() {
    let report = bench::run(&Options {
        traced: Some((1.0, 0)),
        ..reduced(Workload::Contended, DEFAULT_SEED)
    });
    assert!(!report.correct);
    assert!(report.metrics.is_empty());
}

#[cfg(feature = "prof-timing")]
#[test]
fn traced_runs_report_layers_and_check_the_digest() {
    use datagrid_perfbench::workload::Driver;

    for workload in WORKLOADS {
        let untraced = bench::run(&reduced(workload, DEFAULT_SEED));
        let wall = value(&untraced, "replay_wall_s");
        let digest = digest_note(&untraced);
        let spans = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("spans-{}.jsonl", workload.name()));
        let traced = bench::run(&Options {
            traced: Some((wall, digest)),
            spans_out: Some(spans.clone()),
            ..reduced(workload, DEFAULT_SEED)
        });
        assert!(traced.correct, "{}: {:?}", workload.name(), traced.notes);
        let written = std::fs::read_to_string(&spans).expect("spans file");
        let expected = match workload.driver() {
            Driver::Replay => "\"name\": \"core.replay\"",
            Driver::Blocking => {
                "\"name\": \"core.fetch_with_recovery\", \"parent\": 6, \"request\": 0,"
            }
        };
        assert!(written.contains(expected), "{expected} not in {written}");
        for name in [
            "simnet.events_processed",
            "core.solves_per_decision",
            "core.replay_attributed_fraction",
            "obs.telemetry_overhead_s",
            "gridftp.useful_byte_ratio",
        ] {
            value(&traced, name);
        }
        let fraction = value(&traced, "core.replay_attributed_fraction");
        assert!((0.0..=1.0).contains(&fraction), "{fraction}");

        let wrong = bench::run(&Options {
            traced: Some((wall, digest ^ 1)),
            ..reduced(workload, DEFAULT_SEED)
        });
        assert!(
            !wrong.correct,
            "{}: digest mismatch must trip",
            workload.name()
        );
    }
}

/// The full reference cell: about 10 s in a release build. Run with
/// `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored`.
#[test]
#[ignore]
fn contended_reference_seed_reproduces_bench_profile() {
    let report = bench::run(&Options {
        workload: Workload::Contended,
        shape: Workload::Contended.shape(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        traced: None,
        spans_out: None,
    });
    assert!(report.correct, "{:?}", report.notes);
}
