//! `fuzz` — **seeded differential fuzzing of the solver and replay
//! engines**.
//!
//! Draws a corpus of random scenarios (topology, fault schedule,
//! multi-client workload — all from one corpus seed) and runs each
//! through the paired configurations of [`datagrid_testbed::fuzz`]:
//! batching on/off and validation on/off must be byte-identical on every
//! public surface; incremental vs full solves and static vs
//! contention-aware selection must agree on the completion set. On
//! divergence the scenario shrinks to a minimal reproducer and prints a
//! replay token.
//!
//! ```text
//! fuzz [--count N] [--seed S] [--replay CODE] [--deny-divergence] [--break-oracle]
//! ```
//!
//! * `--count N` — corpus size (default 200).
//! * `--seed S` — corpus seed (default [`DEFAULT_SEED`]).
//! * `--replay CODE` — skip the corpus and re-run one scenario from its
//!   packed code (as printed in a divergence report), byte-identically.
//! * `--deny-divergence` — exit non-zero if any scenario diverges (the
//!   CI smoke gate).
//! * `--break-oracle` — sabotage the baseline surfaces so the harness
//!   MUST report, shrink and replay a divergence; exits non-zero if it
//!   stays silent. Self-test of the tester.
//!
//! Scenarios fan out with [`datagrid_testbed::par::par_map`]
//! (`DATAGRID_JOBS` controls the worker count); output is byte-identical
//! for any value.

#![allow(
    clippy::print_stderr,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::DEFAULT_SEED;
use datagrid_testbed::fuzz::{check_scenario, render_divergence_report, shrink, FuzzSpec};
use datagrid_testbed::par::par_map;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_code(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let deny = args.iter().any(|a| a == "--deny-divergence");
    let break_oracle = args.iter().any(|a| a == "--break-oracle");
    let count: u64 = arg_value(&args, "--count")
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);

    if let Some(code_arg) = arg_value(&args, "--replay") {
        let Some(code) = parse_code(&code_arg) else {
            eprintln!("fuzz: --replay {code_arg}: not a number");
            std::process::exit(2);
        };
        let Some(spec) = FuzzSpec::from_code(code) else {
            eprintln!("fuzz: --replay 0x{code:016x}: not a valid scenario code");
            std::process::exit(2);
        };
        println!("replaying {}", spec.describe());
        let divergences = check_scenario(&spec, break_oracle);
        if divergences.is_empty() {
            println!("all pairs agree");
            return;
        }
        for d in &divergences {
            println!("  {d}");
        }
        std::process::exit(1);
    }

    println!("=== fuzz: differential corpus (seed {seed}, {count} scenarios) ===");
    if break_oracle {
        println!("oracle sabotage on: the harness must catch its own corruption\n");
    }

    let indices: Vec<u64> = (0..count).collect();
    let results: Vec<(FuzzSpec, Vec<datagrid_testbed::fuzz::Divergence>)> =
        par_map(indices, |index| {
            let spec = FuzzSpec::from_corpus(seed, index);
            let divergences = check_scenario(&spec, break_oracle);
            (spec, divergences)
        });

    let mut diverged = 0usize;
    for (spec, divergences) in &results {
        if divergences.is_empty() {
            continue;
        }
        diverged += 1;
        let (shrunk, shrunk_divs) = shrink(spec, break_oracle);
        print!(
            "{}",
            render_divergence_report(spec, divergences, &shrunk, &shrunk_divs)
        );
        println!();
    }

    println!(
        "{} scenarios, {} diverged, {} agree",
        results.len(),
        diverged,
        results.len() - diverged
    );

    if break_oracle {
        if diverged == 0 {
            eprintln!("fuzz: --break-oracle sabotaged the baseline but no divergence was reported");
            std::process::exit(1);
        }
        println!("harness self-test passed: sabotage was detected and shrunk");
        return;
    }
    if diverged > 0 && deny {
        std::process::exit(1);
    }
}
