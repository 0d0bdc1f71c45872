//! Fixture corpus for the workspace lint table: one known-bad file per
//! rule family plus known-good trap files in `tests/lint_fixtures/`.
//! Each is checked by `clippy-driver` under the root `[workspace.lints]`
//! table and `clippy.toml`, as `cargo clippy` checks every package. The
//! bad files pin which lint fires and on which line; the good files pin
//! what must stay silent. Needs the toolchain's `clippy` component.

#![allow(clippy::expect_used, reason = "test helpers; outside library scope")]

use std::fs;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// One `--warn=`/`--deny=` flag per `[workspace.lints]` entry, as cargo
/// passes them to a package with `[lints] workspace = true`.
fn lint_flags() -> Vec<String> {
    let manifest = fs::read_to_string(Path::new(ROOT).join("Cargo.toml")).expect("root manifest");
    let mut tool = None;
    let mut flags = Vec::new();
    for line in manifest
        .lines()
        .map(str::trim)
        .filter(|l| !l.starts_with('#'))
    {
        if line.starts_with('[') {
            tool = match line {
                "[workspace.lints.rust]" => Some(""),
                "[workspace.lints.clippy]" => Some("clippy::"),
                _ => None,
            };
        } else if let (Some(tool), Some((name, level))) = (tool, line.split_once('=')) {
            let level = level.trim().trim_matches('"');
            flags.push(format!("--{level}={tool}{}", name.trim()));
        }
    }
    assert!(flags.len() > 10, "no [workspace.lints] table: {flags:?}");
    flags
}

/// The `(line, lint)` pairs clippy reports on `source`, sorted.
fn lints(name: &str, source: &str) -> Vec<(usize, String)> {
    let rmeta = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.rmeta"));
    let mut child = Command::new("clippy-driver")
        .args(["-", "--crate-name", name, "--edition", "2021", "--test"])
        .args(["--emit=metadata", "--error-format=json", "-o"])
        .arg(rmeta)
        .args(lint_flags())
        .env("CLIPPY_CONF_DIR", ROOT)
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("clippy-driver starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(source.as_bytes()).expect("source written");
    drop(stdin);
    let output = child.wait_with_output().expect("clippy-driver finishes");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    // One JSON diagnostic per line; the first span is the primary one.
    let mut found: Vec<(usize, String)> = stderr
        .lines()
        .filter_map(|diag| {
            let (lint, rest) = diag.split_once(r#""code":{"code":""#)?.1.split_once('"')?;
            let line = rest.split_once(r#""line_start":"#)?.1.split_once(',')?.0;
            Some((
                line.parse().ok()?,
                lint.trim_start_matches("clippy::").to_string(),
            ))
        })
        .collect();
    found.sort();
    found
}

fn fixture(name: &str) -> String {
    let path = Path::new(ROOT)
        .join("tests/lint_fixtures")
        .join(format!("{name}.rs"));
    fs::read_to_string(path).expect("fixture exists")
}

fn assert_lints(found: Vec<(usize, String)>, want: &[(usize, &str)]) {
    let found: Vec<(usize, &str)> = found.iter().map(|(l, n)| (*l, n.as_str())).collect();
    assert_eq!(found, want);
}

#[test]
fn legacy_fixture_covers_the_v1_rule_families() {
    assert_lints(
        lints("legacy", &fixture("legacy")),
        &[
            (6, "unwrap_used"),
            (7, "expect_used"),
            (9, "panic"),
            (11, "print_stdout"),
            (12, "disallowed_methods"),
            (17, "print_stderr"),
            (18, "disallowed_methods"),
            (19, "dbg_macro"),
            (20, "todo"),
            (21, "unimplemented"),
            (22, "unreachable"),
        ],
    );
}

#[test]
fn determinism_fixture_flags_hash_containers_feeding_exports() {
    // `lookup` reads by key and is not flagged.
    assert_lints(
        lints("determinism", &fixture("determinism")),
        &[
            (7, "iter_over_hash_type"),
            (10, "disallowed_methods"),
            (11, "disallowed_methods"),
            (12, "disallowed_methods"),
        ],
    );
}

#[test]
fn float_eq_fixture() {
    // `rate == 0.0` is exact and exempt; the integer compare is not a float.
    assert_lints(
        lints("float_eq", &fixture("float_eq")),
        &[(7, "float_cmp"), (8, "float_cmp")],
    );
}

#[test]
fn cast_narrowing_fixture() {
    // The widening cast is silent; the float cast truncates and is flagged.
    assert_lints(
        lints("cast_narrowing", &fixture("cast_narrowing")),
        &[
            (4, "cast_possible_truncation"),
            (5, "cast_possible_truncation"),
            (14, "cast_possible_truncation"),
        ],
    );
}

#[test]
fn wildcard_fixture_flags_watched_enums_only() {
    // Every enum is watched; the `_` over a `u32` is not flagged.
    assert_lints(
        lints("wildcard", &fixture("wildcard")),
        &[(12, "wildcard_enum_match_arm")],
    );
}

#[test]
fn clean_fixture_reports_nothing() {
    assert_lints(lints("clean", &fixture("clean")), &[]);
}

#[test]
fn allowed_fixture_reports_nothing_and_allows_are_not_stale() {
    let source = fixture("allowed");
    assert_lints(lints("allowed", &source), &[]);
    // Once the violation goes, its expectation is reported as stale.
    let fixed = source.replace(
        r#"x.expect("slot map invariant: live handle")"#,
        "x.unwrap_or(0)",
    );
    assert_ne!(fixed, source);
    assert_lints(
        lints("allowed_stale", &fixed),
        &[(4, "unfulfilled_lint_expectations")],
    );
}
