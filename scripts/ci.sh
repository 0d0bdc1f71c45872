#!/usr/bin/env bash
# The whole CI gate, runnable locally. Operates on the workspace's default
# members plus an explicit `crates/bench` build (bench is excluded from the
# default members so plain `cargo test` stays fast); clippy covers the
# whole workspace.
#
# Each step runs through `step`, which echoes its wall-clock time so slow
# stages are visible at a glance both locally and in the Actions log.
# Run a single step with e.g. `scripts/ci.sh test`; the Actions `analysis`
# job runs `scripts/ci.sh clippy validate`.
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
  local name="$1"
  shift
  echo "==> ${name}: $*"
  local t0
  t0=$(date +%s)
  "$@"
  echo "==> ${name} OK ($(($(date +%s) - t0)) s)"
}

step_build() { step build cargo build --release; }
step_bench_build() { step bench-build cargo build -p datagrid-bench; }
step_test() { step test cargo test -q; }
step_fmt() { step fmt cargo fmt --check; }
# The one static-analysis gate: the `[workspace.lints]` table in the root
# Cargo.toml plus clippy.toml, over every package (bench included), every
# target and every feature (`prof-timing`, `validate`). Unfulfilled
# `#[expect]` suppressions fail it too, so stale ones cannot pile up.
step_clippy() { step clippy cargo clippy --workspace --all-targets --all-features -- -D warnings; }
# Max-min certificate enforcement in release mode: the `validate` feature
# keeps the solver's per-settle certificate check on where
# debug_assertions would normally turn it off, then re-runs the simnet
# suite (including the certificate property tests) against it.
step_validate() { step validate cargo test -q --release -p datagrid-simnet --features validate; }
# Smoke, not a perf gate: the scale benchmark must run and emit a report
# whose key throughput fields parse (scripts/bench.sh re-reads it with
# `scale --check`).
step_bench_smoke() { step bench-smoke scripts/bench.sh target/BENCH_simnet.json; }
# Continuous-telemetry smoke: the profile benchmark must emit a valid
# BENCH_profile.json that is byte-identical across same-seed runs, and
# the prof-timing build must stay green (scripts/profile_smoke.sh).
step_profile_smoke() { step profile-smoke scripts/profile_smoke.sh target/BENCH_profile.json; }
# Grid-level scale smoke: the multi-client replay at CI-sized client
# counts, its report re-read by `grid_scale --check`, then the workload
# determinism property test (scripts/grid_smoke.sh).
step_grid_smoke() { step grid-smoke scripts/grid_smoke.sh target/BENCH_grid.json; }
# Observability smoke: table1 and table1_fault with dumps on; every
# export must be non-empty and every JSONL record must parse
# (scripts/smoke_obs.sh).
step_obs_smoke() { step obs-smoke scripts/smoke_obs.sh target/smoke-obs; }
# Differential fuzz smoke: a fixed-seed corpus of random scenarios must
# agree across paired engine configurations, and the harness must catch
# its own sabotage (scripts/fuzz_smoke.sh).
step_fuzz_smoke() { step fuzz-smoke scripts/fuzz_smoke.sh; }

if [ $# -gt 0 ]; then
  for sel in "$@"; do
    "step_${sel//-/_}"
  done
else
  step_build
  step_bench_build
  step_test
  step_fmt
  step_clippy
  step_bench_smoke
  step_grid_smoke
  step_obs_smoke
  step_profile_smoke
  step_fuzz_smoke
fi

echo "==> ci OK"
