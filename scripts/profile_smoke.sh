#!/usr/bin/env bash
# Runs the continuous-telemetry smoke: the `profile` benchmark at reduced
# client counts plus the timeline determinism property test.
#
#   scripts/profile_smoke.sh [out.json]
#
# Builds the bench crate in release mode, runs the `profile` binary (grid
# replay with the health timeline and phase profiler attached), writes
# `BENCH_profile.json` (default: at the repo root), re-reads it with
# `profile --check` so a malformed report fails loudly, and gates the
# hot-path work counters against `ci/profile_budget.json` with
# `profile --check-budget` (solver passes per decision, batching savings,
# zero steady-state dispatch allocations — deterministic counters, not
# timings). Then re-runs the sweep to assert the default-build report is
# byte-identical (the determinism contract: no wall-clock data leaks into
# the default output), runs the timeline determinism property test, and
# the obs suite with `prof-timing` enabled, proving the timed build still
# compiles and its counts stay deterministic.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_profile.json}"

# CI-sized sweep: enough concurrency to populate every phase and several
# timeline windows, small enough to stay in seconds. The 1024-client cell
# is the smallest where batched monitor-tick cap updates move solves per
# decision well past the budget's headroom. The default 256/1024/4096
# sweep runs locally.
export DATAGRID_PROFILE_CLIENTS="${DATAGRID_PROFILE_CLIENTS:-16,64,1024}"

cargo build --release -p datagrid-bench --bin profile
./target/release/profile --out "${OUT}"
./target/release/profile --check "${OUT}"
./target/release/profile --check-budget ci/profile_budget.json "${OUT}"

# Same seed, second run: the default build's report must not change by a
# single byte.
./target/release/profile --out "${OUT}.rerun" >/dev/null
cmp "${OUT}" "${OUT}.rerun"
rm -f "${OUT}.rerun"
echo "profile report is byte-identical across same-seed runs"

cargo test --release --test timeline_determinism
cargo test -q -p datagrid-obs --features prof-timing
