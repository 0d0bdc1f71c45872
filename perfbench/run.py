#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The `perfbench` crate is built twice into
`$CARGO_TARGET_DIR` (default `.bench_build`): a plain build for the
end-to-end metrics (`--trace 0`) and a `prof-timing` build, in `traced/`,
for the traced run (`--trace 1`). A traced run first repeats the untraced
run at the same seed for half the time, then hands its `replay_wall_s` and
outcome digest to the traced build, which checks the digests agree, writes
its spans to `traced/spans/<workload>-<seed>.jsonl` in the target directory
and reports the per-layer metrics. The last line of standard output is the
result object; see perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 420
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(traced):
    """Builds one flavour and returns the path of its binary."""
    out = target_dir()
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    if traced:
        out = os.path.join(out, "traced")
        cmd += ["--features", "prof-timing"]
    cmd += ["--target-dir", out]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    return os.path.join(out, "release", "perfbench")


def parse_result(line):
    """Parses and validates a result line; raises BenchError."""
    try:
        result = json.loads(line)
    except ValueError as e:
        raise BenchError(f"result line is not JSON: {line!r}") from e
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise BenchError(f"result keys are not {sorted(RESULT_KEYS)}: {line!r}")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise BenchError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise BenchError("attempted is below 1")
    if not isinstance(result["metrics"], dict):
        raise BenchError("metrics is not an object")
    for name, m in result["metrics"].items():
        if (not isinstance(m, dict) or set(m) != {"value", "unit"}
                or not isinstance(m["value"], (int, float))
                or isinstance(m["value"], bool)
                or not isinstance(m["unit"], str)):
            raise BenchError(f"metric {name} is not {{value, unit}}: {m!r}")
    if result["correct"] and not result["metrics"]:
        raise BenchError("a correct result has no metrics")
    return result


def run_binary(binary, args):
    """Runs the binary; returns (note lines, parsed result)."""
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{os.path.basename(binary)} did not finish: {e}") from e
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if not lines:
        raise BenchError(f"no output (exit code {done.returncode})")
    result = parse_result(lines[-1])
    if result["correct"] != (done.returncode == 0):
        raise BenchError(f"exit code {done.returncode} disagrees with the result line")
    return lines[:-1], result


def outcome_digest(notes):
    for line in notes:
        for word in line.split():
            if word.startswith("outcome-digest="):
                return word.split("=", 1)[1]
    raise BenchError("the untraced run printed no outcome digest")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20050905)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="a few hundred fetches instead of the full trace")
    args = parser.parse_args(argv)

    plain = build(traced=False)
    traced = build(traced=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.reduced:
        common.append("--reduced")

    if args.trace == 0:
        notes, result = run_binary(plain, common + ["--seconds", str(args.seconds)])
    else:
        half = str(args.seconds / 2)
        base_notes, base = run_binary(plain, common + ["--seconds", half])
        if not base["correct"]:
            notes, result = base_notes, base
        else:
            wall = base["metrics"]["replay_wall_s"]["value"]
            spans = os.path.join(os.path.dirname(os.path.dirname(traced)), "spans")
            os.makedirs(spans, exist_ok=True)
            notes, result = run_binary(traced, common + [
                "--seconds", half, "--trace", "1",
                "--untraced-wall", repr(wall),
                "--untraced-digest", outcome_digest(base_notes),
                "--spans", os.path.join(spans, f"{args.workload}-{args.seed}.jsonl")])
            notes = ["untraced: " + n for n in base_notes] + notes
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
