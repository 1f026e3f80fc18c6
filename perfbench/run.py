#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --check-seed <n> [--seconds <s>]

Run from the repository root. The first form prints the run's report and,
as its last line, one JSON result. With --trace 1 it first runs the same
seed untraced, and reports the tracing overhead as trace.overhead_pct. The
second form runs every workload once on a held-out seed, traced and
untraced, and checks that each reports its full metric set with no error.

Exits 1 when the build fails, the run fails or times out, an answer is
wrong, or the metrics differ from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
KEYS = {"correct", "attempted", "failed", "metrics"}
OVERHEAD = "trace.overhead_pct"


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary; returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def expected_metrics(traced):
    """The metric names BENCHMARK.json lists for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"] for m in bench["per_layer" if traced else "end_to_end"]}


def run_once(binary, workload, seed, seconds, traced):
    """Runs one workload; returns (report lines, result, exit code)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(p.stderr)
    lines = p.stdout.splitlines()
    if p.returncode not in (0, 1) or not lines:
        fail(f"{workload} exited with code {p.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result line")
    if set(result) != KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(KEYS)}")
    return lines[:-1], result, p.returncode


def check_metrics(result, traced, extra=()):
    want = expected_metrics(traced)
    got = set(result["metrics"]) | set(extra)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
             f"unlisted {sorted(got - want)}")


def measure(binary, args):
    lines, result, code = run_once(binary, args.workload, args.seed, args.seconds, False)
    if args.trace:
        print("\n".join(lines))
        base = result["metrics"]["tick_p50_ms"]["value"]
        lines, result, code2 = run_once(binary, args.workload, args.seed, args.seconds, True)
        code = max(code, code2)
        traced = result["metrics"]["engine.tick_ms"]["value"]
        print(f"  tracing overhead: median tick {traced:.4f} ms traced, "
              f"{base:.4f} ms untraced (same seed)")
        result["metrics"][OVERHEAD] = {"value": (traced / base - 1) * 100, "unit": "%"}
    check_metrics(result, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    sys.exit(1 if code != 0 or not result["correct"] else 0)


def check_seed(binary, seed, seconds):
    """Runs every workload once on `seed`, untraced and traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for name in names:
        for traced in (False, True):
            _, result, code = run_once(binary, name, seed, seconds, traced)
            check_metrics(result, traced, [OVERHEAD] if traced else [])
            rate = result["failed"] / result["attempted"]
            good = code == 0 and result["correct"] and rate == 0
            ok &= good
            print(f"seed {seed} {name:<18} trace={int(traced)} "
                  f"metrics={len(result['metrics']):>2} error_rate={rate} "
                  f"{'ok' if good else 'FAILED'}")
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-seed", type=int)
    args = ap.parse_args()
    if args.check_seed is None and (args.workload is None or args.seed is None):
        ap.error("give --workload and --seed, or --check-seed")
    binary = build()
    if args.check_seed is not None:
        check_seed(binary, args.check_seed, args.seconds)
    measure(binary, args)


if __name__ == "__main__":
    main()
