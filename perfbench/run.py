#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the `perfbench` binary from source (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build` at the checkout root), then runs
the workload in a process of its own, so the peak RSS it reports belongs
to that workload alone.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the `end_to_end` metrics of BENCHMARK.json; with `--trace 1`
they are its `per_layer` metrics, taken from a traced run, and
`trace.overhead_frac` compares that run with untraced runs of the same
seed made just before and just after it. The traced run's spans go to `.perfbench_out/` as JSON Lines.

`--self-test` runs every workload briefly, traced and untraced, and
checks that each passes its output checks and prints exactly the metric
names and units BENCHMARK.json declares. It includes `elevator-live`,
which is implemented but not declared (see README.md).
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Implemented but not declared in BENCHMARK.json: its query tail follows
# the host's CPU steal more than the program (see README.md). It runs on
# request and in the self-test.
DIAGNOSTIC_WORKLOADS = ["elevator-live"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    binary = os.path.join(ROOT, target, "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def run_binary(binary, workload, seed, seconds, trace_out=None):
    """Runs one workload process; returns its parsed result or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{workload}: {e}")
        return None
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"{workload}: exit code {done.returncode}")
        return None
    return json.loads(lines[-1])


def select(result, specs):
    """Keeps the declared metrics; returns (metrics, problems)."""
    metrics, problems = {}, []
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"missing metric {spec['name']}")
        elif got["unit"] != spec["unit"]:
            problems.append(f"{spec['name']}: unit {got['unit']}, declared {spec['unit']}")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{spec['name']}: value {got['value']}")
        else:
            metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return metrics, problems


def primary_ms(result, workload):
    """The end-to-end time the tracing overhead is measured on."""
    name = "admit_p50_ms" if workload == "admission-mix" else "job_p50_ms"
    return result["metrics"][name]["value"]


def measure(binary, workload, seed, seconds, trace):
    """One benchmark run; returns the result object or None."""
    bench = declared()
    base = run_binary(binary, workload, seed, seconds)
    if base is None:
        return None
    if not trace:
        metrics, problems = select(base, bench["end_to_end"])
        runs = [base]
    else:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_out = os.path.join(out_dir, f"trace-{workload}-seed{seed}.jsonl")
        traced = run_binary(binary, workload, seed, seconds, trace_out)
        after = traced and run_binary(binary, workload, seed, seconds)
        if after is None:
            return None
        # Untraced runs on both sides of the traced one, so a drift of
        # the machine's speed over the three runs cancels.
        untraced_ms = (primary_ms(base, workload) + primary_ms(after, workload)) / 2
        overhead = (primary_ms(traced, workload) - untraced_ms) / untraced_ms
        traced["metrics"]["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        metrics, problems = select(traced, bench["per_layer"])
        runs = [base, traced, after]
        log(f"spans written to {os.path.relpath(trace_out, ROOT)}")
    for p in problems:
        log(p)
    return {
        "correct": all(r["correct"] for r in runs) and not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def workload_names():
    return [w["name"] for w in declared()["workloads"]] + DIAGNOSTIC_WORKLOADS


def self_test(binary):
    bench = declared()
    ok = True
    for name in workload_names():
        for trace in (0, 1):
            res = measure(binary, name, 7, 2, trace)
            specs = bench["per_layer" if trace else "end_to_end"]
            want = {(s["name"], s["unit"]) for s in specs}
            got = set() if res is None else {(k, v["unit"]) for k, v in res["metrics"].items()}
            passed = res is not None and res["correct"] and res["failed"] == 0 and got == want
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {name} trace={trace}", flush=True)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        log("the repository's crates are not next to perfbench/; nothing to build")
        return 1
    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return 0 if self_test(binary) else 1
    if args.workload not in workload_names():
        log(f"unknown workload {args.workload!r}")
        return 2
    result = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
