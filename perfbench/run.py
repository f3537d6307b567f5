#!/usr/bin/env python3
"""Builds the benchmark harness and the `repro` binary, runs one workload
and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The last line of standard output is the
result object (`correct`, `attempted`, `failed`, `metrics`); the line
before it is the full envelope. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def unique_keys(pairs):
    """`json.loads` hook refusing an object with a repeated key."""
    keys = [k for k, _ in pairs]
    duplicates = {k for k in keys if keys.count(k) > 1}
    if duplicates:
        raise ValueError(f"duplicate JSON keys {sorted(duplicates)}")
    return dict(pairs)


def load_json(text, what):
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as err:
        fail(f"{what} is not valid JSON: {err}")


def build(env):
    """Builds the harness (its own workspace) and the daemon binary."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "bench", "--bin", "repro"],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(step)}")


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "src", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src:" + digest.hexdigest()[:16]


def stop_group(pgid):
    """Kills what is left of the harness's process group and waits for it."""
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    fail("processes of the run did not stop")


def check_result(result, bench, trace):
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        fail(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"metric {name} has no numeric value")
        if metric.get("unit") != units[name]:
            fail(f"metric {name} has unit {metric.get('unit')}, not {units[name]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail(f"{bench_path} is missing")
    with open(bench_path) as handle:
        bench = load_json(handle.read(), "BENCHMARK.json")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    trace = args.trace == "1"

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build(env)

    runs = os.path.join(ROOT, ".bench_run")
    run_dir = os.path.join(runs, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--repro", os.path.join(target, "release", "repro"),
        "--rev", source_rev(),
    ]
    if trace:
        cmd += ["--spans", os.path.join(runs, f"spans-{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            start_new_session=True)
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
    finally:
        # The harness is reaped by now; anything left in its group (a
        # daemon it could not stop) is killed and waited for.
        stop_group(proc.pid)
        shutil.rmtree(run_dir, ignore_errors=True)
    if timed_out:
        fail(f"workload {args.workload} ran past {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")

    lines = out.decode().strip().splitlines()
    if len(lines) < 2:
        fail("harness printed no result")
    load_json(lines[-2], "the envelope")
    check_result(load_json(lines[-1], "the result"), bench, trace)
    print(lines[-2])
    print(lines[-1])


if __name__ == "__main__":
    main()
