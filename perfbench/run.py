#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds the benchmark runner
(perfbench/src/bench.exe, linked against the repository's libraries) with
dune under the `perfbench` profile into .bench_build, runs it, checks that
the metrics it printed match the manifest in BENCHMARK.json, and passes
its output through: the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The runner's
temporary files go to a directory under .bench_build that is removed
after the run.

Each successful run also appends one record (git sha, seed, date, every
metric with its unit) to perfbench/results/trail.jsonl; perfbench/trend.py
prints one metric's trend across those records.

The script exits non-zero, without printing a result, when the build, the
run or the manifest check fails.
"""

import argparse
import datetime
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TRAIL = os.path.join(HERE, "results", "trail.jsonl")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "src", "bench.exe")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        die("no dune-project at the checkout root: the program's sources are missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "perfbench", "--display", "quiet", "./perfbench/src/bench.exe"]
    try:
        r = subprocess.run(cmd, env=env, cwd=ROOT, timeout=BUILD_TIMEOUT_S,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except FileNotFoundError:
        die("dune not found")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("build failed")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(result, spec, trace):
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        die(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            die(f"metric {name}: unit {got[name].get('unit')!r}, manifest says {unit!r}")
    for key in ("correct", "attempted", "failed"):
        if key not in result:
            die(f"result lacks {key}")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=30)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def append_trail(args, result):
    os.makedirs(os.path.dirname(TRAIL), exist_ok=True)
    record = {
        "sha": git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    with open(TRAIL, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        spec = manifest()
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; expected one of {names}")

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    tmp = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    # The runner forks a child to write the serve trace; a session of its
    # own lets a timeout kill both.
    p = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, TMPDIR=tmp),
                         stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        die("run timed out")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if p.returncode != 0:
        sys.stderr.write(out)
        die(f"runner exited with {p.returncode}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("runner printed no result line")
    check_result(result, spec, args.trace == 1)
    append_trail(args, result)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
