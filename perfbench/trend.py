#!/usr/bin/env python3
"""Print one metric's trend across the benchmark's results trail.

    python3 perfbench/trend.py METRIC [--workload NAME] [--trail FILE]

One line per record of perfbench/results/trail.jsonl (oldest first) that
carries the metric, then the median per git sha in order of first
appearance, so that a change's effect reads as a step between shas.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("metric")
    p.add_argument("--workload")
    p.add_argument("--trail", default=os.path.join(HERE, "results", "trail.jsonl"))
    args = p.parse_args()

    try:
        with open(args.trail) as f:
            records = [json.loads(line) for line in f if line.strip()]
    except OSError as e:
        sys.exit(f"trend: cannot read {args.trail}: {e}")

    by_sha = {}
    unit = None
    for r in records:
        m = r.get("metrics", {}).get(args.metric)
        if m is None or (args.workload and r.get("workload") != args.workload):
            continue
        unit = m["unit"]
        flag = "" if r.get("correct") else "  (incorrect)"
        print(f"{r['date']}  {r['sha']:<12}  {r['workload']:<20}  seed {r['seed']:<6}"
              f"  {m['value']:.6g} {unit}{flag}")
        by_sha.setdefault((r["sha"], r["workload"]), []).append(m["value"])
    if not by_sha:
        sys.exit(f"trend: no record carries {args.metric}")
    print()
    for (sha, workload), values in by_sha.items():
        print(f"{sha:<12}  {workload:<20}  median {statistics.median(values):.6g} {unit}"
              f"  over {len(values)} run(s)")


if __name__ == "__main__":
    main()
