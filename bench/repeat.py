#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs one benchmark at a time, as BENCHMARK.json describes it, and prints
for every workload and metric the median, the quartiles and the spread
(quartile distance over median) next to the metric's bound.  With
--trace 1 and a seed listed twice (--seeds 1,1) it also checks that the
traced counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="write the summary as JSON here")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary: dict = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = 0
        info = {}
        counts_by_seed: dict[int, list[dict]] = {}
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            info = json.loads(lines[-2])["info"]
            result = json.loads(lines[-1])
            failed += result["failed"] + (not result["correct"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            counts_by_seed.setdefault(seed, []).append(
                {k: m["value"] for k, m in result["metrics"].items()
                 if m["unit"] != "s" and k != "trace.overhead_ratio"})
        rows = {name: {"unit": units[name], **summarize(v)} for name, v in values.items()}
        summary["workloads"][workload] = {"failed": failed, "metrics": rows}
        if args.trace:
            # Traced counts must repeat exactly between runs of one seed.
            repeat = all(c == runs[0] for runs in counts_by_seed.values() for c in runs)
            summary["workloads"][workload]["counts_repeat_exactly"] = repeat
            print(f"{workload}: traced counts repeat exactly: {repeat}")
        summary.setdefault("environment", {k: info.get(k) for k in
                                           ("python", "numpy", "nproc", "blas_threads", "git_sha")})
        print(f"{workload}: failed={failed}")
        for name, row in rows.items():
            bound = bounds.get(name)
            print(f"  {name:36s} {row['median']:14.6g} {row['unit']:9s} spread={row['spread']:.4f}"
                  + (f" bound={bound} ({row['spread'] / bound:.2f} of it)" if bound else ""),
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
