#!/usr/bin/env python3
"""flawedqkd benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With --trace 0 it prints the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
Each workload runs in a fresh interpreter (bench/worker.py) with one BLAS
thread; set-up time is the median of several more fresh interpreters that
import flawedqkd and make one warm-up call.  Times are scaled to a reference
host speed (see speed.py).  The last line of standard
output is the JSON result; the line before it holds run details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("sweep-family", "sweep-vertex", "crossover-frontier", "rate-points")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
# A run must end within 180 s; the children share this budget.
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_THREADS:
        env[var] = "1"
    return env


def _remaining(t_start: float) -> float:
    left = DEADLINE_S - (perf_counter() - t_start)
    if left <= 0.0:
        raise RunError("out of time")
    return left


def _finish(proc: subprocess.Popen, t_start: float) -> str:
    try:
        out, _ = proc.communicate(timeout=_remaining(t_start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker timed out")
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}")
    return out


def setup_seconds(env: dict[str, str], t_start: float) -> float:
    """Time from starting a fresh interpreter to the end of its warm-up call,
    scaled to the reference host speed by the probe that interpreter runs
    right after it."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "--setup"], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    rest = _finish(proc, t_start).split()
    if line.strip() != "ready" or len(rest) != 2 or rest[0] != "scale":
        raise RunError("set-up worker did not finish its warm-up call")
    return elapsed * float(rest[1])


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(ROOT, "src", "flawedqkd", "cli.py")):
        raise RunError(f"no flawedqkd source tree under {ROOT}")
    t_start = perf_counter()
    env = child_env()
    setup = [] if args.trace else [setup_seconds(env, t_start) for _ in range(SETUP_SAMPLES)]
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = _finish(proc, t_start).strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    result = json.loads(lines[-1])
    info = result.pop("info")
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        info["setup_samples_s"] = setup
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": {v: env[v] for v in BLAS_THREADS}, "git_sha": git_sha(),
        "wall_s": perf_counter() - t_start,
    })
    return info, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="flawedqkd benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        info, result = run(args)
    except (RunError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
