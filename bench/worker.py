"""One benchmark workload in a fresh interpreter; run.py starts it.

    worker.py --setup
        import flawedqkd, make the warm-up call, print "ready" and exit.
    worker.py --workload W --seed N --seconds S --trace 0|1
        repeat the workload's pass for S seconds, check every output and
        print one JSON result line.
    worker.py --record-reference
        write the check seed's output digests to reference.json.

Every call goes through ``flawedqkd.cli.main(argv)`` in this process with
stdout captured; the captured bytes are the checked product.  The other
benchmark modules are imported where they are used, so the --setup path
imports nothing but flawedqkd and the warm-up argv.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
REFERENCE = os.path.join(BENCH, "reference.json")
SPANS_DIR = os.path.join(ROOT, ".bench_out")

MIN_PASSES = 3
# The latency tail is the highest percentile with 10 samples beyond it; 21
# samples keep it at or above the median.
MIN_SAMPLES = 21
RECOMPUTE_SAMPLE = 32
# Wall-clock gates of tests/test_acceptance.py, reported as headroom only.
LT_POINT_GATE_S = 1e-3
DUAL_SWEEP_GATE_S = 1.0


def _invoke(main, argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse rejected the argv
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed call, as it would be on the command line
        traceback.print_exc(file=sys.__stderr__)
        return 1


def run_pass(main, calls, scale=None):
    """Run every call once; returns the outcomes and each call's
    (start, end) times.  With a SpeedScale the host speed is probed between
    calls, outside the timed intervals."""
    from check import Outcome

    # Every pass starts from the same collector state, so the collections it
    # triggers fall on the same calls in every pass.
    gc.collect()
    outs, spans = [], []
    for call in calls:
        if scale is not None:
            scale.maybe_probe()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            code = _invoke(main, call.argv)
            t1 = perf_counter()
        spans.append((t0, t1))
        outs.append(Outcome(code, out.getvalue()))
    if scale is not None:
        scale.probe()
    return outs, spans


class Passes:
    """Failure accounting across repeated passes of the same inputs.

    The first pass is checked in full; a later pass must print the same
    bytes, and each call that differs fails all of its rows.
    """

    def __init__(self, calls) -> None:
        self.calls = calls
        self.first = None
        self.first_failed: list[int] = []
        self.attempted = 0
        self.failed = 0

    def add(self, outs) -> None:
        from check import check_call

        self.attempted += sum(c.rows for c in self.calls)
        if self.first is None:
            self.first = outs
            self.first_failed = [check_call(c, o) for c, o in zip(self.calls, outs)]
        for call, out, ref, bad in zip(self.calls, outs, self.first, self.first_failed):
            self.failed += bad if out == ref else call.rows

    def rows_completed(self) -> int:
        return sum(c.rows - bad for c, bad in zip(self.calls, self.first_failed))


def timed_run(calls, seconds: float, book: Passes) -> dict:
    """End-to-end metrics with tracing off, in host-speed-scaled time."""
    from flawedqkd.cli import main
    from speed import SpeedScale

    scale = SpeedScale()
    samples: list[float] = []
    pass_s: list[float] = []
    raw_pass_s: list[float] = []
    t_start = perf_counter()
    while (perf_counter() - t_start < seconds or len(pass_s) < MIN_PASSES
           or len(samples) < MIN_SAMPLES):
        outs, spans = run_pass(main, calls, scale)
        book.add(outs)
        durs = [(t1 - t0) * scale.factor(t0, t1) for t0, t1 in spans]
        samples.extend(durs)
        pass_s.append(sum(durs))
        raw_pass_s.append(sum(t1 - t0 for t0, t1 in spans))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Latency percentiles are taken over one pass, the workload's stated
    # input, when a pass has enough calls, else over all calls of the run;
    # the tail is the highest percentile with 10 samples beyond it.
    per_pass = len(calls)
    if per_pass >= MIN_SAMPLES:
        groups = [sorted(samples[i:i + per_pass]) for i in range(0, len(samples), per_pass)]
    else:
        groups = [sorted(samples)]
    n = len(groups[0])
    metrics = {
        "rows_per_s": (book.rows_completed() / statistics.median(pass_s), "rows/s"),
        "latency_p50_ms": (statistics.median(statistics.median(g) for g in groups) * 1e3, "ms"),
        "latency_tail_ms": (statistics.median(g[n - 11] for g in groups) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "passes": len(pass_s),
        "rows_per_pass": book.rows_completed(),
        "latency_samples": n,
        "latency_groups": len(groups),
        "latency_tail_percentile": 100.0 * (n - 10) / n,
        "raw_pass_s_median": statistics.median(raw_pass_s),
        "speed_factor_median": scale.median_factor(),
    }
    return {"metrics": metrics, "info": info}


def traced_run(calls, seconds: float, book: Passes, spans_path: str) -> dict:
    """Per-layer metrics: traced passes alternate with untraced ones, which
    give the tracing overhead.  Layer times are scaled by the host-speed
    factor around their pass."""
    import numpy as np

    from flawedqkd.cli import main
    from speed import SpeedScale
    from tracer import UNITS, Tracer

    scale = SpeedScale()
    plain, traced, layers = [], [], []
    first_counts = None
    count_mismatches = 0
    tracer = None
    t_start = perf_counter()
    while not (perf_counter() - t_start >= seconds and len(traced) >= 2):
        outs, spans = run_pass(main, calls, scale)
        plain.append(sum((t1 - t0) * scale.factor(t0, t1) for t0, t1 in spans))
        book.add(outs)
        tracer = Tracer()
        with tracer.patched():
            outs, spans = run_pass(tracer.main, calls, scale)
        traced.append(sum((t1 - t0) * scale.factor(t0, t1) for t0, t1 in spans))
        book.add(outs)
        layer = tracer.layer_metrics(book.rows_completed())
        factor = scale.factor(spans[0][0], spans[-1][1])
        layers.append({k: v * factor if UNITS[k] == "s" else v for k, v in layer.items()})
        counts = {k: v for k, v in layer.items() if UNITS[k] != "s"}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            count_mismatches += 1

    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    np.savez_compressed(spans_path, **tracer.arrays())
    metrics = {}
    for name, unit in UNITS.items():
        if name == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(plain)
        elif unit == "s":
            value = statistics.median(m[name] for m in layers)
        else:
            value = first_counts[name]
        metrics[name] = (value, unit)
    book.attempted += len(layers) - 1
    book.failed += count_mismatches
    info = {"traced_passes": len(traced), "count_mismatches": count_mismatches,
            "spans": os.path.relpath(spans_path, ROOT), "layer_waits": "none: single-threaded"}
    return {"metrics": metrics, "info": info}


def gate_headroom() -> dict:
    """The two wall-clock gates of the acceptance tests, timed the way the
    tests time them; headroom is gate over measured time."""
    import math

    import flawedqkd as fq

    probs = fq.ProtocolProbabilities()
    device, channel = fq.DeviceModel(), fq.ChannelModel(0.0, p_d=0.0)
    fq.key_rate_lt(device, channel, probs)
    point = math.inf
    for _ in range(10):
        t0 = perf_counter()
        fq.key_rate_lt(device, channel, probs)
        point = min(point, perf_counter() - t0)
    config = fq.SweepConfig(device=fq.DeviceModel(delta=0.126), p_d=1e-7, f_ec=1.16,
                            probs=probs, loss_start=0.0, loss_stop=70.0, loss_step=0.5,
                            methods=("lt", "lp"), jobs=1)
    sweep = math.inf
    for _ in range(3):
        t0 = perf_counter()
        rows = fq.run_sweep(config)
        sweep = min(sweep, perf_counter() - t0)
    return {
        "lt_point_s": point, "lt_point_gate_s": LT_POINT_GATE_S,
        "lt_point_headroom": LT_POINT_GATE_S / point,
        "dual_sweep_s": sweep, "dual_sweep_rows": len(rows),
        "dual_sweep_gate_s": DUAL_SWEEP_GATE_S, "dual_sweep_headroom": DUAL_SWEEP_GATE_S / sweep,
    }


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run(args) -> dict:
    import numpy

    from check import check_reference, recompute_sample
    from flawedqkd.cli import main
    from workloads import CHECK_SEED, WORKLOADS

    build = WORKLOADS[args.workload]
    calls = build(args.seed)
    book = Passes(calls)
    if args.trace:
        spans = os.path.join(SPANS_DIR, f"trace-{args.workload}-seed{args.seed}.npz")
        result = traced_run(calls, args.seconds, book, spans)
    else:
        result = timed_run(calls, args.seconds, book)

    # Checks outside the timed part: recompute a sample of the first pass,
    # then compare the check seed's bytes with the recorded reference.
    recompute_failed = recompute_sample(calls, book.first, args.seed, RECOMPUTE_SAMPLE)
    ref_calls = build(CHECK_SEED)
    ref_outs, _ = run_pass(main, ref_calls)
    ref_failed = check_reference(ref_calls, ref_outs, load_reference()[args.workload])
    attempted = book.attempted + sum(c.rows for c in ref_calls)
    failed = book.failed + recompute_failed + ref_failed

    info = result["info"]
    info.update({
        "numpy": numpy.__version__,
        "fail_ratio": failed / attempted,
        "first_pass_failed_rows": sum(book.first_failed),
        "recompute_sample": RECOMPUTE_SAMPLE,
        "recompute_failed": recompute_failed,
        "reference_failed_rows": ref_failed,
    })
    if not args.trace:
        info["gates"] = gate_headroom()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "info": info,
    }


def record_reference() -> None:
    from flawedqkd.cli import main
    from workloads import CHECK_SEED, WORKLOADS

    digests = {}
    for name, build in WORKLOADS.items():
        outs, _ = run_pass(main, build(CHECK_SEED))
        digests[name] = [o.digest() for o in outs]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")


def setup() -> None:
    from flawedqkd.cli import main
    from workloads import WARMUP_ARGV

    with redirect_stdout(io.StringIO()):
        code = main(list(WARMUP_ARGV))
    if code != 0:
        raise SystemExit(f"warm-up call exited {code}")
    print("ready", flush=True)
    from speed import REFERENCE_S, probe_seconds

    print("scale", REFERENCE_S / probe_seconds(), flush=True)


def _check_source() -> None:
    # The program under test is the checkout's own source tree.
    import flawedqkd

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(flawedqkd.__file__).startswith(src + os.sep):
        raise SystemExit(f"flawedqkd was imported from {flawedqkd.__file__}, not {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _check_source()
    if args.setup:
        setup()
    elif args.record_reference:
        record_reference()
    else:
        print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
