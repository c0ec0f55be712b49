"""In-memory span tracing of the flawedqkd layers, from outside the package.

The tracer wraps public functions at every name their callers resolve, so
``flawedqkd.lt_estimator.actual_decomposition`` is traced as well as
``flawedqkd.qstates.actual_decomposition``.  A span records its name,
start, end, parent span and the id of the ``cli.main`` call it belongs to.
Spans stay in flat arrays until the run ends.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from flawedqkd.errors import EstimatorError

# Function name -> span name.  Functions sharing a span name are one layer.
SPANS = {
    "build_parser": "cli.build_parser",
    "run_sweep": "cli.engine",
    "find_crossover": "cli.engine",
    "sweep_csv": "cli.format",
    "sweep_json": "cli.format",
    "crossover_csv": "cli.format",
    "crossover_json": "cli.format",
    "key_rate_lt": "lt.key_rate_lt",
    "transmission_rate_bounds": "lt.bounds",
    "coefficient_matrix": "lt.coefficient_matrix",
    "virtual_yield_upper": "lt.virtual_yield_upper",
    "key_rate_lp": "lp.key_rate_lp",
    "coin_imbalance": "lp.coin_imbalance",
    "actual_decomposition": "qstates.actual_decomposition",
    "virtual_decomposition": "qstates.virtual_decomposition",
    "full_overlap": "qstates.full_overlap",
    "actual_yields": "channel.actual_yields",
    "bit_error_rate": "channel.bit_error_rate",
    "binary_entropy": "channel.binary_entropy",
}
# Work that depends on the device alone; repeats of it could be cached.
DEVICE_ONLY = ("qstates.actual_decomposition", "qstates.virtual_decomposition",
               "qstates.full_overlap")
# Point-level entries; an EstimatorError escaping them is counted once.
POINTS = ("lt.key_rate_lt", "lp.key_rate_lp")

# Per-layer metric -> unit, in report order.
UNITS = {
    "cli.build_parser_s": "s",
    "cli.engine_s": "s",
    "cli.format_s": "s",
    "cli.self_s": "s",
    "lt.key_rate_lt_calls": "count",
    "lt.key_rate_lt_self_s": "s",
    "lt.bounds_calls": "count",
    "lt.bounds_self_s": "s",
    "lt.coefficient_matrix_calls": "count",
    "lt.coefficient_matrix_self_s": "s",
    "lt.virtual_yield_upper_self_s": "s",
    "lp.key_rate_lp_calls": "count",
    "lp.key_rate_lp_self_s": "s",
    "lp.coin_imbalance_calls": "count",
    "lp.coin_imbalance_s": "s",
    "qstates.actual_decomposition_calls": "count",
    "qstates.actual_decomposition_s": "s",
    "qstates.virtual_decomposition_calls": "count",
    "qstates.virtual_decomposition_s": "s",
    "qstates.full_overlap_calls": "count",
    "qstates.full_overlap_s": "s",
    "qstates.calls_per_row": "calls/row",
    "qstates.repeat_share": "ratio",
    "channel.actual_yields_calls": "count",
    "channel.actual_yields_s": "s",
    "channel.bit_error_rate_calls": "count",
    "channel.bit_error_rate_s": "s",
    "channel.binary_entropy_calls": "count",
    "errors.estimator_errors": "count",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Spans of one pass; use ``main`` in place of ``flawedqkd.cli.main``
    while ``patched()`` is active."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.call_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.estimator_errors = 0
        self.device_calls = 0
        self.repeats = 0
        self._seen: set = set()
        self._stack: list[int] = []
        self._call = -1

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        keyed = name in DEVICE_ONLY
        point = name in POINTS

        def traced(*args, **kwargs):
            if keyed:
                key = (nid, args, tuple(sorted(kwargs.items())))
                self.device_calls += 1
                if key in self._seen:
                    self.repeats += 1
                else:
                    self._seen.add(key)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.call_id.append(self._call)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except EstimatorError:
                if point:
                    self.estimator_errors += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return traced

    def main(self, argv):
        """Traced ``flawedqkd.cli.main``: the root span of one call."""
        from flawedqkd import cli

        self._call += 1
        return self.wrap(cli.main, "cli.main")(argv)

    def _build_parser(self, fn):
        # The parse of argv is charged to the front end with the parser build.
        build = self.wrap(fn, "cli.build_parser")

        def traced():
            parser = build()
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse_args")
            return parser

        return traced

    @contextmanager
    def patched(self):
        """Replace every traced function at every flawedqkd module that
        binds it, and restore them on exit."""
        wrappers: dict[int, object] = {}
        saved = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "flawedqkd" or n.startswith("flawedqkd.")]
        for mod in modules:
            for attr, span in SPANS.items():
                fn = mod.__dict__.get(attr)
                if not callable(fn):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (self._build_parser(fn) if attr == "build_parser"
                                        else self.wrap(fn, span))
                saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])
        try:
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "call_id": np.array(self.call_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def layer_metrics(self, rows: int) -> dict[str, float]:
        """Per-layer totals for the pass; self time is a span's duration
        minus the durations of its direct children."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        calls = np.bincount(a["name_id"], minlength=n_names)
        total = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        self_t = np.bincount(a["name_id"], weights=dur - child, minlength=n_names)

        def get(arr, name):
            return float(arr[self.names.index(name)]) if name in self.names else 0.0

        out = {
            "cli.build_parser_s": get(total, "cli.build_parser") + get(total, "cli.parse_args"),
            "cli.engine_s": get(total, "cli.engine"),
            "cli.format_s": get(total, "cli.format"),
            "cli.self_s": get(self_t, "cli.main"),
        }
        for prefix, span in (("lt.key_rate_lt", "lt.key_rate_lt"), ("lt.bounds", "lt.bounds"),
                             ("lt.coefficient_matrix", "lt.coefficient_matrix"),
                             ("lp.key_rate_lp", "lp.key_rate_lp")):
            out[f"{prefix}_calls"] = int(get(calls, span))
            out[f"{prefix}_self_s"] = get(self_t, span)
        out["lt.virtual_yield_upper_self_s"] = get(self_t, "lt.virtual_yield_upper")
        for span in ("lp.coin_imbalance", *DEVICE_ONLY, "channel.actual_yields",
                     "channel.bit_error_rate"):
            out[f"{span}_calls"] = int(get(calls, span))
            out[f"{span}_s"] = get(total, span)
        out["channel.binary_entropy_calls"] = int(get(calls, "channel.binary_entropy"))
        out["qstates.calls_per_row"] = self.device_calls / rows if rows else 0.0
        out["qstates.repeat_share"] = self.repeats / self.device_calls if self.device_calls else 0.0
        out["errors.estimator_errors"] = self.estimator_errors
        return out
