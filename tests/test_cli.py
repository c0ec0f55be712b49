import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flawedqkd
from flawedqkd import (
    CrossoverConfig,
    CrossoverRecord,
    DeviceModel,
    SweepConfig,
    SweepRow,
    loss_grid,
    run_sweep,
)
from flawedqkd.cli import _SETTINGS, crossover_csv, crossover_json, main, sweep_csv, sweep_json
from flawedqkd.grid import METHODS

IDEAL = DeviceModel()

# Exact stdout of three JSON runs, covering error rows, null fields and the
# vertex solver; CSV bytes are pinned by the benchmark's reference digests.
SWEEP_WITH_ERRORS_JSON = """\
[
  {
    "loss_db": 0.0,
    "eta": 1.0,
    "method": "lt",
    "e_z": null,
    "e_x": null,
    "rate_raw": null,
    "rate": null,
    "error": "the three encoding states are collinear; the yield system cannot be inverted"
  },
  {
    "loss_db": 0.0,
    "eta": 1.0,
    "method": "lp",
    "e_z": 1.499999699e-07,
    "e_x": 0.9999998502,
    "rate_raw": -1.048838478e-06,
    "rate": 0.0
  },
  {
    "loss_db": 5.0,
    "eta": 0.316227766,
    "method": "lt",
    "e_z": null,
    "e_x": null,
    "rate_raw": null,
    "rate": null,
    "error": "the three encoding states are collinear; the yield system cannot be inverted"
  },
  {
    "loss_db": 5.0,
    "eta": 0.316227766,
    "method": "lp",
    "e_z": 5.824549117e-07,
    "e_x": 1.0,
    "rate_raw": -1.183351605e-06,
    "rate": 0.0
  }
]
"""

CROSSOVER_JSON = """\
{
  "compare_loss_db": 20.0,
  "records": [
    {
      "swept_param": "mu",
      "swept_value": 1e-09,
      "delta_star": 0.03101370562,
      "rate_lt": 0.002053022286,
      "rate_lp": 0.002053022285,
      "status": "crossover"
    },
    {
      "swept_param": "mu",
      "swept_value": 1e-07,
      "delta_star": 0.1008112988,
      "rate_lt": 0.0003110765319,
      "rate_lp": 0.0003110765325,
      "status": "crossover"
    },
    {
      "swept_param": "mu",
      "swept_value": 1e-05,
      "delta_star": null,
      "rate_lt": null,
      "rate_lp": null,
      "status": "no-crossover"
    }
  ]
}
"""

VERTEX_RATE_JSON = """\
[
  {
    "loss_db": 20.0,
    "eta": 0.01,
    "method": "lt",
    "e_z": 0.009897511912,
    "e_x": 1.994920602e-05,
    "rate_raw": 0.002266912066,
    "rate": 0.002266912066
  },
  {
    "loss_db": 20.0,
    "eta": 0.01,
    "method": "lp",
    "e_z": 0.009897511912,
    "e_x": 0.3739764967,
    "rate_raw": -0.0001165233845,
    "rate": 0.0
  }
]
"""


def _frontier_command(seed):
    # The benchmark's crossover-frontier call: theta 1e-6 fixed, mu over 40
    # log-uniform draws in [1e-9, 1e-7].
    rng = random.Random(seed)
    swept = sorted(10.0 ** rng.uniform(-9.0, -7.0) for _ in range(40))
    return ("crossover --sweep-param mu --sweep-values " + ",".join(repr(v) for v in swept)
            + " --theta 1e-06 --theta-mode dependent --compare-loss 20 --bisect-tol 1e-10")


# The warnings of a 3225-3225.3 dB sweep at p_d = 0, where every point's
# e_z is -1/6 at eta = 3e-323, the value of the scalar bit error in
# tests/test_grid.py::per_point_reference.
NEGATIVE_E_Z_WARNINGS = "".join(
    f"warning: loss={loss} method={method}: e_z = -0.16666666666666666 < 0 at eta = 3e-323\n"
    for loss in ("3225", "3225.1", "3225.2", "3225.3")
    for method in ("lt", "lp")
)

# sha256 of "<exit code>\n<stdout>" for CLI runs over both formats and
# solvers, every estimator error the CLI reaches (collinear states, a
# degenerate virtual state, no detections at eta = 0 and at a subnormal
# eta, and their precedence within one row), the underflow tail near
# eta = 1e-250, and the subnormal eta where e_z turns negative: each such
# point reports it in its error slot, ahead of lt's own failures.
# Recorded before sweeps were evaluated on the loss grid as arrays; the
# four negative-e_z cases were re-pinned when that abort became an error
# slot.  A stderr, where given, is pinned too.
GOLDEN_DIGESTS = [
    ("rate-csv", "rate --loss 20 --delta 0.126",
     "d27ce9ab3005060cb2efa2a3658ec06f36a47a9934c42f9f4fc80ee80083258b",
     None),
    ("rate-paper-json", "rate --loss 10 --delta 0.063 --theta 1e-3 --mu 1e-7 --format json",
     "4de44507846c6f4bad921ecc111911d50a66785f3e1eccc1a7111fb16813afa0",
     None),
    ("rate-vertex-csv", "rate --loss 10 --delta 0.063 --theta 1e-3 --mu 1e-7 --solver vertex-lp",
     "8fc024ab59cbca22c5067c577b3658f16e771b68b65aa2484ecb6b8b9b7eb135",
     None),
    ("rate-lp-options", "rate --loss 3.7 --delta 0.2 --theta 0.01 --theta-mode independent --mu 1e-5 --method lp --pza 0.7 --pzb 0.6 --f-ec 1.1",
     "01e841cd75577b53b1221b658263d23d9bf8d795dcf9778be34503e0df26ee9f",
     None),
    ("sweep-both-csv", "sweep --loss-range 0:70:0.5 --delta 0.126 --method both",
     "c79d7007fc727a16c53b09cfb62da98cc569ab9f873386f613a6b27d986c1868",
     None),
    ("sweep-both-json", "sweep --loss-range 0:40:0.25 --delta 0.05 --theta 1e-4 --theta-mode independent --mu 1e-7 --format json",
     "029516aabcdd39af22cf4c52af2fb2f5c9560f67283fac5e10bb30f0926649a8",
     None),
    ("sweep-fine-grid", "sweep --loss-range 0:3:0.05 --delta 0.09 --theta 5e-4 --mu 1e-6 --pd 1e-6 --pza 0.8",
     "add2ba00acbeda9df70543cf9f2c71260fe429b3f8b7b47fdae8821a330133cc",
     None),
    ("sweep-vertex", "sweep --loss-range 0:40:2 --method lt --solver vertex-lp --delta 0.063 --theta 1e-3 --mu 1e-7",
     "a7ab6dce9497a07380bea132ba5287f31a43cb704e82a70c1fd9474e5f71d384",
     None),
    ("sweep-lp-json", "sweep --loss-range 0:60:1 --method lp --mu 1e-6 --format json",
     "3227b23735f6c678fbc86580ef768d0358e8162ff1aff7f66a2ece98e1501a28",
     None),
    ("crossover-csv", "crossover --sweep-param mu --sweep-values 1e-9,1e-8,1e-5 --theta 1e-6",
     "10087f9c713992470b40fdd824604f88ce6c1d1be9627f34adf5af8d0cc1f2f4",
     None),
    ("crossover-theta-json", "crossover --sweep-param theta --sweep-values 1e-4,1e-3 --mu 1e-8 --compare-loss 15 --format json",
     "531b0e7cc7a3a86790767e92f6f3677ccf485a3b55a522ec38e21e6fe0a9d882",
     None),
    ("crossover-vertex", "crossover --sweep-param mu --sweep-values 1e-8 --theta 1e-6 --solver vertex-lp --bisect-tol 1e-6",
     "093029ba9b17dc55454acd81c78f3b4e49f71d7d0c2e3c6b1b0e0f406ed73f89",
     None),
    ("collinear-rate", "rate --loss 5 --theta 1.0",
     "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
     "numerical failure: the three encoding states are collinear; the yield system cannot be inverted\n"),
    ("collinear-sweep", "sweep --loss-range 0:10:5 --theta 1.0",
     "7578d48dd3702be26e61f7409a6fbffcae8bbbd3f9411722a638d90be5a845a6",
     None),
    ("degenerate-rate", "rate --loss 5 --delta 3.14159265",
     "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
     "numerical failure: virtual state j=0 has no qubit component (A_j = 0.0)\n"),
    ("degenerate-sweep-json", "sweep --loss-range 0:10:5 --delta 3.14159265 --format json",
     "81e873a1be2cbb4265b2d72ed5fcf0edbae8b3373e82ee901fa5470636ba5ede",
     None),
    ("no-detections-csv", "sweep --pd 0 --loss-range 0:5000:2500",
     "72f3e291a8fc1f2f51fb15cda67d1f426450a1977fa8c01aca1e9700f4a4fe83",
     None),
    ("no-detections-json", "sweep --pd 0 --loss-range 0:5000:2500 --delta 0.1 --mu 1e-7 --format json",
     "d3b2892fcbe7e54e160834d19f3a63a955614dafba711233749786cec488ad4a",
     None),
    ("no-detections-rate", "rate --pd 0 --loss 5000",
     "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
     "numerical failure: no detections: eta = 0 and p_d = 0\n"),
    ("error-precedence-json", "sweep --pd 0 --loss-range 0:5000:2500 --theta 1.0 --delta 3.14159265 --format json",
     "a024f462b0e6167f95442fb0c67a4b8aea8dd0e0c2b267527c4ab1aac2915145",
     None),
    ("subnormal-eta-json", "sweep --pd 0 --loss-range 3228:3238:1 --delta 0.1 --format json",
     "c981f789ebb965a8216a264e4f8ae5251d711abef4850c3001f4d7aa3679a61c",
     None),
    ("underflow-tail", "sweep --loss-range 2400:2600:50 --delta 0.1 --theta 1e-3 --mu 1e-7",
     "e5018249df106886aa5fe3b71df44a2bd72c7f9a67a3fbec02453c7af230361f",
     None),
    ("underflow-tail-vertex", "sweep --loss-range 2500:3300:100 --pd 0 --solver vertex-lp --delta 0.1 --mu 1e-3",
     "733b11d8319bff13f251a6aa5983e1d2204e266ae49cdc4315cbd601643ca221",
     None),
    ("negative-e-z-lp-abort", "sweep --loss-range 3225:3225.3:0.1 --delta 1e-8 --pd 0",
     "f5491902ac6044841418210280bd3dcccdedbb0d433dd66863ee5c2f53c7994e",
     NEGATIVE_E_Z_WARNINGS),
    ("negative-e-z-entropy-abort", "sweep --loss-range 3225:3225.3:0.1 --pd 0",
     "f5491902ac6044841418210280bd3dcccdedbb0d433dd66863ee5c2f53c7994e",
     NEGATIVE_E_Z_WARNINGS),
    ("crossover-lt-failure-first", "crossover --sweep-param mu --sweep-values 1e-9 --compare-loss 3225.2 --pd 0",
     "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
     "numerical failure: e_z = -0.16666666666666666 < 0 at eta = 3e-323\n"),
    # Recorded before the crossover search evaluated its devices in batches.
    ("crossover-frontier-seed-0", _frontier_command(0),
     "84c0a6118926b085a66934e4a6d8dfeb7ea8d7df94b7c72224a097221bb2f89e",
     None),
    ("crossover-vertex-two-values", "crossover --sweep-param mu --sweep-values 1e-9,1e-7 --theta 1e-6 --solver vertex-lp",
     "4a8743792716ceeeeee39189242da267b6f03ce4035f4cad7846cead187dcdea",
     None),
    ("crossover-theta-sweep", "crossover --sweep-param theta --sweep-values 1e-5,1e-4,1e-3 --mu 1e-9 --compare-loss 25",
     "141a5a08b53919636f744bd2ad426c36fd0279c2db7a3d8faa31b91bff58c512",
     None),
    ("crossover-independent-no-crossover", "crossover --sweep-param mu --sweep-values 1e-9,1e-6,1e-3 --theta 1e-4 --theta-mode independent",
     "a6b9713c5acf712a606a870016f1e2fcc8ec4be68a5fd0e88b0c326d239d5e05",
     None),
    ("crossover-collinear", "crossover --sweep-param theta --sweep-values 1.0,0.1",
     "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
     "numerical failure: the three encoding states are collinear; the yield system cannot be inverted\n"),
    ("crossover-subnormal-no-crossover", "crossover --sweep-param mu --sweep-values 1e-9 --compare-loss 3200 --pd 0",
     "368c8dfb1af5ad04e31e087e16f0376fca3e94575586368cf362911322c034f3",
     None),
    ("crossover-subnormal-entropy-abort", "crossover --sweep-param mu --sweep-values 1e-9,1e-3 --compare-loss 3203 --pd 0",
     "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
     "numerical failure: e_z = -0.0009861932938856016 < 0 at eta = 5.01e-321\n"),
    ("crossover-json", "crossover --sweep-param mu --sweep-values 1e-8,3e-8 --theta 1e-5 --format json",
     "cb5d8efe4ba3d293bab36a0fc5e91b034cac35bf27ccf33b756c88a299875717",
     None),
    # The lt/lp frontier over the leak; recorded from the default run of
    # scripts/crossover_frontier.py, the separate front end this command
    # replaced.
    ("crossover-frontier-default", "crossover --sweep-param mu --sweep-values 1e-9,3e-9,1e-8,3e-8,1e-7,3e-7,1e-6,3e-6,1e-5 --theta 1e-6",
     "a892f05597613fefda60e5f302abecf78658a17a925915a307c836d886baf7be",
     None),
]

# A crossover run that the refused-argument cases extend.
CROSSOVER_ARGV = ["crossover", "--sweep-param", "mu", "--sweep-values", "1e-9", "--theta", "1e-6"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLossGrid:
    def test_half_db_steps(self):
        grid = loss_grid(0.0, 70.0, 0.5)
        assert len(grid) == 141
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(70.0)

    def test_endpoint_included_despite_rounding(self):
        assert len(loss_grid(0.0, 1.0, 0.1)) == 11

    def test_ragged_stop(self):
        assert loss_grid(0.0, 1.0, 0.3) == pytest.approx([0.0, 0.3, 0.6, 0.9])

    def test_single_point(self):
        assert loss_grid(20.0, 20.0, 1.0) == [20.0]

    @pytest.mark.parametrize(
        "start, stop, step, message",
        [
            (0.0, 10.0, 0.0, "loss_step must be positive, got 0.0"),
            (0.0, 10.0, math.nan, "loss_step must be finite, got nan"),
            (0.0, 10.0, -1.0, "loss_step must be positive, got -1.0"),
            (5.0, 1.0, 1.0, "a loss grid needs loss_start <= loss_stop, got 5.0 > 1.0"),
        ],
        ids=["zero-step", "nan-step", "negative-step", "start-past-stop"],
    )
    def test_refuses_what_the_sweep_config_refuses(self, start, stop, step, message):
        # These once raised ZeroDivisionError, a float-to-int error, or
        # returned an empty grid.
        with pytest.raises(ValueError) as grid:
            loss_grid(start, stop, step)
        with pytest.raises(ValueError) as config:
            SweepConfig(IDEAL, start, stop, step)
        assert str(grid.value) == str(config.value) == message


class TestSweepConfig:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            SweepConfig(IDEAL, 10.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SweepConfig(IDEAL, 0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            SweepConfig(IDEAL, 0.0, 10.0, 1.0, methods=("qq",))
        with pytest.raises(ValueError):
            SweepConfig(IDEAL, 0.0, 10.0, 1.0, solver="other")
        with pytest.raises(ValueError):
            SweepConfig(IDEAL, 0.0, 10.0, 1.0, jobs=0)

    @pytest.mark.parametrize(
        "start, stop, step, field",
        [
            (math.nan, 10.0, 1.0, "loss_start"),
            (-math.inf, 10.0, 1.0, "loss_start"),
            (0.0, math.inf, 1.0, "loss_stop"),
            (0.0, math.nan, 1.0, "loss_stop"),
            (0.0, 10.0, math.inf, "loss_step"),
            (0.0, 10.0, math.nan, "loss_step"),
            (0.0, 1e6, 1.0, "loss_step"),
            (0.0, 1e12, 1e-9, "loss_step"),
            (0.0, 10.0, 1e-320, "loss_step"),
        ],
    )
    def test_rejects_non_finite_or_oversized_grids(self, start, stop, step, field):
        # Only the config is built: an oversized grid must never be evaluated.
        with pytest.raises(ValueError, match=field):
            SweepConfig(IDEAL, start, stop, step)

    def test_largest_allowed_grid(self):
        config = SweepConfig(IDEAL, 0.0, 999999.0, 1.0)
        assert config.loss_stop == 999999.0


LEAK_FREE = DeviceModel(theta_hat=1e-6)


class TestCrossoverConfig:
    def test_rejects_bad_setups(self):
        with pytest.raises(ValueError):
            CrossoverConfig("mu", (), LEAK_FREE)
        with pytest.raises(ValueError):
            CrossoverConfig("mu", (1e-9,), LEAK_FREE, bisection_tolerance=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        with pytest.raises(ValueError, match="bisection_tolerance"):
            CrossoverConfig("mu", (1e-9,), LEAK_FREE, bisection_tolerance=tol)

    @pytest.mark.parametrize("loss", [math.nan, math.inf, -1.0])
    def test_rejects_unusable_compare_loss(self, loss):
        with pytest.raises(ValueError, match="compare_loss_db"):
            CrossoverConfig("mu", (1e-9,), LEAK_FREE, compare_loss_db=loss)

    @pytest.mark.parametrize(
        "swept, device, name",
        [
            ("mu", DeviceModel(delta=0.3, theta_hat=1e-6), "delta"),
            ("mu", DeviceModel(theta_hat=1e-6, mu=5.0), "mu"),
            ("theta", DeviceModel(theta_hat=1e-3, mu=1e-8), "theta_hat"),
        ],
    )
    def test_rejects_a_device_flaw_the_search_varies(self, swept, device, name):
        # The search sets delta and the swept flaw itself; a device value
        # for either would be ignored.
        with pytest.raises(ValueError, match=f"the device's {name} must be 0"):
            CrossoverConfig(swept, (1e-9,), device)

    def test_rejects_a_bad_swept_value_when_built(self):
        with pytest.raises(ValueError, match="theta_hat must lie in"):
            CrossoverConfig("theta", (1e-5, 2.0))


class TestRunSweep:
    def test_worker_count_does_not_change_rows(self, probs):
        base = dict(
            device=DeviceModel(delta=0.126),
            p_d=1e-7,
            f_ec=1.16,
            probs=probs,
            loss_start=0.0,
            loss_stop=20.0,
            loss_step=5.0,
        )
        serial = run_sweep(SweepConfig(**base, jobs=1))
        parallel = run_sweep(SweepConfig(**base, jobs=4))
        assert serial == parallel

    def test_row_order_is_loss_major(self, probs):
        rows = run_sweep(
            SweepConfig(IDEAL, 0.0, 10.0, 10.0, probs=probs, methods=("lt", "lp"))
        )
        assert [(r.loss_db, r.method) for r in rows] == [
            (0.0, "lt"),
            (0.0, "lp"),
            (10.0, "lt"),
            (10.0, "lp"),
        ]

    def test_failed_points_keep_their_row(self, probs):
        # a fully rotated X state breaks the LT inversion; LP never inverts
        device = DeviceModel(theta_hat=1.0, theta_mode="dependent")
        rows = run_sweep(
            SweepConfig(device, 0.0, 5.0, 5.0, probs=probs, methods=("lt", "lp"))
        )
        lt_rows = [r for r in rows if r.method == "lt"]
        lp_rows = [r for r in rows if r.method == "lp"]
        assert all(r.error is not None and r.rate is None for r in lt_rows)
        assert all(r.error is None and r.rate is not None for r in lp_rows)

    def test_methods_keep_their_order_and_count_once(self, probs):
        # evaluate_grid builds one stage per method, in METHODS order,
        # whatever order or repeats the config gives.
        device = DeviceModel(delta=0.126, theta_hat=1e-3, mu=1e-8)

        def rows(methods):
            return run_sweep(SweepConfig(device, 0.0, 20.0, 5.0, probs=probs, methods=methods))

        assert rows(("lp", "lt")) == rows(METHODS)
        assert rows(("lt", "lt")) == rows(("lt",))


def _per_cell_csv(preamble, records, names):
    # The renderers' reference: each cell read by name and formatted alone.
    def cell(x):
        return x if isinstance(x, str) else "" if x is None else f"{x:.10g}"

    lines = [*preamble, ",".join(names)]
    lines += [",".join(cell(getattr(r, n)) for n in names) for r in records]
    return "\n".join(lines) + "\n"


def _per_cell_item(record, names):
    def value(x):
        return x if isinstance(x, str) or x is None else float(f"{x:.10g}")

    return {n: value(getattr(record, n)) for n in names}


def _per_cell_sweep_json(rows):
    payload = []
    for r in rows:
        item = _per_cell_item(r, SWEEP_COLUMNS)
        if r.error is not None:
            item["error"] = r.error
        payload.append(item)
    return json.dumps(payload, indent=2) + "\n"


def _per_cell_crossover_json(records, compare_loss_db):
    payload = {
        "compare_loss_db": float(f"{compare_loss_db:.10g}"),
        "records": [_per_cell_item(r, CROSSOVER_COLUMNS) for r in records],
    }
    return json.dumps(payload, indent=2) + "\n"


def _outcome(render, *args):
    # The text, or the type of the exception, that rendering gives.
    try:
        return render(*args)
    except Exception as exc:
        return type(exc)


SWEEP_COLUMNS = ("loss_db", "eta", "method", "e_z", "e_x", "rate_raw", "rate")
CROSSOVER_COLUMNS = ("swept_param", "swept_value", "delta_star", "rate_lt", "rate_lp", "status")
# Config files give ints ("loss": 10); floats span signed zeros, infinities,
# nan, subnormals and the extremes.
numbers = st.one_of(
    st.floats(allow_subnormal=True),
    st.integers(),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308, 1e300, -1e-300]),
)
cells = st.one_of(st.none(), numbers)
sweep_rows = st.one_of(
    st.builds(SweepRow, numbers, numbers, st.text(), numbers, numbers, numbers, numbers),
    st.builds(SweepRow, numbers, numbers, st.text(), st.none(), st.none(), st.none(),
              st.none(), st.text()),
    st.builds(SweepRow, numbers, numbers, st.text(), cells, cells, cells, cells,
              st.one_of(st.none(), st.text())),
)
crossover_records = st.builds(
    CrossoverRecord, st.text(), numbers, cells, cells, cells, st.text()
)


class TestRendering:
    @given(rows=st.lists(sweep_rows, max_size=8))
    @settings(max_examples=200)
    def test_sweep_renderers_equal_the_per_cell_rendering(self, rows):
        assert _outcome(sweep_csv, rows) == _outcome(_per_cell_csv, [], rows, SWEEP_COLUMNS)
        assert _outcome(sweep_json, rows) == _outcome(_per_cell_sweep_json, rows)

    @given(records=st.lists(crossover_records, max_size=8), compare_loss_db=numbers)
    @settings(max_examples=200)
    def test_crossover_renderers_equal_the_per_cell_rendering(self, records, compare_loss_db):
        preamble = [f"# compare_loss_db={compare_loss_db:.10g}"]
        assert _outcome(crossover_csv, records, compare_loss_db) == _outcome(
            _per_cell_csv, preamble, records, CROSSOVER_COLUMNS)
        assert _outcome(crossover_json, records, compare_loss_db) == _outcome(
            _per_cell_crossover_json, records, compare_loss_db)

    def test_rows_are_named_tuples_of_the_columns(self):
        row = SweepRow(10, 0.1, "lt", 0.0, 0.5, -1e-3, 0.0)
        assert row == (10, 0.1, "lt", 0.0, 0.5, -1e-3, 0.0, None)
        assert SweepRow._fields == (*SWEEP_COLUMNS, "error")
        assert CrossoverRecord._fields == CROSSOVER_COLUMNS
        with pytest.raises(AttributeError):
            row.rate = 1.0

    def test_error_row_cells_are_empty(self):
        rows = [SweepRow(5.0, 0.316, "lt", None, None, None, None, error="boom")]
        csv_text = sweep_csv(rows)
        assert csv_text.splitlines()[1] == "5,0.316,lt,,,,"
        payload = json.loads(sweep_json(rows))
        assert payload[0]["rate"] is None
        assert payload[0]["error"] == "boom"

    def test_crossover_csv_carries_comparison_loss(self):
        text = crossover_csv([], 20.0)
        assert text.splitlines()[0] == "# compare_loss_db=20"
        assert text.splitlines()[1] == "swept_param,swept_value,delta_star,rate_lt,rate_lp,status"


class TestGoldenJson:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["sweep", "--loss-range", "0:5:5", "--theta", "1.0", "--format", "json"],
                SWEEP_WITH_ERRORS_JSON,
            ),
            (
                [
                    "crossover",
                    "--sweep-param",
                    "mu",
                    "--sweep-values",
                    "1e-9,1e-7,1e-5",
                    "--theta",
                    "1e-6",
                    "--format",
                    "json",
                ],
                CROSSOVER_JSON,
            ),
            (
                ["rate", "--loss", "20", "--delta", "0.126", "--solver", "vertex-lp", "--format", "json"],
                VERTEX_RATE_JSON,
            ),
        ],
        ids=["sweep-error-rows", "crossover-nulls", "rate-vertex"],
    )
    def test_stdout_bytes(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == expected


class TestGoldenDigests:
    @pytest.mark.parametrize(
        "command, digest, stderr",
        [case[1:] for case in GOLDEN_DIGESTS],
        ids=[case[0] for case in GOLDEN_DIGESTS],
    )
    def test_exit_code_and_stdout(self, capsys, command, digest, stderr):
        code, out, err = run_cli(capsys, *command.split())
        assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest
        if stderr is not None:
            assert err == stderr


class TestRateCommand:
    def test_pinned_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--loss", "20", "--method", "lt", "--delta", "0.126"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "loss_db,eta,method,e_z,e_x,rate_raw,rate"
        assert lines[1] == "20,0.01,lt,0.009897511912,1.994920602e-05,0.002266912066,0.002266912066"

    def test_both_methods_order(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--loss", "20")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "lt"
        assert lines[2].split(",")[2] == "lp"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--loss", "20", "--method", "lp", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["method"] == "lp"
        assert payload[0]["rate"] == pytest.approx(0.002498262006, rel=1e-9)

    def test_missing_loss_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rate")
        assert code == 2
        assert "loss" in err

    @pytest.mark.parametrize("loss", ["nan", "inf", "1e400", "-1"])
    def test_unusable_loss_names_the_loss_setting(self, capsys, loss):
        # These once named loss_start or loss_db, fields the user never set.
        code, out, err = run_cli(capsys, "rate", "--loss", loss)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --loss (or 'loss' in the config file) must be finite")
        assert "loss_start" not in err and "loss_db" not in err

    def test_invalid_device_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--loss", "20", "--delta", "9")
        assert code == 2
        assert "delta" in err

    def test_infinite_mu_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--loss", "10", "--mu", "inf")
        assert code == 2
        assert "mu" in err

    def test_singular_device_is_numerical_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "rate", "--loss", "5", "--theta", "1.0", "--theta-mode", "dependent"
        )
        assert code == 3
        assert "numerical failure" in err

    def test_degenerate_device_is_numerical_failure(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--loss", "5", "--delta", "3.14159265")
        assert code == 3

    def test_argparse_rejects_unknown_choice(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["rate", "--loss", "20", "--method", "qq"])
        assert excinfo.value.code == 2


class TestParserReuse:
    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        from flawedqkd import cli

        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        argv = ("rate", "--loss", "20", "--delta", "0.126")
        first = run_cli(capsys, *argv)
        # A rejected command line in between leaves the kept parser as it was.
        with pytest.raises(SystemExit):
            main(["rate", "--loss", "20", "--method", "qq"])
        capsys.readouterr()
        second = run_cli(capsys, *argv)
        assert built == [1]
        assert first == second
        digest = hashlib.sha256(f"{first[0]}\n{first[1]}".encode()).hexdigest()
        assert digest == GOLDEN_DIGESTS[0][2]


class TestSweepCommand:
    def test_lossless_ladder(self, capsys):
        # with a perfect device and no dark counts the rate is eta/4
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--loss-range",
            "0:20:10",
            "--pd",
            "0",
            "--method",
            "lt",
            "--format",
            "json",
        )
        assert code == 0
        rates = [row["rate"] for row in json.loads(out)]
        assert rates == pytest.approx([0.25, 0.025, 0.0025], rel=1e-9)

    def test_byte_determinism(self, capsys):
        argv = ["sweep", "--loss-range", "0:30:5", "--delta", "0.126"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_jobs_flag_preserves_bytes(self, capsys):
        argv = ["sweep", "--loss-range", "0:30:5", "--delta", "0.126", "--mu", "1e-7"]
        _, serial, _ = run_cli(capsys, *argv, "--jobs", "1")
        _, parallel, _ = run_cli(capsys, *argv, "--jobs", "4")
        assert serial == parallel

    def test_partial_failure_keeps_exit_zero(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep",
            "--loss-range",
            "0:5:5",
            "--theta",
            "1.0",
            "--theta-mode",
            "dependent",
        )
        assert code == 0
        assert "warning:" in err
        lt_rows = [l for l in out.splitlines()[1:] if l.split(",")[2] == "lt"]
        assert all(l.endswith(",,,,") for l in lt_rows)

    def test_malformed_range(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--loss-range", "0:10")
        assert code == 2
        assert "start:stop:step" in err

    def test_missing_range(self, capsys):
        code, _, _ = run_cli(capsys, "sweep")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["sweep", "--loss-range", "0:inf:1"], "loss_stop"),
            (["sweep", "--loss-range", "0:nan:1"], "loss_stop"),
            (["sweep", "--loss-range", "0:10:inf"], "loss_step"),
            (["sweep", "--loss-range", "0:1e12:1e-9"], "loss_step"),
            (["sweep", "--loss-range", "inf:10:1"], "loss_start"),
            # The crossover search varies delta and the swept flaw itself.
            (CROSSOVER_ARGV + ["--delta", "0.3"], "delta"),
            (CROSSOVER_ARGV + ["--mu", "5"], "mu"),
            # A swept value out of range fails before the collinear 1.0 is
            # evaluated.
            (["crossover", "--sweep-param", "theta", "--sweep-values", "1.0,2.0"], "theta_hat"),
            # This once named loss_db, a channel field the user never set.
            (["sweep", "--loss-range=-1:10:1"], "loss_start must be nonnegative"),
        ],
    )
    def test_unusable_grid_is_usage_error(self, capsys, argv, field):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and field in err

    def test_vertex_solver_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--loss-range",
            "10:10:1",
            "--method",
            "lt",
            "--solver",
            "vertex-lp",
            "--delta",
            "0.063",
            "--theta",
            "1e-3",
            "--mu",
            "1e-7",
        )
        assert code == 0
        rate = float(out.splitlines()[1].split(",")[-1])
        assert rate == pytest.approx(0.00926864776575, rel=1e-8)


# A config-file value of the wrong JSON type, the command reading it, and the
# key the error must name.
WRONG_TYPE_CONFIGS = [
    ("loss", {"loss": "20"}, ["rate"]),
    ("loss_start", {"loss_start": "0", "loss_stop": 10, "loss_step": 5}, ["sweep"]),
    ("jobs", {"jobs": "2"}, ["sweep", "--loss-range", "0:10:5"]),
    ("swept_values", {"swept_values": "1e-9"}, ["crossover", "--sweep-param", "mu"]),
    ("solver", {"solver": ["x"]}, ["rate", "--loss", "10"]),
    ("device.delta", {"device": {"delta": "0.1"}}, ["rate", "--loss", "10"]),
    # Every key is checked at load, also one the command does not read.
    pytest.param("swept_values", {"swept_values": "1e-9"}, ["rate", "--loss", "10"],
                 id="swept_values-unread"),
]

# A config file the CLI must refuse, the command reading it and what its
# error must name: a misspelled key, a section that is not an object, a key
# unknown inside a section, an output format other than csv or json, the
# crossover's old fixed_value, which the device's mu or theta_hat gives,
# a crossover device setting delta or the swept flaw, which the search
# varies itself, and a negative start loss.  An int too large for a float,
# which json.dump writes out and json.load reads back as an int, compares
# below math.inf but overflows float(): it fails as an infinite value does.
CROSSOVER_FILE = {"swept_param": "mu", "swept_values": [1e-9]}
REFUSED_CONFIGS = [
    ("device.detla", {"device": {"detla": 0.1}, "loss": 10}, "rate", "'device.detla'"),
    ("lost", {"lost": 10, "loss": 10}, "rate", "'lost'"),
    ("device", {"device": 5, "loss": 10}, "rate", "'device'"),
    ("channel", {"channel": [1e-7], "loss": 10}, "rate", "'channel'"),
    ("probs.p_z", {"probs": {"p_z": 0.5}, "loss": 10}, "rate", "'probs.p_z'"),
    ("format", {"format": "xml", "loss": 10}, "rate", "'format'"),
    ("fixed_value", {"fixed_value": 1e-6, "loss": 10}, "rate", "'fixed_value'"),
    ("crossover-device.delta", {**CROSSOVER_FILE, "device": {"delta": 0.3, "theta_hat": 1e-6}},
     "crossover", "the device's delta must be 0"),
    ("crossover-device.mu", {**CROSSOVER_FILE, "device": {"theta_hat": 1e-6, "mu": 5}},
     "crossover", "the device's mu must be 0"),
    ("crossover-device.theta_hat",
     {"swept_param": "theta", "swept_values": [1e-4], "device": {"theta_hat": 1e-3}},
     "crossover", "the device's theta_hat must be 0"),
    ("loss_start", {"loss_start": -2, "loss_stop": 10, "loss_step": 1}, "sweep",
     "loss_start must be nonnegative, got -2"),
    ("loss-int-past-float-range", {"loss": 10**400}, "rate",
     "error: --loss (or 'loss' in the config file) must be finite and >= 0"),
    ("loss_stop-int-past-float-range", {"loss_start": 0, "loss_stop": 10**400, "loss_step": 5},
     "sweep", "error: loss_stop must be finite"),
    ("device.mu-int-past-float-range", {"device": {"mu": 10**400}, "loss": 10}, "rate",
     "error: mu must be finite"),
    ("channel.f_ec-int-past-float-range", {"channel": {"f_ec": 10**400}, "loss": 10}, "rate",
     "error: f_ec must be finite and >= 1"),
    ("compare_loss_db-int-past-float-range",
     {**CROSSOVER_FILE, "device": {"theta_hat": 1e-6}, "compare_loss_db": 10**400}, "crossover",
     "error: compare_loss_db must be finite and >= 0"),
]

# Per command, a config file giving every setting the command reads, and
# the same settings as flags; together they give every config-file key.
EQUIVALENT_CONFIGS = {
    "rate": (
        {
            "device": {"delta": 0.05, "theta_hat": 1e-4, "theta_mode": "independent", "mu": 1e-7},
            "probs": {"p_za": 0.6, "p_zb": 0.7},
            "channel": {"p_d": 2e-7, "f_ec": 1.1},
            "format": "json", "loss": 12.5, "methods": "lp", "solver": "vertex-lp",
        },
        "--delta 0.05 --theta 1e-4 --theta-mode independent --mu 1e-7 --pza 0.6 --pzb 0.7"
        " --pd 2e-7 --f-ec 1.1 --format json --loss 12.5 --method lp --solver vertex-lp",
    ),
    "sweep": (
        {
            "device": {"delta": 0.063, "theta_hat": 1e-3, "theta_mode": "dependent", "mu": 1e-7},
            "probs": {"p_za": 0.55, "p_zb": 0.5},
            "channel": {"p_d": 1e-7, "f_ec": 1.2},
            "format": "csv", "loss_start": 0, "loss_stop": 10, "loss_step": 2.5, "jobs": 2,
            "methods": ["lt"], "solver": "vertex_lp",
        },
        "--delta 0.063 --theta 1e-3 --theta-mode dependent --mu 1e-7 --pza 0.55 --pzb 0.5"
        " --pd 1e-7 --f-ec 1.2 --format csv --loss-range 0:10:2.5 --jobs 2 --method lt"
        " --solver vertex-lp",
    ),
    "crossover": (
        {
            "swept_param": "theta", "swept_values": [1e-4, 1e-3],
            "device": {"theta_mode": "dependent", "mu": 1e-8},
            "probs": {"p_za": 0.55, "p_zb": 0.45},
            "channel": {"p_d": 5e-8, "f_ec": 1.15},
            "compare_loss_db": 15, "bisection_tolerance": 1e-6, "format": "json",
            "solver": "paper",
        },
        "--sweep-param theta --sweep-values 1e-4,1e-3 --theta-mode dependent --mu 1e-8"
        " --pza 0.55 --pzb 0.45 --pd 5e-8 --f-ec 1.15 --compare-loss 15 --bisect-tol 1e-6"
        " --format json --solver paper",
    ),
}


class TestConfigFile:
    def test_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "loss": 20.0,
                    "device": {"delta": 0.126},
                    "methods": "lt",
                    "channel": {"p_d": 1e-7},
                }
            )
        )
        code, from_file, _ = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == 0
        _, from_flags, _ = run_cli(
            capsys, "rate", "--loss", "20", "--delta", "0.126", "--method", "lt"
        )
        assert from_file == from_flags

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"loss": 20.0, "device": {"delta": 0.126}}))
        code, overridden, _ = run_cli(capsys, "rate", "--config", str(cfg), "--delta", "0")
        assert code == 0
        _, plain, _ = run_cli(capsys, "rate", "--loss", "20", "--delta", "0")
        assert overridden == plain

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "rate", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_non_object_file(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("[1, 2, 3]")
        code, _, err = run_cli(capsys, "rate", "--config", str(cfg), "--loss", "10")
        assert code == 2
        assert "JSON object" in err

    @pytest.mark.parametrize(
        "key, content, argv",
        WRONG_TYPE_CONFIGS,
        ids=[getattr(case, "id", None) or case[0] for case in WRONG_TYPE_CONFIGS],
    )
    def test_wrong_json_type_is_usage_error(self, capsys, tmp_path, key, content, argv):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"'{key}'" in err


    @pytest.mark.parametrize(
        "key, content, command, named", REFUSED_CONFIGS, ids=[case[0] for case in REFUSED_CONFIGS]
    )
    def test_unknown_or_malformed_key_is_usage_error(
        self, capsys, tmp_path, key, content, command, named
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("command", list(EQUIVALENT_CONFIGS))
    def test_file_and_flags_print_the_same_bytes(self, capsys, tmp_path, command):
        given = {
            f"{key}.{inner}" if isinstance(value, dict) else key
            for content, _ in EQUIVALENT_CONFIGS.values()
            for key, value in content.items()
            for inner in (value if isinstance(value, dict) else [None])
        }
        assert given == {key for key, _ in _SETTINGS.values()}
        content, flags = EQUIVALENT_CONFIGS[command]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(content))
        from_file = run_cli(capsys, command, "--config", str(cfg))
        from_flags = run_cli(capsys, command, *flags.split())
        assert from_file[0] == 0
        assert from_file == from_flags

    def test_keys_of_other_commands_are_accepted(self, capsys, tmp_path):
        # one file can serve every subcommand: rate ignores the sweep range
        # and the crossover grid it holds
        cfg = tmp_path / "run.json"
        shared = {"device": {"delta": 0.126}, "format": "json"}
        others = {"loss_start": 0, "loss_stop": 10, "loss_step": 5, "swept_values": [1e-9]}
        cfg.write_text(json.dumps({**shared, **others, "loss": 20}))
        code, out, _ = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == 0
        _, plain, _ = run_cli(capsys, "rate", "--loss", "20", "--delta", "0.126", "--format", "json")
        assert out == plain


class TestCrossoverCommand:
    def test_leak_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "crossover",
            "--sweep-param",
            "mu",
            "--sweep-values",
            "1e-9,1e-7,1e-5",
            "--theta",
            "1e-6",
            "--compare-loss",
            "20",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# compare_loss_db=20"
        assert lines[2] == "mu,1e-09,0.03101370562,0.002053022286,0.002053022285,crossover"
        assert lines[3].startswith("mu,1e-07,0.1008112988,")
        assert lines[3].endswith(",crossover")
        assert lines[4] == "mu,1e-05,,,,no-crossover"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "crossover",
            "--sweep-param",
            "mu",
            "--sweep-values",
            "1e-9",
            "--theta",
            "1e-6",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["compare_loss_db"] == 20
        record = payload["records"][0]
        assert record["status"] == "crossover"
        assert record["delta_star"] == pytest.approx(0.0310137056, rel=1e-7)

    def test_tolerance_below_float_spacing_terminates(self):
        # Below the spacing of floats near delta*, the bracket stops at
        # adjacent floats.  A child process with a timeout turns a search
        # that never ends into a failure instead of a hung suite.
        src = str(Path(flawedqkd.__file__).resolve().parents[1])

        def delta_star(tol):
            result = subprocess.run(
                [sys.executable, "-m", "flawedqkd", "crossover", "--sweep-param", "mu",
                 "--sweep-values", "1e-8", "--theta", "1e-6", "--bisect-tol", tol],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
                timeout=60,
            )
            assert result.returncode == 0, result.stderr
            return float(result.stdout.splitlines()[2].split(",")[2])

        assert abs(delta_star("1e-300") - delta_star("1e-17")) <= 1e-16

    def test_needs_sweep_values(self, capsys):
        code, _, err = run_cli(capsys, "crossover", "--sweep-param", "mu")
        assert code == 2
        assert "sweep-values" in err

    def test_bad_values_list(self, capsys):
        code, _, _ = run_cli(
            capsys, "crossover", "--sweep-param", "mu", "--sweep-values", "a,b"
        )
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, capsys, tol):
        code, out, err = run_cli(
            capsys,
            "crossover",
            "--sweep-param",
            "mu",
            "--sweep-values",
            "1e-9",
            "--theta",
            "1e-6",
            "--bisect-tol",
            tol,
        )
        assert code == 2
        assert out == ""
        assert "bisection_tolerance" in err

    @pytest.mark.parametrize("loss", ["nan", "inf", "-1"])
    def test_unusable_compare_loss_is_usage_error(self, capsys, loss):
        # An infinite loss once printed "compare_loss_db": Infinity, which
        # is not JSON, and a no-crossover record for every value.
        code, out, err = run_cli(
            capsys,
            "crossover",
            "--sweep-param",
            "mu",
            "--sweep-values",
            "1e-9",
            "--theta",
            "1e-6",
            "--compare-loss",
            loss,
            "--format",
            "json",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "compare_loss_db" in err


def test_package_import_leaves_cli_unloaded():
    src = str(Path(flawedqkd.__file__).resolve().parents[1])
    code = "import sys, flawedqkd; print('flawedqkd.cli' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert result.stdout.strip() == "False"
