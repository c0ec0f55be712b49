import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flawedqkd
from flawedqkd import (
    CrossoverConfig,
    DeviceModel,
    ProtocolProbabilities,
    SweepConfig,
    SweepRow,
    loss_grid,
    run_sweep,
)
from flawedqkd.cli import crossover_csv, main, sweep_csv, sweep_json

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


class TestSweepConfig:
    def test_rejects_bad_ranges(self):
        probs = ProtocolProbabilities()
        with pytest.raises(ValueError):
            SweepConfig(IDEAL, 1e-7, 1.16, probs, 10.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SweepConfig(IDEAL, 1e-7, 1.16, probs, 0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            SweepConfig(IDEAL, 1e-7, 1.16, probs, 0.0, 10.0, 1.0, methods=("qq",))
        with pytest.raises(ValueError):
            SweepConfig(IDEAL, 1e-7, 1.16, probs, 0.0, 10.0, 1.0, solver="other")
        with pytest.raises(ValueError):
            SweepConfig(IDEAL, 1e-7, 1.16, probs, 0.0, 10.0, 1.0, jobs=0)

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
            SweepConfig(IDEAL, 1e-7, 1.16, ProtocolProbabilities(), start, stop, step)

    def test_largest_allowed_grid(self):
        config = SweepConfig(IDEAL, 1e-7, 1.16, ProtocolProbabilities(), 0.0, 999999.0, 1.0)
        assert config.loss_stop == 999999.0


class TestCrossoverConfig:
    def test_rejects_bad_setups(self):
        with pytest.raises(ValueError):
            CrossoverConfig("mu", 1e-6, "mu", (1e-9,))
        with pytest.raises(ValueError):
            CrossoverConfig("gamma", 1e-6, "mu", (1e-9,))
        with pytest.raises(ValueError):
            CrossoverConfig("theta", 1e-6, "mu", ())
        with pytest.raises(ValueError):
            CrossoverConfig("theta", 1e-6, "mu", (1e-9,), bisection_tolerance=0.0)


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
            SweepConfig(IDEAL, 1e-7, 1.16, probs, 0.0, 10.0, 10.0, methods=("lt", "lp"))
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
            SweepConfig(device, 1e-7, 1.16, probs, 0.0, 5.0, 5.0, methods=("lt", "lp"))
        )
        lt_rows = [r for r in rows if r.method == "lt"]
        lp_rows = [r for r in rows if r.method == "lp"]
        assert all(r.error is not None and r.rate is None for r in lt_rows)
        assert all(r.error is None and r.rate is not None for r in lp_rows)


class TestRendering:
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

    def test_invalid_device_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--loss", "20", "--delta", "9")
        assert code == 2
        assert "delta" in err

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
            (["rate", "--loss", "inf"], "loss_start"),
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

    def test_needs_sweep_values(self, capsys):
        code, _, err = run_cli(capsys, "crossover", "--sweep-param", "mu")
        assert code == 2
        assert "sweep-values" in err

    def test_bad_values_list(self, capsys):
        code, _, _ = run_cli(
            capsys, "crossover", "--sweep-param", "mu", "--sweep-values", "a,b"
        )
        assert code == 2


class TestAzumaCommand:
    def test_pinned_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "azuma",
            "--n-trials",
            "1000000",
            "--eps",
            "1e-6",
            "--eps-hat",
            "1e-6",
            "--observed",
            "1000",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n_trials,observed,epsilon,epsilon_hat,f_eps,f_eps_hat,low,high"
        assert lines[1] == "1000000,1000,1e-06,1e-06,5256.52177,5256.52177,0,6256.52177"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "azuma",
            "--n-trials",
            "1000",
            "--eps",
            "1e-3",
            "--eps-hat",
            "1e-3",
            "--observed",
            "500",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_trials"] == 1000
        assert payload["low"] == pytest.approx(500 - payload["f_eps_hat"], rel=1e-9)

    def test_bad_budget(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "azuma",
            "--n-trials",
            "1000",
            "--eps",
            "0",
            "--eps-hat",
            "1e-3",
            "--observed",
            "500",
        )
        assert code == 2


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
