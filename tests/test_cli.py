import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flawedqkd
from flawedqkd import (
    CrossoverConfig,
    CrossoverRecord,
    DeviceModel,
    EstimatorError,
    GridRates,
    Sweep,
    SweepConfig,
    SweepRow,
    loss_grid,
    run_sweep,
)
from flawedqkd import cli
from flawedqkd.cli import _SETTINGS, crossover_csv, crossover_json, main, sweep_csv, sweep_json
from flawedqkd.grid import METHODS
from golden_cli import CASES, GOLDEN_DIR, golden, run

IDEAL = DeviceModel()


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
        serial = run_sweep(SweepConfig(**base, jobs=1)).rows()
        parallel = run_sweep(SweepConfig(**base, jobs=4)).rows()
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
            return run_sweep(SweepConfig(device, 0.0, 20.0, 5.0, probs=probs,
                                         methods=methods)).rows()

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
# A method's columns are float arrays: the numbers a float holds, ints
# among them.
column_numbers = st.one_of(
    st.floats(allow_subnormal=True),
    st.integers(-2**1000, 2**1000),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308, -1e-300]),
)


@st.composite
def sweeps(draw):
    # One or two methods over up to 6 points, sharing one e_z column unless
    # drawn apart, with a failure at any (point, method).
    n = draw(st.integers(0, 6))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    def array():
        return np.array(column(column_numbers), dtype=float)

    methods = draw(st.lists(st.text(), min_size=1, max_size=2, unique=True))
    shared = array() if draw(st.booleans()) else None
    failures = st.one_of(st.none(), st.builds(EstimatorError, st.text()))
    rates = {m: GridRates(array() if shared is None else shared, array(), array(),
                          column(failures)) for m in methods}
    return Sweep(column(numbers), column(numbers), rates)

crossover_records = st.builds(
    CrossoverRecord, st.text(), numbers, cells, cells, cells, st.text()
)


class TestRendering:
    @given(sweep=sweeps())
    @settings(max_examples=200)
    def test_sweep_renderers_equal_the_per_cell_rendering(self, sweep):
        rows = sweep.rows()
        assert _outcome(sweep_csv, sweep) == _outcome(_per_cell_csv, [], rows, SWEEP_COLUMNS)
        assert _outcome(sweep_json, sweep) == _outcome(_per_cell_sweep_json, rows)

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
        numbers = np.array([0.25])
        sweep = Sweep([5.0], [0.316], {"lt": GridRates(numbers, numbers, numbers,
                                                       [EstimatorError("boom")])})
        csv_text = sweep_csv(sweep)
        assert csv_text.splitlines()[1] == "5,0.316,lt,,,,"
        payload = json.loads(sweep_json(sweep))
        assert payload[0]["rate"] is None
        assert payload[0]["error"] == "boom"

    def test_crossover_csv_carries_comparison_loss(self):
        text = crossover_csv([], 20.0)
        assert text.splitlines()[0] == "# compare_loss_db=20"
        assert text.splitlines()[1] == "swept_param,swept_value,delta_star,rate_lt,rate_lp,status"


class TestGoldenDigests:
    # Each case's exit code and stdout against its committed file in
    # tests/golden/, byte for byte; golden_cli.py re-records them.  The
    # class keeps the name it had when it held sha256 digests, so that the
    # case ids stay as they were.
    @pytest.mark.parametrize("name, command, stderr", CASES, ids=[case[0] for case in CASES])
    def test_exit_code_and_stdout(self, name, command, stderr):
        output, err = run(command)
        assert output == golden(name)
        if stderr is not None:
            assert err == stderr

    def test_every_case_has_one_file(self):
        names = [name for name, _, _ in CASES]
        assert len(set(names)) == len(names)
        assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(f"{n}.txt" for n in names)


class TestRateCommand:
    def test_both_methods_order(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--loss", "20")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "lt"
        assert lines[2].split(",")[2] == "lp"

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
        assert f"{first[0]}\n{first[1]}" == golden("rate-csv")


def full_parse(argv):
    # The reference parse: the whole line through the top-level parser,
    # which hands the tokens after the command to that command's parser.
    given = vars(cli.build_parser().parse_args(argv))
    return given.pop("command"), given


def outcome(argv):
    """main's exit code, or SystemExit's, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def reference_outcome(argv):
    with mock.patch.object(cli, "_parse", full_parse):
        return outcome(argv)


# Command-line pieces for every command: flags of each command, an
# abbreviation, help, stray options, and values good and bad for them.
COMMANDS = ("rate", "sweep", "crossover")
FLAGS = (
    "--loss", "--los", "--method", "--delta", "--theta", "--theta-mode", "--mu", "--pd",
    "--f-ec", "--pza", "--pzb", "--format", "--solver", "--config", "--loss-range", "--jobs",
    "--sweep-param", "--sweep-values", "--compare-loss", "--bisect-tol", "--bogus", "-h",
    "--he", "-x", "-",
)
VALUES = (
    "20", "0", "0.1", "1e-9", "-1", "abc", "", "nan", "0:10:5", "0:1", "1", "lt", "lp", "both",
    "qq", "json", "csv", "paper", "vertex-lp", "mu", "theta", "dependent", "1e-9,1e-7", "--",
)
command_lines = st.builds(
    lambda head, parts: [*head, *(token for part in parts for token in part)],
    st.sampled_from([[c] for c in COMMANDS] * 4 + [[], ["frobnicate"], ["--"], ["-h"]]),
    st.lists(
        st.one_of(
            st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
            st.builds(lambda f, v: (f"{f}={v}",), st.sampled_from(FLAGS), st.sampled_from(VALUES)),
            st.tuples(st.sampled_from(FLAGS + VALUES + COMMANDS)),
        ),
        max_size=6,
    ),
)


class TestParseParity:
    """main parses a line through its command's own parser; what it prints
    and returns must equal what the full two-level parse gives."""

    @pytest.mark.parametrize(
        "argv",
        [
            "rate --loss 20 --bogus 1",
            "rate --loss 20 --method qq",
            "rate --loss abc",
            "rate --loss",
            "",
            "frobnicate --loss 1",
            "--delta 0.1 rate --loss 5",
            "-- rate --loss 20",
            "rate --los 20",
            "rate --loss=20",
            "rate -h",
            "sweep --loss-range 0:1:1 --jobs 1 extra",
        ],
    )
    def test_table(self, argv):
        assert outcome(argv.split()) == reference_outcome(argv.split())

    @given(argv=command_lines)
    @settings(max_examples=150, deadline=None)
    def test_generated_lines(self, argv):
        assert outcome(argv) == reference_outcome(argv)

    @pytest.mark.parametrize("argv", ["rate --loss 20", "rate --loss 20 extra", "-h"])
    def test_none_reads_sys_argv(self, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["flawedqkd", *argv.split()])
        assert outcome(None) == reference_outcome(argv.split())


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

    def test_csv_builds_no_rows(self, capsys, monkeypatch):
        # The sweep CSV is written from the evaluated columns: no SweepRow
        # is built on the way.
        argv = ["sweep", "--loss-range", "0:10:5", "--method", "both"]
        expected = run_cli(capsys, *argv)

        def refuse(*args, **kwargs):
            raise AssertionError("a SweepRow was built")

        monkeypatch.setattr(SweepRow, "_make", refuse)
        monkeypatch.setattr(SweepRow, "__new__", refuse)
        assert run_cli(capsys, *argv) == expected

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
            (["sweep", "--loss-range", "0:a:1"], "--loss-range needs numeric start:stop:step"),
        ],
    )
    def test_unusable_grid_is_usage_error(self, capsys, argv, field):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and field in err


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
    ("swept_param", {"swept_param": "delta", "swept_values": [1e-9]}, "crossover",
     "swept_param must be one of ('theta', 'mu')"),
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


def test_module_entry_point_prints_what_main_prints(capsys):
    # python -m flawedqkd runs __main__ and cli.entry, which exits with
    # main's return code.
    src = str(Path(flawedqkd.__file__).resolve().parents[1])

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "flawedqkd", *argv], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)

    argv = ("rate", "--loss", "10", "--delta", "0.1")
    result = module(*argv)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert (result.returncode, result.stdout, result.stderr) == (0, out.encode(), b"")
    missing = module("rate")
    assert missing.returncode == 2
    assert missing.stderr == b"error: rate needs --loss (or 'loss' in the config file)\n"


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
