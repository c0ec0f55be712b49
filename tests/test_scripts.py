"""Smoke runs of the scripts in scripts/, each in-process on a tiny grid."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Script, its arguments, the CSV header it must print, and its data rows.
CASES = [
    (
        "loss_sweep",
        ["--loss-range", "0:10:5", "--devices", "clean,leaky"],
        "device,loss_db,eta,method,e_z,e_x,rate_raw,rate",
        12,
    ),
    (
        "solver_comparison",
        ["--loss-stop", "2"],
        "loss_db,e_x_interval,e_x_vertex,rate_interval,rate_vertex,rate_gain",
        3,
    ),
]


@pytest.mark.parametrize("name, argv, header, n_rows", CASES, ids=[c[0] for c in CASES])
def test_script_prints_its_csv(capsys, name, argv, header, n_rows):
    assert load_script(name).main(argv) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert lines[0] == header
    assert len(lines) == 1 + n_rows


# Script, an argument it must refuse, and what the usage error must say.
REFUSED = [
    # A zero step once printed rows until killed.
    ("solver_comparison", "--loss-step=0", "loss_step must be positive"),
    ("solver_comparison", "--loss-step=-1", "loss_step must be positive"),
    # Each of these once ended in a traceback and exit 1.
    ("loss_sweep", "--loss-range=0:10:0", "loss_step must be positive"),
    ("loss_sweep", "--loss-range=0:10:-1", "loss_step must be positive"),
    ("loss_sweep", "--loss-range=0:10", "start:stop:step"),
    ("loss_sweep", "--solver=bogus", "invalid choice: 'bogus'"),
    # Passed on to the sweeps, whose JSON the CSV stream cannot carry.
    ("loss_sweep", "--format=json", "--format json is not supported"),
    ("loss_sweep", "--pd=2", "p_d must lie in [0, 1)"),
]


@pytest.mark.parametrize("name, arg, message", REFUSED, ids=[f"{c[0]}{c[1]}" for c in REFUSED])
def test_script_rejects_a_bad_argument(capsys, name, arg, message):
    with pytest.raises(SystemExit) as excinfo:
        load_script(name).main([arg])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_solver_comparison_exits_3_on_a_failed_row(capsys):
    # A collinear device fails every lt row; this once ended in a traceback.
    assert load_script("solver_comparison").main(["--theta", "1.0", "--loss-stop", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: the three encoding states are collinear")
