"""The moved-cell report of tests/golden_cli.py, on edited copies of the
golden files."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import flawedqkd
from golden_cli import GOLDEN_DIR, compare, golden, report


@pytest.fixture
def copy(tmp_path):
    shutil.copytree(GOLDEN_DIR, tmp_path / "golden")
    return tmp_path / "golden"


def edit(directory, name, old, new):
    text = golden(name, directory)
    assert text.count(old) == 1
    (directory / f"{name}.txt").write_bytes(text.replace(old, new).encode("utf-8"))


def test_an_unchanged_copy_reports_nothing(copy):
    assert report(GOLDEN_DIR, copy) == []


@pytest.mark.parametrize(
    "name, old, new, column",
    [
        ("rate-lt", ",1.994920602e-05,", ",1.994920702e-05,", "e_x"),
        ("rate-vertex-json", '"e_x": 0.3739764967', '"e_x": 0.3739764968', "e_x"),
        ("crossover-leak-sweep", ",0.1008112988,", ",0.1008112989,", "delta_star"),
        ("crossover-nulls", '"delta_star": 0.03101370562', '"delta_star": 0.03101370572',
         "delta_star"),
    ],
    ids=["csv", "json", "crossover-csv", "crossover-json"],
)
def test_a_one_digit_edit_moves_one_cell(copy, name, old, new, column):
    edit(copy, name, old, new)
    before, after = (float(s.strip(",").split()[-1]) for s in (old, new))
    change = (after - before) / before
    moves = compare(golden(name), golden(name, copy))
    assert moves["columns"] == {column: (1, pytest.approx(change, rel=1e-6))}
    assert moves["flips"] == []
    assert report(GOLDEN_DIR, copy) == [
        name, f"  {column}: 1 moved, largest relative change {moves['columns'][column][1]:.3g}"
    ]


@pytest.mark.parametrize(
    "name, old, new, flip",
    [
        ("crossover-leak-sweep", "mu,1e-07,0.1008112988,0.0003110765319,0.0003110765325,crossover",
         "mu,1e-07,,,,no-crossover", "row 1 (swept_value=1e-07): crossover -> no-crossover"),
        ("crossover-nulls", '"delta_star": null,\n      "rate_lt": null,\n      "rate_lp": null,\n'
         '      "status": "no-crossover"', '"delta_star": 0.2,\n      "rate_lt": 0.001,\n'
         '      "rate_lp": 0.001,\n      "status": "crossover"',
         "row 2 (swept_value=1e-05): no-crossover -> crossover"),
        ("rate-lt", "0.002266912066,0.002266912066", ",", "row 0 (loss_db=20.0, method=lt): ok -> error"),
        ("sweep-error-rows", '"rate_raw": -1.183351605e-06,\n    "rate": 0.0',
         '"rate_raw": null,\n    "rate": null', "row 3 (loss_db=5.0, method=lp): ok -> error"),
    ],
    ids=["crossover-csv", "crossover-json", "sweep-csv", "sweep-json"],
)
def test_a_status_flip_is_listed(copy, name, old, new, flip):
    edit(copy, name, old, new)
    assert f"  {flip}" in report(GOLDEN_DIR, copy)


def test_an_exit_code_and_a_missing_file_are_listed(copy):
    (copy / "rate-lt.txt").write_bytes(b"3\n")
    (copy / "rate-csv.txt").unlink()
    assert report(GOLDEN_DIR, copy) == [
        f"rate-csv: only in {GOLDEN_DIR}",
        "rate-lt",
        "  exit code: 0 -> 3",
        "  rows: 1 -> 0",
    ]


def test_the_script_reports_two_directories(copy):
    edit(copy, "rate-lt", ",1.994920602e-05,", ",1.994920702e-05,")
    script = Path(__file__).resolve().parent / "golden_cli.py"
    src = str(Path(flawedqkd.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, str(script), str(GOLDEN_DIR), str(copy)],
                            capture_output=True, text=True, check=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout == "\n".join(report(GOLDEN_DIR, copy)) + "\n"
