"""Golden CLI outputs: the case table, re-recording, and the moved-cell report.

Each case runs ``flawedqkd.cli.main`` on one command line.  Its exit code
and stdout, as ``f"{code}\\n{stdout}"``, are committed byte for byte in
``tests/golden/<name>.txt``, and ``tests/test_cli.py`` compares them
exactly.  A case's stderr, where the table gives one, is pinned in the
table.

    python tests/golden_cli.py                  rewrite every golden file
    python tests/golden_cli.py OLD_DIR NEW_DIR  report the cells that moved

Re-record only in a change that moves printed numbers on purpose, and
paste the report of the old files against the new into CHANGES.md.
"""

import contextlib
import csv
import io
import json
import math
import random
import sys
from pathlib import Path

from flawedqkd.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


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

# (name, command line, stderr or None) of each golden case.  They cover
# both formats and solvers, every estimator error the CLI reaches
# (collinear states, a degenerate virtual state, no detections at eta = 0
# and at a subnormal eta, and their precedence within one row), the
# underflow tail near eta = 1e-250, and the subnormal eta where e_z turns
# negative: each such point reports it in its error slot, ahead of lt's
# own failures.
CASES = [
    ("rate-csv", "rate --loss 20 --delta 0.126", None),
    ("rate-paper-json", "rate --loss 10 --delta 0.063 --theta 1e-3 --mu 1e-7 --format json", None),
    ("rate-vertex-csv", "rate --loss 10 --delta 0.063 --theta 1e-3 --mu 1e-7 --solver vertex-lp",
     None),
    ("rate-lp-options", "rate --loss 3.7 --delta 0.2 --theta 0.01 --theta-mode independent"
     " --mu 1e-5 --method lp --pza 0.7 --pzb 0.6 --f-ec 1.1", None),
    ("sweep-both-csv", "sweep --loss-range 0:70:0.5 --delta 0.126 --method both", None),
    ("sweep-both-json", "sweep --loss-range 0:40:0.25 --delta 0.05 --theta 1e-4"
     " --theta-mode independent --mu 1e-7 --format json", None),
    ("sweep-fine-grid", "sweep --loss-range 0:3:0.05 --delta 0.09 --theta 5e-4 --mu 1e-6"
     " --pd 1e-6 --pza 0.8", None),
    ("sweep-vertex", "sweep --loss-range 0:40:2 --method lt --solver vertex-lp --delta 0.063"
     " --theta 1e-3 --mu 1e-7", None),
    ("sweep-lp-json", "sweep --loss-range 0:60:1 --method lp --mu 1e-6 --format json", None),
    ("crossover-csv", "crossover --sweep-param mu --sweep-values 1e-9,1e-8,1e-5 --theta 1e-6",
     None),
    ("crossover-theta-json", "crossover --sweep-param theta --sweep-values 1e-4,1e-3 --mu 1e-8"
     " --compare-loss 15 --format json", None),
    ("crossover-vertex", "crossover --sweep-param mu --sweep-values 1e-8 --theta 1e-6"
     " --solver vertex-lp --bisect-tol 1e-6", None),
    ("collinear-rate", "rate --loss 5 --theta 1.0",
     "numerical failure: the three encoding states are collinear; the yield system cannot be"
     " inverted\n"),
    ("collinear-sweep", "sweep --loss-range 0:10:5 --theta 1.0", None),
    ("degenerate-rate", "rate --loss 5 --delta 3.14159265",
     "numerical failure: virtual state j=0 has no qubit component (A_j = 0.0)\n"),
    ("degenerate-sweep-json", "sweep --loss-range 0:10:5 --delta 3.14159265 --format json", None),
    ("no-detections-csv", "sweep --pd 0 --loss-range 0:5000:2500", None),
    ("no-detections-json", "sweep --pd 0 --loss-range 0:5000:2500 --delta 0.1 --mu 1e-7"
     " --format json", None),
    ("no-detections-rate", "rate --pd 0 --loss 5000",
     "numerical failure: no detections: eta = 0 and p_d = 0\n"),
    ("error-precedence-json", "sweep --pd 0 --loss-range 0:5000:2500 --theta 1.0"
     " --delta 3.14159265 --format json", None),
    ("subnormal-eta-json", "sweep --pd 0 --loss-range 3228:3238:1 --delta 0.1 --format json",
     None),
    ("underflow-tail", "sweep --loss-range 2400:2600:50 --delta 0.1 --theta 1e-3 --mu 1e-7", None),
    ("underflow-tail-vertex", "sweep --loss-range 2500:3300:100 --pd 0 --solver vertex-lp"
     " --delta 0.1 --mu 1e-3", None),
    ("negative-e-z-lp-abort", "sweep --loss-range 3225:3225.3:0.1 --delta 1e-8 --pd 0",
     NEGATIVE_E_Z_WARNINGS),
    ("negative-e-z-entropy-abort", "sweep --loss-range 3225:3225.3:0.1 --pd 0",
     NEGATIVE_E_Z_WARNINGS),
    ("crossover-lt-failure-first", "crossover --sweep-param mu --sweep-values 1e-9"
     " --compare-loss 3225.2 --pd 0",
     "numerical failure: e_z = -0.16666666666666666 < 0 at eta = 3e-323\n"),
    ("crossover-frontier-seed-0", _frontier_command(0), None),
    ("crossover-vertex-two-values", "crossover --sweep-param mu --sweep-values 1e-9,1e-7"
     " --theta 1e-6 --solver vertex-lp", None),
    ("crossover-theta-sweep", "crossover --sweep-param theta --sweep-values 1e-5,1e-4,1e-3"
     " --mu 1e-9 --compare-loss 25", None),
    ("crossover-independent-no-crossover", "crossover --sweep-param mu"
     " --sweep-values 1e-9,1e-6,1e-3 --theta 1e-4 --theta-mode independent", None),
    ("crossover-collinear", "crossover --sweep-param theta --sweep-values 1.0,0.1",
     "numerical failure: the three encoding states are collinear; the yield system cannot be"
     " inverted\n"),
    ("crossover-subnormal-no-crossover", "crossover --sweep-param mu --sweep-values 1e-9"
     " --compare-loss 3200 --pd 0", None),
    ("crossover-subnormal-entropy-abort", "crossover --sweep-param mu --sweep-values 1e-9,1e-3"
     " --compare-loss 3203 --pd 0",
     "numerical failure: e_z = -0.0009861932938856016 < 0 at eta = 5.01e-321\n"),
    ("crossover-json", "crossover --sweep-param mu --sweep-values 1e-8,3e-8 --theta 1e-5"
     " --format json", None),
    # The lt/lp frontier over the leak, first recorded from the default run
    # of the frontier script this command replaced.
    ("crossover-frontier-default", "crossover --sweep-param mu"
     " --sweep-values 1e-9,3e-9,1e-8,3e-8,1e-7,3e-7,1e-6,3e-6,1e-5 --theta 1e-6", None),
    # Error rows and their null fields, crossover nulls, and the vertex
    # solver, in JSON.
    ("sweep-error-rows", "sweep --loss-range 0:5:5 --theta 1.0 --format json", None),
    ("crossover-nulls", "crossover --sweep-param mu --sweep-values 1e-9,1e-7,1e-5 --theta 1e-6"
     " --format json", None),
    ("rate-vertex-json", "rate --loss 20 --delta 0.126 --solver vertex-lp --format json", None),
    # One method per rate, a single-point vertex sweep, and the crossover
    # CSV with an explicit comparison loss and JSON with its default.
    ("rate-lt", "rate --loss 20 --method lt --delta 0.126", None),
    ("rate-lp-json", "rate --loss 20 --method lp --format json", None),
    ("sweep-vertex-point", "sweep --loss-range 10:10:1 --method lt --solver vertex-lp"
     " --delta 0.063 --theta 1e-3 --mu 1e-7", None),
    ("crossover-leak-sweep", "crossover --sweep-param mu --sweep-values 1e-9,1e-7,1e-5"
     " --theta 1e-6 --compare-loss 20", None),
    ("crossover-one-value-json", "crossover --sweep-param mu --sweep-values 1e-9 --theta 1e-6"
     " --format json", None),
    # Single-method sweep CSVs with their warnings: an lp-only error row,
    # and collinear lt error rows.
    ("sweep-lp-error-row", "sweep --loss-range 0:5000:2500 --pd 0 --method lp",
     "warning: loss=5000 method=lp: no detections: eta = 0 and p_d = 0\n"),
    ("collinear-sweep-lt", "sweep --loss-range 0:10:5 --theta 1.0 --method lt", "".join(
        f"warning: loss={loss} method=lt: the three encoding states are collinear; the yield"
        " system cannot be inverted\n" for loss in ("0", "5", "10"))),
]


def run(command):
    """Run ``cli.main`` on a command line; return f"{code}\\n{stdout}" and
    the stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    return f"{code}\n{out.getvalue()}", err.getvalue()


def golden(name, directory=GOLDEN_DIR):
    """The committed output of a case, its bytes decoded unchanged."""
    return (directory / f"{name}.txt").read_bytes().decode("utf-8")


def record():
    """Rewrite every golden file from the CLI."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, command, _ in CASES:
        (GOLDEN_DIR / f"{name}.txt").write_bytes(run(command)[0].encode("utf-8"))


# The moved-cell report.


def _cell(value):
    # A CSV cell or JSON value as a float where it is a number, None where
    # it is empty, and as given otherwise.
    if value is None or value == "":
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return value


def parse(text):
    """The exit code and the rows of a golden file's text, each row a dict
    of its cells; a crossover's comparison loss is left out."""
    code, _, out = text.partition("\n")
    if out.startswith(("[", "{")):
        payload = json.loads(out)
        items = payload["records"] if isinstance(payload, dict) else payload
    else:
        items = csv.DictReader(line for line in out.splitlines() if not line.startswith("#"))
    return int(code), [{key: _cell(v) for key, v in item.items()} for item in items]


def _status(row):
    # A crossover record's own status; a sweep row is an error row when its
    # rate is empty.
    if "status" in row:
        return row["status"]
    return "error" if row.get("rate") is None else "ok"


def _moved(old, new):
    # Whether a cell moved, and its relative change where both are numbers.
    if old == new or old != old and new != new:
        return False, None
    if isinstance(old, float) and isinstance(new, float):
        return True, abs(new - old) / abs(old) if old else math.inf
    return True, None


def compare(old_text, new_text):
    """The moves from one case's old output to its new one: the exit codes
    and row counts, per column the number of cells that moved and the
    largest relative change among those that stayed numbers (None if
    none did), and each row whose status changed.  Rows are matched by
    position."""
    old_code, old_rows = parse(old_text)
    new_code, new_rows = parse(new_text)
    columns = {}
    flips = []
    for i, (old, new) in enumerate(zip(old_rows, new_rows)):
        for key in old.keys() | new.keys():
            moved, change = _moved(old.get(key), new.get(key))
            if moved:
                count, largest = columns.get(key, (0, None))
                changes = [c for c in (largest, change) if c is not None]
                columns[key] = (count + 1, max(changes, default=None))
        if _status(old) != _status(new):
            where = ", ".join(f"{k}={old[k]}" for k in ("loss_db", "method", "swept_value")
                              if k in old)
            flips.append(f"row {i} ({where}): {_status(old)} -> {_status(new)}")
    return {
        "codes": (old_code, new_code),
        "rows": (len(old_rows), len(new_rows)),
        "columns": dict(sorted(columns.items())),
        "flips": flips,
    }


def report(old_dir, new_dir):
    """The moved-cell report of two directories of golden files, as lines:
    one block per case whose bytes differ, and a line per case whose file
    is in only one of them."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    names = sorted({p.stem for d in (old_dir, new_dir) for p in d.glob("*.txt")})
    lines = []
    for name in names:
        old_path, new_path = old_dir / f"{name}.txt", new_dir / f"{name}.txt"
        if not (old_path.exists() and new_path.exists()):
            lines.append(f"{name}: only in {old_dir if old_path.exists() else new_dir}")
            continue
        old_text, new_text = golden(name, old_dir), golden(name, new_dir)
        if old_text == new_text:
            continue
        moves = compare(old_text, new_text)
        lines.append(name)
        for what, (old, new) in (("exit code", moves["codes"]), ("rows", moves["rows"])):
            if old != new:
                lines.append(f"  {what}: {old} -> {new}")
        for key, (count, largest) in moves["columns"].items():
            change = "" if largest is None else f", largest relative change {largest:.3g}"
            lines.append(f"  {key}: {count} moved{change}")
        lines += [f"  {flip}" for flip in moves["flips"]]
    return lines


if __name__ == "__main__":
    if len(sys.argv) == 1:
        record()
    elif len(sys.argv) == 3:
        print("\n".join(report(*sys.argv[1:])) or "no golden file moved")
    else:
        sys.exit("usage: python tests/golden_cli.py [OLD_DIR NEW_DIR]")
