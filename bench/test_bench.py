"""Self-tests of the benchmark's correctness check.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import dataclasses

import pytest

from check import Outcome, check_call, check_pass, check_reference, recompute_sample
from flawedqkd.cli import main
from worker import Passes, run_pass
from workloads import CHECK_SEED, WORKLOADS, crossover_frontier, rate_points, sweep_vertex


@pytest.fixture(scope="module")
def rate_run():
    calls = rate_points(3)[:6]
    outs, _ = run_pass(main, calls)
    return calls, outs


def _corrupt_rate(out: Outcome) -> Outcome:
    # Second data row (lp): replace its rate with a value that is not
    # max(rate_raw, 0).
    lines = out.stdout.split("\n")
    cells = lines[2].split(",")
    cells[6] = "0.5"
    lines[2] = ",".join(cells)
    return dataclasses.replace(out, stdout="\n".join(lines))


def test_clean_outputs_pass(rate_run):
    calls, outs = rate_run
    assert check_pass(calls, outs) == 0
    assert recompute_sample(calls, outs, seed=1, size=len(calls) * 2) == 0


def test_corrupted_row_and_nonzero_exit_are_failures(rate_run):
    calls, outs = rate_run
    bad = list(outs)
    bad[0] = _corrupt_rate(outs[0])
    bad[1] = Outcome(code=3, stdout="")
    assert check_call(calls[0], bad[0]) == 1
    assert check_call(calls[1], bad[1]) == calls[1].rows
    assert check_pass(calls, bad) == 1 + calls[1].rows

    book = Passes(calls)
    book.add(bad)
    book.add(outs)  # a later pass that differs fails every row of each changed call
    assert book.failed == (1 + calls[1].rows) + (calls[0].rows + calls[1].rows)
    assert book.attempted == 2 * sum(c.rows for c in calls)


def test_recompute_catches_a_plausible_wrong_value(rate_run):
    calls, outs = rate_run
    lines = outs[0].stdout.split("\n")
    cells = lines[1].split(",")
    cells[3] = f"{float(cells[3]) * 1.001:.10g}"  # e_z still in [0, 1/2]
    lines[1] = ",".join(cells)
    bad = [dataclasses.replace(outs[0], stdout="\n".join(lines)), *outs[1:]]
    assert check_pass(calls, bad) == 0
    assert recompute_sample(calls, bad, seed=1, size=len(calls) * 2) == 1


def test_crossover_gate_and_order():
    calls = crossover_frontier(CHECK_SEED)
    outs, _ = run_pass(main, calls)
    assert check_pass(calls, outs) == 0
    lines = outs[0].stdout.split("\n")
    first = lines[2].split(",")
    first[4] = f"{float(first[4]) * 1.01:.10g}"  # rate_lp off the tie
    assert check_call(calls[0], Outcome(0, "\n".join([*lines[:2], ",".join(first), *lines[3:]]))) == 1
    second = lines[3].split(",")
    first = lines[2].split(",")
    first[2], second[2] = second[2], first[2]  # delta* no longer increases with mu
    swapped = [*lines[:2], ",".join(first), ",".join(second), *lines[4:]]
    assert check_call(calls[0], Outcome(0, "\n".join(swapped))) == 1


def test_reference_mismatch_fails_the_call_rows():
    calls = sweep_vertex(CHECK_SEED)[:1]
    out = Outcome(0, "loss_db,eta,method,e_z,e_x,rate_raw,rate\n")
    assert check_reference(calls, [out], ["0" * 64]) == calls[0].rows


def test_workloads_are_seeded():
    for build in WORKLOADS.values():
        assert [c.argv for c in build(7)] == [c.argv for c in build(7)]
        assert [c.argv for c in build(7)] != [c.argv for c in build(8)]
