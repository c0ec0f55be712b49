"""The benchmark's check-seed calls still print the recorded bytes.

Each workload's calls for bench/workloads.py's check seed run through
``flawedqkd.cli.main``, as bench/worker.py runs them, and the digest of
every call's exit code and output must equal the one bench/reference.json
holds.  So a change that moves a printed byte fails here, in the tests,
as well as in the benchmark's correctness count.  Nothing under bench/ is
written.
"""

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from worker import run_pass

    return workloads, run_pass


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_check_seed_outputs_match_the_reference(bench_modules, workload):
    from flawedqkd.cli import main

    workloads, run_pass = bench_modules
    calls = workloads.WORKLOADS[workload](workloads.CHECK_SEED)
    outs, _ = run_pass(main, calls)
    digests = [out.digest() for out in outs]
    assert len(digests) == len(REFERENCE[workload])
    moved = [i for i, (got, want) in enumerate(zip(digests, REFERENCE[workload])) if got != want]
    assert not moved, f"{workload}: calls {moved} print other bytes than the reference"


def test_every_workload_has_a_reference(bench_modules):
    workloads, _ = bench_modules
    assert sorted(workloads.WORKLOADS) == sorted(REFERENCE)
