"""Correctness checks on the bytes the CLI printed.

Every function returns the number of failed output rows (sweep rows, rate
rows or crossover records); a call that exited nonzero fails all of the
rows it should have printed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import flawedqkd

from workloads import Call

SWEEP_HEADER = "loss_db,eta,method,e_z,e_x,rate_raw,rate"
CROSSOVER_HEADER = "swept_param,swept_value,delta_star,rate_lt,rate_lp,status"
RECOMPUTED = ("e_z", "e_x", "rate_raw", "rate")


@dataclass(frozen=True)
class Outcome:
    """Exit code and standard output of one call."""

    code: int
    stdout: str

    def digest(self) -> str:
        return hashlib.sha256(f"{self.code}\n{self.stdout}".encode()).hexdigest()


def _row_lines(call: Call, out: Outcome) -> list[str] | None:
    """Data lines of a successful call, or None if its header is wrong."""
    if out.code != 0 or not out.stdout.endswith("\n"):
        return None
    lines = out.stdout[:-1].split("\n")
    if call.kind == "rows":
        head = [SWEEP_HEADER]
    else:
        head = [f"# compare_loss_db={call.compare_loss_db:.10g}", CROSSOVER_HEADER]
    if lines[: len(head)] != head:
        return None
    return lines[len(head):]


def _sweep_row_ok(cells: list[str], method: str) -> bool:
    if len(cells) != 7 or cells[2] != method or "" in cells:
        return False
    try:
        e_z, e_x, rate_raw, rate = (float(c) for c in cells[3:])
    except ValueError:
        return False
    return rate == max(rate_raw, 0.0) and 0.0 <= e_z <= 0.5 and 0.0 <= e_x <= 1.0


def _crossover_failures(call: Call, lines: list[str]) -> int:
    channel = flawedqkd.ChannelModel(call.compare_loss_db)
    gate = 1e-6 * flawedqkd.z_basis_yield(channel, flawedqkd.ProtocolProbabilities())
    failed = 0
    found = []
    for line in lines:
        cells = line.split(",")
        if len(cells) != 6 or cells[5] != "crossover":
            failed += 1
            continue
        try:
            value, delta_star, rate_lt, rate_lp = (float(c) for c in cells[1:5])
        except ValueError:
            failed += 1
            continue
        if abs(rate_lt - rate_lp) > gate:
            failed += 1
            continue
        found.append((value, delta_star))
    found.sort()
    # delta* must increase with mu; each record out of order fails.
    failed += sum(1 for a, b in zip(found, found[1:]) if not a[1] < b[1])
    return failed


def check_call(call: Call, out: Outcome) -> int:
    """Structural and invariant checks on one call's output."""
    lines = _row_lines(call, out)
    if lines is None:
        return call.rows
    failed = abs(call.rows - len(lines))
    lines = lines[: call.rows]
    if call.kind == "crossover":
        return failed + _crossover_failures(call, lines)
    n_methods = len(call.methods)
    for i, line in enumerate(lines):
        if not _sweep_row_ok(line.split(","), call.methods[i % n_methods]):
            failed += 1
    return failed


def check_pass(calls: list[Call], outs: list[Outcome]) -> int:
    return sum(check_call(c, o) for c, o in zip(calls, outs))


def recompute_sample(calls: list[Call], outs: list[Outcome], seed: int, size: int) -> int:
    """Recompute a seeded sample of sweep and rate rows with the public
    estimators and compare them at 10 significant digits."""
    candidates = [
        (ci, ri) for ci, call in enumerate(calls) if call.kind == "rows" for ri in range(call.rows)
    ]
    rng = random.Random(seed)
    failed = 0
    probs = flawedqkd.ProtocolProbabilities()
    for ci, ri in rng.sample(candidates, min(size, len(candidates))):
        call = calls[ci]
        lines = _row_lines(call, outs[ci])
        if lines is None or ri >= len(lines):
            failed += 1
            continue
        method = call.methods[ri % len(call.methods)]
        device = flawedqkd.DeviceModel(**call.device)
        channel = flawedqkd.ChannelModel(call.losses[ri // len(call.methods)])
        if method == "lt":
            point = flawedqkd.key_rate_lt(device, channel, probs, call.solver)
        else:
            point = flawedqkd.key_rate_lp(device, channel, probs)
        expected = [f"{point.loss_db:.10g}", f"{point.eta:.10g}", method]
        expected += [f"{getattr(point, name):.10g}" for name in RECOMPUTED]
        if lines[ri].split(",") != expected:
            failed += 1
    return failed


def check_reference(calls: list[Call], outs: list[Outcome], digests: list[str]) -> int:
    """Compare the check seed's outputs with digests recorded earlier."""
    if len(digests) != len(calls):
        return sum(c.rows for c in calls)
    return sum(c.rows for c, o, d in zip(calls, outs, digests) if o.digest() != d)
