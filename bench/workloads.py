"""Seeded workloads of the flawedqkd benchmark.

A workload turns a seed into the list of CLI calls that one pass makes.
The program sees only the generated argv; each call also carries what the
correctness check needs to recompute its rows independently.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

CHECK_SEED = 0
METHOD_ORDER = ("lt", "lp")
SOLVER_MODES = {"paper": "paper_faithful", "vertex-lp": "vertex_lp"}

# A plain rate call that every fresh interpreter makes once before timing.
WARMUP_ARGV = (
    "rate", "--loss", "10", "--method", "both",
    "--delta", "0.05", "--theta", "0.0001", "--mu", "1e-07",
)


@dataclass(frozen=True)
class Call:
    """One ``flawedqkd.cli.main(argv)`` call and the rows it must print.

    kind is "rows" for sweep and rate output (one row per loss and method)
    and "crossover" for crossover records.
    """

    argv: tuple[str, ...]
    kind: str
    rows: int
    device: dict = field(default_factory=dict)
    losses: tuple[float, ...] = ()
    methods: tuple[str, ...] = ()
    solver: str = "paper_faithful"
    swept: tuple[float, ...] = ()
    compare_loss_db: float = 20.0


def loss_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """The losses a ``--loss-range start:stop:step`` sweep visits, in order."""
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(n))


def _device_argv(device: dict) -> list[str]:
    return [
        "--delta", repr(device["delta"]),
        "--theta", repr(device["theta_hat"]),
        "--theta-mode", device["theta_mode"],
        "--mu", repr(device["mu"]),
    ]


def _device(delta=0.0, theta_hat=0.0, mu=0.0, theta_mode="dependent") -> dict:
    return {"delta": delta, "theta_hat": theta_hat, "theta_mode": theta_mode, "mu": mu}


def flaw_family(seed: int) -> dict[str, dict]:
    """Five devices, one per flaw class; all but the clean one are drawn
    from the seed."""
    rng = random.Random(seed)
    tilt = rng.uniform(0.02, 0.15)
    rot = rng.uniform(1e-4, 1e-3)
    leak = 10.0 ** rng.uniform(-8.0, -5.0)
    return {
        "clean": _device(),
        "tilted": _device(delta=tilt),
        "rotated": _device(theta_hat=rot),
        "leaky": _device(mu=leak),
        "all-flaws": _device(
            delta=rng.uniform(0.02, 0.15),
            theta_hat=rng.uniform(1e-4, 1e-3),
            mu=10.0 ** rng.uniform(-8.0, -5.0),
        ),
    }


def _sweep_call(device: dict, loss_range: str, method: str, solver: str) -> Call:
    start, stop, step = (float(p) for p in loss_range.split(":"))
    losses = loss_grid(start, stop, step)
    methods = METHOD_ORDER if method == "both" else (method,)
    argv = ["sweep", *_device_argv(device), "--loss-range", loss_range,
            "--method", method, "--solver", solver, "--jobs", "1"]
    return Call(tuple(argv), "rows", len(losses) * len(methods), device, losses,
                methods, SOLVER_MODES[solver])


def sweep_family(seed: int) -> list[Call]:
    """Dual-method paper-solver sweeps over 0-70 dB in 0.05 dB steps for
    every flaw class: 5 x 1401 x 2 = 14,010 rows."""
    return [_sweep_call(d, "0:70:0.05", "both", "paper") for d in flaw_family(seed).values()]


def sweep_vertex(seed: int) -> list[Call]:
    """lt vertex-solver sweeps over 0-70 dB in 0.1 dB steps for the leaky and
    all-flaws draws of the family: 2 x 701 = 1,402 rows."""
    family = flaw_family(seed)
    return [_sweep_call(family[k], "0:70:0.1", "lt", "vertex-lp") for k in ("leaky", "all-flaws")]


def crossover_frontier(seed: int) -> list[Call]:
    """One crossover call: theta_hat = 1e-6 (dependent) fixed, mu over 40
    log-uniform draws in [1e-9, 1e-7], compared at 20 dB."""
    rng = random.Random(seed)
    swept = tuple(sorted(10.0 ** rng.uniform(-9.0, -7.0) for _ in range(40)))
    argv = (
        "crossover", "--sweep-param", "mu",
        "--sweep-values", ",".join(repr(v) for v in swept),
        "--theta", "1e-06", "--theta-mode", "dependent",
        "--compare-loss", "20", "--bisect-tol", "1e-10",
    )
    return [Call(argv, "crossover", len(swept), swept=swept)]


def rate_points(seed: int) -> list[Call]:
    """600 single dual-method points; the solver alternates and the device
    and loss are drawn for every call."""
    rng = random.Random(seed)
    calls = []
    for i in range(600):
        solver = "paper" if i % 2 == 0 else "vertex-lp"
        device = _device(
            delta=rng.uniform(0.0, 0.15),
            theta_hat=rng.uniform(0.0, 1e-3),
            mu=10.0 ** rng.uniform(-9.0, -5.0),
        )
        loss = rng.uniform(0.0, 50.0)
        argv = ["rate", *_device_argv(device), "--loss", repr(loss),
                "--method", "both", "--solver", solver]
        calls.append(Call(tuple(argv), "rows", 2, device, (loss,), METHOD_ORDER,
                          SOLVER_MODES[solver]))
    return calls


WORKLOADS = {
    "sweep-family": sweep_family,
    "sweep-vertex": sweep_vertex,
    "crossover-frontier": crossover_frontier,
    "rate-points": rate_points,
}
