"""Single key-rate points, loss sweeps and the lt/lp crossover search.

Each entry point takes a device model, evaluates the two estimators on the
grid path and returns plain records; rendering them is left to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, ProtocolProbabilities, efficiency, system_efficiency
from .grid import METHODS, GridRates, evaluate_grid, prepare
from .lt_estimator import PAPER_FAITHFUL, SOLVER_MODES
from .qstates import DeviceModel

# The device field each crossover sweep parameter sets.
SWEPT_FIELDS = {"theta": "theta_hat", "mu": "mu"}
CROSSOVER_PARAMS = tuple(SWEPT_FIELDS)

# Bracket grid for the crossover bisection in delta.
_DELTA_SCAN = tuple(i * 0.01 for i in range(51))

_MAX_GRID_POINTS = 1_000_000


def _grid_steps(start: float, stop: float, step: float) -> float:
    # Whole steps from start to stop, with slack so that a stop landing on
    # the grid within floating-point error is included.
    return (stop - start) / step + 1e-9


@dataclass(frozen=True)
class SweepConfig:
    """Everything needed to evaluate a loss sweep.

    jobs is validated (>= 1) and otherwise ignored: sweeps run serially,
    which measured faster than a thread pool.
    """

    device: DeviceModel
    loss_start: float
    loss_stop: float
    loss_step: float
    p_d: float = ChannelModel.p_d
    f_ec: float = ChannelModel.f_ec
    probs: ProtocolProbabilities = ProtocolProbabilities()
    methods: tuple[str, ...] = METHODS
    solver: str = PAPER_FAITHFUL
    jobs: int = 1

    def __post_init__(self) -> None:
        for name in ("loss_start", "loss_stop", "loss_step"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.loss_start > self.loss_stop:
            raise ValueError("loss_start must not exceed loss_stop")
        if self.loss_step <= 0.0:
            raise ValueError(f"loss_step must be positive, got {self.loss_step}")
        # floor(steps) + 1 points exceed the cap exactly when steps >= cap.
        if _grid_steps(self.loss_start, self.loss_stop, self.loss_step) >= _MAX_GRID_POINTS:
            raise ValueError(
                f"loss_step {self.loss_step} gives more than {_MAX_GRID_POINTS} grid points"
                f" from {self.loss_start} to {self.loss_stop} dB"
            )
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not self.methods:
            raise ValueError("at least one method is required")
        if self.solver not in SOLVER_MODES:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


@dataclass(frozen=True)
class CrossoverConfig:
    """Search for the delta where both methods give the same rate.

    The swept flaw, theta or mu, takes each value of the grid, and the
    device gives the other flaw and the theta mode; for each grid value the
    gap rate_lt - rate_lp is bisected in delta at the comparison loss.  The
    search sets delta and the swept flaw, so the device must leave both 0.
    """

    swept_param: str
    swept_values: tuple[float, ...]
    device: DeviceModel = DeviceModel()
    compare_loss_db: float = 20.0
    bisection_tolerance: float = 1e-10
    p_d: float = ChannelModel.p_d
    f_ec: float = ChannelModel.f_ec
    probs: ProtocolProbabilities = ProtocolProbabilities()
    solver: str = PAPER_FAITHFUL

    def __post_init__(self) -> None:
        if self.swept_param not in SWEPT_FIELDS:
            raise ValueError(f"swept_param must be one of {CROSSOVER_PARAMS}")
        if not self.swept_values:
            raise ValueError("swept grid must be nonempty")
        for name in ("delta", SWEPT_FIELDS[self.swept_param]):
            value = getattr(self.device, name)
            if value != 0.0:
                raise ValueError(f"the crossover search varies {name}, so the device's {name}"
                                 f" must be 0, got {value}")
        # Every searched delta lies in [0, 0.5], so a value the device model
        # takes at delta = 0 it takes throughout the search.
        self.devices_at([(0.0, value) for value in self.swept_values])
        if not 0.0 <= self.compare_loss_db < math.inf:
            raise ValueError(f"compare_loss_db must be finite and >= 0, got {self.compare_loss_db}")
        tol = self.bisection_tolerance
        if not 0.0 < tol < math.inf:
            raise ValueError(f"bisection_tolerance must be finite and > 0, got {tol}")
        if self.solver not in SOLVER_MODES:
            raise ValueError(f"unknown solver {self.solver!r}")

    def devices_at(self, points: list[tuple[float, float]]) -> list[DeviceModel]:
        """The device at each (delta, swept value) point."""
        # Positional calls: the search builds thousands of devices.
        d = self.device
        if self.swept_param == "theta":
            return [DeviceModel(delta, value, d.theta_mode, d.mu) for delta, value in points]
        return [DeviceModel(delta, d.theta_hat, d.theta_mode, value) for delta, value in points]


@dataclass(frozen=True)
class SweepRow:
    """One output row; numeric fields are None when this row's estimator
    failed (the error message is kept instead)."""

    loss_db: float
    eta: float
    method: str
    e_z: float | None
    e_x: float | None
    rate_raw: float | None
    rate: float | None
    error: str | None = None


@dataclass(frozen=True)
class CrossoverRecord:
    """Bisection result for one swept value; delta_star is None when the
    rate gap never changes sign on the scan grid."""

    swept_param: str
    swept_value: float
    delta_star: float | None
    rate_lt: float | None
    rate_lp: float | None
    status: str


def loss_grid(start: float, stop: float, step: float) -> list[float]:
    """Inclusive dB grid; the stop value is included when it lands on the
    grid within floating-point slack."""
    n = int(math.floor(_grid_steps(start, stop, step))) + 1
    return [start + i * step for i in range(n)]


def _rows(losses: list[float], etas: list[float], rates: dict[str, GridRates]) -> list[SweepRow]:
    # Rows of an evaluated grid, by loss, then method; a failed point keeps
    # its row with the error message and no numbers.
    columns = [(m, r.e_z.tolist(), r.e_x.tolist(), r.rate_raw.tolist(), r.errors)
               for m, r in rates.items()]
    rows = []
    for i, (loss, eta) in enumerate(zip(losses, etas)):
        for method, e_z, e_x, rate_raw, errors in columns:
            if errors[i] is not None:
                rows.append(SweepRow(loss, eta, method, None, None, None, None, str(errors[i])))
            else:
                raw = rate_raw[i]
                rows.append(SweepRow(loss, eta, method, e_z[i], e_x[i], raw, max(raw, 0.0)))
    return rows


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate every (loss, method) pair of the sweep on one prepared
    device, with the whole loss grid as arrays.

    Estimator failures are kept as rows with the error message and no
    rate, so one bad point cannot take down a long sweep.  Rows are
    ordered by loss, then method.  config.jobs is ignored.
    """
    methods = tuple(m for m in METHODS if m in config.methods)
    losses = loss_grid(config.loss_start, config.loss_stop, config.loss_step)
    # The grid ascends from loss_start, so one channel validates them all.
    ChannelModel(losses[0], config.p_d, config.f_ec)
    etas = [efficiency(loss) for loss in losses]
    rates = evaluate_grid(
        prepare(config.device, config.probs),
        np.array(etas),
        config.p_d,
        config.f_ec,
        methods,
        config.solver,
    )
    return _rows(losses, etas, rates)


def _point(device: DeviceModel, channel: ChannelModel, probs: ProtocolProbabilities,
           method: str, solver: str) -> SweepRow:
    # The row a sweep prints at this loss; its failure, if any, is raised.
    eta = system_efficiency(channel)
    rates = evaluate_grid(
        prepare(device, probs), np.array([eta]), channel.p_d, channel.f_ec, (method,), solver
    )
    error = rates[method].errors[0]
    if error is not None:
        raise error
    return _rows([channel.loss_db], [eta], rates)[0]


def key_rate_lt(
    device: DeviceModel,
    channel: ChannelModel,
    probs: ProtocolProbabilities,
    mode: str = PAPER_FAITHFUL,
) -> SweepRow:
    """Secure key rate per emitted pulse under the loss-tolerant analysis."""
    return _point(device, channel, probs, "lt", mode)


def key_rate_lp(
    device: DeviceModel, channel: ChannelModel, probs: ProtocolProbabilities
) -> SweepRow:
    """Secure key rate per emitted pulse under the quantum-coin analysis."""
    return _point(device, channel, probs, "lp", PAPER_FAITHFUL)


def _rates(config: CrossoverConfig, eta: float, points: list[tuple[float, float]]) -> list:
    """Both clamped rates at each (delta, swept value) point, or the
    failure that stops a search there, lt's before lp's; the points are one
    batch at the comparison transmittance."""
    if not points:
        return []
    devices = config.devices_at(points)
    both = evaluate_grid(
        prepare(devices, config.probs),
        np.full(len(devices), eta),
        config.p_d,
        config.f_ec,
        METHODS,
        config.solver,
    )
    lt, lp = ([max(r, 0.0) for r in both[m].rate_raw.tolist()] for m in METHODS)
    return [
        lt_error or lp_error or rates
        for lt_error, lp_error, rates in zip(both["lt"].errors, both["lp"].errors, zip(lt, lp))
    ]


def find_crossover(config: CrossoverConfig) -> list[CrossoverRecord]:
    """Bisect the delta at which both methods give the same key rate.

    For each swept value the gap g(delta) = rate_lt - rate_lp is scanned
    on a fixed delta grid; a strict sign change is bisected down to the
    configured delta tolerance, or until lo and hi are adjacent floats.
    Grid values without a sign change yield a no-crossover record.

    Each value's scan is one batch of devices; then every bracket takes
    its bisection steps in lockstep with the others, one batch per step,
    and one batch evaluates every delta*.  A value whose evaluation fails
    stops there; the search then raises the failure of the first such
    value, which is the one a value-by-value search would meet.
    """
    channel = ChannelModel(config.compare_loss_db, config.p_d, config.f_ec)
    eta = system_efficiency(channel)
    values = config.swept_values
    failures: dict[int, Exception] = {}
    # Per bracketed value: lo, hi and the gap at lo.
    brackets: dict[int, list[float]] = {}
    for k, value in enumerate(values):
        scan = _rates(config, eta, [(d, value) for d in _DELTA_SCAN])
        failed = next((r for r in scan if isinstance(r, Exception)), None)
        if failed is not None:
            failures[k] = failed
            continue
        gaps = [lt - lp for lt, lp in scan]
        for i in range(len(_DELTA_SCAN) - 1):
            if gaps[i] != 0.0 and gaps[i + 1] != 0.0 and gaps[i] * gaps[i + 1] < 0.0:
                brackets[k] = [_DELTA_SCAN[i], _DELTA_SCAN[i + 1], gaps[i]]
                break

    tol = config.bisection_tolerance

    def splits(k: int) -> bool:
        # Wider than tol, with its midpoint strictly inside: once lo and hi
        # are adjacent floats, the midpoint is one of them.
        lo, hi, _ = brackets[k]
        return hi - lo > tol and lo < (lo + hi) / 2.0 < hi

    active = [k for k in brackets if splits(k)]
    while active:
        mids = [(brackets[k][0] + brackets[k][1]) / 2.0 for k in active]
        results = _rates(config, eta, [(mid, values[k]) for k, mid in zip(active, mids)])
        still = []
        for k, mid, result in zip(active, mids, results):
            if isinstance(result, Exception):
                failures[k] = result
                continue
            bracket = brackets[k]
            g_mid = result[0] - result[1]
            if g_mid == 0.0:
                bracket[0] = bracket[1] = mid
                continue
            if (g_mid > 0.0) == (bracket[2] > 0.0):
                bracket[0], bracket[2] = mid, g_mid
            else:
                bracket[1] = mid
            if splits(k):
                still.append(k)
        active = still

    stars = {k: (lo + hi) / 2.0 for k, (lo, hi, _) in brackets.items() if k not in failures}
    finals = dict(zip(stars, _rates(config, eta, [(d, values[k]) for k, d in stars.items()])))
    failures.update((k, r) for k, r in finals.items() if isinstance(r, Exception))
    if failures:
        raise failures[min(failures)]
    return [
        CrossoverRecord(config.swept_param, value, stars[k], *finals[k], "crossover")
        if k in finals
        else CrossoverRecord(config.swept_param, value, None, None, None, "no-crossover")
        for k, value in enumerate(values)
    ]
