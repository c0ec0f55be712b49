"""Loss sweeps and the lt/lp crossover search.

Both engines take a frozen config, evaluate the two estimators on the
device and channel models, and return plain records; rendering them is
left to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelModel, ProtocolProbabilities, system_efficiency
from .errors import EstimatorError
from .lp_estimator import key_rate_lp
from .lt_estimator import PAPER_FAITHFUL, SOLVER_MODES, key_rate_lt
from .qstates import DeviceModel

METHODS = ("lt", "lp")
CROSSOVER_PARAMS = ("theta", "mu")

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
    p_d: float
    f_ec: float
    probs: ProtocolProbabilities
    loss_start: float
    loss_stop: float
    loss_step: float
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

    One of theta/mu is held fixed, the other takes each value of the swept
    grid; for each grid value the gap rate_lt - rate_lp is bisected in
    delta at the comparison loss.
    """

    fixed_param: str
    fixed_value: float
    swept_param: str
    swept_values: tuple[float, ...]
    compare_loss_db: float = 20.0
    bisection_tolerance: float = 1e-10
    theta_mode: str = "dependent"
    p_d: float = 1e-7
    f_ec: float = 1.16
    probs: ProtocolProbabilities = ProtocolProbabilities()
    solver: str = PAPER_FAITHFUL

    def __post_init__(self) -> None:
        if self.fixed_param not in CROSSOVER_PARAMS:
            raise ValueError(f"fixed_param must be one of {CROSSOVER_PARAMS}")
        if self.swept_param not in CROSSOVER_PARAMS:
            raise ValueError(f"swept_param must be one of {CROSSOVER_PARAMS}")
        if self.fixed_param == self.swept_param:
            raise ValueError("fixed_param and swept_param must differ")
        if not self.swept_values:
            raise ValueError("swept grid must be nonempty")
        if self.bisection_tolerance <= 0.0:
            raise ValueError("bisection tolerance must be positive")
        if self.solver not in SOLVER_MODES:
            raise ValueError(f"unknown solver {self.solver!r}")


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


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate every (loss, method) pair of the sweep, serially.

    Estimator failures are kept as rows with the error message and no
    rate, so one bad point cannot take down a long sweep.  Rows are
    ordered by loss, then method.  config.jobs is ignored.
    """
    methods = tuple(m for m in METHODS if m in config.methods)
    rows = []
    for loss in loss_grid(config.loss_start, config.loss_stop, config.loss_step):
        channel = ChannelModel(loss, config.p_d, config.f_ec)
        for method in methods:
            try:
                if method == "lt":
                    point = key_rate_lt(config.device, channel, config.probs, config.solver)
                else:
                    point = key_rate_lp(config.device, channel, config.probs)
            except EstimatorError as exc:
                eta = system_efficiency(channel)
                rows.append(SweepRow(loss, eta, method, None, None, None, None, str(exc)))
                continue
            rows.append(
                SweepRow(loss, point.eta, method, point.e_z, point.e_x, point.rate_raw, point.rate)
            )
    return rows


def find_crossover(config: CrossoverConfig) -> list[CrossoverRecord]:
    """Bisect the delta at which both methods give the same key rate.

    For each swept value the gap g(delta) = rate_lt - rate_lp is scanned
    on a fixed delta grid; a strict sign change is bisected down to the
    configured delta tolerance.  Grid values without a sign change yield a
    no-crossover record.
    """
    channel = ChannelModel(config.compare_loss_db, config.p_d, config.f_ec)

    def rates(delta: float, swept_value: float) -> tuple[float, float]:
        params = {config.fixed_param: config.fixed_value, config.swept_param: swept_value}
        device = DeviceModel(
            delta=delta,
            theta_hat=params["theta"],
            theta_mode=config.theta_mode,
            mu=params["mu"],
        )
        lt = key_rate_lt(device, channel, config.probs, config.solver)
        lp = key_rate_lp(device, channel, config.probs)
        return lt.rate, lp.rate

    records = []
    for value in config.swept_values:
        gaps = [lt - lp for lt, lp in (rates(d, value) for d in _DELTA_SCAN)]
        bracket = None
        for i in range(len(_DELTA_SCAN) - 1):
            if gaps[i] != 0.0 and gaps[i + 1] != 0.0 and gaps[i] * gaps[i + 1] < 0.0:
                bracket = (_DELTA_SCAN[i], _DELTA_SCAN[i + 1], gaps[i])
                break
        if bracket is None:
            records.append(
                CrossoverRecord(config.swept_param, value, None, None, None, "no-crossover")
            )
            continue
        lo, hi, g_lo = bracket
        while hi - lo > config.bisection_tolerance:
            mid = (lo + hi) / 2.0
            rate_lt, rate_lp = rates(mid, value)
            g_mid = rate_lt - rate_lp
            if g_mid == 0.0:
                lo = hi = mid
                break
            if (g_mid > 0.0) == (g_lo > 0.0):
                lo, g_lo = mid, g_mid
            else:
                hi = mid
        delta_star = (lo + hi) / 2.0
        records.append(
            CrossoverRecord(
                config.swept_param, value, delta_star, *rates(delta_star, value), "crossover"
            )
        )
    return records
