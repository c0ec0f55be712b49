"""Single key-rate points, loss sweeps and the lt/lp crossover search.

Each entry point takes a device model, evaluates the two estimators on the
grid path and returns columns or records; rendering is left to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, NamedTuple

from .channel import ChannelModel, ProtocolProbabilities, check, efficiency, system_efficiency
from .errors import EstimatorError
from .grid import METHODS, GridRates, check_estimators, evaluate_grid, prepare
from .lt_estimator import PAPER_FAITHFUL
from .qstates import DeviceModel

# The device field each crossover sweep parameter sets.
SWEPT_FIELDS = {"theta": "theta_hat", "mu": "mu"}
CROSSOVER_PARAMS = tuple(SWEPT_FIELDS)

# Bracket grid for the crossover bisection in delta, and the grid points
# per batch of its lazy scan.  A 40-value mu search at 20 dB, whose
# brackets all lie below delta = 0.11, ran equally fast with 3 to 6 points
# a batch; 13 points evaluated 10% more devices and ran 5% slower.
_DELTA_SCAN = tuple(i * 0.01 for i in range(51))
_SCAN_CHUNK = 5

_MAX_GRID_POINTS = 1_000_000


def _grid_size(start: float, stop: float, step: float) -> int:
    # Points of the loss grid start:stop:step, which needs finite bounds with
    # 0 <= start <= stop, a positive step and at most _MAX_GRID_POINTS points;
    # the slack keeps a stop that lands on the grid within rounding.
    check(loss_start=start, loss_stop=stop, loss_step=step)
    if start > stop:
        raise ValueError(f"a loss grid needs loss_start <= loss_stop, got {start} > {stop}")
    steps = (stop - start) / step + 1e-9
    # floor(steps) + 1 points exceed the cap exactly when steps >= cap.
    if steps >= _MAX_GRID_POINTS:
        raise ValueError(f"a loss grid has at most {_MAX_GRID_POINTS} points; loss_step {step}"
                         f" gives more from {start} to {stop} dB")
    return int(steps) + 1


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
        _grid_size(self.loss_start, self.loss_stop, self.loss_step)
        check_estimators(self.methods, self.solver)
        check(jobs=self.jobs, p_d=self.p_d, f_ec=self.f_ec)


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
        # Every searched delta lies in [0, 0.5], so a swept value the table
        # allows, the device model takes throughout the search.
        for value in self.swept_values:
            check(**{SWEPT_FIELDS[self.swept_param]: value})
        check(compare_loss_db=self.compare_loss_db, bisection_tolerance=self.bisection_tolerance)
        check_estimators(METHODS, self.solver)
        check(p_d=self.p_d, f_ec=self.f_ec)


class SweepRow(NamedTuple):
    """One output row, a named tuple whose first seven fields are the CSV
    columns; numeric fields are None when its estimator failed (the error
    message is kept instead)."""

    loss_db: float
    eta: float
    method: str
    e_z: float | None
    e_x: float | None
    rate_raw: float | None
    rate: float | None
    error: str | None = None


class CrossoverRecord(NamedTuple):
    """Bisection result for one swept value, a named tuple of the CSV columns;
    delta_star is None when the rate gap never changes sign on the scan grid."""

    swept_param: str
    swept_value: float
    delta_star: float | None
    rate_lt: float | None
    rate_lp: float | None
    status: str


@dataclass(frozen=True, eq=False)
class Sweep:
    """An evaluated loss sweep as columns: the losses, their transmittances
    and each method's GridRates.  Iterating it yields its ``rows()``."""

    losses: list[float]
    etas: list[float]
    rates: dict[str, GridRates]

    def __len__(self) -> int:
        return len(self.losses) * len(self.rates)

    def __iter__(self) -> Iterator[SweepRow]:
        return iter(self.rows())

    def rows(self) -> list[SweepRow]:
        """Rows by loss, then method; a failed point's row has its error and no numbers."""
        columns = []
        for method, r in self.rates.items():
            raw = r.rate_raw.tolist()
            # 0.0 if w < 0.0 else w is max(w, 0.0), -0.0 and nan included.
            rate = [0.0 if w < 0.0 else w for w in raw]
            cells = (self.losses, self.etas, repeat(method), r.e_z.tolist(), r.e_x.tolist())
            rows = list(map(SweepRow._make, zip(*cells, raw, rate, repeat(None))))
            for i, error in enumerate(r.errors):
                if error is not None:
                    rows[i] = SweepRow(*rows[i][:3], None, None, None, None, str(error))
            columns.append(rows)
        return list(chain.from_iterable(zip(*columns)))


def loss_grid(start: float, stop: float, step: float) -> list[float]:
    """Inclusive dB grid; the stop value is included when it lands on the
    grid within floating-point slack.  A grid SweepConfig refuses is its ValueError."""
    return [start + i * step for i in range(_grid_size(start, stop, step))]


def run_sweep(config: SweepConfig) -> Sweep:
    """Evaluate every (loss, method) pair of the sweep on one prepared
    device, with the whole loss grid as arrays, and return the columns.

    Estimator failures are kept in each method's error slots, and become
    rows with the error message and no rate, so one bad point cannot take
    down a long sweep.  config.jobs is ignored.
    """
    losses = loss_grid(config.loss_start, config.loss_stop, config.loss_step)
    etas = [efficiency(loss) for loss in losses]
    rates = evaluate_grid(
        prepare(config.device, config.probs),
        etas,
        config.p_d,
        config.f_ec,
        config.methods,
        config.solver,
    )
    return Sweep(losses, etas, rates)


def _point(device: DeviceModel, channel: ChannelModel, probs: ProtocolProbabilities,
           method: str, solver: str) -> SweepRow:
    # The row a sweep prints at this loss; its failure, if any, is raised.
    eta = system_efficiency(channel)
    rates = evaluate_grid(
        prepare(device, probs), [eta], channel.p_d, channel.f_ec, (method,), solver
    )
    error = rates[method].errors[0]
    if error is not None:
        raise error
    return Sweep([channel.loss_db], [eta], rates).rows()[0]


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


def _rates(config: CrossoverConfig, eta: float, points: list[tuple[float, float]],
           fixed: dict) -> list:
    """Both clamped rates at each (delta, swept value) point, or the
    failure that stops a search there, lt's before lp's; the points are one
    nonempty batch at the comparison transmittance.  fixed holds the
    delta-independent source terms of the swept values met so far."""
    _, theta_hat, dependent, mu = config.device
    theta = config.swept_param == "theta"
    devices = [(delta, value if theta else theta_hat, dependent, mu if theta else value)
               for delta, value in points]
    both = evaluate_grid(
        prepare(devices, config.probs, fixed),
        [eta] * len(devices),
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


def _gap(result) -> float:
    # rate_lt - rate_lp of one evaluated point, or its failure raised.
    if isinstance(result, Exception):
        raise result
    return result[0] - result[1]


def _bisect(lo: float, hi: float, g_lo: float, tol: float):
    # Yield each midpoint of the sign change on [lo, hi], where the gap is
    # g_lo, as a 1-tuple, and return delta*.  A bracket is halved while it
    # is wider than tol and its midpoint lies strictly inside it: once lo
    # and hi are adjacent floats, the midpoint is one of them.
    while hi - lo > tol and lo < (lo + hi) / 2.0 < hi:
        mid = (lo + hi) / 2.0
        (result,) = yield (mid,)
        g_mid = _gap(result)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _search(tol: float):
    """One swept value's search: a generator that yields the deltas it needs
    next (scan chunks up to the first strict sign change of the gap, then
    each bisection midpoint, then delta*), is sent their results and raises
    the first failure it reads.  Returns (delta*, (rate_lt, rate_lp)), or
    None when the gap never changes sign."""
    lo, g_lo = 0.0, 0.0
    for start in range(0, len(_DELTA_SCAN), _SCAN_CHUNK):
        chunk = _DELTA_SCAN[start:start + _SCAN_CHUNK]
        results = yield chunk
        for d, result in zip(chunk, results):
            gap = _gap(result)
            if g_lo != 0.0 and gap != 0.0 and g_lo * gap < 0.0:
                star = yield from _bisect(lo, d, g_lo, tol)
                (rates,) = yield (star,)
                _gap(rates)  # raises its failure
                return star, rates
            lo, g_lo = d, gap
    return None


def find_crossover(config: CrossoverConfig) -> list[CrossoverRecord]:
    """Bisect the delta at which both methods give the same key rate.

    For each swept value the gap g(delta) = rate_lt - rate_lp is scanned
    on a fixed delta grid, a few points at a time; a strict sign change is
    bisected down to the configured delta tolerance, or until lo and hi are
    adjacent floats.  Grid values without a sign change yield a
    no-crossover record.

    Each round evaluates the deltas that every open ``_search`` asks for in
    one batch.  A value stops at its first failure; a failure past its
    first sign change is never read.  The failure of the first failed
    value, the one a value-by-value search meets first, is raised.  Each
    swept value's delta-independent source terms are computed once, in a
    dict that lives for this call only.
    """
    eta = efficiency(config.compare_loss_db)
    values, param, fixed = config.swept_values, config.swept_param, {}
    searches = [_search(config.bisection_tolerance) for _ in values]
    wanted = {k: next(search) for k, search in enumerate(searches)}
    outcomes = [None] * len(values)
    while wanted:
        points = [(d, values[k]) for k, deltas in wanted.items() for d in deltas]
        results = iter(_rates(config, eta, points, fixed))
        asked, wanted = wanted, {}
        for k, deltas in asked.items():
            sent = [next(results) for _ in deltas]
            try:
                wanted[k] = searches[k].send(sent)
            except StopIteration as done:
                outcomes[k] = done.value
            except EstimatorError as failure:  # raised below unless an earlier value failed
                outcomes[k] = failure
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return [
        CrossoverRecord(param, value, outcome[0], *outcome[1], "crossover") if outcome
        else CrossoverRecord(param, value, None, None, None, "no-crossover")
        for value, outcome in zip(values, outcomes)
    ]
