"""Key-rate estimation for QKD sources with preparation flaws, mode
dependencies, and Trojan-horse leakage.

Two phase-error estimators share one device and channel model: a
loss-tolerant analysis that inverts observed yields, and a quantum-coin
analysis that compresses all flaws into a basis-dependence imbalance.

Every number comes from one path: ``prepare`` computes what depends on the
devices alone, and ``evaluate_grid`` carries an array of transmittances
through both estimators.  ``key_rate_lt`` and ``key_rate_lp`` are one-point
grids that return the row a sweep prints there; ``run_sweep`` and
``find_crossover`` drive whole grids.  The grid observes the statistics
with ``channel`` and makes one call per method: ``lt_estimator`` owns the
loss-tolerant chain, ``lp_estimator`` the coin bound.
"""

from .channel import (
    ChannelModel,
    ProtocolProbabilities,
    binary_entropy,
    system_efficiency,
    z_basis_yield,
)
from .engine import (
    CrossoverConfig,
    CrossoverRecord,
    Sweep,
    SweepConfig,
    SweepRow,
    find_crossover,
    key_rate_lp,
    key_rate_lt,
    loss_grid,
    run_sweep,
)
from .errors import (
    DegenerateStateError,
    EstimatorError,
    InfeasibleStatisticsError,
    NoDetectionError,
    SingularSystemError,
)
from .grid import GridRates, PreparedDevice, evaluate_grid, prepare
from .lp_estimator import coin_imbalance
from .lt_estimator import PAPER_FAITHFUL, SOLVER_MODES, VERTEX_LP
from .qstates import DeviceModel, tha_coefficients

__version__ = "0.1.0"
