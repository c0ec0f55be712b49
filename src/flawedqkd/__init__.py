"""Key-rate estimation for QKD sources with preparation flaws, mode
dependencies, and Trojan-horse leakage.

Two phase-error estimators share one device and channel model: a
loss-tolerant analysis that inverts observed yields, and a quantum-coin
analysis that compresses all flaws into a basis-dependence imbalance.
"""

from .channel import (
    ChannelModel,
    ProtocolProbabilities,
    YieldTable,
    actual_yields,
    basis_detection_probability,
    binary_entropy,
    bit_error_rate,
    from_distance,
    system_efficiency,
    z_basis_yield,
)
from .engine import (
    CrossoverConfig,
    CrossoverRecord,
    SweepConfig,
    SweepRow,
    find_crossover,
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
from .finite_stats import AzumaBudget, azuma_deviation, count_interval
from .grid import (
    GridRates,
    KeyRatePoint,
    PreparedDevice,
    evaluate_grid,
    key_rate_lp,
    key_rate_lt,
    phase_error_rate_lp,
    phase_error_rate_lt,
    prepare,
)
from .lp_estimator import coin_imbalance, delta_prime, lp_phase_error_bound
from .lt_estimator import (
    PAPER_FAITHFUL,
    SOLVER_MODES,
    VERTEX_LP,
    TransmissionRateBounds,
    coefficient_matrix,
    normalized_yields,
    transmission_rate_bounds,
    virtual_yield_upper,
)
from .qstates import (
    FOUR_SETTINGS,
    SETTING_0X,
    SETTING_0Z,
    SETTING_1X,
    SETTING_1Z,
    THREE_SETTINGS,
    BlochVector,
    DeviceModel,
    QubitKet,
    Setting,
    StateDecomposition,
    actual_decomposition,
    bloch_vector,
    full_overlap,
    mode_angles,
    qubit_state,
    tha_coefficients,
    virtual_decomposition,
)

__version__ = "0.1.0"
