"""Exception types shared across the estimators.

Invalid argument values raise the builtin ``ValueError``, from
``channel.check`` and its table of parameter domains ``channel.DOMAINS``,
or from ``grid.check_estimators`` for methods and solvers.  The classes
here mark failures of the numerical procedure itself, so callers can
distinguish "you passed garbage" from "the method broke down at this
parameter point".
"""


class EstimatorError(Exception):
    """Base class for numerical failures inside the estimation pipeline."""


class DegenerateStateError(EstimatorError):
    """A virtual state has no qubit component left to measure."""


class SingularSystemError(EstimatorError):
    """The three encoding states are collinear on the Bloch sphere, so the
    coefficient matrix cannot be inverted."""


class InfeasibleStatisticsError(EstimatorError):
    """The observed yields admit no physical transmission rates."""


class NoDetectionError(EstimatorError):
    """A rate is conditioned on detections but the detection probability
    is zero."""
