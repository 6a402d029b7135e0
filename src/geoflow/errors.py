"""Exception types shared across the package.

Input problems (bad points, excluded sets, unreachable levels) derive from
``ValueError``; numerical breakdowns discovered mid-computation derive from
``RuntimeError``.  Code that wants a single catch-all can use
``GeoflowError``.
"""

from __future__ import annotations

__all__ = [
    "GeoflowError",
    "SingularMatrixError",
    "CriticalPointError",
    "OutOfSpanError",
    "LevelUnreachableError",
    "DomainExitError",
    "NonEquidistantError",
    "NonConvergenceError",
    "StepUnderflowError",
    "DegenerateTangentError",
    "NonConvexError",
    "SingularCurvatureError",
    "MissingMinimumError",
    "ClosureShapeError",
]


class GeoflowError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrixError(GeoflowError, RuntimeError):
    """Metric (or Hessian) matrix is singular or too ill-conditioned to invert."""


class CriticalPointError(GeoflowError, ValueError):
    """Operation requested at (or too close to) a critical point of the potential.

    The straightening connection is undefined where the gradient vanishes, so
    evaluators raise instead of regularizing.
    """


class OutOfSpanError(GeoflowError, ValueError):
    """Trajectory queried outside its integrated time span."""


class LevelUnreachableError(GeoflowError, ValueError):
    """Root-finding for a potential level found no crossing along the ray."""


class DomainExitError(GeoflowError, ValueError):
    """A search ray left the chart domain before meeting its target."""


class NonEquidistantError(GeoflowError, ValueError):
    """Comparison requested for seeds whose potential values differ."""


class NonConvergenceError(GeoflowError, RuntimeError):
    """Gradient norm failed to decrease over a full output window."""


class StepUnderflowError(GeoflowError, RuntimeError):
    """Adaptive integrator drove the step size below its minimum."""


class DegenerateTangentError(GeoflowError, ValueError):
    """Submanifold parametrization has a rank-deficient Jacobian."""


class NonConvexError(GeoflowError, ValueError):
    """Hessian of a convex potential failed positive-definiteness."""


class SingularCurvatureError(GeoflowError, ValueError):
    """Closed-form curvature requested on (or too near) its singular set."""


class MissingMinimumError(GeoflowError, ValueError):
    """Operation needs the potential's designated minimum, which is unset."""


class ClosureShapeError(GeoflowError, ValueError):
    """Metric or potential closure returned the wrong shape for its input.

    ``matrix`` and ``value`` closures must broadcast over the leading axes
    of a point stack; one that ignores them fails here instead of
    returning values for the wrong points.
    """
