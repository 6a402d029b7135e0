"""Finite-difference derivatives with a fixed step policy.

Everything here is a 4th-order central difference.  The step scale depends on
how the function being differentiated was produced:

* ``STEP_EXACT`` for closed-form evaluators (metric entries, potential
  values).  With h ~ eps^(1/3) the roundoff noise of the difference quotient
  sits near 1e-11 relative while the truncation term is negligible.
* ``STEP_NESTED`` for fields that are themselves finite-difference results
  and therefore carry ~1e-11 relative noise; the larger step keeps the
  noise amplification of the second differentiation near 1e-7.
* ``STEP_COEFFS`` for derivatives of connection-coefficient fields inside
  the curvature pipeline, which stack two levels of differentiation.

Steps are scaled per component by max(1, |x_j|).
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from .errors import StepSizeWarning

__all__ = [
    "EPS",
    "STEP_EXACT",
    "STEP_NESTED",
    "STEP_COEFFS",
    "gradient_fd",
    "jacobian_fd",
    "curve_derivative",
    "check_step",
]

EPS = float(np.finfo(float).eps)
STEP_EXACT = EPS ** (1.0 / 3.0)
STEP_NESTED = EPS ** 0.25
STEP_COEFFS = 1e-3

# 4th-order central stencil: f' ~ (-f2 + 8 f1 - 8 f_1 + f_2) / 12h
_W4 = np.array([-1.0, 8.0, -8.0, 1.0]) / 12.0
_O4 = np.array([2.0, 1.0, -1.0, -2.0])


def check_step(h: float, x_component: float) -> None:
    """Warn when a user-chosen step is small enough for roundoff to dominate."""
    if h < 1e3 * EPS * abs(x_component):
        warnings.warn(
            f"finite-difference step {h:.3e} is below 1e3*eps*|x|; "
            "roundoff will dominate the derivative",
            StepSizeWarning,
            stacklevel=3,
        )


def _partial(fn: Callable, x: np.ndarray, j: int, h: float):
    """4th-order central difference of fn along coordinate j."""
    shifted = []
    for o in _O4:
        xo = np.array(x, dtype=float)
        xo[..., j] += o * h
        shifted.append(np.asarray(fn(xo), dtype=float))
    return sum(w * s for w, s in zip(_W4, shifted)) / h


def gradient_fd(fn: Callable[[np.ndarray], float], x: np.ndarray,
                scale: float = STEP_EXACT) -> np.ndarray:
    """Gradient (as a covector of partials) of a scalar function.

    A stack of points ``(n, dim)`` gives ``(n, dim)``; ``fn`` must then
    broadcast over the stack, and each point gets its own steps.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    for j in range(x.shape[-1]):
        h = scale * np.maximum(1.0, np.abs(x[..., j]))
        out[..., j] = _partial(fn, x, j, h)
    return out


def jacobian_fd(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                scale: float = STEP_EXACT, step: float | None = None) -> np.ndarray:
    """Array of partials of an array-valued function.

    Returns J with J[..., j] = d fn / d x_j, i.e. the derivative index is the
    trailing axis.  ``step`` overrides the per-component scaled step with a
    fixed absolute one (used by callers that own their own step policy).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        h = step if step is not None else scale * max(1.0, abs(x[j]))
        if step is not None:
            check_step(h, x[j])
        cols.append(_partial(fn, x, j, h))
    return np.stack(cols, axis=-1)


def curve_derivative(fn: Callable[[np.ndarray], np.ndarray], t,
                     span: tuple[float, float], order: int = 1,
                     step: float = 1e-4):
    """Differentiate a function of time known on a closed span.

    Fits the exact quartic through a 5-point stencil and differentiates it at
    ``t``.  The stencil is kept inside ``span`` by sliding its center, so the
    result stays 4th-order accurate even at the span's ends.  ``order`` is 1
    or 2.

    ``t`` is a scalar or a 1-D array of n times; ``fn`` is called once,
    on the 1-D array of all stencil times, and returns one value (a scalar
    or a vector) per time.  A scalar t gives a float for scalar values and
    a vector otherwise; an array gives one row per t.
    """
    t0, t1 = span
    width = t1 - t0
    if width <= 0.0:
        raise ValueError("degenerate span")
    t = np.asarray(t, dtype=float)
    h = np.minimum(step * np.maximum(1.0, np.abs(t)), width / 4.0)
    center = np.minimum(np.maximum(t, t0 + 2.0 * h), t1 - 2.0 * h)
    ts = center[..., None] + h[..., None] * np.arange(-2.0, 3.0)
    raw = np.asarray(fn(ts.reshape(-1)), dtype=float)
    vals = raw.reshape(ts.shape + (-1,))
    # the quartic in u = (s - t) / h: derivatives at t read off the
    # coefficients, and the scaled Vandermonde system is well conditioned
    u = (ts - t[..., None]) / h[..., None]
    coeffs = np.linalg.solve(u[..., None] ** np.arange(5.0), vals)
    out = (coeffs[..., 1, :] / h[..., None] if order == 1
           else 2.0 * coeffs[..., 2, :] / h[..., None] ** 2)
    if t.ndim == 0:
        return out if out.size > 1 else float(out[0])
    return out.reshape(t.shape + raw.shape[1:])
