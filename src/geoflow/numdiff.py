"""Finite-difference derivatives with a fixed step policy.

Everything here is a 4th-order central difference.  Its error is about
eps/h from roundoff plus h^4 from truncation, smallest near
h ~ eps^(1/5) ~ 7e-4, so the steps are:

* ``STEP`` = eps^(1/4) ~ 1.2e-4, the default, for the derivatives of
  metric entries, potential values, eta, gradient fields and divergence
  values, whether the field is a closed form or itself a finite
  difference.  Near the optimum, it keeps the roundoff of a closed form's
  derivative near 1e-12 relative; on a field that already carries ~1e-11
  of difference noise it keeps the second differentiation near 1e-7.
  The smaller eps^(1/3), the optimum of a 2nd-order stencil, read 10 to
  25 times worse on the Hessian and Fujiwara-Amari checks and on the
  mode-plane curvature.
* ``STEP_COEFFS`` = 3.5e-4 for derivatives of connection-coefficient
  fields inside the curvature pipeline, which stack two levels of
  differentiation.  It holds the unit sphere's s = -2 within 1e-8 over
  theta in [0.3, pi - 0.3] and the mode-plane closed form within 1e-8
  relative; a scale of 1e-3 loses the sphere near theta = pi - 0.3,
  where the step widens with |theta|.
* ``STEP_CURVE`` for :func:`curve_derivative`'s stencil in time, which
  differentiates dense output and closed-form curves alike.

One rule holds for all three: each is a relative scale, and a stencil
around x steps by scale * max(1, |x_j|) in coordinate j (in t for
``STEP_CURVE``).

A single routine, :func:`jacobian_fd`, differentiates scalar- or
array-valued functions at a point or a stack of points, with one call of
the function on every shifted copy at once: the function must broadcast
over leading axes.  :func:`curve_derivative` differentiates functions of
time along a curve, with one call on every stencil time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ClosureShapeError

__all__ = [
    "EPS",
    "STEP",
    "STEP_COEFFS",
    "STEP_CURVE",
    "jacobian_fd",
    "curve_derivative",
]

EPS = float(np.finfo(float).eps)
STEP = EPS ** 0.25
STEP_COEFFS = 3.5e-4
STEP_CURVE = 1e-4

# 4th-order central stencil: f' ~ (-f2 + 8 f1 - 8 f_1 + f_2) / 12h
_W4 = np.array([-1.0, 8.0, -8.0, 1.0]) / 12.0
_O4 = np.array([2.0, 1.0, -1.0, -2.0])


@lru_cache(maxsize=64)
def _offsets(dim: int, ndim: int) -> np.ndarray:
    """The read-only table of stencil offsets for points of ``dim``
    coordinates held in an ``ndim``-axis array: entry ``[a, j]`` moves
    coordinate j by ``_O4[a]`` steps, shaped to broadcast against the
    points and their steps."""
    table = (_O4[:, None, None] * np.eye(dim)).reshape(
        (4, dim) + (1,) * (ndim - 1) + (dim,))
    table.flags.writeable = False
    return table


def jacobian_fd(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                scale: float = STEP) -> np.ndarray:
    """Array of partials of a scalar- or array-valued function.

    Returns J with J[..., j] = d fn / d x_j, i.e. the derivative index is the
    trailing axis; for a scalar function that is the gradient covector.  A
    stack of points ``(n, dim)`` gives one leading axis of n, and each point
    gets its own steps.  ``fn`` is called once, on the ``(4, dim) + x.shape``
    stack of every shifted copy of x; a result whose leading axes are not
    ``(4, dim) + x.shape[:-1]`` raises ClosureShapeError.  Coordinate j
    steps by ``scale * max(1, |x_j|)``.
    """
    x = np.asarray(x, dtype=float)
    h = scale * np.maximum(1.0, np.abs(x))
    dim = x.shape[-1]
    # shifted[a, j] is x with coordinate j moved by _O4[a] steps
    shifted = x + _offsets(dim, x.ndim) * h
    vals = np.asarray(fn(shifted), dtype=float)
    lead = (4, dim) + x.shape[:-1]
    if vals.shape[:len(lead)] != lead:
        raise ClosureShapeError(
            f"closure returned shape {vals.shape} on points {shifted.shape}; "
            "closures must broadcast over leading axes")
    # the weighted rows, summed left to right from 0 as sum() would: a
    # sum of -0.0 rows reads +0.0
    rows = vals * _W4.reshape((4,) + (1,) * (vals.ndim - 1))
    acc = 0.0 + rows[0]
    acc += rows[1]
    acc += rows[2]
    acc += rows[3]
    # the derivative axis, first in acc, moves last as a view
    jac = acc.transpose(tuple(range(1, acc.ndim)) + (0,))
    # h holds one step per point and coordinate; broadcast it over the
    # value axes that sit between the two
    return jac / h.reshape(h.shape[:-1] + (1,) * (jac.ndim - h.ndim)
                           + h.shape[-1:])


def curve_derivative(fn: Callable[[np.ndarray], np.ndarray], t,
                     span: tuple[float, float], order: int = 1):
    """Differentiate a function of time known on a closed span.

    Fits the exact quartic through a 5-point stencil, of step
    ``STEP_CURVE * max(1, |t|)``, and differentiates it at ``t``.  The
    stencil is kept inside ``span`` by sliding its center, so the
    result stays 4th-order accurate even at the span's ends.  ``order`` is 1
    or 2; any other order raises ValueError.

    ``t`` is a scalar or an array of times; ``fn`` is called once, on the
    1-D array of all stencil times, and returns one value (a scalar or a
    vector) per time.  A scalar t gives a float for scalar values and a
    vector otherwise; an array gives one value per t, shaped
    ``t.shape + value shape``.  The span's end may be an array that
    broadcasts against t, one end per row of times.
    """
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order!r}")
    t0, t1 = span
    width = t1 - t0
    if np.any(width <= 0.0):
        raise ValueError("degenerate span")
    t = np.asarray(t, dtype=float)
    h = np.minimum(STEP_CURVE * np.maximum(1.0, np.abs(t)), width / 4.0)
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
