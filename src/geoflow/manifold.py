"""Charts, metrics, potentials, connections, and ODE integration.

The geometric substrate: everything else in the package is built from the
types and operations here.  Charts are single global coordinate patches;
there is no atlas machinery.  Metrics, their partials, potentials and
their gradients evaluate one point or a stack of points in one call, and
so do :func:`metric_inverse`, :func:`gradient` and the Levi-Civita
coefficients.  Absent analytic derivatives, derivatives fall back to the
4th-order central differences of :func:`geoflow.numdiff.jacobian_fd`,
which differentiate a whole stack in one call.

Index conventions used throughout:

* metric partials are stored as ``D[l, i, j] = d_l g_ij``, and a
  diagonal metric's as ``P[l, i] = d_l g_ii``
* connection coefficients as ``G[k, i, j] = Gamma^k_ij``
* field Jacobians as ``J[k, i] = d_i V^k``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import RK45

from . import numdiff
from .errors import (
    ClosureShapeError,
    NonConvergenceError,
    OutOfSpanError,
    SingularMatrixError,
    StepUnderflowError,
)

__all__ = [
    "Chart",
    "MetricField",
    "ScalarPotential",
    "AffineConnection",
    "Trajectory",
    "span_times",
    "metric_inverse",
    "gradient",
    "grad_norm_sq",
    "christoffel_levi_civita",
    "levi_civita_connection",
    "covariant_acceleration",
    "integrate_geodesic",
    "integrate_flow",
]

#: condition-number ceiling beyond which a metric counts as degenerate
COND_LIMIT = 1e12

#: accepted steps per non-convergence monitoring window
_MONITOR_WINDOW = 64


@dataclass(frozen=True)
class Chart:
    """A single global coordinate patch.

    Parameters
    ----------
    dim : int
        Number of coordinates.
    domain_check : callable, optional
        Predicate marking the valid region.  ``None`` means the whole of
        R^dim is valid.
    name : str
        Label used in error messages.
    """

    dim: int
    domain_check: Callable[[np.ndarray], bool] | None = None
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("chart dimension must be >= 1")

    def contains(self, x: np.ndarray) -> bool:
        if self.domain_check is None:
            return True
        return bool(self.domain_check(np.asarray(x, dtype=float)))


class MetricField:
    """Position-dependent symmetric positive-definite bilinear form.

    Parameters
    ----------
    chart : Chart
    matrix : callable, optional
        ``matrix(x) -> (..., dim, dim)`` array of components g_ij.  It
        broadcasts over leading axes: a point ``(dim,)`` gives one
        ``(dim, dim)`` matrix, a stack ``(n, dim)`` gives ``(n, dim, dim)``.
    partials : callable, optional
        Analytic closure ``partials(x) -> (..., dim, dim, dim)`` with
        ``D[..., l, i, j] = d_l g_ij``.  It broadcasts like ``matrix``: a
        point gives ``(dim, dim, dim)``, a stack ``(n, dim, dim, dim)``.
        For a diagonal metric it returns ``P[..., l, i] = d_l g_ii``
        instead: ``(dim, dim)`` for a point, ``(n, dim, dim)`` for a
        stack.  When omitted, partials come from finite differences of
        the matrix, or of the diagonal.
    name : str
    diagonal : callable, optional
        Keyword-only, given in place of ``matrix`` for a metric that is
        diagonal in the chart: ``diagonal(x) -> (..., dim)`` returns g_ii,
        broadcasting like ``matrix``.  Calling the field still gives the
        dense matrix, and :meth:`partials` the dense tensor, while
        :meth:`inner`, :meth:`lower`, :func:`metric_inverse` and
        :func:`gradient` work on the diagonal alone, in O(dim) per point
        with no LAPACK call, :meth:`cubic_form` works on ``P`` alone, with
        no ``(dim, dim, dim)`` array, and the Levi-Civita coefficients
        skip their O(dim^4) contraction.

    Exactly one of ``matrix`` and ``diagonal`` is given (``ValueError``
    otherwise).  Positive-definiteness is never checked on evaluation;
    callers check their own models with :meth:`check_positive_definite`.
    Calling the field, :meth:`diagonal` or :meth:`partials` passes a point
    or a stack to its closure in one call and raises
    :class:`~geoflow.errors.ClosureShapeError` when the result does not
    have the shape above.
    """

    def __init__(self, chart: Chart,
                 matrix: Callable[[np.ndarray], np.ndarray] | None = None,
                 partials: Callable[[np.ndarray], np.ndarray] | None = None,
                 name: str = "", *,
                 diagonal: Callable[[np.ndarray], np.ndarray] | None = None):
        if (matrix is None) == (diagonal is None):
            raise ValueError("give a metric exactly one of matrix= and "
                             "diagonal=")
        self.chart = chart
        self._matrix = matrix
        self._diagonal = diagonal
        self._partials = partials
        self.name = name

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self._diagonal is not None:
            return _diag_matrix(self.diagonal(x))
        x = np.asarray(x, dtype=float)
        m = np.asarray(self._matrix(x), dtype=float)
        dim = self.chart.dim
        _check_shape(m, x.shape[:-1] + (dim, dim), self.name or "metric")
        return m

    @property
    def is_diagonal(self) -> bool:
        return self._diagonal is not None

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        """The components g_ii, ``(..., dim)``, of a diagonal metric."""
        if self._diagonal is None:
            raise TypeError(f"metric {self.name!r} has no diagonal form")
        x = np.asarray(x, dtype=float)
        d = np.asarray(self._diagonal(x), dtype=float)
        _check_shape(d, x.shape, f"{self.name or 'metric'} diagonal")
        return d

    def partials(self, x: np.ndarray) -> np.ndarray:
        """Partial derivatives ``D[..., l, i, j] = d_l g_ij`` at a point or a stack."""
        d = self._own_partials(x)
        return _diag_matrix(d) if self.is_diagonal else d

    def _own_partials(self, x: np.ndarray):
        """The partials in the metric's own form: ``P[..., l, i]`` for a
        diagonal metric, else ``D[..., l, i, j]``.  Finite differences of
        the diagonal or the matrix, at ``numdiff.STEP``, when the metric
        has no partials closure."""
        x = np.asarray(x, dtype=float)
        if self._partials is None:
            jac = numdiff.jacobian_fd(self.diagonal if self.is_diagonal
                                      else self, x)
            return np.moveaxis(jac, -1, -2 if self.is_diagonal else -3)
        d = np.asarray(self._partials(x), dtype=float)
        tail = (self.chart.dim,) * (1 if self.is_diagonal else 2)
        _check_shape(d, x.shape + tail, f"{self.name or 'metric'} partials")
        return d

    def cubic_form(self, x: np.ndarray, v: np.ndarray) -> float | np.ndarray:
        """d_k g_ij v^k v^i v^j: a float at a point, ``(n,)`` on a stack.

        A diagonal metric contracts its ``P[..., l, i]``, in O(dim^2) per
        point, and never builds the dense partials.
        """
        d = self._own_partials(x)
        out = (np.einsum("...l,...li,...i->...", v, d, v * v)
               if self.is_diagonal
               else np.einsum("...kij,...k,...i,...j->...", d, v, v, v))
        return float(out) if out.ndim == 0 else out

    def lower(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The covector g_ij v^j of a vector, or of a stack of vectors at x."""
        if self._diagonal is not None:
            return self.diagonal(x) * v
        return np.einsum("...ij,...j->...i", self(x), v)

    def inner(self, x: np.ndarray, u: np.ndarray,
              v: np.ndarray) -> float | np.ndarray:
        """g(u, v) = u^i g_ij v^j: a float at a point, ``(n,)`` on a stack."""
        if self._diagonal is not None:
            out = np.einsum("...i,...i,...i->...", u, self.diagonal(x), v)
        else:
            out = np.einsum("...i,...ij,...j->...", u, self(x), v)
        return float(out) if out.ndim == 0 else out

    def check_positive_definite(self, points: Sequence[np.ndarray]) -> None:
        """Raise ``ValueError`` naming the first point at which the metric
        is non-symmetric or not positive definite.

        The points are evaluated as one stack; a diagonal metric is
        positive definite where every g_ii > 0.
        """
        x = np.asarray(points, dtype=float)
        if self._diagonal is not None:
            _raise_at(~(self.diagonal(x) > 0.0).all(axis=-1), x,
                      "metric not positive definite")
            return
        m = self(x)
        _raise_at(~np.isclose(m, np.swapaxes(m, -1, -2),
                              atol=1e-12).all(axis=(-2, -1)),
                  x, "metric not symmetric")
        _raise_at(~(np.linalg.eigvalsh(m).min(axis=-1) > 0.0), x,
                  "metric not positive definite")

    def norm(self, x: np.ndarray, v: np.ndarray) -> float | np.ndarray:
        """Riemannian norm of a tangent vector, or of a stack of them."""
        return np.sqrt(np.maximum(self.inner(x, v, v), 0.0))


class ScalarPotential:
    """Smooth scalar function with (optionally) a designated minimum.

    Parameters
    ----------
    value : callable
        ``value(x)``: a scalar for a point ``(dim,)``, shape ``(n,)`` for a
        stack ``(n, dim)``; it broadcasts over leading axes.  Calling the
        potential passes the point or stack in one call, returns a float
        for a point, and raises :class:`~geoflow.errors.ClosureShapeError`
        on any other shape.
    gradient : callable, optional
        Analytic partials ``gradient(x)``: the ``(dim,)`` covector for a
        point, ``(n, dim)`` for a stack; it broadcasts like ``value``.
        Finite differences of ``value`` otherwise.
    minimum_q : array-like, optional
        The designated minimum.  ``None`` for potentials whose infimum lies
        outside the chart; operations that need q raise in that case.
    """

    def __init__(self, value: Callable[[np.ndarray], float],
                 gradient: Callable[[np.ndarray], np.ndarray] | None = None,
                 minimum_q: np.ndarray | None = None,
                 name: str = ""):
        self._value = value
        self._gradient = gradient
        self.minimum_q = None if minimum_q is None else np.asarray(minimum_q, dtype=float)
        self.name = name

    def __call__(self, x: np.ndarray) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        v = np.asarray(self._value(x), dtype=float)
        _check_shape(v, x.shape[:-1], self.name or "potential")
        return float(v) if v.ndim == 0 else v

    def gradient_covector(self, x: np.ndarray) -> np.ndarray:
        """Partial derivatives (d_i f) at a point or a stack, shaped like x.

        Raises :class:`~geoflow.errors.ClosureShapeError` when the
        gradient closure returns any other shape.
        """
        x = np.asarray(x, dtype=float)
        if self._gradient is None:
            return numdiff.jacobian_fd(self, x)
        df = np.asarray(self._gradient(x), dtype=float)
        _check_shape(df, x.shape, f"{self.name or 'potential'} gradient")
        return df


def _check_shape(out: np.ndarray, want: tuple, name: str) -> None:
    if out.shape != want:
        raise ClosureShapeError(
            f"{name} closure returned shape {out.shape}, expected {want}; "
            "closures must broadcast over leading axes")


def _raise_at(bad: np.ndarray, x: np.ndarray, message: str) -> None:
    """ValueError naming the first point of x at which ``bad`` holds."""
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"{message} at {x[i]}")


@dataclass(frozen=True)
class AffineConnection:
    """Coefficient field Gamma^k_ij over a chart.

    ``coeffs(x)`` returns the (dim, dim, dim) array ``G[k, i, j]`` for a
    point and ``(n, dim, dim, dim)`` for a stack of n points: it
    broadcasts over leading axes, so that finite differences of the field
    take one call per stencil.  ``chart`` bounds the geodesics of the
    connection, and ``metric`` supplies the g used for curvature
    contraction.
    """

    coeffs: Callable[[np.ndarray], np.ndarray]
    chart: Chart
    metric: MetricField

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.coeffs(np.asarray(x, dtype=float)), dtype=float)


def _check_condition(s_max, s_min, x: np.ndarray) -> None:
    """Raise unless s_max <= 1e12 s_min at every point, with s_min > 0.

    s_max and s_min are the largest and smallest singular values of the
    metric, per point; the rule is checked without dividing, and it fails
    for a zero or nan s_min, i.e. an infinite or undefined condition number.
    """
    ok = (s_max <= COND_LIMIT * s_min) & (s_min > 0.0)
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        cond = s_max[i] / s_min[i] if s_min[i] > 0.0 else np.inf
        raise SingularMatrixError(
            f"metric at {np.asarray(x)[i]} has condition number {cond:.3e}")


def _inverse(g: MetricField, x: np.ndarray) -> np.ndarray:
    """g^{-1} at x in g's own form: the ``(..., dim)`` reciprocals 1/g_ii
    of a diagonal metric, else :func:`metric_inverse`'s matrix."""
    if not g.is_diagonal:
        return metric_inverse(g, x)
    d = g.diagonal(x)
    a = np.abs(d)
    _check_condition(a.max(axis=-1), a.min(axis=-1), x)
    return 1.0 / d


def _raise_index(g: MetricField, ginv: np.ndarray,
                 w: np.ndarray) -> np.ndarray:
    """The vector g^{ij} w_j, from ``ginv`` in :func:`_inverse`'s form."""
    if g.is_diagonal:
        return ginv * w
    return (ginv @ w[..., None])[..., 0]


def _diag_matrix(d: np.ndarray) -> np.ndarray:
    """The ``(..., n, n)`` matrices with diagonals ``d`` ``(..., n)``."""
    n = d.shape[-1]
    m = np.zeros(d.shape + (n,))
    # every (n + 1)-th element of each flattened matrix is on its diagonal
    m.reshape(d.shape[:-1] + (n * n,))[..., :: n + 1] = d
    return m


def metric_inverse(g: MetricField, x: np.ndarray) -> np.ndarray:
    """Inverse metric components g^{ij} at a point or a stack of points.

    A diagonal metric inverts elementwise, g^{ii} = 1/g_ii, and its
    condition number is max|g_ii| / min|g_ii|.  Any other metric takes
    one singular value decomposition g = U diag(s) V^T per point: s
    gives the condition number s_max / s_min, the definition
    ``np.linalg.cond`` uses, and the factors give the inverse
    V diag(1/s) U^T.  On diagonal matrices of up to 24 dimensions the two
    routes agree to the bit; from 26 on, LAPACK's divide-and-conquer SVD
    differs from 1/g_ii in the last bits.

    Raises
    ------
    SingularMatrixError
        If the condition number at any point exceeds 1e12, or a component
        is not finite.
    """
    if g.is_diagonal:
        return _diag_matrix(_inverse(g, x))
    m = g(x)
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        # LAPACK's SVD fails on nan and inf components
        finite = np.isfinite(m).all(axis=(-2, -1))
        i = np.unravel_index(np.argmin(finite), finite.shape)
        raise SingularMatrixError(
            f"metric at {np.asarray(x)[i]} has no inverse: {exc}") from exc
    _check_condition(s[..., 0], s[..., -1], x)
    return vh.swapaxes(-1, -2) / s[..., None, :] @ u.swapaxes(-1, -2)


def gradient(g: MetricField, f: ScalarPotential, x: np.ndarray) -> np.ndarray:
    """Riemannian gradient g^{ij} d_j f, the unique vector with g(grad f, .) = df.

    A stack of points gives the stack of gradients.  A diagonal metric
    divides elementwise, as (1/g_ii) d_i f.
    """
    df = f.gradient_covector(x)
    return _raise_index(g, _inverse(g, x), df)


def grad_norm_sq(g: MetricField, f: ScalarPotential,
                 x: np.ndarray) -> float | np.ndarray:
    """Squared Riemannian norm g(grad f, grad f) = d_i f g^{ij} d_j f.

    A float at a point, ``(n,)`` on a stack of n points.
    """
    v = gradient(g, f, x)
    return g.inner(x, v, v)


def christoffel_levi_civita(g: MetricField, x: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients Gamma^k_ij = 1/2 g^{kl}(d_i g_jl + d_j g_il - d_l g_ij).

    The metric partials are the metric's partials closure, or finite
    differences of the metric at ``numdiff.STEP`` when it has none.  A
    stack of points ``(n, dim)`` gives ``(n, dim, dim, dim)``: the inverse
    metric and the partials each come from one call.  A diagonal metric
    scales row k by 1/g_kk instead of contracting with g^{kl}, so the
    contraction costs O(dim^3), not O(dim^4), per point.
    """
    x = np.asarray(x, dtype=float)
    ginv = _inverse(g, x)
    dg = g._own_partials(x)
    return _levi_civita(g, ginv, _diag_matrix(dg) if g.is_diagonal else dg)


def _levi_civita(g: MetricField, ginv: np.ndarray,
                 dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij from g^{-1} in :func:`_inverse`'s form and the partials
    ``D[..., l, i, j]``."""
    term = (dg + np.einsum("...jil->...ijl", dg)
            - np.einsum("...lij->...ijl", dg))
    if g.is_diagonal:
        return 0.5 * (ginv[..., :, None, None] * np.moveaxis(term, -1, -3))
    return 0.5 * np.einsum("...kl,...ijl->...kij", ginv, term)


def levi_civita_connection(g: MetricField) -> AffineConnection:
    """The metric connection of g as an AffineConnection."""
    return AffineConnection(lambda x: christoffel_levi_civita(g, x),
                            chart=g.chart, metric=g)


def span_times(t,
               span: tuple[float, float | np.ndarray]) -> float | np.ndarray:
    """t (a scalar or an array) as floats clipped into ``span``.

    Roundoff-level overshoot at either end is tolerated and clipped away.
    A batch of curves has one span end per curve, shape ``(B,)``; t's
    leading axis then runs over the curves.

    Raises
    ------
    OutOfSpanError
        If any element lies outside the span by more than that.
    """
    t0, t1 = span
    t = np.asarray(t, dtype=float)
    if np.ndim(t1):     # a batch: its span ends run down t's leading axis
        t1 = t1.reshape(t1.shape + (1,) * (t.ndim - 1))
        slack = 1e-12 * np.maximum(max(1.0, abs(t0)), np.abs(t1))
    else:
        slack = 1e-12 * max(1.0, abs(t0), abs(t1))
    inside = (t >= t0 - slack) & (t <= t1 + slack)
    if not inside.all():
        raise OutOfSpanError(
            f"t={t[~inside]} outside trajectory span [{t0}, {t1}]")
    return np.minimum(np.maximum(t, t0), t1)


class Trajectory:
    """Integrated curve with dense output.

    Samples are the accepted integrator steps; between them, position (and
    velocity, for second-order states) comes from RK45's own quartic
    interpolant on each step, so dense queries carry the integration
    tolerance.  The steps' interpolant data are stacked once, and a query
    at any number of times is one vectorized evaluation: a time on a step
    boundary takes the earlier step, as in
    :class:`scipy.integrate.OdeSolution`.

    ``position``, ``velocity`` and ``acceleration`` take a scalar t, giving
    shape ``(dim,)``, or an array of times, giving ``t.shape + (dim,)``;
    ``position_velocity`` gives both from one query.  A time outside
    ``span`` raises :class:`~geoflow.errors.OutOfSpanError`.  A flow's
    velocity applies its field to the whole position stack in one call,
    and the acceleration differentiates the velocity at every t with one
    velocity call over all stencil times.

    Attributes
    ----------
    ts, xs, vs : ndarray
        Sample times, positions, velocities.
    exited_domain : bool
        True when integration stopped early at the last in-domain state.
    converged : bool
        True when a stop condition (gradient-norm threshold) fired.
    """

    def __init__(self, ts, xs, vs, dense: tuple | None, dim: int,
                 velocity_field: Callable[[np.ndarray], np.ndarray] | None = None,
                 exited_domain: bool = False, converged: bool = False):
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.vs = np.asarray(vs, dtype=float)
        # (t_old, h, y_old, Q) of the steps from :func:`_integrate`, or None
        # when no step of positive length was taken
        self._dense = dense
        self._dim = dim
        self._velocity_field = velocity_field
        self.exited_domain = exited_domain
        self.converged = converged

    @property
    def span(self) -> tuple[float, float]:
        return float(self.ts[0]), float(self.ts[-1])

    def _state(self, t) -> np.ndarray:
        t = span_times(t, self.span)
        if self._dense is None:
            y0 = np.concatenate([self.xs[0], self.vs[0]])
            return np.broadcast_to(y0, np.shape(t) + y0.shape).copy()
        t_old, h, y_old, q = self._dense
        i = np.clip(np.searchsorted(self.ts, t, side="left") - 1,
                    0, h.size - 1)
        x = ((t - t_old[i]) / h[i])[..., None]
        # the powers x, x^2, x^3, x^4 of the step fraction
        p = np.cumprod(np.repeat(x, q.shape[-1], axis=-1), axis=-1)
        y = np.einsum("...ij,...j->...i", q[i], p)
        return h[i][..., None] * y + y_old[i]

    def position(self, t) -> np.ndarray:
        return self._state(t)[..., : self._dim]

    def velocity(self, t) -> np.ndarray:
        return self.position_velocity(t)[1]

    def position_velocity(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Position and velocity at t from one evaluation of the dense
        output; a flow applies its field to that position stack."""
        if self._velocity_field is None:
            y = self._state(t)
            return y[..., : self._dim], y[..., self._dim:]
        x = self.position(t)
        return x, np.asarray(self._velocity_field(x), dtype=float)

    def acceleration(self, t) -> np.ndarray:
        """d(velocity)/dt from the dense output (5-point stencil).

        Needs a span of positive width.
        """
        t = span_times(t, self.span)
        acc = numdiff.curve_derivative(self.velocity, t, self.span, order=1)
        return np.reshape(acc, np.shape(t) + (self._dim,))


def _integrate(rhs, y0, t_end, tol, *, in_domain, grad_monitor=None,
               stop_below=None):
    """Drive scipy's RK45 step by step; collect dense output and flags.

    The dense output stacks each step's interpolant data,
    ``(t_old, h, y_old, Q)`` with shapes ``(steps,)``, ``(steps,)``,
    ``(steps, n)`` and ``(steps, n, 4)``, for :class:`Trajectory`.

    ``grad_monitor(y, dy)`` gets each accepted state with the RHS there
    (RK45's first-same-as-last stage, so it costs no evaluation) and
    returns the gradient norm; integration stops, flagged converged, once
    it falls below ``stop_below``.  A seed already below it takes no step
    (RK45 holds the RHS at y0 from its setup).  The dense output is
    ``None`` when no step of positive length was accepted: RK45's only
    zero-length step, at ``t_end == 0``, keeps the initial state.
    """
    y0 = np.asarray(y0, dtype=float)
    solver = RK45(rhs, 0.0, y0, t_bound=float(t_end), rtol=tol, atol=tol)
    ts = [0.0]
    ys = [y0.copy()]
    steps = []
    exited = False
    converged = (grad_monitor is not None and stop_below is not None
                 and grad_monitor(y0, solver.f) < stop_below)
    window: list[float] = []
    prev_window_min = np.inf
    while solver.status == "running" and not converged:
        msg = solver.step()
        if solver.status == "failed":
            raise StepUnderflowError(msg or "adaptive step size underflow")
        if not in_domain(solver.y):
            exited = True
            break
        if solver.t != solver.t_old:    # zero-length only at t_end == 0
            steps.append(solver.dense_output())
        ts.append(solver.t)
        ys.append(solver.y.copy())
        if grad_monitor is None:
            continue
        norm = grad_monitor(solver.y, solver.f)
        if stop_below is not None and norm < stop_below:
            converged = True
            break
        window.append(norm)
        if len(window) == _MONITOR_WINDOW:
            wmin = min(window)
            floor = 1e-13 * (1.0 + float(np.linalg.norm(solver.y)))
            if wmin >= prev_window_min and wmin > floor:
                raise NonConvergenceError(
                    "gradient norm failed to decrease over a full "
                    f"window of {_MONITOR_WINDOW} steps")
            prev_window_min = wmin
            window = []
    dense = None
    if steps:
        dense = (np.array([s.t_old for s in steps]),
                 np.array([s.h for s in steps]),
                 np.stack([s.y_old for s in steps]),
                 np.stack([s.Q for s in steps]))
    return np.array(ts), np.array(ys), dense, exited, converged


def integrate_geodesic(conn: AffineConnection, x0, v0, t_end: float,
                       tol: float = 1e-10) -> Trajectory:
    """Solve the geodesic equation xdd^k = -Gamma^k_ij xd^i xd^j.

    Integration stops early, flagged via ``Trajectory.exited_domain``, if the
    curve leaves the chart domain.  With identical (x0, v0, t_end, tol) the
    result is reproducible bit for bit.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    n = x0.size

    def rhs(_t, y):
        x, v = y[:n], y[n:]
        acc = -np.einsum("kij,i,j->k", conn(x), v, v)
        return np.concatenate([v, acc])

    ts, ys, dense, exited, _ = _integrate(
        rhs, np.concatenate([x0, v0]), t_end, tol,
        in_domain=lambda y: conn.chart.contains(y[:n]))
    return Trajectory(ts, ys[:, :n], ys[:, n:], dense, n,
                      exited_domain=exited)


def integrate_flow(g: MetricField, f: ScalarPotential, x0, t_end: float,
                   tol: float = 1e-10,
                   stop_grad_norm: float | None = None) -> Trajectory:
    """Integrate the gradient descent xd = -grad f.

    Parameters
    ----------
    stop_grad_norm : float, optional
        Stop early (flagged ``converged``) once the Riemannian gradient norm
        falls below this threshold.  A seed already below it takes no
        step: the trajectory holds x0 alone, with span (0, 0).

    Raises
    ------
    NonConvergenceError
        If the gradient norm fails to decrease over a full output window,
        the numerical stand-in for a flow that is not relaxing.
    """
    x0 = np.asarray(x0, dtype=float)

    def field(x):
        return -gradient(g, f, x)

    def monitor(x, xdot):
        # |grad f|^2 = df(grad f) = -df(xdot), with xdot = field(x) at hand
        return np.sqrt(max(-float(f.gradient_covector(x) @ xdot), 0.0))

    ts, ys, dense, exited, converged = _integrate(
        lambda _t, x: field(x), x0, t_end, tol, in_domain=g.chart.contains,
        grad_monitor=monitor, stop_below=stop_grad_norm)
    vs = field(ys)
    return Trajectory(ts, ys, vs, dense, x0.size, velocity_field=field,
                      exited_domain=exited, converged=converged)


def covariant_acceleration(conn: AffineConnection, traj: Trajectory,
                           t) -> np.ndarray:
    """nabla_{xd} xd at time t: xdd^k + Gamma^k_ij xd^i xd^j.

    The coordinate acceleration comes from differentiating the trajectory's
    dense velocity output; the connection term is evaluated at x(t).  A
    1-D array of t gives one row per time.
    """
    x, v = traj.position_velocity(t)
    acc = traj.acceleration(t)
    return acc + np.einsum("...kij,...i,...j->...k", conn(x), v, v)
