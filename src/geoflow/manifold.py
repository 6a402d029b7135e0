"""Charts, metrics, potentials, connections, and ODE integration.

The geometric substrate: everything else in the package is built from the
types and operations here.  Charts are single global coordinate patches;
there is no atlas machinery.  Metrics, potentials and their gradients
evaluate one point or a stack of points in one call, and so do
:func:`metric_inverse`, :func:`gradient` and the Levi-Civita coefficients.
Metric partials are pointwise closures; absent analytic derivatives,
derivatives fall back to the 4th-order central differences in
:mod:`geoflow.numdiff`.

Index conventions used throughout:

* metric partials are stored as ``D[l, i, j] = d_l g_ij``
* connection coefficients as ``G[k, i, j] = Gamma^k_ij``
* field Jacobians as ``J[k, i] = d_i V^k``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import RK45, OdeSolution

from . import numdiff
from .errors import (
    ClosureShapeError,
    CriticalPointError,
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

#: time step (relative) for differentiating dense output along a curve
CURVE_STEP = 1e-4

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
    matrix : callable
        ``matrix(x) -> (..., dim, dim)`` array of components g_ij.  It
        broadcasts over leading axes: a point ``(dim,)`` gives one
        ``(dim, dim)`` matrix, a stack ``(n, dim)`` gives ``(n, dim, dim)``.
    partials : callable, optional
        Analytic closure ``partials(x) -> (dim, dim, dim)`` with
        ``D[l, i, j] = d_l g_ij``.  When omitted, partials come from finite
        differences of ``matrix``.
    name : str

    Positive-definiteness is checked lazily via :meth:`check_positive_definite`
    on fixture points, not on every evaluation.  Calling the field passes a
    point or a stack to ``matrix`` in one call and raises
    :class:`~geoflow.errors.ClosureShapeError` when the result does not
    have the shape above.
    """

    def __init__(self, chart: Chart, matrix: Callable[[np.ndarray], np.ndarray],
                 partials: Callable[[np.ndarray], np.ndarray] | None = None,
                 name: str = ""):
        self.chart = chart
        self._matrix = matrix
        self._partials = partials
        self.name = name

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        m = np.asarray(self._matrix(x), dtype=float)
        dim = self.chart.dim
        _check_shape(m, x.shape[:-1] + (dim, dim), self.name or "metric")
        return m

    @property
    def has_analytic_partials(self) -> bool:
        return self._partials is not None

    def partials(self, x: np.ndarray) -> np.ndarray:
        """Partial derivatives ``D[l, i, j] = d_l g_ij`` at x."""
        x = np.asarray(x, dtype=float)
        if self._partials is not None:
            return np.asarray(self._partials(x), dtype=float)
        jac = numdiff.jacobian_fd(self.__call__, x, scale=numdiff.STEP_EXACT)
        return np.einsum("ijl->lij", jac)

    def check_positive_definite(self, points: Sequence[np.ndarray]) -> None:
        """Raise if the metric is non-symmetric or not positive definite anywhere."""
        for x in points:
            m = self(x)
            if not np.allclose(m, m.T, atol=1e-12):
                raise ValueError(f"metric not symmetric at {x}")
            if np.linalg.eigvalsh(m).min() <= 0.0:
                raise ValueError(f"metric not positive definite at {x}")

    def norm(self, x: np.ndarray, v: np.ndarray) -> float:
        """Riemannian norm of a tangent vector."""
        v = np.asarray(v, dtype=float)
        return float(np.sqrt(max(v @ self(x) @ v, 0.0)))


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
    min_value : float
        Value at the minimum.
    """

    def __init__(self, value: Callable[[np.ndarray], float],
                 gradient: Callable[[np.ndarray], np.ndarray] | None = None,
                 minimum_q: np.ndarray | None = None,
                 min_value: float = 0.0,
                 name: str = ""):
        self._value = value
        self._gradient = gradient
        self.minimum_q = None if minimum_q is None else np.asarray(minimum_q, dtype=float)
        self.min_value = float(min_value)
        self.name = name

    def __call__(self, x: np.ndarray) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        v = np.asarray(self._value(x), dtype=float)
        _check_shape(v, x.shape[:-1], self.name or "potential")
        return float(v) if v.ndim == 0 else v

    @property
    def has_analytic_gradient(self) -> bool:
        return self._gradient is not None

    def gradient_covector(self, x: np.ndarray) -> np.ndarray:
        """Partial derivatives (d_i f) at a point or a stack, shaped like x.

        Raises :class:`~geoflow.errors.ClosureShapeError` when the
        gradient closure returns any other shape.
        """
        x = np.asarray(x, dtype=float)
        if self._gradient is None:
            return numdiff.gradient_fd(self.__call__, x,
                                       scale=numdiff.STEP_EXACT)
        df = np.asarray(self._gradient(x), dtype=float)
        _check_shape(df, x.shape, f"{self.name or 'potential'} gradient")
        return df


def _check_shape(out: np.ndarray, want: tuple, name: str) -> None:
    if out.shape != want:
        raise ClosureShapeError(
            f"{name} closure returned shape {out.shape}, expected {want}; "
            "closures must broadcast over leading axes")


@dataclass(frozen=True)
class AffineConnection:
    """Coefficient field Gamma^k_ij over a chart.

    ``coeffs(x)`` returns the (dim, dim, dim) array ``G[k, i, j]`` for a
    point and ``(n, dim, dim, dim)`` for a stack of n points.  The
    optional ``metric`` back-reference supplies the g used for curvature
    contraction and norm computations; ``coeff_step`` is the relative step
    used when the coefficients themselves are differentiated (curvature).
    """

    coeffs: Callable[[np.ndarray], np.ndarray]
    symmetric: bool = True
    chart: Chart | None = None
    metric: MetricField | None = None
    coeff_step: float = numdiff.STEP_COEFFS

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.coeffs(np.asarray(x, dtype=float)), dtype=float)


def metric_inverse(g: MetricField, x: np.ndarray) -> np.ndarray:
    """Inverse metric components g^{ij} at a point or a stack of points.

    The condition number is s_max / s_min from one singular-value call,
    the definition ``np.linalg.cond`` uses, checked without dividing.

    Raises
    ------
    SingularMatrixError
        If the condition number at any point exceeds 1e12.
    """
    m = g(x)
    s = np.linalg.svd(m, compute_uv=False)
    # false for nan and for s_min = 0, i.e. an infinite condition number
    ok = (s[..., 0] <= COND_LIMIT * s[..., -1]) & (s[..., -1] > 0.0)
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        cond = s[i][0] / s[i][-1] if s[i][-1] > 0.0 else np.inf
        raise SingularMatrixError(
            f"metric at {np.asarray(x)[i]} has condition number {cond:.3e}")
    return np.linalg.inv(m)


def gradient(g: MetricField, f: ScalarPotential, x: np.ndarray) -> np.ndarray:
    """Riemannian gradient g^{ij} d_j f, the unique vector with g(grad f, .) = df.

    A stack of points gives the stack of gradients.
    """
    df = f.gradient_covector(x)
    return (metric_inverse(g, x) @ df[..., None])[..., 0]


def grad_norm_sq(g: MetricField, f: ScalarPotential, x: np.ndarray) -> float:
    """Squared Riemannian norm of grad f, i.e. d_i f g^{ij} d_j f."""
    df = f.gradient_covector(x)
    return float(df @ metric_inverse(g, x) @ df)


def christoffel_levi_civita(g: MetricField, x: np.ndarray,
                            step: float | None = None) -> np.ndarray:
    """Levi-Civita coefficients Gamma^k_ij = 1/2 g^{kl}(d_i g_jl + d_j g_il - d_l g_ij).

    ``step`` forces a fixed finite-difference step for the metric partials
    (a warning fires if it is small enough for roundoff to dominate);
    otherwise analytic partials are used when the metric has them, with the
    standard step policy as fallback.  A stack of points ``(n, dim)``
    gives ``(n, dim, dim, dim)``: the inverse metric comes from one call,
    the partials point by point.
    """
    x = np.asarray(x, dtype=float)
    ginv = metric_inverse(g, x)

    def partials(p):
        if step is None:
            return g.partials(p)
        return np.einsum("ijl->lij", numdiff.jacobian_fd(g.__call__, p,
                                                         step=step))

    dg = partials(x) if x.ndim == 1 else np.stack([partials(p) for p in x])
    term = (dg + np.einsum("...jil->...ijl", dg)
            - np.einsum("...lij->...ijl", dg))
    return 0.5 * np.einsum("...kl,...ijl->...kij", ginv, term)


def levi_civita_connection(g: MetricField) -> AffineConnection:
    """The metric connection of g as an AffineConnection."""
    step = numdiff.STEP_NESTED if not g.has_analytic_partials else numdiff.STEP_COEFFS
    return AffineConnection(
        coeffs=lambda x: christoffel_levi_civita(g, x),
        symmetric=True,
        chart=g.chart,
        metric=g,
        coeff_step=max(step, numdiff.STEP_COEFFS),
    )


def span_times(t, span: tuple[float, float]) -> float | np.ndarray:
    """t (a scalar or a 1-D array) as floats clipped into ``span``.

    Roundoff-level overshoot at either end is tolerated and clipped away.

    Raises
    ------
    OutOfSpanError
        If any element lies outside the span by more than that.
    """
    t0, t1 = span
    slack = 1e-12 * max(1.0, abs(t0), abs(t1))
    if isinstance(t, (float, int)) or getattr(t, "ndim", None) == 0:
        # plain float arithmetic: root searches query one t at a time
        t = float(t)
        if not t0 - slack <= t <= t1 + slack:
            raise OutOfSpanError(f"t={t} outside trajectory span [{t0}, {t1}]")
        return min(max(t, t0), t1)
    t = np.asarray(t, dtype=float)
    inside = (t >= t0 - slack) & (t <= t1 + slack)
    if not inside.all():
        raise OutOfSpanError(
            f"t={t[~inside]} outside trajectory span [{t0}, {t1}]")
    return np.clip(t, t0, t1)


class Trajectory:
    """Integrated curve with dense output.

    Samples are the accepted integrator steps; between them, position (and
    velocity, for second-order states) comes from the integrator's own
    per-step interpolants, joined in a :class:`scipy.integrate.OdeSolution`,
    so dense queries carry the integration tolerance.

    ``position``, ``velocity`` and ``acceleration`` take a scalar t, giving
    shape ``(dim,)``, or a 1-D array of n times, giving ``(n, dim)``.  A
    time outside ``span`` raises :class:`~geoflow.errors.OutOfSpanError`.
    A flow's velocity applies its field to the whole position stack in
    one call, and the acceleration differentiates the velocity at every
    t with one velocity call over all stencil times.

    Attributes
    ----------
    ts, xs, vs : ndarray
        Sample times, positions, velocities.
    exited_domain : bool
        True when integration stopped early at the last in-domain state.
    converged : bool
        True when a stop condition (gradient-norm threshold) fired.
    """

    def __init__(self, ts, xs, vs, dense: OdeSolution | None, dim: int,
                 velocity_field: Callable[[np.ndarray], np.ndarray] | None = None,
                 exited_domain: bool = False, converged: bool = False):
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.vs = np.asarray(vs, dtype=float)
        self._dense = dense                # None when no step was accepted
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
        return self._dense(t).T

    def position(self, t) -> np.ndarray:
        return self._state(t)[..., : self._dim]

    def velocity(self, t) -> np.ndarray:
        if self._velocity_field is None:
            return self._state(t)[..., self._dim:]
        return np.asarray(self._velocity_field(self.position(t)), dtype=float)

    def acceleration(self, t) -> np.ndarray:
        """d(velocity)/dt from the dense output (5-point stencil).

        Needs a span of positive width.
        """
        t = span_times(t, self.span)
        acc = numdiff.curve_derivative(self.velocity, t, self.span, order=1,
                                       step=CURVE_STEP)
        return np.reshape(acc, np.shape(t) + (self._dim,))


def _integrate(rhs, y0, t_end, tol, *, in_domain, grad_monitor=None,
               stop_below=None, max_step=np.inf):
    """Drive scipy's RK45 step by step; collect dense output and flags.

    ``grad_monitor(y, dy)`` gets each accepted state with the RHS there
    (RK45's first-same-as-last stage, so it costs no evaluation) and
    returns the gradient norm; integration stops, flagged converged, once
    it falls below ``stop_below``.  The dense output is ``None`` when no
    step was accepted.
    """
    y0 = np.asarray(y0, dtype=float)
    solver = RK45(rhs, 0.0, y0, t_bound=float(t_end), rtol=tol, atol=tol,
                  max_step=max_step)
    ts = [0.0]
    ys = [y0.copy()]
    steps = []
    exited = False
    converged = False
    window: list[float] = []
    prev_window_min = np.inf
    while solver.status == "running":
        msg = solver.step()
        if solver.status == "failed":
            raise StepUnderflowError(msg or "adaptive step size underflow")
        if not in_domain(solver.y):
            exited = True
            break
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
    dense = OdeSolution(ts, steps) if steps else None
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
    chart = conn.chart

    def rhs(_t, y):
        x, v = y[:n], y[n:]
        acc = -np.einsum("kij,i,j->k", conn(x), v, v)
        return np.concatenate([v, acc])

    def in_domain(y):
        return chart is None or chart.contains(y[:n])

    ts, ys, dense, exited, _ = _integrate(rhs, np.concatenate([x0, v0]),
                                          t_end, tol, in_domain=in_domain)
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
        falls below this threshold.

    Raises
    ------
    NonConvergenceError
        If the gradient norm fails to decrease over a full output window,
        the numerical stand-in for a flow that is not relaxing.
    """
    x0 = np.asarray(x0, dtype=float)
    chart = g.chart

    def field(x):
        return -gradient(g, f, x)

    def monitor(x, xdot):
        # |grad f|^2 = df(grad f) = -df(xdot), with xdot = field(x) at hand
        return np.sqrt(max(-float(f.gradient_covector(x) @ xdot), 0.0))

    ts, ys, dense, exited, converged = _integrate(
        lambda _t, x: field(x), x0, t_end, tol,
        in_domain=lambda x: chart is None or chart.contains(x),
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
    x = traj.position(t)
    v = traj.velocity(t)
    acc = traj.acceleration(t)
    return acc + np.einsum("...kij,...i,...j->...k", conn(x), v, v)
