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
from typing import Callable

import numpy as np

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
        R^dim is valid.  Like every closure it broadcasts over leading
        axes: on a point ``(dim,)`` or a stack ``(..., dim)`` it returns a
        bool, or one bool per point, and :meth:`contains` is true when all
        of them are.
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
        """Whether x, a point or every point of a stack, is in the chart."""
        if self.domain_check is None:
            return True
        return bool(np.all(self.domain_check(np.asarray(x, dtype=float))))


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
    otherwise).  Positive-definiteness is never checked: the inverse and
    the flow check only the condition number, so a model's own tests
    must show that its g is positive definite.
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

    def _form(self, x: np.ndarray) -> np.ndarray:
        """g at x in the metric's own form: g_ii ``(..., dim)`` for a
        diagonal metric, else the matrix ``(..., dim, dim)``."""
        return self.diagonal(x) if self.is_diagonal else self(x)

    def cubic_form(self, x: np.ndarray, v: np.ndarray) -> float | np.ndarray:
        """d_k g_ij v^k v^i v^j: a float at a point, ``(n,)`` on a stack.

        A diagonal metric contracts its ``P[..., l, i]``, in O(dim^2) per
        point, and never builds the dense partials.
        """
        d = self._own_partials(x)
        v = np.asarray(v, dtype=float)
        out = (np.einsum("...l,...li,...i->...", v, d, v * v)
               if self.is_diagonal
               else np.einsum("...kij,...k,...i,...j->...", d, v, v, v))
        return float(out) if out.ndim == 0 else out

    def lower(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The covector g_ij v^j of a vector, or of a stack of vectors at x."""
        return _lower(self, self._form(x), v)

    def inner(self, x: np.ndarray, u: np.ndarray,
              v: np.ndarray) -> float | np.ndarray:
        """g(u, v) = u^i g_ij v^j: a float at a point, ``(n,)`` on a stack."""
        out = _inner(self, self._form(x), u, v)
        return float(out) if out.ndim == 0 else out

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


def _stage_covector(f: ScalarPotential) -> Callable[[np.ndarray], np.ndarray]:
    """x -> d_i f straight from the potential's closures, with no shape
    check: its gradient closure, else finite differences of its value
    closure, for the stages of a solve that checked them on its seeds."""
    if f._gradient is not None:
        return f._gradient
    value = f._value
    return lambda x: numdiff.jacobian_fd(value, x)


def _check_shape(out: np.ndarray, want: tuple, name: str) -> None:
    if out.shape != want:
        raise ClosureShapeError(
            f"{name} closure returned shape {out.shape}, expected {want}; "
            "closures must broadcast over leading axes")


@dataclass(frozen=True)
class AffineConnection:
    """Coefficient field Gamma^k_ij over a chart.

    ``coeffs(x)`` returns the (dim, dim, dim) array ``G[k, i, j]`` for a
    point and ``(n, dim, dim, dim)`` for a stack of n points: it
    broadcasts over leading axes, so that finite differences of the field
    take one call per stencil.  ``metric`` supplies the g used for
    curvature contraction.
    """

    coeffs: Callable[[np.ndarray], np.ndarray]
    metric: MetricField

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.coeffs(np.asarray(x, dtype=float)), dtype=float)


def _check_condition(sv: np.ndarray, x: np.ndarray) -> None:
    """Raise unless max|s| <= 1e12 min|s| at every point, with min|s| > 0.

    sv holds each point's singular values of the metric (or a diagonal
    metric's g_ii) on its last axis.  One min and one max over the whole
    stack settle the common case: if the smallest value is positive and
    the largest is within 1e12 of it, every point passes, since a point's
    own extremes lie between the two and rounding 1e12 s is monotone.
    Otherwise the rule runs point by point, without dividing; it fails
    for a zero or nan min|s|, i.e. an infinite or undefined condition
    number, and names the first failing point.
    """
    if sv.size == 0:
        return
    lo = sv.min()
    if lo > 0.0 and sv.max() <= COND_LIMIT * lo:
        return
    a = np.abs(sv)
    s_max, s_min = a.max(axis=-1), a.min(axis=-1)
    ok = (s_max <= COND_LIMIT * s_min) & (s_min > 0.0)
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        cond = s_max[i] / s_min[i] if s_min[i] > 0.0 else np.inf
        raise SingularMatrixError(
            f"metric at {np.asarray(x)[i]} has condition number {cond:.3e}")


def _inverse(g: MetricField, x: np.ndarray) -> tuple:
    """(g, g^{-1}) at x in g's own form, from one evaluation of g.

    The one checked place that inverts a metric.  A diagonal metric gives
    g_ii and the reciprocals 1/g_ii, its condition number max|g_ii| /
    min|g_ii|.  Any other gives the matrix it evaluated and the inverse
    V diag(1/s) U^T from one singular value decomposition
    g = U diag(s) V^T per point, whose s gives the condition number
    s_max / s_min, the definition ``np.linalg.cond`` uses.

    Raises
    ------
    SingularMatrixError
        If the condition number at any point exceeds 1e12, or a component
        is not finite.
    """
    if g.is_diagonal:
        d = g.diagonal(x)
        _check_condition(d, x)
        return d, 1.0 / d
    m = g(x)
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        # LAPACK's SVD fails on nan and inf components
        finite = np.isfinite(m).all(axis=(-2, -1))
        i = np.unravel_index(np.argmin(finite), finite.shape)
        raise SingularMatrixError(
            f"metric at {np.asarray(x)[i]} has no inverse: {exc}") from exc
    _check_condition(s, x)
    return m, _svd_inverse(u, s, vh)


def _stage_inverse(g: MetricField) -> Callable[[np.ndarray], tuple]:
    """x -> (values, g^{-1}) at x, straight from the metric's closure: the
    values whose spread is the condition number (g_ii, or the singular
    values of the one SVD) and the inverse in g's own form.
    No shape or condition check, for the stages of a solve that checks
    both elsewhere.  A metric that LAPACK cannot factor (a nan component)
    gives nan for both, which rejects the step."""
    if g.is_diagonal:
        diagonal = g._diagonal

        def diagonal_inverse(x):
            d = diagonal(x)
            return d, 1.0 / d

        return diagonal_inverse
    matrix = g._matrix

    def inverse(x):
        m = matrix(x)
        try:
            u, s, vh = np.linalg.svd(m)
        except np.linalg.LinAlgError:
            return np.full(m.shape[:-1], np.nan), np.full(m.shape, np.nan)
        return s, _svd_inverse(u, s, vh)

    return inverse


#: below this (a subnormal) a singular value's reciprocal overflows
_TINY_SV = 1.0 / np.finfo(float).max


def _svd_inverse(u: np.ndarray, s: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """V diag(1/s) U^T, the inverse of U diag(s) V^T.

    Where the smallest singular value is positive but its reciprocal
    overflows, the product takes s / s_min per point and divides by s_min
    after, so that an overflowing component reads +-inf, not the nan of
    inf * 0 that an off-diagonal zero of U would give.
    """
    v, ut = vh.swapaxes(-1, -2), u.swapaxes(-1, -2)
    if not 0.0 < s.min(initial=np.inf) < _TINY_SV:
        return v / s[..., None, :] @ ut
    low = s.min(axis=-1, keepdims=True)
    return (v / (s / low)[..., None, :] @ ut) / low[..., None]


def _raise_index(g: MetricField, ginv: np.ndarray,
                 w: np.ndarray) -> np.ndarray:
    """The vector g^{ij} w_j, from ``ginv`` in g's own form."""
    if g.is_diagonal:
        return ginv * w
    return (ginv @ w[..., None])[..., 0]


def _lower(g: MetricField, form: np.ndarray, v) -> np.ndarray:
    """The covector g_ij v^j, from g in its own form."""
    if g.is_diagonal:
        return form * v
    return np.einsum("...ij,...j->...i", form, v)


def _inner(g: MetricField, form: np.ndarray, u, v) -> np.ndarray:
    """g(u, v) as an array, from g in its own form."""
    if g.is_diagonal:
        return np.einsum("...i,...i,...i->...", u, form, v)
    return np.einsum("...i,...ij,...j->...", u, form, v)


def _matrix(g: MetricField, form: np.ndarray) -> np.ndarray:
    """The matrices g_ij, from g in its own form."""
    return _diag_matrix(form) if g.is_diagonal else form


def _diag_matrix(d: np.ndarray) -> np.ndarray:
    """The ``(..., n, n)`` matrices with diagonals ``d`` ``(..., n)``."""
    n = d.shape[-1]
    m = np.zeros(d.shape + (n,))
    # every (n + 1)-th element of each flattened matrix is on its diagonal
    m.reshape(d.shape[:-1] + (n * n,))[..., :: n + 1] = d
    return m


def metric_inverse(g: MetricField, x: np.ndarray) -> np.ndarray:
    """Inverse metric components g^{ij} at a point or a stack of points.

    The matrices of :func:`_inverse`'s checked inverse: a diagonal metric
    inverts elementwise, g^{ii} = 1/g_ii, any other through one singular
    value decomposition per point.  On diagonal matrices of up to 24
    dimensions the two routes agree to the bit; from 26 on, LAPACK's
    divide-and-conquer SVD differs from 1/g_ii in the last bits.

    Raises
    ------
    SingularMatrixError
        If the condition number at any point exceeds 1e12, or a component
        is not finite.
    """
    return _matrix(g, _inverse(g, x)[1])


def gradient(g: MetricField, f: ScalarPotential, x: np.ndarray) -> np.ndarray:
    """Riemannian gradient g^{ij} d_j f, the unique vector with g(grad f, .) = df.

    A stack of points gives the stack of gradients.  A diagonal metric
    divides elementwise, as (1/g_ii) d_i f.  The closures' shapes and the
    metric's condition are checked on every call; :func:`integrate_flow`
    checks them once on its seeds and then raises the index of the same
    closures' outputs, with the same arithmetic, at every stage.
    """
    df = f.gradient_covector(x)
    return _raise_index(g, _inverse(g, x)[1], df)


def grad_norm_sq(g: MetricField, f: ScalarPotential,
                 x: np.ndarray) -> float | np.ndarray:
    """Squared Riemannian norm g(grad f, grad f) = d_i f g^{ij} d_j f.

    A float at a point, ``(n,)`` on a stack of n points.
    """
    nsq = _gradient_parts(g, f, x)[1]
    return float(nsq) if nsq.ndim == 0 else nsq


def _gradient_parts(g: MetricField, f: ScalarPotential, x: np.ndarray):
    """grad f, |grad f|^2_g, g and g^{-1} at a point or a stack, the last
    two in g's own form, from the one checked evaluation of g in
    :func:`_inverse`."""
    form, ginv = _inverse(g, x)
    v = _raise_index(g, ginv, f.gradient_covector(x))
    return v, _inner(g, form, v, v), form, ginv


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
    return _levi_civita(g, _inverse(g, x)[1], g.partials(x))


def _levi_civita(g: MetricField, ginv: np.ndarray,
                 dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij from g^{-1} in g's own form and the partials
    ``D[..., l, i, j]``."""
    *lead, a, b, c = range(dg.ndim)
    # term[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    term = (dg + dg.transpose(*lead, b, a, c)
            - dg.transpose(*lead, b, c, a))
    if g.is_diagonal:
        # row l of term, scaled by 1/g_ll, is Gamma^l_ij
        return 0.5 * (ginv[..., :, None, None]
                      * term.transpose(*lead, c, a, b))
    return 0.5 * np.einsum("...kl,...ijl->...kij", ginv, term)


def levi_civita_connection(g: MetricField) -> AffineConnection:
    """The metric connection of g as an AffineConnection."""
    return AffineConnection(lambda x: christoffel_levi_civita(g, x),
                            metric=g)


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
    """Integrated flow curve, or batch of flow curves, with dense output.

    Samples are the accepted integrator steps; between them, position
    comes from RK45's own quartic interpolant on each step, so dense
    queries carry the integration tolerance.  The steps' interpolant data
    are stacked once, and a query at any number of times is one
    vectorized evaluation: a time on a step boundary takes the earlier
    step, as in :class:`scipy.integrate.OdeSolution`.

    ``position``, ``velocity`` and ``acceleration`` take a scalar t, giving
    shape ``(dim,)``, or an array of times, giving ``t.shape + (dim,)``;
    ``position_velocity`` gives both from one query.  A time outside
    ``span`` raises :class:`~geoflow.errors.OutOfSpanError`.  The velocity
    applies ``velocity_field``, the flow's field, to the whole position
    stack in one call, and the acceleration differentiates the velocity
    at every t with one velocity call over all stencil times.

    A batch of B curves, from one joint solve of
    :func:`integrate_flow` on a seed stack, shares that solve's step times
    ``ts``; the keyword ``last`` gives the index of each curve's own last
    sample, so curve b's span ends at ``ts[last[b]]`` and ``span`` has
    ends of shape ``(B,)``.  Query times then have the curves on their
    leading axis, ``(B,)`` or ``(B, n)``, giving ``(B, dim)`` or
    ``(B, n, dim)``, and ``traj[b]`` is curve b alone, a one-curve
    trajectory.

    Attributes
    ----------
    ts, xs, vs : ndarray
        Sample times, positions, velocities; a batch's positions and
        velocities are ``(B, len(ts), dim)``.
    exited_domain : bool
        True when integration stopped early at the last in-domain state;
        one flag per curve, ``(B,)``, on a batch.
    converged : bool
        True when a stop condition (gradient-norm threshold) fired; one
        flag per curve on a batch.
    steps, nfev : int
        Accepted steps and right-hand-side evaluations of the solve; the
        curves of a joint solve share them.
    """

    def __init__(self, ts, xs, vs, dense: tuple | None,
                 velocity_field: Callable[[np.ndarray], np.ndarray],
                 exited_domain=False, converged=False, *, last=None,
                 steps: int = 0, nfev: int = 0):
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.vs = np.asarray(vs, dtype=float)
        # (t_old, h, x_old, Q) of the accepted steps, or None when no step
        # of positive length was taken; a batch's x_old and Q carry the
        # curves on their second axis
        self._dense = dense
        self._velocity_field = velocity_field
        # the index of each curve's last sample: a scalar for one curve
        self._last = np.asarray(self.ts.size - 1 if last is None else last)
        self.exited_domain = exited_domain
        self.converged = converged
        self.steps = steps
        self.nfev = nfev

    @property
    def span(self) -> tuple[float, float | np.ndarray]:
        end = self.ts[self._last]
        return float(self.ts[0]), float(end) if end.ndim == 0 else end

    def __getitem__(self, b: int) -> "Trajectory":
        k = int(self._last[b])
        dense = None
        if self._dense is not None and k > 0:
            t_old, h, x_old, q = self._dense
            dense = (t_old[:k], h[:k], x_old[:k, b], q[:k, b])
        return Trajectory(self.ts[:k + 1], self.xs[b, :k + 1],
                          self.vs[b, :k + 1], dense, self._velocity_field,
                          bool(self.exited_domain[b]),
                          bool(self.converged[b]), steps=self.steps,
                          nfev=self.nfev)

    def _rows(self, t: np.ndarray) -> tuple:
        """The curve index for each time of t: none for one curve; for a
        batch, curve b down t's leading axis."""
        if self._last.ndim == 0:
            return ()
        return (np.arange(self._last.size).reshape((-1,)
                                                   + (1,) * (t.ndim - 1)),)

    def position(self, t) -> np.ndarray:
        t = span_times(t, self.span)
        rows = self._rows(t)
        if self._dense is None:
            x0 = self.xs[..., 0, :][rows]
            return np.broadcast_to(x0, t.shape + x0.shape[-1:]).copy()
        t_old, h, x_old, q = self._dense
        last_step = np.maximum(self._last - 1, 0)[rows]
        i = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0,
                    last_step)
        s = ((t - t_old[i]) / h[i])[..., None]
        # the powers s, s^2, s^3, s^4 of the step fraction
        p = np.cumprod(np.repeat(s, q.shape[-1], axis=-1), axis=-1)
        x = np.einsum("...ij,...j->...i", q[(i,) + rows], p)
        return h[i][..., None] * x + x_old[(i,) + rows]

    def velocity(self, t) -> np.ndarray:
        return self.position_velocity(t)[1]

    def position_velocity(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Position and velocity at t from one evaluation of the dense
        output, the field applied to that position stack."""
        x = self.position(t)
        return x, np.asarray(self._velocity_field(x), dtype=float)

    def acceleration(self, t) -> np.ndarray:
        """d(velocity)/dt from the dense output (5-point stencil).

        Needs a span of positive width; on a batch, every curve's.
        """
        t = span_times(t, self.span)
        t0, t1 = self.span
        lead = t.shape[:np.ndim(t1)]    # a batch's curves
        dim = self.xs.shape[-1]

        def velocity(s):
            # the stencil times come flat; a batch regroups them by curve
            return self.velocity(s.reshape(lead + (-1,))).reshape(-1, dim)

        end = np.reshape(t1, lead + (1,) * (t.ndim - len(lead)))
        acc = numdiff.curve_derivative(velocity, t, (t0, end), order=1)
        return np.reshape(acc, np.shape(t) + (dim,))


def integrate_flow(g: MetricField, f: ScalarPotential, x0, t_end: float,
                   tol: float = 1e-10,
                   stop_grad_norm: float | np.ndarray | None = None
                   ) -> Trajectory:
    """Integrate the gradient descent xd = -grad f from a seed or a seed stack.

    A seed ``(dim,)`` gives one curve.  A stack of B seeds ``(B, dim)``
    gives the batch of B curves, integrated as one RK45 system of B·dim
    states: each right-hand-side call evaluates the field on the
    ``(B, dim)`` stack in one call of each closure.  A step is accepted
    only if every curve's own RMS error estimate, scipy's norm over that
    curve's states, meets ``tol``, so each curve is as accurate as in a
    solve of its own, and one seed is plain RK45 bit for bit (the seed is
    the batch of one).  The batch's :class:`Trajectory` shares the solve's
    step times, ``steps`` and ``nfev``; curve b ends at its own stop, and
    ``traj[b]`` is curve b alone.

    Each accepted step keeps RK45's stages ``K``, and one product after
    the solve forms every step's interpolant coefficients ``Q = K^T P``,
    bit for bit those of scipy's per-step ``dense_output()``; the
    trajectory stacks them as ``(t_old, h, x_old, Q)``.  When no step of
    positive length was accepted (RK45's only zero-length step, at
    ``t_end == 0``, or a first step out of the chart), the trajectory
    keeps the initial state alone.

    The flow is checked once per solve, on the seeds: one
    :func:`gradient` call checks the closures' shapes and the metric's
    condition, and the chart's domain check must give one flag per seed.
    Every stage then evaluates -g^{ij} d_j f straight from the closures,
    with :func:`gradient`'s arithmetic and no further check, and the
    metric's condition is checked at every accepted state, on the values
    (g_ii, or the singular values of the stage's SVD) and the covector
    that RK45's first-same-as-last stage computed there.  The solve runs
    under one ``np.errstate``: a stage at which the field is not finite
    (a metric that vanishes there, say) gives a non-finite error
    estimate, a rejected step rather than a warning.  RK45 is looked up
    here, so pointwise geometry never loads scipy.

    Parameters
    ----------
    stop_grad_norm : float or (B,) array, optional
        Each curve stops (flagged ``converged``) at the first accepted
        step where its Riemannian gradient norm falls below its threshold.
        A seed at or below it takes no step: the curve holds x0 alone,
        with span (0, 0), even when the threshold is 0.  The solve ends
        once every curve has stopped.

    The curves of a batch share one domain check, one call on the
    ``(B, dim)`` stack per accepted step: once any curve leaves the
    chart, every curve ends at the last state where all were inside, and
    the ones outside are flagged ``exited_domain``.

    Raises
    ------
    ValueError
        Unless 0 <= t_end < inf, ``None`` included (RK45 would integrate
        backwards below 0 and never end at nan); before the first step.
    ClosureShapeError
        If a closure, the domain check included, gives the wrong shape on
        the seeds; before the first step.
    SingularMatrixError
        If the metric's condition number exceeds 1e12 at a seed or at an
        accepted state (see :func:`metric_inverse`).
    NonConvergenceError
        If a running curve's gradient norm fails to decrease over a full
        output window, the numerical stand-in for a flow that is not
        relaxing.  The message names the first such curve, the smallest
        norm of its window, its ``stop_grad_norm`` and ``tol``.
    StepUnderflowError
        If RK45's step size underflows.
    """
    x0 = np.asarray(x0, dtype=float)
    # the closures see the seed's own shape, a point or a stack
    shape, dim = x0.shape, x0.shape[-1]
    n = x0.size // dim

    def field(x):
        return -gradient(g, f, x)

    # every check that the stages skip, made once on the seeds
    field(x0)
    check = g.chart.domain_check
    if check is not None:
        _check_shape(np.asarray(check(x0.reshape(n, dim))), (n,),
                     f"{g.chart.name or 'chart'} domain check")
    if t_end is None or not 0.0 <= t_end < np.inf:
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    from scipy.integrate import RK45

    inverse, covector = _stage_inverse(g), _stage_covector(f)
    # rhs's last state, with the metric's condition values and df there
    at = [None, None, None]

    def rhs(_t, y):
        x = y.reshape(shape)
        values, ginv = inverse(x)
        df = covector(x)
        at[:] = y, values, df
        return -_raise_index(g, ginv, df).reshape(-1)

    class PerCurveRK45(RK45):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # the stages call rhs with no wrapper but scipy's counter:
            # scipy's own also passes each result through np.asarray,
            # which returns rhs's float arrays as they are
            def fun(t, y):
                self.nfev += 1
                return rhs(t, y)

            self.fun = fun

        def _estimate_error_norm(self, K, h, scale):
            err = (self._estimate_error(K, h) / scale).reshape(n, 1, -1)
            # scipy's RMS norm, curve by curve: each row's dot with itself
            # is the one np.linalg.norm takes, and the max of the rows'
            # sums gives the max of their norms; a nan in any curve's
            # estimate makes it nan, so RK45 rejects the step
            sq = np.max(err @ err.swapaxes(1, 2))
            return np.sqrt(sq) / err.shape[-1] ** 0.5

    def grad_norm():
        # the metric's condition at the solver's state, and the speed
        # there: |grad f|^2 = df(grad f) = -df(xdot), with xdot = solver.f.
        # RK45's first-same-as-last stage has just evaluated rhs at an
        # accepted state; any other state (the seed) is evaluated
        if at[0] is not solver.y:
            rhs(0.0, solver.y)
        _check_condition(at[1], solver.y.reshape(shape))
        rate = np.einsum("...i,...i->...", at[2], solver.f.reshape(shape))
        return np.sqrt(np.maximum(-rate, 0.0)).reshape(n)

    stop_below = (None if stop_grad_norm is None
                  else np.broadcast_to(stop_grad_norm, (n,)))
    y0 = x0.reshape(-1)
    ts = [0.0]
    ys = [y0.copy()]
    stages = []
    accepted = 0
    last = np.zeros(n, dtype=int)
    exited = np.zeros(n, dtype=bool)
    window = []
    prev_window_min = np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        solver = PerCurveRK45(rhs, 0.0, y0, t_bound=float(t_end), rtol=tol,
                              atol=tol)
        converged = np.zeros(n, dtype=bool)
        if stop_below is not None:
            converged = grad_norm() <= stop_below
        running = ~converged
        while solver.status == "running" and running.any():
            msg = solver.step()
            if solver.status == "failed":
                raise StepUnderflowError(msg or "adaptive step size underflow")
            accepted += 1
            if check is not None:
                inside = np.asarray(check(solver.y.reshape(n, dim)),
                                    dtype=bool)
                if not inside.all():
                    exited = running & ~inside
                    break
            if solver.t != solver.t_old:    # zero-length only at t_end == 0
                stages.append(solver.K.copy())
            ts.append(solver.t)
            ys.append(solver.y.copy())
            last[running] = len(ts) - 1
            norm = grad_norm()
            if stop_below is not None:
                stop = running & (norm < stop_below)
                converged = converged | stop
                running = running & ~stop
            window.append(norm)
            if len(window) == _MONITOR_WINDOW:
                wmin = np.min(window, axis=0)
                size = np.linalg.norm(solver.y.reshape(n, -1), axis=1)
                stalled = (running & (wmin >= prev_window_min)
                           & (wmin > 1e-13 * (1.0 + size)))
                if stalled.any():
                    b = np.argmax(stalled)
                    stop = "none" if stop_below is None else stop_below[b]
                    raise NonConvergenceError(
                        "gradient norm failed to decrease over a full window "
                        f"of {_MONITOR_WINDOW} steps: curve {b}, window minimum"
                        f" {wmin[b]:.3e}, stop_grad_norm {stop}, tol {tol}")
                prev_window_min = wmin
                window = []
    ts = np.array(ts)
    xs = np.array(ys).reshape(len(ts), n, dim)
    dense = None
    if stages:
        # every kept step has positive length: steps k = 0.. run from
        # sample k to sample k + 1, and h = t - t_old as in scipy
        k = len(stages)
        q = np.stack(stages).swapaxes(1, 2) @ solver.P
        dense = (ts[:k], ts[1:k + 1] - ts[:k], xs[:k],
                 q.reshape(k, n, dim, q.shape[-1]))
    vs = field(xs.reshape((-1,) + shape)).reshape(xs.shape)
    # the batch layout: curves first
    traj = Trajectory(ts, xs.swapaxes(0, 1), vs.swapaxes(0, 1), dense, field,
                      exited, converged, last=last, steps=accepted,
                      nfev=solver.nfev)
    return traj if x0.ndim > 1 else traj[0]


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
