"""Connections that turn gradient curves into pregeodesics.

Given (g, f) and a real constant lam, the coefficient field

    Gamma~^k_ij = Gamma^{g,k}_ij - g_ij(x) Z^k(x),
    Z = (nabla^g_{grad f} grad f - lam grad f) / |grad f|^2,

defines a symmetric connection on the chart minus the critical set of f,
whose (pre)geodesics include every gradient curve of f.  As the Hessian
nabla^g df is symmetric and nabla^g is metric, v = grad f has
g(nabla^g_v v, w) = g(nabla^g_w v, v) = 1/2 w(|v|^2_g), so
Z = (1/2 grad |grad f|^2 - lam grad f) / |grad f|^2 needs the derivative
of one scalar and no metric partials.  The connection is not metric; its
non-metricity tensor has the closed form

    C(W, X, Y) = g(W, X) g(Y, Z) + g(W, Y) g(X, Z)

and is the object driving the relaxation-speed comparison: along a descent
curve, f'' = -C(xd, xd, xd) - 2 lam f'.  As g(xd, nabla^g_xd xd) is
1/2 d/dt |xd|^2_g, the cubic is the speed identity

    C(xd, xd, xd) = 2 lam |xd|^2_g + d_k g_ij xd^k xd^i xd^j + 2 g(xd, xdd),

with no inverse metric and no Christoffel symbols in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numdiff
from .errors import (
    CriticalPointError,
    DegenerateTangentError,
    StepUnderflowError,
)
from .manifold import (
    AffineConnection,
    MetricField,
    ScalarPotential,
    Trajectory,
    _inner,
    _inverse,
    _levi_civita,
    _lower,
    _matrix,
    _raise_index,
    gradient,
    metric_inverse,
)

__all__ = [
    "EPS_GRAD",
    "Submanifold",
    "z_field",
    "straightening_coeffs",
    "straightening_connection",
    "pregeodesic_residual",
    "nonmetricity_tensor",
    "nonmetricity_closed_tensor",
    "nonmetricity_cubic",
    "scalar_curvature",
    "projection_orthogonality",
]

#: gradient norms at or below this count as critical points
EPS_GRAD = 1e-10


def _grad_and_norm(g: MetricField, f: ScalarPotential, x: np.ndarray):
    """grad f, |grad f|^2, g and g^{-1} at a point or a stack, in the
    metric's own form (see :func:`~geoflow.manifold._inverse`): one
    evaluation of a diagonal metric, two of a dense one.

    Raises :class:`~geoflow.errors.CriticalPointError` naming the first
    point of the stack that lies on the critical set.
    """
    form, ginv = _inverse(g, x)
    v = _raise_index(g, ginv, f.gradient_covector(x))
    if form is None:
        form = g(x)
    nsq = _inner(g, form, v, v)
    critical = nsq <= EPS_GRAD ** 2
    if critical.any():
        i = np.unravel_index(np.argmax(critical), critical.shape)
        raise CriticalPointError(
            f"|grad f| = {np.sqrt(max(nsq[i], 0.0)):.3e} at {x[i]}: "
            "straightening undefined on the critical set")
    return v, nsq, form, ginv


def _straightening_parts(g: MetricField, f: ScalarPotential, lam: float,
                         x: np.ndarray):
    """v = grad f, |v|^2, g, g^{-1}, the Jacobian of grad f and Z at x.

    x is a point or a stack.  One stencil of y -> (grad f, |grad f|^2),
    the dominant cost, gives the Jacobian and d|v|^2, hence
    |v|^2 Z = 1/2 g^{-1} d|v|^2 - lam v.
    """
    v, nsq, form, ginv = _grad_and_norm(g, f, x)

    def field_and_norm(y):
        w = gradient(g, f, y)
        return np.concatenate([w, g.inner(y, w, w)[..., None]], axis=-1)

    jac = numdiff.jacobian_fd(field_and_norm, x)
    z = (0.5 * _raise_index(g, ginv, jac[..., -1, :])
         - lam * v) / nsq[..., None]
    return v, nsq, form, ginv, jac[..., :-1, :], z


def _coeffs(g: MetricField, x: np.ndarray, form: np.ndarray,
            ginv: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Gamma~ = Gamma^g - g Z at x, from the parts' g, g^{-1} and Z."""
    lc = _levi_civita(g, ginv, g.partials(x))
    return lc - np.einsum("...ij,...k->...kij", _matrix(g, form), z)


def z_field(g: MetricField, f: ScalarPotential, lam: float,
            x: np.ndarray) -> np.ndarray:
    """The vector Z with |grad f|^2 Z = 1/2 grad |grad f|^2 - lam grad f.

    A point gives ``(dim,)``, a stack ``(n, dim)``.

    Raises
    ------
    CriticalPointError
        Where |grad f| <= 1e-10; Z is genuinely undefined there.
    """
    return _straightening_parts(g, f, lam, np.asarray(x, dtype=float))[-1]


def straightening_coeffs(g: MetricField, f: ScalarPotential, lam: float,
                         x: np.ndarray) -> np.ndarray:
    """Coefficients Gamma~^k_ij = Gamma^{g,k}_ij - g_ij Z^k at x.

    A point gives ``(dim, dim, dim)``, a stack ``(n, dim, dim, dim)``.
    """
    x = np.asarray(x, dtype=float)
    _, _, form, ginv, _, z = _straightening_parts(g, f, lam, x)
    return _coeffs(g, x, form, ginv, z)


def straightening_connection(g: MetricField, f: ScalarPotential,
                             lam: float = 0.0) -> AffineConnection:
    """Build the straightening connection of f over (chart, g).

    With lam=0 every gradient curve of f is a geodesic; for other constants
    it is a pregeodesic with tangential acceleration lam grad f.
    """
    return AffineConnection(lambda x: straightening_coeffs(g, f, lam, x),
                            metric=g)


def pregeodesic_residual(g: MetricField, f: ScalarPotential, lam: float,
                         x: np.ndarray) -> float | np.ndarray:
    """Relative defect |nabla~_{grad f} grad f - lam grad f|_g / |grad f|_g.

    nabla~_v v is J v + Gamma~(v, v) = J v + Gamma^g(v, v) - |v|^2_g Z,
    from the Jacobian J of v = grad f, the metric partials and Z.  Z came
    from 1/2 grad |v|^2 instead, so the residual compares the two routes
    to nabla^g_v v: it reads the finite-difference error of a correct
    construction and fails on partials that do not belong to the metric.
    A float at a point, ``(n,)`` on a stack of n points.
    """
    x = np.asarray(x, dtype=float)
    v, nsq, form, ginv, jac, z = _straightening_parts(g, f, lam, x)
    acc = ((jac @ v[..., None])[..., 0]
           + np.einsum("...kij,...i,...j->...k",
                       _coeffs(g, x, form, ginv, z), v, v))
    defect = acc - lam * v
    r = np.sqrt(np.maximum(_inner(g, form, defect, defect), 0.0) / nsq)
    return float(r) if np.ndim(r) == 0 else r


def nonmetricity_tensor(conn: AffineConnection, g: MetricField,
                        x: np.ndarray) -> np.ndarray:
    """(nabla g) as C[..., k, i, j] = d_k g_ij - G^m_ki g_mj - G^m_kj g_mi."""
    x = np.asarray(x, dtype=float)
    lower = np.einsum("...mki,...mj->...kij", conn(x), g(x))
    return g.partials(x) - lower - np.swapaxes(lower, -1, -2)


def nonmetricity_closed_tensor(g: MetricField, f: ScalarPotential, lam: float,
                               x: np.ndarray) -> np.ndarray:
    """Closed form C[..., k, i, j] = g_ki zeta_j + g_kj zeta_i, zeta = g Z."""
    x = np.asarray(x, dtype=float)
    z = z_field(g, f, lam, x)
    form = g._form(x)
    c = np.einsum("...ki,...j->...kij", _matrix(g, form), _lower(g, form, z))
    return c + np.swapaxes(c, -1, -2)


def nonmetricity_cubic(g: MetricField, lam: float, traj: Trajectory,
                       t) -> float | np.ndarray:
    """C(xd, xd, xd) along a descent trajectory, from curve data only.

    For the descent tangent xd = -grad f this equals
    2 [lam |xd|^2_g + g(xd, nabla^g_xd xd)], and the identity
    f'' + C + 2 lam f' = 0 holds along the curve.  It is evaluated as the
    speed identity C = 2 lam |xd|^2_g + d_k g_ij xd^k xd^i xd^j
    + 2 g(xd, xdd), from the metric, its partials and the curve alone: no
    inverse metric, condition check, Christoffel symbols or Z, so it stays
    finite through the equilibrium.  A scalar t gives a float, an array
    of t one value per time.
    """
    x, v = traj.position_velocity(t)
    acc = traj.acceleration(t)
    c = (2.0 * lam * g.inner(x, v, v)
         + g.cubic_form(x, v)
         + 2.0 * g.inner(x, v, acc))
    return float(c) if np.ndim(c) == 0 else c


def scalar_curvature(conn: AffineConnection,
                     x: np.ndarray) -> float | np.ndarray:
    """Scalar curvature of the connection, contracted with conn.metric.

    R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik,
    then Ricci_jk = R^i_jik and s = g^{jk} Ricci_jk.  With this contraction
    the unit round sphere lands at -2.  Coefficient derivatives are finite
    differences at the relative scale ``numdiff.STEP_COEFFS``, stepping
    coordinate j by STEP_COEFFS * max(1, |x_j|), from one call of the
    coefficient field on the whole stencil.  A stencil that lands on the
    critical set raises StepUnderflowError.  A float at a point,
    ``(n,)`` on a stack of n points.
    """
    x = np.asarray(x, dtype=float)
    gam = conn(x)
    try:
        jac = numdiff.jacobian_fd(conn, x, scale=numdiff.STEP_COEFFS)
    except CriticalPointError as exc:
        raise StepUnderflowError(
            f"coefficient stencil at relative step {numdiff.STEP_COEFFS:g} "
            f"x max(1, |x_j|) crosses the critical set near {x}") from exc
    # dgam[..., l, i, j, k] = d_i G^l_jk
    dgam = np.einsum("...ljki->...lijk", jac)
    riem = (dgam - np.einsum("...lijk->...ljik", dgam)
            + np.einsum("...lim,...mjk->...lijk", gam, gam)
            - np.einsum("...ljm,...mik->...lijk", gam, gam))
    ricci = np.einsum("...ijik->...jk", riem)
    s = np.einsum("...jk,...jk->...", metric_inverse(conn.metric, x), ricci)
    return float(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class Submanifold:
    """Parametrized submanifold u -> x(u).

    ``embed`` maps parameter coordinates ``(..., k)`` to chart coordinates
    ``(..., dim)`` and broadcasts over leading axes; the tangent basis is
    its finite-difference Jacobian, (dim, k).
    """

    embed: Callable[[np.ndarray], np.ndarray]

    def tangent_basis(self, u: np.ndarray) -> np.ndarray:
        jac = numdiff.jacobian_fd(self.embed, u)
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[-1] < 1e-10 * max(sv[0], 1.0):
            raise DegenerateTangentError(
                f"parametrization Jacobian rank-deficient at u={u} "
                f"(singular values {sv})")
        return jac


def projection_orthogonality(g: MetricField, f: ScalarPotential,
                             submanifold: Submanifold,
                             p_hat: np.ndarray) -> float:
    """Worst-case |cos angle| between grad f and the submanifold at p_hat.

    ``p_hat`` is given in the submanifold's parameter coordinates.  Returns
    max over tangent-basis vectors v of |g(grad f, v)| / (|grad f| |v|),
    all norms in g.  Near zero certifies that the gradient, and hence the
    connecting geodesic, meets the submanifold orthogonally; at a
    constrained minimizer of f this is the projection property.
    """
    u = np.asarray(p_hat, dtype=float)
    x = np.asarray(submanifold.embed(u), dtype=float)
    basis = submanifold.tangent_basis(u)
    v, nsq, form, _ = _grad_and_norm(g, f, x)
    cols = basis.T
    return float(np.max(np.abs(cols @ _lower(g, form, v))
                        / np.sqrt(nsq * _inner(g, form, cols, cols))))
