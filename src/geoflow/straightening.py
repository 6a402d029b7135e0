"""Connections that turn gradient curves into pregeodesics.

Given (g, f) and a real constant lam, the coefficient field

    Gamma~^k_ij = Gamma^{g,k}_ij - g_ij(x) Z^k(x),
    Z = (nabla^g_{grad f} grad f - lam grad f) / |grad f|^2,

defines a symmetric connection on the chart minus the critical set of f,
whose (pre)geodesics include every gradient curve of f.  The connection is
not metric; its non-metricity tensor has the closed form

    C(W, X, Y) = g(W, X) g(Y, Z) + g(W, Y) g(X, Z)

and is the object driving the relaxation-speed comparison: along a descent
curve, f'' = -C(xd, xd, xd) - 2 lam f'.
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
    christoffel_levi_civita,
    covariant_acceleration,
    gradient,
    levi_civita_connection,
    metric_inverse,
)

__all__ = [
    "EPS_GRAD",
    "StraighteningConnection",
    "Submanifold",
    "z_field",
    "straightening_coeffs",
    "straightening_connection",
    "pregeodesic_residual",
    "nonmetricity_tensor",
    "nonmetricity",
    "nonmetricity_closed_tensor",
    "nonmetricity_closed_form",
    "nonmetricity_cubic",
    "scalar_curvature",
    "projection_orthogonality",
]

#: gradient norms at or below this count as critical points
EPS_GRAD = 1e-10


def _field_step(g: MetricField, f: ScalarPotential) -> float:
    """FD step for differentiating the gradient vector field.

    The field is an exact composition when both g and f carry analytic
    derivative closures; otherwise it already contains FD noise and needs
    the coarser nested step.
    """
    if g.has_analytic_partials and f.has_analytic_gradient:
        return numdiff.STEP_EXACT
    return numdiff.STEP_NESTED


def _grad_and_norm(g: MetricField, f: ScalarPotential, x: np.ndarray):
    gm = g(x)
    v = metric_inverse(g, x) @ f.gradient_covector(x)
    nsq = float(v @ gm @ v)
    if nsq <= EPS_GRAD ** 2:
        raise CriticalPointError(
            f"|grad f| = {np.sqrt(max(nsq, 0.0)):.3e} at {x}: "
            "straightening undefined on the critical set")
    return v, nsq, gm


def _straightening_parts(g: MetricField, f: ScalarPotential, lam: float,
                         x: np.ndarray):
    """v = grad f, |v|^2, g, the Jacobian of grad f, Gamma^g and Z at x.

    Each is evaluated once; the Jacobian (a finite-difference stencil of
    the gradient field) is the dominant cost.
    """
    v, nsq, gm = _grad_and_norm(g, f, x)
    jac = numdiff.jacobian_fd(lambda y: gradient(g, f, y), x,
                              scale=_field_step(g, f))
    lc = christoffel_levi_civita(g, x)
    # |grad f|^2 Z = nabla^g_{grad f} grad f - lam grad f
    z = (jac @ v + np.einsum("kij,i,j->k", lc, v, v) - lam * v) / nsq
    return v, nsq, gm, jac, lc, z


def z_field(g: MetricField, f: ScalarPotential, lam: float,
            x: np.ndarray) -> np.ndarray:
    """The vector Z with |grad f|^2 Z = nabla^g_{grad f} grad f - lam grad f.

    Raises
    ------
    CriticalPointError
        Where |grad f| <= 1e-10; Z is genuinely undefined there.
    """
    return _straightening_parts(g, f, lam, np.asarray(x, dtype=float))[-1]


def straightening_coeffs(g: MetricField, f: ScalarPotential, lam: float,
                         x: np.ndarray) -> np.ndarray:
    """Coefficients Gamma~^k_ij = Gamma^{g,k}_ij - g_ij Z^k at x."""
    _, _, gm, _, lc, z = _straightening_parts(g, f, lam,
                                              np.asarray(x, dtype=float))
    return lc - np.einsum("ij,k->kij", gm, z)


@dataclass(frozen=True)
class StraighteningConnection(AffineConnection):
    """AffineConnection carrying its defining (g, f, lam) triple."""

    f: ScalarPotential | None = None
    lam: float = 0.0


def straightening_connection(g: MetricField, f: ScalarPotential,
                             lam: float = 0.0) -> StraighteningConnection:
    """Build the straightening connection of f over (chart, g).

    With lam=0 every gradient curve of f is a geodesic; for other constants
    it is a pregeodesic with tangential acceleration lam grad f.
    """
    def coeffs(x):
        if x.ndim == 1:
            return straightening_coeffs(g, f, lam, x)
        return np.stack([straightening_coeffs(g, f, lam, p) for p in x])

    return StraighteningConnection(
        coeffs=coeffs,
        symmetric=True,
        chart=g.chart,
        metric=g,
        coeff_step=numdiff.STEP_COEFFS,
        f=f,
        lam=lam,
    )


def pregeodesic_residual(g: MetricField, f: ScalarPotential, lam: float,
                         x: np.ndarray) -> float:
    """Relative defect |nabla~_{grad f} grad f - lam grad f|_g / |grad f|_g."""
    x = np.asarray(x, dtype=float)
    v, nsq, gm, jac, lc, z = _straightening_parts(g, f, lam, x)
    gamma = lc - np.einsum("ij,k->kij", gm, z)
    acc = jac @ v + np.einsum("kij,i,j->k", gamma, v, v)
    defect = acc - lam * v
    return float(np.sqrt(max(defect @ gm @ defect, 0.0) / nsq))


def nonmetricity_tensor(conn: AffineConnection, g: MetricField,
                        x: np.ndarray) -> np.ndarray:
    """(nabla g) as C[k, i, j] = d_k g_ij - G^m_ki g_mj - G^m_kj g_mi."""
    x = np.asarray(x, dtype=float)
    gm = g(x)
    dg = g.partials(x)
    gam = conn(x)
    lower = np.einsum("mki,mj->kij", gam, gm)
    return dg - lower - np.einsum("kij->kji", lower)


def nonmetricity(conn: AffineConnection, g: MetricField, x: np.ndarray,
                 w: np.ndarray, xv: np.ndarray, yv: np.ndarray) -> float:
    """(nabla_W g)(X, Y) at x for constant-component W, X, Y."""
    c = nonmetricity_tensor(conn, g, x)
    return float(np.einsum("kij,k,i,j", c, np.asarray(w, dtype=float),
                           np.asarray(xv, dtype=float),
                           np.asarray(yv, dtype=float)))


def nonmetricity_closed_tensor(g: MetricField, f: ScalarPotential, lam: float,
                               x: np.ndarray) -> np.ndarray:
    """Closed form C[k, i, j] = g_ki zeta_j + g_kj zeta_i with zeta = g Z."""
    x = np.asarray(x, dtype=float)
    gm = g(x)
    zeta = gm @ z_field(g, f, lam, x)
    return (np.einsum("ki,j->kij", gm, zeta)
            + np.einsum("kj,i->kij", gm, zeta))


def nonmetricity_closed_form(g: MetricField, f: ScalarPotential, lam: float,
                             x: np.ndarray, w: np.ndarray, xv: np.ndarray,
                             yv: np.ndarray) -> float:
    """g(W,X) g(Y,Z) + g(W,Y) g(X,Z) evaluated at x."""
    c = nonmetricity_closed_tensor(g, f, lam, x)
    return float(np.einsum("kij,k,i,j", c, np.asarray(w, dtype=float),
                           np.asarray(xv, dtype=float),
                           np.asarray(yv, dtype=float)))


def nonmetricity_cubic(g: MetricField, f: ScalarPotential, lam: float,
                       traj: Trajectory, t) -> float | np.ndarray:
    """C(xd, xd, xd) along a descent trajectory, from curve data only.

    For the descent tangent xd = -grad f this equals
    2 [lam |xd|^2_g + g(xd, nabla^g_xd xd)], and the identity
    f'' + C + 2 lam f' = 0 holds along the curve.  No Z evaluation is
    needed, so the expression stays finite through the equilibrium.
    A scalar t gives a float, a 1-D array of t one value per time.
    """
    x = traj.position(t)
    v = traj.velocity(t)
    gv = np.einsum("...ij,...j->...i", g(x), v)
    acc = covariant_acceleration(levi_civita_connection(g), traj, t)
    c = 2.0 * (lam * np.einsum("...i,...i->...", gv, v)
               + np.einsum("...i,...i->...", gv, acc))
    return float(c) if c.ndim == 0 else c


def scalar_curvature(conn: AffineConnection, x: np.ndarray) -> float:
    """Scalar curvature of the connection, contracted with conn.metric.

    R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik,
    then Ricci_jk = R^i_jik and s = g^{jk} Ricci_jk.  With this contraction
    the unit round sphere lands at -2.  Coefficient derivatives use finite
    differences at conn.coeff_step.
    """
    x = np.asarray(x, dtype=float)
    if conn.metric is None:
        raise ValueError("scalar curvature needs conn.metric for contraction")
    gam = conn(x)
    try:
        jac = numdiff.jacobian_fd(conn.__call__, x, step=conn.coeff_step)
    except CriticalPointError as exc:
        raise StepUnderflowError(
            f"coefficient stencil at step {conn.coeff_step:g} crosses the "
            f"critical set near {x}") from exc
    dgam = np.einsum("ljki->lijk", jac)          # dgam[l,i,j,k] = d_i G^l_jk
    riem = (dgam - np.einsum("lijk->ljik", dgam)
            + np.einsum("lim,mjk->lijk", gam, gam)
            - np.einsum("ljm,mik->lijk", gam, gam))
    ricci = np.einsum("ijik->jk", riem)
    ginv = metric_inverse(conn.metric, x)
    return float(np.einsum("jk,jk", ginv, ricci))


@dataclass(frozen=True)
class Submanifold:
    """Parametrized submanifold u -> x(u).

    ``embed`` maps parameter coordinates (dim_param,) to chart coordinates;
    ``jacobian``, when given, returns the (dim_chart, dim_param) matrix of
    partials, otherwise finite differences are used.
    """

    embed: Callable[[np.ndarray], np.ndarray]
    dim_param: int
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def tangent_basis(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.jacobian is not None:
            jac = np.asarray(self.jacobian(u), dtype=float)
        else:
            jac = numdiff.jacobian_fd(
                lambda w: np.asarray(self.embed(w), dtype=float), u,
                scale=numdiff.STEP_EXACT)
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
    v, nsq, gm = _grad_and_norm(g, f, x)
    gv = gm @ v
    worst = 0.0
    for j in range(basis.shape[1]):
        col = basis[:, j]
        denom = np.sqrt(nsq * float(col @ gm @ col))
        worst = max(worst, abs(float(gv @ col)) / denom)
    return worst
