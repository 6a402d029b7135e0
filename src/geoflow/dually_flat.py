"""Hessian models and the canonical divergence.

A convex potential phi on an affine chart induces the dually flat structure:
metric g = Hess(phi), dual coordinates eta = d(phi), dual potential
psi = theta . eta - phi, and the divergence

    D(p, q) = phi(p) + psi(q) - theta(p) . eta(q).

Every quantity is evaluated at theta; the Legendre-dual model over the
eta chart is classical (Amari & Nagaoka 2000, ch. 3) and is not rebuilt.
These are the fixtures against which the straightening machinery is
validated: the gradient field of D_q(.) = D(q, .) in theta-coordinates
is affine (V(x) = x - q), so (dV)V = V identically, and its gradient curves
run along straight chart lines.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import numdiff
from .errors import CriticalPointError, NonConvexError
from .manifold import Chart, MetricField, ScalarPotential, _check_shape

__all__ = [
    "HessianModel",
    "canonical_divergence",
    "fujiwara_amari_residual",
    "metric_field",
    "quadratic_model",
    "exponential_model",
    "gaussian_natural_model",
]


class HessianModel(ScalarPotential):
    """Convex potential phi over an affine chart, with derived structure.

    The ScalarPotential of value phi and gradient eta = d(phi): calling the
    model gives phi and :meth:`gradient_covector` the dual coordinates
    eta, under that class's shape checks and finite-difference fallback.
    The optional ``hessian`` closure broadcasts the same way (any other
    shape raises ClosureShapeError); without it, finite differences of
    eta fill in.
    """

    def __init__(self, phi: Callable[[np.ndarray], float], chart: Chart,
                 eta: Callable[[np.ndarray], np.ndarray] | None = None,
                 hessian: Callable[[np.ndarray], np.ndarray] | None = None,
                 name: str = ""):
        super().__init__(phi, gradient=eta, name=name)
        self.chart = chart
        self._hessian = hessian

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self._hessian is not None:
            h = np.asarray(self._hessian(theta), dtype=float)
            _check_shape(h, theta.shape + theta.shape[-1:],
                         f"{self.name or 'model'} hessian")
        else:
            h = numdiff.jacobian_fd(self.gradient_covector, theta)
            h = 0.5 * (h + np.swapaxes(h, -1, -2))
        bad = np.linalg.eigvalsh(h).min(axis=-1) <= 0.0
        if bad.any():
            raise NonConvexError(
                f"Hessian of {self.name or 'phi'} not positive definite "
                f"at {theta[np.unravel_index(np.argmax(bad), bad.shape)]}")
        return h

    def psi(self, theta: np.ndarray) -> float | np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return (np.einsum("...i,...i->...", theta,
                          self.gradient_covector(theta)) - self(theta))


def metric_field(model: HessianModel) -> MetricField:
    """The Hessian metric of the model as a MetricField over its chart."""
    return MetricField(model.chart, model.hessian, name=model.name)


def canonical_divergence(model: HessianModel, p, q) -> float | np.ndarray:
    """D(p, q) = phi(p) + psi(q) - theta(p) . eta(q), both points in theta."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return (model(p) + model.psi(q)
            - np.einsum("...i,...i->...", p, model.gradient_covector(q)))


def fujiwara_amari_residual(model: HessianModel, q, x) -> float | np.ndarray:
    """Defect of the affine-gradient property of D_q(.) = D(q, .).

    Builds the Hessian-metric gradient field V of D_q, from finite
    differences of divergence values and a solve against the model's
    Hessian, and returns ``|(dV) V - V| / |V|`` at x; near zero certifies
    that gradient curves of the divergence are pregeodesics of the flat
    chart connection.  A model whose eta, phi and Hessian disagree reads
    far from zero.  q and x broadcast: one pair gives a float, a stack of
    pairs one residual per pair, from one call of each stage on the whole
    stack.

    Raises
    ------
    CriticalPointError
        If any pair has x = q.
    """
    q = np.asarray(q, dtype=float)
    x = np.asarray(x, dtype=float)
    if (np.linalg.norm(x - q, axis=-1) < 1e-12).any():
        raise CriticalPointError(
            "x = q: the divergence gradient vanishes on the diagonal")

    def d_q(y):
        return canonical_divergence(model, q, y)

    def v_field(y):
        grad = numdiff.jacobian_fd(d_q, y)
        return np.linalg.solve(model.hessian(y), grad[..., None])[..., 0]

    # the property under test makes V affine, so the outer derivative has
    # no truncation error at any step; a wide step drowns the FD noise
    # of each V evaluation
    x = np.broadcast_to(x, np.broadcast_shapes(x.shape, q.shape))
    v = v_field(x)
    jac = numdiff.jacobian_fd(v_field, x, scale=1e-2)
    defect = (jac @ v[..., None])[..., 0] - v
    r = np.linalg.norm(defect, axis=-1) / np.linalg.norm(v, axis=-1)
    return float(r) if r.ndim == 0 else r


def quadratic_model(dim: int = 1) -> HessianModel:
    """Self-dual model phi = |theta|^2 / 2 (Euclidean chart)."""
    return HessianModel(
        lambda th: 0.5 * (th * th).sum(axis=-1),
        Chart(dim),
        eta=lambda th: np.array(th, dtype=float),
        hessian=lambda th: np.broadcast_to(np.eye(dim), th.shape + (dim,)),
        name="quadratic",
    )


def exponential_model() -> HessianModel:
    """phi = e^theta on the line; dual potential eta ln eta - eta."""
    return HessianModel(
        lambda th: np.exp(th[..., 0]),
        Chart(1),
        eta=lambda th: np.exp(th),
        hessian=lambda th: np.exp(th)[..., None],
        name="exponential",
    )


def gaussian_natural_model() -> HessianModel:
    """Log-partition of the 1-D Gaussian in natural parameters.

    theta = (mu/s, -1/(2s)) for mean mu and variance s; the chart is the
    half-plane theta_2 < 0.  phi = -theta_1^2/(4 theta_2) - ln(-2 theta_2)/2,
    eta = (mean, second moment), and the canonical divergence reproduces
    the KL divergence between the underlying densities.
    """
    chart = Chart(2, domain_check=lambda th: th[..., 1] < 0.0, name="gauss-natural")

    def phi(th):
        return (-th[..., 0] ** 2 / (4.0 * th[..., 1])
                - 0.5 * np.log(-2.0 * th[..., 1]))

    def eta(th):
        mean = -th[..., 0] / (2.0 * th[..., 1])
        var = -1.0 / (2.0 * th[..., 1])
        return np.stack([mean, mean ** 2 + var], axis=-1)

    def hessian(th):
        var = -1.0 / (2.0 * th[..., 1])
        mean = -th[..., 0] / (2.0 * th[..., 1])
        return np.stack([var, 2.0 * mean * var, 2.0 * mean * var,
                         4.0 * mean ** 2 * var + 2.0 * var ** 2],
                        axis=-1).reshape(th.shape + (2,))

    return HessianModel(phi, chart, eta=eta, hessian=hessian,
                        name="gauss-natural")
