"""Named example manifolds shared by the verification battery and the CLI.

Each builder returns a ``(MetricField, ScalarPotential)`` pair whose
metric and potential closures broadcast over point stacks.  The
``COMPARE_MODELS`` registry adds default seeding data so the command-line
``compare`` front end can run a named model without further setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dually_flat import exponential_model, metric_field
from .gaussian_chain import (
    ChainSpec,
    ModeSpectrum,
    chain_manifold,
    mode_manifold,
    spectrum,
)
from .manifold import Chart, MetricField, ScalarPotential

__all__ = [
    "euclidean_quadratic",
    "gaussian_mode",
    "two_mode_chain",
    "sphere_height",
    "hessian_exp",
    "distance_squared_potential",
    "CompareModel",
    "COMPARE_MODELS",
]


def euclidean_quadratic(dim: int = 2) -> tuple[MetricField, ScalarPotential]:
    """Flat metric with the isotropic quadratic bowl f = |x|^2 / 2."""
    eye = np.eye(dim)
    g = MetricField(Chart(dim, name="euclidean"),
                    lambda x: np.zeros(x.shape[:-1] + eye.shape) + eye,
                    partials=lambda x: np.zeros((dim, dim, dim)),
                    name="euclidean")
    f = ScalarPotential(lambda x: 0.5 * (x * x).sum(axis=-1),
                        gradient=lambda x: np.asarray(x, dtype=float),
                        minimum_q=np.zeros(dim),
                        name="quadratic")
    return g, f


def gaussian_mode(rate: float = 2.0,
                  a_star: float = 1.0) -> tuple[MetricField, ScalarPotential]:
    """Single relaxation mode: Fisher metric on the variance half-line."""
    spect = ModeSpectrum(lambdas=np.array([rate]), a_star=np.array([a_star]))
    return mode_manifold(spect, 0)


def two_mode_chain() -> tuple[MetricField, ScalarPotential]:
    """Two independent modes with distinct rates 1 and 3 (three beads)."""
    return chain_manifold(spectrum(ChainSpec(3)))


def sphere_height() -> tuple[MetricField, ScalarPotential]:
    """Unit sphere in polar coordinates with the height potential 1 + cos(theta).

    The chart excludes the poles; the minimum sits at theta = pi, outside
    the open strip, so the potential carries no designated minimum.
    """
    chart = Chart(2, domain_check=lambda x: 0.05 < x[0] < np.pi - 0.05,
                  name="sphere-polar")

    def matrix(x):
        m = np.zeros(x.shape[:-1] + (2, 2))
        m[..., 0, 0] = 1.0
        m[..., 1, 1] = np.sin(x[..., 0]) ** 2
        return m

    def partials(x):
        d = np.zeros((2, 2, 2))
        d[0, 1, 1] = 2.0 * np.sin(x[0]) * np.cos(x[0])
        return d

    def grad(x):
        d = np.zeros(x.shape)
        d[..., 0] = -np.sin(x[..., 0])
        return d

    g = MetricField(chart, matrix, partials=partials, name="sphere")
    f = ScalarPotential(lambda x: 1.0 + np.cos(x[..., 0]), gradient=grad,
                        name="height")
    return g, f


def hessian_exp() -> tuple[MetricField, ScalarPotential]:
    """Exponential Hessian model with its divergence from the origin.

    f(theta) = D(theta, 0) = e^theta - theta - 1, minimized at theta = 0;
    the metric is the model's Hessian e^theta.
    """
    model = exponential_model()
    g = metric_field(model)
    q = np.zeros(1)

    def value(x):
        # D(x, 0) = phi(x) + psi(0) - x eta(0), with psi(0) = -1, eta(0) = 1
        return np.exp(x[..., 0]) - 1.0 - x[..., 0]

    def grad(x):
        return np.exp(np.asarray(x, dtype=float)) - 1.0

    f = ScalarPotential(value, gradient=grad, minimum_q=q.copy(),
                        name="exp-divergence")
    return g, f


def distance_squared_potential(g: MetricField,
                               q: np.ndarray) -> ScalarPotential:
    """Half the squared Euclidean distance from q, as a potential on g's chart.

    Only meaningful on flat fixtures where coordinate distance is the
    Riemannian distance.
    """
    q = np.asarray(q, dtype=float)

    def value(x):
        d = x - q
        return 0.5 * (d * d).sum(axis=-1)

    return ScalarPotential(value,
                           gradient=lambda x: np.asarray(x, dtype=float) - q,
                           minimum_q=q.copy(),
                           name="distance-squared")


@dataclass(frozen=True)
class CompareModel:
    """Registry entry: fixture builder plus default seeding for ``compare``."""

    build: Callable[[], tuple[MetricField, ScalarPotential]]
    direction1: tuple[float, ...]
    direction2: tuple[float, ...]
    level: float
    note: str = ""


COMPARE_MODELS: dict[str, CompareModel] = {
    "euclidean-quadratic": CompareModel(
        build=lambda: euclidean_quadratic(2),
        direction1=(1.0, 0.0),
        direction2=(0.0, 1.0),
        level=0.5,
        note="isotropic bowl; orthogonal seeds relax identically",
    ),
    "gaussian-mode": CompareModel(
        build=gaussian_mode,
        direction1=(-1.0,),
        direction2=(1.0,),
        level=2.0 * np.log(2.0) - 1.0,
        note="warming (curve 1) against cooling (curve 2) at matched level",
    ),
    "hessian-exp": CompareModel(
        build=hessian_exp,
        direction1=(-1.0,),
        direction2=(1.0,),
        level=0.5,
        note="below-minimum seed against above-minimum seed",
    ),
}
