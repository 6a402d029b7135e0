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

from .dually_flat import canonical_divergence, exponential_model, metric_field
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
    g = MetricField(Chart(dim, name="euclidean"),
                    diagonal=lambda x: np.ones(x.shape),
                    partials=lambda x: np.zeros(x.shape + (dim,)),
                    name="euclidean")
    return g, distance_squared_potential(g, np.zeros(dim))


def gaussian_mode() -> tuple[MetricField, ScalarPotential]:
    """Single relaxation mode of rate 2 (a* = 1): Fisher metric on the
    variance half-line."""
    return mode_manifold(ModeSpectrum(lambdas=np.array([2.0])), 0)


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

    def diagonal(x):
        return np.stack([np.ones(x.shape[:-1]), np.sin(x[..., 0]) ** 2],
                        axis=-1)

    def partials(x):
        d = np.zeros(x.shape + (2,))
        d[..., 0, 1] = 2.0 * np.sin(x[..., 0]) * np.cos(x[..., 0])
        return d

    def grad(x):
        d = np.zeros(x.shape)
        d[..., 0] = -np.sin(x[..., 0])
        return d

    g = MetricField(chart, diagonal=diagonal, partials=partials,
                    name="sphere")
    f = ScalarPotential(lambda x: 1.0 + np.cos(x[..., 0]), gradient=grad,
                        name="height")
    return g, f


def hessian_exp() -> tuple[MetricField, ScalarPotential]:
    """Exponential Hessian model with its divergence from the origin.

    f(theta) = D(theta, 0) = e^theta - theta - 1, minimized at theta = 0,
    with gradient eta(theta) - eta(0); the metric is the model's Hessian
    e^theta.
    """
    model = exponential_model()
    q = np.zeros(1)
    f = ScalarPotential(lambda x: canonical_divergence(model, x, q),
                        gradient=lambda x: (model.gradient_covector(x)
                                            - model.gradient_covector(q)),
                        minimum_q=q.copy(), name="exp-divergence")
    return metric_field(model), f


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
