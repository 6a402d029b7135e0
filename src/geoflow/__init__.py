"""Riemannian gradient flows, straightened connections, and relaxation asymmetry.

The package is organized around five capabilities:

* :mod:`geoflow.manifold` -- charts, metrics, potentials, connections, flows
* :mod:`geoflow.straightening` -- the connection that turns gradient curves
  into pregeodesics, its non-metricity, curvature, and projections
* :mod:`geoflow.comparison` -- equidistant seeding and the relaxation race
* :mod:`geoflow.dually_flat` -- Hessian models and canonical divergences
* :mod:`geoflow.gaussian_chain` -- the bead-spring chain whose warming beats
  its cooling from the same potential level

``geoflow.cli`` exposes the same machinery as the ``geoflow`` command.
The package itself exports only what a race needs; everything else is
imported from its own module.
"""

__version__ = "0.1.0"

from .comparison import (
    CURVE1_FASTER,
    CURVE2_FASTER,
    INCONCLUSIVE,
    EquidistantPair,
    compare,
    equidistant_seed,
)
from .errors import GeoflowError
from .gaussian_chain import ChainSpec, universal_asymmetry_experiment
from .manifold import Chart, MetricField, ScalarPotential
from .straightening import straightening_connection

__all__ = [
    "__version__",
    "CURVE1_FASTER",
    "CURVE2_FASTER",
    "INCONCLUSIVE",
    "ChainSpec",
    "Chart",
    "EquidistantPair",
    "GeoflowError",
    "MetricField",
    "ScalarPotential",
    "compare",
    "equidistant_seed",
    "straightening_connection",
    "universal_asymmetry_experiment",
]
