"""Riemannian gradient flows, straightened connections, and relaxation asymmetry.

The package is organized around five capabilities:

* :mod:`geoflow.manifold` -- charts, metrics, potentials, geodesics, flows
* :mod:`geoflow.straightening` -- the connection that turns gradient curves
  into pregeodesics, its non-metricity, curvature, and projections
* :mod:`geoflow.comparison` -- equidistant seeding and the relaxation race
* :mod:`geoflow.dually_flat` -- Hessian models, Legendre duality, divergences
* :mod:`geoflow.gaussian_chain` -- the bead-spring chain whose warming beats
  its cooling from the same potential level

``geoflow.cli`` exposes the same machinery as the ``geoflow`` command.
"""

__version__ = "0.1.0"

from .comparison import (
    CURVE1_FASTER,
    CURVE2_FASTER,
    INCONCLUSIVE,
    AsymmetryReport,
    EquidistantPair,
    compare,
    compare_batch,
    equidistant_seed,
)
from .dually_flat import (
    HessianModel,
    canonical_divergence,
    canonical_divergence_dual,
    dual_model,
    exponential_model,
    fujiwara_amari_residual,
    gaussian_natural_model,
    legendre_dual,
    metric_field,
    quadratic_model,
)
from .errors import GeoflowError
from .gaussian_chain import (
    ChainSpec,
    ModeSpectrum,
    analytic_variance,
    chain_manifold,
    cubic_closed_form,
    equidistant_temperatures,
    mode_manifold,
    mode_plane_manifold,
    potential_F,
    scalar_curvature_mode,
    spectrum,
    universal_asymmetry_experiment,
)
from .manifold import (
    AffineConnection,
    Chart,
    MetricField,
    ScalarPotential,
    Trajectory,
    christoffel_levi_civita,
    covariant_acceleration,
    grad_norm_sq,
    gradient,
    integrate_flow,
    integrate_geodesic,
    levi_civita_connection,
    metric_inverse,
)
from .straightening import (
    EPS_GRAD,
    Submanifold,
    nonmetricity_cubic,
    pregeodesic_residual,
    projection_orthogonality,
    scalar_curvature,
    straightening_connection,
    z_field,
)

__all__ = [
    "__version__",
    "AffineConnection",
    "AsymmetryReport",
    "ChainSpec",
    "Chart",
    "CURVE1_FASTER",
    "CURVE2_FASTER",
    "EPS_GRAD",
    "EquidistantPair",
    "GeoflowError",
    "HessianModel",
    "INCONCLUSIVE",
    "MetricField",
    "ModeSpectrum",
    "ScalarPotential",
    "Submanifold",
    "Trajectory",
    "analytic_variance",
    "canonical_divergence",
    "canonical_divergence_dual",
    "chain_manifold",
    "christoffel_levi_civita",
    "compare",
    "compare_batch",
    "covariant_acceleration",
    "cubic_closed_form",
    "dual_model",
    "equidistant_seed",
    "equidistant_temperatures",
    "exponential_model",
    "fujiwara_amari_residual",
    "gaussian_natural_model",
    "grad_norm_sq",
    "gradient",
    "integrate_flow",
    "integrate_geodesic",
    "legendre_dual",
    "levi_civita_connection",
    "metric_field",
    "metric_inverse",
    "mode_manifold",
    "mode_plane_manifold",
    "nonmetricity_cubic",
    "potential_F",
    "pregeodesic_residual",
    "projection_orthogonality",
    "quadratic_model",
    "scalar_curvature",
    "scalar_curvature_mode",
    "spectrum",
    "straightening_connection",
    "universal_asymmetry_experiment",
    "z_field",
]
